"""perfbench/workloads.py: every command the benchmark generates is one the
CLI still accepts, so removing a config key or a flag cannot break the
benchmark unnoticed.  The generator runs from its file through runpy, which
writes no bytecode cache, so nothing under perfbench/ changes."""

import runpy
from pathlib import Path

import pytest

from mingraphs.cli import _config_from_args, build_parser
from mingraphs.config import build_pair, load_config

GENERATOR = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
workloads = runpy.run_path(str(GENERATOR))


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("name", sorted(workloads["WORKLOADS"]))
def test_workload_inputs_parse(tmp_path, monkeypatch, name, seed):
    workload = workloads["build"](name, seed)
    monkeypatch.chdir(tmp_path)  # argv paths are relative to the pass directory
    for path, text in workload.configs:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
        build_pair(load_config(path))
    parser = build_parser()
    for command in workload.commands:
        config = _config_from_args(parser.parse_args(list(command.argv)))
        build_pair(config.pair_spec)
        assert config.out_dir == command.out
