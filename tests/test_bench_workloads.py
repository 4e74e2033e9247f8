"""perfbench/workloads.py: every command the benchmark generates is one the
CLI still accepts, so removing a config key or a flag cannot break the
benchmark unnoticed.  The generator runs from its file through runpy, which
writes no bytecode cache, so nothing under perfbench/ changes."""

import runpy
from pathlib import Path

import pytest

from mingraphs.cli import _parse_flags, build_parser
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
        args = parser.parse_args(list(command.argv))
        _parse_flags(args)
        if command.kind == "sweep":  # no --config: one lw pair per --gammas entry
            assert args.gammas == command.gammas
        else:
            build_pair(args.pair)
        assert args.out == command.out
