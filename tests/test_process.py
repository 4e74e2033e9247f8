"""One CLI process: the modules a command loads, how it exits, and the lazy
package namespace that lets it load only those."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mingraphs
from mingraphs.cli import main

SRC = str(Path(mingraphs.__file__).parents[1])
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PLANAR_CONFIG = "[pair]\nkind = planar\na = 2\nk0 = 2\n"

#: Command -> the mingraphs and numpy.polynomial modules a fresh process loads for it.
LOADED = {
    ("levelcurves", "--gamma", "1.5", "--levels", "0,1", "--tau=-2,2,5",
     "--format", "csv,json,svg"): [
        "mingraphs", "mingraphs.analytic", "mingraphs.cli", "mingraphs.config",
        "mingraphs.errors", "mingraphs.levels", "mingraphs.serialize", "mingraphs.svgplot",
        "mingraphs.weierstrass",
    ],
    ("verify", "thm1", "--gamma", "1.5"): [
        "mingraphs", "mingraphs.analytic", "mingraphs.cli", "mingraphs.config",
        "mingraphs.errors", "mingraphs.levels", "mingraphs.serialize", "mingraphs.verify",
        "mingraphs.weierstrass",
    ],
    ("reconstruct", "--gamma", "1.5", "--grid=0.5,1.5,-0.5,0.5,0.25"): [
        "mingraphs", "mingraphs.analytic", "mingraphs.cli", "mingraphs.config",
        "mingraphs.errors", "mingraphs.graphfield", "mingraphs.serialize",
        "mingraphs.weierstrass",
    ],
    ("verify", "all", "--gamma", "1.5"): [
        "mingraphs", "mingraphs.analytic", "mingraphs.cli", "mingraphs.config",
        "mingraphs.errors", "mingraphs.graphfield", "mingraphs.levels", "mingraphs.serialize",
        "mingraphs.verify", "mingraphs.weierstrass",
    ],
}


def _env(unbuffered: bool) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe or file is then block-buffered
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("argv", list(LOADED),
                         ids=["levelcurves", "verify-thm1", "reconstruct", "verify-all"])
def test_command_loads_only_its_modules(tmp_path, argv):
    code = (
        "import sys\n"
        "from mingraphs.cli import main\n"
        f"assert main({[*argv, '--out', 'out']!r}) == 0\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.partition('.')[0] == 'mingraphs' or name.startswith('numpy.polynomial')))\n"
        "print('configparser' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_env(False),
                          capture_output=True, text=True, check=True)
    # without --config, config.load_config never runs, nor loads configparser
    assert done.stdout.strip().splitlines()[-2:] == [repr(LOADED[argv]), "False"]


#: (CLI arguments, exit status): a pass, a designed failure and a refused input.
EXITS = [
    (["levelcurves", "--gamma", "1.5", "--levels", "0,1", "--tau=-2,2,5",
      "--format", "csv,json,svg"], 0),
    (["verify", "thm2", "--config", "planar.ini"], 1),
    (["verify", "thm1", "--gamma", "2"], 2),
]


@pytest.mark.parametrize("argv, status", EXITS, ids=["pass", "fail", "refused"])
def test_exit_status_and_streams(tmp_path, monkeypatch, capsys, argv, status):
    argv = [*argv, "--out", "out"]
    (tmp_path / "planar.ini").write_text(PLANAR_CONFIG)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == status
    want = capsys.readouterr()
    assert want.out or want.err

    cli = [sys.executable, "-m", "mingraphs.cli", *argv]
    piped = subprocess.run(cli, cwd=tmp_path, env=_env(False), capture_output=True, text=True)
    assert (piped.returncode, piped.stdout, piped.stderr) == (status, want.out, want.err)
    with open(tmp_path / "stdout.txt", "w") as out, open(tmp_path / "stderr.txt", "w") as err:
        filed = subprocess.run(cli, cwd=tmp_path, env=_env(False), stdout=out, stderr=err)
    assert filed.returncode == status
    assert (tmp_path / "stdout.txt").read_text() == want.out
    assert (tmp_path / "stderr.txt").read_text() == want.err


#: The two process entries that end in ``cli.run``: ``python -m`` and the
#: ``mingraphs`` console script, whose wrapper imports ``run`` and calls it.
ENTRIES = [["-m", "mingraphs.cli"], ["-c", "from mingraphs.cli import run; run()"]]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, unbuffered):
    for entry in ENTRIES:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, *entry, "verify", "thm1", "--gamma", "1.5", "--out", "out"],
                cwd=tmp_path, env=_env(unbuffered), stdout=write_end, stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert (entry, done.returncode, done.stderr) == (entry, 1, "")


def test_every_public_name_resolves():
    assert mingraphs.__all__ == sorted(mingraphs._SUBMODULE)
    for name in mingraphs.__all__:
        module = importlib.import_module(f"mingraphs.{mingraphs._SUBMODULE[name]}")
        assert getattr(mingraphs, name) is getattr(module, name)
        assert name in dir(mingraphs)
    namespace: dict = {}
    exec("from mingraphs import *", namespace)
    assert set(mingraphs.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'reconstruct'"):
        mingraphs.reconstruct


def _traced(tmp_path, argv: list[str]) -> tuple[subprocess.CompletedProcess, dict]:
    """Run one command under the benchmark's tracer; its exit and counters."""
    spans = tmp_path / "spans.npz"
    done = subprocess.run([sys.executable, str(TRACER), str(spans), "0", *argv, "--out", "out"],
                          cwd=tmp_path, env=_env(False), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    with np.load(spans) as data:
        return done, json.loads(str(data["counters"]))


def test_tracer_wraps_what_the_commands_run(tmp_path):
    """The tracer wraps package functions by name, so a renamed or deleted
    one breaks every traced benchmark run."""
    _, counters = _traced(tmp_path, ["levelcurves", "--gamma", "1.5", "--levels", "0,1,2",
                                     "--tau=-2,2,5", "--format", "csv,json,svg"])
    assert counters["levels.samples"] == 3 * 5

    done, counters = _traced(tmp_path, ["reconstruct", "--gamma", "1.5",
                                        "--grid=0.5,1.5,-0.5,0.5,0.25"])
    solved, attempted = map(int, re.search(r"solved (\d+)/(\d+)", done.stdout).groups())
    assert 0 < solved
    assert (counters["graphfield.nodes_solved"], counters["graphfield.nodes_attempted"]) == (
        solved, attempted)

    # the default window at h = 1/32 (superharmonic and msr share it) and at
    # h/2 (msr's refinement): 10,449 + 41,377 nodes
    _, counters = _traced(tmp_path, ["verify", "all", "--gamma", "1.5"])
    assert counters["verify.reports"] == 8
    assert counters["graphfield.nodes_attempted"] == 10_449 + 41_377
