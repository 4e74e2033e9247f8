"""tools/bench_pairs.py on two stub checkouts whose perfbench/run.py prints a
fixed result line."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "run_seconds": 3,
    "workloads": [{"name": "grid", "why": "stub"}],
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}],
    "per_layer": [{"name": "jet_calls", "unit": "count", "better": "lower"},
                  {"name": "solve_ratio", "unit": "ratio", "better": "higher"}],
}

STUB = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
calls = Path(__file__).parent / "calls.txt"
n = len(calls.read_text().splitlines()) if calls.exists() else 0
calls.write_text((calls.read_text() if calls.exists() else "") + args["--trace"] + "\\n")
with open(LOG, "a") as log:
    log.write(f"{SIDE} {args['--workload']} {args['--seed']} {args['--seconds']} {args['--trace']}\\n")
values = {"wall_s": WALL[n % len(WALL)], "jet_calls": JETS, "solve_ratio": 1.0}
print("metrics ...")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}))
'''


def stub_checkout(root: Path, side: str, log: Path, wall: list[float], jets: int) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        f"SIDE, LOG, WALL, JETS = {side!r}, {str(log)!r}, {wall!r}, {jets!r}\n" + STUB)
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return root


def test_alternating_pairs_and_summary(tmp_path, monkeypatch):
    log = tmp_path / "order.log"
    parent = stub_checkout(tmp_path / "parent", "parent", log, [2.0, 2.2, 1.8], 100)
    change = stub_checkout(tmp_path / "change", "change", log, [1.5, 2.5, 1.6], 50)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--pr", "9",
                             "--seed", "5", "--pairs", "3", "--traced-pairs", "1"]) == 0
    order = log.read_text().splitlines()
    assert order == ["parent grid 5 3 0", "change grid 5 3 0", "change grid 5 3 0",
                     "parent grid 5 3 0", "parent grid 5 3 0", "change grid 5 3 0",
                     "parent grid 5 3 1", "change grid 5 3 1"]
    out = tmp_path / "BENCH_9.json"

    record = json.loads(out.read_text())
    assert record["pr"] == 9 and record["seed"] == 5 and record["seconds"] == 3
    assert record["sha"]["parent"].startswith("unknown")
    assert {"nproc", "python", "numpy"} <= set(record["machine"])
    grid = record["workloads"]["grid"]
    assert grid["correctness"]["change"] == {"correct": True, "attempted": 9, "failed": 0}
    wall = grid["end_to_end"]["wall_s"]
    assert wall["parent"]["values"] == [2.0, 2.2, 1.8]
    assert wall["change"]["values"] == [1.5, 2.5, 1.6]
    assert wall["parent"]["median"] == 2.0 and wall["change"]["median"] == 1.6
    assert wall["parent"]["iqr"] == pytest.approx(0.2)
    assert wall["median_diff"] == pytest.approx(-0.4)
    assert wall["change_wins"] == 2 and wall["pairs"] == 3 and wall["bound"] == 0.25
    # the change's IQR is 0.31 of its median, and its 2.5 s run loses to every
    # parent run
    assert (wall["claim_met"], wall["regressed"], wall["unresolved"]) == (False, False, True)
    layers = grid["per_layer"]
    assert layers["jet_calls"]["change_wins"] == 1  # lower is better
    assert layers["solve_ratio"]["change_wins"] == 0  # a tie is no win


@pytest.mark.parametrize("parent_wall, change_wall, flags", [
    # every pair won, by a median gain of 0.5 s against a parent IQR of 0.1 s
    ([2.0, 2.1, 1.9, 2.05, 1.95], [1.5, 1.55, 1.45, 1.5, 1.52], (True, False, False)),
    # 50 % slower than the parent in every pair, with the bound at 25 %
    ([1.0, 1.02, 0.98], [1.5, 1.52, 1.48], (False, True, False)),
    # every pair won, but the 8 % median gain lies within the parent's IQR,
    # a third of its median: a claim that cannot be told from the noise
    ([1.0, 1.6, 0.8, 1.2, 1.4], [0.95, 1.5, 0.75, 1.1, 1.3], (False, False, True)),
], ids=["claim-met", "regressed", "unresolved"])
def test_acceptance_flags(tmp_path, monkeypatch, capsys, parent_wall, change_wall, flags):
    log = tmp_path / "order.log"
    parent = stub_checkout(tmp_path / "parent", "parent", log, parent_wall, 100)
    change = stub_checkout(tmp_path / "change", "change", log, change_wall, 100)
    monkeypatch.chdir(tmp_path)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--pr", "9",
                             "--seed", "5", "--pairs", "10"]) == 0
    wall = json.loads((tmp_path / "BENCH_9.json").read_text())["workloads"]["grid"][
        "end_to_end"]["wall_s"]
    assert (wall["claim_met"], wall["regressed"], wall["unresolved"]) == flags
    claim, regressed, unresolved = flags
    assert (f"claim_met={claim} regressed={regressed} unresolved={unresolved}"
            in capsys.readouterr().err)


def test_failing_run_reports_its_stderr(tmp_path):
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text(
        "import sys\nprint('error: no sources', file=sys.stderr)\nsys.exit(2)\n")
    with pytest.raises(RuntimeError, match="no sources"):
        bench_pairs.run_once(parent, "grid", 1, 1.0, 0)
