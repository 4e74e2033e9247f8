"""Tests of the benchmark itself: seeded inputs, the oracle's negative
controls and the span arithmetic.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import oracle
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _command(workload: workloads.Workload, tag: str) -> workloads.Command:
    return next(cmd for cmd in workload.commands if cmd.tag == tag)


def _run(cmd: workloads.Command, pass_dir: Path, traced_to: Path | None = None):
    prefix = [sys.executable, "-m", "mingraphs.cli"]
    if traced_to is not None:
        prefix = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(traced_to), "0"]
    proc = subprocess.run([*prefix, *cmd.argv], cwd=pass_dir, env=ENV,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_argv_and_configs(name):
    first, again, other = (workloads.build(name, seed) for seed in (11, 11, 12))
    assert [c.argv for c in first.commands] == [c.argv for c in again.commands]
    assert first.configs == again.configs
    assert first != other


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of one command per kind, with their exit status and stdout."""
    pass_dir = tmp_path_factory.mktemp("pass")
    session, grid = workloads.session(5), workloads.grid(5)
    cmds = {
        "levels": _command(session, "lc1"),
        "verify": _command(session, "v1-thm1"),
        "field": _command(grid, "h32"),
    }
    return pass_dir, {key: (cmd, *_run(cmd, pass_dir)) for key, cmd in cmds.items()}


def _check(pass_dir: Path, cmd, code, stdout, stderr) -> oracle.Outcome:
    return oracle.check(cmd, pass_dir, code, stdout, stderr, np.random.default_rng(0))


def _copy(pass_dir: Path, cmd, tmp_path: Path):
    """Copy of one command's outputs that a test may corrupt."""
    shutil.copytree(pass_dir / cmd.out, tmp_path / cmd.out)
    return tmp_path


def test_real_outputs_pass_the_oracle(outputs):
    pass_dir, runs = outputs
    for cmd, code, stdout, stderr in runs.values():
        outcome = _check(pass_dir, cmd, code, stdout, stderr)
        assert outcome.ok, (cmd.tag, outcome.problems)


def test_corrupted_field_value_is_flagged(outputs, tmp_path):
    pass_dir, runs = outputs
    cmd, code, stdout, stderr = runs["field"]
    copy = _copy(pass_dir, cmd, tmp_path)
    path = copy / cmd.out / "field.grid"
    lines = path.read_text().split("\n")
    row = lines[20].split()
    col = next(i for i, v in enumerate(row) if v != "nan")
    row[col] = repr(float(row[col]) * (1 + 1e-7))
    lines[20] = " ".join(row)
    path.write_text("\n".join(lines))
    outcome = _check(copy, cmd, code, stdout, stderr)
    assert outcome.unexpected
    assert any("disagrees with field.grid" in p for p in outcome.problems)


def test_corrupted_field_csv_row_is_flagged(outputs, tmp_path):
    pass_dir, runs = outputs
    cmd, code, stdout, stderr = runs["field"]
    copy = _copy(pass_dir, cmd, tmp_path)
    path = copy / cmd.out / "field.csv"
    lines = path.read_text().split("\n")
    k = next(i for i, line in enumerate(lines) if i > 500 and line.endswith(",1"))
    x, y, u, mask = lines[k].split(",")
    lines[k] = ",".join([x, y, repr(float(u) + 1e-6), mask])
    path.write_text("\n".join(lines))
    assert _check(copy, cmd, code, stdout, stderr).unexpected


def test_corrupted_level_csv_row_is_flagged(outputs, tmp_path):
    pass_dir, runs = outputs
    cmd, code, stdout, stderr = runs["levels"]
    copy = _copy(pass_dir, cmd, tmp_path)
    path = copy / cmd.out / f"level_{workloads.level_name(cmd.levels[2])}.csv"
    lines = path.read_text().split("\n")
    cells = lines[137].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-8))          # y
    lines[137] = ",".join(cells)
    path.write_text("\n".join(lines))
    outcome = _check(copy, cmd, code, stdout, stderr)
    assert outcome.unexpected
    assert any(".csv: y at" in p for p in outcome.problems)


def test_flipped_verdict_is_flagged(outputs, tmp_path):
    pass_dir, runs = outputs
    cmd, code, stdout, stderr = runs["verify"]
    copy = _copy(pass_dir, cmd, tmp_path)
    path = copy / cmd.out / "verify_curvature_bound.json"
    report = json.loads(path.read_text())
    report["passed"] = False
    path.write_text(json.dumps(report))
    outcome = _check(copy, cmd, code, stdout, stderr)
    assert outcome.unexpected
    assert "curvature_bound: passed=False, expected True" in outcome.problems


def test_known_defects_are_told_apart():
    anchored = _command(workloads.session(1), "anchor-zero")
    stderr = "levelcurves failed: segment quadrature error 1.5e-10 above tolerance 1.0e-10\n"
    assert oracle.check_levelcurves(anchored, Path("."), 2, stderr).known == "anchored-quadrature"
    assert oracle.check_levelcurves(anchored, Path("."), 2, "other error").unexpected


def test_traced_counters_repeat_exactly(outputs, tmp_path):
    _, runs = outputs
    cmd = runs["field"][0]
    counts = []
    for i in range(2):
        spans = tmp_path / f"spans{i}.npz"
        assert _run(cmd, tmp_path, traced_to=spans)[0] == 0
        times, counters = layers.self_times(spans)
        assert times["graphfield.reconstruct_s"] > 0.0 and times["serialize.fmt_s"] > 0.0
        counts.append(counters)
    assert counts[0] == counts[1]
    assert counts[0]["serialize.floats_formatted"] > 0
    assert counts[0]["graphfield.newton_jet_points"] > counts[0]["graphfield.nodes_attempted"]


def test_self_time_subtracts_direct_children(tmp_path):
    # root [0, 10] > a [1, 5] > b [2, 3];  root > c [6, 7]
    path = tmp_path / "spans.npz"
    np.savez(path, start=np.array([0.0, 1.0, 2.0, 6.0]), end=np.array([10.0, 5.0, 3.0, 7.0]),
             parent=np.array([-1, 0, 1, 0], dtype=np.int32),
             name=np.array([0, 1, 2, 1], dtype=np.int32),
             names=np.array(["cli.command", "analytic.jet", "serialize.fmt"]),
             counters=json.dumps({"analytic.jet_calls": 2}))
    times, counters = layers.self_times(path)
    assert times["cli.command_s"] == 5.0
    assert times["analytic.jet_s"] == 4.0
    assert times["serialize.fmt_s"] == 1.0
    assert counters == {"analytic.jet_calls": 2}


def test_import_times_read_the_cumulative_column():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      2236 |     176444 |       numpy",
        "import time:       470 |     475182 |       scipy.spatial",
        "import time:       528 |     894276 |   mingraphs",
        "import time:      5361 |     907643 | mingraphs.cli",
        "levelcurves failed: something",
    ])
    times = layers.import_times(stderr)
    assert times["import.mingraphs_cli_s"] == pytest.approx(0.907643)
    assert times["import.numpy_s"] == pytest.approx(0.176444)
    assert times["import.scipy_spatial_s"] == pytest.approx(0.475182)
    assert times["import.scipy_integrate_s"] == 0.0


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    produced = (set(layers.SPAN_METRICS.values()) | set(tracer.COUNTERS)
                | set(layers.import_times("")) | {
                    "analytic.points_per_call", "graphfield.solve_ratio",
                    "graphfield.iters_per_node", "failed_frac", "poisson_err",
                    "trace.overhead_s"})
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]
