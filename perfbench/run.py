"""mingraphs benchmark: seeded CLI workloads, checked by an oracle, timed end to end.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload checks|grid|session --seed N --seconds S --trace 0|1

Every command runs in a fresh interpreter, one after another, from this one
harness process: a closed loop with a single client.  Passes over the
workload repeat until S seconds have been measured.  After each pass the
oracle checks every output.  The run prints each metric by name with its
unit, then one JSON line:

* ``--trace 0``: the end-to-end metrics (medians over passes) and the
  set-up time of a fresh ``import mingraphs.cli`` (median of several);
* ``--trace 1``: traced passes alternate with plain ones; the per-layer
  metrics come from the traced passes and the tracing overhead is the
  difference of the two medians.

Artifacts (environment, per-pass numbers, oracle findings) go to a fresh
directory under ``.perfbench_tmp/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import layers
import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).resolve().parent / "tracer.py"
SETUP_PROBES = 5
COMMAND_LIMIT_S = 150.0     # a child running longer than this is killed
RUN_BUDGET_S = 160.0        # no pass starts that could end after this

#: Metric names and units, in the order BENCHMARK.json lists them.
SPEC = ROOT / "BENCHMARK.json"


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def child_env(run_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    # imports read cached bytecode, as an installed package does, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        TMPDIR=str(run_dir),
    )
    return env


def run_child(argv: list[str], cwd: Path, log: Path, env: dict[str, str]) -> dict:
    """Run one child to completion; wall time and its own rusage (os.wait4)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": log.with_suffix(".out").read_text(errors="replace"),
        "stderr": log.with_suffix(".err").read_text(errors="replace"),
    }


def environment(args) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_imports(run_dir: Path, env: dict[str, str], count: int) -> list[float]:
    """Warm up, check that mingraphs comes from this checkout, then time
    ``count`` fresh interpreters importing mingraphs.cli."""
    code = "import mingraphs.cli; print(mingraphs.cli.__file__)"
    first = run_child([sys.executable, "-c", code], run_dir, run_dir / "probe", env)
    if first["exit"] != 0:
        raise BenchError(f"import mingraphs.cli failed:\n{first['stderr']}")
    where = Path(first["stdout"].strip()).resolve()
    if ROOT / "src" not in where.parents:
        raise BenchError(f"mingraphs imported from {where}, not from this checkout")
    return [run_child([sys.executable, "-c", "import mingraphs.cli"], run_dir,
                      run_dir / "probe", env)["wall"] for _ in range(count)]


def run_pass(workload: workloads.Workload, pass_dir: Path, env: dict[str, str],
             traced: bool, rng: np.random.Generator) -> dict:
    """One pass over the workload's commands, then the oracle over its outputs."""
    for rel, text in workload.configs:
        (pass_dir / rel).parent.mkdir(parents=True, exist_ok=True)
        (pass_dir / rel).write_text(text)
    (pass_dir / "logs").mkdir(parents=True, exist_ok=True)
    results = []
    start = time.perf_counter()
    for i, cmd in enumerate(workload.commands):
        log = pass_dir / "logs" / f"{i:02d}-{cmd.tag}"
        if traced:
            argv = [sys.executable, "-X", "importtime", str(TRACER),
                    str(log.with_suffix(".npz")), str(i), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "mingraphs.cli", *cmd.argv]
        results.append(run_child(argv, pass_dir, log, env))
    wall = time.perf_counter() - start

    outcomes = [oracle.check(cmd, pass_dir, res["exit"], res["stdout"], res["stderr"], rng)
                for cmd, res in zip(workload.commands, results)]
    summary = {
        "traced": traced,
        "wall_s": wall,
        "cpu_s": sum(res["cpu"] for res in results),
        "peak_rss_mb": max(res["rss_mb"] for res in results),
        "commands": [
            {"tag": cmd.tag, "exit": res["exit"], "wall_s": res["wall"],
             "problems": out.problems, "known": out.known}
            for cmd, res, out in zip(workload.commands, results, outcomes)
        ],
        "attempted": len(outcomes),
        "mismatched": sum(not out.ok for out in outcomes),
        "unexpected": sum(out.unexpected for out in outcomes),
        "poisson_err": max((out.poisson_err for out in outcomes
                            if out.poisson_err is not None), default=0.0),
    }
    if traced:
        summary["layers"] = layers.pass_metrics([
            (pass_dir / "logs" / f"{i:02d}-{cmd.tag}.npz", res["stderr"])
            for i, (cmd, res) in enumerate(zip(workload.commands, results))
        ])
    return summary


def measure(args, run_dir: Path) -> tuple[dict, list[dict], list[float]]:
    env = child_env(run_dir)
    workload = workloads.build(args.workload, args.seed)
    rng = np.random.default_rng(args.seed)
    began = time.perf_counter()
    setup = probe_imports(run_dir, env, SETUP_PROBES if not args.trace else 0)

    passes: list[dict] = []
    measure_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_dir = run_dir / f"pass{len(passes)}"
        passes.append(run_pass(workload, pass_dir, env, traced, rng))
        shutil.rmtree(pass_dir)
        elapsed = time.perf_counter() - measure_start
        longest = max(p["wall_s"] for p in passes)
        need_traced = args.trace and not any(p["traced"] for p in passes)
        if time.perf_counter() - began + longest > RUN_BUDGET_S and not need_traced:
            break
        if elapsed >= args.seconds and not need_traced:
            break
    return workload_summary(passes), passes, setup


def workload_summary(passes: list[dict]) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    return {
        "attempted": attempted,
        "failed": sum(p["unexpected"] for p in passes),
        "failed_frac": sum(p["mismatched"] for p in passes) / attempted,
        "poisson_err": max(p["poisson_err"] for p in passes),
    }


def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    metrics = {"setup_s": statistics.median(setup)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[key] = statistics.median(p[key] for p in plain)
    return metrics


def per_layer(passes: list[dict], summary: dict) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics["failed_frac"] = summary["failed_frac"]
    metrics["poisson_err"] = summary["poisson_err"]
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mingraphs" / "cli.py").is_file():
        print(f"error: no mingraphs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-t{args.trace}-",
                                    dir=tmp_root))
    env_record = environment(args)
    try:
        summary, passes, setup = measure(args, run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    if args.trace:
        metrics, listed = per_layer(passes, summary), spec["per_layer"]
    else:
        metrics, listed = end_to_end(passes, setup), spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (run_dir / "result.json").write_text(json.dumps(
        {"environment": env_record, "summary": summary, "setup_s": setup,
         "passes": passes, "result": result},
        indent=1, default=float))

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_record.items()))
    print(f"passes: {len(passes)} ({sum(p['traced'] for p in passes)} traced), "
          f"commands attempted {summary['attempted']}, artifacts in {run_dir.relative_to(ROOT)}")
    findings: dict[str, int] = {}
    for cmd in (cmd for p in passes for cmd in p["commands"] if cmd["problems"]):
        label = (f"known defect {cmd['known']} ({oracle.KNOWN_DEFECTS[cmd['known']]})"
                 if cmd["known"] else "UNEXPECTED")
        line = f"{label} [{cmd['tag']}]: {'; '.join(cmd['problems'])[:300]}"
        findings[line] = findings.get(line, 0) + 1
    for line, count in findings.items():
        print(f"  {line} (in {count} of {len(passes)} passes)")
    if not args.trace:
        print(f"  {'failed_frac':<30} {summary['failed_frac']:>14.6g} ratio")
        print(f"  {'poisson_err':<30} {summary['poisson_err']:>14.6g} abs")
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
