"""Paired benchmark runs of two checkouts, summarized into BENCH_<pr>.json.

Usage:

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N --seed S \
        [--pairs 10] [--traced-pairs 0]

Each checkout runs its own, unchanged ``perfbench/run.py`` for every
workload that the change's BENCHMARK.json lists, for its ``run_seconds``.
Before the first pair, each checkout's ``src`` is byte-compiled with this
interpreter (``compileall``), so neither side writes a ``.pyc`` mid-run.
Pair i runs the parent and then the change when i is even, and the other
way round when i is odd, so a drift in machine load reaches both sides
alike.  ``--traced-pairs`` adds that many pairs of ``--trace 1`` runs for
the per-layer metrics.  BENCH_<N>.json, written to the current directory
after each workload, records per workload and metric each side's values,
median and interquartile range, and the pairs the change won (by the
metric's "better" direction), next to the seed, both git SHAs and the
machine.  Each end-to-end metric also gets the acceptance rule's verdict
(``verdict``): ``claim_met``, ``regressed`` and ``unresolved``.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def git_sha(checkout: Path) -> str:
    """HEAD of a checkout, with "+dirty" when tracked files differ from it."""
    try:
        sha = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return sha + ("+dirty" if dirty else "")


def machine() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def compile_sources(checkout: Path) -> str:
    """Byte-compile the checkout's ``src`` with this interpreter; returns the
    command."""
    argv = [sys.executable, "-m", "compileall", "-q", "src"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited {done.returncode}:\n"
                           f"{(done.stdout + done.stderr).strip()}")
    return " ".join(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its final JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr.strip()}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def verdict(entry: dict) -> dict:
    """The acceptance rule on one metric's summary, with the metric's bound
    relative to the parent's median.

    ``claim_met``: the change won at least 9 in 10 pairs, and its median is
    better than the parent's by more than the parent's IQR.  ``regressed``:
    the change's median is worse than the parent's by more than the bound.
    ``unresolved``: a side's IQR over its median exceeds the bound, and not
    every change run beats every parent run.
    """
    sign = 1.0 if entry["better"] == "lower" else -1.0  # lower is better in sign * value
    parent, change = entry["parent"], entry["change"]
    gain = -sign * entry["median_diff"]
    widest = max(side["iqr"] / abs(side["median"]) if side["median"] else float("inf")
                 for side in (parent, change))
    separated = (max(sign * v for v in change["values"])
                 < min(sign * v for v in parent["values"]))
    return {
        "claim_met": 10 * entry["change_wins"] >= 9 * entry["pairs"] and gain > parent["iqr"],
        "regressed": -gain > entry["bound"] * abs(parent["median"]),
        "unresolved": widest > entry["bound"] and not separated,
    }


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    """Per metric of ``spec``: both sides' spread and the pairs the change won.

    ``pairs`` holds one {"parent": result, "change": result} per pair, each
    result the JSON line of a run; ``spec`` is a BENCHMARK.json metric list.
    """
    out = {}
    for metric in spec:
        name = metric["name"]
        got = {side: [run[side]["metrics"][name]["value"] for run in pairs] for side in SIDES}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(got["parent"], got["change"]))
        entry = {"unit": metric["unit"], "better": metric["better"]}
        if "bound" in metric:
            entry["bound"] = metric["bound"]
        entry.update({side: spread(got[side]) for side in SIDES})
        entry["median_diff"] = entry["change"]["median"] - entry["parent"]["median"]
        entry["change_wins"] = wins
        entry["pairs"] = len(pairs)
        if "bound" in metric:
            entry.update(verdict(entry))
        out[name] = entry
    return out


def bench_workload(checkouts: dict, workload: str, seed: int, seconds: float,
                   pairs: int, trace: int, log) -> list[dict]:
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side] = run_once(checkouts[side], workload, seed, seconds, trace)
            log(f"{workload} trace={trace} pair {i + 1}/{pairs} {side}: "
                f"correct={pair[side]['correct']} failed={pair[side]['failed']}")
        runs.append(pair)
    return runs


def correctness(runs: list[dict]) -> dict:
    return {side: {"correct": all(run[side]["correct"] for run in runs),
                   "attempted": sum(run[side]["attempted"] for run in runs),
                   "failed": sum(run[side]["failed"] for run in runs)} for side in SIDES}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced-pairs", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.traced_pairs < 0:
        parser.error("--pairs must be at least 1 and --traced-pairs at least 0")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {path} has no perfbench/run.py")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    for path in checkouts.values():
        compiled = compile_sources(path)  # the same command in both
    record = {
        "pr": args.pr,
        "seed": args.seed,
        "seconds": seconds,
        "sha": {side: git_sha(path) for side, path in checkouts.items()},
        "machine": machine(),
        "order": "parent first in even pairs, change first in odd pairs",
        "bytecode": f"{compiled} in each checkout before the first pair",
        "workloads": {},
    }
    out = Path(f"BENCH_{args.pr}.json")
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = bench_workload(checkouts, workload, args.seed, seconds, args.pairs, 0, log)
        entry = {"correctness": correctness(runs),
                 "end_to_end": summarize(runs, spec["end_to_end"])}
        if args.traced_pairs:
            traced = bench_workload(checkouts, workload, args.seed, seconds,
                                    args.traced_pairs, 1, log)
            entry["traced_correctness"] = correctness(traced)
            entry["per_layer"] = summarize(traced, spec["per_layer"])
        record["workloads"][workload] = entry
        out.write_text(json.dumps(record, indent=1) + "\n")  # kept after every workload
        for name, metric in entry["end_to_end"].items():
            log(f"{workload} {name}: {metric['parent']['median']:.6g} -> "
                f"{metric['change']['median']:.6g} {metric['unit']} "
                f"(parent IQR {metric['parent']['iqr']:.3g}, change won "
                f"{metric['change_wins']} of {metric['pairs']}) "
                f"claim_met={metric['claim_met']} regressed={metric['regressed']} "
                f"unresolved={metric['unresolved']}")

    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
