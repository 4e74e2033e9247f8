"""Per-layer metrics from traced commands: self times, counters, import times."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: Span name -> self-time metric.
SPAN_METRICS = {
    "cli.command": "cli.command_s",
    "analytic.jet": "analytic.jet_s",
    "weierstrass.g_value": "weierstrass.g_value_s",
    "weierstrass.anchored": "weierstrass.anchored_s",
    "levels.sample": "levels.sample_s",
    "verify.poisson": "verify.poisson_s",
    "verify.checks": "verify.checks_s",
    "graphfield.reconstruct": "graphfield.reconstruct_s",
    "graphfield.stencil": "graphfield.stencil_s",
    "graphfield.format": "graphfield.format_s",
    "serialize.fmt": "serialize.fmt_s",
    "serialize.write": "serialize.write_s",
    "svgplot.render": "svgplot.render_s",
}

#: Module -> import metric, from the cumulative column of ``-X importtime``.
IMPORT_METRICS = {
    "numpy": "import.numpy_s",
    "scipy.spatial": "import.scipy_spatial_s",
    "scipy.integrate": "import.scipy_integrate_s",
}


def self_times(spans_path: Path) -> tuple[dict[str, float], dict[str, int]]:
    """Self time per span metric and the counters of one traced command.

    A span's self time is its duration minus the durations of its direct
    children; the children's own children are inside those durations.
    """
    with np.load(spans_path) as data:
        start, end, parent = data["start"], data["end"], data["parent"]
        name, names = data["name"], [str(n) for n in data["names"]]
        counters = json.loads(str(data["counters"]))
    duration = end - start
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    per_name = np.bincount(name, weights=duration - child, minlength=len(names))
    times = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    for i, span in enumerate(names):
        times[SPAN_METRICS[span]] += float(per_name[i])
    return times, counters


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import times in seconds from ``-X importtime`` lines.

    ``import.mingraphs_cli_s`` sums the top-level entries of the package and
    its cli module, which together are what ``import mingraphs.cli`` costs.
    """
    times = dict.fromkeys(["import.mingraphs_cli_s", *IMPORT_METRICS.values()], 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, label = line.split("|")
        module = label.strip()
        top_level = len(label) - len(label.lstrip()) == 1
        if top_level and (module == "mingraphs" or module == "mingraphs.cli"):
            times["import.mingraphs_cli_s"] += int(cumulative) * 1e-6
        elif module in IMPORT_METRICS:
            times[IMPORT_METRICS[module]] += int(cumulative) * 1e-6
    return times


def pass_metrics(commands: list[tuple[Path, str]]) -> dict[str, float]:
    """Layer metrics of one traced pass from (spans file, stderr) per command."""
    total: dict[str, float] = {}
    for spans_path, stderr in commands:
        times, counters = self_times(spans_path)
        for part in (times, counters, import_times(stderr)):
            for key, value in part.items():
                total[key] = total.get(key, 0) + value
    total["analytic.points_per_call"] = _ratio(total["analytic.jet_points"],
                                               total["analytic.jet_calls"])
    total["graphfield.solve_ratio"] = _ratio(total["graphfield.nodes_solved"],
                                             total["graphfield.nodes_attempted"])
    total["graphfield.iters_per_node"] = _ratio(total["graphfield.newton_jet_points"],
                                                total["graphfield.nodes_attempted"])
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
