"""Run one mingraphs CLI command with every layer traced from outside.

Usage (from the benchmark, one fresh interpreter per command):

    python3 -X importtime perfbench/tracer.py SPANS.npz COMMAND_ID ARGV...

Wrappers go around each layer's public functions, on the defining module
and on every mingraphs namespace that imported the name, so no call gets
past them.  Spans (name, start, end, parent span) stay in memory and are
written to SPANS.npz with the work counters when the command ends.  The
program itself is not changed.
"""

from __future__ import annotations

import sys
import time
from array import array

#: Counters written next to the spans, all zero until a wrapper adds to them.
COUNTERS = (
    "analytic.jet_calls", "analytic.jet_points",
    "weierstrass.g_value_points", "weierstrass.anchored_points",
    "levels.samples",
    "verify.poisson_jet_points", "verify.reports", "verify.reports_failed",
    "graphfield.nodes_attempted", "graphfield.nodes_solved", "graphfield.newton_jet_points",
    "serialize.floats_formatted", "serialize.files_written", "serialize.bytes_written",
)


class Tracer:
    """In-memory span log with an open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.stack: list[int] = []
        self.active: list[int] = []      # open spans per name id
        self.counters = dict.fromkeys(COUNTERS, 0)

    def intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.active.append(0)
        return self.names.index(name)

    def enter(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        self.stack.append(sid)
        self.active[nid] += 1
        self.start.append(time.perf_counter())
        return sid

    def exit(self, sid: int, nid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()
        self.active[nid] -= 1

    def traced(self, name: str, fn, count=None):
        """Wrap fn in a span; count(args, result) runs for outermost calls only."""
        nid = self.intern(name)

        def wrapper(*args, **kwargs):
            outer = not self.active[nid]
            sid = self.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(sid, nid)
            if count is not None and outer:
                count(args, result)
            return result

        return wrapper

    def dump(self, path: str, command_id: int) -> None:
        import json

        import numpy as np

        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            name=np.frombuffer(self.name, dtype=np.int32),
            names=np.array(self.names),
            command=command_id,
            counters=json.dumps(self.counters),
        )


def _replace_everywhere(orig, new) -> None:
    """Rebind every mingraphs module attribute that refers to orig."""
    for modname, module in list(sys.modules.items()):
        if modname == "mingraphs" or modname.startswith("mingraphs."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    import numpy as np

    from mingraphs import analytic, graphfield, levels, serialize, svgplot, verify, weierstrass

    c = tracer.counters

    # analytic: only the outermost jet is a span; SumMap/ScaledMap parts are not
    jet_id = tracer.intern("analytic.jet")
    poisson_id = tracer.intern("verify.poisson")
    rebuild_id = tracer.intern("graphfield.reconstruct")
    depth = [0]

    def wrap_jet(orig):
        def jet(self, zeta):
            if depth[0]:
                return orig(self, zeta)
            n = np.size(zeta)
            c["analytic.jet_calls"] += 1
            c["analytic.jet_points"] += n
            if tracer.active[poisson_id]:
                c["verify.poisson_jet_points"] += n
            if tracer.active[rebuild_id]:
                c["graphfield.newton_jet_points"] += n
            depth[0] += 1
            sid = tracer.enter(jet_id)
            try:
                return orig(self, zeta)
            finally:
                tracer.exit(sid, jet_id)
                depth[0] -= 1
        return jet

    classes = [analytic.AnalyticMap]
    for cls in classes:
        classes.extend(cls.__subclasses__())
        if "jet" in vars(cls):
            cls.jet = wrap_jet(vars(cls)["jet"])

    # weierstrass: closed-form and anchored g are separate spans
    closed = tracer.traced("weierstrass.g_value", weierstrass.g_value)
    anchored = tracer.traced("weierstrass.anchored", weierstrass.g_value)

    def g_value(pair, zeta):
        if pair.g is None:
            c["weierstrass.anchored_points"] += np.size(zeta)
            return anchored(pair, zeta)
        c["weierstrass.g_value_points"] += np.size(zeta)
        return closed(pair, zeta)

    _replace_everywhere(weierstrass.g_value, g_value)

    def count_samples(args, result):
        c["levels.samples"] += len(getattr(result, "samples", result))

    for fn in (levels.sample_level_curve, levels.boundary_trace):
        _replace_everywhere(fn, tracer.traced("levels.sample", fn, count_samples))

    # verify: the Poisson check includes sampling its boundary data
    _replace_everywhere(verify.verify_poisson, tracer.traced("verify.poisson", verify.verify_poisson))
    from_pair = vars(verify.BoundaryArgumentData)["from_pair"].__func__
    verify.BoundaryArgumentData.from_pair = classmethod(tracer.traced("verify.poisson", from_pair))
    for fn in (verify.verify_lemma2, verify.verify_thm1, verify.verify_thm2, verify.verify_scaling,
               verify.disk_transfer_check, verify.estimate_asymptotic_angles):
        _replace_everywhere(fn, tracer.traced("verify.checks", fn))
    to_json = verify.VerificationReport.to_json

    def report_to_json(self):
        c["verify.reports"] += 1
        c["verify.reports_failed"] += not self.passed
        return to_json(self)

    verify.VerificationReport.to_json = report_to_json

    # graphfield
    def count_field(args, field):
        c["graphfield.nodes_attempted"] += field.stats.attempted
        c["graphfield.nodes_solved"] += field.stats.solved

    def count_preimages(args, zeta):
        c["graphfield.nodes_attempted"] += int(args[1].mask.sum())
        c["graphfield.nodes_solved"] += int(np.isfinite(zeta).sum())

    _replace_everywhere(graphfield.reconstruct_u,
                        tracer.traced("graphfield.reconstruct", graphfield.reconstruct_u, count_field))
    _replace_everywhere(graphfield.preimages,
                        tracer.traced("graphfield.reconstruct", graphfield.preimages, count_preimages))
    for fn in (graphfield.msr_residual, graphfield.laplacian, graphfield.F_operator,
               graphfield.levelset_curvature_field, graphfield.nondivergence_gap):
        _replace_everywhere(fn, tracer.traced("graphfield.stencil", fn))
    for attr in ("to_csv", "to_grid_text"):
        method = vars(graphfield.ScalarField2D)[attr]
        setattr(graphfield.ScalarField2D, attr, tracer.traced("graphfield.format", method))

    # serialize
    fmt_id = tracer.intern("serialize.fmt")
    fmt = serialize.fmt_float

    def fmt_float(x):  # called once per formatted value, so kept lean
        c["serialize.floats_formatted"] += 1
        sid = tracer.enter(fmt_id)
        try:
            return fmt(x)
        finally:
            tracer.exit(sid, fmt_id)

    def count_write(args, result):
        c["serialize.files_written"] += 1
        c["serialize.bytes_written"] += len(args[1].encode())

    _replace_everywhere(fmt, fmt_float)
    _replace_everywhere(serialize.atomic_write,
                        tracer.traced("serialize.write", serialize.atomic_write, count_write))

    _replace_everywhere(svgplot.level_curves_svg,
                        tracer.traced("svgplot.render", svgplot.level_curves_svg))


def main(argv: list[str]) -> int:
    spans_path, command_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    import mingraphs.cli  # the same top-level import entry as ``import mingraphs.cli``

    tracer = Tracer()
    install(tracer)
    root = tracer.intern("cli.command")
    sid = tracer.enter(root)
    try:
        code = mingraphs.cli.main(cli_argv)
    except SystemExit as exc:          # argparse rejects a malformed argv
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.exit(sid, root)
    sys.stdout.flush()
    tracer.dump(spans_path, command_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
