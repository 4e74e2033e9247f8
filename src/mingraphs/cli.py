"""Command-line front end.

Commands:
    levelcurves   sample level curves, write CSV/JSON (and SVG) per level
    verify        run one named check or all of them, write JSON reports
    sweep-gamma   run the catalog-family sweep, write a CSV summary table
    reconstruct   invert the map on a grid window, write the field

Exit status is 0 iff every requested check passed; evaluation errors remove
partial outputs and exit nonzero.  Identical configs produce byte-identical
artifacts (17-significant-digit floats, fixed field order, no timestamps).

Each command takes ``--out`` and only the flags it reads
(``build_parser``); any other flag, or an abbreviation, exits 2 with one
stderr line.  ``--config`` names a file that holds the [pair] alone
(``config.load_config``); every run setting is a flag.

Each command imports the modules it runs inside its own function, so a
process loads neither ``verify`` for ``levelcurves`` nor ``graphfield`` for
a check that reconstructs no field.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import RunConfig, build_pair, load_config, parse_floats, parse_formats, parse_value
from .errors import (
    ConvergenceError,
    DomainError,
    EmptyInteriorError,
    ParameterError,
    QuadratureError,
    SingularityError,
)
from .serialize import atomic_write, fmt_float

if TYPE_CHECKING:
    from .verify import VerificationReport

_ERRORS = (
    ParameterError, DomainError, SingularityError, QuadratureError,
    ConvergenceError, EmptyInteriorError, ValueError,
)

VERIFY_CHECKS = (
    "thm1", "thm2", "lemma2", "poisson", "scaling", "disk", "superharmonic", "msr",
)


def _tau(text: str) -> tuple[float, float, int]:
    lo, hi, n = text.split(",")
    return float(lo), float(hi), int(n)


def _grid(text: str) -> tuple[float, float, float, float, float]:
    x0, x1, y0, y1, h = (float(v) for v in text.split(","))
    return x0, x1, y0, y1, h


def _config_from_args(args) -> RunConfig:
    """The run: each flag given (an empty value is refused), else the
    ``RunConfig`` default; a --gamma replaces the [pair] of --config."""
    given: dict = {}
    if getattr(args, "config", None) is not None:
        given["pair_spec"] = load_config(args.config)
    if getattr(args, "gamma", None) is not None:
        given["pair_spec"] = {"kind": "lw", "gamma": str(args.gamma)}
    if getattr(args, "levels", None) is not None:
        given["levels"] = parse_floats(args.levels, "--levels")
    if getattr(args, "tau", None) is not None:
        tau = parse_value(args.tau, _tau, "--tau", "min,max,n with n an integer")
        given["tau_min"], given["tau_max"], given["tau_n"] = tau
    if getattr(args, "grid", None) is not None:
        x0, x1, y0, y1, h = parse_value(args.grid, _grid, "--grid", "x0,x1,y0,y1,h")
        given["grid_window"] = (x0, x1, y0, y1)
        given["grid_spacing"] = h
    if args.out is not None:
        if not args.out:
            raise ParameterError("--out takes a directory, got ''")
        given["out_dir"] = args.out
    if getattr(args, "format", None) is not None:
        given["formats"] = parse_formats(args.format, "--format")
    if getattr(args, "gammas", None) is not None:
        given["sweep_gammas"] = parse_floats(args.gammas, "--gammas")
    return RunConfig(**given)


def _level_name(c: float) -> str:
    return f"{c:g}".replace("-", "m").replace(".", "p")


def cmd_levelcurves(config: RunConfig, args) -> int:
    from .levels import (
        LevelCurveSpec,
        boundary_trace,
        rows_to_csv,
        rows_to_json,
        sample_level_curve,
        sample_rows,
    )
    from .svgplot import level_curves_svg

    pair = build_pair(config.pair_spec)
    out_dir = Path(config.out_dir)
    written: list[Path] = []
    try:
        curves = []
        boundary = None
        for c in config.levels:
            spec = LevelCurveSpec(
                c=c, tau_min=config.tau_min, tau_max=config.tau_max, n_samples=config.tau_n,
            )
            if c == 0.0:
                curve = boundary = boundary_trace(pair, spec)
            else:
                curve = sample_level_curve(pair, spec)
                curves.append((c, curve))
            stem = out_dir / f"level_{_level_name(c)}"
            if "csv" in config.formats or "json" in config.formats:
                rows = sample_rows(curve)
            if "csv" in config.formats:
                written.append(atomic_write(stem.with_suffix(".csv"), rows_to_csv(rows)))
            if "json" in config.formats:
                written.append(atomic_write(stem.with_suffix(".json"), rows_to_json(rows)))
        if "svg" in config.formats:
            if boundary is None:
                spec0 = LevelCurveSpec(
                    c=0.0, tau_min=config.tau_min, tau_max=config.tau_max, n_samples=config.tau_n,
                )
                boundary = boundary_trace(pair, spec0)
            svg = level_curves_svg(curves, boundary, title=pair.label)
            written.append(atomic_write(out_dir / "levelcurves.svg", svg))
    except _ERRORS as exc:
        for path in written:
            path.unlink(missing_ok=True)
        print(f"levelcurves failed: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


def _graph_reports(pair, config: RunConfig, which: list[str]) -> list[VerificationReport]:
    from . import graphfield

    x0, x1, y0, y1 = config.grid_window
    window = ((x0, x1), (y0, y1))
    h = config.grid_spacing
    reports = []
    field = graphfield.reconstruct_u(pair, window, h)
    if "superharmonic" in which:
        reports.append(graphfield.superharmonic_report(
            field, descriptor=f"window {config.grid_window}, h={h:g}"))
    if "msr" in which:
        fine = graphfield.reconstruct_u(pair, window, h / 2.0)
        reports.append(graphfield.msr_report(
            field, fine, descriptor=f"window {config.grid_window}, h={h:g} and {h / 2:g}"))
    return reports


def cmd_verify(config: RunConfig, args) -> int:
    from .verify import (
        BoundaryArgumentData,
        disk_transfer_check,
        verify_lemma2,
        verify_poisson,
        verify_scaling,
        verify_thm1,
        verify_thm2,
    )

    which = list(VERIFY_CHECKS) if args.check == "all" else [args.check]
    pair = build_pair(config.pair_spec)
    out_dir = Path(config.out_dir)

    reports: list[VerificationReport] = []
    try:
        if "lemma2" in which:
            reports.append(verify_lemma2(pair))
        if "thm1" in which:
            reports.append(verify_thm1(pair))
        if "thm2" in which:
            reports.append(verify_thm2(pair))
        if "poisson" in which:
            reports.append(verify_poisson(pair, BoundaryArgumentData.from_pair(pair)))
        if "scaling" in which:
            reports.append(verify_scaling(pair))
        if "disk" in which:
            reports.append(disk_transfer_check(pair))
        graph_checks = [name for name in ("superharmonic", "msr") if name in which]
        if graph_checks:
            reports.extend(_graph_reports(pair, config, graph_checks))
    except _ERRORS as exc:
        print(f"verify failed while evaluating: {exc}", file=sys.stderr)
        return 2

    all_passed = True
    first_failure = None
    for report in reports:
        atomic_write(out_dir / f"verify_{report.check_name}.json", report.to_json())
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {report.check_name}: {report.notes}")
        if not report.passed:
            all_passed = False
            first_failure = first_failure or report.check_name
    if first_failure:
        print(f"first failing check: {first_failure}", file=sys.stderr)
    return 0 if all_passed else 1


def cmd_sweep_gamma(config: RunConfig, args) -> int:
    from .verify import estimate_asymptotic_angles, verify_lemma2, verify_thm1, verify_thm2
    from .weierstrass import lw_family

    bad = [fmt_float(gamma) for gamma in config.sweep_gammas if not np.isfinite(gamma)]
    if bad:
        raise ParameterError(f"sweep gammas must be finite, got {', '.join(bad)}")
    out_dir = Path(config.out_dir)
    header = ("gamma,A_emp,K_emp,min_kappa,angle_plus,angle_minus,"
              "lemma2_pass,thm1_pass,thm2_pass,error")
    rows = [header]
    any_bad = False
    for gamma in config.sweep_gammas:
        try:
            pair = lw_family(gamma)
            lemma2 = verify_lemma2(pair)
            thm1 = verify_thm1(pair)
            thm2 = verify_thm2(pair)
            plus, minus = estimate_asymptotic_angles(pair)
            rows.append(",".join([
                fmt_float(gamma), fmt_float(lemma2.empirical_constant),
                fmt_float(thm1.empirical_constant), fmt_float(thm2.empirical_constant),
                fmt_float(plus), fmt_float(minus),
                str(int(lemma2.passed)), str(int(thm1.passed)), str(int(thm2.passed)), "",
            ]))
            if not (lemma2.passed and thm1.passed and thm2.passed):
                any_bad = True
        except _ERRORS as exc:
            rows.append(",".join([fmt_float(gamma)] + ["nan"] * 5 + ["0", "0", "0",
                                                                     str(exc).replace(",", ";")]))
            any_bad = True
    path = atomic_write(out_dir / "sweep_gamma.csv", "\n".join(rows) + "\n")
    print(path)
    return 1 if any_bad else 0


def cmd_reconstruct(config: RunConfig, args) -> int:
    from . import graphfield

    pair = build_pair(config.pair_spec)
    x0, x1, y0, y1 = config.grid_window
    out_dir = Path(config.out_dir)
    try:
        field = graphfield.reconstruct_u(pair, ((x0, x1), (y0, y1)), config.grid_spacing)
    except _ERRORS as exc:
        print(f"reconstruct failed: {exc}", file=sys.stderr)
        return 2
    written = [atomic_write(out_dir / "field.grid", field.to_grid_text()),
               atomic_write(out_dir / "field.csv", field.to_csv())]
    stats = field.stats
    print(f"solved {stats.solved}/{stats.attempted} nodes ({stats.failed} failed)")
    for path in written:
        print(path)
    if stats.solved == 0:
        print("no seed could be placed: window does not meet the image domain",
              file=sys.stderr)
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    """Rejects a malformed command line with one stderr line and status 2;
    subcommand parsers are built from the same class."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {' '.join(message.split())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mingraphs",
        description="Level curves and curvature checks for half-plane minimal graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flag_kwargs = {
        "--config": {"help": "config file with the [pair] section"},
        "--gamma": {"type": float, "help": "catalog family exponent"},
        "--levels": {"help": "comma list of level heights"},
        "--tau": {"help": "a,b,n sampling window"},
        "--format": {"help": "csv|json|svg (comma list)"},
        "--grid": {"help": "x0,x1,y0,y1,h window for grid checks"},
        "--gammas": {"help": "comma list of exponents"},
    }

    def command(name: str, summary: str, func, *flags: str) -> argparse.ArgumentParser:
        # allow_abbrev=False: a flag this command does not take is refused,
        # never read as the prefix of one it does (--gamma of --gammas).
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--out", default=None, help="output directory")
        for flag in flags:
            p.add_argument(flag, default=None, **flag_kwargs[flag])
        p.set_defaults(func=func)
        return p

    command("levelcurves", "sample and export level curves", cmd_levelcurves,
            "--config", "--gamma", "--levels", "--tau", "--format")
    p_verify = command("verify", "run verification checks", cmd_verify,
                       "--config", "--gamma", "--grid")
    p_verify.add_argument("check", choices=VERIFY_CHECKS + ("all",))
    command("sweep-gamma", "summary table over the catalog family", cmd_sweep_gamma, "--gammas")
    p_reconstruct = command("reconstruct", "invert the map over a grid window", cmd_reconstruct,
                            "--config", "--gamma", "--grid")
    # field.grid and field.csv are always written; csv is the one name taken.
    p_reconstruct.add_argument("--format", default=None, choices=("csv",),
                               help="csv (the default and only format)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return args.func(config, args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Run ``main()`` on the process arguments and end the process.

    Flush, then leave without interpreter teardown: unloading numpy and
    collecting every module costs tens of milliseconds per process and
    writes nothing.  A reader that closed its end of stdout (``| head``)
    ends the command with status 1 and no traceback.  This is the entry of
    ``python -m mingraphs.cli`` and of the ``mingraphs`` console script.
    """
    try:
        status = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        status = 1
    os._exit(status)


if __name__ == "__main__":
    run()
