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
(``config.load_config``); every run setting is a flag, defined once in
``FLAGS`` with its default, parser and help.  ``main`` parses those flags in
place on the argparse namespace, which is all a command reads.  An ``--out``
that the OS refuses to write into exits 2 with one line, before any work
(``parse_out``).

Each command imports the modules it runs inside its own function, so a
process loads neither ``verify`` for ``levelcurves`` nor ``graphfield`` for
a check that reconstructs no field.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import build_pair, load_config, parse_value
from .errors import EmptyInteriorError, ParameterError, QuadratureError, SingularityError
from .serialize import atomic_write, fmt_float

if TYPE_CHECKING:
    from .verify import VerificationReport

#: ValueError covers ParameterError and DomainError.
_ERRORS = (SingularityError, QuadratureError, EmptyInteriorError, ValueError)

VERIFY_CHECKS = (
    "thm1", "thm2", "lemma2", "poisson", "scaling", "disk", "superharmonic", "msr",
)

#: The checks that sample the pair, in the order ``verify all`` runs them:
#: check -> the name of its function in ``verify``, which takes the pair as
#: ``verify.admit`` returns it.  The function is looked up when the command runs.
SAMPLED_CHECKS = {
    "lemma2": "verify_lemma2", "thm1": "verify_thm1", "thm2": "verify_thm2",
    "poisson": "verify_poisson", "scaling": "verify_scaling", "disk": "disk_transfer_check",
}


def _tau(text: str) -> tuple[float, float, int]:
    lo, hi, n = text.split(",")
    return float(lo), float(hi), int(n)


def _grid(text: str) -> tuple[float, float, float, float, float]:
    x0, x1, y0, y1, h = (float(v) for v in text.split(","))
    return x0, x1, y0, y1, h


def _directory(text: str) -> str:
    if not text:
        raise ValueError("empty")
    return text


def parse_out(text: str, flag: str) -> str:
    """A directory that exists or can be made.  One the OS would refuse to
    write into (a regular file on its path, no write permission) is
    refused now, with the reason a write would give, and nothing is made."""
    path = Path(parse_value(text, _directory, flag, "a directory"))
    nearest = next(p for p in (path, *path.parents) if os.path.exists(p))
    if not nearest.is_dir():
        reason = errno.EEXIST if nearest == path else errno.ENOTDIR
    elif not os.access(nearest, os.W_OK | os.X_OK):
        reason = errno.EACCES
    else:
        return text
    raise ParameterError(f"cannot write into --out {text}: {os.strerror(reason)}")


FORMATS = ("csv", "json", "svg")
NUMBER_LIST = "a comma list of numbers"


def _floats(text: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ValueError("no numbers")
    return tuple(float(piece) for piece in items)


def parse_floats(text: str, where: str) -> tuple[float, ...]:
    """A comma list of at least one number; empty entries are skipped."""
    return parse_value(text, _floats, where, NUMBER_LIST)


def parse_formats(text: str, where: str) -> tuple[str, ...]:
    """A comma list of at least one output format, each one of FORMATS;
    empty entries are skipped."""
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    for name in names or (text,):
        if name not in FORMATS:
            raise ParameterError(
                f"{where} takes a comma list of {' | '.join(FORMATS)}, got {name!r}")
    return names


#: Each run setting: flag -> (its default, as the text a user would type;
#: the parser, ``parse(text, flag)``, that turns the text into the value the
#: command reads; its help).  A default goes through the same parser as user
#: text.  ``_parse_flags`` parses them in this order.
FLAGS = {
    "--levels": ("0,1,2", parse_floats, "comma list of level heights"),
    "--tau": ("-20,20,401",
              lambda text, flag: parse_value(text, _tau, flag, "min,max,n with n an integer"),
              "a,b,n sampling window"),
    "--grid": ("0.5,3,-2,2,0.03125",
               lambda text, flag: parse_value(text, _grid, flag, "x0,x1,y0,y1,h"),
               "x0,x1,y0,y1,h window for grid checks"),
    "--out": ("out", parse_out, "output directory"),
    "--format": ("csv", parse_formats, "csv|json|svg (comma list)"),
    "--gammas": ("1.1,1.2,1.3,1.4,1.5,1.6,1.7,1.8,1.9", parse_floats, "comma list of exponents"),
}


def _parse_flags(args) -> None:
    """Replace the text of each run-setting flag on ``args`` by its value,
    and put the command's [pair] spec on ``args.pair``: the [pair] of
    --config, or lw at --gamma, which wins."""
    if hasattr(args, "config"):
        if args.config == "":
            raise ParameterError("--config takes a file, got ''")
        args.pair = {} if args.config is None else load_config(args.config)
        if args.gamma is not None:
            args.pair = {"kind": "lw", "gamma": str(args.gamma)}
    for flag, (_, parse, _) in FLAGS.items():
        name = flag[2:]
        if hasattr(args, name):
            setattr(args, name, parse(getattr(args, name), flag))


def _write(out: str, name: str, text: str) -> Path:
    """``atomic_write`` of one file into --out; a write the OS refuses is a
    ParameterError that names --out."""
    try:
        return atomic_write(Path(out) / name, text)
    except OSError as exc:
        raise ParameterError(f"cannot write into --out {out}: {exc.strerror}") from None


def _level_name(c: float) -> str:
    return f"{c:g}".replace("-", "m").replace(".", "p")


def cmd_levelcurves(args) -> int:
    from .levels import (
        LevelCurveSpec,
        boundary_trace,
        rows_to_csv,
        rows_to_json,
        sample_level_curve,
        sample_rows,
    )
    from .svgplot import level_curves_svg

    pair = build_pair(args.pair)
    written: list[Path] = []
    try:
        curves = []
        boundary = None
        for c in args.levels:
            spec = LevelCurveSpec(c, *args.tau)
            if c == 0.0:
                curve = boundary = boundary_trace(pair, spec)
            else:
                curve = sample_level_curve(pair, spec)
                curves.append((c, curve))
            stem = f"level_{_level_name(c)}"
            if "csv" in args.format or "json" in args.format:
                rows = sample_rows(curve)
            if "csv" in args.format:
                written.append(_write(args.out, f"{stem}.csv", rows_to_csv(rows)))
            if "json" in args.format:
                written.append(_write(args.out, f"{stem}.json", rows_to_json(rows)))
        if "svg" in args.format:
            if boundary is None:
                boundary = boundary_trace(pair, LevelCurveSpec(0.0, *args.tau))
            svg = level_curves_svg(curves, boundary, title=pair.label)
            written.append(_write(args.out, "levelcurves.svg", svg))
    except _ERRORS as exc:
        for path in written:
            path.unlink(missing_ok=True)
        print(f"levelcurves failed: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


def _graph_reports(pair, grid, which: list[str]) -> list[VerificationReport]:
    from . import graphfield

    x0, x1, y0, y1, h = grid
    window = ((x0, x1), (y0, y1))
    reports = []
    field = graphfield.reconstruct_u(pair, window, h)
    if "superharmonic" in which:
        reports.append(graphfield.superharmonic_report(
            field, descriptor=f"window {grid[:4]}, h={h:g}"))
    if "msr" in which:
        fine = graphfield.reconstruct_u(pair, window, h / 2.0)
        reports.append(graphfield.msr_report(
            field, fine, descriptor=f"window {grid[:4]}, h={h:g} and {h / 2:g}"))
    return reports


def cmd_verify(args) -> int:
    from . import verify

    which = list(VERIFY_CHECKS) if args.check == "all" else [args.check]
    pair = build_pair(args.pair)

    graph_checks = [name for name in ("superharmonic", "msr") if name in which]
    try:
        if graph_checks:  # a grid over the node cap, msr's h/2 one too, is refused first
            from .graphfield import grid_shape

            x0, x1, y0, y1, h = args.grid
            grid_shape(((x0, x1), (y0, y1)), h / 2.0 if "msr" in graph_checks else h)
        # admit runs before every check: an overflow while sampling the pair stops
        # the command here with one line, not a numpy warning and a later,
        # misleading error.  Newton outside D only has to fail: grid checks run unguarded.
        with np.errstate(over="raise", invalid="raise"):
            admitted = verify.admit(pair)
            reports = [getattr(verify, func)(admitted)
                       for name, func in SAMPLED_CHECKS.items() if name in which]
        if graph_checks:
            reports.extend(_graph_reports(pair, args.grid, graph_checks))
    except FloatingPointError as exc:
        print(f"verify failed while evaluating: the pair overflows float64 ({exc})",
              file=sys.stderr)
        return 2
    except _ERRORS as exc:
        print(f"verify failed while evaluating: {exc}", file=sys.stderr)
        return 2

    first_failure = None
    for report in reports:
        _write(args.out, f"verify_{report.check_name}.json", report.to_json())
        print(f"{'PASS' if report.passed else 'FAIL'} {report.check_name}: {report.notes}")
        if not (report.passed or first_failure):
            first_failure = report.check_name
    if first_failure:
        print(f"first failing check: {first_failure}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep_gamma(args) -> int:
    from .verify import admit, estimate_asymptotic_angles, verify_lemma2, verify_thm1, verify_thm2
    from .weierstrass import lw_family

    bad = [fmt_float(gamma) for gamma in args.gammas if not np.isfinite(gamma)]
    if bad:
        raise ParameterError(f"sweep gammas must be finite, got {', '.join(bad)}")
    header = ("gamma,A_emp,K_emp,min_kappa,angle_plus,angle_minus,"
              "lemma2_pass,thm1_pass,thm2_pass,error")
    rows = [header]
    any_bad = False
    for gamma in args.gammas:
        try:
            admitted = admit(lw_family(gamma))
            reports = [check(admitted) for check in (verify_lemma2, verify_thm1, verify_thm2)]
            angles = estimate_asymptotic_angles(admitted.pair)
            numbers = [gamma, *(report.empirical_constant for report in reports), *angles]
            passes = [str(int(report.passed)) for report in reports]
            rows.append(",".join([*map(fmt_float, numbers), *passes, ""]))
            any_bad = any_bad or not all(report.passed for report in reports)
        except _ERRORS as exc:
            rows.append(",".join([fmt_float(gamma)] + ["nan"] * 5 + ["0", "0", "0",
                                                                     str(exc).replace(",", ";")]))
            any_bad = True
    path = _write(args.out, "sweep_gamma.csv", "\n".join(rows) + "\n")
    print(path)
    return 1 if any_bad else 0


def cmd_reconstruct(args) -> int:
    from . import graphfield

    pair = build_pair(args.pair)
    x0, x1, y0, y1, h = args.grid
    try:
        field = graphfield.reconstruct_u(pair, ((x0, x1), (y0, y1)), h)
    except _ERRORS as exc:
        print(f"reconstruct failed: {exc}", file=sys.stderr)
        return 2
    written = [_write(args.out, "field.grid", field.to_grid_text()),
               _write(args.out, "field.csv", field.to_csv())]
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

    pair_flags = {
        "--config": {"help": "config file with the [pair] section"},
        "--gamma": {"type": float, "help": "catalog family exponent"},
    }

    def command(name: str, summary: str, func, *flags: str) -> argparse.ArgumentParser:
        # allow_abbrev=False: a flag this command does not take is refused,
        # never read as the prefix of one it does (--gamma of --gammas).
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in ("--out", *flags):
            if flag in pair_flags:
                p.add_argument(flag, **pair_flags[flag])
            else:
                default, _, help_text = FLAGS[flag]
                p.add_argument(flag, default=default, help=help_text)
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
    p_reconstruct.add_argument("--format", default="csv", choices=("csv",),
                               help="csv (the default and only format)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _parse_flags(args)
        return args.func(args)
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
