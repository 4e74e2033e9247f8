"""Seeded workload generators for the mingraphs benchmark.

A workload is the list of CLI commands of one pass plus the config files
they read.  Every path in an argv is relative to the pass directory, so the
same seed gives byte-identical argv lists and config files on any machine.
Each command also carries what the oracle needs to check its outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Sampling window passed explicitly to every levelcurves command.
TAU = (-20.0, 20.0, 401)
#: The default reconstruction window (x0, x1, y0, y1).
WINDOW = (0.5, 3.0, -2.0, 2.0)
#: Report file stem written by ``verify <check>``.
REPORT_NAMES = {
    "thm1": "curvature_bound",
    "thm2": "concavity_propagation",
    "lemma2": "log_derivative_bound",
    "poisson": "poisson_boundary_reconstruction",
    "scaling": "scaling_law",
    "disk": "disk_transfer",
    "superharmonic": "superharmonicity",
    "msr": "msr_residual",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the outcome the oracle expects from it."""

    tag: str
    kind: str                      # verify | levelcurves | reconstruct | sweep
    argv: tuple[str, ...]
    out: str                       # output directory, relative to the pass dir
    gamma: float | None = None     # outputs must match the lw(gamma) closed form
    reports: tuple[tuple[str, bool], ...] = ()   # verify: (report name, passed)
    levels: tuple[float, ...] = ()
    formats: tuple[str, ...] = ()
    spacing: float = 0.0
    gammas: tuple[float, ...] = ()

    @property
    def expect_exit(self) -> int:
        return 0 if all(passed for _, passed in self.reports) else 1


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple[Command, ...]
    configs: tuple[tuple[str, str], ...]   # (path relative to the pass dir, text)


def _draw(rng: random.Random, lo: float, hi: float, digits: int = 6) -> float:
    """Uniform draw rounded so that argv text and the parsed float agree."""
    return float(f"{rng.uniform(lo, hi):.{digits}f}")


def _g(value: float) -> str:
    return repr(float(value))


def level_name(c: float) -> str:
    """File stem suffix the CLI uses for level c."""
    return f"{c:g}".replace("-", "m").replace(".", "p")


def _verify(tag: str, check: str, gamma: float) -> Command:
    checks = list(REPORT_NAMES) if check == "all" else [check]
    out = f"out/{tag}"
    return Command(
        tag=tag, kind="verify", argv=("verify", check, "--gamma", _g(gamma), "--out", out),
        out=out, gamma=gamma, reports=tuple((REPORT_NAMES[c], True) for c in checks),
    )


def _levelcurves(tag: str, source: tuple[str, ...], gamma: float,
                 levels: tuple[float, ...], formats: tuple[str, ...]) -> Command:
    out = f"out/{tag}"
    lo, hi, n = TAU
    argv = ("levelcurves", *source, "--levels", ",".join(f"{c:g}" for c in levels),
            f"--tau={lo:g},{hi:g},{n}", "--format", ",".join(formats), "--out", out)
    return Command(tag=tag, kind="levelcurves", argv=argv, out=out, gamma=gamma,
                   levels=levels, formats=formats)


def _anchored_config(gamma: float, anchor: complex, value: complex) -> str:
    return (
        "[pair]\nkind = custom\nk0 = 2\n"
        f"h = power-affine offset=1 exponent={_g(gamma)}\n"
        f"g_anchor = {anchor!r}:{value!r}\n"
    )


def lw_g(gamma: float, zeta: complex) -> complex:
    """Closed-form g of the lw(gamma) pair."""
    return -((zeta + 1) ** (2.0 - gamma)) / (gamma * (2.0 - gamma))


def checks(seed: int) -> Workload:
    """``verify all`` near both ends of the family and in the middle, plus the
    planar ``thm2`` negative control (which must fail)."""
    rng = random.Random(f"checks-{seed}")
    gammas = {
        "lo": _draw(rng, 1.001, 1.01),
        "mid": _draw(rng, 1.3, 1.7),
        "hi": _draw(rng, 1.99, 1.999),
    }
    slope = _draw(rng, 1.5, 3.0, 3)
    commands = [_verify(f"all-{key}", "all", g) for key, g in gammas.items()]
    commands.append(Command(
        tag="planar-thm2", kind="verify",
        argv=("verify", "thm2", "--config", "cfg/planar.ini", "--out", "out/planar-thm2"),
        out="out/planar-thm2", reports=((REPORT_NAMES["thm2"], False),),
    ))
    config = f"[pair]\nkind = planar\na = {_g(slope)}\nk0 = 2\n"
    return Workload("checks", seed, tuple(commands), (("cfg/planar.ini", config),))


def grid(seed: int) -> Workload:
    """``reconstruct --format csv`` of one lw(gamma) at h = 1/32, 1/64, 1/128."""
    rng = random.Random(f"grid-{seed}")
    gamma = _draw(rng, 1.2, 1.8)
    x0, x1, y0, y1 = WINDOW
    commands = []
    for denom in (32, 64, 128):
        h = 1.0 / denom
        out = f"out/h{denom}"
        argv = ("reconstruct", "--gamma", _g(gamma), f"--grid={x0:g},{x1:g},{y0:g},{y1:g},{h!r}",
                "--format", "csv", "--out", out)
        commands.append(Command(tag=f"h{denom}", kind="reconstruct", argv=argv, out=out,
                                gamma=gamma, spacing=h))
    return Workload("grid", seed, tuple(commands), ())


def session(seed: int) -> Workload:
    """About fifteen short commands of an interactive session."""
    rng = random.Random(f"session-{seed}")
    commands = []
    for i in (1, 2):
        gamma = _draw(rng, 1.2, 1.8)
        levels = (0.0, *sorted(_draw(rng, 0.25, 4.0, 2) for _ in range(4)))
        commands.append(_levelcurves(f"lc{i}", ("--gamma", _g(gamma)), gamma, levels,
                                     ("csv", "json", "svg")))
        for check in ("thm1", "thm2", "lemma2", "disk", "scaling"):
            commands.append(_verify(f"v{i}-{check}", check, gamma))
    sweep = tuple(sorted(_draw(rng, 1.1, 1.9, 4) for _ in range(9)))
    commands.append(Command(
        tag="sweep", kind="sweep",
        argv=("sweep-gamma", "--gammas", ",".join(_g(g) for g in sweep), "--out", "out/sweep"),
        out="out/sweep", gammas=sweep,
    ))
    # The drawn anchor keeps gamma and the anchor where the segment quadrature
    # meets its tolerance; the zero anchor reproduces the known failure.
    anchor_gamma = _draw(rng, 1.6, 1.8)
    anchor = complex(_draw(rng, 1.0, 3.0, 3), _draw(rng, -1.0, 1.0, 3))
    configs = (
        ("cfg/anchor-drawn.ini", _anchored_config(anchor_gamma, anchor, lw_g(anchor_gamma, anchor))),
        ("cfg/anchor-zero.ini", "[pair]\nkind = custom\nk0 = 2\n"
         "h = power-affine offset=1 exponent=1.5\ng_anchor = 0j:-1.3333333333333333\n"),
    )
    commands.append(_levelcurves("anchor-drawn", ("--config", "cfg/anchor-drawn.ini"),
                                 anchor_gamma, (1.0,), ("csv",)))
    commands.append(_levelcurves("anchor-zero", ("--config", "cfg/anchor-zero.ini"),
                                 1.5, (1.0,), ("csv",)))
    return Workload("session", seed, tuple(commands), configs)


WORKLOADS = {"checks": checks, "grid": grid, "session": session}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
