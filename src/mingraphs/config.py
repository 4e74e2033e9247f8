"""Declarative run configuration: one INI-style file, flag overrides on top.

Sections and keys (all optional; defaults are sensible for the catalog
family), with the commands that read them:

    [pair]          kind = lw | planar | custom     levelcurves, verify,
                    gamma = 1.5            (lw)      reconstruct
                    a = 2, k0 = 2          (planar)
                    k0 = 2, h = <expr>, g = <expr> | g_anchor = zeta:value
                                           (custom)
    [levels]        values = 0, 1, 2                levelcurves
    [tau]           min = -20, max = 20, n = 401    levelcurves
    [grid]          x0, x1, y0, y1, spacing         verify, reconstruct
    [output]        dir = out                       every command
                    formats = csv, json             levelcurves, reconstruct
                                           (any of csv | json | svg)
    [sweep]         gammas = 1.1, 1.2, ..., 1.9     sweep-gamma

The file is shared: every command checks all of it, and reads only its own
sections.

Any other section or key, a value that does not parse, and a file that
configparser cannot parse, is a ParameterError that names the section and
key.  [pair] keys are checked against the given kind.

Map expressions are sums of primitive terms joined by " + ":

    power-affine offset=1 exponent=1.5 coeff=1
    affine slope=2 intercept=0

Values parse as Python complex literals (no spaces inside a value).

Every integral (the Poisson kernels, anchored g, the height integral) uses
the one Gauss-Legendre rule of ``analytic.gauss_legendre``, so there is no
quadrature knob.  Nor is there a tolerance or sampling knob: each check's
acceptance rule and sample set (``verify.SAMPLE_GRID``, ``THM1_LEVELS``,
``ANGLE_PROBES``, ``POISSON_POINTS``) are constants beside it, in ``verify``
and ``graphfield``; [levels] feeds ``levelcurves`` alone.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

from .analytic import AffineMap, AnalyticMap, PowerAffineMap, SumMap
from .errors import ParameterError
from .weierstrass import WeierstrassPair, lw_family, planar_pair

PAIR_KEYS = {
    "lw": ("kind", "gamma"),
    "planar": ("kind", "a", "k0"),
    "custom": ("kind", "k0", "h", "g", "g_anchor"),
}

SECTION_KEYS = {
    "pair": None,  # checked per kind, PAIR_KEYS
    "levels": ("values",),
    "tau": ("min", "max", "n"),
    "grid": ("x0", "x1", "y0", "y1", "spacing"),
    "output": ("dir", "formats"),
    "sweep": ("gammas",),
}


@dataclass(frozen=True)
class RunConfig:
    pair_spec: dict = field(default_factory=lambda: {"kind": "lw", "gamma": "1.5"})
    levels: tuple[float, ...] = (0.0, 1.0, 2.0)
    tau_min: float = -20.0
    tau_max: float = 20.0
    tau_n: int = 401
    grid_window: tuple[float, float, float, float] = (0.5, 3.0, -2.0, 2.0)
    grid_spacing: float = 1.0 / 32.0
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv",)
    sweep_gammas: tuple[float, ...] = tuple(round(1.1 + 0.1 * i, 10) for i in range(9))


FORMATS = ("csv", "json", "svg")
NUMBER_LIST = "a comma list of numbers"


def _floats(text: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    return tuple(float(piece) for piece in items)


def parse_value(text: str, kind, where: str, takes: str):
    """``kind(text)``, or a ParameterError that names the flag or
    ``[section] key`` the text came from and what it takes."""
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(f"{where} takes {takes}, got {text!r}") from None


def parse_floats(text: str, where: str) -> tuple[float, ...]:
    """A comma list of numbers; empty entries are skipped."""
    return parse_value(text, _floats, where, NUMBER_LIST)


def parse_formats(text: str, where: str) -> tuple[str, ...]:
    """A comma list of output formats, each one of FORMATS."""
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    for name in names:
        if name not in FORMATS:
            raise ParameterError(
                f"{where} takes a comma list of {' | '.join(FORMATS)}, got {name!r}")
    return names


def parse_map_expr(text: str) -> AnalyticMap:
    """Parse a sum of primitive analytic-map terms."""
    terms = []
    for chunk in text.split(" + "):
        tokens = chunk.split()
        if not tokens:
            raise ParameterError("empty map term")
        kind, params = tokens[0], {}
        for token in tokens[1:]:
            if "=" not in token:
                raise ParameterError(f"malformed parameter {token!r} in map term")
            key, value = token.split("=", 1)
            params[key] = parse_value(value, complex, f"map parameter {key}", "a complex number")
        if kind == "affine":
            terms.append(AffineMap(slope=params.get("slope", 1.0 + 0j),
                                   intercept=params.get("intercept", 0.0 + 0j)))
        elif kind == "power-affine":
            terms.append(PowerAffineMap(
                offset=params.get("offset", 0.0 + 0j),
                exponent=float(params.get("exponent", 1.0 + 0j).real),
                coeff=params.get("coeff", 1.0 + 0j),
            ))
        else:
            raise ParameterError(f"unknown map kind {kind!r} (use affine | power-affine)")
    if not terms:
        raise ParameterError("map expression has no terms")
    return terms[0] if len(terms) == 1 else SumMap(parts=tuple(terms))


def _anchor(text: str) -> tuple[complex, complex]:
    zeta_text, value_text = text.split(":")
    return complex(zeta_text), complex(value_text)


def build_pair(spec: dict) -> WeierstrassPair:
    """Construct the WeierstrassPair described by a [pair] section."""

    def number(key: str, default: float) -> float:
        return parse_value(spec.get(key, default), float, f"[pair] {key}", "a number")

    def expression(key: str) -> AnalyticMap:
        try:
            return parse_map_expr(spec[key])
        except ParameterError as exc:
            raise ParameterError(f"[pair] {key}: {exc}") from None

    kind = spec.get("kind", "lw")
    if kind == "lw":
        return lw_family(number("gamma", 1.5))
    if kind == "planar":
        return planar_pair(number("a", 2.0), number("k0", 2.0))
    if kind == "custom":
        if "h" not in spec:
            raise ParameterError("custom pair needs an h = <expr> entry")
        h = expression("h")
        k0 = number("k0", 2.0)
        if "g" in spec:
            return WeierstrassPair(h=h, k0=k0, g=expression("g"), label="custom")
        if "g_anchor" in spec:
            anchor = parse_value(spec["g_anchor"], _anchor, "[pair] g_anchor",
                                 "zeta:value, two complex numbers")
            return WeierstrassPair(h=h, k0=k0, g_anchor=anchor, label="custom")
        raise ParameterError("custom pair needs g = <expr> or g_anchor = zeta:value")
    raise ParameterError(f"unknown pair kind {kind!r}")


def _check_known(parser: configparser.ConfigParser) -> None:
    """Raise one ParameterError that names every unknown section and key."""
    unknown, known = [], {}
    defaults = [parser.default_section] if parser.defaults() else []
    for name in defaults + parser.sections():
        if name not in SECTION_KEYS:
            unknown.append(f"section [{name}]")
            known["sections"] = ", ".join(SECTION_KEYS)
            continue
        keys = SECTION_KEYS[name]
        if name == "pair":
            kind = parser.get("pair", "kind", fallback="lw")
            if kind not in PAIR_KEYS:
                raise ParameterError(f"unknown pair kind {kind!r}")
            keys = PAIR_KEYS[kind]
        bad = [key for key in parser.options(name) if key not in keys]
        if bad:
            unknown.extend(f"[{name}] {key}" for key in bad)
            known[f"[{name}]"] = ", ".join(keys)
    if unknown:
        hint = "; ".join(f"{where} {keys}" for where, keys in known.items())
        raise ParameterError(f"unknown config {', '.join(unknown)} (known: {hint})")


def load_config(path: str | Path | None) -> RunConfig:
    """Read the config file (when given) over the built-in defaults."""
    config = RunConfig()
    if path is None:
        return config
    try:
        return _read_config(config, path)
    except configparser.Error as exc:
        message = " ".join(str(exc).split())
        raise ParameterError(f"config file {path}: {message}") from None


def _read_config(config: RunConfig, path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise ParameterError(f"config file {path} not found or unreadable")
    _check_known(parser)

    def get(section: str, key: str, default, kind=float, takes: str = "a number"):
        if not parser.has_option(section, key):
            return default
        return parse_value(parser.get(section, key), kind, f"[{section}] {key}", takes)

    window = zip(("x0", "x1", "y0", "y1"), config.grid_window)
    formats = parser.get("output", "formats", fallback="")
    return replace(
        config,
        pair_spec=dict(parser.items("pair")) if parser.has_section("pair") else config.pair_spec,
        levels=get("levels", "values", config.levels, _floats, NUMBER_LIST),
        tau_min=get("tau", "min", config.tau_min),
        tau_max=get("tau", "max", config.tau_max),
        tau_n=get("tau", "n", config.tau_n, int, "an integer"),
        grid_window=tuple(get("grid", key, default) for key, default in window),
        grid_spacing=get("grid", "spacing", config.grid_spacing),
        out_dir=parser.get("output", "dir", fallback=config.out_dir),
        formats=parse_formats(formats, "[output] formats") if formats else config.formats,
        sweep_gammas=get("sweep", "gammas", config.sweep_gammas, _floats, NUMBER_LIST),
    )
