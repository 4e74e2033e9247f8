"""Declarative run configuration: one INI-style file, flag overrides on top.

Sections and keys (all optional; defaults are sensible for the catalog
family):

    [pair]          kind = lw | planar | custom
                    gamma = 1.5            (lw)
                    a = 2, k0 = 2          (planar)
                    k0 = 2, h = <expr>, g = <expr> | g_anchor = zeta:value
                                           (custom)
    [levels]        values = 0, 1, 2
    [tau]           min = -20, max = 20, n = 401
    [grid]          x0, x1, y0, y1, spacing
    [verify]        sigma_min, sigma_max, n_sigma, tau_abs, n_tau
    [output]        dir = out, formats = csv, json
    [sweep]         gammas = 1.1, 1.2, ..., 1.9

Any other section or key, and a file that configparser cannot parse, is a
ParameterError.  [pair] keys are checked against the given kind.

Map expressions are sums of primitive terms joined by " + ":

    power-affine offset=1 exponent=1.5 coeff=1
    affine slope=2 intercept=0

Values parse as Python complex literals (no spaces inside a value).

Every integral (the Poisson kernels, anchored g, the height integral) uses
the one Gauss-Legendre rule of ``analytic.gauss_legendre``, so there is no
quadrature knob.  Nor is there a tolerance knob: each check's acceptance
rule is a constant beside it, in ``verify`` and ``graphfield``.
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
    "verify": ("sigma_min", "sigma_max", "n_sigma", "tau_abs", "n_tau"),
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
    sigma_min: float = 0.02
    sigma_max: float = 10.0
    n_sigma: int = 24
    vtau_abs: float = 10.0
    vn_tau: int = 21
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv",)
    sweep_gammas: tuple[float, ...] = tuple(round(1.1 + 0.1 * i, 10) for i in range(9))


def _floats(text: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    return tuple(float(piece) for piece in items)


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
            params[key] = complex(value)
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


def build_pair(spec: dict) -> WeierstrassPair:
    """Construct the WeierstrassPair described by a [pair] section."""
    kind = spec.get("kind", "lw")
    if kind == "lw":
        return lw_family(float(spec.get("gamma", 1.5)))
    if kind == "planar":
        return planar_pair(float(spec.get("a", 2.0)), float(spec.get("k0", 2.0)))
    if kind == "custom":
        if "h" not in spec:
            raise ParameterError("custom pair needs an h = <expr> entry")
        h = parse_map_expr(spec["h"])
        k0 = float(spec.get("k0", 2.0))
        if "g" in spec:
            return WeierstrassPair(h=h, k0=k0, g=parse_map_expr(spec["g"]), label="custom")
        if "g_anchor" in spec:
            zeta_text, value_text = spec["g_anchor"].split(":")
            anchor = (complex(zeta_text), complex(value_text))
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

    updates: dict = {}
    if parser.has_section("pair"):
        updates["pair_spec"] = dict(parser.items("pair"))
    if parser.has_option("levels", "values"):
        updates["levels"] = _floats(parser.get("levels", "values"))
    if parser.has_section("tau"):
        section = parser["tau"]
        updates["tau_min"] = section.getfloat("min", config.tau_min)
        updates["tau_max"] = section.getfloat("max", config.tau_max)
        updates["tau_n"] = section.getint("n", config.tau_n)
    if parser.has_section("grid"):
        section = parser["grid"]
        updates["grid_window"] = (
            section.getfloat("x0", config.grid_window[0]),
            section.getfloat("x1", config.grid_window[1]),
            section.getfloat("y0", config.grid_window[2]),
            section.getfloat("y1", config.grid_window[3]),
        )
        updates["grid_spacing"] = section.getfloat("spacing", config.grid_spacing)
    if parser.has_section("verify"):
        section = parser["verify"]
        updates["sigma_min"] = section.getfloat("sigma_min", config.sigma_min)
        updates["sigma_max"] = section.getfloat("sigma_max", config.sigma_max)
        updates["n_sigma"] = section.getint("n_sigma", config.n_sigma)
        updates["vtau_abs"] = section.getfloat("tau_abs", config.vtau_abs)
        updates["vn_tau"] = section.getint("n_tau", config.vn_tau)
    if parser.has_section("output"):
        section = parser["output"]
        updates["out_dir"] = section.get("dir", config.out_dir)
        if section.get("formats", None):
            updates["formats"] = tuple(
                piece.strip() for piece in section.get("formats").split(",") if piece.strip()
            )
    if parser.has_option("sweep", "gammas"):
        updates["sweep_gammas"] = _floats(parser.get("sweep", "gammas"))
    return replace(config, **updates)
