"""The config file describes the Weierstrass pair; flags describe the run.

The file holds one section, with the keys of its kind:

    [pair]      kind = lw | planar | custom
                gamma = 1.5                    (lw)
                a = 2, k0 = 2                  (planar)
                k0 = 2, h = <expr>, g = <expr> | g_anchor = zeta:value
                                               (custom)

``levelcurves``, ``verify`` and ``reconstruct`` read it through
``--config``.  Every run setting (levels, the tau window, the grid, the
output directory and formats, the sweep gammas) is a flag, defined with its
default and parser in ``cli.FLAGS``.

Any other section or key, a value that does not parse, and a file that
configparser cannot parse, is a ParameterError that names the section and
key.  [pair] keys are checked against the given kind.

Map expressions are sums of primitive terms joined by " + ":

    power-affine offset=1 exponent=1.5 coeff=1
    affine slope=2 intercept=0

A term's parameters are the dataclass fields of its kind's class in
``MAP_KINDS``, with their defaults.  A value (no spaces inside it) parses
as its field's type: ``exponent`` as a real number, every other parameter
as a Python complex literal.  A parameter the kind does not take, one given
twice, or a value that does not parse is a ParameterError.

Every integral (the Poisson kernels, anchored g, the height integral) uses
the one Gauss-Legendre rule of ``analytic.gauss_legendre``, so there is no
quadrature knob.  Nor is there a tolerance or sampling knob: each check's
acceptance rule and sample set are constants in ``verify`` and ``graphfield``
(``verify.SAMPLE_GRID``, where ``verify.admit`` evaluates h once per pair,
``THM1_LEVELS``, ``POISSON_POINTS``); ``--levels`` feeds ``levelcurves`` alone.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .analytic import AffineMap, AnalyticMap, PowerAffineMap, SumMap
from .errors import ParameterError
from .weierstrass import WeierstrassPair, lw_family, planar_pair

PAIR_KEYS = {
    "lw": ("kind", "gamma"),
    "planar": ("kind", "a", "k0"),
    "custom": ("kind", "k0", "h", "g", "g_anchor"),
}

#: Each map-term kind -> its class.  The class's dataclass fields are the
#: term's parameters: name, type and default are declared there alone.
MAP_KINDS = {"affine": AffineMap, "power-affine": PowerAffineMap}

#: A field's type, as ``analytic`` annotates it -> (its parser, what it takes).
FIELD_TYPES = {"complex": (complex, "a complex number"), "float": (float, "a real number")}


def parse_value(text: str, kind, where: str, takes: str):
    """``kind(text)``, or a ParameterError that names the flag or
    ``[section] key`` the text came from and what it takes."""
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(f"{where} takes {takes}, got {text!r}") from None


def parse_map_expr(text: str) -> AnalyticMap:
    """Parse a sum of primitive analytic-map terms, ``kind name=value ...``.
    Each term is its MAP_KINDS class built from its dataclass fields: each
    name is a field, given at most once, whose value parses as the field's
    type; an omitted field keeps its default."""
    terms = []
    for chunk in text.split(" + "):
        tokens = chunk.split()
        if not tokens:
            raise ParameterError("empty map term")
        kind, params = tokens[0], {}
        if kind not in MAP_KINDS:
            raise ParameterError(f"unknown map kind {kind!r} (use {' | '.join(MAP_KINDS)})")
        fields = {field.name: field.type for field in dataclasses.fields(MAP_KINDS[kind])}
        for token in tokens[1:]:
            key, sep, value = token.partition("=")
            if not sep:
                raise ParameterError(f"malformed parameter {token!r} in map term")
            if key not in fields:
                raise ParameterError(
                    f"{kind} takes no parameter {key!r} (takes {', '.join(fields)})")
            if key in params:
                raise ParameterError(f"{kind} parameter {key} given twice")
            convert, takes = FIELD_TYPES[fields[key]]
            params[key] = parse_value(value, convert, f"map parameter {key}", takes)
        terms.append(MAP_KINDS[kind](**params))
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


def _check_known(parser) -> None:
    """Raise one ParameterError that names every unknown section and key."""
    unknown, known = [], {}
    defaults = [parser.default_section] if parser.defaults() else []
    for name in defaults + parser.sections():
        if name != "pair":
            unknown.append(f"section [{name}]")
            known["sections"] = "pair"
            continue
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


def load_config(path: str | Path) -> dict:
    """The [pair] section of the config file, as a ``build_pair`` spec
    (empty, so lw at its default gamma, when the file has no [pair])."""
    import configparser  # here, so a run without --config does not load it

    parser = configparser.ConfigParser()
    try:
        if not parser.read(str(path)):
            raise ParameterError(f"config file {path} not found or unreadable")
        _check_known(parser)
        return dict(parser.items("pair")) if parser.has_section("pair") else {}
    except configparser.Error as exc:
        message = " ".join(str(exc).split())
        raise ParameterError(f"config file {path}: {message}") from None
