"""Deterministic text output: fixed float formatting, JSON, atomic writes.

Identical inputs must produce byte-identical CSV/JSON artifacts, so floats
are always rendered with 17 significant digits (enough to round-trip IEEE
doubles) and dict fields are emitted in insertion order, never re-sorted by
a serializer.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits.

    The ``g`` format already writes every NaN (either sign) as 'nan' and the
    infinities as 'inf' and '-inf'.
    """
    return format(float(x), ".17g")


#: fmt_float's text for NaN and the infinities.  Bare NaN/Inf are not JSON,
#: so JSON output quotes them and every parser survives.
NON_FINITE_TEXT = frozenset(("nan", "inf", "-inf"))


def json_number(text: str) -> str:
    """A fmt_float text as a JSON value."""
    return f'"{text}"' if text in NON_FINITE_TEXT else text


def to_json(obj) -> str:
    """Small one-line JSON emitter with fmt_float for every float and stable
    field order."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return json_number(fmt_float(obj))
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(obj, (list, tuple)):
        inner = ", ".join(to_json(v) for v in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        inner = ", ".join(f'"{key}": {to_json(value)}' for key, value in obj.items())
        return f"{{{inner}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def atomic_write(path: str | Path, text: str) -> Path:
    """Write text to path via a temp file + rename so readers never see partials."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path
