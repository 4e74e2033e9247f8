"""Self-contained SVG rendering of level curves (no plotting dependency).

Curves are drawn as chains of line segments, each segment colored by the
curvature at its left sample through a fixed blue -> red ramp, with the
boundary curve in black.  Output is deterministic text.
"""

from __future__ import annotations

from .levels import LevelCurve

_SIZE = 640
_MARGIN = 48
_COLD = (33, 102, 172)   # low curvature
_HOT = (178, 24, 43)     # high curvature


def _ramp(value: float, lo: float, hi: float) -> str:
    t = 0.5 if hi <= lo else (value - lo) / (hi - lo)
    t = min(1.0, max(0.0, t))
    rgb = tuple(round(c0 + t * (c1 - c0)) for c0, c1 in zip(_COLD, _HOT))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def level_curves_svg(curves: list[tuple[float, LevelCurve]], boundary: LevelCurve,
                     title: str) -> str:
    """Render (level, curve) pairs and the boundary trace under a title."""
    drawn = [curve for _, curve in curves] + [boundary]
    xs = [x for curve in drawn for x in curve.x.tolist()]
    ys = [y for curve in drawn for y in curve.y.tolist()]
    if not xs:
        raise ValueError("nothing to draw")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span = max(x_hi - x_lo, y_hi - y_lo) or 1.0
    scale = (_SIZE - 2 * _MARGIN) / span

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (_MARGIN + (x - x_lo) * scale, _SIZE - _MARGIN - (y - y_lo) * scale)

    kappas = [k for _, curve in curves for k in curve.kappa.tolist()]
    k_lo, k_hi = (min(kappas), max(kappas)) if kappas else (0.0, 1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_SIZE - 2 * _MARGIN}" '
        f'height="{_SIZE - 2 * _MARGIN}" fill="white" stroke="#444"/>',
        f'<text x="{_MARGIN}" y="{_MARGIN - 12}" font-size="14" '
        f'font-family="monospace">{title}</text>',
    ]
    # axes through the origin when visible
    if x_lo < 0.0 < x_hi:
        px, _ = to_px(0.0, y_lo)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN}" x2="{px:.2f}" y2="{_SIZE - _MARGIN}" '
            'stroke="#bbb" stroke-dasharray="4 4"/>'
        )
    if y_lo < 0.0 < y_hi:
        _, py = to_px(x_lo, 0.0)
        parts.append(
            f'<line x1="{_MARGIN}" y1="{py:.2f}" x2="{_SIZE - _MARGIN}" y2="{py:.2f}" '
            'stroke="#bbb" stroke-dasharray="4 4"/>'
        )
    points = " ".join(
        "{:.3f},{:.3f}".format(*to_px(x, y))
        for x, y in zip(boundary.x.tolist(), boundary.y.tolist())
    )
    parts.append(f'<polyline points="{points}" fill="none" stroke="black" stroke-width="2"/>')
    for level, curve in curves:
        pixels = [to_px(x, y) for x, y in zip(curve.x.tolist(), curve.y.tolist())]
        for (x1, y1), (x2, y2), kappa in zip(pixels[:-1], pixels[1:], curve.kappa.tolist()):
            color = _ramp(kappa, k_lo, k_hi)
            parts.append(
                f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        x1, y1 = pixels[0]
        parts.append(
            f'<text x="{x1 + 4:.1f}" y="{y1:.1f}" font-size="11" '
            f'font-family="monospace">u={level:g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
