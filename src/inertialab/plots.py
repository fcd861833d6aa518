"""Deterministic CSV and SVG emission for learning curves and scatters.

The SVG writer is intentionally minimal: fixed canvas, no timestamps, no
generated ids, floats printed with a fixed format, so identical inputs
yield byte-identical files that diff cleanly.
"""

from __future__ import annotations

import math

__all__ = [
    "csv_row",
    "write_csv",
    "write_line_svg",
    "write_scatter_svg",
]

_WIDTH, _HEIGHT = 640, 480
_MARGIN = 56
_COLORS = ("#1f6fb2", "#d94f2b", "#3d9970", "#8e5ea2")


def write_csv(path, header, rows, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(csv_row(row) + "\n")


def csv_row(row):
    """One CSV line, without its newline; a float (np.float64 is one) by repr."""
    return ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)


def _finite(values):
    return [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]


def _axis_range(values):
    values = _finite(values)
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _fmt(x):
    return f"{x:.2f}"


class _Canvas:
    def __init__(self, title, xlabel, ylabel, x_range, y_range, comment=None):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        ]
        if comment:
            self.parts.append(f"<!-- {comment} -->")
        self.parts += [
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>',
            f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>',
            f'<text x="16" y="{_HEIGHT // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_HEIGHT // 2})">{ylabel}</text>',
            f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_WIDTH - 2 * _MARGIN}" '
            f'height="{_HEIGHT - 2 * _MARGIN}" fill="none" stroke="#444"/>',
        ]
        self._ticks()

    def px(self, x):
        frac = (x - self.x0) / (self.x1 - self.x0)
        return _MARGIN + frac * (_WIDTH - 2 * _MARGIN)

    def py(self, y):
        frac = (y - self.y0) / (self.y1 - self.y0)
        return _HEIGHT - _MARGIN - frac * (_HEIGHT - 2 * _MARGIN)

    def _ticks(self):
        for i in range(5):
            xv = self.x0 + i * (self.x1 - self.x0) / 4
            yv = self.y0 + i * (self.y1 - self.y0) / 4
            xp, yp = self.px(xv), self.py(yv)
            self.parts.append(
                f'<text x="{_fmt(xp)}" y="{_HEIGHT - _MARGIN + 16}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="10">{xv:.4g}</text>'
            )
            self.parts.append(
                f'<text x="{_MARGIN - 6}" y="{_fmt(yp)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{yv:.4g}</text>'
            )

    def polyline(self, xs, ys, color):
        pts = " ".join(
            f"{_fmt(self.px(x))},{_fmt(self.py(y))}"
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y)
        )
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    def circles(self, xs, ys, color):
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y):
                self.parts.append(
                    f'<circle cx="{_fmt(self.px(x))}" cy="{_fmt(self.py(y))}" '
                    f'r="2.5" fill="{color}" fill-opacity="0.7"/>'
                )

    def legend(self, names):
        for i, name in enumerate(names):
            y = _MARGIN + 16 + 16 * i
            self.parts.append(
                f'<rect x="{_WIDTH - _MARGIN - 130}" y="{y - 9}" width="12" '
                f'height="3" fill="{_COLORS[i % len(_COLORS)]}"/>'
            )
            self.parts.append(
                f'<text x="{_WIDTH - _MARGIN - 112}" y="{y - 4}" '
                f'font-family="sans-serif" font-size="11">{name}</text>'
            )

    def render(self):
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def write_line_svg(path, series, title, xlabel, ylabel, comment=None):
    """Plot named (xs, ys) series; ``series`` is an ordered mapping."""
    all_x = [x for xs, _ in series.values() for x in xs]
    all_y = [y for _, ys in series.values() for y in _finite(ys)]
    canvas = _Canvas(title, xlabel, ylabel, _axis_range(all_x), _axis_range(all_y),
                     comment=comment)
    for i, (xs, ys) in enumerate(series.values()):
        canvas.polyline(xs, ys, _COLORS[i % len(_COLORS)])
    canvas.legend(list(series))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canvas.render())


def write_scatter_svg(path, labels, predictions, title, comment=None):
    """Actual-versus-predicted scatter with the identity reference line."""
    both = list(labels) + list(predictions)
    rng = _axis_range(both)
    canvas = _Canvas(title, "actual", "predicted", rng, rng, comment=comment)
    canvas.polyline([rng[0], rng[1]], [rng[0], rng[1]], "#999999")
    canvas.circles(list(labels), list(predictions), _COLORS[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canvas.render())
