"""Minimal deterministic SVG charts (no plotting library).

Output depends only on the input data: same data, identical bytes. Numbers
are rendered with %.6g so coordinates are stable across platforms.
"""

from __future__ import annotations

import math

__all__ = ["line_chart", "grouped_bar_chart"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 36, 56


def _fmt(v: float) -> str:
    return f"{v:.6g}"


# An axis span under _REL_SPAN of its largest magnitude, or under _MIN_SPAN, has no
# distinct ticks; a limit past _MAX_LIMIT leaves the tick arithmetic no headroom.
_REL_SPAN, _MIN_SPAN, _MAX_LIMIT = 1e-12, 1e-300, 1e307


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick locations covering [lo, hi] (hi > lo, as _range gives) on a 1-2-5 ladder."""
    span = hi - lo
    raw = span / (target - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    for _ in range(math.floor((hi + 1e-9 * span - first) / step) + 1):
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return ticks


def _range(values) -> tuple[float, float]:
    """Axis limits of ``values``: their span padded by 5% a side, or, where
    it is too narrow for distinct ticks (a flat one too), by 10% of their
    largest magnitude (1 if still too narrow); ValueError past _MAX_LIMIT."""
    lo, hi = min(values), max(values)
    size = max(abs(lo), abs(hi))
    pad = 0.05 * (hi - lo)
    if not hi - lo >= max(_REL_SPAN * size, _MIN_SPAN):
        pad = 0.1 * size if 0.2 * size >= _MIN_SPAN else 1.0
    return _checked(lo, hi, (lo - pad, hi + pad))


def _checked(lo: float, hi: float, limits: tuple[float, float]) -> tuple[float, float]:
    """``limits``, the axis of values from lo to hi; ValueError where one passes _MAX_LIMIT."""
    if not all(abs(v) <= _MAX_LIMIT for v in limits):
        raise ValueError(f"cannot chart values from {lo:.6g} to {hi:.6g}: "
                         f"an axis limit would pass {_MAX_LIMIT:g}")
    return limits


def _axes(parts: list[str], x_lo, x_hi, y_lo, y_hi, xlabel, ylabel, title):
    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="#333"/>')
    for x in _nice_ticks(x_lo, x_hi):
        px = _fmt(sx(x))
        parts.append(f'<line x1="{px}" y1="{_H - _MB}" x2="{px}" y2="{_H - _MB + 5}" stroke="#333"/>')
        parts.append(f'<line x1="{px}" y1="{_MT}" x2="{px}" y2="{_H - _MB}" stroke="#ddd"/>')
        parts.append(f'<text x="{px}" y="{_H - _MB + 18}" text-anchor="middle" '
                     f'font-size="11">{_fmt(x)}</text>')
    for y in _nice_ticks(y_lo, y_hi):
        py = _fmt(sy(y))
        parts.append(f'<line x1="{_ML - 5}" y1="{py}" x2="{_ML}" y2="{py}" stroke="#333"/>')
        parts.append(f'<line x1="{_ML}" y1="{py}" x2="{_W - _MR}" y2="{py}" stroke="#ddd"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py}" text-anchor="end" '
                     f'dominant-baseline="middle" font-size="11">{_fmt(y)}</text>')
    parts.append(f'<text x="{_ML + (_W - _ML - _MR) / 2:.6g}" y="{_H - 14}" '
                 f'text-anchor="middle" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_MT + (_H - _MT - _MB) / 2:.6g}" text-anchor="middle" '
                 f'font-size="13" transform="rotate(-90 16 {_MT + (_H - _MT - _MB) / 2:.6g})">'
                 f'{ylabel}</text>')
    if title:
        parts.append(f'<text x="{_W / 2:.6g}" y="22" text-anchor="middle" '
                     f'font-size="14" font-weight="bold">{title}</text>')
    return sx, sy


def _document(parts: list[str]) -> str:
    body = "\n".join(parts)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">\n{body}\n</svg>\n')


def line_chart(series: list[tuple[str, list, list]], xlabel: str, ylabel: str,
               title: str = "") -> str:
    """Line chart of (label, xs, ys) series; single points become markers."""
    if not series or all(len(xs) == 0 for _, xs, _ in series):
        raise ValueError("no data to plot")
    all_x = [float(x) for _, xs, _ in series for x in xs]
    all_y = [float(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = _range(all_x)
    y_lo, y_hi = _range(all_y)

    parts: list[str] = []
    sx, sy = _axes(parts, x_lo, x_hi, y_lo, y_hi, xlabel, ylabel, title)
    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = [(sx(float(x)), sy(float(y))) for x, y in zip(xs, ys)]
        if len(pts) == 1:
            parts.append(f'<circle cx="{_fmt(pts[0][0])}" cy="{_fmt(pts[0][1])}" '
                         f'r="4" fill="{color}"/>')
        else:
            coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.8"/>')
        ly = _MT + 16 + 16 * k
        parts.append(f'<line x1="{_W - _MR - 120}" y1="{ly}" x2="{_W - _MR - 96}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 90}" y="{ly + 4}" font-size="11">{label}</text>')
    return _document(parts)


def grouped_bar_chart(categories: list[str], groups: list[tuple[str, list, list]],
                      xlabel: str, ylabel: str, title: str = "") -> str:
    """Grouped bars with one-sided error whiskers.

    ``groups`` holds (label, means, stds); means/stds align with categories.
    """
    if not categories or not groups:
        raise ValueError("no data to plot")
    top = max(m + s for _, ms, ss in groups for m, s in zip(ms, ss))
    # [0, 1] where the tallest bar leaves too narrow a span for distinct ticks
    y_lo, y_hi = _checked(0.0, top, (0.0, top * 1.08 if top * 1.08 >= _MIN_SPAN else 1.0))

    parts: list[str] = []
    sx, sy = _axes(parts, -0.5, len(categories) - 0.5, y_lo, y_hi, xlabel, ylabel, title)
    n_groups = len(groups)
    slot = 0.8 / n_groups
    for k, (label, means, stds) in enumerate(groups):
        color = _PALETTE[k % len(_PALETTE)]
        for i, (m, s) in enumerate(zip(means, stds)):
            x_left = i - 0.4 + k * slot
            px = sx(x_left)
            pw = sx(x_left + slot * 0.9) - px
            py = sy(float(m))
            parts.append(f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" '
                         f'height="{_fmt(sy(0.0) - py)}" fill="{color}"/>')
            if s > 0:
                cx = px + pw / 2
                parts.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(sy(m))}" x2="{_fmt(cx)}" '
                             f'y2="{_fmt(sy(m + s))}" stroke="#333"/>')
                parts.append(f'<line x1="{_fmt(cx - 4)}" y1="{_fmt(sy(m + s))}" '
                             f'x2="{_fmt(cx + 4)}" y2="{_fmt(sy(m + s))}" stroke="#333"/>')
        ly = _MT + 16 + 16 * k
        parts.append(f'<rect x="{_W - _MR - 120}" y="{ly - 8}" width="24" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{_W - _MR - 90}" y="{ly + 2}" font-size="11">{label}</text>')
    for i, cat in enumerate(categories):
        parts.append(f'<text x="{_fmt(sx(i))}" y="{_H - _MB + 32}" text-anchor="middle" '
                     f'font-size="11">{cat}</text>')
    return _document(parts)
