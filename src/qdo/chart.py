"""Dependency-free SVG bar charts for effect reports.

One bar per analysis group, whiskers where a 95% CI is present, a solid zero
line, and an optional dashed horizontal reference line (used for the true
causal effect). Output is a deterministic standalone SVG string: all floats
are formatted with fixed precision so identical inputs give identical bytes.
Every ``<line>`` is written by ``_line`` and every ``<text>`` by ``_text``,
which escapes its body, so each element's attributes are spelled once. Both
take coordinates as they print: an int layout value, or a float already
passed through ``_fmt`` (a value used twice is formatted once).
"""

from __future__ import annotations

import math
from typing import Sequence

from .analysis import EffectReport

_BAR_W = 46
_SLOT_W = 92
_MARGIN_L = 64
_MARGIN_R = 24
_TOP = 34
_PLOT_H = 240
_LABEL_H = 58

_BAR_FILL = "#4878a8"
_GRID = "#cccccc"
_AXIS = "#333333"
_REF = "#b04030"


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _line(x1: int | str, y1: int | str, x2: int | str, y2: int | str, stroke: str, width: float,
          dash: str | None = None, cls: str | None = None) -> str:
    """The one writer of ``<line>``: coordinates, stroke, then dash and class if given."""
    extra = (f' stroke-dasharray="{dash}"' if dash else "") + (f' class="{cls}"' if cls else "")
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"{extra}/>')


def _text(x: int | str, y: int | str, body: str, anchor: str, size: int = 10,
          baseline: str | None = None, fill: str | None = None) -> str:
    """The one writer of ``<text>``; ``body`` is escaped here."""
    base = f' dominant-baseline="{baseline}"' if baseline else ""
    color = f' fill="{fill}"' if fill else ""
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}"{base} '
            f'font-family="sans-serif" font-size="{size}"{color}>{_escape(body)}</text>')


def render_chart(
    groups: Sequence[EffectReport],
    title: str = "",
    reference: float | None = None,
) -> str:
    """Render the groups as a grouped bar chart; returns the SVG text.

    Raises ``ValueError`` when the padded value span (effects, CI bounds,
    zero and ``reference``), times the grid's 4 steps, passes the float
    range, as for effects of 1e308 and -1e308: the chart's coordinates would
    be inf or nan.
    """
    if not groups:
        raise ValueError("render_chart requires at least one group")

    span = [0.0]
    for g in groups:
        span.append(g.effect)
        if g.ci is not None:
            span.extend(g.ci)
    if reference is not None:
        span.append(reference)
    low, high = min(span), max(span)
    pad = 0.08 * ((high - low) or 1.0)
    lo, hi = low - pad, high + pad
    if not math.isfinite((hi - lo) * 4):  # the grid's largest product below
        raise ValueError(f"values from {low!r} to {high!r} span too wide to chart")

    width = _MARGIN_L + _SLOT_W * len(groups) + _MARGIN_R
    height = _TOP + _PLOT_H + _LABEL_H
    y_base = _TOP + _PLOT_H
    right = width - _MARGIN_R

    def y(v: float) -> float:
        return y_base - (v - lo) / (hi - lo) * _PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(_text(_fmt(width / 2), 20, title, "middle", size=14))

    # Horizontal grid with axis labels at five evenly spaced values.
    for i in range(5):
        v = lo + (hi - lo) * i / 4
        yy = _fmt(y(v))
        parts.append(_line(_MARGIN_L, yy, right, yy, _GRID, 1))
        parts.append(_text(_MARGIN_L - 6, yy, f"{v:+.2f}", "end", baseline="middle"))

    y0 = _fmt(y(0.0))
    parts.append(_line(_MARGIN_L, y0, right, y0, _AXIS, 1.5))  # zero line

    for i, g in enumerate(groups):
        cx = _MARGIN_L + _SLOT_W * i + _SLOT_W / 2
        x = _fmt(cx)
        top = min(y(g.effect), y(0.0))
        h = abs(y(g.effect) - y(0.0))
        parts.append(
            f'<rect x="{_fmt(cx - _BAR_W / 2)}" y="{_fmt(top)}" width="{_BAR_W}" '
            f'height="{_fmt(h)}" fill="{_BAR_FILL}"/>'
        )
        if g.ci is not None:
            y_lo, y_hi = (_fmt(y(v)) for v in g.ci)
            parts.append(_line(x, y_lo, x, y_hi, _AXIS, 1.5, cls="whisker"))
            for yy in (y_lo, y_hi):
                parts.append(_line(_fmt(cx - 6), yy, _fmt(cx + 6), yy, _AXIS, 1.5, cls="whisker"))
        value_y = y(g.effect) + (-6 if g.effect >= 0 else 14)
        parts.append(_text(x, _fmt(value_y), f"{g.effect:+.3f}", "middle"))
        first, second = _wrap_label(g.label)
        parts.append(_text(x, y_base + 16, first, "middle"))
        if second:
            parts.append(_text(x, y_base + 29, second, "middle"))

    if reference is not None:
        yr = _fmt(y(reference))
        parts.append(_line(_MARGIN_L, yr, right, yr, _REF, 1.5, dash="6,4", cls="reference"))
        parts.append(_text(right, _fmt(y(reference) - 5), f"causal effect {reference:+.3f}", "end", fill=_REF))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _wrap_label(label: str) -> tuple[str, str]:
    if len(label) <= 14:
        return label, ""
    if "," in label:
        head, _, tail = label.partition(",")
        return head + ",", tail.strip()
    spaces = [i for i, ch in enumerate(label) if ch == " "]
    if not spaces:
        return label, ""
    split = min(spaces, key=lambda i: abs(i - len(label) // 2))
    return label[:split], label[split + 1 :]


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
