"""Dependency-free SVG bar charts for effect reports.

One bar per analysis group, whiskers where a 95% CI is present, a solid zero
line, and an optional dashed horizontal reference line (used for the true
causal effect). Output is a deterministic standalone SVG string: all floats
are formatted with fixed precision so identical inputs give identical bytes.
"""

from __future__ import annotations

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


def render_chart(
    groups: Sequence[EffectReport],
    title: str = "",
    reference: float | None = None,
) -> str:
    """Render the groups as a grouped bar chart; returns the SVG text."""
    if not groups:
        raise ValueError("render_chart requires at least one group")

    span = [0.0]
    for g in groups:
        span.append(g.effect)
        if g.ci is not None:
            span.extend(g.ci)
    if reference is not None:
        span.append(reference)
    lo, hi = min(span), max(span)
    pad = 0.08 * ((hi - lo) or 1.0)
    lo, hi = lo - pad, hi + pad

    width = _MARGIN_L + _SLOT_W * len(groups) + _MARGIN_R
    height = _TOP + _PLOT_H + _LABEL_H
    y_base = _TOP + _PLOT_H

    def y(v: float) -> float:
        return y_base - (v - lo) / (hi - lo) * _PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )

    # Horizontal grid with axis labels at five evenly spaced values.
    for i in range(5):
        v = lo + (hi - lo) * i / 4
        yy = _fmt(y(v))
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{yy}" x2="{width - _MARGIN_R}" y2="{yy}" '
            f'stroke="{_GRID}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{yy}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="10">{v:+.2f}</text>'
        )

    # Zero line.
    y0 = _fmt(y(0.0))
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{y0}" x2="{width - _MARGIN_R}" y2="{y0}" '
        f'stroke="{_AXIS}" stroke-width="1.5"/>'
    )

    for i, g in enumerate(groups):
        cx = _MARGIN_L + _SLOT_W * i + _SLOT_W / 2
        top = min(y(g.effect), y(0.0))
        h = abs(y(g.effect) - y(0.0))
        parts.append(
            f'<rect x="{_fmt(cx - _BAR_W / 2)}" y="{_fmt(top)}" width="{_BAR_W}" '
            f'height="{_fmt(h)}" fill="{_BAR_FILL}"/>'
        )
        if g.ci is not None:
            y_lo, y_hi = _fmt(y(g.ci_low)), _fmt(y(g.ci_high))
            parts.append(
                f'<line x1="{_fmt(cx)}" y1="{y_lo}" x2="{_fmt(cx)}" y2="{y_hi}" '
                f'stroke="{_AXIS}" stroke-width="1.5" class="whisker"/>'
            )
            for yy in (y_lo, y_hi):
                parts.append(
                    f'<line x1="{_fmt(cx - 6)}" y1="{yy}" x2="{_fmt(cx + 6)}" y2="{yy}" '
                    f'stroke="{_AXIS}" stroke-width="1.5" class="whisker"/>'
                )
        value_y = y(g.effect) + (-6 if g.effect >= 0 else 14)
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(value_y)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{g.effect:+.3f}</text>'
        )
        parts.append(
            f'<text x="{_fmt(cx)}" y="{y_base + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_escape(_wrap_label(g.label)[0])}</text>'
        )
        second = _wrap_label(g.label)[1]
        if second:
            parts.append(
                f'<text x="{_fmt(cx)}" y="{y_base + 29}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{_escape(second)}</text>'
            )

    if reference is not None:
        yr = _fmt(y(reference))
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{yr}" x2="{width - _MARGIN_R}" y2="{yr}" '
            f'stroke="{_REF}" stroke-width="1.5" stroke-dasharray="6,4" class="reference"/>'
        )
        parts.append(
            f'<text x="{width - _MARGIN_R}" y="{_fmt(y(reference) - 5)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="{_REF}">'
            f'causal effect {reference:+.3f}</text>'
        )

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
