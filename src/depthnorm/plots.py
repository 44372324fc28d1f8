"""Minimal SVG box plots of per-column log(x+1) summaries.

Display-only output: one box-and-whisker glyph per sample column built
from the five-number summary (min, q1, median, q3, max) of log(x+1)
values.  The SVG text is deterministic for a given matrix.
"""

from __future__ import annotations

import numpy as np

from .core import ExpressionMatrix, log1_transform

WIDTH, HEIGHT = 640, 400  # the canvas, in SVG user units


def five_number_summaries(m: ExpressionMatrix) -> np.ndarray:
    """5 x n array of min/q1/median/q3/max of log(x+1) per column."""
    logged = log1_transform(m).values
    # column by column: along axis 0, np.quantile partitions a copy of the whole
    # matrix, and one column at a time gives the same bits
    levels = [0.0, 0.25, 0.5, 0.75, 1.0]
    return np.array([np.quantile(col, levels) for col in logged.T]).T


def boxplot_svg(m: ExpressionMatrix, title: str = "") -> str:
    summaries = five_number_summaries(m)
    n = m.n_samples
    lo = float(summaries.min())
    hi = float(summaries.max())
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad

    margin_l, margin_r, margin_t, margin_b = 50, 15, 30, 40
    plot_w = WIDTH - margin_l - margin_r
    plot_h = HEIGHT - margin_t - margin_b

    def y(v: float) -> float:
        return margin_t + plot_h * (hi - v) / (hi - lo)

    slot = plot_w / n
    box_w = min(30.0, 0.6 * slot)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>'
        )
    # y axis with a handful of ticks
    parts.append(
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>'
    )
    for tick in np.linspace(lo, hi, 5):
        ty = y(float(tick))
        parts.append(f'<line x1="{margin_l - 4}" y1="{ty:.2f}" x2="{margin_l}" y2="{ty:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{margin_l - 7}" y="{ty + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{tick:.2f}</text>'
        )
    for j in range(n):
        cx = margin_l + slot * (j + 0.5)
        mn, q1, med, q3, mx = (float(v) for v in summaries[:, j])
        x0, x1 = cx - box_w / 2, cx + box_w / 2
        parts += [
            f'<line x1="{cx:.2f}" y1="{y(mn):.2f}" x2="{cx:.2f}" y2="{y(q1):.2f}" stroke="black"/>',
            f'<line x1="{cx:.2f}" y1="{y(q3):.2f}" x2="{cx:.2f}" y2="{y(mx):.2f}" stroke="black"/>',
            f'<line x1="{x0:.2f}" y1="{y(mn):.2f}" x2="{x1:.2f}" y2="{y(mn):.2f}" stroke="black"/>',
            f'<line x1="{x0:.2f}" y1="{y(mx):.2f}" x2="{x1:.2f}" y2="{y(mx):.2f}" stroke="black"/>',
            f'<rect x="{x0:.2f}" y="{y(q3):.2f}" width="{box_w:.2f}" '
            f'height="{y(q1) - y(q3):.2f}" fill="#9ecae1" stroke="black"/>',
            f'<line x1="{x0:.2f}" y1="{y(med):.2f}" x2="{x1:.2f}" y2="{y(med):.2f}" '
            f'stroke="black" stroke-width="2"/>',
            f'<text x="{cx:.2f}" y="{HEIGHT - margin_b + 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{m.sample_ids[j]}</text>',
        ]
    parts.append("</svg>")
    return "\n".join(parts)
