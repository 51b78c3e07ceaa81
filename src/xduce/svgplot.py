"""Static SVG rendering of sweep curves, no plotting dependencies.

Fixed 800x600 viewBox with one panel per requested output column and one
path per Q value. Power is always on a log axis; efficiency and
cooperativity use a linear vertical axis while infidelity is drawn
log-log, matching its decade scaling. Zero or negative values cannot be
placed on a log axis and are skipped.
"""

from __future__ import annotations

import itertools
import math
import operator
from xml.etree import ElementTree as ET

WIDTH = 800.0
HEIGHT = 600.0
_MARGIN = dict(left=60.0, right=20.0, top=40.0, bottom=50.0)
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# output name -> (SweepTable column, panel title)
_COLUMNS = {
    "efficiency": ("eta", "eta"),
    "cooperativity": ("cooperativity", "C"),
    "infidelity": ("infidelity", "infidelity"),
}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _text(svg, x: float, y: float, text: str, **attrs) -> None:
    ET.SubElement(svg, "text", x=_fmt(x), y=_fmt(y), **attrs).text = text


def _panel(svg, table, values, title: str, log_y: bool, x0: float, panel_w: float,
           note: str | None):
    # per Q, the points a log power axis (and a log-y axis) can place; a
    # sweep table is sorted by Q, so each Q is one run of rows
    points_by_q = {
        q: [(p, v) for _, p, v in run if p > 0.0 and (v > 0.0 or not log_y)]
        for q, run in itertools.groupby(zip(table.q_b, table.pump_power_w, values),
                                        key=operator.itemgetter(0))
    }
    xs = [p for points in points_by_q.values() for p, _ in points]
    ys = [v for points in points_by_q.values() for _, v in points]
    plot_x0 = x0 + _MARGIN["left"]
    plot_x1 = x0 + panel_w - _MARGIN["right"]
    plot_y0 = _MARGIN["top"]
    plot_y1 = HEIGHT - _MARGIN["bottom"]
    if not xs:
        return
    lx_min, lx_max = math.log10(min(xs)), math.log10(max(xs))
    if lx_max == lx_min:
        lx_min, lx_max = lx_min - 0.5, lx_max + 0.5
    if log_y:
        y_min, y_max = math.log10(min(ys)), math.log10(max(ys))
    else:
        y_min, y_max = min(ys), max(ys)
    if y_max == y_min:
        y_min, y_max = y_min - 0.5, y_max + 0.5

    # frame
    for x1, y1, x2, y2 in (
        (plot_x0, plot_y1, plot_x1, plot_y1),
        (plot_x0, plot_y0, plot_x0, plot_y1),
    ):
        ET.SubElement(
            svg, "line",
            x1=_fmt(x1), y1=_fmt(y1), x2=_fmt(x2), y2=_fmt(y2),
            stroke="black", **{"stroke-width": "1"},
        )
    # axis labels and range ticks
    _text(svg, (plot_x0 + plot_x1) / 2, plot_y0 - 14.0, title,
          **{"text-anchor": "middle", "font-size": "14"})
    for frac, value in ((0.0, 10.0**lx_min), (1.0, 10.0**lx_max)):
        _text(svg, plot_x0 + frac * (plot_x1 - plot_x0), plot_y1 + 16.0, f"{value:.3g}",
              **{"text-anchor": "middle", "font-size": "10"})
    _text(svg, (plot_x0 + plot_x1) / 2, plot_y1 + 34.0, "pump power (W)",
          **{"text-anchor": "middle", "font-size": "11"})
    for frac, t in ((0.0, y_min), (1.0, y_max)):
        _text(svg, plot_x0 - 6.0, plot_y1 - frac * (plot_y1 - plot_y0) + 4.0,
              f"{10.0**t if log_y else t:.3g}", **{"text-anchor": "end", "font-size": "10"})
    if note:
        _text(svg, plot_x0, plot_y1 + 46.0, note, **{"font-size": "9"})

    x_span, x_width = lx_max - lx_min, plot_x1 - plot_x0
    y_span, y_height = y_max - y_min, plot_y1 - plot_y0
    for idx, points in enumerate(points_by_q.values()):
        if not points:
            continue
        coords = [
            "%.2f %.2f" % (
                plot_x0 + (math.log10(p) - lx_min) / x_span * x_width,
                plot_y1 - ((math.log10(v) if log_y else v) - y_min) / y_span * y_height,
            )
            for p, v in points
        ]
        ET.SubElement(
            svg, "path",
            d="M " + " L ".join(coords), fill="none",
            stroke=_PALETTE[idx % len(_PALETTE)], **{"stroke-width": "1.5"},
        )


def render_sweep_svg(table, outputs, note: str | None = None) -> str:
    """Render a sweep table to an SVG document string.

    ``table`` is the :class:`xduce.sweep.SweepTable` of
    :func:`xduce.sweep.run_sweep`, read by column; ``outputs`` the ordered
    output columns to draw, one panel each. ``note`` is an optional
    annotation (e.g. the r0 mapping in effect).
    """
    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        viewBox=f"0 0 {WIDTH:.0f} {HEIGHT:.0f}",
        width=f"{WIDTH:.0f}",
        height=f"{HEIGHT:.0f}",
    )
    outputs = list(outputs)
    panel_w = WIDTH / max(1, len(outputs))
    for i, output in enumerate(outputs):
        if output not in _COLUMNS:
            raise ValueError(f"no such output column: {output!r}")
        column, title = _COLUMNS[output]
        values = getattr(table, column)
        if values is not None:
            _panel(svg, table, values, title, output == "infidelity", i * panel_w, panel_w,
                   note if i == 0 else None)
    # legend, one swatch per Q
    for idx, q in enumerate(dict.fromkeys(table.q_b)):
        y = 14.0 + 14.0 * idx
        ET.SubElement(
            svg, "rect", x=_fmt(WIDTH - 150.0), y=_fmt(y - 8.0),
            width="18", height="4", fill=_PALETTE[idx % len(_PALETTE)],
        )
        _text(svg, WIDTH - 126.0, y, f"Q = {q:.4g}", **{"font-size": "11"})
    return ET.tostring(svg, encoding="unicode")
