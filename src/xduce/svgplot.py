"""Static SVG rendering of sweep curves, no plotting or XML dependencies.

Fixed 800x600 viewBox with one panel per requested output column and one
path per Q value. Power is always on a log axis; efficiency and
cooperativity use a linear vertical axis while infidelity is drawn
log-log, matching its decade scaling. Zero or negative values cannot be
placed on a log axis and are skipped. The document is written as text:
attributes hold only numbers, colours and fixed words, and text nodes
escape ``&``, ``<`` and ``>``.
"""

from __future__ import annotations

import math

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


def _text(out: list, x: float, y: float, text: str, attrs: str) -> None:
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    out.append(f'<text x="{x:.2f}" y="{y:.2f}" {attrs}>{text}</text>')


def _panel(out: list, powers, logs, curves, title: str, log_y: bool, x0: float,
           panel_w: float, note: str | None) -> bool:
    # per Q, the powers, their logs and the values of the points a log power
    # axis (and a log-y axis) can place; a curve whose points all can keeps
    # the power lists it shares with the other curves
    all_placeable = min(powers) > 0.0
    placeable = []
    for vs in curves:
        xs, lxs = powers, logs
        if not all_placeable or (log_y and min(vs) <= 0.0):
            kept = [i for i, (p, v) in enumerate(zip(powers, vs))
                    if p > 0.0 and (v > 0.0 or not log_y)]
            xs, lxs, vs = ([column[i] for i in kept] for column in (powers, logs, vs))
        placeable.append((xs, lxs, vs))
    placed = [curve for curve in placeable if curve[0]]
    if not placed:
        return False
    plot_x0 = x0 + _MARGIN["left"]
    plot_x1 = x0 + panel_w - _MARGIN["right"]
    plot_y0 = _MARGIN["top"]
    plot_y1 = HEIGHT - _MARGIN["bottom"]
    if all(xs is powers for xs, _, _ in placed):  # the shared list's ends are the range
        lx_min, lx_max = math.log10(min(powers)), math.log10(max(powers))
    else:
        lx_min = math.log10(min(min(xs) for xs, _, _ in placed))
        lx_max = math.log10(max(max(xs) for xs, _, _ in placed))
    if lx_max == lx_min:
        lx_min, lx_max = lx_min - 0.5, lx_max + 0.5
    y_min = min(min(vs) for _, _, vs in placed)
    y_max = max(max(vs) for _, _, vs in placed)
    if log_y:
        y_min, y_max = math.log10(y_min), math.log10(y_max)
    if y_max == y_min:
        y_min, y_max = y_min - 0.5, y_max + 0.5

    # frame
    for x1, y1, x2, y2 in (
        (plot_x0, plot_y1, plot_x1, plot_y1),
        (plot_x0, plot_y0, plot_x0, plot_y1),
    ):
        out.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                   f'stroke="black" stroke-width="1" />')
    # axis labels and range ticks
    _text(out, (plot_x0 + plot_x1) / 2, plot_y0 - 14.0, title,
          'text-anchor="middle" font-size="14"')
    for frac, value in ((0.0, 10.0**lx_min), (1.0, 10.0**lx_max)):
        _text(out, plot_x0 + frac * (plot_x1 - plot_x0), plot_y1 + 16.0, f"{value:.3g}",
              'text-anchor="middle" font-size="10"')
    _text(out, (plot_x0 + plot_x1) / 2, plot_y1 + 34.0, "pump power (W)",
          'text-anchor="middle" font-size="11"')
    for frac, t in ((0.0, y_min), (1.0, y_max)):
        _text(out, plot_x0 - 6.0, plot_y1 - frac * (plot_y1 - plot_y0) + 4.0,
              f"{10.0**t if log_y else t:.3g}", 'text-anchor="end" font-size="10"')
    if note:
        _text(out, plot_x0, plot_y1 + 46.0, note, 'font-size="9"')

    x_span, x_width = lx_max - lx_min, plot_x1 - plot_x0
    y_span, y_height = y_max - y_min, plot_y1 - plot_y0
    template_logs = None
    for idx, (_, logs, vs) in enumerate(placeable):
        if not vs:
            continue
        if logs is not template_logs:  # each x is formatted once per shared power list
            template_logs = logs
            template = "M " + " L ".join(
                ["%.2f" % (plot_x0 + (lp - lx_min) / x_span * x_width) + " %.2f" for lp in logs])
        if vs.count(vs[0]) == len(vs):  # a constant curve's y is formatted once
            t = math.log10(vs[0]) if log_y else vs[0]
            d = template.replace("%.2f", "%.2f" % (plot_y1 - (t - y_min) / y_span * y_height))
        else:
            d = template % tuple([plot_y1 - (t - y_min) / y_span * y_height
                                  for t in (map(math.log10, vs) if log_y else vs)])
        out.append(f'<path d="{d}" fill="none" '
                   f'stroke="{_PALETTE[idx % len(_PALETTE)]}" stroke-width="1.5" />')
    return True


def render_sweep_svg(table, outputs, note: str | None = None) -> str:
    """Render a sweep table to an SVG document string.

    ``table`` is the :class:`xduce.sweep.SweepTable` of
    :func:`xduce.sweep.run_sweep`, one curve per Q; ``outputs`` the ordered
    output columns to draw, one panel each. ``note`` is an optional
    annotation (e.g. the r0 mapping in effect), written under the first
    panel that draws, or where the first panel's would be if none draws.
    """
    out = []
    outputs = list(outputs)
    panel_w = WIDTH / max(1, len(outputs))
    powers = table.pump_power_w
    logs = [math.log10(p) if p > 0.0 else None for p in powers]  # once per sweep
    for i, output in enumerate(outputs):
        if output not in _COLUMNS:
            raise ValueError(f"no such output column: {output!r}")
        column, title = _COLUMNS[output]
        curves = getattr(table, column)
        # the first panel that draws takes the note
        if curves is not None and _panel(out, powers, logs, curves, title,
                                         output == "infidelity", i * panel_w, panel_w, note):
            note = None
    if note:  # no panel drew: the note goes where the first panel's would
        _text(out, _MARGIN["left"], HEIGHT - _MARGIN["bottom"] + 46.0, note, 'font-size="9"')
    # legend, one swatch per Q
    for idx, q in enumerate(table.q_b):
        y = 14.0 + 14.0 * idx
        out.append(f'<rect x="{WIDTH - 150.0:.2f}" y="{y - 8.0:.2f}" width="18" height="4" '
                   f'fill="{_PALETTE[idx % len(_PALETTE)]}" />')
        _text(out, WIDTH - 126.0, y, f"Q = {q:.4g}", 'font-size="11"')
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}" '
            f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}"')
    # a table with no Q values leaves the root empty, and it closes itself
    return f"{head}>{''.join(out)}</svg>" if out else f"{head} />"
