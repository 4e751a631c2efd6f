"""Static SVG charts, no external assets.

Two renderings: an accuracy-vs-EOD scatter of method aggregates from a
report document, and a dual-axis line chart of accuracy and EOD against the
fairness factor from a sweep document. Charts accept the plain dicts
produced by bench (or loaded back from report.json / sweep.json), so they
can be re-rendered from files. Output is deterministic: fixed layout,
fixed colors, fixed numeric formatting.
"""

from __future__ import annotations

import os

from .bench import REPORT_SCHEMA, SWEEP_SCHEMA
from .data import write_text

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 70
MARGIN_RIGHT = 70
MARGIN_TOP = 40
MARGIN_BOTTOM = 50

COLORS = {
    "baseline": "#4878a8",
    "threshold_optimizer": "#d9822b",
    "fairttts": "#3a923a",
    "accuracy": "#4878a8",
    "eod": "#d9822b",
}


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _fmt_tick(v: float) -> str:
    return f"{v:.3g}"


class _Scale:
    """Affine map from data range to pixel range; degenerate ranges pad."""

    def __init__(self, lo, hi, pix_lo, pix_hi):
        if lo == hi:
            lo -= 0.5
            hi += 0.5
        span = hi - lo
        lo -= 0.05 * span
        hi += 0.05 * span
        self.lo, self.hi = lo, hi
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)

    def ticks(self):
        step = (self.hi - self.lo) / 4  # five ticks, both ends included
        return [self.lo + i * step for i in range(5)]


def _header(title: str) -> list:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="22" text-anchor="middle" font-size="15">'
        f"{title}</text>",
    ]


def _axis_lines() -> list:
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]


def _x_ticks(scale: _Scale, label: str) -> list:
    parts = []
    y = HEIGHT - MARGIN_BOTTOM
    for v in scale.ticks():
        px = scale(v)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{y}" x2="{_fmt(px)}" y2="{y + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{y + 18}" text-anchor="middle">{_fmt_tick(v)}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) / 2:.0f}" y="{HEIGHT - 10}" '
        f'text-anchor="middle">{label}</text>'
    )
    return parts


def _y_ticks(scale: _Scale, label: str, side: str, color: str = "black") -> list:
    parts = []
    x = MARGIN_LEFT if side == "left" else WIDTH - MARGIN_RIGHT
    dx, anchor = (-5, "end") if side == "left" else (5, "start")
    for v in scale.ticks():
        py = scale(v)
        parts.append(
            f'<line x1="{x}" y1="{_fmt(py)}" x2="{x + dx}" y2="{_fmt(py)}" stroke="{color}"/>'
        )
        parts.append(
            f'<text x="{x + dx * 2}" y="{_fmt(py + 4)}" text-anchor="{anchor}" '
            f'fill="{color}">{_fmt_tick(v)}</text>'
        )
    rot_x = 18 if side == "left" else WIDTH - 12
    parts.append(
        f'<text x="{rot_x}" y="{HEIGHT / 2:.0f}" text-anchor="middle" fill="{color}" '
        f'transform="rotate(-90 {rot_x} {HEIGHT / 2:.0f})">{label}</text>'
    )
    return parts


def _polyline(points, color, series_id, dashed=False) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    return (
        f'<polyline id="{series_id}" points="{coords}" fill="none" '
        f'stroke="{color}" stroke-width="2"{dash}/>'
    )


def chart_accuracy_vs_eod(report_doc: dict) -> str:
    """Scatter of per-method (accuracy mean, EOD mean); methods with an
    undefined EOD aggregate are omitted."""
    points = []
    for method in report_doc["methods"]:
        agg = report_doc["aggregates"][method]
        acc, eod = agg["accuracy"]["mean"], agg["eod"]["mean"]
        if acc is not None and eod is not None:
            points.append((method, acc, eod))
    if not points:
        raise ValueError("no data points")
    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    x_scale = _Scale(min(xs), max(xs), MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    y_scale = _Scale(min(ys), max(ys), HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    parts = _header(
        f"Accuracy vs. equalized odds difference: {report_doc['dataset']}"
    )
    parts += _axis_lines()
    parts += _x_ticks(x_scale, "accuracy (mean over folds)")
    parts += _y_ticks(y_scale, "equalized odds difference", "left")
    for i, (method, acc, eod) in enumerate(points):
        color = COLORS.get(method, "#666666")
        px, py = x_scale(acc), y_scale(eod)
        parts.append(
            f'<circle class="point" id="point-{method}" cx="{_fmt(px)}" cy="{_fmt(py)}" '
            f'r="5" fill="{color}"/>'
        )
        ly = MARGIN_TOP + 14 + 16 * i
        lx = WIDTH - MARGIN_RIGHT - 150
        parts.append(f'<circle cx="{lx}" cy="{ly - 4}" r="5" fill="{color}"/>')
        parts.append(f'<text x="{lx + 10}" y="{ly}">{method}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def chart_alpha_sweep(sweep_doc: dict) -> str:
    """Accuracy (left axis) and EOD (right axis) against the fairness
    factor; one polyline per metric when two or more points exist."""
    rows = [
        (row["alpha"], row["accuracy"]["mean"], row["eod"]["mean"])
        for row in sweep_doc["fairttts"]
    ]
    rows = [r for r in rows if r[1] is not None and r[2] is not None]
    if not rows:
        raise ValueError("no data points")
    alphas = [r[0] for r in rows]
    accs = [r[1] for r in rows]
    eods = [r[2] for r in rows]
    x_scale = _Scale(min(alphas), max(alphas), MARGIN_LEFT, WIDTH - MARGIN_RIGHT)
    acc_scale = _Scale(min(accs), max(accs), HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    eod_scale = _Scale(min(eods), max(eods), HEIGHT - MARGIN_BOTTOM, MARGIN_TOP)
    parts = _header(f"Sensitivity to the fairness factor: {sweep_doc['dataset']}")
    parts += _axis_lines()
    parts += _x_ticks(x_scale, "fairness factor (alpha)")
    parts += _y_ticks(acc_scale, "accuracy", "left", COLORS["accuracy"])
    parts += _y_ticks(eod_scale, "equalized odds difference", "right", COLORS["eod"])
    acc_points = [(x_scale(a), acc_scale(v)) for a, v in zip(alphas, accs)]
    eod_points = [(x_scale(a), eod_scale(v)) for a, v in zip(alphas, eods)]
    if len(rows) >= 2:
        parts.append(_polyline(acc_points, COLORS["accuracy"], "accuracy-line"))
        parts.append(_polyline(eod_points, COLORS["eod"], "eod-line", dashed=True))
    for px, py in acc_points:
        parts.append(
            f'<circle class="accuracy-marker" cx="{_fmt(px)}" cy="{_fmt(py)}" r="3.5" '
            f'fill="{COLORS["accuracy"]}"/>'
        )
    for px, py in eod_points:
        parts.append(
            f'<circle class="eod-marker" cx="{_fmt(px)}" cy="{_fmt(py)}" r="3.5" '
            f'fill="{COLORS["eod"]}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_charts(doc: dict, out_dir) -> dict:
    """Write the chart for a report or sweep document (dispatch on its
    schema field); returns {name: path}. A document that is not an object,
    or lacks a field the chart reads, raises ValueError naming it."""
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    schema = doc.get("schema", "")
    if schema == SWEEP_SCHEMA:
        name, render = "alpha_sweep", chart_alpha_sweep
    elif schema == REPORT_SCHEMA:
        name, render = "accuracy_vs_eod", chart_accuracy_vs_eod
    else:
        raise ValueError(f"cannot chart document with schema {schema!r}")
    try:
        text = render(doc)
    except KeyError as exc:
        raise ValueError(f"missing field {exc}") from None
    except TypeError as exc:  # a field of the wrong type
        raise ValueError(f"malformed document: {exc}") from None
    path = os.path.join(out_dir, f"{name}.svg")
    write_text(path, text)
    return {name: path}
