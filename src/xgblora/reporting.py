"""Metrics CSV emission and report generation (markdown tables + SVG line
plots). Output bytes are a pure function of the input CSVs: float
formatting is pinned and no timestamps or environment details leak in, so
report regeneration is byte-identical.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

METRICS_SCHEMA = "metrics.v1"
METRICS_HEADER = [
    "schema",
    "run_id",
    "iteration",
    "step",
    "loss",
    "a_norm",
    "b_norm",
    "grad_norm",
    "wall_ms",
    "update_bytes",
    "trainable_permille",
]


class ReportError(ValueError):
    """Schema problem in an input CSV; message names the column or file."""


FLOAT64_BYTES = 8


@dataclass
class MetricsWriter:
    """One CSV of metrics rows. A row is written with the count of
    parameters trainable at that row (`lora.param_count`'s "trainable"):
    its update_bytes are those parameters plus their gradients in float64,
    and its trainable_permille is the count per thousand of all
    `total_params` weights. A resumed run gives its checkpoint's
    `resume_step`: the rows already in the file up to that step are kept
    (rewritten with one write-then-rename, so rows a run wrote past its
    last checkpoint are dropped), new rows go after them, and wall_ms
    continues from the last kept row."""

    path: str
    run_id: str
    total_params: int
    resume_step: Optional[int] = None

    def __post_init__(self):
        kept = []
        if self.resume_step is not None and os.path.exists(self.path):
            kept = [r for r in read_metrics_csv(self.path) if int(r["step"]) <= self.resume_step]
        self._start = time.monotonic() - (float(kept[-1]["wall_ms"]) / 1000.0 if kept else 0.0)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(METRICS_HEADER) + "\n")
            for r in kept:
                fh.write(",".join(r[c] for c in METRICS_HEADER) + "\n")
        os.replace(tmp, self.path)
        self._fh = open(self.path, "a", encoding="utf-8", newline="")

    def _write_row(self, t: int, step: int, loss: float, norms: tuple, trainable: int):
        """One METRICS_HEADER row; `norms` holds the a_norm, b_norm and
        grad_norm cells."""
        row = [
            METRICS_SCHEMA,
            self.run_id,
            str(t),
            str(step),
            _fmt(loss),
            *norms,
            _fmt((time.monotonic() - self._start) * 1000.0),
            str(2 * FLOAT64_BYTES * trainable),
            _fmt(1000.0 * trainable / self.total_params),
        ]
        self._fh.write(",".join(row) + "\n")

    def write_iteration(self, trace, step: int, trainable: int):
        loss = trace.step_losses[-1] if trace.step_losses else float("nan")
        norms = (_fmt(trace.a_norm), _fmt(trace.b_norm), _fmt(trace.grad_max))
        self._write_row(trace.t, step, loss, norms, trainable)
        self._fh.flush()

    def write_step(self, t: int, step: int, loss: float, trainable: int):
        self._write_row(t, step, loss, ("", "", ""), trainable)

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def read_metrics_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        return []
    header = lines[0].split(",")
    for col in METRICS_HEADER:
        if col not in header:
            raise ReportError(f"{os.path.basename(path)}: missing column {col!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ReportError(f"{os.path.basename(path)}: row width {len(parts)} != header {len(header)}")
        rows.append(dict(zip(header, parts)))
    return rows


# ----------------------------------------------------------------------
# SVG line plots, written by hand so bytes depend only on the data
# ----------------------------------------------------------------------

_SVG_W, _SVG_H, _SVG_PAD = 480, 300, 40
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def svg_line_plot(series: dict, title: str, x_label: str, y_label: str) -> str:
    """series: name -> list of (x, y). Deterministic byte output."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="18" text-anchor="middle" font-size="13">{title}</text>',
    ]
    pts_all = [p for pts in series.values() for p in pts]
    if pts_all:
        xs = [p[0] for p in pts_all]
        ys = [p[1] for p in pts_all]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0

        def sx(x):
            return _SVG_PAD + (x - x0) / (x1 - x0) * (_SVG_W - 2 * _SVG_PAD)

        def sy(y):
            return _SVG_H - _SVG_PAD - (y - y0) / (y1 - y0) * (_SVG_H - 2 * _SVG_PAD)

        axis = (
            f'<line x1="{_SVG_PAD}" y1="{_SVG_H - _SVG_PAD}" x2="{_SVG_W - _SVG_PAD}" '
            f'y2="{_SVG_H - _SVG_PAD}" stroke="black"/>'
            f'<line x1="{_SVG_PAD}" y1="{_SVG_PAD}" x2="{_SVG_PAD}" '
            f'y2="{_SVG_H - _SVG_PAD}" stroke="black"/>'
        )
        parts.append(axis)
        parts.append(
            f'<text x="{_SVG_W // 2}" y="{_SVG_H - 8}" text-anchor="middle" font-size="11">{x_label}</text>'
        )
        parts.append(
            f'<text x="12" y="{_SVG_H // 2}" font-size="11" '
            f'transform="rotate(-90 12 {_SVG_H // 2})" text-anchor="middle">{y_label}</text>'
        )
        parts.append(
            f'<text x="{_SVG_PAD}" y="{_SVG_H - _SVG_PAD + 14}" font-size="9">{_fmt(x0)}</text>'
            f'<text x="{_SVG_W - _SVG_PAD}" y="{_SVG_H - _SVG_PAD + 14}" font-size="9" '
            f'text-anchor="end">{_fmt(x1)}</text>'
            f'<text x="{_SVG_PAD - 4}" y="{_SVG_H - _SVG_PAD}" font-size="9" '
            f'text-anchor="end">{_fmt(y0)}</text>'
            f'<text x="{_SVG_PAD - 4}" y="{_SVG_PAD + 4}" font-size="9" text-anchor="end">{_fmt(y1)}</text>'
        )
        for i, (name, pts) in enumerate(sorted(series.items())):
            if not pts:
                continue
            color = _COLORS[i % len(_COLORS)]
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            parts.append(
                f'<text x="{_SVG_W - _SVG_PAD - 4}" y="{_SVG_PAD + 14 + 13 * i}" font-size="10" '
                f'text-anchor="end" fill="{color}">{name}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(csv_dir, out_dir=None) -> dict:
    """Aggregate every metrics CSV under csv_dir into report.md plus one
    loss-curve SVG per run. Returns {filename: bytes written}. An empty
    directory yields a valid empty report; a missing one raises ReportError
    before any directory is made."""
    if not os.path.isdir(csv_dir):
        raise ReportError(f"not a directory: {csv_dir}")
    out_dir = out_dir or csv_dir
    os.makedirs(out_dir, exist_ok=True)
    csvs = sorted(
        f for f in os.listdir(csv_dir) if f.endswith(".csv") and not f.startswith(".")
    )
    runs = {}
    for name in csvs:
        rows = read_metrics_csv(os.path.join(csv_dir, name))
        for row in rows:
            if row["schema"] != METRICS_SCHEMA:
                continue
            runs.setdefault(row["run_id"], []).append(row)

    lines = ["# Run report", ""]
    written = {}
    if not runs:
        lines.append("No runs found.")
    else:
        lines.append(
            "| run | final loss | iterations | steps | trainable permille | peak update bytes | ms/step |"
        )
        lines.append("|---|---|---|---|---|---|---|")
        series = {}
        for run_id in sorted(runs):
            rows = runs[run_id]
            rows.sort(key=lambda r: int(r["step"]))
            final = rows[-1]
            steps = int(final["step"])
            wall = float(final["wall_ms"])
            ms_per_step = wall / steps if steps else 0.0
            lines.append(
                f"| {run_id} | {final['loss']} | {final['iteration']} | {steps} "
                f"| {final['trainable_permille']} | {max(int(r['update_bytes']) for r in rows)} "
                f"| {_fmt(ms_per_step)} |"
            )
            series[run_id] = [(float(r["step"]), float(r["loss"])) for r in rows]
        svg = svg_line_plot(series, "training loss", "step", "loss")
        svg_path = os.path.join(out_dir, "loss_curves.svg")
        with open(svg_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(svg)
        written["loss_curves.svg"] = len(svg)
        lines.append("")
        lines.append("![loss](loss_curves.svg)")

    md = "\n".join(lines) + "\n"
    md_path = os.path.join(out_dir, "report.md")
    with open(md_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(md)
    written["report.md"] = len(md)
    return written
