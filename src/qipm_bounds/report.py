"""Machine- and human-readable suite reports.

CSV carries one row per (instance, formulation) with every numeric field in
shortest exact decimal form, so exclusion flags and curves can be recomputed
from the CSV alone. JSON nests the full report including config and metadata.
SVG output is hand-rolled (two static figures: per-family difficulty
distributions on a log scale, and exclusion-fraction curves over the cycle
duration grid with a marker at the reference duration) and is a pure
function of the report.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from pathlib import Path

from .harness import FORMULATIONS, InstanceRecord, SuiteReport

FORMATS = ("csv", "json", "svg")

# FormulationResult fields, one column each under their own name
FORMULATION_FIELDS = (
    "d", "dilated_dim", "sparsity", "kappa_lower", "gamma", "sigma_max_lb",
    "sigma_min_ub", "sigma_min_method", "degenerate", "query_count",
    "total_cycles",
)
# SolveOutcome fields, one column each with the classical_ prefix
CLASSICAL_FIELDS = ("status", "objective", "iterations", "solver", "wall_time")

RECORD_COLUMNS = [
    "name", "family", "formulation", "status", "m", "n", *FORMULATION_FIELDS,
    *(f"classical_{k}" for k in CLASSICAL_FIELDS), "threshold_duration",
    "failure",
]

# columns whose values derive from measured wall-clock time and are therefore
# not reproducible across runs
TIMING_COLUMNS = ("classical_wall_time", "threshold_duration")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def record_rows(record: InstanceRecord) -> list[dict[str, str]]:
    """CSV rows (one per formulation) of a single instance record."""
    rows = []
    c = record.classical
    for formulation in FORMULATIONS:
        f = record.formulations.get(formulation)
        tau = record.exclusion_threshold(formulation)
        cells = [
            record.name, record.family, formulation,
            record.status if f is None or f.ok else "failed",
            record.m, record.n,
            *(getattr(f, k) if f else None for k in FORMULATION_FIELDS),
            *(getattr(c, k) if c else None for k in CLASSICAL_FIELDS),
            None if tau is None else float(tau),
            record.error or (f.failure if f else None),
        ]
        rows.append(dict(zip(RECORD_COLUMNS, map(_cell, cells), strict=True)))
    return rows


def records_csv(report: SuiteReport) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RECORD_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for record in report.records:
        for row in record_rows(record):
            writer.writerow(row)
    return buf.getvalue()


def curves_csv(report: SuiteReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "formulation", "duration", "fraction",
                     "below_count", "total_count"])
    for family in sorted(report.curves):
        for formulation in FORMULATIONS:
            fracs = report.curves[family][formulation]
            counts = report.curve_counts[family][formulation]
            for t, frac, (below, total) in zip(report.duration_grid, fracs,
                                               counts):
                writer.writerow([family, formulation, repr(t), repr(frac),
                                 below, total])
    return buf.getvalue()


def record_dict(record: InstanceRecord) -> dict:
    """The record as nested dicts in field order, as dataclasses.asdict
    gives it, but built from the fields: lists and dicts of plain values
    are shared, not copied element by element."""
    def fields_of(obj) -> dict:
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    out = fields_of(record)
    out["formulations"] = {name: fields_of(f)
                           for name, f in record.formulations.items()}
    if record.classical is not None:
        out["classical"] = fields_of(record.classical)
    return out


def report_json(report: SuiteReport) -> str:
    payload = {
        "records": [record_dict(r) for r in report.records],
        "duration_grid": report.duration_grid,
        "reference_marker": report.reference_marker,
        "curves": report.curves,
        "curve_counts": report.curve_counts,
        "excluded": report.excluded,
        "config": report.config,
        "metadata": report.metadata,
        "warnings": report.warnings,
    }
    return json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"


# ---------------------------------------------------------------------------
# SVG emission

# family labels are directory names, so they are escaped for SVG <text>
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf"]


def _f(v: float) -> str:
    return f"{v:.2f}"


def _svg_header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="Helvetica,Arial,sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="22" font-size="15" '
        f'text-anchor="middle">{title}</text>',
    ]


def difficulty_svg(report: SuiteReport) -> str:
    """Strip plot of log10(gamma) per family, one panel per formulation."""
    families = sorted({r.family for r in report.records})
    panel_w, height = 420, 360
    width = panel_w * len(FORMULATIONS) + 60
    parts = _svg_header(width, height, "Newton system difficulty by family")
    gammas = [f.gamma for r in report.records
              for f in r.formulations.values() if f.ok and f.gamma > 0]
    if not gammas or not families:
        parts.append("</svg>")
        return "\n".join(parts)
    lo = math.floor(math.log10(min(gammas)))
    hi = math.ceil(math.log10(max(gammas))) or 1
    if hi <= lo:
        hi = lo + 1

    for p, formulation in enumerate(FORMULATIONS):
        x0, y0 = 60 + p * panel_w, 50
        pw, ph = panel_w - 70, height - 110
        parts.append(f'<text x="{x0 + pw / 2:.0f}" y="{y0 - 8}" '
                     f'font-size="13" text-anchor="middle">'
                     f'{formulation.upper()}</text>')
        parts.append(f'<rect x="{x0}" y="{y0}" width="{pw}" height="{ph}" '
                     'fill="none" stroke="#333" stroke-width="1"/>')
        for e in range(lo, hi + 1):
            y = y0 + ph * (hi - e) / (hi - lo)
            parts.append(f'<line x1="{x0}" y1="{_f(y)}" x2="{x0 + pw}" '
                         f'y2="{_f(y)}" stroke="#ddd" stroke-width="0.5"/>')
            parts.append(f'<text x="{x0 - 6}" y="{_f(y + 4)}" font-size="10" '
                         f'text-anchor="end">1e{e}</text>')
        step = pw / max(len(families), 1)
        for fi, family in enumerate(families):
            color = _PALETTE[fi % len(_PALETTE)]
            xc = x0 + step * (fi + 0.5)
            pts = sorted(
                f.gamma for r in report.records if r.family == family
                for name, f in r.formulations.items()
                if name == formulation and f.ok and f.gamma > 0)
            for k, g in enumerate(pts):
                y = y0 + ph * (hi - math.log10(g)) / (hi - lo)
                dx = (k - (len(pts) - 1) / 2) * min(8.0, step / max(len(pts), 1))
                parts.append(f'<circle cx="{_f(xc + dx)}" cy="{_f(y)}" r="3" '
                             f'fill="{color}" fill-opacity="0.8"/>')
            label_y = y0 + ph + 16
            parts.append(f'<text x="{_f(xc)}" y="{label_y}" font-size="10" '
                         f'text-anchor="middle" fill="{color}">'
                         f'{family.translate(_XML_TEXT)}</text>')
        parts.append(f'<text x="{x0 - 40}" y="{y0 + ph / 2:.0f}" '
                     f'font-size="11" text-anchor="middle" '
                     f'transform="rotate(-90 {x0 - 40} {y0 + ph / 2:.0f})">'
                     'difficulty s*kappa (log)</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def exclusion_svg(report: SuiteReport) -> str:
    """Exclusion-fraction curves over the cycle-duration grid.

    Solid lines: MNES; dashed: OSS; the vertical marker sits at the
    reference cycle duration."""
    width, height = 760, 420
    x0, y0, pw, ph = 70, 50, width - 240, height - 110
    parts = _svg_header(
        width, height,
        "Fraction of instances with quantum lower bound below classical time")
    grid = report.duration_grid
    if not grid or not report.curves:
        parts.append("</svg>")
        return "\n".join(parts)
    lo, hi = math.log10(grid[0]), math.log10(grid[-1])
    if hi <= lo:
        hi = lo + 1

    def sx(t: float) -> float:
        return x0 + pw * (math.log10(t) - lo) / (hi - lo)

    def sy(frac: float) -> float:
        return y0 + ph * (1.0 - frac)

    parts.append(f'<rect x="{x0}" y="{y0}" width="{pw}" height="{ph}" '
                 'fill="none" stroke="#333" stroke-width="1"/>')
    for e in range(math.ceil(lo), math.floor(hi) + 1):
        x = sx(10.0 ** e)
        parts.append(f'<line x1="{_f(x)}" y1="{y0}" x2="{_f(x)}" '
                     f'y2="{y0 + ph}" stroke="#eee" stroke-width="0.5"/>')
        if e % 2 == 0:
            parts.append(f'<text x="{_f(x)}" y="{y0 + ph + 14}" '
                         f'font-size="10" text-anchor="middle">1e{e}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(f'<line x1="{x0}" y1="{_f(y)}" x2="{x0 + pw}" '
                     f'y2="{_f(y)}" stroke="#eee" stroke-width="0.5"/>')
        parts.append(f'<text x="{x0 - 6}" y="{_f(y + 4)}" font-size="10" '
                     f'text-anchor="end">{frac:.2f}</text>')
    parts.append(f'<text x="{x0 + pw / 2:.0f}" y="{height - 18}" '
                 'font-size="11" text-anchor="middle">'
                 'assumed quantum cycle duration (s)</text>')

    marker = report.reference_marker
    if grid[0] <= marker <= grid[-1]:
        xm = sx(marker)
        parts.append(f'<line x1="{_f(xm)}" y1="{y0}" x2="{_f(xm)}" '
                     f'y2="{y0 + ph}" stroke="#555" stroke-width="1" '
                     'stroke-dasharray="5,3"/>')
        parts.append(f'<text x="{_f(xm + 4)}" y="{y0 + 14}" font-size="10" '
                     f'fill="#555">{marker:g} s</text>')

    families = sorted(report.curves)
    legend_y = y0
    for fi, family in enumerate(families):
        color = _PALETTE[fi % len(_PALETTE)]
        for formulation, dash in (("mnes", ""), ("oss", "6,4")):
            fracs = report.curves[family][formulation]
            pts = " ".join(f"{_f(sx(t))},{_f(sy(fr))}"
                           for t, fr in zip(grid, fracs))
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.6"{dash_attr}/>')
        parts.append(f'<line x1="{x0 + pw + 12}" y1="{legend_y + 4}" '
                     f'x2="{x0 + pw + 34}" y2="{legend_y + 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x0 + pw + 40}" y="{legend_y + 8}" '
                     f'font-size="10">{family.translate(_XML_TEXT)}</text>')
        legend_y += 16
    legend_y += 8
    parts.append(f'<line x1="{x0 + pw + 12}" y1="{legend_y}" '
                 f'x2="{x0 + pw + 34}" y2="{legend_y}" stroke="#333" '
                 'stroke-width="1.6"/>')
    parts.append(f'<text x="{x0 + pw + 40}" y="{legend_y + 4}" '
                 'font-size="10">MNES</text>')
    legend_y += 16
    parts.append(f'<line x1="{x0 + pw + 12}" y1="{legend_y}" '
                 f'x2="{x0 + pw + 34}" y2="{legend_y}" stroke="#333" '
                 'stroke-width="1.6" stroke-dasharray="6,4"/>')
    parts.append(f'<text x="{x0 + pw + 40}" y="{legend_y + 4}" '
                 'font-size="10">OSS</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_report(report: SuiteReport, out_dir: str | Path,
                formats: set[str] | None = None) -> list[Path]:
    """Write the files of `formats` (None: all); returns the paths written."""
    formats = set(FORMATS) if formats is None else formats
    if not formats or not formats <= set(FORMATS):
        raise ValueError(f"report formats {sorted(formats)} are not a "
                         f"non-empty subset of {FORMATS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if "csv" in formats:
        for name, text in (("records.csv", records_csv(report)),
                           ("curves.csv", curves_csv(report))):
            p = out / name
            p.write_text(text)
            written.append(p)
    if "json" in formats:
        p = out / "report.json"
        p.write_text(report_json(report))
        written.append(p)
    if "svg" in formats:
        for name, text in (("difficulty.svg", difficulty_svg(report)),
                           ("exclusion_curves.svg", exclusion_svg(report))):
            p = out / name
            p.write_text(text)
            written.append(p)
    return written
