"""Standalone SVG emission for trajectory and log-error plots.

Hand-rolled SVG with no external assets: one polyline per trace, a
framed plot area, and a small legend.  Output is deterministic for a
given input.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import UsageError

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _scale(lo, hi):
    if hi - lo < 1e-12:
        pad = max(abs(lo), 1.0) * 0.05 + 1e-9
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.08
    return lo - pad, hi + pad


def _polyline(xs, ys, color):
    pts = " ".join(["%.2f,%.2f" % xy for xy in zip(xs.tolist(), ys.tolist())])
    return (
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="1.5"/>'
    )


def _frame(width, height, margin, title):
    parts = [
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#999"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="{margin - 8}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif">{title}</text>'
        )
    return parts


def _legend(parts, labels, width, margin):
    y = margin + 16
    for label, color in zip(labels, PALETTE):
        parts.append(
            f'<text x="{width - margin - 8}" y="{y}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif" fill="{color}">'
            f"{label}</text>"
        )
        y += 14


def _axis_labels(parts, xlo, xhi, ylo, yhi, width, height, margin):
    parts.append(
        f'<text x="{margin}" y="{height - margin + 14}" font-size="10" '
        f'font-family="sans-serif">{xlo:.3g}</text>'
    )
    parts.append(
        f'<text x="{width - margin}" y="{height - margin + 14}" font-size="10" '
        f'text-anchor="end" font-family="sans-serif">{xhi:.3g}</text>'
    )
    parts.append(
        f'<text x="{margin - 4}" y="{height - margin}" font-size="10" '
        f'text-anchor="end" font-family="sans-serif">{ylo:.3g}</text>'
    )
    parts.append(
        f'<text x="{margin - 4}" y="{margin + 4}" font-size="10" '
        f'text-anchor="end" font-family="sans-serif">{yhi:.3g}</text>'
    )


def emit_svg(traces, path, kind: str = "trajectory", labels=None,
             title: str | None = None, width: int = 640, height: int = 480):
    """Write an SVG plot of the given traces and return the path.

    kind "trajectory" draws the 2-d iterate path of each trace (traces of
    other dimension are skipped with a warning); kind "error" draws
    log10 of the recorded solution errors against the step counter.
    Returns None when nothing is plottable.
    """
    traces = list(traces)
    if not traces:
        raise UsageError("emit_svg needs at least one trace")
    if kind not in ("trajectory", "error"):
        raise UsageError(f"unknown plot kind {kind!r}")
    if labels is None:
        labels = [f"trace{i}" for i in range(len(traces))]

    margin = 40
    series = []
    kept_labels = []
    for trace, label in zip(traces, labels):
        if kind == "trajectory":
            if trace.iterates.shape[1] != 2:
                warnings.warn(
                    f"trajectory plot skipped for {label}: dimension "
                    f"{trace.iterates.shape[1]} != 2"
                )
                continue
            series.append((trace.iterates[:, 0], trace.iterates[:, 1]))
        else:
            if trace.solution_errors is None:
                warnings.warn(f"error plot skipped for {label}: no solution errors")
                continue
            errs = np.asarray(trace.solution_errors, dtype=float)
            ys = np.log10(np.maximum(errs, 1e-300))
            series.append((np.arange(errs.size, dtype=float), ys))
        kept_labels.append(label)
    if not series:
        warnings.warn("nothing to plot; no SVG written")
        return None

    xlo, xhi = _scale(min(s[0].min() for s in series), max(s[0].max() for s in series))
    ylo, yhi = _scale(min(s[1].min() for s in series), max(s[1].max() for s in series))
    sx = (width - 2 * margin) / (xhi - xlo)
    sy = (height - 2 * margin) / (yhi - ylo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    parts += _frame(width, height, margin, title)
    if kind == "trajectory":
        # axes through the origin when visible
        if xlo < 0 < xhi:
            px = margin + (0 - xlo) * sx
            parts.append(
                f'<line x1="{px:.2f}" y1="{margin}" x2="{px:.2f}" '
                f'y2="{height - margin}" stroke="#ddd"/>'
            )
        if ylo < 0 < yhi:
            py = height - margin - (0 - ylo) * sy
            parts.append(
                f'<line x1="{margin}" y1="{py:.2f}" x2="{width - margin}" '
                f'y2="{py:.2f}" stroke="#ddd"/>'
            )
    for (xs, ys), color in zip(series, PALETTE):
        px = margin + (xs - xlo) * sx
        py = height - margin - (ys - ylo) * sy
        parts.append(_polyline(px, py, color))
    _legend(parts, kept_labels, width, margin)
    _axis_labels(parts, xlo, xhi, ylo, yhi, width, height, margin)
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
