"""Standalone SVG emission for trajectory and log-error plots.

Hand-rolled SVG with no external assets: one polyline per trace, a
framed plot area, and a small legend.  Output is deterministic for a
given input.
"""

from __future__ import annotations

import warnings

import numpy as np

from .configio import _write_lines
from .errors import UsageError

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _scale(lo, hi):
    if hi - lo < 1e-12:
        pad = max(abs(lo), 1.0) * 0.05 + 1e-9
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.08
    return lo - pad, hi + pad


def _text(x, y, size, body, anchor="", fill=""):
    """One sans-serif <text>, its body XML-escaped; text-anchor and fill if given."""
    anchor = anchor and f' text-anchor="{anchor}"'
    fill = fill and f' fill="{fill}"'
    # by hand: xml.sax.saxutils imports urllib.request, ssl and email (3 MB)
    body = str(body).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{x}" y="{y}" font-size="{size}"{anchor} '
            f'font-family="sans-serif"{fill}>{body}</text>')


def emit_svg(traces, path, kind: str = "trajectory", labels=None,
             title: str | None = None):
    """Write a 640 x 480 SVG plot of the given traces and return the path.

    kind "trajectory" draws the 2-d iterate path of each trace (traces of
    other dimension are skipped with a warning); kind "error" draws
    log10 of the recorded solution errors against the step counter.  The
    colours of PALETTE repeat after its sixth trace.  Returns None, and
    writes nothing, when nothing is plottable.
    """
    traces = list(traces)
    if not traces:
        raise UsageError("emit_svg needs at least one trace")
    if kind not in ("trajectory", "error"):
        raise UsageError(f"unknown plot kind {kind!r}")
    if labels is None:
        labels = [f"trace{i}" for i in range(len(traces))]

    width, height, margin = 640, 480, 40
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
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#999"/>',
    ]
    if title:
        parts.append(_text(f"{width / 2:.0f}", margin - 8, 13, title, "middle"))
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
    colors = [PALETTE[i % len(PALETTE)] for i in range(len(series))]
    for (xs, ys), color in zip(series, colors):
        px = (margin + (xs - xlo) * sx).tolist()
        py = (height - margin - (ys - ylo) * sy).tolist()
        pts = " ".join(["%.2f,%.2f" % xy for xy in zip(px, py)])
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
    parts += [_text(width - margin - 8, margin + 16 + 14 * i, 11, label, "end", color)
              for i, (label, color) in enumerate(zip(kept_labels, colors))]
    parts += [
        _text(margin, height - margin + 14, 10, f"{xlo:.3g}"),
        _text(width - margin, height - margin + 14, 10, f"{xhi:.3g}", "end"),
        _text(margin - 4, height - margin, 10, f"{ylo:.3g}", "end"),
        _text(margin - 4, margin + 4, 10, f"{yhi:.3g}", "end"),
        "</svg>",
    ]
    _write_lines(path, parts)
    return path
