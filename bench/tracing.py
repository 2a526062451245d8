"""Span tracing of cutterkit from outside, for the benchmark's traced run.

install() wraps each module's public functions where they are looked
up: the set classes' project/distance methods (projection_operator
captures cset.project when an operator is built, so install before
building), Operator.__call__, the engine drivers in both engine and cli
(cli imports iterate, run_map, run_dr and emit_svg by name), the
diagnostics probes, configio's loader and CSV writer, emit_svg, and
cli.main with the run and verify commands.  Each call records one span (name, start, end, parent) in flat
arrays kept in memory; layer_metrics() turns the spans of one round of
the task list into per-layer counts and self times, and save() writes
them out.

A layer's self time is its spans' time minus the part covered by child
spans.  The wrappers' own bookkeeping falls partly into the caller's
self time; README.md gives the overhead.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter

import numpy as np

USEFUL_RESIDUAL = 1e-10
PROBES = ("cutter_check", "relaxed_cutter_check", "demicontraction_check",
          "lb1_check", "lb2_check", "fejer_check", "dc_gap_check",
          "rate_certificate", "pair_regularity_estimate",
          "regularity_modulus_estimate")
ENGINE = ("iterate", "iterate_reformulated", "run_map", "run_dr")
BASELINES = ("engine.run_map", "engine.run_dr")


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1, len(shape) == 2


class Recorder:
    """Spans in parallel arrays: the span id is the index."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.stack: list[int] = []
        self.task_id = -1
        self.clear()

    def clear(self):
        """Drop the recorded spans; call only between tasks."""
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")   # rows of the input, or work done
        self.extra = array("q")  # 1 for a batch input, or useful work

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid, fn, args, kwargs, rows=0, batch=0):
        sid = len(self.start)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.task.append(self.task_id)
        self.rows.append(rows)
        self.extra.append(batch)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            self.end[sid] = perf_counter()
            stack.pop()
        return out, sid

    def __len__(self):
        return len(self.start)

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), task=np.asarray(self.task),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 rows=np.asarray(self.rows), extra=np.asarray(self.extra))


def _plain(rec, name, fn):
    nid = rec.name_id(name)

    def wrapped(*args, **kwargs):
        return rec.call(nid, fn, args, kwargs)[0]
    return wrapped


def _rows_method(rec, name, fn):
    """A set method or Operator.__call__: records the rows of x."""
    nid = rec.name_id(name)

    def wrapped(self, x, *args, **kwargs):
        n, batch = _rows(x)
        return rec.call(nid, fn, (self, x) + args, kwargs, n, batch)[0]
    return wrapped


def _engine(rec, name, fn):
    """A driver: records the steps taken and the useful ones, those up to
    the first residual <= 1e-10."""
    nid = rec.name_id(name)

    def wrapped(*args, **kwargs):
        trace, sid = rec.call(nid, fn, args, kwargs)
        res = np.asarray(trace.residuals)
        hit = np.flatnonzero(res <= USEFUL_RESIDUAL)
        rec.rows[sid] = res.size
        rec.extra[sid] = hit[0] + 1 if hit.size else res.size
        return trace
    return wrapped


def _probe(rec, name, fn):
    """A probe: records the samples it evaluated."""
    nid = rec.name_id(name)

    def wrapped(*args, **kwargs):
        rep, sid = rec.call(nid, fn, args, kwargs)
        if hasattr(rep, "samples"):
            rec.rows[sid] = rep.samples
        else:  # an estimator returns a float; it drew probe.sample_count
            probe = kwargs.get("probe", args[-1])
            rec.rows[sid] = int(probe.sample_count)
        return rep
    return wrapped


def _sized(rec, name, fn, count):
    """A writer: records count(args) and the bytes of the file written."""
    nid = rec.name_id(name)

    def wrapped(*args, **kwargs):
        out, sid = rec.call(nid, fn, args, kwargs)
        path = out if name == "svg.emit_svg" else args[0]
        if path is not None:
            rec.rows[sid] = count(args)
            rec.extra[sid] = os.path.getsize(path)
        return out
    return wrapped


def install(rec):
    """Wrap cutterkit's public functions so that every call records a span."""
    from cutterkit import (cli, configio, diagnostics, engine, geometry,
                           operators, svg)

    for cls in (geometry.Hyperplane, geometry.HalfSpace, geometry.AffineSubspace,
                geometry.Ball, geometry.Box, geometry.ConvexSet):
        if "project" in vars(cls):
            cls.project = _rows_method(rec, "geometry.project", vars(cls)["project"])
        if "distance" in vars(cls):
            cls.distance = _rows_method(rec, "geometry.distance", vars(cls)["distance"])
    cli.intersect_affine = _plain(rec, "geometry.intersect_affine",
                                  geometry.intersect_affine)
    operators.Operator.__call__ = _rows_method(rec, "operators.call",
                                               operators.Operator.__call__)
    for name in ENGINE:
        wrapped = _engine(rec, f"engine.{name}", getattr(engine, name))
        setattr(engine, name, wrapped)
        if hasattr(cli, name):
            setattr(cli, name, wrapped)
    for name in PROBES:
        setattr(diagnostics, name, _probe(rec, f"diagnostics.{name}",
                                          getattr(diagnostics, name)))
    diagnostics.sample_ball = _plain(rec, "diagnostics.sample_ball",
                                     diagnostics.sample_ball)
    configio.load_config = _plain(rec, "configio.load_config", configio.load_config)
    configio.parse_config = _plain(rec, "configio.parse_config", configio.parse_config)
    configio.write_trace_csv = _sized(rec, "configio.write_trace_csv",
                                      configio.write_trace_csv,
                                      lambda args: args[1].iterates.shape[0])
    emit = _sized(rec, "svg.emit_svg", svg.emit_svg, lambda args: 1)
    svg.emit_svg = emit
    cli.emit_svg = emit
    cli.main = _plain(rec, "cli.main", cli.main)
    # main looks the commands up at call time; their spans tell verify's
    # engine runs from run's
    cli.cmd_verify = _plain(rec, "cli.cmd_verify", cli.cmd_verify)
    cli.cmd_run = _plain(rec, "cli.cmd_run", cli.cmd_run)


def layer_metrics(rec):
    """Per-layer metrics of the spans recorded (one round of the task list)."""
    n = len(rec)
    names = np.array(rec.names)
    layers = np.array([s.split(".", 1)[0] for s in names])
    nid = np.asarray(rec.name, dtype=np.int64)
    label, layer = names[nid], layers[nid]
    parent = np.asarray(rec.parent, dtype=np.int64)
    dur = np.asarray(rec.end) - np.asarray(rec.start)
    rows = np.asarray(rec.rows, dtype=float)
    extra = np.asarray(rec.extra, dtype=float)
    has = parent >= 0
    self_t = dur - np.bincount(parent[has], weights=dur[has], minlength=n)
    parent_label = np.where(has, label[np.where(has, parent, 0)], "")

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    def self_ms(name):
        return float(self_t[layer == name].sum() * 1e3)

    proj = label == "geometry.project"
    single = proj & (extra == 0)
    batch = proj & (extra == 1)
    ops = label == "operators.call"
    eng = layer == "engine"
    base = np.isin(label, BASELINES) & (parent_label == "cli.cmd_verify")
    probe_names = [f"diagnostics.{p}" for p in PROBES]
    probe = np.isin(label, probe_names)
    csv = label == "configio.write_trace_csv"
    svgs = (label == "svg.emit_svg") & (rows > 0)
    ops_single = ops & (extra == 0)
    fallback = ops_single & np.isin(parent_label, probe_names)
    return {
        "geometry.project_calls": (float(proj.sum()), "count"),
        "geometry.project_rows": (float(rows[proj].sum()), "count"),
        "geometry.self_ms": (self_ms("geometry"), "ms"),
        "geometry.us_per_row_single": (ratio(self_t[single].sum() * 1e6, single.sum()), "us"),
        "geometry.us_per_row_batch": (ratio(self_t[batch].sum() * 1e6, rows[batch].sum()), "us"),
        "operators.calls_single": (float(ops_single.sum()), "count"),
        "operators.calls_batch": (float((ops & (extra == 1)).sum()), "count"),
        "operators.self_ms": (self_ms("operators"), "ms"),
        "engine.runs": (float(eng.sum()), "count"),
        "engine.steps": (float(rows[eng].sum()), "count"),
        "engine.self_ms": (self_ms("engine"), "ms"),
        "engine.us_per_step": (ratio(self_t[eng].sum() * 1e6, rows[eng].sum()), "us"),
        "engine.useful_step_frac": (ratio(extra[eng].sum(), rows[eng].sum()), "ratio"),
        "engine.verify_baseline_useful_step_frac": (ratio(extra[base].sum(), rows[base].sum()), "ratio"),
        "diagnostics.probes": (float(probe.sum()), "count"),
        "diagnostics.samples": (float(rows[probe].sum()), "count"),
        "diagnostics.self_ms": (self_ms("diagnostics"), "ms"),
        "diagnostics.us_per_sample": (ratio(dur[probe].sum() * 1e6, rows[probe].sum()), "us"),
        "diagnostics.row_fallbacks": (float(fallback.sum()), "count"),
        "configio.load_ms": (float(dur[label == "configio.load_config"].sum() * 1e3), "ms"),
        "configio.csv_rows": (float(rows[csv].sum()), "count"),
        "configio.csv_bytes": (float(extra[csv].sum()), "bytes"),
        "configio.csv_us_per_row": (ratio(dur[csv].sum() * 1e6, rows[csv].sum()), "us"),
        "svg.files": (float(svgs.sum()), "count"),
        "svg.bytes": (float(extra[svgs].sum()), "bytes"),
        "svg.self_ms": (self_ms("svg"), "ms"),
        "cli.self_ms": (self_ms("cli"), "ms"),
        "tracing.spans": (float(n), "count"),
    }
