"""Experiment config parsing and CSV trace serialization.

The config is a single JSON document:

    {
      "seed": 0,
      "problem": {
        "sets": [{"type": "hyperplane", "normal": [0, 1], "offset": 0}, ...],
        "intersection": {...}            # optional explicit A n B oracle
      },
      "x0": [1.0, 0.0],
      "iterations": 30,
      "methods": [
        {"name": "map", "driver": "map"},
        {"name": "dr",  "driver": "dr"},
        {"name": "new", "driver": "product", "lambda": 3.0, "mu": 1.0,
         "alpha": 1.0, "epsilon": 1.0}
      ],
      "outputs": {"csv": "outdir", "svg": "outdir", "report": "outdir/report.txt"},
      "probe": {"radius": 2.0, "samples": 2000}   # optional, verify only
    }

Set types: hyperplane {normal, offset}, halfspace {normal, offset},
affine {anchor, basis}, ball {center, radius}, box {lo, hi}.

Method names name the CSV files, so they are unique plain file names.
Product methods apply lambda to the projection onto sets[0] (evaluated
first) and mu to the projection onto sets[1].  A method may override its
operators with explicit specs, e.g.
    "T": {"op": "relax", "lambda": 3, "of": {"op": "projection", "set": 0}}
(ops: projection {set}, relax {lambda, of}, compose {outer, inner},
identity {}); declared lambda/mu are still what the verify probes test,
which makes deliberately mislabeled operators detectable.

CSV schema per trace: columns k, x_0..x_{d-1}, residual, err_norm,
log10_err; the err columns appear only when a solution is known, the
residual cell of the last row is empty (one residual per transition),
and values carry 17 significant digits so parsing recovers floats
exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import Trace
from .errors import ConfigError, UsageError
from .geometry import (AffineSubspace, Ball, Box, ConvexSet, HalfSpace,
                       Hyperplane, as_point)
from .operators import Operator, compose, identity, projection_operator, relax
from .theory import RelaxationPair


def set_from_dict(obj) -> ConvexSet:
    """Build a ConvexSet from its config dictionary."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError(f"set spec must be an object with a 'type' field: {obj!r}")
    kind = obj["type"]
    try:
        if kind == "hyperplane":
            return Hyperplane(obj["normal"], obj["offset"])
        if kind == "halfspace":
            return HalfSpace(obj["normal"], obj["offset"])
        if kind == "affine":
            return AffineSubspace(obj["anchor"], obj.get("basis", ()))
        if kind == "ball":
            return Ball(obj["center"], obj["radius"])
        if kind == "box":
            return Box(obj["lo"], obj["hi"])
    except KeyError as exc:
        raise ConfigError(f"set spec of type {kind!r} lacks field {exc}") from None
    raise ConfigError(f"unknown set type {kind!r}")


def set_to_dict(cset: ConvexSet) -> dict:
    if isinstance(cset, Hyperplane):
        return {"type": "hyperplane", "normal": cset.normal.tolist(),
                "offset": cset.offset}
    if isinstance(cset, HalfSpace):
        return {"type": "halfspace", "normal": cset.normal.tolist(),
                "offset": cset.offset}
    if isinstance(cset, AffineSubspace):
        return {"type": "affine", "anchor": cset.anchor.tolist(),
                "basis": cset.basis.tolist()}
    if isinstance(cset, Ball):
        return {"type": "ball", "center": cset.center.tolist(),
                "radius": cset.radius}
    if isinstance(cset, Box):
        return {"type": "box", "lo": cset.lo.tolist(), "hi": cset.hi.tolist()}
    raise UsageError(f"cannot serialize set of type {type(cset).__name__}")


def operator_from_dict(obj, sets) -> Operator:
    """Build an operator from a projection/relax/compose tree."""
    if not isinstance(obj, dict) or "op" not in obj:
        raise ConfigError(f"operator spec must be an object with an 'op' field: {obj!r}")
    op = obj["op"]
    try:
        if op == "projection":
            return projection_operator(sets[int(obj["set"])])
        if op == "relax":
            return relax(operator_from_dict(obj["of"], sets), float(obj["lambda"]))
        if op == "compose":
            return compose(operator_from_dict(obj["outer"], sets),
                           operator_from_dict(obj["inner"], sets))
        if op == "identity":
            return identity()
    except KeyError as exc:
        raise ConfigError(f"operator spec {op!r} lacks field {exc}") from None
    except IndexError:
        raise ConfigError(f"operator spec references unknown set index "
                          f"{obj.get('set')}") from None
    raise ConfigError(f"unknown operator spec {op!r}")


@dataclass
class MethodSpec:
    name: str
    driver: str                       # map | dr | product
    pair: RelaxationPair | None = None  # product methods only
    alpha: object = 1.0               # a float or a list of floats
    epsilon: float | None = None
    t_spec: dict | None = None
    u_spec: dict | None = None


@dataclass
class ExperimentConfig:
    sets: list
    x0: np.ndarray
    iterations: int
    methods: list
    intersection: ConvexSet | None = None
    outputs: dict = field(default_factory=dict)
    seed: int = 0
    probe_radius: float = 2.0
    probe_samples: int = 2000


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing field {key!r} in {where}")
    return obj[key]


def _number(value, where: str, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: {key} must be a number, got {value!r}") from None


def _method_name(m: dict, where: str, seen: set) -> str:
    """A method name is a CSV file stem: no path parts, no duplicates."""
    name = str(_require(m, "name", where))
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"{where}: method name {name!r} is not a plain file name")
    if name in seen:
        raise ConfigError(f"{where}: duplicate method name {name!r}")
    seen.add(name)
    return name


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig.

    Structural problems (missing or non-numeric fields, method names
    that are not plain file names or repeat) raise ConfigError; violated
    hypotheses (empty methods, lambda*mu >= 4 on a product entry,
    dimension mismatches) raise UsageError.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    problem = _require(doc, "problem", "config")
    raw_sets = _require(problem, "sets", "problem")
    if not isinstance(raw_sets, list) or len(raw_sets) < 2:
        raise UsageError("problem.sets must list at least two sets")
    sets = [set_from_dict(s) for s in raw_sets]
    x0 = as_point(_require(doc, "x0", "config"))
    for i, s in enumerate(sets):
        if s.dim != x0.size:
            raise UsageError(
                f"dimension mismatch: sets[{i}] is {s.dim}-dimensional, "
                f"x0 has {x0.size} coordinates"
            )
    iterations = int(_require(doc, "iterations", "config"))
    if iterations < 1:
        raise UsageError("iterations must be >= 1")
    intersection = None
    if problem.get("intersection") is not None:
        intersection = set_from_dict(problem["intersection"])

    raw_methods = _require(doc, "methods", "config")
    if not isinstance(raw_methods, list):
        raise ConfigError("methods must be a list")
    if not raw_methods:
        raise UsageError("methods list is empty")
    methods = []
    seen: set = set()
    for i, m in enumerate(raw_methods):
        where = f"methods[{i}]"
        name = _method_name(m, where, seen)
        driver = str(_require(m, "driver", where))
        if driver not in ("map", "dr", "product"):
            raise ConfigError(f"{where}: unknown driver {driver!r}")
        spec = MethodSpec(name=name, driver=driver)
        if driver == "product":
            lam = _number(_require(m, "lambda", where), where, "lambda")
            mu = _number(_require(m, "mu", where), where, "mu")
            try:
                spec.pair = RelaxationPair(lam, mu)
            except UsageError as exc:
                raise UsageError(f"{where}: {exc}") from None
            alpha = m.get("alpha", 1.0)
            if isinstance(alpha, list):
                if not alpha:
                    raise ConfigError(f"{where}: alpha list is empty")
                spec.alpha = [_number(a, where, "alpha") for a in alpha]
            else:
                spec.alpha = _number(alpha, where, "alpha")
            eps = m.get("epsilon")
            if eps is None:
                # widest admissible window around the configured steps
                avals = np.atleast_1d(spec.alpha)
                eps = min(float(avals.min()), 2.0 - float(avals.max()))
            spec.epsilon = _number(eps, where, "epsilon")
            spec.t_spec = m.get("T")
            spec.u_spec = m.get("U")
        methods.append(spec)

    outputs = doc.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("outputs must be an object")
    probe = doc.get("probe", {})
    return ExperimentConfig(
        sets=sets,
        x0=x0,
        iterations=iterations,
        methods=methods,
        intersection=intersection,
        outputs=outputs,
        seed=int(doc.get("seed", 0)),
        probe_radius=float(probe.get("radius", 2.0)),
        probe_samples=int(probe.get("samples", 2000)),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    return parse_config(doc)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _log10_cell(e: float) -> str:
    return _fmt(math.log10(e) if e > 0 else -math.inf)


def _write_lines(path: str, lines) -> None:
    """Write text lines, each ending in a newline, as UTF-8."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_csv(path: str, trace: Trace) -> None:
    """Write a trace in the canonical CSV schema (17 significant digits)."""
    n, d = trace.iterates.shape
    with_err = trace.solution_errors is not None
    cols = ["k"] + [f"x_{j}" for j in range(d)] + ["residual"]
    if with_err:
        cols += ["err_norm", "log10_err"]
    lines = [",".join(cols)]
    for k in range(n):
        row = [str(k)] + [_fmt(v) for v in trace.iterates[k]]
        row.append(_fmt(trace.residuals[k]) if k < len(trace.residuals) else "")
        if with_err:
            e = trace.solution_errors[k]
            row.append(_fmt(e))
            row.append(_log10_cell(e))
        lines.append(",".join(row))
    _write_lines(path, lines)


def read_trace_csv(path: str) -> Trace:
    """Parse a canonical trace CSV back into a Trace (exact float recovery)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    d = sum(1 for c in header if c.startswith("x_"))
    with_err = "err_norm" in header
    iterates, residuals, errors = [], [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        iterates.append([float(c) for c in cells[1:1 + d]])
        res = cells[1 + d]
        if res != "":
            residuals.append(float(res))
        if with_err:
            errors.append(float(cells[2 + d]))
    return Trace(
        iterates=np.array(iterates, dtype=float),
        residuals=residuals,
        step_sizes=[],
        solution_errors=errors if with_err else None,
    )
