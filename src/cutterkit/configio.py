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
import os
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
    kind = _field(obj, "type", "set spec", None)
    where = f"{kind!r} set"

    def get(key, convert=_vector):
        return _field(obj, key, where, convert)

    if kind == "hyperplane":
        return Hyperplane(get("normal"), get("offset", _float))
    if kind == "halfspace":
        return HalfSpace(get("normal"), get("offset", _float))
    if kind == "affine":
        basis = _field(obj, "basis", where, _vector, ())
        if basis.size and basis.ndim != 2:
            raise ConfigError(f"{where}: basis must be a list of vectors")
        return AffineSubspace(get("anchor"), basis)
    if kind == "ball":
        return Ball(get("center"), get("radius", _float))
    if kind == "box":
        return Box(get("lo"), get("hi"))
    raise ConfigError(f"unknown set type {kind!r}")


def operator_from_dict(obj, sets) -> Operator:
    """Build an operator from a projection/relax/compose tree."""
    op = _field(obj, "op", "operator spec", None)
    where = f"operator spec {op!r}"
    try:
        if op == "projection":
            index = _field(obj, "set", where, _integer)
            if not 0 <= index < len(sets):
                raise ConfigError(f"{where} references unknown set index {index}")
            return projection_operator(sets[index])
        if op == "relax":
            return relax(operator_from_dict(obj["of"], sets),
                         _field(obj, "lambda", where))
        if op == "compose":
            return compose(operator_from_dict(obj["outer"], sets),
                           operator_from_dict(obj["inner"], sets))
        if op == "identity":
            return identity()
    except KeyError as exc:
        raise ConfigError(f"{where} lacks field {exc}") from None
    raise ConfigError(f"unknown operator spec {op!r}")


@dataclass
class MethodSpec:
    name: str
    driver: str                       # map | dr | product
    pair: RelaxationPair | None = None  # product methods only
    alpha: object = 1.0               # a float or a list of floats
    epsilon: float | None = None
    t: Operator | None = None         # T and U of a product method
    u: Operator | None = None


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


def _numeric(value):
    """A JSON value, if neither it nor an item of its nested lists is a
    string or a boolean: float() and np.asarray would read "3" and true as
    numbers.  A list is tested by the set of its item types."""
    kinds = set(map(type, value)) if type(value) is list else {type(value)}
    if kinds & {str, bool}:
        raise TypeError(f"{value!r} is not a number or a list of numbers")
    if list in kinds:
        for item in value:
            _numeric(item)
    return value


def _float(value) -> float:
    return float(_numeric(value))


def _integer(value) -> int:
    """int(value) for an integral number: 3 and 3.0 pass, 3.7 does not."""
    value = _numeric(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not integral")
    return int(value)


def _vector(value) -> np.ndarray:
    return np.asarray(_numeric(value), dtype=float)


_KINDS = {_float: "a number", _integer: "an integer"}


def _field(obj, key: str, where: str, convert=_float, default=None):
    """convert(obj[key]), or convert(default) when obj lacks key and a
    default is given (convert None: the value as it is).  A non-object
    obj, a missing key or a value convert rejects is a ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    if key not in obj and default is None:
        raise ConfigError(f"missing field {key!r} in {where}")
    value = obj.get(key, default)
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        what = _KINDS.get(convert, "a number or a list of numbers")
        raise ConfigError(f"{where}: {key} must be {what}, got {value!r}") from None


def _method_name(m: dict, where: str, seen: set) -> str:
    """A method name is a CSV file stem: no path parts, no duplicates."""
    name = _field(m, "name", where, str)
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(f"{where}: method name {name!r} is not a plain file name")
    if name in seen:
        raise ConfigError(f"{where}: duplicate method name {name!r}")
    seen.add(name)
    return name


def _operator(spec, cset: ConvexSet, lam: float, sets) -> Operator:
    """A product factor: its explicit spec, else lam-relaxed P_cset."""
    if spec is not None:
        return operator_from_dict(spec, sets)
    return relax(projection_operator(cset), lam)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig.

    Structural problems (missing or non-numeric fields, method names
    that are not plain file names or repeat) raise ConfigError; violated
    hypotheses (empty methods, lambda*mu >= 4 on a product entry,
    dimension mismatches) raise UsageError.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    problem = _field(doc, "problem", "config", None)
    raw_sets = _field(problem, "sets", "problem", None)
    if not isinstance(raw_sets, list) or len(raw_sets) < 2:
        raise UsageError("problem.sets must list at least two sets")
    sets = [set_from_dict(s) for s in raw_sets]
    x0 = as_point(_field(doc, "x0", "config", _vector))
    for i, s in enumerate(sets):
        if s.dim != x0.size:
            raise UsageError(
                f"dimension mismatch: sets[{i}] is {s.dim}-dimensional, "
                f"x0 has {x0.size} coordinates"
            )
    iterations = _field(doc, "iterations", "config", _integer)
    if iterations < 1:
        raise UsageError("iterations must be >= 1")
    intersection = None
    if problem.get("intersection") is not None:
        intersection = set_from_dict(problem["intersection"])

    raw_methods = _field(doc, "methods", "config", None)
    if not isinstance(raw_methods, list):
        raise ConfigError("methods must be a list")
    if not raw_methods:
        raise UsageError("methods list is empty")
    methods = []
    seen: set = set()
    for i, m in enumerate(raw_methods):
        where = f"methods[{i}]"
        name = _method_name(m, where, seen)
        driver = _field(m, "driver", where, str)
        if driver not in ("map", "dr", "product"):
            raise ConfigError(f"{where}: unknown driver {driver!r}")
        spec = MethodSpec(name=name, driver=driver)
        if driver == "product":
            try:
                spec.pair = RelaxationPair(_field(m, "lambda", where),
                                           _field(m, "mu", where))
            except UsageError as exc:
                raise UsageError(f"{where}: {exc}") from None
            alpha = _field(m, "alpha", where, _vector, 1.0)
            if alpha.ndim > 1 or alpha.size == 0 or not np.all(np.isfinite(alpha)):
                raise ConfigError(f"{where}: alpha must be a finite number or "
                                  f"a non-empty list of them, got {m['alpha']!r}")
            spec.alpha = alpha.tolist() if alpha.ndim else float(alpha)
            if m.get("epsilon") is None:
                # widest admissible window around the configured steps
                spec.epsilon = min(float(alpha.min()), 2.0 - float(alpha.max()))
            else:
                spec.epsilon = _field(m, "epsilon", where)
            spec.t = _operator(m.get("T"), sets[0], spec.pair.lam, sets)
            spec.u = _operator(m.get("U"), sets[1], spec.pair.mu, sets)
        methods.append(spec)

    outputs = doc.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigError("outputs must be an object")
    for key in ("csv", "svg", "report"):
        if not isinstance(outputs.get(key, ""), str):
            raise ConfigError(f"outputs: {key} must be a path, got {outputs[key]!r}")
    probe = doc.get("probe", {})
    return ExperimentConfig(
        sets=sets,
        x0=x0,
        iterations=iterations,
        methods=methods,
        intersection=intersection,
        outputs=outputs,
        seed=_field(doc, "seed", "config", _integer, 0),
        probe_radius=_field(probe, "radius", "probe", _float, 2.0),
        probe_samples=_field(probe, "samples", "probe", _integer, 2000),
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


def _log10_cell(e: float) -> str:
    # math.log10, not np.log10: the two may differ in the last ulp
    return "%.17g" % (math.log10(e) if e > 0 else -math.inf)


def _write_lines(path: str, lines) -> None:
    """Write text lines, each ending in a newline, as UTF-8, creating the
    file's directory first.  Every file the CLI writes goes through here."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_csv(path: str, trace: Trace) -> None:
    """Write a trace in the canonical CSV schema (17 significant digits),
    one %-template per row.  Raises UsageError unless the trace has one
    residual per transition and, if any, one solution error per iterate."""
    n, d = trace.iterates.shape
    if len(trace.residuals) != n - 1:
        raise UsageError(f"trace has {n} iterates but {len(trace.residuals)} "
                         f"residuals; expected {n - 1}")
    if trace.solution_errors is not None and len(trace.solution_errors) != n:
        raise UsageError(f"trace has {n} iterates but "
                         f"{len(trace.solution_errors)} solution errors")
    cols = ["k"] + [f"x_{j}" for j in range(d)] + ["residual"]
    row = ",".join(["%d"] + ["%.17g"] * d + ["%s"])
    res = ["%.17g" % r for r in trace.residuals]
    rows = zip(range(n), trace.iterates.tolist(), res + [""])
    if trace.solution_errors is None:
        body = [row % (k, *x, r) for k, x, r in rows]
    else:
        cols += ["err_norm", "log10_err"]
        row += ",%.17g,%s"
        body = [row % (k, *x, r, e, _log10_cell(e))
                for (k, x, r), e in zip(rows, trace.solution_errors)]
    _write_lines(path, [",".join(cols)] + body)


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
