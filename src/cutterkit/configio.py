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
      "outputs": {"csv": "outdir", "svg": "outdir", "report": "outdir/report.txt",
                  "probes": "outdir/probes.txt"},  # report: run's; probes: verify's
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

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .engine import Trace, _count
from .errors import ConfigError, UsageError
from .geometry import (AffineSubspace, Ball, Box, ConvexSet, HalfSpace,
                       Hyperplane, _checked, _row_blocks, as_point)
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
    if op == "projection":
        index = _field(obj, "set", where, _integer)
        if not 0 <= index < len(sets):
            raise ConfigError(f"{where} references unknown set index {index}")
        return projection_operator(sets[index])
    if op == "relax":
        return relax(operator_from_dict(_field(obj, "of", where, None), sets),
                     _field(obj, "lambda", where))
    if op == "compose":
        return compose(operator_from_dict(_field(obj, "outer", where, None), sets),
                       operator_from_dict(_field(obj, "inner", where, None), sets))
    if op == "identity":
        return identity()
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
    outputs: dict = field(default_factory=dict)  # resolved paths: see parse_config
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


def _vector(value) -> np.ndarray:
    return np.asarray(_numeric(value), dtype=float)


_integer = functools.partial(_count, least=-math.inf)  # engine's rule, any sign


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
    dimension mismatches, a report or probes path naming another output
    file) raise UsageError.  outputs holds every file the config names.
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
        _checked(x0, s.dim, f"sets[{i}]")
    iterations = _field(doc, "iterations", "config", _integer)
    if iterations < 1:
        raise UsageError("iterations must be >= 1")
    intersection = None
    if problem.get("intersection") is not None:
        intersection = set_from_dict(problem["intersection"])
        _checked(x0, intersection.dim, "problem.intersection")

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
    for key in ("csv", "svg", "report", "probes"):
        if not isinstance(outputs.get(key, ""), str):
            raise ConfigError(f"outputs: {key} must be a path, got {outputs[key]!r}")
    csv, svg = outputs.get("csv", "out"), outputs.get("svg")
    files = {"csv": [os.path.join(csv, f"{m.name}.csv") for m in methods],
             "svg": [os.path.join(svg, f"{kind}.svg")
                     for kind in ("trajectories", "errors")] if svg else [],
             "report": outputs.get("report", os.path.join(csv, "report.txt")),
             "probes": outputs.get("probes")}
    seen = {os.path.abspath(path): path for path in files["csv"] + files["svg"]}
    for key in ("report", "probes"):  # neither may replace another named file
        path = files[key] and os.path.abspath(files[key])
        if path in seen:
            raise UsageError(f"outputs.{key} {files[key]} is also the run's output "
                             f"{seen[path]}")
        seen[path] = files[key]
    probe = doc.get("probe", {})
    return ExperimentConfig(
        sets=sets,
        x0=x0,
        iterations=iterations,
        methods=methods,
        intersection=intersection,
        outputs=files,
        seed=_field(doc, "seed", "config", _integer, 0),
        probe_radius=_field(probe, "radius", "probe", _float, 2.0),
        probe_samples=_field(probe, "samples", "probe", _integer, 2000),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: JSON parse error at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except RecursionError:  # json.load's or parse_config's, past the limit
        raise ConfigError(f"{path}: nested too deeply to parse") from None


def _log10(errors) -> list:
    """math.log10 of each error (np.log10 may differ in the last ulp):
    -inf for a zero error, nan for a NaN one."""
    return [math.log10(e) if e > 0 else -math.inf if e == 0 else math.nan
            for e in errors]


# The exact 17-digit cell kernel (_row_bytes).  A finite x with |x| in
# [1e-6, 1e17) has a decimal exponent k in [-6, 16], and |x| * 10**(16 - k)
# is exactly hi + lo: 10**p is a double for p <= 22, and Dekker's split
# product (1971) loses nothing, FMA or not.  Rounded half-even, hi + lo is
# the 17-digit significand "%.17g" prints.  Every other cell (0, inf, nan,
# subnormals, the rest of the range, and the double nearest 1e-6, whose k
# is -7) is "%.17g" itself, one at a time.
_POW10 = np.array([float(10 ** p) for p in range(23)])


def _split(a):
    """Veltkamp's split: a = hi + lo, each with at most 26 significant
    bits, so that products of halves are exact."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# "00".."99", two characters to a uint16
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)

# A cell's bytes: 0 the sign; 1-5 "0.", "0.0", .. "0.000" of k in [-4, -1];
# significand digit i at 6 + 2i and a point slot after it at 7 + 2i;
# 39-42 "e-05" or "e-06"; 43 the separator.  NUL fills unused slots, and
# the writer drops it.
_CELL = 44


@functools.cache  # at the first CSV: a process that writes none never builds it
def _layouts() -> np.ndarray:
    """Cell templates by (k + 6, j, sign), j the last nonzero digit of the
    significand: the sign, prefix, point and exponent bytes, and 0xff in
    each digit slot shown, NUL in the trailing zeros stripped.  Read-only."""
    k = np.arange(-6, 17)[:, None, None]
    j = np.arange(17)[None, :, None]
    i = np.arange(17)
    t = np.zeros((23, 17, 2, _CELL), np.uint8)
    t[..., 1, 0] = ord("-")
    for e in range(1, 5):
        t[6 - e, ..., 1:e + 2] = np.frombuffer(b"0." + b"0" * (e - 1), np.uint8)
    last = np.where(k >= 0, np.maximum(j, k), j)  # integer digits stay
    t[..., 6:39:2] = ((i <= last) * np.uint8(0xFF))[:, :, None]
    after = np.maximum(k, 0)  # the digit the point follows
    point = (j > after) & ((k >= 0) | (k < -4)) & (i[:16] == after)
    t[..., 7:39:2] = (point * np.uint8(ord(".")))[:, :, None]
    t[0, ..., 39:43] = np.frombuffer(b"e-06", np.uint8)
    t[1, ..., 39:43] = np.frombuffer(b"e-05", np.uint8)
    t = t.reshape(-1, _CELL)
    t.setflags(write=False)
    return t


def _scaled(a, k):
    """a * 10**(16 - k) as the exact sum hi + lo."""
    p = 16 - k
    hi = a * _POW10.take(p)
    ah, al = _split(a)
    ch, cl = _POW10_HI.take(p), _POW10_LO.take(p)
    return hi, ((ah * ch - hi) + ah * cl + al * ch) + al * cl


def _significands(v):
    """(exact, k, n) of v, a (m,) float64 array: where the kernel applies
    and, there, each value's decimal exponent and 17-digit significand."""
    a = np.abs(v)
    exact = (a >= 1e-6) & (a < 1e17)
    a[~exact] = 1.0
    k = np.clip(np.floor(np.log10(a)).astype(np.int64), -6, 16)
    hi, lo = _scaled(a, k)
    # log10 may put k one off: move it to bring hi + lo into [1e16, 1e17)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(low | high)
    if off.size:
        moved = k[off] + np.where(high[off], 1, -1)
        k[off] = np.clip(moved, -6, 16)
        exact[off] &= k[off] == moved
        hi[off], lo[off] = _scaled(a[off], k[off])
    # hi is an even integer (hi >= 2**53), so rint's half-even on lo is the
    # significand's.  No carry makes 18 digits: in range, the doubles below
    # a power of ten lie over 2**-54 of it below, and a carry needs 5e-18
    return exact, k, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _row_bytes(block, empty) -> bytes:
    """The CSV lines of the rows of block, a float64 table: each cell the
    bytes of "%.17g" of its value, or empty where empty is set."""
    v = block.ravel()
    exact, k, n = _significands(v)
    digits = np.empty((len(v), 18), np.uint8)  # digit i at i + 1
    pairs = digits.view(np.uint16)
    for c in range(8, 0, -1):
        q = n // 100
        pairs[:, c] = _PAIRS.take(n - 100 * q)
        n = q
    digits[:, 1] = n + ord("0")
    last = 16 - np.argmax(digits[:, :0:-1] != ord("0"), axis=1)
    cells = _layouts().take(((k + 6) * 17 + last) * 2 + np.signbit(v), axis=0)
    cells[:, 6:39:2] &= digits[:, 1:]
    rest = np.flatnonzero(~exact)
    if rest.size:
        text = np.array(["%.17g" % x for x in v[rest].tolist()], f"S{_CELL - 1}")
        cells[rest, :-1] = text.view(np.uint8).reshape(-1, _CELL - 1)
    cells = cells.reshape(*block.shape, _CELL)
    cells[..., -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    cells[empty, :-1] = 0
    return cells.tobytes().translate(None, b"\0")


def _csv_chunks(header, columns):
    """The bytes of a CSV file: the header line, then the columns (1-d
    float sequences, or (n, k) arrays of k columns) row by row, every cell
    "%.17g" of its value; a column shorter than the longest leaves its
    last cells empty.  The rows come in blocks whose temporaries together
    stay within geometry._ROW_BLOCK: a value's cell, its bytes and the
    kernel's float64 work come to about three cells."""
    yield (",".join(header) + "\n").encode()
    widths = [c.shape[1] if getattr(c, "ndim", 1) == 2 else 1 for c in columns]
    lengths = np.repeat([len(c) for c in columns], widths)
    table = np.full((lengths.max(), len(lengths)), np.nan)
    for c, k, j in zip(columns, widths, np.cumsum([0] + widths)):
        table[:len(c), j if getattr(c, "ndim", 1) == 1 else slice(j, j + k)] = c
    for rows in _row_blocks(table, 3 * _CELL):
        yield _row_bytes(table[rows], np.arange(len(table))[rows, None] >= lengths)


def _write(path: str, chunks) -> None:
    """Write byte chunks to path as they come, creating the file's
    directory first.  Every file the CLI writes goes through here."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _write_lines(path: str, lines) -> None:
    """Write text lines, each ending in a newline, as UTF-8."""
    _write(path, [("\n".join(lines) + "\n").encode()])


def write_trace_csv(path: str, trace: Trace) -> None:
    """Write a trace in the canonical CSV schema (17 significant digits,
    the bytes of "%.17g").  Raises UsageError unless the trace has one
    residual per transition and, if any, one solution error per iterate."""
    n, d = trace.iterates.shape
    if len(trace.residuals) != n - 1:
        raise UsageError(f"trace has {n} iterates but {len(trace.residuals)} "
                         f"residuals; expected {n - 1}")
    errors = trace.solution_errors
    if errors is not None and len(errors) != n:
        raise UsageError(f"trace has {n} iterates but {len(errors)} solution errors")
    header = ["k"] + [f"x_{j}" for j in range(d)] + ["residual"]
    columns = [range(n), trace.iterates, trace.residuals]
    if errors is not None:
        header += ["err_norm", "log10_err"]
        columns += [errors, _log10(errors)]
    _write(path, _csv_chunks(header, columns))


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
