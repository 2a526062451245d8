import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cutterkit import (AffineSubspace, Ball, Box, ConfigError, HalfSpace,
                       Hyperplane, Trace, UsageError)
from cutterkit.cli import _PAPER
from cutterkit.configio import (_csv_chunks, load_config, operator_from_dict,
                                parse_config, read_trace_csv, set_from_dict,
                                write_trace_csv)
from cutterkit.theory import RelaxationPair, nu


def base_doc():
    return {
        "seed": 3,
        "problem": {
            "sets": [
                {"type": "hyperplane", "normal": [0, 1], "offset": 0},
                {"type": "hyperplane",
                 "normal": [-math.sin(math.pi / 6), math.cos(math.pi / 6)],
                 "offset": 0},
            ]
        },
        "x0": [1.0, 0.0],
        "iterations": 30,
        "methods": [
            {"name": "map", "driver": "map"},
            {"name": "new", "driver": "product", "lambda": 3.0, "mu": 1.0,
             "alpha": 1.0, "epsilon": 1.0},
        ],
        "outputs": {"csv": "out"},
    }


# ---------------------------------------------------------------------------
# set and operator specs

def test_set_round_trip_all_types():
    # each set type from a literal config dict, against the constructor
    cases = [
        ({"type": "hyperplane", "normal": [1, 2], "offset": 0.5},
         Hyperplane([1.0, 2.0], 0.5)),
        ({"type": "halfspace", "normal": [0, -1], "offset": 1},
         HalfSpace([0.0, -1.0], 1.0)),
        ({"type": "affine", "anchor": [0, 1], "basis": [[1, 0]]},
         AffineSubspace([0.0, 1.0], [[1.0, 0.0]])),
        ({"type": "ball", "center": [0.5, 0.5], "radius": 2},
         Ball([0.5, 0.5], 2.0)),
        ({"type": "box", "lo": [-1, -1], "hi": [1, 1]},
         Box([-1.0, -1.0], [1.0, 1.0])),
    ]
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 2))
    for spec, cset in cases:
        built = set_from_dict(spec)
        assert type(built) is type(cset)
        assert repr(built) == repr(cset)
        assert built.project(pts).tobytes() == cset.project(pts).tobytes()


def test_set_from_dict_errors():
    with pytest.raises(ConfigError):
        set_from_dict({"type": "simplex"})
    with pytest.raises(ConfigError):
        set_from_dict({"type": "ball", "center": [0, 0]})  # missing radius
    with pytest.raises(ConfigError):
        set_from_dict(["not", "a", "dict"])


def test_operator_from_dict_tree():
    sets = [Hyperplane([0.0, 1.0], 0.0), Hyperplane([1.0, 0.0], 0.0)]
    spec = {"op": "compose",
            "outer": {"op": "projection", "set": 1},
            "inner": {"op": "relax", "lambda": 3,
                      "of": {"op": "projection", "set": 0}}}
    op = operator_from_dict(spec, sets)
    got = op(np.array([1.0, 1.0]))
    # (P_A)_3 (1,1) = (1,-2), then project onto x = 0
    assert np.allclose(got, [0.0, -2.0], atol=1e-14)
    with pytest.raises(ConfigError):
        operator_from_dict({"op": "projection", "set": 5}, sets)
    with pytest.raises(ConfigError):
        operator_from_dict({"op": "warp"}, sets)


# ---------------------------------------------------------------------------
# config validation

def test_parse_config_happy_path():
    cfg = parse_config(base_doc())
    assert len(cfg.sets) == 2 and cfg.iterations == 30 and cfg.seed == 3
    assert cfg.methods[1].pair.lam == 3.0 and cfg.methods[1].epsilon == 1.0


def test_every_method_leaves_the_parser_with_its_nu_and_epsilon():
    # map is the (1, 1) product with alpha = nu(1, 1) = 4/3; dr's
    # (P_B)_2 (P_A)_2 is a 2-relaxed cutter; (3, 1) gives nu = 4
    cfg = parse_config(_PAPER)
    assert [(m.name, m.nu, m.epsilon) for m in cfg.methods] == [
        ("map", 1.3333333333333333, 0.6666666666666667), ("dr", 2.0, 1.0),
        ("new", 4.0, 1.0)]
    doc = base_doc()
    doc["methods"] = [{"name": "p", "driver": "product", "lambda": 2.5,
                       "mu": 1.2, "alpha": [1.0, 1.2, 0.8, 1.1]}]
    (method,) = parse_config(doc).methods
    assert (method.nu, method.epsilon) == (nu(RelaxationPair(2.5, 1.2)), 0.8)


def test_parse_config_validation_errors():
    doc = base_doc()
    doc["methods"] = []
    with pytest.raises(UsageError):
        parse_config(doc)
    doc = base_doc()
    doc["methods"] = [{"name": "x", "driver": "product", "lambda": 2.0, "mu": 2.0}]
    with pytest.raises(UsageError, match="lambda\\*mu must be < 4"):
        parse_config(doc)
    doc = base_doc()
    doc["x0"] = [1.0, 0.0, 0.0]
    with pytest.raises(UsageError, match="dimension mismatch"):
        parse_config(doc)


def test_parse_config_structural_errors():
    doc = base_doc()
    del doc["iterations"]
    with pytest.raises(ConfigError, match="iterations"):
        parse_config(doc)
    doc = base_doc()
    doc["methods"] = [{"name": "x", "driver": "banana"}]
    with pytest.raises(ConfigError, match="driver"):
        parse_config(doc)


def test_load_config_reports_line_and_column(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "problem": [,\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(p))


# ---------------------------------------------------------------------------
# CSV round trip

def test_trace_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    iterates = rng.standard_normal((7, 3)) * math.pi
    residuals = list(np.abs(rng.standard_normal(6)))
    errors = list(np.abs(rng.standard_normal(7)))
    errors[3] = 0.0  # exercises log10(0) -> -inf
    tr = Trace(iterates=iterates, residuals=residuals,
               step_sizes=[0.25] * 6, solution_errors=errors)
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), tr)
    back = read_trace_csv(str(path))
    assert np.array_equal(back.iterates, iterates)
    assert back.residuals == residuals
    assert back.solution_errors == errors
    text = path.read_text()
    assert text.splitlines()[0] == "k,x_0,x_1,x_2,residual,err_norm,log10_err"
    assert "-inf" in text
    # residual column empty on the final row
    assert text.splitlines()[-1].split(",")[4] == ""


def test_trace_csv_without_solution(tmp_path):
    tr = Trace(iterates=np.zeros((3, 2)), residuals=[0.0, 0.0],
               step_sizes=[1.0, 1.0])
    path = tmp_path / "t.csv"
    write_trace_csv(str(path), tr)
    back = read_trace_csv(str(path))
    assert back.solution_errors is None
    assert path.read_text().splitlines()[0] == "k,x_0,x_1,residual"


@pytest.mark.parametrize("residuals, errors, message", [
    ([0.1, 0.2, 0.3], [1.0, 0.5], "4 iterates but 2 solution errors"),
    ([0.1, 0.2, 0.3, 0.4, 0.5], None, "4 iterates but 5 residuals"),
    ([0.1, 0.2], [1.0, 0.5, 0.2, 0.1], "4 iterates but 2 residuals"),
], ids=["short-errors", "extra-residuals", "short-residuals"])
def test_inconsistent_trace_is_not_written(tmp_path, residuals, errors, message):
    tr = Trace(iterates=np.zeros((4, 2)), residuals=residuals,
               step_sizes=[1.0] * len(residuals), solution_errors=errors)
    path = tmp_path / "t.csv"
    with pytest.raises(UsageError, match=message):
        write_trace_csv(str(path), tr)
    assert not path.exists()


# Pinned bytes: a deterministic writer that changed its number format would
# still round-trip, so these literals are what holds the format.
GOLDEN_ITERATES = [[-0.0, 5e-324], [1e308, 0.1], [0.5, -2.25]]
GOLDEN_WITH_ERRORS = (
    b"k,x_0,x_1,residual,err_norm,log10_err\n"
    b"0,-0,4.9406564584124654e-324,0.10000000000000001,0.10000000000000001,-1\n"
    b"1,1e+308,0.10000000000000001,1e+308,4.9406564584124654e-324,"
    b"-323.30621534311581\n"
    b"2,0.5,-2.25,,0,-inf\n"
)
GOLDEN_WITHOUT_ERRORS = (
    b"k,x_0,x_1,residual\n"
    b"0,-0,4.9406564584124654e-324,0.10000000000000001\n"
    b"1,1e+308,0.10000000000000001,1e+308\n"
    b"2,0.5,-2.25,\n"
)


@pytest.mark.parametrize("errors, golden", [
    ([0.1, 5e-324, 0.0], GOLDEN_WITH_ERRORS),
    (None, GOLDEN_WITHOUT_ERRORS),
], ids=["with-errors", "without-errors"])
def test_trace_csv_golden_bytes(tmp_path, errors, golden):
    tr = Trace(iterates=np.array(GOLDEN_ITERATES), residuals=[0.1, 1e308],
               step_sizes=[1.0, 1.0], solution_errors=errors)
    path = tmp_path / "golden.csv"
    write_trace_csv(str(path), tr)
    assert path.read_bytes() == golden


def test_log10_err_of_a_nan_error_is_nan(tmp_path):
    # a NaN error is no exact zero: its log10 reads nan, not -inf
    tr = Trace(iterates=np.zeros((3, 1)), residuals=[0.5, 0.25],
               step_sizes=[1.0, 1.0], solution_errors=[0.5, math.nan, 0.0])
    path = tmp_path / "t.csv"
    write_trace_csv(str(path), tr)
    assert path.read_text().splitlines()[1:] == [
        "0,0,0.5,0.5,-0.3010299956639812",
        "1,0,0.25,nan,nan",
        "2,0,,0,-inf",
    ]


# ---------------------------------------------------------------------------
# The array formatter against "%.17g"

def reference_lines(rows) -> list:
    """CSV lines of float rows, one "%.17g" per cell."""
    return [",".join("%.17g" % x for x in row) for row in rows]


def formatted(table) -> list:
    """The lines _csv_chunks writes for the columns of a float table (as a
    list: pytest's diff of two long texts takes minutes)."""
    chunks = _csv_chunks(["c"] * table.shape[1], list(table.T))
    assert next(chunks) == (",".join(["c"] * table.shape[1]) + "\n").encode()
    text = b"".join(chunks).decode()
    assert text.endswith("\n")
    return text.split("\n")[:-1]


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
              elements=st.floats(width=64)))
def test_formatted_cells_are_the_bytes_of_percent_17g(table):
    # nan, +-inf, +-0 and subnormals included: they take "%.17g" itself
    assert formatted(table) == reference_lines(table.tolist())


def boundary_values():
    rng = np.random.default_rng(22)
    tens = np.array([float(f"1e{p}") for p in range(-7, 19)])
    # exact ties at the 17th digit round half-even
    quarters = rng.integers(4 * 10**15, 4 * 10**16, 2000) / 4.0
    ties = np.concatenate([quarters, quarters * 1e-16, quarters * 1e-21])
    # where k leaves [-4, 16] and the kernel's [-6, 16]
    edges = np.array([1e-4, 1e-5, 1e-6, 1e-7, 1e16, 1e17, 9.9999999999999995e-7,
                      0.000099999999999999991, 99999999999999984.0])
    spread = 10.0 ** rng.uniform(-8, 19, 4000)
    values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                             ties, edges, np.nextafter(edges, 0),
                             np.nextafter(edges, np.inf), spread,
                             [5e-324, 1.7976931348623157e308]])
    return np.concatenate([values, -values])


def test_formatted_boundary_values_are_the_bytes_of_percent_17g():
    values = boundary_values()
    table = values.reshape(-1, 2)
    assert formatted(table) == reference_lines(table.tolist())
    # one column of many rows: several blocks
    assert formatted(values[:, None]) == reference_lines(values[:, None].tolist())


def reference_trace_csv(trace) -> bytes:
    """The writer's bytes as one %-template per row formatted them."""
    n, d = trace.iterates.shape
    cols = ["k"] + [f"x_{j}" for j in range(d)] + ["residual"]
    row = ",".join(["%d"] + ["%.17g"] * d + ["%s"])
    res = ["%.17g" % r for r in trace.residuals]
    rows = zip(range(n), trace.iterates.tolist(), res + [""])
    if trace.solution_errors is None:
        body = [row % (k, *x, r) for k, x, r in rows]
    else:
        cols += ["err_norm", "log10_err"]
        row += ",%.17g,%.17g"
        body = [row % (k, *x, r, e, math.log10(e) if e > 0 else -math.inf)
                for (k, x, r), e in zip(rows, trace.solution_errors)]
    return ("\n".join([",".join(cols)] + body) + "\n").encode()


def seeded_trace(n, d, errors, seed=7):
    """Iterates of every magnitude, zeros and -0.0 among them; residuals
    and errors that decay past 1e-6 to zero."""
    rng = np.random.default_rng(seed)
    iterates = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-9, 18, (n, d))
    iterates[rng.random((n, d)) < 0.02] = 0.0
    iterates[rng.random((n, d)) < 0.02] = -0.0
    decay = 0.7 ** np.arange(n)
    residuals = (decay[:-1] * rng.random(n - 1)).tolist()
    errs = (decay * rng.random(n)).tolist() if errors else None
    if errors:
        errs[-1] = 0.0
    return Trace(iterates=iterates, residuals=residuals,
                 step_sizes=[1.0] * (n - 1), solution_errors=errs)


@pytest.mark.parametrize("n, d, errors", [(201, 50, True), (101, 12, False),
                                          (1001, 2, True)])
def test_trace_csv_equals_the_per_row_template(tmp_path, n, d, errors):
    tr = seeded_trace(n, d, errors)
    path = tmp_path / "t.csv"
    write_trace_csv(str(path), tr)
    assert path.read_bytes().split(b"\n") == reference_trace_csv(tr).split(b"\n")


def test_trace_csv_peaks_below_the_size_of_its_file(tmp_path):
    # rows are formatted and written block by block; formatted whole, a
    # (2001, 50) trace held 10.1 MB against its 2.15 MB file
    rng = np.random.default_rng(11)
    tr = Trace(iterates=rng.standard_normal((2001, 50)),
               residuals=np.abs(rng.standard_normal(2000)).tolist(),
               step_sizes=[1.0] * 2000,
               solution_errors=np.abs(rng.standard_normal(2001)).tolist())
    path = tmp_path / "t.csv"
    write_trace_csv(str(path), tr)  # lazy imports
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_trace_csv(str(path), tr)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
