import math

import numpy as np
import pytest

from cutterkit import (AffineSubspace, Ball, Box, ConfigError, HalfSpace,
                       Hyperplane, Trace, UsageError)
from cutterkit.configio import (load_config, operator_from_dict, parse_config,
                                read_trace_csv, set_from_dict,
                                write_trace_csv)


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
