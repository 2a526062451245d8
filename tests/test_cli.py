import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cutterkit import diagnostics
from cutterkit.cli import main
from cutterkit.geometry import AffineSubspace
from cutterkit.configio import read_trace_csv


def write_config(path, **overrides):
    doc = {
        "seed": 11,
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
            {"name": "dr", "driver": "dr"},
            {"name": "new", "driver": "product", "lambda": 3.0, "mu": 1.0,
             "alpha": 1.0, "epsilon": 1.0},
        ],
        "outputs": {"csv": str(path.parent / "out")},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=1))
    return doc


# ---------------------------------------------------------------------------
# example-paper

def test_example_paper_outputs(tmp_path):
    out = tmp_path / "paper"
    assert main(["example-paper", "--out", str(out)]) == 0
    for name in ("map", "dr", "new", "errors"):
        assert (out / f"{name}.csv").exists()
    for name in ("trajectories", "errors"):
        assert (out / f"{name}.svg").exists()

    new = read_trace_csv(str(out / "new.csv"))
    assert new.iterates.shape == (31, 2)
    assert np.max(np.abs(new.iterates[1]
                         - [15.0 / 16.0, math.sqrt(3) / 16])) < 1e-12
    for name in ("map", "dr"):
        tr = read_trace_csv(str(out / f"{name}.csv"))
        assert np.max(np.abs(tr.iterates[1] - [0.75, math.sqrt(3) / 4])) < 1e-12
    # 31 points per trajectory polyline
    text = (out / "trajectories.svg").read_text()
    counts = [len(p.split()) for p in
              re.findall(r'<polyline points="([^"]*)"', text)]
    assert counts == [31, 31, 31]


def test_paper_traces_log_errors_strictly_decreasing(tmp_path):
    assert main(["example-paper", "--out", str(tmp_path)]) == 0
    for name in ("map", "dr", "new"):
        errs = np.asarray(read_trace_csv(str(tmp_path / f"{name}.csv")).solution_errors)
        assert len(errs) == 31
        assert np.all(np.diff(np.log10(errs)) < 0), name


def test_example_paper_warns_with_the_dr_note_on_dr_alone(tmp_path, capsys):
    # after 5 steps every method is above 1e-2; the 33-step note is DR's
    assert main(["example-paper", "--out", str(tmp_path), "--iters", "5"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "WARNING: map final error 2.740159e-01 >= 1e-2",
        "WARNING: dr final error 4.871393e-01 >= 1e-2 "
        "(DR needs 33 steps to cross 1e-2)",
        "WARNING: new final error 6.215082e-01 >= 1e-2",
    ]


# ---------------------------------------------------------------------------
# run

def test_run_writes_csv_and_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    for name in ("map", "dr", "new"):
        assert (out / f"{name}.csv").exists()
    assert (out / "report.txt").exists()
    tr = read_trace_csv(str(out / "new.csv"))
    # the solution (the origin) is inferred from the affine intersection
    assert tr.solution_errors is not None
    assert tr.solution_errors[-1] < 1e-2


def test_run_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["run", str(cfg)]) == 0
    first = {n: (tmp_path / "out" / f"{n}.csv").read_bytes()
             for n in ("map", "dr", "new")}
    assert main(["run", str(cfg)]) == 0
    second = {n: (tmp_path / "out" / f"{n}.csv").read_bytes()
              for n in ("map", "dr", "new")}
    assert first == second


def test_run_replicating_example_paper_is_byte_identical(tmp_path):
    # by step 1500 MAP has stopped on a zero residual (step 1292)
    for iters in (30, 1500):
        paper_out = tmp_path / f"paper{iters}"
        assert main(["example-paper", "--out", str(paper_out),
                     "--iters", str(iters)]) == 0
        cfg = tmp_path / "cfg.json"
        write_config(cfg, iterations=iters)
        assert main(["run", str(cfg)]) == 0
        for name in ("map", "dr", "new"):
            assert (tmp_path / "out" / f"{name}.csv").read_bytes() == \
                (paper_out / f"{name}.csv").read_bytes(), (iters, name)


def test_run_exit_codes(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"problem": [,}')
    assert main(["run", str(bad)]) == 2

    cfg = tmp_path / "lm4.json"
    write_config(cfg, methods=[{"name": "x", "driver": "product",
                                "lambda": 2.0, "mu": 2.0}])
    assert main(["run", str(cfg)]) == 3

    cfg = tmp_path / "empty.json"
    write_config(cfg, methods=[])
    assert main(["run", str(cfg)]) == 3

    cfg = tmp_path / "baddim.json"
    write_config(cfg, x0=[1.0, 0.0, 0.0])
    assert main(["run", str(cfg)]) == 3

    # output directory path blocked by an existing file -> I/O error
    blocker = tmp_path / "blocker"
    blocker.write_text("file")
    cfg = tmp_path / "io.json"
    write_config(cfg, outputs={"csv": str(blocker / "sub")})
    assert main(["run", str(cfg)]) == 5


PRODUCT = {"driver": "product", "lambda": 3.0, "mu": 1.0, "epsilon": 1.0}


@pytest.mark.parametrize("methods", [
    [{"name": "../../evil", "driver": "map"}],
    [{"name": "twin", "driver": "map"}, {"name": "twin", "driver": "dr"}],
    [dict(PRODUCT, name="new", alpha="1.0x")],
], ids=["path-name", "duplicate-name", "non-numeric-alpha"])
def test_run_rejects_bad_methods_without_writing(tmp_path, methods):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, methods=methods)
    around = sorted(tmp_path.parent.iterdir())
    assert main(["run", str(cfg)]) == 2
    assert sorted(tmp_path.parent.iterdir()) == around
    assert list(tmp_path.iterdir()) == [cfg]


def test_run_creates_the_report_directory(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    report = tmp_path / "rep" / "sub" / "r.txt"
    write_config(cfg, outputs={"csv": str(tmp_path / "out"),
                               "report": str(report)})
    assert main(["run", str(cfg)]) == 0
    assert report.read_text().splitlines() == \
        capsys.readouterr().out.splitlines()


def test_integral_floats_are_accepted_as_integers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    t = dict(RELAX_T, of={"op": "projection", "set": 0.0})
    write_config(cfg, iterations=30.0, seed=11.0, probe={"samples": 100.0},
                 methods=[dict(PRODUCT, name="new", T=t)])
    assert main(["run", str(cfg)]) == 0
    assert "steps=30 " in capsys.readouterr().out
    assert main(["verify", str(cfg)]) == 0
    assert "samples=100 seed=11" in capsys.readouterr().out


def _set_field(doc, path, value):
    """Replace doc[path[0]][path[1]]... by value."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


SET_0 = ("problem", "sets", 0)
RELAX_T = {"op": "relax", "lambda": 3, "of": {"op": "projection", "set": 0}}
MALFORMED = {  # id: (path, value, the field the message names)
    "iterations-overflow": (("iterations",), 1e400, "iterations"),
    "string-seed": (("seed",), "abc", "seed"),
    "string-normal-entry": (SET_0 + ("normal",), ["a", 1], "normal"),
    "string-offset": (SET_0 + ("offset",), "x", "offset"),
    "string-radius": (("problem", "sets", 1),
                      {"type": "ball", "center": [0, 0], "radius": "big"},
                      "radius"),
    "string-x0-entry": (("x0",), ["a", 0], "x0"),
    "non-object-probe": (("probe",), 3, "probe"),
    "string-probe-samples": (("probe",), {"samples": "many"}, "samples"),
    "non-object-method": (("methods", 1), 3, "methods[1]"),
    "string-T-set": (("methods", 2, "T"),
                     dict(RELAX_T, of={"op": "projection", "set": "zero"}),
                     "set"),
    "string-relax-lambda": (("methods", 2, "T"), dict(RELAX_T, **{"lambda": "3x"}),
                            "lambda"),
    "non-string-csv": (("outputs", "csv"), 3, "csv"),
    "fractional-iterations": (("iterations",), 3.7, "iterations"),
    "fractional-seed": (("seed",), 11.5, "seed"),
    "fractional-probe-samples": (("probe",), {"samples": 100.5}, "samples"),
    "fractional-T-set": (("methods", 2, "T"),
                         dict(RELAX_T, of={"op": "projection", "set": 0.5}),
                         "set"),
}


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("path, value, field", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_field_is_a_config_error(tmp_path, capsys, command, path,
                                           value, field):
    cfg = tmp_path / "cfg.json"
    doc = write_config(cfg)
    _set_field(doc, path, value)
    cfg.write_text(json.dumps(doc))
    assert main([command, str(cfg)]) == 2
    assert field in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


# Paper-config fields an arbitrary JSON value may replace.
FIELDS = [
    ("seed",), ("problem",), ("problem", "sets"), SET_0, SET_0 + ("type",),
    SET_0 + ("normal",), ("problem", "sets", 1, "offset"),
    ("problem", "intersection"), ("x0",), ("x0", 0), ("iterations",),
    ("methods",), ("methods", 0), ("methods", 1, "name"), ("methods", 2),
    ("methods", 2, "driver"), ("methods", 2, "lambda"), ("methods", 2, "mu"),
    ("methods", 2, "alpha"), ("methods", 2, "epsilon"), ("methods", 2, "T"),
    ("methods", 2, "U"), ("outputs",), ("outputs", "csv"), ("outputs", "svg"),
    ("outputs", "report"), ("probe",), ("probe", "radius"),
    ("probe", "samples"),
]
# Only small numbers, so that no draw asks for a long run; keys the
# config uses, so that drawn objects reach past the type checks; no "."
# or "/" in strings, so that a drawn path stays inside the work directory.
NUMBERS = st.sampled_from([-1, 0, 0.5, 3, 1e400])
KEYS = st.sampled_from(["type", "normal", "offset", "center", "radius", "op",
                        "set", "of", "lambda", "name", "driver", "samples"])
TEXT = st.text(alphabet="ab01", max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(KEYS | TEXT, inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_any_field_value_ends_in_a_documented_exit_code(tmp_path, path, value):
    # each example works in a fresh directory below tmp_path, which is
    # also where run writes its CSVs when outputs.csv is gone
    work = tempfile.mkdtemp(dir=tmp_path)
    cfg = os.path.join(work, "cfg.json")
    doc = write_config(tmp_path / "base.json", probe={"samples": 200},
                       outputs={"csv": os.path.join(work, "out"),
                                "svg": os.path.join(work, "svg"),
                                "report": os.path.join(work, "report.txt")})
    _set_field(doc, path, value)
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    around = sorted(tmp_path.parent.iterdir())
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for command in ("run", "verify"):
            assert main([command, cfg]) in (0, 2, 3, 4, 5)
    finally:
        os.chdir(cwd)
    assert sorted(tmp_path.parent.iterdir()) == around


# ---------------------------------------------------------------------------
# verify

def test_verify_paper_problem_all_probes_pass(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, outputs={"csv": str(tmp_path / "out"),
                               "report": str(tmp_path / "out/probes.txt")})
    assert main(["verify", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    probe_lines = [ln for ln in lines if ln.startswith("PROBE")]
    assert probe_lines
    for ln in probe_lines:
        assert re.match(r"PROBE \S+ (PASS|SKIP) margin=\S+ samples=\d+ seed=\S+", ln)
    report = (tmp_path / "out/probes.txt").read_text()
    assert "PROBE new.lb1 PASS" in report
    assert "PROBE new.rate PASS" in report


def test_verify_negative_control_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    write_config(cfg, methods=[{
        "name": "corrupt", "driver": "product", "lambda": 1.0, "mu": 1.0,
        "alpha": 1.0, "epsilon": 1.0,
        "T": {"op": "relax", "lambda": 3,
              "of": {"op": "projection", "set": 0}},
    }])
    assert main(["verify", str(cfg)]) == 4
    out = capsys.readouterr().out
    assert "PROBE corrupt.relaxed-cutter.T FAIL" in out


def test_verify_symmetric_pair_reports_lb2_vacuous(tmp_path, capsys):
    cfg = tmp_path / "eq.json"
    write_config(cfg, methods=[{"name": "sym", "driver": "product",
                                "lambda": 1.0, "mu": 1.0,
                                "alpha": 1.0, "epsilon": 1.0}])
    assert main(["verify", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PROBE sym.lb2 SKIP" in out


def test_verify_seed_override_changes_probe_seed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["verify", str(cfg), "--seed", "99"]) == 0
    assert "seed=99" in capsys.readouterr().out


def test_verify_baselines_stop_at_residual_tol(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["verify", str(cfg)]) == 0
    out = capsys.readouterr().out
    # 2 * steps + 1 samples: MAP stops after 77 steps, DR after 162
    assert re.search(r"^PROBE map\.fejer PASS .* samples=155 ", out, re.M)
    assert re.search(r"^PROBE dr\.fejer PASS .* samples=325 ", out, re.M)


PRODUCT_PROBES = ["cutter.PA", "cutter.PB", "relaxed-cutter.T",
                  "relaxed-cutter.U", "demicontraction.T", "demicontraction.U"]
BALL_AND_BOX = {"sets": [{"type": "ball", "center": [0, 0], "radius": 1},
                         {"type": "box", "lo": [0.5, -1], "hi": [2, 1]}]}


@pytest.mark.parametrize("overrides, expected", [
    ({}, [("map.fejer", "PASS"), ("map.fejer-dc", "PASS"),
          ("dr.fejer", "PASS"), ("dr.fejer-dc", "PASS")]
     + [(f"new.{p}", "PASS") for p in PRODUCT_PROBES + [
         "product.cutter", "lb1", "lb2", "fejer", "fejer-dc", "rate"]]),
    # no intersection oracle: the run-based probes are skipped
    ({"problem": BALL_AND_BOX,
      "methods": [{"name": "map", "driver": "map"},
                  {"name": "dr", "driver": "dr"},
                  dict(PRODUCT, name="p", alpha=1.0)]},
     [("map.fejer", "SKIP"), ("dr.fejer", "SKIP")]
     + [(f"p.{p}", "PASS") for p in PRODUCT_PROBES] + [("p.product", "SKIP")]),
], ids=["paper", "no-oracle"])
def test_verify_probe_lines_in_order(tmp_path, capsys, overrides, expected):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    assert main(["verify", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [tuple(ln.split()[1:3]) for ln in lines] == expected


def test_verify_draws_one_ball_sample(tmp_path, monkeypatch):
    # every probe of one verify reads the probe config's shared sample
    calls = []
    draw = diagnostics.sample_ball

    def counted(probe):
        calls.append(probe)
        return draw(probe)

    monkeypatch.setattr(diagnostics, "sample_ball", counted)
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["verify", str(cfg)]) == 0
    assert len(calls) == 1


PAPER_PROBE_LINES = """\
PROBE map.fejer PASS margin=9.2271e-11 samples=155 seed=-
PROBE map.fejer-dc PASS margin=5.53406e-20 samples=77 seed=-
PROBE dr.fejer PASS margin=1.17342e-11 samples=325 seed=-
PROBE dr.fejer-dc PASS margin=-1.11022e-16 samples=162 seed=-
PROBE new.cutter.PA PASS margin=-0 samples=2000 seed=11
PROBE new.cutter.PB PASS margin=-8.88178e-16 samples=2000 seed=11
PROBE new.relaxed-cutter.T PASS margin=-7.10543e-15 samples=2000 seed=11
PROBE new.relaxed-cutter.U PASS margin=-1.33227e-15 samples=2000 seed=11
PROBE new.demicontraction.T PASS margin=-7.10543e-15 samples=2000 seed=11
PROBE new.demicontraction.U PASS margin=-5.32907e-15 samples=2000 seed=11
PROBE new.product.cutter PASS margin=6.75893e-05 samples=2000 seed=11
PROBE new.lb1 PASS margin=0.000507269 samples=2000 seed=11
PROBE new.lb2 PASS margin=0.0345314 samples=2000 seed=11
PROBE new.fejer PASS margin=2.24938e-11 samples=235 seed=-
PROBE new.fejer-dc PASS margin=4.3852e-21 samples=117 seed=-
PROBE new.rate PASS margin=2.24938e-11 samples=117 seed=-
"""
AFFINE_D5 = {
    "seed": 5,
    "problem": {"sets": [
        {"type": "affine", "anchor": [1, 0, 0, 0, 0],
         "basis": [[0.6, 0.8, 0, 0, 0], [0, 0, 1, 0, 0]]},
        {"type": "hyperplane", "normal": [0, 1, 1, 0, 2], "offset": 1}]},
    "x0": [2.0, -1.0, 0.5, 1.0, 0.0],
    "methods": [{"name": "p", "driver": "product", "lambda": 2.5, "mu": 1.2,
                 "alpha": 1.0, "epsilon": 0.5}],
    "probe": {"radius": 2.0, "samples": 300},
}
AFFINE_D5_PROBE_LINES = """\
PROBE p.cutter.PA PASS margin=-9.99201e-16 samples=300 seed=5
PROBE p.cutter.PB PASS margin=-6.66134e-16 samples=300 seed=5
PROBE p.relaxed-cutter.T PASS margin=-7.10543e-15 samples=300 seed=5
PROBE p.relaxed-cutter.U PASS margin=-1.77636e-15 samples=300 seed=5
PROBE p.demicontraction.T PASS margin=-7.10543e-15 samples=300 seed=5
PROBE p.demicontraction.U PASS margin=-3.55271e-15 samples=300 seed=5
PROBE p.product.cutter PASS margin=0.0170486 samples=300 seed=5
PROBE p.lb1 PASS margin=0.304782 samples=300 seed=5
PROBE p.lb2 PASS margin=0.861108 samples=300 seed=5
PROBE p.fejer PASS margin=5.22213e-12 samples=163 seed=-
PROBE p.fejer-dc PASS margin=8.33444e-23 samples=81 seed=-
PROBE p.rate PASS margin=2.41492e-11 samples=81 seed=-
"""

# a negative control: T is relaxed by 2.8 but declared with lambda 2.5
MISLABELLED_T = {
    "methods": [{"name": "bad", "driver": "product", "lambda": 2.5, "mu": 1.2,
                 "alpha": 1.0, "epsilon": 0.5,
                 "T": {"op": "relax", "lambda": 2.8,
                       "of": {"op": "projection", "set": 0}}}],
}
MISLABELLED_T_PROBE_LINES = """\
PROBE bad.cutter.PA PASS margin=-0 samples=2000 seed=11
PROBE bad.cutter.PB PASS margin=-8.88178e-16 samples=2000 seed=11
PROBE bad.relaxed-cutter.T FAIL margin=-3.29661 samples=2000 seed=11
PROBE bad.relaxed-cutter.U PASS margin=-1.77636e-15 samples=2000 seed=11
PROBE bad.demicontraction.T FAIL margin=-2.63729 samples=2000 seed=11
PROBE bad.demicontraction.U PASS margin=-5.32907e-15 samples=2000 seed=11
PROBE bad.product.cutter FAIL margin=-0.0988611 samples=2000 seed=11
PROBE bad.lb1 PASS margin=0.000306875 samples=2000 seed=11
PROBE bad.lb2 PASS margin=0.0289157 samples=2000 seed=11
PROBE bad.fejer PASS margin=4.32875e-12 samples=171 seed=-
PROBE bad.fejer-dc FAIL margin=-3.49414e-05 samples=85 seed=-
PROBE bad.rate PASS margin=2.96202e-11 samples=85 seed=-
"""


def affine_d50():
    """Two 25-dimensional affine sets in R^50 meeting in a 5-dimensional
    flat, with 2000 probe samples: the projections of the sample take the
    matrix-matrix (gemm) path.  Built from exact rows (Pythagorean pairs),
    so the config is the same on every machine."""
    d = 50

    def unit(i):
        return [1.0 if j == i else 0.0 for j in range(d)]

    turned = []
    for i in range(20):
        c, s = ((0.6, 0.8), (0.8, 0.6), (0.28, 0.96), (0.96, 0.28))[i % 4]
        turned.append([c if j == 5 + i else s if j == 25 + i else 0.0
                       for j in range(d)])
    p = [((3 * j) % 7 - 3) / 4 for j in range(d)]
    return {
        "seed": 4,
        "problem": {"sets": [
            {"type": "affine", "anchor": p, "basis": [unit(i) for i in range(25)]},
            {"type": "affine", "anchor": p,
             "basis": [unit(i) for i in range(5)] + turned}]},
        "x0": [pj + ((j % 5) - 2) / 8 for j, pj in enumerate(p)],
        "iterations": 200,
        "methods": [{"name": "p", "driver": "product", "lambda": 1.2,
                     "mu": 2.8, "alpha": 1.0, "epsilon": 0.5}],
        "probe": {"radius": 2.0, "samples": 2000},
    }


AFFINE_D50_PROBE_LINES = """\
PROBE p.cutter.PA PASS margin=-7.65647e-17 samples=2000 seed=4
PROBE p.cutter.PB PASS margin=-5.30825e-16 samples=2000 seed=4
PROBE p.relaxed-cutter.T PASS margin=-1.77636e-15 samples=2000 seed=4
PROBE p.relaxed-cutter.U PASS margin=-1.06581e-14 samples=2000 seed=4
PROBE p.demicontraction.T PASS margin=-3.55271e-15 samples=2000 seed=4
PROBE p.demicontraction.U PASS margin=-7.10543e-15 samples=2000 seed=4
PROBE p.product.cutter PASS margin=0.255601 samples=2000 seed=4
PROBE p.lb1 PASS margin=0.831349 samples=2000 seed=4
PROBE p.lb2 PASS margin=1.76692 samples=2000 seed=4
PROBE p.fejer PASS margin=2.90546e-12 samples=365 seed=-
PROBE p.fejer-dc PASS margin=3.41158e-22 samples=182 seed=-
PROBE p.rate PASS margin=2.28725e-11 samples=182 seed=-
"""
# two boxes with an explicit intersection box: 14 of the 300 samples lie
# in it, so lb2 evaluates only the other 286 rows
BOXES = {
    "seed": 3,
    "problem": {
        "sets": [{"type": "box", "lo": [-1, -1, -1], "hi": [1, 1, 1]},
                 {"type": "box", "lo": [0, -2, -0.5], "hi": [2, 2, 0.5]}],
        "intersection": {"type": "box", "lo": [0, -1, -0.5], "hi": [1, 1, 0.5]}},
    "x0": [3, 2, 1],
    "methods": [{"name": "p", "driver": "product", "lambda": 2.5, "mu": 1.2,
                 "alpha": 1.0, "epsilon": 0.5}],
    "probe": {"radius": 2.0, "samples": 300},
}
BOXES_PROBE_LINES = """\
PROBE p.cutter.PA PASS margin=-0 samples=300 seed=3
PROBE p.cutter.PB PASS margin=-0 samples=300 seed=3
PROBE p.relaxed-cutter.T PASS margin=-3.55271e-15 samples=300 seed=3
PROBE p.relaxed-cutter.U PASS margin=-4.44089e-16 samples=300 seed=3
PROBE p.demicontraction.T PASS margin=-1.77636e-15 samples=300 seed=3
PROBE p.demicontraction.U PASS margin=-1.77636e-15 samples=300 seed=3
PROBE p.product.cutter PASS margin=-0 samples=300 seed=3
PROBE p.lb1 PASS margin=0 samples=300 seed=3
PROBE p.lb2 PASS margin=0.00542999 samples=286 seed=3
PROBE p.fejer PASS margin=2.32505e-11 samples=85 seed=-
PROBE p.fejer-dc PASS margin=1.44157e-21 samples=42 seed=-
PROBE p.rate PASS margin=2.32505e-11 samples=42 seed=-
"""


@pytest.mark.parametrize("overrides, expected, code", [
    ({}, PAPER_PROBE_LINES, 0),
    (AFFINE_D5, AFFINE_D5_PROBE_LINES, 0),
    (MISLABELLED_T, MISLABELLED_T_PROBE_LINES, 4),
    (affine_d50(), AFFINE_D50_PROBE_LINES, 0),
    (BOXES, BOXES_PROBE_LINES, 0),
], ids=["paper", "affine-d5", "mislabelled-t", "affine-d50", "boxes"])
def test_verify_probe_lines_golden(tmp_path, capsys, overrides, expected, code):
    # the full lines, margins included, as the probes printed them when
    # each drew its own ball sample and evaluated its own operator images
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    assert main(["verify", str(cfg)]) == code
    assert capsys.readouterr().out == expected


def test_verify_projects_the_sample_once_per_image(tmp_path, monkeypatch):
    # two affine sets meeting in a point: a product method's battery needs
    # P_A(X), P_B(X), T(X), U(X) and U(T(X)) once each, and the
    # intersection oracle (an AffineSubspace too) projects the sample for
    # lb2 and for kappa_hat
    sample_batches = []
    project = AffineSubspace.project

    def counted(self, x):
        if np.ndim(x) == 2 and np.shape(x)[0] == 300:
            sample_batches.append(self)
        return project(self, x)

    monkeypatch.setattr(AffineSubspace, "project", counted)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **dict(AFFINE_D5, problem={"sets": [
        {"type": "affine", "anchor": [1, 0, 0, 0, 0],
         "basis": [[0.6, 0.8, 0, 0, 0], [0, 0, 1, 0, 0]]},
        {"type": "affine", "anchor": [0, 0, 0, 0, 2],
         "basis": [[0, 0, 0, 1, 0], [0.8, 0, 0, 0, 0.6], [0, 1, 0, 0, 0]]}]}))
    assert main(["verify", str(cfg)]) == 0
    assert len(sample_batches) <= 7
