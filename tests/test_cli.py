import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cutterkit import cli, configio, diagnostics
from cutterkit.cli import main
from cutterkit.geometry import AffineSubspace, Hyperplane
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


@pytest.mark.parametrize("iters, rows", [(2000, (2001, 2001, 2001)),
                                         (4000, (2399, 4001, 3334))])
def test_example_paper_long_runs_exit_0_with_strictly_decreasing_errors(
        tmp_path, iters, rows):
    # the errors pass 1.5e-154, where their squares leave the normal range;
    # map and new stop once their residual reaches 1e-300
    assert main(["example-paper", "--out", str(tmp_path),
                 "--iters", str(iters)]) == 0
    for name, n in zip(("map", "dr", "new"), rows):
        tr = read_trace_csv(str(tmp_path / f"{name}.csv"))
        assert len(tr.solution_errors) == n, name
        assert np.all(np.diff(tr.solution_errors) < 0), name


def test_example_paper_errors_csv_leaves_the_cells_of_ended_traces_empty(tmp_path):
    # at 4000 steps map and new stop early (2399 and 3334 rows); errors.csv
    # has a row per step of the longest, "%.17g" of math.log10 per error
    assert main(["example-paper", "--out", str(tmp_path), "--iters", "4000"]) == 0
    errors = [read_trace_csv(str(tmp_path / f"{name}.csv")).solution_errors
              for name in ("map", "dr", "new")]
    lines = ["k,log10_err_map,log10_err_dr,log10_err_new"]
    for k in range(max(map(len, errors))):
        lines.append(",".join([str(k)] + ["%.17g" % math.log10(e[k]) if k < len(e)
                                          else "" for e in errors]))
    assert (tmp_path / "errors.csv").read_text().split("\n") == lines + [""]


def test_example_paper_warns_with_the_dr_note_on_dr_alone(tmp_path, capsys):
    # after 5 steps every method is above 1e-2; the 33-step note is DR's
    assert main(["example-paper", "--out", str(tmp_path), "--iters", "5"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "WARNING: map final error 2.740159e-01 >= 1e-2",
        "WARNING: dr final error 4.871393e-01 >= 1e-2 "
        "(DR needs 33 steps to cross 1e-2)",
        "WARNING: new final error 6.215082e-01 >= 1e-2",
    ]


@pytest.mark.parametrize("change, message", [
    ({"lambda": 2.5}, "new: first iterate deviates from closed form"),
    ({"epsilon": 1e-17, "alpha": [1.0] + [1e-17] * 29},
     "new: error sequence is not strictly decreasing"),
], ids=["first-iterate", "not-decreasing"])
def test_example_paper_self_checks_exit_4_after_writing_every_file(
        tmp_path, capsys, monkeypatch, change, message):
    # the closed-form checks run on the written traces: a method that
    # fails them is a code bug, exit 4, with all six files already there
    methods = cli._PAPER["methods"]
    monkeypatch.setitem(cli._PAPER, "methods",
                        methods[:2] + [dict(methods[2], **change)])
    assert main(["example-paper", "--out", str(tmp_path)]) == 4
    assert capsys.readouterr() == ("", f"run failed: {message}\n")
    assert sorted(os.listdir(tmp_path)) == [
        "dr.csv", "errors.csv", "errors.svg", "map.csv", "new.csv",
        "trajectories.svg"]


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
    # by step 1500 the errors of MAP are below 1.5e-154
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


@pytest.mark.parametrize("normal", ([1e200, 0], [1e-170, 0]), ids=("huge", "tiny"))
@pytest.mark.parametrize("kind", ("hyperplane", "halfspace"))
def test_plane_normal_outside_the_float_range_is_a_validation_error(
        tmp_path, capsys, kind, normal):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"sets": [
        {"type": kind, "normal": normal, "offset": 0},
        {"type": "hyperplane", "normal": [1, 1], "offset": 0}]})
    for command in ("run", "verify"):
        assert main([command, str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "outside the normal float range" in err, err
    assert not (tmp_path / "out").exists()


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


MAP_NEW = [{"name": "map", "driver": "map"}, dict(PRODUCT, name="new", alpha=1.0)]


@pytest.mark.parametrize("command, flags, message", [
    ("run", ["--tol", "0"], "--tol must be positive, got 0.0"),
    ("run", ["--tol", "-1"], "--tol must be positive, got -1.0"),
    ("run", ["--tol", "nan"], "--tol must be positive, got nan"),
    ("run", ["--iters", "0"], "--iters must be >= 1, got 0"),
    ("verify", ["--iters", "-5"], "--iters must be >= 1, got -5"),
    ("verify", ["--iters", "0"], "--iters must be >= 1, got 0"),
    ("verify", ["--tol", "inf"], "tolerance must be positive and finite, got inf"),
    ("verify", ["--tol", "nan"], "tolerance must be positive and finite, got nan"),
])
def test_overrides_are_held_to_their_fields_rules_before_anything_is_written(
        tmp_path, capsys, command, flags, message):
    # as "iterations": 0 in the config is, and the product method's own
    # residual_tol check, which ran only after map.csv had been written
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    write_config(cfg, methods=MAP_NEW, outputs={
        "csv": str(out), "svg": str(out), "report": str(out / "report.txt")})
    assert main([command, str(cfg)] + flags) == 3
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("method, iterations, message", [
    (dict(PRODUCT, epsilon=-1), 30,
     "validation error: epsilon must be positive, got -1.0"),
    (dict(PRODUCT, alpha=1.9, epsilon=0.5), 30,
     "validation error: step 0: 1.9 outside [0.5, 1.5]"),
    (dict(PRODUCT, alpha=[1.0, 1.0]), 5,
     "validation error: step sequence exhausted at k=2"),
    # the default epsilon, min(alpha) and 2 - max(alpha), is 0 at alpha 2
    ({"driver": "product", "lambda": 3.0, "mu": 1.0, "alpha": 2.0}, 30,
     "validation error: epsilon must be positive, got 0.0"),
], ids=["negative-epsilon", "alpha-outside-window", "steps-exhausted",
        "default-epsilon-zero"])
def test_run_runs_every_method_before_it_writes_a_file(tmp_path, capsys, method,
                                                       iterations, message):
    # map runs, and would be written, before the method that fails
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    write_config(cfg, iterations=iterations,
                 methods=[{"name": "map", "driver": "map"}, dict(method, name="new")],
                 outputs={"csv": str(out), "svg": str(out),
                          "report": str(out / "report.txt")})
    assert main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err == message + "\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_run_that_diverges_in_a_later_method_writes_no_file(tmp_path, capsys):
    # U relaxed by 1e200 overflows at step 1, after map has run; the exit
    # code reports it, with no numpy RuntimeWarning (the suite raises one)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    write_config(cfg, methods=[{"name": "map", "driver": "map"}, dict(
        PRODUCT, name="new", U={"op": "relax", "lambda": 1e200,
                                "of": {"op": "projection", "set": 1}})],
        outputs={"csv": str(out), "svg": str(out)})
    assert main(["run", str(cfg)]) == 4
    assert capsys.readouterr().err == \
        "run failed: non-finite operator value at step 1\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_run_takes_epsilon_from_the_steps_when_none_is_given(tmp_path):
    # min(alpha) and 2 - max(alpha): 0.6 for steps in [0.6, 1.4]
    cfg = tmp_path / "cfg.json"
    alpha = [0.6, 1.4, 1.0] * 10
    traces = []
    for epsilon in (None, 0.6):
        method = dict(PRODUCT, name="new", alpha=alpha, epsilon=epsilon)
        write_config(cfg, methods=[method])
        assert main(["run", str(cfg)]) == 0
        traces.append((tmp_path / "out" / "new.csv").read_bytes())
    assert traces[0] == traces[1]
    assert configio.parse_config(json.loads(cfg.read_text())).methods[0].epsilon == 0.6


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_non_finite_relax_lambda_is_a_validation_error_before_writing(
        tmp_path, capsys, command, lam):
    # json reads Infinity and NaN, so the config can carry them
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    write_config(cfg, methods=[dict(PRODUCT, name="new", T={
        "op": "relax", "lambda": lam, "of": {"op": "projection", "set": 0}})],
        outputs={"csv": str(out), "report": str(out / "report.txt")})
    assert main([command, str(cfg)]) == 3
    assert capsys.readouterr().err == ("validation error: relaxation parameter "
                                       f"must be >= 0 and finite, got {lam}\n")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("iters", ("0", "-1"))
def test_example_paper_holds_iters_to_the_rule_of_run_before_writing(
        tmp_path, capsys, iters):
    out = tmp_path / "paper"
    assert main(["example-paper", "--out", str(out), "--iters", iters]) == 3
    assert capsys.readouterr().err == \
        f"validation error: --iters must be >= 1, got {iters}\n"
    assert list(tmp_path.iterdir()) == []


def test_one_parser_serves_every_main_call_from_its_defaults(tmp_path, capsys,
                                                              monkeypatch):
    # the parser is built at import; a flag of one call must not leak into
    # the next, which gets the config's own seed and iterations
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append("build_parser") or build())
    cfg = tmp_path / "cfg.json"
    write_config(cfg, methods=MAP_NEW)
    assert main(["run", str(cfg), "--seed", "5", "--iters", "3"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert main(["run", str(cfg)]) == 0
    second = capsys.readouterr().out.splitlines()
    assert first[1] == "seed: 5" and second[1] == "seed: 11"
    assert [line.split()[2] for line in first[2:]] == ["steps=3"] * 2
    assert [line.split()[2] for line in second[2:]] == ["steps=30"] * 2
    assert built == []


def test_importing_the_cli_builds_its_parser_once(tmp_path):
    # four ArgumentParsers: cutterkit and its three subcommands
    code = textwrap.dedent("""
        import argparse, sys
        built = []
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counted
        from cutterkit import cli
        at_import = len(built)
        for _ in range(2):
            cli.main(["example-paper", "--out", sys.argv[1], "--iters", "3"])
        print(at_import, len(built))
    """)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.stdout.splitlines()[-1] == "4 4"


def test_run_creates_the_report_directory(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    report = tmp_path / "rep" / "sub" / "r.txt"
    write_config(cfg, outputs={"csv": str(tmp_path / "out"),
                               "report": str(report)})
    assert main(["run", str(cfg)]) == 0
    assert report.read_text().splitlines() == \
        capsys.readouterr().out.splitlines()


def test_run_creates_each_output_directory_at_its_first_write(tmp_path,
                                                              capsys):
    # lines in R^3 meet in a line: no errors.svg, and the trajectories of
    # d = 3 are skipped, so the SVG directory would stay empty
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "csv" / "deep"
    write_config(cfg, problem={"sets": [
        {"type": "hyperplane", "normal": [0, 0, 1], "offset": 0},
        {"type": "hyperplane", "normal": [0, 1, 0], "offset": 0}]},
        x0=[1.0, 1.0, 1.0],
        outputs={"csv": str(out), "svg": str(tmp_path / "svg")})
    with pytest.warns(UserWarning) as record:
        assert main(["run", str(cfg)]) == 0
    assert str(record[-1].message) == "nothing to plot; no SVG written"
    assert sorted(os.listdir(out)) == ["dr.csv", "map.csv", "new.csv",
                                       "report.txt"]
    assert not (tmp_path / "svg").exists()


def test_svg_text_is_xml_escaped(tmp_path, capsys):
    # a method name is a plain file name, and may hold & and <
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    write_config(cfg, methods=[{"name": "a&b<c", "driver": "map"}],
                 outputs={"csv": str(out), "svg": str(out)})
    assert main(["run", str(cfg)]) == 0
    for name in ("trajectories.svg", "errors.svg"):
        texts = [e.text for e in ET.parse(out / name).iter()
                 if e.tag.endswith("text")]
        assert "a&b<c" in texts


def test_readme_config_is_the_paper_config_of_example_paper():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("### Config format", 1)[1]
    doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    paper = cli._PAPER
    assert doc["problem"]["sets"] == paper["problem"]["sets"]
    # the float64 normal of B, not (-0.5, cos(pi/6))
    assert doc["problem"]["sets"][1]["normal"][0] == -0.49999999999999994
    assert doc["problem"].get("intersection") is None
    assert doc["problem"].get("intersection") == paper["problem"].get("intersection")
    assert doc["x0"] == paper["x0"]
    assert doc["iterations"] == paper["iterations"] == 30
    assert doc["methods"] == paper["methods"]


def test_integral_floats_are_accepted_as_integers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    t = dict(RELAX_T, of={"op": "projection", "set": 0.0})
    write_config(cfg, iterations=30.0, seed=11.0, probe={"samples": 100.0},
                 methods=[dict(PRODUCT, name="new", T=t)])
    assert main(["run", str(cfg)]) == 0
    assert "steps=30 " in capsys.readouterr().out
    assert main(["verify", str(cfg)]) == 0
    assert "samples=100 seed=11" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# run needs only the unique intersection point

def _two_planes_d50():
    rng = np.random.default_rng(13)
    return {"problem": {"sets": [
        {"type": "hyperplane", "normal": rng.standard_normal(50).tolist(),
         "offset": 0.5},
        {"type": "hyperplane", "normal": rng.standard_normal(50).tolist(),
         "offset": -1.0}]},
        "x0": (3.0 * rng.standard_normal(50)).tolist()}


FLAT_RUNS = {  # affine pairs whose intersection is a flat, not a point
    "two-planes-d50": _two_planes_d50(),
    "affine-d5-meeting-in-a-plane": {"problem": {"sets": [
        {"type": "affine", "anchor": [1, 0, 0, 0, 0],
         "basis": [[0.6, 0.8, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]},
        {"type": "affine", "anchor": [1.6, 0.8, 0, 0, 0],
         "basis": [[0.6, 0.8, 0, 0, 0], [0, 0, 0.8, 0, 0.6], [0, 0, 0, 1, 0]]}]},
        "x0": [2.0, -1.0, 0.5, 1.0, 3.0]},
    "coincident-lines": {"problem": {"sets": [
        {"type": "hyperplane", "normal": [0, 1], "offset": 0},
        {"type": "hyperplane", "normal": [0, 2], "offset": 0}]},
        "x0": [1.0, 2.0]},
}
# sha256 of every output file, recorded before run stopped building the
# intersection's null-space basis
FLAT_RUN_DIGESTS = {
    "two-planes-d50": {
        "dr.csv":
            "b6fd2fc143f87d12502ebb379432be9f9441add28815abae9ac86e82367844af",
        "map.csv":
            "2d64bb011a589d543c6a357314c09bd0c0cd49a2c956a8009d798f53395fd2ea",
        "new.csv":
            "54b7c91cb03fcbcb1dc024eefc5f5d5e3b077d3edf826909e580a5065843875c",
        "report.txt":
            "8cab53e88f8eeefd4433fffdf147c259539cc52f6af48b4a5e44eaed0043a2bd",
    },
    "affine-d5-meeting-in-a-plane": {
        "dr.csv":
            "36058098f2346d1828c6a9d46a6f396444dd784b3c18d05bf48a55d9c4eb18e3",
        "map.csv":
            "aa1d1c958a81ea17845f7752541ffe8602e0a739c79c8929d980266f705229c3",
        "new.csv":
            "4de5c33b26eba863cb853c469d58b102c404efd2c3d31f1394b6a46f018afad1",
        "report.txt":
            "50594fbb56c141f8a2a84f63c67abb8fc44482697f544cdbac6e4b7102e6d7af",
    },
    "coincident-lines": {
        "dr.csv":
            "7ebab7fbc24d413a20a65bc33319a560ade1dab24f4b4740263edc652160c847",
        "map.csv":
            "05a04ee8fcbb9af01af8ed61b0ae939836f3a3255c100c1ddd1ee76d6d579eff",
        "new.csv":
            "8c1333c9107bffbf1b910c521cd9cf56e1aeb2e2a15e921ead47bdde7665da59",
        "report.txt":
            "33547b68f8d5ac7031f8202a68d1d7909b363bbca8f1a618466c92ab060518e6",
        "trajectories.svg":
            "4b11b46b6cce190f93a5e458292e43f1da6d6c3eb82013ac4755a4f1a6d5f06c",
    },
}


@pytest.mark.parametrize("name", FLAT_RUNS)
def test_run_on_a_flat_intersection_builds_no_basis(tmp_path, monkeypatch,
                                                     name):
    monkeypatch.chdir(tmp_path)
    outputs = {"csv": "out", "report": "out/report.txt"}
    if len(FLAT_RUNS[name]["x0"]) == 2:  # only d = 2 has a trajectory plot
        outputs["svg"] = "out"
    write_config(tmp_path / "cfg.json", iterations=20, outputs=outputs,
                 **FLAT_RUNS[name])
    bases = []
    init = AffineSubspace.__init__

    def counted(self, anchor, basis=()):
        bases.append(len(basis))
        init(self, anchor, basis)

    monkeypatch.setattr(AffineSubspace, "__init__", counted)
    configio.load_config("cfg.json")
    of_the_config = list(bases)
    bases.clear()
    assert main(["run", "cfg.json"]) == 0
    assert bases == of_the_config  # the config's own sets, nothing else
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted((tmp_path / "out").iterdir())}
    assert digests == FLAT_RUN_DIGESTS[name]


def _ball_run(d, pair):
    """A ball of radius 0.75 with a box, or after a half-space, in R^d,
    from a 17-digit start.  The half-space {x_1 >= c_1 + 0.75} touches
    the ball at one point, given as the explicit intersection, so the
    traces carry the error column too."""
    center = [((3 * j) % 7 - 3) / 8 for j in range(d)]
    ball = {"type": "ball", "center": center, "radius": 0.75}
    x0 = (3.0 * np.random.default_rng(d).standard_normal(d)).tolist()
    if pair == "ball-box":
        box = {"type": "box", "lo": [-0.5] * d, "hi": [0.25] * d}
        return {"problem": {"sets": [ball, box]}, "x0": x0}
    touch = [center[0] + 0.75] + center[1:]
    plane = {"type": "halfspace", "normal": [-1] + [0] * (d - 1),
             "offset": -touch[0]}
    return {"problem": {"sets": [plane, ball], "intersection": {
        "type": "affine", "anchor": touch, "basis": []}}, "x0": x0}


BALL_RUNS = {f"{pair}-d{d}": _ball_run(d, pair)
             for pair in ("halfspace-ball", "ball-box") for d in (2, 20)}
# sha256 of every output file, recorded before the row norms of geometry,
# engine and diagnostics moved into one kernel
BALL_RUN_DIGESTS = {
    "halfspace-ball-d2": {
        "dr.csv":
            "3def42591b2f59ac42a86f61b4b8660bd2937af92bf90d299c15ac8361a227a2",
        "errors.svg":
            "3dffaa29ae00d7406c11991a3f8d08b3cb03ee9ba82a82f66d287af97a0dc70f",
        "map.csv":
            "071d096e346cf25d1fa780c4a67cdafc8b2be6d081c9f2a607fbeb4c1ccde44d",
        "new.csv":
            "976b591ed4e6b58b30032ffdcd87b998b3b0431940e76bad19b6c6fef4a9c1f8",
        "report.txt":
            "c4a55efa841cde1c40bd325595f586f85fdf423a00a05108f4718a6e115f9c9e",
        "trajectories.svg":
            "1d735a53452d62a0dc454cd3184bef841d57d86cbb83090700f54ab75af43514",
    },
    "halfspace-ball-d20": {
        "dr.csv":
            "6972506c1d242ef46a8fffa3728a1dce9e6e5e4e733d18e0f75bf5340c81e4d9",
        "map.csv":
            "26ab29eee415198d756390aaf8c546c4d1ba3a3e51538ec7cf8e382767668e56",
        "new.csv":
            "053283dd734c1c4880259fa721790b7cc0c28add3eb5ef1f1c6e4fc140877d81",
        "report.txt":
            "0538d632fd47cc08cfc56a6ccd3f5cb0a5ad67adc5f4ea0c8e9954e2c9f5cbb1",
    },
    "ball-box-d2": {
        "dr.csv":
            "1a1bf42bcdd3df7e92ab983359fc89c8ff699234890fbadcf2471b7a55c3ad49",
        "map.csv":
            "a48b025598411554f5b75ad7740f2b2fc5dd000579dd69e7ac128d652697341b",
        "new.csv":
            "938c9ff603b4da7c03c02c606e380942310709ebec1ef20d2381e0125d8419a6",
        "report.txt":
            "343e815716f1a1805a3676ca91ade882c13fa87d7012f844eeac6faeceeefc1b",
        "trajectories.svg":
            "2d6936a8b93f0794926bb3a0f65d002dff2aa5ef21337f30327695c580676cac",
    },
    "ball-box-d20": {
        "dr.csv":
            "315d4b6f29df65da1a59e7ac4b37e9ce12ab108ef4e65d3a727af711c1859b43",
        "map.csv":
            "0c6d96f50d9571b7da9a2715205aa2b7b66d152e1f7adc2247778365597a1ddb",
        "new.csv":
            "fc1649bcccc9dda89b43cabe88eb6d80a64259b94cf88ac17ce01e6b6a82be83",
        "report.txt":
            "e8e466033583e0337935458ff669b1cb02fd51fcf1057a0442491eb958061dcf",
    },
}


@pytest.mark.parametrize("name", BALL_RUNS)
def test_run_on_a_ball_keeps_its_bytes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    outputs = {"csv": "out", "report": "out/report.txt"}
    if len(BALL_RUNS[name]["x0"]) == 2:
        outputs["svg"] = "out"
    write_config(tmp_path / "cfg.json", iterations=20, outputs=outputs,
                 **BALL_RUNS[name])
    assert main(["run", "cfg.json"]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted((tmp_path / "out").iterdir())}
    assert digests == BALL_RUN_DIGESTS[name]


def _point_pair_d50():
    """Two 25-dimensional affine sets in R^50 meeting in one point: the
    stacked constraint matrix is 50 x 50 and has full rank."""
    d = 50
    p = [((3 * j) % 7 - 3) / 4 for j in range(d)]
    pairs = ((0.6, 0.8), (0.8, 0.6), (0.28, 0.96), (0.96, 0.28))
    turned = [[pairs[i % 4][0] if j == i else pairs[i % 4][1] if j == 25 + i
               else 0.0 for j in range(d)] for i in range(25)]
    return {"problem": {"sets": [
        {"type": "affine", "anchor": p,
         "basis": [[1.0 if j == i else 0.0 for j in range(d)]
                   for i in range(25)]},
        {"type": "affine", "anchor": p, "basis": turned}]},
        "x0": [pj + ((j % 5) - 2) / 8 for j, pj in enumerate(p)]}


def test_run_on_a_point_intersection_factors_the_stacked_matrix_once(
        tmp_path, monkeypatch):
    # lstsq's rank tells a point from a flat; only a flat needs the null
    # rows of a second factorization
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, iterations=20, **_point_pair_d50())
    assert main(["run", str(cfg)]) == 0
    assert shapes.count((50, 25)) == 2  # each set's own constraint rows
    assert (50, 50) not in shapes


@pytest.mark.parametrize("sets, message", [
    ([{"type": "hyperplane", "normal": [1, 0], "offset": 0},
      {"type": "hyperplane", "normal": [2, 0], "offset": 1}],
     "empty intersection"),
    ([{"type": "affine", "anchor": [0, 0, 0], "basis": [[1, 0, 0], [0, 1, 0]]},
      {"type": "affine", "anchor": [0, 0, 1], "basis": [[1, 1, 0]]}],
     "empty intersection"),
    # the least-squares point overflows
    ([{"type": "hyperplane", "normal": [1, 0], "offset": 1e308},
      {"type": "hyperplane", "normal": [1, 1e-10], "offset": 0}],
     "non-finite"),
], ids=["parallel-planes", "disjoint-affine", "overflowing-anchor"])
def test_affine_pairs_without_a_finite_common_point_are_validation_errors(
        tmp_path, capsys, sets, message):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"sets": sets}, x0=[1.0] * len(sets[0].get(
        "normal", sets[0].get("anchor"))))
    for command in ("run", "verify"):
        assert main([command, str(cfg)]) == 3
        assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("basis", ([[1e200, 0]], [[1e-200, 0]], [[0, 0]]))
def test_affine_basis_vector_outside_the_float_range_is_a_validation_error(
        tmp_path, capsys, basis):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"sets": [
        {"type": "affine", "anchor": [0, 0], "basis": basis},
        {"type": "hyperplane", "normal": [1, 1], "offset": 0}]})
    for command in ("run", "verify"):
        assert main([command, str(cfg)]) == 3
        assert "outside the normal float range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


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
    # numeric strings and booleans are not numbers, at any depth
    "numeric-string-iterations": (("iterations",), "3", "iterations"),
    "bool-iterations": (("iterations",), True, "iterations"),
    "numeric-string-seed": (("seed",), "7", "seed"),
    "bool-seed": (("seed",), False, "seed"),
    "numeric-string-lambda": (("methods", 2, "lambda"), "3.0", "lambda"),
    "bool-mu": (("methods", 2, "mu"), True, "mu"),
    "numeric-string-epsilon": (("methods", 2, "epsilon"), "1", "epsilon"),
    "bool-alpha": (("methods", 2, "alpha"), True, "alpha"),
    "numeric-string-alpha-entry": (("methods", 2, "alpha"), [1.0, "1"], "alpha"),
    "numeric-string-x0-entry": (("x0",), ["1", 0], "x0"),
    "bool-x0-entry": (("x0",), [True, 0], "x0"),
    "numeric-string-offset": (SET_0 + ("offset",), "0", "offset"),
    "bool-normal-entry": (SET_0 + ("normal",), [False, True], "normal"),
    "nested-bool-basis-entry": (SET_0, {"type": "affine", "anchor": [0, 0],
                                        "basis": [[True, 0]]}, "basis"),
    "numeric-string-probe-samples": (("probe",), {"samples": "100"}, "samples"),
    "bool-probe-samples": (("probe",), {"samples": True}, "samples"),
    "numeric-string-probe-radius": (("probe",), {"radius": "2"}, "radius"),
    "bool-T-set": (("methods", 2, "T"),
                   dict(RELAX_T, of={"op": "projection", "set": False}), "set"),
    "numeric-string-relax-lambda": (("methods", 2, "T"),
                                    dict(RELAX_T, **{"lambda": "3"}), "lambda"),
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


def _product_with(**fields):
    """An edit of the default config: fields set on its product method."""
    def edit(doc):
        doc["methods"][2].update(fields)
        return doc
    return edit


# id: (edit of the default config, exit code, the whole of stderr)
BAD_CONFIGS = {
    "list-root": (lambda doc: [1], 2, "config error: config root must be a JSON object"),
    "one-set": (lambda doc: dict(doc, problem={"sets": doc["problem"]["sets"][:1]}),
                3, "validation error: problem.sets must list at least two sets"),
    "zero-iterations": (lambda doc: dict(doc, iterations=0), 3,
                        "validation error: iterations must be >= 1"),
    "object-methods": (lambda doc: dict(doc, methods={}), 2,
                       "config error: methods must be a list"),
    "empty-alpha": (_product_with(alpha=[]), 2, "config error: methods[2]: alpha "
                    "must be a finite number or a non-empty list of them, got []"),
    "nested-alpha": (_product_with(alpha=[[1.0]]), 2, "config error: methods[2]: "
                     "alpha must be a finite number or a non-empty list of them, "
                     "got [[1.0]]"),
    "nan-alpha": (_product_with(alpha=math.nan), 2, "config error: methods[2]: "
                  "alpha must be a finite number or a non-empty list of them, got nan"),
    "list-outputs": (lambda doc: dict(doc, outputs=[]), 2,
                     "config error: outputs must be an object"),
    "numeric-probes-path": (lambda doc: dict(doc, outputs=dict(doc["outputs"], probes=3)),
                            2, "config error: outputs: probes must be a path, got 3"),
    "flat-affine-basis": (lambda doc: dict(doc, problem={"sets": [
        {"type": "affine", "anchor": [0, 0], "basis": [1, 0]},
        doc["problem"]["sets"][1]]}), 2,
        "config error: 'affine' set: basis must be a list of vectors"),
    "relax-without-of": (_product_with(T={"op": "relax", "lambda": 3}), 2,
                         "config error: missing field 'of' in operator spec 'relax'"),
    "compose-without-inner": (
        _product_with(T={"op": "compose", "outer": {"op": "projection", "set": 0}}),
        2, "config error: missing field 'inner' in operator spec 'compose'"),
}


def _with(path, value):
    """An edit of the default config: value at path."""
    def edit(doc):
        _set_field(doc, path, value)
        return doc
    return edit


INTEGER_FIELDS = {  # id: (path, the value at path that holds v, the field named)
    "iterations": (("iterations",), lambda v: v, "config: iterations"),
    "seed": (("seed",), lambda v: v, "config: seed"),
    "probe-samples": (("probe",), lambda v: {"samples": v}, "probe: samples"),
    "T-set": (("methods", 2, "T"),
              lambda v: dict(RELAX_T, of={"op": "projection", "set": v}),
              "operator spec 'projection': set"),
}
NOT_INTEGERS = {"fraction": 3.5, "numeric-string": "3", "bool": True,
                "overflow": 1e400, "list": [3]}
# the config files' rule for integers, one message at every integer field
BAD_CONFIGS.update({
    f"{vid}-{fid}": (_with(path, holding(v)), 2,
                     f"config error: {field} must be an integer, got {v!r}")
    for fid, (path, holding, field) in INTEGER_FIELDS.items()
    for vid, v in NOT_INTEGERS.items()})


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("edit, code, message", BAD_CONFIGS.values(),
                         ids=BAD_CONFIGS.keys())
def test_bad_config_exits_with_its_code_before_writing(tmp_path, capsys, command,
                                                       edit, code, message):
    cfg = tmp_path / "cfg.json"
    doc = write_config(cfg)
    cfg.write_text(json.dumps(edit(doc)))
    assert main([command, str(cfg)]) == code
    assert capsys.readouterr().err == message + "\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("outputs, clash", [
    ({"csv": "out", "report": "out/map.csv"}, "out/map.csv"),
    ({"csv": "out", "svg": "plots", "report": "plots/../plots/errors.svg"},
     "plots/errors.svg"),
], ids=["method-csv", "error-plot"])
def test_run_refuses_a_report_path_that_is_another_of_its_outputs(
        tmp_path, capsys, monkeypatch, outputs, clash):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, outputs=outputs, methods=[{"name": "map", "driver": "map"},
                                                {"name": "dr", "driver": "dr"}])
    assert main(["run", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"validation error: outputs.report {outputs['report']} "
                   f"is also the run's output {clash}\n")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("outputs, key, clash", [
    ({"csv": "out", "probes": "out/map.csv"}, "probes", "out/map.csv"),
    ({"csv": "out", "probes": "out/report.txt"}, "probes", "out/report.txt"),
    ({"csv": "out", "svg": "plots", "probes": "plots/../plots/errors.svg"},
     "probes", "plots/errors.svg"),
    ({"csv": "out", "report": "out/map.csv"}, "report", "out/map.csv"),
], ids=["probes-method-csv", "probes-report", "probes-error-plot",
        "report-method-csv"])
def test_run_and_verify_refuse_an_output_path_that_names_another_output(
        tmp_path, capsys, monkeypatch, command, outputs, key, clash):
    # neither command may replace a file the other writes: both check the
    # report and probes paths against every file the config names
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, outputs=outputs, methods=[{"name": "map", "driver": "map"},
                                                {"name": "dr", "driver": "dr"}])
    assert main([command, str(cfg)]) == 3
    assert capsys.readouterr() == ("", f"validation error: outputs.{key} "
                                       f"{outputs[key]} is also the run's output "
                                       f"{clash}\n")
    assert list(tmp_path.iterdir()) == [cfg]


def test_verify_with_every_sample_inside_the_intersection_exits_4(tmp_path, capsys):
    # kappa_hat's EstimationError ends verify through cli.main's last branch
    def box(lo, hi):
        return {"type": "box", "lo": [lo, lo], "hi": [hi, hi]}

    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"sets": [box(-5, 5), box(-4, 6)],
                               "intersection": box(-4, 5)},
                 x0=[0.1, 0.2], probe={"radius": 1.0, "samples": 100},
                 methods=[{"name": "p", "driver": "product", "lambda": 1.5,
                           "mu": 2.5, "alpha": 1.0, "epsilon": 0.5}])
    assert main(["verify", str(cfg)]) == 4
    assert capsys.readouterr() == ("", "error: all samples are degenerate "
                                       "(max distance ~ 0)\n")
    assert list(tmp_path.iterdir()) == [cfg]


DEEP = 100000

# id: (the config file's bytes, stderr after "config error: <path>: ")
UNREADABLE_CONFIGS = {
    "utf-16-bom": (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in "
                   "position 0: invalid start byte"),
    f"nested-{DEEP}-deep": (b"[" * DEEP + b"]" * DEEP, "nested too deeply to parse"),
}


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("content, message", UNREADABLE_CONFIGS.values(),
                         ids=UNREADABLE_CONFIGS.keys())
def test_a_config_not_utf8_or_nested_too_deep_exits_2(tmp_path, capsys, command,
                                                       content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def _deep_alpha(doc):
    alpha = 1.0
    for _ in range(DEEP):
        alpha = [alpha]
    doc["methods"][2]["alpha"] = alpha


def _deep_operator_tree(doc):
    t = {"op": "projection", "set": 0}
    for _ in range(DEEP):
        t = {"op": "relax", "lambda": 1.0, "of": t}
    doc["methods"][2]["T"] = t


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("deepen", [_deep_alpha, _deep_operator_tree],
                         ids=["alpha", "operator-tree"])
def test_a_document_parse_config_cannot_follow_is_a_config_error(
        tmp_path, capsys, monkeypatch, command, deepen):
    # JSON text this deep stops json.load itself (above); the parsed
    # document is handed over as it is, so that parse_config meets it
    cfg = tmp_path / "cfg.json"
    doc = write_config(cfg)
    deepen(doc)
    monkeypatch.setattr(configio.json, "load", lambda fh: doc)
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: nested too deeply to parse\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_an_intersection_of_another_dimension_exits_3_before_writing(
        tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    doc = write_config(cfg)
    doc["problem"]["intersection"] = {"type": "ball", "center": [0, 0, 0],
                                      "radius": 1}
    cfg.write_text(json.dumps(doc))
    assert main([command, str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "validation error: dimension mismatch: problem.intersection is "
        "3-dimensional, point has shape (2,)\n")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_an_identity_operator_runs(tmp_path, capsys, command):
    # T = I with declared lambda 1 and U = P_B: the product is P_B, and
    # every probe of the battery holds for it.  Each step goes 3/4 of the
    # way to P_B x0 = (3/4, sqrt(3)/4), a fixed point
    cfg = tmp_path / "cfg.json"
    write_config(cfg, methods=[dict(PRODUCT, name="new", T={"op": "identity"},
                                    **{"lambda": 1.0})])
    assert main([command, str(cfg)]) == 0
    if command == "run":
        trace = read_trace_csv(str(tmp_path / "out" / "new.csv"))
        assert trace.residuals[-1] == 0.0
        assert np.abs(trace.iterates[-1] - [0.75, math.sqrt(3) / 4]).max() < 1e-15


# Paper-config fields an arbitrary JSON value may replace.
FIELDS = [
    ("seed",), ("problem",), ("problem", "sets"), SET_0, SET_0 + ("type",),
    SET_0 + ("normal",), ("problem", "sets", 1, "offset"),
    ("problem", "intersection"), ("x0",), ("x0", 0), ("iterations",),
    ("methods",), ("methods", 0), ("methods", 1, "name"), ("methods", 2),
    ("methods", 2, "driver"), ("methods", 2, "lambda"), ("methods", 2, "mu"),
    ("methods", 2, "alpha"), ("methods", 2, "epsilon"), ("methods", 2, "T"),
    ("methods", 2, "U"), ("outputs",), ("outputs", "csv"), ("outputs", "svg"),
    ("outputs", "report"), ("outputs", "probes"), ("probe",), ("probe", "radius"),
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
                                "report": os.path.join(work, "report.txt"),
                                "probes": os.path.join(work, "probes.txt")})
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
                               "probes": str(tmp_path / "out/probes.txt")})
    assert main(["verify", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    probe_lines = [ln for ln in lines if ln.startswith("PROBE")]
    assert probe_lines
    for ln in probe_lines:
        assert re.match(r"PROBE \S+ (PASS|SKIP) margin=\S+ samples=\d+ seed=\S+", ln)
    report = (tmp_path / "out/probes.txt").read_text()
    assert "PROBE new.lb1 PASS" in report
    assert "PROBE new.rate PASS" in report


def test_run_and_verify_on_one_config_keep_both_reports(tmp_path, capsys):
    # run writes outputs.report and verify outputs.probes: neither replaces
    # the other's file, in either order
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    write_config(cfg, outputs={"csv": str(out), "report": str(out / "report.txt"),
                               "probes": str(out / "probes.txt")})
    assert main(["run", str(cfg)]) == 0
    assert main(["verify", str(cfg)]) == 0
    run_lines = capsys.readouterr().out.splitlines()
    report = (out / "report.txt").read_text()
    assert report.startswith(f"config: {cfg}\nseed: 11\nmethod map: steps=30 ")
    assert report.splitlines() == run_lines[:5]
    probes = (out / "probes.txt").read_text().splitlines()
    assert probes == run_lines[5:] and len(probes) == 16
    assert all(line.startswith("PROBE ") for line in probes)
    assert main(["run", str(cfg)]) == 0
    assert (out / "probes.txt").read_text().splitlines() == probes
    assert (out / "report.txt").read_text() == report


def test_verify_without_a_probes_path_writes_no_file(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    write_config(cfg, outputs={"csv": str(out), "report": str(out / "report.txt")})
    assert main(["verify", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("PROBE map.fejer PASS")
    assert not out.exists()


@pytest.mark.parametrize("flags, tol", [([], 1e-9), (["--tol", "1e-7"], 1e-7)])
def test_verify_tol_reaches_the_trace_probes(tmp_path, capsys, monkeypatch,
                                             flags, tol):
    # the Fejer, gap and rate probes took their own default of 1e-9
    seen = []
    for name in ("fejer_check", "dc_gap_check", "rate_certificate"):
        def record(*args, _probe=getattr(diagnostics, name), _name=name,
                   **kwargs):
            seen.append((_name, kwargs.get("tol")))
            return _probe(*args, **kwargs)
        monkeypatch.setattr(diagnostics, name, record)
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["verify", str(cfg)] + flags) == 0
    assert sorted(seen) == sorted(
        [("fejer_check", tol), ("dc_gap_check", tol)] * 3
        + [("rate_certificate", tol)])


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


def test_verify_far_probe_ball_is_a_validation_error_without_a_warning(
        tmp_path, capsys):
    # at radius 1e200 the probe's fixed points are off their sets by about
    # 1e184, whose square overflows; the moved check measures it by hypot
    # (the suite turns a RuntimeWarning into an error)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, probe={"radius": 1e200})
    assert main(["verify", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"validation error: fixed_sample contains non-fixed "
                        r"points of P\[Hyperplane\]: max \|\|T\(z\) - z\|\| = "
                        r"\d\.\d{3}e\+18\d\n", err), err


def test_verify_probe_budget_numpy_cannot_allocate_exits_3(tmp_path, capsys):
    # numpy refuses 10**18 points of d = 2 before it allocates; the map and
    # dr baselines draw no sample and run first
    cfg = tmp_path / "cfg.json"
    write_config(cfg, probe={"samples": 1e18})
    assert main(["verify", str(cfg)]) == 3
    assert capsys.readouterr().err == (
        "validation error: probe.samples = 1000000000000000000 points in d = 2 "
        "are more than numpy can allocate\n")


def test_verify_symmetric_pair_reports_lb2_vacuous(tmp_path, capsys):
    cfg = tmp_path / "eq.json"
    write_config(cfg, methods=[{"name": "sym", "driver": "product",
                                "lambda": 1.0, "mu": 1.0,
                                "alpha": 1.0, "epsilon": 1.0}])
    assert main(["verify", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PROBE sym.lb2 SKIP" in out


def test_verify_carries_a_nan_distance_into_kappa_hat(tmp_path, capsys,
                                                      monkeypatch):
    # kappa_hat keeps a sample whose distance to A is NaN, as lb2 keeps
    # one whose distance to the intersection is; the NaN estimate then
    # stops the rate certificate, which needs kappa > 0
    distance = Hyperplane.distance

    def with_nan(self, x):
        d = distance(self, x)
        if np.ndim(x) == 2:
            d[::7] = np.nan
        return d

    monkeypatch.setattr(Hyperplane, "distance", with_nan)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, methods=[dict(PRODUCT, name="new", alpha=1.0)])
    assert main(["verify", str(cfg)]) == 3
    assert capsys.readouterr().err == \
        "validation error: kappa must be positive, got nan\n"


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


STEP_LIST = {"name": "p", "driver": "product", "lambda": 3.0, "mu": 1.0,
             "alpha": [1.0, 1.2, 0.8, 1.1]}


@pytest.mark.parametrize("flags", [[], ["--iters", "10"]])
def test_verify_runs_a_step_list_to_its_end(tmp_path, capsys, flags):
    # the trace run stops after the list's 4 steps, whatever --iters says;
    # it used to ask for a 5th step and exit 3
    cfg = tmp_path / "cfg.json"
    write_config(cfg, methods=[STEP_LIST], iterations=4)
    assert main(["verify", str(cfg)] + flags) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 12 and all(ln.startswith("PROBE p.") for ln in lines)
    assert re.fullmatch(r"PROBE p\.fejer-dc PASS margin=\S+ samples=4 seed=-",
                        lines[-2])
    assert lines[-1].startswith("PROBE p.rate SKIP ")
    assert err == ""


def test_run_still_refuses_a_step_list_shorter_than_the_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, methods=[STEP_LIST], iterations=4)
    assert main(["run", str(cfg)]) == 0
    assert main(["run", str(cfg), "--iters", "10"]) == 3
    assert capsys.readouterr().err == \
        "validation error: step sequence exhausted at k=4\n"


@pytest.mark.parametrize("alpha, steps", [(1.0, 117), (0.05, 2000)])
def test_verify_runs_a_long_step_list_as_its_constant(tmp_path, capsys, alpha,
                                                      steps):
    # 2500 steps, 5 iterations: the run stops at residual 1e-10 or at the
    # 2000-step cap, as it does for the constant alpha
    cfg = tmp_path / "cfg.json"
    outs = []
    for steps_of in ([alpha] * 2500, alpha):
        write_config(cfg, iterations=5, methods=[dict(
            STEP_LIST, alpha=steps_of, epsilon=alpha)])
        assert main(["verify", str(cfg)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert re.search(rf"^PROBE p\.fejer-dc PASS .* samples={steps} ", outs[0],
                     re.M)


def test_verify_takes_u_fixed_points_from_the_projection_onto_b(tmp_path,
                                                                capsys):
    # the membership points of U are P_B of the sample; a U whose fixed
    # points are not all of sets[1] fails the probe's own check
    cfg = tmp_path / "cfg.json"
    write_config(cfg, methods=[dict(PRODUCT, name="p", alpha=1.0, U={
        "op": "compose", "outer": {"op": "projection", "set": 1},
        "inner": {"op": "projection", "set": 0}})])
    assert main(["verify", str(cfg)]) == 3
    assert capsys.readouterr() == ("", (
        "validation error: fixed_sample contains non-fixed points of "
        "P[Hyperplane]*P[Hyperplane]: max ||T(z) - z|| = 3.066e-01\n"))


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
# a negative control at d = 50: method p's T is relaxed by 1.6 but
# declared with lambda 1.2 (its product then diverges), method q's U by
# 3.1 but declared with mu 2.8
def affine_d50_mislabelled():
    cfg = affine_d50()
    method = cfg["methods"][0]
    cfg["methods"] = [
        dict(method, T={"op": "relax", "lambda": 1.6,
                        "of": {"op": "projection", "set": 0}}),
        dict(method, name="q", U={"op": "relax", "lambda": 3.1,
                                  "of": {"op": "projection", "set": 1}})]
    return cfg


AFFINE_D50_MISLABELLED_PROBE_LINES = """\
PROBE p.cutter.PA PASS margin=-7.65647e-17 samples=2000 seed=4
PROBE p.cutter.PB PASS margin=-5.30825e-16 samples=2000 seed=4
PROBE p.relaxed-cutter.T FAIL margin=-2.05077 samples=2000 seed=4
PROBE p.relaxed-cutter.U PASS margin=-1.06581e-14 samples=2000 seed=4
PROBE p.demicontraction.T FAIL margin=-3.41796 samples=2000 seed=4
PROBE p.demicontraction.U PASS margin=-7.10543e-15 samples=2000 seed=4
PROBE p.product.cutter PASS margin=0.127717 samples=2000 seed=4
PROBE p.lb1 FAIL margin=-0.610397 samples=2000 seed=4
PROBE p.lb2 PASS margin=1.75502 samples=2000 seed=4
PROBE p.fejer FAIL margin=-6.2698e+16 samples=4001 seed=-
PROBE p.fejer-dc FAIL margin=-1.54158e+32 samples=2000 seed=-
PROBE p.rate SKIP margin=-inf samples=0 seed=-
PROBE q.cutter.PA PASS margin=-7.65647e-17 samples=2000 seed=4
PROBE q.cutter.PB PASS margin=-5.30825e-16 samples=2000 seed=4
PROBE q.relaxed-cutter.T PASS margin=-1.77636e-15 samples=2000 seed=4
PROBE q.relaxed-cutter.U FAIL margin=-2.87717 samples=2000 seed=4
PROBE q.demicontraction.T PASS margin=-3.55271e-15 samples=2000 seed=4
PROBE q.demicontraction.U FAIL margin=-2.05512 samples=2000 seed=4
PROBE q.product.cutter PASS margin=0.21249 samples=2000 seed=4
PROBE q.lb1 PASS margin=0.800162 samples=2000 seed=4
PROBE q.lb2 PASS margin=1.83441 samples=2000 seed=4
PROBE q.fejer PASS margin=7.17097e-12 samples=403 seed=-
PROBE q.fejer-dc FAIL margin=-9.13566e-09 samples=201 seed=-
PROBE q.rate PASS margin=1.92451e-11 samples=201 seed=-
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
    (affine_d50_mislabelled(), AFFINE_D50_MISLABELLED_PROBE_LINES, 4),
    (BOXES, BOXES_PROBE_LINES, 0),
], ids=["paper", "affine-d5", "mislabelled-t", "affine-d50",
        "affine-d50-mislabelled", "boxes"])
def test_verify_probe_lines_golden(tmp_path, capsys, overrides, expected, code):
    # the full lines, margins included, as the probes printed them when
    # each drew its own ball sample and evaluated its own operator images
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    assert main(["verify", str(cfg)]) == code
    assert capsys.readouterr().out == expected


def test_verify_keeps_at_most_six_sample_sized_arrays_alive(tmp_path, capsys):
    # the floor is at product.cutter: X, T(X), U(T(X)), the product's
    # image, x - P and z - P; each (2000, 50) array is 0.8 MB
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **affine_d50())
    assert main(["verify", str(cfg)]) == 0  # lazy imports and caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(["verify", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == 2 * AFFINE_D50_PROBE_LINES
    assert peak <= 6.5 * 2000 * 50 * 8


def test_verify_peaks_below_five_sample_sized_arrays(tmp_path, capsys):
    # the probes' margins run on blocks of at most 256 KiB, 655 rows of a
    # (2000, 50) array: at product.cutter X, T(X), U(T(X)) and the
    # product's image are whole, and the two differences block-sized
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **affine_d50())
    assert main(["verify", str(cfg)]) == 0  # lazy imports and caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(["verify", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == 2 * AFFINE_D50_PROBE_LINES
    assert peak <= 5.0 * 2000 * 50 * 8


def test_verify_projects_the_sample_once_per_image(tmp_path, monkeypatch):
    # two affine sets meeting in a point: a product method's battery needs
    # P_A(X), P_B(X), T(X), U(X) and U(T(X)) once each, and the
    # intersection oracle (an AffineSubspace too) projects the sample once,
    # for lb2 and kappa_hat both (lambda != mu, so lb2 is not skipped).
    # Operators bind the raw _project, and the public project calls it, so
    # it is _project that is counted, patched before the config is loaded
    sample_batches = []
    project = AffineSubspace._project

    def counted(self, x):
        if x.ndim == 2 and len(x) == 300:
            sample_batches.append(self)
        return project(self, x)

    monkeypatch.setattr(AffineSubspace, "_project", counted)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **dict(AFFINE_D5, problem={"sets": [
        {"type": "affine", "anchor": [1, 0, 0, 0, 0],
         "basis": [[0.6, 0.8, 0, 0, 0], [0, 0, 1, 0, 0]]},
        {"type": "affine", "anchor": [0, 0, 0, 0, 2],
         "basis": [[0, 0, 0, 1, 0], [0.8, 0, 0, 0, 0.6], [0, 1, 0, 0, 0]]}]}))
    assert main(["verify", str(cfg)]) == 0
    assert 0 < len(sample_batches) <= 6
