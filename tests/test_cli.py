import json
import math
import re

import numpy as np
import pytest

from cutterkit.cli import main, paper_traces
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


def test_paper_traces_log_errors_strictly_decreasing():
    for name, tr in paper_traces(30):
        errs = np.asarray(tr.solution_errors)
        assert np.all(np.diff(np.log10(errs)) < 0), name


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
    paper_out = tmp_path / "paper"
    assert main(["example-paper", "--out", str(paper_out)]) == 0
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["run", str(cfg)]) == 0
    for name in ("map", "dr", "new"):
        assert (tmp_path / "out" / f"{name}.csv").read_bytes() == \
            (paper_out / f"{name}.csv").read_bytes()


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
