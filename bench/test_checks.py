"""Each benchmark check accepts real cutterkit output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest bench -q
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cutterkit  # noqa: E402
from cutterkit import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _sweep(kind):
    w = workloads.Sweep(cutterkit, 7, None)
    task = next(t for t in w.tasks
                if t["problem"]["kind"] == kind and t["fn"] == "iterate")
    return w, task, w.run(task)


def test_sweep_accepts_real_trajectory():
    for kind in ("affine", "halfspace-ball", "ball-box", "halfspace-box"):
        _, task, trace = _sweep(kind)
        assert checks.check_sweep(task["problem"], trace.iterates,
                                  trace.final_residual) == []


def test_sweep_rejects_moved_final_iterate():
    _, task, trace = _sweep("affine")
    xs = trace.iterates.copy()
    xs[-1] += 1e-5
    errs = checks.check_sweep(task["problem"], xs, trace.final_residual)
    assert any("final error" in e for e in errs)


def test_sweep_rejects_infeasible_final_iterate():
    _, task, trace = _sweep("halfspace-ball")
    half = task["problem"]["sets"][0]
    assert half["type"] == "halfspace"
    n = np.asarray(half["normal"])  # unit normal of {x : n.x <= offset}
    xs = trace.iterates.copy()
    xs[-1] += (half["offset"] - xs[-1] @ n + 1e-3) * n
    errs = checks.check_sweep(task["problem"], xs, trace.final_residual)
    assert any("from set 0" in e for e in errs)


def test_sweep_rejects_fejer_violation():
    _, task, trace = _sweep("affine")
    xs = trace.iterates.copy()
    k = len(xs) // 2
    xs[k] = xs[k - 1] + 2.0 * (xs[k - 1] - xs[-1])
    errs = checks.check_sweep(task["problem"], xs, trace.final_residual)
    assert any("Fejer" in e for e in errs)


def test_reformulated_run_matches_and_mismatch_is_caught():
    w = workloads.Sweep(cutterkit, 7, None)
    direct, reform = w.tasks[0], w.tasks[1]
    assert reform["fn"] == "iterate_reformulated"
    a, b = w.run(direct).iterates, w.run(reform).iterates
    assert checks.check_same_trajectory(a, b) == []
    b = b.copy()
    b[3] *= 1.0 + 1e-6
    assert checks.check_same_trajectory(a, b)


@pytest.fixture
def run_task(tmp_path):
    """A d = 2 run-io task with its outputs written, so both SVGs exist."""
    w = workloads.RunIo(cutterkit, 3, str(tmp_path))
    task = next(t for t in w.tasks if len(t["doc"]["x0"]) == 2)
    assert w.run(task) == 0
    return w, task


def _csv_path(task, method=0):
    doc = task["doc"]
    return os.path.join(doc["outputs"]["csv"], doc["methods"][method]["name"] + ".csv")


def test_run_outputs_pass(run_task):
    _, task = run_task
    assert checks.check_run_outputs(task["doc"], 0) == []


def _edit_cell(path, row, col, edit):
    lines = Path(path).read_text().split("\n")
    cells = lines[row].split(",")
    cells[col] = edit(cells[col])
    lines[row] = ",".join(cells)
    Path(path).write_text("\n".join(lines))


def _bump_digit(cell, position):
    """Change the digit at the given index among the cell's digits."""
    idx = [i for i, c in enumerate(cell) if c.isdigit()][position]
    return cell[:idx] + str((int(cell[idx]) + 1) % 10) + cell[idx + 1:]


def test_run_rejects_one_changed_coordinate_digit(run_task):
    _, task = run_task
    _edit_cell(_csv_path(task), 5, 1, lambda c: _bump_digit(c, 4))
    errs = checks.check_run_outputs(task["doc"], 0)
    assert any("recurrence" in e for e in errs)


def test_run_rejects_last_digit_of_error_cell(run_task):
    _, task = run_task
    # err_norm is the column after residual: k, x_0, x_1, residual, err_norm
    _edit_cell(_csv_path(task), 7, 4, lambda c: _bump_digit(c, 15))
    errs = checks.check_run_outputs(task["doc"], 0)
    assert any("log10_err" in e for e in errs)


def test_run_rejects_missing_polyline_and_broken_svg(run_task):
    _, task = run_task
    out = task["doc"]["outputs"]["svg"]
    traj = Path(out, "trajectories.svg")
    text = traj.read_text()
    first = text.index("<polyline")
    traj.write_text(text[:first] + text[text.index("/>", first) + 2:])
    assert any("polylines" in e for e in checks.check_run_outputs(task["doc"], 0))
    errp = Path(out, "errors.svg")
    errp.write_text(errp.read_text()[:-20])
    assert any("errors.svg" in e for e in checks.check_run_outputs(task["doc"], 0))


def test_run_rejects_truncated_csv_and_report(run_task):
    _, task = run_task
    path = Path(_csv_path(task))
    path.write_text(path.read_text()[:-1])  # drop the final newline
    errs = checks.check_run_outputs(task["doc"], 0)
    assert any("final newline" in e for e in errs)
    report = Path(task["doc"]["outputs"]["report"])
    report.write_text(report.read_text().replace("final_error=", "final_error "))
    errs = checks.check_run_outputs(task["doc"], 0)
    assert any("malformed" in e for e in errs)


def test_check_that_raises_is_a_wrong_output():
    import worker

    class Raising:
        tasks = [{"name": "t0"}]

        def run(self, task):
            return None

        def check(self, task, out):
            raise KeyError("final_error")

    stats = {"attempted": 0, "failed": 0, "errors": [], "failures": []}
    worker.run_round(Raising(), [0], None, stats)
    assert stats["attempted"] == 1 and stats["failed"] == 0
    assert any("KeyError" in e for e in stats["errors"])


def _verify_tasks(tmp_path):
    """The first product-only, paper and negative-control tasks."""
    w = workloads.Verify(cutterkit, 4, str(tmp_path))
    return [next(t for t in w.tasks if t["name"].startswith(kind))
            for kind in ("product", "paper", "negative")]


def _call(path):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["verify", path])
    return code, out.getvalue()


def test_verify_valid_configs_pass_and_fail_line_is_caught(tmp_path):
    for task in _verify_tasks(tmp_path)[:2]:
        code, text = _call(task["path"])
        assert checks.check_verify(task["expect"], code, text) == (False, [])
        bad = text.replace(" PASS ", " FAIL ", 1)
        failed, errs = checks.check_verify(task["expect"], code, bad)
        assert any("not PASS" in e for e in errs)
        dropped = "\n".join(text.splitlines()[1:])
        assert checks.check_verify(task["expect"], code, dropped)[1]


def test_verify_negative_control(tmp_path):
    task = _verify_tasks(tmp_path)[2]
    assert "must_fail" in task["expect"]
    code, text = _call(task["path"])
    assert code == 4
    assert checks.check_verify(task["expect"], code, text) == (False, [])
    # a negative control that exits 0 is a failed task
    failed, errs = checks.check_verify(task["expect"], 0, text)
    assert failed and errs
    # exiting 4 without the named probe failing is a wrong output
    cleared = text.replace(f"{task['expect']['must_fail']} FAIL",
                           f"{task['expect']['must_fail']} PASS")
    failed, errs = checks.check_verify(task["expect"], 4, cleared)
    assert not failed and errs


def test_bench_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "tmp", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_verify_reports_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {m["name"] for m in spec["per_layer"]} == set(result["metrics"])
    # MAP and DR in verify run 1292 and 2000 steps; 239 of them are useful
    frac = result["metrics"]["engine.verify_baseline_useful_step_frac"]["value"]
    assert frac == pytest.approx(239 / 3292)
