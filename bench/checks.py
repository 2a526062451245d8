"""Output checks for the benchmark, written with numpy alone.

Nothing here imports cutterkit: projections, the composite relaxation
nu, the limit P_{A n B}(x0) and the recurrences are recomputed from the
set descriptions, so a fault in cutterkit cannot hide in its own check.
Sets are described by the dictionaries of the config format
({"type": "hyperplane", "normal": ..., "offset": ...} and so on).

Each check returns a list of messages; an empty list means the output
passed.
"""

from __future__ import annotations

import math
import os
import xml.etree.ElementTree as ET

import numpy as np

# Final error allowed for an affine sweep task, against ||x0 - x*||.  A
# stop at residual <= 1e-10 with Friedrichs angle >= 0.35 leaves an
# error far below this (see README).
SWEEP_ERR_BOUND = 1e-7
SWEEP_RESIDUAL_TOL = 1e-10
FEASIBLE_TOL = 1e-8
# Roundoff allowed when a recomputed value is compared with a recorded
# one, relative to the scale of the problem.
RECOMPUTE_RTOL = 1e-10
SVG_NS = "{http://www.w3.org/2000/svg}"


def nu(lam: float, mu: float) -> float:
    """Composite relaxation 4(lam + mu - lam mu) / (4 - lam mu)."""
    return 4.0 * (lam + mu - lam * mu) / (4.0 - lam * mu)


def _orthonormal(rows, d):
    rows = np.asarray(rows, dtype=float).reshape(-1, d)
    if rows.shape[0] == 0:
        return np.zeros((d, 0))
    u, s, _ = np.linalg.svd(rows.T, full_matrices=False)
    return u[:, s > 1e-12 * max(s.max(), 1.0)]


def project(spec: dict, x: np.ndarray) -> np.ndarray:
    """Metric projection of the rows of x onto the set described by spec."""
    kind = spec["type"]
    if kind in ("hyperplane", "halfspace"):
        n = np.asarray(spec["normal"], dtype=float)
        s = (x @ n - spec["offset"]) / (n @ n)
        if kind == "halfspace":
            s = np.maximum(s, 0.0)
        return x - np.multiply.outer(s, n)
    if kind == "affine":
        a = np.asarray(spec["anchor"], dtype=float)
        q = _orthonormal(spec.get("basis", []), a.size)
        return a + ((x - a) @ q) @ q.T
    if kind == "ball":
        c = np.asarray(spec["center"], dtype=float)
        v = x - c
        n = np.linalg.norm(v, axis=-1, keepdims=True)
        return c + v * np.minimum(1.0, spec["radius"] / np.maximum(n, 1e-300))
    if kind == "box":
        return np.clip(x, spec["lo"], spec["hi"])
    raise ValueError(f"unknown set type {kind!r}")


def distance(spec: dict, x: np.ndarray) -> np.ndarray:
    return np.linalg.norm(x - project(spec, x), axis=-1)


def _constraints(spec: dict, d: int):
    """Rows M and right-hand side c with {x : M x = c} = the affine set."""
    if spec["type"] == "hyperplane":
        return np.asarray(spec["normal"], dtype=float)[None, :], \
            np.array([float(spec["offset"])])
    a = np.asarray(spec["anchor"], dtype=float)
    q = _orthonormal(spec.get("basis", []), d)
    m = np.linalg.svd(q, full_matrices=True)[0][:, q.shape[1]:].T \
        if q.shape[1] else np.eye(d)
    return m, m @ a


def affine_limit(specs, x0) -> np.ndarray:
    """P_{A n B}(x0) for two affine sets: x0 - M^+ (M x0 - c) with the
    constraints of both sets stacked."""
    x0 = np.asarray(x0, dtype=float)
    rows, rhs = zip(*(_constraints(s, x0.size) for s in specs))
    m, c = np.vstack(rows), np.concatenate(rhs)
    return x0 - np.linalg.lstsq(m, m @ x0 - c, rcond=None)[0]


def is_affine(specs) -> bool:
    return all(s["type"] in ("hyperplane", "affine") for s in specs)


def unique_solution(specs, d):
    """The single point of A n B when both sets are affine and meet in a
    point, else None."""
    if not is_affine(specs):
        return None
    m = np.vstack([_constraints(s, d)[0] for s in specs])
    if np.linalg.matrix_rank(m) < d:
        return None
    return affine_limit(specs, np.zeros(d))


def step_operator(specs, method: dict):
    """(W, coeff_at) of one method: x^{k+1} = x^k + coeff_k (W(x^k) - x^k)."""
    a, b = specs[0], specs[1]
    driver = method["driver"]
    if driver == "map":
        lam, mu, coeff_at = 1.0, 1.0, (lambda k: 1.0)
    elif driver == "dr":
        lam, mu, coeff_at = 2.0, 2.0, (lambda k: 0.5)
    else:
        lam, mu = float(method["lambda"]), float(method["mu"])
        n = nu(lam, mu)
        alpha = method.get("alpha", 1.0)
        if isinstance(alpha, list):
            coeff_at = (lambda k: alpha[k] / n)
        else:
            coeff_at = (lambda k: float(alpha) / n)

    def w(x):
        tx = x + lam * (project(a, x) - x)
        return tx + mu * (project(b, tx) - tx)

    return w, coeff_at


def check_sweep(problem: dict, iterates: np.ndarray, final_residual: float):
    """Checks of one sweep task: convergence, the Fejer property, the
    limit P_{A n B}(x0) for affine pairs and feasibility otherwise."""
    errs = []
    specs = problem["sets"]
    x0 = np.asarray(problem["x0"], dtype=float)
    xs = np.asarray(iterates, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != x0.size or xs.shape[0] < 2:
        return [f"trajectory has shape {xs.shape}"]
    if not np.array_equal(xs[0], x0):
        errs.append("trajectory does not start at x0")
    if not final_residual <= SWEEP_RESIDUAL_TOL:
        errs.append(f"final residual {final_residual:.3e} > {SWEEP_RESIDUAL_TOL}")
    # any point of A n B is a Fejer anchor: the limit for affine pairs,
    # the common point the sets were built around otherwise
    affine = is_affine(specs)
    anchor = affine_limit(specs, x0) if affine else \
        np.asarray(problem["common_point"], dtype=float)
    scale = 1.0 + np.linalg.norm(x0) + np.linalg.norm(anchor)
    dist = np.linalg.norm(xs - anchor, axis=1)
    worst = float(np.max(np.diff(dist)))
    if worst > RECOMPUTE_RTOL * scale:
        errs.append(f"||x^k - w|| increases by {worst:.3e} (Fejer)")
    if affine:
        bound = SWEEP_ERR_BOUND * np.linalg.norm(x0 - anchor)
        if not dist[-1] <= bound:
            errs.append(f"final error {dist[-1]:.3e} > {bound:.3e}")
    else:
        for i, s in enumerate(specs):
            gap = float(distance(s, xs[-1]))
            if not gap <= FEASIBLE_TOL:
                errs.append(f"final iterate is {gap:.3e} from set {i}")
    return errs


def check_same_trajectory(direct: np.ndarray, reformulated: np.ndarray):
    """iterate with alpha_k and iterate_reformulated with abar_k =
    alpha_k / nu must take the same steps."""
    a, b = np.asarray(direct), np.asarray(reformulated)
    if a.shape != b.shape:
        return [f"trajectories differ in shape: {a.shape} vs {b.shape}"]
    gap = float(np.max(np.abs(a - b)))
    if gap > RECOMPUTE_RTOL * (1.0 + float(np.max(np.abs(a)))):
        return [f"trajectories differ by {gap:.3e}"]
    return []


def read_csv(path):
    """Header and cell strings of a trace CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "":
        raise ValueError("missing final newline")
    rows = [ln.split(",") for ln in lines[1:-1]]
    return lines[0].split(","), rows


def check_trace_csv(path, specs, method, x0, iterations, solution):
    """Re-check a run CSV: the header, every transition against the
    recurrence, every residual, err_norm and log10_err cell."""
    d = len(x0)
    try:
        header, rows = read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    want = ["k"] + [f"x_{j}" for j in range(d)] + ["residual"]
    if solution is not None:
        want += ["err_norm", "log10_err"]
    if header != want:
        return [f"{path}: header {header[:4]}... is not the schema"]
    if not 2 <= len(rows) <= iterations + 1:
        return [f"{path}: {len(rows)} rows for {iterations} iterations"]
    errs = []
    try:
        ks = [int(r[0]) for r in rows]
        xs = np.array([[float(c) for c in r[1:1 + d]] for r in rows])
        res = np.array([float(r[1 + d]) for r in rows[:-1]])
    except (ValueError, IndexError) as exc:
        return [f"{path}: unparsable cell ({exc})"]
    if ks != list(range(len(rows))):
        errs.append(f"{path}: k column is not 0..{len(rows) - 1}")
    if any(len(r) != len(want) for r in rows) or rows[-1][1 + d] != "":
        errs.append(f"{path}: ragged rows or a residual in the final row")
    if len(rows) < iterations + 1 and res[-1] > 1e-300:
        errs.append(f"{path}: stopped early at residual {res[-1]:.3e}")
    if not np.array_equal(xs[0], np.asarray(x0, dtype=float)):
        errs.append(f"{path}: row 0 is not x0")
    w, coeff_at = step_operator(specs, method)
    wx = w(xs[:-1])
    coeff = np.array([coeff_at(k) for k in range(len(rows) - 1)])
    scale = 1.0 + np.max(np.abs(xs), axis=1)
    step_gap = np.max(np.abs(xs[:-1] + coeff[:, None] * (wx - xs[:-1]) - xs[1:]), axis=1)
    bad = np.nonzero(step_gap > RECOMPUTE_RTOL * scale[1:])[0]
    if bad.size:
        errs.append(f"{path}: transition {bad[0]} -> {bad[0] + 1} breaks the "
                    f"recurrence by {step_gap[bad[0]]:.3e}")
    res_gap = np.abs(np.linalg.norm(wx - xs[:-1], axis=1) - res)
    bad = np.nonzero(res_gap > RECOMPUTE_RTOL * scale[:-1])[0]
    if bad.size:
        errs.append(f"{path}: residual of row {bad[0]} is off by {res_gap[bad[0]]:.3e}")
    if solution is not None:
        try:
            err = np.array([float(r[2 + d]) for r in rows])
            lg = [float(r[3 + d]) for r in rows]
        except (ValueError, IndexError) as exc:
            return errs + [f"{path}: unparsable error cell ({exc})"]
        true = np.linalg.norm(xs - solution, axis=1)
        bad = np.nonzero(np.abs(true - err) > RECOMPUTE_RTOL * scale)[0]
        if bad.size:
            errs.append(f"{path}: err_norm of row {bad[0]} is off by "
                        f"{abs(true[bad[0]] - err[bad[0]]):.3e}")
        # the writer formats log10 of the very float it wrote as err_norm,
        # and 17 digits round-trip, so the two cells must agree exactly
        for k, (e, l10) in enumerate(zip(err, lg)):
            if l10 != (math.log10(e) if e > 0 else -math.inf):
                errs.append(f"{path}: log10_err of row {k} is not log10(err_norm)")
                break
    return errs


def check_svg(path, labels):
    """The SVG parses as XML and has one polyline and one legend label
    per plotted method."""
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path}: {exc}"]
    if root.tag != SVG_NS + "svg":
        return [f"{path}: root element is {root.tag}"]
    lines = root.findall(f"{SVG_NS}polyline")
    texts = [t.text for t in root.findall(f"{SVG_NS}text")]
    errs = []
    if len(lines) != len(labels):
        errs.append(f"{path}: {len(lines)} polylines for {len(labels)} methods")
    if any(label not in texts for label in labels):
        errs.append(f"{path}: legend lacks a method label")
    return errs


def check_run_outputs(config: dict, exit_code: int):
    """Checks of one `cutterkit run` task on the files it wrote."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    specs = config["problem"]["sets"]
    x0 = config["x0"]
    d = len(x0)
    solution = unique_solution(specs, d)
    out = config["outputs"]
    names = [m["name"] for m in config["methods"]]
    errs = []
    final_rows = {}
    for m in config["methods"]:
        path = os.path.join(out["csv"], m["name"] + ".csv")
        csv_errs = check_trace_csv(path, specs, m, x0, config["iterations"], solution)
        errs += csv_errs
        if not csv_errs:
            final_rows[m["name"]] = read_csv(path)[1]
    traj = os.path.join(out["svg"], "trajectories.svg")
    if d == 2:
        errs += check_svg(traj, names)
    elif os.path.exists(traj):
        errs.append(f"{traj}: written for a {d}-dimensional problem")
    errp = os.path.join(out["svg"], "errors.svg")
    if solution is not None:
        errs += check_svg(errp, names)
    elif os.path.exists(errp):
        errs.append(f"{errp}: written without a known solution")
    try:
        with open(out["report"], "r", encoding="utf-8") as fh:
            report = fh.read().splitlines()
    except OSError as exc:
        return errs + [f"report: {exc}"]
    for name, rows in final_rows.items():
        prefix = f"method {name}: steps={len(rows) - 1} final_residual="
        line = next((ln for ln in report if ln.startswith(f"method {name}:")), "")
        if not line.startswith(prefix):
            errs.append(f"report line for {name} does not match its CSV")
            continue
        try:
            cells = dict(kv.split("=", 1) for kv in line.split(": ", 1)[1].split())
            residual = float(cells["final_residual"])
            error = float(cells["final_error"]) if solution is not None else None
        except (KeyError, ValueError) as exc:
            errs.append(f"report line for {name} is malformed ({exc!r})")
            continue
        if residual != float(rows[-2][1 + d]):
            errs.append(f"report residual for {name} does not match its CSV")
        if solution is not None and error != float(rows[-1][2 + d]):
            errs.append(f"report error for {name} does not match its CSV")
    return errs


def parse_probes(output: str):
    """{probe name: status} from the PROBE lines of a verify report."""
    found = {}
    for line in output.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "PROBE":
            found[parts[1]] = parts[2]
    return found


def check_verify(expect: dict, exit_code: int, output: str):
    """(failed, messages) of one `cutterkit verify` task.

    expect["probes"] names every PROBE line the config must report.  A
    valid config must exit 0 with every non-SKIP probe PASS.  A negative
    control (expect["must_fail"] names the mislabelled probe) must exit 4
    with that probe FAIL; exiting 0 is a failed task.
    """
    probes = parse_probes(output)
    errs = []
    missing = sorted(set(expect["probes"]) - set(probes))
    if missing or len(probes) != len(expect["probes"]):
        errs.append(f"probes missing or unexpected: {missing or sorted(probes)}")
    named = expect.get("must_fail")
    if named is not None:
        if exit_code != 4:
            return True, errs + [f"negative control exited {exit_code}, not 4"]
        if probes.get(named) != "FAIL":
            errs.append(f"negative control: {named} is {probes.get(named)}, not FAIL")
        return False, errs
    bad = sorted(n for n, s in probes.items() if s not in ("PASS", "SKIP"))
    if bad:
        errs.append(f"probes not PASS: {bad}")
    return exit_code != 0, errs + ([f"exit code {exit_code}"] if exit_code else [])
