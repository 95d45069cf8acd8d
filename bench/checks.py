"""Output checks behind `failed`/`attempted`: one call per CLI run.

A run fails on a nonzero exit, a FAIL verdict, a sweep that is not strictly
decreasing or not first order in tau, a broken state invariant (trace,
Hermiticity, positivity, purity, branch probability), a deviation above the
scenario tolerance, or, at a seed with a recorded reference, a max
deviation more than REF_TOL away from it.  The checker reads only what the command wrote
(stdout and CSV files) and recomputes the run workload's deviation from the
`matrix` columns itself.
"""

from __future__ import annotations

import os

import numpy as np

REF_TOL = 1e-10
STATE_TOL = 1e-10

# max_deviation references at each workload's default seed (full size only).
# selective_sweep does not depend on the seed; its per-tau values are kept.
REFERENCES = {
    "selective_sweep": (0.0031558149459721685, 0.0007846529205453034,
                        0.0001958931944858744, 4.8956468014393906e-05),
    "nonselective_d32": 0.005108206409160042,
    "selective_long_d16": 0.0007552963543582153,
}


class CheckError(Exception):
    """An output misses its check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _read_csv(path: str) -> dict:
    """Columns of a CLI CSV as float arrays (the `method` column as strings)."""
    _require(os.path.isfile(path), f"missing output {os.path.basename(path)}")
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    _require(bool(lines), f"{os.path.basename(path)}: empty")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    _require(rows and all(len(r) == len(header) for r in rows),
             f"{os.path.basename(path)}: ragged or without rows")
    cols = {}
    for k, name in enumerate(header):
        values = [r[k] for r in rows]
        cols[name] = values if name == "method" else np.array(
            [float(v) if v else np.nan for v in values])
    return cols


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((d + d.conj().T) / 2))))


def _sys_states(cols: dict) -> np.ndarray:
    d = int(round(np.sqrt(sum(1 for c in cols if c.startswith("re_")))))
    _require(d >= 1, "no matrix columns")
    out = np.empty((len(cols["t"]), d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            out[:, i, j] = cols[f"re_{i}_{j}"] + 1j * cols[f"im_{i}_{j}"]
    return out


def _check_states(label: str, cols: dict, rhos: np.ndarray, times: np.ndarray) -> None:
    _require(np.allclose(cols["t"], times, rtol=0, atol=1e-12),
             f"{label}: sample times off the grid")
    tr = np.einsum("kii->k", rhos)
    _require(np.max(np.abs(tr - 1.0)) <= STATE_TOL, f"{label}: trace != 1")
    herm = np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1)))
    _require(herm <= STATE_TOL, f"{label}: state not Hermitian")
    lowest = min(float(np.linalg.eigvalsh(r)[0]) for r in rhos)
    _require(lowest >= -1e-8, f"{label}: state not positive ({lowest:.3g})")
    purity = np.einsum("kij,kji->k", rhos, rhos).real
    _require(np.max(np.abs(purity - cols["purity"])) <= STATE_TOL,
             f"{label}: purity column disagrees with the matrix")
    p = cols["trace_unnormalized"]
    _require(bool(np.all((p > 0) & (p <= 1 + STATE_TOL))), f"{label}: branch probability out of (0, 1]")
    _require(bool(np.all(np.diff(p) <= STATE_TOL)), f"{label}: branch probability increases")
    _require(np.max(np.abs(cols["p_err"] - (1 - p))) <= STATE_TOL, f"{label}: p_err != 1 - trace")


def _check_sweep(doc, stdout, out_dir, taus, reference) -> float:
    _require("strictly decreasing: yes" in stdout, "sweep not strictly decreasing")
    cols = _read_csv(os.path.join(out_dir, f"{doc['name']}_sweep.csv"))
    _require(np.allclose(cols["tau"], taus, rtol=0, atol=1e-15), "sweep taus differ")
    devs = cols["max_deviation"]
    _require(bool(np.all(np.diff(devs) < 0)), "sweep CSV not strictly decreasing")
    # O(tau) convergence: the deviation falls by about the tau ratio.
    expect = np.array(taus[:-1]) / np.array(taus[1:])
    ratio = devs[:-1] / devs[1:]
    _require(bool(np.all(np.abs(ratio / expect - 1) < 0.25)),
             f"sweep is not first order in tau (ratios {ratio})")
    if reference is not None:
        _require(np.max(np.abs(devs - np.array(reference))) <= REF_TOL,
                 f"sweep deviations {devs.tolist()} moved from the reference")
    return float(devs.max())


def _check_compare(doc, stdout, out_dir, reference) -> float:
    _require(": PASS" in stdout, "compare verdict is not PASS")
    cols = _read_csv(os.path.join(out_dir, f"{doc['name']}_compare.csv"))
    times = np.arange(doc["grid_points"] + 1) * (doc["t_max"] / doc["grid_points"])
    _require(np.allclose(cols["t"], times, rtol=0, atol=1e-12), "compare grid differs")
    for key in ("deviation", "deviation_trace"):
        _require(bool(np.all((cols[key] >= 0) & (cols[key] <= 1))), f"{key} out of [0, 1]")
    dev = float(cols["deviation"].max())
    if reference is not None:
        _require(abs(dev - reference) <= REF_TOL,
                 f"max deviation {dev!r} moved from the reference")
    return dev


def _check_run(doc, out_dir, reference) -> float:
    times = np.arange(doc["grid_points"] + 1) * (doc["t_max"] / doc["grid_points"])
    rhos = {}
    for method in ("exact", "limit"):
        cols = _read_csv(os.path.join(out_dir, f"{doc['name']}_{method}.csv"))
        _require(set(cols["method"]) == {method}, f"{method}: wrong method tag")
        rhos[method] = _sys_states(cols)
        _check_states(method, cols, rhos[method], times)
    dev = max(_trace_distance(a, b) for a, b in zip(rhos["exact"], rhos["limit"]))
    if reference is not None:
        _require(abs(dev - reference) <= REF_TOL,
                 f"max deviation {dev!r} moved from the reference")
    return dev


def check_run(workload, doc: dict, cli_args, exit_code: int, stdout: str,
              out_dir: str, reference) -> float:
    """Check one CLI run; return its max deviation or raise CheckError."""
    _require(exit_code == 0, f"exit code {exit_code}")
    if workload.command == "sweep":
        taus = [float(t) for t in cli_args[cli_args.index("--tau") + 1].split(",")]
        dev = _check_sweep(doc, stdout, out_dir, taus, reference)
    elif workload.command == "compare":
        dev = _check_compare(doc, stdout, out_dir, reference)
    else:
        dev = _check_run(doc, out_dir, reference)
    tol = doc["tolerances"]["max_deviation"]
    _require(0 < dev <= tol, f"max deviation {dev:.6g} outside (0, {tol:g}]")
    return dev
