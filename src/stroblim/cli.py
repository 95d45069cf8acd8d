"""Command-line front end: scenario files in, CSV datasets and SVG plots out.

Commands: run, compare, sweep, plot, declared once in the table COMMANDS,
one row each: handler, help, positionals and options (flag, dest, type,
default and whether it extends a list).  `build_parser` builds the argparse
tree from it, but `main` first reads argv straight from the table
(`read_argv`), which accepts only canonical argv: exact flags, as
`--flag value` or `--flag=value`, the exact positional count, every value
parsing as its type (an int, a float, or for `--tau` a comma-separated list
of floats).  Any other argv (help, `--`, abbreviations, unknown flags,
usage errors) falls back to argparse, so messages and exit codes are
argparse's, and a canonical command builds no parser.  A parsed command is
one call: its row's handler, given the parsed names as keywords (`--tau` as
one flat list of floats).  The CLI checks no flag value's range: `run` and
`compare` put `--grid-points` and `--tolerance` into the `Scenario`, whose
error is reported as "argument --flag: <reason>", and `sweep` hands `--tau`
to `convergence_sweep`, whose error names its tau, "tau=<tau>: <reason>".
`compare` judges the `CaseComparison` that `compare_scenario` returns,
`sweep` the `Sweep` of `convergence_sweep`.
`main` returns the exit code in every case, also for help and argparse's
usage errors.  Exit codes are a stable contract for scripting: 0 success
(and PASS verdicts), 1 FAIL verdicts, 2 usage or schema errors, 3 runtime
failures (vanishing outcome probability, out of memory).
Every schema error names the scenario key it concerns: "scenario key
'<key>': <reason>".  The CLI checks JSON types and shapes; `Scenario` checks
every other rule, once, and keys its own errors.

Scenario files are JSON with complex numbers as [re, im] pairs and kets given
either as amplitude lists or as 'u'/'d' label strings.  Exactly two of
{gamma, tau, omega} must be given (or all three, with gamma^2 tau within
1e-12 * max(1, |omega|) of omega).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .experiments import (Scenario, ScenarioError, compare_scenario,
                          convergence_sweep, run_method)
from .model import (HamiltonianSpec, InitialState, basis_ket,
                    heisenberg3_hamiltonian, measurement_from_kets,
                    swap_hamiltonian)
from .trajectory import Trajectory, VanishingProbabilityError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


# ---------------------------------------------------------------------------
# Scenario file parsing.


def _keyed(key: str, check, *args):
    """check(*args), its ValueError reported under the scenario key `key`."""
    try:
        return check(*args)
    except ValueError as err:
        raise ScenarioError(key, str(err)) from None


def _parse_int(key: str, node) -> int:
    """An integer, also given as an integral float; booleans are rejected."""
    if isinstance(node, float) and node.is_integer():
        return int(node)
    if isinstance(node, bool) or not isinstance(node, int):
        raise ScenarioError(key, "expected an integer")
    return node


def _parse_float(key: str, node) -> float:
    """A finite number; booleans, strings, NaN and infinities are rejected."""
    if (isinstance(node, bool) or not isinstance(node, (int, float))
            or not abs(node) <= sys.float_info.max):   # NaN compares false
        raise ScenarioError(key, "expected a finite number")
    return float(node)


def float_list(text: str) -> list[float]:
    """Type of --tau: a comma-separated list of numbers."""
    return [float(v) for v in text.split(",") if v]


def _parse_complex_matrix(key: str, node) -> np.ndarray:
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(key, "expected a matrix of [re, im] pairs")
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ScenarioError(key, "expected a square matrix of [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _parse_ket(key: str, node) -> np.ndarray:
    if isinstance(node, str):
        return _keyed(key, basis_ket, node)
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(key, "expected a label string or a list of [re, im] pairs")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ScenarioError(key, "expected a label string or a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _parse_state(key: str, node) -> np.ndarray:
    """Density matrix from {'ket': ...} or {'matrix': ...}."""
    if not isinstance(node, dict):
        raise ScenarioError(key, "expected an object with a 'ket' or 'matrix' entry")
    if "ket" in node:
        psi = _parse_ket(f"{key}.ket", node["ket"])
        n = np.linalg.norm(psi)
        if n <= 0:
            raise ScenarioError(key, "ket must be non-zero")
        psi = psi / n
        return np.outer(psi, psi.conj())
    if "matrix" in node:
        return _parse_complex_matrix(f"{key}.matrix", node["matrix"])
    raise ScenarioError(key, "expected a 'ket' or 'matrix' entry")


def _parse_hamiltonian(node, gamma: float) -> HamiltonianSpec:
    if not isinstance(node, dict):
        raise ScenarioError("hamiltonian", "expected an object")
    if "builder" in node:
        builder = node["builder"]
        if builder == "swap":
            return swap_hamiltonian(gamma)
        if builder == "heisenberg3":
            field = node.get("field", "local_xyz")
            return _keyed("hamiltonian.field", heisenberg3_hamiltonian, gamma, field)
        raise ScenarioError("hamiltonian.builder", f"unknown builder {builder!r}")
    if "terms" in node:
        if not isinstance(node["terms"], list):
            raise ScenarioError("hamiltonian.terms",
                                "expected a list of {'a': ..., 'b': ...}")
        terms = []
        for k, term in enumerate(node["terms"]):
            if not isinstance(term, dict) or "a" not in term or "b" not in term:
                raise ScenarioError(f"hamiltonian.terms[{k}]",
                                    "expected {'a': ..., 'b': ...}")
            terms.append((_parse_complex_matrix(f"hamiltonian.terms[{k}].a", term["a"]),
                          _parse_complex_matrix(f"hamiltonian.terms[{k}].b", term["b"])))
        return _keyed("hamiltonian.terms", HamiltonianSpec, gamma, tuple(terms))
    raise ScenarioError("hamiltonian", "expected a 'builder' or 'terms' entry")


def _resolve_rates(doc) -> tuple[float, float]:
    """(gamma, tau) from any consistent two of gamma / tau / omega; the
    derived gamma, tau and omega = gamma^2 tau must be finite, tau positive."""
    have = {k: _parse_float(k, doc[k]) for k in ("gamma", "tau", "omega") if k in doc}
    if "tau" in have and have["tau"] <= 0:
        raise ScenarioError("tau", "must be positive")
    if "omega" in have and have["omega"] < 0:
        raise ScenarioError("omega", "must be non-negative")
    if len(have) < 2:
        raise ScenarioError("gamma/tau/omega", "exactly two of the three are required")
    gamma, tau = have.get("gamma"), have.get("tau")
    if len(have) == 3:
        omega = have["omega"]
        if abs(gamma * gamma * tau - omega) > 1e-12 * max(1.0, abs(omega)):
            raise ScenarioError("omega", "inconsistent with gamma^2 * tau")
    elif gamma is None:
        gamma = math.sqrt(have["omega"] / tau)
    elif tau is None:
        if gamma == 0:
            raise ScenarioError("gamma",
                                "cannot derive tau from omega when gamma is zero")
        if have["omega"] == 0:
            raise ScenarioError("omega", "must be positive when tau is derived from it")
        tau = have["omega"] / (gamma * gamma) if gamma * gamma else math.inf
    for key, value in (("gamma", gamma), ("tau", tau), ("omega", gamma * gamma * tau)):
        if not (math.isfinite(value) and (key != "tau" or value > 0)):
            raise ScenarioError(key, f"comes out as {value:g} from the given rates, "
                                f"expected a finite {'positive ' if key == 'tau' else ''}"
                                "number")
    return gamma, tau


def scenario_from_dict(doc) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(None, "scenario document must be a JSON object")
    for key in ("name", "mode", "hamiltonian", "projectors", "initial_sys",
                "initial_pr", "t_max", "grid_points"):
        if key not in doc:
            raise ScenarioError(key, "missing required key")
    name = doc["name"]
    # The name is the stem of every output file.
    if (not isinstance(name, str) or name in ("", ".", "..")
            or set(name) & set("/\\\0")):
        raise ScenarioError("name",
                            "expected a non-empty file name without path separators")
    gamma, tau = _resolve_rates(doc)
    ham = _parse_hamiltonian(doc["hamiltonian"], gamma)

    projs = doc["projectors"]
    if not isinstance(projs, list) or not projs:
        raise ScenarioError("projectors", "expected a non-empty list of ket lists")
    groups = []
    for i, group in enumerate(projs):
        if not isinstance(group, list) or not group:
            raise ScenarioError(f"projectors[{i}]", "expected a non-empty ket list")
        groups.append([_parse_ket(f"projectors[{i}][{j}]", k)
                       for j, k in enumerate(group)])
    selected = doc.get("selected_index")
    if selected is not None:
        selected = _parse_int("selected_index", selected)
    meas = _keyed("projectors", measurement_from_kets, groups, selected)

    rho_sys = _parse_state("initial_sys", doc["initial_sys"])
    rho_pr = _parse_state("initial_pr", doc["initial_pr"])
    init = _keyed("initial_sys/initial_pr", InitialState, rho_sys, rho_pr)

    outputs = doc.get("outputs", ["p_up"])
    if not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        raise ScenarioError("outputs", "expected a list of output names")
    tolerances = doc.get("tolerances")
    if tolerances is None:
        tolerances = {}
    elif not isinstance(tolerances, dict):
        raise ScenarioError("tolerances", "expected an object")
    tolerance = _parse_float("tolerances.max_deviation",
                             tolerances.get("max_deviation", Scenario.tolerance))
    t_max = _parse_float("t_max", doc["t_max"])
    grid_points = _parse_int("grid_points", doc["grid_points"])
    methods = doc.get("methods")
    if methods is not None and (not isinstance(methods, list)
                                or not all(isinstance(m, str) for m in methods)):
        raise ScenarioError("methods", "expected a list of method names")
    return Scenario(name=name, hamiltonian=ham, measurement=meas, initial=init,
                    tau=tau, t_max=t_max, grid_points=grid_points, mode=str(doc["mode"]),
                    outputs=tuple(outputs), tolerance=tolerance,
                    methods_spec=tuple(methods) if methods is not None else None)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ScenarioError(None, f"cannot read scenario file: {err}")
    except json.JSONDecodeError as err:
        raise ScenarioError(None, f"scenario file is not valid JSON "
                            f"(line {err.lineno}, column {err.colno}): {err.msg}")
    return scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# CSV emission and parsing.


# A number to 17 significant digits, which reads back as the same float.
_NUM = "%.17g"


def trajectory_columns(traj: Trajectory, outputs) -> tuple[list[str], list[list[float]]]:
    """Column names and per-sample rows for the requested outputs."""
    names: list[str] = ["t"]
    series: list[np.ndarray] = [np.asarray(traj.times, dtype=float)]

    def add(name, values):
        names.append(name)
        series.append(np.asarray(values, dtype=float))

    if "p_up" in outputs:
        add("p_up", traj.p_up())
    if "bloch" in outputs:
        bl = traj.bloch()
        for k in range(3):
            add(f"r{k + 1}", bl[:, k])
    if "purity" in outputs:
        add("purity", traj.purities())
    if "trace" in outputs:
        add("trace_unnormalized", traj.norms)
    if "p_err" in outputs:
        add("p_err", traj.p_err)
    if "matrix" in outputs:
        s = traj.sys_states
        for i in range(s.shape[-1]):
            for j in range(s.shape[-1]):
                add(f"re_{i}_{j}", s[:, i, j].real)
                add(f"im_{i}_{j}", s[:, i, j].imag)
    return names, np.column_stack(series).tolist()


def _write_csv(path: str, names, rows, cells=None) -> None:
    """The one CSV writer: a header of names, then one line per row, made by
    one % operation with the cell formats `cells` (by default, every cell a
    number to 17 significant digits)."""
    line = ",".join(cells or [_NUM] * len(names)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def write_trajectory_csv(path: str, traj: Trajectory, outputs, method: str) -> None:
    names, rows = trajectory_columns(traj, outputs)
    _write_csv(path, names + ["method"], rows,
               [_NUM] * len(names) + [method.replace("%", "%%")])


def read_csv(path: str, columns=None) -> tuple[list[str], list[dict]]:
    """Parse a trajectory CSV back into float columns plus the method tag:
    every column of the header, or those named in `columns`."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("CSV file is empty")
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError("CSV row width does not match header")
        rows.append({name: value if name == "method" else float(value)
                     for name, value in zip(header, parts)
                     if columns is None or name in columns or name == "method"})
    return header, rows


# ---------------------------------------------------------------------------
# SVG rendering.

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H, _MARGIN = 640, 480, 60


def _svg_scale(lo: float, hi: float, extent: int):
    span = hi - lo if hi > lo else 1.0

    def to_px(v: float) -> float:
        return _MARGIN + (v - lo) / span * (extent - 2 * _MARGIN)

    return to_px


def render_chart(series, x_label: str, y_label: str) -> str:
    """Standalone SVG line chart; series is a list of (label, xs, ys)."""
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x_px = _svg_scale(float(xs_all.min()), float(xs_all.max()), _W)
    y_px = _svg_scale(float(ys_all.min()), float(ys_all.max()), _H)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 16}" text-anchor="middle" '
        f'font-size="14">{x_label}</text>',
        f'<text x="16" y="{_H // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {_H // 2})">{y_label}</text>',
    ]
    for bound in np.linspace(float(xs_all.min()), float(xs_all.max()), 5):
        parts.append(f'<text x="{x_px(bound):.6g}" y="{_H - _MARGIN + 18}" '
                     f'text-anchor="middle" font-size="11">{bound:.4g}</text>')
    for bound in np.linspace(float(ys_all.min()), float(ys_all.max()), 5):
        parts.append(f'<text x="{_MARGIN - 8}" y="{_H - y_px(bound):.6g}" '
                     f'text-anchor="end" font-size="11">{bound:.4g}</text>')
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{x_px(float(x)):.6g},{_H - y_px(float(y)):.6g}"
                       for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _MARGIN + 4}" y="{_MARGIN + 16 * idx + 4}" '
                     f'font-size="12" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Commands.


def _with_flag(sc: Scenario, **field) -> Scenario:
    """sc with the one field of a flag replaced, unless its value is None;
    a ScenarioError that the value causes is named by the flag."""
    (name, value), = field.items()
    if value is None:
        return sc
    try:
        return replace(sc, **field)
    except ScenarioError as err:
        flag = "--" + name.replace("_", "-")
        raise ValueError(f"argument {flag}: {err.reason}") from None


def cmd_run(scenario: str, out_dir: str, grid_points: int | None = None) -> int:
    sc = _with_flag(load_scenario(scenario), grid_points=grid_points)
    for method in sc.methods:
        traj = run_method(sc, method)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{sc.name}_{method}.csv")
        write_trajectory_csv(path, traj, sc.outputs, method)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_compare(scenario: str, out_dir: str, tolerance: float | None = None) -> int:
    sc = _with_flag(load_scenario(scenario), tolerance=tolerance)
    case = compare_scenario(sc)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{sc.name}_compare.csv")
    _write_csv(path, ["t", "deviation", "deviation_trace"],
               np.column_stack((case.times, case.deviation,
                                case.deviation_trace)).tolist())
    verdict = "PASS" if case.max_deviation <= sc.tolerance else "FAIL"
    print(f"{sc.name}: methods {'/'.join(sc.methods)}, metric {case.metric}")
    print(f"max deviation {case.max_deviation:.6g} vs tolerance {sc.tolerance:g}: {verdict}")
    print(f"wrote {path}")
    return EXIT_OK if verdict == "PASS" else EXIT_FAIL


def cmd_sweep(scenario: str, out_dir: str, tau: list[float]) -> int:
    sc = load_scenario(scenario)
    sweep = convergence_sweep(sc, tau)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{sc.name}_sweep.csv")
    ratios = ("",) + tuple(_NUM % r for r in sweep.convergence_ratios)
    _write_csv(path, ["tau", "max_deviation", "ratio_to_previous"],
               ((t, dev, ratio) for (t, dev), ratio
                in zip(sweep.convergence, ratios)), [_NUM, _NUM, "%s"])
    decreasing = sweep.strictly_decreasing
    print(f"{sc.name}: sweep over tau = {', '.join(f'{t:g}' for t, _ in sweep.convergence)}")
    for t, dev in sweep.convergence:
        print(f"  tau={t:g}  max deviation {dev:.6g}")
    print(f"strictly decreasing: {'yes' if decreasing else 'no'}")
    print(f"wrote {path}")
    return EXIT_OK if decreasing else EXIT_FAIL


_CHARTS = (("t", "p_up"), ("r1", "r3"), ("t", "deviation"))


def cmd_plot(csv: str, out_svg: str) -> int:
    try:
        header, rows = read_csv(csv, {name for xy in _CHARTS for name in xy})
    except (OSError, ValueError) as err:
        print(f"cannot plot {csv}: {err}", file=sys.stderr)
        return EXIT_USAGE
    if not rows:
        print("CSV has no data rows", file=sys.stderr)
        return EXIT_USAGE
    methods = sorted({row.get("method", "data") for row in rows})

    def series_for(x_key, y_key):
        out = []
        for m in methods:
            xs = [r[x_key] for r in rows if r.get("method", "data") == m]
            ys = [r[y_key] for r in rows if r.get("method", "data") == m]
            out.append((m, xs, ys))
        return out

    chart = next((xy for xy in _CHARTS if set(xy) <= set(header)), None)
    if chart is None:
        print("CSV has no plottable columns (need p_up, bloch components, "
              "or deviation)", file=sys.stderr)
        return EXIT_USAGE
    svg = render_chart(series_for(*chart), *chart)
    with open(out_svg, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    print(f"wrote {out_svg}")
    return EXIT_OK


# The command grammar, declared once: command -> (handler, help, positionals,
# options), each option (flag, dest, type, default, extends, help).
_OUT_DIR = ("--out-dir", "out_dir", str, ".", False, None)
COMMANDS = {
    "run": (cmd_run, "run a scenario, write one CSV per method", ("scenario",), (
        _OUT_DIR,
        ("--grid-points", "grid_points", int, None, False, None))),
    "compare": (cmd_compare, "run and compare methods, verdict PASS/FAIL", ("scenario",), (
        _OUT_DIR, ("--tolerance", "tolerance", float, None, False, None))),
    "sweep": (cmd_sweep, "tau-convergence sweep at fixed omega", ("scenario",), (
        _OUT_DIR,
        ("--tau", "tau", float_list, [], True,
         "tau value or comma-separated list; repeatable"))),
    "plot": (cmd_plot, "render a trajectory CSV as an SVG chart", ("csv", "out_svg"), ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stroblim",
        description="Simulate repeated-measurement dynamics and validate its "
                    "frequent-measurement closed forms.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, positionals, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in positionals:
            p.add_argument(name)
        for flag, dest, kind, default, extends, text in options:
            p.add_argument(flag, dest=dest, type=kind, help=text,
                           action="extend" if extends else "store",
                           default=list(default) if extends else default)
    return parser


def read_argv(argv) -> argparse.Namespace | None:
    """The Namespace of `build_parser().parse_args(argv)`, read straight from
    COMMANDS, for canonical argv only: a command, its exact positional count,
    and exact flags as `--flag value` or `--flag=value`, each value parsing
    as its type (no ValueError) and none starting with '-'.  None for any
    other argv (help, `--`, abbreviations, unknown flags, usage errors),
    which argparse parses and reports instead."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, _, positionals, options = COMMANDS[argv[0]]
    by_flag = {opt[0]: opt for opt in options}
    values = {dest: list(default) if extends else default
              for _, dest, _, default, extends, _ in options}
    given = []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            given.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        if not eq:
            value = next(rest, "-")     # a missing value is declined below
        if flag not in by_flag or value.startswith("-"):
            return None
        _, dest, kind, _, extends, _ = by_flag[flag]
        try:
            value = kind(value)
        except ValueError:
            return None
        if extends:
            values[dest].extend(value)
        else:
            values[dest] = value
    if len(given) != len(positionals):
        return None
    return argparse.Namespace(command=argv[0], **dict(zip(positionals, given)),
                              **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:   # help, or a usage error argparse reported
            return exc.code
    kwargs = vars(args)
    handler = COMMANDS[kwargs.pop("command")][0]
    try:
        return handler(**kwargs)
    except ScenarioError as err:
        print(f"scenario error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (VanishingProbabilityError, RuntimeError, MemoryError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
