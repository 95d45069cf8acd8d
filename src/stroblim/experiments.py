"""Scenario engine: exact-vs-limit comparisons and tau-convergence sweeps.

A `Scenario` fixes one run: Hamiltonian, measurement, initial state, tau and
the sample grid.  `run_method` produces its trajectory by the exact
interrupted evolution, by the frequent-measurement limit (the selective
`H1 - i H2` branch or the non-selective semigroup) or by the non-selective
closed form; `compare_scenario` returns the `CaseComparison` of the limits
with the exact run (its metric, deviation series and trajectories), and
`convergence_sweep` returns a `Sweep`, the table of its max over tau at
fixed Omega = gamma^2 tau, computed one tau at a time.  Everything is
deterministic: fixed grids, fixed-step integration, no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .exact import (EvolutionPlan, period_slack, run_nonselective,
                    run_selective, steps_in)
from .linalg import EXPM_MAX_NORM1, trace_distance
from .model import HamiltonianSpec, InitialState, MeasurementSpec
from .nonselective_limit import (build_generator, semigroup_propagate,
                                 swap_nonselective_closed_form)
from .selective_limit import effective_rankr, propagate_kraus
from .trajectory import Trajectory

OUTPUT_KEYS = ("p_up", "bloch", "purity", "trace", "p_err", "matrix")
MODES = ("selective", "nonselective", "limit-only", "compare")


class ScenarioError(ValueError):
    """A scenario violates the schema: `reason`, reported under the scenario
    file key `key` it concerns (None for the file as a whole)."""

    def __init__(self, key: str | None, reason: str) -> None:
        super().__init__(reason if key is None else f"scenario key '{key}': {reason}")
        self.key, self.reason = key, reason


@dataclass(frozen=True)
class Scenario:
    """One reproducible run configuration.

    Omega is implied by gamma (in the Hamiltonian) and tau.  When an exact
    method participates, the requested grid must hit integer multiples of tau,
    where exact and limit dynamics are directly comparable, and the period's
    exponential exp(-i tau H) needs ||tau H||_1 within `linalg.EXPM_MAX_NORM1`.
    A selective measurement needs the initial probe state supported in the
    selected range, by the rule of `InitialState.probe_block`.  `tolerance`,
    finite and positive, is the largest max deviation a comparison passes with.
    Construction checks every rule, once, and raises a `ScenarioError` under
    the scenario file key that a violated rule concerns.
    """

    name: str
    hamiltonian: HamiltonianSpec
    measurement: MeasurementSpec
    initial: InitialState
    tau: float
    t_max: float
    grid_points: int
    mode: str = "compare"
    outputs: tuple[str, ...] = ("p_up",)
    tolerance: float = 0.02
    methods_spec: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ScenarioError("mode", f"expected one of {MODES}, got {self.mode!r}")
        if self.mode == "selective" and not self.selective:
            raise ScenarioError("mode", "selective mode needs a selected_index")
        if self.mode == "nonselective" and self.selective:
            raise ScenarioError("mode", "nonselective mode must not set selected_index")
        for key, name, value in (("tau", "tau", self.tau),
                                 ("t_max", "t_max", self.t_max),
                                 ("tolerances.max_deviation", "tolerance", self.tolerance)):
            if not 0 < value < math.inf:     # NaN compares false
                raise ScenarioError(key, f"{name} must be a finite positive number, "
                                         f"got {value!r}")
        check_periods(self.t_max, self.tau)
        check_scale(self.hamiltonian, self.tau)     # before anything scales h
        unknown = set(self.outputs) - set(OUTPUT_KEYS)
        if unknown:
            raise ScenarioError("outputs", f"unknown outputs: {sorted(unknown)}")
        if "bloch" in self.outputs and self.hamiltonian.dim_sys != 2:
            raise ScenarioError("outputs", "output 'bloch' needs a qubit system, got "
                                f"dim_sys = {self.hamiltonian.dim_sys}")
        if self.measurement.dim_pr != self.hamiltonian.dim_pr:
            raise ScenarioError("projectors", "measurement and Hamiltonian probe "
                                "dimensions differ")
        if self.initial.dims != self.hamiltonian.dims:
            raise ScenarioError("initial_sys/initial_pr", "initial state does not match "
                                "Hamiltonian dimensions")
        if self.methods_spec is not None:
            bad = set(self.methods_spec) - {"exact", "limit", "closed_form"}
            if bad:
                raise ScenarioError("methods", f"unknown methods: {sorted(bad)}")
            if not self.methods_spec:
                raise ScenarioError("methods", "expected at least one method")
            if len(set(self.methods_spec)) < len(self.methods_spec):
                raise ScenarioError("methods", "each method may appear once, got "
                                    f"{list(self.methods_spec)}")
            if "closed_form" in self.methods_spec and not closed_form_applicable(self):
                raise ScenarioError("methods", "closed_form requested but the scenario "
                                    "does not match its preconditions")
        points = self.grid_points       # the rule of EvolutionPlan's n_steps
        if isinstance(points, bool) or not isinstance(points, (int, np.integer)):
            raise ScenarioError("grid_points", f"expected an integer, got {points!r}")
        if points < 1:
            raise ScenarioError("grid_points",
                                f"expected at least one grid point, got {points!r}")
        if self.selective:
            try:
                self.initial.probe_block(
                    self.measurement.bases[self.measurement.selected_index])
            except ValueError as err:
                raise ScenarioError("initial_pr", str(err)) from None
        if "exact" in self.methods:
            stride = self.grid_stride
            off = abs(stride - round(stride)) > period_slack(stride)
            if off or round(stride) < 1:
                raise ScenarioError("grid_points", "grid times must fall on integer "
                                    "multiples of tau when an exact method runs")
            with np.errstate(over="ignore"):        # an overflow reads inf
                norm1 = float(np.linalg.norm(self.tau * self.hamiltonian.assemble(), 1))
            if not norm1 <= EXPM_MAX_NORM1:
                raise ScenarioError("hamiltonian", "the exact period tau * H is "
                                    f"ill-scaled input (1-norm {norm1:.3e}), above "
                                    f"the {EXPM_MAX_NORM1:.3e} that expm can scale")

    @property
    def omega(self) -> float:
        return self.hamiltonian.gamma * self.hamiltonian.gamma * self.tau

    @property
    def selective(self) -> bool:
        return self.measurement.selective

    @property
    def step(self) -> float:
        return self.t_max / self.grid_points

    @property
    def grid_stride(self) -> float:
        return self.step / self.tau

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.grid_points + 1) * self.step

    @property
    def methods(self) -> tuple[str, ...]:
        if self.methods_spec is not None:
            return self.methods_spec
        if self.mode in ("selective", "nonselective"):
            return ("exact",)
        if self.mode == "limit-only":
            return ("limit",)
        methods = ["exact", "limit"]
        if not self.selective and closed_form_applicable(self):
            methods.append("closed_form")
        return tuple(methods)


def check_periods(t_max: float, tau: float) -> None:
    """ScenarioError under 't_max' unless t_max spans fewer than 2**53 periods
    tau, beyond which neither their count nor the tau lattice is exact."""
    if t_max / tau >= 2 ** 53:
        raise ScenarioError("t_max", f"t_max/tau = {t_max / tau:.3g} periods, "
                            "expected fewer than 2**53")


def check_scale(ham: HamiltonianSpec, tau: float) -> None:
    """ScenarioError under 'hamiltonian' unless gamma h and Omega h^2 are finite,
    Omega = gamma^2 tau, as the exact step and both limits scale h."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = ham.dimensionless()
        for name, x in (("gamma * h", ham.gamma * h),
                        ("Omega * h^2", ham.gamma * ham.gamma * tau * (h @ h))):
            if not np.all(np.isfinite(x)):
                raise ScenarioError("hamiltonian", f"{name} overflows to non-finite "
                                    f"entries at gamma = {ham.gamma:g}, tau = {tau:g}")


def closed_form_applicable(sc: Scenario) -> bool:
    """True when the non-selective closed form applies: qubit pair with pure
    exchange coupling, probe measured in its own basis and prepared in the
    first basis state."""
    ham = sc.hamiltonian
    if ham.dim_sys != 2 or ham.dim_pr != 2 or sc.measurement.selective:
        return False
    gamma = ham.gamma
    if gamma == 0:
        return False
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex)
    if np.max(np.abs(ham.assemble() - gamma * swap)) > 1e-10:
        return False
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    projs = sc.measurement.projectors
    if len(projs) != 2:
        return False
    if np.max(np.abs(projs[0] - up)) > 1e-10 or np.max(np.abs(projs[1] - down)) > 1e-10:
        return False
    return np.max(np.abs(sc.initial.rho_pr - up)) <= 1e-10


def run_method(sc: Scenario, method: str) -> Trajectory:
    ham, meas, init = sc.hamiltonian, sc.measurement, sc.initial
    if method == "exact":
        every = round(sc.grid_stride)
        plan = EvolutionPlan(ham, meas, sc.tau, every * sc.grid_points)
        run = run_selective if sc.selective else run_nonselective
        traj = run(plan, init, every=every)
        # sampled at the periods n = every * k, reported at the grid's k * step
        traj.times = sc.times
        return traj
    if method == "limit":
        if sc.selective:
            eff = effective_rankr(ham, meas, sc.tau)
            return propagate_kraus(eff, init, sc.step, sc.grid_points)
        eff = build_generator(ham, meas, sc.tau)
        return semigroup_propagate(eff, init, sc.step, sc.grid_points)
    if method == "closed_form":
        if not closed_form_applicable(sc):
            raise ValueError("closed form does not apply to this scenario")
        times = sc.times
        states = swap_nonselective_closed_form(ham.gamma, sc.omega, init.rho_sys, times)
        return Trajectory(times, states, np.ones(len(times)))
    raise ValueError(f"unknown method {method!r}")


@dataclass
class CaseComparison:
    """Deviation series, in `metric`, of every non-reference method against
    the reference, trajectories[reference]."""

    deviation: np.ndarray
    trajectories: dict
    reference: str
    metric: str

    @property
    def times(self) -> np.ndarray:
        return self.trajectories[self.reference].times

    @property
    def max_deviation(self) -> float:
        return float(self.deviation.max()) if self.deviation.size else 0.0

    @cached_property
    def deviation_trace(self) -> np.ndarray:
        """The deviation series in trace distance: `deviation` when that is
        the metric, else computed on first use."""
        if self.metric == "trace_distance":
            return self.deviation
        return _deviation("trace_distance", self.reference, self.trajectories)


@dataclass(frozen=True)
class Sweep:
    """The table of a tau sweep: (tau, max deviation) per tau, in run order."""

    convergence: tuple[tuple[float, float], ...]

    @property
    def convergence_ratios(self) -> tuple[float, ...]:
        """Each deviation over the next; over a zero deviation, inf, or nan
        when both are zero."""
        devs = [d for _, d in self.convergence]
        return tuple(a / b if b else (math.inf if a else math.nan)
                     for a, b in zip(devs[:-1], devs[1:]))

    @property
    def strictly_decreasing(self) -> bool:
        devs = [d for _, d in self.convergence]
        return all(a > b for a, b in zip(devs[:-1], devs[1:]))


def _metric_for(sc: Scenario) -> str:
    if "p_up" in sc.outputs:
        return "p_up"
    if "bloch" in sc.outputs:
        return "bloch"
    return "trace_distance"


def _series_deviation(metric: str, ref: Trajectory, other: Trajectory) -> np.ndarray:
    if metric == "p_up":
        return np.abs(ref.p_up() - other.p_up())
    if metric == "bloch":
        return np.linalg.norm(ref.bloch() - other.bloch(), axis=1)
    return trace_distance(ref.sys_states, other.sys_states)


def _deviation(metric: str, ref_name: str, trajs: dict) -> np.ndarray:
    """Per-sample max over the non-reference methods of their deviation."""
    ref = trajs[ref_name]
    dev = np.zeros(len(ref))
    for m, tr in trajs.items():
        if m != ref_name:
            dev = np.maximum(dev, _series_deviation(metric, ref, tr))
    return dev


def compare_case(sc: Scenario) -> CaseComparison:
    """Run every method of sc and compare it with the reference: the exact
    run when it takes part, else the first method.  ValueError for fewer
    than two methods."""
    methods = sc.methods
    if len(methods) < 2:
        raise ValueError("comparison needs a scenario with at least two methods "
                         "(mode 'compare')")
    trajs = {m: run_method(sc, m) for m in methods}
    ref_name = "exact" if "exact" in trajs else methods[0]
    metric = _metric_for(sc)
    return CaseComparison(_deviation(metric, ref_name, trajs), trajs, ref_name, metric)


def compare_scenario(sc: Scenario) -> CaseComparison:
    """The comparison of `stroblim compare`: `compare_case(sc)`."""
    return compare_case(sc)


def convergence_sweep(sc: Scenario, taus) -> Sweep:
    """Re-run a comparison scenario over a tau list at fixed Omega = gamma^2 tau
    (gamma recomputed per tau, on the Hamiltonian terms validated once) and
    tabulate the max deviation per tau.

    Only the table is computed: per tau, `compare_case`'s max deviation, with
    that tau's trajectories released before the next tau runs.  Each scaled
    scenario keeps the sign of sc's gamma.  The scaled scenarios share the
    measurement and the initial state, so a selective sweep builds the
    selected layout and the start factor once for every tau
    (`MeasurementSpec.selected_layout`, `InitialState.start_factor`), and its
    p_up metric reads the selective runs' factors without forming their
    system states.  Every tau is checked before the first case runs, and
    that case refuses a scenario with fewer than two methods (ValueError).
    """
    taus = [float(t) for t in taus]
    if len(taus) < 2:
        raise ValueError("convergence sweep needs at least two tau values")
    omega = sc.omega
    scaled = []
    # Every scaled scenario is validated before any case runs.
    for tau in taus:
        try:
            # before tau scales gamma and steps_in counts the periods
            if not 0 < tau < math.inf:
                raise ScenarioError("tau", "tau must be a finite positive number, "
                                           f"got {tau!r}")
            check_periods(sc.t_max, tau)
            periods = steps_in(sc.t_max, tau)
            if periods < 1:
                raise ScenarioError("tau", f"t_max = {sc.t_max:g} spans no whole "
                                           "period, expected tau <= t_max")
            gamma = math.copysign(math.sqrt(omega / tau), sc.hamiltonian.gamma)
            scaled.append(replace(sc, hamiltonian=sc.hamiltonian.with_gamma(gamma),
                                  tau=tau, grid_points=periods))
        except ScenarioError as err:
            raise ValueError(f"tau={tau:g}: {err.reason}") from None
    return Sweep(tuple((s.tau, compare_case(s).max_deviation) for s in scaled))
