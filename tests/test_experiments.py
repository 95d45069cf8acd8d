import importlib
import inspect
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (bloch_ball_images, family_spec, load_bundled,
                     random_density, random_hamiltonian_spec, random_unitary)
from stroblim import HamiltonianSpec, InitialState, basis_ket
from stroblim.exact import steps_in
from stroblim.experiments import (ComparisonReport, Scenario, ScenarioError,
                                  closed_form_applicable, compare_case,
                                  compare_scenario, convergence_sweep,
                                  run_method)


class TestScenario:
    def test_omega_consistency(self):
        sc = load_bundled("swap_selective")
        assert abs(sc.omega - 1.0) < 1e-12

    def test_methods_by_mode(self):
        assert load_bundled("swap_selective", mode="selective").methods == ("exact",)
        assert load_bundled("swap_selective", mode="limit-only").methods == ("limit",)
        assert load_bundled("swap_selective").methods == ("exact", "limit")
        assert load_bundled("swap_nonselective").methods == (
            "exact", "limit", "closed_form")

    def test_closed_form_gate(self):
        assert closed_form_applicable(load_bundled("swap_nonselective"))
        assert not closed_form_applicable(load_bundled("swap_selective"))

    def test_grid_must_align_with_tau(self):
        from dataclasses import replace
        sc = load_bundled("swap_selective")
        with pytest.raises(ValueError):
            replace(sc, grid_points=37)

    def test_bad_mode_and_outputs(self):
        from dataclasses import replace
        sc = load_bundled("swap_selective")
        with pytest.raises(ValueError):
            replace(sc, mode="stochastic")
        with pytest.raises(ValueError):
            replace(sc, outputs=("qubits",))

    def test_scaled_hamiltonian_must_be_finite(self):
        # every Scenario checks gamma h and Omega h^2 = gamma^2 tau h^2, so the
        # scaled scenarios of a sweep do too; numpy warnings are errors here
        sc = load_bundled("swap_selective")
        with pytest.raises(ScenarioError,
                           match=r"^scenario key 'hamiltonian': gamma \* h overflows"):
            replace(sc, hamiltonian=sc.hamiltonian.with_gamma(np.inf))
        with pytest.raises(ScenarioError, match=r"^scenario key 'hamiltonian': "
                                                r"Omega \* h\^2 overflows .* gamma = 1e\+200"):
            replace(sc, hamiltonian=sc.hamiltonian.with_gamma(1e200))

    def test_closed_form_check_follows_the_scale_check(self):
        # closed_form_applicable scales h; an overflowing gamma h is named
        # first, and no numpy warning escapes
        sc = load_bundled("swap_nonselective")
        with pytest.raises(ScenarioError, match=r"gamma \* h overflows") as err:
            replace(sc, hamiltonian=sc.hamiltonian.with_gamma(np.inf),
                    methods_spec=("exact", "closed_form"))
        assert err.value.key == "hamiltonian"

    @pytest.mark.parametrize("mode", ["selective", "compare"])
    def test_an_ill_scaled_period_is_refused_when_an_exact_method_runs(self, mode):
        # gamma = tau = 1e10 give ||tau H||_1 = 1e20 for the swap, beyond the
        # linalg.EXPM_MAX_NORM1 = theta_18 2^63 = 1.0e19 that the exact
        # step's expm can scale; 1e18 is within it, and a limit-only scenario
        # takes no exact step
        sc = load_bundled("swap_selective")

        def scaled(x, mode):
            return replace(sc, hamiltonian=sc.hamiltonian.with_gamma(x), tau=x,
                           t_max=x, grid_points=1, mode=mode)

        with pytest.raises(ScenarioError, match=r"^scenario key 'hamiltonian': .*"
                           r"ill-scaled input \(1-norm 1\.000e\+20\)") as err:
            scaled(1e10, mode)
        assert err.value.key == "hamiltonian"
        assert scaled(1e9, mode).methods[0] == "exact"
        assert scaled(1e10, "limit-only").methods == ("limit",)

    @pytest.mark.parametrize("mode", ["limit-only", "compare"])
    @pytest.mark.parametrize("key", ["tau", "t_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_tau_and_t_max_must_be_finite_and_positive(self, mode, key, value):
        # refused under its own key on construction: a NaN must neither wait
        # for a method to fail nor read as an overflow of Omega h^2
        sc = load_bundled("swap_selective")
        with pytest.raises(ScenarioError, match=f"^scenario key '{key}': {key} must be "
                                                "a finite positive number") as err:
            replace(sc, mode=mode, **{key: value})
        assert err.value.key == key
        assert err.value.reason == f"{key} must be a finite positive number, got {value!r}"

    def test_unsupported_initial_probe_is_rejected_on_construction(self):
        # the support rule of the selective runners, InitialState.probe_block,
        # applies before anything runs; a non-selective scenario takes any
        # probe state
        tilted = InitialState.from_kets(basis_ket("u"), [0.6, 0.8])
        with pytest.raises(ValueError, match=r"supported in range\(P\)"):
            replace(load_bundled("swap_selective"), initial=tilted)
        replace(load_bundled("swap_nonselective"), initial=tilted)

    @pytest.mark.parametrize("tolerance", [-1.0, 0.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be a finite positive"):
            replace(load_bundled("swap_selective"), tolerance=tolerance)

    def test_methods_spec_validated(self):
        from dataclasses import replace
        sc = load_bundled("swap_selective")
        with pytest.raises(ValueError):
            replace(sc, methods_spec=("exact", "magic"))
        with pytest.raises(ValueError):
            replace(sc, methods_spec=("closed_form",))
        # a repeated method would compare a run with itself and pass at 0
        for methods, reason in [(("exact", "exact"), "each method may appear once"),
                                (("exact", "limit", "limit"), "each method may appear once"),
                                ((), "expected at least one method")]:
            with pytest.raises(ScenarioError,
                               match=f"^scenario key 'methods': {reason}") as err:
                replace(sc, methods_spec=methods)
            assert err.value.key == "methods"


class TestRunners:
    def test_exact_and_limit_share_grid(self):
        sc = load_bundled("swap_selective", t_max=2.0)
        exact = run_method(sc, "exact")
        limit = run_method(sc, "limit")
        assert np.allclose(exact.times, limit.times)
        assert len(exact) == sc.grid_points + 1

    @pytest.mark.parametrize("t_max, grid_points", [
        pytest.param(2.0, 10, id="stride5"),
        # within the grid check's 1e-9 slack, but off the tau lattice
        pytest.param(2.0 - 1e-9, 50, id="below-lattice"),
        pytest.param(2.0 + 3e-10, 10, id="above-lattice"),
    ])
    def test_exact_samples_exactly_the_grid(self, t_max, grid_points):
        sc = load_bundled("swap_selective", t_max=t_max, grid_points=grid_points)
        exact = run_method(sc, "exact")
        assert len(exact) == grid_points + 1
        assert np.allclose(exact.times, sc.times)

    def test_compare_report(self):
        sc = load_bundled("swap_selective", t_max=2.0)
        report = compare_scenario(sc)
        case = report.cases[0]
        assert np.all(case.deviation >= 0)
        assert np.all(np.isfinite(case.deviation))
        assert report.max_deviation <= 0.02
        p_err = case.trajectories["exact"].p_err
        assert np.all(np.diff(p_err) >= -1e-12)

    def test_duplicate_method_zero_deviation(self):
        # ("exact", "exact") used to compare the oracle with itself and report
        # deviation 0; the scenario now refuses it before anything runs
        with pytest.raises(ScenarioError, match="each method may appear once") as err:
            load_bundled("swap_selective", t_max=2.0, methods_spec=("exact", "exact"))
        assert err.value.key == "methods"
        report = compare_scenario(load_bundled("swap_selective", t_max=2.0,
                                               methods_spec=("exact", "limit")))
        assert report.max_deviation > 0.0

    def test_deterministic_rerun(self):
        sc = load_bundled("heisenberg_local_fields", t_max=2.0)
        a = run_method(sc, "limit")
        b = run_method(sc, "limit")
        assert np.array_equal(a.times, b.times)
        for x, y in zip(a.states, b.states):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("dims, ranks", [((4, 8), (2, 2, 2, 2)),
                                             ((2, 5), (1, 3, 1)),
                                             ((3, 4), (2, 1, 1))])
    def test_nonselective_runs_agree_exactly_at_the_start(self, rng, dims, ranks):
        # the exact run and the semigroup read their t = 0 states off the
        # same packed start blocks, so both deviations are exactly 0 there
        ham = random_hamiltonian_spec(rng, *dims, gamma=5.0)
        cols = iter(random_unitary(rng, dims[1]).T)
        spec = family_spec([[next(cols) for _ in range(r)] for r in ranks])
        init = InitialState(random_density(rng, dims[0]),
                            random_density(rng, dims[1]))
        case = compare_case(Scenario("random", ham, spec, init, 0.04, 1.0, 5))
        assert case.deviation[0] == 0.0
        assert case.deviation_trace[0] == 0.0
        assert case.deviation_trace[1:].min() > 0.0

    def test_rank2_scenarios_stay_in_bloch_ball(self):
        for sc in (load_bundled("heisenberg_local_fields", t_max=2.0),
                   load_bundled("heisenberg_global_field", t_max=2.0)):
            for method in ("exact", "limit"):
                traj = run_method(sc, method)
                norms = np.linalg.norm(traj.bloch(), axis=1)
                assert np.all(norms <= 1.0 + 1e-8)


@pytest.mark.parametrize("name, method", [
    ("swap_selective", "exact"), ("swap_selective", "limit"),
    ("heisenberg_global_field", "exact"), ("heisenberg_global_field", "limit"),
    ("swap_nonselective", "exact"), ("swap_nonselective", "limit"),
    ("swap_nonselective", "closed_form"),
])
def test_states_are_one_stack(name, method):
    # every run_method path: exact selective and non-selective, Kraus,
    # semigroup and closed form
    sc = load_bundled(name, t_max=1.0, grid_points=5)
    traj = run_method(sc, method)
    n, t = sc.hamiltonian.dim_sys, len(sc.times)
    assert isinstance(traj.sys_states, np.ndarray)
    assert traj.sys_states.shape == (t, n, n)
    assert traj.times.shape == traj.norms.shape == (t,)
    assert isinstance(traj.states, np.ndarray)
    assert len(traj.states) == t


def bench_tracer(monkeypatch):
    """bench/tracer.py, whose per-layer timing patches stroblim functions by
    the names in its tables."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    return importlib.import_module("tracer")


def test_every_traced_name_is_a_function_of_its_module(monkeypatch):
    # a rename would otherwise fail only in the benchmark's traced runs
    layers = bench_tracer(monkeypatch).LAYERS
    assert {"selective_limit", "nonselective_limit"} <= set(layers)
    for layer, names in layers.items():
        module = importlib.import_module(f"stroblim.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"


@pytest.mark.parametrize("name, builder", [
    ("swap_selective", "selective_limit.effective_rankr"),
    ("swap_nonselective", "nonselective_limit.build_generator"),
])
def test_the_limit_calls_the_traced_builder(monkeypatch, name, builder):
    # the spans that fill the tracer's selective_limit.build_s and
    # nonselective_limit.build_s, patched in every module that binds them,
    # as the tracer does; a limit run calls its mode's builder once
    tracer = bench_tracer(monkeypatch)
    spans = (tracer.TIME_METRICS["selective_limit.build_s"]
             + tracer.TIME_METRICS["nonselective_limit.build_s"])
    calls = []

    def counting(span, real):
        def wrapper(*args, **kwargs):
            calls.append(span)
            return real(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sys.modules.items()
               if n.split(".")[0] == "stroblim" and m is not None]
    for span in spans:
        layer, fn = span.split(".")
        real = getattr(importlib.import_module(f"stroblim.{layer}"), fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting(span, real))
    run_method(load_bundled(name, t_max=1.0, grid_points=5), "limit")
    assert calls == [builder]


GRIDS = {"file": {}, "stride5": {"t_max": 2.0, "grid_points": 10},
         "stride500": {"tau": 2e-4, "t_max": 2.0, "grid_points": 20}}


@pytest.mark.parametrize("name, method, grid", [
    ("swap_selective", "exact", "file"), ("swap_selective", "limit", "file"),
    ("swap_nonselective", "exact", "file"), ("swap_nonselective", "limit", "file"),
    ("swap_nonselective", "closed_form", "file"),
    ("swap_selective", "limit", "stride5"), ("swap_nonselective", "limit", "stride5"),
    ("swap_nonselective", "closed_form", "stride5"),
    ("swap_selective", "exact", "stride5"), ("swap_nonselective", "exact", "stride5"),
    ("swap_selective", "exact", "stride500"), ("swap_nonselective", "exact", "stride500"),
])
def test_trajectory_times_are_the_scenario_grid(name, method, grid):
    # every method samples k * sc.step, bit for bit.  The exact runner steps
    # to the periods n = k * stride and reports the grid's times, not n * tau,
    # which differ from them in the last ulp at some strides (here 500 k * 2e-4
    # and k * 0.1, for k = 3, 6 and 12).
    sc = load_bundled(name, **GRIDS[grid])
    assert np.array_equal(run_method(sc, method).times, sc.times)
    assert np.array_equal(sc.times, np.arange(sc.grid_points + 1) * sc.step)


class TestSweep:
    def test_requires_two_taus(self):
        with pytest.raises(ValueError):
            convergence_sweep(load_bundled("swap_selective", t_max=2.0), [0.04])

    def test_requires_two_methods(self):
        sc = load_bundled("swap_selective", t_max=2.0, mode="limit-only")
        with pytest.raises(ValueError, match="at least two methods"):
            convergence_sweep(sc, [0.04, 0.01])

    def test_p_up_sweep_computes_no_trace_distance(self, monkeypatch):
        import stroblim.experiments as experiments

        def no_trace_distance(*args):
            raise AssertionError("a p_up sweep computed a trace distance")

        monkeypatch.setattr(experiments, "trace_distance", no_trace_distance)
        convergence_sweep(load_bundled("swap_selective", t_max=2.0), [0.04, 0.02])

    def test_a_p_up_sweep_sets_up_once_and_forms_no_state_stack(self, monkeypatch):
        # the exact and Kraus runs of every tau share one selected-range
        # layout and one start factor F, and the p_up metric reads the first
        # population off the factors, so no (T, d, d) system stack is formed;
        # both runs take their powers through the one factor_powers binding
        # of the branch run
        import stroblim.trajectory as trajectory
        from stroblim import Trajectory
        from stroblim.model import BlockLayout

        layouts, factors, runs = [], [], []
        make_layout = BlockLayout.__init__
        from_branch = Trajectory.from_branch.__func__
        powers = trajectory.factor_powers

        def counted_layout(self, *args):
            layouts.append(self)
            make_layout(self, *args)

        def factor_powers(m, f, ns):
            factors.append(f)
            return powers(m, f, ns)

        def kept(cls, *args, **kwargs):
            runs.append(from_branch(cls, *args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(BlockLayout, "__init__", counted_layout)
        monkeypatch.setattr(Trajectory, "from_branch", classmethod(kept))
        monkeypatch.setattr(trajectory, "factor_powers", factor_powers)
        taus = [0.04, 0.02, 0.01]
        report = convergence_sweep(load_bundled("swap_selective", t_max=2.0), taus)
        assert report.metric == "p_up"
        assert len(layouts) == 1
        assert len(factors) == 2 * len(taus)
        assert all(f is factors[0] for f in factors)
        assert len(runs) == 2 * len(taus)
        assert not any("sys_states" in vars(traj) for traj in runs)

    def test_a_nonselective_sweep_keeps_one_layout(self, monkeypatch):
        # the exact runs and the generators of every tau carry their blocks
        # on the one full layout that the measurement keeps
        from stroblim.model import BlockLayout

        layouts = []
        make_layout = BlockLayout.__init__

        def counted_layout(self, *args):
            layouts.append(self)
            make_layout(self, *args)

        monkeypatch.setattr(BlockLayout, "__init__", counted_layout)
        convergence_sweep(load_bundled("swap_nonselective", t_max=2.0),
                          [0.04, 0.02, 0.01])
        assert len(layouts) == 1

    def test_sweep_table_monotone(self):
        sc = load_bundled("swap_selective", t_max=2.0)
        report = convergence_sweep(sc, [0.04, 0.02])
        assert report.convergence is not None
        assert len(report.convergence) == 2
        assert report.strictly_decreasing
        assert report.convergence_ratios[0] > 1.0

    def test_ratios_over_a_zero_deviation(self):
        table = ((0.04, 2e-3), (0.02, 1e-3), (0.01, 0.0), (0.005, 0.0))
        report = ComparisonReport("x", "p_up", (), 2e-3, convergence=table)
        ratios = report.convergence_ratios
        assert ratios[:2] == (2.0, np.inf)
        assert np.isnan(ratios[2])
        assert not report.strictly_decreasing

    @pytest.mark.parametrize("name, taus", [
        ("swap_selective", [0.04, 0.02]),
        ("swap_nonselective", [0.04, 0.02]),
        ("heisenberg_local_fields", [0.04, 0.02]),
    ])
    def test_table_is_the_max_deviation_of_each_case(self, name, taus):
        # the sweep computes only the metric's series; each entry must still
        # be compare_case's max deviation for the same scaled scenario, bit
        # for bit (p_up for the swaps, bloch for the Heisenberg chain)
        sc = load_bundled(name, t_max=2.0)
        report = convergence_sweep(sc, taus)
        assert report.cases == ()
        for tau, dev in report.convergence:
            gamma = float(np.sqrt(sc.omega / tau))
            scaled = replace(sc, hamiltonian=HamiltonianSpec(gamma, sc.hamiltonian.terms),
                             tau=tau, grid_points=steps_in(sc.t_max, tau))
            assert dev == compare_case(scaled).max_deviation
        assert report.max_deviation == max(d for _, d in report.convergence)

    @pytest.mark.parametrize("tau", [0.0, -0.01, math.nan, math.inf])
    def test_non_positive_or_non_finite_tau_refused(self, tau):
        # named with its tau, before gamma is scaled: no numpy warning escapes
        # the square root, and no division by zero
        with pytest.raises(ValueError, match=rf"^tau={tau:g}: tau must be a finite "
                                             "positive number"):
            convergence_sweep(load_bundled("swap_selective"), [0.04, tau])

    def test_bad_tau_refused_before_any_case_runs(self, monkeypatch):
        import stroblim.experiments as experiments

        def no_case(*args, **kwargs):
            raise AssertionError("a case ran before every tau was checked")

        monkeypatch.setattr(experiments, "run_method", no_case)
        with pytest.raises(ValueError, match=r"tau=1e-300: t_max/tau = 1e\+301"):
            convergence_sweep(load_bundled("swap_selective"), [0.04, 1e-300])


class TestSnapshots:
    def test_bloch_ball_contraction(self):
        snaps = bloch_ball_images(0.1, [0.0, 5.0], n_polar=3, n_azimuth=4)
        start, later = snaps[0.0], snaps[5.0]
        assert np.allclose(np.linalg.norm(start, axis=1), 1.0, atol=1e-12)
        assert np.all(np.linalg.norm(later, axis=1) <= 1.0 + 1e-12)
        assert np.linalg.norm(later, axis=1).mean() < 0.999
