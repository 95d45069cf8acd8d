from dataclasses import replace

import numpy as np
import pytest

from helpers import bloch_ball_images, load_bundled
from stroblim import HamiltonianSpec
from stroblim.exact import steps_in
from stroblim.experiments import (ComparisonReport, closed_form_applicable,
                                  compare_case, compare_scenario,
                                  convergence_sweep, run_method)


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

    def test_methods_spec_validated(self):
        from dataclasses import replace
        sc = load_bundled("swap_selective")
        with pytest.raises(ValueError):
            replace(sc, methods_spec=("exact", "magic"))
        with pytest.raises(ValueError):
            replace(sc, methods_spec=("closed_form",))


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
        assert case.p_err is not None
        assert np.all(np.diff(case.p_err) >= -1e-12)

    def test_duplicate_method_zero_deviation(self):
        sc = load_bundled("swap_selective", t_max=2.0,
                          methods_spec=("exact", "exact"))
        report = compare_scenario(sc)
        assert report.max_deviation == 0.0

    def test_deterministic_rerun(self):
        sc = load_bundled("heisenberg_local_fields", t_max=2.0)
        a = run_method(sc, "limit")
        b = run_method(sc, "limit")
        assert np.array_equal(a.times, b.times)
        for x, y in zip(a.states, b.states):
            assert np.array_equal(x, y)

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
    n, t = traj.dims.total, len(sc.times)
    assert isinstance(traj.states, np.ndarray)
    assert traj.states.shape == (t, n, n)
    assert traj.times.shape == traj.norms.shape == (t,)
    assert traj.sys_states.shape == (t, traj.dims.dim_sys, traj.dims.dim_sys)


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
