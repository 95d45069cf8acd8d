import numpy as np
import pytest

from stroblim.experiments import (bloch_ball_images,
                                  closed_form_applicable,
                                  compare_scenario, convergence_sweep,
                                  heisenberg_global_field_scenario,
                                  heisenberg_local_fields_scenario, run_method,
                                  swap_nonselective_scenario,
                                  swap_selective_scenario)


class TestScenario:
    def test_omega_consistency(self):
        sc = swap_selective_scenario(0.2, gamma=5.0, tau=0.04)
        assert abs(sc.omega - 1.0) < 1e-12

    def test_methods_by_mode(self):
        assert swap_selective_scenario(mode="selective").methods == ("exact",)
        assert swap_selective_scenario(mode="limit-only").methods == ("limit",)
        assert swap_selective_scenario(mode="compare").methods == ("exact", "limit")
        assert swap_nonselective_scenario(mode="compare").methods == (
            "exact", "limit", "closed_form")

    def test_closed_form_gate(self):
        assert closed_form_applicable(swap_nonselective_scenario())
        assert not closed_form_applicable(swap_selective_scenario())

    def test_grid_must_align_with_tau(self):
        from dataclasses import replace
        sc = swap_selective_scenario()
        with pytest.raises(ValueError):
            replace(sc, grid_points=37)

    def test_bad_mode_and_outputs(self):
        from dataclasses import replace
        sc = swap_selective_scenario()
        with pytest.raises(ValueError):
            replace(sc, mode="stochastic")
        with pytest.raises(ValueError):
            replace(sc, outputs=("qubits",))

    def test_methods_spec_validated(self):
        from dataclasses import replace
        sc = swap_selective_scenario()
        with pytest.raises(ValueError):
            replace(sc, methods_spec=("exact", "magic"))
        with pytest.raises(ValueError):
            replace(sc, methods_spec=("closed_form",))


class TestRunners:
    def test_exact_and_limit_share_grid(self):
        sc = swap_selective_scenario(0.2, t_max=2.0)
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
        from dataclasses import replace
        sc = replace(swap_selective_scenario(0.2, t_max=2.0), t_max=t_max,
                     grid_points=grid_points)
        exact = run_method(sc, "exact")
        assert len(exact) == grid_points + 1
        assert np.allclose(exact.times, sc.times)

    def test_compare_report(self):
        sc = swap_selective_scenario(0.2, t_max=2.0)
        report = compare_scenario(sc)
        case = report.cases[0]
        assert np.all(case.deviation >= 0)
        assert np.all(np.isfinite(case.deviation))
        assert report.max_deviation <= 0.02
        assert case.p_err is not None
        assert np.all(np.diff(case.p_err) >= -1e-12)

    def test_duplicate_method_zero_deviation(self):
        from dataclasses import replace
        sc = replace(swap_selective_scenario(0.2, t_max=2.0),
                     methods_spec=("exact", "exact"))
        report = compare_scenario(sc)
        assert report.max_deviation == 0.0

    def test_deterministic_rerun(self):
        sc = heisenberg_local_fields_scenario(t_max=2.0)
        a = run_method(sc, "limit")
        b = run_method(sc, "limit")
        assert np.array_equal(a.times, b.times)
        for x, y in zip(a.states, b.states):
            assert np.array_equal(x, y)

    def test_rank2_scenarios_stay_in_bloch_ball(self):
        for sc in (heisenberg_local_fields_scenario(t_max=2.0),
                   heisenberg_global_field_scenario(t_max=2.0)):
            for method in ("exact", "limit"):
                traj = run_method(sc, method)
                norms = np.linalg.norm(traj.bloch(), axis=1)
                assert np.all(norms <= 1.0 + 1e-8)


class TestSweep:
    def test_requires_two_taus(self):
        with pytest.raises(ValueError):
            convergence_sweep(swap_selective_scenario(0.2, t_max=2.0), [0.04])

    def test_sweep_table_monotone(self):
        sc = swap_selective_scenario(0.2, t_max=2.0)
        report = convergence_sweep(sc, [0.04, 0.02])
        assert report.convergence is not None
        assert len(report.convergence) == 2
        assert report.strictly_decreasing
        assert report.convergence_ratios[0] > 1.0


class TestSnapshots:
    def test_bloch_ball_contraction(self):
        snaps = bloch_ball_images(0.1, [0.0, 5.0], n_polar=3, n_azimuth=4)
        start, later = snaps[0.0], snaps[5.0]
        assert np.allclose(np.linalg.norm(start, axis=1), 1.0, atol=1e-12)
        assert np.all(np.linalg.norm(later, axis=1) <= 1.0 + 1e-12)
        assert np.linalg.norm(later, axis=1).mean() < 0.999
