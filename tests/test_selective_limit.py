import re
from functools import partial

import numpy as np
import pytest

from helpers import (counting_expm, family_spec, load_bundled, random_density,
                     random_hamiltonian_spec, random_ket, random_projector_family,
                     random_unitary)
from ode import (nonlinear_density_rhs, nonlinear_state_rhs,
                 purity_derivative, rk4_sample)
from stroblim import (EvolutionPlan, HamiltonianSpec, InitialState,
                      MeasurementSpec, Trajectory, VanishingProbabilityError, basis_ket,
                      build_generator, effective_rank1, effective_rankr,
                      heisenberg3_hamiltonian, kron, measurement_from_kets,
                      pauli, propagate_kraus, run_selective, swap_hamiltonian,
                      trace_distance)
from stroblim.linalg import PROB_FLOOR, dag, expm, factor_powers, is_psd, max_abs

TAU = 0.04
GAMMA = 5.0
OMEGA = GAMMA ** 2 * TAU


def swap_eff():
    return effective_rank1(swap_hamiltonian(GAMMA), basis_ket("u"), TAU)


def embed_rankr(eff):
    """Lift compressed joint-space operators back to the full product space."""
    p = eff.layout.probe_bases[0]
    v = kron(np.eye(eff.layout.sizes[0] // p.shape[1]), p)
    return v @ eff.h1[0] @ dag(v), v @ eff.h2[0] @ dag(v)


class TestEffectiveRank1:
    def test_swap_structure(self):
        eff = swap_eff()
        assert max_abs(eff.h1[0] - GAMMA * np.diag([1.0, 0.0])) < 1e-12
        assert max_abs(eff.h2[0] - (OMEGA / 2) * np.diag([0.0, 1.0])) < 1e-12
        assert eff.omega == pytest.approx(OMEGA)

    def test_probe_decoupled_gives_zero_h2(self, rng):
        from helpers import random_hermitian
        a = random_hermitian(rng, 3, norm=1.0)
        ham = HamiltonianSpec(2.0, ((a, np.eye(2)),))
        eff = effective_rank1(ham, random_ket(rng, 2), 0.1)
        assert max_abs(eff.h1[0] - 2.0 * a) < 1e-12
        assert max_abs(eff.h2[0]) < 1e-14

    def test_probe_eigenvector_gives_zero_h2(self, rng):
        from helpers import random_hermitian
        terms = tuple((random_hermitian(rng, 2, norm=1.0), np.diag([1.0, -0.5]))
                      for _ in range(2))
        ham = HamiltonianSpec(1.5, terms)
        eff = effective_rank1(ham, basis_ket("u"), 0.2)
        assert max_abs(eff.h2[0]) < 1e-14

    def test_h2_equals_tau_half_dagd(self, rng):
        # H2 = (tau/2) D+ D with D = (I - C) H (I_sys (x) |phi>)
        for _ in range(20):
            ds = int(rng.integers(2, 5))
            dp = int(rng.integers(2, 5))
            ham = random_hamiltonian_spec(rng, ds, dp, n_terms=2, gamma=2.0)
            phi = random_ket(rng, dp)
            tau = 0.25
            eff = effective_rank1(ham, phi, tau)
            h = ham.assemble()
            c = kron(np.eye(ds), np.outer(phi, phi.conj()))
            iso = kron(np.eye(ds), phi.reshape(-1, 1))
            d_op = (np.eye(ds * dp) - c) @ h @ iso
            assert max_abs(eff.h2[0] - (tau / 2) * dag(d_op) @ d_op) < 1e-10
            assert is_psd(eff.h2[0], 1e-10)

    def test_rejects_unnormalized_phi(self):
        with pytest.raises(ValueError):
            effective_rank1(swap_hamiltonian(1.0), [1.0, 1.0], 0.1)


class TestEffectiveRankr:
    def test_rank1_reduces_to_system_form(self, rng):
        for _ in range(5):
            ds = int(rng.integers(2, 4))
            dp = int(rng.integers(2, 4))
            ham = random_hamiltonian_spec(rng, ds, dp, n_terms=2, gamma=1.5)
            phi = random_ket(rng, dp)
            tau = 0.3
            e1 = effective_rank1(ham, phi, tau)
            # the rank-r form of the same ket, at another phase
            er = effective_rankr(ham, family_spec([[np.exp(0.7j) * phi]], 0), tau)
            assert max_abs(er.h1[0] - e1.h1[0]) < 1e-12
            assert max_abs(er.h2[0] - e1.h2[0]) < 1e-12

    def test_full_projector_is_uninformative(self, rng):
        ham = random_hamiltonian_spec(rng, 2, 3, n_terms=2, gamma=2.0)
        eff = effective_rankr(ham, MeasurementSpec((np.eye(3),), 0), 0.1)
        assert max_abs(eff.h1[0] - ham.assemble()) < 1e-12
        assert max_abs(eff.h2[0]) < 1e-13

    def test_heisenberg_rank2_h2_positive(self):
        # 8x8 construction oracle: H2 = (tau/2) C H (I - C) H C in range(C)
        ham = heisenberg3_hamiltonian(GAMMA, "local_xyz")
        spec = measurement_from_kets([[basis_ket("ud"), basis_ket("du")]], 0)
        eff = effective_rankr(ham, spec, TAU)
        p = spec.projectors[0]
        h1_full, h2_full = embed_rankr(eff)
        h = ham.assemble()
        c = kron(np.eye(2), p)
        oracle = (TAU / 2) * c @ h @ (np.eye(8) - c) @ h @ c
        assert max_abs(h2_full - oracle) < 1e-10
        w = np.linalg.eigvalsh(eff.h2[0])
        assert w.min() > -1e-10
        assert w.max() > 1e-3

    def test_h2_zero_iff_no_outward_transitions(self, rng):
        # block-diagonal probe factors commute with P: no leakage, H2 = 0
        spec = MeasurementSpec((np.eye(3)[:, :2],), 0)
        p = spec.projectors[0]
        terms = []
        for _ in range(2):
            from helpers import random_hermitian
            b = np.zeros((3, 3), dtype=complex)
            b[:2, :2] = random_hermitian(rng, 2)
            b[2, 2] = rng.standard_normal()
            b /= np.linalg.norm(b, 2)
            terms.append((random_hermitian(rng, 2, norm=1.0), b))
        ham = HamiltonianSpec(2.0, tuple(terms))
        eff = effective_rankr(ham, spec, 0.2)
        h = ham.assemble()
        c = kron(np.eye(2), p)
        assert max_abs((np.eye(6) - c) @ h @ c) < 1e-12
        assert max_abs(eff.h2[0]) < 1e-12

    def test_rejects_non_projector(self, rng):
        ham = random_hamiltonian_spec(rng, 2, 3)
        # sqrt(0.7) I, the basis that 0.7 I would have, is not orthonormal
        with pytest.raises(ValueError, match="basis 0 is not orthonormal"):
            effective_rankr(ham, MeasurementSpec((np.sqrt(0.7) * np.eye(3),), 0), 0.1)

    def test_needs_a_selected_outcome_of_the_probe_dimension(self, rng):
        ham = random_hamiltonian_spec(rng, 2, 3)
        spec = family_spec([[e] for e in np.eye(3)])
        with pytest.raises(ValueError, match="requires a selected outcome"):
            effective_rankr(ham, spec, 0.1)
        with pytest.raises(ValueError, match="probe dimensions differ"):
            effective_rankr(ham, family_spec([[basis_ket("u")]], 0), 0.1)
        with pytest.raises(ValueError, match="tau must be a finite positive number"):
            effective_rankr(ham, MeasurementSpec(spec.bases, 1), 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0, -1.0])
    def test_refuses_a_tau_that_is_not_finite_and_positive(self, tau):
        # as EvolutionPlan does: NaN would give NaN generators and inf a
        # numpy warning
        with pytest.raises(ValueError, match="^tau must be a finite positive "
                           f"number, got {re.escape(repr(tau))}$"):
            effective_rankr(swap_hamiltonian(1.0), measurement_from_kets(
                [[basis_ket("u")]], 0), tau)

    def test_is_the_nonselective_diagonal_block(self, rng):
        # H1 - i H2 for outcome i is Heff_i of the GKSL generator of the family
        for _ in range(30):
            ds = int(rng.integers(1, 4))
            dp = int(rng.integers(2, 5))
            ham = random_hamiltonian_spec(rng, ds, dp, n_terms=3, gamma=2.0)
            spec = family_spec(random_projector_family(rng, dp))
            tau = float(rng.uniform(0.01, 0.5))
            gen = build_generator(ham, spec, tau)
            for i, heff in enumerate(gen.heff):
                eff = effective_rankr(ham, MeasurementSpec(spec.bases, i), tau)
                n = eff.layout.sizes[0]
                assert max_abs(eff.heff[0] - heff[:n, :n]) < 1e-12
                assert not heff[n:].any() and not heff[:, n:].any()


class TestPropagateKraus:
    @staticmethod
    def conjugated(eff, init, h, n):
        """The normalized blocks K^k r0 K^k+, their traces and their system
        marginals for k = 0..n, by matrix powers of the unclipped start block."""
        r0 = eff.layout.compress(init.joint())[0]
        k = expm(-1j * eff.heff[0] * h)
        blocks = np.array([np.linalg.matrix_power(k, j) @ r0
                           @ dag(np.linalg.matrix_power(k, j)) for j in range(n + 1)])
        norms = np.trace(blocks, axis1=1, axis2=2).real
        blocks /= norms[:, None, None]
        return blocks, norms, eff.layout.marginal(blocks[:, None])

    @pytest.mark.parametrize("ranks", [(2, 1), (1, 2), (2, 2)])
    def test_mixed_starts_match_the_conjugated_block(self, rng, ranks):
        # a rank-2 system state, a rank-2 probe state inside the rank-2
        # selected range, or both
        u = random_unitary(rng, 4)
        spec = family_spec([[u[:, 0], u[:, 1]], [u[:, 2]], [u[:, 3]]], selected_index=0)
        eff = effective_rankr(random_hamiltonian_spec(rng, 3, 4), spec, 0.05)
        v = spec.bases[0]
        init = InitialState(random_density(rng, 3, ranks[0]),
                            v @ random_density(rng, 2, ranks[1]) @ dag(v))
        traj = propagate_kraus(eff, init, 0.1, 20)
        blocks, norms, marginals = self.conjugated(eff, init, 0.1, 20)
        assert max_abs(traj.norms / norms - 1) <= 1e-12
        assert max_abs(traj.states - blocks) <= 1e-12
        assert max_abs(traj.sys_states - marginals) <= 1e-12

    def test_a_start_with_a_negative_rounding_eigenvalue_stays_positive(self, rng):
        # rho_sys with a -1e-12 eigenvalue passes is_density at 1e-10; the
        # factor drops it, so every state is positive semidefinite and within
        # 1e-11 of the states the unclipped start gives
        w = random_unitary(rng, 3)
        init = InitialState(w @ np.diag([-1e-12, 0.4, 0.6 + 1e-12]) @ dag(w),
                            np.diag([1.0, 0.0]))
        eff = effective_rank1(random_hamiltonian_spec(rng, 3, 2), basis_ket("u"), 0.05)
        traj = propagate_kraus(eff, init, 0.1, 30)
        blocks, norms, _ = self.conjugated(eff, init, 0.1, 30)
        assert max_abs(traj.norms / norms - 1) <= 1e-11
        assert max_abs(traj.states - blocks) <= 1e-11
        assert np.linalg.eigvalsh(traj.sys_states).min() >= -1e-14

    def test_time_zero_identity(self, rng):
        eff = swap_eff()
        init = InitialState.from_kets(random_ket(rng, 2), basis_ket("u"))
        traj = propagate_kraus(eff, init, 1.0, 0)
        assert traj.times.tolist() == [0.0]
        assert max_abs(traj.states[0] - init.rho_sys) < 1e-13
        assert traj.norms[0] == pytest.approx(1.0)

    def test_matches_closed_form_probability(self):
        a2 = 0.2
        eff = swap_eff()
        init = InitialState.from_kets([np.sqrt(a2), np.sqrt(1 - a2)], basis_ket("u"))
        traj = propagate_kraus(eff, init, 0.1, 100)
        want = a2 / (a2 + np.exp(-OMEGA * traj.times) * (1 - a2))
        assert max_abs(traj.p_up() - want) < 1e-12

    def test_zero_h2_is_unitary(self, rng):
        from helpers import random_hermitian
        a = random_hermitian(rng, 2, norm=1.0)
        ham = HamiltonianSpec(2.0, ((a, np.eye(2)),))
        eff = effective_rank1(ham, basis_ket("u"), 0.1)
        init = InitialState.from_kets(random_ket(rng, 2), basis_ket("u"))
        traj = propagate_kraus(eff, init, 0.25, 20)
        assert max_abs(traj.norms - 1.0) < 1e-12

    def test_norm_non_increasing(self, rng):
        eff = swap_eff()
        init = InitialState.from_kets(random_ket(rng, 2), basis_ket("u"))
        traj = propagate_kraus(eff, init, 0.25, 32)
        assert np.all(np.diff(traj.norms) <= 1e-12)

    @pytest.mark.parametrize("h, n", [
        pytest.param(0.04, 250, id="uniform"),
    ])
    def test_matches_per_time_exponentials(self, h, n):
        eff = swap_eff()
        init = InitialState.from_kets([np.sqrt(0.2), np.sqrt(0.8)], basis_ket("u"))
        traj = propagate_kraus(eff, init, h, n)
        assert len(traj) == n + 1
        for t, got, norm in zip(traj.times, traj.states, traj.norms):
            k = expm(-1j * t * eff.heff[0])
            rho = k @ init.rho_sys @ dag(k)
            assert abs(norm - np.trace(rho).real) <= 1e-12
            assert max_abs(got - rho / np.trace(rho).real) <= 1e-12

    def test_one_exponential_per_call(self, monkeypatch):
        # one Kraus step exp(-i Heff h) per call, whatever h and n; the
        # samples are its powers
        eff = swap_eff()
        init = InitialState.from_kets([np.sqrt(0.2), np.sqrt(0.8)], basis_ket("u"))
        calls = counting_expm(monkeypatch)
        for h, n in ((0.04, 250), (0.000625, 16000), (1.0, 1), (2.5, 0)):
            del calls[:]
            traj = propagate_kraus(eff, init, h, n)
            assert len(calls) == 1
            assert np.array_equal(calls[0], -1j * eff.heff[0] * h)
            assert len(traj) == n + 1

    def test_raises_on_vanishing_branch(self):
        eff = swap_eff()
        init = InitialState.from_kets([0.0, 1.0], basis_ket("u"))
        with pytest.raises(VanishingProbabilityError, match="at T = 50 "):
            propagate_kraus(eff, init, 25.0, 2)

    def test_raises_at_the_probability_floor(self):
        # branch probability exp(-Omega T) with Omega = 1: exp(-32) = 1.3e-14
        # is kept, exp(-33) = 4.7e-15 is below the floor
        eff = swap_eff()
        init = InitialState.from_kets(basis_ket("d"), basis_ket("u"))
        with pytest.raises(VanishingProbabilityError, match="at T = 33 "):
            propagate_kraus(eff, init, 1.0, 60)
        traj = propagate_kraus(eff, init, 1.0, 32)
        assert len(traj) == 33
        assert np.allclose(traj.norms, np.exp(-OMEGA * traj.times), rtol=1e-12, atol=0)
        assert traj.norms[-1] >= PROB_FLOOR

    def test_full_stack_matches_times(self):
        eff = swap_eff()
        init = InitialState.from_kets(basis_ket("d"), basis_ket("u"))
        traj = propagate_kraus(eff, init, 1.0, 32)
        assert isinstance(traj.states, np.ndarray)
        assert traj.states.shape == (33, 2, 2)
        assert traj.times.shape == traj.norms.shape == (33,)
        assert np.array_equal(traj.times, np.linspace(0.0, 32.0, 33))

    def test_requires_matching_probe(self):
        eff = swap_eff()
        init = InitialState.from_kets([1.0, 0.0], basis_ket("d"))
        with pytest.raises(ValueError):
            propagate_kraus(eff, init, 1.0, 0)

    def test_refuses_the_generator_of_a_complete_family(self, monkeypatch):
        # heff[0] of a non-selective generator would be read as the branch
        # generator of outcome 0 on a layout of two blocks; the branch run
        # refuses that layout before it makes a start factor
        eff = build_generator(swap_hamiltonian(GAMMA), measurement_from_kets(
            [[basis_ket("u")], [basis_ket("d")]]), TAU)
        init = InitialState.from_kets([1.0, 0.0], basis_ket("u"))

        def refuse(self, layout):
            raise AssertionError("a start factor was made on a layout of two blocks")

        monkeypatch.setattr(InitialState, "start_factor", refuse)
        refusal = "one-block generator of a selected outcome, got 2 blocks"
        with pytest.raises(ValueError, match=refusal):
            propagate_kraus(eff, init, 1.0, 0)
        with pytest.raises(ValueError, match=refusal):
            Trajectory.from_branch(1.0, eff.layout, init, np.eye(4), [0])

    @pytest.mark.parametrize("rank", [1, 2])
    def test_rejects_probe_outside_range(self, rank):
        # the probe ket (|in> + |out>)/sqrt2 overlaps range(P) without lying in it
        if rank == 1:
            eff = swap_eff()
            inside, outside = basis_ket("u"), basis_ket("d")
        else:
            inside, outside = basis_ket("ud"), basis_ket("uu")
            spec = measurement_from_kets([[inside, basis_ket("du")]], 0)
            eff = effective_rankr(heisenberg3_hamiltonian(GAMMA, "local_xyz"), spec, TAU)
        init = InitialState.from_kets([1.0, 0.0], inside + outside)
        with pytest.raises(ValueError, match=r"range\(P\)"):
            propagate_kraus(eff, init, 1.0, 0)

    def test_a_rank1_block_is_its_own_marginal(self):
        # the system states are the normalized blocks themselves, not a copy
        init = InitialState.from_kets([0.6, 0.8], basis_ket("u"))
        traj = propagate_kraus(swap_eff(), init, 0.25, 4)
        assert np.shares_memory(traj.sys_states, traj.states)

    def test_limit_and_oracle_share_the_support_rule(self):
        # a weight of 1e-9 outside range(P) misses a unit probe-block trace by
        # less than 1e-8, but leaves P rho P - rho above 1e-10: both reject it
        init = InitialState(np.diag([1.0, 0.0]), np.diag([1.0 - 1e-9, 1e-9]))
        meas = measurement_from_kets([[basis_ket("u")], [basis_ket("d")]], 0)
        plan = EvolutionPlan(swap_hamiltonian(GAMMA), meas, TAU, 25)
        with pytest.raises(ValueError, match=r"supported in range\(P\)"):
            propagate_kraus(swap_eff(), init, 1.0, 0)
        with pytest.raises(ValueError, match=r"supported in range\(P\)"):
            run_selective(plan, init)


@pytest.mark.parametrize("runner, every", [("exact", 1), ("exact", 7), ("kraus", 1)])
def test_both_runners_raise_through_the_one_branch_rule(runner, every):
    # the swap branch from the system ket d decays to the floor in both
    # runners, as cos(gamma tau)^(2n) per period in the exact run and as
    # exp(-Omega T) in the limit; each raises from Trajectory.from_branch at
    # the first count below the floor, 801 periods (found by bisection
    # between the samples at every = 7) and 33 steps of h = 1, with
    # T = step * dt in the message
    init = InitialState.from_kets(basis_ket("d"), basis_ket("u"))
    if runner == "exact":
        meas = measurement_from_kets([[basis_ket("u")]], selected_index=0)
        plan = EvolutionPlan(swap_hamiltonian(GAMMA), meas, TAU, 7 * 143)
        dt, run = TAU, partial(run_selective, plan, init, every)
        decay = -2 * np.log(np.cos(GAMMA * TAU))
    else:
        dt, run = 1.0, partial(propagate_kraus, swap_eff(), init, 1.0, 60)
        decay = OMEGA
    with pytest.raises(VanishingProbabilityError) as err:
        run()
    assert err.traceback[-1].name == "from_branch"
    t, step = re.search(r"at T = (\S+) \(step (\d+), p = ", str(err.value)).groups()
    assert int(step) == np.ceil(-np.log(PROB_FLOOR) / decay) == (
        801 if runner == "exact" else 33)
    assert t == f"{int(step) * dt:g}"


class TestNonlinearRhs:
    def test_stationary_eigenprojector(self, rng):
        from helpers import random_hermitian
        a = random_hermitian(rng, 2, norm=1.0)
        ham = HamiltonianSpec(1.0, ((a, np.eye(2)),))
        eff = effective_rank1(ham, basis_ket("u"), 0.1)  # H2 = 0
        w, v = np.linalg.eigh(eff.h1[0])
        rho = np.outer(v[:, 0], v[:, 0].conj())
        assert max_abs(nonlinear_density_rhs(eff, rho)) < 1e-12

    def test_traceless_on_random_densities(self, rng):
        eff = swap_eff()
        for _ in range(10):
            rho = random_density(rng, 2)
            assert abs(np.trace(nonlinear_density_rhs(eff, rho))) < 1e-12

    def test_logistic_growth_matches_analytic_derivative(self):
        # d p / dT of p(T) = a / (a + e^{-Omega T} b) equals Omega p (1 - p)
        eff = swap_eff()
        for p in (0.1, 0.35, 0.8):
            rho = np.diag([p, 1.0 - p]).astype(complex)
            rhs = nonlinear_density_rhs(eff, rho)
            assert abs(rhs[0, 0].real - OMEGA * p * (1 - p)) < 1e-12

    def test_state_rhs_reduces_to_schroedinger(self, rng):
        from helpers import random_hermitian
        a = random_hermitian(rng, 3, norm=1.0)
        ham = HamiltonianSpec(2.0, ((a, np.eye(2)),))
        eff = effective_rank1(ham, basis_ket("u"), 0.1)
        psi = random_ket(rng, 3)
        assert max_abs(nonlinear_state_rhs(eff, psi) + 1j * eff.h1[0] @ psi) < 1e-12

    def test_state_rhs_pure_phase_on_joint_eigenvector(self):
        eff = swap_eff()  # H1, H2 both diagonal
        psi = basis_ket("u")
        rhs = nonlinear_state_rhs(eff, psi)
        assert max_abs(rhs + 1j * GAMMA * psi) < 1e-12

    def test_state_rhs_norm_preserving(self, rng):
        eff = swap_eff()
        psi = random_ket(rng, 2)
        assert abs(np.vdot(psi, nonlinear_state_rhs(eff, psi)).real) < 1e-12


class TestPurityDerivative:
    def test_pure_state_stationary_purity(self, rng):
        eff = swap_eff()
        psi = random_ket(rng, 2)
        rho = np.outer(psi, psi.conj())
        assert abs(purity_derivative(eff, rho)) < 1e-12

    def test_zero_h2(self, rng):
        ham = HamiltonianSpec(1.0, ((pauli(1), np.eye(2)),))
        eff = effective_rank1(ham, basis_ket("u"), 0.1)
        assert purity_derivative(eff, random_density(rng, 2)) == pytest.approx(0.0)

    def test_maximally_mixed(self):
        eff = swap_eff()
        assert abs(purity_derivative(eff, np.eye(2) / 2)) < 1e-12

    def test_matches_finite_difference(self):
        a2 = 0.3
        eff = swap_eff()
        init = InitialState.from_kets([np.sqrt(a2), np.sqrt(1 - a2)], basis_ket("u"))
        h = 1e-3
        for t in (0.5, 2.0, 5.0):
            # the states at t - h, t and t + h
            states = propagate_kraus(eff, init, h, round(t / h) + 1).states[-3:]
            fd = (np.trace(states[2] @ states[2]).real
                  - np.trace(states[0] @ states[0]).real) / (2 * h)
            got = purity_derivative(eff, states[1])
            assert abs(got - fd) < 1e-4


class TestConsistency:
    def test_density_state_kraus_agree(self, rng):
        # one fixed and one random rank-1 scenario, three propagation routes
        cases = []
        a2 = 0.2
        cases.append((swap_eff(),
                      np.array([np.sqrt(a2), np.sqrt(1 - a2)], dtype=complex)))
        ham = random_hamiltonian_spec(rng, 2, 3, n_terms=2, gamma=2.0)
        cases.append((effective_rank1(ham, random_ket(rng, 3), 0.25),
                      random_ket(rng, 2)))
        for eff, psi0 in cases:
            rho0 = np.outer(psi0, psi0.conj())
            dens = rk4_sample(partial(nonlinear_density_rhs, eff), rho0, 0.5, 10)
            stat = rk4_sample(partial(nonlinear_state_rhs, eff), psi0, 0.5, 10)
            phi = eff.layout.probe_bases[0][:, 0]
            init = InitialState(rho0, np.outer(phi, phi.conj()))
            kraus = propagate_kraus(eff, init, 0.5, 10)
            for k in range(len(kraus)):
                rho_s = np.outer(stat[k], stat[k].conj())
                assert trace_distance(dens[k], rho_s) < 1e-6
                assert trace_distance(dens[k], kraus.states[k]) < 1e-6
                assert abs(np.trace(dens[k] @ dens[k]).real - 1.0) < 1e-6

    def test_state_integration_matches_analytic_probability(self):
        # RK4 on the state equation reproduces a2 / (a2 + e^{-Omega T} b2)
        a2 = 0.2
        eff = swap_eff()
        psi0 = np.array([np.sqrt(a2), np.sqrt(1 - a2)], dtype=complex)
        psis = rk4_sample(partial(nonlinear_state_rhs, eff), psi0, 0.5, 8)
        want = a2 / (a2 + np.exp(-OMEGA * np.arange(9) * 0.5) * (1 - a2))
        got = np.array([abs(p[0]) ** 2 / np.linalg.norm(p) ** 2 for p in psis])
        assert max_abs(got - want) < 1e-6

    def test_rhs_matches_kraus_finite_difference(self):
        eff = swap_eff()
        init = InitialState.from_kets([np.sqrt(0.2), np.sqrt(0.8)], basis_ket("u"))
        h = 1e-3
        for t in (1.0, 3.0):
            # the states at t - h, t and t + h
            states = propagate_kraus(eff, init, h, round(t / h) + 1).states[-3:]
            fd = (states[2] - states[0]) / (2 * h)
            rhs = nonlinear_density_rhs(eff, states[1])
            assert max_abs(fd - rhs) < 1e-4


def kraus_power_deviation(sc, tau, t_max):
    """max_n ||W_ss^n - K^n||_2 over the periods n <= t_max / tau for the
    bundled scenario sc at its own Omega: W_ss the exact period's Kraus map
    on the selected layout and K = exp(-i tau Heff) the limit's step over one
    period, the limit's error on the branch dynamics with no initial state."""
    ham = sc.hamiltonian.with_gamma(np.sqrt(sc.omega / tau))
    layout = sc.measurement.selected_layout(ham.dim_sys)
    w_ss = layout.pairs(expm(-1j * tau * ham.assemble()))[0, 0]
    k = expm(-1j * tau * effective_rankr(ham, sc.measurement, tau).heff[0])
    eye, ns = np.eye(len(k)), np.arange(round(t_max / tau) + 1)
    diffs = factor_powers(w_ss, eye, ns) - factor_powers(k, eye, ns)
    return np.linalg.norm(diffs, 2, axis=(1, 2)).max()


@pytest.mark.parametrize("name, ratios", [
    ("swap_selective", (3.8, 4.2)),
    ("heisenberg_global_field", (1.9, 2.1)),
    ("heisenberg_local_fields", (1.9, 2.1)),
])
def test_kraus_powers_converge_at_the_order_of_the_model(name, ratios):
    # at each bundled file's own Omega over t_max = 2, the state-free
    # deviation of the branch's Kraus powers falls 4x per 4x smaller tau for
    # the swap (order 1) and only 2x for the two Heisenberg files (order
    # 1/2), the defect of the paper's generator, without any initial state
    taus = [0.04, 0.01, 0.0025, 0.000625]
    sc = load_bundled(name)
    devs = [kraus_power_deviation(sc, t, 2.0) for t in taus]
    lo, hi = ratios
    for a, b in zip(devs, devs[1:]):
        assert lo <= a / b <= hi
