import itertools
import re

import numpy as np
import pytest

from helpers import random_density, random_ket
from stroblim import (EvolutionPlan, InitialState, VanishingProbabilityError,
                      apply_instrument, basis_ket, kron, measurement_from_kets,
                      nonselective_channel, pauli, run_nonselective,
                      run_selective, swap_hamiltonian, unitary_step)
from stroblim.linalg import TensorDims, max_abs, partial_trace


def up_meas(selected=0):
    return measurement_from_kets([[basis_ket("u")]], selected_index=selected)


def zbasis_meas():
    return measurement_from_kets([[basis_ket("u")], [basis_ket("d")]])


class TestUnitaryStep:
    def test_zero_time(self, rng):
        rho = random_density(rng, 4)
        assert max_abs(unitary_step(rho, swap_hamiltonian(2.0).assemble(), 0.0)
                       - rho) < 1e-14

    def test_swap_on_product_ket(self, rng):
        # U_tau (|psi> (x) |u>) = cos(g tau) |psi>|u> - i sin(g tau) |u>|psi>
        gamma, tau = 5.0, 0.04
        psi = random_ket(rng, 2)
        state = np.kron(psi, basis_ket("u"))
        rho = np.outer(state, state.conj())
        evolved = unitary_step(rho, swap_hamiltonian(gamma).assemble(), tau)
        expected_ket = (np.cos(gamma * tau) * np.kron(psi, basis_ket("u"))
                        - 1j * np.sin(gamma * tau) * np.kron(basis_ket("u"), psi))
        assert max_abs(evolved - np.outer(expected_ket, expected_ket.conj())) < 1e-12

    def test_commuting_state_is_stationary(self, rng):
        h = np.diag([1.0, -2.0, 0.5, 3.0]).astype(complex)
        rho = np.diag(random_density(rng, 4).diagonal().real).astype(complex)
        rho /= np.trace(rho).real
        assert max_abs(unitary_step(rho, h, 1.7) - rho) < 1e-12

    def test_preserves_trace_and_purity(self, rng):
        rho = random_density(rng, 4)
        out = unitary_step(rho, swap_hamiltonian(1.0).assemble(), 0.9)
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12
        assert abs(np.trace(out @ out) - np.trace(rho @ rho)) < 1e-12


class TestApplyInstrument:
    def test_idempotent_on_support(self, rng):
        c = kron(np.eye(2), np.array([[1, 0], [0, 0]], dtype=complex))
        rho_s = random_density(rng, 2)
        rho = kron(rho_s, np.array([[1, 0], [0, 0]], dtype=complex))
        assert max_abs(apply_instrument(rho, c) - rho) < 1e-14

    def test_maximally_mixed_sandwich(self):
        # explicit 4x4 sandwich oracle
        c = kron(np.eye(2), np.array([[1, 0], [0, 0]], dtype=complex))
        rho = np.eye(4, dtype=complex) / 4
        oracle = c @ rho @ c
        got = apply_instrument(rho, c)
        assert max_abs(got - oracle) == 0
        assert abs(np.trace(got) - 0.5) < 1e-14
        want = kron(np.eye(2) / 4, np.array([[1, 0], [0, 0]]))
        assert max_abs(got - want) < 1e-14

    def test_orthogonal_support_annihilates(self):
        c = kron(np.eye(2), np.array([[1, 0], [0, 0]], dtype=complex))
        rho = kron(np.eye(2) / 2, np.array([[0, 0], [0, 1]], dtype=complex))
        assert max_abs(apply_instrument(rho, c)) == 0

    def test_rejects_non_projector(self, rng):
        with pytest.raises(ValueError):
            apply_instrument(random_density(rng, 2), 0.5 * np.eye(2))


class TestRunSelective:
    def test_matches_exact_closed_form(self):
        gamma, tau, a2 = 5.0, 0.04, 0.2
        ham = swap_hamiltonian(gamma)
        init = InitialState.from_kets([np.sqrt(a2), np.sqrt(1 - a2)], basis_ket("u"))
        plan = EvolutionPlan(ham, up_meas(), tau, 2.0)
        traj = run_selective(plan, init)
        n_vals = np.arange(len(traj))
        closed = a2 / (a2 + np.cos(gamma * tau) ** (2 * n_vals) * (1 - a2))
        assert max_abs(traj.p_up() - closed) < 1e-10

    def test_matches_brute_force_composition(self, rng):
        # independent 50-step oracle composed from raw matrix products
        gamma, tau, a2, n = 5.0, 0.04, 0.2, 50
        ham = swap_hamiltonian(gamma)
        psi = np.array([np.sqrt(a2), np.sqrt(1 - a2)], dtype=complex)
        init = InitialState.from_kets(psi, basis_ket("u"))
        plan = EvolutionPlan(ham, up_meas(), tau, n * tau)
        traj = run_selective(plan, init)

        import scipy.linalg
        u = scipy.linalg.expm(-1j * tau * ham.assemble())
        c = kron(np.eye(2), np.array([[1, 0], [0, 0]], dtype=complex))
        rho = init.joint()
        for _ in range(n):
            rho = c @ (u @ rho @ u.conj().T) @ c
        p_phi = np.trace(rho).real
        sys = partial_trace(rho / p_phi, TensorDims(2, 2), "sys")
        assert abs(traj.norms[-1] - p_phi) < 1e-12
        assert max_abs(traj.sys_states[-1] - sys) < 1e-12

    def test_commuting_hamiltonian_freezes_probe(self, rng):
        # [H, C] = 0: probe stays put, system rotates unitarily, p_Phi = 1
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        from stroblim import HamiltonianSpec
        ham = HamiltonianSpec(1.5, ((a, pauli(3)),))
        init = InitialState.from_kets(random_ket(rng, 2), basis_ket("u"))
        plan = EvolutionPlan(ham, up_meas(), 0.1, 1.0)
        traj = run_selective(plan, init)
        assert max_abs(traj.norms - 1.0) < 1e-12
        # effective system Hamiltonian: gamma * A * <u|sz|u> = 1.5 A
        h_sys = 1.5 * a
        want = unitary_step(init.rho_sys, h_sys, 1.0)
        assert max_abs(traj.sys_states[-1] - want) < 1e-10

    def test_trace_monotone(self):
        ham = swap_hamiltonian(5.0)
        init = InitialState.from_kets([0.6, 0.8], basis_ket("u"))
        traj = run_selective(EvolutionPlan(ham, up_meas(), 0.04, 4.0), init)
        assert np.all(np.diff(traj.norms) <= 1e-12)
        assert np.all(np.diff(traj.p_err) >= -1e-12)

    def test_residual_partial_step(self):
        ham = swap_hamiltonian(2.0)
        init = InitialState.from_kets([1.0, 0.0], basis_ket("u"))
        traj = run_selective(EvolutionPlan(ham, up_meas(), 0.1, 0.25), init)
        assert np.allclose(traj.times, [0.0, 0.1, 0.2, 0.25])

    def test_vanishing_probability_raises(self):
        ham = swap_hamiltonian(5.0)
        init = InitialState.from_kets([0.0, 1.0], basis_ket("u"))
        plan = EvolutionPlan(ham, up_meas(), 0.04, 40.0)
        with pytest.raises(VanishingProbabilityError):
            run_selective(plan, init)

    def test_requires_supported_probe(self):
        ham = swap_hamiltonian(5.0)
        init = InitialState.from_kets([1.0, 0.0], basis_ket("d"))
        with pytest.raises(ValueError):
            run_selective(EvolutionPlan(ham, up_meas(), 0.04, 1.0), init)

    def test_outcome_sequences_sum_to_one(self, rng):
        # completeness over all length-3 outcome strings of a complete family
        ham = swap_hamiltonian(1.2)
        meas = zbasis_meas()
        init = InitialState.from_kets(random_ket(rng, 2), random_ket(rng, 2))
        total = 0.0
        for seq in itertools.product((0, 1), repeat=3):
            plan = EvolutionPlan(ham, meas, 0.3, 0.9, outcome_sequence=seq)
            try:
                traj = run_selective(plan, init)
                total += traj.norms[-1]
            except VanishingProbabilityError:
                pass
        assert abs(total - 1.0) < 1e-10

    def test_zeno_probe_infidelity_shrinks_with_tau(self):
        # pre-measurement probe state approaches the measured vector as tau -> 0
        # at fixed Omega (state right after a unitary segment, before projecting)
        omega, t_fix = 1.0, 2.0
        infidelities = []
        for tau in (0.04, 0.01, 0.0025):
            gamma = np.sqrt(omega / tau)
            ham = swap_hamiltonian(gamma)
            init = InitialState.from_kets([np.sqrt(0.2), np.sqrt(0.8)], basis_ket("u"))
            traj = run_selective(EvolutionPlan(ham, up_meas(), tau, t_fix), init)
            pre_meas = unitary_step(traj.states[-1], ham.assemble(), tau)
            rho_pr = partial_trace(pre_meas, TensorDims(2, 2), "pr")
            infidelities.append(1.0 - rho_pr[0, 0].real)
        assert infidelities[0] > infidelities[1] > infidelities[2] > 0


@pytest.mark.parametrize("run, meas", [(run_selective, up_meas),
                                       (run_nonselective, zbasis_meas)],
                         ids=["selective", "nonselective"])
@pytest.mark.parametrize("every", [2, 3, 7, 20, 25])
def test_every_records_the_kept_states_bit_for_bit(run, meas, every):
    ham = swap_hamiltonian(5.0)
    init = InitialState.from_kets([np.sqrt(0.2), np.sqrt(0.8)], basis_ket("u"))
    plan = EvolutionPlan(ham, meas(), 0.04, 0.83)   # 20 periods and 0.03 left over
    full = run(plan, init)
    part = run(plan, init, every=every)
    assert len(full) == plan.n_steps + 2
    idx = list(range(0, plan.n_steps + 1, every)) + [plan.n_steps + 1]
    assert np.array_equal(part.times, full.times[idx])
    assert np.array_equal(part.norms, full.norms[idx])
    assert len(part.states) == len(idx)
    for got, i in zip(part.states, idx):
        assert np.array_equal(got, full.states[i])


def test_every_checks_the_probability_at_unsampled_steps():
    ham = swap_hamiltonian(5.0)
    init = InitialState.from_kets([0.0, 1.0], basis_ket("u"))
    plan = EvolutionPlan(ham, up_meas(), 0.04, 40.0)
    with pytest.raises(VanishingProbabilityError) as full:
        run_selective(plan, init)
    step = int(re.search(r"at step (\d+) ", str(full.value)).group(1))
    for every in (step - 1, step + 1):
        with pytest.raises(VanishingProbabilityError, match=f"at step {step} "):
            run_selective(plan, init, every=every)


@pytest.mark.parametrize("run, meas", [(run_selective, up_meas),
                                       (run_nonselective, zbasis_meas)],
                         ids=["selective", "nonselective"])
@pytest.mark.parametrize("every", [0, -2])
def test_every_must_be_positive(run, meas, every):
    init = InitialState.from_kets([1.0, 0.0], basis_ket("u"))
    plan = EvolutionPlan(swap_hamiltonian(5.0), meas(), 0.04, 0.4)
    with pytest.raises(ValueError, match="every"):
        run(plan, init, every=every)


class TestNonselectiveChannel:
    def test_block_diagonal_fixed(self, rng):
        rho = kron(random_density(rng, 2), np.diag([0.3, 0.7]).astype(complex))
        assert max_abs(nonselective_channel(rho, zbasis_meas()) - rho) < 1e-13

    def test_dephasing_oracle(self):
        plus = (basis_ket("u") + basis_ket("d")) / np.sqrt(2)
        rho = np.outer(plus, plus.conj())
        got = nonselective_channel(rho, zbasis_meas())
        assert max_abs(got - np.eye(2) / 2) < 1e-14

    def test_idempotent(self, rng):
        rho = random_density(rng, 4)
        once = nonselective_channel(rho, zbasis_meas())
        twice = nonselective_channel(once, zbasis_meas())
        assert max_abs(twice - once) < 1e-12
        assert abs(np.trace(once) - 1.0) < 1e-12

    def test_requires_completeness(self, rng):
        incomplete = measurement_from_kets([[basis_ket("u")]], selected_index=0)
        with pytest.raises(ValueError):
            nonselective_channel(random_density(rng, 2), incomplete)


class TestRunNonselective:
    def test_zero_hamiltonian_constant(self, rng):
        from stroblim import HamiltonianSpec
        ham = HamiltonianSpec(0.0, ((pauli(3), pauli(3)),))
        init = InitialState(random_density(rng, 2), np.diag([1.0, 0.0]).astype(complex))
        traj = run_nonselective(EvolutionPlan(ham, zbasis_meas(), 0.1, 1.0), init)
        for s in traj.states:
            assert max_abs(s - traj.states[0]) < 1e-12

    def test_single_step_oracle(self, rng):
        gamma, tau = 5.0, 0.04
        ham = swap_hamiltonian(gamma)
        init = InitialState(random_density(rng, 2), np.diag([1.0, 0.0]).astype(complex))
        traj = run_nonselective(EvolutionPlan(ham, zbasis_meas(), tau, tau), init)
        import scipy.linalg
        u = scipy.linalg.expm(-1j * tau * ham.assemble())
        want = nonselective_channel(u @ init.joint() @ u.conj().T, zbasis_meas())
        assert max_abs(traj.states[-1] - want) < 1e-12

    def test_maximally_mixed_fixed_point(self):
        ham = swap_hamiltonian(3.0)
        init = InitialState(np.eye(2) / 2, np.eye(2) / 2)
        traj = run_nonselective(EvolutionPlan(ham, zbasis_meas(), 0.05, 1.0), init)
        for s in traj.states:
            assert max_abs(s - np.eye(4) / 4) < 1e-12

    def test_trace_and_block_structure(self, rng):
        ham = swap_hamiltonian(5.0)
        init = InitialState(random_density(rng, 2), np.diag([1.0, 0.0]).astype(complex))
        traj = run_nonselective(EvolutionPlan(ham, zbasis_meas(), 0.04, 2.0), init)
        assert max_abs(traj.norms - 1.0) < 1e-10
        for s in traj.states:
            # off-block entries vanish: probe indices differ
            for i in range(2):
                for j in range(2):
                    assert abs(s[2 * i, 2 * j + 1]) < 1e-12
                    assert abs(s[2 * i + 1, 2 * j]) < 1e-12
