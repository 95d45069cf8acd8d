import itertools
import re

import numpy as np
import pytest

from helpers import (apply_instrument, assert_same_run, family_spec, load_bundled,
                     nonselective_channel, random_density,
                     random_hamiltonian_spec, random_ket,
                     random_projector_family, random_unitary,
                     reference_nonselective, reference_selective, unitary_step)
from stroblim import (EvolutionPlan, InitialState, VanishingProbabilityError,
                      basis_ket, kron, measurement_from_kets, pauli,
                      run_nonselective, run_selective, swap_hamiltonian)
from stroblim.exact import steps_in
from stroblim.linalg import (TensorDims, dag, factor_powers, max_abs,
                             partial_trace, psd_factor)
from stroblim.model import BlockLayout


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
        plan = EvolutionPlan(ham, up_meas(), tau, 50)
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
        plan = EvolutionPlan(ham, up_meas(), tau, n)
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
        plan = EvolutionPlan(ham, up_meas(), 0.1, 10)
        traj = run_selective(plan, init)
        assert max_abs(traj.norms - 1.0) < 1e-12
        # effective system Hamiltonian: gamma * A * <u|sz|u> = 1.5 A
        h_sys = 1.5 * a
        want = unitary_step(init.rho_sys, h_sys, 1.0)
        assert max_abs(traj.sys_states[-1] - want) < 1e-10

    def test_trace_monotone(self):
        ham = swap_hamiltonian(5.0)
        init = InitialState.from_kets([0.6, 0.8], basis_ket("u"))
        traj = run_selective(EvolutionPlan(ham, up_meas(), 0.04, 100), init)
        assert np.all(np.diff(traj.norms) <= 1e-12)
        assert np.all(np.diff(traj.p_err) >= -1e-12)

    def test_period_count_allows_a_few_ulps(self):
        # 1000 / 1e-9 is 999999999999.9999 in floats, 1.2e-4 below 1e12
        assert steps_in(1000.0, 1e-9) == 10 ** 12
        assert steps_in(0.25, 0.1) == 2

    def test_vanishing_probability_raises(self):
        ham = swap_hamiltonian(5.0)
        init = InitialState.from_kets([0.0, 1.0], basis_ket("u"))
        plan = EvolutionPlan(ham, up_meas(), 0.04, 1000)
        with pytest.raises(VanishingProbabilityError):
            run_selective(plan, init)

    def test_requires_supported_probe(self):
        ham = swap_hamiltonian(5.0)
        init = InitialState.from_kets([1.0, 0.0], basis_ket("d"))
        with pytest.raises(ValueError):
            run_selective(EvolutionPlan(ham, up_meas(), 0.04, 25), init)

    def test_outcome_sequences_sum_to_one(self, rng):
        # completeness over all length-3 outcome strings of a complete family
        ham = swap_hamiltonian(1.2)
        meas = zbasis_meas()
        init = InitialState.from_kets(random_ket(rng, 2), random_ket(rng, 2))
        total = 0.0
        plan = EvolutionPlan(ham, meas, 0.3, 3)
        for seq in itertools.product((0, 1), repeat=3):
            try:
                traj = reference_selective(plan, init, outcomes=seq)
                total += traj.norms[-1]
            except VanishingProbabilityError:
                pass
        assert abs(total - 1.0) < 1e-10
        # the Born rule on the states: summed over every outcome string, the
        # unnormalized system marginals (sys_states x norms) of the selective
        # reference loops are the non-selective run's, for families of up to
        # three outcomes of unequal ranks in random probe frames; the sample
        # at period m is a prefix shared by k^(n - m) strings.  The probe
        # state is channel-invariant, block-diagonal in the measured basis,
        # since the non-selective run applies the channel at t = 0 and an
        # outcome string does not.  The bound is the rounding of a sum of k^n
        # terms of order 1
        for dim_sys, ranks, n in [(2, (1, 2), 5), (2, (1, 1, 1), 5), (3, (2, 1, 1), 4)]:
            cols = iter(random_unitary(rng, sum(ranks)).T)
            spec = family_spec([[next(cols) for _ in range(r)] for r in ranks])
            ham = random_hamiltonian_spec(rng, dim_sys, sum(ranks))
            sigma = random_density(rng, sum(ranks))
            init = InitialState(random_density(rng, dim_sys),
                                sum(p @ sigma @ p for p in spec.projectors))
            k = len(ranks)
            for every in (1, 2):
                periods = n - n % every         # a count that the stride divides
                plan = EvolutionPlan(ham, spec, 0.3, periods)
                want = run_nonselective(plan, init, every)
                total = 0
                for seq in itertools.product(range(k), repeat=periods):
                    traj = reference_selective(plan, init, every, outcomes=seq)
                    total = total + traj.sys_states * traj.norms[:, None, None]
                shared = float(k) ** (periods - np.arange(0, periods + 1, every))
                assert max_abs(total / shared[:, None, None]
                               - want.sys_states * want.norms[:, None, None]
                               ) <= k ** periods * np.finfo(float).eps

    def test_zeno_probe_infidelity_shrinks_with_tau(self):
        # pre-measurement probe state approaches the measured vector as tau -> 0
        # at fixed Omega (state right after a unitary segment, before projecting)
        omega, t_fix = 1.0, 2.0
        infidelities = []
        for tau in (0.04, 0.01, 0.0025):
            gamma = np.sqrt(omega / tau)
            ham = swap_hamiltonian(gamma)
            init = InitialState.from_kets([np.sqrt(0.2), np.sqrt(0.8)], basis_ket("u"))
            traj = run_selective(EvolutionPlan(ham, up_meas(), tau, round(t_fix / tau)),
                                 init)
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
    n_steps = every * -(-20 // every)     # at least 20 periods, a multiple of every
    plan = EvolutionPlan(ham, meas(), 0.04, n_steps)
    full = run(plan, init)
    part = run(plan, init, every=every)
    assert len(full) == n_steps + 1
    idx = list(range(0, n_steps + 1, every))
    assert np.array_equal(part.times, full.times[idx])
    assert np.array_equal(part.norms, full.norms[idx])
    assert len(part.states) == len(idx)
    for got, i in zip(part.states, idx):
        assert np.array_equal(got, full.states[i])


def test_every_checks_the_probability_at_unsampled_steps():
    ham = swap_hamiltonian(5.0)
    init = InitialState.from_kets([0.0, 1.0], basis_ket("u"))
    with pytest.raises(VanishingProbabilityError) as full:
        run_selective(EvolutionPlan(ham, up_meas(), 0.04, 1000), init)
    step = int(re.search(r"at step (\d+) ", str(full.value)).group(1))
    # the first sample passes at one stride and fails at the other; both
    # bisect to the failing step within a run of two strides
    for every in (step - 1, step + 1):
        plan = EvolutionPlan(ham, up_meas(), 0.04, 2 * every)
        with pytest.raises(VanishingProbabilityError, match=f"at step {step} "):
            run_selective(plan, init, every=every)


@pytest.mark.parametrize("run, meas", [(run_selective, up_meas),
                                       (run_nonselective, zbasis_meas)],
                         ids=["selective", "nonselective"])
@pytest.mark.parametrize("every", [0, -2])
def test_every_must_be_positive(run, meas, every):
    init = InitialState.from_kets([1.0, 0.0], basis_ket("u"))
    plan = EvolutionPlan(swap_hamiltonian(5.0), meas(), 0.04, 10)
    with pytest.raises(ValueError, match="every"):
        run(plan, init, every=every)


@pytest.mark.parametrize("run, meas", [(run_selective, up_meas),
                                       (run_nonselective, zbasis_meas)],
                         ids=["selective", "nonselective"])
@pytest.mark.parametrize("every", [3, 2.5, True])
def test_every_must_divide_the_period_count(run, meas, every):
    # a float stride would sample period 2 as t = 2.5 tau
    init = InitialState.from_kets([1.0, 0.0], basis_ket("u"))
    plan = EvolutionPlan(swap_hamiltonian(5.0), meas(), 0.04, 10)
    with pytest.raises(ValueError, match=f"^every = {every} must be a positive "
                                         "divisor of n_steps = 10$"):
        run(plan, init, every=every)


@pytest.mark.parametrize("run, meas", [(run_selective, up_meas),
                                       (run_nonselective, zbasis_meas)])
def test_a_run_shorter_than_one_period_is_a_stack(run, meas):
    # no period is stepped, so the stack holds the start blocks alone,
    # lifted to the initial state, which the channel leaves unchanged
    plan = EvolutionPlan(swap_hamiltonian(1.0), meas(), 0.3, 0)
    init = InitialState.from_kets([0.6, 0.8], basis_ket("u"))
    traj = run(plan, init)
    assert traj.states.shape == (1, 4, 4)
    assert np.array_equal(traj.times, [0.0])
    assert max_abs(traj.states[0] - init.joint()) < 1e-15
    assert max_abs(traj.sys_states[0] - init.rho_sys) < 1e-15


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
        traj = run_nonselective(EvolutionPlan(ham, zbasis_meas(), 0.1, 10), init)
        for s in traj.states:
            assert max_abs(s - traj.states[0]) < 1e-12

    def test_single_step_oracle(self, rng):
        gamma, tau = 5.0, 0.04
        ham = swap_hamiltonian(gamma)
        init = InitialState(random_density(rng, 2), np.diag([1.0, 0.0]).astype(complex))
        traj = run_nonselective(EvolutionPlan(ham, zbasis_meas(), tau, 1), init)
        import scipy.linalg
        u = scipy.linalg.expm(-1j * tau * ham.assemble())
        want = nonselective_channel(u @ init.joint() @ u.conj().T, zbasis_meas())
        assert max_abs(traj.states[-1] - want) < 1e-12

    def test_maximally_mixed_fixed_point(self):
        ham = swap_hamiltonian(3.0)
        init = InitialState(np.eye(2) / 2, np.eye(2) / 2)
        traj = run_nonselective(EvolutionPlan(ham, zbasis_meas(), 0.05, 20), init)
        for s in traj.states:
            assert max_abs(s - np.eye(4) / 4) < 1e-12

    def test_trace_and_block_structure(self, rng):
        ham = swap_hamiltonian(5.0)
        init = InitialState(random_density(rng, 2), np.diag([1.0, 0.0]).astype(complex))
        traj = run_nonselective(EvolutionPlan(ham, zbasis_meas(), 0.04, 50), init)
        assert max_abs(traj.norms - 1.0) < 1e-10
        for s in traj.states:
            # off-block entries vanish: probe indices differ
            for i in range(2):
                for j in range(2):
                    assert abs(s[2 * i, 2 * j + 1]) < 1e-12
                    assert abs(s[2 * i + 1, 2 * j]) < 1e-12


# ---------------------------------------------------------------------------
# The compressed runners against the full-space reference loop, over period
# counts that every stride divides.

STRIDES = [1, 3, 7]


def random_case(rng, dim_sys, dim_pr):
    ham = random_hamiltonian_spec(rng, dim_sys, dim_pr)
    return ham, random_projector_family(rng, dim_pr)


@pytest.mark.parametrize("every", STRIDES)
@pytest.mark.parametrize("dims", [(2, 3), (3, 4), (2, 5)])
def test_coincident_outcomes_match_the_reference_loop(rng, dims, every):
    for _ in range(4):
        ham, groups = random_case(rng, *dims)
        sel = int(rng.integers(len(groups)))
        spec = family_spec(groups, selected_index=sel)
        v = spec.bases[sel]
        rho_pr = v @ random_density(rng, v.shape[1]) @ dag(v)
        init = InitialState(random_density(rng, dims[0]), rho_pr)
        plan = EvolutionPlan(ham, spec, 0.05, 21)
        assert_same_run(run_selective(plan, init, every=every),
                        reference_selective(plan, init, every=every))


@pytest.mark.parametrize("ranks", [(2, 1), (1, 2), (2, 2)])
def test_mixed_starts_match_the_reference_loop(rng, ranks):
    # a rank-2 system state, a rank-2 probe state inside the rank-2 selected
    # range, or both: the start block factors with 2, 2 or 4 columns
    rank_sys, rank_pr = ranks
    ham = random_hamiltonian_spec(rng, 3, 4)
    u = random_unitary(rng, 4)
    spec = family_spec([[u[:, 0], u[:, 1]], [u[:, 2]], [u[:, 3]]], selected_index=0)
    v = spec.bases[0]
    init = InitialState(random_density(rng, 3, rank_sys),
                        v @ random_density(rng, 2, rank_pr) @ dag(v))
    layout = BlockLayout(3, spec.bases[:1])
    assert psd_factor(layout.compress(init.joint())[0]).shape == (6, rank_sys * rank_pr)
    plan = EvolutionPlan(ham, spec, 0.05, 24)
    for every in (1, 2, 3, 4, 6, 8, 12, 24):
        assert_same_run(run_selective(plan, init, every=every),
                        reference_selective(plan, init, every=every))


def test_a_start_with_a_negative_rounding_eigenvalue_stays_positive(rng):
    # rho_sys with a -1e-12 eigenvalue passes is_density at 1e-10; the
    # factor drops it, so every state is positive semidefinite and within
    # 1e-11 of the states the unclipped start gives
    w = random_unitary(rng, 3)
    rho_sys = w @ np.diag([-1e-12, 0.4, 0.6 + 1e-12]) @ dag(w)
    init = InitialState(rho_sys, np.diag([1.0, 0.0]))
    plan = EvolutionPlan(random_hamiltonian_spec(rng, 3, 2), up_meas(), 0.05, 30)
    got = run_selective(plan, init)
    assert_same_run(got, reference_selective(plan, init), tol=1e-11)
    assert np.linalg.eigvalsh(got.sys_states).min() >= -1e-14
    assert np.linalg.eigvalsh(got.states).min() >= -1e-14


@pytest.mark.parametrize("every", STRIDES)
@pytest.mark.parametrize("dims", [(2, 3), (3, 4), (2, 5)])
def test_nonselective_runs_match_the_reference_loop(rng, dims, every):
    for _ in range(4):
        ham, groups = random_case(rng, *dims)
        spec = family_spec(groups)
        init = InitialState(random_density(rng, dims[0]),
                            random_density(rng, dims[1]))
        plan = EvolutionPlan(ham, spec, 0.05, 21)
        got = run_nonselective(plan, init, every=every)
        assert_same_run(got, reference_nonselective(plan, init, every=every))
        # every state is lifted from blocks, which makes it Hermitian bit for bit
        assert np.array_equal(got.states, dag(got.states))


@pytest.mark.parametrize("every", STRIDES)
@pytest.mark.parametrize("name", ["swap_selective", "heisenberg_local_fields",
                                  "heisenberg_global_field", "swap_nonselective"])
def test_bundled_scenarios_match_the_reference_loop(name, every):
    sc = load_bundled(name)
    plan = EvolutionPlan(sc.hamiltonian, sc.measurement, sc.tau, 42)
    if sc.selective:
        got = run_selective(plan, sc.initial, every=every)
        want = reference_selective(plan, sc.initial, every=every)
    else:
        got = run_nonselective(plan, sc.initial, every=every)
        want = reference_nonselective(plan, sc.initial, every=every)
    assert_same_run(got, want)


@pytest.mark.parametrize("tau", [0.04, 2e-4])
def test_million_periods_match_the_closed_form(tau):
    # (C U C)^n on |psi>|u> keeps |u u> and scales |d u> by cos(gamma tau)^n
    gamma, a2, n_steps, every = 5.0, 0.2, 10 ** 6, 10 ** 5
    init = InitialState.from_kets([np.sqrt(a2), np.sqrt(1 - a2)], basis_ket("u"))
    plan = EvolutionPlan(swap_hamiltonian(gamma), up_meas(), tau, n_steps)
    traj = run_selective(plan, init, every=every)
    n_vals = np.arange(0, n_steps + 1, every)
    # cos^(2n) as exp(2n log1p(-2 sin^2(x/2))), free of the n-fold rounding
    # of cos itself
    decay = np.exp(2 * n_vals * np.log1p(-2 * np.sin(gamma * tau / 2) ** 2)) * (1 - a2)
    assert np.array_equal(traj.times, n_vals * tau)
    # U = exp(-i tau H) is rounded once, and its n-th power carries about
    # n eps of relative error, stepped or squared: 2e-10 at n = 1e6
    assert max_abs(traj.p_up() - a2 / (a2 + decay)) < 1e-9
    assert max_abs(traj.norms / (a2 + decay) - 1.0) < 1e-9


@pytest.mark.parametrize("every", [1, 5, 32, 34, 500, 2000])
def test_vanishing_step_matches_the_reference_loop(every):
    ham = swap_hamiltonian(5.0)
    init = InitialState.from_kets([0.0, 1.0], basis_ket("u"))
    plan = EvolutionPlan(ham, up_meas(), 0.04, every * -(-1000 // every))
    with pytest.raises(VanishingProbabilityError) as want:
        reference_selective(plan, init)
    step = re.search(r"at step \d+ ", str(want.value)).group(0)
    with pytest.raises(VanishingProbabilityError, match=step):
        run_selective(plan, init, every=every)


def test_a_coincident_run_forms_only_the_selected_block_map(rng, monkeypatch):
    # the coincident run's layout holds the selected block alone, so a
    # period forms W_ss and no other map
    import stroblim.exact as exact
    shapes, period_maps = [], exact._period_maps

    def recording(plan, layout):
        maps = period_maps(plan, layout)
        shapes.append(maps.shape)
        return maps

    monkeypatch.setattr(exact, "_period_maps", recording)
    ham = random_hamiltonian_spec(rng, 2, 3)
    e = np.eye(3)
    groups = [[e[0], e[1]], [e[2]]]
    init = InitialState(random_density(rng, 2), np.diag([0.0, 0.0, 1.0]))
    run_selective(EvolutionPlan(ham, family_spec(groups, selected_index=1),
                                0.1, 10), init)
    assert shapes == [(1, 1, 2, 2)]


def test_binary_powers_depend_on_the_period_alone(rng):
    w = random_density(rng, 4) * 1.5      # a contraction, ||w|| < 1.5 tr w = 1.5
    r0 = random_density(rng, 4)
    f = psd_factor(r0)
    ns = [0, 1, 2, 3, 200, 7, 64, 63, 65, 128, 5, 199, 0]
    batch = dict(zip(sorted(ns), factor_powers(w, f, sorted(ns))))
    for n in ns:
        q = np.linalg.matrix_power(w, n)
        power = factor_powers(w, f, [n])[0]
        assert max_abs(power @ dag(power) - q @ r0 @ dag(q)) < 1e-12
        assert np.array_equal(power, batch[n])


BAD_PERIODS = r"n_steps must be an integer in \[0, 2\*\*53\), got "


@pytest.mark.parametrize("tau, n_steps, message", [
    pytest.param(np.nan, 1, "tau must be a finite positive number", id="tau=nan"),
    pytest.param(np.inf, 1, "tau must be a finite positive number", id="tau=inf"),
    pytest.param(0.0, 1, "tau must be a finite positive number", id="tau=0"),
    pytest.param(-0.1, 1, "tau must be a finite positive number", id="tau<0"),
    pytest.param(1.0, True, BAD_PERIODS + "True$", id="periods=True"),
    pytest.param(1.0, -1, BAD_PERIODS + "-1$", id="periods<0"),
    pytest.param(1.0, 2.0, BAD_PERIODS + r"2\.0$", id="periods=2.0"),
    pytest.param(1.0, np.nan, BAD_PERIODS + "nan$", id="periods=nan"),
    pytest.param(1.0, np.inf, BAD_PERIODS + "inf$", id="periods=inf"),
    pytest.param(1.0, 10 ** 300, BAD_PERIODS + "10{300}$", id="periods=1e300"),
    pytest.param(1.0, 2 ** 53, BAD_PERIODS + "9007199254740992$", id="periods=2**53"),
])
def test_plan_refuses_timing_it_cannot_step(tau, n_steps, message):
    # each field is named, before a run meets the value in eigh or the
    # period count
    with pytest.raises(ValueError, match=f"^{message}"):
        EvolutionPlan(swap_hamiltonian(1.0), up_meas(), tau, n_steps)


def test_plan_takes_timing_just_inside_the_bounds():
    # the largest period count, a numpy integer and an empty run are taken
    plan = EvolutionPlan(swap_hamiltonian(1.0), up_meas(), 1.0, 2 ** 53 - 1)
    assert plan.n_steps == 2 ** 53 - 1
    assert EvolutionPlan(swap_hamiltonian(1.0), up_meas(), 0.1, np.int64(7)).n_steps == 7
    assert EvolutionPlan(swap_hamiltonian(1.0), up_meas(), 0.1, 0).n_steps == 0
    # the period count's slack stays below half a period, so it adds none
    # where a count's ulp reaches a whole period
    assert steps_in(2.0 ** 53 - 2, 1.0) == 2 ** 53 - 2
    for k in range(40, 53):
        assert steps_in(2.0 ** k, 1.0) == 2 ** k
