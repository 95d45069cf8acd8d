import importlib
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from functools import partial

from helpers import (block_apply, block_evolve, channel_superop, choi_matrix,
                     counting_expm, family_spec, full_space_reference, lift,
                     liouville_commutator, load_bundled,
                     random_density, random_hamiltonian_spec, random_hermitian,
                     random_projector_family, random_unitary, unvec, vec)
from ode import (block_rhs, nonlinear_density_rhs, nonlinear_state_rhs,
                 pauli_rates, pauli_rhs, rk4_sample, rk4_step)
from stroblim import (EvolutionPlan, HamiltonianSpec, InitialState, basis_ket,
                      build_generator, effective_rank1, expm, kron,
                      measurement_from_kets, pauli, propagate_kraus,
                      run_nonselective, semigroup_propagate, swap_hamiltonian,
                      swap_nonselective_closed_form, trace_distance)
from stroblim.cli import load_scenario
from stroblim.linalg import (_action_is_cheaper, _action_run, _dense_run,
                             _power_degree, dag, max_abs, op_norm, step_powers,
                             taylor_degree)
from stroblim import nonselective_limit
from stroblim.nonselective_limit import packed_generator

TAU = 0.04
GAMMA = 5.0


def zbasis_meas():
    return measurement_from_kets([[basis_ket("u")], [basis_ket("d")]])


def swap_gen():
    return build_generator(swap_hamiltonian(GAMMA), zbasis_meas(), TAU)


def swap_ref():
    return full_space_reference(swap_hamiltonian(GAMMA), zbasis_meas(), TAU)


def random_generator(rng, dim_sys, dim_pr, gamma=2.0, tau=0.25, norm=1.0):
    """A random generator and its full-space reference; factors of operator
    norm `norm` come with gamma / norm^2, so H = gamma h keeps its scale."""
    ham = random_hamiltonian_spec(rng, dim_sys, dim_pr, n_terms=2,
                                  gamma=gamma / norm ** 2, norm=norm)
    groups = random_projector_family(rng, dim_pr)
    spec = family_spec(groups)
    return build_generator(ham, spec, tau), full_space_reference(ham, spec, tau)


def random_block_diagonal(rng, ref):
    projected = ref.channel(random_density(rng, ref.h.shape[0]))
    return projected / np.trace(projected).real


class TestBuildGenerator:
    def test_commuting_family_is_purely_hamiltonian(self, rng):
        # [h, C_i] = 0: no transition operators, generator is a bare commutator
        a = random_hermitian(rng, 2, norm=1.0)
        ham = HamiltonianSpec(1.5, ((a, pauli(3)),))
        eff = build_generator(ham, zbasis_meas(), 0.1)
        ref = full_space_reference(ham, zbasis_meas(), 0.1)
        for i in range(2):
            for j in range(2):
                if i != j:
                    assert max_abs(eff.trans[i, j]) < 1e-12
        h_diag = ref.transition(0, 0) + ref.transition(1, 1)
        want = 1.5 * liouville_commutator(h_diag)
        assert max_abs(ref.lindblad - want) < 1e-12
        rho = random_block_diagonal(rng, ref)
        assert max_abs(block_apply(eff, rho) - unvec(want @ vec(rho))) < 1e-12

    def test_swap_transition_operators(self):
        # direct-calculation structure: h11 = |uu><uu|, h12 = |du><ud|,
        # h22 = |dd><dd| in the system (x) probe product basis
        eff = swap_gen()
        v = eff.layout.bases

        def transition(i, j):
            return v[i] @ eff.trans[i, j] @ dag(v[j])

        e = np.eye(4, dtype=complex)
        uu = np.outer(e[0], e[0])
        dd = np.outer(e[3], e[3])
        du_ud = np.outer(e[2], e[1])
        assert max_abs(transition(0, 0) - uu) < 1e-12
        assert max_abs(transition(1, 1) - dd) < 1e-12
        assert max_abs(transition(0, 1) - du_ud) < 1e-12
        assert max_abs(transition(1, 0) - dag(du_ud)) < 1e-12

    def test_dispersion_identity_random(self, rng):
        # pairing T_ij+ = T_ji and completeness sum_{j!=i} T_ij T_ji = D_i,
        # checked against the full space with tolerances scaled by ||h||^2
        for norm in np.repeat([1.0, 1e2, 1e4], 5):
            eff, ref = random_generator(rng, 2, 3, norm=norm)
            h = ref.h
            tol = 1e-12 * op_norm(h) ** 2
            assert max_abs(dag(eff.trans) - eff.trans.swapaxes(0, 1)) <= tol
            m = len(eff.layout.bases)
            for i in range(m):
                vi = eff.layout.bases[i]
                lhs = vi @ sum(eff.trans[i, j] @ eff.trans[j, i]
                               for j in range(m) if j != i) @ dag(vi)
                ci = ref.c_ops[i]
                hii = ref.transition(i, i)
                rhs = ci @ h @ h @ ci - hii @ hii
                assert max_abs(lhs - rhs) < tol

    def test_routes_agree(self, rng):
        for _ in range(5):
            eff, ref = random_generator(rng, 2, 2)
            lam = channel_superop(ref.c_ops)
            sandwich = ref.sandwich()
            assert max_abs(sandwich - lam @ ref.lindblad @ lam) < 1e-10
            rho = random_block_diagonal(rng, ref)
            via_lindblad = ref.apply(rho)
            via_sandwich = unvec(sandwich @ vec(rho))
            assert max_abs(via_lindblad - via_sandwich) < 1e-10
            assert max_abs(block_apply(eff, rho) - via_lindblad) < 1e-10

    def test_fixes_maximally_mixed_and_trace(self, rng):
        eff, ref = random_generator(rng, 2, 3)
        d = eff.layout.bases.shape[1]
        assert max_abs(block_apply(eff, np.eye(d) / d)) < 1e-10
        assert max_abs(ref.apply(np.eye(d) / d)) < 1e-10
        x = random_hermitian(rng, d)
        v = eff.layout.bases
        assert abs(np.trace(block_rhs(eff, dag(v) @ x @ v).sum(axis=0))) < 1e-10
        assert abs(np.trace(ref.apply(x))) < 1e-10

    def test_block_closure(self, rng):
        eff, ref = random_generator(rng, 2, 3)
        rho = random_block_diagonal(rng, ref)
        out = ref.apply(rho)
        assert max_abs(out - ref.channel(out)) < 1e-12
        assert max_abs(out - block_apply(eff, rho)) < 1e-12

    def test_generator_acts_on_packed_blocks(self, rng):
        # N = sum_i n_i^2: system dimension 2 times probe ranks (1, 2, 1)
        # gives blocks of sizes 2, 4, 2 and N = 4 + 16 + 4; ranks (3, 1)
        # give sizes 6, 2 and N = 36 + 4.  The mask packs the padded stack
        # block by block, row-major inside each rank-sized block.
        for ranks, n_packed in (((1, 2, 1), 24), ((3, 1), 40)):
            ham = random_hamiltonian_spec(rng, 2, 4, n_terms=2, gamma=2.0)
            cols = iter(random_unitary(rng, 4).T)
            groups = [[next(cols) for _ in range(r)] for r in ranks]
            eff = build_generator(ham, family_spec(groups), 0.25)
            gen = packed_generator(eff)
            assert gen.shape == (n_packed, n_packed)
            assert gen.dtype == np.float64
            ref = full_space_reference(ham, family_spec(groups), 0.25)
            rho = random_block_diagonal(rng, ref)
            layout = eff.layout
            v = layout.bases
            blocks = dag(v) @ rho @ v
            assert not blocks[~layout.mask].any()
            packed = blocks[layout.mask]
            assert np.array_equal(packed, np.concatenate(
                [b[:2 * r, :2 * r].reshape(-1) for b, r in zip(blocks, ranks)]))
            rhs = block_rhs(eff, blocks)
            assert np.array_equal(layout.unpack(gen @ layout.pack(blocks)), rhs)
            assert not rhs[~layout.mask].any()
            assert max_abs((v @ rhs @ dag(v)).sum(axis=0) - ref.apply(rho)) < 1e-12

    def test_generator_is_the_reference_on_real_coordinates(self, rng):
        # column p is the full-space Lindbladian applied to the state whose
        # real block coordinates are the p-th unit vector, compressed and
        # packed again
        for _ in range(3):
            eff, ref = random_generator(rng, 2, 3)
            gen = packed_generator(eff)
            v, n = eff.layout.bases, len(gen)
            assert gen.dtype == np.float64
            states = (v @ eff.layout.unpack(np.eye(n)) @ dag(v)).sum(axis=-3)
            images = np.array([ref.apply(s) for s in states])
            want = eff.layout.pack(dag(v) @ images[:, None] @ v).T
            assert max_abs(gen - want) <= 1e-12

    def test_bare_commutator_runs_through_the_dense_exponential(self, rng):
        # [h, C_i] = 0: the real generator is antisymmetric, an orthogonal
        # exponential; the run stays real and raises no ComplexWarning,
        # which the test settings turn into an error
        a = random_hermitian(rng, 2, norm=1.0)
        eff = build_generator(HamiltonianSpec(1.5, ((a, pauli(3)),)),
                              zbasis_meas(), 0.1)
        gen = packed_generator(eff)
        assert max_abs(gen) > 1.0
        assert max_abs(gen + gen.T) <= 1e-12 * max_abs(gen)
        y0 = eff.layout.pack(eff.layout.compress(random_density(rng, 4)))
        dense = _dense_run(gen, 0.5, y0, np.arange(5))
        assert dense.dtype == np.float64
        action = _action_run(gen, 0.5, y0, np.arange(5))
        assert max_abs(dense - action) <= 1e-14

    def test_rejects_selective_spec(self):
        sel = measurement_from_kets([[basis_ket("u")], [basis_ket("d")]],
                                    selected_index=0)
        with pytest.raises(ValueError):
            build_generator(swap_hamiltonian(1.0), sel, 0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0, -1.0])
    def test_refuses_a_tau_that_is_not_finite_and_positive(self, tau):
        # as EvolutionPlan does: NaN would give a NaN generator and inf a
        # numpy warning
        with pytest.raises(ValueError, match="^tau must be a finite positive "
                           f"number, got {re.escape(repr(tau))}$"):
            build_generator(swap_hamiltonian(1.0), zbasis_meas(), tau)


class TestSemigroupPropagate:
    def test_time_zero(self, rng):
        eff = swap_gen()
        init = InitialState(random_density(rng, 2),
                            np.diag([1.0, 0.0]).astype(complex))
        traj = semigroup_propagate(eff, init, 1.0, 0)
        assert max_abs(lift(eff.layout, traj.states)[0] - init.joint()) < 1e-12

    def test_maximally_mixed_constant(self):
        eff = swap_gen()
        init = InitialState(np.eye(2) / 2, np.eye(2) / 2)
        traj = semigroup_propagate(eff, init, 1.0, 5)
        for s in lift(eff.layout, traj.states):
            assert max_abs(s - np.eye(4) / 4) < 1e-12

    def test_semigroup_law(self, rng):
        eff, ref = random_generator(rng, 1, 4)
        v = eff.layout.bases
        packed = eff.layout.pack(dag(v) @ random_block_diagonal(rng, ref) @ v)
        from stroblim.linalg import expm
        t, s = 0.7, 1.9
        gen = packed_generator(eff)
        one = expm(gen * (t + s)) @ packed
        two = expm(gen * t) @ (expm(gen * s) @ packed)
        assert max_abs(one - two) < 1e-10

    def test_trace_and_blocks_preserved(self, rng):
        eff = swap_gen()
        init = InitialState(random_density(rng, 2),
                            np.diag([1.0, 0.0]).astype(complex))
        traj = semigroup_propagate(eff, init, 0.5, 20)
        assert max_abs(traj.norms - 1.0) < 1e-10
        ref = swap_ref()
        for s in lift(eff.layout, traj.states):
            assert max_abs(s - ref.channel(s)) < 1e-10

    def test_non_fixed_point_starts_from_the_channel_image(self):
        # the channel is applied at t = 0, as in run_nonselective
        ham, meas = swap_hamiltonian(GAMMA), zbasis_meas()
        plus = (basis_ket("u") + basis_ket("d")) / np.sqrt(2)
        init = InitialState.from_kets(basis_ket("u"), plus)
        eff = build_generator(ham, meas, TAU)
        traj = semigroup_propagate(eff, init, TAU, 0)
        exact = run_nonselective(EvolutionPlan(ham, meas, TAU, 1), init)
        assert max_abs(traj.states[0] - exact.states[0]) <= 1e-14
        start = lift(eff.layout, traj.states)[0]
        assert max_abs(start - swap_ref().channel(init.joint())) <= 1e-14


class TestBlocks:
    def test_block_rhs_matches_liouvillian(self, rng):
        for _ in range(4):
            eff, ref = random_generator(rng, 2, 3)
            rho = random_block_diagonal(rng, ref)
            v = eff.layout.bases
            d = block_rhs(eff, dag(v) @ rho @ v)
            drho_blocks = (v @ d @ dag(v)).sum(axis=0)
            drho_direct = ref.apply(rho)
            assert max_abs(drho_blocks - drho_direct) < 1e-12
            assert abs(np.trace(d.sum(axis=0))) < 1e-12

    def test_uncoupled_blocks_evolve_unitarily(self, rng):
        a = random_hermitian(rng, 2, norm=1.0)
        ham = HamiltonianSpec(1.5, ((a, pauli(3)),))
        eff = build_generator(ham, zbasis_meas(), 0.1)
        rho = kron(random_density(rng, 2), np.diag([0.4, 0.6]).astype(complex))
        blocks = eff.layout.compress(rho)
        d = block_rhs(eff, blocks)
        for db, heff, b in zip(d, eff.heff, blocks):
            assert max_abs(heff - dag(heff)) < 1e-12  # commuting case: Hermitian
            assert max_abs(db + 1j * (heff @ b - b @ heff)) < 1e-12

    def test_maximally_mixed_blocks_stationary(self):
        eff = swap_gen()
        v = eff.layout.bases
        d = block_rhs(eff, dag(v) @ (np.eye(4, dtype=complex) / 4) @ v)
        for db in d:
            assert max_abs(db) < 1e-12

    def test_swap_block_equations_structure(self, rng):
        # re-derived 4x4 oracle: inside block 1 the populations obey
        # d r11_uu = 0, d r11_dd = -Omega (r11_dd - r22_uu), coherences decay
        # at Omega/2 while precessing at gamma
        eff = swap_gen()
        omega = eff.omega
        r1 = random_density(rng, 2)
        r2 = random_density(rng, 2) * 0.5
        d1, d2 = block_rhs(eff, np.array([r1, r2]))
        assert abs(d1[0, 0]) < 1e-12
        assert abs(d1[1, 1] - (-omega * (r1[1, 1] - r2[0, 0]))) < 1e-12
        assert abs(d1[0, 1] - (-1j * GAMMA - omega / 2) * r1[0, 1]) < 1e-12
        assert abs(d2[1, 1]) < 1e-12
        assert abs(d2[0, 0] - (-omega * (r2[0, 0] - r1[1, 1]))) < 1e-12

    def test_effective_nonhermitian_swap_structure(self):
        # h^2 = I so the dispersion in block i is 1 - (h_ii)^2 restricted
        eff = swap_gen()
        omega = eff.omega
        h1_eff = eff.heff[0]
        want = GAMMA * np.diag([1.0, 0.0]) - 0.5j * omega * np.diag([0.0, 1.0])
        assert max_abs(h1_eff - want) < 1e-12
        with pytest.raises(IndexError):
            eff.heff[5]

    def test_block_integration_matches_semigroup(self, rng):
        eff, ref = random_generator(rng, 2, 2, gamma=1.0, tau=0.25)
        rho = random_block_diagonal(rng, ref)
        layout = eff.layout
        blocks = layout.unpack(rk4_sample(packed_generator(eff).dot,
                                          layout.pack(layout.compress(rho)), 0.5, 8, 4000))
        for t, state in zip(np.arange(9) * 0.5, lift(layout, blocks)):
            assert max_abs(state - ref.evolve(rho, t)) < 1e-7


def swap_selective_eff():
    return effective_rank1(swap_hamiltonian(GAMMA), basis_ket("u"), TAU)


def swap_init():
    return InitialState.from_kets([np.sqrt(0.3), np.sqrt(0.7)], basis_ket("u"))


PROPAGATORS = [
    pytest.param(lambda h, n: propagate_kraus(swap_selective_eff(), swap_init(), h, n),
                 id="kraus"),
    pytest.param(lambda h, n: semigroup_propagate(swap_gen(), swap_init(), h, n),
                 id="semigroup"),
]


# A real block-diagonal start whose coherences gain imaginary parts.
BLOCKS0 = np.array([[[0.3, 0.1], [0.1, 0.2]], [[0.25, -0.05], [-0.05, 0.25]]])

FLIP_RATES = np.array([[0.0, 1.0], [1.0, 0.0]])

# The RK4 references of tests/ode.py as functions of the grid step and count.
INTEGRATORS = [pytest.param(partial(rk4_sample, rhs, y0), id=name) for name, rhs, y0 in [
    ("density", partial(nonlinear_density_rhs, swap_selective_eff()),
     np.eye(2, dtype=complex) / 2),
    ("state", partial(nonlinear_state_rhs, swap_selective_eff()),
     np.array([0.6, 0.8], dtype=complex)),
    ("blocks", packed_generator(swap_gen()).dot, swap_gen().layout.pack(BLOCKS0)),
    ("pauli", partial(pauli_rhs, FLIP_RATES), np.array([1.0, 0.0])),
]]

BAD_STEP = "step h must be a finite positive number"
BAD_COUNT = "step count n must be a non-negative integer"


@pytest.mark.parametrize("integrate", [*INTEGRATORS, *PROPAGATORS])
def test_integrators_reject_decreasing_times(integrate):
    # a negative step would make the grid k h decrease
    with pytest.raises(ValueError, match=BAD_STEP):
        integrate(-0.5, 2)


@pytest.mark.parametrize("integrate", INTEGRATORS)
@pytest.mark.parametrize("h", [
    pytest.param(np.nan, id="nan"),
    pytest.param(np.inf, id="inf"),
])
def test_integrators_reject_non_finite_times(integrate, h):
    with pytest.raises(ValueError, match=BAD_STEP):
        integrate(h, 1)


@pytest.mark.parametrize("integrate", INTEGRATORS)
def test_integrators_return_nothing_on_an_empty_grid(integrate):
    # the RK4 steps of rk4_sample, taken through step_powers on no counts
    rhs, y0 = integrate.args
    out = step_powers(lambda x: rk4_step(rhs, x, 0.5), y0, [])
    assert out.shape == (0, *y0.shape)
    assert out.dtype == y0.dtype


@pytest.mark.parametrize("integrate", INTEGRATORS)
def test_integrators_start_at_time_zero(integrate):
    # y0 is the value at t = 0, and a count of 0 gives it alone
    y0 = integrate.args[1]
    np.testing.assert_array_equal(integrate(0.5, 0), [y0])
    np.testing.assert_array_equal(integrate(0.5, 3)[0], y0)


def test_block_rhs_takes_a_real_start():
    # a real block stack has the real coordinates of its complex copy
    real = block_rhs(swap_gen(), BLOCKS0)
    want = block_rhs(swap_gen(), BLOCKS0.astype(complex))
    assert max_abs(want.imag) > 0.01
    np.testing.assert_array_equal(real, want)


def test_rate_integration_stays_real():
    p = rk4_sample(partial(pauli_rhs, FLIP_RATES), np.array([1.0, 0.0]), 0.5, 4)
    assert p.dtype == np.float64
    assert max_abs(p.sum(axis=1) - 1.0) <= 1e-12


@pytest.mark.parametrize("propagate", [*INTEGRATORS, *PROPAGATORS])
@pytest.mark.parametrize("h, n, message", [
    # grids k h that would hold a negative or a non-finite time
    pytest.param(-3.0, 0, BAD_STEP, id="negative"),
    pytest.param(-1.0, 2, BAD_STEP, id="negative-inside"),
    pytest.param(np.nan, 1, BAD_STEP, id="nan"),
    pytest.param(np.inf, 1, BAD_STEP, id="inf"),
    # a grid that does not advance, and counts that are not counts
    pytest.param(0.0, 1, BAD_STEP, id="zero-step"),
    pytest.param(0.5, -1, BAD_COUNT, id="n=-1"),
    pytest.param(0.5, 1.5, BAD_COUNT, id="n=1.5"),
    pytest.param(0.5, True, BAD_COUNT, id="n=True"),
])
def test_propagators_reject_bad_times(propagate, h, n, message):
    with pytest.raises(ValueError, match=message):
        propagate(h, n)


@pytest.mark.parametrize("propagate", PROPAGATORS)
def test_count_zero_gives_the_start_alone(propagate):
    traj = propagate(0.5, 0)
    assert traj.times.tolist() == [0.0]
    assert len(traj.norms) == len(traj.sys_states) == len(traj.states) == 1
    assert max_abs(traj.sys_states[0] - swap_init().rho_sys) <= 1e-15
    # numpy scalars are a step and a count too
    longer = propagate(np.float64(0.5), np.int64(3))
    np.testing.assert_array_equal(longer.times, np.arange(4) * 0.5)
    np.testing.assert_array_equal(traj.states[0], longer.states[0])


@pytest.mark.parametrize("propagate, eff", [
    pytest.param(propagate_kraus, swap_selective_eff, id="kraus"),
    pytest.param(semigroup_propagate, swap_gen, id="semigroup"),
])
@pytest.mark.parametrize("init", [
    pytest.param(InitialState(np.eye(4) / 4, np.eye(1)), id="4x1"),
    pytest.param(InitialState(np.eye(3) / 3, np.diag([1.0, 0.0])), id="3x2"),
    pytest.param(InitialState(np.eye(2) / 2, np.diag([1.0, 0.0, 0.0])), id="2x3"),
])
def test_limits_refuse_an_initial_state_of_another_split(propagate, eff, init):
    # the exact runners' rule and message against the generators' 2 x 2
    # split; the 4 x 1 split has the same joint dimension
    with pytest.raises(ValueError, match="^initial state does not match "
                                         "Hamiltonian dimensions$"):
        propagate(eff(), init, 0.5, 2)


@pytest.mark.parametrize("h, n", [pytest.param(0.04, 250, id="uniform")])
def test_semigroup_matches_per_time_exponentials(h, n):
    ref = swap_ref()
    init = swap_init()
    eff = swap_gen()
    traj = semigroup_propagate(eff, init, h, n)
    assert len(traj) == n + 1
    for t, got in zip(traj.times, lift(eff.layout, traj.states)):
        want = ref.evolve(init.joint(), t)
        assert max_abs(got - want) <= 1e-12


def d32_model(rng):
    """4 x 8 with four rank-2 probe blocks at gamma = 5, tau = 0.04, the shape
    of the nonselective_d32 benchmark: N = 4 * 8^2 = 256."""
    ham = random_hamiltonian_spec(rng, 4, 8, gamma=GAMMA)
    u = random_unitary(rng, 8)
    spec = family_spec([[u[:, 2 * k], u[:, 2 * k + 1]] for k in range(4)])
    eff = build_generator(ham, spec, TAU)
    init = InitialState(random_density(rng, 4), random_density(rng, 8))
    return eff, init


def packed_start(eff, init):
    return eff.layout.pack(eff.layout.compress(init.joint()))


def counted(monkeypatch):
    """Patch the generator that semigroup_propagate forms,
    `nonselective_limit.packed_generator`, to return it viewed as an ndarray
    that records each of its products generator @ x, at most 1000, in the
    list returned."""
    products = []

    class Counting(np.ndarray):
        def __matmul__(self, other):
            products.append(1)
            assert len(products) <= 1000, "unbounded generator products"
            return np.asarray(self) @ other

    real = nonselective_limit.packed_generator
    monkeypatch.setattr(nonselective_limit, "packed_generator",
                        lambda eff: real(eff).view(Counting))
    return products


class TestSemigroupPaths:
    """semigroup_propagate takes its steps by the action of the generator or
    by one dense exponential, whichever its cost rule prefers."""

    def test_paths_agree_on_a_uniform_grid(self, rng):
        eff, init = d32_model(rng)
        y0, gen = packed_start(eff, init), packed_generator(eff)
        action = _action_run(gen, 0.3, y0, np.arange(21))
        dense = _dense_run(gen, 0.3, y0, np.arange(21))
        assert action.shape == dense.shape == (21, 256)
        assert max_abs(action - dense) <= 1e-14

    def test_benchmark_grid_takes_the_action(self, monkeypatch, rng):
        eff, init = d32_model(rng)
        calls = counting_expm(monkeypatch)
        gen = packed_generator(eff)
        norm1 = 1.0 * np.linalg.norm(gen, 1)
        assert _action_is_cheaper(256, 10, norm1, _power_degree(gen, 1.0, norm1))
        traj = semigroup_propagate(eff, init, 1.0, 10)
        assert calls == []
        states = lift(eff.layout, traj.states)
        for t, got in zip(traj.times, states):
            assert max_abs(got - block_evolve(eff, states[0], t)) <= 1e-13

    def test_substeps_match_the_dense_exponential(self, monkeypatch, rng):
        # ||L h||_1 is about 20 theta_55, so the one step takes s > 1 sub-steps
        eff, init = d32_model(rng)
        norm1 = np.linalg.norm(packed_generator(eff), 1)
        h = 200.0 / norm1
        assert taylor_degree(h * norm1)[1] > 1
        calls = counting_expm(monkeypatch)
        traj = semigroup_propagate(eff, init, h, 1)
        assert calls == []
        states = lift(eff.layout, traj.states)
        assert max_abs(states[1] - block_evolve(eff, states[0], h)) <= 1e-13

    def test_benchmark_input_takes_one_substep_per_sample(self, monkeypatch, tmp_path):
        # the nonselective_d32 benchmark input (seed 1): ||L h||_1 = 13.49
        # sizes each step as (45, 2) and 491 products with early stopping;
        # the power norms d_2 = 7.93 and d_3 = 6.73, estimated from 15
        # products with blocks of two vectors, size it as (50, 1)
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        scenarios = importlib.import_module("scenarios")
        sc = load_scenario(scenarios.write_scenario("nonselective_d32", 1, str(tmp_path)))
        assert (sc.step, sc.grid_points) == (1.0, 10)
        eff = build_generator(sc.hamiltonian, sc.measurement, sc.tau)
        gen = packed_generator(eff)
        norm1 = np.linalg.norm(gen, 1)
        assert taylor_degree(norm1) == (45, 2)
        assert _power_degree(gen, 1.0, norm1) == (50, 1)
        want = semigroup_propagate(eff, sc.initial, 1.0, 10).states
        products = counted(monkeypatch)
        traj = semigroup_propagate(eff, sc.initial, 1.0, 10)
        assert 0 < len(products) <= 370
        assert np.array_equal(traj.states, want)

    def test_a_run_of_no_step_takes_no_product(self, monkeypatch, rng):
        # the start alone: no power norm is estimated and no exponential made,
        # though ||L h||_1 would size a step of two sub-steps
        eff, init = d32_model(rng)
        assert taylor_degree(np.linalg.norm(packed_generator(eff), 1))[1] > 1
        want = semigroup_propagate(eff, init, 1.0, 3).states[:1]
        calls = counting_expm(monkeypatch)
        products = counted(monkeypatch)
        traj = semigroup_propagate(eff, init, 1.0, 0)
        assert products == [] and calls == []
        assert np.array_equal(traj.states, want)

    def test_huge_gaps_take_a_bounded_number_of_products(self, monkeypatch, rng):
        # gaps of 1e9 have ||L h||_1 ~ 1e10: stepping by the action would take
        # about 1e11 products of the generator with a vector
        eff, init = d32_model(rng)
        calls = counting_expm(monkeypatch)
        products = counted(monkeypatch)
        traj = semigroup_propagate(eff, init, 1e9, 10)
        assert len(products) == 0
        assert len(calls) == 1
        assert np.all(np.isfinite(traj.states))
        # the 34 squarings drift the trace by about 7e-8; the blocks are
        # Hermitian by construction (`unpack`) and normalized, their traces
        # summing to 1, and the norms report the drift
        trace = np.einsum("tkaa->t", traj.states)
        assert max_abs(trace - 1.0) <= 1e-12
        assert not trace.imag.any()
        assert np.array_equal(traj.states, dag(traj.states))
        assert max_abs(traj.norms - 1.0) > 1e-12

    @pytest.mark.parametrize("h", [0.01, 1.0, 10.0])
    def test_dense_exponential_matches_scipy(self, rng, h):
        # ||L h||_1 = 0.125, 12.5 and 125: 0, 4 and 7 squarings
        eff, _ = d32_model(rng)
        gen = packed_generator(eff)
        want = scipy.linalg.expm(gen * h)
        assert max_abs(expm(gen * h) - want) <= 1e-13 * max_abs(want)

    @pytest.mark.parametrize("h, n", [
        pytest.param(0.01, 1000, id="dense"),
        pytest.param(1.0, 10, id="benchmark"),
    ])
    def test_states_are_hermitian_bit_for_bit(self, rng, h, n):
        eff, init = d32_model(rng)
        traj = semigroup_propagate(eff, init, h, n)
        assert np.array_equal(traj.states, dag(traj.states))


@pytest.mark.parametrize("tau", [0.04, 0.01, 0.0025, 0.000625])
def test_swap_file_takes_one_pade_exponential(monkeypatch, tau):
    # the bundled N = 8 generator, at the file's tau and the sweep's: one
    # dense exponential, then one product per step
    sc = load_bundled("swap_nonselective")
    ham = sc.hamiltonian.with_gamma(float(np.sqrt(sc.omega / tau)))
    eff = build_generator(ham, sc.measurement, tau)
    steps = round(sc.t_max / tau)
    gen = packed_generator(eff)
    assert gen.shape == (8, 8)
    # the dense exponential wins even at the degree for |tr(L tau)| / 8,
    # below every power norm, so none is estimated
    floor = taylor_degree(tau * abs(np.trace(gen)) / 8)
    assert not _action_is_cheaper(8, steps, tau * np.linalg.norm(gen, 1), floor)
    calls = counting_expm(monkeypatch)
    traj = semigroup_propagate(eff, sc.initial, tau, steps)
    assert len(calls) == 1
    assert np.array_equal(traj.states, dag(traj.states))


def test_generator_at_d64_stays_off_the_full_space():
    # 4 x 16 with eight rank-2 probe blocks: N = 8 * 8^2 = 512, while a single
    # d^2 x d^2 complex superoperator would take 64^4 * 16 bytes = 256 MiB
    import tracemalloc
    rng = np.random.default_rng(64)
    ham = random_hamiltonian_spec(rng, 4, 16, n_terms=2, gamma=2.0)
    u = random_unitary(rng, 16)
    spec = family_spec([[u[:, 2 * k], u[:, 2 * k + 1]] for k in range(8)])
    tracemalloc.start()
    try:
        gen = packed_generator(build_generator(ham, spec, 0.25))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gen.shape == (512, 512)
    assert peak < 64 * 2 ** 20
    # the real generator (2 MiB) plus block-sized temporaries: a complex
    # 512 x 512 matrix alone would take 4 MiB
    assert gen.dtype == np.float64
    assert peak < 1.5 * gen.nbytes


class TestChoi:
    def test_identity_channel_choi_psd(self):
        d = 3
        choi = choi_matrix(np.eye(d * d))
        w = np.linalg.eigvalsh(choi)
        assert w.min() > -1e-12
        assert abs(np.trace(choi) - d) < 1e-12

    def test_semigroup_choi_psd(self, rng):
        _, ref = random_generator(rng, 2, 2)
        from stroblim.linalg import expm
        for t in (0.1, 1.0, 10.0):
            choi = choi_matrix(expm(ref.lindblad * t))
            w = np.linalg.eigvalsh((choi + dag(choi)) / 2)
            assert w.min() > -1e-8


class TestPauliReduction:
    def test_single_qubit_flip_rates(self):
        # |<d|sx|u>|^2 = 1: both directions flip at rate Omega
        ham = HamiltonianSpec(2.0, ((np.eye(1), pauli(1)),))
        eff = build_generator(ham, zbasis_meas(), 0.25)
        w = pauli_rates(eff)
        omega = eff.omega
        assert w[0, 0] == 0 and w[1, 1] == 0
        assert abs(w[0, 1] - omega) < 1e-12
        assert abs(w[1, 0] - omega) < 1e-12

    def test_diagonal_h_no_transitions(self):
        ham = HamiltonianSpec(1.0, ((np.eye(1), pauli(3)),))
        eff = build_generator(ham, zbasis_meas(), 0.1)
        assert max_abs(pauli_rates(eff)) == 0

    def test_row_sum_identity(self, rng):
        ham = random_hamiltonian_spec(rng, 1, 4, n_terms=2, gamma=2.0)
        groups = random_projector_family(rng, 4, n_blocks=4)
        eff = build_generator(ham, family_spec(groups), 0.25)
        h = full_space_reference(ham, family_spec(groups), 0.25).h
        w = pauli_rates(eff)
        for i, basis in enumerate(eff.layout.bases):
            ket = basis[:, 0]
            h_exp = np.vdot(ket, h @ ket).real
            h2_exp = np.vdot(ket, h @ h @ ket).real
            want = eff.omega * (h2_exp - h_exp ** 2)
            assert abs(w[:, i].sum() - want) < 1e-12

    def test_symmetric_rates_fix_uniform(self):
        ham = HamiltonianSpec(2.0, ((np.eye(1), pauli(1)),))
        eff = build_generator(ham, zbasis_meas(), 0.25)
        w = pauli_rates(eff)
        p = np.array([0.5, 0.5])
        assert max_abs(pauli_rhs(w, p)) < 1e-14

    def test_rejects_rank2_family(self):
        # rank-2 blocks: reduction undefined
        spec = measurement_from_kets([[basis_ket("uu"), basis_ket("dd")],
                                      [basis_ket("ud"), basis_ket("du")]])
        ham4 = HamiltonianSpec(1.0, ((np.eye(1), swap_hamiltonian(1.0).dimensionless()),))
        eff = build_generator(ham4, spec, 0.1)
        with pytest.raises(ValueError):
            pauli_rates(eff)

    def test_pauli_integration_matches_semigroup_diagonal(self, rng):
        ham = HamiltonianSpec(2.0, ((np.eye(1), random_hermitian(rng, 4, norm=1.0)),))
        groups = [[np.eye(4)[:, k]] for k in range(4)]
        eff = build_generator(ham, family_spec(groups), 0.25)
        p0 = np.array([0.4, 0.3, 0.2, 0.1])
        init = InitialState(np.eye(1, dtype=complex), np.diag(p0).astype(complex))
        traj = semigroup_propagate(eff, init, 0.5, 10)
        pauli_p = rk4_sample(partial(pauli_rhs, pauli_rates(eff)), p0, 0.5, 10, 4000)
        for k in range(len(traj)):
            diag = traj.states[k, :, 0, 0].real
            assert max_abs(diag - pauli_p[k]) < 1e-8


class TestClosedForm:
    def test_time_zero(self, rng):
        rho0 = random_density(rng, 2)
        assert max_abs(swap_nonselective_closed_form(5.0, 1.0, rho0, 0.0) - rho0) == 0

    def test_array_of_times_equals_per_time_calls(self, rng):
        rho0 = random_density(rng, 2)
        times = np.r_[0.0, np.sort(rng.uniform(0.0, 40.0, 300)), 40.0]
        stack = swap_nonselective_closed_form(5.0, 0.7, rho0, times)
        assert stack.shape == (len(times), 2, 2)
        for t, state in zip(times, stack):
            single = swap_nonselective_closed_form(5.0, 0.7, rho0, t)
            assert single.shape == (2, 2)
            assert max_abs(state - single) <= 1e-15
        grid = times[:8].reshape(2, 4)
        assert swap_nonselective_closed_form(5.0, 0.7, rho0, grid).shape == (2, 4, 2, 2)

    def test_ground_state_relaxation_value(self):
        # Omega = 0.1, T = 5: populations ( (1 - e^-1)/2, (1 + e^-1)/2 )
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        got = swap_nonselective_closed_form(5.0, 0.1, rho0, 5.0)
        want = np.diag([(1 - np.exp(-1)) / 2, (1 + np.exp(-1)) / 2])
        assert max_abs(got - want) < 1e-15
        assert got[0, 0].real == pytest.approx(0.31606027941427883)
        assert got[1, 1].real == pytest.approx(0.6839397205857212)

    def test_fixed_point_and_coherence_erasure(self):
        # the reduced map fixes the excited state; off-diagonals never appear
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        got = swap_nonselective_closed_form(3.0, 0.7, rho0, 11.0)
        assert max_abs(got - rho0) < 1e-12
        mixed = swap_nonselective_closed_form(3.0, 0.7, np.eye(2) / 2, 4.0)
        assert abs(mixed[0, 1]) < 1e-12 and abs(mixed[1, 0]) < 1e-12

    def test_mixed_state_matches_exact_oracle(self):
        # maximally mixed system with the probe pinned up relaxes toward
        # populations (3/4, 1/4); cross-checked against the stepwise run
        ham = swap_hamiltonian(5.0)
        init = InitialState(np.eye(2) / 2, np.diag([1.0, 0.0]).astype(complex))
        traj = run_nonselective(EvolutionPlan(ham, zbasis_meas(), 0.04, 250), init)
        cf = swap_nonselective_closed_form(5.0, 1.0, np.eye(2) / 2, 10.0)
        assert abs(cf[0, 0].real - 0.75) < 1e-8
        assert abs(traj.p_up()[-1] - cf[0, 0].real) < 0.01

    def test_trace_exact_and_late_time_limit(self, rng):
        rho0 = random_density(rng, 2)
        for t in (0.3, 2.0, 60.0):
            out = swap_nonselective_closed_form(2.0, 0.5, rho0, t)
            assert abs(np.trace(out) - 1.0) < 1e-12
        late = swap_nonselective_closed_form(2.0, 0.5, rho0, 80.0)
        assert abs(late[1, 1] - rho0[1, 1] / 2) < 1e-12

    def test_reduced_map_is_not_a_semigroup(self):
        # composing the T-map twice differs from the 2T-map (witness, not norm)
        rho0 = np.diag([0.0, 1.0]).astype(complex)
        t, omega = 0.5, 1.0
        twice = swap_nonselective_closed_form(5.0, omega,
                                              swap_nonselective_closed_form(
                                                  5.0, omega, rho0, t), t)
        direct = swap_nonselective_closed_form(5.0, omega, rho0, 2 * t)
        assert max_abs(twice - direct) > 1e-3

    def test_triple_route_agreement(self, rng):
        # closed form vs block integration vs semigroup partial trace
        gamma, omega = 1.0, 0.1
        tau = omega / gamma ** 2
        eff = build_generator(swap_hamiltonian(gamma), zbasis_meas(), tau)
        rho_sys = np.array([[0.62, 0.18 - 0.1j], [0.18 + 0.1j, 0.38]])
        init = InitialState(rho_sys, np.diag([1.0, 0.0]).astype(complex))
        semi = semigroup_propagate(eff, init, 2.5, 16)
        layout = eff.layout
        blocks = layout.unpack(rk4_sample(packed_generator(eff).dot,
                                          layout.pack(layout.compress(init.joint())),
                                          2.5, 16, 8000))
        for k, t in enumerate(semi.times):
            cf = swap_nonselective_closed_form(gamma, omega, rho_sys, t)
            assert trace_distance(semi.sys_states[k], cf) < 1e-8
            # compressed blocks are the per-outcome system matrices directly
            reduced = blocks[k].sum(axis=0)
            assert trace_distance(reduced, cf) < 1e-8


def channel_power_deviation(ham, spec, tau, t_max):
    """max_n ||Phi^n - exp(tau L)^n||_2 over the periods n <= t_max / tau,
    Phi the exact period's packed channel map and L the packed generator:
    the limit's error on the dynamics itself, with no initial state."""
    layout = spec.full_layout(ham.dim_sys)
    w = layout.pairs(expm(-1j * tau * ham.assemble()))
    phi = layout.packed_map(w, dag(w).swapaxes(0, 1))
    e = expm(tau * packed_generator(build_generator(ham, spec, tau)))
    eye, ns = np.eye(len(phi)), range(round(t_max / tau) + 1)
    diffs = (step_powers(lambda p: phi @ p, eye, ns)
             - step_powers(lambda q: e @ q, eye, ns))
    return np.linalg.norm(diffs, 2, axis=(1, 2)).max()


@pytest.mark.parametrize("model, ratios", [
    ("swap", (3.8, 4.2)),
    ("random_2x4", (1.9, 2.1)),
])
def test_channel_powers_converge_at_the_order_of_the_model(model, ratios):
    # at Omega = 1 over t_max = 2, the state-free deviation of the channel
    # powers falls 4x per 4x smaller tau for the swap (order 1) and only 2x
    # for a generic model with two rank-2 blocks (order 1/2), the defect of
    # the paper's generator that a third-order term would remove
    taus = [0.04, 0.01, 0.0025, 0.000625]
    if model == "swap":
        spec, hams = zbasis_meas(), [swap_hamiltonian(np.sqrt(1 / t)) for t in taus]
    else:
        rng = np.random.default_rng(7)
        terms = random_hamiltonian_spec(rng, 2, 4).terms
        spec = family_spec(random_projector_family(rng, 4, 2))
        assert spec.full_layout(2).sizes.tolist() == [4, 4]
        hams = [HamiltonianSpec(np.sqrt(1 / t), terms) for t in taus]
    devs = [channel_power_deviation(h, spec, t, 2.0) for h, t in zip(hams, taus)]
    lo, hi = ratios
    for a, b in zip(devs, devs[1:]):
        assert lo <= a / b <= hi
