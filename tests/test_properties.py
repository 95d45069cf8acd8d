"""Property tests on randomly drawn models, derandomized so every run draws
the same examples."""

import re

import numpy as np
import pytest

from helpers import (assembled_generator, assert_same_run, channel_superop,
                     choi_matrix, expm_paths, family_spec, full_space_reference,
                     lift, random_complex, random_density, random_hamiltonian_spec,
                     random_projector_family, random_unitary,
                     reference_selective, unvec, vec)
from stroblim import (EvolutionPlan, InitialState, MeasurementSpec,
                      VanishingProbabilityError, build_generator, effective_rankr,
                      propagate_kraus, run_selective, semigroup_propagate)
from stroblim import Trajectory
from stroblim.linalg import (_power_degree, _power_norm1, dag, expm, max_abs,
                             op_norm, taylor_degree)
from stroblim.model import BlockLayout
from stroblim.nonselective_limit import packed_generator

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

DETERMINISTIC = hypothesis.settings(derandomize=True, database=None, deadline=None,
                                    max_examples=25)


@DETERMINISTIC
@hypothesis.example(seed=7, dims=(2, 2), every=9, periods=60, gamma=40.0,
                    vanishes_at=27)
@hypothesis.example(seed=7, dims=(2, 2), every=6, periods=60, gamma=40.0,
                    vanishes_at=27)
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  dims=st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (2, 4)]),
                  every=st.integers(1, 12), periods=st.integers(0, 60),
                  gamma=st.sampled_from([2.0, 40.0]), vanishes_at=st.none())
def test_power_oracle_equals_the_loop_oracle(seed, dims, every, periods, gamma,
                                             vanishes_at):
    # run_selective takes period n as binary powers of the one-period map;
    # the reference applies the full-space instrument period by period, over
    # a period count that the stride divides.  At gamma = 40 (gamma tau = 2)
    # the branch probability can fall below the floor within the run; the
    # two examples reach it at period 27, sampled at every = 9 and between
    # the samples 24 and 30 at every = 6, and assert that they raise there
    rng = np.random.default_rng(seed)
    ham = random_hamiltonian_spec(rng, *dims, gamma=gamma)
    groups = random_projector_family(rng, dims[1])
    sel = int(rng.integers(len(groups)))
    spec = family_spec(groups, selected_index=sel)
    v = spec.bases[sel]
    init = InitialState(random_density(rng, dims[0]),
                        v @ random_density(rng, v.shape[1]) @ dag(v))
    plan = EvolutionPlan(ham, spec, 0.05, periods - periods % every)
    try:
        want = reference_selective(plan, init, every=every)
    except VanishingProbabilityError as err:
        step = re.search(r"at T = \S+ \(step (\d+), ", str(err))
        with pytest.raises(VanishingProbabilityError, match=re.escape(step.group(0))):
            run_selective(plan, init, every=every)
        assert vanishes_at in (None, int(step.group(1)))
        return
    assert vanishes_at is None
    assert_same_run(run_selective(plan, init, every=every), want, plan)


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), dim_sys=st.integers(1, 4),
                  r_p=st.integers(1, 3), r=st.integers(1, 3),
                  t=st.integers(1, 40), dense=st.booleans())
def test_p_up_of_a_factor_run_is_the_formed_population(seed, dim_sys, r_p, r, t,
                                                       dense):
    # p_up reads the first population off the factors of a branch run, with
    # the products of the formed stack, before and after sys_states is first
    # read; the stack is formed once, on that read.  The factors come from
    # factor_powers, in the memory order of the table (counts 0..n) or of
    # the bit walk.  The start factor has min(r, dim_sys) r_P columns, and
    # the step 0.95 U keeps the probability above the floor: 0.95^320 = 7e-8
    # at the largest count, 160
    rng = np.random.default_rng(seed)
    m = 0.95 * random_unitary(rng, dim_sys * r_p)
    layout = BlockLayout(dim_sys, [np.eye(r_p, dtype=complex)])
    init = InitialState(random_density(rng, dim_sys, min(r, dim_sys)),
                        random_density(rng, r_p))
    ns = np.arange(t) if dense else np.cumsum(rng.integers(1, 5, size=t))
    traj = Trajectory.from_branch(0.1, layout, init, m, ns)
    assert np.array_equal(traj.times, ns * 0.1)
    before = traj.p_up()
    assert "sys_states" not in vars(traj)
    states = traj.sys_states
    assert states.shape == (t, dim_sys, dim_sys)
    assert traj.sys_states is states
    assert np.array_equal(before, states[:, 0, 0].real)
    assert np.array_equal(traj.p_up(), states[:, 0, 0].real)


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  dims=st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (2, 4)]),
                  ranks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
                  periods=st.integers(0, 60))
def test_selective_states_are_positive_semidefinite(seed, dims, ranks, periods):
    # every selective state is G G+ for a factor G, in the exact run and in
    # the limit, the system marginals and the blocks alike
    rng = np.random.default_rng(seed)
    ham = random_hamiltonian_spec(rng, *dims)
    groups = random_projector_family(rng, dims[1])
    sel = int(rng.integers(len(groups)))
    spec = family_spec(groups, selected_index=sel)
    v = spec.bases[sel]
    init = InitialState(random_density(rng, dims[0], min(ranks[0], dims[0])),
                        v @ random_density(rng, v.shape[1], min(ranks[1], v.shape[1]))
                        @ dag(v))
    runs = (lambda: run_selective(EvolutionPlan(ham, spec, 0.05, periods), init),
            lambda: propagate_kraus(effective_rankr(ham, spec, 0.05), init, 0.05,
                                    periods))
    for run in runs:
        try:
            traj = run()
        except VanishingProbabilityError:
            continue
        for states in (traj.sys_states, traj.states):
            assert np.linalg.eigvalsh(states).min() >= -1e-14


# Random complete families have unequal ranks, so the block stacks are padded.
UNEQUAL_DIMS = st.sampled_from([(1, 3), (2, 3), (1, 4), (2, 4), (1, 5)])
# Operator norms of the Hamiltonian factors; gamma shrinks as 1 / norm^2, so
# that H = gamma h keeps its scale while h, T_ij and D_i grow.
FACTOR_NORMS = st.sampled_from([1.0, 1e2, 1e4])


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), dims=UNEQUAL_DIMS)
def test_measurement_takes_complete_families_and_refuses_overlaps(seed, dims):
    # the bases of a random complete family are accepted, and their
    # projectors resolve the identity; one column turned by 1e-6 towards a
    # column of another outcome makes the two outcomes overlap
    rng = np.random.default_rng(seed)
    groups = random_projector_family(rng, dims[1])
    spec = family_spec(groups)
    assert max_abs(sum(spec.projectors) - np.eye(dims[1])) <= 1e-12
    i, j = (int(k) for k in rng.choice(len(groups), size=2, replace=False))
    a, b = groups[i][0], groups[j][-1]
    groups[i][0] = np.cos(1e-6) * a + np.sin(1e-6) * b
    with pytest.raises(ValueError, match=f"outcomes {min(i, j)} and {max(i, j)} overlap"):
        family_spec(groups)


def random_family_model(seed, dims, norm):
    rng = np.random.default_rng(seed)
    ham = random_hamiltonian_spec(rng, *dims, gamma=2.0 / norm ** 2, norm=norm)
    return rng, ham, family_spec(random_projector_family(rng, dims[1]))


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), dims=UNEQUAL_DIMS,
                  norm=FACTOR_NORMS)
def test_generator_blocks_are_the_selective_generators(seed, dims, norm):
    # the rank-sized slice of Heff_i is H1 - i H2 of outcome i, with H2 >= 0;
    # the transitions pair, T_ij+ = T_ji, and the complete family gives the
    # dispersion identity (Omega/2) sum_{j != i} T_ij T_ji = H2_i
    _, ham, spec = random_family_model(seed, dims, norm)
    eff = build_generator(ham, spec, 0.25)
    h_sq = op_norm(ham.dimensionless()) ** 2
    trans = eff.trans
    assert max_abs(dag(trans) - trans.swapaxes(0, 1)) <= 1e-12 * h_sq
    leak = trans @ trans.swapaxes(0, 1)
    idx = np.arange(len(trans))
    leak[idx, idx] = 0
    half = eff.omega / 2
    assert max_abs(half * leak.sum(axis=1) - eff.h2) \
        <= 1e-12 * half * h_sq
    for i, heff in enumerate(eff.heff):
        sel = effective_rankr(ham, MeasurementSpec(spec.bases, i), 0.25)
        n = sel.layout.sizes[0]
        assert max_abs(heff[:n, :n] - sel.heff[0]) <= 1e-12
        assert np.linalg.eigvalsh(sel.h2[0]).min() >= -1e-12 * eff.omega * h_sq


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), dims=UNEQUAL_DIMS)
def test_packed_channel_map_is_the_block_step(seed, dims):
    # Phi = packed_map(W, W+) of the blocks W_ij = V_i+ U V_j of a random
    # unitary U is the channel step b_i <- sum_j W_ij b_j W_ij+ on packed
    # coordinates of padded blocks; it preserves trace and, the channel
    # being unital, fixes the maximally mixed state
    rng = np.random.default_rng(seed)
    spec = family_spec(random_projector_family(rng, dims[1]))
    layout = spec.full_layout(dims[0])
    w = layout.pairs(random_unitary(rng, dims[0] * dims[1]))
    phi = layout.packed_map(w, dag(w).swapaxes(0, 1))
    x = random_complex(rng, (5,) + layout.mask.shape)
    blocks = np.where(layout.mask, (x + dag(x)) / 2, 0)
    want = layout.pack((w @ blocks[:, None] @ dag(w)).sum(axis=2))
    assert max_abs(layout.pack(blocks) @ phi.T - want) <= 1e-14
    mask = layout.mask
    ident = np.broadcast_to(np.eye(mask.shape[1]), mask.shape)[mask]
    assert max_abs(ident @ phi - ident) <= 1e-14
    assert max_abs(phi @ ident - ident) <= 1e-14


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), dims=UNEQUAL_DIMS,
                  norm=FACTOR_NORMS, tau=st.sampled_from([1e-3, 0.25, 4.0]))
def test_generator_is_the_in_place_block_assembly(seed, dims, norm, tau):
    # the jump terms from packed_map and the diagonal blocks reset and
    # rewritten give the bytes of the assembly that wrote every block in place
    _, ham, spec = random_family_model(seed, dims, norm)
    got = packed_generator(build_generator(ham, spec, tau))
    assert got.tobytes() == assembled_generator(ham, spec, tau).tobytes()


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), dims=UNEQUAL_DIMS,
                  norm=FACTOR_NORMS)
def test_semigroup_keeps_trace_and_blocks(seed, dims, norm):
    # the generator preserves trace and fixes the maximally mixed state
    rng, ham, spec = random_family_model(seed, dims, norm)
    eff = build_generator(ham, spec, 0.25)
    h_norm = op_norm(ham.dimensionless())
    tol = 1e-12 * (eff.omega * h_norm ** 2 + eff.gamma * h_norm)
    mask = eff.layout.mask
    ident = np.broadcast_to(np.eye(mask.shape[1]), mask.shape)[mask]
    gen = packed_generator(eff)
    assert max_abs(ident @ gen) <= tol
    assert max_abs(gen @ ident) <= tol
    r = random_density(rng, dims[1])
    init = InitialState(random_density(rng, dims[0]),
                        sum(p @ r @ p for p in spec.projectors))
    traj = semigroup_propagate(eff, init, 0.5, 4)
    assert max_abs(traj.norms - 1.0) <= 1e-12
    # the blocks stay on their ranges: the padding stays zero
    assert traj.states.shape == (5,) + mask.shape
    assert not traj.states[:, ~mask].any()


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), dims=UNEQUAL_DIMS,
                  norm=FACTOR_NORMS)
def test_semigroup_after_the_channel_is_completely_positive(seed, dims, norm):
    # exp(L t) of the real generator on the packed blocks, after the
    # measurement channel (the compression to the blocks), extended complex-
    # linearly from Hermitian inputs: its Choi matrix is positive, and it is
    # the full-space Lindblad reference after the channel
    _, ham, spec = random_family_model(seed, dims, norm)
    eff = build_generator(ham, spec, 0.25)
    ref = full_space_reference(ham, spec, 0.25)
    layout, d = eff.layout, ham.dims.total
    units = np.array([unvec(e) for e in np.eye(d * d)])       # vec(units[c]) = e_c
    parts = np.concatenate(((units + dag(units)) / 2, (units - dag(units)) / 2j))
    coords = layout.pack(layout.compress(parts))
    for t in (0.5, 4.0):
        images = lift(layout, layout.unpack(coords @ expm(packed_generator(eff) * t).T))
        images = images[:d * d] + 1j * images[d * d:]
        superop = np.column_stack([vec(x) for x in images])
        assert max_abs(superop - expm(ref.lindblad * t) @ channel_superop(ref.c_ops)) \
            <= 1e-10
        assert np.linalg.eigvalsh(choi_matrix(superop)).min() >= -1e-8


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  dims=st.sampled_from([(1, 4), (2, 4), (3, 2), (2, 6)]),
                  rank=st.sampled_from([None, 1, 2]),
                  h=st.sampled_from([0.01, 0.3, 2.0]), size=st.integers(0, 30))
def test_action_path_states_are_density_matrices(seed, dims, rank, h, size):
    # rank None draws a family of unequal ranks, so the block stack is padded
    rng = np.random.default_rng(seed)
    ham = random_hamiltonian_spec(rng, *dims)
    if rank is None:
        groups = random_projector_family(rng, dims[1])
    else:
        u = random_unitary(rng, dims[1])
        groups = [list(u[:, k:k + rank].T) for k in range(0, dims[1], rank)]
    eff = build_generator(ham, family_spec(groups), 0.25)
    v, gen = eff.layout.bases, packed_generator(eff)
    rho0 = random_density(rng, dims[0] * dims[1])
    y0 = eff.layout.pack(dag(v) @ rho0 @ v)
    counts = np.arange(size + 1)
    action, dense = expm_paths(gen, h, y0, counts)
    assert max_abs(action - dense) <= 1e-13
    states = (v @ eff.layout.unpack(action) @ dag(v)).sum(axis=-3)
    assert max_abs(np.trace(states, axis1=-2, axis2=-1) - 1.0) <= 1e-12
    assert max_abs(states - dag(states)) <= 1e-13
    assert np.linalg.eigvalsh(states).min() >= -1e-10


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  dims=st.sampled_from([(1, 8), (2, 3), (2, 4), (3, 3), (4, 2)]),
                  norm1=st.sampled_from([0.1, 1.0, 5.0, 12.0, 30.0, 80.0, 200.0]),
                  size=st.integers(1, 4))
def test_power_norm_sizing_matches_the_dense_exponential(seed, dims, norm1, size):
    # a complete family of 2 or more blocks, often of unequal ranks, pads the
    # block stack, N <= 50; ||L h||_1 runs from 0.1 to 200, and from 12 on,
    # above theta_55 = 9.9, takes more than one sub-step by the 1-norm, so
    # that the power norms are estimated
    rng = np.random.default_rng(seed)
    ham = random_hamiltonian_spec(rng, *dims)
    eff = build_generator(ham, family_spec(random_projector_family(rng, dims[1])), 0.25)
    gen, layout = packed_generator(eff), eff.layout
    h = norm1 / np.linalg.norm(gen, 1)
    # the estimates are norms of products with vectors of unit 1-norm: never
    # above the exact norm, up to the rounding of the two product orders
    for p in (2, 3):
        exact = np.linalg.norm(np.linalg.matrix_power(gen, p), 1)
        assert _power_norm1(gen, p) <= exact * (1 + 1e-12)
    degree = _power_degree(gen, h, norm1)
    assert _power_degree(gen, h, norm1) == degree
    m, s = degree
    m1, s1 = taylor_degree(norm1)
    assert m * s <= m1 * s1
    y0 = layout.pack(layout.compress(random_density(rng, dims[0] * dims[1])))
    counts = np.arange(size + 1)
    action, dense = expm_paths(gen, h, y0, counts)
    assert max_abs(action - dense) <= 1e-13
