"""Property tests on randomly drawn models, derandomized so every run draws
the same examples."""

import re

import numpy as np
import pytest

from helpers import (assert_same_run, channel_superop, choi_matrix, family_spec,
                     full_space_reference, random_density,
                     random_hamiltonian_spec, random_projector_family,
                     random_unitary, reference_selective, unvec, vec)
from stroblim import (EvolutionPlan, InitialState, MeasurementSpec,
                      VanishingProbabilityError, build_generator, effective_rankr,
                      propagate_kraus, run_selective, semigroup_propagate)
from stroblim.linalg import _action_run, _dense_run, dag, expm, max_abs, op_norm

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

DETERMINISTIC = hypothesis.settings(derandomize=True, database=None, deadline=None,
                                    max_examples=25)


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  dims=st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (2, 4)]),
                  every=st.integers(1, 12), periods=st.integers(0, 60))
def test_power_oracle_equals_the_loop_oracle(seed, dims, every, periods):
    # run_selective takes period n as binary powers of the one-period map;
    # the reference applies the full-space instrument period by period, over
    # a period count that the stride divides
    rng = np.random.default_rng(seed)
    ham = random_hamiltonian_spec(rng, *dims)
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
        step = re.search(r"at step \d+ ", str(err)).group(0)
        with pytest.raises(VanishingProbabilityError, match=step):
            run_selective(plan, init, every=every)
        return
    assert_same_run(run_selective(plan, init, every=every), want)


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  dims=st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (2, 4)]),
                  ranks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
                  periods=st.integers(0, 60))
def test_selective_states_are_positive_semidefinite(seed, dims, ranks, periods):
    # every selective state is G G+ for a factor G, in the exact run and in
    # the limit, the system marginals and the lifted or block states alike
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
    assert max_abs(half * leak.sum(axis=1) - ham.blocks(eff.layout, 0.25)[2]) \
        <= 1e-12 * half * h_sq
    for i, heff in enumerate(eff.heff):
        sel = effective_rankr(ham, MeasurementSpec(spec.bases, i), 0.25)
        n = sel.dim
        assert max_abs(heff[:n, :n] - sel.h_eff) <= 1e-12
        assert np.linalg.eigvalsh(sel.h2).min() >= -1e-12 * eff.omega * h_sq


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
    assert max_abs(ident @ eff.generator) <= tol
    assert max_abs(eff.generator @ ident) <= tol
    r = random_density(rng, dims[1])
    init = InitialState(random_density(rng, dims[0]),
                        sum(p @ r @ p for p in spec.projectors))
    traj = semigroup_propagate(eff, init, 0.5, 4)
    assert max_abs(traj.norms - 1.0) <= 1e-12
    v = eff.layout.bases
    blocks = dag(v) @ traj.states[:, None] @ v
    assert max_abs((v @ blocks @ dag(v)).sum(axis=-3) - traj.states) <= 1e-12


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
        images = layout.lift(layout.unpack(coords @ expm(eff.generator * t).T))
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
    v, gen = eff.layout.bases, eff.generator
    rho0 = random_density(rng, dims[0] * dims[1])
    y0 = eff.layout.pack(dag(v) @ rho0 @ v)
    counts = np.arange(size + 1)
    action = _action_run(gen, h, y0, counts)
    assert max_abs(action - _dense_run(gen, h, y0, counts)) <= 1e-13
    states = (v @ eff.layout.unpack(action) @ dag(v)).sum(axis=-3)
    assert max_abs(np.trace(states, axis1=-2, axis2=-1) - 1.0) <= 1e-12
    assert max_abs(states - dag(states)) <= 1e-13
    assert np.linalg.eigvalsh(states).min() >= -1e-10
