"""Property tests on randomly drawn models, derandomized so every run draws
the same examples."""

import re
from functools import partial

import numpy as np
import pytest

from helpers import (assert_same_run, family_spec, random_density,
                     random_hamiltonian_spec, random_projector_family,
                     random_unitary, reference_sample_runs, reference_selective)
from stroblim import (EvolutionPlan, InitialState, VanishingProbabilityError,
                      build_generator, effective_rankr, run_selective,
                      semigroup_propagate)
from stroblim.linalg import (_action_run, _dense_run, dag, max_abs, op_norm,
                             sample_runs)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

DETERMINISTIC = hypothesis.settings(derandomize=True, database=None, deadline=None,
                                    max_examples=25)


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  dims=st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (2, 4)]),
                  every=st.integers(1, 12), periods=st.integers(0, 60),
                  fraction=st.sampled_from([0.0, 0.3]))
def test_power_oracle_equals_the_loop_oracle(seed, dims, every, periods, fraction):
    # run_selective takes period n as binary powers of the one-period map;
    # the reference applies the full-space instrument period by period
    rng = np.random.default_rng(seed)
    ham = random_hamiltonian_spec(rng, *dims)
    groups = random_projector_family(rng, dims[1])
    sel = int(rng.integers(len(groups)))
    spec = family_spec(groups, selected_index=sel)
    v = spec.bases[sel]
    init = InitialState(random_density(rng, dims[0]),
                        v @ random_density(rng, v.shape[1]) @ dag(v))
    tau = 0.05
    plan = EvolutionPlan(ham, spec, tau, (periods + fraction) * tau)
    try:
        want = reference_selective(plan, init, every=every)
    except VanishingProbabilityError as err:
        step = re.search(r"at step \d+ ", str(err)).group(0)
        with pytest.raises(VanishingProbabilityError, match=step):
            run_selective(plan, init, every=every)
        return
    assert_same_run(run_selective(plan, init, every=every), want)


# Random complete families have unequal ranks, so the block stacks are padded.
UNEQUAL_DIMS = st.sampled_from([(1, 3), (2, 3), (1, 4), (2, 4), (1, 5)])
# Operator norms of the Hamiltonian factors; gamma shrinks as 1 / norm^2, so
# that H = gamma h keeps its scale while h, T_ij and D_i grow.
FACTOR_NORMS = st.sampled_from([1.0, 1e2, 1e4])


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
    assert max_abs(half * leak.sum(axis=1) - ham.blocks(spec.bases, 0.25)[3]) \
        <= 1e-12 * half * h_sq
    for p, v, heff in zip(spec.projectors, spec.bases, eff.heff):
        sel = effective_rankr(ham, p, 0.25, basis=v)
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
    ident = np.broadcast_to(np.eye(eff.mask.shape[1]), eff.mask.shape)[eff.mask]
    assert max_abs(ident @ eff.generator) <= tol
    assert max_abs(eff.generator @ ident) <= tol
    r = random_density(rng, dims[1])
    init = InitialState(random_density(rng, dims[0]),
                        sum(p @ r @ p for p in spec.projectors))
    traj = semigroup_propagate(eff, init, [0.0, 0.5, 2.0])
    assert max_abs(traj.norms - 1.0) <= 1e-12
    v = eff.bases
    blocks = dag(v) @ traj.states[:, None] @ v
    assert max_abs((v @ blocks @ dag(v)).sum(axis=-3) - traj.states) <= 1e-12


def random_grid(rng, start, h, size):
    """Non-decreasing times from start: repeats, jitter on either side of the
    tolerance 1e-12 * max(1, t), steps of h with and without such jitter,
    changes of h and double steps."""
    times = [start]
    for kind in rng.integers(0, 6, size):
        t = times[-1]
        jitter = rng.uniform(-1.5, 1.5) * 1e-12 * max(1.0, t)
        if kind == 4:
            h *= rng.choice([0.5, 2.0, 3.0])
        # jitter beyond a tiny h would step back in time
        gap = (0.0, abs(jitter), h, max(0.0, h + jitter), h, 2.0 * h)[kind]
        times.append(t + gap)
    return np.array(times)


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1),
                  start=st.sampled_from([0.0, 3e-13, 0.5, 3.0, 1e4]),
                  h=st.sampled_from([3e-12, 1e-3, 0.01, 0.3, 2.0]),
                  size=st.integers(0, 200))
def test_expm_sample_runs_equal_the_loop(seed, start, h, size):
    # sample_runs against its per-sample loop: the recorded advance calls
    # give the run splits, the step sizes and the per-sample counts of each
    # run
    times = random_grid(np.random.default_rng(seed), start, h, size)

    def record(calls):
        def advance(h, y, counts):
            calls.append((h, y[0, 0], counts.tolist()))
            return y + counts[:, None, None] * h
        return advance

    got, want = [], []
    y0 = np.zeros((1, 1))
    out = sample_runs(y0, times, record(got))
    ref = reference_sample_runs(y0, times, record(want))
    assert got == want
    assert np.array_equal(out, ref)


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
    v, gen = eff.bases, eff.generator
    rho0 = random_density(rng, dims[0] * dims[1])
    y0 = (dag(v) @ rho0 @ v)[eff.mask]
    times = random_grid(rng, 0.0, h, size)
    action = sample_runs(y0, times, partial(_action_run, gen))
    assert max_abs(action - sample_runs(y0, times, partial(_dense_run, gen))) <= 1e-13
    blocks = np.zeros((len(times),) + eff.mask.shape, dtype=complex)
    blocks[:, eff.mask] = action
    states = (v @ blocks @ dag(v)).sum(axis=-3)
    assert max_abs(np.trace(states, axis1=-2, axis2=-1) - 1.0) <= 1e-12
    assert max_abs(states - dag(states)) <= 1e-13
    assert np.linalg.eigvalsh(states).min() >= -1e-10
