"""Property tests on randomly drawn models, derandomized so every run draws
the same examples."""

import re

import numpy as np
import pytest

from helpers import (assert_same_run, family_spec, random_density,
                     random_hamiltonian_spec, random_projector_family,
                     reference_selective)
from stroblim import (EvolutionPlan, InitialState, VanishingProbabilityError,
                      build_generator, effective_rankr, run_selective,
                      semigroup_propagate)
from stroblim.linalg import dag, max_abs, op_norm

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
    # dispersion identity sum_{j != i} T_ij T_ji = D_i
    _, ham, spec = random_family_model(seed, dims, norm)
    eff = build_generator(ham, spec, 0.25)
    h_sq = op_norm(ham.dimensionless()) ** 2
    trans = eff.trans
    assert max_abs(dag(trans) - trans.swapaxes(0, 1)) <= 1e-12 * h_sq
    leak = trans @ trans.swapaxes(0, 1)
    idx = np.arange(len(trans))
    leak[idx, idx] = 0
    assert max_abs(leak.sum(axis=1) - ham.blocks(spec.bases)[2]) <= 1e-12 * h_sq
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
