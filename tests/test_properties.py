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
from stroblim.linalg import dag, max_abs

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


def random_family_model(seed, dims):
    rng = np.random.default_rng(seed)
    ham = random_hamiltonian_spec(rng, *dims)
    return rng, ham, family_spec(random_projector_family(rng, dims[1]))


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), dims=UNEQUAL_DIMS)
def test_generator_blocks_are_the_selective_generators(seed, dims):
    # the rank-sized slice of Heff_i is H1 - i H2 of outcome i, with H2 >= 0
    _, ham, spec = random_family_model(seed, dims)
    eff = build_generator(ham, spec, 0.25)
    for p, v, heff in zip(spec.projectors, spec.bases, eff.heff):
        sel = effective_rankr(ham, p, 0.25, basis=v)
        n = sel.dim
        assert max_abs(heff[:n, :n] - sel.h_eff) <= 1e-12
        assert np.linalg.eigvalsh(sel.h2).min() >= -1e-10


@DETERMINISTIC
@hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), dims=UNEQUAL_DIMS)
def test_semigroup_keeps_trace_and_blocks(seed, dims):
    rng, ham, spec = random_family_model(seed, dims)
    eff = build_generator(ham, spec, 0.25)
    r = random_density(rng, dims[1])
    init = InitialState(random_density(rng, dims[0]),
                        sum(p @ r @ p for p in spec.projectors))
    traj = semigroup_propagate(eff, init, [0.0, 0.5, 2.0])
    assert max_abs(traj.norms - 1.0) <= 1e-12
    v = eff.bases
    blocks = dag(v) @ traj.states[:, None] @ v
    assert max_abs((v @ blocks @ dag(v)).sum(axis=-3) - traj.states) <= 1e-12
