"""Property tests on randomly drawn models, derandomized so every run draws
the same examples."""

import re

import numpy as np
import pytest

from helpers import (assert_same_run, family_spec, random_density,
                     random_hamiltonian_spec, random_projector_family,
                     reference_selective)
from stroblim import (EvolutionPlan, InitialState, VanishingProbabilityError,
                      run_selective)
from stroblim.linalg import dag

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
