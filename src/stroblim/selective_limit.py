"""Closed-form conditional dynamics in the frequent-measurement limit.

When the probe is projectively measured every tau with coincident outcomes
and tau -> 0 at fixed Omega = gamma^2 tau, the surviving branch evolves under
a non-Hermitian generator H1 - i H2: H1 is the probe-averaged Hamiltonian and
H2 >= 0 encodes the trace decay caused by transitions out of the measured
subspace.  The pair lives on system (x) range(P) and the system state
follows by partial trace; for a rank-1 projector range(P) is one-dimensional
and the dynamics closes on the system alone.  The pair is the one-block
`model.EffectiveGenerator` of the selected range, from
`HamiltonianSpec.effective`, the builder of the non-selective generator too.

Propagation carries the state as a factor, as the exact oracle does: with
the start block r0 = F F+ and one Kraus step K = exp(-i (H1 - i H2) h), the
block at T = k h is G G+ for G = K^k F, positive semidefinite by
construction, with trace ||G||_F^2; on a pure start it is the vector
equation of the H1 - i H2 dynamics.
"""

from __future__ import annotations

import numpy as np

from .exact import VanishingProbabilityError
from .linalg import PROB_FLOOR, expm, factor_powers, sq_norms, uniform_counts
from .model import (EffectiveGenerator, HamiltonianSpec, InitialState,
                    MeasurementSpec)
from .trajectory import Trajectory


def effective_rank1(ham: HamiltonianSpec, phi, tau: float) -> EffectiveGenerator:
    """effective_rankr for the rank-1 projector |phi><phi| (phi normalized).

    The probe factor is one-dimensional, so H1 and H2 act on the system
    alone: H1 = gamma * sum_j A_j <B_j>, and H2 is Omega/2 times the variance
    of h in |phi> as an operator on the system.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1, 1)
    return effective_rankr(ham, MeasurementSpec((phi,), 0), tau)


def effective_rankr(ham: HamiltonianSpec, spec: MeasurementSpec,
                    tau: float) -> EffectiveGenerator:
    """Effective generator on system (x) range(P) for the selected outcome of
    a selective measurement, P its rank-r projector.

    With V = I_sys (x) v for the orthonormal basis v of range(P) that the
    spec holds and h the dimensionless Hamiltonian, H1 = gamma V+ h V and
    H2 = (Omega/2) (V+ h^2 V - (V+ h V)^2): `HamiltonianSpec.effective` on
    the one-block layout of v, `spec.selected_layout`, which the result
    keeps; every tau and the exact oracle share it.  Its one block H1 - i H2
    is the diagonal block Heff of the non-selective generator for the same
    projector in a complete family.  ValueError for a spec with no selected
    outcome, or from the checks of that builder.
    """
    return ham.effective(spec.selected_layout(ham.dim_sys), tau)


def propagate_kraus(eff: EffectiveGenerator, init: InitialState, h: float,
                    n: int) -> Trajectory:
    """Propagate rho(T) = K rho(0) K+ with K = exp(-i (H1 - i H2) T) at
    T = k h, k = 0, ..., n (`linalg.uniform_counts`), as the factors K^k F of
    the start block F F+, by one-sided binary powers of one Kraus step
    (`linalg.factor_powers`).

    eff must be the one-block generator of a selected outcome
    (`effective_rankr`), else ValueError.  The initial probe state must be
    supported in range(P), by the rule of `InitialState.probe_block` that
    `exact.run_selective` applies too, and the run starts from the block
    V+ rho0 V of the joint initial state, as that runner does: F is
    `init.start_factor(eff.layout)`, made once per layout, so the exact run
    and every tau of a sweep share it.  The norms are the branch
    probabilities tr[K rho K+] = ||K^k F||_F^2, non-increasing in T; as in
    `exact.run_selective`, one below PROB_FLOOR raises
    VanishingProbabilityError.  The trajectory keeps the factors
    (`Trajectory.from_factors`): the system states, the marginals of the
    normalized factors, are formed where an output first reads them, and
    `Trajectory.states` forms the normalized blocks on first use.
    """
    counts = uniform_counts(h, n)
    layout = eff.layout
    if len(layout.sizes) != 1:
        raise ValueError("Kraus propagation takes the one-block generator of a "
                         f"selected outcome, got {len(layout.sizes)} blocks")
    if init.dims != layout.dims:
        raise ValueError("initial state does not match Hamiltonian dimensions")
    g = factor_powers(expm(-1j * eff.heff[0] * h), init.start_factor(layout), counts)
    norms = sq_norms(g)
    vanished = np.flatnonzero(norms < PROB_FLOOR)
    if vanished.size:
        cut = vanished[0]
        raise VanishingProbabilityError(
            f"branch probability vanished at T = {cut * h:g} "
            f"(p = {norms[cut]:.3e} < {PROB_FLOOR:.1e})")
    return Trajectory.from_factors(counts * h, g, norms, layout.dim_sys)
