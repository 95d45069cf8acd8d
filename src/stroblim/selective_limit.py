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

Propagation takes the powers K^k of one Kraus step K = exp(-i (H1 - i H2) h)
on a factor of the start block, as the exact oracle takes those of its
period map (`Trajectory.from_branch`); on a pure start it is the vector
equation of the H1 - i H2 dynamics.
"""

from __future__ import annotations

import numpy as np

from .linalg import expm, uniform_counts
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
    T = k h, k = 0, ..., n (`linalg.uniform_counts`): the branch run of one
    Kraus step exp(-i heff[0] h) on `eff.layout` (`Trajectory.from_branch`),
    from the start factor that the exact run and every tau of a sweep share.

    eff must be the one-block generator of a selected outcome
    (`effective_rankr`), else ValueError.  The initial probe state must be
    supported in range(P), by the rule of `InitialState.probe_block` that
    `exact.run_selective` applies too.  The norms are the branch
    probabilities tr[K rho K+], non-increasing in T; one below PROB_FLOOR
    raises VanishingProbabilityError, as in `exact.run_selective`.
    """
    counts = uniform_counts(h, n)
    return Trajectory.from_branch(h, eff.layout, init,
                                  expm(-1j * eff.heff[0] * h), counts)
