"""Closed-form conditional dynamics in the frequent-measurement limit.

When the probe is projectively measured every tau with coincident outcomes
and tau -> 0 at fixed Omega = gamma^2 tau, the surviving branch evolves under
a non-Hermitian generator H1 - i H2: H1 is the probe-averaged Hamiltonian and
H2 >= 0 encodes the trace decay caused by transitions out of the measured
subspace.  The pair lives on system (x) range(P) and the system state
follows by partial trace; for a rank-1 projector range(P) is one-dimensional
and the dynamics closes on the system alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import VanishingProbabilityError
from .linalg import PROB_FLOOR, conj_powers, expm, real_trace, uniform_counts
from .model import BlockLayout, HamiltonianSpec, InitialState, MeasurementSpec
from .trajectory import Trajectory


@dataclass(frozen=True)
class SelectiveEffective:
    """Effective generator H1 - i H2 of the post-selected branch.

    Operators act on system (x) range(P), compressed by the one-block
    `layout` whose probe basis, layout.probe_bases[0], is an orthonormal
    basis of range(P).  For a rank-1 projector |phi><phi| the probe factor
    is one-dimensional (the basis is phi as a column), so the operators act
    on the system alone.
    """

    h1: np.ndarray
    h2: np.ndarray
    gamma: float
    tau: float
    layout: BlockLayout

    @property
    def omega(self) -> float:
        return self.gamma * self.gamma * self.tau

    @property
    def h_eff(self) -> np.ndarray:
        return self.h1 - 1j * self.h2

    @property
    def dim(self) -> int:
        return self.h1.shape[0]


def effective_rank1(ham: HamiltonianSpec, phi, tau: float) -> SelectiveEffective:
    """effective_rankr for the rank-1 projector |phi><phi| (phi normalized).

    The probe factor is one-dimensional, so H1 and H2 act on the system
    alone: H1 = gamma * sum_j A_j <B_j>, and H2 is Omega/2 times the variance
    of h in |phi> as an operator on the system.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1, 1)
    return effective_rankr(ham, MeasurementSpec((phi,), 0), tau)


def effective_rankr(ham: HamiltonianSpec, spec: MeasurementSpec,
                    tau: float) -> SelectiveEffective:
    """Effective generator on system (x) range(P) for the selected outcome of
    a selective measurement, P its rank-r projector.

    With V = I_sys (x) v for the orthonormal basis v of range(P) that the
    spec holds and h the dimensionless Hamiltonian, H1 = gamma V+ h V and
    H2 = (Omega/2) (V+ h^2 V - (V+ h V)^2), built by `HamiltonianSpec.blocks`
    on the one-block layout of v, which the result keeps.  H1 - i H2 is the
    diagonal block Heff of the non-selective generator for the same
    projector in a complete family.  Only the arguments' fit is checked
    (ValueError), as in `build_generator`: H1 is Hermitian and H2 =
    (Omega/2) V+ h (1 - P) h V >= 0 by construction once `HamiltonianSpec`
    has accepted a Hermitian h, so neither is re-checked.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    s = spec.selected_index
    if s is None:
        raise ValueError("selective generator requires a selected outcome")
    if spec.dim_pr != ham.dim_pr:
        raise ValueError("measurement and Hamiltonian probe dimensions differ")
    layout = BlockLayout(ham.dim_sys, spec.bases[s:s + 1])
    _, h1, h2 = ham.blocks(layout, tau)
    return SelectiveEffective(h1=h1[0], h2=h2[0], gamma=ham.gamma, tau=tau,
                              layout=layout)


def propagate_kraus(eff: SelectiveEffective, init: InitialState, h: float,
                    n: int) -> Trajectory:
    """Propagate rho(T) = K rho(0) K+ with K = exp(-i (H1 - i H2) T) at
    T = k h, k = 0, ..., n (`linalg.uniform_counts`), by binary powers of one
    Kraus step (`linalg.conj_powers`).

    The initial probe state must be supported in range(P), by the rule of
    `InitialState.probe_block` that `exact.run_selective` applies too, and
    the run starts from the block V+ rho0 V of the joint initial state, as
    that runner does.  The norms are the branch probabilities tr[K rho K+],
    non-increasing in T; as in `exact.run_selective`, one below PROB_FLOOR
    raises VanishingProbabilityError.  The system states are the marginals
    (`BlockLayout.marginal`) of the normalized blocks, which are kept for
    `Trajectory.states`.
    """
    counts = uniform_counts(h, n)
    layout = eff.layout
    if init.dims != layout.dims:
        raise ValueError("initial state does not match Hamiltonian dimensions")
    init.probe_block(layout.probe_bases[0])
    r0 = layout.compress(init.joint())[0]
    states = conj_powers(expm(-1j * eff.h_eff * h), r0, counts)
    norms = real_trace(states)
    vanished = np.flatnonzero(norms < PROB_FLOOR)
    if vanished.size:
        cut = vanished[0]
        raise VanishingProbabilityError(
            f"branch probability vanished at T = {cut * h:g} "
            f"(p = {norms[cut]:.3e} < {PROB_FLOOR:.1e})")
    states /= norms[:, None, None]
    return Trajectory(counts * h, layout.marginal(states[:, None]), norms,
                      lambda: states)
