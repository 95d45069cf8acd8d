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
from functools import partial

import numpy as np

from .exact import VanishingProbabilityError
from .linalg import (PROB_FLOOR, TensorDims, dag, kraus_run, kron, real_trace,
                     sample_runs)
from .model import HamiltonianSpec, InitialState, MeasurementSpec
from .trajectory import Trajectory


@dataclass(frozen=True)
class SelectiveEffective:
    """Effective generator H1 - i H2 of the post-selected branch.

    Operators act on system (x) range(P), compressed through the isometry
    `probe_basis` whose columns are an orthonormal basis of range(P); `dims`
    is the compressed split (dim_sys, rank of P).  For a rank-1 projector
    |phi><phi| the probe factor is one-dimensional (`probe_basis` is phi as a
    column), so the operators act on the system alone.
    """

    h1: np.ndarray
    h2: np.ndarray
    gamma: float
    tau: float
    probe_basis: np.ndarray
    dims: TensorDims

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
    return effective_rankr(ham, phi @ dag(phi), tau, basis=phi)


def effective_rankr(ham: HamiltonianSpec, proj, tau: float,
                    basis: np.ndarray | None = None) -> SelectiveEffective:
    """Effective generator on system (x) range(P) for a rank-r probe projector.

    With V = I_sys (x) v for an orthonormal basis v of range(P) (`basis`, or
    eigenvectors of P) and h the dimensionless Hamiltonian,
    H1 = gamma V+ h V and H2 = (Omega/2) (V+ h^2 V - (V+ h V)^2), built by
    `HamiltonianSpec.blocks`.  H1 - i H2 is the diagonal block Heff of the
    non-selective generator for the same projector in a complete family.
    P and basis are validated as a one-projector MeasurementSpec; tau and the
    probe dimension are checked here.  H1 is Hermitian and H2 =
    (Omega/2) V+ h (1 - P) h V >= 0 by construction once `HamiltonianSpec`
    has accepted a Hermitian h, so neither is re-checked.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    spec = MeasurementSpec((proj,), 0, None if basis is None else (basis,))
    if spec.dim_pr != ham.dim_pr:
        raise ValueError("projector dimension does not match the Hamiltonian")
    _, _, h1, h2 = ham.blocks(spec.bases, tau)
    return SelectiveEffective(h1=h1[0], h2=h2[0], gamma=ham.gamma, tau=tau,
                              probe_basis=spec.bases[0],
                              dims=TensorDims(ham.dim_sys, spec.ranks[0]))


def propagate_kraus(eff: SelectiveEffective, init: InitialState,
                    times) -> Trajectory:
    """Propagate rho(T) = K rho(0) K+ with K = exp(-i (H1 - i H2) T).

    The grid is cut into runs of equal gaps (`linalg.sample_runs`), and each
    run builds one Kraus exponential and takes its states as binary powers of
    that step from the run's start (`linalg.kraus_run`), into one (T, n, n)
    stack; times must be finite, non-negative and non-decreasing.  The
    initial probe state must be supported in range(P), by the rule of
    `InitialState.probe_block` that `exact.run_selective` applies too.  The
    reported norms are the branch probabilities tr[K rho K+], which are
    non-increasing in T.  As in `exact.run_selective`, a sample whose
    probability is below PROB_FLOOR raises VanishingProbabilityError: the
    conditional state is undefined on a zero-probability branch.
    """
    times = np.asarray(times, dtype=float)
    v = eff.probe_basis
    if init.rho_pr.shape[0] != v.shape[0]:
        raise ValueError("initial probe dimension does not match the generator")
    rho0 = kron(init.rho_sys, init.probe_block(v))
    states = sample_runs(rho0, times, partial(kraus_run, -1j * eff.h_eff))
    norms = real_trace(states)
    vanished = np.flatnonzero(norms < PROB_FLOOR)
    if vanished.size:
        cut = vanished[0]
        raise VanishingProbabilityError(
            f"branch probability vanished at T = {times[cut]:g} "
            f"(p = {norms[cut]:.3e} < {PROB_FLOOR:.1e})")
    states /= norms[:, None, None]
    return Trajectory(times.copy(), states, norms, eff.dims)

