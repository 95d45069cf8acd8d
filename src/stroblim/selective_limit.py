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
from .linalg import (DEFAULT_ODE_STEPS, PROB_FLOOR, TensorDims, as_matrix,
                     dag, kraus_run, kron, real_trace, rk4_sample,
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


def nonlinear_density_rhs(eff: SelectiveEffective, rho) -> np.ndarray:
    """Norm-preserving density equation
    d rho / dT = -i [H1, rho] - {H2, rho} + 2 tr(H2 rho) rho.

    Traceless on unit-trace input, so RK4 integration keeps normalization.
    """
    rho = as_matrix(rho)
    if rho.shape[0] != eff.dim:
        raise ValueError("state dimension does not match the generator")
    h1, h2 = eff.h1, eff.h2
    return (-1j * (h1 @ rho - rho @ h1)
            - (h2 @ rho + rho @ h2)
            + 2.0 * np.trace(h2 @ rho).real * rho)


def nonlinear_state_rhs(eff: SelectiveEffective, psi) -> np.ndarray:
    """State-vector form of the branch dynamics for pure states:
    d psi / dT = -i H1 psi - H2 psi + <psi|H2|psi> psi (norm-preserving)."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != eff.dim:
        raise ValueError("state dimension does not match the generator")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("state vector must be normalized")
    return _state_rhs(eff, psi)


def _state_rhs(eff: SelectiveEffective, psi: np.ndarray) -> np.ndarray:
    # Unchecked: RK4 stage vectors are off-norm by O(dt).
    h2_psi = eff.h2 @ psi
    return -1j * (eff.h1 @ psi) - h2_psi + np.vdot(psi, h2_psi).real * psi


def purity_derivative(eff: SelectiveEffective, rho) -> float:
    """d tr[rho^2] / dT along the nonlinear density equation:
    4 (tr[rho^2] tr[H2 rho] - tr[H2 rho^2])."""
    rho = as_matrix(rho)
    rho2 = rho @ rho
    h2 = eff.h2
    return 4.0 * float((np.trace(rho2) * np.trace(h2 @ rho) - np.trace(h2 @ rho2)).real)


def integrate_density(eff: SelectiveEffective, rho0, times,
                      n_steps: int = DEFAULT_ODE_STEPS) -> np.ndarray:
    """Fixed-step RK4 integration of the nonlinear density equation from rho0
    at T = 0, one state per sample time (`linalg.rk4_sample`, n_steps RK4
    steps up to the last time)."""
    rho0 = as_matrix(rho0).astype(complex)
    return rk4_sample(lambda r: nonlinear_density_rhs(eff, r), rho0, times, n_steps)


def integrate_state(eff: SelectiveEffective, psi0, times,
                    n_steps: int = DEFAULT_ODE_STEPS) -> np.ndarray:
    """Fixed-step RK4 integration of the state-vector equation."""
    psi0 = np.asarray(psi0, dtype=complex).reshape(-1)
    return rk4_sample(lambda psi: _state_rhs(eff, psi), psi0, times, n_steps)
