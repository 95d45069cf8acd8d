"""Semigroup dynamics induced by non-selective projective monitoring.

Frequent channel applications at interval tau (tau -> 0, Omega = gamma^2 tau
fixed) turn the interrupted evolution into a GKSL semigroup on the monitored
space, with the inter-block transition operators h_ij = C_i h C_j as jump
operators.  Channel-invariant (block-diagonal) states stay block-diagonal, so
the semigroup is carried by the blocks alone: each block b_i, compressed to
an orthonormal basis V_i of range(C_i), obeys

    d b_i = -i (Heff_i b_i - b_i Heff_i+) + Omega sum_{j != i} T_ij b_j T_ji,

with T_ij = V_i+ h V_j.  `build_generator` writes these equations as one
N x N matrix on the row-major packed blocks, N = sum_i n_i^2 <= d^2, and that
matrix is the only generator in the package: the semigroup propagator, the
block right-hand side and the block integrator all use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_ODE_STEPS, DEFAULT_TOL, TensorDims, as_matrix,
                     dag, expm_sample, max_abs, rk4_sample, step_powers)
from .model import HamiltonianSpec, InitialState, MeasurementSpec
from .trajectory import Trajectory


@dataclass(frozen=True)
class NonselectiveEffective:
    """Semigroup generator on the blocks of a channel-invariant state.

    block_bases holds one isometry V_i per projector range (system factor
    included); block_trans[i][j] is the compressed transition operator
    T_ij = V_i+ h V_j of the dimensionless Hamiltonian h (H = gamma h), and
    block_heff[i] the effective non-Hermitian block Hamiltonian
    gamma T_ii - (i Omega / 2) (V_i+ h^2 V_i - T_ii^2), the selective branch
    generator H1 - i H2 of outcome i.  generator is the
    N x N matrix of the coupled block equations acting on the row-major
    packed blocks (see `block_rhs`).
    """

    gamma: float
    tau: float
    block_bases: tuple[np.ndarray, ...]
    block_trans: tuple[tuple[np.ndarray, ...], ...]
    block_heff: tuple[np.ndarray, ...]
    generator: np.ndarray
    dims: TensorDims

    @property
    def omega(self) -> float:
        return self.gamma * self.gamma * self.tau

    @property
    def n_blocks(self) -> int:
        return len(self.block_bases)


def build_generator(ham: HamiltonianSpec, spec: MeasurementSpec,
                    tau: float) -> NonselectiveEffective:
    """Assemble the non-selective semigroup generator on the packed blocks.

    T_ij and D_i = V_i+ h^2 V_i - T_ii^2 come from `HamiltonianSpec.blocks`,
    and Heff_i = gamma T_ii - (i Omega / 2) D_i is the selective branch
    generator H1 - i H2 of outcome i (see `effective_rankr`).  The diagonal
    blocks of the generator are -i (Heff_i (x) I - I (x) conj(Heff_i)), the
    off-diagonal ones Omega (T_ij (x) T_ji^T).  Construction-time checks
    (RuntimeError on failure): the transition blocks satisfy T_ij+ = T_ji,
    the dispersion identity sum_{j!=i} T_ij T_ji = D_i holds
    (the family is complete), and the generator preserves trace and fixes the
    maximally mixed state.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if spec.selected_index is not None:
        raise ValueError("semigroup generator requires the complete projector "
                         "family (no selected outcome)")
    if spec.dim_pr != ham.dim_pr:
        raise ValueError("measurement and Hamiltonian probe dimensions differ")
    h = ham.dimensionless()
    if max_abs(h - dag(h)) > DEFAULT_TOL:
        raise ValueError("dimensionless Hamiltonian must be Hermitian")
    gamma = ham.gamma
    omega = gamma * gamma * tau
    bases, trans, disp = ham.blocks(spec.bases)
    m = len(bases)
    for i in range(m):
        for j in range(m):
            if max_abs(dag(trans[i][j]) - trans[j][i]) > 1e-12:
                raise RuntimeError("transition operators lost Hermitian pairing")
        leak = sum(trans[i][j] @ trans[j][i] for j in range(m) if j != i)
        if max_abs(leak - disp[i]) > 1e-12:
            raise RuntimeError("block dispersion identity failed")
    heff = [gamma * trans[i][i] - 0.5j * omega * disp[i] for i in range(m)]

    def block(i, j):
        if i != j:
            return omega * np.kron(trans[i][j], trans[j][i].T)
        eye = np.eye(len(heff[i]), dtype=complex)
        return -1j * (np.kron(heff[i], eye) - np.kron(eye, heff[i].conj()))

    gen = np.block([[block(i, j) for j in range(m)] for i in range(m)])
    ident = np.concatenate([np.eye(len(x), dtype=complex).reshape(-1) for x in heff])
    if max_abs(gen @ ident) / ham.dims.total > DEFAULT_TOL:
        raise RuntimeError("generator does not fix the maximally mixed state")
    if max_abs(ident @ gen) > DEFAULT_TOL:
        raise RuntimeError("generator is not trace-preserving")
    return NonselectiveEffective(
        gamma=gamma, tau=tau, block_bases=bases, block_trans=trans,
        block_heff=tuple(heff), generator=gen, dims=ham.dims)


def semigroup_propagate(eff: NonselectiveEffective, init: InitialState,
                        times) -> Trajectory:
    """rho(T) = exp(L_eff T) rho(0), evolved on the packed blocks.

    The packed blocks are stepped from sample to sample with one exponential
    of the generator per distinct gap (`expm_sample`), one product per step:
    powers of the N x N generator would cost N^3 each.  Times must be finite,
    non-negative and non-decreasing.  The initial joint state must already be
    a fixed point of the measurement channel (block-diagonal); trace and block
    structure are then preserved exactly by the semigroup.
    """
    rho0 = init.joint()
    if rho0.shape[0] != eff.dims.total:
        raise ValueError("initial state does not match the generator dimensions")
    state0 = blocks_from_global(eff, rho0)
    if max_abs(global_from_blocks(eff, state0) - rho0) > DEFAULT_TOL:
        raise ValueError("initial state must be a fixed point of the measurement "
                         "channel (block-diagonal)")
    times = np.asarray(times, dtype=float)

    def apply(e, v, counts):        # step the packed vector once per count
        return step_powers(lambda k, y: e @ y, v, counts, v.shape)

    packed = expm_sample(eff.generator, _pack(state0), times, apply)
    states = np.array([global_from_blocks(eff, _unpack(eff, y))
                       for y in packed]).reshape((-1,) + rho0.shape)
    norms = np.trace(states, axis1=-2, axis2=-1).real
    return Trajectory(times.copy(), states, norms, eff.dims)


@dataclass
class BlockState:
    """Per-outcome blocks of a channel-invariant state, compressed to the
    block bases of a NonselectiveEffective."""

    blocks: tuple[np.ndarray, ...]

    def trace(self) -> float:
        return float(sum(np.trace(b).real for b in self.blocks))


def blocks_from_global(eff: NonselectiveEffective, rho) -> BlockState:
    rho = as_matrix(rho)
    return BlockState(tuple(dag(v) @ rho @ v for v in eff.block_bases))


def global_from_blocks(eff: NonselectiveEffective, state: BlockState) -> np.ndarray:
    return sum(v @ b @ dag(v) for v, b in zip(eff.block_bases, state.blocks))


def _pack(state: BlockState) -> np.ndarray:
    """Concatenate the row-major flattened blocks."""
    return np.concatenate([b.reshape(-1) for b in state.blocks])


def _unpack(eff: NonselectiveEffective, flat: np.ndarray) -> BlockState:
    sizes = [v.shape[1] for v in eff.block_bases]
    parts = np.split(flat, np.cumsum([n * n for n in sizes])[:-1])
    return BlockState(tuple(f.reshape(n, n) for f, n in zip(parts, sizes)))


def block_rhs(eff: NonselectiveEffective, state: BlockState) -> BlockState:
    """Coupled block equations: each block evolves under its effective
    non-Hermitian Hamiltonian while feeding the others through the transition
    operators.  Total trace is conserved."""
    return _unpack(eff, eff.generator @ _pack(state))


def integrate_blocks(eff: NonselectiveEffective, state0: BlockState, times,
                     n_steps: int = DEFAULT_ODE_STEPS) -> list[BlockState]:
    """Fixed-step RK4 integration of the coupled block equations."""
    return [_unpack(eff, y) for y in rk4_sample(lambda y: eff.generator @ y,
                                                _pack(state0), times, n_steps)]


def pauli_rates(eff: NonselectiveEffective) -> np.ndarray:
    """Classical transition-rate matrix for a rank-1 projector family.

    W[i, j] is the rate j -> i, Omega * |<i|h|j>|^2, with zero diagonal.
    """
    if any(v.shape[1] != 1 for v in eff.block_bases):
        raise ValueError("Pauli reduction requires rank-1 family")
    m = eff.n_blocks
    w = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                w[i, j] = eff.omega * abs(eff.block_trans[i][j][0, 0]) ** 2
    return w


def pauli_rhs(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gain/loss master equation dp_i = sum_{j!=i} (W[i,j] p_j - W[j,i] p_i)."""
    p = np.asarray(p, dtype=float)
    return w @ p - w.sum(axis=0) * p


def integrate_pauli(w: np.ndarray, p0, times,
                    n_steps: int = DEFAULT_ODE_STEPS) -> list[np.ndarray]:
    """Fixed-step RK4 integration of the classical rate equation."""
    p0 = np.asarray(p0, dtype=float)
    return rk4_sample(lambda p: pauli_rhs(w, p), p0, times, n_steps)


def swap_nonselective_closed_form(gamma: float, omega: float, rho0,
                                  t: float) -> np.ndarray:
    """System marginal of an exchange-coupled qubit pair whose probe qubit is
    monitored non-selectively, probe prepared in the measured basis state.

    Populations relax toward sharing the initial lower-level weight equally;
    coherences decay at Omega/2 while precessing at gamma.  Exact in the
    frequent-measurement limit; trace is preserved identically.
    """
    rho0 = as_matrix(rho0)
    if rho0.shape != (2, 2):
        raise ValueError("closed form is for a 2x2 system state")
    decay2 = np.exp(-2.0 * omega * t)
    out = np.empty((2, 2), dtype=complex)
    out[0, 0] = rho0[0, 0] + 0.5 * (1.0 - decay2) * rho0[1, 1]
    out[1, 1] = 0.5 * (1.0 + decay2) * rho0[1, 1]
    out[0, 1] = np.exp((-1j * gamma - 0.5 * omega) * t) * rho0[0, 1]
    out[1, 0] = np.exp((1j * gamma - 0.5 * omega) * t) * rho0[1, 0]
    return out
