"""Semigroup dynamics induced by non-selective projective monitoring.

Frequent channel applications at interval tau (tau -> 0, Omega = gamma^2 tau
fixed) turn the interrupted evolution into a GKSL semigroup on the monitored
space.  The generator can be assembled two ways: by sandwiching the bare
Liouvillian between measurement-channel superoperators, or directly in
Lindblad form with the inter-block transition operators h_ij = C_i h C_j as
jump operators.  Both are built here and cross-checked at construction; the
stored generator is the Lindblad form, which is completely positive on the
full space and coincides with the sandwich form on the physical
(block-diagonal) domain.

Superoperators use column-stacking vectorization: vec(A X B) = (B^T (x) A) vec(X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_TOL, TensorDims, as_matrix, dag, expm_sample,
                     kron, max_abs, rk4_sample)
from .model import HamiltonianSpec, InitialState, MeasurementSpec
from .trajectory import Trajectory

DEFAULT_ODE_STEPS = 2000


def vec(m) -> np.ndarray:
    """Column-stacking vectorization."""
    return as_matrix(m).reshape(-1, order="F")


def unvec(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError("vector length is not a perfect square")
    return v.reshape(d, d, order="F")


def sandwich_superop(a, b) -> np.ndarray:
    """Superoperator matrix of rho -> a rho b."""
    a = as_matrix(a)
    b = as_matrix(b)
    return np.kron(b.T, a)


def channel_superop(c_ops) -> np.ndarray:
    """Superoperator of the measurement channel rho -> sum_i C_i rho C_i."""
    c_ops = [as_matrix(c) for c in c_ops]
    return sum(sandwich_superop(c, c) for c in c_ops)


def liouville_commutator(h) -> np.ndarray:
    """Superoperator of rho -> -i [h, rho]."""
    h = as_matrix(h)
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (sandwich_superop(h, eye) - sandwich_superop(eye, h))


def lindblad_superop(h_ops: dict, gamma: float, omega: float, dim: int) -> np.ndarray:
    """Lindblad-form generator: Hamiltonian part gamma * sum_i h_ii, jump
    operators sqrt(Omega) * h_ji for i != j."""
    eye = np.eye(dim, dtype=complex)
    m = len({i for i, _ in h_ops})
    gen = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(m):
        gen += gamma * liouville_commutator(h_ops[(i, i)])
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            jump = h_ops[(j, i)]
            jj = dag(jump) @ jump
            gen -= 0.5 * omega * (sandwich_superop(jj, eye) + sandwich_superop(eye, jj)
                                  - 2.0 * sandwich_superop(jump, dag(jump)))
    return gen


def sandwich_generator_superop(h, c_ops, gamma: float, omega: float) -> np.ndarray:
    """Channel-sandwich construction of the semigroup generator:
    gamma (Lam L Lam) + (Omega/2) (Lam L L Lam - Lam L Lam L Lam),
    with Lam the channel superoperator and L the bare commutator -i[h, .]."""
    lam = channel_superop(c_ops)
    lcomm = liouville_commutator(h)
    lam_l_lam = lam @ lcomm @ lam
    return (gamma * lam_l_lam
            + 0.5 * omega * (lam @ lcomm @ lcomm @ lam - lam_l_lam @ lcomm @ lam))


def choi_matrix(superop) -> np.ndarray:
    """Choi matrix of a superoperator: sum_kl E_kl (x) S[E_kl]."""
    s = as_matrix(superop)
    d = math.isqrt(s.shape[0])
    if d * d != s.shape[0]:
        raise ValueError("superoperator dimension is not a perfect square")
    choi = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            e_kl = np.zeros((d, d), dtype=complex)
            e_kl[k, l] = 1.0
            out = unvec(s @ vec(e_kl))
            choi[k * d:(k + 1) * d, l * d:(l + 1) * d] = out
    return choi


@dataclass(frozen=True)
class NonselectiveEffective:
    """Assembled semigroup generator with its block decomposition.

    h is the dimensionless Hamiltonian (H = gamma h), c_ops the full-space
    projectors, h_ops the transition operators keyed by (i, j).  block_bases
    holds one isometry per projector range; block_trans and block_heff are
    the transition operators and effective non-Hermitian block Hamiltonians
    gamma h_ii - (i Omega / 2) ((h^2)_ii - (h_ii)^2), compressed to those
    bases.
    """

    h: np.ndarray
    c_ops: tuple[np.ndarray, ...]
    h_ops: dict
    gamma: float
    tau: float
    liouvillian: np.ndarray
    block_bases: tuple[np.ndarray, ...]
    block_trans: tuple[tuple[np.ndarray, ...], ...]
    block_heff: tuple[np.ndarray, ...]
    dims: TensorDims

    @property
    def omega(self) -> float:
        return self.gamma ** 2 * self.tau

    @property
    def n_blocks(self) -> int:
        return len(self.c_ops)

    def transition(self, i: int, j: int) -> np.ndarray:
        """Full-space transition operator h_ij = C_i h C_j."""
        return self.h_ops[(i, j)]


def build_generator(ham: HamiltonianSpec, spec: MeasurementSpec, tau: float,
                    check_tol: float = DEFAULT_TOL) -> NonselectiveEffective:
    """Assemble the non-selective semigroup generator and verify it.

    Construction-time checks (all raising RuntimeError on failure): the
    sandwich and Lindblad routes agree on the channel-invariant domain, the
    channel-projected Hamiltonian part reduces to the block commutators, the
    transition operators satisfy h_ij+ = h_ji, the generator kills the
    maximally mixed state and preserves trace, and the inter-block dispersion
    identity sum_{j!=i} h_ij h_ji = (h^2)_ii - (h_ii)^2 holds.
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
    omega = gamma ** 2 * tau
    dims = ham.dims
    d = dims.total
    eye_sys = np.eye(dims.dim_sys, dtype=complex)
    c_ops = tuple(kron(eye_sys, p) for p in spec.projectors)
    bases = tuple(kron(eye_sys, v) for v in spec.bases)
    m = len(c_ops)

    h_ops = {(i, j): c_ops[i] @ h @ c_ops[j] for i in range(m) for j in range(m)}
    for i in range(m):
        for j in range(m):
            if max_abs(dag(h_ops[(i, j)]) - h_ops[(j, i)]) > 1e-12:
                raise RuntimeError("transition operators lost Hermitian pairing")
        disp = sum(h_ops[(i, j)] @ h_ops[(j, i)] for j in range(m) if j != i)
        hii = h_ops[(i, i)]
        if max_abs(disp - (c_ops[i] @ h @ h @ c_ops[i] - hii @ hii)) > 1e-12:
            raise RuntimeError("block dispersion identity failed")

    gen = lindblad_superop(h_ops, gamma, omega, d)
    lam_hat = channel_superop(c_ops)
    sandwich = sandwich_generator_superop(h, c_ops, gamma, omega)
    if max_abs(sandwich - lam_hat @ gen @ lam_hat) > check_tol:
        raise RuntimeError("sandwich and Lindblad generator routes disagree")
    ham_part = sum(liouville_commutator(h_ops[(i, i)]) for i in range(m))
    lcomm = liouville_commutator(h)
    if max_abs(lam_hat @ lcomm @ lam_hat - lam_hat @ ham_part @ lam_hat) > check_tol:
        raise RuntimeError("channel-projected Hamiltonian identity failed")
    if max_abs(gen @ vec(np.eye(d) / d)) > check_tol:
        raise RuntimeError("generator does not fix the maximally mixed state")
    if max_abs(vec(np.eye(d)).conj() @ gen) > check_tol:
        raise RuntimeError("generator is not trace-preserving")

    block_trans = tuple(
        tuple(dag(bases[i]) @ h @ bases[j] for j in range(m)) for i in range(m))
    block_heff = []
    for i in range(m):
        hii = block_trans[i][i]
        h2_blk = dag(bases[i]) @ (h @ h) @ bases[i] - hii @ hii
        block_heff.append(gamma * hii - 0.5j * omega * h2_blk)
    return NonselectiveEffective(
        h=h, c_ops=c_ops, h_ops=h_ops, gamma=gamma, tau=tau, liouvillian=gen,
        block_bases=bases, block_trans=block_trans, block_heff=tuple(block_heff),
        dims=dims)


def semigroup_propagate(eff: NonselectiveEffective, init: InitialState,
                        times) -> Trajectory:
    """rho(T) = exp(L_eff T) applied to the vectorized initial state.

    The state is stepped from sample to sample with one exponential of the
    Liouvillian per distinct gap (`expm_sample`); times must be finite,
    non-negative and non-decreasing.  The initial joint state must already be
    a fixed point of the measurement channel (block-diagonal); trace and block
    structure are then preserved exactly by the semigroup.
    """
    rho0 = init.joint()
    if rho0.shape[0] != eff.dims.total:
        raise ValueError("initial state does not match the generator dimensions")
    if max_abs(sum(c @ rho0 @ c for c in eff.c_ops) - rho0) > DEFAULT_TOL:
        raise ValueError("initial state must be a fixed point of the measurement "
                         "channel (block-diagonal)")
    times = np.asarray(times, dtype=float)
    states = [unvec(v) for v in expm_sample(eff.liouvillian, vec(rho0), times,
                                            lambda e, v: e @ v)]
    norms = np.array([float(np.trace(rho).real) for rho in states])
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
    d = eff.dims.total
    out = np.zeros((d, d), dtype=complex)
    for v, b in zip(eff.block_bases, state.blocks):
        out += v @ b @ dag(v)
    return out


def block_rhs(eff: NonselectiveEffective, state: BlockState) -> BlockState:
    """Coupled block equations: each block evolves under its effective
    non-Hermitian Hamiltonian while feeding the others through the transition
    operators.  Total trace is conserved."""
    m = eff.n_blocks
    omega = eff.omega
    out = []
    for i in range(m):
        heff = eff.block_heff[i]
        b = state.blocks[i]
        db = -1j * (heff @ b - b @ dag(heff))
        for j in range(m):
            if j == i:
                continue
            db += omega * (eff.block_trans[i][j] @ state.blocks[j]
                           @ eff.block_trans[j][i])
        out.append(db)
    return BlockState(tuple(out))


def _pack(state: BlockState) -> np.ndarray:
    return np.concatenate([b.reshape(-1) for b in state.blocks])


def _unpack(flat: np.ndarray, template: BlockState) -> BlockState:
    blocks = []
    pos = 0
    for b in template.blocks:
        n = b.size
        blocks.append(flat[pos:pos + n].reshape(b.shape))
        pos += n
    return BlockState(tuple(blocks))


def integrate_blocks(eff: NonselectiveEffective, state0: BlockState, times,
                     n_steps: int = DEFAULT_ODE_STEPS) -> list[BlockState]:
    """Fixed-step RK4 integration of the coupled block equations."""

    def rhs(flat):
        return _pack(block_rhs(eff, _unpack(flat, state0)))

    return [_unpack(y, state0)
            for y in rk4_sample(rhs, _pack(state0), times, n_steps)]


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
