"""Semigroup dynamics induced by non-selective projective monitoring.

Frequent channel applications at interval tau (tau -> 0, Omega = gamma^2 tau
fixed) turn the interrupted evolution into a GKSL semigroup on the monitored
space, with the inter-block transition operators h_ij = C_i h C_j as jump
operators.  Channel-invariant (block-diagonal) states stay block-diagonal, so
the semigroup is carried by the blocks alone: each block b_i, compressed to
an orthonormal basis V_i of range(C_i), obeys

    d b_i = -i (Heff_i b_i - b_i Heff_i+) + Omega sum_{j != i} T_ij b_j T_ji,

with T_ij = V_i+ h V_j.  The blocks are carried as the zero-padded (k, m, m)
stack V+ rho V of `HamiltonianSpec.isometries`, and a boolean mask packs
them block by block, row-major within each block.  `build_generator` writes
the block equations as one N x N matrix on the packed blocks,
N = sum_i n_i^2 <= d^2, and that matrix is the only generator in the
package: the semigroup propagator, the block right-hand side and the block
integrator all use it.  The propagator needs only its action on the packed
vector: a few samples of a large generator are taken by products with that
vector, with no N x N exponential (`linalg.expm_vec_run`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import (DEFAULT_ODE_STEPS, TensorDims, as_matrix, dag,
                     expm_vec_run, real_trace, rk4_sample, sample_runs)
from .model import HamiltonianSpec, InitialState, MeasurementSpec
from .trajectory import Trajectory


@dataclass(frozen=True)
class NonselectiveEffective:
    """Semigroup generator on the blocks of a channel-invariant state.

    bases is the padded (k, d, m) isometry stack V of
    `HamiltonianSpec.isometries`, so the blocks of a state rho are the
    (k, m, m) stack V+ rho V; mask is True inside the rank-sized blocks, and
    stack[..., mask] is the packed vector that generator, the N x N matrix of
    the coupled block equations, acts on (see `block_rhs`).  trans[i, j] is
    T_ij = V_i+ h V_j for the dimensionless Hamiltonian h (H = gamma h), and
    heff[i] the effective non-Hermitian block Hamiltonian
    Heff_i = H1_i - i H2_i of `HamiltonianSpec.blocks`, the selective branch
    generator of outcome i.
    """

    gamma: float
    tau: float
    bases: np.ndarray
    trans: np.ndarray
    heff: np.ndarray
    mask: np.ndarray
    generator: np.ndarray
    dims: TensorDims

    @property
    def omega(self) -> float:
        return self.gamma * self.gamma * self.tau


def build_generator(ham: HamiltonianSpec, spec: MeasurementSpec,
                    tau: float) -> NonselectiveEffective:
    """Assemble the non-selective semigroup generator on the packed blocks.

    T_ij, H1_i = gamma T_ii and H2_i = (Omega / 2) (V_i+ h^2 V_i - T_ii^2)
    come from `HamiltonianSpec.blocks`, and Heff_i = H1_i - i H2_i is the
    selective branch generator of outcome i (see `effective_rankr`).  The
    diagonal blocks of the generator are
    -i (Heff_i (x) I - I (x) conj(Heff_i)), the off-diagonal ones
    Omega (T_ij (x) T_ji^T), each built from the rank-sized slices.  Only
    the arguments' fit is checked here (ValueError): the generator has GKSL
    form for any Hermitian h and complete orthogonal family, which
    `HamiltonianSpec` and `MeasurementSpec` have validated, so it preserves
    trace and fixes the maximally mixed state by construction.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if spec.selected_index is not None:
        raise ValueError("semigroup generator requires the complete projector "
                         "family (no selected outcome)")
    if spec.dim_pr != ham.dim_pr:
        raise ValueError("measurement and Hamiltonian probe dimensions differ")
    gamma = ham.gamma
    omega = gamma * gamma * tau
    bases, trans, h1, h2 = ham.blocks(spec.bases, tau)
    idx = np.arange(len(bases))
    heff = h1 - 1j * h2
    live = np.any(bases, axis=1)                # the unpadded columns of V_i
    mask = live[:, :, None] & live[:, None, :]
    n = live.sum(axis=1)

    def block(i, j):
        if i != j:
            return omega * np.kron(trans[i, j, :n[i], :n[j]],
                                   trans[j, i, :n[j], :n[i]].T)
        eye = np.eye(n[i], dtype=complex)
        hi = heff[i, :n[i], :n[i]]
        return -1j * (np.kron(hi, eye) - np.kron(eye, hi.conj()))

    gen = np.block([[block(i, j) for j in idx] for i in idx])
    return NonselectiveEffective(
        gamma=gamma, tau=tau, bases=bases, trans=trans, heff=heff, mask=mask,
        generator=gen, dims=ham.dims)


def semigroup_propagate(eff: NonselectiveEffective, init: InitialState,
                        times) -> Trajectory:
    """rho(T) = exp(L_eff T) rho(0), evolved on the packed blocks.

    The packed blocks are stepped along the grid by `linalg.sample_runs`:
    each run of equal gaps h by the action of exp(L h) on the vector or by
    one dense exp(L h), whichever the cost rule of `linalg.expm_vec_run` on
    N, the run's step count and ||L h||_1 finds cheaper.  All samples are
    then unpacked into one block stack and lifted back at once.  Times must
    be finite, non-negative and non-decreasing.  As in
    `run_nonselective`, the measurement channel is applied at t = 0: the
    evolution starts from the blocks V+ rho0 V of the joint initial state,
    so the t = 0 sample is rho0 itself when rho0 is block-diagonal and its
    channel image otherwise.  The semigroup preserves trace, Hermiticity and
    block structure; the blocks are replaced by their Hermitian parts and the
    states divided by their traces, as in the other propagators, and the
    norms report the rounding drift, such as that of the squarings of one
    exponential over a huge gap.
    """
    rho0 = init.joint()
    if rho0.shape[0] != eff.dims.total:
        raise ValueError("initial state does not match the generator dimensions")
    v, v_dag = eff.bases, dag(eff.bases)
    blocks0 = v_dag @ rho0 @ v
    times = np.asarray(times, dtype=float)
    packed = sample_runs(blocks0[eff.mask], times,
                         partial(expm_vec_run, eff.generator))
    blocks = np.zeros((len(packed),) + blocks0.shape, dtype=complex)
    blocks[:, eff.mask] = packed
    blocks = (blocks + dag(blocks)) / 2
    states = (v @ blocks @ v_dag).sum(axis=-3)
    norms = real_trace(states)
    states /= norms[:, None, None]
    return Trajectory(times.copy(), states, norms, eff.dims)


def block_rhs(eff: NonselectiveEffective, blocks) -> np.ndarray:
    """Coupled block equations on a (k, m, m) block stack: each block evolves
    under its effective non-Hermitian Hamiltonian while feeding the others
    through the transition operators.  Total trace is conserved."""
    out = np.zeros(eff.mask.shape, dtype=complex)
    out[eff.mask] = eff.generator @ np.asarray(blocks)[eff.mask]
    return out


def integrate_blocks(eff: NonselectiveEffective, blocks0, times,
                     n_steps: int = DEFAULT_ODE_STEPS) -> np.ndarray:
    """Fixed-step RK4 integration of the coupled block equations from blocks0
    at T = 0, one (k, m, m) block stack per sample (`linalg.rk4_sample`)."""
    blocks0 = np.asarray(blocks0, dtype=complex)
    return rk4_sample(lambda b: block_rhs(eff, b), blocks0, times, n_steps)


def pauli_rates(eff: NonselectiveEffective) -> np.ndarray:
    """Classical transition-rate matrix for a rank-1 projector family.

    W[i, j] is the rate j -> i, Omega * |<i|h|j>|^2, with zero diagonal.
    """
    if eff.bases.shape[2] != 1:
        raise ValueError("Pauli reduction requires rank-1 family")
    w = eff.omega * np.abs(eff.trans[:, :, 0, 0]) ** 2
    np.fill_diagonal(w, 0.0)
    return w


def pauli_rhs(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gain/loss master equation dp_i = sum_{j!=i} (W[i,j] p_j - W[j,i] p_i)."""
    p = np.asarray(p, dtype=float)
    return w @ p - w.sum(axis=0) * p


def integrate_pauli(w: np.ndarray, p0, times,
                    n_steps: int = DEFAULT_ODE_STEPS) -> np.ndarray:
    """Fixed-step RK4 integration of the classical rate equation from p0 at
    T = 0, one real probability vector per sample."""
    p0 = np.asarray(p0, dtype=float)
    return rk4_sample(lambda p: pauli_rhs(w, p), p0, times, n_steps)


def swap_nonselective_closed_form(gamma: float, omega: float, rho0,
                                  t) -> np.ndarray:
    """System marginal of an exchange-coupled qubit pair whose probe qubit is
    monitored non-selectively, probe prepared in the measured basis state.

    Populations relax toward sharing the initial lower-level weight equally;
    coherences decay at Omega/2 while precessing at gamma.  Exact in the
    frequent-measurement limit; trace is preserved identically.  A scalar t
    gives one 2x2 state, an array of times a (..., 2, 2) stack of them.
    """
    rho0 = as_matrix(rho0)
    if rho0.shape != (2, 2):
        raise ValueError("closed form is for a 2x2 system state")
    t = np.asarray(t, dtype=float)
    decay2 = np.exp(-2.0 * omega * t)
    out = np.empty(t.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = rho0[0, 0] + 0.5 * (1.0 - decay2) * rho0[1, 1]
    out[..., 1, 1] = 0.5 * (1.0 + decay2) * rho0[1, 1]
    out[..., 0, 1] = np.exp((-1j * gamma - 0.5 * omega) * t) * rho0[0, 1]
    out[..., 1, 0] = np.exp((1j * gamma - 0.5 * omega) * t) * rho0[1, 0]
    return out
