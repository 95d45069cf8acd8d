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
them block by block, row-major within each block, into a vector x of
length N = sum_i n_i^2 <= d^2.  The blocks are Hermitian and the semigroup
keeps them so, so it is a real-linear map on the real coordinates
r = Re x + Im x (`NonselectiveEffective.pack`), an isometry with inverse
x = ((r + r[S]) + i (r - r[S])) / 2 for the within-block transpose S
(`unpack`, Hermitian bit for bit).  `build_generator` writes the block
equations as one real N x N matrix on r, and that matrix is the only
generator in the package: the semigroup propagator and the block
right-hand side both use it.  The propagator needs only its
action on the coordinates: a few samples of a large generator are taken by
real products with that vector, with no N x N exponential
(`linalg.expm_vec_run`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import (TensorDims, as_matrix, conj_stack, dag, expm_vec_run,
                     real_trace, sample_runs)
from .model import HamiltonianSpec, InitialState, MeasurementSpec
from .trajectory import Trajectory


@dataclass(frozen=True)
class NonselectiveEffective:
    """Semigroup generator on the blocks of a channel-invariant state.

    bases is the padded (k, d, m) isometry stack V of
    `HamiltonianSpec.isometries`, so the blocks of a state rho are the
    (k, m, m) stack V+ rho V; mask is True inside the rank-sized blocks, and
    stack[..., mask] is the packed vector x.  transpose holds, for each
    packed index, the packed index of the transposed entry of its block.
    generator is the real N x N matrix of the coupled block equations on
    the real coordinates Re x + Im x of Hermitian blocks (see `pack`,
    `unpack` and `block_rhs`).  trans[i, j] is
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
    transpose: np.ndarray
    generator: np.ndarray
    dims: TensorDims

    @property
    def omega(self) -> float:
        return self.gamma * self.gamma * self.tau

    def pack(self, blocks) -> np.ndarray:
        """Real coordinates Re x + Im x of the packed blocks
        x = blocks[..., mask] of a Hermitian (..., k, m, m) block stack."""
        x = np.asarray(blocks)[..., self.mask]
        return x.real + x.imag

    def unpack(self, r) -> np.ndarray:
        """The Hermitian (..., k, m, m) block stack whose real coordinates
        are r, zero outside the mask.  Entry and transpose come from the same
        sum and difference, so each block equals its conjugate transpose bit
        for bit."""
        r = np.asarray(r)
        r_t = r[..., self.transpose]
        x = np.empty(r.shape, dtype=complex)
        x.real = (r + r_t) / 2
        x.imag = (r - r_t) / 2
        out = np.zeros(r.shape[:-1] + self.mask.shape, dtype=complex)
        out[..., self.mask] = x
        return out


def build_generator(ham: HamiltonianSpec, spec: MeasurementSpec,
                    tau: float) -> NonselectiveEffective:
    """Assemble the non-selective semigroup generator on the packed blocks.

    T_ij, H1_i = gamma T_ii and H2_i = (Omega / 2) (V_i+ h^2 V_i - T_ii^2)
    come from `HamiltonianSpec.blocks`, and Heff_i = H1_i - i H2_i is the
    selective branch generator of outcome i (see `effective_rankr`).  On the
    packed blocks x, row (a, b) of block i and column (c, d) of block j of
    the complex generator hold B[ab, cd] = Omega T_ij[a, c] T_ji[d, b] for
    i != j (the kron Omega T_ij (x) T_ji^T) and
    -i (Heff_i[a, c] delta_bd - delta_ac conj(Heff_i[b, d])) for i = j.  On
    the real coordinates r = Re x + Im x the generator is
    R[ab, cd] = Re B[ab, cd] + Im B[ab, dc], that is Re(B x) + Im(B x) with
    x = ((1 + i) r + (1 - i) r[S]) / 2.  Each block is written into the real
    N x N matrix in place: off the diagonal from one complex outer product
    of the rank-sized slices, on it as the four real delta terms
    Im Heff[a, c] delta_bd + delta_ac Im Heff[b, d] - delta_bc Re Heff[a, d]
    + delta_ad Re Heff[b, c].  No complex N x N matrix is formed.  Only
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
    heff = h1 - 1j * h2
    live = np.any(bases, axis=1)                # the unpadded columns of V_i
    mask = live[:, :, None] & live[:, None, :]
    n = live.sum(axis=1)
    position = np.zeros(mask.shape, dtype=np.intp)     # packed index of each entry
    position[mask] = np.arange(np.count_nonzero(mask))
    transpose = position.swapaxes(1, 2)[mask]
    ends = np.cumsum(n * n)
    rows = [slice(e - k * k, e) for e, k in zip(ends, n)]
    gen = np.zeros((ends[-1], ends[-1]))
    for i, row in enumerate(rows):
        for j, col in enumerate(rows):
            g = gen[row, col].reshape(n[i], n[i], n[j], n[j])    # a view [a, b, c, d]
            if i != j:
                b = np.einsum("ac,db->abcd", omega * trans[i, j, :n[i], :n[j]],
                              trans[j, i, :n[j], :n[i]])
                np.add(b.real, b.imag.swapaxes(2, 3), out=g)
            else:
                h, k = heff[i, :n[i], :n[i]], np.arange(n[i])
                g[:, k, :, k] = h.imag                  # delta_bd
                g[k, :, k, :] += h.imag                 # delta_ac
                g[:, k, k, :] -= h.real[:, None, :]     # delta_bc
                g[k, :, :, k] += h.real                 # delta_ad
    return NonselectiveEffective(
        gamma=gamma, tau=tau, bases=bases, trans=trans, heff=heff, mask=mask,
        transpose=transpose, generator=gen, dims=ham.dims)


def semigroup_propagate(eff: NonselectiveEffective, init: InitialState,
                        times) -> Trajectory:
    """rho(T) = exp(L_eff T) rho(0), evolved on the real coordinates of the
    packed blocks.

    The coordinates are stepped along the grid by `linalg.sample_runs`:
    each run of equal gaps h by the action of exp(L h) on the vector or by
    one dense exp(L h), whichever the cost rule of `linalg.expm_vec_run` on
    N, the run's step count and ||L h||_1 finds cheaper.  All samples are
    then unpacked into one Hermitian block stack and lifted back, one
    `linalg.conj_stack` over all samples per block.
    Times must be finite, non-negative and non-decreasing.  As in
    `run_nonselective`, the measurement channel is applied at t = 0: the
    evolution starts from the blocks V+ rho0 V of the joint initial state,
    so the t = 0 sample is rho0 itself when rho0 is block-diagonal and its
    channel image otherwise.  Each block b is lifted as y + y+ with
    y = V t V+, t the lower triangle of b with half its diagonal, so the
    states are Hermitian bit for bit.  The semigroup preserves trace and
    block structure; the states are divided by their traces, as in the
    other propagators, and the norms report the rounding drift, such as
    that of the squarings of one exponential over a huge gap.
    """
    rho0 = init.joint()
    if rho0.shape[0] != eff.dims.total:
        raise ValueError("initial state does not match the generator dimensions")
    v, v_dag = eff.bases, dag(eff.bases)
    times = np.asarray(times, dtype=float)
    coords = sample_runs(eff.pack(v_dag @ rho0 @ v), times,
                         partial(expm_vec_run, eff.generator))
    lower = np.tril(eff.unpack(coords))
    diag = np.arange(lower.shape[-1])
    lower[..., diag, diag] /= 2
    half = sum(conj_stack(vi, lower[:, i], vi_dag)
               for i, (vi, vi_dag) in enumerate(zip(v, v_dag)))
    states = half + dag(half)
    norms = real_trace(states)
    states /= norms[:, None, None]
    return Trajectory(times.copy(), states, norms, eff.dims)


def block_rhs(eff: NonselectiveEffective, blocks) -> np.ndarray:
    """Coupled block equations on a Hermitian (k, m, m) block stack, by the
    generator on its real coordinates: each block evolves under its
    effective non-Hermitian Hamiltonian while feeding the others through
    the transition operators.  Total trace is conserved."""
    return eff.unpack(eff.generator @ eff.pack(blocks))


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
