"""Declarative construction of Hamiltonians, probe measurements, and initial states.

Conventions, fixed once so that exported datasets are bit-stable:
tensor order is system (x) probe; inside a two-qubit probe, qubit b comes
before qubit c; the computational basis is |up> = e0, |down> = e1.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_TOL, TensorDims, as_matrix, dag, is_density,
                     kron, max_abs, op_norm, psd_factor)

_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

UP = np.array([1.0, 0.0], dtype=complex)
DOWN = np.array([0.0, 1.0], dtype=complex)


def pauli(index: int) -> np.ndarray:
    """Pauli operator: 0 -> identity, 1 -> x, 2 -> y, 3 -> z."""
    if index not in (0, 1, 2, 3):
        raise ValueError(f"Pauli index must be 0..3, got {index}")
    return _SIGMA[index].copy()


def basis_ket(labels: str) -> np.ndarray:
    """Computational-basis ket of one or more qubits from a 'u'/'d' label string."""
    if not labels:
        raise ValueError("empty basis label")
    out = np.array([1.0 + 0.0j])
    for ch in labels:
        if ch == "u":
            out = np.kron(out, UP)
        elif ch == "d":
            out = np.kron(out, DOWN)
        else:
            raise ValueError(f"basis labels use 'u'/'d' only, got {ch!r}")
    return out


@dataclass(frozen=True)
class HamiltonianSpec:
    """Coupling strength gamma with tensor-factor term pairs (A_j, B_j).

    The factors must have finite entries, and their assembly sum_j A_j (x) B_j
    must not overflow and must be Hermitian; it is made once, here, and kept
    read-only (`dimensionless`).  Factor norms above 1 break the
    dimensionless normalization that makes gamma the characteristic
    frequency; that is only warned about, never rejected.
    """

    gamma: float
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("Hamiltonian needs at least one term")
        clean = []
        for k, (a, b) in enumerate(self.terms):
            a = as_matrix(a)
            b = as_matrix(b)
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
                raise ValueError(f"Hamiltonian term {k}: factor entries must be finite")
            if op_norm(a) > 1.0 + 1e-9 or op_norm(b) > 1.0 + 1e-9:
                warnings.warn(f"Hamiltonian term {k}: factor operator norm exceeds 1; "
                              "gamma is no longer the characteristic coupling strength",
                              stacklevel=3)
            clean.append((a, b))
        ds = clean[0][0].shape[0]
        dp = clean[0][1].shape[0]
        if any(a.shape[0] != ds or b.shape[0] != dp for a, b in clean):
            raise ValueError("all terms must share system and probe dimensions")
        object.__setattr__(self, "terms", tuple(clean))
        with np.errstate(over="ignore", invalid="ignore"):
            h = sum(kron(a, b) for a, b in clean)
        if not np.all(np.isfinite(h)):
            raise ValueError("assembled Hamiltonian overflows to non-finite entries")
        if max_abs(h - dag(h)) > DEFAULT_TOL:
            raise ValueError("assembled Hamiltonian is not Hermitian within 1e-10")
        h.flags.writeable = False
        object.__setattr__(self, "_h", h)

    @property
    def dim_sys(self) -> int:
        return self.terms[0][0].shape[0]

    @property
    def dim_pr(self) -> int:
        return self.terms[0][1].shape[0]

    @property
    def dims(self) -> TensorDims:
        return TensorDims(self.dim_sys, self.dim_pr)

    def dimensionless(self) -> np.ndarray:
        """sum_j A_j (x) B_j without the gamma prefactor: the read-only array
        assembled when the spec was made."""
        return self._h

    def assemble(self) -> np.ndarray:
        return self.gamma * self.dimensionless()

    def with_gamma(self, gamma: float) -> HamiltonianSpec:
        """The same terms at coupling strength gamma, sharing the terms and the
        assembly this spec has validated: no check runs again and no warning
        repeats."""
        out = copy.copy(self)
        object.__setattr__(out, "gamma", gamma)
        return out

    def effective(self, layout: BlockLayout, tau: float) -> EffectiveGenerator:
        """The `EffectiveGenerator` of both stroboscopic limits on layout, the
        one builder of it and the one check of its arguments: ValueError
        unless tau is finite and positive and the layout splits this
        Hamiltonian's dimensions (`BlockLayout.dims`).

        h = dimensionless() compressed by layout gives the (k, k, m, m)
        stack T of T_ij = V_i+ h V_j, and H1_i = gamma T_ii and H2_i =
        (Omega/2) (V_i+ h^2 V_i - T_ii^2), with Omega = gamma^2 tau, form
        (k, m, m) stacks; padding stays zero in all three.  H1 is Hermitian
        and H2 = (Omega/2) V+ h (1 - P) h V >= 0 by construction once this
        spec has accepted a Hermitian h, so neither is re-checked.
        """
        if not 0 < tau < math.inf:          # NaN compares false
            raise ValueError(f"tau must be a finite positive number, got {tau!r}")
        if layout.dims != self.dims:
            raise ValueError("measurement and Hamiltonian probe dimensions differ")
        h = self.dimensionless()
        trans = layout.pairs(h)
        i = np.arange(len(trans))
        diag = trans[i, i]
        disp = layout.compress(h @ h) - diag @ diag
        return EffectiveGenerator(self.gamma, tau, layout, trans, self.gamma * diag,
                                  (self.gamma * self.gamma * tau / 2.0) * disp)


class BlockLayout:
    """The one format of block-diagonal states on the measured ranges.

    `bases` is the (k, d, m) stack of V_i = I_sys (x) v_i for the orthonormal
    `probe_bases` v_i (e.g. a MeasurementSpec's), which map onto the ranges of
    C_i = I_sys (x) P_i, padded to the widest range m with zero columns;
    `sizes` holds the block sides dim_sys * r_i.  A state rho is carried as
    its (k, m, m) blocks V+ rho V (`compress`), each top left inside `mask`,
    and read through its system marginal (`marginal`).
    Hermitian blocks pack block by block, row-major, into the real
    coordinates Re x + Im x of their masked entries x (`pack`), an isometry
    onto R^N, N = sum_i sizes_i^2, block i at `spans[i]`; `transpose` maps
    each packed index to that of the transposed entry of its block.
    """

    def __init__(self, dim_sys: int, probe_bases) -> None:
        self.dim_sys = dim_sys
        self.probe_bases = tuple(probe_bases)
        iso = [kron(np.eye(dim_sys), v) for v in probe_bases]
        self.sizes = np.array([v.shape[1] for v in iso])
        self.bases = np.zeros((len(iso), iso[0].shape[0], self.sizes.max()),
                              dtype=complex)
        for s, v in zip(self.bases, iso):
            s[:, :v.shape[1]] = v
        live = np.arange(self.bases.shape[2]) < self.sizes[:, None]
        self.mask = live[:, :, None] & live[:, None, :]
        position = np.zeros(self.mask.shape, dtype=np.intp)   # packed index of each entry
        position[self.mask] = np.arange(np.count_nonzero(self.mask))
        self.transpose = position.swapaxes(1, 2)[self.mask]
        ends = np.cumsum(self.sizes ** 2)
        self.spans = [slice(e - n * n, e) for e, n in zip(ends, self.sizes)]

    @property
    def dims(self) -> TensorDims:
        """The system (x) probe split of the states the layout compresses."""
        return TensorDims(self.dim_sys, self.probe_bases[0].shape[0])

    def compress(self, x) -> np.ndarray:
        """The (..., k, m, m) blocks V_i+ x V_i of a (..., d, d) operator stack."""
        return dag(self.bases) @ np.asarray(x)[..., None, :, :] @ self.bases

    def pairs(self, x) -> np.ndarray:
        """The (k, k, m, m) stack of V_i+ x V_j for one d x d operator x."""
        return (dag(self.bases) @ x)[:, None] @ self.bases[None]

    def pack(self, blocks) -> np.ndarray:
        """Real coordinates Re x + Im x of the packed blocks
        x = blocks[..., mask] of a Hermitian (..., k, m, m) block stack."""
        x = np.asarray(blocks)[..., self.mask]
        return x.real + x.imag

    def unpack(self, r) -> np.ndarray:
        """The Hermitian (..., k, m, m) block stack with real coordinates r,
        zero outside the mask: x = ((r + r[S]) + i (r - r[S])) / 2 for
        S = transpose, each block its own conjugate transpose bit for bit."""
        r = np.asarray(r)
        r_t = r[..., self.transpose]
        x = np.empty(r.shape, dtype=complex)
        x.real = (r + r_t) / 2
        x.imag = (r - r_t) / 2
        out = np.zeros(r.shape[:-1] + self.mask.shape, dtype=complex)
        out[..., self.mask] = x
        return out

    def packed_map(self, x, y) -> np.ndarray:
        """The real N x N matrix on `pack` coordinates of b_i -> sum_j x_ij
        b_j y_ji, for (k, k, m, m) pair stacks x, y with y_ji a real multiple
        of x_ij+: R[ab, cd] = Re B[ab, cd] + Im B[ab, dc] for the complex
        B[ab, cd] = x_ij[a, c] y_ji[d, b] from column (c, d) of block j to row
        (a, b) of block i, each block written in place from one outer product
        of the rank-sized slices, so no complex N x N matrix is formed."""
        n, spans = self.sizes, self.spans
        out = np.empty((spans[-1].stop,) * 2)
        for i, row in enumerate(spans):
            for j, col in enumerate(spans):
                b = np.einsum("ac,db->abcd", x[i, j, :n[i], :n[j]],
                              y[j, i, :n[j], :n[i]])
                np.add(b.real, b.imag.swapaxes(2, 3),
                       out=out[row, col].reshape(n[i], n[i], n[j], n[j]))
        return out

    def marginal(self, blocks) -> np.ndarray:
        """The (..., dim_sys, dim_sys) system marginals sum_i Tr_{r_i} b_i of
        a (..., k, m, m) block stack: the probe traced out of sum_i V_i b_i
        V_i+, whatever the probe bases.  Each block is cut to its side
        sizes[i] before it splits as dim_sys x r_i; the padded side may not.
        A block of rank 1 is its own marginal, so a layout of one such block
        returns a view of the stack."""
        b, ds = np.asarray(blocks), self.dim_sys
        parts = [b[..., i, :n, :n] for i, n in enumerate(self.sizes)]
        parts = [x if n == ds else np.einsum("...apbp->...ab", x.reshape(
            b.shape[:-3] + (ds, n // ds) * 2)) for x, n in zip(parts, self.sizes)]
        return sum(parts[1:], parts[0])


@dataclass(frozen=True)
class EffectiveGenerator:
    """The effective generator of both stroboscopic limits on the blocks of
    `layout`, made by `HamiltonianSpec.effective`.

    trans[i, j] is T_ij = V_i+ h V_j for the dimensionless Hamiltonian h
    (H = gamma h), and h1, h2 are the (k, m, m) stacks H1_i, H2_i.  Their
    Heff_i = H1_i - i H2_i (`heff`) is the selective branch generator of
    outcome i and the diagonal block of the non-selective generator, which
    couples the blocks through the transitions T_ij.  A selective layout
    holds the one block of the selected range; for a rank-1 projector its
    probe factor is one-dimensional, so the operators act on the system
    alone.
    """

    gamma: float
    tau: float
    layout: BlockLayout
    trans: np.ndarray
    h1: np.ndarray
    h2: np.ndarray

    @property
    def omega(self) -> float:
        return self.gamma * self.gamma * self.tau

    @property
    def heff(self) -> np.ndarray:
        return self.h1 - 1j * self.h2


@dataclass(frozen=True)
class MeasurementSpec:
    """Orthogonal probe measurement, given by the ranges of its outcomes,
    optionally with a selected outcome.

    `bases` holds one column-orthonormal (dim_pr, r_i) isometry v_i per
    outcome, onto the range of its projector P_i = v_i v_i+ (`projectors`);
    its column order fixes the intra-block ordering used everywhere
    downstream.  One Gram matrix of the concatenated bases checks that each
    is orthonormal and that the outcomes are orthogonal, within 1e-10.
    selected_index present means selective mode (only that outcome branch is
    followed); absent means non-selective mode, which additionally requires
    the family to be complete, sum_i P_i = I within 1e-10.
    """

    bases: tuple[np.ndarray, ...]
    selected_index: int | None = None

    def __post_init__(self) -> None:
        bases = tuple(np.asarray(v, dtype=complex) for v in self.bases)
        if not bases:
            raise ValueError("measurement needs at least one outcome")
        for k, v in enumerate(bases):
            if v.ndim != 2 or v.shape[1] < 1 or v.shape[0] != bases[0].shape[0]:
                raise ValueError(f"basis {k} has shape {v.shape}, expected (dim_pr, r) "
                                 "with r >= 1 and the dim_pr of basis 0")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"basis {k} has non-finite entries")
        stacked = np.concatenate(bases, axis=1)
        gram = dag(stacked) @ stacked
        bad = np.abs(gram - np.eye(len(gram))) > DEFAULT_TOL
        if bad.any():      # the outcomes of the first faulty column pair
            outcome = np.repeat(np.arange(len(bases)), [v.shape[1] for v in bases])
            i, j = outcome[np.argwhere(bad)[0]]
            raise ValueError(f"basis {i} is not orthonormal within 1e-10" if i == j
                             else f"outcomes {i} and {j} overlap: their bases are "
                             "not orthogonal within 1e-10")
        if self.selected_index is not None:
            if not 0 <= self.selected_index < len(bases):
                raise ValueError(f"selected_index {self.selected_index} out of range")
        elif max_abs(stacked @ dag(stacked) - np.eye(len(stacked))) > DEFAULT_TOL:
            raise ValueError("non-selective mode requires a complete projector family")
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "_layouts", {})

    def selected_layout(self, dim_sys: int) -> BlockLayout:
        """The one-block `BlockLayout` of the selected range on a system of
        dimension dim_sys, the one that both selective runners carry their
        states on.  Made once per dim_sys and kept, so that every run of this
        spec, each tau of a sweep among them, shares one layout and with it
        the start factor `InitialState.start_factor`.  ValueError when no
        outcome is selected."""
        s = self.selected_index
        if s is None:
            raise ValueError("selective dynamics requires a selected outcome")
        if dim_sys not in self._layouts:
            self._layouts[dim_sys] = BlockLayout(dim_sys, self.bases[s:s + 1])
        return self._layouts[dim_sys]

    def full_layout(self, dim_sys: int) -> BlockLayout:
        """The `BlockLayout` of all outcome ranges, which both non-selective
        runners carry their blocks on, kept as `selected_layout` is;
        ValueError when an outcome is selected."""
        if self.selected_index is not None:
            raise ValueError("non-selective dynamics requires no selected outcome")
        if dim_sys not in self._layouts:
            self._layouts[dim_sys] = BlockLayout(dim_sys, self.bases)
        return self._layouts[dim_sys]

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(v @ dag(v) for v in self.bases)

    @property
    def dim_pr(self) -> int:
        return self.bases[0].shape[0]

    @property
    def selective(self) -> bool:
        return self.selected_index is not None


def measurement_from_kets(ket_groups, selected_index: int | None = None) -> MeasurementSpec:
    """Build a MeasurementSpec from per-outcome ket lists, each outcome's kets
    the columns of its basis, in order."""
    bases = []
    for i, group in enumerate(ket_groups):
        vecs = [np.asarray(k, dtype=complex).reshape(-1) for k in group]
        if len({v.size for v in vecs}) > 1:
            raise ValueError(f"the kets of outcome {i} differ in dimension")
        bases.append(np.column_stack(vecs))
    return MeasurementSpec(tuple(bases), selected_index)


@dataclass(frozen=True)
class InitialState:
    """Factorized initial state rho_sys (x) rho_pr."""

    rho_sys: np.ndarray
    rho_pr: np.ndarray

    def __post_init__(self) -> None:
        rs = as_matrix(self.rho_sys)
        rp = as_matrix(self.rho_pr)
        if not is_density(rs, DEFAULT_TOL):
            raise ValueError("rho_sys is not a density matrix within 1e-10")
        if not is_density(rp, DEFAULT_TOL):
            raise ValueError("rho_pr is not a density matrix within 1e-10")
        object.__setattr__(self, "rho_sys", rs)
        object.__setattr__(self, "rho_pr", rp)
        object.__setattr__(self, "_factors", {})

    @classmethod
    def from_kets(cls, psi_sys, psi_pr) -> "InitialState":
        s = np.asarray(psi_sys, dtype=complex).reshape(-1)
        p = np.asarray(psi_pr, dtype=complex).reshape(-1)
        ns = np.linalg.norm(s)
        np_ = np.linalg.norm(p)
        if ns <= 0 or np_ <= 0:
            raise ValueError("initial kets must be non-zero")
        s = s / ns
        p = p / np_
        return cls(np.outer(s, s.conj()), np.outer(p, p.conj()))

    @property
    def dims(self) -> TensorDims:
        return TensorDims(self.rho_sys.shape[0], self.rho_pr.shape[0])

    def joint(self) -> np.ndarray:
        return kron(self.rho_sys, self.rho_pr)

    def probe_block(self, v) -> np.ndarray:
        """v+ rho_pr v, the probe state on range(P) for the isometry v onto it.

        The one support rule of the selective runners, exact and limit:
        ValueError unless P rho_pr P = rho_pr within 1e-10, with P = v v+.
        """
        rp = dag(v) @ self.rho_pr @ v
        if max_abs(v @ rp @ dag(v) - self.rho_pr) > DEFAULT_TOL:
            raise ValueError("initial probe state must be supported in range(P) "
                             "of the selected projector")
        return rp

    def start_factor(self, layout: BlockLayout) -> np.ndarray:
        """The read-only (m, r) factor F, F F+ = V+ rho0 V (`linalg.psd_factor`),
        of the start block of the one-block `layout`, whose probe basis must
        pass the support rule of `probe_block`.  Made once per layout and
        kept, so that the runs on a shared layout
        (`MeasurementSpec.selected_layout`) share F."""
        f = self._factors.get(layout)
        if f is None:
            self.probe_block(layout.probe_bases[0])
            f = psd_factor(layout.compress(self.joint())[0])
            f.flags.writeable = False
            self._factors[layout] = f
        return f


def swap_hamiltonian(gamma: float) -> HamiltonianSpec:
    """Exchange (SWAP) coupling of two qubits: gamma/2 * sum_j sigma_j (x) sigma_j.

    Stored as four terms (sigma_j/sqrt2, sigma_j/sqrt2) so each factor keeps
    unit operator norm.
    """
    s = 1.0 / np.sqrt(2.0)
    terms = tuple((s * pauli(j), s * pauli(j)) for j in range(4))
    return HamiltonianSpec(gamma, terms)


def heisenberg3_hamiltonian(gamma: float, field: str = "local_xyz") -> HamiltonianSpec:
    """Three exchange-coupled qubits a, b, c with single-qubit field terms.

    Qubit a is the system; qubits b and c form the probe (b before c).  All
    three pairwise exchange couplings are included.  field='local_xyz' adds
    x on a, y on b, z on c; field='global_z' adds z on each qubit.
    """
    eye2 = pauli(0)
    eye4 = np.eye(4, dtype=complex)
    terms: list[tuple[np.ndarray, np.ndarray]] = []
    for k in (1, 2, 3):
        terms.append((pauli(k), kron(pauli(k), eye2)))   # a.b exchange
    for k in (1, 2, 3):
        terms.append((pauli(k), kron(eye2, pauli(k))))   # c.a exchange
    for k in (1, 2, 3):
        terms.append((eye2, kron(pauli(k), pauli(k))))   # b.c exchange
    if field == "local_xyz":
        terms.append((pauli(1), eye4))
        terms.append((eye2, kron(pauli(2), eye2)))
        terms.append((eye2, kron(eye2, pauli(3))))
    elif field == "global_z":
        terms.append((pauli(3), eye4))
        terms.append((eye2, kron(pauli(3), eye2)))
        terms.append((eye2, kron(eye2, pauli(3))))
    else:
        raise ValueError(f"field must be 'local_xyz' or 'global_z', got {field!r}")
    return HamiltonianSpec(gamma, tuple(terms))
