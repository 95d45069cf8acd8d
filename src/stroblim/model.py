"""Declarative construction of Hamiltonians, probe measurements, and initial states.

Conventions, fixed once so that exported datasets are bit-stable:
tensor order is system (x) probe; inside a two-qubit probe, qubit b comes
before qubit c; the computational basis is |up> = e0, |down> = e1.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_TOL, TensorDims, as_matrix, dag, is_density,
                     is_projector, kron, max_abs, op_norm)

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


def projector_from_kets(kets) -> np.ndarray:
    """Orthogonal projector sum |k><k| over an orthonormal list of kets."""
    vecs = [np.asarray(k, dtype=complex).reshape(-1) for k in kets]
    if not vecs:
        raise ValueError("projector needs at least one ket")
    dim = vecs[0].size
    if any(v.size != dim for v in vecs):
        raise ValueError("kets must share one dimension")
    v = np.column_stack(vecs)
    gram = dag(v) @ v
    if max_abs(gram - np.eye(len(vecs))) > DEFAULT_TOL:
        raise ValueError("kets must be orthonormal within 1e-10")
    return v @ dag(v)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Coupling strength gamma with tensor-factor term pairs (A_j, B_j).

    The factors must have finite entries, and the assembled interaction
    gamma * sum_j A_j (x) B_j must be Hermitian.  Factor norms above 1 break
    the dimensionless normalization that makes gamma the characteristic
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
        h = self.dimensionless()
        if not max_abs(h - dag(h)) <= DEFAULT_TOL:     # NaN fails too
            raise ValueError("assembled Hamiltonian is not Hermitian within 1e-10")

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
        """sum_j A_j (x) B_j without the gamma prefactor."""
        out = np.zeros((self.dim_sys * self.dim_pr,) * 2, dtype=complex)
        for a, b in self.terms:
            out += kron(a, b)
        return out

    def assemble(self) -> np.ndarray:
        return self.gamma * self.dimensionless()

    def with_gamma(self, gamma: float) -> HamiltonianSpec:
        """The same terms at coupling strength gamma, sharing the terms this
        spec has validated: no check runs again and no warning repeats."""
        out = copy.copy(self)
        object.__setattr__(out, "gamma", gamma)
        return out

    def isometries(self, probe_bases) -> np.ndarray:
        """The (k, d, m) stack of V_i = I_sys (x) v_i, one per probe isometry
        v_i (column-orthonormal, e.g. the `bases` of a MeasurementSpec): the
        joint-space isometry onto the range of I_sys (x) P_i, padded to the
        widest range m with trailing zero columns.

        This is the one layout of block-diagonal states: their blocks are the
        (k, m, m) stack V+ rho V, each rank-sized block top left and zeros
        around it, and lift back as sum_i V_i b_i V_i+.
        """
        eye_sys = np.eye(self.dim_sys, dtype=complex)
        iso = [kron(eye_sys, v) for v in probe_bases]
        stack = np.zeros((len(iso), self.dim_sys * self.dim_pr,
                          max(v.shape[1] for v in iso)), dtype=complex)
        for s, v in zip(stack, iso):
            s[:, :v.shape[1]] = v
        return stack

    def blocks(self, probe_bases, tau: float) -> tuple[np.ndarray, ...]:
        """Compressions of h = dimensionless() to probe ranges, and the
        effective generator of both stroboscopic limits: (V, T, H1, H2).

        V is the (k, d, m) stack of `isometries` and T the (k, k, m, m) stack
        of T_ij = V_i+ h V_j.  H1 and H2 are the (k, m, m) stacks
        H1_i = gamma T_ii and H2_i = (Omega/2) D_i, with Omega = gamma^2 tau
        and the dispersions D_i = V_i+ h^2 V_i - T_ii^2, so that
        Heff_i = H1_i - i H2_i.  Heff_i is the selective branch generator of
        outcome i and the diagonal block of the non-selective generator,
        which couples the blocks through the transitions T_ij.  Padding
        stays zero in all four.
        """
        h = self.dimensionless()
        bases = self.isometries(probe_bases)
        bases_dag = dag(bases)
        trans = (bases_dag @ h)[:, None] @ bases[None]
        i = np.arange(len(bases))
        diag = trans[i, i]
        disp = bases_dag @ (h @ h) @ bases - diag @ diag
        return (bases, trans, self.gamma * diag,
                (self.gamma * self.gamma * tau / 2.0) * disp)


@dataclass(frozen=True)
class MeasurementSpec:
    """Family of orthogonal probe projectors, optionally with a selected outcome.

    selected_index present means selective mode (only that outcome branch is
    followed); absent means non-selective mode, which additionally requires the
    family to be complete.  `bases` holds one column-orthonormal isometry per
    projector (built from its eigenvectors when not supplied) and fixes the
    intra-block ordering used everywhere downstream.
    """

    projectors: tuple[np.ndarray, ...]
    selected_index: int | None = None
    bases: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if not self.projectors:
            raise ValueError("measurement needs at least one projector")
        projs = tuple(as_matrix(p) for p in self.projectors)
        dim = projs[0].shape[0]
        for k, p in enumerate(projs):
            if p.shape[0] != dim:
                raise ValueError("projectors must share one dimension")
            if not is_projector(p, DEFAULT_TOL):
                raise ValueError(f"projector {k} is not a projector within 1e-10")
            if round(float(np.trace(p).real)) < 1:
                raise ValueError(f"projector {k} has rank 0")
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if max_abs(projs[i] @ projs[j]) > DEFAULT_TOL:
                    raise ValueError(f"projectors {i} and {j} are not orthogonal")
        if self.selected_index is not None:
            if not 0 <= self.selected_index < len(projs):
                raise ValueError(f"selected_index {self.selected_index} out of range")
        else:
            total = sum(projs)
            if max_abs(total - np.eye(dim)) > DEFAULT_TOL:
                raise ValueError("non-selective mode requires a complete projector family")
        if self.bases is None:
            built = []
            for p in projs:
                w, v = np.linalg.eigh(p)
                built.append(np.ascontiguousarray(v[:, w > 0.5]))
            bases = tuple(built)
        else:
            bases = tuple(np.asarray(b, dtype=complex) for b in self.bases)
            if len(bases) != len(projs):
                raise ValueError("need one basis per projector")
        for k, (p, v) in enumerate(zip(projs, bases)):
            r = round(float(np.trace(p).real))
            if v.shape != (dim, r):
                raise ValueError(f"basis {k} must be {dim}x{r}")
            if max_abs(dag(v) @ v - np.eye(r)) > DEFAULT_TOL:
                raise ValueError(f"basis {k} is not orthonormal")
            if max_abs(v @ dag(v) - p) > DEFAULT_TOL:
                raise ValueError(f"basis {k} does not span projector {k}")
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "bases", bases)

    @property
    def dim_pr(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(round(float(np.trace(p).real)) for p in self.projectors)

    @property
    def selective(self) -> bool:
        return self.selected_index is not None


def measurement_from_kets(ket_groups, selected_index: int | None = None) -> MeasurementSpec:
    """Build a MeasurementSpec from per-outcome ket lists, preserving ket order."""
    projs = []
    bases = []
    for group in ket_groups:
        vecs = [np.asarray(k, dtype=complex).reshape(-1) for k in group]
        projs.append(projector_from_kets(vecs))
        bases.append(np.column_stack(vecs))
    return MeasurementSpec(tuple(projs), selected_index, tuple(bases))


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
