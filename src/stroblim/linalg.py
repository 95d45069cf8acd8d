"""Dense linear-algebra kernel shared by all dynamics modules.

Operators are plain complex numpy arrays, a few dimensions for the bundled
scenarios, and the N x N non-selective generator is a real one, acting on
the real coordinates of packed Hermitian blocks (N = sum_i n_i^2 <= d^2;
256 x 256 for four rank-2 probe blocks at d = 32).  The exponential and its
action keep a real input real, so the semigroup runs in real arithmetic.
Storage is dense and every routine is deterministic at a fixed BLAS thread
count.  The two exponentials, the exact oracle's U among them, are so across
thread counts as well: truncated Taylor series sized by one theta table and
formed by products alone, with no solve, the matrix exponential at degree 18
with scaling and squaring, the action exp(a t) y on a vector with sub-steps
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011).  Also here: one-sided
binary powers m^n f of a factor f for a whole stack of n at once,
`step_powers`, which samples any step y <- step(y) at a list of counts, and
`expm_step`, the step y -> exp(a h) y by the action or by one exp(a h),
whichever a cost rule finds cheaper over a run of a given length.  The
action is sized by the power norms ||(a h)^p||_1^(1/p), p = 2, 3, estimated
from products with blocks of two vectors (Higham & Tisseur, SIAM J. Matrix
Anal. Appl. 21, 2000), where ||a h||_1 alone would split a step: the d = 32
benchmark generator has ||a h||_1 = 13.5 but a spectral radius of 4.6, and
takes one sub-step per sample instead of two.  The estimate is skipped
where the 1-norm already gives one sub-step, or where one exp(a h) wins
even at |tr(a h)| / N, below every power norm.  All functions are pure;
nothing mutates its inputs.

Work proportional to the number of samples runs as whole-stack numpy calls.
A state m^n r0 m^n+ is carried as its factor m^n f, f f+ = r0
(`psd_factor`): `factor_powers` fills a dense range of powers, every n from
0 to n_max as an every-period run asks, as one table a level at a time, the
powers 2^b .. 2^(b+1) - 1 from the powers below 2^b in one contiguous GEMM
written into the table (at n_max = 16000 and k = 2, with r = 1, 0.44 ms
against 2.9 ms for the two-sided table of m^n r0 m^n+ that it replaced).

Traces and short-axis sums over a sample stack go through `einsum`
(`real_trace`), not `np.trace` or `sum(axis=-1)`: on a 2-vCPU Xeon VM with
OpenBLAS, numpy's reductions along a short last axis run 8 to 10 times
slower after a complex GEMM until some other numpy loop has run.  `np.trace`
of a (16001, 2, 2) stack took 3.3 ms right after one 2 x 2 product, against
0.41 ms before it, and `einsum` 0.07 ms either way.  `einsum` adds the
diagonal in sequence, as numpy's pairwise sum does below 8 floats (4 complex
numbers), so traces of 2 x 2 and 3 x 3 blocks keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_TOL = 1e-10
# Probability below which a post-selected branch counts as vanished.
PROB_FLOOR = 1e-14


@dataclass(frozen=True)
class TensorDims:
    """Factor dimensions of a system (x) probe bipartition."""

    dim_sys: int
    dim_pr: int

    def __post_init__(self) -> None:
        if self.dim_sys < 1 or self.dim_pr < 1:
            raise ValueError("tensor factor dimensions must be positive")

    @property
    def total(self) -> int:
        return self.dim_sys * self.dim_pr


def as_matrix(a, stack: bool = False, dtype=complex) -> np.ndarray:
    """Coerce input to a square complex (or dtype) matrix, or with
    stack=True to a matrix or (..., n, n) stack of them."""
    m = np.asarray(a, dtype=dtype)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def real_trace(a):
    """Real part of the trace of a matrix (a float), or of each matrix in a
    (..., n, n) stack, by `einsum`: the one reduction over stacks (see the
    module docstring)."""
    return np.einsum("...ii->...", a).real


def max_abs(a) -> float:
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def op_norm(a) -> float:
    """Operator norm (largest singular value)."""
    return float(np.linalg.norm(as_matrix(a), 2))


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(a)
    return max_abs(m - dag(m)) <= tol


def is_psd(a, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian with spectrum above -tol."""
    m = as_matrix(a)
    if not is_hermitian(m, tol):
        return False
    w = np.linalg.eigvalsh((m + dag(m)) / 2)
    return bool(w.min() >= -tol)


def is_density(a, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian, positive semidefinite, unit trace."""
    m = as_matrix(a)
    return is_psd(m, tol) and abs(complex(np.trace(m)) - 1.0) <= tol


def kron(*ops) -> np.ndarray:
    """Kronecker product of one or more operators, left-associated."""
    if not ops:
        raise ValueError("kron needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


# theta_m of the degree-m truncated Taylor series at unit roundoff 2^-53: the
# largest 1-norm of a t for which m terms give exp(a t) y to that roundoff.
# One table sizes both kernels: the action's (m, s) and, at m = 18, the
# scaling of `expm`.  m <= 30 from Higham, "Functions of Matrices" (2008),
# Table A.3; the rest from Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011),
# Table 3.1.
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0 ** -53
# The largest 1-norm that the scaling of `expm` tames, in 63 squarings.
EXPM_MAX_NORM1 = _TAYLOR_THETA[18] * 2.0 ** 63
# 1/k!, k = 0..18: the series of `expm`.
_EXPM_COEFFS = tuple(1.0 / math.factorial(k) for k in range(19))


def _squarings(norm1: float) -> int:
    """Squarings that bring a 1-norm under theta_18, the bound of `expm`;
    ValueError when more than 63 would be needed (or the norm is not finite)."""
    theta = _TAYLOR_THETA[18]
    if not norm1 <= EXPM_MAX_NORM1:
        raise ValueError("matrix exponential did not converge: ill-scaled input "
                         f"(1-norm {norm1:.3e})")
    if norm1 <= theta:
        return 0
    return int(math.ceil(math.log2(norm1 / theta)))


def expm(a) -> np.ndarray:
    """Matrix exponential by the degree-18 Taylor series with scaling and
    squaring, whatever the structure of the input.  The series is evaluated
    by Paterson & Stockmeyer (SIAM J. Comput. 2, 1973) as a polynomial in
    a^4 with coefficients in a, a^2, a^3: 7 products and no linear solve, so
    its bits do not depend on the BLAS thread count.  A real input stays in
    real arithmetic and gives a real result; the zero matrix gives the
    identity exactly.  Raises ValueError on non-finite input or when scaling
    cannot tame the norm.
    """
    m = as_matrix(a, dtype=float if np.isrealobj(a) else complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix exponential requires finite entries")
    eye = np.eye(m.shape[0], dtype=m.dtype)
    if not m.any():
        return eye
    s = _squarings(float(np.linalg.norm(m, 1)))
    m = m / (2.0 ** s) if s else m
    c = _EXPM_COEFFS
    m2 = m @ m
    m3, m4 = m2 @ m, m2 @ m2
    out = c[16] * eye + c[17] * m + c[18] * m2
    for j in (12, 8, 4, 0):
        out = out @ m4 + (c[j] * eye + c[j + 1] * m + c[j + 2] * m2 + c[j + 3] * m3)
    for _ in range(s):
        out = out @ out
    return out


def taylor_degree(norm1: float) -> tuple[int, int]:
    """Degree m and sub-step count s of `expm_action` for ||a t||_1 = norm1:
    s = ceil(norm1 / theta_m), with m minimising the m s products.  The same
    ValueError as `expm` when its scaling could not tame norm1."""
    _squarings(norm1)
    if norm1 == 0:
        return 0, 1
    _, m, s = min((m * math.ceil(norm1 / theta), m, math.ceil(norm1 / theta))
                  for m, theta in _TAYLOR_THETA.items())
    return m, s


def _power_norm1(a, p: int) -> float:
    """||a^p||_1 estimated from below by the first step of the block 1-norm
    estimator (Higham & Tisseur, SIAM J. Matrix Anal. Appl. 21, 2000,
    Algorithm 2.4) with two columns: a^p on a fixed start block (all ones,
    and alternating signs, each column of unit 1-norm), (a^p)^T on the signs
    of the result, and a^p on the two unit vectors where that is largest.
    Each estimate is the 1-norm of a^p on a vector of unit 1-norm, so it is
    never above ||a^p||_1 but for rounding.  3 p products of a with (N, <= 2)
    blocks, and no random state: the estimate depends on a and p alone."""
    n = len(a)
    x = np.full((n, 2), 1.0 / n)
    x[1::2, 1] = -1.0 / n
    y = _times(a, p, x)
    z = _times(a.T, p, np.sign(y))
    rows = np.argsort(-np.abs(z).max(axis=1), kind="stable")[:2]
    e = np.zeros((n, len(rows)))
    e[rows, np.arange(len(rows))] = 1.0
    return float(max(np.abs(y).sum(axis=0).max(),
                     np.abs(_times(a, p, e)).sum(axis=0).max()))


def _times(a, p: int, x) -> np.ndarray:
    """a^p x by p products a @ x."""
    for _ in range(p):
        x = a @ x
    return x


def _power_degree(a, h: float, norm1: float) -> tuple[int, int]:
    """(m, s) of `expm_action` for exp(a h), ||a h||_1 = norm1: the fewest
    m s products over `taylor_degree(norm1)` and the degrees that the power
    norms d_p = ||(a h)^p||_1^(1/p) allow (Al-Mohy & Higham 2011, Section 3):
    for m + 1 >= p (p - 1), s = ceil(alpha_p / theta_m) sub-steps with
    alpha_p = max(d_p, d_(p+1)) <= d_1 reach the same roundoff, here for
    p = 2 and 3.  The 1-norm's degree is kept without an estimate where it
    takes one sub-step; otherwise d_2 and d_3 are estimated (`_power_norm1`,
    15 products with blocks of two vectors) and d_4 is bounded by them, as
    ||A^4||_1 <= min(||A^2||_1^2, ||A||_1 ||A^3||_1)."""
    degree = taylor_degree(norm1)
    if degree[1] == 1:
        return degree
    d2, d3 = (h * _power_norm1(a, p) ** (1 / p) for p in (2, 3))
    alphas = ((2, max(d2, d3)), (3, max(d3, min(d2, (norm1 * d3 ** 3) ** 0.25))))
    return min([degree] + [(m, max(1, math.ceil(alpha / theta)))
                           for p, alpha in alphas for m, theta in _TAYLOR_THETA.items()
                           if p * (p - 1) <= m + 1],
               key=lambda d: (d[0] * d[1], d[0]))


def expm_action(a, y, t: float, degree: tuple[int, int]) -> np.ndarray:
    """exp(a t) y without forming exp(a t) (Al-Mohy & Higham 2011).

    With (m, s) = degree, y is advanced s times by t / s, each time by the
    Taylor series of degree m, one product a @ term per term.  `taylor_degree`
    sizes (m, s) by ||a t||_1, and `_power_degree`, which `expm_step`
    reads, by the power norms alpha_p of a t where they are sharper; their
    estimate is skipped where ||a t||_1 already gives one sub-step, or where
    one `expm` wins even at |tr(a t)| / N, below every alpha_p.  A
    sub-step stops early once two consecutive terms together fall below
    2^-53 times the partial sum, in 2-norms by one `np.vdot` per vector: a
    single BLAS call, where the two max-abs norms of a term took three numpy
    calls each, about 11 us against 15 us for the complex product at
    N = 256.  The cost is at most m s products of a with a vector: no N x N
    temporary is made.
    """
    m, s = degree
    dt = t / s
    for _ in range(s):
        term, before = y, _norm2(y)
        for j in range(1, m + 1):
            term = (dt / j) * (a @ term)
            now = _norm2(term)
            y = y + term
            if before + now <= _UNIT_ROUNDOFF * _norm2(y):
                break
            before = now
    return y


def _norm2(y) -> float:
    return math.sqrt(np.vdot(y, y).real)


def partial_trace(rho, dims: TensorDims, keep: str = "sys") -> np.ndarray:
    """Trace out one tensor factor of a system (x) probe operator, or of each
    operator in a (..., n, n) stack."""
    m = as_matrix(rho, stack=True)
    if m.shape[-1] != dims.total:
        raise ValueError(f"operator dim {m.shape[-1]} does not match "
                         f"{dims.dim_sys}x{dims.dim_pr} split")
    if keep not in ("sys", "pr"):
        raise ValueError(f"keep must be 'sys' or 'pr', got {keep!r}")
    r = m.reshape(m.shape[:-2] + (dims.dim_sys, dims.dim_pr, dims.dim_sys, dims.dim_pr))
    if keep == "sys":
        return np.einsum("...ipjp->...ij", r)
    return np.einsum("...ipiq->...pq", r)


# Rows x inner x columns of one GEMM call in factor_powers (`_rows_times`).
# OpenBLAS 0.3 hands a complex GEMM to more threads from about 65536 on; the
# idle worker then spins for a while and takes CPU from the Python code
# that follows.  On a 2-CPU machine with two BLAS threads, unchunked, the
# exact oracle of a 101-sample run at d = 16 took 15 ms instead of 3 ms.
# Chunks of this size stay single-threaded.
_GEMM_BUDGET = 32768


def psd_factor(r0) -> np.ndarray:
    """(m, r) factor F with F F+ = r0 for a Hermitian positive semidefinite
    m x m matrix r0, from one `eigh`: F = v sqrt(w) over the eigenpairs whose
    eigenvalue is above rounding, m eps times the largest, so that a pure r0
    gives r = 1.  The eigenvalues left out, negative ones among them, are
    clipped: F F+ is positive semidefinite by construction and differs from
    r0 by at most the largest of them in operator norm (a density matrix
    accepted at 1e-10 with a -1e-12 eigenvalue moves by 1e-12)."""
    w, v = np.linalg.eigh(as_matrix(r0))
    keep = w > len(w) * np.finfo(float).eps * w[-1]
    return v[:, keep] * np.sqrt(w[keep])


def _rows_times(x, a, out) -> np.ndarray:
    """x @ a for an (R, k) matrix x, written into the (R, k) array `out` and
    returned, in row chunks whose products stay under `_GEMM_BUDGET`.  Each
    row comes out bit for bit as in any other chunk: numpy hands a single
    row to GEMV, which rounds otherwise, so a one-row chunk goes as two."""
    step = max(2, _GEMM_BUDGET // a.size)
    for i in range(0, len(x), step):
        c = x[i:i + step]
        if len(c) == 1:
            out[i] = (c[[0, 0]] @ a)[0]
        else:
            np.matmul(c, a, out=out[i:i + step])
    return out


def factor_powers(m, f, ns) -> np.ndarray:
    """(len(ns), k, r) stack of m^n f for a k x k matrix m, a (k, r) factor f
    and the non-negative, non-decreasing integers ns.

    With Q_b = m^(2^b) by squaring, the bits of n are applied low to high,
    g <- Q_b g for each set bit b, so the power at n is Q_b times the power
    at n - 2^b for the highest set bit b of n.  Rows carry the transposed
    powers, g^T <- g^T Q_b^T, so that a whole stack is one row-major matrix.
    When ns are 0, 1, ..., n, a table fills from f a level at a time: the
    powers 2^b .. 2^(b+1) - 1 come from the powers 0 .. 2^b - 1 in one
    contiguous GEMM written into the table.  Any other ns walk the bits
    over the samples, the samples with bit b set multiplied by Q_b^T in one
    GEMM.  Both form the same products row by row (`_rows_times`), so each
    power depends on (m, f, n) alone, bit for bit, and the stack costs
    O(log max(ns)) GEMMs.
    """
    ns = np.asarray(ns, dtype=np.int64)
    f = np.asarray(f, dtype=complex)
    k, r = f.shape
    if np.any(ns < 0) or np.any(ns[1:] < ns[:-1]):
        raise ValueError("powers must be non-negative and non-decreasing")
    q = [as_matrix(m)]
    while len(q) < int(ns.max(initial=0)).bit_length():
        q.append(q[-1] @ q[-1])
    q_t = [x.T for x in q]
    if ns.size and np.array_equal(ns, np.arange(len(ns))):
        table = np.empty((len(ns), r, k), dtype=complex)
        table[0] = f.T
        rows = table.reshape(-1, k)
        for b, a in enumerate(q_t):
            lo = 2 ** b
            c = min(lo, len(ns) - lo) * r
            _rows_times(rows[:c], a, out=rows[lo * r:lo * r + c])
        return table.swapaxes(1, 2)
    s = np.repeat(f.T[None], len(ns), axis=0)
    for b, a in enumerate(q_t):
        hit = np.flatnonzero(ns >> b & 1)
        x = s[hit].reshape(-1, k)
        s[hit] = _rows_times(x, a, out=np.empty_like(x)).reshape(-1, r, k)
    return s.swapaxes(1, 2)


def sq_norms(g) -> np.ndarray:
    """Squared Frobenius norms ||g_t||_F^2 = tr g_t g_t+ of a complex
    (T, k, r) stack, by one `einsum` over the real coordinates of each g_t^T,
    which for a stack of `factor_powers` is a view of its rows."""
    x = np.swapaxes(g, 1, 2).reshape(len(g), -1).view(float)
    return np.einsum("ti,ti->t", x, x)


def step_powers(step: Callable[[np.ndarray], np.ndarray] | None, y0,
                ns) -> np.ndarray:
    """(len(ns),) + y0.shape stack, in the dtype of y0, of y after n steps
    y <- step(y) from y0, for the non-decreasing integers ns; the step of a
    run of no step, every n = 0, may be None."""
    y = np.asarray(y0)
    out, done = np.empty((len(ns), *y.shape), dtype=y.dtype), 0
    for i, n in enumerate(ns):
        for _ in range(done, n):
            y = step(y)
        out[i], done = y, n
    return out


# Fixed cost of one term of `expm_action`, in multiply-adds of a @ y, for the
# real generator of the semigroup: about 6.5 us of numpy calls per term
# (the product's call, the scaling, the sum and two norms) on a 2-vCPU Xeon
# VM with two OpenBLAS threads, where one real multiply-add of a 256 x 256
# product with a vector takes about 0.16 ns, so about 2^15.3.  Timed on
# generators of N = 8 to 256 over 1 to 1000 steps and ||a h||_1 from 0.1 to
# 100, the rule's wrong picks cost at most 1.4 ms each (N = 128, 10 steps:
# 1.1 ms by the action against 2.4 ms by one exponential).
_ACTION_CALL_COST = 2 ** 15


def _action_is_cheaper(n: int, steps: int, norm1: float,
                       degree: tuple[int, int]) -> bool:
    """The cost rule of `expm_step` for a run of `steps` steps of
    exp(a h) on a vector, a of side n and ||a h||_1 = norm1: the m s
    products of `expm_action` per step at degree = (m, s) against the
    (7 + squarings) products of n^3 of `expm` and one product per step."""
    m, s = degree
    product = n * n + _ACTION_CALL_COST
    dense = (7 + _squarings(norm1)) * n ** 3
    return steps * m * s * product < dense + steps * product


def uniform_counts(h: float, n: int) -> np.ndarray:
    """The counts 0, 1, ..., n of the grid k h that both limit propagators
    sample; ValueError unless h > 0 is finite and n >= 0 an integer, not a bool."""
    if not 0 < h < math.inf:        # NaN compares false
        raise ValueError(f"step h must be a finite positive number, got {h!r}")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"step count n must be a non-negative integer, got {n!r}")
    return np.arange(n + 1)


def expm_step(a, h: float, steps: int) -> Callable[[np.ndarray], np.ndarray] | None:
    """The step y -> exp(a h) y of a run of `steps` steps, by whichever path
    one cost rule on the side of a, `steps` and the degree of `_power_degree`
    finds cheaper: `expm_action` at that degree, which makes no N x N
    temporary, or a product with one `expm` of a h.  None for a run of no
    step, which takes neither.  Raises the ValueError of `expm` when
    ||a h||_1 cannot be scaled."""
    norm1 = h * float(np.linalg.norm(a, 1))
    n = len(a)
    _squarings(norm1)           # its error before a non-finite trace
    if not steps:
        return None
    # |tr(a h)| / n <= spectral radius <= alpha_p: no estimate where expm wins even there
    if _action_is_cheaper(n, steps, norm1, taylor_degree(h * abs(np.trace(a)) / n)):
        degree = _power_degree(a, h, norm1)
        if _action_is_cheaper(n, steps, norm1, degree):
            return lambda y: expm_action(a, y, h, degree)
    e = expm(a * h)
    return lambda y: e @ y


def trace_distance(a, b):
    """(1/2)||a - b||_1 for Hermitian a, b: a float for two matrices, an
    array for (..., n, n) stacks (broadcast against each other)."""
    d = as_matrix(a, stack=True) - as_matrix(b, stack=True)
    w = np.linalg.eigvalsh((d + dag(d)) / 2)
    out = 0.5 * np.einsum("...i->...", np.abs(w))
    return float(out) if out.ndim == 0 else out
