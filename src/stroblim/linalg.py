"""Dense linear-algebra kernel shared by all dynamics modules.

Operators are plain complex numpy arrays, a few dimensions for the bundled
scenarios, and the N x N non-selective generator is a real one, acting on
the real coordinates of packed Hermitian blocks (N = sum_i n_i^2 <= d^2;
256 x 256 for four rank-2 probe blocks at d = 32).  The exponential and its
action keep a real input real, so the semigroup runs in real arithmetic.
Storage is dense and every routine is deterministic: a scaling-and-squaring
Pade exponential with an eigendecomposition fast path for (anti-)Hermitian
generators, the action exp(a t) y of the exponential on a vector by a
truncated Taylor series with sub-steps (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 2011), binary powers m^n r0 m^n+ for a whole stack of n at
once, and one grid sampler `sample_runs` through which both limit
propagators take their samples.  The grid sampler cuts the samples into
runs of equal steps h and hands each run to an advance: `kraus_run` takes
one exp(a h) per run and its binary powers, and `expm_vec_run` steps a
vector by the action or by that exponential, whichever a cost rule finds
cheaper.  All functions are pure; nothing mutates its inputs, and
`conj_stack` writes only into an `out` array it is given.

Work proportional to the number of samples runs as whole-stack numpy calls.
`conj_stack` forms a @ s[t] @ b for a (T, n, m) stack as plain 2-D GEMMs
with the stack along the rows, where a broadcast `a @ s @ b` would make one
small BLAS call per matrix; each slice comes out bit for bit as it does when
it is conjugated alone.  `conj_powers` fills a dense range of powers, every
n from 0 or 1 to n_max as an every-period run asks, as one table a level at
a time: the states whose lowest set bit is b come from the states 2^b below
them in one strided `conj_stack` written into the table (at n_max = 16000
and k = 2, 1.1 ms against 3.9 ms for the prefix walk that other sets of n
take).  `sample_runs` finds its runs of equal gaps with array passes over
the grid: a few Python iterations per run, not one per sample.

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


def is_projector(a, tol: float = DEFAULT_TOL) -> bool:
    """X is Hermitian and idempotent within tol."""
    m = as_matrix(a)
    return is_hermitian(m, tol) and max_abs(m @ m - m) <= tol


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


# Degree-13 diagonal Pade coefficients for the exponential.
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


def _pade_squarings(norm1: float) -> int:
    """Squarings that bring a 1-norm under the degree-13 Pade bound;
    ValueError when more than 60 would be needed (or the norm is not finite)."""
    if not norm1 <= _PADE13_THETA * 2.0 ** 60:
        raise ValueError("matrix exponential did not converge: ill-scaled input "
                         f"(1-norm {norm1:.3e})")
    if norm1 <= _PADE13_THETA:
        return 0
    return int(math.ceil(math.log2(norm1 / _PADE13_THETA)))


def _expm_pade(m: np.ndarray) -> np.ndarray:
    s = _pade_squarings(float(np.linalg.norm(m, 1)))
    m = m / (2.0 ** s) if s else m
    b = _PADE13_B
    eye = np.eye(m.shape[0], dtype=m.dtype)
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m2 @ m4
    u = m @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
             + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * eye)
    v = (m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
         + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * eye)
    out = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        out = out @ out
    return out


def expm(a) -> np.ndarray:
    """Matrix exponential.

    (Anti-)Hermitian inputs go through an exact eigendecomposition; everything
    else uses degree-13 Pade with scaling and squaring.  A real input gives a
    real result on every branch: Pade and the symmetric eigendecomposition
    stay in real arithmetic, and the antisymmetric branch, whose eigenvectors
    are complex, drops the rounding-level imaginary part of its orthogonal
    result.  The (anti-)Hermitian tests are relative to the largest entry,
    so a small generator is not rounded to its (anti-)Hermitian part.
    Raises ValueError on non-finite input or when scaling cannot tame the
    norm.
    """
    real = np.isrealobj(a)
    m = as_matrix(a, dtype=float if real else complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix exponential requires finite entries")
    scale = max_abs(m)
    if max_abs(m - dag(m)) <= 1e-12 * scale:
        w, v = np.linalg.eigh((m + dag(m)) / 2)
        return (v * np.exp(w)) @ dag(v)
    if max_abs(m + dag(m)) <= 1e-12 * scale:
        # m = -i h with h Hermitian, so expm(m) = V e^{-i w} V+
        w, v = np.linalg.eigh(1j * m)
        e = (v * np.exp(-1j * w)) @ dag(v)
        return e.real if real else e
    return _expm_pade(m)


# theta_m of the degree-m truncated Taylor series at unit roundoff 2^-53: the
# largest 1-norm of a t for which m terms give exp(a t) y to that roundoff.
# m <= 30 from Higham, "Functions of Matrices" (2008), Table A.3; the rest
# from Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011), Table 3.1.
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0 ** -53


def taylor_degree(norm1: float) -> tuple[int, int]:
    """Degree m and sub-step count s of `expm_action` for ||a t||_1 = norm1:
    s = ceil(norm1 / theta_m), with m minimising the m s products.  The same
    ValueError as the Pade exponential when its scaling could not tame
    norm1."""
    _pade_squarings(norm1)
    if norm1 == 0:
        return 0, 1
    _, m, s = min((m * math.ceil(norm1 / theta), m, math.ceil(norm1 / theta))
                  for m, theta in _TAYLOR_THETA.items())
    return m, s


def expm_action(a, y, t: float, degree: tuple[int, int]) -> np.ndarray:
    """exp(a t) y without forming exp(a t) (Al-Mohy & Higham 2011).

    With (m, s) = degree from `taylor_degree`, y is advanced s times by
    t / s, each time by the Taylor series of degree m, one product a @ term
    per term.  A sub-step stops early once two consecutive terms together
    fall below 2^-53 times the partial sum, in 2-norms by one `np.vdot`
    per vector: a single BLAS call, where the two max-abs norms of a term
    took three numpy calls each, about 11 us against 15 us for the complex
    product at N = 256.  The cost is at most m s products of a with a
    vector: no N x N temporary is made.
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
    operator in a (..., n, n) stack.

    A traced factor of dimension 1 leaves the operator unchanged, so the input
    itself is returned.
    """
    m = as_matrix(rho, stack=True)
    if m.shape[-1] != dims.total:
        raise ValueError(f"operator dim {m.shape[-1]} does not match "
                         f"{dims.dim_sys}x{dims.dim_pr} split")
    if keep not in ("sys", "pr"):
        raise ValueError(f"keep must be 'sys' or 'pr', got {keep!r}")
    if (dims.dim_pr if keep == "sys" else dims.dim_sys) == 1:
        return m
    r = m.reshape(m.shape[:-2] + (dims.dim_sys, dims.dim_pr, dims.dim_sys, dims.dim_pr))
    if keep == "sys":
        return np.einsum("...ipjp->...ij", r)
    return np.einsum("...ipiq->...pq", r)


# Rows x inner x columns of one GEMM call in conj_stack.  OpenBLAS 0.3
# hands a complex GEMM to more threads from about 65536 on; the idle worker
# then spins for a while and takes CPU from the Python code that follows.
# On a 2-CPU machine with two BLAS threads, unchunked, the exact oracle of
# a 101-sample run at d = 16 took 15 ms instead of 3 ms.  Chunks of this
# size stay single-threaded.
_GEMM_BUDGET = 32768


def conj_stack(a, s, b, out=None) -> np.ndarray:
    """(T, p, q) stack of a @ s[t] @ b for a (T, n, m) stack s, with a of
    shape (p, n) and b of shape (m, q), written into `out` when given (a
    (T, p, q) array or view, disjoint from s) and returned.

    Two plain 2-D GEMMs per chunk of the stack, with the stack along the
    rows: s as a (T n, m) matrix times b, then the transposed products
    (s[t] b)^T as a (T q, n) matrix times a^T, where a broadcast a @ s @ b
    makes one small BLAS call per matrix.  T enters only the row count of
    each GEMM, so for p, q > 1 each slice comes out bit for bit as when it
    is conjugated alone.  An empty stack gives an empty result.
    """
    s = np.asarray(s)
    t, n, m = s.shape
    p, q = a.shape[0], b.shape[1]
    if out is None:
        out = np.empty((t, p, q), dtype=np.result_type(a, s, b))
    step = max(1, _GEMM_BUDGET // (n * q * max(m, p)))
    for i in range(0, t, step):
        c = min(step, t - i)
        x = (s[i:i + c].reshape(c * n, m) @ b).reshape(c, n, q).swapaxes(1, 2)
        out[i:i + c] = (x.reshape(c * q, n) @ a.T).reshape(c, q, p).swapaxes(1, 2)
    return out


def conj_powers(m, r0, ns) -> np.ndarray:
    """(len(ns), k, k) stack of m^n r0 m^n+ for the non-decreasing integers ns.

    With Q_b = m^(2^b) by squaring, the bits of n are applied high to low,
    r <- Q_b r Q_b+ for each set bit b, so the state at n is Q_b (state at
    n - 2^b) Q_b+ for the lowest set bit b of n.  A dense range, whose
    distinct ns are every integer from ns[0] <= 1 to n = ns[-1], fills one
    (n + 1, k, k) table from table[0] = r0 a level at a time, top bit first:
    at level b the states table[2^b :: 2^(b+1)] come from table[0 :: 2^(b+1)]
    in one `conj_stack` written into the table.  Any other ns advance all
    samples together: at bit b every distinct prefix n >> b is formed once
    from its parent n >> (b+1), and the odd prefixes are conjugated by Q_b
    in one `conj_stack`.  Both orders form the same products, so each state
    depends on (m, r0, n) alone, bit for bit, and the stack costs
    O(log max(ns)) pairs of GEMMs.
    """
    ns = np.asarray(ns, dtype=np.int64)
    s = as_matrix(r0)[None]
    if np.any(ns < 0) or np.any(ns[1:] < ns[:-1]):
        raise ValueError("powers must be non-negative and non-decreasing")
    if ns.size == 0:
        return s[:0]
    q = [as_matrix(m)]
    while len(q) < int(ns[-1]).bit_length():
        q.append(q[-1] @ q[-1])
    steps = np.diff(ns)
    if ns[0] <= 1 and np.all(steps <= 1):
        table = np.empty((int(ns[-1]) + 1,) + s.shape[1:], dtype=s.dtype)
        table[0] = s[0]
        for b in reversed(range(len(q))):
            dst = table[2 ** b::2 ** (b + 1)]
            conj_stack(q[b], table[:-2 ** b:2 ** (b + 1)], dag(q[b]), out=dst)
        return table[ns[0]:] if np.all(steps) else table[ns]
    for b in reversed(range(len(q))):
        p = ns >> b
        p = p[np.r_[True, p[1:] != p[:-1]]]     # distinct; np.unique loads numpy.ma
        s = s[np.r_[0, np.cumsum(p[1:] >> 1 != p[:-1] >> 1)]]      # parents' states
        odd = (p & 1).astype(bool)
        s[odd] = conj_stack(q[b], s[odd], dag(q[b]))
    return s[np.cumsum(np.r_[True, ns[1:] != ns[:-1]]) - 1]


def step_powers(step: Callable[[int, np.ndarray], np.ndarray], y0, ns,
                shape: tuple) -> np.ndarray:
    """(len(ns),) + shape stack, in the dtype of y0, of y after n steps
    y <- step(k, y), k = 0, 1, ..., for the non-decreasing integers ns."""
    out = np.empty((len(ns), *shape), dtype=np.asarray(y0).dtype)
    y, done = y0, 0
    for i, n in enumerate(ns):
        for k in range(done, n):
            y = step(k, y)
        out[i], done = y, n
    return out


def _gap_runs(times: np.ndarray):
    """Per-sample step counts, first samples and step sizes of the runs of
    `sample_runs`, for finite non-decreasing times.

    The rule is sequential, since a gap is measured from the time base + n h
    of the state so far, so it runs a window at a time: a step is guessed
    wherever the grid advances by more than the tolerance, the guesses are
    checked with the rule's own float arithmetic, and the verified prefix is
    kept.  The first sample of a run and a sample that fails its guess are
    decided alone.  The window doubles while the guesses hold, so the cost
    is linear in the samples plus a constant per run.
    """
    tol = np.where(times > 1.0, 1e-12 * times, 1e-12)
    counts = np.zeros(len(times), dtype=np.int64)
    starts, sizes = [0], [0.0]      # first sample and step size h of each run
    h = base = 0.0                  # base: time of the state when the run started
    n = i = 0
    fresh, width = True, 64         # fresh: no step of the current h checked yet
    while i < len(times):
        if not fresh:
            stop = min(i + width, len(times))
            t, tl = times[i:stop], tol[i:stop]
            guess = n + np.cumsum(np.diff(t, prepend=base + n * h) > tl)
            prev = np.concatenate(([n], guess[:-1]))
            gap = t - (base + prev * h)
            ok = np.where(gap <= tl, guess == prev,
                          (np.abs(gap - h) <= tl) & (guess == prev + 1))
            failed = np.flatnonzero(~ok)
            k = int(failed[0]) if failed.size else len(t)
            counts[i:i + k] = guess[:k]
            n = int(guess[k - 1]) if k else n
            i += k
            if i == stop:
                width *= 2
                continue
        t, tl = float(times[i]), float(tol[i])
        now = base + n * h
        gap = t - now
        fresh = False
        if gap > tl:
            if abs(gap - h) > tl:       # h = 0 before the first step
                h, base, n = gap, now, 0
                starts.append(i)
                sizes.append(h)
                fresh, width = True, 64
            n += 1
        counts[i] = n
        i += 1
    return counts, starts, sizes


def sample_runs(y0, times, advance: Callable) -> np.ndarray:
    """Stack of the values y(t) for each t in times, stepped from y0 (the
    value at t = 0) along the grid in runs of equal gaps.

    From the state y that starts a run of gaps h, advance(h, y, counts)
    returns the stack of values after counts[i] steps of size h for the
    run's samples, and the last one starts the next run.  A new run starts
    only when a gap differs from the current step h by more than
    1e-12 * max(1, t).  Gaps are measured from the time the state actually
    represents, so rounding in the grid cannot accumulate.  A gap within
    that tolerance of zero (repeated times, t = 0) adds no step; samples
    before the first step are y0.  Times must be finite, non-negative and
    non-decreasing (ValueError).
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("sample times must be non-negative")
    if not np.all(np.isfinite(times)):
        raise ValueError("sample times must be finite")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing")
    counts, starts, sizes = _gap_runs(times)
    starts.append(len(times))
    y = np.asarray(y0)
    out = [np.broadcast_to(y, (starts[1],) + y.shape)]
    for h, i, j in zip(sizes[1:], starts[1:], starts[2:]):
        out.append(advance(h, y, counts[i:j]))
        y = out[-1][-1]
    return np.concatenate(out)


# Fixed cost of one term of `expm_action`, in multiply-adds of a @ y, for the
# real generator of the semigroup: about 6.5 us of numpy calls per term
# (the product's call, the scaling, the sum and two norms) on a 2-vCPU Xeon
# VM with two OpenBLAS threads, where one real multiply-add of a 256 x 256
# product with a vector takes about 0.16 ns, so about 2^15.3.  Timed on
# generators of N = 8 to 256 over 1 to 1000 steps and ||a h||_1 from 0.1 to
# 100, the rule's wrong picks cost at most 1.4 ms each (N = 128, 10 steps:
# 1.1 ms by the action against 2.4 ms by one exponential).
_ACTION_CALL_COST = 2 ** 15


def _action_is_cheaper(n: int, steps: int, norm1: float) -> bool:
    """The cost rule of `expm_vec_run` for a run of `steps` steps of
    exp(a h) on a vector, a of side n and ||a h||_1 = norm1: the m s
    products of `expm_action` per step against Pade's (10 + squarings)
    products of n^3 and one product per step."""
    m, s = taylor_degree(norm1)
    product = n * n + _ACTION_CALL_COST
    pade = (10 + _pade_squarings(norm1)) * n ** 3
    return steps * m * s * product < pade + steps * product


def _dense_run(a, h: float, y, counts) -> np.ndarray:
    e = expm(a * h)
    return step_powers(lambda k, x: e @ x, y, counts, y.shape)


def _action_run(a, h: float, y, counts, norm1: float | None = None) -> np.ndarray:
    """`expm_action` once per step; norm1 is ||a h||_1 when the caller has it."""
    if norm1 is None:
        norm1 = h * float(np.linalg.norm(a, 1))
    degree = taylor_degree(norm1)
    return step_powers(lambda k, x: expm_action(a, x, h, degree), y, counts,
                       y.shape)


def kraus_run(a, h: float, r, counts) -> np.ndarray:
    """`sample_runs` advance for r -> exp(a h) r exp(a h)+: one exponential
    per run, its binary powers by `conj_powers`."""
    return conj_powers(expm(a * h), r, counts)


def expm_vec_run(a, h: float, y, counts) -> np.ndarray:
    """`sample_runs` advance for a vector y -> exp(a h) y: whichever path one
    cost rule on the side of a, the run's step count and ||a h||_1 finds
    cheaper, `expm_action` once per step, which makes no N x N temporary, or
    exp(a h) once by Pade and one product per step.  Raises the Pade
    exponential's ValueError when ||a h||_1 cannot be scaled."""
    norm1 = h * float(np.linalg.norm(a, 1))
    if _action_is_cheaper(len(a), int(counts[-1]), norm1):
        return _action_run(a, h, y, counts, norm1)
    return _dense_run(a, h, y, counts)


def trace_distance(a, b):
    """(1/2)||a - b||_1 for Hermitian a, b: a float for two matrices, an
    array for (..., n, n) stacks (broadcast against each other)."""
    d = as_matrix(a, stack=True) - as_matrix(b, stack=True)
    w = np.linalg.eigvalsh((d + dag(d)) / 2)
    out = 0.5 * np.einsum("...i->...", np.abs(w))
    return float(out) if out.ndim == 0 else out
