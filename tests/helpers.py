"""Seeded random generators, the full-space references, the bundled-scenario
loader and the acceptance drivers shared across the test modules."""

import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from ode import block_rhs
from stroblim import (HamiltonianSpec, InitialState, MeasurementSpec,
                      Trajectory, VanishingProbabilityError, bloch_vector,
                      build_generator, effective_rankr, kron, pauli,
                      propagate_kraus, semigroup_propagate,
                      swap_nonselective_closed_form)
import stroblim.linalg
from stroblim.cli import load_scenario
from stroblim.exact import steps_in
from stroblim.experiments import compare_case
from stroblim.linalg import (_GEMM_BUDGET, DEFAULT_TOL, PROB_FLOOR, _power_degree,
                             as_matrix, dag, expm, expm_action, is_hermitian,
                             max_abs, partial_trace, step_powers)
from stroblim.model import BlockLayout
from stroblim.nonselective_limit import packed_generator


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, dim, norm=None):
    m = random_complex(rng, (dim, dim))
    h = (m + m.conj().T) / 2
    if norm is not None:
        h = h / np.linalg.norm(h, 2) * norm
    return h


def random_unitary(rng, dim):
    q, r = np.linalg.qr(random_complex(rng, (dim, dim)))
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_density(rng, dim, rank=None):
    m = random_complex(rng, (dim, dim if rank is None else rank))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_ket(rng, dim):
    v = random_complex(rng, dim)
    return v / np.linalg.norm(v)


def hermitian_eig(a, tol=DEFAULT_TOL):
    """Eigendecomposition a = V diag(w) V+ with w ascending; a must be Hermitian."""
    m = as_matrix(a)
    if not is_hermitian(m, tol):
        raise ValueError("hermitian_eig: input is not Hermitian within tolerance")
    return np.linalg.eigh(m)


def is_unitary(a, tol=DEFAULT_TOL):
    m = as_matrix(a)
    return max_abs(dag(m) @ m - np.eye(m.shape[0])) <= tol


def outputs_at_one_and_two_threads(code):
    """What `code` prints in a fresh interpreter on this checkout's package,
    at OPENBLAS_NUM_THREADS=1 and at 2."""
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def counting_expm(monkeypatch):
    """Patch stroblim.linalg.expm, and each stroblim module's import of it,
    with a wrapper; return its list of arguments."""
    calls = []
    real = stroblim.linalg.expm

    def wrapper(a):
        calls.append(a)
        return real(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stroblim" and getattr(module, "expm", None) is real:
            monkeypatch.setattr(module, "expm", wrapper)
    return calls


def random_hamiltonian_spec(rng, dim_sys, dim_pr, n_terms=2, gamma=2.0, norm=1.0):
    """Random interaction with Hermitian factors of operator norm `norm`
    (HamiltonianSpec's warning about norms above 1 is silenced)."""
    terms = []
    for _ in range(n_terms):
        a = random_hermitian(rng, dim_sys, norm=norm)
        b = random_hermitian(rng, dim_pr, norm=norm)
        terms.append((a, b))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Hamiltonian term", UserWarning)
        return HamiltonianSpec(gamma, tuple(terms))


def random_projector_family(rng, dim, n_blocks=None):
    """Complete orthogonal projector family from a random unitary's columns."""
    u = random_unitary(rng, dim)
    if n_blocks is None:
        n_blocks = int(rng.integers(2, dim + 1))
    cuts = sorted(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False))
    bounds = [0, *cuts, dim]
    groups = [[u[:, k] for k in range(bounds[i], bounds[i + 1])]
              for i in range(n_blocks)]
    return groups


def family_spec(groups, selected_index=None):
    return MeasurementSpec(tuple(np.column_stack(g) for g in groups), selected_index)


def is_projector(a, tol=DEFAULT_TOL):
    """X is Hermitian and idempotent within tol."""
    m = as_matrix(a)
    return is_hermitian(m, tol) and max_abs(m @ m - m) <= tol


def projector_from_kets(kets):
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


# ---------------------------------------------------------------------------
# Full-space reference for the non-selective generator.  Superoperators are
# d^2 x d^2 matrices in column-stacking vectorization,
# vec(A X B) = (B^T (x) A) vec(X); they serve as the oracle at small d.


def vec(m):
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v):
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = math.isqrt(v.size)
    assert d * d == v.size
    return v.reshape(d, d, order="F")


def sandwich_superop(a, b):
    """Superoperator of rho -> a rho b."""
    return np.kron(np.asarray(b).T, np.asarray(a))


def channel_superop(c_ops):
    """Superoperator of the measurement channel rho -> sum_i C_i rho C_i."""
    return sum(sandwich_superop(c, c) for c in c_ops)


def liouville_commutator(h):
    """Superoperator of rho -> -i [h, rho]."""
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (sandwich_superop(h, eye) - sandwich_superop(eye, h))


def choi_matrix(superop):
    """Choi matrix of a superoperator: sum_kl E_kl (x) S[E_kl]."""
    d = math.isqrt(superop.shape[0])
    choi = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            e_kl = np.zeros((d, d), dtype=complex)
            e_kl[k, l] = 1.0
            choi[k * d:(k + 1) * d, l * d:(l + 1) * d] = unvec(superop @ vec(e_kl))
    return choi


@dataclass(frozen=True)
class FullSpaceReference:
    """The semigroup generator built on the full space from the model.

    h is the dimensionless Hamiltonian, c_ops the full-space projectors
    C_i = I (x) P_i; `lindblad` is the Lindblad form with Hamiltonian part
    gamma sum_i h_ii and jump operators sqrt(Omega) h_ji (i != j), and
    `sandwich()` the channel-sandwich construction
    gamma (Lam L Lam) + (Omega/2) (Lam L L Lam - Lam L Lam L Lam).
    """

    h: np.ndarray
    c_ops: tuple
    gamma: float
    omega: float
    lindblad: np.ndarray

    def transition(self, i, j):
        return self.c_ops[i] @ self.h @ self.c_ops[j]

    def channel(self, rho):
        return sum(c @ rho @ c for c in self.c_ops)

    def apply(self, rho):
        return unvec(self.lindblad @ vec(rho))

    def evolve(self, rho, t):
        return unvec(expm(self.lindblad * t) @ vec(rho))

    def sandwich(self):
        lam = channel_superop(self.c_ops)
        lcomm = liouville_commutator(self.h)
        lam_l_lam = lam @ lcomm @ lam
        return (self.gamma * lam_l_lam
                + 0.5 * self.omega * (lam @ lcomm @ lcomm @ lam
                                      - lam_l_lam @ lcomm @ lam))


def full_space_reference(ham, spec, tau):
    h = ham.dimensionless()
    eye_sys = np.eye(ham.dim_sys, dtype=complex)
    c_ops = tuple(kron(eye_sys, p) for p in spec.projectors)
    gamma = ham.gamma
    omega = gamma ** 2 * tau
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    gen = gamma * sum(liouville_commutator(c @ h @ c) for c in c_ops)
    for i, ci in enumerate(c_ops):
        for j, cj in enumerate(c_ops):
            if i != j:
                jump = cj @ h @ ci
                jj = dag(jump) @ jump
                gen = gen - 0.5 * omega * (sandwich_superop(jj, eye)
                                           + sandwich_superop(eye, jj)
                                           - 2.0 * sandwich_superop(jump, dag(jump)))
    return FullSpaceReference(h, c_ops, gamma, omega, gen)


def assembled_generator(ham, spec, tau):
    """The real N x N semigroup generator written in place block by block, as
    it was before `BlockLayout.packed_map`: off the diagonal from one complex
    outer product of the rank-sized slices, on it as four real delta terms
    into a zero block."""
    omega = ham.gamma * ham.gamma * tau
    layout = BlockLayout(ham.dim_sys, spec.bases)
    eff = ham.effective(layout, tau)
    trans, heff = eff.trans, eff.heff
    n = layout.sizes
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
    return gen


def block_apply(eff, rho):
    """The generator of `eff` acting on a block-diagonal full-space state:
    compress to the block stack, apply `block_rhs`, lift back."""
    v = eff.layout.bases
    return (v @ block_rhs(eff, dag(v) @ rho @ v) @ dag(v)).sum(axis=-3)


def block_evolve(eff, rho, t):
    """exp(generator t) acting on a block-diagonal full-space state, through
    the real coordinates of its blocks."""
    v = eff.layout.bases
    packed = expm(packed_generator(eff) * t) @ eff.layout.pack(dag(v) @ rho @ v)
    return (v @ eff.layout.unpack(packed) @ dag(v)).sum(axis=-3)


def expm_paths(a, h, y0, counts):
    """The two runs that `linalg.expm_step` chooses between, each stepped
    explicitly through `step_powers`: `expm_action` at the degree that
    `_power_degree` picks, and products with one `expm(a h)`."""
    degree = _power_degree(a, h, h * float(np.linalg.norm(a, 1)))
    e = expm(a * h)
    return (step_powers(lambda y: expm_action(a, y, h, degree), y0, counts),
            step_powers(lambda y: e @ y, y0, counts))


# ---------------------------------------------------------------------------
# Full-space reference for the exact runners: the literal interrupted
# evolution, one d x d unitary step and one measurement per period.


def eigh_unitary(h, t):
    """exp(-i h t) for a Hermitian h from one `numpy.linalg.eigh`, of which
    only the lower triangle is read: the reference for `expm`'s products."""
    w, v = np.linalg.eigh(t * as_matrix(h))
    return (v * np.exp(-1j * w)) @ dag(v)


def unitary_step(rho, h, t):
    """Conjugate rho by `eigh_unitary(h, t)`.  Works for unnormalized states
    too."""
    rho = as_matrix(rho)
    h = as_matrix(h)
    if rho.shape != h.shape:
        raise ValueError("state and Hamiltonian dimensions differ")
    u = eigh_unitary(h, t)
    return u @ rho @ dag(u)


def apply_instrument(rho, c, tol=DEFAULT_TOL):
    """Single-Kraus projective instrument rho -> C rho C (trace-decreasing)."""
    rho = as_matrix(rho)
    c = as_matrix(c)
    if not is_projector(c, tol):
        raise ValueError("instrument Kraus operator must be a projector")
    return c @ rho @ c


def nonselective_channel(rho, spec):
    """Measurement channel sum_i C_i rho C_i for a complete probe family.

    rho may live on the probe alone or on any system (x) probe space whose
    probe factor matches the projector dimension.
    """
    rho = as_matrix(rho)
    projs = spec.projectors
    if max_abs(sum(projs) - np.eye(spec.dim_pr)) > DEFAULT_TOL:
        raise ValueError("non-selective channel requires a complete projector family")
    if rho.shape[0] % spec.dim_pr != 0:
        raise ValueError("state dimension is not a multiple of the probe dimension")
    eye_sys = np.eye(rho.shape[0] // spec.dim_pr, dtype=complex)
    out = np.zeros_like(rho)
    for p in projs:
        c = kron(eye_sys, p)
        out += c @ rho @ c
    return out


def _reference_loop(plan, rho, measure, every):
    """Record rho at t = 0, then per period U rho U+ and measure(k, rho),
    keeping every `every`-th state."""
    u = expm(-1j * plan.tau * plan.hamiltonian.assemble())
    times, states, norms = [], [], []

    def record(t, r):
        norm = float(np.trace(r).real)
        times.append(t)
        states.append(r / norm)
        norms.append(norm)

    record(0.0, rho)
    for k in range(plan.n_steps):
        rho = measure(k, u @ rho @ dag(u))
        if (k + 1) % every == 0:
            record((k + 1) * plan.tau, rho)
    states = np.array(states)
    return Trajectory(np.array(times), partial_trace(states, plan.hamiltonian.dims),
                      np.array(norms), lambda: states)


def conj_stack(a, s, b):
    """(T, p, q) stack of a @ s[t] @ b for a (T, n, m) stack s, with a of
    shape (p, n) and b of shape (m, q).

    Two plain 2-D GEMMs per chunk of the stack, with the stack along the
    rows: s as a (T n, m) matrix times b, then the transposed products
    (s[t] b)^T as a (T q, n) matrix times a^T.  T enters only the row count
    of each GEMM, so for p, q > 1 each slice comes out bit for bit as when
    it is conjugated alone.  An empty stack gives an empty result.
    """
    s = np.asarray(s)
    t, n, m = s.shape
    p, q = a.shape[0], b.shape[1]
    out = np.empty((t, p, q), dtype=np.result_type(a, s, b))
    step = max(1, _GEMM_BUDGET // (n * q * max(m, p)))
    for i in range(0, t, step):
        c = min(step, t - i)
        x = (s[i:i + c].reshape(c * n, m) @ b).reshape(c, n, q).swapaxes(1, 2)
        out[i:i + c] = (x.reshape(c * q, n) @ a.T).reshape(c, q, p).swapaxes(1, 2)
    return out


def lift(layout, blocks):
    """The (T, d, d) joint states sum_i V_i b_i V_i+ of a (T, k, m, m)
    Hermitian block stack on `layout`, such as a run's `Trajectory.states`,
    a (T, m, m) stack counting as one block: each block b as y + y+ by one
    `conj_stack`, y = V t V+ for t the lower triangle of b with half its
    diagonal, so the states are Hermitian bit for bit and each one is the
    same whatever stack it is lifted in."""
    b = np.asarray(blocks)
    lower = np.tril(b[:, None] if b.ndim == 3 else b)
    diag = np.arange(lower.shape[-1])
    lower[..., diag, diag] /= 2
    half = sum(conj_stack(v, lower[:, i], dag(v))
               for i, v in enumerate(layout.bases))
    return half + dag(half)


def run_layout(plan):
    """The `BlockLayout` that the exact runs of `plan` carry their blocks on."""
    spec, dim_sys = plan.measurement, plan.hamiltonian.dim_sys
    return spec.selected_layout(dim_sys) if spec.selective else spec.full_layout(dim_sys)


def assert_same_run(got, want, plan, tol=1e-12):
    """Same times; norms, system states and states within tol (norms
    relative), the blocks of got lifted on the layout of `plan`."""
    assert np.array_equal(got.times, want.times)
    assert max_abs((got.norms - want.norms) / want.norms) < tol
    assert max_abs(got.sys_states - want.sys_states) < tol
    states = lift(run_layout(plan), got.states)
    assert states.shape == want.states.shape
    assert max_abs(states - want.states) < tol


def reference_selective(plan, init, every=1, outcomes=None):
    """Post-selected branch by the full-space loop: C_i after period k + 1
    for i = outcomes[k], by default the selected outcome s every period, the
    probability floor checked at every period."""
    meas = plan.measurement
    seq = (meas.selected_index,) * plan.n_steps if outcomes is None else outcomes
    if len(seq) != plan.n_steps:
        raise ValueError(f"{len(seq)} outcomes for {plan.n_steps} periods")
    eye_sys = np.eye(plan.hamiltonian.dim_sys, dtype=complex)
    c_ops = [kron(eye_sys, p) for p in meas.projectors]

    def measure(k, rho):
        rho = apply_instrument(rho, c_ops[seq[k]])
        norm = float(np.trace(rho).real)
        if norm < PROB_FLOOR:
            raise VanishingProbabilityError(
                f"branch probability vanished at T = {(k + 1) * plan.tau:g} "
                f"(step {k + 1}, p = {norm:.3e} < {PROB_FLOOR:.1e})")
        return rho

    return _reference_loop(plan, init.joint(), measure, every)


def reference_nonselective(plan, init, every=1):
    """Non-selective run by the full-space loop, the channel applied at t = 0
    and after every period."""
    meas = plan.measurement
    return _reference_loop(plan, nonselective_channel(init.joint(), meas),
                           lambda k, rho: nonselective_channel(rho, meas), every)


# ---------------------------------------------------------------------------
# Bundled scenarios, read from their JSON files, and the acceptance drivers.


def bundled_path(name):
    return str(resources.files("stroblim") / "scenarios" / f"{name}.json")


def load_bundled(name, alpha_sq=None, t_max=None, **changes):
    """A bundled scenario read through the CLI's loader.

    alpha_sq replaces the system state by sqrt(a)|u> + sqrt(1 - a)|d>; t_max
    shortens the run, keeping one grid point per tau unless grid_points is
    given; other keywords go to dataclasses.replace.
    """
    sc = load_scenario(bundled_path(name))
    if alpha_sq is not None:
        psi = np.array([np.sqrt(alpha_sq), np.sqrt(1.0 - alpha_sq)], dtype=complex)
        changes["initial"] = InitialState(np.outer(psi, psi.conj()),
                                          sc.initial.rho_pr)
    if t_max is not None:
        changes = {"t_max": t_max, "grid_points": steps_in(t_max, sc.tau),
                   **changes}
    return replace(sc, **changes)


def run_alpha_family(name, alpha_sqs):
    """Exact vs limit (and closed form, where it applies) for one bundled
    qubit-pair setup over a family of initial superpositions: the
    `compare_case` of each, keyed by its alpha^2."""
    return {a: compare_case(load_bundled(name, alpha_sq=a)) for a in alpha_sqs}


def zeno_limit(sc):
    """The Zeno-subspace dynamics on sc's limit run: its effective generator
    with H2 zeroed and no jump terms (Omega = gamma^2 tau = 0 in the packed
    generator), so each block evolves under H1 alone, through the limit's
    own propagators on its grid."""
    ham, meas = sc.hamiltonian, sc.measurement
    if sc.selective:
        eff, propagate = effective_rankr(ham, meas, sc.tau), propagate_kraus
    else:
        eff, propagate = build_generator(ham, meas, sc.tau), semigroup_propagate
    zeno = replace(eff, h2=np.zeros_like(eff.h2), tau=0.0)
    return propagate(zeno, sc.initial, sc.step, sc.grid_points)


def bloch_to_density(r):
    """Inverse of bloch_vector: rho = (I + sum_k r_k sigma_k) / 2."""
    return (np.eye(2) + sum(rk * pauli(k + 1) for k, rk in enumerate(r))) / 2.0


def bloch_ball_images(omega, snapshot_times, gamma=1.0, n_polar=7, n_azimuth=16):
    """Images of a Bloch-sphere point grid under the non-selective closed form
    at each snapshot time; keys are times, values (N, 3) Bloch vectors."""
    points = []
    for k in range(1, n_polar + 1):
        theta = np.pi * k / (n_polar + 1)
        for m in range(n_azimuth):
            phi = 2.0 * np.pi * m / n_azimuth
            points.append((np.sin(theta) * np.cos(phi),
                           np.sin(theta) * np.sin(phi), np.cos(theta)))
    points += [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    return {float(t): np.array([bloch_vector(swap_nonselective_closed_form(
                gamma, omega, bloch_to_density(r), t)) for r in points])
            for t in snapshot_times}
