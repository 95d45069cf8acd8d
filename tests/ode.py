"""The stroboscopic limits in differential form, the independent references
for the closed forms that the package propagates.

The selective branch is the nonlinear density equation (or, for pure
states, the state-vector equation) of H1 - i H2; `propagate_kraus` takes it
in closed form by the Kraus exponential.  The non-selective semigroup is the
linear block equation dr/dT = L r on the real coordinates of the blocks
(`nonselective_limit.packed_generator`; `block_rhs` on the blocks), or
for a rank-1 family the classical rate equation on the populations;
`semigroup_propagate` takes it by exp(L T).
`rk4_sample` integrates any of them by fixed-step classical RK4 on the
uniform grid k h, k = 0, ..., n, that the propagators sample, with their
argument rule (`stroblim.linalg.uniform_counts`).  The right-hand sides
trust their arguments: a state of the generator's dimension, in a complex
dtype where the derivative is complex.
"""

import numpy as np

from stroblim.linalg import step_powers, uniform_counts
from stroblim.nonselective_limit import packed_generator


def rk4_step(rhs, y, dt, m=1):
    """m classical 4th-order Runge-Kutta steps of size dt of dy/dt = rhs(y)."""
    for _ in range(m):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def rk4_sample(rhs, y0, h, n, n_steps=2000):
    """Fixed-step RK4 solution of dy/dt = rhs(y) from y0 at t = 0, one value
    at each time k h, k = 0, ..., n, stepped through `step_powers`.  About
    n_steps steps cover [0, n h]: each grid step h is cut into
    max(1, round(n_steps / n)) equal RK4 steps."""
    counts = uniform_counts(h, n)
    m = max(1, round(n_steps / max(n, 1)))
    return step_powers(lambda x: rk4_step(rhs, x, h / m, m), y0, counts)


def nonlinear_density_rhs(eff, rho):
    """Norm-preserving density equation of the selective branch,
    d rho / dT = -i [H1, rho] - {H2, rho} + 2 tr(H2 rho) rho."""
    h1, h2 = eff.h1[0], eff.h2[0]
    return (-1j * (h1 @ rho - rho @ h1) - (h2 @ rho + rho @ h2)
            + 2.0 * np.trace(h2 @ rho).real * rho)


def nonlinear_state_rhs(eff, psi):
    """State-vector form for pure states,
    d psi / dT = -i H1 psi - H2 psi + <psi|H2|psi> psi."""
    h2_psi = eff.h2[0] @ psi
    return -1j * (eff.h1[0] @ psi) - h2_psi + np.vdot(psi, h2_psi).real * psi


def purity_derivative(eff, rho):
    """d tr[rho^2] / dT along the density equation:
    4 (tr[rho^2] tr[H2 rho] - tr[H2 rho^2])."""
    rho2 = rho @ rho
    h2 = eff.h2[0]
    return 4.0 * float((np.trace(rho2) * np.trace(h2 @ rho) - np.trace(h2 @ rho2)).real)


def block_rhs(eff, blocks):
    """Coupled block equations on a Hermitian (k, m, m) block stack, by the
    generator on its real coordinates: each block evolves under its
    effective non-Hermitian Hamiltonian while feeding the others through
    the transition operators.  Total trace is conserved."""
    return eff.layout.unpack(packed_generator(eff) @ eff.layout.pack(blocks))


def pauli_rates(eff):
    """Transition-rate matrix of a rank-1 family's semigroup: W[i, j] is the
    rate j -> i, Omega |<i|h|j>|^2, with zero diagonal."""
    if eff.layout.bases.shape[2] != 1:
        raise ValueError("Pauli reduction requires rank-1 family")
    w = eff.omega * np.abs(eff.trans[:, :, 0, 0]) ** 2
    np.fill_diagonal(w, 0.0)
    return w


def pauli_rhs(w, p):
    """Gain/loss master equation dp_i = sum_{j!=i} (W[i,j] p_j - W[j,i] p_i)."""
    return w @ p - w.sum(axis=0) * p
