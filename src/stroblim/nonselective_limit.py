"""Semigroup dynamics induced by non-selective projective monitoring.

Frequent channel applications at interval tau (tau -> 0, Omega = gamma^2 tau
fixed) turn the interrupted evolution into a GKSL semigroup on the monitored
space, with the inter-block transition operators h_ij = C_i h C_j as jump
operators.  Channel-invariant (block-diagonal) states stay block-diagonal, so
the semigroup is carried by the blocks alone: each block b_i, compressed to
an orthonormal basis V_i of range(C_i), obeys

    d b_i = -i (Heff_i b_i - b_i Heff_i+) + Omega sum_{j != i} T_ij b_j T_ji,

with T_ij = V_i+ h V_j.  The blocks are carried in the format of
`model.BlockLayout`, the exact oracle's too, packed into N = sum_i n_i^2
<= d^2 real coordinates; the semigroup keeps them Hermitian, so it is one
real N x N matrix L on them (`packed_generator`), as the oracle's period is
one matrix Phi, both from `BlockLayout.packed_map`.  L is formed from the
`model.EffectiveGenerator` of all ranges, which `build_generator` takes
from `HamiltonianSpec.effective`, the builder of the selective branch too.
Both runs step the coordinates by one linear map in
`Trajectory.from_packed`: Phi per period, or exp(L h) per sample, by its
action or one dense exponential (`linalg.expm_step`).
At the paper's time scale T ~ (gamma^2 tau)^-1 those are long steps, whose
Taylor series is sized by the generator's power norms, not its 1-norm.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_matrix, expm_step, uniform_counts
from .model import (EffectiveGenerator, HamiltonianSpec, InitialState,
                    MeasurementSpec)
from .trajectory import Trajectory


def build_generator(ham: HamiltonianSpec, spec: MeasurementSpec,
                    tau: float) -> EffectiveGenerator:
    """The effective generator of the non-selective semigroup:
    `HamiltonianSpec.effective` on the kept `MeasurementSpec.full_layout`,
    the exact run's too.  Its diagonal blocks Heff_i = H1_i - i H2_i are
    the selective branch generators of the outcomes.  ValueError for a
    spec with a selected outcome, or from the checks of that builder; the
    GKSL form preserves trace and fixes the maximally mixed state for any
    Hermitian h and complete family, which the specs have validated.
    """
    return ham.effective(spec.full_layout(ham.dim_sys), tau)


def packed_generator(eff: EffectiveGenerator) -> np.ndarray:
    """The real N x N semigroup generator L on the packed blocks of
    eff.layout, which `semigroup_propagate` steps.

    The jump terms Omega sum_{j != i} T_ij b_j T_ji are the off-diagonal
    blocks of `BlockLayout.packed_map`(Omega T, T); each diagonal block is
    reset to zero and holds the four real delta terms of -i (Heff_i[a, c]
    delta_bd - delta_ac conj(Heff_i[b, d])), so no complex N x N matrix is
    formed.
    """
    layout, heff = eff.layout, eff.heff
    gen = layout.packed_map(eff.omega * eff.trans, eff.trans)
    for i, (span, n) in enumerate(zip(layout.spans, layout.sizes)):
        g = gen[span, span].reshape(n, n, n, n)         # a view [a, b, c, d]
        h, k = heff[i, :n, :n], np.arange(n)
        g[...] = 0
        g[:, k, :, k] = h.imag                  # delta_bd
        g[k, :, k, :] += h.imag                 # delta_ac
        g[:, k, k, :] -= h.real[:, None, :]     # delta_bc
        g[k, :, :, k] += h.real                 # delta_ad
    return gen


def semigroup_propagate(eff: EffectiveGenerator, init: InitialState,
                        h: float, n: int) -> Trajectory:
    """rho(T) = exp(L_eff T) rho(0) at T = k h, k = 0, ..., n
    (`linalg.uniform_counts`), on the real coordinates of the packed blocks,
    with L = `packed_generator(eff)`, formed before the start state is checked.

    Each step is the action of exp(L h) or one dense exp(L h), whichever the
    cost rule of `linalg.expm_step` finds cheaper; the action's degree and
    sub-steps come from the power norms ||(L h)^p||_1^(1/p), p = 2, 3, where
    ||L h||_1 would take more than one sub-step (on the d = 32 benchmark
    input, one sub-step per sample instead of two).  As in
    `run_nonselective`, the measurement channel is applied at t = 0, and the
    run is stepped from, and read as, the exact one (`Trajectory.from_packed`);
    the norms report the rounding drift, such as that of the squarings of
    one exponential over a huge step.
    """
    counts = uniform_counts(h, n)
    step = expm_step(packed_generator(eff), h, n)
    return Trajectory.from_packed(h, eff.layout, init, step, counts)


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
