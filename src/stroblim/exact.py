"""Exact interrupted evolution, the oracle for every stroboscopic-limit result.

A run alternates unitary segments of duration tau with projective events:
in selective mode a single Kraus projector per observed outcome (the state
becomes unnormalized and its trace tracks the cumulative outcome
probability), in non-selective mode the full measurement channel.  Each
period is unitary first, then measurement, so the k-th measurement happens
at t = k*tau and samples taken at t = n*tau are post-measurement states;
that ordering is what makes the closed-form checks exact at integer
multiples of tau.

After a measurement the state lives on the measured probe ranges, so the
runners carry it there, as blocks of `model.BlockLayout`.  With V_i =
I_sys (x) v_i the isometry onto the range of C_i = I_sys (x) P_i and U =
exp(-i tau H), one period maps a block r on range(C_j) to W_ij r W_ij+ on
range(C_i), W_ij = V_i+ U V_j being the exact counterpart of the limits'
T_ij.  The selective run is the coincident-outcome branch, the one whose
limit is the H1 - i H2 dynamics: it lays out the selected range alone and
forms W_ss and no other map.  Its one Kraus map per period, r -> W r W+,
acts on a factor alone: with the start block r0 = F F+, the block after
period n is G G+ for G = W^n F, positive semidefinite by construction, its
trace, the branch probability, is the squared norm ||G||_F^2, and its
system marginal is X X+ for G reshaped to X of shape (dim_sys, r_P r).
All kept periods n are one-sided binary powers W^n F of one batch, so the
cost grows with the kept samples, not the periods.  The non-selective
channel steps all blocks at once, b_i <- sum_j W_ij b_j W_ij+.  A run takes
a whole number of periods and samples every `every`-th one, period 0 being
the start; it yields the system marginals and lifts joint states only on
demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (PROB_FLOOR, dag, factor_powers, psd_factor, real_trace,
                     sq_norms, step_powers)
from .model import BlockLayout, HamiltonianSpec, InitialState, MeasurementSpec
from .trajectory import Trajectory


class VanishingProbabilityError(RuntimeError):
    """A conditional branch reached numerically zero probability."""


def period_slack(periods: float) -> float:
    """Rounding slack of a period count t / tau: 1e-9, or a few ulps of the
    count once those are larger (from about 5.6e5 periods on), but at most a
    quarter period, so that it never adds a whole one (from about 1.4e14
    periods on, where a few ulps of the count exceed a period)."""
    return min(max(1e-9, 8 * np.finfo(float).eps * periods), 0.25)


def steps_in(total_time: float, tau: float) -> int:
    """Number of whole measurement periods in total_time, floor with fp slack."""
    periods = total_time / tau
    return int(math.floor(periods + period_slack(periods)))


@dataclass(frozen=True)
class EvolutionPlan:
    """One interrupted-evolution run: Hamiltonian, measurement, the period
    tau and the number of periods n_steps.

    A selective run repeats the measurement's selected outcome every period.
    """

    hamiltonian: HamiltonianSpec
    measurement: MeasurementSpec
    tau: float
    n_steps: int

    def __post_init__(self) -> None:
        if not 0 < self.tau < math.inf:             # NaN compares false
            raise ValueError(f"tau must be a finite positive number, got {self.tau!r}")
        n = self.n_steps
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) \
                or not 0 <= n < 2 ** 53:
            raise ValueError(f"n_steps must be an integer in [0, 2**53), got {n!r}")
        if self.measurement.dim_pr != self.hamiltonian.dim_pr:
            raise ValueError("measurement and Hamiltonian probe dimensions differ")


def _period_maps(plan: EvolutionPlan, layout: BlockLayout) -> np.ndarray:
    """The block maps W[i, j] = V_i+ U V_j of one period, `layout.pairs(U)`,
    with U = exp(-i tau h) from one eigendecomposition of tau h.  Every map
    keeps the zero padding zero, so that one batched product steps all
    blocks.
    """
    w, v = np.linalg.eigh(plan.tau * plan.hamiltonian.assemble())
    return layout.pairs((v * np.exp(-1j * w)) @ dag(v))


def _periods(plan: EvolutionPlan, every: int) -> np.ndarray:
    """The sampled periods n = 0, every, ..., n_steps, period 0 being the
    start; ValueError unless every is a positive integer, not a bool, that
    divides n_steps."""
    if isinstance(every, bool) or not isinstance(every, (int, np.integer)) \
            or every < 1 or plan.n_steps % every:
        raise ValueError(f"every = {every} must be a positive divisor of "
                         f"n_steps = {plan.n_steps}")
    return np.arange(0, plan.n_steps + 1, every)


def run_selective(plan: EvolutionPlan, init: InitialState,
                  every: int = 1) -> Trajectory:
    """Propagate the post-selected branch, sampling at t = 0 and at every
    `every`-th measurement instant, t = n*tau for n = every, 2*every, ...,
    n_steps.

    The state is carried unnormalized on the selected range, as a factor:
    with r0 = V_s+ rho0 V_s = F F+ (`linalg.psd_factor`), the state after
    period n is G G+ for G = W^n F, W = W_ss, so it stays positive
    semidefinite by construction.  G comes from binary powers of W for all
    samples at once (`linalg.factor_powers`), so it depends on n alone,
    whatever the stride.  `norms`, the cumulative probability p_Phi of
    observing the selected outcome every period, are the squared norms
    ||G||_F^2 = tr G G+.  The system states are the marginals of the
    normalized factors (`Trajectory.from_factors`); joint states are lifted
    from their blocks only for `Trajectory.states`.

    Raises VanishingProbabilityError at the first period n <= n_steps whose
    p_Phi is below PROB_FLOOR, sampled or not.  The powers check the samples,
    period n_steps among them, and since p_Phi never increases (||W|| <= 1),
    a failing sample bisects the periods since the last passing one, in
    O(log every) powers.
    """
    meas = plan.measurement
    if init.dims != plan.hamiltonian.dims:
        raise ValueError("initial state does not match Hamiltonian dimensions")
    s = meas.selected_index
    if s is None:
        raise ValueError("selective run needs a selected outcome")
    init.probe_block(meas.bases[s])
    ns = _periods(plan, every)
    layout = BlockLayout(plan.hamiltonian.dim_sys, meas.bases[s:s + 1])
    w_ss = _period_maps(plan, layout)[0, 0]
    f = psd_factor(layout.compress(init.joint())[0])

    def p_phi(n):
        return sq_norms(factor_powers(w_ss, f, [n]))[0]

    g = factor_powers(w_ss, f, ns)
    norms = sq_norms(g)
    failed = np.flatnonzero(norms < PROB_FLOOR)
    if failed.size:
        k = failed[0]
        lo, hi = (int(ns[k - 1]) if k else 0), int(ns[k])     # lo passes, hi fails
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if p_phi(mid) < PROB_FLOOR else (mid, hi)
        raise VanishingProbabilityError(
            f"branch probability vanished at step {hi} "
            f"(p_Phi = {p_phi(hi):.3e} < {PROB_FLOOR:.1e})")
    return Trajectory.from_factors(ns * plan.tau, g, norms, layout.dim_sys,
                                   lambda b: layout.lift(b[:, None]))


def run_nonselective(plan: EvolutionPlan, init: InitialState,
                     every: int = 1) -> Trajectory:
    """Propagate under repeated channel applications, sampling at t = 0 and
    at t = n*tau for n = every, 2*every, ..., n_steps.

    The channel is applied once at t = 0, which starts the clock at the
    first measurement when the initial state is not a channel fixed point.
    Its output is the blocks b_i = V_i+ rho0 V_i, which each period maps to
    b_i <- sum_j W_ij b_j W_ij+, so the joint states at integer multiples of
    tau are block-diagonal in the measurement eigenbasis.
    """
    meas = plan.measurement
    if meas.selected_index is not None:
        raise ValueError("non-selective run requires the complete projector family "
                         "(no selected outcome)")
    if init.dims != plan.hamiltonian.dims:
        raise ValueError("initial state does not match Hamiltonian dimensions")
    ns = _periods(plan, every)
    layout = BlockLayout(plan.hamiltonian.dim_sys, meas.bases)
    w = _period_maps(plan, layout)
    w_dag = dag(w)

    def step(k, blocks):
        return (w @ blocks[None] @ w_dag).sum(axis=1)

    blocks = layout.compress(init.joint())
    stack = step_powers(step, blocks, ns, blocks.shape)
    marginals = layout.marginal(stack)
    norms = real_trace(marginals)
    return Trajectory(ns * plan.tau, marginals / norms[:, None, None], norms,
                      lambda: layout.lift(stack) / norms[:, None, None])
