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
limit is the H1 - i H2 dynamics: it lays out the selected range alone,
forms W_ss and no other map, and takes all kept periods n as binary powers
of W_ss in one batch, so its cost grows with the kept samples, not the
periods.  The non-selective channel steps all blocks at once, b_i <- sum_j
W_ij b_j W_ij+.  A run takes a whole number of periods and samples every
`every`-th one from its blocks, period 0 being the start blocks; it yields
their system marginals and lifts joint states only on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import PROB_FLOOR, conj_powers, dag, real_trace, step_powers
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


def _interrupted(plan: EvolutionPlan, layout: BlockLayout, blocks,
                 every: int) -> Trajectory:
    """Sample one run at the periods n = 0, every, ..., n_steps from
    blocks(ns), the (len(ns), k, m, m) stack in `layout` after the periods
    ns, period 0 being the start blocks.  ValueError unless every is a
    positive integer, not a bool, that divides n_steps.  The system states
    are `layout.marginal` of the blocks; joint states are lifted only for
    `Trajectory.states`.
    """
    if isinstance(every, bool) or not isinstance(every, (int, np.integer)) \
            or every < 1 or plan.n_steps % every:
        raise ValueError(f"every = {every} must be a positive divisor of "
                         f"n_steps = {plan.n_steps}")
    ns = np.arange(0, plan.n_steps + 1, every)
    stack = blocks(ns)
    marginals = layout.marginal(stack)      # a view of the stack for one rank-1 block
    norms = real_trace(marginals)
    return Trajectory(ns * plan.tau, marginals / norms[:, None, None], norms,
                      lambda: layout.lift(stack) / norms[:, None, None])


def run_selective(plan: EvolutionPlan, init: InitialState,
                  every: int = 1) -> Trajectory:
    """Propagate the post-selected branch, sampling at t = 0 and at every
    `every`-th measurement instant, t = n*tau for n = every, 2*every, ...,
    n_steps.

    The state is carried unnormalized on the selected range; `norms` is the
    cumulative probability p_Phi of observing the selected outcome every
    period.  The state after period n is W^n r0 W^n+, W = W_ss and r0 = V_s+
    rho0 V_s, from binary powers of W for all samples at once
    (`conj_powers`), so it depends on n alone, whatever the stride.

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
    layout = BlockLayout(plan.hamiltonian.dim_sys, meas.bases[s:s + 1])
    w_ss = _period_maps(plan, layout)[0, 0]
    r0 = layout.compress(init.joint())[0]

    def powers(ns):
        r = conj_powers(w_ss, r0, ns)
        failed = np.flatnonzero(real_trace(r) < PROB_FLOOR)
        if failed.size:
            k = failed[0]
            lo, hi = (int(ns[k - 1]) if k else 0), int(ns[k])   # lo passes, hi fails
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if real_trace(conj_powers(w_ss, r0, [mid])[0]) < PROB_FLOOR:
                    hi = mid
                else:
                    lo = mid
            norm = real_trace(conj_powers(w_ss, r0, [hi])[0])
            raise VanishingProbabilityError(
                f"branch probability vanished at step {hi} "
                f"(p_Phi = {norm:.3e} < {PROB_FLOOR:.1e})")
        return r[:, None]

    return _interrupted(plan, layout, powers, every)


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
    layout = BlockLayout(plan.hamiltonian.dim_sys, meas.bases)
    w = _period_maps(plan, layout)
    w_dag = dag(w)

    def step(k, blocks):
        return (w @ blocks[None] @ w_dag).sum(axis=1)

    blocks = layout.compress(init.joint())
    return _interrupted(plan, layout,
                        lambda ns: step_powers(step, blocks, ns, blocks.shape), every)
