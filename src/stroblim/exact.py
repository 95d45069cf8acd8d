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
forms W_ss and no other map, and takes the powers of that one Kraus map
per period on a factor of the start block, as the limit takes those of
its Kraus step (`Trajectory.from_branch`).  The non-selective channel
b_i <- sum_j W_ij b_j W_ij+ is one real N x N matrix Phi on the
semigroup's packed coordinates (`BlockLayout.packed_map`), so a period is
one product Phi @ r.  A run takes a whole number of periods and samples
every `every`-th one, period 0 being the start; it yields the system
marginals, and the blocks it carried only on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import dag, expm, step_powers
from .model import BlockLayout, HamiltonianSpec, InitialState, MeasurementSpec
from .trajectory import Trajectory


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
    with U = exp(-i tau h) from `linalg.expm`, the limits' exponential."""
    return layout.pairs(expm(-1j * plan.tau * plan.hamiltonian.assemble()))


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
    n_steps: the branch run of W_ss on the selected range's layout
    (`MeasurementSpec.selected_layout`), whose start factor the Kraus limit
    and every tau of a sweep share; only W_ss depends on tau.  `norms` are
    the cumulative probabilities of observing the selected outcome every
    period.  Raises VanishingProbabilityError at the first period
    n <= n_steps whose probability is below PROB_FLOOR, sampled or not.
    """
    layout = plan.measurement.selected_layout(plan.hamiltonian.dim_sys)
    w_ss = _period_maps(plan, layout)[0, 0]
    return Trajectory.from_branch(plan.tau, layout, init, w_ss, _periods(plan, every))


def run_nonselective(plan: EvolutionPlan, init: InitialState,
                     every: int = 1) -> Trajectory:
    """Propagate under repeated channel applications, sampling at t = 0 and
    at t = n*tau for n = every, 2*every, ..., n_steps.

    The channel is applied once at t = 0, which starts the clock at the
    first measurement when the initial state is not a channel fixed point.
    Its output, the blocks b_i = V_i+ rho0 V_i on `MeasurementSpec.full_layout`,
    packed, takes one product with Phi = `BlockLayout.packed_map`(W, W+) per
    period, b_i <- sum_j W_ij b_j W_ij+, read as the semigroup's are
    (`Trajectory.from_packed`), block-diagonal in the measurement eigenbasis.
    """
    layout = plan.measurement.full_layout(plan.hamiltonian.dim_sys)
    ns = _periods(plan, every)
    w = _period_maps(plan, layout)
    phi = layout.packed_map(w, dag(w).swapaxes(0, 1))
    return Trajectory.from_packed(ns * plan.tau, layout, init, lambda r0: (
        step_powers(lambda r: phi @ r, r0, ns)))
