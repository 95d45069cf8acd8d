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
W_ij b_j W_ij+.  A run yields the system marginals of its kept blocks; the
initial state and a trailing fractional period, one unitary step, are the
full-space samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (PROB_FLOOR, as_matrix, conj_powers, dag, partial_trace,
                     real_trace, step_powers)
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
    """One interrupted-evolution run: Hamiltonian, measurement and timing.

    A selective run repeats the measurement's selected outcome every period.
    """

    hamiltonian: HamiltonianSpec
    measurement: MeasurementSpec
    tau: float
    total_time: float

    def __post_init__(self) -> None:
        if not 0 < self.tau < math.inf:             # NaN compares false
            raise ValueError(f"tau must be a finite positive number, got {self.tau!r}")
        if not 0 <= self.total_time < math.inf:
            raise ValueError("total_time must be a finite non-negative number, "
                             f"got {self.total_time!r}")
        if self.total_time / self.tau >= 2 ** 53:
            raise ValueError(f"total_time/tau = {self.total_time / self.tau:.3g} "
                             "periods, expected fewer than 2**53")
        if self.measurement.dim_pr != self.hamiltonian.dim_pr:
            raise ValueError("measurement and Hamiltonian probe dimensions differ")

    @property
    def n_steps(self) -> int:
        return steps_in(self.total_time, self.tau)

    @property
    def residual(self) -> float:
        res = self.total_time - self.n_steps * self.tau
        return res if res > 1e-9 * self.tau else 0.0


def _propagator(h, t: float) -> np.ndarray:
    """exp(-i t h) for a Hermitian h, from one eigendecomposition of t h."""
    w, v = np.linalg.eigh(t * h)
    return (v * np.exp(-1j * w)) @ dag(v)


def unitary_step(rho, h, t: float) -> np.ndarray:
    """Conjugate rho by exp(-i h t) for a Hermitian h, of which only the
    lower triangle is read (`numpy.linalg.eigh`).  Works for unnormalized
    states too."""
    rho = as_matrix(rho)
    h = as_matrix(h)
    if rho.shape != h.shape:
        raise ValueError("state and Hamiltonian dimensions differ")
    u = _propagator(h, t)
    return u @ rho @ dag(u)


def _period_maps(plan: EvolutionPlan, layout: BlockLayout):
    """(h, W): the assembled Hamiltonian and the block maps W[i, j] = V_i+ U
    V_j of one period, U = exp(-i tau h), `layout.pairs(U)`.  Every map keeps
    the zero padding zero, so that one batched product steps all blocks.
    """
    h = plan.hamiltonian.assemble()
    return h, layout.pairs(_propagator(h, plan.tau))


def _interrupted(plan: EvolutionPlan, h, rho0, layout: BlockLayout, blocks,
                 every: int) -> Trajectory:
    """Sample one run: rho0 at t = 0, then the post-measurement state after
    every `every`-th period n, from blocks(ns), the (len(ns), k, m, m) stack
    in `layout` after the periods ns; period n_steps is taken too, so the
    whole run is checked.  A fractional period left at total_time is one
    unitary step from period n_steps, recorded pre-measurement.  The system
    states are `layout.marginal` of the blocks and partial traces of the
    full-space samples; joint states are lifted only for `Trajectory.states`.
    """
    if every < 1:
        raise ValueError(f"every must be a positive integer, got {every}")
    ns = np.arange(every, plan.n_steps + 1, every)
    kept = len(ns)
    if plan.n_steps % every:
        ns = np.append(ns, plan.n_steps)
    stack = blocks(ns)
    full = [rho0]
    times = [[0.0], ns[:kept] * plan.tau]
    if plan.residual > 0:
        # from period n_steps, or from rho0 when no period has passed
        start = layout.lift(stack[-1:])[0] if len(ns) else rho0
        full.append(unitary_step(start, h, plan.residual))
        times.append([plan.total_time])
    stack, full = stack[:kept], np.array(full)
    marginals = partial_trace(full, plan.hamiltonian.dims, "sys")
    states = np.concatenate((marginals[:1], layout.marginal(stack), marginals[1:]))
    norms = real_trace(states)
    states /= norms[:, None, None]

    def joint():
        states = np.concatenate((full[:1], layout.lift(stack), full[1:]))
        return states / norms[:, None, None]

    return Trajectory(np.concatenate(times), states, norms, joint)


def run_selective(plan: EvolutionPlan, init: InitialState,
                  every: int = 1) -> Trajectory:
    """Propagate the post-selected branch, sampling at t = 0, at every
    `every`-th measurement instant (t = n*every*tau) and at total_time when a
    fractional period remains.

    The state is carried unnormalized on the selected range; `norms` is the
    cumulative probability p_Phi of observing the selected outcome every
    period.  The state after period n is W^n r0 W^n+, W = W_ss and r0 = V_s+
    rho0 V_s, from binary powers of W for all samples at once
    (`conj_powers`), so it depends on n alone, whatever the stride.

    Raises VanishingProbabilityError at the first period n <= n_steps whose
    p_Phi is below PROB_FLOOR, sampled or not.  The powers check the samples
    and period n_steps, and since p_Phi never increases (||W|| <= 1), a
    failing sample bisects the periods since the last passing one, in
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
    h, w = _period_maps(plan, layout)
    rho0 = init.joint()
    w_ss, r0 = w[0, 0], layout.compress(rho0)[0]

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

    return _interrupted(plan, h, rho0, layout, powers, every)


def run_nonselective(plan: EvolutionPlan, init: InitialState,
                     every: int = 1) -> Trajectory:
    """Propagate under repeated channel applications, sampling at t = 0, at
    t = n*every*tau and at total_time when a fractional period remains.

    The channel is applied once at t = 0, which starts the clock at the
    first measurement when the initial state is not a channel fixed point.
    Its output is the blocks b_i = V_i+ rho0 V_i, which each period maps to
    b_i <- sum_j W_ij b_j W_ij+, so the joint states at integer multiples of
    tau are block-diagonal in the measurement eigenbasis; a trailing
    fractional-period sample is pre-measurement.
    """
    meas = plan.measurement
    if meas.selected_index is not None:
        raise ValueError("non-selective run requires the complete projector family "
                         "(no selected outcome)")
    if init.dims != plan.hamiltonian.dims:
        raise ValueError("initial state does not match Hamiltonian dimensions")
    layout = BlockLayout(plan.hamiltonian.dim_sys, meas.bases)
    h, w = _period_maps(plan, layout)
    w_dag = dag(w)

    def step(k, blocks):
        return (w @ blocks[None] @ w_dag).sum(axis=1)

    blocks = layout.compress(init.joint())
    return _interrupted(plan, h, layout.lift(blocks[None])[0], layout,
                        lambda ns: step_powers(step, blocks, ns, blocks.shape), every)
