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
runners carry it compressed there, as blocks of `model.BlockLayout`.  With
V_i = I_sys (x) v_i the isometry onto the range of C_i = I_sys (x) P_i and
U = exp(-i tau H), one period maps a block r on range(C_j) to W_ij r W_ij+
on range(C_i), where W_ij = V_i+ U V_j is the exact counterpart of the
limits' T_ij.  A coincident-outcome selective run takes the states at all
kept periods n from binary powers of W_ss in one batch that forms each
shared prefix of the bits of n once, so its cost grows with the number of
kept samples, not of periods; an explicit outcome sequence steps its block
period by period, and the non-selective channel steps all blocks at once,
b_i <- sum_j W_ij b_j W_ij+.  Only kept states are lifted back to the full
space, all at once from one stack of compressed states, and a trailing
fractional period is one full-space unitary step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (PROB_FLOOR, as_matrix, conj_powers, conj_stack, dag, expm,
                     real_trace, step_powers)
from .model import BlockLayout, HamiltonianSpec, InitialState, MeasurementSpec
from .trajectory import Trajectory


class VanishingProbabilityError(RuntimeError):
    """A conditional branch reached numerically zero probability."""


def period_slack(periods: float) -> float:
    """Rounding slack of a period count t / tau: 1e-9, or a few ulps of the
    count once those are larger (from about 5.6e5 periods on)."""
    return max(1e-9, 8 * np.finfo(float).eps * periods)


def steps_in(total_time: float, tau: float) -> int:
    """Number of whole measurement periods in total_time, floor with fp slack."""
    periods = total_time / tau
    return int(math.floor(periods + period_slack(periods)))


@dataclass(frozen=True)
class EvolutionPlan:
    """One interrupted-evolution run: Hamiltonian, measurement, timing, outcomes.

    Without an explicit outcome_sequence, a selective run repeats the
    measurement's selected outcome (the coincident-outcome shortcut).
    """

    hamiltonian: HamiltonianSpec
    measurement: MeasurementSpec
    tau: float
    total_time: float
    outcome_sequence: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.total_time < 0:
            raise ValueError("total_time must be non-negative")
        if self.measurement.dim_pr != self.hamiltonian.dim_pr:
            raise ValueError("measurement and Hamiltonian probe dimensions differ")
        if self.outcome_sequence is not None:
            seq = tuple(int(i) for i in self.outcome_sequence)
            if len(seq) != self.n_steps:
                raise ValueError(f"outcome sequence length {len(seq)} does not match "
                                 f"floor(T/tau) = {self.n_steps}")
            if any(not 0 <= i < len(self.measurement.projectors) for i in seq):
                raise ValueError("outcome index out of range")
            object.__setattr__(self, "outcome_sequence", seq)

    @property
    def n_steps(self) -> int:
        return steps_in(self.total_time, self.tau)

    @property
    def residual(self) -> float:
        res = self.total_time - self.n_steps * self.tau
        return res if res > 1e-9 * self.tau else 0.0


def unitary_step(rho, h, t: float) -> np.ndarray:
    """Conjugate rho by exp(-i h t).  Works for unnormalized states too."""
    rho = as_matrix(rho)
    h = as_matrix(h)
    if rho.shape != h.shape:
        raise ValueError("state and Hamiltonian dimensions differ")
    u = expm(-1j * t * h)
    return u @ rho @ dag(u)


def _period_maps(plan: EvolutionPlan, layout: BlockLayout):
    """(h, U, W): the assembled Hamiltonian, U = exp(-i tau h) and the block
    maps W[i, j] = V_i+ U V_j of one period, `layout.pairs(U)`.  Every map
    keeps the zero padding zero, so that one batched product steps all blocks.
    """
    h = plan.hamiltonian.assemble()
    u = expm(-1j * plan.tau * h)
    return h, u, layout.pairs(u)


def _check_probability(step: int, r) -> None:
    norm = real_trace(r)
    if norm < PROB_FLOOR:
        raise VanishingProbabilityError(
            f"outcome sequence has vanishing probability at step {step} "
            f"(p_Phi = {norm:.3e} < {PROB_FLOOR:.1e})")


def _interrupted(plan: EvolutionPlan, h, rho0, compressed, lift,
                 every: int) -> Trajectory:
    """Sample one run: rho0 at t = 0, then the post-measurement state after
    every `every`-th period n.  compressed(ns) gives the stack of compressed
    states after the periods ns, in one call; period n_steps is also taken
    when it is not sampled, so the whole run is checked.  lift(ns, stack,
    out) writes the full-space states at periods ns into out, all at once,
    and returns their traces; out is a view of the run's one state array, so
    no lifted stack is copied.  A fractional period left at total_time is
    one more unitary step from period n_steps, recorded pre-measurement.
    """
    if every < 1:
        raise ValueError(f"every must be a positive integer, got {every}")
    ns = np.arange(every, plan.n_steps + 1, every)
    kept = len(ns)
    if plan.n_steps % every:
        ns = np.append(ns, plan.n_steps)
    states = np.empty((len(ns) + 1 + (plan.residual > 0),) + rho0.shape, dtype=complex)
    states[0] = rho0
    lifted_norms = lift(ns, compressed(ns), states[1:len(ns) + 1])
    times = [[0.0], ns[:kept] * plan.tau]
    norms = [[real_trace(rho0)], lifted_norms[:kept]]
    end = kept + 1
    if plan.residual > 0:
        # from period n_steps, or from rho0 when no period has passed
        states[end] = unitary_step(states[len(ns)], h, plan.residual)
        times.append([plan.total_time])
        norms.append([real_trace(states[end])])
        end += 1
    states, norms = states[:end], np.concatenate(norms)
    states /= norms[:, None, None]
    return Trajectory(np.concatenate(times), states, norms, plan.hamiltonian.dims)


def run_selective(plan: EvolutionPlan, init: InitialState,
                  every: int = 1) -> Trajectory:
    """Propagate the post-selected branch, sampling at t = 0, at every
    `every`-th measurement instant (t = n*every*tau) and at total_time when a
    fractional period remains.

    The state is carried unnormalized on the selected range; `norms` is the
    cumulative probability p_Phi of the observed outcome string.  With the
    coincident-outcome shortcut (no outcome_sequence) the state after period
    n is W^n r0 W^n+ with W = W_ss and r0 = V_s+ rho0 V_s, from binary powers
    of W formed for all samples at once (`conj_powers`), so it depends on n
    alone and every stride keeps the same bits.  An explicit outcome sequence
    starts its first period from the full initial state and then steps
    r <- W_ij r W_ij+ for consecutive outcomes j, i.

    Raises VanishingProbabilityError at the first period n <= n_steps whose
    p_Phi is below PROB_FLOOR, sampled or not.  A stepped sequence checks
    every period.  The shortcut checks its samples and period n_steps: since
    ||W|| <= 1, p_Phi never increases, so when a sample fails, the first
    failing period is found by bisecting the periods since the last passing
    one, in O(log every) powers.
    """
    meas = plan.measurement
    if init.dims != plan.hamiltonian.dims:
        raise ValueError("initial state does not match Hamiltonian dimensions")
    seq = plan.outcome_sequence
    if seq is None:
        if meas.selected_index is None:
            raise ValueError("selective run needs a selected outcome or an "
                             "explicit outcome sequence")
        init.probe_block(meas.bases[meas.selected_index])
    layout = BlockLayout(plan.hamiltonian.dim_sys, meas.bases)
    bases = layout.bases
    h, u, w = _period_maps(plan, layout)
    rho0 = init.joint()

    if seq is not None:
        maps = [dag(bases[seq[0]]) @ u] if seq else []
        maps += [w[i, j] for j, i in zip(seq, seq[1:])]
        maps = [(m, dag(m)) for m in maps]

        def step(k, r):
            m, m_dag = maps[k]
            r = m @ r @ m_dag
            _check_probability(k + 1, r)
            return r

        def lift(ns, blocks, out):
            v = bases[np.array(seq, dtype=np.int64)[ns - 1]]
            out[...] = v @ blocks @ dag(v)
            return real_trace(blocks)

        shape = (bases.shape[2],) * 2
        return _interrupted(plan, h, rho0,
                            lambda ns: step_powers(step, rho0, ns, shape), lift, every)
    s = meas.selected_index
    v, v_dag = bases[s], dag(bases[s])
    w_ss, r0 = w[s, s], v_dag @ rho0 @ v

    def lift(ns, blocks, out):
        norms = real_trace(blocks)
        failed = np.flatnonzero(norms < PROB_FLOOR)
        if failed.size:
            k = failed[0]
            lo, hi = (int(ns[k - 1]) if k else 0), int(ns[k])   # lo passes, hi fails
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if real_trace(conj_powers(w_ss, r0, [mid])[0]) < PROB_FLOOR:
                    hi = mid
                else:
                    lo = mid
            _check_probability(hi, conj_powers(w_ss, r0, [hi])[0])
        conj_stack(v, blocks, v_dag, out=out)
        return norms

    return _interrupted(plan, h, rho0, lambda ns: conj_powers(w_ss, r0, ns),
                        lift, every)


def run_nonselective(plan: EvolutionPlan, init: InitialState,
                     every: int = 1) -> Trajectory:
    """Propagate under repeated channel applications, sampling at t = 0, at
    t = n*every*tau and at total_time when a fractional period remains.

    The channel is applied once at t = 0, which realizes the convention of
    starting the clock at the first measurement when the initial state is not
    already a channel fixed point.  That channel output is the set of blocks
    b_i = V_i+ rho0 V_i; each period maps them to b_i <- sum_j W_ij b_j W_ij+,
    and a kept state is sum_i V_i b_i V_i+.  Samples at integer multiples of
    tau are therefore block-diagonal in the measurement eigenbasis; a
    trailing fractional-period sample (present only when total_time is not a
    multiple of tau) is pre-measurement.
    """
    meas = plan.measurement
    if meas.selected_index is not None:
        raise ValueError("non-selective run requires the complete projector family "
                         "(no selected outcome)")
    if init.dims != plan.hamiltonian.dims:
        raise ValueError("initial state does not match Hamiltonian dimensions")
    layout = BlockLayout(plan.hamiltonian.dim_sys, meas.bases)
    h, _, w = _period_maps(plan, layout)
    w_dag = dag(w)

    def step(k, blocks):
        return (w @ blocks[None] @ w_dag).sum(axis=1)

    blocks = layout.compress(init.joint())
    channel = layout.lift(blocks[None])[0]
    return _interrupted(plan, h, channel,
                        lambda ns: step_powers(step, blocks, ns, blocks.shape),
                        lambda ns, stack, out: real_trace(layout.lift(stack, out=out)),
                        every)
