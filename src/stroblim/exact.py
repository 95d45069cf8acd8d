"""Exact interrupted evolution, the oracle for every stroboscopic-limit result.

A run alternates unitary segments of duration tau with projective events:
in selective mode a single Kraus projector per observed outcome (the state
becomes unnormalized and its trace tracks the cumulative outcome
probability), in non-selective mode the full measurement channel.  Each
period is unitary first, then measurement, so the k-th measurement happens
at t = k*tau and samples taken at t = n*tau are post-measurement states;
that ordering is what makes the closed-form checks exact at integer
multiples of tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_TOL, PROB_FLOOR, as_matrix, dag, expm,
                     is_projector, kron, max_abs)
from .model import HamiltonianSpec, InitialState, MeasurementSpec
from .trajectory import Trajectory


class VanishingProbabilityError(RuntimeError):
    """A conditional branch reached numerically zero probability."""


def steps_in(total_time: float, tau: float) -> int:
    """Number of whole measurement periods in total_time, floor with fp slack."""
    return int(math.floor(total_time / tau + 1e-9))


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


def apply_instrument(rho, c, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Single-Kraus projective instrument rho -> C rho C (trace-decreasing)."""
    rho = as_matrix(rho)
    c = as_matrix(c)
    if not is_projector(c, tol):
        raise ValueError("instrument Kraus operator must be a projector")
    return c @ rho @ c


def nonselective_channel(rho, spec: MeasurementSpec) -> np.ndarray:
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
    dim_sys = rho.shape[0] // spec.dim_pr
    eye_sys = np.eye(dim_sys, dtype=complex)
    out = np.zeros_like(rho)
    for p in projs:
        c = kron(eye_sys, p)
        out += c @ rho @ c
    return out


def _record(times, states, norms, t, rho_u):
    norm = float(np.trace(rho_u).real)
    times.append(t)
    states.append(rho_u / norm)
    norms.append(norm)


def _interrupted(plan: EvolutionPlan, rho, measure, every: int) -> Trajectory:
    """The interrupted-evolution loop shared by both runners.

    Records rho at t = 0, then per period applies the unitary step and
    `measure(k, rho)` for period k, recording every `every`-th
    post-measurement state; a fractional period left at total_time is one
    more unitary step, recorded pre-measurement.
    """
    if every < 1:
        raise ValueError(f"every must be a positive integer, got {every}")
    h = plan.hamiltonian.assemble()
    u = expm(-1j * plan.tau * h)
    u_dag = dag(u)

    times: list[float] = []
    states: list[np.ndarray] = []
    norms: list[float] = []
    _record(times, states, norms, 0.0, rho)
    for k in range(plan.n_steps):
        rho = measure(k, u @ rho @ u_dag)
        if (k + 1) % every == 0:
            _record(times, states, norms, (k + 1) * plan.tau, rho)
    if plan.residual > 0:
        rho = unitary_step(rho, h, plan.residual)
        _record(times, states, norms, plan.total_time, rho)
    return Trajectory(np.array(times), states, np.array(norms), plan.hamiltonian.dims)


def run_selective(plan: EvolutionPlan, init: InitialState,
                  every: int = 1) -> Trajectory:
    """Propagate the post-selected branch, sampling at t = 0, at every
    `every`-th measurement instant (t = n*every*tau) and at total_time when a
    fractional period remains.

    The state is carried unnormalized; `norms` is the cumulative probability
    p_Phi of the observed outcome string.  Raises VanishingProbabilityError as
    soon as p_Phi drops below PROB_FLOOR, which is checked after every
    measurement, sampled or not.
    """
    meas = plan.measurement
    dims = plan.hamiltonian.dims
    if init.dims != dims:
        raise ValueError("initial state does not match Hamiltonian dimensions")
    if plan.outcome_sequence is not None:
        seq = plan.outcome_sequence
    elif meas.selected_index is not None:
        seq = (meas.selected_index,) * plan.n_steps
        p_sel = meas.selected_projector()
        if max_abs(p_sel @ init.rho_pr @ p_sel - init.rho_pr) > DEFAULT_TOL:
            raise ValueError("initial probe state must be supported in the "
                             "selected projector's range")
    else:
        raise ValueError("selective run needs a selected outcome or an "
                         "explicit outcome sequence")
    eye_sys = np.eye(dims.dim_sys, dtype=complex)
    c_ops = [kron(eye_sys, p) for p in meas.projectors]

    def measure(k, rho_u):
        c = c_ops[seq[k]]
        rho_u = c @ rho_u @ c
        norm = float(np.trace(rho_u).real)
        if norm < PROB_FLOOR:
            raise VanishingProbabilityError(
                f"outcome sequence has vanishing probability at step {k + 1} "
                f"(p_Phi = {norm:.3e} < {PROB_FLOOR:.1e})")
        return rho_u

    return _interrupted(plan, init.joint(), measure, every)


def run_nonselective(plan: EvolutionPlan, init: InitialState,
                     every: int = 1) -> Trajectory:
    """Propagate under repeated channel applications, sampling at t = 0, at
    t = n*every*tau and at total_time when a fractional period remains.

    The channel is applied once at t = 0, which realizes the convention of
    starting the clock at the first measurement when the initial state is not
    already a channel fixed point.  Samples at integer multiples of tau are
    therefore block-diagonal in the measurement eigenbasis; a trailing
    fractional-period sample (present only when total_time is not a multiple
    of tau) is pre-measurement.
    """
    meas = plan.measurement
    if meas.selected_index is not None:
        raise ValueError("non-selective run requires the complete projector family "
                         "(no selected outcome)")
    if init.dims != plan.hamiltonian.dims:
        raise ValueError("initial state does not match Hamiltonian dimensions")
    return _interrupted(plan, nonselective_channel(init.joint(), meas),
                        lambda k, rho: nonselective_channel(rho, meas), every)
