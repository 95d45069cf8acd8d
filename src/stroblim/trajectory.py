"""Time-series carrier shared by the exact and stroboscopic-limit runners.

Each runner ends in one of two constructors: a trace-preserving run steps
packed block coordinates (`Trajectory.from_packed`), and a post-selected
branch takes powers of one Kraus step on a factor of its start block
(`Trajectory.from_branch`), which also holds the one rule for a branch
whose probability vanishes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import (PROB_FLOOR, as_matrix, dag, factor_powers, real_trace,
                     sq_norms)
from .model import pauli

_PAULI_XYZ = np.stack([pauli(1), pauli(2), pauli(3)])


class VanishingProbabilityError(RuntimeError):
    """A conditional branch reached numerically zero probability."""


class Trajectory:
    """Sampled evolution: normalized system states plus per-sample bookkeeping.

    `sys_states`, the complex (T, dim_sys, dim_sys) stack of normalized
    reduced system states, is the one product of every runner; with `norms`,
    the traces before renormalization (the cumulative success probability of
    a conditional run, 1 for trace-preserving runs), it is all that the
    outputs read.  It is given as that stack, or, by `from_branch`, as a
    function `corners(n)` of the (T, n, n) top-left corners of the states,
    n = dim_sys by default; `sys_states` is then formed on first read and
    kept, and `p_up` reads the corners of side 1 without forming it.
    `states`, a view for checks, holds the normalized states as the run
    carried them, the blocks on its `model.BlockLayout`, built by `blocks`
    on first use, or the system states when `blocks` is None.
    """

    def __init__(self, times, sys_states, norms,
                 blocks: Callable[[], np.ndarray] | None = None) -> None:
        self.times, self.norms, self.blocks = times, norms, blocks
        self._corners = sys_states if callable(sys_states) else None
        if self._corners is None:
            self.sys_states = sys_states

    @classmethod
    def from_packed(cls, times, layout, init, propagate) -> Trajectory:
        """The run that `propagate` makes of the packed start blocks
        pack(V+ rho0 V) of `init` on `layout` (ValueError unless init fits):
        the system states are the marginals of its (T, N) coordinates over
        their traces, the norms, and `states` the (T, k, m, m) blocks they
        unpack to over the norms, formed on first use."""
        if init.dims != layout.dims:
            raise ValueError("initial state does not match Hamiltonian dimensions")
        coords = propagate(layout.pack(layout.compress(init.joint())))
        states = layout.marginal(layout.unpack(coords))
        norms = real_trace(states)
        return cls(times, states / norms[:, None, None], norms, lambda: (
            layout.unpack(coords) / norms[:, None, None, None]))

    @classmethod
    def from_branch(cls, dt, layout, init, step, ns) -> Trajectory:
        """The post-selected branch that the Kraus map r -> W r W+ of the
        k x k `step` W makes of `init` on the one-block `layout`, sampled
        after each count n of the non-decreasing ns, at times n dt.

        ValueError for a layout of more than one block or an init that does
        not fit it.  With the start block V+ rho0 V = F F+
        (`InitialState.start_factor`, kept per layout), the block after n
        steps is g_n g_n+ for the factor g_n = W^n F, positive semidefinite
        by construction; its trace, the branch probability, is ||g_n||_F^2.
        The factors of all samples are one batch of binary powers
        (`linalg.factor_powers`), so they depend on n alone, and the norms
        their squared norms (`linalg.sq_norms`).  Since ||W|| <= 1 the
        probability never increases, so the first sample below PROB_FLOOR
        is bisected back to the first failing count since the last passing
        sample, in O(log) powers, and raises VanishingProbabilityError
        there; on the counts 0..n of a limit the search ends at once.

        The run keeps the factors and forms nothing until an output reads
        it.  With g_n reshaped to (dim_sys, r_P r) as x_n, the system states
        are x_n x_n+ / norm_n, the probe traced out of the normalized block.
        Their top-left c x c corners are formed with the samples along the
        last axis, as sum_i x[:c, None, i] conj(x[None, :c, i]) for the
        (dim_sys, r_P r, T) view x, each term written into a fresh
        contiguous array and scaled through its float view, so that every
        numpy call runs over whole rows of samples: a stacked `x @ dag(x)`
        makes one small product per sample (T = 16001 rank-1 samples at
        dim_sys = 2 on a 2-vCPU VM: 0.25 ms against 0.92 ms, best of 60).
        Each entry takes the same products whatever c, so `p_up`, the
        corner of side 1, equals `sys_states[:, 0, 0].real` bit for bit.
        `sys_states` is a transposed view of the corners of side dim_sys.
        `states` are the normalized (T, k, k) blocks g_n g_n+ / norm_n; for
        r_P = 1 the blocks are the system states.
        """
        if len(layout.sizes) != 1:
            raise ValueError("Kraus propagation takes the one-block generator of a "
                             f"selected outcome, got {len(layout.sizes)} blocks")
        if init.dims != layout.dims:
            raise ValueError("initial state does not match Hamiltonian dimensions")
        f = init.start_factor(layout)
        g = factor_powers(step, f, ns)
        norms = sq_norms(g)
        failed = np.flatnonzero(norms < PROB_FLOOR)
        if failed.size:
            def p(n):
                return sq_norms(factor_powers(step, f, [n]))[0]

            k = failed[0]
            lo, hi = (int(ns[k - 1]) if k else -1), int(ns[k])    # lo passes, hi fails
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if p(mid) < PROB_FLOOR else (mid, hi)
            raise VanishingProbabilityError(
                f"branch probability vanished at T = {hi * dt:g} "
                f"(step {hi}, p = {p(hi):.3e} < {PROB_FLOOR:.1e})")

        dim_sys, t = layout.dim_sys, len(g)
        x = np.moveaxis(g.reshape(t, dim_sys, -1), 0, -1)

        def corners(c=dim_sys):
            def outer(i):
                out = np.empty((c, c, t), dtype=complex)
                np.conjugate(x[None, :c, i], out=out)
                out *= x[:c, None, i]
                return out

            marginals = outer(0)
            for i in range(1, x.shape[1]):
                marginals += outer(i)
            floats = marginals.view(float)          # re, im interleaved along T
            floats *= np.repeat(1 / norms, 2)
            return marginals.transpose(2, 0, 1)

        blocks = None                  # r_P = 1: the blocks are the system states
        if g.shape[1] != dim_sys:
            def blocks():
                return g @ dag(g) / norms[:, None, None]
        return cls(np.asarray(ns) * dt, corners, norms, blocks)

    @cached_property
    def sys_states(self) -> np.ndarray:
        return self._corners()

    @cached_property
    def states(self) -> np.ndarray:
        return self.sys_states if self.blocks is None else self.blocks()

    def __len__(self) -> int:
        return len(self.times)

    @property
    def p_err(self) -> np.ndarray:
        """Probability that the run left the post-selected outcome branch."""
        return 1.0 - self.norms

    def p_up(self) -> np.ndarray:
        """Population of the first system basis state."""
        s = self.sys_states if self._corners is None else self._corners(1)
        return s[:, 0, 0].real.copy()

    def purities(self) -> np.ndarray:
        """Purities tr s^2 of the system states, by one `einsum`."""
        s = self.sys_states
        return np.einsum("...ab,...ba->...", s, s).real

    def bloch(self) -> np.ndarray:
        """Bloch vectors (T, 3) of a two-dimensional system marginal."""
        return bloch_vector(self.sys_states)


def bloch_vector(rho) -> np.ndarray:
    """Bloch vector of one 2x2 state, or vectors (..., 3) of a stack: the real
    parts of tr(rho sigma_k) for the three Paulis, by one `einsum`."""
    m = as_matrix(rho, stack=True)
    if m.shape[-1] != 2:
        raise ValueError("Bloch vector needs a 2x2 state")
    return np.einsum("...ab,kba->...k", m, _PAULI_XYZ).real
