"""Time-series carrier shared by the exact and stroboscopic-limit runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import as_matrix, dag, real_trace
from .model import pauli

_PAULI_XYZ = (pauli(1), pauli(2), pauli(3))


@dataclass
class Trajectory:
    """Sampled evolution: normalized system states plus per-sample bookkeeping.

    `sys_states`, the complex (T, dim_sys, dim_sys) stack of normalized
    reduced system states, is the one product of every runner; with `norms`,
    the traces before renormalization (the cumulative success probability of
    a conditional run, 1 for trace-preserving runs), it is all that the
    outputs read.  `states`, a view for checks, holds the normalized states
    on the producer's propagation space, built by `joint` on first use (the
    exact runners and the semigroup lift them from their blocks by
    `BlockLayout.lift`, the selective runs after forming the blocks from
    their factors, `from_factors`), or the system states when `joint` is
    None.
    """

    times: np.ndarray
    sys_states: np.ndarray
    norms: np.ndarray
    joint: Callable[[], np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def from_factors(cls, times, g, norms, dim_sys: int,
                     lift: Callable[[np.ndarray], np.ndarray] | None = None
                     ) -> Trajectory:
        """The run whose unnormalized states are the blocks g_t g_t+ of a
        (T, k, r) factor stack g on system (x) range(P), k = dim_sys r_P,
        with `norms` their traces ||g_t||_F^2.

        With g_t reshaped to (dim_sys, r_P r) as x_t, the system states are
        x_t x_t+ / norm_t, the probe traced out of the normalized block.
        They are formed with the samples along the last axis, as
        sum_i x[:, None, i] conj(x[None, :, i]) for the (dim_sys, r_P r, T)
        view x, each term written into a fresh contiguous array and scaled
        through its float view, so that every numpy call runs over whole
        rows of samples: a stacked `x @ dag(x)` makes one small product per
        sample (T = 16001 rank-1 samples at dim_sys = 2 on a 2-vCPU VM:
        0.25 ms against 0.92 ms, best of 60).  `sys_states` is a transposed
        view of the result.  `states` are the normalized blocks
        g_t g_t+ / norm_t, or what `lift` makes of them; for r_P = 1 the
        blocks are the system states themselves.
        """
        t = len(g)
        x = np.moveaxis(g.reshape(t, dim_sys, -1), 0, -1)

        def outer(i):
            out = np.empty((dim_sys, dim_sys, t), dtype=complex)
            np.conjugate(x[None, :, i], out=out)
            out *= x[:, None, i]
            return out

        marginals = outer(0)
        for i in range(1, x.shape[1]):
            marginals += outer(i)
        floats = marginals.view(float)          # re, im interleaved along T
        floats *= np.repeat(1 / norms, 2)
        sys_states = marginals.transpose(2, 0, 1)
        if g.shape[1] == dim_sys:      # r_P = 1: keep no reference to g
            def blocks():
                return sys_states
        else:
            def blocks():
                return g @ dag(g) / norms[:, None, None]
        return cls(times, sys_states, norms,
                   blocks if lift is None else lambda: lift(blocks()))

    @cached_property
    def states(self) -> np.ndarray:
        return self.sys_states if self.joint is None else self.joint()

    def __len__(self) -> int:
        return len(self.times)

    @property
    def p_err(self) -> np.ndarray:
        """Probability that the run left the post-selected outcome branch."""
        return 1.0 - self.norms

    def p_up(self) -> np.ndarray:
        """Population of the first system basis state."""
        return self.sys_states[:, 0, 0].real.copy()

    def purities(self) -> np.ndarray:
        s = self.sys_states
        return real_trace(s @ s)

    def bloch(self) -> np.ndarray:
        """Bloch vectors (T, 3) of a two-dimensional system marginal."""
        return bloch_vector(self.sys_states)


def bloch_vector(rho) -> np.ndarray:
    """Bloch vector of one 2x2 state, or vectors (..., 3) of a stack."""
    m = as_matrix(rho, stack=True)
    if m.shape[-1] != 2:
        raise ValueError("Bloch vector needs a 2x2 state")
    return np.stack([real_trace(m @ sig) for sig in _PAULI_XYZ], axis=-1)
