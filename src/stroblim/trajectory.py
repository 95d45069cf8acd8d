"""Time-series carrier shared by the exact and stroboscopic-limit runners."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import as_matrix, real_trace
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
    `BlockLayout.lift`), or the system states when `joint` is None.
    """

    times: np.ndarray
    sys_states: np.ndarray
    norms: np.ndarray
    joint: Callable[[], np.ndarray] | None = field(default=None, repr=False)

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
