"""Time-series carrier shared by the exact and stroboscopic-limit runners."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import TensorDims, as_matrix, partial_trace, real_trace
from .model import pauli

_PAULI_XYZ = (pauli(1), pauli(2), pauli(3))


@dataclass
class Trajectory:
    """Sampled evolution: normalized states plus per-sample bookkeeping.

    `states` is one complex (T, n, n) stack, a state per sample time, on the
    propagation space of the producer, split as `dims`: system (x) probe for
    the exact runners and the semigroup, system (x) range(P) for the
    selective limit, and the system alone (a probe factor of dimension 1) for
    closed forms.  `sys_states`, the normalized reduced system states, are
    derived from them once, on first use, by one batched partial trace.
    `norms` is the trace of the unnormalized state before renormalization,
    i.e. the cumulative success probability of a conditional run
    (identically 1 for trace-preserving runs).
    """

    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    dims: TensorDims

    @cached_property
    def sys_states(self) -> np.ndarray:
        return partial_trace(self.states, self.dims, "sys")

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

