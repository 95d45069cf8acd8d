"""Time-series carrier shared by the exact and stroboscopic-limit runners."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import TensorDims, as_matrix, partial_trace
from .model import pauli

_PAULI_XYZ = (pauli(1), pauli(2), pauli(3))


@dataclass
class Trajectory:
    """Sampled evolution: normalized states plus per-sample bookkeeping.

    `states` live on the propagation space of the producer, split as `dims`:
    system (x) probe for the exact runners and the semigroup, system (x)
    range(P) for the selective limit, and the system alone (a probe factor of
    dimension 1) for closed forms.  `sys_states`, the normalized reduced
    system states, are derived from them once, on first use, by tracing out
    the probe factor.  `norms` is the trace of the unnormalized state before
    renormalization, i.e. the cumulative success probability of a conditional
    run (identically 1 for trace-preserving runs).
    """

    times: np.ndarray
    states: list[np.ndarray]
    norms: np.ndarray
    dims: TensorDims

    @cached_property
    def sys_states(self) -> list[np.ndarray]:
        return [partial_trace(s, self.dims, "sys") for s in self.states]

    def __len__(self) -> int:
        return len(self.times)

    @property
    def p_err(self) -> np.ndarray:
        """Probability that the run left the post-selected outcome branch."""
        return 1.0 - self.norms

    def p_up(self) -> np.ndarray:
        """Population of the first system basis state."""
        return np.array([s[0, 0].real for s in self.sys_states])

    def purities(self) -> np.ndarray:
        return np.array([np.trace(s @ s).real for s in self.sys_states])

    def bloch(self) -> np.ndarray:
        """Bloch vectors (n, 3) of a two-dimensional system marginal."""
        return np.array([bloch_vector(s) for s in self.sys_states])


def bloch_vector(rho) -> np.ndarray:
    """Bloch vector of one 2x2 state."""
    m = as_matrix(rho)
    if m.shape[0] != 2:
        raise ValueError("Bloch vector needs a 2x2 state")
    return np.array([np.trace(m @ sig).real for sig in _PAULI_XYZ])

