"""Stroboscopic-limit dynamics of quantum systems under repeated probe measurements.

A system coupled to a probe with strength gamma is interrupted every tau by a
projective measurement of the probe.  This package propagates that dynamics
exactly (step by step) and via the closed forms that emerge when tau -> 0 at
fixed Omega = gamma^2 tau: a non-Hermitian effective generator for the
post-selected (selective) branch and a GKSL semigroup for non-selective
monitoring.
"""

from .exact import (EvolutionPlan, VanishingProbabilityError, run_nonselective,
                    run_selective, unitary_step)
from .linalg import (TensorDims, expm, is_density, is_hermitian, is_projector,
                     is_psd, kron, partial_trace, trace_distance)
from .model import (HamiltonianSpec, InitialState, MeasurementSpec, basis_ket,
                    heisenberg3_hamiltonian, measurement_from_kets, pauli,
                    projector_from_kets, swap_hamiltonian)
from .nonselective_limit import (NonselectiveEffective, block_rhs,
                                 build_generator, semigroup_propagate,
                                 swap_nonselective_closed_form)
from .selective_limit import (SelectiveEffective, effective_rank1,
                              effective_rankr, propagate_kraus)
from .trajectory import Trajectory, bloch_vector

__version__ = "0.1.0"

__all__ = [
    "EvolutionPlan", "HamiltonianSpec", "InitialState", "MeasurementSpec",
    "NonselectiveEffective", "SelectiveEffective", "TensorDims",
    "Trajectory", "VanishingProbabilityError", "basis_ket",
    "bloch_vector", "block_rhs", "build_generator", "effective_rank1",
    "effective_rankr", "expm", "heisenberg3_hamiltonian", "is_density",
    "is_hermitian", "is_projector", "is_psd", "kron", "measurement_from_kets",
    "partial_trace", "pauli", "projector_from_kets", "propagate_kraus",
    "run_nonselective", "run_selective", "semigroup_propagate",
    "swap_hamiltonian",
    "swap_nonselective_closed_form", "trace_distance", "unitary_step",
]
