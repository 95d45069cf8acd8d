"""Seeded scenario files for the benchmark workloads, in the CLI's JSON schema.

The random workloads fix their physics with a model seed recorded here and
let the run seed draw a random unitary frame U for the system factor: every
system operator A becomes U A U+ and the initial system state U rho U+.
Every seed therefore gives a different input file but the same work and the
same exact-vs-limit trace distances (up to rounding), so figures from
different seeds are comparable.  The probe stays in its own basis, where the
measurement blocks and the initial probe state are defined.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

BUNDLED_DIR = os.path.join("src", "stroblim", "scenarios")

# Physics of the random workloads; changing these changes the references.
MODEL_SEED = {"nonselective_d32": 2016, "selective_long_d16": 5501}


@dataclass(frozen=True)
class Workload:
    """A named CLI invocation over a generated scenario file."""

    name: str
    command: str             # stroblim sub-command: sweep, compare or run
    extra_args: tuple[str, ...]
    default_seed: int        # the seed whose max_deviation reference is recorded
    held_out_seed: int       # kept unused while tuning, for later claims
    seeded: bool             # False when the seed does not enter the input file


WORKLOADS = {
    "selective_sweep": Workload(
        "selective_sweep", "sweep", ("--tau", "0.04,0.01,0.0025,0.000625"),
        default_seed=1, held_out_seed=2, seeded=False),
    "nonselective_d32": Workload(
        "nonselective_d32", "compare", (), default_seed=1, held_out_seed=2,
        seeded=True),
    "selective_long_d16": Workload(
        "selective_long_d16", "run", (), default_seed=1, held_out_seed=2,
        seeded=True),
}

# Reduced sizes used by the smoke test; no references exist for them.
TINY_TAUS = ("--tau", "0.04,0.01")


def _complex_matrix(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _complex_vector(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v)]


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit_hermitian(rng, dim: int) -> np.ndarray:
    m = _random_complex(rng, (dim, dim))
    h = (m + m.conj().T) / 2
    return h / np.linalg.norm(h, 2)


def _random_unitary(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_random_complex(rng, (dim, dim)))
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def _basis_ket(dim: int, k: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[k] = 1.0
    return e


def _random_model(name: str, dim_sys: int, dim_pr: int, seed: int):
    """Hamiltonian terms and initial system ket from the model seed, rotated
    into the frame drawn from the run seed."""
    rng = np.random.default_rng(MODEL_SEED[name])
    terms = [(_unit_hermitian(rng, dim_sys), _unit_hermitian(rng, dim_pr))
             for _ in range(2)]
    psi = _random_complex(rng, dim_sys)
    psi /= np.linalg.norm(psi)
    u = _random_unitary(np.random.default_rng(seed), dim_sys)
    terms = [{"a": _complex_matrix(u @ a @ u.conj().T), "b": _complex_matrix(b)}
             for a, b in terms]
    return terms, u @ psi


def _block_projectors(dim_pr: int, block: int) -> list:
    return [[_complex_vector(_basis_ket(dim_pr, k)) for k in range(i, i + block)]
            for i in range(0, dim_pr, block)]


def selective_sweep_doc(seed: int, tiny: bool = False) -> dict:
    """The bundled swap_selective scenario; the seed does not enter it."""
    with open(os.path.join(BUNDLED_DIR, "swap_selective.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if tiny:
        doc.update(t_max=2.0, grid_points=50)
    return doc


def nonselective_d32_doc(seed: int, tiny: bool = False) -> dict:
    """dim_sys 4 x dim_pr 8, probe measured in four rank-2 blocks of its basis."""
    dim_sys, dim_pr = (2, 4) if tiny else (4, 8)
    terms, psi = _random_model("nonselective_d32", dim_sys, dim_pr, seed)
    return {
        "name": "nonselective_d32",
        "mode": "compare",
        "hamiltonian": {"terms": terms},
        "gamma": 5.0,
        "tau": 0.04,
        "projectors": _block_projectors(dim_pr, 2),
        "initial_sys": {"ket": _complex_vector(psi)},
        "initial_pr": {"ket": _complex_vector(_basis_ket(dim_pr, 0))},
        "t_max": 2.0 if tiny else 10.0,
        "grid_points": 5 if tiny else 10,
        "outputs": ["purity", "trace"],
        "tolerances": {"max_deviation": 0.05},
    }


def selective_long_d16_doc(seed: int, tiny: bool = False) -> dict:
    """dim_sys 4 x dim_pr 4, rank-2 selected probe projector, 50,000 periods."""
    dim_sys = 2 if tiny else 4
    terms, psi = _random_model("selective_long_d16", dim_sys, 4, seed)
    return {
        "name": "selective_long_d16",
        "mode": "compare",
        "hamiltonian": {"terms": terms},
        "omega": 1.0,
        "tau": 2e-4,
        "projectors": _block_projectors(4, 2),
        "selected_index": 0,
        "initial_sys": {"ket": _complex_vector(psi)},
        "initial_pr": {"ket": _complex_vector(_basis_ket(4, 0))},
        "t_max": 0.2 if tiny else 10.0,
        "grid_points": 10 if tiny else 100,
        "outputs": ["matrix", "purity", "trace", "p_err"],
        "tolerances": {"max_deviation": 0.01},
    }


_DOCS = {
    "selective_sweep": selective_sweep_doc,
    "nonselective_d32": nonselective_d32_doc,
    "selective_long_d16": selective_long_d16_doc,
}


def write_scenario(workload: str, seed: int, out_dir: str, tiny: bool = False) -> str:
    """Write the workload's scenario file for `seed` into out_dir; return its path."""
    doc = _DOCS[workload](seed, tiny)
    path = os.path.join(out_dir, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def command_args(workload: str, tiny: bool = False) -> tuple[str, ...]:
    """Extra CLI arguments after the scenario path."""
    if tiny and workload == "selective_sweep":
        return TINY_TAUS
    return WORKLOADS[workload].extra_args
