import numpy as np
import pytest

from helpers import hermitian_eig, random_ket
from stroblim import (HamiltonianSpec, InitialState, MeasurementSpec,
                      basis_ket, heisenberg3_hamiltonian, kron,
                      measurement_from_kets, pauli, projector_from_kets,
                      swap_hamiltonian)
from stroblim.linalg import is_projector, max_abs

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)


class TestPauli:
    def test_identity(self):
        assert np.array_equal(pauli(0), np.eye(2))

    def test_sigma_z_eigenstates(self):
        assert max_abs(pauli(3) @ basis_ket("u") - basis_ket("u")) == 0
        assert max_abs(pauli(3) @ basis_ket("d") + basis_ket("d")) == 0

    def test_product_algebra(self):
        # 2x2 multiplication oracle: sx sy = i sz
        sx, sy = pauli(1), pauli(2)
        prod = np.array([[sum(sx[i, k] * sy[k, j] for k in range(2))
                          for j in range(2)] for i in range(2)])
        assert max_abs(prod - 1j * pauli(3)) == 0
        assert max_abs(pauli(1) @ pauli(2) - 1j * pauli(3)) == 0

    def test_bad_index(self):
        with pytest.raises(ValueError):
            pauli(4)


class TestSwapHamiltonian:
    def test_swaps_product_states(self, rng):
        ham = swap_hamiltonian(3.0)
        psi = random_ket(rng, 2)
        phi = random_ket(rng, 2)
        assert max_abs(ham.assemble() @ np.kron(psi, phi)
                       - 3.0 * np.kron(phi, psi)) < 1e-12

    def test_squares_to_identity(self):
        h = swap_hamiltonian(1.0).dimensionless()
        assert max_abs(h @ h - np.eye(4)) < 1e-12

    def test_spectrum(self):
        w, _ = hermitian_eig(swap_hamiltonian(1.0).assemble())
        assert np.allclose(w, [-1.0, 1.0, 1.0, 1.0])

    def test_equals_swap_matrix(self):
        assert max_abs(swap_hamiltonian(2.5).assemble() - 2.5 * SWAP) < 1e-12

    def test_term_norms_stay_unit(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            swap_hamiltonian(7.0)


class TestHeisenberg3:
    def test_global_field_conserves_total_z(self):
        ham = heisenberg3_hamiltonian(1.3, "global_z")
        sz_total = (kron(pauli(3), np.eye(4)) + kron(np.eye(2), pauli(3), np.eye(2))
                    + kron(np.eye(4), pauli(3)))
        h = ham.assemble()
        comm = h @ sz_total - sz_total @ h
        assert max_abs(comm) < 1e-12

    def test_local_field_traceless_hermitian(self):
        h = heisenberg3_hamiltonian(2.0, "local_xyz").assemble()
        assert max_abs(h - h.conj().T) < 1e-12
        assert abs(np.trace(h)) < 1e-12

    def test_polarized_state_exchange_eigenstate(self):
        # exchange part alone: fully aligned spins carry eigenvalue 3*gamma
        gamma = 2.0
        ham = heisenberg3_hamiltonian(gamma, "global_z")
        uuu = basis_ket("uuu")
        got = ham.assemble() @ uuu
        # global z field adds 3*gamma on the same state
        assert max_abs(got - 6.0 * gamma * uuu) < 1e-12

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            heisenberg3_hamiltonian(1.0, "radial")


class TestProjectorFromKets:
    def test_single_ket(self):
        p = projector_from_kets([basis_ket("u")])
        assert max_abs(p - np.array([[1, 0], [0, 0]])) == 0
        assert is_projector(p)

    def test_zero_total_spin_pair(self):
        p = projector_from_kets([basis_ket("ud"), basis_ket("du")])
        assert is_projector(p)
        assert round(np.trace(p).real) == 2
        assert max_abs(p @ basis_ket("ud") - basis_ket("ud")) == 0
        assert max_abs(p @ basis_ket("uu")) == 0

    def test_aligned_pair(self):
        p = projector_from_kets([basis_ket("uu"), basis_ket("dd")])
        assert is_projector(p)
        assert round(np.trace(p).real) == 2

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            projector_from_kets([basis_ket("u"), basis_ket("u")])


class TestSpecs:
    def test_hamiltonian_requires_hermitian_assembly(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(1.0, ((np.array([[0, 1], [0, 0]]), np.eye(2)),))

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_hamiltonian_rejects_non_finite_factors(self, entry):
        a = pauli(1)
        a[0, 1] = entry
        with pytest.raises(ValueError, match="term 1: factor entries must be finite"):
            HamiltonianSpec(1.0, ((pauli(3), pauli(3)), (np.eye(2), a)))

    def test_hamiltonian_rejects_an_overflowing_assembly(self):
        # finite factors whose products overflow to inf - inf = NaN
        big = np.full((2, 2), 1e200)
        with (np.errstate(over="ignore", invalid="ignore"), pytest.warns(UserWarning),
              pytest.raises(ValueError, match="not Hermitian")):
            HamiltonianSpec(1.0, ((big, big),))

    def test_hamiltonian_warns_on_large_factor(self):
        with pytest.warns(UserWarning):
            HamiltonianSpec(1.0, ((2.0 * pauli(3), pauli(3)),))

    def test_norm_warning_points_at_the_caller(self):
        # the dataclass-generated __init__ sits between the check and the
        # caller; a warning attributed to it reads "<string>:5"
        with pytest.warns(UserWarning, match="Hamiltonian term 0") as record:
            HamiltonianSpec(1.0, [(2 * np.eye(2), np.eye(2))])
        assert [w.filename for w in record] == [__file__]

    def test_with_gamma_shares_the_validated_terms(self, monkeypatch):
        import stroblim.model as model
        with pytest.warns(UserWarning, match="Hamiltonian term 0"):
            ham = HamiltonianSpec(1.0, ((2.0 * pauli(3), pauli(3)),))

        def no_check(*args):
            raise AssertionError("terms validated again")

        monkeypatch.setattr(model, "op_norm", no_check)
        scaled = ham.with_gamma(2.5)
        assert (scaled.gamma, ham.gamma) == (2.5, 1.0)
        assert scaled.terms is ham.terms
        assert np.array_equal(scaled.assemble(), 2.5 * ham.dimensionless())

    def test_assembly_identity(self, rng):
        from helpers import random_hamiltonian_spec
        ham = random_hamiltonian_spec(rng, 2, 3, n_terms=3, gamma=1.7)
        direct = sum(1.7 * kron(a, b) for a, b in ham.terms)
        assert max_abs(ham.assemble() - direct) < 1e-13

    def test_measurement_requires_orthogonality(self):
        p = np.array([[1, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            MeasurementSpec((p, p), None)

    def test_nonselective_requires_completeness(self):
        p = np.array([[1, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            MeasurementSpec((p,), None)
        MeasurementSpec((p,), 0)  # selective single projector is fine

    def test_nonselective_ranks_cover_probe(self):
        spec = measurement_from_kets([[basis_ket("uu"), basis_ket("dd")],
                                      [basis_ket("ud")], [basis_ket("du")]])
        assert sum(spec.ranks) == spec.dim_pr

    def test_measurement_bases_follow_ket_order(self):
        spec = measurement_from_kets([[basis_ket("du"), basis_ket("ud")]], 0)
        assert max_abs(spec.bases[0][:, 0] - basis_ket("du")) == 0
        assert max_abs(spec.bases[0][:, 1] - basis_ket("ud")) == 0

    def test_initial_state_checks_density(self):
        with pytest.raises(ValueError):
            InitialState(np.eye(2), np.eye(2) / 2)

    def test_initial_state_from_kets_normalizes(self):
        init = InitialState.from_kets([2.0, 0.0], [0.0, 1.0])
        assert abs(np.trace(init.rho_sys) - 1.0) < 1e-14
        assert max_abs(init.joint() - kron(init.rho_sys, init.rho_pr)) == 0
