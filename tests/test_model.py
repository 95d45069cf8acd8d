import warnings

import numpy as np
import pytest

from helpers import (family_spec, hermitian_eig, is_projector, lift,
                     projector_from_kets, random_complex, random_density,
                     random_ket, random_unitary, ranks)
from stroblim import (HamiltonianSpec, InitialState, MeasurementSpec,
                      basis_ket, heisenberg3_hamiltonian, kron,
                      measurement_from_kets, pauli, swap_hamiltonian)
from stroblim.linalg import TensorDims, dag, max_abs, partial_trace
from stroblim.model import BlockLayout

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
        # finite factors whose products overflow to inf: the fault is named,
        # and no numpy RuntimeWarning escapes, only the factor-norm warning
        big = np.full((2, 2), 1e200)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="overflows to non-finite entries"):
                HamiltonianSpec(1.0, ((big, big),))
        assert [w.category for w in seen] == [UserWarning]

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

    def test_assembly_is_made_once_and_read_only(self, monkeypatch):
        # h is assembled when the spec is made; every later read, also of a
        # with_gamma copy, returns that array
        import stroblim.model as model
        ham = swap_hamiltonian(1.0)

        def no_kron(*args):
            raise AssertionError("h assembled again")

        monkeypatch.setattr(model, "kron", no_kron)
        h = ham.dimensionless()
        assert ham.dimensionless() is h
        assert ham.with_gamma(2.5).dimensionless() is h
        with pytest.raises(ValueError, match="read-only"):
            h[0, 0] = 2.0
        assert np.array_equal(ham.with_gamma(2.5).assemble(), 2.5 * h)

    def test_assembly_identity(self, rng):
        from helpers import random_hamiltonian_spec
        ham = random_hamiltonian_spec(rng, 2, 3, n_terms=3, gamma=1.7)
        direct = sum(1.7 * kron(a, b) for a, b in ham.terms)
        assert max_abs(ham.assemble() - direct) < 1e-13

    def test_measurement_requires_orthogonality(self):
        up = np.array([[1], [0]], dtype=complex)
        with pytest.raises(ValueError, match="outcomes 0 and 1 overlap"):
            MeasurementSpec((up, up), None)

    def test_nonselective_requires_completeness(self):
        up = np.array([[1], [0]], dtype=complex)
        with pytest.raises(ValueError, match="requires a complete projector family"):
            MeasurementSpec((up,), None)
        MeasurementSpec((up,), 0)  # selective single projector is fine

    @pytest.mark.parametrize("bases, message", [
        ((), "needs at least one outcome"),
        ((np.eye(2)[:, :0], np.eye(2)), r"basis 0 has shape \(2, 0\)"),
        ((np.eye(2)[:, 0],), r"basis 0 has shape \(2,\)"),
        ((np.eye(2)[:, :1], np.eye(4)[:, :1]), r"basis 1 has shape \(4, 1\)"),
        ((np.eye(3)[:, :1], np.array([[0, 0], [1, 0], [0, 2]])),
         "basis 1 is not orthonormal"),
        ((np.eye(3)[:, :1], np.eye(3)[:, 1:], np.array([[0], [0], [np.nan]])),
         "basis 2 has non-finite entries"),
        ((np.eye(3)[:, :2], np.eye(3)[:, 1:]), "outcomes 0 and 1 overlap"),
        ((np.eye(3)[:, 2:], np.eye(3)[:, :2] + 1e-9), "outcomes 0 and 1 overlap"),
    ], ids=["no_outcome", "empty_basis", "ket_not_matrix", "dimensions_differ",
            "unnormalized", "nan", "shared_column", "near_overlap"])
    def test_measurement_names_the_fault_and_the_outcome(self, bases, message):
        with pytest.raises(ValueError, match=message):
            MeasurementSpec(bases, 0)

    def test_projectors_and_ranks_read_the_bases(self, rng):
        u = random_unitary(rng, 5)
        spec = MeasurementSpec((u[:, :3], u[:, 3:]))
        assert ranks(spec) == (3, 2)
        assert spec.dim_pr == 5
        for v, p in zip(spec.bases, spec.projectors):
            assert np.array_equal(p, v @ dag(v))
            assert is_projector(p)

    def test_nonselective_ranks_cover_probe(self):
        spec = measurement_from_kets([[basis_ket("uu"), basis_ket("dd")],
                                      [basis_ket("ud")], [basis_ket("du")]])
        assert sum(ranks(spec)) == spec.dim_pr

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


def unequal_layout(rng, dim_sys=2, ranks=(1, 3)):
    """A layout of probe ranks `ranks` on a random basis, with its family."""
    cols = iter(random_unitary(rng, sum(ranks)).T)
    spec = family_spec([[next(cols) for _ in range(r)] for r in ranks])
    return BlockLayout(dim_sys, spec.bases), spec


class TestBlockLayout:
    def test_bases_are_padded_isometries(self, rng):
        # V_i+ V_i is the identity on the block's top left corner and V_i V_i+
        # the projector I_sys (x) P_i; the padding columns are zero
        layout, spec = unequal_layout(rng)
        assert layout.sizes.tolist() == [2, 6]
        assert layout.bases.shape == (2, 8, 6)
        for v, n, p in zip(layout.bases, layout.sizes, spec.projectors):
            gram = np.zeros((6, 6))
            gram[:n, :n] = np.eye(n)
            assert max_abs(dag(v) @ v - gram) <= 1e-14
            assert max_abs(v @ dag(v) - kron(np.eye(2), p)) <= 1e-14
            assert not v[:, n:].any()
        assert layout.mask.sum() == 4 + 36
        assert np.array_equal(layout.transpose[layout.transpose], np.arange(40))

    def test_pack_unpack_round_trip(self, rng):
        # a family of unequal ranks, so the block stack is padded
        layout, _ = unequal_layout(rng)
        x = random_complex(rng, (6,) + layout.mask.shape)
        blocks = np.where(layout.mask, (x + dag(x)) / 2, 0)
        coords = layout.pack(blocks)
        assert coords.dtype == np.float64
        assert coords.shape == (6, np.sum(layout.sizes ** 2))
        back = layout.unpack(coords)
        assert np.array_equal(back, dag(back))
        assert not back[:, ~layout.mask].any()
        scale = np.max(np.abs(blocks.real) + np.abs(blocks.imag))
        assert max_abs(back - blocks) <= 2 * np.spacing(scale)
        # an isometry: the coordinates keep the Frobenius norm of the blocks
        frob = np.linalg.norm(blocks.reshape(6, -1), axis=1)
        assert max_abs(np.linalg.norm(coords, axis=1) - frob) <= 1e-15

    def test_lift_inverts_compress_on_block_diagonal_states(self, rng):
        layout, spec = unequal_layout(rng)
        c_ops = [kron(np.eye(2), p) for p in spec.projectors]
        states = np.array([sum(c @ random_density(rng, 8) @ c for c in c_ops) / 2
                           for _ in range(3)])
        blocks = layout.compress(states)
        assert blocks.shape == (3, 2, 6, 6)
        assert not blocks[:, ~layout.mask].any()
        out = lift(layout, blocks)
        assert max_abs(out - states) <= 1e-14
        assert np.array_equal(out, dag(out))

    def test_lift_reads_the_lower_triangle_only(self, rng):
        # whatever a block with a real diagonal holds above that diagonal, the
        # state is Hermitian bit for bit and the same as for the Hermitian
        # block with the same lower triangle
        layout, _ = unequal_layout(rng)
        x = np.where(layout.mask, random_complex(rng, (4,) + layout.mask.shape), 0)
        x[..., np.arange(6), np.arange(6)] = x.diagonal(axis1=-2, axis2=-1).real
        hermitian = np.tril(x) + dag(np.tril(x, -1))
        got = lift(layout, x)
        assert np.array_equal(got, dag(got))
        assert np.array_equal(got, lift(layout, hermitian))

    @pytest.mark.parametrize("dim_sys, ranks", [(2, (1, 3)), (3, (1, 3, 1)),
                                                (2, (2, 1, 2)), (1, (2, 1))])
    def test_marginal_is_the_partial_trace_of_the_lift(self, rng, dim_sys, ranks):
        # unequal ranks on a random probe frame, so the blocks are padded and
        # the probe bases are not computational
        layout, _ = unequal_layout(rng, dim_sys, ranks)
        x = random_complex(rng, (5,) + layout.mask.shape)
        blocks = np.where(layout.mask, x + dag(x), 0)
        got = layout.marginal(blocks)
        want = partial_trace(lift(layout, blocks),
                             TensorDims(dim_sys, sum(ranks)), "sys")
        assert got.shape == (5, dim_sys, dim_sys)
        assert max_abs(got - want) <= 1e-14 * max_abs(want)
        # one state and a stack of stacks take the same map
        assert np.array_equal(layout.marginal(blocks[0]), got[0])
        nested = blocks.reshape((5, 1) + blocks.shape[1:])
        assert np.array_equal(layout.marginal(nested)[:, 0], got)

    def test_pairs_hold_the_compressions_on_the_diagonal(self, rng):
        layout, _ = unequal_layout(rng)
        x = random_complex(rng, (8, 8))
        pairs = layout.pairs(x)
        assert pairs.shape == (2, 2, 6, 6)
        for i in range(2):
            assert max_abs(pairs[i, i] - layout.compress(x)[i]) <= 1e-14
            for j in range(2):
                want = dag(layout.bases[i]) @ x @ layout.bases[j]
                assert max_abs(pairs[i, j] - want) <= 1e-14
