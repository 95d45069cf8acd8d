import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from helpers import (bundled_path, conj_stack, counting_expm, hermitian_eig,
                     is_projector, is_unitary, outputs_at_one_and_two_threads,
                     random_complex, random_hermitian)
from ode import rk4_step
from stroblim import (TensorDims, expm, is_density, is_hermitian, is_psd, kron,
                      partial_trace, pauli)
from stroblim.linalg import (_GEMM_BUDGET, _action_is_cheaper, dag, expm_action,
                             expm_step, factor_powers, max_abs, op_norm,
                             psd_factor, real_trace, step_powers, taylor_degree,
                             trace_distance)


def kron_oracle(a, b):
    """Entry-by-entry Kronecker expansion."""
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na * nb, na * nb), dtype=complex)
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k, j * nb + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_with_up_projector(self):
        up = np.array([[1, 0], [0, 0]], dtype=complex)
        expected = np.diag([1.0, 0.0, -1.0, 0.0]).astype(complex)
        got = kron(pauli(3), up)
        assert max_abs(got - expected) == 0
        assert max_abs(got - kron_oracle(pauli(3), up)) == 0

    def test_flips_both_spins(self):
        uu = np.array([1, 0, 0, 0], dtype=complex)
        dd = np.array([0, 0, 0, 1], dtype=complex)
        assert max_abs(kron(pauli(1), pauli(1)) @ uu - dd) == 0

    def test_mixed_product_rule(self, rng):
        for _ in range(10):
            a, c = (random_complex(rng, (2, 2)) for _ in range(2))
            b, d = (random_complex(rng, (3, 3)) for _ in range(2))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert max_abs(lhs - rhs) < 1e-12

    def test_associative(self, rng):
        a = random_complex(rng, (2, 2))
        b = random_complex(rng, (3, 3))
        c = random_complex(rng, (2, 2))
        assert max_abs(kron(kron(a, b), c) - kron(a, kron(b, c))) < 1e-12

    def test_matches_oracle_on_random_input(self, rng):
        a = random_complex(rng, (3, 3))
        b = random_complex(rng, (2, 2))
        assert max_abs(kron(a, b) - kron_oracle(a, b)) < 1e-12


class TestExpm:
    def test_zero(self):
        assert max_abs(expm(np.zeros((3, 3))) - np.eye(3)) == 0

    def test_half_pi_sigma_x_rotation(self):
        # eigendecomposition oracle: e^{-i theta sx} = cos(theta) I - i sin(theta) sx
        got = expm(-1j * (np.pi / 2) * pauli(1))
        assert max_abs(got - (-1j) * pauli(1)) < 1e-14

    def test_diagonal(self):
        a, b = 0.3, -1.2 + 0.7j
        got = expm(np.diag([a, b]))
        assert max_abs(got - np.diag([np.exp(a), np.exp(b)])) < 1e-14

    def test_inverse_identity(self, rng):
        for _ in range(8):
            m = random_complex(rng, (4, 4))
            m = m / np.linalg.norm(m, 2) * 5.0
            assert max_abs(expm(m) @ expm(-m) - np.eye(4)) < 1e-10

    def test_hermitian_generator_gives_unitary(self, rng):
        h = random_hermitian(rng, 4, norm=1.0)
        for t in (0.0, 0.3, 1.7, 10.0):
            assert is_unitary(expm(-1j * t * h), 1e-10)

    def test_against_scipy(self, rng):
        for _ in range(6):
            m = random_complex(rng, (5, 5))
            assert max_abs(expm(m) - scipy.linalg.expm(m)) < 1e-11

    @pytest.mark.parametrize("kind", ["symmetric", "antisymmetric", "general"])
    def test_real_input_gives_a_real_result(self, rng, kind):
        # the Taylor kernel keeps real arithmetic whatever the structure of the input
        m = rng.standard_normal((6, 6))
        m = {"symmetric": m + m.T, "antisymmetric": m - m.T, "general": m}[kind]
        m = 2.0 * m / np.linalg.norm(m, 2)
        got = expm(m)
        assert got.dtype == np.float64
        assert max_abs(got - expm(m.astype(complex))) <= 1e-14
        assert max_abs(got - scipy.linalg.expm(m)) <= 1e-13

    @pytest.mark.parametrize("real", [True, False])
    def test_small_input_keeps_its_non_hermitian_part(self, rng, real):
        # entries near 1e-13 are within 1e-12 of Hermitian in absolute terms;
        # any rounding of m to its Hermitian part would err by about |m|
        m = random_complex(rng, (4, 4))
        m = (m.real if real else m) * 1e-13
        assert max_abs(expm(m) - (np.eye(4) + m)) <= 1e-15

    def test_nonfinite_rejected(self):
        bad = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            expm(bad)

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # a real 256 x 256 input at the d = 32 generator's 1-norm: products
        # alone, with no linear solve, round alike at one and two threads
        code = ("import hashlib\n"
                "import numpy as np\n"
                "from stroblim import expm\n"
                "a = np.random.default_rng(256).standard_normal((256, 256))\n"
                "a *= 13.5 / np.linalg.norm(a, 1)\n"
                "print(hashlib.sha256(expm(a).tobytes()).hexdigest())\n")
        one, two = outputs_at_one_and_two_threads(code)
        assert one == two


class TestPartialTrace:
    def test_product_state(self, rng):
        from helpers import random_density
        rs = random_density(rng, 3)
        rp = random_density(rng, 2)
        dims = TensorDims(3, 2)
        assert max_abs(partial_trace(kron(rs, rp), dims, "sys") - rs) < 1e-13
        assert max_abs(partial_trace(kron(rs, rp), dims, "pr") - rp) < 1e-13

    def test_bell_state(self):
        # explicit 4x4 index-sum oracle
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        oracle = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    oracle[i, j] += rho[i * 2 + p, j * 2 + p]
        assert max_abs(oracle - np.eye(2) / 2) < 1e-15
        assert max_abs(partial_trace(rho, TensorDims(2, 2), "sys") - oracle) == 0

    def test_maximally_mixed(self):
        got = partial_trace(np.eye(4) / 4, TensorDims(2, 2), "pr")
        assert max_abs(got - np.eye(2) / 2) < 1e-15

    def test_trace_preserving_and_linear(self, rng):
        dims = TensorDims(2, 3)
        x = random_complex(rng, (6, 6))
        y = random_complex(rng, (6, 6))
        assert abs(np.trace(partial_trace(x, dims, "sys")) - np.trace(x)) < 1e-12
        got = partial_trace(2.0 * x + 3.0j * y, dims, "pr")
        want = 2.0 * partial_trace(x, dims, "pr") + 3.0j * partial_trace(y, dims, "pr")
        assert max_abs(got - want) < 1e-12

    def test_cyclicity_in_traced_factor(self, rng):
        # tr_pr(X (I (x) Y)) = tr_pr((I (x) Y) X)
        dims = TensorDims(2, 3)
        x = random_complex(rng, (6, 6))
        y = random_complex(rng, (3, 3))
        iy = kron(np.eye(2), y)
        lhs = partial_trace(x @ iy, dims, "sys")
        rhs = partial_trace(iy @ x, dims, "sys")
        assert max_abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), TensorDims(2, 2), "sys")

    def test_unit_traced_factor_returns_input(self, rng):
        x = random_complex(rng, (3, 3))
        assert max_abs(partial_trace(x, TensorDims(3, 1), "sys") - x) == 0
        assert max_abs(partial_trace(x, TensorDims(1, 3), "pr") - x) == 0
        with pytest.raises(ValueError):
            partial_trace(x, TensorDims(3, 1), "probe")


class TestStacks:
    """partial_trace and trace_distance take (..., n, n) stacks and give the
    per-matrix loop bit for bit; 2-D input keeps its return type."""

    @pytest.mark.parametrize("dims", [TensorDims(2, 3), TensorDims(3, 2),
                                      TensorDims(3, 1), TensorDims(1, 3)])
    @pytest.mark.parametrize("keep", ["sys", "pr"])
    def test_partial_trace_stack_equals_loop(self, rng, dims, keep):
        x = random_complex(rng, (4, 5, dims.total, dims.total))
        got = partial_trace(x, dims, keep)
        want = np.array([[partial_trace(m, dims, keep) for m in row] for row in x])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        single = partial_trace(x[0, 0], dims, keep)
        assert isinstance(single, np.ndarray) and single.ndim == 2

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_trace_distance_stack_equals_loop(self, rng, n):
        def hermitian_stack(shape):
            m = random_complex(rng, shape + (n, n))
            return (m + np.conj(m).swapaxes(-1, -2)) / 2
        a, b = hermitian_stack((3, 7)), hermitian_stack((3, 7))
        got = trace_distance(a, b)
        want = np.array([[trace_distance(x, y) for x, y in zip(ra, rb)]
                         for ra, rb in zip(a, b)])
        assert got.shape == (3, 7)
        assert got.tobytes() == want.tobytes()
        assert type(trace_distance(a[0, 0], b[0, 0])) is float
        # one matrix against a stack broadcasts
        assert trace_distance(a[0], b[0, 0]).tobytes() == np.array(
            [trace_distance(x, b[0, 0]) for x in a[0]]).tobytes()

    def test_stacks_must_be_square(self):
        with pytest.raises(ValueError):
            partial_trace(np.zeros((3, 4, 2)), TensorDims(2, 2), "sys")
        with pytest.raises(ValueError):
            trace_distance(np.zeros(4), np.zeros(4))


class TestHermitianEig:
    def test_pauli_z(self):
        w, _ = hermitian_eig(pauli(3))
        assert np.allclose(w, [-1.0, 1.0])

    def test_pauli_x_eigenvectors(self):
        # characteristic polynomial of sx gives w = -+1 with (|u> -+ |d>)/sqrt2
        w, v = hermitian_eig(pauli(1))
        assert np.allclose(w, [-1.0, 1.0])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert max_abs(np.outer(v[:, 0], v[:, 0].conj()) - np.outer(minus, minus)) < 1e-12
        assert max_abs(np.outer(v[:, 1], v[:, 1].conj()) - np.outer(plus, plus)) < 1e-12

    def test_swap_spectrum(self):
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                        dtype=complex)
        w, _ = hermitian_eig(swap)
        assert np.allclose(w, [-1.0, 1.0, 1.0, 1.0])

    def test_reconstruction(self, rng):
        h = random_hermitian(rng, 5)
        w, v = hermitian_eig(h)
        assert max_abs(h - (v * w) @ v.conj().T) < 1e-10
        assert is_unitary(v, 1e-10)
        assert np.all(np.diff(w) >= -1e-14)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError):
            hermitian_eig(random_complex(rng, (3, 3)))


class TestRK4:
    """The RK4 step of the tests' ODE references (tests/ode.py)."""

    def test_exponential_decay(self):
        x = np.array([1.0])
        for _ in range(10):
            x = rk4_step(lambda y: -y, x, 0.1)
        assert abs(x[0] - np.exp(-1.0)) < 1e-6

    def test_null_derivative(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = rk4_step(lambda y: 0.0 * y, x, 0.5)
        assert np.array_equal(out, x)

    def test_phase_rotation_full_period(self):
        omega = 2.0
        psi0 = np.array([1.0 + 0.0j])
        n = 200
        dt = 2 * np.pi / omega / n
        psi = psi0
        for _ in range(n):
            psi = rk4_step(lambda y: 1j * omega * y, psi, dt)
        # global error O(dt^4)
        assert abs(psi[0] - psi0[0]) < 10 * (omega * dt) ** 4 * n


class TestExpmSample:
    """The dense path of `expm_step`, which a small matrix over many steps
    takes: one exponential, then one product per step."""

    @pytest.mark.parametrize("h, n", [
        pytest.param(0.000625, 16000, id="arange"),
        pytest.param(0.04, 250, id="linspace"),
    ])
    def test_uniform_grid_needs_one_exponential(self, monkeypatch, rng, h, n):
        calls = counting_expm(monkeypatch)
        a = -1j * random_hermitian(rng, 3, norm=1.0) - 0.1 * np.eye(3)
        out = step_powers(expm_step(a, h, n), np.eye(3, dtype=complex),
                          np.arange(n + 1))
        assert len(calls) == 1
        assert len(out) == n + 1
        assert max_abs(out[-1] - expm(a * (n * h))) <= 1e-10

    def test_zero_gaps_apply_nothing(self, monkeypatch, rng):
        # a run of no step has no step, and makes no exponential; a count of
        # 0 takes no step: y0 comes back bit for bit
        calls = counting_expm(monkeypatch)
        a = random_complex(rng, (3, 3))
        y0 = random_complex(rng, (3, 3))
        step = expm_step(a, 0.5, 0)
        assert step is None and calls == []
        out = step_powers(step, y0, np.zeros(3, dtype=np.int64))
        assert out.shape == (3, 3, 3)
        assert all(np.array_equal(y, y0) for y in out)


class TestExpmAction:
    def test_degree_minimises_the_products(self):
        assert taylor_degree(0.0) == (0, 1)
        assert taylor_degree(1.0) == (18, 1)          # theta_18 = 1.09
        assert taylor_degree(11.72) == (40, 2)        # 80 products; (55, 2) takes 110
        m, s = taylor_degree(1e3)
        assert s == math.ceil(1e3 / 9.9) and m == 55

    @pytest.mark.parametrize("norm1", [5.4 * 2.0 ** 61, np.inf, np.nan])
    def test_unscalable_norm_raises_the_pade_error(self, norm1):
        with pytest.raises(ValueError, match="ill-scaled input"):
            taylor_degree(norm1)
        if np.isfinite(norm1):
            with pytest.raises(ValueError, match="ill-scaled input"):
                expm(np.array([[norm1, 0.0], [0.0, 0.0]]) * (1 + 1j))
        # the step's error too, before its trace of inf - inf warns, and
        # for a run of no step as well
        for steps in (2, 0):
            with pytest.raises(ValueError, match="ill-scaled input"):
                expm_step(np.diag([norm1, -norm1]), 1.0, steps)

    def test_norms_under_the_former_bound_are_accepted(self):
        # just under theta_13 2^60 = 6.19e18, the bound of the degree-13 Pade
        # kernel; at 63 squarings the zero entry's exp(0) = 1 stays exact
        taylor_degree(6.1e18)
        got = expm(np.diag([-6.1e18, 0.0]))
        assert np.all(np.isfinite(got))
        assert got[1, 1] == 1.0

    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.7, 40.0])
    def test_matches_the_dense_exponential(self, rng, t):
        a = random_complex(rng, (12, 12)) / 3.0 - 0.5 * np.eye(12)
        y = random_complex(rng, 12)
        got = expm_action(a, y, t, taylor_degree(t * np.linalg.norm(a, 1)))
        want = expm(a * t) @ y
        assert max_abs(got - want) <= 1e-13 * max_abs(want)

    def test_makes_no_square_temporary(self, rng):
        a = random_complex(rng, (6, 6))
        shapes = []

        class Recording(np.ndarray):
            def __matmul__(self, other):
                out = np.asarray(self) @ other
                shapes.append(out.shape)
                return out

        expm_action(a.view(Recording), random_complex(rng, 6), 2.0,
                    taylor_degree(2.0 * np.linalg.norm(a, 1)))
        assert shapes and set(shapes) == {(6,)}

    @pytest.mark.parametrize("n, steps, norm1, action", [
        pytest.param(256, 10, 11.7, True, id="d32-compare"),
        pytest.param(8, 16000, 0.025, False, id="swap-sweep"),
        pytest.param(256, 10, 1.17e10, False, id="d32-huge-gaps"),
    ])
    def test_cost_rule(self, n, steps, norm1, action):
        assert _action_is_cheaper(n, steps, norm1, taylor_degree(norm1)) is action


class TestConjStack:
    """The stacked conjugation that `helpers.lift` takes its states by."""

    @staticmethod
    def relative_error(got, want):
        return max_abs(got - want) / max_abs(want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("t", [1, 2, 7, 1000])
    def test_matches_the_broadcast_product(self, rng, n, t):
        a, b = random_complex(rng, (n, n)), random_complex(rng, (n, n))
        s = random_complex(rng, (t, n, n))
        out = conj_stack(a, s, b)
        assert out.shape == (t, n, n)
        assert self.relative_error(out, a @ s @ b) <= 1e-14

    @pytest.mark.parametrize("t", [1, 3, 500])
    def test_rectangular_factors(self, rng, t):
        # the exact lift V r V+ with a 4x2 isometry, and a general (3, 2) a
        # against a (5, 4) b on (t, 2, 5) slices
        v = np.linalg.qr(random_complex(rng, (4, 2)))[0]
        s = random_complex(rng, (t, 2, 2))
        out = conj_stack(v, s, dag(v))
        assert out.shape == (t, 4, 4)
        assert self.relative_error(out, v @ s @ dag(v)) <= 1e-14
        a, b = random_complex(rng, (3, 2)), random_complex(rng, (5, 4))
        s = random_complex(rng, (t, 2, 5))
        assert self.relative_error(conj_stack(a, s, b), a @ s @ b) <= 1e-14

    @pytest.mark.parametrize("shapes", [((2, 2), (2, 2)), ((4, 2), (2, 4))])
    def test_empty_stack(self, shapes):
        (p, n), (m, q) = shapes
        out = conj_stack(np.ones((p, n)), np.zeros((0, n, m), dtype=complex),
                         np.ones((m, q)))
        assert out.shape == (0, p, q)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_each_slice_is_the_same_alone_and_in_the_batch(self, rng, n):
        # helpers.lift relies on it: a state must not depend on its batch
        a = random_complex(rng, (n, n))
        for t in (2, 3, 64, 5000):
            s = random_complex(rng, (t, n, n))
            out = conj_stack(a, s, dag(a))
            for k in {0, 1, t // 2, t - 1}:
                assert np.array_equal(out[k], conj_stack(a, s[k:k + 1], dag(a))[0])
        v = np.linalg.qr(random_complex(rng, (2 * n, n)))[0]
        s = random_complex(rng, (300, n, n))
        out = conj_stack(v, s, dag(v))
        assert all(np.array_equal(out[k], conj_stack(v, s[k:k + 1], dag(v))[0])
                   for k in (0, 1, 150, 299))


class TestConjPowers:
    """The conjugation powers m^n r0 m^n+, carried as their factors m^n f
    (`factor_powers`)."""

    @staticmethod
    def contraction(rng, k):
        p = random_complex(rng, (k, k))
        return expm(-1j * random_hermitian(rng, k, norm=1.0) - 0.01 * p @ dag(p))

    def test_matches_matrix_power(self, rng):
        m, f = self.contraction(rng, 3), random_complex(rng, (3, 2))
        ns = [0, 1, 2, 2, 3, 17, 64, 65, 1000]
        out = factor_powers(m, f, ns)
        assert out.shape == (len(ns), 3, 2)
        for n, g in zip(ns, out):
            q = np.linalg.matrix_power(m, n)
            assert max_abs(g - q @ f) < 1e-12

    def test_each_state_depends_on_n_alone(self, rng):
        # the counts 0..n take the table, any others the bit walk; a single
        # n multiplies one row per level (numpy's GEMV, unless it goes as
        # two rows).  The long table has a level of c r rows, split by
        # _GEMM_BUDGET into chunks of `step` rows and a remainder of r rows:
        # a one-row chunk for r = 1.
        grids = [[0, 0, 5, 5, 6, 1023, 1024], list(range(40)),
                 list(range(7, 2000, 7)), [1024, 1024, 3000],
                 list(range(1, 1026)), sorted(list(range(1, 300)) + [150]),
                 [1]]
        for k, r in itertools.product((1, 2, 3, 5, 8), (1, 2)):
            m, f = self.contraction(rng, k), random_complex(rng, (k, r))
            step = max(2, _GEMM_BUDGET // k ** 2)
            c = step // r + 1
            lo = 1 << (c - 1).bit_length()
            table = factor_powers(m, f, np.arange(max(lo + c, 3001)))
            for ns in grids:
                assert np.array_equal(factor_powers(m, f, ns), table[ns])
            assert np.array_equal(factor_powers(m, f, np.r_[0, np.arange(len(table))]),
                                  table[np.r_[0, np.arange(len(table))]])
            singles = [*range(70), 1023, 1024, 1025, 3000, lo - 1, lo,
                       lo + step // r - 1, lo + step // r, lo + c - 1]
            for n in singles:
                assert np.array_equal(factor_powers(m, f, [n])[0], table[n])
            assert np.array_equal(table[0], f)

    def test_empty_ns_gives_an_empty_stack(self, rng):
        out = factor_powers(np.eye(3), random_complex(rng, (3, 2)), [])
        assert out.shape == (0, 3, 2)

    @pytest.mark.parametrize("ns", [[3, 2], [-1, 2]])
    def test_rejects_unsorted_or_negative_powers(self, ns):
        with pytest.raises(ValueError, match="non-negative and non-decreasing"):
            factor_powers(np.eye(2), np.eye(2), ns)


class TestPsdFactor:
    def test_a_pure_state_has_one_column(self, rng):
        psi = random_complex(rng, 6)
        psi /= np.linalg.norm(psi)
        f = psd_factor(np.outer(psi, psi.conj()))
        assert f.shape == (6, 1)
        assert max_abs(f @ dag(f) - np.outer(psi, psi.conj())) < 1e-15

    def test_a_mixed_state_keeps_its_rank(self, rng):
        v = np.linalg.qr(random_complex(rng, (5, 2)))[0]
        r0 = v @ np.diag([0.3, 0.7]) @ dag(v)
        f = psd_factor(r0)
        assert f.shape == (5, 2)
        assert max_abs(f @ dag(f) - r0) < 1e-15

    def test_negative_rounding_is_clipped(self, rng):
        # a density matrix accepted at 1e-10 whose least eigenvalue is
        # -1e-12: the factor drops it and is off by that much, no more
        v = np.linalg.qr(random_complex(rng, (3, 3)))[0]
        r0 = v @ np.diag([-1e-12, 0.4, 0.6 + 1e-12]) @ dag(v)
        assert is_density(r0)
        f = psd_factor(r0)
        assert f.shape == (3, 2)
        assert max_abs(f @ dag(f) - r0) < 2e-12


class TestRealTrace:
    # numpy's pairwise sum adds in sequence below 8 floats, which is 4
    # complex numbers, as einsum does: the same bits on short diagonals
    @pytest.mark.parametrize("n, dtype", [(1, complex), (2, complex),
                                          (3, complex), (1, float), (4, float),
                                          (7, float)])
    def test_bit_equal_to_numpy_trace_on_short_diagonals(self, rng, n, dtype):
        s = random_complex(rng, (50, n, n))
        s = s if dtype is complex else s.real.copy()
        want = np.trace(s, axis1=-2, axis2=-1).real
        assert np.array_equal(real_trace(s), want)
        assert np.array_equal(real_trace(s.reshape(5, 10, n, n)),
                              want.reshape(5, 10))

    @pytest.mark.parametrize("n", [4, 7, 8, 9, 16, 33, 64])
    def test_close_to_numpy_trace_on_long_diagonals(self, rng, n):
        s = random_complex(rng, (50, n, n))
        scale = np.abs(np.diagonal(s, axis1=-2, axis2=-1)).sum(axis=-1)
        diff = np.abs(real_trace(s) - np.trace(s, axis1=-2, axis2=-1).real)
        assert np.all(diff <= 1e-15 * n * scale)

    def test_a_matrix_gives_a_scalar(self, rng):
        m = random_complex(rng, (3, 3))
        out = real_trace(m)
        assert np.ndim(out) == 0 and isinstance(float(out), float)
        assert out == np.trace(m).real


def test_cli_runs_without_numpy_ma(tmp_path):
    # numpy.ma (pulled in by np.unique, among others) costs a fresh process
    # about 14 ms and 1.4 MB on import; the CLI's kernels must not need it
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "from stroblim import cli\n"
            "out, path = sys.argv[1], sys.argv[2]\n"
            "assert cli.main(['sweep', path, '--out-dir', out, "
            "'--tau', '0.04,0.01']) == 0\n"
            "assert cli.main(['compare', path, '--out-dir', out]) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), bundled_path("swap_selective")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestPredicates:
    def test_projector_density_unitary(self, rng):
        p = np.array([[1, 0], [0, 0]], dtype=complex)
        assert is_projector(p)
        assert not is_projector(0.5 * p)
        assert is_density(np.eye(3) / 3)
        assert not is_density(np.eye(3))
        assert is_hermitian(random_hermitian(rng, 4))
        assert is_psd(np.diag([0.0, 1.0]))
        assert not is_psd(np.diag([-1e-6, 1.0]))
        assert is_unitary(expm(-1j * random_hermitian(rng, 3)))

    def test_op_norm_and_trace_distance(self):
        assert abs(op_norm(2.0 * pauli(1)) - 2.0) < 1e-12
        assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1.0) < 1e-12
