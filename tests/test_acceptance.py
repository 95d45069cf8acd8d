"""Acceptance suite: one test per release criterion, each printing a verdict line.

Tolerances are pinned here and nowhere else; run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import importlib
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from helpers import (block_apply, block_evolve, bloch_ball_images,
                     bundled_path, channel_superop, choi_matrix, family_spec,
                     full_space_reference, hermitian_eig, is_unitary,
                     liouville_commutator, load_bundled, nonselective_channel,
                     random_hamiltonian_spec, random_hermitian, random_ket,
                     random_projector_family, random_unitary, run_alpha_family,
                     unvec, vec, zeno_limit)
from ode import (nonlinear_density_rhs, nonlinear_state_rhs, pauli_rates,
                 pauli_rhs, purity_derivative, rk4_sample)
from stroblim import (EvolutionPlan, InitialState, MeasurementSpec, basis_ket,
                      build_generator, effective_rank1, effective_rankr, kron,
                      measurement_from_kets, propagate_kraus, run_selective,
                      semigroup_propagate, swap_hamiltonian,
                      swap_nonselective_closed_form, trace_distance)
from stroblim.linalg import dag, expm, max_abs
from stroblim.nonselective_limit import packed_generator
from stroblim.cli import load_scenario
from stroblim.experiments import (_metric_for, _series_deviation, compare_case,
                                  compare_scenario, convergence_sweep)


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


# The deviation from a limit is O(tau): each 4x smaller tau divides it by
# about 4.  Ratios in [3.6, 4.4] put the fitted order within 0.08 of 1.
FIRST_ORDER = (3.6, 4.4)


def test_selective_exact_closed_form():
    """Simulated branch probability equals the exact closed form to 1e-10."""
    with criterion("selective exact closed form (1e-10)"):
        gamma, tau = 5.0, 0.04
        ham = swap_hamiltonian(gamma)
        meas = measurement_from_kets([[basis_ket("u")]], selected_index=0)
        for a2 in (0.01, 0.2, 0.6):
            init = InitialState.from_kets([np.sqrt(a2), np.sqrt(1 - a2)],
                                          basis_ket("u"))
            traj = run_selective(EvolutionPlan(ham, meas, tau, 250), init)
            n = np.arange(251)
            closed = a2 / (a2 + np.cos(gamma * tau) ** (2 * n) * (1 - a2))
            assert max_abs(traj.p_up() - closed) <= 1e-10


def test_selective_limit_agreement_and_convergence():
    """Exact vs limit within 0.02 at tau=0.04, shrinking at first order."""
    with criterion("selective limit agreement 0.02 + tau convergence"):
        for a2 in (0.01, 0.2, 0.6):
            report = convergence_sweep(load_bundled("swap_selective", a2),
                                       [0.04, 0.01, 0.0025])
            devs = [d for _, d in report.convergence]
            assert devs[0] <= 0.02
            assert report.strictly_decreasing
            assert all(FIRST_ORDER[0] <= r <= FIRST_ORDER[1]
                       for r in report.convergence_ratios)
        # fully excited initial state: probability pinned at 1 for both methods
        case = run_alpha_family("swap_selective", (0.01, 0.2, 0.6, 1.0))[1.0]
        for method in ("exact", "limit"):
            assert max_abs(case.trajectories[method].p_up() - 1.0) <= 1e-10


def test_effective_hamiltonian_identities():
    """H2 Hermitian PSD; rank-1 quadratic-form identity; rank-r consistency."""
    with criterion("effective-Hamiltonian identities (200 random cases)"):
        rng = np.random.default_rng(7)
        dims = [(ds, dp) for ds in (2, 3, 4) for dp in (2, 3, 4)]
        for case in range(100):
            ds, dp = dims[case % len(dims)]
            ham = random_hamiltonian_spec(rng, ds, dp, n_terms=2, gamma=2.0)
            tau = 0.25
            phi = random_ket(rng, dp)
            eff = effective_rank1(ham, phi, tau)
            assert max_abs(eff.h2[0] - dag(eff.h2[0])) <= 1e-10
            assert np.linalg.eigvalsh(eff.h2[0]).min() >= -1e-10
            h = ham.assemble()
            c = kron(np.eye(ds), np.outer(phi, phi.conj()))
            iso = kron(np.eye(ds), phi.reshape(-1, 1))
            d_op = (np.eye(ds * dp) - c) @ h @ iso
            assert max_abs(eff.h2[0] - (tau / 2) * dag(d_op) @ d_op) <= 1e-10
        for case in range(100):
            ds, dp = dims[case % len(dims)]
            ham = random_hamiltonian_spec(rng, ds, dp, n_terms=2, gamma=2.0)
            tau = 0.25
            if case % 3 == 0:
                # probe factors block-diagonal wrt P: no outward transitions
                r = int(rng.integers(1, dp))
                terms = []
                for a, _ in ham.terms:
                    b = np.zeros((dp, dp), dtype=complex)
                    b[:r, :r] = random_hermitian(rng, r)
                    b[r:, r:] = random_hermitian(rng, dp - r)
                    terms.append((a, b / np.linalg.norm(b, 2)))
                from stroblim import HamiltonianSpec
                ham = HamiltonianSpec(2.0, tuple(terms))
                v = np.eye(dp, dtype=complex)[:, :r]
            else:
                r = int(rng.integers(1, dp + 1))
                v = random_unitary(rng, dp)[:, :r]
            p = v @ dag(v)
            eff = effective_rankr(ham, MeasurementSpec((v,), 0), tau)
            assert max_abs(eff.h2[0] - dag(eff.h2[0])) <= 1e-10
            assert np.linalg.eigvalsh(eff.h2[0]).min() >= -1e-10
            h = ham.assemble()
            c = kron(np.eye(ds), p)
            leak = max_abs((np.eye(ds * dp) - c) @ h @ c)
            assert (max_abs(eff.h2[0]) <= 1e-12) == (leak <= 1e-12)
            if r == 1:
                # the rank-1 form of the same ket, at another phase
                e1 = effective_rank1(ham, np.exp(0.3j) * v[:, 0], tau)
                assert max_abs(eff.h1[0] - e1.h1[0]) <= 1e-12
                assert max_abs(eff.h2[0] - e1.h2[0]) <= 1e-12


def test_nonlinear_dynamics_consistency():
    """State, density, and Kraus routes agree to 1e-6; purity bookkeeping."""
    with criterion("nonlinear route consistency (1e-6) + purity (1e-4 FD)"):
        rng = np.random.default_rng(11)
        cases = []
        a2 = 0.2
        cases.append((effective_rank1(swap_hamiltonian(5.0), basis_ket("u"), 0.04),
                      np.array([np.sqrt(a2), np.sqrt(1 - a2)], dtype=complex)))
        for _ in range(20):
            ds = int(rng.integers(2, 4))
            dp = int(rng.integers(2, 4))
            ham = random_hamiltonian_spec(rng, ds, dp, n_terms=2, gamma=2.0)
            cases.append((effective_rank1(ham, random_ket(rng, dp), 0.25),
                          random_ket(rng, ds)))
        for eff, psi0 in cases:
            t_end = 10.0 / eff.omega
            h, n = t_end / 10, 10
            rho0 = np.outer(psi0, psi0.conj())
            dens = rk4_sample(partial(nonlinear_density_rhs, eff), rho0, h, n)
            stat = rk4_sample(partial(nonlinear_state_rhs, eff), psi0, h, n)
            phi = eff.layout.probe_bases[0][:, 0]
            init = InitialState(rho0, np.outer(phi, phi.conj()))
            kraus = propagate_kraus(eff, init, h, n)
            for k in range(n + 1):
                rho_s = np.outer(stat[k], stat[k].conj())
                assert trace_distance(dens[k], rho_s) <= 1e-6
                assert trace_distance(dens[k], kraus.states[k]) <= 1e-6
                assert trace_distance(rho_s, kraus.states[k]) <= 1e-6
                assert abs(np.trace(dens[k] @ dens[k]).real - 1.0) <= 1e-6
        # finite-difference purity derivative on the flagship case
        eff, psi0 = cases[0]
        phi = eff.layout.probe_bases[0][:, 0]
        init = InitialState(np.outer(psi0, psi0.conj()), np.outer(phi, phi.conj()))
        h = 1e-3
        for t in (0.5, 2.0, 5.0):
            # the states at t - h, t and t + h
            states = propagate_kraus(eff, init, h, round(t / h) + 1).states[-3:]
            fd = (np.trace(states[2] @ states[2]).real
                  - np.trace(states[0] @ states[0]).real) / (2 * h)
            assert abs(purity_derivative(eff, states[1]) - fd) <= 1e-4


def test_nonselective_generator_properties():
    """The block generator matches the full-space Lindblad and sandwich
    references; fixed point, CP, block closure, dispersion."""
    with criterion("semigroup generator identities (100 random families)"):
        rng = np.random.default_rng(13)
        combos = [(1, 4), (2, 2), (1, 6), (2, 3), (1, 8), (2, 4)]
        for case in range(100):
            ds, dp = combos[case % len(combos)]
            ham = random_hamiltonian_spec(rng, ds, dp, n_terms=2, gamma=2.0)
            spec = family_spec(random_projector_family(rng, dp))
            eff = build_generator(ham, spec, 0.25)
            ref = full_space_reference(ham, spec, 0.25)
            d = eff.layout.bases.shape[1]
            lam = channel_superop(ref.c_ops)
            sandwich = ref.sandwich()
            assert max_abs(sandwich - lam @ ref.lindblad @ lam) <= 1e-10
            ham_part = sum(liouville_commutator(ref.transition(i, i))
                           for i in range(len(eff.layout.bases)))
            assert max_abs(lam @ liouville_commutator(ref.h) @ lam
                           - lam @ ham_part @ lam) <= 1e-10
            from helpers import random_density
            rho = ref.channel(random_density(rng, d))
            rho = rho / np.trace(rho).real
            via_lindblad = ref.apply(rho)
            assert max_abs(unvec(sandwich @ vec(rho)) - via_lindblad) <= 1e-10
            assert max_abs(block_apply(eff, rho) - via_lindblad) <= 1e-12
            assert max_abs(block_evolve(eff, rho, 1.0)
                           - ref.evolve(rho, 1.0)) <= 1e-10
            assert max_abs(block_apply(eff, np.eye(d) / d)) <= 1e-10
            assert max_abs(ref.apply(np.eye(d) / d)) <= 1e-10
            assert max_abs(via_lindblad - ref.channel(via_lindblad)) <= 1e-12
            m = len(eff.layout.bases)
            for i in range(m):
                vi = eff.layout.bases[i]
                lhs = vi @ sum(eff.trans[i, j] @ eff.trans[j, i]
                               for j in range(m) if j != i) @ dag(vi)
                hii = ref.transition(i, i)
                rhs = ref.c_ops[i] @ ref.h @ ref.h @ ref.c_ops[i] - hii @ hii
                assert max_abs(lhs - rhs) <= 1e-12
            if case % 10 == 0:
                for t in (0.1, 1.0, 10.0):
                    choi = choi_matrix(expm(ref.lindblad * t))
                    w = np.linalg.eigvalsh((choi + dag(choi)) / 2)
                    assert w.min() >= -1e-8


def test_nonselective_closed_form_triple_agreement():
    """Closed form = block ODE = semigroup marginal; exact within 0.03,
    shrinking at first order."""
    with criterion("non-selective triple agreement (1e-8) + exact 0.03"):
        gamma, omega = 1.0, 0.1
        meas = measurement_from_kets([[basis_ket("u")], [basis_ket("d")]])
        eff = build_generator(swap_hamiltonian(gamma), meas, omega / gamma ** 2)
        rho_sys = np.array([[0.62, 0.18 - 0.1j], [0.18 + 0.1j, 0.38]])
        init = InitialState(rho_sys, np.diag([1.0, 0.0]).astype(complex))
        semi = semigroup_propagate(eff, init, 2.5, 16)
        layout = eff.layout
        # the block equations dr/dT = L r on the real coordinates
        blocks = layout.unpack(rk4_sample(packed_generator(eff).dot,
                                          layout.pack(layout.compress(init.joint())),
                                          2.5, 16, 8000))
        for k, t in enumerate(semi.times):
            cf = swap_nonselective_closed_form(gamma, omega, rho_sys, t)
            assert trace_distance(semi.sys_states[k], cf) <= 1e-8
            reduced = blocks[k].sum(axis=0)
            assert trace_distance(reduced, cf) <= 1e-8
            assert trace_distance(semi.sys_states[k], reduced) <= 1e-8
        for a2 in (0.01, 0.3, 0.6):
            report = convergence_sweep(load_bundled("swap_nonselective", a2),
                                       [0.04, 0.01, 0.0025])
            devs = [d for _, d in report.convergence]
            assert devs[0] <= 0.03
            assert report.strictly_decreasing
            assert all(FIRST_ORDER[0] <= r <= FIRST_ORDER[1]
                       for r in report.convergence_ratios)
        case = run_alpha_family("swap_nonselective", (0.01, 0.3, 0.6, 1.0))[1.0]
        for method in ("exact", "limit", "closed_form"):
            assert max_abs(case.trajectories[method].p_up() - 1.0) <= 1e-10
        # Bloch-ball contraction at Omega = 0.1, snapshots every 5 up to 40
        snapshots = bloch_ball_images(0.1, np.arange(0.0, 42.5, 5.0))
        assert len(snapshots) == 9
        late = snapshots[40.0]
        assert np.all(np.linalg.norm(late, axis=1) <= 1.0 + 1e-12)


def test_pauli_reduction():
    """Rank-1 monitoring reduces the diagonal to the classical rate equation."""
    with criterion("classical rate-equation reduction (1e-8)"):
        rng = np.random.default_rng(17)
        for dim in (3, 4, 6):
            from stroblim import HamiltonianSpec
            ham = HamiltonianSpec(2.0, ((np.eye(1),
                                         random_hermitian(rng, dim, norm=1.0)),))
            groups = random_projector_family(rng, dim, n_blocks=dim)
            eff = build_generator(ham, family_spec(groups), 0.25)
            h = full_space_reference(ham, family_spec(groups), 0.25).h
            w = pauli_rates(eff)
            assert np.all(w >= 0)
            for i in range(dim):
                ket = eff.layout.bases[i, :, 0]
                h_exp = np.vdot(ket, h @ ket).real
                h2_exp = np.vdot(ket, h @ h @ ket).real
                assert abs(w[:, i].sum() - eff.omega * (h2_exp - h_exp ** 2)) <= 1e-12
            p0 = rng.random(dim)
            p0 /= p0.sum()
            bases = eff.layout.bases[:, :, 0]
            rho0 = sum(p * np.outer(b, b.conj()) for p, b in zip(p0, bases))
            init = InitialState(np.eye(1, dtype=complex), rho0)
            traj = semigroup_propagate(eff, init, 0.5, 10)
            rates = rk4_sample(partial(pauli_rhs, w), p0, 0.5, 10, 4000)
            for k in range(len(traj)):
                populations = traj.states[k, :, 0, 0].real    # the 1 x 1 blocks
                assert max_abs(populations - rates[k]) <= 1e-8
                assert populations.min() >= -1e-10
                assert populations.max() <= 1.0 + 1e-10
                assert abs(populations.sum() - 1.0) <= 1e-10


def test_rank2_scenarios_qualitative():
    """Three-qubit runs: limit tracks exact, purity drops, cycle closes."""
    with criterion("rank-2 scenarios: deviation within tolerance, purity loss, "
                   "limit cycle"):
        sc_local = load_bundled("heisenberg_local_fields")
        rep_local = compare_scenario(sc_local)
        assert rep_local.max_deviation <= sc_local.tolerance
        rep_global = compare_scenario(load_bundled("heisenberg_global_field"))
        assert rep_global.max_deviation <= 0.1
        for rep in (rep_local, rep_global):
            for method in ("exact", "limit"):
                bl = rep.cases[0].trajectories[method].bloch()
                assert np.linalg.norm(bl, axis=1).max() <= 1.0 + 1e-8
        purity = rep_global.cases[0].trajectories["exact"].purities()
        assert purity[0] >= 1.0 - 1e-10
        assert purity.min() < 0.999
        # limit-cycle witness: a later point revisits an earlier one
        lim = rep_local.cases[0].trajectories["limit"]
        bl = lim.bloch()
        times = lim.times
        idx = np.where(times >= 5.0)[0]
        best = min(np.linalg.norm(bl[i] - bl[j])
                   for i in idx for j in idx if times[j] - times[i] > 0.5)
        assert best <= 0.05


def test_every_tolerance_rejects_the_zeno_dynamics(tmp_path, monkeypatch):
    """The paper's limit departs from the Zeno-subspace dynamics (H2 = 0, no
    jumps) on the time scale (gamma^2 tau)^-1; on each bundled file and each
    benchmark input, those dynamics must miss the file's own tolerance on its
    own metric, by at least 3x the paper limit's deviation, or the file's
    verdict could not tell a wrong H2 or jump term from the right one."""
    with criterion("Zeno-subspace dynamics fail every tolerance, >= 3x the limit"):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        scenarios = importlib.import_module("scenarios")
        paths = sorted(Path(bundled_path("swap_selective")).parent.glob("*.json"))
        assert len(paths) == 4
        paths += [scenarios.write_scenario(name, 1, str(tmp_path))
                  for name in ("nonselective_d32", "selective_long_d16")]
        for path in paths:
            sc = load_scenario(path)
            case = compare_case(sc)
            zeno = _series_deviation(_metric_for(sc), case.trajectories["exact"],
                                     zeno_limit(sc)).max()
            assert zeno > sc.tolerance, (sc.name, zeno)
            assert zeno >= 3 * case.max_deviation, (sc.name, zeno, case.max_deviation)


def test_structural_suites(tmp_path):
    """Channel idempotence, trace monotonicity, kernel algebra, CSV, CLI."""
    with criterion("structural: idempotence, monotonicity, kernel, CSV, exits"):
        rng = np.random.default_rng(19)
        from helpers import random_complex, random_density
        meas = measurement_from_kets([[basis_ket("u")], [basis_ket("d")]])
        for _ in range(10):
            rho = random_density(rng, 4)
            once = nonselective_channel(rho, meas)
            assert max_abs(nonselective_channel(once, meas) - once) <= 1e-12

        # kernel algebra: mixed product, exponential inverse, unitarity,
        # partial-trace cyclicity, eigendecomposition residual
        from stroblim import TensorDims, partial_trace
        a, c = (random_complex(rng, (2, 2)) for _ in range(2))
        b, e = (random_complex(rng, (3, 3)) for _ in range(2))
        assert max_abs(kron(a, b) @ kron(c, e) - kron(a @ c, b @ e)) <= 1e-12
        m = random_complex(rng, (4, 4))
        m = m / np.linalg.norm(m, 2) * 5.0
        assert max_abs(expm(m) @ expm(-m) - np.eye(4)) <= 1e-10
        h = random_hermitian(rng, 4, norm=1.0)
        for t in (0.0, 1.0, 10.0):
            assert is_unitary(expm(-1j * t * h), 1e-10)
        dims = TensorDims(2, 3)
        x = random_complex(rng, (6, 6))
        y = random_complex(rng, (3, 3))
        iy = kron(np.eye(2), y)
        assert max_abs(partial_trace(x @ iy, dims, "sys")
                       - partial_trace(iy @ x, dims, "sys")) <= 1e-12
        w, v = hermitian_eig(h)
        assert max_abs(h - (v * w) @ dag(v)) <= 1e-10

        traj = run_selective(
            EvolutionPlan(swap_hamiltonian(5.0),
                          measurement_from_kets([[basis_ket("u")]], 0),
                          0.04, 250),
            InitialState.from_kets([np.sqrt(0.2), np.sqrt(0.8)], basis_ket("u")))
        assert np.all(np.diff(traj.norms) <= 1e-12)

        # CSV round-trip exactness
        from stroblim.cli import (main, read_csv, trajectory_columns,
                                  write_trajectory_csv)
        outputs = ("p_up", "purity", "trace", "p_err")
        path = tmp_path / "t.csv"
        write_trajectory_csv(str(path), traj, outputs, "exact")
        names, want = trajectory_columns(traj, outputs)
        _, rows = read_csv(str(path))
        for row, want_row in zip(rows, want):
            for name, value in zip(names, want_row):
                assert row[name] == value

        # CLI exit-code contract on a temporary scenario pair
        import json
        with open(bundled_path("swap_selective"), encoding="utf-8") as fh:
            doc = json.load(fh)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(doc))
        assert main(["compare", str(good), "--out-dir", str(tmp_path)]) == 0
        assert main(["compare", str(good), "--out-dir", str(tmp_path),
                     "--tolerance", "1e-9"]) == 1
        doc_bad = dict(doc)
        doc_bad["omega"] = 9.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc_bad))
        assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2
        doc_dead = dict(doc)
        doc_dead["initial_sys"] = {"ket": [[0.0, 0.0], [1.0, 0.0]]}
        doc_dead["t_max"] = 40.0
        doc_dead["grid_points"] = 1000
        dead = tmp_path / "dead.json"
        dead.write_text(json.dumps(doc_dead))
        assert main(["run", str(dead), "--out-dir", str(tmp_path)]) == 3
