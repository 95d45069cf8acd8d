import argparse
import collections
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import bundled_path, load_bundled, random_hermitian, ranks
from stroblim.cli import (COMMANDS, ScenarioError, build_parser, load_scenario,
                          main, read_argv, read_csv, render_chart,
                          scenario_from_dict, trajectory_columns,
                          write_trajectory_csv)
from stroblim.experiments import run_method
from stroblim.trajectory import Trajectory


def bundled_doc(name):
    return json.loads(Path(bundled_path(name)).read_text())


def complex_pairs(m):
    """A complex matrix in the scenario schema: rows of [re, im] pairs."""
    return [[[z.real, z.imag] for z in row] for row in m]


class TestScenarioParsing:
    def test_bundled_files_load(self):
        for name in ("swap_selective", "heisenberg_local_fields",
                     "heisenberg_global_field", "swap_nonselective"):
            sc = scenario_from_dict(bundled_doc(name))
            assert sc.name == name

    def test_omega_inconsistency_rejected(self):
        doc = bundled_doc("swap_selective")
        doc["omega"] = 2.0  # gamma^2 tau = 1
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_omega_consistency_is_relative(self):
        # 3000^2 * 0.07 rounds to 630000.0000000001, 1.2e-10 off
        doc = bundled_doc("swap_selective")
        doc.update(gamma=3000.0, tau=0.07, omega=630000.0, t_max=7.0, grid_points=100)
        assert scenario_from_dict(doc).hamiltonian.gamma == 3000.0

    def test_single_rate_rejected(self):
        doc = bundled_doc("swap_selective")
        del doc["tau"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_zero_omega_cannot_give_tau(self):
        doc = bundled_doc("swap_selective")
        del doc["tau"]
        doc["omega"] = 0.0
        with pytest.raises(ScenarioError, match="scenario key 'omega'"):
            scenario_from_dict(doc)

    def test_omega_tau_pair_resolves_gamma(self):
        doc = bundled_doc("swap_nonselective")
        sc = scenario_from_dict(doc)
        assert abs(sc.hamiltonian.gamma - 5.0) < 1e-12

    def test_missing_key_reported(self):
        doc = bundled_doc("swap_selective")
        del doc["projectors"]
        with pytest.raises(ScenarioError, match="projectors"):
            scenario_from_dict(doc)

    def test_explicit_terms_hamiltonian(self):
        doc = bundled_doc("swap_selective")
        sz = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        doc["hamiltonian"] = {"terms": [{"a": sz, "b": sz}]}
        sc = scenario_from_dict(doc)
        want = 5.0 * np.kron(np.diag([1, -1]), np.diag([1, -1]))
        assert np.allclose(sc.hamiltonian.assemble(), want)

    def test_amplitude_ket_parses(self):
        doc = bundled_doc("swap_selective")
        doc["projectors"] = [[[[1.0, 0.0], [0.0, 0.0]]]]
        sc = scenario_from_dict(doc)
        assert ranks(sc.measurement) == (1,)

    def test_t_max_is_bounded_by_exact_period_counts(self):
        doc = bundled_doc("swap_selective")
        doc["grid_points"] = 2 ** 10
        doc["t_max"] = doc["tau"] * 2 ** 52
        assert scenario_from_dict(doc).t_max == doc["t_max"]
        doc["t_max"] = doc["tau"] * 2 ** 53
        with pytest.raises(ScenarioError, match="scenario key 't_max'"):
            scenario_from_dict(doc)

    def test_one_load_validates_once(self, monkeypatch):
        # Scenario makes every check, and the CLI none of them again; h is
        # assembled once, by the Hamiltonian's four kron terms
        import stroblim.cli as cli
        import stroblim.experiments as experiments
        import stroblim.model as model
        calls = collections.Counter()

        def counted(name, original, *owners):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            for owner in owners:
                monkeypatch.setattr(owner, name, wrapper, raising=False)

        for name in ("check_scale", "check_periods"):
            counted(name, getattr(experiments, name), experiments, cli)
        counted("probe_block", model.InitialState.probe_block, model.InitialState)
        counted("kron", model.kron, model)
        sc = load_scenario(bundled_path("swap_selective"))
        assert len(sc.hamiltonian.terms) == 4
        assert calls == {"check_scale": 1, "check_periods": 1, "probe_block": 1,
                         "kron": 4}

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "mode": }\n')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(str(path))


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        sc = load_bundled("swap_selective", t_max=2.0)
        traj = run_method(sc, "exact")
        path = tmp_path / "traj.csv"
        write_trajectory_csv(str(path), traj, sc.outputs, "exact")
        header, rows = read_csv(str(path))
        names, want_rows = trajectory_columns(traj, sc.outputs)
        assert header == names + ["method"]
        assert len(rows) == len(want_rows)
        for row, want in zip(rows, want_rows):
            assert row["method"] == "exact"
            for name, value in zip(names, want):
                assert row[name] == value  # 17 significant digits round-trip

    def test_bytes_match_per_value_formatting(self, tmp_path):
        values = [-0.0, 5e-324, 1e300, 0.1, math.inf, math.nan]
        norms = np.array(values[::-1])
        traj = Trajectory(np.array(values), np.ones((6, 1, 1), dtype=complex), norms)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(str(path), traj, ("trace", "p_err"), "limit")
        want = "t,trace_unnormalized,p_err,method\n" + "".join(
            f"{t:.17g},{p:.17g},{1.0 - p:.17g},limit\n"
            for t, p in zip(values, norms.tolist()))
        assert path.read_bytes() == want.encode()

    def test_matrix_columns(self, tmp_path):
        sc = load_bundled("swap_selective", t_max=1.0, outputs=("matrix",))
        traj = run_method(sc, "limit")
        names, rows = trajectory_columns(traj, sc.outputs)
        assert "re_0_0" in names and "im_1_0" in names
        assert rows[0][names.index("re_0_0")] == pytest.approx(0.2)


class TestCommands:
    def test_run_writes_files(self, tmp_path):
        rc = main(["run", bundled_path("swap_selective"), "--out-dir",
                   str(tmp_path), "--grid-points", "50"])
        assert rc == 0
        assert (tmp_path / "swap_selective_exact.csv").exists()
        assert (tmp_path / "swap_selective_limit.csv").exists()

    def test_run_nonselective_writes_three_methods(self, tmp_path):
        rc = main(["run", bundled_path("swap_nonselective"), "--out-dir",
                   str(tmp_path), "--grid-points", "25"])
        assert rc == 0
        for m in ("exact", "limit", "closed_form"):
            assert (tmp_path / f"swap_nonselective_{m}.csv").exists()

    @staticmethod
    def large_norms_file(tmp_path):
        # a valid 2x4 model, probe measured in two rank-2 blocks, with factor
        # norms of 250 and gamma / 250^2: h, T_ij and D_i are large while
        # H = gamma h is not; HamiltonianSpec only warns about such norms
        rng = np.random.default_rng(2016)
        terms = [{"a": complex_pairs(random_hermitian(rng, 2, norm=250.0)),
                  "b": complex_pairs(random_hermitian(rng, 4, norm=250.0))}
                 for _ in range(2)]
        doc = {"name": "large_norms", "mode": "compare",
               "hamiltonian": {"terms": terms}, "gamma": 5.0 / 250 ** 2,
               "tau": 0.04, "projectors": [["uu", "ud"], ["du", "dd"]],
               "initial_sys": {"ket": "u"}, "initial_pr": {"ket": "uu"},
               "t_max": 2.0, "grid_points": 5, "outputs": ["purity", "trace"],
               "tolerances": {"max_deviation": 0.05}}
        path = tmp_path / "large_norms.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_compare_with_large_factor_norms(self, tmp_path, capsys):
        path = self.large_norms_file(tmp_path)
        with pytest.warns(UserWarning, match="operator norm exceeds 1"):
            rc = main(["compare", path, "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_sweep_warns_about_factor_norms_once(self, tmp_path):
        # every tau runs on the terms validated at load, so the sweep warns
        # once per term, as loading does, even with repeats shown
        path = self.large_norms_file(tmp_path)

        def messages(run):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                run()
            return [str(w.message) for w in seen]

        loaded = messages(lambda: load_scenario(path))
        assert [m[:17] for m in loaded] == ["Hamiltonian term "] * 2
        assert messages(lambda: main(["sweep", path, "--tau", "0.04,0.02,0.01",
                                      "--out-dir", str(tmp_path)])) == loaded

    def test_run_from_a_state_off_the_measured_blocks(self, tmp_path):
        # both sides apply the channel at t = 0, so both CSVs start alike
        doc = bundled_doc("swap_nonselective")
        doc["initial_pr"] = {"ket": [[0.6, 0.0], [0.8, 0.0]]}
        path = tmp_path / "tilted.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
        exact, limit = (read_csv(str(tmp_path / f"swap_nonselective_{m}.csv"))[1]
                        for m in ("exact", "limit"))
        assert len(exact) == len(limit) == 251
        for key in ("p_up", "purity", "trace_unnormalized"):
            assert abs(exact[0][key] - limit[0][key]) <= 1e-14

    def test_run_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            main(["run", bundled_path("swap_selective"), "--out-dir", str(out),
                  "--grid-points", "50"])
        fa = (a / "swap_selective_exact.csv").read_bytes()
        fb = (b / "swap_selective_exact.csv").read_bytes()
        assert fa == fb

    @pytest.mark.parametrize("base, changes, reported, fault", [
        ("swap_selective", changes, reported, None) for changes, reported in [
        ({"omega": 3.0}, "omega"),
        ({"selected_index": True}, "selected_index"),
        ({"grid_points": 250.7}, "grid_points"),
        ({"tolerances": {"max_deviation": float("nan")}}, "tolerances.max_deviation"),
        ({"tolerances": {"max_deviation": float("inf")}}, "tolerances.max_deviation"),
        ({"tolerances": {"max_deviation": 0.0}}, "tolerances.max_deviation"),
        ({"t_max": float("inf")}, "t_max"),
        ({"t_max": float("nan")}, "t_max"),
        ({"gamma": float("nan")}, "gamma"),
        ({"tau": float("nan")}, "tau"),
        ({"gamma": "five"}, "gamma"),
        ({"gamma": True}, "gamma"),
        ({"t_max": 1e308}, "t_max"),
        ({"name": "../escaped"}, "name"),
        ({"name": "a\\b"}, "name"),
        ({"name": ".."}, "name"),
        ({"name": ""}, "name"),
        ({"name": ["a"]}, "name"),
        ({"hamiltonian": {"terms": 5}}, "hamiltonian.terms"),
        # written as JSON's Infinity and NaN
        *[({"hamiltonian": {"terms": [{"a": complex_pairs(np.eye(2)),
                                       "b": complex_pairs(np.diag([1.0, x]))}]}},
           "hamiltonian.terms") for x in (math.inf, math.nan)],
        ({"initial_sys": {"matrix": [[[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}},
         "initial_sys.matrix"),
        # outside range(P) of the selected projector |u><u|
        ({"initial_pr": {"ket": [[0.6, 0.0], [0.8, 0.0]]}}, "initial_pr"),
        # The derived rates must be finite, a derived tau positive; the
        # squares must not overflow first.  A None value drops the key.
        ({"gamma": 1e200}, "omega"),
        ({"gamma": 1e160, "omega": 1.0, "tau": None}, "tau"),
        ({"gamma": 1e-200, "omega": 1.0, "tau": None}, "tau"),
        ({"omega": 1e300, "tau": 1e-10, "gamma": None}, "gamma"),
        # Scenario's own rules, each under the key it concerns
        ({"mode": "stochastic"}, "mode"),
        ({"mode": "nonselective"}, "mode"),     # with a selected_index
        ({"outputs": ["p_up", "spin"]}, "outputs"),
        ({"hamiltonian": {"terms": [{"a": complex_pairs(np.eye(4)),
                                     "b": complex_pairs(np.diag([1.0, -1.0]))}]},
          "initial_sys": {"ket": "uu"}, "outputs": ["bloch"]}, "outputs"),
        ({"grid_points": 7}, "grid_points"),
        ({"grid_points": 0}, "grid_points"),
        ({"methods": ["exact", "magic"]}, "methods"),
        ({"methods": ["exact", "closed_form"]}, "methods"),
        ({"methods": ["exact", "exact"]}, "methods"),
        ({"methods": []}, "methods"),
        ({"projectors": [["uu"]]}, "projectors"),
        ({"initial_sys": {"ket": "uu"}}, "initial_sys/initial_pr"),
        ({"t_max": -1.0}, "t_max"),
    ]] + [
        # the measurement's own rules, each naming its fault
        ("swap_nonselective", {"projectors": [["u", "uu"], ["d"]]}, "projectors",
         "the kets of outcome 0 differ in dimension"),
        ("swap_nonselective", {"projectors": [["u"], [[[0.0, 0.0], [2.0, 0.0]]]]},
         "projectors", "basis 1 is not orthonormal"),
        ("swap_nonselective", {"projectors": [["u"], ["u"]]}, "projectors",
         "outcomes 0 and 1 overlap"),
        ("swap_nonselective", {"projectors": [["u"]]}, "projectors",
         "requires a complete projector family"),
    ], ids=["inconsistent_omega", "bool_selected_index", "fractional_grid_points",
            "nan_tolerance", "inf_tolerance", "zero_tolerance", "inf_t_max",
            "nan_t_max", "nan_gamma", "nan_tau", "string_gamma", "bool_gamma",
            "overflowing_t_max", "parent_dir_name", "backslash_name",
            "dot_dot_name", "empty_name", "list_name", "non_list_terms",
            "inf_term", "nan_term",
            "ragged_state_matrix", "unsupported_initial_pr", "huge_gamma_with_tau",
            "huge_gamma_with_omega", "tiny_gamma_with_omega", "huge_omega_over_tau",
            "unknown_mode", "mode_against_selected_index", "unknown_output",
            "bloch_of_a_four_level_system", "off_lattice_grid", "zero_grid_points",
            "unknown_method", "inapplicable_closed_form", "repeated_method",
            "no_methods", "probe_dimension_mismatch",
            "initial_dimension_mismatch", "negative_t_max", "ragged_kets",
            "unnormalized_ket", "overlapping_outcomes", "incomplete_family"])
    def test_malformed_scenario_exits_2(self, tmp_path, capsys, base, changes,
                                        reported, fault):
        doc = bundled_doc(base)
        doc.update(changes)
        doc = {k: v for k, v in doc.items() if v is not None}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"scenario key '{reported}'" in err
        assert err.count("scenario key") == 1     # the key is named once
        assert fault is None or fault in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    def test_vanishing_probability_exits_3(self, tmp_path):
        doc = bundled_doc("swap_selective")
        doc["initial_sys"] = {"ket": [[0.0, 0.0], [1.0, 0.0]]}
        doc["t_max"] = 40.0
        doc["grid_points"] = 1000
        path = tmp_path / "dying.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 3

    def test_vanishing_limit_only_run_exits_3(self, tmp_path, capsys):
        # the branch probability exp(-T) falls below the floor of 1e-14 at
        # T = 32.24, sample 807 of 2,501; the output directory is made only
        # after a method's run has returned, so none is made
        doc = bundled_doc("swap_selective")
        doc.update(mode="limit-only", t_max=100.0, grid_points=2500,
                   initial_sys={"ket": "d"})
        path = tmp_path / "dying.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out)]) == 3
        assert ("branch probability vanished at T = 32.24 (step 806, "
                in capsys.readouterr().err)
        assert not out.exists()

    def test_allocation_failure_exits_3(self, tmp_path, capsys):
        # 10**17 grid times need 711 PiB, more than any address space, so the
        # allocation fails at once and allocates nothing
        doc = bundled_doc("swap_selective")
        doc.update(mode="limit-only", grid_points=10 ** 17)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err.startswith("runtime error: ")
        assert not (out / "swap_selective_limit.csv").exists()

    def test_overflowing_hamiltonian_exits_2(self, tmp_path, capsys):
        # finite factors a = b = diag(1e200, 1e200) overflow in the assembly;
        # the keyed message names the overflow, and no numpy warning escapes
        big = complex_pairs(np.diag([1e200, 1e200]))
        doc = bundled_doc("swap_selective")
        doc["hamiltonian"] = {"terms": [{"a": big, "b": big}]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = main(["compare", str(path), "--out-dir", str(out)])
        assert rc == 2
        assert [w.category for w in seen] == [UserWarning]    # the factor norm
        assert ("scenario key 'hamiltonian.terms': assembled Hamiltonian "
                "overflows to non-finite entries") in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_scaled_hamiltonian_exits_2(self, tmp_path, capsys):
        # a = b = diag(1e150, 1e150) assemble to a finite h = 1e300, but at
        # gamma = 1e10 and tau = 1e-10 neither gamma h nor Omega h^2 is finite;
        # the keyed message names the overflow, and no numpy warning escapes
        big = complex_pairs(np.diag([1e150, 1e150]))
        doc = bundled_doc("swap_selective")
        doc = {k: v for k, v in doc.items() if k not in ("gamma", "tau", "omega")}
        doc.update(hamiltonian={"terms": [{"a": big, "b": big}]}, gamma=1e10,
                   tau=1e-10, mode="limit-only")
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = main(["run", str(path), "--out-dir", str(out)])
        assert rc == 2
        assert [w.category for w in seen] == [UserWarning]    # the factor norm
        assert ("scenario key 'hamiltonian': gamma * h overflows to non-finite "
                "entries at gamma = 1e+10, tau = 1e-10") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["selective", "compare"])
    def test_ill_scaled_period_exits_2(self, tmp_path, capsys, mode):
        # gamma = tau = 1e10 give ||tau H||_1 = 1e20, beyond what the
        # exponential's scaling can tame: the scenario is refused under its
        # key before any output directory is made, alone or before the limit's
        doc = bundled_doc("swap_selective")
        doc.update(mode=mode, gamma=1e10, tau=1e10, t_max=1e10, grid_points=1)
        path = tmp_path / "ill_scaled.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "scenario key 'hamiltonian'" in err
        assert "ill-scaled input (1-norm 1.000e+20)" in err
        assert not out.exists()
        assert not list(out.glob("*.csv"))

    def test_ill_scaled_limit_only_run_makes_no_directory(self, tmp_path, capsys):
        # the limit's step exponential at gamma = tau = 1e10 cannot be
        # scaled; the run fails before any output directory is made
        doc = bundled_doc("swap_selective")
        doc.update(mode="limit-only", gamma=1e10, tau=1e10, t_max=1e10,
                   grid_points=1)
        path = tmp_path / "ill_scaled.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out)]) == 2
        assert "ill-scaled input" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    @pytest.mark.parametrize("name", ["swap_selective", "heisenberg_local_fields",
                                      "swap_nonselective"])
    def test_no_command_builds_joint_states(self, tmp_path, monkeypatch, name,
                                            command):
        # the outputs read the system states alone; the blocks of
        # Trajectory.states are a view for the tests
        def refuse(self):
            raise AssertionError("a command built Trajectory.states")

        monkeypatch.setattr(Trajectory, "states", property(refuse))
        args = ["--tau", "0.04,0.02"] if command == "sweep" else []
        sc = bundled_path(name)
        assert main([command, str(sc), "--out-dir", str(tmp_path), *args]) in (0, 1)

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_bloch_output_of_a_qutrit_exits_2_before_any_run(self, tmp_path, capsys,
                                                             monkeypatch, command):
        rng = np.random.default_rng(3)
        term = {"a": complex_pairs(random_hermitian(rng, 3, norm=1.0)),
                "b": complex_pairs(random_hermitian(rng, 2, norm=1.0))}
        doc = {"name": "qutrit", "mode": "compare", "hamiltonian": {"terms": [term]},
               "gamma": 5.0, "tau": 0.04, "projectors": [["u"], ["d"]],
               "initial_sys": {"ket": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
               "initial_pr": {"ket": "u"}, "t_max": 1.0, "grid_points": 5,
               "outputs": ["p_up", "bloch"]}
        path = tmp_path / "qutrit.json"
        path.write_text(json.dumps(doc))

        def refuse(*args):
            raise AssertionError("a method ran")

        monkeypatch.setattr("stroblim.cli.run_method", refuse)
        monkeypatch.setattr("stroblim.experiments.run_method", refuse)
        out = tmp_path / "out"
        assert main([command, str(path), "--out-dir", str(out)]) == 2
        assert "output 'bloch' needs a qubit system" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_pass_and_fail(self, tmp_path, capsys):
        # every printed line: the methods and metric, the verdict, the CSV
        path = tmp_path / "swap_selective_compare.csv"
        rc = main(["compare", bundled_path("swap_selective"), "--out-dir",
                   str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "swap_selective: methods exact/limit, metric p_up",
            "max deviation 0.00315581 vs tolerance 0.02: PASS",
            f"wrote {path}"]
        rc = main(["compare", bundled_path("swap_selective"), "--out-dir",
                   str(tmp_path), "--tolerance", "1e-6"])
        assert rc == 1
        assert capsys.readouterr().out.splitlines()[1] == \
            "max deviation 0.00315581 vs tolerance 1e-06: FAIL"
        assert path.exists()

    def test_compare_rejects_single_method(self, tmp_path):
        doc = bundled_doc("swap_selective")
        doc["mode"] = "selective"
        path = tmp_path / "single.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", str(path), "--out-dir", str(tmp_path)]) == 2

    def test_compare_takes_a_trillion_periods_per_sample(self, tmp_path):
        # t_max / grid_points / tau is 999999999999.9999 in floats: a stride
        # a few ulps off the integer 1e12.  The exact run ends at period 1e12,
        # 1e12 * tau = 1000.0000000000001, and reports the grid time t_max.
        doc = bundled_doc("swap_selective")
        del doc["gamma"]
        doc.update(tau=1e-9, omega=1.0, t_max=1000.0, grid_points=1)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", str(path), "--out-dir", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "swap_selective_compare.csv")
        assert [row["t"] for row in rows] == [0.0, 1000.0]

    @pytest.mark.parametrize("command", [["compare"], ["sweep", "--tau", "0.04,0.02"]])
    def test_one_method_scenario_exits_2(self, tmp_path, capsys, command):
        doc = bundled_doc("swap_selective")
        doc["mode"] = "limit-only"
        path = tmp_path / "limit.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main([command[0], str(path), "--out-dir", str(out), *command[1:]])
        assert rc == 2
        assert "at least two methods (mode 'compare')" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep(self, tmp_path, capsys):
        # every printed line: the tau list, one line per tau, the verdict, the CSV
        path = tmp_path / "swap_selective_sweep.csv"
        rc = main(["sweep", bundled_path("swap_selective"), "--out-dir",
                   str(tmp_path), "--tau", "0.04,0.02"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "swap_selective: sweep over tau = 0.04, 0.02",
            "  tau=0.04  max deviation 0.00315581",
            "  tau=0.02  max deviation 0.00157216",
            "strictly decreasing: yes",
            f"wrote {path}"]
        assert path.exists()

    def test_sweep_refuses_a_tiny_tau_before_running(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", bundled_path("swap_selective"), "--out-dir", str(out),
                   "--tau", "1e-300,0.04"])
        assert rc == 2
        assert "tau=1e-300: t_max/tau = 1e+301 periods" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_refuses_a_subnormal_tau_before_running(self, tmp_path, capsys):
        # t_max/tau overflows to inf, which steps_in cannot turn into a count
        out = tmp_path / "out"
        rc = main(["sweep", bundled_path("swap_selective"), "--out-dir", str(out),
                   "--tau", "0.04,1e-320"])
        assert rc == 2
        assert "t_max/tau = inf periods, expected fewer than 2**53" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_sweep_refuses_a_tau_above_t_max_before_running(self, tmp_path, capsys):
        # t_max = 10 spans no whole period of tau = 20; the reason says so
        out = tmp_path / "out"
        rc = main(["sweep", bundled_path("swap_selective"), "--out-dir", str(out),
                   "--tau", "0.04,20"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "tau=20: t_max = 10 spans no whole period, expected tau <= t_max" in err
        assert "grid point" not in err
        assert not out.exists()

    def test_sweep_single_tau_exits_2(self, tmp_path):
        rc = main(["sweep", bundled_path("swap_selective"), "--out-dir",
                   str(tmp_path), "--tau", "0.04"])
        assert rc == 2

    def test_sweep_increasing_tau_fails_verdict(self, tmp_path, capsys):
        rc = main(["sweep", bundled_path("swap_selective"), "--out-dir",
                   str(tmp_path), "--tau", "0.01,0.04"])
        assert rc == 1
        assert "strictly decreasing: no" in capsys.readouterr().out

    def test_sweep_with_zero_deviations_writes_its_table(self, tmp_path, capsys):
        # h = I (x) sigma_z commutes with the measurement and |0><0| is
        # stationary, so every method gives the same trace-distance series: 0
        doc = bundled_doc("swap_nonselective")
        doc["hamiltonian"] = {"terms": [{"a": complex_pairs(np.eye(2)),
                                         "b": complex_pairs(np.diag([1.0, -1.0]))}]}
        doc["initial_sys"] = {"ket": [[1.0, 0.0], [0.0, 0.0]]}
        doc["outputs"] = ["trace"]
        path = tmp_path / "still.json"
        path.write_text(json.dumps(doc))
        rc = main(["sweep", str(path), "--out-dir", str(tmp_path), "--tau", "0.04,0.01"])
        assert rc == 1
        assert "strictly decreasing: no" in capsys.readouterr().out
        lines = (tmp_path / "swap_nonselective_sweep.csv").read_text().splitlines()
        assert lines == ["tau,max_deviation,ratio_to_previous", "0.040000000000000001,0,",
                         "0.01,0,nan"]

    # A flag value is refused by the rule that owns it: --tolerance and
    # --grid-points by the Scenario, named by the flag, or by argparse's type
    # when it is no number; --tau by the sweep's per-tau check, named by tau.
    # A value starting with '-' takes the argparse route.
    @pytest.mark.parametrize("command, flag, value, named, reported", [
        ("sweep", "--tau", "0.04,0", "tau=0",
         "tau must be a finite positive number, got 0.0"),
        ("sweep", "--tau", "0.04,nan", "tau=nan",
         "tau must be a finite positive number, got nan"),
        ("sweep", "--tau", "0.04,1e400", "tau=inf",
         "tau must be a finite positive number, got inf"),
        ("sweep", "--tau", "0.04,-1", "tau=-1",
         "tau must be a finite positive number, got -1.0"),
        ("compare", "--tolerance", "nan", "argument --tolerance",
         "tolerance must be a finite positive number, got nan"),
        ("compare", "--tolerance", "0", "argument --tolerance",
         "tolerance must be a finite positive number, got 0.0"),
        ("compare", "--tolerance", "-1", "argument --tolerance",
         "tolerance must be a finite positive number, got -1.0"),
        ("compare", "--tolerance", "inf", "argument --tolerance",
         "tolerance must be a finite positive number, got inf"),
        ("run", "--grid-points", "0", "argument --grid-points",
         "expected at least one grid point, got 0"),
        ("run", "--grid-points", "7", "argument --grid-points",
         "grid times must fall on integer multiples"),
        ("run", "--grid-points", "2.5", "argument --grid-points",
         "invalid int value: '2.5'"),
    ], ids=["zero_tau", "nan_tau", "inf_tau", "negative_tau", "nan_tolerance",
            "zero_tolerance", "negative_tolerance", "inf_tolerance",
            "zero_grid_points", "off_lattice_grid_points", "fractional_grid_points"])
    def test_non_positive_or_non_finite_flag_exits_2(self, tmp_path, capsys, command,
                                                     flag, value, named, reported):
        rc = main([command, bundled_path("swap_selective"), "--out-dir",
                   str(tmp_path), flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{named}: {reported}" in err
        assert not list(tmp_path.iterdir())

    def test_limit_only_mode_allows_free_grid(self, tmp_path):
        doc = bundled_doc("swap_selective")
        doc["mode"] = "limit-only"
        doc["grid_points"] = 97  # not commensurate with tau; no exact method
        path = tmp_path / "limit.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "swap_selective_limit.csv").exists()
        assert not (tmp_path / "swap_selective_exact.csv").exists()

    def test_plot_p_up(self, tmp_path):
        main(["run", bundled_path("swap_selective"), "--out-dir", str(tmp_path),
              "--grid-points", "50"])
        csv = tmp_path / "swap_selective_exact.csv"
        svg = tmp_path / "chart.svg"
        assert main(["plot", str(csv), str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_plot_bloch(self, tmp_path):
        main(["run", bundled_path("heisenberg_local_fields"), "--out-dir",
              str(tmp_path), "--grid-points", "50"])
        csv = tmp_path / "heisenberg_local_fields_limit.csv"
        svg = tmp_path / "bloch.svg"
        assert main(["plot", str(csv), str(svg)]) == 0

    def test_plot_deterministic(self, tmp_path):
        main(["run", bundled_path("swap_selective"), "--out-dir", str(tmp_path),
              "--grid-points", "50"])
        csv = tmp_path / "swap_selective_limit.csv"
        s1, s2 = tmp_path / "one.svg", tmp_path / "two.svg"
        main(["plot", str(csv), str(s1)])
        main(["plot", str(csv), str(s2)])
        assert s1.read_bytes() == s2.read_bytes()

    def test_plot_rejects_unknown_columns(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("a,b,method\n1,2,x\n")
        assert main(["plot", str(path), str(tmp_path / "out.svg")]) == 2

    def test_plot_refuses_a_sweep_csv(self, tmp_path, capsys):
        # a sweep CSV has no chart columns; its empty first ratio_to_previous
        # cell is left unparsed
        out = tmp_path / "o"
        main(["sweep", bundled_path("swap_selective"), "--tau", "0.04,0.01",
              "--out-dir", str(out)])
        capsys.readouterr()
        svg = out / "s.svg"
        assert main(["plot", str(out / "swap_selective_sweep.csv"), str(svg)]) == 2
        assert capsys.readouterr().err.startswith("CSV has no plottable columns")
        assert not svg.exists()

    def test_plot_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,p_up,method\n")
        assert main(["plot", str(path), str(tmp_path / "out.svg")]) == 2

    @pytest.mark.parametrize("command", ["run", "plot"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        # an --out-dir that is a file, an SVG path under a missing directory
        csv = tmp_path / "swap_selective_limit.csv"
        main(["run", bundled_path("swap_selective"), "--out-dir", str(tmp_path),
              "--grid-points", "50"])
        capsys.readouterr()
        if command == "run":
            argv = ["run", bundled_path("swap_selective"), "--out-dir", str(csv)]
        else:
            argv = ["plot", str(csv), str(tmp_path / "missing" / "out.svg")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestArgv:
    """The table reader `read_argv` against the argparse tree of the same
    table: it reads canonical argv as argparse does, or declines."""

    def test_reader_declines_or_parses_as_argparse(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        every_flag = sorted({opt[0] for _, _, _, options in COMMANDS.values()
                             for opt in options})
        # abbreviations, unknown flags, help and the end-of-options marker
        odd = ["--out", "--tol", "--grid", "--ta", "--bogus", "-x", "-h",
               "--help", "--"]
        # values that pass each flag's type, and any value for any flag
        passing = {"--out-dir": ["out", "", "a b", "run", "7"],
                   "--grid-points": ["7", "50"], "--tolerance": ["0.04", "7"],
                   "--tau": ["0.04,0.01", "0.04", "7", ""]}
        value = st.sampled_from(["7", "0.04,0.01", "out", "", "0", "nan", "-1",
                                 "1e400", "abc", "0.04,-1"])
        any_flag = st.sampled_from(every_flag + odd)

        def forms(pairs):
            return pairs.map(list) | pairs.map(lambda fv: ["=".join(fv)])

        def argv_of(command):
            _, _, positionals, options = COMMANDS.get(command, (None, "", ("s",), ()))
            # mostly the command's own flags with values that pass
            valid = forms(st.sampled_from([opt[0] for opt in options]
                                          or every_flag).flatmap(
                lambda f: st.tuples(st.just(f), st.sampled_from(passing[f]))))
            noise = forms(st.tuples(any_flag, value)) | any_flag.map(lambda f: [f])
            name = st.sampled_from(["s.json", "plot", ""]).map(lambda n: [n])
            names = (st.lists(name, min_size=len(positionals),
                              max_size=len(positionals))
                     | st.lists(name, max_size=3))
            words = st.tuples(st.lists(valid | valid | valid | noise, max_size=4),
                              names)
            return words.flatmap(lambda ws: st.permutations(ws[0] + ws[1])).map(
                lambda ws: [command] + [w for word in ws for w in word])

        @hypothesis.settings(derandomize=True, database=None, deadline=None,
                             max_examples=250)
        @hypothesis.given(argv=st.just([]) | st.one_of(
            [argv_of(command) for command in [*COMMANDS, "bogus"]]))
        def check(argv):
            got = read_argv(argv)
            if got is not None:
                assert vars(got) == vars(build_parser().parse_args(argv))
                read.append(argv)

        read = []
        check()
        assert len(read) >= 30      # the draws reach the reader's accepting path

    @pytest.mark.parametrize("argv", [
        ["run", "s.json"],
        ["run", "--grid-points=50", "s.json", "--out-dir", "o", "--out-dir=p"],
        ["compare", "s.json", "--tolerance", "1e-3", "--out-dir="],
        ["sweep", "s.json", "--tau", "0.04,0.01", "--tau=0.0025"],
        ["sweep", "--out-dir", "o", "s.json"],
        ["plot", "a.csv", "b.svg"],
    ])
    def test_canonical_argv_is_read_as_argparse_reads_it(self, argv):
        assert vars(read_argv(argv)) == vars(build_parser().parse_args(argv))

    def test_canonical_commands_build_no_parser(self, tmp_path, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("argparse.ArgumentParser constructed")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        out = str(tmp_path)
        assert main(["run", bundled_path("swap_selective"), "--out-dir", out,
                     "--grid-points", "50"]) == 0
        assert main(["compare", bundled_path("swap_nonselective"),
                     f"--out-dir={out}", "--tolerance", "0.5"]) == 0
        assert main(["sweep", bundled_path("swap_selective"), "--tau", "0.04",
                     "--tau=0.01", "--out-dir", out]) == 0
        assert main(["plot", str(tmp_path / "swap_selective_limit.csv"),
                     str(tmp_path / "p_up.svg")]) == 0

    @pytest.mark.parametrize("argv, code, stream, text", [
        ([], 2, "err", "the following arguments are required: command"),
        (["--help"], 0, "out", "tau-convergence sweep at fixed omega"),
        (["sweep", "--help"], 0, "out", "--tau TAU"),
        (["run", "SCENARIO", "--bogus", "x"], 2, "err",
         "unrecognized arguments: --bogus x"),
        (["run", "SCENARIO", "--out-dir"], 2, "err",
         "argument --out-dir: expected one argument"),
        (["run", "SCENARIO", "--out-dir", "OUT", "--", "x"], 2, "err",
         "unrecognized arguments:"),
        (["plot", "a.csv"], 2, "err", "the following arguments are required: out_svg"),
    ], ids=["no_argv", "help", "command_help", "unknown_flag", "missing_value",
            "double_dash", "missing_positional"])
    def test_argparse_fallback_returns_its_exit_code(self, tmp_path, capsys, argv,
                                                     code, stream, text):
        argv = [{"SCENARIO": bundled_path("swap_selective"),
                 "OUT": str(tmp_path)}.get(a, a) for a in argv]
        assert main(argv) == code
        assert text in getattr(capsys.readouterr(), stream)
        assert not list(tmp_path.iterdir())

    def test_abbreviated_flag_writes_what_the_full_flag_writes(self, tmp_path):
        scenario = bundled_path("swap_selective")
        assert main(["run", scenario, "--out", str(tmp_path / "a"),
                     "--grid", "50"]) == 0
        assert main(["run", scenario, "--out-dir", str(tmp_path / "b"),
                     "--grid-points", "50"]) == 0
        for name in ("swap_selective_exact.csv", "swap_selective_limit.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


def test_compare_runs_without_scipy(tmp_path):
    # scipy is a test extra only; blocking its import must not break the CLI
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from stroblim import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code, "compare", bundled_path("swap_nonselective"),
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


class TestRenderChart:
    def test_basic_svg_structure(self):
        svg = render_chart([("m", [0, 1, 2], [0.0, 0.5, 1.0])], "t", "p")
        assert svg.count("<polyline") == 1
        assert svg.endswith("</svg>\n")
