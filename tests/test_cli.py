import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from emff import cli, verify
from emff.cli import main
from emff.orbit import K_J2
from conftest import infeasible_minima

SCENARIO = {
    "orbit": {"altitude_km": 500.0, "inclination_deg": 45.0, "theta0_deg": 0.0},
    "plane": {"theta_p_deg": 30.0, "theta_z_xy_deg": 0.0, "r_xyd_m": 100.0},
    "grid": {"n_list": [1, 2], "m_sys_kg": 100.0, "r_l_m": 200.0},
    "sampling": {"time_samples": 24, "dual_tol": 1e-10},
}

#: Inclination 60 deg, theta_p 15 deg: some rows of every report are off the
#: vertex branch of the closed form.
OFF_REGION = {
    **SCENARIO,
    "orbit": {**SCENARIO["orbit"], "inclination_deg": 60.0},
    "plane": {**SCENARIO["plane"], "theta_p_deg": 15.0},
}


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


def run_python(*args):
    """`python ARGS` in a subprocess that imports this checkout's src."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def run_module(*args):
    """`python -m emff ARGS` in a subprocess that imports this checkout's src."""
    return run_python("-m", "emff", *args)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestAllocateCmd:
    def test_axial_force_json(self, tmp_path):
        out = tmp_path / "alloc.json"
        code = main(
            ["allocate", "--r", "1,0,0", "--force", "1e-5,0,0", "--torque", "0,0,0",
             "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["gap"] <= 1e-6
        assert np.isclose(data["J_d_A2m4"], 100.0 / 3.0, rtol=1e-8)
        assert np.linalg.norm(data["wrench_residual"]) <= 1e-8 * 1e-5

    def test_missing_r_usage_error(self, capsys):
        assert main(["allocate", "--force", "1e-5,0,0"]) == 1

    def test_malformed_vector_usage_error(self):
        assert main(["allocate", "--r", "1,0", "--force", "1e-5,0,0"]) == 1

    def test_zero_wrench_zero_dipoles(self, tmp_path):
        out = tmp_path / "alloc.json"
        assert main(["allocate", "--r", "2,0,0", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["J_p_A2m4"] == 0.0
        assert np.all(np.array(data["dipole_j"]["s"]) == 0.0)

    def test_small_separation_numeric_failure(self):
        assert main(["allocate", "--r", "1e-5,0,0", "--force", "1e-5,0,0"]) == 2

    @pytest.mark.parametrize(
        "r,force,message",
        [
            ("1,0,0", "1e306,0,0", "dual objective must be finite"),  # the costs overflow
            ("1e77,0,0", "1e-5,0,0", "dual objective must be finite"),
            ("1e80,0,0", "1e-5,0,0", "separation 1.000e+80 m"),  # d**4 overflows
            ("1.5e308,1.5e308,0", "1,0,0", "fourth power overflows"),  # |r| overflows
            ("1e70,0,0", "1e50,0,0", "overflows"),  # the folded row overflows
            ("1e200,0,0", "0,1e200,0", "fourth power overflows"),  # so does force x r
        ],
        ids=["force-1e306", "r-1e77", "r-1e80", "r-1.5e308", "row-1e330", "hint-1e400"],
    )
    def test_overflow_numeric_failure(self, capsys, r, force, message):
        assert main(["allocate", "--r", r, "--force", force]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure: ") and message in err[0]

    @pytest.mark.parametrize(
        "command",
        [["--force", "1e-310,0,0"], ["--force", "4e-320,0,0"], ["--torque", "0,0,1e-318"]],
        ids=["force-1e-310", "force-4e-320", "torque-1e-318"],
    )
    def test_subnormal_command_succeeds(self, tmp_path, command):
        # commands whose folded row would be subnormal; these once exited 2
        out = tmp_path / "alloc.json"
        assert main(["allocate", "--r", "1.5e-3,0,0", *command, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["gap"] <= 1e-10

    def test_tol_flag_is_usage_error(self):
        assert main(["allocate", "--r", "1,0,0", "--force", "1e-5,0,0", "--tol", "1e-8"]) == 1

    def test_singular_newton_system_succeeds(self, tmp_path):
        # a stall reproducer: this well-posed command once exited 2
        from conftest import SINGULAR_D, SINGULAR_U

        force, torque = (",".join(map(repr, v)) for v in (SINGULAR_U[:3], SINGULAR_U[3:]))
        out = tmp_path / "alloc.json"
        args = ["allocate", "--frame", "los", "--r", f"{SINGULAR_D!r},0,0",
                "--force", force, "--torque", torque, "--out", str(out)]
        assert main(args) == 0
        assert abs(json.loads(out.read_text())["gap"]) <= 1e-10

    def test_tiny_hint(self, tmp_path):
        # a hint whose squared norm underflows still orients the frame
        out = tmp_path / "alloc.json"
        args = ["allocate", "--r", "1,0,0", "--hint", "0,1e-160,0",
                "--force", "1e-5,2e-6,0", "--out", str(out)]
        assert main(args) == 0
        assert json.loads(out.read_text())["gap"] <= 1e-10

    def test_k2_brigade_row(self, tmp_path):
        # a brigade row at k = 2 just off the closed form (f_x != 0), with a
        # rank-one optimum; a stall reproducer that once exited 2
        out = tmp_path / "alloc.json"
        args = ["allocate", "--frame", "los", "--r", "1,0,0",
                "--force", "8.498707952101829e-08,9.42307558520019e-06,0.0",
                "--torque", "0.0,0.0,-6.282050390133461e-06", "--out", str(out)]
        assert main(args) == 0
        data = json.loads(out.read_text())
        assert abs(data["J_d_A2m4"] - 62.8211426495) <= 1e-10
        assert abs(data["gap"]) <= 1e-10

    def test_k2_band_row(self, tmp_path):
        # an in-plane row of the k = 2 band (|f_x/f_y| ~ 7e-5, rank-two optimum):
        # its first certificate misses DEFAULT_TOL, so it goes on at a smaller mu;
        # a stall reproducer that once exited 2 at relative gap 2.5e-08
        out = tmp_path / "alloc.json"
        args = ["allocate", "--frame", "los", "--r", "1,0,0",
                "--force=-6.491922706186955e-06,-0.0933019117623529,0.0",
                "--torque", "0.0,0.0,0.0622012745457138", "--out", str(out)]
        assert main(args) == 0
        assert abs(json.loads(out.read_text())["gap"]) <= 1e-10


class TestOrbitCmd:
    def test_csv_shape_and_closure(self, scenario_path, tmp_path):
        out = tmp_path / "orbit.csv"
        assert main(["orbit", "--scenario", scenario_path, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:4] == ["t_s", "x_m", "y_m", "z_m"]
        assert "K11" in header and "K33" in header and "K_core_trace" in header
        assert len(rows) == SCENARIO["sampling"]["time_samples"]
        first, last = rows[0], rows[-1]
        closure = np.linalg.norm(
            [float(last[k]) - float(first[k]) for k in ("x_m", "y_m", "z_m")]
        )
        assert closure <= 1e-9
        k_scale = max(abs(float(rows[0][f"K{i}{j}"])) for i in (1, 2, 3) for j in (1, 2, 3))
        assert all(abs(float(r["K_core_trace"])) <= 1e-15 * k_scale for r in rows)

    def test_k_symmetric_in_csv(self, scenario_path, tmp_path):
        out = tmp_path / "orbit.csv"
        main(["orbit", "--scenario", scenario_path, "--out", str(out)])
        _, rows = read_csv(out)
        for r in rows[:5]:
            assert r["K12"] == r["K21"] and r["K13"] == r["K31"] and r["K23"] == r["K32"]


class TestScanCmd:
    def test_schema_and_values(self, scenario_path, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--scenario", scenario_path, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == [
            "n", "N_l", "r_l_m", "chi_sys_kg", "W_bar_W", "W_oint_W",
            "M_A2m4_per_kg", "gamma_S",
        ]
        assert [r["n"] for r in rows] == ["1", "2"]
        for r in rows:
            n_l = int(r["N_l"])
            assert n_l == 2 * int(r["n"]) + 1
            assert float(r["gamma_S"]) == float(n_l) ** (2.0 / 3.0)
            assert float(r["r_l_m"]) == 200.0
            assert float(r["W_bar_W"]) > 0.0

    @pytest.mark.parametrize("r_xyd", [1e-300, 1e-160, 1e300])
    def test_line_direction_independent_of_r_xyd(self, scenario_path, tmp_path, r_xyd):
        # the line direction is the trajectory chord normalized, whatever its size
        path = scenario_with(tmp_path, lambda s: s["plane"].update(r_xyd_m=r_xyd))
        ref, scaled = tmp_path / "ref.csv", tmp_path / "scaled.csv"
        assert main(["scan", "--scenario", scenario_path, "--out", str(ref)]) == 0
        assert main(["scan", "--scenario", path, "--out", str(scaled)]) == 0
        for want, got in zip(read_csv(ref)[1], read_csv(scaled)[1], strict=True):
            for key in ("M_A2m4_per_kg", "W_bar_W"):
                assert abs(float(got[key]) / float(want[key]) - 1.0) <= 1e-12

    def test_solver_failure_exit_code(self, scenario_path, monkeypatch):
        import emff.power
        from emff import SolverError

        def fail(*args, **kwargs):
            raise SolverError("stalled")

        monkeypatch.setattr(emff.power, "compute_power_reports", fail)
        assert main(["scan", "--scenario", scenario_path]) == 2

    def test_stalled_solve_exit_code(self, tmp_path, monkeypatch):
        import emff.dual

        # one Newton iteration leaves every solve stalled: allocate fails,
        # while a scan, whose rows are all costed in closed form, does not,
        # even off-region
        path = tmp_path / "off.json"
        path.write_text(json.dumps(OFF_REGION))
        monkeypatch.setattr(emff.dual, "_MAX_NEWTON", 1)
        assert main(["allocate", "--r", "1,0,0", "--force", "1e-5,0,0"]) == 2
        assert main(["scan", "--scenario", str(path), "--out", str(tmp_path / "o.csv")]) == 0

    def test_non_finite_sample_exit_code(self, tmp_path, monkeypatch, capsys):
        import emff.power

        unit_rows = emff.power._unit_rows

        def nan_sample(field, t):
            rows = unit_rows(field, t)
            rows[0, 1] = np.nan
            return rows

        monkeypatch.setattr(emff.power, "_unit_rows", nan_sample)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(SCENARIO))
        assert main(["scan", "--scenario", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.rstrip().endswith("at n = 1, 2")

    def test_solver_calls_per_report(self, tmp_path, monkeypatch):
        import emff.dual
        import emff.power

        calls, reports = [], []
        compute = emff.power.compute_power_reports

        def counting_solve(Q, u):
            calls.append(np.array(u))
            raise AssertionError("a scan called solve_dual_batch")

        def recording_reports(*args, **kwargs):
            reports.extend(compute(*args, **kwargs))
            return reports

        monkeypatch.setattr(emff.power, "solve_dual_batch", counting_solve)
        monkeypatch.setattr(emff.dual, "solve_dual_batch", counting_solve)
        monkeypatch.setattr(emff.power, "compute_power_reports", recording_reports)
        for scenario in (SCENARIO, OFF_REGION):
            path = tmp_path / "s.json"
            path.write_text(json.dumps(scenario))
            reports.clear()
            assert main(["scan", "--scenario", str(path), "--out", str(tmp_path / "o.csv")]) == 0
            # no scan calls the solver: every row is costed in closed form,
            # the off-region root rows each with a measured gap
            assert calls == []
            if scenario is SCENARIO:
                assert [(r.root_rows, r.gap) for r in reports] == [(0, 0.0), (0, 0.0)]
            else:
                assert all(r.root_rows > 0 and 0.0 < r.gap <= 1e-10 for r in reports)

    def test_peak_consistency_violation_reported(
        self, scenario_path, tmp_path, monkeypatch, capsys
    ):
        import emff.power

        expected = tmp_path / "expected.csv"
        assert main(["scan", "--scenario", scenario_path, "--out", str(expected)]) == 0
        compute = emff.power.compute_power_reports
        lifted = []

        def raised_pair(cfgs, field, coil, t_grid):
            # w*(3, t) of n = 2 lifted above w*(2, t) at the sixth sample
            reports = compute(cfgs, field, coil, t_grid)
            lifted.append(t_grid[5])
            reports[1] = dataclasses.replace(reports[1], peak_pair_violation=0.5, peak_pair_at=(3, t_grid[5]))
            return reports

        monkeypatch.setattr(emff.power, "compute_power_reports", raised_pair)
        out = tmp_path / "scan.csv"
        assert main(["scan", "--scenario", scenario_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"peak consistency violated at n=2 j=3 t={lifted[0]:.3f}s" in err
        # the CSV is still written in full
        assert out.read_bytes() == expected.read_bytes()

    def test_d_sat_grid_matches_power_reports(self, tmp_path):
        import emff

        scen = dict(SCENARIO, grid={"n_list": [2, 1], "m_sys_kg": 100.0, "d_sat_m": 30.0})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        out = tmp_path / "scan.csv"
        assert main(["scan", "--scenario", str(path), "--out", str(out)]) == 0
        ctx = emff.make_context(500e3, np.deg2rad(45.0), 0.0)
        field = emff.DisturbanceField.from_orbit(
            ctx, emff.StablePlane(theta_p=np.deg2rad(30.0), theta_z_xy=0.0, r_xyd=100.0)
        )
        coil = emff.CoilDesign(turns=200.0, coil_radius=0.5, wire_radius=1e-3, resistivity=1.68e-8)
        cfgs = [emff.GridConfig(n=n, m_sys=100.0, d_sat=30.0) for n in (1, 2)]
        grid = emff.orbit_time_grid(ctx.period, 24)
        reports = emff.compute_power_reports(cfgs, field, coil, grid)
        lines = [
            ",".join([str(r.n), str(2 * r.n + 1)]
                     + [f"{v:.17g}" for v in (r.r_l, r.chi_sys, r.W_bar, r.W_oint, r.M, r.gamma_S)])
            for r in reports
        ]
        assert out.read_text().splitlines()[1:] == lines

    def test_zero_separation_exit_code(self, tmp_path):
        # a 2.5 mm side puts the pairs 0.83 mm (n = 1) and 0.5 mm (n = 2) apart
        scen = dict(SCENARIO, grid={"n_list": [1, 2], "m_sys_kg": 100.0, "r_l_m": 2.5e-3})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        assert main(["scan", "--scenario", str(path)]) == 2

    def test_n_above_exact_scale_range_is_usage_error(self, tmp_path, capsys, monkeypatch):
        import emff.power

        # n(n+1)(2n+1) > 2^53: rejected before any cost table is formed
        monkeypatch.setattr(emff.power, "_pair_costs", lambda *args: pytest.fail("a cost table was formed"))
        scen = dict(SCENARIO, grid={"n_list": [1, 165140], "m_sys_kg": 100.0, "d_sat_m": 30.0})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        out = tmp_path / "scan.csv"
        assert main(["scan", "--scenario", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: n = 165140 is above 165139")
        assert not out.exists()

    def test_zero_j2_override_zero_power(self, tmp_path):
        scen = dict(SCENARIO, overrides={"k_j2": 0.0})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        out = tmp_path / "scan.csv"
        assert main(["scan", "--scenario", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for r in rows:
            assert float(r["W_bar_W"]) == 0.0
            assert float(r["W_oint_W"]) == 0.0
            assert float(r["M_A2m4_per_kg"]) == 0.0

    def test_deterministic_bytes(self, scenario_path, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["scan", "--scenario", scenario_path, "--out", str(out1)])
        main(["scan", "--scenario", scenario_path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        # without --out the same bytes go to stdout
        capsys.readouterr()
        assert main(["scan", "--scenario", scenario_path]) == 0
        assert capsys.readouterr().out.encode() == out1.read_bytes()

    def test_bad_scenario_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"orbit": {}}))
        assert main(["scan", "--scenario", str(path)]) == 1

    def test_non_object_scenario_usage_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([SCENARIO]))
        assert main(["scan", "--scenario", str(path)]) == 1

    def test_both_lengths_given_rejected(self, tmp_path):
        scen = json.loads(json.dumps(SCENARIO))
        scen["grid"]["d_sat_m"] = 5.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        assert main(["scan", "--scenario", str(path)]) == 1


def scenario_with(tmp_path, edit, name="edited.json"):
    """Path of SCENARIO after edit(scenario) has changed a deep copy of it."""
    scen = json.loads(json.dumps(SCENARIO))
    edit(scen)
    path = tmp_path / name
    path.write_text(json.dumps(scen))
    return str(path)


#: Every default of cli.SCENARIO, as the README states it.
DEFAULTS = [
    ("orbit", "theta0_deg", 0.0),
    ("coil", "turns", 200.0),
    ("coil", "coil_radius_m", 0.5),
    ("coil", "wire_radius_m", 1.0e-3),
    ("coil", "resistivity_ohm_m", 1.68e-8),
    ("sampling", "time_samples", 720),
    ("sampling", "dual_tol", 1e-10),
    ("overrides", "k_j2", K_J2),
]


class TestScenarioValidation:
    @pytest.mark.parametrize("value", [1e-6, 0.1, "abc"])
    def test_dual_tol_other_than_default_is_usage_error(self, tmp_path, capsys, value):
        path = scenario_with(tmp_path, lambda s: s["sampling"].update(dual_tol=value))
        assert main(["scan", "--scenario", path]) == 1
        assert "always solved at 1e-10" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,default", DEFAULTS, ids=[f"{s}.{k}" for s, k, _ in DEFAULTS])
    def test_default_key_is_optional(self, tmp_path, section, key, default):
        assert cli.SCENARIO[section][key] == default

        def give(s):
            s.setdefault(section, {})[key] = default

        def leave_out(s):
            s.get(section, {}).pop(key, None)

        given, left_out = scenario_with(tmp_path, give, "given.json"), scenario_with(tmp_path, leave_out)
        for command in ("scan", "orbit"):
            with_key, without = tmp_path / f"{command}_with.csv", tmp_path / f"{command}_without.csv"
            assert main([command, "--scenario", given, "--out", str(with_key)]) == 0
            assert main([command, "--scenario", left_out, "--out", str(without)]) == 0
            assert with_key.read_bytes() == without.read_bytes()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda s: s["grid"].update(n_list=[1, 2.7]), "grid.n_list entry"),
            (lambda s: s["grid"].update(n_list=[1, 0]), "grid.n_list entry"),
            (lambda s: s["grid"].update(n_list=[True]), "grid.n_list entry"),
            (lambda s: s["grid"].update(n_list=3), "grid.n_list"),
            (lambda s: s["sampling"].update(time_samples=24.9), "sampling.time_samples"),
            (lambda s: s["sampling"].update(time_samples=0), "sampling.time_samples"),
            (lambda s: s["grid"].pop("m_sys_kg"), "grid.m_sys_kg"),
            (lambda s: s["orbit"].pop("altitude_km"), "orbit.altitude_km"),
            (lambda s: s["plane"].pop("r_xyd_m"), "plane.r_xyd_m"),
            (lambda s: s.update(grid=[1, 2]), "'grid'"),
            (lambda s: s.update(coil=3), "'coil'"),
            (lambda s: s.update(sampling=[24]), "'sampling'"),
            (lambda s: s.update(overrides=["k_j2"]), "'overrides'"),
            # every numeric field is a finite JSON number: not null, a list, an
            # object, a bool, a string, NaN, Infinity or an int past the float range
            (lambda s: s["grid"].update(m_sys_kg=None), "grid.m_sys_kg must be a finite number"),
            (lambda s: s["grid"].update(m_sys_kg=[1]), "grid.m_sys_kg must be a finite number"),
            (lambda s: s["grid"].update(m_sys_kg={}), "grid.m_sys_kg must be a finite number"),
            (lambda s: s["grid"].update(m_sys_kg=True), "grid.m_sys_kg must be a finite number"),
            (lambda s: s["grid"].update(r_l_m=10**400), "grid.r_l_m must be a finite number"),
            (lambda s: s["plane"].update(r_xyd_m=float("nan")), "plane.r_xyd_m must be a finite number"),
            (lambda s: s["plane"].update(theta_p_deg=False), "plane.theta_p_deg must be a finite number"),
            (lambda s: s["orbit"].update(inclination_deg=float("inf")), "orbit.inclination_deg must be a finite"),
            (lambda s: s["orbit"].update(altitude_km="500"), "orbit.altitude_km must be a finite number"),
            (lambda s: s["orbit"].update(theta0_deg=None), "orbit.theta0_deg must be a finite number"),
            (lambda s: s.update(coil={"turns": "200"}), "coil.turns must be a finite number"),
            (lambda s: s.update(overrides={"k_j2": None}), "overrides.k_j2 must be a finite number"),
            # a misspelled section or key would otherwise fall back to its default
            (lambda s: s["orbit"].update(theta_0_deg=30.0), "unknown keys: orbit.theta_0_deg"),
            (lambda s: s.update(coil={"turn": 100.0}), "unknown keys: coil.turn"),
            (lambda s: s["sampling"].update(time_sample=48), "unknown keys: sampling.time_sample"),
            (lambda s: s["grid"].update(m_sys=1.0, r_l=5.0), "unknown keys: grid.m_sys, grid.r_l"),
            (lambda s: s.update(override={"k_j2": 0.0}), "unknown section 'override'"),
            # finite, but so high that r_ref^3 overflows: no finite orbit period
            (lambda s: s["orbit"].update(altitude_km=1e100), "gives no finite orbit period"),
            # finite, but the trajectory's amplitude 2 r_xyd / c_- overflows
            (lambda s: s["plane"].update(r_xyd_m=1e308), "r_xyd = 1e+308 m gives a trajectory amplitude"),
            # positive, but the trajectory is subnormal: rounding alone would turn its direction
            (lambda s: s["plane"].update(r_xyd_m=5e-324), "r_xyd = 5e-324 m gives a trajectory amplitude"),
        ],
    )
    def test_bad_input_is_usage_error(self, tmp_path, capsys, edit, message):
        path = scenario_with(tmp_path, edit)
        for command in ("scan", "orbit"):
            assert main([command, "--scenario", path, "--out", str(tmp_path / "o.csv")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err and "Traceback" not in err

    def test_coil_power_scale_past_float_range_is_usage_error(self, tmp_path, capsys):
        # every coil field is finite, but a^2 overflows in gamma = pi N a^2
        path = scenario_with(tmp_path, lambda s: s.update(coil={"coil_radius_m": 1e308}))
        assert main(["scan", "--scenario", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "power_scale" in err and "Traceback" not in err

    def test_integral_floats_accepted(self, scenario_path, tmp_path):
        def edit(s):
            s["grid"]["n_list"] = [2.0, 1]
            s["sampling"]["time_samples"] = 24.0

        path = scenario_with(tmp_path, edit)
        ref, floats = tmp_path / "ref.csv", tmp_path / "floats.csv"
        assert main(["scan", "--scenario", scenario_path, "--out", str(ref)]) == 0
        assert main(["scan", "--scenario", path, "--out", str(floats)]) == 0
        assert ref.read_bytes() == floats.read_bytes()


class TestVerifyCmd:
    def test_fast_suites_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(
            ["verify", "--suite", "averaging", "--suite", "telescoping",
             "--suite", "orbit", "--cases", "4", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert {s["suite"] for s in data["suites"]} == {"averaging", "telescoping", "orbit"}
        assert all(s["seconds"] >= 0.0 for s in data["suites"])

    def test_duality_suite_case_count(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", "duality", "--cases", "10", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["suites"][0]["cases"] == 10

    def test_bruteforce_suite(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", "bruteforce", "--cases", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["suites"][0]["cases"] == 3
        assert data["suites"][0]["failures"] == []

    def test_every_suite_reports_finite_worst_values(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--cases", "2", "--out", str(out)]) == 0
        suites = json.loads(out.read_text())["suites"]
        assert [s["suite"] for s in suites] == list(verify.SUITES)
        for s in suites:
            assert s["worst"], s["suite"]
            assert all(type(v) is float and np.isfinite(v) for v in s["worst"].values())

    def test_same_seed_same_bytes(self, tmp_path):
        def run(name):
            out = tmp_path / name
            assert main(["verify", "--cases", "2", "--seed", "5", "--out", str(out)]) == 0
            return [line for line in out.read_text().splitlines() if '"seconds"' not in line]

        assert run("a.json") == run("b.json")

    @pytest.mark.parametrize("suite", ["duality", "bruteforce", "telescoping"])
    def test_stalled_solves_are_case_failures(self, tmp_path, monkeypatch, suite):
        import emff.dual

        # one Newton iteration stalls every allocate: each case fails on its
        # own and the summary is still written
        monkeypatch.setattr(emff.dual, "_MAX_NEWTON", 1)
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", suite, "--cases", "2", "--out", str(out)]) == 2
        data = json.loads(out.read_text())
        assert data["passed"] is False
        failures = data["suites"][0]["failures"]
        assert [f.split(":")[0] for f in failures] == ["case 0", "case 1"]
        assert all("stalled" in f for f in failures)
        # a case that raised adds no value to worst
        assert not any(np.isnan(v) for v in data["suites"][0]["worst"].values())

    @pytest.mark.parametrize("suite", ["duality", "bruteforce"])
    def test_uncertified_results_are_case_failures(self, tmp_path, monkeypatch, suite):
        # a non-finite certificate, or an oracle with no feasible restart, is a
        # failure of its case, and the summary is still written
        import emff.allocation
        import emff.dual

        solve_dual_batch = emff.dual.solve_dual_batch

        def infinite_dual(Q, u):
            return {**solve_dual_batch(Q, u), "J_d": np.full(len(u), np.inf)}

        if suite == "duality":
            monkeypatch.setattr(emff.dual, "solve_dual_batch", infinite_dual)
            message = "dual objective must be finite"
        else:
            monkeypatch.setattr(emff.allocation, "_manifold_minima", infeasible_minima)
            message = "no feasible allocation after 20 restarts"
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", suite, "--cases", "2", "--out", str(out)]) == 2
        failures = json.loads(out.read_text())["suites"][0]["failures"]
        assert [f.split(":")[0] for f in failures] == ["case 0", "case 1"]
        assert all(message in f for f in failures)

    @pytest.mark.parametrize("cases", ["0", "-5"])
    def test_case_count_below_one_is_usage_error(self, tmp_path, capsys, cases):
        out = tmp_path / "verify.json"
        assert main(["verify", "--suite", "averaging", "--cases", cases, "--out", str(out)]) == 1
        assert "--cases must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupted_torque_blocks_fail_telescoping(self, tmp_path, monkeypatch):
        import emff.magnetics

        # a sign error in the torque blocks must not pass the telescoping suite
        monkeypatch.setattr(emff.magnetics, "PSI_TORQUE", -emff.magnetics.PSI_TORQUE)
        out = tmp_path / "verify.json"
        code = main(["verify", "--suite", "telescoping", "--cases", "3", "--out", str(out)])
        assert code == 2
        data = json.loads(out.read_text())
        assert not data["passed"]
        assert data["suites"][0]["failures"]
        assert data["suites"][0]["worst"]["realization_error"] > 1e-6

    def test_corrupt_flag_is_usage_error(self):
        assert main(["verify", "--suite", "telescoping", "--corrupt-psi-tau"]) == 1

    def test_unknown_suite_usage_error(self):
        assert main(["verify", "--suite", "nonsense"]) == 1


class TestParserCache:
    def test_calls_share_one_parser_and_stay_independent(self, scenario_path, tmp_path, capsys):
        from emff import cli

        assert cli.build_parser() is cli.build_parser()
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        one, every = tmp_path / "one.json", tmp_path / "every.json"
        codes = [
            main(["scan", "--scenario", scenario_path, "--out", str(first)]),
            main(["allocate", "--force", "1,0,0"]),
            main(["verify", "--suite", "averaging", "--cases", "1", "--out", str(one)]),
            main(["verify", "--cases", "1", "--out", str(every)]),
            main(["scan", "--scenario", scenario_path, "--out", str(second)]),
        ]
        # the exit codes of a fresh process each
        assert codes == [0, 1, 0, 0, 0]
        assert "required: --r" in capsys.readouterr().err
        # the first call's --suite does not carry over into the append default
        assert [s["suite"] for s in json.loads(one.read_text())["suites"]] == ["averaging"]
        assert [s["suite"] for s in json.loads(every.read_text())["suites"]] == list(verify.SUITES)
        assert first.read_bytes() == second.read_bytes()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("allocate", "--r", "1,0,0", "--force", "1e-5,0,0")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["gap"] <= 1e-6

    def test_import_loads_no_scipy(self):
        # scipy is only a benchmark dependency (the `bench` extra)
        code = "import sys, emff; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_usage_exit_code_via_module(self):
        proc = run_module("allocate")
        assert proc.returncode == 1
        assert "--r" in proc.stderr

    def test_module_scan_matches_in_process_bytes(self, scenario_path, tmp_path):
        in_process, module = tmp_path / "in_process.csv", tmp_path / "module.csv"
        assert main(["scan", "--scenario", scenario_path, "--out", str(in_process)]) == 0
        proc = run_module("scan", "--scenario", scenario_path, "--out", str(module))
        assert proc.returncode == 0
        assert in_process.read_bytes() == module.read_bytes()
