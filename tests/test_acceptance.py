"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (bypassing capture so the lines always
reach the console).  Criteria 1-4 and 6 run the seeded `emff.verify` suites
(seed 0, the stream of `emff verify --seed 0`) at their stated case counts,
require no failed case, and hold the suite's measured worst values to the
criterion's own bounds; criteria 1 and 2 also time the suite call against
their runtime gates.  Criterion 4 adds the exact rational identity of the
brigade closed form for n <= 50.  Criteria 5, 7 and 8 check the coefficient
identities and the reference-scenario power scan at 720 time samples (shared
by the scaling and peak-consistency criteria).
"""

import math
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

import conftest
from emff import (
    CoilDesign,
    DisturbanceField,
    GridConfig,
    StablePlane,
    compute_power_report,
    force_weight,
    make_context,
    orbit_time_grid,
    torque_weight,
    verify,
)
from emff.dual import DEFAULT_TOL


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    return ok


@pytest.fixture(scope="module")
def scenario_scan():
    ctx = make_context(500e3, np.deg2rad(45.0), 0.0)
    plane = StablePlane(theta_p=np.deg2rad(30.0), theta_z_xy=0.0, r_xyd=100.0)
    field = DisturbanceField.from_orbit(ctx, plane)
    coil = CoilDesign(turns=200, coil_radius=0.5, wire_radius=1e-3, resistivity=1.68e-8)
    grid = orbit_time_grid(ctx.period, 720)
    start = time.monotonic()
    reports = {
        n: compute_power_report(GridConfig.from_line_length(n, 100.0, 1000.0), field, coil, grid)
        for n in range(1, 11)
    }
    elapsed = time.monotonic() - start
    return ctx, field, coil, grid, reports, elapsed


def run_suite(suite, cases):
    """Run a verify suite at seed 0: (worst values, NaN where no case measured
    one; failures; wall time)."""
    start = time.monotonic()
    result = suite(cases=cases)
    elapsed = time.monotonic() - start
    return defaultdict(lambda: math.nan, result["worst"]), result["failures"], elapsed


def test_criterion_1_strong_duality():
    worst, failures, elapsed = run_suite(verify.suite_duality, 100)
    ok = (
        not failures and worst["gap"] <= DEFAULT_TOL and worst["wrench_residual"] <= 1e-8
        and elapsed <= 30.0
    )
    assert report(
        1, ok,
        f"100 cases, {len(failures)} failed: max gap {worst['gap']:.2e} (<={DEFAULT_TOL:g}), "
        f"max wrench residual {worst['wrench_residual']:.2e} (<=1e-8), "
        f"runtime {elapsed:.1f}s (<=30s)",
    ), failures


def test_criterion_2_global_optimality_oracle():
    worst, failures, elapsed = run_suite(verify.suite_bruteforce, 100)
    ok = not failures and worst["undercut"] <= 1e-4 and elapsed <= 300.0
    assert report(
        2, ok,
        f"100 cases x 20 restarts, {len(failures)} failed: max undercut 1-J_bf/J_d "
        f"{worst['undercut']:.2e} (<=1e-4), runtime {elapsed:.0f}s (<=300s)",
    ), failures


def test_criterion_3_averaging_model():
    worst, failures, _ = run_suite(verify.suite_averaging, 30)
    ok = not failures and worst["averaging_error"] <= 1e-8 and worst["leakage"] <= 1e-12
    assert report(
        3, ok,
        f"averaging, 30 cases, {len(failures)} failed: closed-vs-numeric "
        f"{worst['averaging_error']:.2e} (<=1e-8), distinct-frequency leakage "
        f"{worst['leakage']:.2e} (<=1e-12)",
    ), failures


def test_criterion_4_bucket_brigade():
    # exact rational identity of the closed form and the defining sums
    exact_ok = True
    for n in range(1, 51):
        chi = Fraction(n * (n + 1), 6 * (2 * n + 1))  # chi_sys per unit m_sat, d_sat
        for j in range(2, n + 2):
            closed_force = chi * force_weight(n, j) * 3 * (2 * n + 1)
            closed_torque = chi * torque_weight(n, j) * (2 * n + 1) ** 2
            sum_force = Fraction(sum(range(j - 1, n + 1)))
            sum_torque = sum(Fraction((n - k + 1) * (n + k), 2) for k in range(j - 1, n + 1))
            exact_ok &= closed_force == sum_force and closed_torque == sum_torque

    worst, failures, _ = run_suite(verify.suite_telescoping, 12)
    ok = (
        not failures and exact_ok and worst["telescoping_error"] <= 1e-12
        and worst["force_equilibrium"] <= 1e-10 and worst["center_force"] <= 1e-12
    )
    assert report(
        4, ok,
        f"brigade: exact rational identity n<=50 {exact_ok}; 12 cases, {len(failures)} failed: "
        f"float closed-vs-sums {worst['telescoping_error']:.2e} (<=1e-12), max force residual "
        f"{worst['force_equilibrium']:.2e} (<=1e-10), center cancellation "
        f"{worst['center_force']:.2e} (<=1e-12)",
    ), failures


def test_criterion_5_coefficient_identities():
    identity_ok = all(
        force_weight(n, 2) == 1 and torque_weight(n, 2) == 1 for n in range(1, 51)
    )
    chis = [GridConfig(n=n, m_sys=100.0, d_sat=1.0).chi_sys for n in range(1, 101)]
    decreasing = all(a > b for a, b in zip(chis, chis[1:]))
    asym = abs(chis[99] / (100.0 / (48 * 100)) - 1.0)
    ok = identity_ok and decreasing and asym <= 0.02
    assert report(
        5, ok,
        f"L(n,2)=I for n in 1..50: {identity_ok}; chi_sys strictly decreasing: {decreasing}; "
        f"asymptote deviation at n=100: {asym:.4f} (<=0.02)",
    )


def test_criterion_6_orbit():
    worst, failures, _ = run_suite(verify.suite_orbit, 6)
    ok = (
        not failures and worst["rk4_error_m"] <= 1e-6 and worst["closure_m"] <= 1e-9
        and worst["mismatch_at_zero_j2"] == 0.0 and worst["core_trace"] <= 1e-15
        and worst["core_asymmetry"] == 0.0
    )
    assert report(
        6, ok,
        f"orbit, 6 cases, {len(failures)} failed: RK4-vs-analytic {worst['rk4_error_m']:.2e} m "
        f"(<=1e-6), closure {worst['closure_m']:.2e} m (<=1e-9), d_fz at matched frequencies "
        f"{worst['mismatch_at_zero_j2']:.1e} (=0), K core trace {worst['core_trace']:.1e} "
        f"(<=1e-15), K core asymmetry {worst['core_asymmetry']:.1e} (=0)",
    ), failures


def test_criterion_7_scaling_trends(scenario_scan):
    ctx, field, coil, grid, reports, elapsed = scenario_scan
    Ms = [reports[n].M for n in range(1, 11)]
    decreasing = all(a > b for a, b in zip(Ms, Ms[1:]))

    cfg1 = GridConfig.from_line_length(3, 100.0, 1000.0)
    cfg2 = GridConfig.from_line_length(3, 200.0, 1000.0)
    small_grid = orbit_time_grid(ctx.period, 48)
    W1 = compute_power_report(cfg1, field, coil, small_grid).W_bar
    W2 = compute_power_report(cfg2, field, coil, small_grid).W_bar
    mass_linearity = abs(W2 / W1 - 2.0)

    gamma_exact = all(reports[n].gamma_S == float(2 * n + 1) ** (2.0 / 3.0) for n in range(1, 11))
    ok = decreasing and mass_linearity <= 1e-9 and gamma_exact and elapsed <= 600.0
    assert report(
        7, ok,
        f"scan: M strictly decreasing n=1..10 {decreasing}, W_bar mass-linearity deviation "
        f"{mass_linearity:.1e} (<=1e-9), gamma_S exact {gamma_exact}, "
        f"runtime {elapsed:.0f}s (<=600s)",
    )


def test_criterion_8_peak_pair_consistency(scenario_scan):
    _, _, _, _, reports, _ = scenario_scan
    worst = max(0.0, *(rep.peak_pair_violation for rep in reports.values()))
    ok = worst <= 1e-10
    assert report(
        8, ok,
        f"w*(2,t) >= w*(j,t) on every sampled pair/time: max relative violation "
        f"{worst:.2e} (<=1e-10)",
    )
