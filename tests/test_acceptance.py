"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (bypassing capture so the lines always
reach the console).  The expensive fixtures: 100 forward-generated
allocation cases (shared by the duality and brute-force criteria) and the
reference-scenario power scan at 720 time samples (shared by the scaling and
peak-consistency criteria).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import conftest
from emff import (
    CoilDesign,
    DisturbanceField,
    DipoleWaveform,
    GridConfig,
    RelativeElements,
    StablePlane,
    allocate,
    averaged_wrench,
    brute_force_allocate,
    compute_power_report,
    desired_trajectory,
    equilibrium_residuals,
    force_weight,
    freq_mismatch_disturbance,
    integrate_dynamics,
    interaction_operator,
    j2_core_matrix,
    make_context,
    orbit_time_grid,
    pair_command,
    peak_power,
    propagate_analytic,
    propagate_analytic_state,
    surface_ratio,
    telescoping_oracle,
    time_average_oracle,
    torque_weight,
)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    return ok


def forward_cases(count, seed=20260808):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        r = rng.normal(size=3)
        r *= rng.uniform(0.5, 5.0) / np.linalg.norm(r)
        hint = rng.normal(size=3)
        Q = interaction_operator(r, hint)
        dj = DipoleWaveform(s=rng.normal(scale=10.0, size=3), c=rng.normal(scale=10.0, size=3), omega=1.0)
        dk = DipoleWaveform(s=rng.normal(scale=10.0, size=3), c=rng.normal(scale=10.0, size=3), omega=1.0)
        cases.append((r, hint, averaged_wrench(Q, dj, dk)))
    return cases


@pytest.fixture(scope="module")
def allocations():
    cases = forward_cases(100)
    start = time.monotonic()
    solutions = [allocate(r, hint, u, omega=1.0) for r, hint, u in cases]
    elapsed = time.monotonic() - start
    return cases, solutions, elapsed


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


def test_criterion_1_strong_duality(allocations):
    cases, solutions, elapsed = allocations
    worst_gap = max(sol.gap for sol in solutions)
    worst_res = max(
        np.linalg.norm(sol.wrench_residual) / u.norm
        for (_, _, u), sol in zip(cases, solutions)
    )
    ok = worst_gap <= 1e-6 and worst_res <= 1e-8 and elapsed <= 30.0
    assert report(
        1, ok,
        f"100 cases: max gap {worst_gap:.2e} (<=1e-6), max wrench residual "
        f"{worst_res:.2e} (<=1e-8), runtime {elapsed:.1f}s (<=30s)",
    )


def test_criterion_2_global_optimality_oracle(allocations):
    cases, solutions, _ = allocations
    start = time.monotonic()
    worst_ratio = np.inf
    for i, ((r, hint, u), sol) in enumerate(zip(cases, solutions)):
        brute = brute_force_allocate(r, hint, u, restarts=20, seed=i)
        worst_ratio = min(worst_ratio, brute.J_p / sol.J_d)
    elapsed = time.monotonic() - start
    ok = worst_ratio >= 1.0 - 1e-4 and elapsed <= 300.0
    assert report(
        2, ok,
        f"100 cases x 20 restarts: min J_bf/J_d {worst_ratio:.8f} (>=1-1e-4), "
        f"runtime {elapsed:.0f}s (<=300s)",
    )


def test_criterion_3_averaging_model():
    rng = np.random.default_rng(11)
    omega, period = 2.0 * np.pi, 1.0
    worst_avg, worst_cross = 0.0, 0.0
    for _ in range(30):
        r = rng.normal(size=3)
        r *= rng.uniform(0.5, 5.0) / np.linalg.norm(r)
        hint = rng.normal(size=3)
        dj = DipoleWaveform(s=rng.normal(scale=10, size=3), c=rng.normal(scale=10, size=3), omega=omega)
        dk = DipoleWaveform(s=rng.normal(scale=10, size=3), c=rng.normal(scale=10, size=3), omega=omega)
        closed = averaged_wrench(interaction_operator(r, hint), dj, dk).as_vector()
        numeric = time_average_oracle(r, dj, dk, period, 512, hint=hint).as_vector()
        ref = np.linalg.norm(closed)
        worst_avg = max(worst_avg, np.linalg.norm(closed - numeric) / ref)
        dk2 = DipoleWaveform(s=dk.s, c=dk.c, omega=2 * omega)
        cross = time_average_oracle(r, dj, dk2, period, 512, hint=hint).norm
        worst_cross = max(worst_cross, cross / ref)
    ok = worst_avg <= 1e-8 and worst_cross <= 1e-12
    assert report(
        3, ok,
        f"averaging: closed-vs-numeric {worst_avg:.2e} (<=1e-8), "
        f"distinct-frequency leakage {worst_cross:.2e} (<=1e-12)",
    )


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

    rng = np.random.default_rng(5)
    worst_eq, worst_center = 0.0, 0.0
    float_ok = True
    for n in (1, 2, 3, 5, 8, 13, 20):
        cfg = GridConfig(n=n, m_sys=rng.uniform(20, 300), d_sat=rng.uniform(1, 25))
        K = rng.normal(scale=1e-8, size=(3, 3))
        K = 0.5 * (K + K.T)
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        field = DisturbanceField(k_orb=lambda t, K=K: K, p_hat=lambda t, p=p: p, period=6000.0)
        for j in range(2, n + 2):
            closed = pair_command(cfg, field, j, 0.0)
            summed = telescoping_oracle(cfg, field, j, 0.0)
            float_ok &= np.linalg.norm(closed - summed) <= 1e-12 * np.linalg.norm(summed)
        res = equilibrium_residuals(cfg, field, 0.0)
        edge = np.linalg.norm(cfg.m_sat * n * cfg.d_sat * (K @ p))
        worst_eq = max(worst_eq, np.abs(res["force"]).max() / edge)
        worst_center = max(worst_center, np.linalg.norm(res["center_force"]) / edge)
    ok = exact_ok and float_ok and worst_eq <= 1e-10 and worst_center <= 1e-12
    assert report(
        4, ok,
        f"brigade: exact rational identity n<=50 {exact_ok}, float closed=sums {float_ok}, "
        f"max force residual {worst_eq:.2e} (<=1e-10), center cancellation {worst_center:.2e}",
    )


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
    ctx = make_context(500e3, np.deg2rad(45.0), 0.0)
    elems = RelativeElements(c1=0.0, c4=0.0, r_xy=120.0, theta_xy=0.4, r_z=80.0, theta_z=-1.0)
    state0 = propagate_analytic_state(elems, ctx, 0.0)
    T = ctx.period
    _, states = integrate_dynamics(state0, ctx, None, None, T, T / 4000.0)
    rk4_err = np.linalg.norm(states[-1][:3] - propagate_analytic(elems, ctx, T))

    plane = StablePlane(theta_p=np.deg2rad(30.0), theta_z_xy=0.0, r_xyd=100.0)
    closure = np.linalg.norm(
        desired_trajectory(plane, ctx, T) - desired_trajectory(plane, ctx, 0.0)
    )

    ctx0 = make_context(500e3, np.deg2rad(45.0), 0.0, k_j2=0.0)
    dfz = np.abs(
        freq_mismatch_disturbance(100.0, 0.7, ctx0, np.linspace(0, T, 100))
    ).max()

    ts = np.linspace(0.0, T, 25)
    k_trace = max(
        abs(np.trace(j2_core_matrix(ctx, t))) / np.abs(j2_core_matrix(ctx, t)).max()
        for t in ts
    )
    k_sym = all(np.array_equal(j2_core_matrix(ctx, t), j2_core_matrix(ctx, t).T) for t in ts)

    ok = rk4_err <= 1e-6 and closure <= 1e-9 and dfz == 0.0 and k_trace <= 1e-15 and k_sym
    assert report(
        6, ok,
        f"orbit: RK4-vs-analytic {rk4_err:.2e} m (<=1e-6), closure {closure:.2e} m (<=1e-9), "
        f"d_fz at matched frequencies {dfz:.1e} (=0), K core trace {k_trace:.1e} (<=1e-15), "
        f"K symmetric {k_sym}",
    )


def test_criterion_7_scaling_trends(scenario_scan):
    ctx, field, coil, grid, reports, elapsed = scenario_scan
    Ms = [reports[n].M for n in range(1, 11)]
    decreasing = all(a > b for a, b in zip(Ms, Ms[1:]))

    cfg1 = GridConfig.from_line_length(3, 100.0, 1000.0)
    cfg2 = GridConfig.from_line_length(3, 200.0, 1000.0)
    small_grid = orbit_time_grid(ctx.period, 48)
    W1 = peak_power(cfg1, field, coil, small_grid)
    W2 = peak_power(cfg2, field, coil, small_grid)
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
    worst = 0.0
    for n, rep in reports.items():
        scale = max(np.abs(rep.w_star_unit).max(), 1e-300)
        worst = max(worst, rep.peak_pair_violation / scale)
    ok = worst <= 1e-10
    assert report(
        8, ok,
        f"w*(2,t) >= w*(j,t) on every sampled pair/time: max relative violation "
        f"{worst:.2e} (<=1e-10)",
    )
