import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emff import power
from emff import (
    CoilDesign,
    DisturbanceField,
    GridConfig,
    StablePlane,
    compute_power_report,
    compute_power_reports,
    make_context,
    orbit_time_grid,
    pair_power_w_star,
    power_index,
    surface_ratio,
)
from emff.brigade import force_weight, torque_weight, unit_wrench
from emff.dual import DEFAULT_TOL, SolverError, solve_dual_batch
from emff.magnetics import MU0, ZeroSeparationError, build_los_frame, psi_stack

CTX = make_context(500e3, np.deg2rad(45.0), 0.0)
PLANE = StablePlane(theta_p=np.deg2rad(30.0), theta_z_xy=0.0, r_xyd=100.0)
FIELD = DisturbanceField.from_orbit(CTX, PLANE)
COIL = CoilDesign(turns=200, coil_radius=0.5, wire_radius=1e-3, resistivity=1.68e-8)
GRID = orbit_time_grid(CTX.period, 48)
# inclination 60 deg, theta_p 15 deg: some rows leave the vertex branch
OFF_CTX = make_context(500e3, np.deg2rad(60.0), 0.0)
OFF_FIELD = DisturbanceField.from_orbit(
    OFF_CTX, StablePlane(theta_p=np.deg2rad(15.0), theta_z_xy=0.0, r_xyd=100.0)
)


def zero_field():
    p = np.array([1.0, 0.0, 0.0])
    return DisturbanceField(k_orb=lambda t: np.zeros((3, 3)), p_hat=lambda t: p, period=CTX.period)


def w_star_table(cfg, field, grid, unit_rows=power._unit_rows):
    """The coil-independent (n, T) table w*(j, t) a report reduces, costed as the scan costs it."""
    J = power._pair_costs(power._pair_scales(cfg)[:, None, :], unit_rows(field, grid))[0]
    return 2.0 * (J[:, : len(grid)] + J[:, len(grid) :])


class TestPowerIndex:
    def test_zero(self):
        assert power_index(COIL, 0.0) == 0.0

    def test_arithmetic(self):
        coil = CoilDesign(turns=1, coil_radius=1.0, wire_radius=1.0, resistivity=1.0)
        # power_scale = 2/(pi^2); pick J_d so the product is exactly 1 W
        J_d = np.pi**2 / 2
        assert np.isclose(power_index(coil, J_d), 1.0, rtol=1e-15)

    def test_doubling_turns_halves_scale(self):
        c1 = CoilDesign(turns=100, coil_radius=0.4, wire_radius=1e-3, resistivity=1.7e-8)
        c2 = CoilDesign(turns=200, coil_radius=0.4, wire_radius=1e-3, resistivity=1.7e-8)
        assert np.isclose(c2.power_scale, c1.power_scale / 2, rtol=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            power_index(COIL, -1.0)
        with pytest.raises(ValueError):
            power_index(COIL, np.nan)


class TestPairPower:
    def test_zero_field(self):
        cfg = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        assert pair_power_w_star(cfg, zero_field(), COIL, 2, 0.0) == 0.0

    def test_linear_in_command_magnitude(self):
        cfg = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        base = FIELD.k_orb
        doubled = DisturbanceField(
            k_orb=lambda t: 2.0 * base(t), p_hat=FIELD.p_hat, period=FIELD.period
        )
        w1 = pair_power_w_star(cfg, FIELD, COIL, 2, 500.0)
        w2 = pair_power_w_star(cfg, doubled, COIL, 2, 500.0)
        assert np.isclose(w2, 2.0 * w1, rtol=1e-8)

    def test_coil_factor(self):
        cfg = GridConfig(n=1, m_sys=100.0, d_sat=10.0)
        w_unit = pair_power_w_star(cfg, FIELD, None, 2, 100.0)
        w_coil = pair_power_w_star(cfg, FIELD, COIL, 2, 100.0)
        assert np.isclose(w_coil, COIL.power_scale * w_unit, rtol=1e-14)

    def test_decreases_with_n_at_fixed_line_length(self):
        # L(n,2) = I, but the pair separation r_l/(2n+1) shrinks with n, so the
        # dual cost of the same center command falls steeply
        t = 700.0
        values = [
            pair_power_w_star(GridConfig.from_line_length(n, 100.0, 500.0), FIELD, None, 2, t)
            for n in (1, 2, 4, 8)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestPeakPower:
    def test_zero_disturbance(self):
        cfg = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        assert compute_power_report(cfg, zero_field(), COIL, GRID).W_bar == 0.0

    def test_sup_dominates_grid(self):
        cfg = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        W_bar = compute_power_report(cfg, FIELD, COIL, GRID).W_bar
        for t in GRID[::6]:
            w = pair_power_w_star(cfg, FIELD, COIL, 2, t)
            assert W_bar >= cfg.chi_sys * w * (1 - 1e-12)

    def test_linear_in_system_mass(self):
        cfg1 = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        cfg2 = GridConfig(n=2, m_sys=200.0, d_sat=10.0)
        W1 = compute_power_report(cfg1, FIELD, COIL, GRID).W_bar
        W2 = compute_power_report(cfg2, FIELD, COIL, GRID).W_bar
        assert abs(W2 / W1 - 2.0) <= 1e-9

    def test_vanishes_as_count_grows(self):
        # fixed mass and array size: chi_sys and the pair costs both shrink
        cfgs = [GridConfig.from_line_length(n, 100.0, 300.0) for n in (1, 2, 4, 8)]
        values = [compute_power_report(cfg, FIELD, COIL, GRID).W_bar for cfg in cfgs]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] <= 0.01 * values[0]

    def test_empty_grid_rejected(self):
        cfg = GridConfig(n=1, m_sys=100.0, d_sat=10.0)
        with pytest.raises(ValueError):
            compute_power_report(cfg, FIELD, COIL, np.array([]))


class TestTimeGrid:
    def test_uniform_over_one_period(self):
        grid = orbit_time_grid(CTX.period, np.int64(4))
        assert np.array_equal(grid, CTX.period * np.arange(4) / 4.0)

    @pytest.mark.parametrize(
        "period, n_samples",
        [(np.nan, 3), (np.inf, 3), (0.0, 3), (-1.0, 3), (CTX.period, 0), (CTX.period, 2.5), (CTX.period, 3.0)],
    )
    def test_invalid_rejected(self, period, n_samples):
        with pytest.raises(ValueError):
            orbit_time_grid(period, n_samples)


class TestTotalPower:
    def test_zero_field(self):
        cfg = GridConfig(n=3, m_sys=100.0, d_sat=10.0)
        assert compute_power_report(cfg, zero_field(), COIL, GRID).W_oint == 0.0

    def test_n1_single_term_formula(self):
        cfg = GridConfig(n=1, m_sys=100.0, d_sat=10.0)
        expected = cfg.chi_sys * 3.0 * np.mean(
            [pair_power_w_star(cfg, FIELD, COIL, 2, t) for t in GRID]
        )
        assert np.isclose(compute_power_report(cfg, FIELD, COIL, GRID).W_oint, expected, rtol=1e-10)

    def test_grid_refinement_converges(self):
        cfg = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        w1 = compute_power_report(cfg, FIELD, COIL, orbit_time_grid(CTX.period, 48)).W_oint
        w2 = compute_power_report(cfg, FIELD, COIL, orbit_time_grid(CTX.period, 96)).W_oint
        assert abs(w2 - w1) <= 1e-3 * w2


class TestDipoleMetric:
    def test_coil_independent(self):
        cfg = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        M = compute_power_report(cfg, FIELD, None, GRID).M
        W = compute_power_report(cfg, FIELD, COIL, GRID).W_oint
        assert np.isclose(M, W / (cfg.m_sys * COIL.power_scale), rtol=1e-12)

    def test_mass_invariant(self):
        M1 = compute_power_report(GridConfig(n=2, m_sys=100.0, d_sat=10.0), FIELD, None, GRID).M
        M2 = compute_power_report(GridConfig(n=2, m_sys=200.0, d_sat=10.0), FIELD, None, GRID).M
        assert np.isclose(M1, M2, rtol=1e-12)


class TestSurfaceRatio:
    def test_monolith(self):
        assert surface_ratio(1) == 1.0

    def test_cube_of_27(self):
        assert np.isclose(surface_ratio(27), 9.0, rtol=1e-15)

    def test_monotone_and_exact_exponent(self):
        vals = [surface_ratio(n) for n in (1, 3, 5, 7, 9, 27, 81)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        slope = np.polyfit(np.log([3, 9, 27, 81]), np.log([surface_ratio(k) for k in (3, 9, 27, 81)]), 1)[0]
        assert abs(slope - 2.0 / 3.0) <= 1e-12

    def test_even_or_zero_rejected(self):
        with pytest.raises(ValueError):
            surface_ratio(4)
        with pytest.raises(ValueError):
            surface_ratio(0)

    def test_non_integral_rejected(self):
        # a count, as GridConfig.n is: 2.5 is no line length
        with pytest.raises(TypeError):
            surface_ratio(2.5)


class TestReport:
    def test_report_consistifies_summaries(self):
        cfg = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        rep = compute_power_report(cfg, FIELD, COIL, GRID)
        unit = compute_power_report(cfg, FIELD, None, GRID)
        assert rep.M == unit.M
        assert np.isclose(rep.W_oint, COIL.power_scale * unit.W_oint, rtol=1e-12)
        assert np.isclose(rep.W_bar, COIL.power_scale * unit.W_bar, rtol=1e-12)
        assert rep.gamma_S == surface_ratio(5)
        # peak-pair rule: no sampled pair beats the center pair
        assert rep.peak_pair_violation <= 0.0
        j, t = rep.peak_pair_at
        assert j == 3 and t in GRID

    def test_report_holds_no_table(self):
        # every field is a Python scalar, or the (j, t) pair or None of peak_pair_at
        cfgs = [GridConfig(n=n, m_sys=100.0, d_sat=10.0) for n in (1, 7)]
        for rep in compute_power_reports(cfgs, FIELD, None, GRID):
            at = rep.peak_pair_at
            assert all(type(v) in (int, float) for k, v in vars(rep).items() if k != "peak_pair_at")
            assert at is None if rep.n == 1 else [type(v) for v in at] == [int, float]

    def test_peak_pair_violation_is_relative(self):
        # the largest w*(j > 2, t) - w*(2, t) over max w*, at its (j, t)
        for field in (FIELD, OFF_FIELD):
            for n in (1, 2, 6):
                cfg = GridConfig.from_line_length(n, 100.0, 1000.0)
                rep = compute_power_report(cfg, field, None, GRID)
                w = w_star_table(cfg, field, GRID)
                if n == 1:
                    assert rep.peak_pair_violation == 0.0 and rep.peak_pair_at is None
                    continue
                excess = w[1:] - w[0]
                j, i = np.unravel_index(excess.argmax(), excess.shape)
                assert rep.peak_pair_violation == excess.max() / w.max() <= 0.0
                assert rep.peak_pair_at == (j + 3, GRID[i])

    def test_w_bar_bounds_every_sample(self):
        cfg = GridConfig(n=3, m_sys=50.0, d_sat=8.0)
        rep = compute_power_report(cfg, FIELD, COIL, GRID)
        w = w_star_table(cfg, FIELD, GRID)
        assert rep.W_bar >= (cfg.chi_sys * COIL.power_scale * w[0]).max() * (1 - 1e-12)

    def test_scalar_and_grid_paths_agree(self):
        cfg = GridConfig(n=3, m_sys=50.0, d_sat=8.0)
        for field in (FIELD, OFF_FIELD):
            w = w_star_table(cfg, field, GRID)
            rep = compute_power_report(cfg, field, None, GRID)
            assert rep.M == cfg.chi_sys * cfg.n_line * w.sum(axis=0).mean() / cfg.m_sys
            for j in (2, 3, 4):
                for i in (0, 17, 43):
                    assert np.isclose(w[j - 2, i], pair_power_w_star(cfg, field, None, j, GRID[i]), rtol=1e-9)

    def test_pair_errors(self, monkeypatch):
        cfg = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        for j in (1, 4):
            with pytest.raises(ValueError):
                pair_power_w_star(cfg, FIELD, None, j, 0.0)
        with pytest.raises(ZeroSeparationError):
            pair_power_w_star(GridConfig(n=2, m_sys=100.0, d_sat=1e-3), FIELD, None, 2, 0.0)
        nan_field = DisturbanceField(k_orb=lambda t: np.full(np.shape(t) + (3, 3), np.nan),
                                     p_hat=FIELD.p_hat, period=FIELD.period)
        with pytest.raises(SolverError, match=r"at n = 2$"):
            pair_power_w_star(cfg, nan_field, None, 2, 0.0)
        # off-region, pair 3 at GRID[10] is a root row with a gap near 1e-15
        gap = power._pair_costs(power._pair_scales(cfg)[1], power._unit_rows(OFF_FIELD, GRID[10:11]))[3]
        assert 0.0 < gap.max() <= DEFAULT_TOL
        assert pair_power_w_star(cfg, OFF_FIELD, None, 3, GRID[10]) > 0.0
        monkeypatch.setattr(power, "DEFAULT_TOL", 1e-17)
        with pytest.raises(SolverError, match=r"at n = 2$"):
            pair_power_w_star(cfg, OFF_FIELD, None, 3, GRID[10])


#: Relative bound on a row's out-of-plane part and primal residual in the
#: materialised-row certificate below.
_VERTEX_RTOL = 1.0e-12


def _vertex_row(fx, fy, k):
    """Scaled LOS brigade row (f_x, f_y, 0, 0, 0, tau_z) with tau_z = -k f_y/3."""
    return np.array([fx, fy, 0.0, 0.0, 0.0, -k * fy / 3.0])


def _materialise(scales, unit):
    """The rows power._pair_costs costs without forming them: scales (..., 2) =
    (alpha, beta) and unit rows (..., 2) = (f_x', f_y') that broadcast give
    (..., 6) = (alpha f_x', alpha f_y', 0, 0, 0, beta (f_y'/-3))."""
    scales, unit = np.broadcast_arrays(np.asarray(scales, dtype=float), np.asarray(unit, dtype=float))
    rows = np.zeros(scales.shape[:-1] + (6,))
    rows[..., 0] = scales[..., 0] * unit[..., 0]
    rows[..., 1] = scales[..., 0] * unit[..., 1]
    rows[..., 5] = scales[..., 1] * (unit[..., 1] / -3.0)
    return rows


def _pow2_scale(x, axis=-1):
    """Per-row powers of two near the largest |entry| (1 for zero rows): dividing
    by them is exact and leaves no square of an entry out of range."""
    return np.ldexp(1.0, np.frexp(np.abs(x).max(axis=axis, keepdims=True))[1])


def _reference_vertex_costs(u, Q):
    """The per-row vertex certificate over materialised rows u (B, 6) against
    Q = psi_stack(1): (J, certified, margin), margin lambda_min(S)/tr S on
    every row.  The oracle for the vertex branch of power._pair_costs, which
    never forms the rows."""
    u = np.ascontiguousarray(u.T)  # one contiguous row per component
    J = (8.0 * np.pi / MU0) * np.abs(u[1] + 2.0 * u[5])
    # the certificate is homogeneous in the row: decided on the row scaled exactly
    u = u / _pow2_scale(u, axis=0)
    fx, fy, tz = u[0], u[1], u[5]
    v = fy + 2.0 * tz
    sigma = -np.sign(v)
    p = -sigma * (tz + fy / 3.0)
    q = sigma * fx / 9.0
    r = -sigma * (tz + 2.0 * fy / 3.0)
    lam_min = 0.5 * (p + r) - np.hypot(0.5 * (p - r), q)
    # the column-stacked entries X00, X10, X01, X11 of vec X
    x = sigma * np.array([q, -p, r, -q])
    residual = Q[:, [0, 1, 3, 4]] @ x + u
    bound = _VERTEX_RTOL * np.sqrt(np.einsum("ib,ib->b", u, u))
    certified = (
        (lam_min >= 0.0)
        & (np.sqrt(np.einsum("ib,ib->b", u[2:5], u[2:5])) <= bound)
        & (np.sqrt(np.einsum("ib,ib->b", residual, residual)) <= bound)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = lam_min / (p + r)
    return J, certified, margin


def _assert_within_solver_bounds(J, rows):
    """J of every row lies in [J_d, J_p] of solve_dual_batch on the rows
    against psi_stack(1), to 2e-15, and no row of that solve is stalled.
    The solve is homogeneous, so it runs on the rows scaled exactly to a largest
    entry near 1 (it reads rows below about 1e-154 as zero)."""
    m = _pow2_scale(rows)
    ref = solve_dual_batch(psi_stack(1.0), rows / m)
    assert not ref["stalled"].any()
    m = m[:, 0]
    assert (ref["J_d"] * m * (1.0 - 2e-15) <= J).all() and (J <= ref["J_p"] * m * (1.0 + 2e-15)).all()


# k = beta/alpha over the in-plane family: anywhere in [0, 25], near the branch
# boundaries k = 1, 3/2, 2 and 3, and in the band k = 2 (1 + O(1e-9)) where
# solve_dual_batch once stalled
_k_draws = st.one_of(
    st.floats(0.0, 25.0),
    st.builds(lambda k, e: k * (1.0 + e), st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(-1e-6, 1e-6)),
    st.floats(-3e-9, 3e-9).map(lambda e: 2.0 * (1.0 + e)),
)
# per-pair scales (alpha, k)
_scale_draws = st.tuples(st.floats(-3.0, 12.0).map(lambda e: 10.0**e), _k_draws)


@st.composite
def _unit_row_draws(draw):
    """Unit LOS rows (f_x', f_y'): f_x'/f_y' anywhere in [-10, 10], at the
    k = 3 vertex boundary 3 sqrt(2), of size 1e-12..1e-2 (the k = 2 band), or
    0; or rows with f_y' = 0, zero rows and rows with a NaN entry."""
    kind = draw(st.sampled_from(["row", "row", "row", "f_y = 0", "zero", "nan"]))
    fy = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-6.0, 3.0))
    small = st.builds(lambda s, e: s * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-12.0, -2.0))
    ratio = draw(st.one_of(st.just(0.0), st.just(3.0 * np.sqrt(2.0)), st.floats(-10.0, 10.0), small))
    row = np.array([fy * ratio, fy])
    if kind == "f_y = 0":
        row[1] = 0.0
    elif kind == "zero":
        row[:] = 0.0
    elif kind == "nan":
        row[draw(st.integers(0, 1))] = np.nan
    return row


# rho is |f_x| over the vertex boundary 3 f_y sqrt((k-1)(k-2)); at k = 2
# the boundary is f_x = 0 and rho is |f_x|/f_y itself
_los_rows = st.tuples(
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 3.0)),
    st.one_of(st.just(2.0), st.just(3.0), st.floats(2.0, 21.0)),
    st.floats(-6.0, 3.0),
    st.sampled_from([1.0, -1.0]),
    st.sampled_from([1.0, -1.0]),
)


class TestVertexCertificate:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(draws=st.lists(_los_rows, min_size=1, max_size=8), d=st.floats(0.5, 50.0))
    def test_closed_form_matches_solver(self, draws, d):
        scales, unit, expected = [], [], []
        for rho, k, log_fy, sx, sign in draws:
            fy = 10.0**log_fy
            edge = 1.0 if k == 2.0 else 3.0 * np.sqrt((k - 1.0) * (k - 2.0))
            scales.append((1.0, k))
            unit.append((sign * sx * rho * edge * fy, sign * fy))
            # within rounding of the boundary either branch is right; at k = 2
            # the boundary is f_x = 0, where both give h = |s| = |t|
            if k > 2.0:
                expected.append(None if abs(rho - 1.0) <= 1e-9 else rho < 1.0)
            else:
                expected.append(None if rho <= 1e-7 else False)
        scales, unit = np.array(scales), np.array(unit)
        J, vertex, _, gap = power._pair_costs(scales, unit)
        for ok, want in zip(vertex, expected):
            assert want is None or ok == want
        assert (gap[vertex] == 0.0).all() and (gap <= DEFAULT_TOL).all()
        rows = _materialise(scales, unit)
        _assert_within_solver_bounds(J, rows)
        if vertex.any():
            # the scale identity: the unscaled rows against psi_stack(d), solved
            # by the primal-dual oracle, whose two points are checked directly
            Q = psi_stack(d)
            unscaled = rows[vertex] / np.array([d**4] * 3 + [d**3] * 3)
            ref = solve_dual_batch(Q, unscaled)
            for u, X, R in zip(unscaled, ref["X"], ref["R"]):
                assert np.linalg.norm(Q @ X.ravel(order="F") + u) <= 1e-12 * np.linalg.norm(u)
                assert np.linalg.svd(R, compute_uv=False)[0] <= 1.0 + 1e-15
            assert not ref["stalled"].any()
            assert np.allclose(J[vertex], ref["J_d"], rtol=1e-10, atol=0.0)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(row=_los_rows)
    def test_vertex_points_match_psi_constants(self, row):
        rho, k, log_fy, sx, sign = row
        fy = 10.0**log_fy
        u = sign * _vertex_row(sx * rho * fy, fy, k)
        Q = psi_stack(1.0)
        fx, fy, tz = u[0], u[1], u[5]
        sigma = -np.sign(fy + 2.0 * tz)
        # the dual vertex is on the spectral-norm unit sphere
        lam = sigma * np.array([0.0, 1.0, 0.0, 0.0, 0.0, 2.0])
        R = (Q.T @ lam).reshape(3, 3, order="F")
        assert abs(np.linalg.svd(R, compute_uv=False)[0] - 1.0) <= 1e-14
        # the primal point X = sigma J2 S reproduces the row exactly
        S = sigma * np.array([[-(tz + fy / 3.0), fx / 9.0], [fx / 9.0, -(tz + 2.0 * fy / 3.0)]])
        X = np.zeros((3, 3))
        X[:2, :2] = sigma * np.array([[0.0, 1.0], [-1.0, 0.0]]) @ S
        assert np.linalg.norm(Q @ X.ravel(order="F") + u) <= 1e-14 * np.linalg.norm(u)
        # and its nuclear norm is the dual value whenever S >= 0
        if np.linalg.eigvalsh(S)[0] >= 0.0:
            nuclear = np.linalg.svd(X, compute_uv=False).sum()
            assert np.isclose(nuclear, abs(fy + 2.0 * tz), rtol=1e-14)

    def test_degenerate_rows_never_raise(self):
        # zero; v = 0 (k = 3/2) with u != 0; NaN; f_y' = 0; a vertex row
        scales = np.array([[1.0, 5.0], [1.0, 1.5], [1.0, 5.0], [2.0, 5.0], [1.0, 5.0]])
        unit = np.array([[0.0, 0.0], [1.0, 1.0], [np.nan, 1.0], [3.0, 0.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            J, vertex, margin, gap = power._pair_costs(scales, unit)
        assert vertex.tolist() == [True, False, False, False, True]
        # u = 0 costs 0 on the vertex branch, with no margin to report; an
        # f_y' = 0 row costs |c|/2 = |f_x|/6 exactly, with gap 0
        assert J[0] == 0.0 and np.isnan(margin[0]) and gap[0] == 0.0
        assert J[3] == (8.0 * np.pi / MU0) * 1.0 and gap[3] == 0.0
        assert np.isnan(J[2]) and np.isnan(gap[2])
        assert np.isfinite(J[[0, 1, 3, 4]]).all() and (gap[[0, 1, 3, 4]] <= DEFAULT_TOL).all()
        _assert_within_solver_bounds(J[[0, 1, 3, 4]], _materialise(scales, unit)[[0, 1, 3, 4]])

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        pairs=st.lists(_scale_draws, min_size=1, max_size=5),
        units=st.lists(_unit_row_draws(), min_size=1, max_size=8),
    )
    def test_matches_materialised_rows(self, pairs, units):
        scales = np.array([(alpha, k * alpha) for alpha, k in pairs])
        unit = np.array(units)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            J, vertex, margin, gap = power._pair_costs(scales[:, None, :], unit)
        rows = _materialise(scales[:, None, :], unit)
        J_ref, certified_ref, margin_ref = (
            a.reshape(J.shape) for a in _reference_vertex_costs(rows.reshape(-1, 6), psi_stack(1.0))
        )
        # the branches differ only where rounding decides lambda_min >= 0
        near = np.abs(margin_ref) <= 1e-9
        assert np.array_equal(vertex[~near], certified_ref[~near])
        both = vertex & certified_ref
        assert np.array_equal(J[both], J_ref[both])
        assert np.allclose(margin[both], margin_ref[both], rtol=0.0, atol=1e-15, equal_nan=True)
        assert np.isnan(margin[~vertex]).all() and (gap[vertex] == 0.0).all()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        pairs=st.lists(_scale_draws, min_size=1, max_size=5),
        units=st.lists(_unit_row_draws(), min_size=1, max_size=8),
    )
    def test_closed_form_within_solver_bounds(self, pairs, units):
        # every in-plane row is certified by the solver, J_d <= J <= J_p, and
        # each root-branch row certifies its own gap
        scales = np.array([(alpha, k * alpha) for alpha, k in pairs])
        unit = np.array(units)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            J, vertex, margin, gap = power._pair_costs(scales[:, None, :], unit)
        finite = np.isfinite(unit).all(axis=1)
        assert np.isnan(J[:, ~finite]).all() and np.isnan(gap[:, ~finite]).all()
        J, gap = J[:, finite].ravel(), gap[:, finite].ravel()
        assert (gap <= DEFAULT_TOL).all()
        _assert_within_solver_bounds(J, _materialise(scales[:, None, :], unit[finite]).reshape(-1, 6))


def _solver_pair_costs(cfg, field, t_grid):
    """w*(j, t) with every row on solve_dual_batch: LOS frames from build_los_frame,
    then one solve_dual_batch(psi_stack(d), u_los L) per pair index."""
    n_t = len(t_grid)
    ts = np.concatenate([t_grid, t_grid + field.period / 4.0])
    p = field.direction(ts)
    u = unit_wrench(field.k_orb(ts), cfg.r_l * p)
    r = -cfg.d_sat * p
    C = build_los_frame(r, np.cross(u[:, :3], r))
    u_los = np.einsum("bxy,bkx->bky", C, u.reshape(-1, 2, 3)).reshape(-1, 6)
    w = []
    for j in range(2, cfg.n + 2):
        weights = np.repeat([float(force_weight(cfg.n, j)), float(torque_weight(cfg.n, j))], 3)
        J = solve_dual_batch(psi_stack(cfg.d_sat), u_los * weights)["J_d"]
        w.append(2.0 * (J[:n_t] + J[n_t:]))
    return np.array(w)


class TestRouting:
    def test_off_region_matches_all_solver_reference(self):
        grid = orbit_time_grid(OFF_CTX.period, 96)
        for n in (1, 2, 3):
            cfg = GridConfig.from_line_length(n, 100.0, 1000.0)
            rep = compute_power_report(cfg, OFF_FIELD, None, grid)
            assert rep.root_rows > 0
            ref = _solver_pair_costs(cfg, OFF_FIELD, grid)
            assert np.allclose(w_star_table(cfg, OFF_FIELD, grid), ref, rtol=1e-10, atol=0.0)
            assert np.isclose(rep.M, cfg.chi_sys * cfg.n_line * ref.sum(axis=0).mean() / cfg.m_sys, rtol=1e-10)

    def test_root_rows_gap_and_vertex_margin(self):
        cfg = GridConfig.from_line_length(3, 100.0, 1000.0)
        grid = orbit_time_grid(CTX.period, 96)
        rep = compute_power_report(cfg, FIELD, None, grid)
        # the reference scenario is on the vertex branch throughout; its
        # tightest rows (pair j = n + 1, k = 3) keep lambda_min(S)/tr S near 0.007
        assert rep.root_rows == 0 and rep.gap == 0.0
        assert 0.005 <= rep.vertex_margin <= 0.01
        rep = compute_power_report(cfg, OFF_FIELD, None, orbit_time_grid(OFF_CTX.period, 96))
        assert 0 < rep.root_rows < 2 * 96 * cfg.n
        assert 0.0 < rep.gap <= DEFAULT_TOL
        assert 0.0 <= rep.vertex_margin < 0.05
        # a zero field has only zero rows: on the vertex branch, with no margin to report
        rep = compute_power_report(cfg, zero_field(), None, grid)
        assert rep.root_rows == 0 and rep.gap == 0.0 and np.isnan(rep.vertex_margin)


def _assert_same_report(a, b):
    assert a.n == b.n and a.peak_pair_at == b.peak_pair_at
    for name in ("W_bar", "W_oint", "M", "root_rows", "gap", "vertex_margin", "peak_pair_violation"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


def _frame_unit_rows(field, t):
    """Oracle for power._unit_rows: U_hat = unit_wrench(K, p_hat) rotated into
    the frame build_los_frame(-p_hat, f x -p_hat) at t and t + T/4, all six entries."""
    ts = np.concatenate([t, t + field.period / 4.0])
    r = -field.direction(ts)
    u = unit_wrench(field.k_orb(ts), -r)
    C = build_los_frame(r, np.cross(u[:, :3], r))
    return np.einsum("bxy,bkx->bky", C, u.reshape(-1, 2, 3)).reshape(-1, 6)


@st.composite
def _generator_draws(draw):
    """A unit p_hat and a generator K: general, symmetric, zero, or with
    K p_hat parallel to p_hat exactly or to 1e-9; p_hat along a world axis
    makes K p_hat x p_hat = 0 in floating point for a diagonal K."""
    kind = draw(st.sampled_from(["general", "symmetric", "zero", "parallel", "near-parallel", "axis"]))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    A = np.array(draw(st.lists(entries, min_size=9, max_size=9))).reshape(3, 3)
    A *= 10.0 ** draw(st.floats(-8.0, 2.0))
    if kind == "axis":
        p = np.eye(3)[draw(st.integers(0, 2))] * draw(st.sampled_from([1.0, -1.0]))
        return p, np.diag(np.diag(A))
    v = np.array(draw(st.lists(entries, min_size=3, max_size=3).filter(lambda x: np.linalg.norm(x) >= 0.1)))
    p = v / np.linalg.norm(v)
    if kind == "symmetric":
        A = 0.5 * (A + A.T)
    elif kind == "zero":
        A = np.zeros((3, 3))
    elif kind in ("parallel", "near-parallel"):
        # K p_hat = lam p_hat in exact arithmetic, then 1e-9 |K| off the line
        P = np.eye(3) - np.outer(p, p)
        A = A[0, 0] * np.outer(p, p) + P @ A @ P
        if kind == "near-parallel":
            e = np.cross(p, np.eye(3)[np.argmin(np.abs(p))])
            A = A + 1e-9 * np.abs(A).max() * np.outer(e / np.linalg.norm(e), p)
    return p, A


class TestUnitRows:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(draw=_generator_draws(), varying=st.booleans())
    def test_closed_form_matches_frame_rows(self, draw, varying):
        p, K = draw

        def k_orb(t):
            return np.multiply.outer(np.cos(2.0 * np.pi * t / CTX.period), K) if varying else K

        field = DisturbanceField(k_orb=k_orb, p_hat=lambda t: p, period=CTX.period)
        grid = orbit_time_grid(CTX.period, 5)
        rows, ref = power._unit_rows(field, grid), _frame_unit_rows(field, grid)
        assert rows.shape == (10, 2) and ref.shape == (10, 6)
        assert (rows[:, 1] >= 0.0).all()
        # the frame row is (f_x', f_y', 0, 0, 0, -f_y'/3) to rounding
        full = np.zeros((10, 6))
        full[:, :2], full[:, 5] = rows, rows[:, 1] / -3.0
        # |ref| from rows scaled to a largest entry of 1, so it does not underflow
        top = np.maximum(np.abs(ref).max(axis=1), 1e-300)
        size = top * np.linalg.norm(ref / top[:, None], axis=1)
        eps = np.finfo(float).eps
        assert (np.abs(full - ref) <= 8.0 * eps * size[:, None]).all()

    @pytest.mark.parametrize(
        "field, make_cfg",
        [
            (FIELD, lambda n: GridConfig.from_line_length(n, 100.0, 1000.0)),
            (FIELD, lambda n: GridConfig(n=n, m_sys=100.0, d_sat=30.0)),
            (OFF_FIELD, lambda n: GridConfig.from_line_length(n, 100.0, 1000.0)),
        ],
        ids=["reference", "d_sat", "off-region"],
    )
    def test_scan_matches_frame_rows(self, field, make_cfg, monkeypatch):
        grid = orbit_time_grid(field.period, 96)
        cfgs = [make_cfg(n) for n in range(1, 11)]
        with monkeypatch.context() as m:
            m.setattr(power, "_unit_rows", lambda f, t: _frame_unit_rows(f, t)[:, :2])
            refs = compute_power_reports(cfgs, field, None, grid)
        for cfg, rep, ref in zip(cfgs, compute_power_reports(cfgs, field, None, grid), refs):
            assert rep.root_rows == ref.root_rows
            w = w_star_table(cfg, field, grid)
            w_ref = w_star_table(cfg, field, grid, lambda f, t: _frame_unit_rows(f, t)[:, :2])
            assert np.abs(w - w_ref).max() <= 4e-15 * w_ref.max()
            assert abs(rep.vertex_margin - ref.vertex_margin) <= 1e-15
            for name in ("W_bar", "W_oint", "M"):
                assert np.isclose(getattr(rep, name), getattr(ref, name), rtol=2e-15, atol=0.0), name

    def test_scan_forms_no_frame(self, monkeypatch):
        import emff.magnetics

        def no_frame(*args):
            raise AssertionError("a scan formed a line-of-sight frame")

        assert not hasattr(power, "build_los_frame") and not hasattr(power, "unit_wrench")
        cfgs = [GridConfig.from_line_length(n, 100.0, 1000.0) for n in (1, 10)]
        expected = compute_power_reports(cfgs, OFF_FIELD, None, GRID)
        monkeypatch.setattr(emff.magnetics, "build_los_frame", no_frame)
        for rep, ref in zip(compute_power_reports(cfgs, OFF_FIELD, None, GRID), expected):
            _assert_same_report(rep, ref)


class TestScanBatch:
    @pytest.mark.parametrize("field", [FIELD, OFF_FIELD], ids=["reference", "off-region"])
    def test_reports_independent_of_split(self, field):
        grid = orbit_time_grid(field.period, 96)
        cfgs = {n: GridConfig.from_line_length(n, 100.0, 1000.0) for n in range(1, 11)}
        scan = compute_power_reports(list(cfgs.values()), field, COIL, grid)
        for n, rep in zip(cfgs, scan):
            _assert_same_report(rep, compute_power_report(cfgs[n], field, COIL, grid))
        for rep, n in zip(compute_power_reports([cfgs[7], cfgs[3]], field, COIL, grid), (7, 3)):
            _assert_same_report(rep, scan[n - 1])

    def test_non_finite_cost_or_gap_names_every_n(self, monkeypatch):
        cfgs = [GridConfig.from_line_length(n, 100.0, 1000.0) for n in (1, 2, 3)]
        unit_rows = power._unit_rows

        def nan_sample(field, t):
            rows = unit_rows(field, t)
            rows[len(t) // 2, 0] = np.nan
            return rows

        # every pair of every n costs the NaN sample
        with monkeypatch.context() as m:
            m.setattr(power, "_unit_rows", nan_sample)
            with pytest.raises(SolverError, match=r"at n = 1, 2, 3$"):
                compute_power_reports(cfgs, FIELD, None, GRID)
        # off-region root rows measure gaps near 1e-15, the reference scan none
        monkeypatch.setattr(power, "DEFAULT_TOL", 1e-17)
        with pytest.raises(SolverError, match=r"at n = 1, 2, 3$"):
            compute_power_reports(cfgs, OFF_FIELD, None, GRID)
        assert [rep.gap for rep in compute_power_reports(cfgs, FIELD, None, GRID)] == [0.0] * 3

    @pytest.mark.parametrize(
        "field, make_cfg",
        [
            (FIELD, lambda n: GridConfig.from_line_length(n, 100.0, 1000.0)),
            (FIELD, lambda n: GridConfig(n=n, m_sys=100.0, d_sat=30.0)),
            (OFF_FIELD, lambda n: GridConfig.from_line_length(n, 100.0, 1000.0)),
        ],
        ids=["reference", "d_sat", "off-region"],
    )
    def test_reports_match_materialised_rows(self, field, make_cfg):
        # each report against the per-row vertex certificate over its
        # materialised rows, and its other rows against the solver's bounds,
        # one report at a time
        grid = orbit_time_grid(field.period, 96)
        cfgs = [make_cfg(n) for n in range(1, 11)]
        unit = power._unit_rows(field, grid)
        for cfg, rep in zip(cfgs, compute_power_reports(cfgs, field, None, grid)):
            scales = power._pair_scales(cfg)[:, None, :]
            J, vertex, _, gap = power._pair_costs(scales, unit)
            w = 2.0 * (J[:, : len(grid)] + J[:, len(grid) :])
            assert rep.M == cfg.chi_sys * cfg.n_line * w.sum(axis=0).mean() / cfg.m_sys
            if cfg.n > 1:
                assert rep.peak_pair_violation == (w[1:] - w[0]).max() / w.max()
            rows = _materialise(scales, unit).reshape(-1, 6)
            J_ref, certified, margin = _reference_vertex_costs(rows, psi_stack(1.0))
            J = J.ravel()
            assert np.array_equal(vertex.ravel(), certified)
            assert np.array_equal(J[certified], J_ref[certified])
            assert rep.root_rows == (~certified).sum()
            assert gap.max() <= rep.gap <= DEFAULT_TOL
            if not certified.all():
                _assert_within_solver_bounds(J[~certified], rows[~certified])
            assert abs(rep.vertex_margin - np.fmin.reduce(np.where(certified, margin, np.nan))) <= 1e-15

    def test_each_pair_row_costed_once(self, monkeypatch):
        # one _pair_costs call per config, on that config's pair scales against
        # the sample grid, and at most one more on pair-2 rows off the grid
        cfgs = [GridConfig.from_line_length(n, 100.0, 1000.0) for n in (1, 4, 9)]
        heads = np.array([power._pair_scales(cfg)[0] for cfg in cfgs])
        pair_costs = power._pair_costs
        for field in (FIELD, OFF_FIELD):
            grid_rows, calls = power._unit_rows(field, GRID), []
            monkeypatch.setattr(power, "_pair_costs", lambda sc, u: calls.append((sc, u)) or pair_costs(sc, u))
            compute_power_reports(cfgs, field, None, GRID)
            on_grid = [sc for sc, u in calls if np.array_equal(u, grid_rows)]
            assert len(on_grid) == len(cfgs)
            for sc, cfg in zip(on_grid, cfgs):
                assert np.array_equal(sc, power._pair_scales(cfg)[:, None, :])
            refined = [(sc, u) for sc, u in calls if not np.array_equal(u, grid_rows)]
            assert len(refined) <= 1
            for sc, u in refined:
                assert sc.shape[1:] == (1, 2) and all((heads == row).all(axis=1).any() for row in sc[:, 0])
                assert u.shape == (len(sc), 2, 2)

    def test_scan_memory_is_one_table(self):
        # n = 1..60 at 720 samples: the scan's whole peak traced memory, reports
        # included, is a few of its largest (n, 2T) float64 table, about 9: the
        # table being costed, its temporaries and the last config's arrays,
        # released as the next are bound.  A scan whose reports kept their
        # (n, T) tables would read about 22.6
        cfgs = [GridConfig.from_line_length(n, 100.0, 1000.0) for n in range(1, 61)]
        grid = orbit_time_grid(CTX.period, 720)
        tracemalloc.start()
        try:
            compute_power_reports(cfgs, FIELD, None, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (60 * 2 * len(grid) * 8) <= 12.0

    def test_no_configs_no_reports(self):
        assert compute_power_reports([], FIELD, COIL, GRID) == []

    def test_zero_separation_rejected(self):
        cfgs = [GridConfig(n=1, m_sys=100.0, d_sat=10.0), GridConfig(n=2, m_sys=100.0, d_sat=1e-3)]
        with pytest.raises(ZeroSeparationError):
            compute_power_reports(cfgs, FIELD, None, GRID)


def _fraction_scales(cfg):
    """_pair_scales built from the exact Fraction weights, one pair at a time."""
    ab = [[float(force_weight(cfg.n, j)), float(torque_weight(cfg.n, j))] for j in range(2, cfg.n + 2)]
    return np.array(ab) * [cfg.d_sat**4 * cfg.r_l, cfg.d_sat**3 * cfg.r_l**2]


class TestPairScales:
    def test_bit_identical_to_fraction_weights(self):
        for n in [*range(1, 501), 10**4, 10**5, 165139]:
            cfg = GridConfig(n=n, m_sys=100.0, d_sat=0.7)
            scales, ref = power._pair_scales(cfg), _fraction_scales(cfg)
            assert scales.dtype == ref.dtype and np.array_equal(scales.view(np.int64), ref.view(np.int64)), n

    def test_limit_is_last_exact_n(self):
        n = power._MAX_EXACT_N
        assert n * (n + 1) * (2 * n + 1) <= 2**53 < (n + 1) * (n + 2) * (2 * n + 3)

    def test_above_limit_raises_before_any_table(self, monkeypatch):
        calls = []
        monkeypatch.setattr(power, "_pair_costs", lambda *args: calls.append(args))
        monkeypatch.setattr(power, "_unit_rows", lambda *args: calls.append(args))
        cfgs = [GridConfig(n=1, m_sys=100.0, d_sat=10.0), GridConfig(n=165140, m_sys=100.0, d_sat=10.0)]
        with pytest.raises(ValueError, match=r"n = 165140 is above 165139"):
            compute_power_reports(cfgs, FIELD, None, GRID)
        assert calls == []


class TestPeakRefinement:
    @pytest.mark.parametrize("field", [FIELD, OFF_FIELD], ids=["reference", "off-region"])
    @pytest.mark.parametrize("n", [1, 6])
    def test_matches_dense_search(self, field, n):
        # the dense search reads w*(2, t) off one 2 001-sample table on
        # [t_i - dt, t_i + dt]
        cfg = GridConfig.from_line_length(n, 100.0, 1000.0)
        grid = orbit_time_grid(field.period, 720)
        rep = compute_power_report(cfg, field, None, grid)
        top = w_star_table(cfg, field, grid)[0]
        t_i = grid[np.argmax(top)]
        dt = field.period / len(grid)
        best = w_star_table(cfg, field, np.linspace(t_i - dt, t_i + dt, 2001))[0].max()
        assert abs(rep.W_bar / cfg.chi_sys - best) <= 1e-9 * best
        assert rep.W_bar >= cfg.chi_sys * top.max()

    @pytest.mark.parametrize("field", [FIELD, OFF_FIELD], ids=["reference", "off-region"])
    def test_never_below_grid_maximum(self, field):
        cfgs = [GridConfig.from_line_length(n, 100.0, 1000.0) for n in (1, 2, 5)]
        for n_t in (3, 5, 7, 48, 97):
            grid = orbit_time_grid(field.period, n_t)
            for cfg, rep in zip(cfgs, compute_power_reports(cfgs, field, None, grid)):
                assert rep.W_bar >= rep.chi_sys * w_star_table(cfg, field, grid)[0].max()

    @pytest.mark.parametrize("n_t", [1, 2])
    def test_short_grids_keep_grid_maximum(self, n_t):
        cfgs = [GridConfig.from_line_length(n, 100.0, 1000.0) for n in (1, 4)]
        for field in (FIELD, OFF_FIELD, zero_field()):
            grid = orbit_time_grid(field.period, n_t)
            for cfg, rep in zip(cfgs, compute_power_reports(cfgs, field, None, grid)):
                assert rep.W_bar == rep.chi_sys * w_star_table(cfg, field, grid)[0].max()
