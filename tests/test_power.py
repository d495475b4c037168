import warnings
from unittest import mock

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
    dipole_metric,
    make_context,
    orbit_time_grid,
    pair_power_w_star,
    peak_power,
    power_index,
    surface_ratio,
    total_power,
)
from emff.brigade import unit_wrench, weighting
from emff.dual import SolverError, solve_dual_batch
from emff.magnetics import MU0, ZeroSeparationError, build_los_frame, psi_stack

CTX = make_context(500e3, np.deg2rad(45.0), 0.0)
PLANE = StablePlane(theta_p=np.deg2rad(30.0), theta_z_xy=0.0, r_xyd=100.0)
FIELD = DisturbanceField.from_orbit(CTX, PLANE)
COIL = CoilDesign(turns=200, coil_radius=0.5, wire_radius=1e-3, resistivity=1.68e-8)
GRID = orbit_time_grid(CTX.period, 48)


def zero_field():
    p = np.array([1.0, 0.0, 0.0])
    return DisturbanceField(k_orb=lambda t: np.zeros((3, 3)), p_hat=lambda t: p, period=CTX.period)


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
        assert peak_power(cfg, zero_field(), COIL, GRID) == 0.0

    def test_sup_dominates_grid(self):
        cfg = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        W_bar = peak_power(cfg, FIELD, COIL, GRID)
        for t in GRID[::6]:
            w = pair_power_w_star(cfg, FIELD, COIL, 2, t)
            assert W_bar >= cfg.chi_sys * w * (1 - 1e-12)

    def test_linear_in_system_mass(self):
        cfg1 = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        cfg2 = GridConfig(n=2, m_sys=200.0, d_sat=10.0)
        W1 = peak_power(cfg1, FIELD, COIL, GRID)
        W2 = peak_power(cfg2, FIELD, COIL, GRID)
        assert abs(W2 / W1 - 2.0) <= 1e-9

    def test_vanishes_as_count_grows(self):
        # fixed mass and array size: chi_sys and the pair costs both shrink
        values = [
            peak_power(GridConfig.from_line_length(n, 100.0, 300.0), FIELD, COIL, GRID)
            for n in (1, 2, 4, 8)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] <= 0.01 * values[0]

    def test_empty_grid_rejected(self):
        cfg = GridConfig(n=1, m_sys=100.0, d_sat=10.0)
        with pytest.raises(ValueError):
            peak_power(cfg, FIELD, COIL, np.array([]))


class TestTotalPower:
    def test_zero_field(self):
        cfg = GridConfig(n=3, m_sys=100.0, d_sat=10.0)
        assert total_power(cfg, zero_field(), COIL, GRID) == 0.0

    def test_n1_single_term_formula(self):
        cfg = GridConfig(n=1, m_sys=100.0, d_sat=10.0)
        expected = cfg.chi_sys * 3.0 * np.mean(
            [pair_power_w_star(cfg, FIELD, COIL, 2, t) for t in GRID]
        )
        assert np.isclose(total_power(cfg, FIELD, COIL, GRID), expected, rtol=1e-10)

    def test_grid_refinement_converges(self):
        cfg = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        w1 = total_power(cfg, FIELD, COIL, orbit_time_grid(CTX.period, 48))
        w2 = total_power(cfg, FIELD, COIL, orbit_time_grid(CTX.period, 96))
        assert abs(w2 - w1) <= 1e-3 * w2


class TestDipoleMetric:
    def test_coil_independent(self):
        cfg = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        M = dipole_metric(cfg, FIELD, GRID)
        W = total_power(cfg, FIELD, COIL, GRID)
        assert np.isclose(M, W / (cfg.m_sys * COIL.power_scale), rtol=1e-12)

    def test_mass_invariant(self):
        M1 = dipole_metric(GridConfig(n=2, m_sys=100.0, d_sat=10.0), FIELD, GRID)
        M2 = dipole_metric(GridConfig(n=2, m_sys=200.0, d_sat=10.0), FIELD, GRID)
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


class TestReport:
    def test_report_consistifies_summaries(self):
        cfg = GridConfig(n=2, m_sys=100.0, d_sat=10.0)
        rep = compute_power_report(cfg, FIELD, COIL, GRID)
        assert np.isclose(rep.W_oint, total_power(cfg, FIELD, COIL, GRID), rtol=1e-12)
        assert np.isclose(rep.W_bar, peak_power(cfg, FIELD, COIL, GRID), rtol=1e-12)
        assert np.isclose(rep.M, dipole_metric(cfg, FIELD, GRID), rtol=1e-12)
        assert rep.gamma_S == surface_ratio(5)
        assert rep.w_star_unit.shape == (2, len(GRID))
        # peak-pair rule: no sampled pair beats the center pair
        assert rep.peak_pair_violation <= 0.0

    def test_w_bar_bounds_every_sample(self):
        cfg = GridConfig(n=3, m_sys=50.0, d_sat=8.0)
        rep = compute_power_report(cfg, FIELD, COIL, GRID)
        assert rep.W_bar >= (cfg.chi_sys * COIL.power_scale * rep.w_star_unit[0]).max() * (
            1 - 1e-12
        )

    def test_scalar_and_grid_paths_agree(self):
        cfg = GridConfig(n=1, m_sys=50.0, d_sat=8.0)
        rep = compute_power_report(cfg, FIELD, COIL, GRID)
        for i in (0, 17, 43):
            w = pair_power_w_star(cfg, FIELD, None, 2, GRID[i])
            assert np.isclose(rep.w_star_unit[0, i], w, rtol=1e-9)


# inclination 60 deg, theta_p 15 deg: some rows leave the closed-form region
OFF_CTX = make_context(500e3, np.deg2rad(60.0), 0.0)
OFF_FIELD = DisturbanceField.from_orbit(
    OFF_CTX, StablePlane(theta_p=np.deg2rad(15.0), theta_z_xy=0.0, r_xyd=100.0)
)


def _vertex_row(fx, fy, k):
    """Scaled LOS brigade row (f_x, f_y, 0, 0, 0, tau_z) with tau_z = -k f_y/3."""
    return np.array([fx, fy, 0.0, 0.0, 0.0, -k * fy / 3.0])


def _reference_vertex_costs(u, Q):
    """The per-row vertex certificate over materialised rows u (B, 6) against
    Q = psi_stack(1): (J, certified, margin), margin lambda_min(S)/tr S on
    every row.  The oracle for power._pair_costs, which never forms the rows."""
    u = np.ascontiguousarray(u.T)  # one contiguous row per component
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
    bound = power.VERTEX_RTOL * np.sqrt(np.einsum("ib,ib->b", u, u))
    certified = (
        (lam_min >= 0.0)
        & (np.sqrt(np.einsum("ib,ib->b", u[2:5], u[2:5])) <= bound)
        & (np.sqrt(np.einsum("ib,ib->b", residual, residual)) <= bound)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = lam_min / (p + r)
    return (8.0 * np.pi / MU0) * np.abs(v), certified, margin


def _stubbed_pair_costs(scales, unit):
    """power._pair_costs with the solver stubbed out: every uncertified row
    costs -1, so rows the solver would reject (NaN) reach no solve."""

    def solver_stub(Q, u):
        return {"J_d": np.full(len(u), -1.0), "stalled": np.zeros(len(u), dtype=bool)}

    with mock.patch.object(power, "solve_dual_batch", solver_stub):
        return power._pair_costs(np.asarray(scales, dtype=float), np.asarray(unit, dtype=float))


# per-pair scales (alpha, k = beta/alpha), k across the certificate's
# boundaries at k = 1, 2 and 3 and near them
_scale_draws = st.tuples(
    st.floats(-3.0, 12.0).map(lambda e: 10.0**e),
    st.one_of(
        st.floats(0.1, 25.0),
        st.builds(lambda k, e: k * (1.0 + e), st.sampled_from([1.0, 2.0, 3.0]), st.floats(-1e-6, 1e-6)),
    ),
)


@st.composite
def _unit_row_draws(draw):
    """Unit LOS rows (f, tau): brigade-shaped (tau_z = -f_y/3), with an
    out-of-plane entry 1e-13 or 1e-11 relative, with a free tau_z, with
    v = f_y + 2 tau_z = 0, zero or NaN."""
    kind = draw(st.sampled_from(["brigade", "out-of-plane", "torque", "v = 0", "zero", "nan"]))
    fy = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-6.0, 3.0))
    fx = fy * draw(st.one_of(st.just(0.0), st.just(3.0 * np.sqrt(2.0)), st.floats(-10.0, 10.0)))
    row = _vertex_row(fx, fy, 1.0)
    if kind == "out-of-plane":
        rel = draw(st.sampled_from([1e-13, 1e-11]))
        row[draw(st.sampled_from([2, 3, 4]))] = rel * np.linalg.norm(row)
    elif kind == "torque":
        row[5] = fy * draw(st.floats(-10.0, 10.0))
    elif kind == "v = 0":
        row[[1, 5]] = 0.0
    elif kind == "zero":
        row[:] = 0.0
    elif kind == "nan":
        row[draw(st.integers(0, 5))] = np.nan
    return row


# rho is |f_x| over the certificate boundary 3 f_y sqrt((k-1)(k-2)); at k = 2
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
        rows, expected = [], []
        for rho, k, log_fy, sx, sign in draws:
            fy = 10.0**log_fy
            edge = 1.0 if k == 2.0 else 3.0 * np.sqrt((k - 1.0) * (k - 2.0))
            rows.append(sign * _vertex_row(sx * rho * edge * fy, fy, k))
            # within rounding of the boundary either routing is right
            if k > 2.0:
                expected.append(None if abs(rho - 1.0) <= 1e-9 else rho < 1.0)
            else:
                expected.append(None if 0.0 < rho <= 1e-7 else rho == 0.0)
        rows = np.array(rows)
        sent = []

        def solver_stub(Q, u):
            sent.append(np.array(u))
            return {"J_d": -1.0 - np.arange(len(u)), "stalled": np.zeros(len(u), dtype=bool)}

        with mock.patch.object(power, "solve_dual_batch", solver_stub):
            J, kept, _ = power._pair_costs(np.ones(2), rows.copy())
        n_sent = (~kept).sum()
        certified = J >= 0.0
        # exactly the uncertified rows, in order, went to one solver call
        assert len(sent) == (1 if n_sent else 0) and n_sent == (~certified).sum()
        if n_sent:
            assert np.array_equal(sent[0], rows[~certified])
            assert np.array_equal(J[~certified], -1.0 - np.arange(n_sent))
        for ok, want in zip(certified, expected):
            assert want is None or ok == want
        if certified.any():
            # the scale identity: the unscaled rows against psi_stack(d), solved
            # by the primal-dual oracle, whose two points are checked directly
            Q = psi_stack(d)
            unscaled = rows[certified] / np.array([d**4] * 3 + [d**3] * 3)
            ref = solve_dual_batch(Q, unscaled)
            for u, X, R in zip(unscaled, ref["X"], ref["R"]):
                assert np.linalg.norm(Q @ X.ravel(order="F") + u) <= 1e-12 * np.linalg.norm(u)
                assert np.linalg.svd(R, compute_uv=False)[0] <= 1.0 + 1e-15
            assert not ref["stalled"].any()
            assert np.allclose(J[certified], ref["J_d"], rtol=1e-10, atol=0.0)

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

    def test_out_of_plane_rows_go_to_the_solver(self):
        u = _vertex_row(0.5, 1.0, 5.0)
        for i in (2, 3, 4):
            off = u.copy()
            off[i] = 1e-9
            _, certified, _ = power._pair_costs(np.ones(2), off[None])
            assert not certified[0]
        _, certified, _ = power._pair_costs(np.ones(2), u[None])
        assert certified[0]

    def test_degenerate_rows_never_raise(self):
        rows = np.array([
            np.zeros(6), _vertex_row(1.0, 1.0, 1.5), _vertex_row(np.nan, 1.0, 5.0),
            _vertex_row(1.0, 1.0, 5.0),
        ])
        J, certified, margin = _stubbed_pair_costs(np.ones(2), rows)
        # u = 0 is certified at J = 0; v = 0 with u != 0 and a NaN row are not
        assert certified.tolist() == [True, False, False, True]
        assert J[0] == 0.0 and np.isnan(margin[0])

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
            J, certified, margin = _stubbed_pair_costs(scales[:, None, :], unit)
        rows = np.repeat(scales, 3, axis=1)[:, None, :] * unit
        J_ref, certified_ref, margin_ref = (
            a.reshape(J.shape) for a in _reference_vertex_costs(rows.reshape(-1, 6), psi_stack(1.0))
        )
        # the certificates differ only where rounding decides lambda_min >= 0
        near = np.abs(margin_ref) <= 1e-9
        assert np.array_equal(certified[~near], certified_ref[~near])
        both = certified & certified_ref
        assert np.array_equal(J[both], J_ref[both])
        assert np.allclose(margin[both], margin_ref[both], rtol=0.0, atol=1e-15, equal_nan=True)
        assert (J[~certified] == -1.0).all() and np.isnan(margin[~certified]).all()


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
        J = solve_dual_batch(psi_stack(cfg.d_sat), u_los * np.diag(weighting(cfg.n, j)))["J_d"]
        w.append(2.0 * (J[:n_t] + J[n_t:]))
    return np.array(w)


class TestRouting:
    def test_off_region_matches_all_solver_reference(self):
        grid = orbit_time_grid(OFF_CTX.period, 96)
        for n in (1, 2, 3):
            cfg = GridConfig.from_line_length(n, 100.0, 1000.0)
            rep = compute_power_report(cfg, OFF_FIELD, None, grid)
            assert rep.uncertified_rows > 0
            ref = _solver_pair_costs(cfg, OFF_FIELD, grid)
            assert np.allclose(rep.w_star_unit, ref, rtol=1e-10, atol=0.0)

    def test_uncertified_rows_and_vertex_margin(self):
        cfg = GridConfig.from_line_length(3, 100.0, 1000.0)
        grid = orbit_time_grid(CTX.period, 96)
        rep = compute_power_report(cfg, FIELD, None, grid)
        # the reference scenario is closed form throughout; its tightest rows
        # (pair j = n + 1, k = 3) keep lambda_min(S)/tr S near 0.007
        assert rep.uncertified_rows == 0
        assert 0.005 <= rep.vertex_margin <= 0.01
        rep = compute_power_report(cfg, OFF_FIELD, None, orbit_time_grid(OFF_CTX.period, 96))
        assert 0 < rep.uncertified_rows < 2 * 96 * cfg.n
        assert 0.0 <= rep.vertex_margin < 0.05
        # a zero field has only zero rows: certified, and no margin to report
        rep = compute_power_report(cfg, zero_field(), None, grid)
        assert rep.uncertified_rows == 0 and np.isnan(rep.vertex_margin)


def _assert_same_report(a, b):
    assert a.n == b.n
    assert np.array_equal(a.w_star_unit, b.w_star_unit)
    for name in ("W_bar", "W_oint", "M", "uncertified_rows", "vertex_margin"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


def _frame_unit_rows(field, t):
    """Oracle for power._unit_rows: U_hat = unit_wrench(K, p_hat) rotated into
    the frame build_los_frame(-p_hat, f x -p_hat) at t and t + T/4."""
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
        assert rows.shape == ref.shape == (10, 6)
        assert (rows[:, 2:5] == 0.0).all()
        assert np.array_equal(rows[:, 5], rows[:, 1] / -3.0)
        assert (rows[:, 1] >= 0.0).all()
        eps = np.finfo(float).eps
        assert (np.abs(rows - ref) <= 8.0 * eps * np.linalg.norm(ref, axis=1)[:, None]).all()

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
            m.setattr(power, "_unit_rows", _frame_unit_rows)
            refs = compute_power_reports(cfgs, field, None, grid)
        for rep, ref in zip(compute_power_reports(cfgs, field, None, grid), refs):
            assert rep.uncertified_rows == ref.uncertified_rows
            assert np.abs(rep.w_star_unit - ref.w_star_unit).max() <= 4e-15 * ref.w_star_unit.max()
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

    def test_stalled_solve_names_every_n(self, monkeypatch):
        import emff.dual

        # one Newton iteration leaves every uncertified row stalled, and every
        # off-region report has some
        monkeypatch.setattr(emff.dual, "_MAX_NEWTON", 1)
        cfgs = [GridConfig.from_line_length(n, 100.0, 1000.0) for n in (1, 2, 3)]
        with pytest.raises(SolverError, match=r"stalled at n = 1, 2, 3$"):
            compute_power_reports(cfgs, OFF_FIELD, None, GRID)

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
        # each report against the per-row certificate over its materialised
        # rows, the uncertified ones solved one report at a time
        grid = orbit_time_grid(field.period, 96)
        cfgs = [make_cfg(n) for n in range(1, 11)]
        unit = power._unit_rows(field, grid)
        for cfg, rep in zip(cfgs, compute_power_reports(cfgs, field, None, grid)):
            rows = (np.repeat(power._pair_scales(cfg), 3, axis=1)[:, None, :] * unit).reshape(-1, 6)
            J, certified, margin = _reference_vertex_costs(rows, psi_stack(1.0))
            if not certified.all():
                J[~certified] = solve_dual_batch(psi_stack(1.0), rows[~certified])["J_d"]
            J = J.reshape(cfg.n, -1)
            assert np.array_equal(rep.w_star_unit, 2.0 * (J[:, : len(grid)] + J[:, len(grid) :]))
            assert rep.uncertified_rows == (~certified).sum()
            assert abs(rep.vertex_margin - np.fmin.reduce(np.where(certified, margin, np.nan))) <= 1e-15

    def test_no_configs_no_reports(self):
        assert compute_power_reports([], FIELD, COIL, GRID) == []

    def test_zero_separation_rejected(self):
        cfgs = [GridConfig(n=1, m_sys=100.0, d_sat=10.0), GridConfig(n=2, m_sys=100.0, d_sat=1e-3)]
        with pytest.raises(ZeroSeparationError):
            compute_power_reports(cfgs, FIELD, None, GRID)


class TestPeakRefinement:
    @pytest.mark.parametrize("field", [FIELD, OFF_FIELD], ids=["reference", "off-region"])
    @pytest.mark.parametrize("n", [1, 6])
    def test_matches_dense_search(self, field, n):
        # the dense search reads pair_power_w_star's values as one
        # 2 001-sample report on [t_i - dt, t_i + dt]
        cfg = GridConfig.from_line_length(n, 100.0, 1000.0)
        grid = orbit_time_grid(field.period, 720)
        rep = compute_power_report(cfg, field, None, grid)
        t_i = grid[np.argmax(rep.w_star_unit[0])]
        dt = field.period / len(grid)
        dense = compute_power_report(cfg, field, None, np.linspace(t_i - dt, t_i + dt, 2001))
        best = dense.w_star_unit[0].max()
        assert abs(rep.W_bar / cfg.chi_sys - best) <= 1e-9 * best
        assert rep.W_bar >= cfg.chi_sys * rep.w_star_unit[0].max()

    @pytest.mark.parametrize("field", [FIELD, OFF_FIELD], ids=["reference", "off-region"])
    def test_never_below_grid_maximum(self, field):
        cfgs = [GridConfig.from_line_length(n, 100.0, 1000.0) for n in (1, 2, 5)]
        for n_t in (3, 5, 7, 48, 97):
            for rep in compute_power_reports(cfgs, field, None, orbit_time_grid(field.period, n_t)):
                assert rep.W_bar >= rep.chi_sys * rep.w_star_unit[0].max()

    @pytest.mark.parametrize("n_t", [1, 2])
    def test_short_grids_keep_grid_maximum(self, n_t):
        cfgs = [GridConfig.from_line_length(n, 100.0, 1000.0) for n in (1, 4)]
        for field in (FIELD, OFF_FIELD, zero_field()):
            for rep in compute_power_reports(cfgs, field, None, orbit_time_grid(field.period, n_t)):
                assert rep.W_bar == rep.chi_sys * rep.w_star_unit[0].max()
