from fractions import Fraction

import numpy as np
import pytest

from emff import (
    DisturbanceField,
    GridConfig,
    StablePlane,
    equilibrium_residuals,
    force_weight,
    make_context,
    pair_command,
    telescoping_oracle,
    torque_weight,
    unit_wrench,
)


def constant_field(K, p):
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    return DisturbanceField(k_orb=lambda t: K, p_hat=lambda t: p, period=6000.0)


def random_field(rng):
    K = rng.normal(scale=1e-8, size=(3, 3))
    return constant_field(0.5 * (K + K.T), rng.normal(size=3))


class TestWeights:
    def test_center_pair_is_identity(self):
        for n in range(1, 51):
            assert force_weight(n, 2) == Fraction(1)
            assert torque_weight(n, 2) == Fraction(1)
            assert type(force_weight(n, 2)) is Fraction and type(torque_weight(n, 2)) is Fraction

    def test_edge_pair_values(self):
        for n in range(1, 30):
            assert force_weight(n, n + 1) == Fraction(2, n + 1)
            assert torque_weight(n, n + 1) == Fraction(6, (n + 1) * (2 * n + 1))

    def test_nonincreasing_in_j(self):
        for n in (1, 4, 11, 50):
            fw = [force_weight(n, j) for j in range(2, n + 2)]
            tw = [torque_weight(n, j) for j in range(2, n + 2)]
            assert all(a >= b for a, b in zip(fw, fw[1:]))
            assert all(a >= b for a, b in zip(tw, tw[1:]))

    def test_j_out_of_range(self):
        with pytest.raises(ValueError):
            force_weight(4, 1)
        with pytest.raises(ValueError):
            torque_weight(4, 6)

    def test_exact_rational_telescoping_identity(self):
        # closed form vs the defining sums, in exact arithmetic, all n <= 50
        for n in range(1, 51):
            for j in range(2, n + 2):
                force_sum = Fraction(sum(range(j - 1, n + 1)))
                assert force_weight(n, j) == force_sum / Fraction(n * (n + 1), 2)
                torque_sum = sum(
                    Fraction((n - k + 1) * (n + k), 2) for k in range(j - 1, n + 1)
                )
                assert torque_weight(n, j) == torque_sum / Fraction(
                    n * (n + 1) * (2 * n + 1), 6
                )


class TestGridConfig:
    def test_derived_quantities(self):
        cfg = GridConfig(n=3, m_sys=98.0, d_sat=4.0)
        assert cfg.n_line == 7 and cfg.n_total == 49
        assert cfg.m_sat == 2.0
        assert cfg.r_l == 28.0
        assert np.isclose(cfg.chi_sys, 98.0 * 12 / (6 * 343))

    def test_from_line_length(self):
        cfg = GridConfig.from_line_length(2, 50.0, 100.0)
        assert np.isclose(cfg.d_sat, 20.0)
        assert np.isclose(cfg.r_l, 100.0)

    def test_chi_sys_strictly_decreasing(self):
        chis = [GridConfig(n=n, m_sys=100.0, d_sat=1.0).chi_sys for n in range(1, 101)]
        assert all(a > b for a, b in zip(chis, chis[1:]))

    def test_chi_sys_asymptote(self):
        cfg = GridConfig(n=100, m_sys=100.0, d_sat=1.0)
        assert abs(cfg.chi_sys / (100.0 / (48 * 100)) - 1.0) <= 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            GridConfig(n=0, m_sys=10.0, d_sat=1.0)
        with pytest.raises(ValueError):
            GridConfig(n=1, m_sys=-10.0, d_sat=1.0)
        with pytest.raises(ValueError, match="n must be an integer"):
            GridConfig(n=2.5, m_sys=100.0, d_sat=10.0)
        with pytest.raises(ValueError, match="n must be an integer"):
            GridConfig(n=np.float64(2.0), m_sys=100.0, d_sat=10.0)
        cfg = GridConfig(n=np.int64(3), m_sys=98.0, d_sat=4.0)
        assert type(cfg.n) is int and cfg.n == 3

    @pytest.mark.parametrize(
        "make,field",
        [
            (lambda: GridConfig(n=2, m_sys=np.inf, d_sat=1.0), "m_sys"),
            (lambda: GridConfig(n=2, m_sys=100.0, d_sat=np.inf), "d_sat"),
            (lambda: GridConfig.from_line_length(2, 100.0, np.inf), "d_sat"),
        ],
    )
    def test_fields_finite(self, make, field):
        # an infinite m_sys would give M = nan (and a RuntimeWarning) downstream
        with pytest.raises(ValueError, match=f"GridConfig.{field} must be finite"):
            make()


class TestUnitWrench:
    def test_zero_generator(self):
        assert np.all(unit_wrench(np.zeros((3, 3)), [1.0, 2.0, 3.0]) == 0.0)

    def test_identity_generator(self):
        R_l = np.array([1.0, -2.0, 0.5])
        u = unit_wrench(np.eye(3), R_l)
        assert np.allclose(u[:3], 3.0 * R_l)
        assert np.all(u[3:] == 0.0)

    def test_torque_orthogonal_to_line(self, rng):
        for _ in range(20):
            K = rng.normal(size=(3, 3))
            R_l = rng.normal(size=3)
            u = unit_wrench(K, R_l)
            assert abs(u[3:] @ R_l) <= 1e-12 * np.linalg.norm(u[3:]) * np.linalg.norm(R_l)


    def test_stack_matches_rows(self, rng):
        K = rng.normal(size=(6, 3, 3))
        R_l = rng.normal(size=(6, 3))
        u = unit_wrench(K, R_l)
        assert u.shape == (6, 6)
        for i in range(6):
            assert np.array_equal(u[i], unit_wrench(K[i], R_l[i]))


class TestDisturbanceField:
    def test_time_array_matches_single_times(self, rng):
        ctx = make_context(500e3, np.deg2rad(45.0), 0.0)
        plane = StablePlane(theta_p=np.deg2rad(30.0), theta_z_xy=0.0, r_xyd=100.0)
        ts = rng.uniform(0.0, 2.0 * ctx.period, size=9)
        for field in (DisturbanceField.from_orbit(ctx, plane), random_field(rng)):
            K = np.broadcast_to(field.k_orb(ts), (9, 3, 3))
            p = field.direction(ts)
            assert p.shape == (9, 3)
            for i, t in enumerate(ts):
                assert np.array_equal(K[i], field.k_orb(t))
                assert np.array_equal(p[i], field.direction(t))

    def test_direction_rejects_non_unit_row(self):
        # 1 + 5e-6 is inside np.isclose's default relative tolerance
        for bad_norm in (2.0, 1.0 + 5e-6):

            def p_hat(t):
                p = np.zeros(np.shape(t) + (3,))
                p[..., 0] = np.where(np.asarray(t) > 5.0, bad_norm, 1.0)
                return p

            field = DisturbanceField(k_orb=lambda t: np.eye(3), p_hat=p_hat, period=6000.0)
            assert np.array_equal(field.direction(np.arange(5.0)), np.tile([1.0, 0.0, 0.0], (5, 1)))
            with pytest.raises(ValueError):
                field.direction(np.arange(10.0))

    def test_direction_norm_bound(self):
        # |norm - 1| <= 1e-9 passes; NaN and inf norms fail like any other
        def field_of(norm):
            p = np.array([norm, 0.0, 0.0])
            return DisturbanceField(k_orb=lambda t: np.eye(3), p_hat=lambda t: p, period=6000.0)

        for bad_norm in (np.nan, np.inf, 1.0 + 2e-9):
            with pytest.raises(ValueError, match="unit vector"):
                field_of(bad_norm).direction(np.arange(3.0))
        assert field_of(1.0 + 5e-10).direction(np.arange(3.0)).shape == (3, 3)


class TestPairCommand:
    def test_zero_generator_all_pairs(self, rng):
        field = constant_field(np.zeros((3, 3)), rng.normal(size=3))
        cfg = GridConfig(n=5, m_sys=100.0, d_sat=3.0)
        for j in range(2, 7):
            assert np.all(pair_command(cfg, field, j, 0.0) == 0.0)

    def test_center_pair_is_chi_u_hat(self, rng):
        field = random_field(rng)
        cfg = GridConfig(n=4, m_sys=120.0, d_sat=2.5)
        u = pair_command(cfg, field, 2, 0.0)
        K = field.k_orb(0.0)
        R_l = cfg.r_l * field.direction(0.0)
        assert np.allclose(u, cfg.chi_sys * unit_wrench(K, R_l), rtol=1e-14)

    def test_matches_telescoping_all_j(self, rng):
        for n in (1, 2, 7, 20, 50):
            cfg = GridConfig(n=n, m_sys=100.0, d_sat=5.0)
            field = random_field(rng)
            for j in range(2, n + 2):
                closed = pair_command(cfg, field, j, 0.0)
                summed = telescoping_oracle(cfg, field, j, 0.0)
                ref = max(np.linalg.norm(summed), 1e-300)
                assert np.linalg.norm(closed - summed) <= 1e-12 * ref

    def test_edge_boundary_condition(self, rng):
        # command on satellite n-1 from n balances exactly the edge disturbance
        field = random_field(rng)
        cfg = GridConfig(n=6, m_sys=100.0, d_sat=5.0)
        u = telescoping_oracle(cfg, field, cfg.n + 1, 0.0)
        K, p = field.k_orb(0.0), field.direction(0.0)
        assert np.allclose(u[:3], cfg.m_sat * cfg.n * cfg.d_sat * (K @ p), rtol=1e-13)

    def test_center_pair_sizing_force(self, rng):
        # f_{0<-1} is n(n+1)/(2n+1) times the idealized edge disturbance
        # (m_sat/2) K R_l, which bounds the actual edge command m_sat n d K p
        for n in (1, 3, 10):
            cfg = GridConfig(n=n, m_sys=100.0, d_sat=5.0)
            field = random_field(rng)
            K, p = field.k_orb(0.0), field.direction(0.0)
            ideal_edge = cfg.m_sat / 2.0 * (K @ (cfg.r_l * p))
            f_center = pair_command(cfg, field, 2, 0.0)[:3]
            assert np.allclose(f_center, n * (n + 1) / (2 * n + 1) * ideal_edge, rtol=1e-12)
            actual_edge = cfg.m_sat * n * cfg.d_sat * (K @ p)
            assert np.linalg.norm(ideal_edge) >= np.linalg.norm(actual_edge)

    def test_center_force_is_triangular_sum(self, rng):
        field = random_field(rng)
        cfg = GridConfig(n=6, m_sys=100.0, d_sat=5.0)
        u = telescoping_oracle(cfg, field, 2, 0.0)
        K, p = field.k_orb(0.0), field.direction(0.0)
        expected = cfg.m_sat * cfg.d_sat * cfg.n * (cfg.n + 1) / 2.0 * (K @ p)
        assert np.allclose(u[:3], expected, rtol=1e-13)


class TestEquilibrium:
    def test_residuals_vanish_random_fields(self, rng):
        for n in (1, 2, 5, 11, 20):
            cfg = GridConfig(n=n, m_sys=rng.uniform(10, 300), d_sat=rng.uniform(1, 20))
            field = random_field(rng)
            res = equilibrium_residuals(cfg, field, 0.0)
            K, p = field.k_orb(0.0), field.direction(0.0)
            edge = np.linalg.norm(cfg.m_sat * n * cfg.d_sat * (K @ p))
            assert np.abs(res["force"]).max() <= 1e-10 * edge
            assert np.linalg.norm(res["center_force"]) <= 1e-12 * edge
            mask = res["index"] != 0
            assert np.abs(res["torque"][mask]).max() <= 1e-10 * edge * cfg.d_sat * n

    def test_zero_field_exact_zeros(self, rng):
        cfg = GridConfig(n=4, m_sys=100.0, d_sat=2.0)
        field = constant_field(np.zeros((3, 3)), rng.normal(size=3))
        res = equilibrium_residuals(cfg, field, 0.0)
        assert np.all(res["force"] == 0.0)
        assert np.all(res["torque"] == 0.0)

    def test_mirror_symmetry(self, rng):
        cfg = GridConfig(n=5, m_sys=80.0, d_sat=3.0)
        K = rng.normal(scale=1e-8, size=(3, 3))
        K = 0.5 * (K + K.T)
        p = rng.normal(size=3)
        res_p = equilibrium_residuals(cfg, constant_field(K, p), 0.0)
        res_m = equilibrium_residuals(cfg, constant_field(K, -p), 0.0)
        scale = max(np.abs(res_p["torque"]).max(), 1e-300)
        assert np.allclose(res_p["force"], res_m["force"][::-1], atol=1e-15 * scale)
        assert np.allclose(res_p["torque"], res_m["torque"][::-1], atol=1e-15 * scale)

    def test_center_torque_imbalance_documented(self, rng):
        # both half-lines deliver the same torque to the centre; the residual
        # is exactly 2 chi_sys R_l x (K R_l) and is reported, not hidden
        cfg = GridConfig(n=3, m_sys=90.0, d_sat=4.0)
        field = random_field(rng)
        res = equilibrium_residuals(cfg, field, 0.0)
        K, p = field.k_orb(0.0), field.direction(0.0)
        R_l = cfg.r_l * p
        expected = 2.0 * cfg.chi_sys * np.cross(R_l, K @ R_l)
        center = res["torque"][res["index"] == 0][0]
        assert np.allclose(center, expected, rtol=1e-12)
