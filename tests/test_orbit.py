import numpy as np
import pytest

from emff import (
    K_J2,
    MU_EARTH,
    R_EARTH,
    RelativeElements,
    StablePlane,
    desired_trajectory,
    freq_mismatch_disturbance,
    integrate_dynamics,
    j2_core_matrix,
    j2_disturbance_matrix,
    make_context,
    propagate_analytic,
    propagate_analytic_state,
    relative_elements,
)
from emff.orbit import drift_rate, z_amplitude

CTX = make_context(500e3, np.deg2rad(45.0), 0.0)


def random_elements(rng, drifting=False):
    return RelativeElements(
        c1=rng.uniform(-10, 10) if drifting else 0.0,
        c4=rng.uniform(-20, 20) if drifting else 0.0,
        r_xy=rng.uniform(20, 200),
        theta_xy=rng.uniform(-np.pi, np.pi),
        r_z=rng.uniform(20, 200),
        theta_z=rng.uniform(-np.pi, np.pi),
    )


class TestContext:
    def test_j2_off_limit(self):
        ctx = make_context(500e3, 0.7, 0.0, k_j2=0.0)
        assert ctx.s_j2 == 0.0
        assert ctx.c_plus == 1.0 and ctx.c_minus == 1.0
        assert ctx.omega_xy == ctx.omega_o
        assert np.isclose(ctx.omega_z, ctx.omega_o, rtol=1e-15)

    def test_mean_motion_from_altitude(self):
        r_ref = R_EARTH + 500e3
        assert np.isclose(CTX.omega_o, np.sqrt(MU_EARTH / r_ref**3), rtol=1e-15)
        assert CTX.r_ref == r_ref

    def test_equatorial_s_j2_scaling(self):
        ctx = make_context(500e3, 0.0, 0.0)
        r_ref = R_EARTH + 500e3
        assert np.isclose(ctx.s_j2, K_J2 / (MU_EARTH * r_ref**2), rtol=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_context(-10.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            make_context(500e3, 0.0, 0.0, k_j2=1e40)

    @pytest.mark.parametrize(
        "args",
        [
            (np.nan, 0.5, 0.0), (np.inf, 0.5, 0.0), (-np.inf, 0.5, 0.0), (0.0, 0.5, 0.0),
            (500e3, np.nan, 0.0), (500e3, np.inf, 0.0), (500e3, 0.5, np.nan), (500e3, 0.5, -np.inf),
            (500e3, 0.5, 0.0, np.nan), (500e3, 0.5, 0.0, np.inf),
            # finite, but r_ref^3 leaves the float range: no finite period
            (1e103, 0.5, 0.0),
        ],
    )
    def test_non_finite_inputs_rejected(self, args):
        # a ValueError, with no NaN context and no RuntimeWarning (an error under pytest)
        with pytest.raises(ValueError):
            make_context(*args)

    def test_largest_altitudes_keep_a_finite_period(self):
        ctx = make_context(5e102, 0.5, 0.0)
        assert 0.0 < ctx.period < np.inf


class TestElements:
    def test_zero_state(self):
        e = relative_elements(np.zeros(6), CTX)
        assert e.c1 == 0 and e.c4 == 0 and e.r_xy == 0 and e.r_z == 0

    def test_pure_z_oscillation(self):
        z, vz = 40.0, 0.05
        e = relative_elements([0, 0, z, 0, 0, vz], CTX)
        assert e.c1 == 0 and e.c4 == 0 and e.r_xy == 0
        assert np.isclose(e.r_z, np.hypot(z, vz / CTX.omega_z), rtol=1e-12)
        # the Cartesian constants c6 = z and c5 = vz/omega_z, from the polar form
        assert np.isclose(e.r_z * np.sin(e.theta_z), z, rtol=1e-12)
        assert np.isclose(e.r_z * np.cos(e.theta_z), vz / CTX.omega_z, rtol=1e-12)

    def test_roundtrip_at_t0(self, rng):
        for _ in range(10):
            elems = random_elements(rng, drifting=True)
            state = propagate_analytic_state(elems, CTX, 0.0)
            back = relative_elements(state, CTX)
            assert np.isclose(back.c1, elems.c1, rtol=1e-10, atol=1e-10)
            assert np.isclose(back.c4, elems.c4, rtol=1e-10, atol=1e-10)
            assert np.isclose(back.r_xy, elems.r_xy, rtol=1e-10)
            assert np.isclose(back.theta_xy, elems.theta_xy, rtol=1e-10)
            assert np.isclose(back.r_z, elems.r_z, rtol=1e-10)
            assert np.isclose(back.theta_z, elems.theta_z, rtol=1e-10)

    def test_roundtrip_drift_adjusted(self, rng):
        # elements recomputed mid-orbit match the phase-shifted, drifted set
        elems = random_elements(rng, drifting=True)
        t = 1234.5
        state = propagate_analytic_state(elems, CTX, t)
        back = relative_elements(state, CTX)
        e2 = drift_rate(CTX)
        assert np.isclose(back.c1, elems.c1, rtol=1e-9, atol=1e-12)
        assert np.isclose(back.c4, elems.c4 - e2 * elems.c1 * t, rtol=1e-9, atol=1e-9)
        assert np.isclose(back.r_xy, elems.r_xy, rtol=1e-9)
        assert np.isclose(back.r_z, elems.r_z, rtol=1e-9)
        wrap = lambda a: np.angle(np.exp(1j * a))
        assert abs(wrap(back.theta_xy - elems.theta_xy - CTX.omega_xy * t)) <= 1e-9
        assert abs(wrap(back.theta_z - elems.theta_z - CTX.omega_z * t)) <= 1e-9


class TestPropagation:
    def test_zero_elements_stay_zero(self):
        elems = RelativeElements(c1=0, c4=0, r_xy=0, theta_xy=0, r_z=0, theta_z=0)
        pos = propagate_analytic(elems, CTX, np.linspace(0, CTX.period, 7))
        assert np.all(pos == 0.0)

    def test_along_track_drift_slope(self):
        elems = RelativeElements(c1=5.0, c4=0, r_xy=0, theta_xy=0, r_z=0, theta_z=0)
        T = CTX.period
        y0 = propagate_analytic(elems, CTX, 0.0)[1]
        y1 = propagate_analytic(elems, CTX, T)[1]
        assert np.isclose((y1 - y0) / T, -drift_rate(CTX) * elems.c1, rtol=1e-12)

    def test_rk4_matches_analytic_closed_orbit(self, rng):
        elems = random_elements(rng)
        state0 = propagate_analytic_state(elems, CTX, 0.0)
        T = CTX.period
        _, states = integrate_dynamics(state0, CTX, None, None, T, T / 4000.0)
        expected = propagate_analytic(elems, CTX, T)
        assert np.linalg.norm(states[-1][:3] - expected) <= 1e-6

    def test_zero_state_zero_inputs(self):
        T = CTX.period
        _, states = integrate_dynamics(np.zeros(6), CTX, None, None, T / 10, T / 2000)
        assert np.all(states == 0.0)

    def test_rk4_fourth_order_convergence(self, rng):
        elems = random_elements(rng)
        state0 = propagate_analytic_state(elems, CTX, 0.0)
        T = CTX.period / 4
        expected = propagate_analytic(elems, CTX, T)
        errs = []
        for n in (400, 800):
            _, states = integrate_dynamics(state0, CTX, None, None, T, T / n)
            errs.append(np.linalg.norm(states[-1][:3] - expected))
        slope = np.log2(errs[0] / errs[1])
        assert 3.5 <= slope <= 4.5

    def test_step_size_rejected(self):
        with pytest.raises(ValueError):
            integrate_dynamics(np.zeros(6), CTX, None, None, CTX.period, CTX.period / 10)

    def test_forced_integration_matches_quadrature(self):
        # constant z-force on the undamped oscillator has a closed-form response
        a0 = 1e-6
        u_fn = lambda t, X: np.array([0.0, 0.0, a0])
        T = CTX.period / 3
        _, states = integrate_dynamics(np.zeros(6), CTX, u_fn, None, T, T / 3000)
        wz = CTX.omega_z
        z_expected = a0 / wz**2 * (1 - np.cos(wz * T))
        assert np.isclose(states[-1][2], z_expected, rtol=1e-8)

    def test_feedforward_cancels_j2_residual(self):
        # whole-chain sign check: the J2 residual acting on the true position
        # walks the satellite off the closed orbit; cancelling the full
        # generator (core + frequency-mismatch term) evaluated on the desired
        # trajectory holds station to integrator precision
        plane = StablePlane(theta_p=np.deg2rad(30.0), theta_z_xy=0.0, r_xyd=100.0)
        T, w = CTX.period, CTX.omega_xy
        p0 = desired_trajectory(plane, CTX, 0.0)
        v0 = np.array([plane.r_xyd * w / CTX.c_plus, 0.0, z_amplitude(plane) * w])
        state0 = np.concatenate([p0, v0])
        d_fn = lambda t, X: j2_core_matrix(CTX, t) @ X[:3]
        _, free = integrate_dynamics(state0, CTX, None, d_fn, T, T / 4000)
        drift = np.linalg.norm(free[-1][:3] - desired_trajectory(plane, CTX, T))
        assert drift > 1.0  # the residual is not negligible

        u_fn = lambda t, X: -(
            j2_disturbance_matrix(CTX, t) @ desired_trajectory(plane, CTX, t)
        )
        ts, held = integrate_dynamics(state0, CTX, u_fn, d_fn, T, T / 4000)
        errors = np.linalg.norm(held[:, :3] - desired_trajectory(plane, CTX, ts), axis=1)
        assert errors.max() <= 1e-6


class TestDesiredTrajectory:
    PLANE = StablePlane(theta_p=np.deg2rad(30.0), theta_z_xy=0.0, r_xyd=100.0)

    def test_zero_offset_z_component(self):
        ts = np.linspace(0, CTX.period, 33)
        pos = desired_trajectory(self.PLANE, CTX, ts)
        expected = 100.0 / np.tan(np.deg2rad(30.0)) * np.sin(CTX.omega_xy * ts)
        assert np.allclose(pos[:, 2], expected, rtol=1e-12)

    def test_periodic_closure(self):
        p0 = desired_trajectory(self.PLANE, CTX, 0.0)
        p1 = desired_trajectory(self.PLANE, CTX, CTX.period)
        assert np.linalg.norm(p1 - p0) <= 1e-9

    def test_amplitude_ratios(self):
        ts = np.linspace(0, CTX.period, 4001)
        pos = desired_trajectory(self.PLANE, CTX, ts)
        assert np.isclose(np.abs(pos[:, 0]).max(), 100.0 / CTX.c_plus, rtol=1e-6)
        assert np.isclose(np.abs(pos[:, 1]).max(), 200.0 / CTX.c_minus, rtol=1e-6)

    def test_plane_validation(self):
        with pytest.raises(ValueError):
            StablePlane(theta_p=0.0, theta_z_xy=0.0, r_xyd=100.0)
        with pytest.raises(ValueError):
            StablePlane(theta_p=0.5, theta_z_xy=0.0, r_xyd=-5.0)

    @pytest.mark.parametrize(
        "field,value",
        [("theta_p", np.nan), ("theta_p", np.inf), ("theta_z_xy", np.nan),
         ("theta_z_xy", -np.inf), ("r_xyd", np.inf)],
    )
    def test_plane_fields_finite(self, field, value):
        # rejected at construction, not later as a non-unit p_hat
        values = dict(theta_p=0.5, theta_z_xy=0.0, r_xyd=100.0)
        with pytest.raises(ValueError, match=f"StablePlane.{field} must be finite"):
            StablePlane(**{**values, field: value})


class TestFreqMismatch:
    def test_matched_frequencies_vanish(self):
        ctx = make_context(500e3, 0.7, 0.0, k_j2=0.0)
        ts = np.linspace(0, ctx.period, 50)
        assert np.all(freq_mismatch_disturbance(100.0, 0.4, ctx, ts) == 0.0)

    def test_t0_value(self):
        r_zd, th = 80.0, 0.6
        d0 = freq_mismatch_disturbance(r_zd, th, CTX, 0.0)
        assert np.isclose(
            d0, r_zd * np.sin(th) * (CTX.omega_xy**2 - CTX.omega_z**2), rtol=1e-12
        )

    def test_amplitude_bound(self):
        r_zd = 50.0
        ts = np.linspace(0, 3 * CTX.period, 2000)
        d = freq_mismatch_disturbance(r_zd, 1.1, CTX, ts)
        assert np.abs(d).max() <= r_zd * (CTX.omega_xy**2 + CTX.omega_z**2)


class TestDisturbanceMatrix:
    def test_core_trace_free_and_symmetric(self):
        for t in np.linspace(0, CTX.period, 17):
            K = j2_core_matrix(CTX, t)
            assert abs(np.trace(K)) <= 1e-15 * np.abs(K).max()
            assert np.array_equal(K, K.T)

    def test_equatorial_core_vanishes(self):
        ctx = make_context(500e3, 0.0, 0.0)
        assert np.all(j2_core_matrix(ctx, 123.0) == 0.0)

    def test_full_matrix_adds_frequency_term(self):
        t = 440.0
        K = j2_disturbance_matrix(CTX, t)
        Kc = j2_core_matrix(CTX, t)
        assert np.isclose(K[2, 2] - Kc[2, 2], -(CTX.omega_z**2 - CTX.omega_xy**2), rtol=1e-12)
        assert np.allclose(K[:2], Kc[:2])

    def test_periodic_in_theta(self):
        T_theta = 2 * np.pi / CTX.omega_z
        assert np.allclose(
            j2_core_matrix(CTX, 100.0), j2_core_matrix(CTX, 100.0 + T_theta), atol=1e-24
        )

    def test_z_amplitude_helper(self):
        plane = StablePlane(theta_p=np.deg2rad(30.0), theta_z_xy=0.0, r_xyd=100.0)
        assert np.isclose(z_amplitude(plane), 100.0 / np.tan(np.deg2rad(30.0)), rtol=1e-12)
