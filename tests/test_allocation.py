import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emff import (
    MU0,
    DisturbanceField,
    SolverError,
    StablePlane,
    Wrench,
    allocate,
    averaged_wrench,
    brute_force_allocate,
    build_los_frame,
    extract_waveforms,
    interaction_operator,
    make_context,
    psi_stack,
    solve_dual,
)
from emff import allocation
from emff.dual import DEFAULT_TOL
from emff.allocation import (
    _FEAS_TOL,
    MAX_NEWTON_STEPS,
    _feasible_points,
    _least_norm,
    _manifold_minima,
    _residuals,
    _tangent_basis,
    _wrench_hessians,
)
from emff.brigade import GridConfig, pair_command
from conftest import forward_command, infeasible_minima, random_geometry

#: Reference scenario field (500 km, 45 deg, theta_p 30 deg) for brigade pair commands.
FIELD = DisturbanceField.from_orbit(
    make_context(500e3, np.deg2rad(45.0), 0.0),
    StablePlane(theta_p=np.deg2rad(30.0), theta_z_xy=0.0, r_xyd=100.0),
)


def wide_command(rng):
    """Random direction with |u| log-uniform in [1e-12, 1e3]."""
    r, hint = random_geometry(rng)
    u = rng.normal(size=6)
    u *= 10.0 ** rng.uniform(-12.0, 3.0) / np.linalg.norm(u)
    return r, hint, Wrench.from_vector(u)


def structured_command(rng, shape):
    """Axial force (0), pure force (1), pure torque (2) or axial torque (3)."""
    r, hint = random_geometry(rng)
    size = 10.0 ** rng.uniform(-8.0, 0.0)
    v = rng.normal(size=3)
    v *= size / np.linalg.norm(v)
    axial = size * r / np.linalg.norm(r)
    u = np.zeros(6)
    if shape in (0, 1):
        u[:3] = axial if shape == 0 else v
    else:
        u[3:] = v if shape == 2 else axial
    return r, hint, Wrench.from_vector(u)


def brigade_command(rng):
    """Pair (n, j) command of the reference scenario at a random orbit time."""
    n = int(rng.integers(1, 11))
    j = int(rng.integers(2, n + 2))
    t = rng.uniform(0.0, FIELD.period)
    cfg = GridConfig.from_line_length(n, 100.0, 1000.0)
    u = Wrench.from_vector(pair_command(cfg, FIELD, j, t))
    return -cfg.d_sat * FIELD.direction(t), rng.normal(size=3), u


@pytest.fixture
def manifold_runs(monkeypatch):
    """Records (rows, steps) of every _manifold_minima call the oracle makes."""
    runs = []

    def spy(*args):
        runs.append(_manifold_minima(*args))
        return runs[-1]

    monkeypatch.setattr("emff.allocation._manifold_minima", spy)
    return runs


def _rank_two_primal(rank, entries, exponent):
    """X' = L R^T with L, R (3, 2) from entries, columns past rank zeroed,
    scaled by 2**exponent; returns X' and the primal point X = -(mu0/8pi) X'."""
    L = np.reshape(entries[:6], (3, 2)) * (np.arange(2) < rank)
    R = np.reshape(entries[6:], (3, 2))
    Xp = np.ldexp(L @ R.T, exponent)
    return Xp, -(MU0 / (8.0 * np.pi)) * Xp


def _certificate_with(monkeypatch, X_of):
    """Patches allocate's solve_dual to return the true certificate with X
    replaced by X_of(certificate)."""
    def fake(Q, u):
        cert = solve_dual(Q, u)
        return dataclasses.replace(cert, X=X_of(cert))

    monkeypatch.setattr("emff.allocation.solve_dual", fake)


class TestWaveformsFromPrimalPoint:
    """Waveforms read off the certificate's primal point."""

    def test_zero_command(self):
        cert = solve_dual(psi_stack(1.0), np.zeros(6))
        for wf in extract_waveforms(cert.X, omega=1.0):
            assert np.array_equal(wf.s, np.zeros(3)) and np.array_equal(wf.c, np.zeros(3))

    def test_axial_force_rank_one_axial_support(self):
        cert = solve_dual(psi_stack(1.0), [1e-5, 0, 0, 0, 0, 0])
        for wf in extract_waveforms(cert.X, omega=1.0):
            assert wf.c @ wf.c <= 1e-9 * (wf.s @ wf.s)  # rank one
            # supported on the separation axis
            assert np.isclose(wf.s[0] ** 2, wf.amplitude_squared, rtol=1e-9)

    def test_trace_equations_reproduce_command(self, rng):
        for _ in range(20):
            r, hint, u, _ = forward_command(rng)
            Q = interaction_operator(r, hint)
            cert = solve_dual(Q, u.as_vector())
            wf_j, wf_k = extract_waveforms(cert.X, omega=1.0)
            achieved = averaged_wrench(Q, wf_j, wf_k).as_vector()
            assert np.linalg.norm(achieved - u.as_vector()) <= 1e-12 * u.norm

    def test_unconverged_certificate_rejected(self, monkeypatch):
        _certificate_with(monkeypatch, lambda cert: np.zeros((3, 3)))
        for size in (1e-5, 1e-205):  # also where |u|^2 underflows
            with pytest.raises(SolverError, match="reproduce the command") as exc:
                allocate([1.0, 0, 0], [0, 0, -1.0], [size, 0, 0, 0, 0, 0], omega=1.0)
            assert exc.value.best.J_d > 0.0

    def test_full_rank_primal_rejected(self, monkeypatch):
        # X + t I stays on the slice Q vec X = -u (I spans part of the null
        # space of the line-of-sight operator), but its third singular value,
        # which no waveform pair carries, is not zero
        _certificate_with(monkeypatch, lambda cert: cert.X + 0.1 * np.abs(cert.X).max() * np.eye(3))
        u = [2e-6, 1e-6, -3e-6, 5e-7, 0.0, -2e-7]
        with pytest.raises(SolverError, match="reproduce the command"):
            allocate([1.0, 0, 0], [0, 0, -1.0], u, omega=1.0)


_factor_entries = st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12)


class TestExtractWaveforms:
    def test_single_axis(self):
        m = 4.0
        X = -(MU0 / (8.0 * np.pi)) * np.diag([m**2, 0.0, 0.0])
        wf_j, wf_k = extract_waveforms(X, omega=2.0)
        assert np.allclose(np.abs(wf_j.s), [m, 0, 0]) and np.allclose(wf_k.s, wf_j.s)
        assert np.allclose(wf_j.c, 0.0) and np.allclose(wf_k.c, 0.0)
        assert wf_j.omega == wf_k.omega == 2.0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rank=st.integers(0, 2), entries=_factor_entries, exponent=st.integers(-300, 300))
    def test_outer_product_identity(self, rank, entries, exponent):
        # X' = s_j s_k^T + c_j c_k^T to rounding, at the least cost |X'|_*,
        # split equally between the coils
        Xp, X = _rank_two_primal(rank, entries, exponent)
        wf_j, wf_k = extract_waveforms(X, omega=1.0)
        back = np.outer(wf_j.s, wf_k.s) + np.outer(wf_j.c, wf_k.c)
        assert np.linalg.norm(back - Xp) <= 1e-14 * np.linalg.norm(Xp)
        a, b = wf_j.amplitude_squared, wf_k.amplitude_squared
        nuclear = np.linalg.svd(Xp, compute_uv=False).sum()
        assert abs(0.5 * (a + b) - nuclear) <= 1e-14 * nuclear
        assert abs(a - b) <= 1e-14 * nuclear

    def test_component_amplitudes_match_diagonal(self, rng):
        # each coil's Gram matrix s s^T + c c^T is a polar factor of X':
        # (X' X'^T)^(1/2) for coil j, (X'^T X')^(1/2) for coil k
        for _ in range(20):
            Xp, X = _rank_two_primal(2, rng.normal(size=12) * 5.0, 0)
            wf_j, wf_k = extract_waveforms(X, omega=1.0)
            for wf, M in ((wf_j, Xp @ Xp.T), (wf_k, Xp.T @ Xp)):
                w, V = np.linalg.eigh(M)
                root = (V * np.sqrt(np.where(w > 1e-12 * w[-1], w, 0.0))) @ V.T
                amp = wf.s**2 + wf.c**2
                assert np.allclose(amp, np.diag(root), rtol=1e-10, atol=1e-12 * np.trace(root))

    def test_partner_mirrored_through_r(self, rng):
        # the reader never sees R(lambda), yet at the optimum its partner is
        # the mirror [s_k, c_k] = -R^T [s_j, c_j] (complementary slackness)
        for _ in range(10):
            r, hint, u, _ = forward_command(rng)
            cert = solve_dual(interaction_operator(r, hint), u.as_vector())
            R = cert.R_lambda
            wf_j, wf_k = extract_waveforms(cert.X, omega=1.0)
            m_norm = np.sqrt(wf_j.amplitude_squared + wf_k.amplitude_squared)
            assert np.linalg.norm(wf_k.s + R.T @ wf_j.s) <= 1e-7 * m_norm
            assert np.linalg.norm(wf_k.c + R.T @ wf_j.c) <= 1e-7 * m_norm


class TestAllocate:
    def test_zero_command(self, rng):
        r, hint = random_geometry(rng)
        sol = allocate(r, hint, np.zeros(6), omega=1.0)
        assert sol.J_p == 0.0 and sol.J_d == 0.0 and sol.gap == 0.0
        assert sol.dipole_j.amplitude_squared == 0.0

    def test_forward_generated_bound_and_feasibility(self, rng):
        cases = [forward_command(rng) for _ in range(25)]
        cases += [(*wide_command(rng), None) for _ in range(12)]
        cases += [(*structured_command(rng, shape % 4), None) for shape in range(12)]
        cases += [(*brigade_command(rng), None) for _ in range(12)]
        for r, hint, u, J_gen in cases:
            sol = allocate(r, hint, u, omega=1.0)
            assert sol.gap <= DEFAULT_TOL
            if J_gen is not None:
                assert sol.J_p <= J_gen * (1 + 1e-9)
            assert np.linalg.norm(sol.wrench_residual) <= 1e-8 * u.norm
            achieved = averaged_wrench(
                interaction_operator(r, hint), sol.dipole_j, sol.dipole_k
            )
            err = np.linalg.norm(achieved.as_vector() - u.as_vector())
            assert err <= 1e-8 * u.norm

    def test_equal_power_split(self, rng):
        for _ in range(10):
            r, hint, u, _ = forward_command(rng)
            sol = allocate(r, hint, u, omega=1.0)
            a = sol.dipole_j.amplitude_squared
            b = sol.dipole_k.amplitude_squared
            assert abs(a - b) <= 1e-8 * max(a, b)

    def test_null_space_condition(self, rng):
        r, hint, u, _ = forward_command(rng)
        d = np.linalg.norm(r)
        cert = solve_dual(psi_stack(d), u.as_vector())
        sol = allocate(r, hint, u, omega=1.0, frame="los")
        R = cert.R_lambda
        wf_j, wf_k = sol.dipole_j, sol.dipole_k
        P = np.block([[np.eye(3), R], [R.T, np.eye(3)]])
        m_norm = np.sqrt(wf_j.amplitude_squared + wf_k.amplitude_squared)
        assert np.linalg.norm(P @ np.concatenate([wf_j.s, wf_k.s])) <= 1e-7 * m_norm
        assert np.linalg.norm(P @ np.concatenate([wf_j.c, wf_k.c])) <= 1e-7 * m_norm

    def test_global_phase_freedom(self, rng):
        r, hint, u, _ = forward_command(rng)
        Q = interaction_operator(r, hint)
        sol = allocate(r, hint, u, omega=1.0)
        phi = 0.7321
        cphi, sphi = np.cos(phi), np.sin(phi)
        s_j = cphi * sol.dipole_j.s + sphi * sol.dipole_j.c
        c_j = -sphi * sol.dipole_j.s + cphi * sol.dipole_j.c
        s_k = cphi * sol.dipole_k.s + sphi * sol.dipole_k.c
        c_k = -sphi * sol.dipole_k.s + cphi * sol.dipole_k.c
        J_rot = 0.5 * (s_j @ s_j + c_j @ c_j + s_k @ s_k + c_k @ c_k)
        assert abs(J_rot - sol.J_p) <= 1e-10 * sol.J_p
        from emff import DipoleWaveform

        w_rot = averaged_wrench(
            Q,
            DipoleWaveform(s=s_j, c=c_j, omega=1.0),
            DipoleWaveform(s=s_k, c=c_k, omega=1.0),
        )
        assert np.linalg.norm(w_rot.as_vector() - u.as_vector()) <= 1e-10 * u.norm

    def test_tiny_command_scales(self, rng):
        # a command whose norm underflows is allocated, not taken for zero
        for _ in range(5):
            r, hint, u, _ = forward_command(rng)
            sol = allocate(r, hint, u, omega=1.0)
            tiny = allocate(r, hint, 1e-200 * u.as_vector(), omega=1.0)
            assert abs(tiny.J_p / (1e-200 * sol.J_p) - 1.0) <= 2e-15
            assert abs(tiny.J_d / (1e-200 * sol.J_d) - 1.0) <= 2e-15
            assert np.linalg.norm(tiny.wrench_residual * 1e200) <= 1e-12 * u.norm

    def test_gap_relative_at_every_scale(self, rng):
        # (J_p - J_d) / J_d with no floor, so the gap does not shrink with the command
        r, hint, u, _ = forward_command(rng)
        for scale in (1.0, 1e-20, 1e-200):
            sol = allocate(r, hint, scale * u.as_vector(), omega=1.0)
            assert sol.gap == (sol.J_p - sol.J_d) / sol.J_d
            assert abs(sol.gap) <= 1e-12

    def test_low_dual_bound_rejected_at_tiny_scale(self, monkeypatch, rng):
        # a certificate whose J_d is 1e-5 short of the optimum fails the gap
        # test on a 1e-200 command as it does on a unit one, and the error
        # carries that certificate
        def low(Q, u):
            cert = solve_dual(Q, u)
            return dataclasses.replace(cert, J_d=cert.J_d * (1.0 - 1e-5))

        monkeypatch.setattr("emff.allocation.solve_dual", low)
        r, hint, u, _ = forward_command(rng)
        for scale in (1.0, 1e-200):
            with pytest.raises(SolverError, match="allocation gap") as exc:
                allocate(r, hint, scale * u.as_vector(), omega=1.0)
            assert exc.value.best.J_d > 0.0

    def test_gap_within_dual_tolerance_on_every_class(self, rng):
        # the waveforms cost sigma_1 + sigma_2 <= the certificate's J_p, so
        # allocate's gap stays within the one dual tolerance on real traffic
        cases = [forward_command(rng)[:3] for _ in range(40)]
        cases += [wide_command(rng) for _ in range(40)]
        cases += [structured_command(rng, i % 4) for i in range(40)]
        cases += [brigade_command(rng) for _ in range(40)]
        for r, hint, u in cases:
            assert allocate(r, hint, u, omega=1.0).gap <= DEFAULT_TOL

    def test_los_frame_flag(self, rng):
        r, hint = random_geometry(rng)
        u_los = np.array([2e-6, 1e-6, -3e-6, 5e-7, 0.0, -2e-7])
        sol = allocate(r, hint, u_los, omega=1.0, frame="los")
        # reproduce through the line-of-sight operator directly
        achieved = averaged_wrench(psi_stack(np.linalg.norm(r)), sol.dipole_j, sol.dipole_k)
        assert np.linalg.norm(achieved.as_vector() - u_los) <= 1e-8 * np.linalg.norm(u_los)

    def test_bad_frame_flag(self, rng):
        r, hint = random_geometry(rng)
        with pytest.raises(ValueError):
            allocate(r, hint, np.zeros(6), omega=1.0, frame="body")


class TestFold:
    """allocate solves the line-of-sight command (f, tau) at separation d as the
    row (d^4 f, d^3 tau) against psi_stack(1)."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(k=st.floats(0.25, 8.0), seed=st.integers(0, 2**32 - 1), torque=st.booleans())
    def test_cost_scales_with_separation(self, k, seed, torque):
        # r -> k r multiplies a force-only command's cost by k^4 and a
        # torque-only command's by k^3
        rng = np.random.default_rng(seed)
        r, hint = random_geometry(rng)
        u = np.zeros(6)
        u[3 * torque:3 * torque + 3] = rng.normal(size=3) * 10.0 ** rng.uniform(-8.0, 0.0)
        J = allocate(r, hint, u, omega=1.0).J_d
        J_k = allocate(k * r, hint, u, omega=1.0).J_d
        assert abs(J_k / (k ** (3 if torque else 4) * J) - 1.0) <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        q=st.lists(st.integers(-4095, 4095), min_size=6, max_size=6).filter(any),
        m=st.integers(0, 531),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(q=[1, 0, 0, 0, 0, 0], m=531, seed=0).via("smallest subnormal force")
    @example(q=[0, 0, 0, 0, 3, -5], m=520, seed=1).via("subnormal torque")
    def test_power_of_four_scaling_is_exact(self, q, m, seed):
        # u -> ldexp(u, -2m) maps the waveforms to ldexp(waveforms, -m) bit
        # for bit, down into the subnormal range; u has a largest entry in
        # [1/2, 1) and a short mantissa, so ldexp(u, -2m) is exact
        r, hint = random_geometry(np.random.default_rng(seed))
        u = np.ldexp(np.array(q, dtype=float), -max(map(abs, q)).bit_length())
        v = np.ldexp(u, -2 * m)
        assert np.array_equal(np.ldexp(v, 2 * m), u)
        sol, tiny = allocate(r, hint, u, omega=1.0), allocate(r, hint, v, omega=1.0)
        for big, small in ((sol.dipole_j, tiny.dipole_j), (sol.dipole_k, tiny.dipole_k)):
            assert np.ldexp(big.s, -m).tobytes() == small.s.tobytes()
            assert np.ldexp(big.c, -m).tobytes() == small.c.tobytes()

    def test_matches_solve_on_separation_operator(self, rng):
        # the unfolded reference: the line-of-sight command solved on psi_stack(d)
        cases = [forward_command(rng)[:3] for _ in range(10)]
        cases += [wide_command(rng) for _ in range(10)]
        cases += [structured_command(rng, shape % 4) for shape in range(12)]
        cases += [brigade_command(rng) for _ in range(10)]
        for r, hint, u in cases:
            C = build_los_frame(r, hint)
            for scale in (1.0, 1e-160):
                v = scale * u.as_vector()
                ref = solve_dual(psi_stack(np.linalg.norm(r)), np.concatenate([v[:3] @ C, v[3:] @ C]))
                sol = allocate(r, hint, v, omega=1.0)
                assert abs(sol.J_d - ref.J_d) <= 1e-12 * ref.J_d
                assert abs(sol.J_p - ref.J_p) <= 1e-12 * ref.J_p

    @pytest.mark.parametrize(
        "r,force",
        [([1.0, 0, 0], 1e306), ([1e77, 0, 0], 1e-5), ([1e70, 0, 0], 1e50)],
        ids=["force-1e306", "r-1e77", "row-1e330"],
    )
    def test_overflow_fails_as_unfolded_solve(self, r, force):
        # costs past the double range are a SolverError, folded or not
        u = [force, 0, 0, 0, 0, 0]
        with pytest.raises(SolverError):
            allocate(r, [0, 0, 1.0], u, omega=1.0)
        with pytest.raises(SolverError):
            solve_dual(psi_stack(r[0]), u)


class TestBruteForce:
    def test_zero_command(self, rng):
        r, hint = random_geometry(rng)
        sol = brute_force_allocate(r, hint, np.zeros(6), restarts=20)
        assert sol.J_p == 0.0

    def test_restart_count_validated(self, rng):
        r, hint = random_geometry(rng)
        with pytest.raises(ValueError):
            brute_force_allocate(r, hint, np.zeros(6), restarts=5)

    def test_no_feasible_restart_is_solver_error(self, monkeypatch):
        # every restart ends off the constraints: the oracle has nothing to return
        monkeypatch.setattr("emff.allocation._manifold_minima", infeasible_minima)
        with pytest.raises(SolverError, match="no feasible allocation after 20 restarts"):
            brute_force_allocate([1.0, 0, 0], [0, 0, -1.0], [1e-5, 0, 0, 0, 0, 0], restarts=20)

    def test_matches_axial_optimum(self):
        u = [1e-5, 0, 0, 0, 0, 0]
        sol = allocate([1.0, 0, 0], [0, 0, -1.0], u, omega=1.0)
        brute = brute_force_allocate([1.0, 0, 0], [0, 0, -1.0], u, restarts=20, seed=1)
        assert np.isclose(brute.J_p, sol.J_p, rtol=1e-4)

    def test_feasible_on_forward_commands(self, rng):
        for seed in range(3):
            r, hint, u, _ = forward_command(rng)
            brute = brute_force_allocate(r, hint, u, restarts=20, seed=seed)
            assert np.linalg.norm(brute.wrench_residual) <= 1e-6 * u.norm
            sol = allocate(r, hint, u, omega=1.0)
            assert brute.J_p >= sol.J_d * (1 - 1e-4)

    def test_independent_of_dual(self, rng, monkeypatch):
        def no_dual(*args, **kwargs):
            raise AssertionError("the oracle must not call the dual")

        monkeypatch.setattr("emff.allocation.solve_dual", no_dual)
        monkeypatch.setattr("emff.dual.solve_dual_batch", no_dual)
        r, hint, u, _ = forward_command(rng)
        brute = brute_force_allocate(r, hint, u, restarts=20, seed=4)
        assert np.linalg.norm(brute.wrench_residual) <= 1e-6 * u.norm
        realized = averaged_wrench(interaction_operator(r, hint), brute.dipole_j, brute.dipole_k)
        assert np.linalg.norm(realized.as_vector() - u.as_vector()) <= 1e-6 * u.norm

    @pytest.mark.parametrize("scale", [1e-160, 1e-200])
    def test_tiny_command_scales(self, rng, scale):
        # |u| underflows as a plain 2-norm below about 1e-154; the oracle must
        # still solve the command, not read it as zero
        r, hint, u, _ = forward_command(rng)
        ref = brute_force_allocate(r, hint, u, restarts=20, seed=6)
        tiny = brute_force_allocate(r, hint, scale * u.as_vector(), restarts=20, seed=6)
        assert abs(tiny.J_p / (scale * ref.J_p) - 1) <= 1e-12
        assert np.linalg.norm(tiny.wrench_residual / scale) <= 1e-6 * u.norm

    def test_tangent_basis(self, rng):
        J = rng.normal(size=(8, 6, 12))
        J[4:, 3] = J[4:, 1]  # rank five: two equal rows
        N = _tangent_basis(J)
        assert N.shape == (8, 12, 6)
        for J_r, N_r in zip(J, N):
            assert np.linalg.norm(J_r @ N_r) <= 1e-14 * np.linalg.norm(J_r)
            assert np.abs(N_r.T @ N_r - np.eye(6)).max() <= 1e-14

    def test_second_order_correction_identity(self, rng):
        # the wrench is quadratic, so along x + a p + a^2 delta from a feasible x, with
        # J p = 0 and J delta = -p^T H_i p / 2, the residual is exactly
        # a^3 p^T H_i delta + a^4 delta^T H_i delta / 2, and along x + a p it is
        # a^2 p^T H_i p / 2; delta meets its equation to the damping of the least-norm
        # solve (1e-14 of the trace of J J^T), which leaves about 1e-11 here
        for _ in range(3):
            r, hint, u, _ = forward_command(rng)
            Q = interaction_operator(r, hint)
            u = u.as_vector()
            u_norm = np.linalg.norm(u)
            m_scale = np.sqrt(u_norm / (MU0 / (8.0 * np.pi) * np.linalg.norm(Q)))
            H, u = _wrench_hessians(Q) * (m_scale**2 / u_norm), u / u_norm
            x, h, J = _feasible_points(H, u, rng.standard_normal((8, 12)))
            feasible = np.linalg.norm(h, axis=1) <= _FEAS_TOL
            assert feasible.sum() >= 4
            x, h, J = x[feasible], h[feasible], J[feasible]
            p = (_tangent_basis(J) @ rng.standard_normal((len(x), 6, 1)))[:, :, 0]
            half_pHp, Hp = _residuals(H, 0.0, p)
            delta = -_least_norm(J, half_pHp)
            pHd = (Hp @ delta[:, :, None])[:, :, 0]
            half_dHd = _residuals(H, 0.0, delta)[0]
            for a in (1.0, 0.5, 0.25):
                corrected = _residuals(H, u, x + a * p + a * a * delta)[0]
                straight = _residuals(H, u, x + a * p)[0]
                assert np.abs(corrected - (h + a**3 * pHd + a**4 * half_dHd)).max() <= 1e-10 * a * a
                assert np.abs(straight - (h + a * a * half_pHp)).max() <= 1e-14

    def test_manifold_work_budget(self, monkeypatch):
        # a cost guard on the manifold stage: trial batches (one _retract each) and
        # iterations (one _tangent_basis each) per oracle call on fixed draws; starting
        # each retraction at the second-order-corrected point reads 20.1 batches and
        # 10.0 iterations, against 24.4 and 10.5 from the straight tangent point
        counts = {"_retract": 0, "_tangent_basis": 0}
        for name in counts:
            original = getattr(allocation, name)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(allocation, name, counted)
        rng = np.random.default_rng(5)
        calls = 30
        for seed in range(calls):
            r, hint, u, _ = forward_command(rng)
            brute_force_allocate(r, hint, u, restarts=20, seed=seed)
        assert counts["_retract"] / calls <= 22.0
        assert counts["_tangent_basis"] / calls <= 10.5

    def test_rows_independent_of_batch(self, rng, manifold_runs):
        # restarts=40 draws the same first 20 starts as restarts=20
        r, hint, u, _ = forward_command(rng)
        J_20 = brute_force_allocate(r, hint, u, restarts=20, seed=5).J_p
        J_40 = brute_force_allocate(r, hint, u, restarts=40, seed=5).J_p
        assert J_40 <= J_20 * (1 + 1e-12)
        (X_20, steps_20), (X_40, steps_40) = manifold_runs
        assert np.array_equal(X_40[:20], X_20)
        assert np.array_equal(steps_40[:20], steps_20)

    def test_tight_on_forward_commands(self, rng):
        for seed in range(3):
            r, hint, u, _ = forward_command(rng)
            brute = brute_force_allocate(r, hint, u, restarts=20, seed=seed)
            sol = allocate(r, hint, u, omega=1.0)
            assert abs(brute.J_p / sol.J_d - 1) <= 1e-9

    @pytest.mark.parametrize(
        "r,u,seed",
        [
            ([1.0, 0, 0], [1e-5, 0, 0, 0, 0, 0], 1),    # axial force
            ([1.5, 0, 0], [0, 0, 0, 0, 0, 2e-7], 3),    # pure torque
        ],
    )
    def test_structured_commands_stop_before_step_cap(self, manifold_runs, r, u, seed):
        # every restart stops on its own stationarity or line-search test,
        # and the best one reaches the dual bound
        brute = brute_force_allocate(r, [0, 0, -1.0], u, restarts=20, seed=seed)
        (_, steps), = manifold_runs
        assert steps.max() < MAX_NEWTON_STEPS
        sol = allocate(r, [0, 0, -1.0], u, omega=1.0)
        assert abs(brute.J_p / sol.J_d - 1) <= 1e-9
