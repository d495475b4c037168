import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emff import (
    MU0,
    DisturbanceField,
    DualProblem,
    GapViolationError,
    InteractionOperator,
    RecoveryError,
    StablePlane,
    Wrench,
    allocate,
    averaged_wrench,
    brute_force_allocate,
    extract_waveforms,
    interaction_operator,
    make_context,
    psi_stack,
    solve_dual,
)
from emff.allocation import MAX_NEWTON_STEPS, _manifold_minima
from emff.brigade import GridConfig, pair_command
from conftest import forward_command, random_geometry

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


def los_setup(u_vec, d=1.0):
    op = InteractionOperator(Q=psi_stack(d), separation=d, frame=np.eye(3))
    u = Wrench.from_vector(np.asarray(u_vec, dtype=float))
    cert = solve_dual(DualProblem(Q=op, u=u))
    return op, u, cert


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
    def fake(problem):
        cert = solve_dual(problem)
        return dataclasses.replace(cert, X=X_of(cert))

    monkeypatch.setattr("emff.allocation.solve_dual", fake)


class TestRecoverGram:
    """Waveforms read off the certificate's primal point."""

    def test_zero_command(self):
        _, _, cert = los_setup(np.zeros(6))
        for wf in extract_waveforms(cert.X, omega=1.0):
            assert np.array_equal(wf.s, np.zeros(3)) and np.array_equal(wf.c, np.zeros(3))

    def test_axial_force_rank_one_axial_support(self):
        _, _, cert = los_setup([1e-5, 0, 0, 0, 0, 0])
        for wf in extract_waveforms(cert.X, omega=1.0):
            assert wf.c @ wf.c <= 1e-9 * (wf.s @ wf.s)  # rank one
            # supported on the separation axis
            assert np.isclose(wf.s[0] ** 2, wf.amplitude_squared, rtol=1e-9)

    def test_trace_equations_reproduce_command(self, rng):
        for _ in range(20):
            r, hint, u, _ = forward_command(rng)
            op = interaction_operator(r, hint)
            cert = solve_dual(DualProblem(Q=op, u=u))
            wf_j, wf_k = extract_waveforms(cert.X, omega=1.0)
            achieved = averaged_wrench(op, wf_j, wf_k).as_vector()
            assert np.linalg.norm(achieved - u.as_vector()) <= 1e-12 * u.norm

    def test_unconverged_certificate_rejected(self, monkeypatch):
        _certificate_with(monkeypatch, lambda cert: np.zeros((3, 3)))
        for size in (1e-5, 1e-205):  # also where |u|^2 underflows
            with pytest.raises(RecoveryError):
                allocate([1.0, 0, 0], [0, 0, -1.0], [size, 0, 0, 0, 0, 0], omega=1.0)

    def test_full_rank_primal_rejected(self, monkeypatch):
        # X + t I stays on the slice Q vec X = -u (I spans part of the null
        # space of the line-of-sight operator), but its third singular value,
        # which no waveform pair carries, is not zero
        _certificate_with(monkeypatch, lambda cert: cert.X + 0.1 * np.abs(cert.X).max() * np.eye(3))
        u = [2e-6, 1e-6, -3e-6, 5e-7, 0.0, -2e-7]
        with pytest.raises(RecoveryError):
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
            op = interaction_operator(r, hint)
            cert = solve_dual(DualProblem(Q=op, u=u))
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
            assert sol.gap <= 1e-6
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
        _, _, cert = los_setup(u.as_vector(), d)
        sol = allocate(r, hint, u, omega=1.0, frame="los")
        R = cert.R_lambda
        wf_j, wf_k = sol.dipole_j, sol.dipole_k
        P = np.block([[np.eye(3), R], [R.T, np.eye(3)]])
        m_norm = np.sqrt(wf_j.amplitude_squared + wf_k.amplitude_squared)
        assert np.linalg.norm(P @ np.concatenate([wf_j.s, wf_k.s])) <= 1e-7 * m_norm
        assert np.linalg.norm(P @ np.concatenate([wf_j.c, wf_k.c])) <= 1e-7 * m_norm

    def test_global_phase_freedom(self, rng):
        r, hint, u, _ = forward_command(rng)
        op = interaction_operator(r, hint)
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
            op,
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
        # test on a 1e-200 command as it does on a unit one
        def low(problem):
            cert = solve_dual(problem)
            return dataclasses.replace(cert, J_d=cert.J_d * (1.0 - 1e-5))

        monkeypatch.setattr("emff.allocation.solve_dual", low)
        r, hint, u, _ = forward_command(rng)
        for scale in (1.0, 1e-200):
            with pytest.raises(GapViolationError):
                allocate(r, hint, scale * u.as_vector(), omega=1.0)

    def test_los_frame_flag(self, rng):
        r, hint = random_geometry(rng)
        u_los = np.array([2e-6, 1e-6, -3e-6, 5e-7, 0.0, -2e-7])
        sol = allocate(r, hint, u_los, omega=1.0, frame="los")
        # reproduce through the line-of-sight operator directly
        d = np.linalg.norm(r)
        op_los = InteractionOperator(Q=psi_stack(d), separation=d, frame=np.eye(3))
        achieved = averaged_wrench(op_los, sol.dipole_j, sol.dipole_k)
        assert np.linalg.norm(achieved.as_vector() - u_los) <= 1e-8 * np.linalg.norm(u_los)

    def test_bad_frame_flag(self, rng):
        r, hint = random_geometry(rng)
        with pytest.raises(ValueError):
            allocate(r, hint, np.zeros(6), omega=1.0, frame="body")


class TestBruteForce:
    def test_zero_command(self, rng):
        r, hint = random_geometry(rng)
        sol = brute_force_allocate(r, hint, np.zeros(6), restarts=20)
        assert sol.J_p == 0.0

    def test_restart_count_validated(self, rng):
        r, hint = random_geometry(rng)
        with pytest.raises(ValueError):
            brute_force_allocate(r, hint, np.zeros(6), restarts=5)

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

    def test_rows_independent_of_batch(self, rng, manifold_runs):
        # restarts=40 draws the same first 20 starts as restarts=20
        r, hint, u, _ = forward_command(rng)
        J_20 = brute_force_allocate(r, hint, u, restarts=20, seed=5).J_p
        J_40 = brute_force_allocate(r, hint, u, restarts=40, seed=5).J_p
        assert J_40 <= J_20 * (1 + 1e-12)
        (X_20, steps_20), (X_40, steps_40) = manifold_runs
        assert np.allclose(X_40[:20], X_20, rtol=1e-12, atol=1e-12)
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
