import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emff import (
    MU0,
    DualProblem,
    Wrench,
    interaction_operator,
    psd_feasible,
    psi_stack,
    solve_dual,
    solve_dual_batch,
    SolverError,
)
from emff import dual
from emff.dual import unvec_columns
from conftest import SINGULAR_D, SINGULAR_U, forward_command, random_geometry


def los_problem(u, d=1.0):
    op = interaction_operator([d, 0.0, 0.0], [0.0, 0.0, -1.0])
    return DualProblem(Q=op, u=Wrench.from_vector(np.asarray(u, dtype=float)))


class TestSolveDual:
    def test_zero_command(self):
        cert = solve_dual(los_problem(np.zeros(6)))
        assert np.array_equal(cert.lambda_, np.zeros(6))
        assert cert.J_d == 0.0
        assert cert.sigma_max == 0.0

    @pytest.mark.parametrize("d,F", [(1.0, 1e-5), (2.0, 3e-6), (0.3, 1e-4)])
    def test_axial_force_closed_form(self, d, F):
        # axial command saturates the (1,1) singular direction: J_d = 4 pi d^4 F / (3 mu0)
        cert = solve_dual(los_problem([F, 0, 0, 0, 0, 0], d=d))
        assert np.isclose(cert.J_d, 4 * np.pi * d**4 * F / (3 * MU0), rtol=1e-8)
        assert cert.sigma_max >= 1 - 1e-6
        assert cert.kkt_residual <= 1e-10

    def test_objective_homogeneity(self, rng):
        r, hint, u, _ = forward_command(rng)
        op = interaction_operator(r, hint)
        J1 = solve_dual(DualProblem(Q=op, u=u)).J_d
        J2 = solve_dual(DualProblem(Q=op, u=Wrench.from_vector(2 * u.as_vector()))).J_d
        assert np.isclose(J2, 2 * J1, rtol=1e-8)

    def test_weak_duality_against_generator(self, rng):
        for _ in range(20):
            r, hint, u, J_gen = forward_command(rng)
            cert = solve_dual(DualProblem(Q=interaction_operator(r, hint), u=u))
            assert cert.J_d <= J_gen * (1 + 1e-9)

    def test_active_constraint_at_optimum(self, rng):
        for _ in range(20):
            r, hint, u, _ = forward_command(rng)
            cert = solve_dual(DualProblem(Q=interaction_operator(r, hint), u=u))
            assert cert.sigma_max >= 1 - 1e-6
            assert cert.sigma_max <= 1 + 1e-8

    def test_deterministic_bitwise(self, rng):
        r, hint, u, _ = forward_command(rng)
        op = interaction_operator(r, hint)
        c1 = solve_dual(DualProblem(Q=op, u=u))
        c2 = solve_dual(DualProblem(Q=op, u=u))
        assert np.array_equal(c1.lambda_, c2.lambda_)
        assert c1.J_d == c2.J_d

    def test_finite_objective_always(self, rng):
        for _ in range(10):
            r, hint = random_geometry(rng)
            u = Wrench.from_vector(rng.normal(size=6) * 10.0 ** rng.integers(-8, 2))
            cert = solve_dual(DualProblem(Q=interaction_operator(r, hint), u=u))
            assert np.isfinite(cert.J_d)
            assert cert.J_d >= 0.0

    def test_stall_raises(self, monkeypatch):
        # one Newton iteration per stage cannot center the barrier
        monkeypatch.setattr(dual, "_MAX_NEWTON", 1)
        res = solve_dual_batch(psi_stack(1.0), [[0.0] * 6, [1e-5, 0, 0, 0, 0, 0]])
        assert res["stalled"].tolist() == [False, True]
        assert res["newton_iters"][0] == 0
        with pytest.raises(SolverError):
            solve_dual(los_problem([1e-5, 0, 0, 0, 0, 0]))

    def test_r_lambda_consistent_with_q(self, rng):
        r, hint, u, _ = forward_command(rng)
        op = interaction_operator(r, hint)
        cert = solve_dual(DualProblem(Q=op, u=u))
        assert np.allclose(cert.R_lambda, unvec_columns(op.Q.T @ cert.lambda_), atol=1e-12)

    def test_pure_torque_against_brute_force(self):
        # torque-only commands are the brigade's hardest single-block case
        from emff import brute_force_allocate

        u = [0.0, 0.0, 0.0, 0.0, 0.0, 2e-7]
        cert = solve_dual(los_problem(u, d=1.5))
        brute = brute_force_allocate([1.5, 0, 0], [0, 0, -1.0], u, restarts=20, seed=3)
        assert brute.J_p >= cert.J_d * (1 - 1e-4)
        assert brute.J_p <= cert.J_d * (1 + 1e-4)


#: One batch row: None is a zero command, else (direction, log10 magnitude).
#: Magnitudes over 1e-9..1e-1 make rows finish centering at very different
#: iterations, so the kernel drops rows from the batch at different points.
_rows = st.one_of(
    st.none(),
    st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), st.floats(-9.0, -1.0)),
)

_BATCH_FIELDS = ("lambda_", "J_d", "R", "sigma_max", "kkt", "newton_iters", "phi_evals", "stalled")


def reference_barrier(Q, lam, t, cbar):
    """phi_t, its gradient and negated Hessian by the direct formulas: R, then
    M = I - R^T R, then M^-1 by LAPACK, with S_i = D_i^T R + R^T D_i formed
    from R and the Hessian as 4-index contractions."""
    D = unvec_columns(Q)
    R = np.einsum("bi,ixy->bxy", lam, D)
    Rt = R.swapaxes(-1, -2)
    M = np.eye(3) - Rt @ R
    Minv = np.linalg.inv(M)
    phi = t * np.einsum("bi,bi->b", cbar, lam) + np.linalg.slogdet(M)[1]
    grad = t[:, None] * cbar - 2.0 * np.einsum("bxy,iyx->bi", Minv @ Rt, D)
    S = D.swapaxes(-1, -2) @ R[:, None] + Rt[:, None] @ D
    MinvS = Minv[:, None] @ S
    H1 = np.einsum("bjxy,biyx->bij", MinvS, MinvS)
    TT = np.einsum("iyx,jyz->ijxz", D, D)
    H2 = np.einsum("bxy,ijyx->bij", Minv, TT + TT.transpose(1, 0, 2, 3))
    return phi, grad, H1 + H2


class TestBatch:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(_rows, min_size=2, max_size=9), d=st.floats(0.5, 3.0), data=st.data())
    def test_batch_matches_scalar(self, rows, d, data):
        us = np.zeros((len(rows), 6))
        for i, row in enumerate(rows):
            if row is not None and np.linalg.norm(row[0]) > 0.0:
                us[i] = np.asarray(row[0]) / np.linalg.norm(row[0]) * 10.0 ** row[1]
        Q = psi_stack(d)
        batch = solve_dual_batch(Q, us)
        perm = np.array(data.draw(st.permutations(range(len(rows)))))
        permuted = solve_dual_batch(Q, us[perm])
        cut = data.draw(st.integers(1, len(rows) - 1))
        halves = [solve_dual_batch(Q, us[:cut]), solve_dual_batch(Q, us[cut:])]
        for k in _BATCH_FIELDS:
            assert np.array_equal(permuted[k], batch[k][perm]), k
            assert np.array_equal(np.concatenate([h[k] for h in halves]), batch[k]), k
        for i in range(len(rows)):
            alone = solve_dual_batch(Q, us[i : i + 1])
            for k in _BATCH_FIELDS:
                assert np.array_equal(alone[k][0], batch[k][i]), k
        cert = solve_dual(los_problem(us[0], d=d))
        assert cert.J_d == batch["J_d"][0]
        assert np.array_equal(cert.lambda_, batch["lambda_"][0])

    def test_newton_system_matches_reference(self, rng):
        for _ in range(10):
            Q = interaction_operator(*random_geometry(rng)).Q
            maps = dual._maps(Q)
            lam = rng.normal(size=(20, 6))
            # strictly feasible: sigma_max(R) spread over (0, 1)
            R = np.einsum("bi,ixy->bxy", lam, unvec_columns(Q))
            smax = np.linalg.svd(R, compute_uv=False)[:, 0]
            sigma = rng.uniform(0.05, 0.999, size=20)
            lam *= (sigma / smax)[:, None]
            t = 10.0 ** rng.uniform(-2.0, 6.0, size=20)
            cbar = rng.normal(size=(20, 6))
            phi, f = dual._barrier(maps, lam, t, cbar)
            grad, H = dual._newton_system(maps, lam, t, cbar, f)
            phi_ref, grad_ref, H_ref = reference_barrier(Q, lam, t, cbar)
            assert np.all(np.abs(phi - phi_ref) <= 1e-10 * (1.0 + np.abs(phi_ref)))
            scale = np.abs(grad_ref).max(axis=1, keepdims=True)
            assert np.all(np.abs(grad - grad_ref) <= 1e-10 * scale)
            scale = np.abs(H_ref).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(H - H_ref) <= 1e-10 * scale)
            # outside the feasible set the barrier is -inf
            with np.errstate(divide="ignore", invalid="ignore"):
                outside = dual._barrier(maps, lam * (1.2 / sigma)[:, None], t, cbar)[0]
            assert np.all(outside == -np.inf)

    def test_schedule_iteration_budget(self, monkeypatch):
        # factor 100 with the 1/t predictor; the factor-10 schedule without it
        # averages about 69 Newton iterations and 140 barrier evaluations
        counted = [0]
        barrier = dual._barrier

        def counting_barrier(maps, lam, t, cbar):
            counted[0] += len(lam)
            return barrier(maps, lam, t, cbar)

        monkeypatch.setattr(dual, "_barrier", counting_barrier)
        rng = np.random.default_rng(5)
        iters, evals = [], []
        for _ in range(300):
            d = rng.uniform(0.5, 5.0)
            u = rng.normal(size=6)
            u *= 10.0 ** rng.uniform(-12.0, 3.0) / np.linalg.norm(u)
            counted[0] = 0
            res = solve_dual_batch(psi_stack(d), u[None])
            assert not res["stalled"][0]
            # at one row every barrier evaluation is one the row needed
            assert res["phi_evals"][0] == counted[0]
            iters.append(res["newton_iters"][0])
            evals.append(res["phi_evals"][0])
        assert np.mean(iters) <= 35 and max(iters) <= 50
        assert np.mean(evals) <= 70

    def test_singular_newton_system_stalls_its_row(self, rng):
        Q = psi_stack(SINGULAR_D)
        alone = solve_dual_batch(Q, [SINGULAR_U])
        assert alone["stalled"][0]
        with pytest.raises(SolverError):
            solve_dual(los_problem(SINGULAR_U, d=SINGULAR_D))
        others = rng.normal(size=(5, 6)) * 10.0 ** rng.uniform(-8.0, -4.0, size=(5, 1))
        us = np.vstack([others[:2], SINGULAR_U, others[2:]])
        batch = solve_dual_batch(Q, us)
        assert batch["stalled"].tolist() == [False, False, True, False, False, False]
        for i in range(len(us)):
            row = solve_dual_batch(Q, us[i : i + 1])
            for k in _BATCH_FIELDS:
                assert np.array_equal(row[k][0], batch[k][i]), k

    def test_newton_step_isolates_singular_rows(self, rng):
        A = rng.normal(size=(4, 6, 6))
        H = A @ A.swapaxes(-1, -2) + 6.0 * np.eye(6)
        H[2] = 0.0
        grad = rng.normal(size=(4, 6))
        step = dual._newton_step(H, grad)
        assert np.isnan(step[2]).all()
        keep = [0, 1, 3]
        assert np.array_equal(step[keep], dual._newton_step(H[keep], grad[keep]))

    def test_one_shared_operator(self):
        Q = np.broadcast_to(psi_stack(1.0), (2, 6, 9))
        with pytest.raises(ValueError):
            solve_dual_batch(Q, np.ones((2, 6)) * 1e-5)

    def test_non_finite_rows_rejected(self):
        good = np.array([[1e-5, 0, 0, 0, 0, 0], [0, 2e-6, 0, 0, 0, -1e-6]])
        for bad in ([0, np.nan, 0, 0, 0, 0], [0, 0, 0, np.inf, 0, 0]):
            us = np.vstack([good[:1], bad, good[1:], [-np.inf, 0, 0, 0, 0, 0]])
            with pytest.raises(ValueError, match="row 1 is not finite"):
                solve_dual_batch(psi_stack(1.0), us)

    def test_batch_zero_rows(self):
        us = np.zeros((3, 6))
        us[1] = [1e-5, 0, 0, 0, 0, 0]
        res = solve_dual_batch(psi_stack(1.0), us)
        assert res["J_d"][0] == 0.0 and res["J_d"][2] == 0.0
        assert res["J_d"][1] > 0.0


class TestPsdFeasible:
    def test_zero_matrix(self):
        ok, margin = psd_feasible(np.zeros((3, 3)))
        assert ok and margin == 1.0

    def test_identity_boundary(self):
        ok, margin = psd_feasible(np.eye(3))
        assert ok and abs(margin) <= 1e-12

    def test_infeasible(self):
        ok, margin = psd_feasible(1.5 * np.eye(3))
        assert not ok and np.isclose(margin, -0.5)

    def test_equivalent_to_block_eigenvalues(self, rng):
        # [[I, R], [R^T, I]] >= 0 iff sigma_max(R) <= 1
        for _ in range(100):
            R = rng.normal(size=(3, 3))
            R *= rng.uniform(0.2, 1.8) / np.linalg.svd(R, compute_uv=False)[0]
            smax = np.linalg.svd(R, compute_uv=False)[0]
            if abs(smax - 1.0) < 1e-9:
                continue
            P = np.block([[np.eye(3), R], [R.T, np.eye(3)]])
            assert (np.linalg.eigvalsh(P)[0] >= 0) == (smax <= 1.0)
            assert psd_feasible(R)[0] == (smax <= 1.0)
