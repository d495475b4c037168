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

    # the last two square to below the smallest double
    @pytest.mark.parametrize(
        "d,F", [(1.0, 1e-5), (2.0, 3e-6), (0.3, 1e-4), (1.0, 1.89e-240), (1.0, 1.89e-300)]
    )
    def test_axial_force_closed_form(self, d, F):
        # axial command saturates the (1,1) singular direction: J_d = 4 pi d^4 F / (3 mu0)
        cert = solve_dual(los_problem([F, 0, 0, 0, 0, 0], d=d))
        assert np.isclose(cert.J_d, 4 * np.pi * d**4 * F / (3 * MU0), rtol=1e-8)
        assert cert.sigma_max >= 1 - 1e-6
        assert cert.gap <= 1e-10

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
        # one Newton iteration cannot get through the smoothing schedule
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
#: Magnitudes over 1e-9..1e-1 and random directions make rows finish their
#: schedules at different iterations, so rows leave the batch at different points.
_rows = st.one_of(
    st.none(),
    st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), st.floats(-9.0, -1.0)),
)

_BATCH_FIELDS = (
    "J_p", "J_d", "gap", "X", "lambda_", "R", "sigma_max", "newton_iters", "stalled",
)


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

    def test_singular_newton_system_solves_its_row(self, rng):
        # a stall reproducer: this command once left its row stalled
        Q = psi_stack(SINGULAR_D)
        alone = solve_dual_batch(Q, [SINGULAR_U])
        assert not alone["stalled"][0]
        assert alone["gap"][0] <= 1e-10
        cert = solve_dual(los_problem(SINGULAR_U, d=SINGULAR_D))
        assert cert.gap <= 1e-10 and cert.J_d == alone["J_d"][0]
        others = rng.normal(size=(5, 6)) * 10.0 ** rng.uniform(-8.0, -4.0, size=(5, 1))
        us = np.vstack([others[:2], SINGULAR_U, others[2:]])
        batch = solve_dual_batch(Q, us)
        assert not batch["stalled"].any()
        for i in range(len(us)):
            row = solve_dual_batch(Q, us[i : i + 1])
            for k in _BATCH_FIELDS:
                assert np.array_equal(row[k][0], batch[k][i]), k

    def test_smoothed_derivatives_match_differences(self, rng):
        # gradient, Hessian and d g / d mu of f_mu(z) = sum_i sqrt(sigma_i^2 + mu^2)
        # against central differences of f_mu and of the gradient, also where
        # singular values vanish or repeat exactly (the divided differences'
        # s_i = s_j = 0 guard), with no floating-point warning; these are
        # scaled to 0.1 so that mu is not small beside every singular value
        exact = 0.1 * np.array([
            np.diag([1.0, 0.0, 0.0]),
            [[0.0, 0.0, 0.0], [0.0, 0.0, -1.5], [0.0, 0.0, 0.0]],
            [[1.0, 2.0, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 0.0]],
            np.diag([1.0, 1.0, 0.5]),
            [[0.0, 0.7, 0.0], [0.0, 0.0, -0.7], [0.7, 0.0, 0.0]],
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        ])
        for case in range(10 + len(exact)):
            Q = interaction_operator(*random_geometry(rng)).Q
            N = unvec_columns(np.linalg.svd(Q)[2][6:])
            if case < 10:
                X = rng.normal(size=(1, 3, 3))
            else:
                X = exact[case - 10 : case - 9]
            mu = 10.0 ** rng.uniform(-2.0, 0.0, size=1)
            e = 1e-6

            def spectral(X, mu):
                return dual._spectral(*dual._smoothed(X, mu), N, mu)

            def gradient(X, mu):
                return spectral(X, mu)[2][0, :, 0]

            def value(X):
                return dual._smoothed(X, mu)[3][0].sum()

            with np.errstate(divide="raise", invalid="raise", over="raise"):
                _, H, rhs = spectral(X, mu)
                g = rhs[0, :, 0]
                grad, hess = np.zeros(3), np.zeros((3, 3))
                for k in range(3):
                    Xp, Xm = X + e * N[k], X - e * N[k]
                    grad[k] = (value(Xp) - value(Xm)) / (2 * e)
                    hess[k] = (gradient(Xp, mu) - gradient(Xm, mu)) / (2 * e)
                dmu = (gradient(X, mu + e) - gradient(X, mu - e)) / (2 * e)
            assert np.isfinite(H).all() and np.isfinite(rhs).all()
            assert np.abs(grad - g).max() <= 1e-8
            assert np.abs(hess - H[0]).max() <= 1e-7 * np.abs(H[0]).max()
            assert np.abs(dmu - rhs[0, :, 1]).max() <= 1e-7 * (1.0 + np.abs(dmu).max())

    @pytest.mark.parametrize("halvings", [1, dual._MAX_HALVINGS])
    def test_newton_systems_see_one_point(self, monkeypatch, rng, halvings):
        # each Newton system is built from the SVD and h of one point, also
        # after a row backtracked to a later trial or (with one trial allowed,
        # on most searched rows) accepted none and stayed where it was
        spectral, seen = dual._spectral, []

        def checked(U, s, Vt, h, N, mu):
            seen.append(np.array_equal(h, np.sqrt(s * s + (mu * mu)[:, None])))
            return spectral(U, s, Vt, h, N, mu)

        monkeypatch.setattr(dual, "_spectral", checked)
        monkeypatch.setattr(dual, "_MAX_HALVINGS", halvings)
        us = rng.normal(size=(40, 6)) * 10.0 ** rng.uniform(-9.0, 2.0, size=(40, 1))
        res = solve_dual_batch(psi_stack(1.3), us)
        assert seen and all(seen)
        done = ~res["stalled"]
        assert done.sum() >= 20 and (res["gap"][done] <= dual.DEFAULT_TOL).all()

    def test_newton_iteration_budget(self):
        # a cost guard on the smoothing schedule and its tangent predictor,
        # which average about 10 Newton systems per row on these commands
        rng = np.random.default_rng(5)
        iters = []
        for _ in range(300):
            d = rng.uniform(0.5, 5.0)
            u = rng.normal(size=6)
            u *= 10.0 ** rng.uniform(-12.0, 3.0) / np.linalg.norm(u)
            res = solve_dual_batch(psi_stack(d), u[None])
            assert not res["stalled"][0]
            iters.append(res["newton_iters"][0])
        assert np.mean(iters) <= 14 and max(iters) <= 30

    def test_two_sided_certificate(self, rng):
        # both points are checked directly: Q vec X = -u and sigma_max(R) <= 1,
        # and their costs bracket the optimum within DEFAULT_TOL
        for _ in range(10):
            Q = interaction_operator(*random_geometry(rng)).Q
            us = rng.normal(size=(8, 6)) * 10.0 ** rng.uniform(-9.0, 2.0, size=(8, 1))
            res = solve_dual_batch(Q, us)
            assert not res["stalled"].any()
            fields = (res[k] for k in ("X", "lambda_", "R", "J_p", "J_d"))
            for u, X, lam, R, J_p, J_d in zip(us, *fields):
                assert np.linalg.norm(Q @ X.ravel(order="F") + u) <= 1e-12 * np.linalg.norm(u)
                assert np.allclose(R, unvec_columns(Q.T @ lam), rtol=0.0, atol=1e-15)
                assert np.linalg.svd(R, compute_uv=False)[0] <= 1.0 + 1e-15
                c = 8.0 * np.pi / MU0
                nuclear = np.linalg.svd(X, compute_uv=False).sum()
                assert np.isclose(J_p, c * nuclear, rtol=1e-14, atol=0.0)
                assert np.isclose(J_d, -c * lam @ u, rtol=1e-14, atol=0.0)
                assert J_d <= J_p * (1.0 + 1e-15) and J_p - J_d <= dual.DEFAULT_TOL * J_p

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

    @pytest.mark.parametrize("k", [-797, -997])
    def test_tiny_rows_keep_their_cost(self, rng, k):
        # rows of size about 1e-240 and 1e-300, whose squared entries
        # underflow, are solved as their copies scaled by 2**-k are
        us = rng.normal(size=(6, 6)) * 1e-5
        Q = interaction_operator(*random_geometry(rng)).Q
        ref, res = solve_dual_batch(Q, us), solve_dual_batch(Q, np.ldexp(us, k))
        assert np.array_equal(res["J_p"], np.ldexp(ref["J_p"], k))
        assert np.allclose(res["J_d"], np.ldexp(ref["J_d"], k), rtol=1e-15, atol=0.0)
        assert np.array_equal(res["gap"] <= dual.DEFAULT_TOL, ref["gap"] <= dual.DEFAULT_TOL)
        assert not res["stalled"].any()

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
