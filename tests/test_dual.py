import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emff import (
    MU0,
    interaction_operator,
    psi_stack,
    solve_dual,
    solve_dual_batch,
    SolverError,
)
from emff import dual
from emff.dual import unvec_columns
from conftest import SINGULAR_D, SINGULAR_U, forward_command, random_geometry


class TestSolveDual:
    def test_zero_command(self):
        cert = solve_dual(psi_stack(1.0), np.zeros(6))
        assert np.array_equal(cert.lambda_, np.zeros(6))
        assert cert.J_d == 0.0
        assert cert.sigma_max == 0.0

    # the last two square to below the smallest double
    @pytest.mark.parametrize(
        "d,F", [(1.0, 1e-5), (2.0, 3e-6), (0.3, 1e-4), (1.0, 1.89e-240), (1.0, 1.89e-300)]
    )
    def test_axial_force_closed_form(self, d, F):
        # axial command saturates the (1,1) singular direction: J_d = 4 pi d^4 F / (3 mu0)
        cert = solve_dual(psi_stack(d), [F, 0, 0, 0, 0, 0])
        assert np.isclose(cert.J_d, 4 * np.pi * d**4 * F / (3 * MU0), rtol=1e-8)
        assert cert.sigma_max >= 1 - 1e-6
        assert cert.gap <= 1e-10

    def test_objective_homogeneity(self, rng):
        r, hint, u, _ = forward_command(rng)
        Q = interaction_operator(r, hint)
        J1 = solve_dual(Q, u.as_vector()).J_d
        J2 = solve_dual(Q, 2 * u.as_vector()).J_d
        assert np.isclose(J2, 2 * J1, rtol=1e-8)

    def test_weak_duality_against_generator(self, rng):
        for _ in range(20):
            r, hint, u, J_gen = forward_command(rng)
            cert = solve_dual(interaction_operator(r, hint), u.as_vector())
            assert cert.J_d <= J_gen * (1 + 1e-9)

    def test_active_constraint_at_optimum(self, rng):
        for _ in range(20):
            r, hint, u, _ = forward_command(rng)
            cert = solve_dual(interaction_operator(r, hint), u.as_vector())
            assert cert.sigma_max >= 1 - 1e-6
            assert cert.sigma_max <= 1 + 1e-8

    def test_deterministic_bitwise(self, rng):
        r, hint, u, _ = forward_command(rng)
        Q = interaction_operator(r, hint)
        c1 = solve_dual(Q, u.as_vector())
        c2 = solve_dual(Q, u.as_vector())
        assert np.array_equal(c1.lambda_, c2.lambda_)
        assert c1.J_d == c2.J_d

    def test_finite_objective_always(self, rng):
        for _ in range(10):
            r, hint = random_geometry(rng)
            u = rng.normal(size=6) * 10.0 ** rng.integers(-8, 2)
            cert = solve_dual(interaction_operator(r, hint), u)
            assert np.isfinite(cert.J_d)
            assert cert.J_d >= 0.0

    def test_stall_raises(self, monkeypatch):
        # after one Newton system the row is certified where it is, far short of
        # DEFAULT_TOL
        monkeypatch.setattr(dual, "_MAX_NEWTON", 1)
        res = solve_dual_batch(psi_stack(1.0), [[0.0] * 6, [1e-5, 0, 0, 0, 0, 0]])
        assert res["stalled"].tolist() == [False, True]
        assert res["newton_iters"][0] == 0
        with pytest.raises(SolverError, match="after 1 Newton iterations") as err:
            solve_dual(psi_stack(1.0), [1e-5, 0, 0, 0, 0, 0])
        assert err.value.best.newton_iters == 1

    def test_certificate_carries_newton_iters(self, rng):
        # the certificate's count is the batch's for the same row
        for _ in range(5):
            r, hint, u, _ = forward_command(rng)
            Q = interaction_operator(r, hint)
            cert = solve_dual(Q, u.as_vector())
            assert cert.newton_iters == solve_dual_batch(Q, [u.as_vector()])["newton_iters"][0] > 0
        assert solve_dual(psi_stack(1.0), np.zeros(6)).newton_iters == 0

    def test_uncertifiable_certificate_is_solver_error(self):
        cert = solve_dual(psi_stack(1.0), [1e-5, 0, 0, 0, 0, 0])
        with pytest.raises(SolverError, match="certificate infeasible"):
            dataclasses.replace(cert, sigma_max=1.0 + 1e-7)
        for J_d in (np.inf, np.nan):
            with pytest.raises(SolverError, match="dual objective must be finite"):
                dataclasses.replace(cert, J_d=J_d)

    def test_r_lambda_consistent_with_q(self, rng):
        r, hint, u, _ = forward_command(rng)
        Q = interaction_operator(r, hint)
        cert = solve_dual(Q, u.as_vector())
        assert np.allclose(cert.R_lambda, unvec_columns(Q.T @ cert.lambda_), atol=1e-12)

    def test_pure_torque_against_brute_force(self):
        # torque-only commands are the brigade's hardest single-block case
        from emff import brute_force_allocate

        u = [0.0, 0.0, 0.0, 0.0, 0.0, 2e-7]
        cert = solve_dual(psi_stack(1.5), u)
        brute = brute_force_allocate([1.5, 0, 0], [0, 0, -1.0], u, restarts=20, seed=3)
        assert brute.J_p >= cert.J_d * (1 - 1e-4)
        assert brute.J_p <= cert.J_d * (1 + 1e-4)


def _band_rows(ratio, f_y, e):
    """Rows of the k = 2 band on psi_stack(1): in-plane commands (f_x, f_y, 0, 0,
    0, tau_z) with f_x = ratio f_y and tau_z = -(2/3) f_y (1 + 1e-9 e)."""
    f_y = np.asarray(f_y, dtype=float)
    us = np.zeros(f_y.shape + (6,))
    us[..., 0], us[..., 1], us[..., 5] = ratio * f_y, f_y, -2.0 / 3.0 * f_y * (1.0 + 1.0e-9 * e)
    return us


#: One batch row: None is a zero command, an array a row of the k = 2 band with
#: |f_x/f_y| in 1e-8..1e-4, else (direction, log10 magnitude).  Magnitudes over
#: 1e-9..1e-1 and random directions make rows finish their schedules at
#: different iterations, so rows leave the batch at different points; most other
#: rows end in the rank-two Newton finish, while nearly all band rows leave a
#: finish short of _FINISH_TOL and resume their schedule at least once.
_rows = st.one_of(
    st.none(),
    st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), st.floats(-9.0, -1.0)),
    st.builds(
        lambda sign, k, f_y, e: _band_rows(sign * 10.0**k, f_y, e),
        st.sampled_from([-1.0, 1.0]), st.floats(-8.0, -4.0),
        st.floats(0.5, 2.0) | st.floats(-2.0, -0.5), st.floats(-1.0, 1.0),
    ),
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
            if isinstance(row, np.ndarray):
                # the band row unfolded from psi_stack(1) onto psi_stack(d)
                us[i] = row / np.repeat([d**4, d**3], 3)
            elif row is not None and np.linalg.norm(row[0]) > 0.0:
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
        cert = solve_dual(Q, us[0])
        assert cert.J_d == batch["J_d"][0]
        assert np.array_equal(cert.lambda_, batch["lambda_"][0])

    def test_singular_newton_system_solves_its_row(self, rng):
        # a stall reproducer: this command once left its row stalled
        Q = psi_stack(SINGULAR_D)
        alone = solve_dual_batch(Q, [SINGULAR_U])
        assert not alone["stalled"][0]
        assert alone["gap"][0] <= 1e-10
        cert = solve_dual(Q, SINGULAR_U)
        assert cert.gap <= 1e-10 and cert.J_d == alone["J_d"][0]
        others = rng.normal(size=(5, 6)) * 10.0 ** rng.uniform(-8.0, -4.0, size=(5, 1))
        us = np.vstack([others[:2], SINGULAR_U, others[2:]])
        batch = solve_dual_batch(Q, us)
        assert not batch["stalled"].any()
        for i in range(len(us)):
            row = solve_dual_batch(Q, us[i : i + 1])
            for k in _BATCH_FIELDS:
                assert np.array_equal(row[k][0], batch[k][i]), k

    def test_k2_band_never_stalls(self):
        # 100 rows per decade of |f_x/f_y| over 1e-8..1e-4: rank-two optima with
        # sigma_2/sigma_1 about |f_x/f_y|, whose dual point the tangent step from
        # the end of the schedule spoils; 188 of these 400 once stalled, at gaps
        # up to 1.6e-7
        rng = np.random.default_rng(0)
        k = np.repeat(np.arange(-8.0, -4.0), 100)
        ratio = rng.choice([-1.0, 1.0], k.size) * 10.0 ** rng.uniform(k, k + 1.0)
        f_y = rng.choice([-1.0, 1.0], k.size) * rng.uniform(0.5, 2.0, k.size)
        res = solve_dual_batch(psi_stack(1.0), _band_rows(ratio, f_y, rng.normal(size=k.size)))
        assert not res["stalled"].any()
        assert (res["gap"] <= dual.DEFAULT_TOL).all()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_k2_band_certified_within_newton_cap(self, seed):
        # 300 rows per decade of |f_x/f_y| over 1e-12..1e-3: every row is certified
        # before its _MAX_NEWTON Newton systems run out, at about 6.3 systems per row
        rng = np.random.default_rng(seed)
        k = np.repeat(np.arange(-12.0, -3.0), 300)
        ratio = rng.choice([-1.0, 1.0], k.size) * 10.0 ** rng.uniform(k, k + 1.0)
        f_y = rng.choice([-1.0, 1.0], k.size) * rng.uniform(0.5, 2.0, k.size)
        res = solve_dual_batch(psi_stack(1.0), _band_rows(ratio, f_y, rng.normal(size=k.size)))
        assert not res["stalled"].any()
        assert not (res["newton_iters"] == dual._MAX_NEWTON).any()
        assert res["newton_iters"].mean() <= 7.0

    def test_unfinished_rows_resume_their_schedule(self, monkeypatch, rng):
        # with no finish allowed to end its row, every row that finishes resumes its
        # schedule where it left it, so its result is bit for bit that of the schedule
        # alone (no row finishing): only its count of Newton systems differs
        k = np.repeat(np.arange(-8.0, -4.0), 5)
        band = _band_rows(rng.choice([-1.0, 1.0], k.size) * 10.0 ** rng.uniform(k, k + 1.0),
                          rng.uniform(0.5, 2.0, k.size), rng.normal(size=k.size))
        wide = rng.normal(size=(20, 6)) * 10.0 ** rng.uniform(-6.0, 2.0, size=(20, 1))
        us = np.vstack([band, wide])
        monkeypatch.setattr(dual, "_RANK_TWO", 0.0)
        walked = solve_dual_batch(psi_stack(1.0), us)
        monkeypatch.undo()
        monkeypatch.setattr(dual, "_FINISH_TOL", -np.inf)
        resumed = solve_dual_batch(psi_stack(1.0), us)
        assert (resumed["newton_iters"] > walked["newton_iters"]).all()
        assert (resumed["newton_iters"] < dual._MAX_NEWTON).all()
        for key in set(_BATCH_FIELDS) - {"newton_iters"}:
            assert np.array_equal(resumed[key], walked[key]), key
        assert not walked["stalled"].any()

    @pytest.mark.parametrize("u", [
        # folded allocate rows (allocate-mix seed 8 case 146, seed 22 case 131,
        # seed 23 case 233) that smoothing alone certified only to 1.9e-11
        [4.16655685404461, -0.95544644748193, -2.740092385438431,
         -2.7853462825455897, -0.9173911225554983, 0.3435940992668787],
        [0.18033840563778028, -0.29533861515510446, 0.46309696751724444,
         -0.2956030223185407, 0.18937650491045355, 0.2159487493427355],
        [327.0002708062472, -119.93691331281718, -50.36497466172504,
         1.8673555502665702, -19.534756064110347, 53.02519396890556],
    ])
    def test_folded_rows_certified_by_the_finish(self, u):
        cert = solve_dual(psi_stack(1.0), u)
        assert abs(cert.gap) <= 1e-12
        assert cert.newton_iters < dual._MAX_NEWTON

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
            Q = interaction_operator(*random_geometry(rng))
            N = unvec_columns(np.linalg.svd(Q)[2][6:])
            if case < 10:
                X = rng.normal(size=(1, 3, 3))
            else:
                X = exact[case - 10 : case - 9]
            mu = 10.0 ** rng.uniform(-2.0, 0.0, size=1)
            e = 1e-6

            def spectral(X, mu):
                U, s, Vt = np.linalg.svd(X)
                return dual._spectral(U, s, Vt, dual._smoothed(s, mu), N, mu, np.full(1, np.nan))

            def gradient(X, mu):
                return spectral(X, mu)[2][0, :3, 0]

            def value(X):
                return dual._smoothed(np.linalg.svd(X, compute_uv=False), mu)[0].sum()

            with np.errstate(divide="raise", invalid="raise", over="raise"):
                _, K, rhs = spectral(X, mu)
                H, g = K[:, :3, :3], rhs[0, :3, 0]
                grad, hess = np.zeros(3), np.zeros((3, 3))
                for k in range(3):
                    Xp, Xm = X + e * N[k], X - e * N[k]
                    grad[k] = (value(Xp) - value(Xm)) / (2 * e)
                    hess[k] = (gradient(Xp, mu) - gradient(Xm, mu)) / (2 * e)
                dmu = (gradient(X, mu + e) - gradient(X, mu - e)) / (2 * e)
            assert np.isfinite(K).all() and np.isfinite(rhs).all()
            assert not K[0, 3, :3].any() and not K[0, :3, 3].any() and not rhs[0, 3].any()
            assert np.abs(grad - g).max() <= 1e-8
            assert np.abs(hess - H[0]).max() <= 1e-7 * np.abs(H[0]).max()
            assert np.abs(dmu - rhs[0, :3, 1]).max() <= 1e-7 * (1.0 + np.abs(dmu).max())

    def test_finish_jacobian_matches_differences(self, rng):
        # the finish's residual F(z, w) = (<U_2 V_2^T + w u_3 v_3^T, N_k>, sigma_3)
        # against central differences in z and in w, its Jacobian the bordered
        # [[H, c], [c^T, 0]] (K up to its damping), the same in a batch with a
        # smoothing row; also where sigma_1 = sigma_2 or sigma_3 = 0 exactly,
        # with u_3 v_3^T kept oriented as the base point's (sigma_3 taken signed)
        # and with no floating-point warning
        exact = [
            np.diag([1.0, 1.0, 0.5]),
            [[1.0, 2.0, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 0.0]],
            np.diag([1.0, 1.0, 0.0]),
            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        ]
        zeros = 0
        for case in range(8 + len(exact)):
            Q = interaction_operator(*random_geometry(rng))
            N = unvec_columns(np.linalg.svd(Q)[2][6:])
            X = rng.normal(size=(3, 3)) if case < 8 else np.asarray(exact[case - 8])
            w, mu, e = rng.uniform(-0.9, 0.9), np.full(1, 0.1), 1e-6
            U0, s0, Vt0 = np.linalg.svd(X)
            zeros += s0[2] == 0.0

            def residual(X, w):
                U, s, Vt = np.linalg.svd(X)
                # the orientation of u_3 v_3^T against the base point's
                o = np.sign((U[:, 2] @ U0[:, 2]) * (Vt[2] @ Vt0[2]))
                G = U[:, :2] @ Vt[:2] + o * w * np.outer(U[:, 2], Vt[2])
                return np.append(np.einsum("ij,kij->k", G, N), o * s[2])

            with np.errstate(divide="raise", invalid="raise", over="raise"):
                h0 = dual._smoothed(s0[None], mu)
                t, K, rhs = dual._spectral(U0[None], s0[None], Vt0[None], h0, N, mu, np.full(1, w))
                # batched after a smoothing row, the finishing row builds the same system
                two = [np.repeat(a, 2, axis=0) for a in (U0[None], s0[None], Vt0[None], h0, mu)]
                _, K2, rhs2 = dual._spectral(*two[:4], N, two[4], np.array([np.nan, w]))
                jac = np.zeros((4, 4))
                for k in range(3):
                    jac[:, k] = (residual(X + e * N[k], w) - residual(X - e * N[k], w)) / (2 * e)
                jac[:, 3] = (residual(X, w + e) - residual(X, w - e)) / (2 * e)
                F = residual(X, w)
            assert np.isfinite(K).all() and np.isfinite(rhs).all()
            assert np.array_equal(t[0], [1.0, 1.0, w])
            assert np.array_equal(K2[1], K[0]) and np.array_equal(rhs2[1], rhs[0])
            assert not rhs[0, :, 1].any()
            assert np.abs(rhs[0, :, 0] - F).max() <= 1e-14
            assert np.abs(jac - K[0]).max() <= 1e-7 * np.abs(K[0]).max()
        assert zeros == 3

    @pytest.mark.parametrize("halvings", [1, dual._MAX_HALVINGS])
    def test_newton_systems_see_one_point(self, monkeypatch, rng, halvings):
        # each Newton system is built from the SVD and h of one point, also
        # after a row backtracked to a later trial or (with one trial allowed,
        # on most searched rows) accepted none and stayed where it was
        spectral, seen = dual._spectral, []

        def checked(U, s, Vt, h, N, mu, w):
            seen.append(np.array_equal(h, np.sqrt(s * s + (mu * mu)[:, None])))
            return spectral(U, s, Vt, h, N, mu, w)

        monkeypatch.setattr(dual, "_spectral", checked)
        monkeypatch.setattr(dual, "_MAX_HALVINGS", halvings)
        us = rng.normal(size=(40, 6)) * 10.0 ** rng.uniform(-9.0, 2.0, size=(40, 1))
        res = solve_dual_batch(psi_stack(1.3), us)
        assert seen and all(seen)
        done = ~res["stalled"]
        assert done.sum() >= 20 and (res["gap"][done] <= dual.DEFAULT_TOL).all()

    def test_newton_iteration_budget(self):
        # a cost guard on the smoothing stages, their tangent steps and the
        # finish, which average about 4.7 Newton systems per row on these commands
        rng = np.random.default_rng(5)
        iters = []
        for _ in range(300):
            d = rng.uniform(0.5, 5.0)
            u = rng.normal(size=6)
            u *= 10.0 ** rng.uniform(-12.0, 3.0) / np.linalg.norm(u)
            res = solve_dual_batch(psi_stack(d), u[None])
            assert not res["stalled"][0]
            iters.append(res["newton_iters"][0])
        assert np.mean(iters) <= 5.0 and max(iters) <= 16

    def test_two_sided_certificate(self, rng):
        # both points are checked directly: Q vec X = -u and sigma_max(R) <= 1,
        # and their costs bracket the optimum within DEFAULT_TOL
        for _ in range(10):
            Q = interaction_operator(*random_geometry(rng))
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
        Q = interaction_operator(*random_geometry(rng))
        ref, res = solve_dual_batch(Q, us), solve_dual_batch(Q, np.ldexp(us, k))
        assert np.array_equal(res["J_p"], np.ldexp(ref["J_p"], k))
        assert np.allclose(res["J_d"], np.ldexp(ref["J_d"], k), rtol=1e-15, atol=0.0)
        assert np.array_equal(res["gap"] <= dual.DEFAULT_TOL, ref["gap"] <= dual.DEFAULT_TOL)
        assert not res["stalled"].any()

    def test_overflowing_row_is_stalled(self):
        # a row whose costs exceed the double range gets J_p = J_d = inf and a
        # NaN gap, which is not within DEFAULT_TOL; no RuntimeWarning escapes
        us = [[1e306, 0, 0, 0, 0, 0], [1e-5, 0, 0, 0, 0, 0]]
        res = solve_dual_batch(psi_stack(1.0), us)
        assert np.isinf(res["J_p"][0]) and np.isinf(res["J_d"][0]) and np.isnan(res["gap"][0])
        assert res["stalled"].tolist() == [True, False]
        # a NaN gap cannot shrink: the row ends with its schedule, not at the cap
        assert res["newton_iters"][0] < dual._MAX_NEWTON
        with pytest.raises(SolverError, match="dual objective must be finite"):
            solve_dual(psi_stack(1.0), us[0])

    def test_overflowing_least_norm_point_is_stalled(self):
        # |X0|_F itself overflows: the row is stalled with J_p = J_d = inf and a
        # NaN gap, the other row is solved as alone, and no RuntimeWarning escapes
        us = [[1.7e308, 0, 0, 0, 0, 1.7e308], [1e-5, 0, 0, 0, 0, 0]]
        res = solve_dual_batch(psi_stack(1.0), us)
        assert np.isinf(res["J_p"][0]) and np.isinf(res["J_d"][0]) and np.isnan(res["gap"][0])
        assert res["stalled"].tolist() == [True, False]
        alone = solve_dual_batch(psi_stack(1.0), us[1:])
        assert all(np.array_equal(res[k][1], alone[k][0]) for k in alone)
        with pytest.raises(SolverError, match="dual objective must be finite"):
            solve_dual(psi_stack(1.0), us[0])

    def test_batch_zero_rows(self):
        us = np.zeros((3, 6))
        us[1] = [1e-5, 0, 0, 0, 0, 0]
        res = solve_dual_batch(psi_stack(1.0), us)
        assert res["J_d"][0] == 0.0 and res["J_d"][2] == 0.0
        assert res["J_d"][1] > 0.0


class TestOperatorMemo:
    def test_memo_never_serves_a_stale_basis(self, rng, monkeypatch):
        # psi_stack(1), then psi_stack(1) with its torque blocks sign-flipped,
        # then psi_stack(1) again: each solve is bit-identical to one made with
        # an empty memo
        import emff.magnetics

        us = rng.normal(size=(5, 6)) * 10.0 ** rng.uniform(-9.0, 2.0, size=(5, 1))
        Q = psi_stack(1.0)
        monkeypatch.setattr(emff.magnetics, "PSI_TORQUE", -emff.magnetics.PSI_TORQUE)
        flipped = psi_stack(1.0)
        assert not np.array_equal(Q, flipped)
        for op in (Q, flipped, Q):
            memo = solve_dual_batch(op, us)
            dual._operator_basis.cache_clear()
            fresh = solve_dual_batch(op, us)
            assert all(np.array_equal(memo[k], fresh[k]) for k in fresh)
            assert np.allclose(op @ fresh["X"].swapaxes(1, 2).reshape(5, 9).T, -us.T,
                               rtol=0.0, atol=1e-12 * np.abs(us).max())
