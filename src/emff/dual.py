"""Lagrange dual of the two-coil dipole-allocation problem, solved with its primal.

The nonconvex allocation problem (minimize total squared dipole amplitude
subject to a commanded time-averaged wrench) has the dual

    maximize  -(8 pi / mu0) lambda^T u
    s.t.      sigma_max(R) <= 1,   vec(R) = Q^T lambda,

whose conic dual is nuclear-norm minimization over an affine slice (Recht,
Fazel & Parrilo 2010):

    minimize  (8 pi / mu0) ||X||_*   s.t.   Q vec X = -u.

Weak duality is -lambda^T u = <R, X> <= sigma_max(R) ||X||_*.  Q has full row
rank, so the slice is X0 + sum_i z_i N_i with X0 the least-norm point and
N_1..N_3 an orthonormal basis of the null space of Q (for the line-of-sight
operator psi_stack(d) it spans I, diag(0, 1, -1) and E_23 + E_32).

Each row is solved over z in R^3 by Newton's method on the smoothed objective
f_mu(z) = sum_i sqrt(sigma_i(X)^2 + mu^2), with the analytic Hessian of a
spectral function (Lewis & Sendov 2001), an Armijo line search and a damping
of 1e-14 tr H (an axial-torque command has a flat optimal face, where the
Hessian is singular).  mu starts at _MU_START |X0|_F and falls by _MU_FACTOR
per stage down to _MU_FINAL |X0|_F; each stage starts from the tangent
predictor of the smoothed minimizer path z(mu).  The last stage is centred
until its squared Newton decrement is below _DECREMENT_FINAL, and one more
Newton step follows.  Since z(mu) = z* + mu z'(mu) + O(mu^2), a tangent step
to mu = 0 then lands on the optimum without driving mu to rounding, where the
Hessian's 1/mu curvature would swamp the rest of it.  A row's next Newton
system is built from the SVD of the trial point its line search accepted
(the first trial is the whole step), which is its next iterate bit for bit.

From the SVD U S V^T of the optimum, a dual matrix of leading rank r is
G = U_r V_r^T + U_0 W V_0^T, where W on the trailing block starts from the
smoothed gradient and takes the least-norm correction that makes G
orthogonal to every N_i.  Projecting G onto range(Q^T) gives lambda, scaled
so that sigma_max(R) <= 1.  Every such lambda is dual feasible, so of the
candidates r = 1, 2, 3 the one with the largest dual value is kept; the rank
of the optimum is never guessed from a threshold.  J_p, J_d and the gap are
measured from the two points.

A batch shares one 6x9 operator.  Each row runs its own schedule, line search
and stopping test, and every per-row quantity is a stack of per-row products
or LAPACK calls, never a 2-D BLAS product over the batch axis (whose blocking
depends on the batch size), so a row's result is bit-for-bit independent of its batch.
"""

from dataclasses import dataclass

import numpy as np

from .magnetics import MU0, InteractionOperator, Wrench

#: Relative duality gap every solve must certify.
DEFAULT_TOL = 1.0e-10

#: Newton systems a row may build over all stages before it counts as stalled.
_MAX_NEWTON = 60
_MU_START = 0.1
_MU_FACTOR = 0.01
_MU_FINAL = 1.0e-10
#: Newton decrement^2 (|X0|_F = 1) below which the last stage takes its final step.
_DECREMENT_FINAL = 1.0e-20
#: Steps with decrement^2 below this multiple of mu are taken whole, without a line search.
_FULL_STEP = 0.01
_MAX_HALVINGS = 40
_EYE3 = np.eye(3)


class SolverError(RuntimeError):
    """A solve stalled or missed the gap DEFAULT_TOL; carries its certificate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class DualProblem:
    """Dual instance: interaction operator and commanded wrench."""

    Q: InteractionOperator
    u: Wrench

    def __post_init__(self):
        if not np.isfinite(self.u.as_vector()).all():
            raise ValueError("command wrench must be finite")


@dataclass(frozen=True)
class DualCertificate:
    """Two-sided certificate of one instance.

    lambda_   -- dual multiplier (6,)
    R_lambda  -- 3x3 matrix with vec(R) = Q^T lambda (column-stacked)
    J_d       -- dual value -(8 pi/mu0) lambda^T u, A^2*m^4: a lower bound
    sigma_max -- spectral norm of R_lambda (<= 1 up to rounding)
    X         -- primal point with Q vec X = -u
    J_p       -- primal value (8 pi/mu0) ||X||_*: an upper bound
    gap       -- measured relative gap (J_p - J_d) / J_p (0 for u = 0)
    """

    lambda_: np.ndarray
    R_lambda: np.ndarray
    J_d: float
    sigma_max: float
    X: np.ndarray
    J_p: float
    gap: float

    def __post_init__(self):
        if self.sigma_max > 1.0 + 1.0e-8:
            raise ValueError(f"certificate infeasible: sigma_max = {self.sigma_max}")
        if not np.isfinite(self.J_d):
            raise ValueError("dual objective must be finite")


def psd_feasible(R):
    """Whether [[I, R], [R^T, I]] is PSD, plus the margin 1 - sigma_max(R)."""
    R = np.asarray(R, dtype=float)
    smax = float(np.linalg.svd(R, compute_uv=False)[0])
    margin = 1.0 - smax
    return margin >= 0.0, margin


def unvec_columns(q):
    """Column-stacked 3x3 blocks from (..., 9) vectors (inverse of Fortran-order vec)."""
    q = np.asarray(q, dtype=float)
    return q.reshape(q.shape[:-1] + (3, 3)).swapaxes(-1, -2)


def _spectral(U, s, Vt, h, N, mu):
    """From the SVD U s V^T of X (b, 3, 3) and h = sqrt(s^2 + mu^2): t = s / h,
    the damped Hessian H of f_mu(z) = sum_i h_i and, as the columns of rhs
    (b, 3, 2), its gradient g and d g / d mu.  With Nt[b, k] = U^T N_k V,
        H_kl = sum_ij Nt_kij (a_ij (Nt_lij + Nt_lji) + b_ij (Nt_lij - Nt_lji)) / 2,
    a_ij = (t_i - t_j)/(s_i - s_j) = (mu/(h_i h_j))^2 / b_ij, b_ij = (t_i + t_j)/(s_i + s_j):
    a mean of 1/h_i and 1/h_j with weights s + tiny (s above 1e-292), so 1/mu at s_i = s_j = 0."""
    m = mu[:, None]
    hh = h[:, :, None] * h[:, None, :]
    w = s + np.finfo(float).tiny
    d = np.empty(s.shape + (2,))
    t = np.divide(w, h, out=d[..., 0])
    np.divide(-m * t, hh.diagonal(axis1=1, axis2=2), out=d[..., 1])
    b = (t[:, :, None] + t[:, None, :]) / (w[:, :, None] + w[:, None, :])
    a = np.square(m[:, :, None] / hh) / b
    Nt = _rotated(U, N, Vt)
    Nt9, NtT9 = Nt.reshape(-1, 3, 9), Nt.swapaxes(2, 3).reshape(-1, 3, 9)
    W = a.reshape(-1, 1, 9) * (Nt9 + NtT9) + b.reshape(-1, 1, 9) * (Nt9 - NtT9)
    H = 0.5 * (Nt9 @ W.swapaxes(1, 2))
    diag = H.reshape(-1, 9)[:, ::4]
    diag += 1.0e-14 * diag.sum(axis=1, keepdims=True)
    return t, H, Nt.diagonal(axis1=2, axis2=3) @ d


def _rotated(U, N, Vt):
    """The null directions in the singular bases of each row: U^T N_k V (b, 3, 3, 3)."""
    return (U.swapaxes(1, 2)[:, None] @ N) @ Vt.swapaxes(1, 2)[:, None]


def _smoothed(X, mu):
    """SVD U s V^T of X (b, 3, 3) and h = sqrt(s^2 + mu^2), whose row sums are f_mu(X)."""
    U, s, Vt = np.linalg.svd(X)
    return U, s, Vt, np.sqrt(s * s + (mu * mu)[:, None])


def _dual_matrices(X, N, G_mu):
    """Nuclear norms of the rows of X (b, 3, 3) and, for each leading rank
    r = 1, 2, 3, dual matrices G (3, b, 3, 3) with <G, N_k> = 0: U_r V_r^T on
    the leading singular block and, on the trailing block, the smoothed
    gradient G_mu plus its least-norm correction."""
    U, s, Vt = np.linalg.svd(X)
    Nt = _rotated(U, N, Vt)
    # lead[r - 1, 0, i]: whether singular direction i is in the leading block of rank r
    lead = (np.arange(3) < np.arange(1, 4)[:, None])[:, None]
    trail = ~(lead[..., :, None] | lead[..., None, :])
    Gt = np.where(trail, np.swapaxes(U, 1, 2) @ G_mu @ np.swapaxes(Vt, 1, 2), 0.0)
    Gt += lead[..., :, None] * _EYE3
    res = np.einsum("rbij,bkij->rbk", Gt, Nt)
    A = np.where(trail[:, :, None], Nt, 0.0).reshape(3, -1, 3, 9)
    AA = A @ np.swapaxes(A, -1, -2)
    damping = 1.0e-14 * np.trace(AA, axis1=-2, axis2=-1) + np.finfo(float).tiny
    AA += damping[..., None, None] * _EYE3
    y = np.linalg.solve(AA, res[..., None])[..., 0]
    Gt -= np.einsum("rbkp,rbk->rbp", A, y).reshape(Gt.shape)
    return s.sum(axis=1), U @ Gt @ Vt


def solve_dual_batch(Q, u):
    """Solve a batch of instances sharing one operator, each with a measured gap.

    Parameters
    ----------
    Q : (6, 9) array
        Interaction operator shared by every problem of the batch.
    u : (B, 6) array
        Commanded wrenches, one per problem; every entry must be finite.

    Returns
    -------
    dict with, per row: J_p (B,), J_d (B,), gap (B,) -- (J_p - J_d)/J_p --,
    X (B,3,3) -- the primal point, Q vec X = -u --, lambda_ (B,6), R (B,3,3),
    sigma_max (B,), newton_iters (B,) -- Newton systems built over all stages
    -- and stalled (B,) -- whether the row ran out of its _MAX_NEWTON
    iterations or its gap exceeds DEFAULT_TOL.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    bad = np.flatnonzero(~np.isfinite(u).all(axis=1))
    if bad.size:
        raise ValueError(f"command row {bad[0]} is not finite: {u[bad[0]]}")
    B = u.shape[0]
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (6, 9):
        raise ValueError(f"Q must be one shared 6x9 operator, got shape {Q.shape}")
    Uq, sq, Vq = np.linalg.svd(Q)
    pinv = (Vq[:6].T / sq) @ Uq.T
    N = unvec_columns(Vq[6:])

    X0 = -unvec_columns((u[:, None, :] @ pinv.T)[:, 0])
    # |X0|_F of each row taken after an exact power-of-two scaling, so no square underflows
    e = np.frexp(np.abs(X0).max(axis=(1, 2)))[1]
    X0s = np.ldexp(X0, -e[:, None, None])
    scale = np.ldexp(np.sqrt(np.einsum("bxy,bxy->b", X0s, X0s)), e)
    live = scale > 0.0
    X0 /= np.where(live, scale, 1.0)[:, None, None]
    z = np.zeros((B, 3))
    G_mu = np.zeros((B, 3, 3))
    iters = np.zeros(B, dtype=int)
    stalled = np.zeros(B, dtype=bool)

    # the rows still iterating: z, mu, and the SVD and h of their point X0 + z.N
    idx = np.flatnonzero(live)
    X0a, za, ma = X0[idx], z[idx], np.full(idx.size, _MU_START)
    U, s, Vt, h = _smoothed(X0a, ma)
    for it in range(1, _MAX_NEWTON + 1):
        if not idx.size:
            break
        t, H, rhs = _spectral(U, s, Vt, h, N, ma)
        # Newton step -sol[..., 0] with decrement^2 g.H^-1 g; tangent dz/dmu = -sol[..., 1]
        sol = np.linalg.solve(H, rhs)
        dec2 = np.vecdot(rhs[..., 0], sol[..., 0])
        final = ma <= _MU_FINAL
        ended = dec2 <= np.where(final, _DECREMENT_FINAL, ma * ma)
        # done: one last Newton step, then the tangent step to mu = 0;
        # centred: shrink mu and start the next stage at the tangent predictor
        centred, done = ended & ~final, ended & final
        no_search = ended | (dec2 <= _FULL_STEP * ma)
        nxt = np.where(centred, np.maximum(ma * _MU_FACTOR, _MU_FINAL), np.where(done, 0.0, ma))
        z1 = np.where(centred[:, None], za, za - sol[..., 0]) + (ma - nxt)[:, None] * sol[..., 1]
        U1, s1, Vt1, h1 = _smoothed(X0a + np.einsum("bk,kxy->bxy", z1, N), nxt)
        # a searched row took the whole Newton step as its first Armijo trial on f_mu;
        # if that fails it backtracks, keeping the SVD of the trial it accepts, or stays put
        f0 = h.sum(axis=1)
        fail = np.flatnonzero(~(no_search | (h1.sum(axis=1) <= f0 - 0.25 * dec2)))
        for k in range(1, _MAX_HALVINGS):
            if not fail.size:
                break
            zt = za[fail] - 0.5**k * sol[fail, :, 0]
            Ut, st, Vtt, ht = _smoothed(X0a[fail] + np.einsum("bk,kxy->bxy", zt, N), ma[fail])
            ok = ht.sum(axis=1) <= f0[fail] - 0.25 * 0.5**k * dec2[fail]
            acc = fail[ok]
            z1[acc], U1[acc], s1[acc], Vt1[acc], h1[acc] = zt[ok], Ut[ok], st[ok], Vtt[ok], ht[ok]
            fail = fail[~ok]
        else:
            z1[fail], U1[fail], s1[fail], Vt1[fail] = za[fail], U[fail], s[fail], Vt[fail]
            h1[fail] = h[fail]
        if done.any():
            fin, keep = idx[done], ~done
            iters[fin], z[fin] = it, z1[done]
            G_mu[fin] = (U[done] * t[done][:, None, :]) @ Vt[done]
            idx, X0a, z1, nxt = idx[keep], X0a[keep], z1[keep], nxt[keep]
            U1, s1, Vt1, h1 = U1[keep], s1[keep], Vt1[keep], h1[keep]
        za, U, s, Vt, h, ma = z1, U1, s1, Vt1, h1, nxt
    else:
        # out of iterations: the remaining rows are certified from where they are
        stalled[idx], iters[idx], z[idx] = True, _MAX_NEWTON, za
        G_mu[idx] = (U * (s / h)[:, None, :]) @ Vt

    X = X0 + np.einsum("bk,kxy->bxy", z, N)
    G = np.zeros((3, B, 3, 3))
    nuclear = np.zeros(B)
    rows = np.flatnonzero(live)
    if rows.size:
        nuclear[rows], G[:, rows] = _dual_matrices(X[rows], N, G_mu[rows])
    # each vec G projected onto range(Q^T), then scaled into sigma_max(R) <= 1;
    # every candidate is dual feasible, so the best one is kept
    lam = (G.swapaxes(-1, -2).reshape(3, B, 1, 9) @ pinv)[..., 0, :]
    R = unvec_columns((lam[..., None, :] @ Q)[..., 0, :])
    smax = np.linalg.svd(R, compute_uv=False)[..., 0]
    shrink = np.maximum(smax, 1.0)
    c = 8.0 * np.pi / MU0
    J_d = -c * np.einsum("rbi,bi->rb", lam, u) / shrink
    best = np.argmax(J_d, axis=0)
    pick = (best, np.arange(B))
    J_d, smax, shrink = J_d[pick], smax[pick], shrink[pick]
    lam = lam[pick] / shrink[:, None]
    R = R[pick] / shrink[:, None, None]
    J_p = c * scale * nuclear
    gap = np.where(live, (J_p - J_d) / np.where(live, J_p, 1.0), 0.0)
    return {
        "J_p": J_p,
        "J_d": J_d,
        "gap": gap,
        "X": X * scale[:, None, None],
        "lambda_": lam,
        "R": R,
        "sigma_max": smax / shrink,
        "newton_iters": iters,
        "stalled": stalled | (gap > DEFAULT_TOL),
    }


def solve_dual(problem):
    """Certified solve of one instance.

    Raises SolverError (carrying the certificate) when the solve runs out of
    Newton iterations or its measured gap exceeds DEFAULT_TOL; u = 0 gives
    the exact certificate lambda = 0, X = 0.
    """
    res = solve_dual_batch(problem.Q.Q, problem.u.as_vector()[None, :])
    cert = DualCertificate(
        lambda_=res["lambda_"][0],
        R_lambda=res["R"][0],
        J_d=float(res["J_d"][0]),
        sigma_max=float(res["sigma_max"][0]),
        X=res["X"][0],
        J_p=float(res["J_p"][0]),
        gap=float(res["gap"][0]),
    )
    if res["stalled"][0]:
        raise SolverError(
            f"dual solve stalled at relative gap {cert.gap:.3e} after"
            f" {res['newton_iters'][0]} Newton iterations (limit {_MAX_NEWTON},"
            f" gap target {DEFAULT_TOL:.0e})",
            best=cert,
        )
    return cert
