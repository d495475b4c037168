"""Lagrange dual of the two-coil dipole-allocation problem.

The nonconvex allocation problem (minimize total squared dipole amplitude
subject to a commanded time-averaged wrench) has the dual

    maximize  -(8 pi / mu0) lambda^T u
    s.t.      P(lambda) = [[I, R], [R^T, I]] >= 0,   vec(R) = Q^T lambda,

a linear objective over the preimage of the spectral-norm unit ball.  The
block constraint is equivalent to sigma_max(R) <= 1, so the feasible set is
compact (Q has full row rank) and lambda = 0 is a strict interior point:
the solver converges for any finite command and the optimum is finite.

Solved by damped-Newton path following on the log-det barrier
phi_t = t * objective + log det(I - R^T R) with a geometric schedule on t
(factor 100) until the barrier duality gap 6/t falls below the requested
relative tolerance.  The central path moves like lambda* + a/t, so the Newton
step at the raised t, taken from the old centre, overshoots by t_new/t_prev:
the line search of each stage's first step starts at alpha = t_prev/t_new,
which extrapolates along the path in 1/t (Fiacco-McCormick), instead of
backtracking there from alpha = 1.  Everything is vectorized over a batch
axis so sweeps over time grids and satellite pairs amortize to dense 3x3/6x6
work.

A batch shares one 6x9 operator.  M = I - R^T R is quadratic in lambda and
S_i = -dM/dlambda_i is linear in it, so S comes from one product of lambda
with a per-batch constant, and the Hessian term tr(M^-1 dS_i/dlambda_j) from
one product of M^-1 with another.  M^-1 and log det M come from a closed-form
LDL^T factorization of the 3x3 M; the barrier value of the accepted line-search
trial is reused at the next iterate.  Each stage drops the rows that have
finished centering, so a row costs only its own iterations.  Every per-row
quantity is a stack of per-row products and each row keeps its own 6x6 solve,
so a row's result is bit-for-bit independent of the batch it is solved in.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .magnetics import MU0, InteractionOperator, Wrench

#: Default relative duality-gap target of the barrier schedule.
DEFAULT_TOL = 1.0e-10

#: Singular values of R within this distance of 1 count as active constraints.
TOL_ACTIVE = 1.0e-6

_BARRIER_NU = 6.0        # barrier parameter of the 6x6 log-det cone
_NEWTON_EPS = 1.0e-13    # stop centering when decrement^2 / 2 falls below
_MAX_NEWTON = 60
_MIN_STEP = 1.0e-14
_T_FACTOR = 100          # barrier weight raise per stage


class SolverError(RuntimeError):
    """Newton centering failed to converge; carries the best iterate found."""

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
    """Optimal multiplier with the quantities the recovery step consumes.

    lambda_      -- dual multiplier (6,)
    R_lambda     -- 3x3 matrix with vec(R) = Q^T lambda (column-stacked)
    J_d          -- dual optimal value, A^2*m^4
    sigma_max    -- spectral norm of R_lambda (<= 1 + 1e-8; = 1 at optimum for u != 0)
    kkt_residual -- relative first-order optimality bound delivered by the barrier
    """

    lambda_: np.ndarray
    R_lambda: np.ndarray
    J_d: float
    sigma_max: float
    kkt_residual: float

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


#: The identity as the distinct entries (m00, m01, m02, m11, m12, m22) of a
#: symmetric 3x3 matrix, the form _ldl3 takes.
_EYE6 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
#: Row-major positions in R of R[k, a] and R[k, b], k = 0..2, for each entry
#: (a, b) of R^T R in _EYE6 order.
_RTR_A = np.array([[3 * k + a for a in (0, 0, 0, 1, 1, 2)] for k in range(3)])
_RTR_B = np.array([[3 * k + b for b in (0, 1, 2, 1, 2, 2)] for k in range(3)])
#: V[(j, z), x] -> V[(x, z), j] over the (6*3, 3) stack of 3x3 blocks.
_SWAP = np.arange(54).reshape(6, 3, 3).transpose(2, 1, 0).ravel()


class _Maps(NamedTuple):
    """Constants of one shared operator that the Newton iteration uses.

    D      -- (6, 3, 3) blocks with R = sum_i lambda_i D_i
    R_map  -- (6, 9): lambda @ R_map is R row-major
    S_map  -- (6, 54): lambda @ S_map stacks the six row-major 3x3 matrices
              S_i = D_i^T R + R^T D_i = sum_k lambda_k (D_i^T D_k + D_k^T D_i)
    H2_map -- (9, 36): vec(M^-1) @ H2_map = [tr(M^-1 (D_i^T D_j + D_j^T D_i))]_ij
    """

    D: np.ndarray
    R_map: np.ndarray
    S_map: np.ndarray
    H2_map: np.ndarray


def _maps(Q):
    D = unvec_columns(Q)
    TT = np.einsum("iyx,jyz->ijxz", D, D)
    Tsym = TT + TT.transpose(1, 0, 2, 3)
    # Tsym[i, k] = Tsym[k, i] and every Tsym[i, k] is a symmetric 3x3
    return _Maps(
        D=D,
        R_map=D.reshape(6, 9),
        S_map=Tsym.reshape(6, 54),
        H2_map=np.ascontiguousarray(Tsym.reshape(36, 9).T),
    )


def _ldl3(m):
    """Closed-form M = L diag(d) L^T of symmetric 3x3 matrices given by their
    distinct entries m (b, 6).  Returns (d0, d1, d2, l10, l20, l21); M is
    positive definite iff every pivot d is positive."""
    m00, m01, m02, m11, m12, m22 = m.T
    l10 = m01 / m00
    l20 = m02 / m00
    d1 = m11 - l10 * m01
    a = m12 - l20 * m01
    l21 = a / d1
    d2 = m22 - l20 * m02 - l21 * a
    return m00, d1, d2, l10, l20, l21


def _sym_inverse(f):
    """(b, 3, 3) inverses from _ldl3 factors: M^-1 = L^-T diag(1/d) L^-1.
    The factorization is backward stable for the positive definite M of the
    iteration, which matters when M is within rounding of singular."""
    d0, d1, d2, l10, l20, l21 = f
    i1 = 1.0 / d1
    x22 = 1.0 / d2
    n20 = l10 * l21 - l20  # (2, 0) entry of L^-1
    x12 = -l21 * x22
    x02 = n20 * x22
    x11 = i1 - l21 * x12
    x01 = n20 * x12 - l10 * i1
    x00 = 1.0 / d0 + l10 * l10 * i1 + n20 * x02
    X = np.array((x00, x01, x02, x01, x11, x12, x02, x12, x22))
    return np.ascontiguousarray(X.T).reshape(-1, 3, 3)


def _barrier(maps, lam, t, cbar):
    """Barrier phi_t = t cbar.lambda + log det(I - R^T R) per row (-inf
    outside the feasible set), with the _ldl3 factors of I - R^T R."""
    R = (lam[:, None, :] @ maps.R_map)[:, 0]
    f = _ldl3(_EYE6 - (R[:, _RTR_A] * R[:, _RTR_B]).sum(axis=1))
    d0, d1, d2 = f[:3]
    ok = (d0 > 0.0) & (d1 > 0.0) & (d2 > 0.0)
    val = t * np.einsum("bi,bi->b", cbar, lam) + np.log(d0 * d1 * d2)
    return np.where(ok, val, -np.inf), f


def _newton_system(maps, lam, t, cbar, f):
    """Gradient g and negated Hessian H of phi_t at feasible lambda, given the
    _ldl3 factors f of M = I - R^T R there.  With dM/dlambda_i = -S_i:
        g_i  = t cbar_i - tr(M^-1 S_i)
        H_ij = tr(M^-1 S_i M^-1 S_j) + tr(M^-1 (D_i^T D_j + D_j^T D_i)).
    Every product is a stack of per-row matrix products, so no row's result
    depends on the others."""
    b = len(lam)
    Minv = _sym_inverse(f)
    S = (lam[:, None, :] @ maps.S_map).reshape(b, 18, 3)
    # V[(i, y), x] = (S_i M^-1)[y, x] = (M^-1 S_i)[x, y]
    V = S @ Minv
    grad = t[:, None] * cbar - np.einsum("bixx->bi", V.reshape(b, 6, 3, 3))
    # tr(M^-1 S_i M^-1 S_j) as one (6 x 9)(9 x 6) product per row
    H1 = V.reshape(b, 6, 9) @ V.reshape(b, 54)[:, _SWAP].reshape(b, 9, 6)
    H2 = (Minv.reshape(b, 1, 9) @ maps.H2_map).reshape(b, 6, 6)
    return grad, H1 + H2


def _newton_step(H, grad):
    """Newton steps H^-1 grad, one LAPACK solve per row.  A row whose H is
    singular to working precision gets a NaN step; the other rows are then
    solved one at a time with the same call, so their steps do not change."""
    try:
        return np.linalg.solve(H, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.full_like(grad, np.nan)
        for i in range(len(H)):
            try:
                step[i] = np.linalg.solve(H[i : i + 1], grad[i : i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return step


def solve_dual_batch(Q, u, tol=DEFAULT_TOL):
    """Solve a batch of dual problems sharing the barrier schedule.

    Parameters
    ----------
    Q : (6, 9) array
        Interaction operator shared by every problem of the batch.
    u : (B, 6) array
        Commanded wrenches, one per problem.
    tol : float
        Relative duality-gap target, in (0, 1e-3].

    Returns
    -------
    dict with lambda_ (B,6), R (B,3,3), J_d (B,), sigma_max (B,), kkt (B,),
    newton_iters (B,) -- Newton iterations summed over the barrier stages --,
    phi_evals (B,) -- barrier evaluations: one at each stage start plus every
    line-search trial the row needed -- and stalled (B,) -- whether the row was
    still centering when some stage ran out of its _MAX_NEWTON iterations, or
    met a Newton system singular to working precision.
    """
    if not 0.0 < tol <= 1.0e-3:
        raise ValueError("tol must lie in (0, 1e-3]")
    u = np.atleast_2d(np.asarray(u, dtype=float))
    B = u.shape[0]
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (6, 9):
        raise ValueError(f"Q must be one shared 6x9 operator, got shape {Q.shape}")
    maps = _maps(Q)
    D = maps.D

    unorm = np.linalg.norm(u, axis=1)
    live = unorm > 0.0
    lam = np.zeros((B, 6))
    iters = np.zeros(B, dtype=int)
    evals = np.zeros(B, dtype=int)
    stalled = np.zeros(B, dtype=bool)
    out = {
        "lambda_": lam,
        "R": np.zeros((B, 3, 3)),
        "J_d": np.zeros(B),
        "sigma_max": np.zeros(B),
        "kkt": np.zeros(B),
        "newton_iters": iters,
        "phi_evals": evals,
        "stalled": stalled,
    }
    if not live.any():
        return out

    cbar = np.zeros_like(u)
    cbar[live] = -u[live] / unorm[live, None]

    # Scale estimate: push the Gram-preconditioned objective direction to the
    # spectral boundary; its objective value lower-bounds the optimum and sets
    # both the initial barrier weight and the stage count.
    gram = np.einsum("ixy,jxy->ij", D, D)
    # one LAPACK solve per row keeps each row independent of its batch
    lam_dir = np.linalg.solve(np.broadcast_to(gram, (B, 6, 6)), cbar[..., None])[..., 0]
    R_dir = np.einsum("bi,ixy->bxy", lam_dir, D)
    s_dir = np.linalg.svd(R_dir, compute_uv=False)[..., 0]
    jbar_est = np.einsum("bi,bi->b", cbar, lam_dir) / np.where(live, s_dir, 1.0)
    jbar_est = np.where(live, jbar_est, 1.0)

    # safety factor 4 keeps the certified gap strictly under tol even when the
    # scale estimate already equals the optimum
    t = _BARRIER_NU / jbar_est
    t_target = 4.0 * t / tol
    # stage k runs at t * _T_FACTOR**k; the last is the first to reach t_target
    # (an int power against a float compares exactly)
    n_stages = 1
    while _T_FACTOR ** (n_stages - 1) < 4.0 / tol:
        n_stages += 1
    first_alpha = np.ones(B)

    # infeasible trial points divide by zero pivots; their phi is -inf anyway
    with np.errstate(divide="ignore", invalid="ignore"):
        for stage in range(n_stages):
            if stage:
                t_new = t_target if stage == n_stages - 1 else t * _T_FACTOR
                # the 1/t predictor: the Newton step from the old centre is
                # (t_new - t) dlambda/dt, so its first trial is scaled by t/t_new
                first_alpha = t / t_new
                t = t_new
            # the rows still centering; finished rows are written back and dropped
            idx = np.flatnonzero(live)
            lam_a, cbar_a, t_a = lam[idx], cbar[idx], t[idx]
            phi0, f = _barrier(maps, lam_a, t_a, cbar_a)
            evals[idx] += 1
            for it in range(_MAX_NEWTON):
                grad, H = _newton_system(maps, lam_a, t_a, cbar_a, f)
                step = _newton_step(H, grad)
                dec2 = np.einsum("bi,bi->b", grad, step)
                going = dec2 / 2.0 > _NEWTON_EPS
                if not going.all():
                    # a singular Newton system gives a NaN decrement: the row
                    # stays where it is and counts as stalled
                    stalled[idx[~np.isfinite(dec2)]] = True
                    iters[idx[~going]] += it + 1
                    lam[idx] = lam_a
                    idx = idx[going]
                    if not idx.size:
                        break
                    lam_a, cbar_a, t_a, phi0 = lam_a[going], cbar_a[going], t_a[going], phi0[going]
                    step, dec2 = step[going], dec2[going]
                # Armijo backtracking; phi of the accepted trial is the next phi0
                alpha = first_alpha[idx] if it == 0 else np.ones(len(idx))
                slope = 0.25 * dec2
                trials = np.ones(len(idx), dtype=int)
                for _ in range(50):
                    trial = lam_a + alpha[:, None] * step
                    phi_trial, f = _barrier(maps, trial, t_a, cbar_a)
                    need = ~(phi_trial >= phi0 + alpha * slope) & (alpha > _MIN_STEP)
                    if not need.any():
                        break
                    alpha = np.where(need, 0.5 * alpha, alpha)
                    trials += need
                evals[idx] += trials
                accepted = alpha > _MIN_STEP
                # near the noise floor the computed decrement plateaus while the
                # objective stops moving; treat stalled improvement as centered
                going = accepted & (phi_trial - phi0 > 1.0e-12 * (1.0 + np.abs(phi0)))
                if going.all():
                    lam_a, phi0 = trial, phi_trial
                    continue
                iters[idx[~going]] += it + 1
                lam[idx] = np.where(accepted[:, None], trial, lam_a)
                idx = idx[going]
                if not idx.size:
                    break
                lam_a, cbar_a, t_a = trial[going], cbar_a[going], t_a[going]
                phi0, f = phi_trial[going], tuple(x[going] for x in f)
            else:
                iters[idx] += _MAX_NEWTON
                stalled[idx] = True
                lam[idx] = lam_a
    t_final = t

    R = np.einsum("bi,ixy->bxy", lam, D)
    jbar = np.einsum("bi,bi->b", cbar, lam)
    out["R"] = R
    out["J_d"] = np.where(live, (8.0 * np.pi / MU0) * unorm * jbar, 0.0)
    out["sigma_max"] = np.where(live, np.linalg.svd(R, compute_uv=False)[..., 0], 0.0)
    out["kkt"] = np.where(live, _BARRIER_NU / (t_final * np.maximum(jbar, 1e-300)), 0.0)
    return out


def solve_dual(problem, tol=DEFAULT_TOL):
    """Certified solve of one dual instance.

    Raises SolverError (carrying the best iterate) when a barrier stage stalls
    or the barrier path fails to reach the requested relative optimality;
    u = 0 short-circuits to the exact certificate lambda = 0.
    """
    res = solve_dual_batch(problem.Q.Q, problem.u.as_vector()[None, :], tol=tol)
    cert = DualCertificate(
        lambda_=res["lambda_"][0],
        R_lambda=res["R"][0],
        J_d=float(res["J_d"][0]),
        sigma_max=float(res["sigma_max"][0]),
        kkt_residual=float(res["kkt"][0]),
    )
    if res["stalled"][0]:
        raise SolverError(
            f"dual solve stalled: a barrier stage ran out of its {_MAX_NEWTON} Newton"
            " iterations or met a singular Newton system",
            best=cert,
        )
    if problem.u.norm > 0.0 and cert.kkt_residual > tol:
        raise SolverError(
            f"dual solve stalled at relative gap {cert.kkt_residual:.3e} > {tol:.3e}",
            best=cert,
        )
    return cert
