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
(factor 10) until the barrier duality gap 6/t falls below the requested
relative tolerance.  Everything is vectorized over a batch axis so sweeps
over time grids and satellite pairs amortize to dense 3x3/6x6 work.  A batch
shares one 6x9 operator, so the Gram matrix and the operator products in the
Hessian are computed once per batch.  Each row keeps its own 6x6 solves, so
its result is bit-for-bit independent of the batch it is solved in.
"""

from dataclasses import dataclass

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


class SolverError(RuntimeError):
    """Newton centering failed to converge; carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class DualProblem:
    """Dual instance: interaction operator, commanded wrench, objective scale."""

    Q: InteractionOperator
    u: Wrench
    scale: float = 8.0 * np.pi / MU0

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


def _det3(M):
    """Determinants of a (..., 3, 3) stack, closed form."""
    return (
        M[..., 0, 0] * (M[..., 1, 1] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 1])
        - M[..., 0, 1] * (M[..., 1, 0] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 0])
        + M[..., 0, 2] * (M[..., 1, 0] * M[..., 2, 1] - M[..., 1, 1] * M[..., 2, 0])
    )


def _pd_logdet(M):
    """(is positive definite, log det) per batch element via leading minors."""
    m1 = M[..., 0, 0]
    m2 = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    m3 = _det3(M)
    ok = (m1 > 0.0) & (m2 > 0.0) & (m3 > 0.0)
    logdet = np.where(ok, np.log(np.where(ok, m3, 1.0)), -np.inf)
    return ok, logdet


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
    dict with lambda_ (B,6), R (B,3,3), J_d (B,), sigma_max (B,), kkt (B,).
    """
    if not 0.0 < tol <= 1.0e-3:
        raise ValueError("tol must lie in (0, 1e-3]")
    u = np.atleast_2d(np.asarray(u, dtype=float))
    B = u.shape[0]
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (6, 9):
        raise ValueError(f"Q must be one shared 6x9 operator, got shape {Q.shape}")
    D = unvec_columns(Q)

    unorm = np.linalg.norm(u, axis=1)
    live = unorm > 0.0
    lam = np.zeros((B, 6))
    out = {
        "lambda_": lam,
        "R": np.zeros((B, 3, 3)),
        "J_d": np.zeros(B),
        "sigma_max": np.zeros(B),
        "kkt": np.zeros(B),
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
    n_stages = int(np.ceil(np.log10(4.0 / tol))) + 1

    eye = np.eye(3)
    TT = np.einsum("iyx,jyz->ijxz", D, D)
    Tsym = TT + TT.transpose(1, 0, 2, 3)

    def phi(lam_, t_):
        R_ = np.einsum("bi,ixy->bxy", lam_, D)
        M_ = eye - R_.swapaxes(-1, -2) @ R_
        ok, logdet = _pd_logdet(M_)
        val = t_ * np.einsum("bi,bi->b", cbar, lam_) + logdet
        return np.where(ok, val, -np.inf)

    for stage in range(n_stages):
        active = live.copy()
        for _ in range(_MAX_NEWTON):
            if not active.any():
                break
            R = np.einsum("bi,ixy->bxy", lam, D)
            Rt = R.swapaxes(-1, -2)
            M = eye - Rt @ R
            Minv = np.linalg.inv(M)
            W = Minv @ Rt
            grad = t[:, None] * cbar - 2.0 * np.einsum("bxy,iyx->bi", W, D)
            S = D.swapaxes(-1, -2) @ R[:, None] + Rt[:, None] @ D
            MinvS = Minv[:, None] @ S
            H1 = np.einsum("bjxy,biyx->bij", MinvS, MinvS)
            H2 = np.einsum("bxy,ijyx->bij", Minv, Tsym)
            step = np.linalg.solve(H1 + H2, grad[..., None])[..., 0]
            dec2 = np.einsum("bi,bi->b", grad, step)
            active &= dec2 / 2.0 > _NEWTON_EPS
            if not active.any():
                break
            alpha = np.where(active, 1.0, 0.0)
            phi0 = phi(lam, t)
            phi_trial = phi0
            for _ in range(50):
                trial = lam + alpha[:, None] * step
                phi_trial = phi(trial, t)
                ok = phi_trial >= phi0 + 0.25 * alpha * dec2
                need = active & ~ok & (alpha > _MIN_STEP)
                if not need.any():
                    break
                alpha = np.where(need, 0.5 * alpha, alpha)
            accepted = active & (alpha > _MIN_STEP)
            lam = np.where(accepted[:, None], lam + alpha[:, None] * step, lam)
            # near the noise floor the computed decrement plateaus while the
            # objective stops moving; treat stalled improvement as centered
            improved = phi_trial - phi0 > 1.0e-12 * (1.0 + np.abs(phi0))
            active &= accepted & improved
        t = np.minimum(t * 10.0, t_target)
    t_final = t

    R = np.einsum("bi,ixy->bxy", lam, D)
    jbar = np.einsum("bi,bi->b", cbar, lam)
    out["lambda_"] = lam
    out["R"] = R
    out["J_d"] = np.where(live, (8.0 * np.pi / MU0) * unorm * jbar, 0.0)
    out["sigma_max"] = np.where(live, np.linalg.svd(R, compute_uv=False)[..., 0], 0.0)
    out["kkt"] = np.where(live, _BARRIER_NU / (t_final * np.maximum(jbar, 1e-300)), 0.0)
    return out


def solve_dual(problem, tol=DEFAULT_TOL):
    """Certified solve of one dual instance.

    Raises SolverError (carrying the best iterate) when the barrier path fails
    to reach the requested relative optimality; u = 0 short-circuits to the
    exact certificate lambda = 0.
    """
    res = solve_dual_batch(problem.Q.Q, problem.u.as_vector()[None, :], tol=tol)
    cert = DualCertificate(
        lambda_=res["lambda_"][0],
        R_lambda=res["R"][0],
        J_d=float(res["J_d"][0]),
        sigma_max=float(res["sigma_max"][0]),
        kkt_residual=float(res["kkt"][0]),
    )
    if problem.u.norm > 0.0 and cert.kkt_residual > tol:
        raise SolverError(
            f"dual solve stalled at relative gap {cert.kkt_residual:.3e} > {tol:.3e}",
            best=cert,
        )
    return cert
