"""Globally optimal dipole allocation for a two-coil pair.

Pipeline: solve the convex dual together with its nuclear-norm primal (at
dual.DEFAULT_TOL), then read both coils' waveforms off the primal point
X' = s_j s_k^T + c_j c_k^T from its two leading singular triplets.  The
optimum has rank two or less, so the truncation drops only a rounding-level
third singular value and the commanded wrench needs no correction step; the
waveforms' own wrench residual is checked all the same.  Strong duality makes
the construction tight: the primal cost equals the dual bound, which the
returned solution certifies explicitly.

brute_force_allocate checks that claim from outside the dual: a batched
multistart Newton search on the constraint manifold, which uses only the
wrench model.
"""

from dataclasses import dataclass

import numpy as np

from .dual import DualProblem, solve_dual, unvec_columns
from .magnetics import (
    MU0,
    DipoleWaveform,
    InteractionOperator,
    Wrench,
    _validate_vec3,
    build_los_frame,
    interaction_operator,
    psi_stack,
)

#: Relative-gap ceiling certified by allocate().
GAP_TOL = 1.0e-6


class RecoveryError(RuntimeError):
    """Primal recovery failed: the waveforms do not reproduce the command."""


class GapViolationError(RuntimeError):
    """The tight-duality construction produced a gap above tolerance."""


class NoFeasiblePointError(RuntimeError):
    """Brute-force search found no feasible allocation in any restart."""


@dataclass(frozen=True, slots=True)
class AllocationSolution:
    """Certified allocation: waveforms, primal/dual costs, gap, wrench residual."""

    dipole_j: DipoleWaveform
    dipole_k: DipoleWaveform
    J_p: float
    J_d: float
    gap: float
    wrench_residual: np.ndarray


def extract_waveforms(X, omega):
    """Waveforms of both coils read off a primal point X by one SVD.

    With X' = -(8 pi/mu0) X = A S B^T, s_j, c_j = sqrt(S_1) a_1, sqrt(S_2) a_2
    and s_k, c_k = sqrt(S_1) b_1, sqrt(S_2) b_2 give X' = s_j s_k^T + c_j c_k^T
    up to S_3 at the least cost |X'|_* (Recht, Fazel & Parrilo 2010, Lemma 5.1).
    """
    A, S, Bt = np.linalg.svd(-(8.0 * np.pi / MU0) * np.asarray(X, dtype=float))
    r1, r2 = np.sqrt(S[:2])
    return (
        DipoleWaveform(s=A[:, 0] * r1, c=A[:, 1] * r2, omega=omega),
        DipoleWaveform(s=Bt[0] * r1, c=Bt[1] * r2, omega=omega),
    )


# perfbench/tracing.py patches recover_gram here; allocate does not call it
recover_gram = extract_waveforms


def _wrench_hessians(Q):
    """Constant Hessians H (6x12x12) of the averaged wrench in the amplitudes
    m = [s_j, s_k, c_j, c_k]: the wrench is bilinear, so wrench_i = m^T H_i m / 2
    and its 6x12 Jacobian is H m."""
    D = MU0 / (8.0 * np.pi) * unvec_columns(Q)
    H = np.zeros((6, 12, 12))
    for j, k in ((0, 3), (6, 9)):
        H[:, j:j + 3, k:k + 3] = D
        H[:, k:k + 3, j:j + 3] = D.transpose(0, 2, 1)
    return H


def _zero_solution(omega):
    zero = DipoleWaveform(s=np.zeros(3), c=np.zeros(3), omega=omega)
    return AllocationSolution(
        dipole_j=zero, dipole_k=zero, J_p=0.0, J_d=0.0, gap=0.0,
        wrench_residual=np.zeros(6),
    )


def allocate(r, hint, u, omega, frame="world"):
    """Globally optimal allocation reproducing the commanded wrench u.

    r points from coil k to coil j; hint orients the line-of-sight frame
    (any vector not parallel to r).  With frame="world" both r and u are in
    the same world frame and the returned waveforms are too; frame="los"
    treats u as already expressed line-of-sight.  Raises RecoveryError if
    the waveforms reproduce u only to a relative residual above 1e-6 (the
    certificate is not optimal or its optimum has rank three), and
    GapViolationError if the gap (J_p - J_d) / J_d exceeds 1e-6.
    """
    if frame not in ("world", "los"):
        raise ValueError("frame must be 'world' or 'los'")
    r = _validate_vec3(r, "r")
    C = build_los_frame(r, hint)
    d = float(np.linalg.norm(r))
    u = u if isinstance(u, Wrench) else Wrench.from_vector(np.asarray(u, dtype=float))
    if not u.as_vector().any():
        return _zero_solution(omega)
    F = C if frame == "world" else np.eye(3)
    u_los = Wrench(F.T @ u.force, F.T @ u.torque)
    Q_los = psi_stack(d)
    op_los = InteractionOperator(Q=Q_los, separation=d, frame=np.eye(3))
    cert = solve_dual(DualProblem(Q=op_los, u=u_los))
    wf_j, wf_k = extract_waveforms(F @ cert.X @ F.T, omega)
    # s_k s_j^T + c_k c_j^T in the LOS frame: its row-major vec is kron(s_k, s_j) + kron(c_k, c_j)
    M = F.T @ np.array([wf_k.s, wf_k.c]).T @ np.array([wf_j.s, wf_j.c]) @ F
    u_vec = u_los.as_vector()
    residual = MU0 / (8.0 * np.pi) * Q_los @ M.ravel() - u_vec
    # both norms taken in units of the largest command entry, so neither underflows
    size = np.abs(u_vec).max()
    relative = np.linalg.norm(residual / size) / np.linalg.norm(u_vec / size)
    if relative > 1.0e-6:
        raise RecoveryError(f"waveforms reproduce the command only to {relative:.3e}")
    residual = (residual.reshape(2, 3) @ F.T).flatten()
    J_p = 0.5 * (wf_j.amplitude_squared + wf_k.amplitude_squared)
    # u != 0, so a certified J_d is positive: J_d >= (1 - DEFAULT_TOL) J_p
    gap = (J_p - cert.J_d) / cert.J_d
    if gap > GAP_TOL:
        raise GapViolationError(
            f"duality gap {gap:.3e} exceeds {GAP_TOL}; command not tightly realizable"
        )
    return AllocationSolution(
        dipole_j=wf_j,
        dipole_k=wf_k,
        J_p=J_p,
        J_d=cert.J_d,
        gap=gap,
        wrench_residual=residual,
    )


#: Newton steps a restart may take in either stage of brute_force_allocate.
MAX_NEWTON_STEPS = 100

#: Halvings of a restart's step length before its line search gives up.
_MAX_HALVINGS = 30

#: Wrench residual, relative to |u|, at which feasibility Gauss-Newton stops
#: and which a manifold step must keep after its retraction.
_FEAS_TOL = 1.0e-12

#: Singular values of the wrench Jacobian below this fraction of the largest
#: leave their direction tangent to the constraint set to first order.
_RANK_TOL = 1.0e-8

#: Floor on |eigenvalue| of the reduced Hessian (amplitudes in units of the
#: scale guess, where the cost Hessian is the identity).
_CURVATURE_FLOOR = 1.0e-3

#: Predicted decrease, relative to the cost, below which no step can lower
#: the cost measurably in double precision.
_ROUNDING = 4.0 * np.finfo(float).eps


def _residuals(H, u, X):
    """Wrench residuals (r, 6) and Jacobians (r, 6, 12) of amplitude rows X."""
    J = np.einsum("ipq,rq->rip", H, X)
    return 0.5 * np.einsum("rip,rp->ri", J, X) - u, J


def _least_norm(J, h):
    """Least-norm solutions of J_r d_r = h_r, from the normal equations with
    a damping at rounding level, so a rank-deficient J_r is solved as well."""
    JJ = J @ J.transpose(0, 2, 1)
    damping = 1.0e-14 * np.trace(JJ, axis1=1, axis2=2) + np.finfo(float).tiny
    JJ += damping[:, None, None] * np.eye(6)
    return np.einsum("rip,ri->rp", J, np.linalg.solve(JJ, h[..., None])[..., 0])


def _retract(H, u, X):
    """Four least-norm Gauss-Newton steps from each row back onto the constraints."""
    for _ in range(4):
        h, J = _residuals(H, u, X)
        X = X - _least_norm(J, h)
    return X


def _line_search(trial, accept, count):
    """Per-row backtracking over step lengths 1, 1/2, 1/4, ...: trial(rows, a)
    gives the candidates of `rows` at step length a, accept(rows, cand, a)
    which of them pass.  A row stops at its first passing candidate, so its
    outcome does not depend on the other rows.  Returns the accepted
    candidates and the rows that found one within _MAX_HALVINGS halvings."""
    found = np.zeros(count, dtype=bool)
    out = np.zeros((count, 12))
    for k in range(_MAX_HALVINGS):
        rows = np.flatnonzero(~found)
        if rows.size == 0:
            break
        cand = trial(rows, 0.5**k)
        ok = accept(rows, cand, 0.5**k)
        out[rows[ok]] = cand[ok]
        found[rows[ok]] = True
    return out, found


def _feasible_points(H, u, X):
    """Damped least-norm Gauss-Newton from each row of X onto the constraints
    x^T H_i x / 2 = u_i, backtracking on the residual norm.  A row stops when
    its residual reaches _FEAS_TOL or its line search fails."""
    X = X.copy()
    active = np.ones(len(X), dtype=bool)
    for _ in range(MAX_NEWTON_STEPS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        x = X[idx]
        h, J = _residuals(H, u, x)
        size = np.linalg.norm(h, axis=1)
        d = -_least_norm(J, h)
        moving = np.flatnonzero(size > _FEAS_TOL)
        new, found = _line_search(
            lambda rows, a: x[moving[rows]] + a * d[moving[rows]],
            lambda rows, c, a: np.linalg.norm(_residuals(H, u, c)[0], axis=1)
            <= (1.0 - 1.0e-4 * a) * size[moving[rows]],
            moving.size,
        )
        X[idx[moving[found]]] = new[found]
        active[idx] = False
        active[idx[moving[found]]] = True
    return X


def _manifold_minima(H, u, X):
    """Local minima of |x|^2/2 on {x : x^T H_i x / 2 = u_i} from each row of X.

    H and u are normalized (|u| = 1, amplitudes in units of the scale guess).
    After _feasible_points, each feasible row takes Newton steps on the
    manifold: the tangent basis is the right singular vectors of the Jacobian
    J beyond its numerical rank (_RANK_TOL), the multipliers y solve
    J^T y = -x in least squares, and the reduced Hessian of the Lagrangian
    I + sum_i y_i H_i is exact.  Its eigenvalues enter as |lambda| floored at
    _CURVATURE_FLOOR; the drive-phase symmetry gives it an exact zero.  A
    step is retracted by Gauss-Newton and accepted by an Armijo test on the
    cost.  A row stops when the predicted decrease is below the rounding of
    its cost and the reduced Hessian has no eigenvalue below
    -_CURVATURE_FLOOR (otherwise it steps along that eigenvector), or when
    its line search fails.  Rows never share a step length, mask or stopping
    test.  Returns the final rows and each row's count of manifold steps.
    """
    X = _feasible_points(H, u, X)
    steps = np.zeros(len(X), dtype=int)
    active = np.linalg.norm(_residuals(H, u, X)[0], axis=1) <= _FEAS_TOL
    eye = np.eye(12)
    for _ in range(MAX_NEWTON_STEPS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        x = X[idx]
        _, J = _residuals(H, u, x)
        U, S, Vt = np.linalg.svd(J)
        normal = S > _RANK_TOL * S[:, :1]
        tangent = np.concatenate([~normal, np.ones_like(normal)], axis=1)
        coords = np.einsum("rkp,rp->rk", Vt, x)
        y = -np.einsum("rij,rj->ri", U, np.where(normal, coords[:, :6] / np.where(normal, S, 1.0), 0))
        g = np.where(tangent, coords, 0.0)
        B = Vt @ (eye + np.einsum("ri,ipq->rpq", y, H)) @ Vt.transpose(0, 2, 1)
        lam, V = np.linalg.eigh(np.where(tangent[:, :, None] & tangent[:, None, :], B, eye))
        curvature = np.maximum(np.abs(lam), _CURVATURE_FLOOR)
        q = -np.einsum("rkl,rl->rk", V, np.einsum("rlk,rl->rk", V, g) / curvature)
        cost = 0.5 * np.einsum("rp,rp->r", x, x)
        decrease = -np.einsum("rk,rk->r", g, q)
        flat = decrease <= _ROUNDING * cost
        # at a stationary point that is not a minimum, step along the most
        # negative curvature; the model decrease then grows with alpha^2
        escape = flat & (lam[:, 0] < -_CURVATURE_FLOOR)
        reach = np.sqrt(2.0 * cost[escape])
        q[escape] = V[escape, :, 0] * reach[:, None]
        decrease[escape] = -0.5 * lam[escape, 0] * reach**2
        p = np.einsum("rkp,rk->rp", Vt, q)
        moving = np.flatnonzero(~flat | escape)

        def accept(rows, cand, a):
            r = moving[rows]
            power = np.where(escape[r], a * a, a)
            return (np.linalg.norm(_residuals(H, u, cand)[0], axis=1) <= _FEAS_TOL) & (
                0.5 * np.einsum("rp,rp->r", cand, cand) <= cost[r] - 1.0e-4 * power * decrease[r]
            )

        new, found = _line_search(
            lambda rows, a: _retract(H, u, x[moving[rows]] + a * p[moving[rows]]),
            accept,
            moving.size,
        )
        X[idx[moving[found]]] = new[found]
        steps[idx[moving[found]]] += 1
        active[idx] = False
        active[idx[moving[found]]] = True
    return X, steps


def brute_force_allocate(r, hint, u, restarts=20, seed=0, omega=1.0):
    """Global-optimality oracle: Newton on the constraint manifold from random starts.

    Minimizes the total squared amplitude over the raw 12 variables subject to
    the six wrench equalities, all restarts as one batch.  Each start (seeded
    normal draws) is first taken onto the constraint set by damped least-norm
    Gauss-Newton steps, then moved by Newton steps on the manifold: reduced
    Hessian of the Lagrangian, exact because the wrench is bilinear, with
    |eigenvalue| modification, a Gauss-Newton retraction and an Armijo test on
    the cost.  Uses nothing from the dual/recovery path; returns the best
    restart feasible to 1e-6 |u|.
    """
    if restarts < 20:
        raise ValueError("restarts must be >= 20")
    op = interaction_operator(r, hint)
    u = u if isinstance(u, Wrench) else Wrench.from_vector(np.asarray(u, dtype=float))
    u_vec = u.as_vector()
    u_norm = np.linalg.norm(u_vec)
    if u_norm == 0.0:
        return _zero_solution(omega)
    H = _wrench_hessians(op.Q)
    # amplitude scale guess from the wrench magnitude and operator scale
    m_scale = np.sqrt(u_norm / (MU0 / (8.0 * np.pi) * np.linalg.norm(op.Q)))
    starts = np.random.default_rng(seed).standard_normal((restarts, 12))
    X, _ = _manifold_minima(H * (m_scale**2 / u_norm), u_vec / u_norm, starts)
    M = m_scale * X
    h = 0.5 * np.einsum("rp,ipq,rq->ri", M, H, M) - u_vec
    feasible = np.flatnonzero(np.linalg.norm(h, axis=1) <= 1.0e-6 * u_norm)
    if feasible.size == 0:
        raise NoFeasiblePointError(
            f"no feasible allocation after {restarts} restarts (||u|| = {u_norm:.3e})"
        )
    cost = 0.5 * np.einsum("rp,rp->r", M, M)
    best = feasible[np.argmin(cost[feasible])]
    # copies, so the solution does not keep every restart's arrays alive
    m, residual = M[best].copy(), h[best].copy()
    return AllocationSolution(
        dipole_j=DipoleWaveform(s=m[0:3], c=m[6:9], omega=omega),
        dipole_k=DipoleWaveform(s=m[3:6], c=m[9:12], omega=omega),
        J_p=float(cost[best]),
        J_d=float("nan"),
        gap=float("nan"),
        wrench_residual=residual,
    )
