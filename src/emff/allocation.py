"""Globally optimal dipole allocation for a two-coil pair.

Pipeline: solve the convex dual together with its nuclear-norm primal (at
dual.DEFAULT_TOL), read the rank-<=2 Gram matrix G = s_j s_j^T + c_j c_j^T of
the driven coil off the primal point X' = s_j s_k^T + c_j c_k^T (its two
leading singular triplets), factor G into sine/cosine amplitude vectors, and
mirror them onto the partner coil via [s_k, c_k] = -R^T [s_j, c_j].  The
optimum has rank two or less, so the truncation drops only a rounding-level
third singular value and the commanded wrench needs no correction step.
Strong duality makes the construction tight: the primal cost equals the dual
bound, which the returned solution certifies explicitly.

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

#: Floor used in relative-gap computation for near-zero commands.
GAP_FLOOR = 1.0e-12

#: Eigenvalues of G below -1e-9 (relative to its trace) are treated as errors.
PSD_CLIP = 1.0e-9


class RecoveryError(RuntimeError):
    """Primal recovery failed: the lift does not reproduce the command."""


class GapViolationError(RuntimeError):
    """The tight-duality construction produced a gap above tolerance."""


class NoFeasiblePointError(RuntimeError):
    """Brute-force search found no feasible allocation in any restart."""


@dataclass(frozen=True)
class GramLift:
    """PSD lift G = s s^T + c c^T of one coil's amplitudes (A^2*m^4).

    Diagonal entries are squared per-axis amplitudes; off-diagonals encode
    pairwise phase differences.  residual is the relative error of the linear
    wrench equations the lift must satisfy under the certificate's R(lambda).
    """

    G: np.ndarray
    residual: float

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        if G.shape != (3, 3) or not np.allclose(G, G.T, atol=1e-9 * (1 + abs(G).max())):
            raise ValueError("G must be symmetric 3x3")
        scale = max(np.trace(G), GAP_FLOOR)
        if np.linalg.eigvalsh(G)[0] < -PSD_CLIP * scale:
            raise ValueError("G has a negative eigenvalue beyond tolerance")


@dataclass(frozen=True)
class AllocationSolution:
    """Certified allocation: waveforms, primal/dual costs, gap, wrench residual."""

    dipole_j: DipoleWaveform
    dipole_k: DipoleWaveform
    J_p: float
    J_d: float
    gap: float
    wrench_residual: np.ndarray


def recover_gram(cert, op, u):
    """Gram lift read off the certificate's primal point.

    X' = -(8 pi/mu0) X = s_j s_k^T + c_j c_k^T, so its two leading singular
    triplets (sigma_i, a_i, b_i) give G = sum_i sigma_i a_i a_i^T.  With the
    partner mirrored as [s_k, c_k] = -R^T [s_j, c_j], the lift must satisfy
    -Q vec(G R) = (8 pi/mu0) u; raises RecoveryError when its relative
    residual under cert.R_lambda exceeds 1e-6, which shows that the
    certificate is not optimal or its optimum has rank three.
    """
    u_vec = u.as_vector()
    if np.linalg.norm(u_vec) == 0.0:
        return GramLift(G=np.zeros((3, 3)), residual=0.0)
    a, sigma, _ = np.linalg.svd(-(8.0 * np.pi / MU0) * cert.X)
    G = (a[:, :2] * sigma[:2]) @ a[:, :2].T
    rhs = (8.0 * np.pi / MU0) * u_vec
    lhs = -op.Q @ (G @ cert.R_lambda).ravel(order="F")
    residual = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
    if residual > 1.0e-6:
        raise RecoveryError(f"lift reproduces the command only to {residual:.3e}")
    return GramLift(G=G, residual=float(residual))


def extract_waveforms(lift, R, omega):
    """Factor G into waveforms: s_j, c_j from the eigenbasis, partner mirrored.

    G = w1 v1 v1^T + w2 v2 v2^T gives s_j = sqrt(w1) v1 and c_j = sqrt(w2) v2
    (overall phase fixed by putting the dominant eigendirection on the sine
    component), then [s_k, c_k] = -R^T [s_j, c_j].
    """
    G = lift.G
    w, V = np.linalg.eigh(G)
    scale = max(w.max(), 0.0, GAP_FLOOR)
    if w[0] < -PSD_CLIP * scale:
        raise ValueError(f"negative eigenvalue {w[0]:.3e} beyond clip tolerance")
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1]
    w, V = w[order], V[:, order]
    s_j = np.sqrt(w[0]) * V[:, 0]
    c_j = np.sqrt(w[1]) * V[:, 1]
    s_k = -R.T @ s_j
    c_k = -R.T @ c_j
    return (
        DipoleWaveform(s=s_j, c=c_j, omega=omega),
        DipoleWaveform(s=s_k, c=c_k, omega=omega),
    )


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
    treats u as already expressed line-of-sight.  Raises GapViolationError
    if the certified relative gap exceeds 1e-6.
    """
    if frame not in ("world", "los"):
        raise ValueError("frame must be 'world' or 'los'")
    r = _validate_vec3(r, "r")
    C = build_los_frame(r, hint)
    d = float(np.linalg.norm(r))
    u = u if isinstance(u, Wrench) else Wrench.from_vector(np.asarray(u, dtype=float))
    if u.norm == 0.0:
        return _zero_solution(omega)
    if frame == "world":
        u_los = Wrench(C.T @ u.force, C.T @ u.torque)
    else:
        u_los = u
    Q_los = psi_stack(d)
    op_los = InteractionOperator(Q=Q_los, separation=d, frame=np.eye(3))
    cert = solve_dual(DualProblem(Q=op_los, u=u_los))
    lift = recover_gram(cert, op_los, u_los)
    wf_j, wf_k = extract_waveforms(lift, cert.R_lambda, omega)
    s_j, s_k, c_j, c_k = wf_j.s, wf_k.s, wf_j.c, wf_k.c
    bilinear = np.kron(s_k, s_j) + np.kron(c_k, c_j)
    residual = MU0 / (8.0 * np.pi) * Q_los @ bilinear - u_los.as_vector()
    if frame == "world":
        s_j, s_k, c_j, c_k = C @ s_j, C @ s_k, C @ c_j, C @ c_k
        residual = np.concatenate([C @ residual[:3], C @ residual[3:]])
    J_p = 0.5 * (s_j @ s_j + s_k @ s_k + c_j @ c_j + c_k @ c_k)
    gap = (J_p - cert.J_d) / max(cert.J_d, GAP_FLOOR)
    if gap > GAP_TOL:
        raise GapViolationError(
            f"duality gap {gap:.3e} exceeds {GAP_TOL}; command not tightly realizable"
        )
    return AllocationSolution(
        dipole_j=DipoleWaveform(s=s_j, c=c_j, omega=omega),
        dipole_k=DipoleWaveform(s=s_k, c=c_k, omega=omega),
        J_p=float(J_p),
        J_d=cert.J_d,
        gap=float(gap),
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
