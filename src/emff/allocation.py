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

import math
from dataclasses import dataclass

import numpy as np

from .dual import DEFAULT_TOL, SolverError, solve_dual, unvec_columns
from .magnetics import (
    MU0,
    DipoleWaveform,
    Wrench,
    _los_frame,
    _validate_vec3,
    interaction_operator,
    psi_stack,
)


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
    treats u as already expressed line-of-sight.  u is a Wrench or a
    (6,) vector (force, torque).

    psi_stack(d) is psi_stack(1) with its force rows divided by d^4 and its
    torque rows by d^3, so the line-of-sight command (f, tau) at separation
    d = |r| is solved as the folded row (d^4 f, d^3 tau) against
    psi_stack(1), whose primal point X is the same; a command below 1/4 is
    first scaled up exactly by a power of four, so that even a subnormal one
    folds to a normal row.  Raises SolverError, carrying the certificate
    of the row solved where one exists, if the folded row overflows, if the
    dual solve stalls (its measured gap is not within dual.DEFAULT_TOL, even
    after all its Newton systems) or its certificate is not finite, if the
    waveforms reproduce u only to a relative residual above 1e-6 (the
    certificate is not optimal or its optimum has rank three), or if their
    gap (J_p - J_d) / J_d exceeds dual.DEFAULT_TOL.
    """
    if frame not in ("world", "los"):
        raise ValueError("frame must be 'world' or 'los'")
    r = _validate_vec3(r, "r")
    C = _los_frame(r, _validate_vec3(hint, "hint"))
    u = u.as_vector() if isinstance(u, Wrench) else np.asarray(u, dtype=float)
    if u.shape != (6,) or not np.isfinite(u).all():
        raise ValueError(f"u must be a finite wrench vector of shape (6,), got {u!r}")
    if not u.any():
        return _zero_solution(omega)
    # u scaled up exactly by 4^-k, k <= 0, so that a tiny command folds to a normal
    # row; costs and residual scale back by 4^k and waveforms by 2^k
    k = min(0, -(int(np.frexp(np.abs(u).max())[1]) // -2))
    u = np.ldexp(u, -2 * k)
    F = C if frame == "world" else np.eye(3)
    # force and torque rows in the line-of-sight frame, then folded onto psi_stack(1)
    u_los = u.reshape(2, 3) @ F
    d = np.sqrt(r @ r)
    fold = np.array([[d**4], [d**3]])
    with np.errstate(over="ignore"):
        row = (u_los * fold).ravel()
    if not np.isfinite(row).all():
        raise SolverError(f"folded command (d^4 f, d^3 tau) at separation {d:.3e} m overflows:"
                          " its cost is past the double range")
    Q = psi_stack(1.0)
    cert = solve_dual(Q, row)
    wf_j, wf_k = extract_waveforms(F @ cert.X @ F.T, omega)
    # s_k s_j^T + c_k c_j^T in the LOS frame: its row-major vec is kron(s_k, s_j) + kron(c_k, c_j)
    M = F.T @ np.array([wf_k.s, wf_k.c]).T @ np.array([wf_j.s, wf_j.c]) @ F
    residual = (MU0 / (8.0 * np.pi) * Q @ M.ravel()).reshape(2, 3) / fold - u_los
    # both norms taken in units of the largest command entry, so neither underflows
    size = np.abs(u_los).max()
    relative = np.linalg.norm(residual / size) / np.linalg.norm(u_los / size)
    if relative > 1.0e-6:
        raise SolverError(f"waveforms reproduce the command only to {relative:.3e}", best=cert)
    J_p = 0.5 * (wf_j.amplitude_squared + wf_k.amplitude_squared)
    # u != 0, so a certified J_d is positive: J_d >= (1 - DEFAULT_TOL) J_p
    gap = (J_p - cert.J_d) / cert.J_d
    if gap > DEFAULT_TOL:
        raise SolverError(f"allocation gap {gap:.3e} exceeds {DEFAULT_TOL:.0e}", best=cert)
    if k:
        wf_j, wf_k = (DipoleWaveform(np.ldexp(wf.s, k), np.ldexp(wf.c, k), omega) for wf in (wf_j, wf_k))
    return AllocationSolution(
        dipole_j=wf_j,
        dipole_k=wf_k,
        J_p=math.ldexp(J_p, 2 * k),
        J_d=math.ldexp(cert.J_d, 2 * k),
        gap=gap,
        wrench_residual=np.ldexp((residual @ F.T).ravel(), 2 * k),
    )


#: Newton steps a restart may take in either stage of brute_force_allocate.
MAX_NEWTON_STEPS = 100

#: Halvings of a restart's step length before its line search gives up.
_MAX_HALVINGS = 30

#: Wrench residual, relative to |u|, at which feasibility Gauss-Newton stops
#: and which a manifold step must keep after its retraction.
_FEAS_TOL = 1.0e-12

#: Floor on |eigenvalue| of the reduced Hessian (amplitudes in units of the
#: scale guess, where the cost Hessian is the identity).
_CURVATURE_FLOOR = 1.0e-3

#: Predicted decrease, relative to the cost, below which no step can lower
#: the cost measurably in double precision.
_ROUNDING = 4.0 * np.finfo(float).eps

#: Smallest normal double: keeps a zero Jacobian's normal matrix invertible.
_TINY = np.finfo(float).tiny


def _residuals(H, u, X):
    """Wrench residuals (r, 6) and Jacobians (r, 6, 12) of amplitude rows X.  Here and
    below each product is a stack of per-row products: no row depends on the batch."""
    J = (X[:, None, :] @ H.reshape(72, 12).T).reshape(-1, 6, 12)
    return 0.5 * (J @ X[:, :, None])[:, :, 0] - u, J


def _normal_solve(J, v):
    """(J_r J_r^T + damping)^-1 v_r, with a damping at rounding level, so a
    rank-deficient J_r is solved as well."""
    JJ = J @ J.mT
    diagonal = JJ.reshape(-1, 36)[:, ::7]  # a view: the damping lands in JJ
    diagonal += 1.0e-14 * diagonal.sum(axis=1, keepdims=True) + _TINY
    return np.linalg.solve(JJ, v[:, :, None])[:, :, 0]


def _least_norm(J, h):
    """Least-norm solutions of J_r d_r = h_r, from the damped normal equations."""
    return (_normal_solve(J, h)[:, None, :] @ J)[:, 0]


def _tangent_basis(J):
    """Orthonormal N_r (12x6) with J_r N_r = 0 at any rank, from a complete QR of J_r^T."""
    return np.linalg.qr(J.mT, mode="complete")[0][:, :, 6:]


def _retract(H, u, X):
    """Four least-norm Gauss-Newton steps onto the constraints: rows, residuals, Jacobians."""
    h, J = _residuals(H, u, X)
    for _ in range(4):
        X = X - _least_norm(J, h)
        h, J = _residuals(H, u, X)
    return X, h, J


def _line_search(step, count):
    """Per-row backtracking over step lengths 1, 1/2, 1/4, ...: step(rows, a) gives
    the candidates of `rows` at step length a, as (points, residuals, Jacobians), and
    which of them pass.  A row stops at its first passing candidate.  Returns the
    candidates and the rows that passed within _MAX_HALVINGS halvings."""
    rows, found, out = np.arange(count), np.zeros(count, dtype=bool), None
    for k in range(_MAX_HALVINGS):
        cand, ok = step(rows, 0.5**k)
        if out is None:
            out = cand  # the first trial covers every row
        else:
            for kept, new in zip(out, cand):
                kept[rows[ok]] = new[ok]
        found[rows[ok]] = True
        rows = rows[~ok]
        if rows.size == 0:
            break
    return out, found


def _feasible_points(H, u, X):
    """Damped least-norm Gauss-Newton from each row of X onto x^T H_i x / 2 = u_i,
    backtracking on the residual norm, until the residual reaches _FEAS_TOL or the
    line search fails.  Returns the rows with their residuals and Jacobians."""
    h, J = _residuals(H, u, X)
    X = X.copy()
    rows = np.arange(len(X))
    for _ in range(MAX_NEWTON_STEPS):
        size = np.linalg.norm(h[rows], axis=1)
        rows, size = rows[size > _FEAS_TOL], size[size > _FEAS_TOL]
        if rows.size == 0:
            break
        x, d = X[rows], -_least_norm(J[rows], h[rows])

        def step(sub, a):
            cand = x[sub] + a * d[sub]
            h_c, J_c = _residuals(H, u, cand)
            return (cand, h_c, J_c), np.linalg.norm(h_c, axis=1) <= (1.0 - 1.0e-4 * a) * size[sub]

        (new, h_new, J_new), found = _line_search(step, rows.size)
        rows = rows[found]
        X[rows], h[rows], J[rows] = new[found], h_new[found], J_new[found]
    return X, h, J


def _manifold_minima(H, u, X):
    """Local minima of |x|^2/2 on {x : x^T H_i x / 2 = u_i} from each row of X.

    H and u are normalized (|u| = 1, amplitudes in units of the scale guess).
    After _feasible_points, each feasible row takes Newton steps in null-space
    coordinates (Nocedal & Wright, Numerical Optimization, 2nd ed., 15.2 and
    18.1): N from _tangent_basis, y from J J^T y = -J x, and the exact reduced
    Hessian N^T (I + sum_i y_i H_i) N, its eigenvalues entering as |lambda|
    floored at _CURVATURE_FLOOR.  A step p = N q of length a is retracted by
    Gauss-Newton from the second-order-corrected point x + a p + a^2 delta,
    delta = -J^+ (p^T H_i p / 2) (ibid., ch. 15): the wrench is quadratic, so
    the residual there is a^3 p^T H_i delta + a^4 delta^T H_i delta / 2, not
    the a^2 p^T H_i p / 2 of x + a p.  The step is accepted by an Armijo test
    on the cost.  A row stops when the predicted decrease is below the
    rounding of its cost and no eigenvalue is below -_CURVATURE_FLOOR
    (otherwise it steps along that eigenvector), or when its line search
    fails.  Returns the rows and their step counts.
    """
    X, h, J = _feasible_points(H, u, X)
    steps = np.zeros(len(X), dtype=int)
    rows = np.flatnonzero(np.linalg.norm(h, axis=1) <= _FEAS_TOL)
    for _ in range(MAX_NEWTON_STEPS):
        if rows.size == 0:
            break
        x, Jx = X[rows], J[rows]
        N = _tangent_basis(Jx)
        y = -_normal_solve(Jx, (Jx @ x[:, :, None])[:, :, 0])
        B = N.mT @ (y[:, None, :] @ H.reshape(6, 144)).reshape(-1, 12, 12) @ N
        B.reshape(-1, 36)[:, ::7] += 1.0  # the cost's identity Hessian, N^T N = I
        lam, V = np.linalg.eigh(B)
        g = (x[:, None, :] @ N)[:, 0]
        curvature = np.maximum(np.abs(lam), _CURVATURE_FLOOR)
        q = -(V @ ((g[:, None, :] @ V)[:, 0] / curvature)[:, :, None])[:, :, 0]
        cost = 0.5 * np.vecdot(x, x)
        decrease = -np.vecdot(g, q)
        flat = decrease <= _ROUNDING * cost
        # at a stationary point that is not a minimum, step along the most
        # negative curvature; the model decrease then grows with alpha^2
        escape = flat & (lam[:, 0] < -_CURVATURE_FLOOR)
        reach = np.sqrt(2.0 * cost[escape])
        q[escape] = V[escape, :, 0] * reach[:, None]
        decrease[escape] = -0.5 * lam[escape, 0] * reach**2
        p = (N @ q[:, :, None])[:, :, 0]
        moving = np.flatnonzero(~flat | escape)
        if moving.size == 0:
            break
        # one correction per row serves every trial length a, scaled by a^2
        delta = -_least_norm(Jx[moving], _residuals(H, 0.0, p[moving])[0])

        def step(sub, a):
            r = moving[sub]
            cand = _retract(H, u, x[r] + a * p[r] + (a * a) * delta[sub])
            power = np.where(escape[r], a * a, a)
            return cand, (np.linalg.norm(cand[1], axis=1) <= _FEAS_TOL) & (
                0.5 * np.vecdot(cand[0], cand[0]) <= cost[r] - 1.0e-4 * power * decrease[r]
            )

        (new, _, J_new), found = _line_search(step, moving.size)
        rows = rows[moving[found]]
        X[rows], J[rows] = new[found], J_new[found]
        steps[rows] += 1
    return X, steps


def brute_force_allocate(r, hint, u, restarts=20, seed=0, omega=1.0):
    """Global-optimality oracle: Newton on the constraint manifold from random starts.

    Minimizes the total squared amplitude over the raw 12 variables subject to
    the six wrench equalities, all restarts as one batch.  Each start (seeded
    normal draws) is taken onto the constraint set by damped least-norm
    Gauss-Newton, then by Newton steps in null-space coordinates on the
    manifold (_manifold_minima).  Uses nothing from the dual/recovery path;
    returns the best restart feasible to 1e-6 |u|, with norms taken after a
    power-of-two scaling so that no tiny u underflows, and raises SolverError
    when no restart is.
    """
    if restarts < 20:
        raise ValueError("restarts must be >= 20")
    Q = interaction_operator(r, hint)
    u = u if isinstance(u, Wrench) else Wrench.from_vector(np.asarray(u, dtype=float))
    u_vec = u.as_vector()
    if not u_vec.any():
        return _zero_solution(omega)
    e = np.frexp(np.abs(u_vec).max())[1]
    size = np.linalg.norm(np.ldexp(u_vec, -e))
    u_norm = np.ldexp(size, e)
    H = _wrench_hessians(Q)
    # amplitude scale guess from the wrench magnitude and operator scale
    m_scale = np.sqrt(u_norm / (MU0 / (8.0 * np.pi) * np.linalg.norm(Q)))
    starts = np.random.default_rng(seed).standard_normal((restarts, 12))
    X, _ = _manifold_minima(H * (m_scale**2 / u_norm), u_vec / u_norm, starts)
    M = m_scale * X
    h = _residuals(H, u_vec, M)[0]
    feasible = np.flatnonzero(np.linalg.norm(np.ldexp(h, -e), axis=1) <= 1.0e-6 * size)
    if feasible.size == 0:
        raise SolverError(f"no feasible allocation after {restarts} restarts (||u|| = {u_norm:.3e})")
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
