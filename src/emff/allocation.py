"""Globally optimal dipole allocation for a two-coil pair.

Pipeline: solve the convex dual (at dual.DEFAULT_TOL), recover the rank-<=2
Gram matrix G = s_j s_j^T + c_j c_j^T of the driven coil from the active
singular subspace of R at the dual optimum, factor G into sine/cosine
amplitude vectors, and mirror them onto the partner coil via
[s_k, c_k] = -R^T [s_j, c_j].  The barrier multiplier is only sqrt(gap)-
accurate, so one least-norm Gauss-Newton correction onto the wrench
constraints then makes the commanded wrench exact.  Strong duality makes the
construction tight: the primal cost equals the dual bound, which the returned
solution certifies explicitly.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .dual import TOL_ACTIVE, DualProblem, solve_dual, unvec_columns
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
    """Primal recovery failed: empty active subspace or inconsistent lift."""


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


def _trace_equations(R, D, G):
    """LHS of the recovery system: -tr[R D_i^T G] for each operator row."""
    return -np.einsum("xy,iyz,zx->i", R, D.transpose(0, 2, 1), G)


def recover_gram(cert, op, u):
    """Gram lift supported on the active singular subspace of R at the optimum.

    Solves the six linear trace equations for a symmetric coefficient matrix on
    the subspace (singular values within TOL_ACTIVE of 1; least squares), clips
    tiny negative eigenvalues and keeps the top two eigenpairs.  Raises
    RecoveryError when no singular value sits near 1 for a nonzero command, or
    when the lift's trace-equation residual under cert.R_lambda exceeds 1e-6,
    which shows the dual was not actually optimal.
    """
    u_vec = u.as_vector()
    u_norm = np.linalg.norm(u_vec)
    if u_norm == 0.0:
        return GramLift(G=np.zeros((3, 3)), residual=0.0)
    R = cert.R_lambda
    D = unvec_columns(op.Q)
    U, sigma, _ = np.linalg.svd(R)
    active = sigma >= 1.0 - TOL_ACTIVE
    k = int(active.sum())
    if k == 0:
        raise RecoveryError(
            f"no active singular value (max sigma = {sigma[0]:.12f}); dual not converged"
        )
    V = U[:, active]
    pairs = [(a, b) for a in range(k) for b in range(a, k)]
    A = np.zeros((6, len(pairs)))
    for i in range(6):
        Ai = -(V.T @ R @ D[i].T @ V)
        Ai = 0.5 * (Ai + Ai.T)
        for col, (a, b) in enumerate(pairs):
            A[i, col] = Ai[a, b] if a == b else 2.0 * Ai[a, b]
    rhs = (8.0 * np.pi / MU0) * u_vec
    coeffs, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    S = np.zeros((k, k))
    for col, (a, b) in enumerate(pairs):
        S[a, b] = S[b, a] = coeffs[col]
    w, P = np.linalg.eigh(S)
    scale = max(abs(w).max(), GAP_FLOOR)
    if w[0] < -PSD_CLIP * scale:
        raise RecoveryError(f"recovered lift indefinite: min eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    # top eigenpairs (at most two) give the rank-limited factor
    order = np.argsort(w)[::-1][: min(k, 2)]
    W = V @ (P[:, order] * np.sqrt(w[order]))
    G = W @ W.T
    residual = np.linalg.norm(_trace_equations(R, D, G) - rhs) / np.linalg.norm(rhs)
    if residual > 1.0e-6:
        raise RecoveryError(f"trace-equation residual {residual:.3e} too large")
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


def _wrench_of(Q, s_j, s_k, c_j, c_k):
    # outer(a, b).ravel() is kron(a, b) for vectors, without kron's overhead
    return MU0 / (8.0 * np.pi) * Q @ (np.outer(s_k, s_j).ravel() + np.outer(c_k, c_j).ravel())


def _wrench_jacobian(D, s_j, s_k, c_j, c_k):
    """6x12 Jacobian of the averaged wrench w.r.t. [s_j, s_k, c_j, c_k],
    from the unstacked operator D = unvec_columns(Q)."""
    J = np.zeros((6, 12))
    J[:, 0:3] = np.einsum("ixy,y->ix", D, s_k)          # d/d s_j of s_k^T D^T s_j
    J[:, 3:6] = np.einsum("iyx,y->ix", D, s_j)
    J[:, 6:9] = np.einsum("ixy,y->ix", D, c_k)
    J[:, 9:12] = np.einsum("iyx,y->ix", D, c_j)
    return MU0 / (8.0 * np.pi) * J


def _feasibility_polish(Q, u_vec, s_j, s_k, c_j, c_k):
    # least-norm Gauss-Newton correction onto the wrench constraint manifold
    D = unvec_columns(Q)
    for _ in range(2):
        h = _wrench_of(Q, s_j, s_k, c_j, c_k) - u_vec
        J = _wrench_jacobian(D, s_j, s_k, c_j, c_k)
        delta, *_ = np.linalg.lstsq(J, -h, rcond=None)
        s_j = s_j + delta[0:3]
        s_k = s_k + delta[3:6]
        c_j = c_j + delta[6:9]
        c_k = c_k + delta[9:12]
    return s_j, s_k, c_j, c_k


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
    s_j, s_k, c_j, c_k = _feasibility_polish(
        Q_los, u_los.as_vector(), wf_j.s, wf_k.s, wf_j.c, wf_k.c
    )
    residual = _wrench_of(Q_los, s_j, s_k, c_j, c_k) - u_los.as_vector()
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


def brute_force_allocate(r, hint, u, restarts=20, seed=0, omega=1.0):
    """Global-optimality oracle: augmented-Lagrangian descent from random starts.

    Minimizes the total squared amplitude over the raw 12 variables subject to
    the six wrench equalities: BFGS on the augmented Lagrangian with multiplier
    updates, then a trust-region feasibility restoration.  Independent of the
    dual/recovery path; returns the best feasible solution found.
    """
    if restarts < 20:
        raise ValueError("restarts must be >= 20")
    op = interaction_operator(r, hint)
    u = u if isinstance(u, Wrench) else Wrench.from_vector(np.asarray(u, dtype=float))
    u_vec = u.as_vector()
    u_norm = np.linalg.norm(u_vec)
    if u_norm == 0.0:
        return _zero_solution(omega)
    Q = op.Q
    D = unvec_columns(Q)
    feas_tol = 1.0e-6 * u_norm
    rng = np.random.default_rng(seed)
    # amplitude scale guess from the wrench magnitude and operator scale
    m_scale = np.sqrt(u_norm / (MU0 / (8.0 * np.pi) * np.linalg.norm(Q)))

    def constraint(m):
        return _wrench_of(Q, m[0:3], m[3:6], m[6:9], m[9:12]) - u_vec

    def con_jac(m):
        return _wrench_jacobian(D, m[0:3], m[3:6], m[6:9], m[9:12])

    best = None
    for _ in range(restarts):
        m = rng.normal(scale=m_scale, size=12)
        y = np.zeros(6)
        # penalty curvature rho*(dh/dm)^2 comparable to the identity objective Hessian
        rho = 10.0 * (m_scale / u_norm) ** 2

        for _ in range(8):
            def aug(mv, y=y, rho=rho):
                h = constraint(mv)
                return 0.5 * mv @ mv + y @ h + 0.5 * rho * (h @ h)

            def aug_grad(mv, y=y, rho=rho):
                h = constraint(mv)
                return mv + con_jac(mv).T @ (y + rho * h)

            res = scipy.optimize.minimize(
                aug, m, jac=aug_grad, method="BFGS",
                options={"maxiter": 300, "gtol": 1e-12 * (1 + m_scale**2)},
            )
            m = res.x
            h = constraint(m)
            if np.linalg.norm(h) <= 1e-3 * u_norm:
                break
            y = y + rho * h
            rho *= 4.0
        # BFGS stalls once rho ill-conditions the penalty Hessian, and the
        # constraint Jacobian can lose rank at the attractor; trust-region
        # least squares restores exact feasibility from nearby
        if np.linalg.norm(constraint(m)) > 0.01 * feas_tol:
            with warnings.catch_warnings():
                # scipy's trust-region boundary solver divides by zero on
                # exactly rank-deficient Jacobians; results are unaffected
                warnings.simplefilter("ignore", RuntimeWarning)
                restored = scipy.optimize.least_squares(
                    lambda mv: constraint(mv) / u_norm,
                    m,
                    jac=lambda mv: con_jac(mv) / u_norm,
                    method="trf",
                    xtol=2.3e-16,
                    ftol=2.3e-16,
                    gtol=None,
                    max_nfev=400,
                )
            m = restored.x
        h = constraint(m)
        if np.linalg.norm(h) <= feas_tol:
            J = 0.5 * m @ m
            if best is None or J < best[0]:
                best = (J, m.copy(), h.copy())
    if best is None:
        raise NoFeasiblePointError(
            f"no feasible allocation after {restarts} restarts (||u|| = {u_norm:.3e})"
        )
    J, m, h = best
    return AllocationSolution(
        dipole_j=DipoleWaveform(s=m[0:3], c=m[6:9], omega=omega),
        dipole_k=DipoleWaveform(s=m[3:6], c=m[9:12], omega=omega),
        J_p=float(J),
        J_d=float("nan"),
        gap=float("nan"),
        wrench_residual=h,
    )
