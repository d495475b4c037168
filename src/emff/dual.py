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
Hessian is singular).  mu falls by _MU_FACTOR per stage from _MU_START |X0|_F
to 1e-9 |X0|_F, the first stage within one _MU_FACTOR of DEFAULT_TOL |X0|_F.
Each stage starts from the tangent predictor of the smoothed minimizer path
z(mu) and is centred until its squared Newton decrement is at most mu^2; the
last then takes one more Newton step and, as z(mu) = z* + mu z'(mu) + O(mu^2),
a tangent step to mu = 0 that lands on the optimum without driving mu to
rounding, where the Hessian's 1/mu curvature would swamp it.  A row's
iterate is z, mu and the SVD U s V^T of its point X0 + z.N, the trial its line
search accepted (the first trial is the whole step); h = sqrt(s^2 + mu^2) and
f_mu = sum h are computed from s and mu where they are used.

The row is certified at that point.  From its SVD U S V^T, a dual matrix of
leading rank r is G = U_r V_r^T + U_0 W V_0^T, where W on the trailing block
starts from the smoothed gradient (from U diag(1, 1, w) V^T at the end of a
rank-two finish, and from u_1 v_1^T, nearly 0 there, at the end of a rank-one
finish) and takes the least-norm correction that makes G orthogonal to every
N_i.  Projecting G onto range(Q^T) gives lambda, scaled so that
sigma_max(R) <= 1.  Every such lambda is dual feasible, so of the candidates
r = 1, 2, 3 the one with the largest dual value is kept; the rank of the
optimum is never guessed from a threshold.  By weak duality the measured gap
between the two points is a complete stopping test: a row within DEFAULT_TOL
is finished, and one short of it (the tangent step leaves an error of order
mu^2 / sigma_2, large where sigma_2 / sigma_1 is small) goes
on from that point with mu 100 times smaller.

Near a rank-two optimum the nuclear norm is smooth on the matrices of rank
two (Lewis 2002), where Newton's method converges quadratically with no mu at
all (Miller & Malick 2005).  So a row centred at a stage before the last, with
sigma_3 < _RANK_TWO sigma_2, takes the tangent step to mu = 0 and finishes
there: Newton steps in (z, w) on the rank-two optimality system
<U_2 V_2^T + w u_3 v_3^T, N_k> = 0 (k = 1, 2, 3) and sigma_3 = 0, from w = t_3
of the smoothed gradient U diag(s / h) V^T.  Its iterate then carries w as
well (NaN while it smooths).  Once its step is below _FINISH_STEP, where the
next error is near rounding, the row is certified from U diag(1, 1, w) V^T; it
is finished within _FINISH_TOL and goes on finishing otherwise.  A finish whose
squared residual stops falling is certified at its tangent point instead, and
short of _FINISH_TOL the row resumes its schedule at the next stage's tangent
predictor: exactly where it would have been without the finish, so its result
is the schedule's, bit for bit.  It may finish again from a later stage.

At a rank-one optimum (sigma_2 and sigma_3 both vanish) that system is
singular, but the nuclear norm is as smooth on the matrices of rank one, and
the slice meets them there: the trailing block F = U_0^T X V_0 = diag(sigma_2,
sigma_3) vanishes, four equations in the three unknowns z.  At a rank-one
point X V_0 = 0 and U_0^T X = 0, so the Jacobian columns of F are the trailing
blocks J_k of U^T N_k V alone, and Gauss-Newton steps in z (the 3x3 normal
equations J^T J dz = -J^T F) converge quadratically, again with no mu.  Near
such an optimum the smoothed trailing singular values scale with mu, and F,
the image of a step, lies in the span of the J_k to second order in the step
(exactly, on the structured commands that have such optima).  So a centred
row with _RANK_ONE mu <= sigma_2 < mu whose F lies in that span (sin^2 of the
angle at most _FINISH_STEP^2) takes this rank-one finish from the same
tangent point instead (its w is inf).  Once sigma_2 of its new point is at most
_FINISH_STEP^2 it is certified from u_1 v_1^T, with a least-norm W; within
_FINISH_TOL it is finished, and otherwise it resumes its schedule at the next
stage's tangent predictor, as a rank-two finish that goes back does.  W is no
unknown of the finish: in a square system in (z, W) the four rows of F do not
involve W, so it has rank at most 6 of 7.

Q is a plain (6, 9) array shared by the batch; solve_dual(Q, u) is a batch
of one.  Its pseudo-inverse and null-space basis come from one SVD of Q,
memoised on Q's bytes (a few operators at a time, read-only), so a stream of
solves on one operator, as allocate's on psi_stack(1), pays for it once; a
changed Q has other bytes and gets its own basis.  Each row runs its own
schedule, line search and stopping test, and every per-row quantity is a
stack of per-row products or LAPACK calls, never a 2-D BLAS product over the
batch axis (whose blocking depends on the batch size), so a row's result is
bit-for-bit independent of its batch.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .magnetics import MU0

#: Relative duality gap every solve must certify.
DEFAULT_TOL = 1.0e-10

#: Newton systems a row may build over all stages; the rows left are certified where they are.
_MAX_NEWTON = 60
_MU_START = 0.1
_MU_FACTOR = 0.01
#: Steps with decrement^2 below this multiple of mu are taken whole, without a line search.
_FULL_STEP = 0.01
_MAX_HALVINGS = 40
#: A centred row with sigma_3 < _RANK_TWO sigma_2 takes the rank-two finish, certified once its
#: step is below _FINISH_STEP (in units of |X0|_F); one with _RANK_ONE mu <= sigma_2 < mu whose
#: trailing block is in the span of the U_0^T N_k V_0 (sin^2 of the angle at most _FINISH_STEP^2)
#: takes the rank-one finish instead, certified once sigma_2 <= _FINISH_STEP^2.  A finish ends its
#: row only within _FINISH_TOL.
_RANK_TWO = 0.9
_RANK_ONE = 0.1
_FINISH_STEP = 1.0e-7
_FINISH_TOL = 1.0e-13
_EYE3 = np.eye(3)
_TINY = np.finfo(float).tiny
_OFF = _EYE3 == 0.0
_BORDER = np.array([1.0, 1.0, 1.0, -1.0])
# _MINORS[i]: the columns of a 3x4 matrix left when column i is struck out, with sign _ALTERNATE[i]
_MINORS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_ALTERNATE = np.array([1.0, -1.0, 1.0, -1.0])
# _LEAD[r - 1, 0, i]: whether singular direction i is in the leading block of rank r;
# _TRAIL[r - 1, 0]: the trailing block of rank r, and _LEAD_EYE: U_r V_r^T in the singular bases
_LEAD = (np.arange(3) < np.arange(1, 4)[:, None])[:, None]
_TRAIL = ~(_LEAD[..., :, None] | _LEAD[..., None, :])
_LEAD_EYE = _LEAD[..., :, None] * _EYE3


class SolverError(RuntimeError):
    """A result that cannot be certified: a stalled solve, a gap above
    DEFAULT_TOL, a non-finite or infeasible certificate, waveforms that miss
    their command, or an oracle with no feasible restart.  best carries the
    certificate where one exists."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


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
    newton_iters -- Newton or Gauss-Newton systems the solve built

    Raises SolverError when sigma_max exceeds 1 + 1e-8 or J_d is not finite.
    """

    lambda_: np.ndarray
    R_lambda: np.ndarray
    J_d: float
    sigma_max: float
    X: np.ndarray
    J_p: float
    gap: float
    newton_iters: int = 0

    def __post_init__(self):
        if self.sigma_max > 1.0 + 1.0e-8:
            raise SolverError(f"certificate infeasible: sigma_max = {self.sigma_max}")
        if not np.isfinite(self.J_d):
            raise SolverError("dual objective must be finite")


def unvec_columns(q):
    """Column-stacked 3x3 blocks from (..., 9) vectors (inverse of Fortran-order vec)."""
    q = np.asarray(q, dtype=float)
    return q.reshape(q.shape[:-1] + (3, 3)).swapaxes(-1, -2)


@functools.lru_cache(maxsize=8)
def _operator_basis(key):
    """The pseudo-inverse (9, 6) and null-space basis N (3, 3, 3) of the (6, 9)
    operator whose bytes are key, and N as (3, 9) rows; memoised, read-only."""
    Uq, sq, Vq = np.linalg.svd(np.frombuffer(key).reshape(6, 9))
    pinv = (Vq[:6].T / sq) @ Uq.T
    N = unvec_columns(Vq[6:])
    basis = pinv, N, N.reshape(3, 9)
    for a in basis:
        a.flags.writeable = False
    return basis


def _spectral(U, s, Vt, h, N, mu, w):
    """Newton systems at the points X = U s V^T (b, 3, 3), h = sqrt(s^2 + mu^2):
    t, where the system is that of X -> U diag(t) V^T, K (b, 4, 4) and rhs
    (b, 4, 2).  A smoothing row (w NaN) has t = s / h, K = [[H, 0], [0, -d]] with
    H the damped Hessian of f_mu(z) = sum_i h_i, and as the columns of rhs its
    gradient g and d g / d mu, each with a last entry 0; its system is H alone.
    A rank-two finishing row (w finite) has t = (1, 1, w), K = [[H, c], [c^T, -d]]
    with c_k = (U^T N_k V)_33, and as the columns of rhs (<U diag(t) V^T, N_k>,
    sigma_3) and 0.  A rank-one finishing row (w infinite) has t = (1, 0, 0),
    K = [[J^T J, 0], [0, -d]] and as the columns of rhs (J^T F, 0) and 0: the
    Gauss-Newton normal equations of the trailing block F = diag(s_2, s_3), whose
    Jacobian columns J_k are the trailing blocks of U^T N_k V.  With
    Nt[b, k] = U^T N_k V,
        H_kl = sum_ij Nt_kij (a_ij (Nt_lij + Nt_lji) + b_ij (Nt_lij - Nt_lji)) / 2,
    a_ij = (t_i - t_j)/(s_i - s_j), b_ij = (t_i + t_j)/(s_i + s_j) (Lewis & Sendov
    2001).  A smoothing row takes a_ij = (mu/(h_i h_j))^2 / b_ij: a mean of 1/h_i
    and 1/h_j with weights s + tiny (s above 1e-292), so 1/mu at s_i = s_j = 0.  A
    finishing row takes a_ij = 0 where s_i = s_j and b_ij = 0 where i = j or
    s_i + s_j = 0.  H is damped by d = 1e-14 tr H, and by d = 1e-14 (tr H + 1) on
    a finishing row, whose K is then never singular (its H is positive
    semidefinite for |w| <= 1, as J^T J is)."""
    fin = ~np.isnan(w)
    smoothing = np.count_nonzero(fin) < len(w)
    finishing = np.count_nonzero(fin)
    if smoothing:
        m = mu[:, None]
        hh = h[:, :, None] * h[:, None, :]
        ws = s + _TINY
        d = np.empty(s.shape + (2,))
        t = np.divide(ws, h, out=d[..., 0])
        np.divide(-m * t, hh.diagonal(axis1=1, axis2=2), out=d[..., 1])
        b = (t[:, :, None] + t[:, None, :]) / (ws[:, :, None] + ws[:, None, :])
        a = np.square(m[:, :, None] / hh) / b
    if finishing:
        one = np.isinf(w)
        rank_one = np.count_nonzero(one)
        df = np.zeros(s.shape + (2,))
        df[:, :2, 0] = 1.0
        df[:, 2, 0] = w
        if rank_one:
            df[one, 1:, 0] = 0.0
        tf = df[..., 0]
        ds = s[:, :, None] - s[:, None, :]
        ss = s[:, :, None] + s[:, None, :]
        af = np.divide(tf[:, :, None] - tf[:, None, :], ds, out=np.zeros_like(ds), where=ds != 0.0)
        bf = np.divide(tf[:, :, None] + tf[:, None, :], ss, out=np.zeros_like(ss),
                       where=_OFF & (ss > 0.0))
        if smoothing:
            f = fin[:, None, None]
            d, a, b = np.where(f, df, d), np.where(f, af, a), np.where(f, bf, b)
        else:
            d, a, b = df, af, bf
    Nt = _rotated(U, N, Vt)
    Nt9, NtT9 = Nt.reshape(-1, 3, 9), Nt.swapaxes(2, 3).reshape(-1, 3, 9)
    W = a.reshape(-1, 1, 9) * (Nt9 + NtT9) + b.reshape(-1, 1, 9) * (Nt9 - NtT9)
    K = np.zeros((len(s), 4, 4))
    rhs = np.zeros((len(s), 4, 2))
    np.matmul(0.5 * Nt9, W.swapaxes(1, 2), out=K[:, :3, :3])
    np.matmul(Nt.diagonal(axis1=2, axis2=3), d, out=rhs[:, :3])
    if finishing:
        K[:, :3, 3] = K[:, 3, :3] = Nt[:, :, 2, 2] * fin[:, None]
        rhs[:, 3, 0] = s[:, 2] * fin
        if rank_one:
            J = Nt[one, :, 1:, 1:].reshape(-1, 3, 4)
            K[one] = 0.0
            K[one, :3, :3] = J @ J.swapaxes(1, 2)
            rhs[one, :3, 0] = (J[..., ::3] @ s[one, 1:, None])[..., 0]
            rhs[one, 3, 0] = 0.0
    diag = K.reshape(-1, 16)[:, ::5]
    diag += 1.0e-14 * (diag.sum(axis=1, keepdims=True) + fin[:, None]) * _BORDER
    return d[..., 0], K, rhs


def _solve(K, rhs, fin):
    """The solutions sol of the systems K sol = rhs of _spectral: all of K for a
    finishing row (fin; block diagonal for a rank-one one), the 3x3 block H alone
    for a smoothing row, so that its step does not depend on the rows it is
    batched with.  sol is (b, 4, 2), or (b, 3, 2) when no row finishes."""
    finishing = np.count_nonzero(fin)
    if not finishing:
        return np.linalg.solve(K[:, :3, :3], rhs[:, :3])
    if finishing == len(fin):
        return np.linalg.solve(K, rhs)
    sol = np.zeros_like(rhs)
    sol[fin] = np.linalg.solve(K[fin], rhs[fin])
    sol[~fin, :3] = np.linalg.solve(K[~fin, :3, :3], rhs[~fin, :3])
    return sol


def _rotated(U, N, Vt):
    """The null directions in the singular bases of each row: U^T N_k V (b, 3, 3, 3)."""
    return (U.swapaxes(1, 2)[:, None] @ N) @ Vt.swapaxes(1, 2)[:, None]


def _off_span(U, s, Vt, N):
    """sin^2 of the angle between the trailing block F = diag(s_2, s_3) of the
    points U s V^T (b, 3, 3) and the span of the trailing blocks J_k of U^T N_k V,
    from the normal n of that span in R^(2x2) (the signed 3x3 minors of J); inf
    where the J_k do not span three dimensions.  It is 0 where F is the image of a
    step in z, as at a point near a rank-one optimum, whose rank-one Gauss-Newton
    system is then consistent."""
    J = _rotated(U, N, Vt)[:, :, 1:, 1:].reshape(-1, 3, 4)
    n = np.linalg.det(J[:, :, _MINORS].swapaxes(1, 2)) * _ALTERNATE
    nn = np.vecdot(n, n) * np.vecdot(s[:, 1:], s[:, 1:])
    return np.divide(np.square(n[:, 0] * s[:, 1] + n[:, 3] * s[:, 2]), nn,
                     out=np.full(len(s), np.inf), where=nn > 0.0)


def _smoothed(s, mu):
    """h = sqrt(s^2 + mu^2) of singular values s (b, 3), whose row sums are f_mu."""
    return np.sqrt(s * s + (mu * mu)[:, None])


def _certificate(U, s, Vt, G_mu, N, pinv, Q, u, scale):
    """J_p, J_d, gap, lambda_, R and sigma_max of rows with commands u (b, 6) at
    the points scale X, X = U s V^T (b, 3, 3): for each leading rank r = 1, 2,
    3 the dual matrix is U_r V_r^T on the leading singular block plus, on the
    trailing block, G_mu (b, 3, 3) -- the smoothed gradient, or U diag(1, 1, w)
    V^T at the end of a finish -- and its least-norm correction to <G, N_k> = 0;
    it is projected onto range(Q^T) and scaled into sigma_max(R) <= 1, and the
    best of the three is kept.  A row whose costs overflow gets J_p = inf and a
    NaN gap, with no warning."""
    Nt = _rotated(U, N, Vt)
    Gt = np.where(_TRAIL, np.swapaxes(U, 1, 2) @ G_mu @ np.swapaxes(Vt, 1, 2), 0.0)
    Gt += _LEAD_EYE
    res = np.vecdot(Gt.reshape(3, -1, 1, 9), Nt.reshape(-1, 3, 9))
    A = np.where(_TRAIL[:, :, None], Nt, 0.0).reshape(3, -1, 3, 9)
    AA = A @ np.swapaxes(A, -1, -2)
    damping = 1.0e-14 * np.trace(AA, axis1=-2, axis2=-1) + _TINY
    AA += damping[..., None, None] * _EYE3
    y = np.linalg.solve(AA, res[..., None])[..., 0]
    Gt -= (y[..., None, :] @ A).reshape(Gt.shape)
    G = U @ Gt @ Vt
    lam = (G.swapaxes(-1, -2).reshape(3, -1, 1, 9) @ pinv)[..., 0, :]
    R = unvec_columns((lam[..., None, :] @ Q)[..., 0, :])
    smax = np.linalg.svd(R, compute_uv=False)[..., 0]
    shrink = np.maximum(smax, 1.0)
    c = 8.0 * np.pi / MU0
    with np.errstate(over="ignore", invalid="ignore"):
        J_d = -c * np.vecdot(lam, u) / shrink
        J_p = c * scale * s.sum(axis=1)
        pick = (np.argmax(J_d, axis=0), np.arange(len(u)))
        J_d, shrink = J_d[pick], shrink[pick]
        gap = (J_p - J_d) / J_p
    return dict(J_p=J_p, J_d=J_d, gap=gap, lambda_=lam[pick] / shrink[:, None],
                R=R[pick] / shrink[:, None, None], sigma_max=smax[pick] / shrink)


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
    sigma_max (B,), newton_iters (B,) -- Newton or Gauss-Newton systems built
    over all stages and finishes -- and stalled (B,), exactly
    ~(gap <= DEFAULT_TOL), as for a row still short of DEFAULT_TOL when its
    _MAX_NEWTON Newton systems run out.
    A row whose costs overflow has J_p = inf and a NaN gap; one whose
    least-norm point X0 has no finite |X0|_F is not iterated (newton_iters 0,
    X = X0, lambda_ = 0, J_p = J_d = inf).  No RuntimeWarning escapes.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    finite = np.isfinite(u).all(axis=1)
    if not finite.all():
        bad = (~finite).nonzero()[0]
        raise ValueError(f"command row {bad[0]} is not finite: {u[bad[0]]}")
    B = u.shape[0]
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (6, 9):
        raise ValueError(f"Q must be one shared 6x9 operator, got shape {Q.shape}")
    pinv, N, N9 = _operator_basis(Q.tobytes())

    # |X0|_F of each row taken after an exact power-of-two scaling, so no square
    # underflows; a row whose |X0|_F overflows is not solved (its costs overflow)
    with np.errstate(over="ignore", invalid="ignore"):
        X0 = -unvec_columns((u[:, None, :] @ pinv.T)[:, 0])
        e = np.frexp(np.abs(X0).max(axis=(1, 2)))[1]
        X0s = np.ldexp(X0, -e[:, None, None])
        scale = np.ldexp(np.sqrt(np.einsum("bxy,bxy->b", X0s, X0s)), e)
    over = ~np.isfinite(scale)
    live = (scale > 0.0) & ~over
    norm = np.where(live, scale, 1.0)
    X0 /= norm[:, None, None]
    # each row's final z and certificate; the rows not iterated keep lambda = 0,
    # exact for u = 0 (J_d = -c lambda^T u = -0.0)
    z, iters = np.zeros((B, 3)), np.zeros(B, dtype=int)
    out = dict(J_p=np.where(over, np.inf, 0.0), J_d=np.where(over, np.inf, -0.0),
               gap=np.where(over, np.nan, 0.0), lambda_=np.zeros((B, 6)),
               R=np.zeros((B, 3, 3)), sigma_max=np.zeros(B))

    # the rows still iterating: z, mu, w (NaN while smoothing) and the SVD of their
    # point X0 + z.N; a finishing row also keeps the squared residual of its last
    # system, its tangent point zT with the smoothed gradient GT there, and the
    # tangent predictor zP of the stage at mu _MU_FACTOR, where it would resume
    idx = live.nonzero()[0]
    X0a, za, ma = X0[idx], z[idx], np.full(idx.size, _MU_START)
    wa, ra = np.full(idx.size, np.nan), np.full(idx.size, np.inf)
    zT, zP, GT = np.zeros((idx.size, 3)), np.zeros((idx.size, 3)), np.zeros((idx.size, 3, 3))
    U, s, Vt = np.linalg.svd(X0a)
    # masks are tested with np.count_nonzero, several times faster than .any() on a batch of one
    for it in range(1, _MAX_NEWTON + 1):
        if not idx.size:
            break
        fin = ~np.isnan(wa)
        h = _smoothed(s, ma)
        t, K, rhs = _spectral(U, s, Vt, h, N, ma, wa)
        # Newton step -sol[..., 0] with decrement^2 g.H^-1 g while smoothing;
        # tangent dz/dmu = -sol[:, :3, 1]
        sol = _solve(K, rhs, fin)
        dec2 = np.vecdot(rhs[:, :3, 0], sol[:, :3, 0])
        ended = ~fin & (dec2 <= ma * ma)
        z1 = za - sol[:, :3, 0]
        w1, nxt = wa, ma
        # done: one last Newton step, then the tangent step to mu = 0; enter: the same at
        # an earlier stage, then the rank-one finish (rank1: sigma_2 on the scale of mu and
        # the trailing block in the span of a step) or the rank-two finish; centred: shrink
        # mu and start the next stage at the tangent predictor (while no row has ended, none
        # enters or is done)
        enter = done = ended
        if np.count_nonzero(ended):
            final = ma * _MU_FACTOR < DEFAULT_TOL
            early = ended & ~final
            rank1 = early & (s[:, 1] >= _RANK_ONE * ma) & (s[:, 1] < ma)
            if np.count_nonzero(rank1):
                rank1[rank1] = _off_span(U[rank1], s[rank1], Vt[rank1], N) <= _FINISH_STEP**2
            enter = rank1 | (early & (s[:, 2] < _RANK_TWO * s[:, 1]))
            centred, done = early & ~enter, ended & final
            nxt = np.where(centred, ma * _MU_FACTOR, np.where(done | enter, 0.0, ma))
            z1 = np.where(centred[:, None], za, z1) + (ma - nxt)[:, None] * sol[:, :3, 1]
        if np.count_nonzero(enter):
            w1 = np.where(enter, np.where(rank1, np.inf, t[:, 2]), w1)
            ra = np.where(enter, np.inf, ra)
            zT[enter] = z1[enter]
            GT[enter] = ((U * t[:, None, :]) @ Vt)[enter]
            zP[enter] = (za + (ma - ma * _MU_FACTOR)[:, None] * sol[:, :3, 1])[enter]
            nxt[enter] = ma[enter]
        # (while no row finishes, none goes back or ends its finish)
        back = leave = conv = fin
        finishing = np.count_nonzero(fin)
        if finishing:
            # a finish is certified once its step is below _FINISH_STEP, and goes back to
            # its tangent point once its squared residual (of a rank-one row, |J^T F|^2)
            # stops falling or its step is longer than |X0|_F
            res = np.vecdot(rhs[..., 0], rhs[..., 0])
            step = np.vecdot(sol[..., 0], sol[..., 0])
            back = leave = fin & ~((res < ra) & (step <= 1.0))
            conv = fin & ~back & (step <= _FINISH_STEP**2)
            ra = np.where(fin, res, ra)
            w1 = np.where(fin, wa - sol[:, 3, 0], w1)
            z1 = np.where(back[:, None], zT, z1)
        U1, s1, Vt1 = np.linalg.svd(X0a + (z1[:, None] @ N9).reshape(-1, 3, 3))
        # a searched row took the whole Newton step as its first Armijo trial on f_mu;
        # if that fails it backtracks, keeping the SVD of the trial it accepts, or stays put
        fail = (~(fin | ended | (dec2 <= _FULL_STEP * ma))).nonzero()[0]
        if fail.size:
            f = h.sum(axis=1)
            fail = fail[~(_smoothed(s1[fail], ma[fail]).sum(axis=1) <= (f - 0.25 * dec2)[fail])]
        for k in range(1, _MAX_HALVINGS):
            if not fail.size:
                break
            zt = za[fail] - 0.5**k * sol[fail, :3, 0]
            Ut, st, Vtt = np.linalg.svd(X0a[fail] + (zt[:, None] @ N9).reshape(-1, 3, 3))
            ok = _smoothed(st, ma[fail]).sum(axis=1) <= f[fail] - 0.25 * 0.5**k * dec2[fail]
            acc = fail[ok]
            z1[acc], U1[acc], s1[acc], Vt1[acc] = zt[ok], Ut[ok], st[ok], Vtt[ok]
            fail = fail[~ok]
        else:
            z1[fail], U1[fail], s1[fail], Vt1[fail] = za[fail], U[fail], s[fail], Vt[fail]
        if finishing:
            # a rank-one finish is also certified once its trailing block is at rounding,
            # and leaves its finish whenever its certificate falls short
            one = np.isinf(wa)
            if np.count_nonzero(one):
                conv = conv | (one & ~back & (s1[:, 1] <= _FINISH_STEP**2))
                leave = back | one
        # a done row, a finish certified or going back, and on the last Newton system every
        # row, is certified at its new point from U diag(t) V^T of the old (from GT if it went
        # back), and finished (given its iters) if within DEFAULT_TOL, or _FINISH_TOL for a
        # finish.  Short of it, a rank-two finish goes on finishing unless it went back; a
        # done row goes on from its new point, and one that leaves its finish from zP, where
        # its schedule would have been, at a mu 100 times smaller (a NaN gap, of costs past
        # the double range, cannot shrink: it ends stalled)
        last = it == _MAX_NEWTON
        d = (done | conv | back | last).nonzero()[0]
        if d.size:
            G = np.where(back[d, None, None], GT[d], (U[d] * t[d][:, None, :]) @ Vt[d])
            cert = _certificate(U1[d], s1[d], Vt1[d], G, N, pinv, Q, u[idx[d]], scale[idx[d]])
            ok = ~(cert["gap"] > np.where(done[d], DEFAULT_TOL, _FINISH_TOL)) | last
            rows = idx[d[ok]]
            z[rows], iters[rows] = z1[d[ok]], it
            for k, v in cert.items():
                out[k][rows] = v[ok]
            # (nxt and w1 may still be ma and wa themselves, read no more in this pass)
            short = d[~ok & (leave | ~conv)[d]]
            nxt[short] = ma[short] * _MU_FACTOR
            w1[short] = np.nan
            r = d[~ok & leave[d]]
            if r.size:
                z1[r] = zP[r]
                Xr = X0a[r] + (zP[r][:, None] @ N9).reshape(-1, 3, 3)
                U1[r], s1[r], Vt1[r] = np.linalg.svd(Xr)
            keep = iters[idx] == 0
            if not np.count_nonzero(keep):
                break
            idx, X0a, z1, nxt = idx[keep], X0a[keep], z1[keep], nxt[keep]
            w1, ra = w1[keep], ra[keep]
            U, Vt, U1, s1, Vt1 = U[keep], Vt[keep], U1[keep], s1[keep], Vt1[keep]
            zT, zP, GT = zT[keep], zP[keep], GT[keep]
        if np.count_nonzero(np.isfinite(w1)):
            # w is kept against u_3 v_3^T, whose sign the new SVD may flip (the inf of a
            # rank-one finish needs no orientation)
            flip = np.vecdot(U1[:, :, 2], U[:, :, 2]) * np.vecdot(Vt1[:, 2], Vt[:, 2]) < 0.0
            w1 = np.where(flip, -w1, w1)
        za, U, s, Vt, ma, wa = z1, U1, s1, Vt1, nxt, w1

    X = (X0 + (z[:, None] @ N9).reshape(-1, 3, 3)) * norm[:, None, None]
    return {**out, "X": X, "newton_iters": iters, "stalled": ~(out["gap"] <= DEFAULT_TOL)}


def solve_dual(Q, u):
    """Certified solve of one instance: Q the (6, 9) operator, u the (6,) command.

    A batch of one through solve_dual_batch, returned as a DualCertificate.
    Raises SolverError when the certificate is not finite or feasible, and
    (carrying the certificate) when the row is stalled, its gap not within
    DEFAULT_TOL; u = 0 gives the exact certificate lambda = 0, X = 0.
    """
    res = solve_dual_batch(Q, np.asarray(u, dtype=float).reshape(1, 6))
    cert = DualCertificate(
        lambda_=res["lambda_"][0],
        R_lambda=res["R"][0],
        J_d=float(res["J_d"][0]),
        sigma_max=float(res["sigma_max"][0]),
        X=res["X"][0],
        J_p=float(res["J_p"][0]),
        gap=float(res["gap"][0]),
        newton_iters=int(res["newton_iters"][0]),
    )
    if res["stalled"][0]:
        raise SolverError(
            f"dual solve stalled at relative gap {cert.gap:.3e} after"
            f" {cert.newton_iters} Newton iterations (limit {_MAX_NEWTON},"
            f" gap target {DEFAULT_TOL:.0e})",
            best=cert,
        )
    return cert
