"""Formation-keeping power metrics for grid-structured swarms.

Every brigade pair command is costed by the convex dual bound J_d; the coil
design enters only through the multiplicative scale R_coil/gamma^2 (ohm/m^4),
so the normalized metric M is coil-independent.  Each satellite belongs to
two orthogonal line families, the second realized as the same line a quarter
period later, so one pair cost sums the dual bound at t and t + T/4 and is
doubled for the mirrored half-line:

    w*(j, t) = 2 (R/gamma^2) [J_d(L(n,j) U_hat(t)) + J_d(L(n,j) U_hat(t + T/4))]

evaluated at separation -d_sat p_hat.  Peak power is chi_sys sup_t w*(2, t);
the orbit-averaged total sums all pairs over one period.

compute_power_report is the one computation.  It samples the field once, at
every grid time t and t + T/4 together (the field callables take time
arrays), and rotates the stacked commands into line-of-sight frames from
magnetics.build_los_frame.  In that frame a brigade command is
(f_x, f_y, 0, 0, 0, tau_z), and pair j at separation d is the row
u' = (a d^4 f, b d^3 tau) against psi_stack(1), with a, b the force and torque
weights of L(n, j).  Each row is costed in closed form (_vertex_costs): the
dual point lambda* = -sign(v) (0, 1, 0, 0, 0, 2), v = f_y' + 2 tau_z', has
value (8 pi/mu0)|v|, and a primal point X with Psi(1) vec X = -u' has the same
cost whenever a 2x2 matrix S built from the row is positive semidefinite, so
weak duality certifies the value (Boyd & Vandenberghe, sec. 5).  The rows
that fail the certificate, for every pair index together, go to one batched
barrier solve against psi_stack(1), always to the relative gap
dual.DEFAULT_TOL.  pair_power_w_star is the same path at one time;
peak_power, total_power and dipole_metric each read one field of the report.
"""

from dataclasses import dataclass

import numpy as np

from .brigade import unit_wrench, weighting
from .dual import SolverError, solve_dual_batch
from .magnetics import MU0, build_los_frame, psi_stack

#: Relative bound on the out-of-plane part of a row and on the primal
#: residual |Psi(1) vec X + u'| for the closed form to count as certified.
VERTEX_RTOL = 1.0e-12


@dataclass(frozen=True)
class PowerReport:
    """Swarm power summary over one orbit.

    w_star_unit holds the coil-independent pair costs (A^2*m^4), one row per
    pair index j = 2..n+1, one column per time sample.  peak_pair_violation is
    the largest amount (same units) by which any w*(j>2, t) exceeds w*(2, t);
    nonpositive means the peak-at-j=2 rule held on every sample.
    barrier_rows counts the rows of that table (two per entry, at t and
    t + T/4) that failed the closed-form certificate and went to the barrier
    solver.  vertex_margin is the smallest lambda_min(S)/tr S over the
    certified nonzero rows, how far the scenario is from leaving the
    closed-form region (nan when no such row exists).
    """

    n: int
    r_l: float
    chi_sys: float
    samples: np.ndarray
    w_star_unit: np.ndarray
    W_bar: float
    W_oint: float
    M: float
    gamma_S: float
    peak_pair_violation: float
    barrier_rows: int
    vertex_margin: float


def power_index(coil, J_d):
    """Time-averaged coil power (W) needed to sustain a dual cost J_d."""
    if J_d < 0:
        raise ValueError("J_d must be nonnegative")
    return coil.power_scale * J_d


def surface_ratio(n_line):
    """Total surface area of N_l^2 equal-volume cubes over the monolith: N_l^(2/3)."""
    if n_line < 1 or n_line % 2 == 0:
        raise ValueError("n_line must be an odd count >= 1")
    return float(n_line) ** (2.0 / 3.0)


def _vertex_costs(u, Q):
    """Closed-form dual costs of line-of-sight rows u (B, 6) against
    Q = psi_stack(1).  Returns (J, certified, margin).

    J = (8 pi/mu0)|v|, v = f_y + 2 tau_z, is the value of the dual point
    lambda* = -sign(v) (0, 1, 0, 0, 0, 2), feasible for every row, so J never
    exceeds the optimum.  With sigma = -sign(v) and
        S = sigma [[-(tau_z + f_y/3), f_x/9], [f_x/9, -(tau_z + 2 f_y/3)]],
    the primal point X = sigma J2 S in the x-y block, J2 = [[0, 1], [-1, 0]],
    costs (8 pi/mu0) tr S = J when S >= 0.  A row is certified when
    lambda_min(S) >= 0, its out-of-plane part (f_z, tau_x, tau_y) and the
    residual Q vec X + u are both within VERTEX_RTOL |u|; then J is the
    optimum.  margin is lambda_min(S)/tr S (nan where tr S = 0).
    """
    u = np.ascontiguousarray(u.T)  # one contiguous row per component
    fx, fy, tz = u[0], u[1], u[5]
    v = fy + 2.0 * tz
    sigma = -np.sign(v)
    p = -sigma * (tz + fy / 3.0)
    q = sigma * fx / 9.0
    r = -sigma * (tz + 2.0 * fy / 3.0)
    lam_min = 0.5 * (p + r) - np.hypot(0.5 * (p - r), q)
    # the column-stacked entries X00, X10, X01, X11 of vec X
    x = sigma * np.array([q, -p, r, -q])
    residual = Q[:, [0, 1, 3, 4]] @ x + u
    bound = VERTEX_RTOL * np.sqrt(np.einsum("ib,ib->b", u, u))
    certified = (
        (lam_min >= 0.0)
        & (np.sqrt(np.einsum("ib,ib->b", u[2:5], u[2:5])) <= bound)
        & (np.sqrt(np.einsum("ib,ib->b", residual, residual)) <= bound)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = lam_min / (p + r)
    return (8.0 * np.pi / MU0) * np.abs(v), certified, margin


def _row_costs(rows):
    """Optimal dual costs of line-of-sight rows (B, 6) against psi_stack(1).

    Certified rows keep their closed-form cost; all the others go to one
    solve_dual_batch call.  Returns (J, number of barrier rows, smallest
    certified vertex margin or nan); raises SolverError if a barrier row
    stalls.
    """
    Q = psi_stack(1.0)
    J, certified, margin = _vertex_costs(rows, Q)
    fallback = np.flatnonzero(~certified)
    if fallback.size:
        res = solve_dual_batch(Q, rows[fallback])
        if res["stalled"].any():
            raise SolverError(f"{res['stalled'].sum()} of {fallback.size} barrier dual solves stalled")
        J[fallback] = res["J_d"]
    margin = margin[certified & ~np.isnan(margin)]
    return J, int(fallback.size), float(margin.min()) if margin.size else float("nan")


def _pair_costs(cfg, field, pairs, t_grid):
    """Coil-independent pair costs w*(j, t) (A^2*m^4), one row per pair index
    in pairs, one column per time in t_grid, with _row_costs's barrier row
    count and vertex margin.

    The field is sampled once at every t and t + T/4.  The pair separation is
    -d_sat p_hat(t) and the frame hint the commanded force direction; L(n, j)
    scales each block by a positive number, so one frame serves every j.
    """
    # the disturbance generator is not exactly orbit-periodic (its argument
    # advances at omega_z, not omega_xy), so the shifted times are sampled
    # outright rather than reusing wrapped grid values
    n_t = len(t_grid)
    ts = np.concatenate([t_grid, t_grid + field.period / 4.0])
    p = field.direction(ts)
    u = unit_wrench(field.k_orb(ts), cfg.r_l * p)
    r = -cfg.d_sat * p
    C = build_los_frame(r, np.cross(u[:, :3], r))
    # force and torque blocks rotated into the line-of-sight frame: C^T f, C^T tau
    u_los = np.einsum("bxy,bkx->bky", C, u.reshape(-1, 2, 3)).reshape(-1, 6)
    # pair j at separation d is the row (a d^4 f, b d^3 tau) against psi_stack(1)
    d = cfg.d_sat
    weights = np.array([np.diag(weighting(cfg.n, j)) for j in pairs]) * ([d**4] * 3 + [d**3] * 3)
    rows = (weights[:, None, :] * u_los).reshape(-1, 6)
    try:
        J, barrier_rows, margin = _row_costs(rows)
    except SolverError as exc:
        raise SolverError(f"{exc} at n = {cfg.n}") from exc
    J = J.reshape(len(pairs), 2 * n_t)
    return 2.0 * (J[:, :n_t] + J[:, n_t:]), barrier_rows, margin


def pair_power_w_star(cfg, field, coil, j, t):
    """Coil-scaled pair cost w*(r_l, n, j, t): the dual costs at t and a
    quarter period later, doubled for the mirrored pair.  coil=None gives the
    coil-independent value in A^2*m^4."""
    scale = 1.0 if coil is None else coil.power_scale
    return float(scale * _pair_costs(cfg, field, [j], np.array([float(t)]))[0][0, 0])


def orbit_time_grid(period, n_samples=720):
    """Uniform sampling grid over [0, period)."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    return np.linspace(0.0, period, n_samples, endpoint=False)


def _golden_max(fun, a, b, tol):
    # deterministic golden-section maximization on [a, b]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
    return max(f1, f2)


def compute_power_report(cfg, field, coil, t_grid):
    """Full per-pair cost table plus every summary metric in one sweep.

    W_bar = chi_sys sup_t w*(2, t): the grid maximum, sharpened by
    golden-section refinement (tolerance 1e-3 of the period) around the grid
    argmax.  W_oint = chi_sys (2n+1) (1/T) integral sum_{j=2..n+1} w*(j, t) dt
    by the periodic trapezoid rule on the uniform grid, and M = W_oint /
    (m_sys R/gamma^2).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) == 0:
        raise ValueError("empty time grid")
    w, barrier_rows, vertex_margin = _pair_costs(cfg, field, range(2, cfg.n + 2), t_grid)
    scale = 1.0 if coil is None else coil.power_scale
    i = int(np.argmax(w[0]))
    dt = field.period / len(t_grid)
    refined = _golden_max(
        lambda s: pair_power_w_star(cfg, field, None, 2, s),
        t_grid[i] - dt,
        t_grid[i] + dt,
        1.0e-3 * field.period,
    )
    W_bar = cfg.chi_sys * scale * max(w[0].max(), refined)
    W_oint = cfg.chi_sys * scale * cfg.n_line * w.sum(axis=0).mean()
    M = cfg.chi_sys * cfg.n_line * w.sum(axis=0).mean() / cfg.m_sys
    violation = float((w[1:] - w[0]).max()) if cfg.n > 1 else 0.0
    return PowerReport(
        n=cfg.n,
        r_l=cfg.r_l,
        chi_sys=cfg.chi_sys,
        samples=t_grid,
        w_star_unit=w,
        W_bar=float(W_bar),
        W_oint=float(W_oint),
        M=float(M),
        gamma_S=surface_ratio(cfg.n_line),
        peak_pair_violation=violation,
        barrier_rows=barrier_rows,
        vertex_margin=vertex_margin,
    )


def peak_power(cfg, field, coil, t_grid):
    """Upper bound on the per-satellite peak power chi_sys sup_t w*(2, t) (W)."""
    return compute_power_report(cfg, field, coil, t_grid).W_bar


def total_power(cfg, field, coil, t_grid):
    """Orbit-averaged total power W_oint (W)."""
    return compute_power_report(cfg, field, coil, t_grid).W_oint


def dipole_metric(cfg, field, t_grid):
    """Coil-independent metric M = W_oint / (m_sys R/gamma^2), A^2*m^4/kg."""
    return compute_power_report(cfg, field, None, t_grid).M
