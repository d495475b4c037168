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

compute_power_reports is the one computation, for every grid of a scan
together.  It samples the field once, at every grid time t and t + T/4 and at
r_l = 1, and rotates the commands into line-of-sight frames
(magnetics.build_los_frame), where a brigade command is
(f_x, f_y, 0, 0, 0, tau_z).  That sample serves every n: the force block of
U_hat scales with r_l, the torque block with r_l^2, and the frame depends
only on directions.  Pair j of a grid with separation d is then the row
u' = (a d^4 r_l f, b d^3 r_l^2 tau) against psi_stack(1), with a, b the
weights of L(n, j).  A row is costed in closed form where a dual vertex and a
primal point of equal cost certify it (_vertex_costs; weak duality, Boyd &
Vandenberghe sec. 5); the other rows of every n go to one batched primal-dual
solve (dual.solve_dual_batch), each certified by its measured gap at
dual.DEFAULT_TOL.  sup_t w*(2, t) is refined for every n in one more
evaluation, at the vertex of the parabola through the grid argmax and its
two periodic neighbours.  compute_power_report is the one-element view,
pair_power_w_star one entry of a one-sample report, and peak_power,
total_power and dipole_metric each read one field of the report.
"""

from dataclasses import dataclass

import numpy as np

from .brigade import _check_j, unit_wrench, weighting
from .dual import SolverError, solve_dual_batch
from .magnetics import MU0, build_los_frame, check_separation, psi_stack

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
    uncertified_rows counts the rows of that table (two per entry, at t and
    t + T/4) that failed the closed-form certificate and went to
    dual.solve_dual_batch.  vertex_margin is the smallest lambda_min(S)/tr S
    over the certified nonzero rows, how far the scenario is from leaving
    the closed-form region (nan when no such row exists).
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
    uncertified_rows: int
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
    """Optimal dual costs of line-of-sight rows (..., B, 6) against psi_stack(1).

    Certified rows keep their closed-form cost; all the others go to one
    solve_dual_batch call, and a row whose solve stalls costs nan.  Returns
    J (..., B) and, per leading index, the number of uncertified rows and the
    smallest certified vertex margin (nan when there is none).
    """
    Q = psi_stack(1.0)
    flat = rows.reshape(-1, 6)
    J, certified, margin = _vertex_costs(flat, Q)
    fallback = np.flatnonzero(~certified)
    if fallback.size:
        res = solve_dual_batch(Q, flat[fallback])
        J[fallback] = np.where(res["stalled"], np.nan, res["J_d"])
    shape = rows.shape[:-1]
    margin = np.where(certified, margin, np.nan).reshape(shape)
    return J.reshape(shape), (~certified).reshape(shape).sum(axis=-1), np.fmin.reduce(margin, axis=-1)


def _unit_rows(field, t):
    """Unit brigade commands U_hat (r_l = 1) in their line-of-sight frames at
    every time of t, then at each a quarter period later: (2 len(t), 6).

    The separation is -p_hat and the frame hint the commanded force direction;
    a grid scales them by positive numbers, so the frames serve every grid.
    """
    # the disturbance generator is not exactly orbit-periodic (its argument
    # advances at omega_z, not omega_xy), so the shifted times are sampled
    # outright rather than reusing wrapped grid values
    ts = np.concatenate([t, t + field.period / 4.0])
    r = -field.direction(ts)
    u = unit_wrench(field.k_orb(ts), -r)
    C = build_los_frame(r, np.cross(u[:, :3], r))
    # force and torque blocks rotated into the line-of-sight frame: C^T f, C^T tau
    return np.einsum("bxy,bkx->bky", C, u.reshape(-1, 2, 3)).reshape(-1, 6)


def _pair_scales(cfg):
    """Row scales (a d^4 r_l, b d^3 r_l^2) of pairs j = 2..n+1, one row per j."""
    L = np.array([np.diag(weighting(cfg.n, j)) for j in range(2, cfg.n + 2)])
    return L * ([cfg.d_sat**4 * cfg.r_l] * 3 + [cfg.d_sat**3 * cfg.r_l**2] * 3)


def pair_power_w_star(cfg, field, coil, j, t):
    """Coil-scaled pair cost w*(r_l, n, j, t): the dual costs at t and a
    quarter period later, doubled for the mirrored pair.  coil=None gives the
    coil-independent value in A^2*m^4.  Entry j of the one-sample report at t."""
    _check_j(cfg.n, j)
    scale = 1.0 if coil is None else coil.power_scale
    return float(scale * compute_power_report(cfg, field, None, [float(t)]).w_star_unit[j - 2, 0])


def orbit_time_grid(period, n_samples=720):
    """Uniform sampling grid over [0, period)."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    return np.linspace(0.0, period, n_samples, endpoint=False)


def compute_power_reports(cfgs, field, coil, t_grid):
    """Power reports of the grid configs cfgs over one orbit, computed together.

    Each report equals the one computed for its config alone.  W_bar =
    chi_sys sup_t w*(2, t): the grid maximum, or the value at the vertex of
    the parabola through the grid argmax and its periodic neighbours (moved
    at most dt = T/len(t_grid)) when those three points are concave and the
    vertex is higher.  W_oint = chi_sys (2n+1) (1/T) integral sum_j w*(j, t) dt
    by the periodic trapezoid rule, and M = W_oint / (m_sys R/gamma^2).
    Raises ZeroSeparationError when a d_sat is at most MIN_SEPARATION, and
    SolverError naming every n with a stalled dual solve.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) == 0:
        raise ValueError("empty time grid")
    check_separation([cfg.d_sat for cfg in cfgs])
    n_t = len(t_grid)
    scales = np.concatenate([_pair_scales(cfg) for cfg in cfgs])
    starts = np.cumsum([0] + [cfg.n for cfg in cfgs[:-1]])
    J, uncertified, margin = _row_costs(scales[:, None, :] * _unit_rows(field, t_grid))
    w = 2.0 * (J[:, :n_t] + J[:, n_t:])

    # parabola through each grid argmax of w*(2, t) and its periodic neighbours
    top = w[starts]
    i = top.argmax(axis=1)
    a, peak, c = (top[np.arange(len(cfgs)), (i + s) % n_t] for s in (-1, 0, 1))
    curv = a - 2.0 * peak + c
    (bent,) = np.nonzero(curv < 0.0)
    if bent.size:
        shift = np.clip(0.5 * (a - c)[bent] / curv[bent], -1.0, 1.0)
        u = _unit_rows(field, t_grid[i[bent]] + shift * (field.period / n_t))
        J = _row_costs(scales[starts[bent], None, :] * u.reshape(2, -1, 6).transpose(1, 0, 2))[0]
        peak[bent] = np.maximum(peak[bent], 2.0 * (J[:, 0] + J[:, 1]))

    costs = np.split(w, starts[1:])
    stalled = [str(cfg.n) for cfg, wk, p in zip(cfgs, costs, peak) if np.isnan(p) or np.isnan(wk).any()]
    if stalled:
        raise SolverError(f"dual solves stalled at n = {', '.join(stalled)}")
    scale = 1.0 if coil is None else coil.power_scale
    counts, margins = np.add.reduceat(uncertified, starts), np.fmin.reduceat(margin, starts)
    return [
        PowerReport(
            n=cfg.n,
            r_l=cfg.r_l,
            chi_sys=cfg.chi_sys,
            samples=t_grid,
            w_star_unit=w,
            W_bar=float(cfg.chi_sys * scale * w_bar),
            W_oint=float(cfg.chi_sys * scale * cfg.n_line * w.sum(axis=0).mean()),
            M=float(cfg.chi_sys * cfg.n_line * w.sum(axis=0).mean() / cfg.m_sys),
            gamma_S=surface_ratio(cfg.n_line),
            peak_pair_violation=float((w[1:] - w[0]).max()) if cfg.n > 1 else 0.0,
            uncertified_rows=int(count),
            vertex_margin=float(vertex_margin),
        )
        for cfg, w, w_bar, count, vertex_margin in zip(cfgs, costs, peak, counts, margins)
    ]


def compute_power_report(cfg, field, coil, t_grid):
    """Full per-pair cost table plus every summary metric for one config:
    the one-element view of compute_power_reports."""
    return compute_power_reports([cfg], field, coil, t_grid)[0]


def peak_power(cfg, field, coil, t_grid):
    """Upper bound on the per-satellite peak power chi_sys sup_t w*(2, t) (W)."""
    return compute_power_report(cfg, field, coil, t_grid).W_bar


def total_power(cfg, field, coil, t_grid):
    """Orbit-averaged total power W_oint (W)."""
    return compute_power_report(cfg, field, coil, t_grid).W_oint


def dipole_metric(cfg, field, t_grid):
    """Coil-independent metric M = W_oint / (m_sys R/gamma^2), A^2*m^4/kg."""
    return compute_power_report(cfg, field, None, t_grid).M
