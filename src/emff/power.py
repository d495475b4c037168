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
r_l = 1, with no frame formed: for f = 3 K p_hat, tau = p_hat x f/3, the
line-of-sight axes of separation -p_hat are -p_hat and f's part normal to it,
so a unit command is (-p_hat.f, |p_hat x f|, 0, 0, 0, -|p_hat x f|/3), with
f_z' = tau_x' = tau_y' = 0 and tau_z' = -f_y'/3 (_unit_rows).  It serves every
n, as force scales with r_l, torque with r_l^2: pair j of a grid with
separation d is the row u' = (alpha f, beta tau) against psi_stack(1), alpha =
a d^4 r_l and beta = b d^3 r_l^2, a and b the weights of L(n, j).  A row is
costed in closed form where a dual vertex and a primal point of equal cost
certify it (_pair_costs; weak duality, Boyd & Vandenberghe sec. 5), each test
evaluated per row from per-sample vectors and the two scales, so no certified
row is formed; the other rows of every n go to one batched primal-dual solve
(dual.solve_dual_batch), each certified by its measured gap at
dual.DEFAULT_TOL.  sup_t w*(2, t) is refined for every n in one more
evaluation, at the vertex of the parabola through the grid argmax and its two
periodic neighbours.  compute_power_report is the one-element view,
pair_power_w_star one entry of a one-sample report, and peak_power,
total_power and dipole_metric each read one field of the report.
"""

from dataclasses import dataclass

import numpy as np

from .brigade import _check_j, force_weight, torque_weight
from .dual import SolverError, solve_dual_batch
from .magnetics import MU0, check_separation, psi_stack

#: Relative bound on the out-of-plane part of a row and on the primal
#: residual |Psi(1) vec X + u'| for the closed form to count as certified.
VERTEX_RTOL = 1.0e-12

# vec X = (f_x/9, tau_z + f_y/3, -(tau_z + 2 f_y/3), -f_x/9) of a row's vertex point
_VERTEX_POINT = np.array([[1, 0, 0, -1], [0, 3, -6, 0], [0] * 4, [0] * 4, [0] * 4, [0, 9, -9, 0]]) / 9


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


def _pair_costs(scales, unit):
    """Optimal dual costs (J, certified, margin) of the line-of-sight rows
    u' = (alpha f, beta tau) against Q = psi_stack(1), from per-pair scales
    (..., 2) = (alpha, beta) >= 0 and unit rows (..., 6) = (f, tau) that broadcast.

    J = (8 pi/mu0)|v|, v = f_y' + 2 tau_z', is the value of the dual point
    -sign(v) (0, 1, 0, 0, 0, 2), feasible for every row.  With a = tau_z' +
    f_y'/3, b = tau_z' + 2 f_y'/3 and sigma = -sign(v), the primal point
    X = sigma J2 S in the x-y block, S = sigma [[-a, f_x'/9], [f_x'/9, -b]],
    J2 = [[0, 1], [-1, 0]], costs (8 pi/mu0) tr S = J when S >= 0.  A row is
    certified, J its optimum, when lambda_min(S) >= 0 (from its own a and b)
    and its out-of-plane part and residual Q vec X + u' are within
    VERTEX_RTOL |u'|.  vec X = u' _VERTEX_POINT (0 at v = 0, where only u' = 0
    passes) is linear, so both are alpha (force part) + beta (torque part) of
    the unit row's.  Only the other rows are formed, for one solve_dual_batch
    call; a stalled row costs nan.  margin is lambda_min(S)/tr S if certified.
    """
    Q = psi_stack(1.0)
    alpha, beta = scales[..., 0], scales[..., 1]
    f_y, t_z = alpha * unit[..., 1], beta * unit[..., 5]
    v = f_y + 2.0 * t_z
    a, b = t_z + f_y / 3.0, t_z + 2.0 * (f_y / 3.0)
    trace = np.abs(a + b)
    d, q = 0.5 * (a - b), alpha * (unit[..., 0] / 9.0)
    lam_min = 0.5 * trace - np.sqrt(d * d + q * q)  # np.hypot is several times slower

    # |part|^2 - VERTEX_RTOL^2 |u'|^2 as a quadratic form in (alpha, beta)
    G = _VERTEX_POINT @ Q[:, [0, 1, 3, 4]].T + np.eye(6)
    f, t = unit[..., :3], unit[..., 3:]
    r_f, r_t = f @ G[:3], t @ G[3:]
    bound_f, bound_t = VERTEX_RTOL**2 * np.vecdot(f, f), VERTEX_RTOL**2 * np.vecdot(t, t)
    a2, b2 = alpha * alpha, beta * beta
    out_of_plane = a2 * (f[..., 2] ** 2 - bound_f) + b2 * (np.vecdot(t[..., :2], t[..., :2]) - bound_t)
    residual = a2 * (np.vecdot(r_f, r_f) - bound_f) + b2 * (np.vecdot(r_t, r_t) - bound_t)
    residual += 2.0 * alpha * beta * np.vecdot(r_f, r_t)
    certified = (lam_min >= 0.0) & (out_of_plane <= 0.0) & (residual <= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = lam_min / trace

    J = (8.0 * np.pi / MU0) * np.abs(v)
    if not certified.all():
        pair = np.broadcast_to(scales, certified.shape + (2,))[~certified]
        rows = np.repeat(pair, 3, axis=-1) * np.broadcast_to(unit, certified.shape + (6,))[~certified]
        res = solve_dual_batch(Q, rows)
        J[~certified] = np.where(res["stalled"], np.nan, res["J_d"])
        margin[~certified] = np.nan
    return J, certified, margin


def _unit_rows(field, t):
    """Unit brigade commands U_hat (r_l = 1) as line-of-sight rows at every
    time of t, then at each a quarter period later: (2 len(t), 6).  A force
    along the line gives (-p_hat.f, 0, 0, 0, 0, 0), as the fallback frame does.
    """
    # the disturbance generator is not exactly orbit-periodic (its argument
    # advances at omega_z, not omega_xy), so the shifted times are sampled too
    ts = np.concatenate([t, t + field.period / 4.0])
    p = field.direction(ts)
    f = 3.0 * np.einsum("...xy,...y->...x", field.k_orb(ts), p)
    normal = np.cross(p, f)
    rows = np.zeros((len(ts), 6))
    rows[:, 0] = -np.vecdot(p, f)
    rows[:, 1] = np.sqrt(np.vecdot(normal, normal))  # np.linalg.norm is slower
    rows[:, 5] = rows[:, 1] / -3.0
    return rows


def _pair_scales(cfg):
    """Row scales (alpha, beta) = (a d^4 r_l, b d^3 r_l^2) of pairs j = 2..n+1."""
    ab = [[float(force_weight(cfg.n, j)), float(torque_weight(cfg.n, j))] for j in range(2, cfg.n + 2)]
    return np.array(ab) * [cfg.d_sat**4 * cfg.r_l, cfg.d_sat**3 * cfg.r_l**2]


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
    if not cfgs:
        return []
    n_t = len(t_grid)
    scales = np.concatenate([_pair_scales(cfg) for cfg in cfgs])
    starts = np.cumsum([0] + [cfg.n for cfg in cfgs[:-1]])
    J, certified, margin = _pair_costs(scales[:, None, :], _unit_rows(field, t_grid))
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
        J = _pair_costs(scales[starts[bent], None, :], u.reshape(2, -1, 6).transpose(1, 0, 2))[0]
        peak[bent] = np.maximum(peak[bent], 2.0 * (J[:, 0] + J[:, 1]))

    costs = np.split(w, starts[1:])
    stalled = [str(cfg.n) for cfg, wk, p in zip(cfgs, costs, peak) if np.isnan(p) or np.isnan(wk).any()]
    if stalled:
        raise SolverError(f"dual solves stalled at n = {', '.join(stalled)}")
    scale = 1.0 if coil is None else coil.power_scale
    counts = np.add.reduceat((~certified).sum(axis=1), starts)
    margins = np.fmin.reduceat(np.fmin.reduce(margin, axis=1), starts)
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
