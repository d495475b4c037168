"""Formation-keeping power metrics for grid-structured swarms.

Every brigade pair command is costed by its optimal dual cost J; the coil
design enters only through the multiplicative scale R_coil/gamma^2 (ohm/m^4),
so the normalized metric M is coil-independent.  Each satellite belongs to
two orthogonal line families, the second realized as the same line a quarter
period later, so one pair cost sums the optimal cost at t and t + T/4 and is
doubled for the mirrored half-line:

    w*(j, t) = 2 (R/gamma^2) [J(L(n,j) U_hat(t)) + J(L(n,j) U_hat(t + T/4))]

evaluated at separation -d_sat p_hat.  Peak power is chi_sys sup_t w*(2, t);
the orbit-averaged total sums all pairs over one period.

compute_power_reports samples the field once per scan, at every grid time t
and t + T/4 and at r_l = 1, with no frame formed (_unit_rows), then costs
each grid's table once and reduces it at once; none outlives its grid.
Force scales with r_l and torque with r_l^2, so pair j of a grid with
separation d is the row u' = (alpha f, beta tau) against psi_stack(1),
alpha = a d^4 r_l and beta = b d^3 r_l^2 (a, b the weights of L(n, j), each
an integer quotient rounded once, exact for n up to 165139).  Every such
in-plane row is costed exactly in closed form, with no solver (_pair_costs;
nuclear-norm minimization over an affine slice, Recht, Fazel & Parrilo
2010); rows off its vertex branch carry a measured gap to a closed-form dual
point (weak duality, Boyd & Vandenberghe sec. 5).  sup_t w*(2, t) is refined
at the vertex of the parabola through each grid argmax and its periodic
neighbours.  compute_power_report is its one-config view; a report's W_bar,
W_oint and M hold the peak, total and metric.
"""

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .brigade import _check_j
# perfbench/tracing.py patches solve_dual_batch and psi_stack here; the scan calls neither
from .dual import DEFAULT_TOL, SolverError, solve_dual_batch  # noqa: F401
from .magnetics import MU0, check_separation, psi_stack  # noqa: F401


@dataclass(frozen=True)
class PowerReport:
    """Swarm power summary over one orbit: scalars only, whatever n is.

    peak_pair_violation is the largest w*(j>2, t) - w*(2, t) over the
    samples, relative to the largest w*; nonpositive means the peak-at-j=2
    rule held on every sample.  peak_pair_at is its (j, t); n = 1 has 0.0
    and None.  root_rows counts the table's rows (two per entry, at t and t + T/4) off
    the vertex branch, gap is the largest measured relative gap of those and
    the peak refinement's rows (0.0 if none), and vertex_margin the smallest
    lambda_min(S)/tr S of the nonzero vertex-branch rows (nan if none).
    """

    n: int
    r_l: float
    chi_sys: float
    W_bar: float
    W_oint: float
    M: float
    gamma_S: float
    peak_pair_violation: float
    peak_pair_at: tuple[int, float] | None
    root_rows: int
    gap: float
    vertex_margin: float


def power_index(coil, J_d):
    """Time-averaged coil power (W) needed to sustain a dual cost J_d."""
    if not J_d >= 0:
        raise ValueError("J_d must be nonnegative")
    return coil.power_scale * J_d


def surface_ratio(n_line):
    """Total surface area of N_l^2 equal-volume cubes over the monolith: N_l^(2/3)."""
    if operator.index(n_line) < 1 or n_line % 2 == 0:
        raise ValueError("n_line must be an odd count >= 1")
    return float(n_line) ** (2.0 / 3.0)


@np.errstate(divide="ignore", invalid="ignore")
def _pair_costs(scales, unit):
    """Optimal costs (J, vertex, margin, gap) of the rows u' = (alpha f_x',
    alpha f_y', 0, 0, 0, beta f_y'/-3) against psi_stack(1), from per-pair
    scales (..., 2) = (alpha, beta) >= 0 and unit rows (..., 2) = (f_x', f_y').

    With s = f_y + 2 tau_z, t = -f_y/3, c = f_x/3 of the row, some optimum is
    block-diagonal (z -> -z maps the slice to itself), with x-y block
    ([[P, -s], [s, P]] + [[D, t], [t, -D]])/2, so J/(8 pi/mu0) is the least
    h = max(hypot(P, s), hypot(D, t)) with P + 3D = 2c.  Vertex branch,
    9(s^2 - t^2) >= 4c^2, i.e. margin = lambda_min(S)/tr S >= 0, or u' = 0:
    h = |s|, J = (8 pi/mu0)|v| with no row formed.  Root branch: h = hypot(t, y),
    y = (3|c| - q)/4, q = sqrt(c^2 + 2(t-s)(t+s)), at D = sign(c) y,
    P = 2c - 3D; gap measures it against the dual point theta C + (1-theta) A,
    C and A the block's two parts normalized, theta = y/(2q), g22 = -g11/2,
    scaled into sigma_max <= 1.  gap is 0 on the vertex branch, margin nan off it.
    """
    alpha, beta = scales[..., 0], scales[..., 1]
    f_x, f_y = unit[..., 0], unit[..., 1]
    v = alpha * f_y + 2.0 * (beta * (f_y / -3.0))
    J = (8.0 * np.pi / MU0) * np.abs(v)
    g = np.sqrt(1.0 / 36.0 + (f_x / (9.0 * f_y)) ** 2)  # hypot(f_y'/6, f_x'/9)/|f_y'|, no square of f
    margin = 0.5 - alpha / np.abs(alpha - 2.0 * beta / 3.0) * g
    vertex = margin >= 0.0
    gap = np.zeros(J.shape)
    if vertex.all():
        return J, vertex, margin, gap
    root = ~vertex
    a, fx, fy = (np.broadcast_to(z, root.shape)[root] for z in (alpha, f_x, f_y))
    s, fx, fy = v[root], a * fx, a * fy
    # each row scaled by a power of two (exactly), so that no square leaves range
    m = np.ldexp(1.0, np.frexp(np.maximum(np.maximum(np.abs(s), np.abs(fx)), np.abs(fy)))[1])
    s, t, c = s / m, (fy / m) / -3.0, (fx / m) / 3.0
    q = np.sqrt(np.maximum(c * c + 2.0 * (t - s) * (t + s), 0.0))
    # |D|, clipped to [0, 2|c|/3] for rows that rounding put past the |t| or vertex side
    y = np.minimum(np.maximum(3.0 * np.abs(c) - q, 0.0) / 4.0, 2.0 * np.abs(c) / 3.0)
    h = np.maximum(np.hypot(t, y), np.abs(s))
    D = np.copysign(y, c)
    P = 2.0 * c - 3.0 * D
    rho_P, rho_D = np.hypot(P, s), np.hypot(D, t)
    theta = np.where(y > 0.0, np.minimum(y / (2.0 * q), 1.0), 0.0)
    k_P, k_D = np.where(theta > 0.0, theta / rho_P, 0.0), (1.0 - theta) / rho_D
    # G = [[g11, k_D t - k_P s], [k_P s + k_D t, -g11/2]]: sigma_max = conformal + anti-conformal norm
    g11 = k_P * P + k_D * D
    smax = np.hypot(0.25 * g11, k_P * s) + np.hypot(0.75 * g11, k_D * t)
    dual = (0.5 * g11 * c + k_P * s * s + k_D * t * t) / np.maximum(smax, 1.0)
    primal = np.maximum(rho_P, rho_D) + np.abs(0.5 * (P + 3.0 * D) - c)
    gap[root] = np.where(primal == 0.0, 0.0, (primal - dual) / primal)
    J[root] = m * ((8.0 * np.pi / MU0) * h)
    margin[root] = np.nan
    vertex[root] = h == 0.0
    return J, vertex, margin, gap


def _unit_rows(field, t):
    """Unit brigade commands U_hat (r_l = 1) as line-of-sight rows (f_x', f_y')
    at every time of t, then a quarter period later: (2 len(t), 2).  With
    f = 3 K p_hat, tau = p_hat x f/3, the frame's axes are -p_hat and f's part
    normal to it, so a full row is (-p_hat.f, |p_hat x f|, 0, 0, 0, -|p_hat x f|/3)."""
    # the disturbance generator is not exactly orbit-periodic (its argument
    # advances at omega_z, not omega_xy), so the shifted times are sampled too
    ts = np.concatenate([t, t + field.period / 4.0])
    p = field.direction(ts)
    f = 3.0 * np.einsum("...xy,...y->...x", field.k_orb(ts), p)
    normal = np.cross(p, f)
    rows = np.empty((len(ts), 2))
    rows[:, 0] = -np.vecdot(p, f)
    rows[:, 1] = np.sqrt(np.vecdot(normal, normal))  # np.linalg.norm is slower
    out = ~((rows[:, 1] > 2.0**-480) & (rows[:, 1] < 2.0**480))  # the square left range
    if out.any():
        m = np.ldexp(1.0, np.frexp(np.abs(normal[out]).max(axis=-1, keepdims=True))[1])
        rows[out, 1] = m[:, 0] * np.linalg.norm(normal[out] / m, axis=-1)
    return rows


#: The largest n with n(n+1)(2n+1) <= 2^53: the exact range of _pair_scales.
_MAX_EXACT_N = 165139


def _pair_scales(cfg):
    """Row scales (alpha, beta) = (a d^4 r_l, b d^3 r_l^2) of pairs j = 2..n+1.

    a and b are brigade.force_weight and torque_weight, each computed as the
    correctly rounded quotient of two exact integers, which is what
    float(Fraction) gives.  No numerator or denominator exceeds n(n+1)(2n+1),
    so all are exact in float64 while that is at most 2^53; a larger n
    (n > 165139) raises ValueError.
    """
    n = cfg.n
    if n > _MAX_EXACT_N:
        raise ValueError(f"n = {n} is above {_MAX_EXACT_N}: pair scales are exact"
                         " only while n(n+1)(2n+1) <= 2^53")
    j = np.arange(2, n + 2)
    a = ((n - j + 2) * (n + j - 1)) / (n * (n + 1))
    b = ((n - j + 2) * (n - j + 3) * (2 * n + j - 1)) / (n * (n + 1) * (2 * n + 1))
    return np.stack([a, b], axis=1) * [cfg.d_sat**4 * cfg.r_l, cfg.d_sat**3 * cfg.r_l**2]


def _check_certified(costs):
    """The one failure rule of scan and pair costs: SolverError naming each n of
    the (n, values, gap) costs with a value non-finite or gap above DEFAULT_TOL."""
    failed = [str(n) for n, values, gap in costs if not (np.isfinite(values).all() and gap <= DEFAULT_TOL)]
    if failed:
        raise SolverError(f"pair costs non-finite or gap above {DEFAULT_TOL:.0e} at n = {', '.join(failed)}")


def pair_power_w_star(cfg, field, coil, j, t):
    """Coil-scaled pair cost w*(r_l, n, j, t): the optimal costs at t and a
    quarter period later, doubled for the mirrored pair.  coil=None gives the
    coil-independent value in A^2*m^4.  Costs pair j's two rows alone, and
    raises as compute_power_reports does, or ValueError for j not in 2..n+1."""
    _check_j(cfg.n, j)
    check_separation([cfg.d_sat])
    J, _, _, gap = _pair_costs(_pair_scales(cfg)[j - 2], _unit_rows(field, np.array([float(t)])))
    w = 2.0 * (J[0] + J[1])
    _check_certified([(cfg.n, w, gap.max())])
    scale = 1.0 if coil is None else coil.power_scale
    return float(scale * w)


def orbit_time_grid(period, n_samples):
    """Uniform grid of n_samples >= 1 (an integer) times over [0, period), period finite."""
    if not (0.0 < period < np.inf and isinstance(n_samples, numbers.Integral) and n_samples >= 1):
        raise ValueError(f"period must be finite and > 0, n_samples an integer >= 1: got {period!r}, {n_samples!r}")
    return np.linspace(0.0, period, n_samples, endpoint=False)


def compute_power_reports(cfgs, field, coil, t_grid):
    """Power reports of the grid configs cfgs over one orbit, each equal to
    the one computed for its config alone.  One field sample serves them all;
    each config's (n, 2T) table is costed once, in turn, and reduced at once,
    and only its w*(2, t) row is kept, for the peaks, refined together.

    W_bar = chi_sys sup_t w*(2, t): the grid maximum, or the value at the
    vertex of the parabola through the grid argmax and its periodic
    neighbours (moved at most dt = T/len(t_grid)) when those three points are
    concave and the vertex is higher.  W_oint = chi_sys (2n+1) (1/T) integral
    sum_j w*(j, t) dt by the periodic trapezoid rule, and M = W_oint /
    (m_sys R/gamma^2).  Raises ZeroSeparationError when check_separation
    rejects a d_sat, ValueError for an n above 165139 (both before any cost
    table is formed), and SolverError naming every n with a non-finite cost
    or a gap above dual.DEFAULT_TOL.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) == 0:
        raise ValueError("empty time grid")
    check_separation([cfg.d_sat for cfg in cfgs])
    if not cfgs:
        return []
    scales = [_pair_scales(cfg) for cfg in cfgs]
    n_t = len(t_grid)
    unit = _unit_rows(field, t_grid)
    scale = 1.0 if coil is None else coil.power_scale
    top, tables = np.empty((len(cfgs), n_t)), []
    for k, (cfg, ab) in enumerate(zip(cfgs, scales)):
        J, vertex, margin, gap = _pair_costs(ab[:, None, :], unit)
        w = 2.0 * (J[:, :n_t] + J[:, n_t:])
        mean, top[k] = w.sum(axis=0).mean(), w[0]  # the mean is non-finite if any cost is
        excess = w[1:] - w[0]
        at = np.unravel_index(excess.argmax(), excess.shape) if cfg.n > 1 else None
        tables.append((mean, gap.max(), dict(
            n=cfg.n, r_l=cfg.r_l, chi_sys=cfg.chi_sys,
            W_oint=float(cfg.chi_sys * scale * cfg.n_line * mean),
            M=float(cfg.chi_sys * cfg.n_line * mean / cfg.m_sys), gamma_S=surface_ratio(cfg.n_line),
            root_rows=int(vertex.size - np.count_nonzero(vertex)),
            vertex_margin=float(np.fmin.reduce(margin, axis=None)),
            # relative to max |w*| = max w*, as every w* is >= 0
            peak_pair_violation=float(excess[at] / max(w.max(), 1e-300)) if at else 0.0,
            peak_pair_at=(int(at[0]) + 3, float(t_grid[at[1]])) if at else None,
        )))

    # parabola through each grid argmax of w*(2, t) and its periodic neighbours
    i = top.argmax(axis=1)
    a, peak, c = (top[np.arange(len(cfgs)), (i + s) % n_t] for s in (-1, 0, 1))
    curv = a - 2.0 * peak + c
    (bent,) = np.nonzero(curv < 0.0)
    gaps = np.array([gap for _, gap, _ in tables])
    if bent.size:
        shift = np.clip(0.5 * (a - c)[bent] / curv[bent], -1.0, 1.0)
        u = _unit_rows(field, t_grid[i[bent]] + shift * (field.period / n_t))
        heads = np.array([scales[b][:1] for b in bent])  # L(n, 2) = I: pair 2's scales, (B, 1, 2)
        J, _, _, g = _pair_costs(heads, u.reshape(2, -1, 2).transpose(1, 0, 2))
        peak[bent] = np.maximum(peak[bent], 2.0 * (J[:, 0] + J[:, 1]))
        gaps[bent] = np.maximum(gaps[bent], g.max(axis=1))
    _check_certified((kw["n"], (mean, w_bar), gap) for (mean, _, kw), w_bar, gap in zip(tables, peak, gaps))
    return [PowerReport(W_bar=float(kw["chi_sys"] * scale * w_bar), gap=float(gap), **kw)
            for (_, _, kw), w_bar, gap in zip(tables, peak, gaps)]


def compute_power_report(cfg, field, coil, t_grid):
    """Every summary metric of one config: the one-element view of
    compute_power_reports."""
    return compute_power_reports([cfg], field, coil, t_grid)[0]
