"""Bucket-brigade disturbance elimination on a linear satellite formation.

A line of 2n+1 satellites (indices -n..n, spacing d_sat along the unit
direction p_hat) sits in a position-proportional disturbance field
f_d(j) = m_sat * K(t) * (j d_sat p_hat).  Each edge satellite is balanced by
its inward neighbour, reactions propagate inward, and the per-pair commands
telescope to the closed form

    u_{(j-2)<-(j-1)} = chi_sys * L(n, j) * U_hat(r_l, t),   j in [2, n+1],

with chi_sys = m_sys n(n+1) / (6 (2n+1)^3); L(n, j) scales U_hat's force half
by the exact rational force_weight(n, j) and its torque half by
torque_weight(n, j).  The force balance closes exactly at every satellite
including the centre; the torque balance closes everywhere except the centre,
which is left carrying 2 chi_sys R_l x (K R_l) by the edge boundary
conditions (the residual is reported, not hidden).

The field callables take an array of times, so a power scan samples the field
once per time grid; it forms U_hat's line-of-sight rows in closed form.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .orbit import OrbitContext, StablePlane, check_trajectory_range, desired_trajectory, j2_disturbance_matrix


@dataclass(frozen=True)
class GridConfig:
    """Square-grid swarm geometry: one line holds 2n+1 of the (2n+1)^2 satellites."""

    n: int
    m_sys: float
    d_sat: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"n must be an integer, got {self.n!r}") from None
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (self.m_sys > 0 and self.d_sat > 0):
            raise ValueError("m_sys and d_sat must be positive")
        for name in ("m_sys", "d_sat"):
            if not getattr(self, name) < np.inf:
                raise ValueError(f"GridConfig.{name} must be finite")

    @classmethod
    def from_line_length(cls, n, m_sys, r_l):
        """Alternative constructor holding the array side length r_l fixed."""
        return cls(n=n, m_sys=m_sys, d_sat=r_l / (2 * n + 1))

    @property
    def n_line(self):
        return 2 * self.n + 1

    @property
    def n_total(self):
        return (2 * self.n + 1) ** 2

    @property
    def m_sat(self):
        return self.m_sys / self.n_total

    @property
    def r_l(self):
        return self.n_line * self.d_sat

    @property
    def chi_sys(self):
        """Mass/geometry prefactor m_sys n(n+1) / (6 (2n+1)^3), kg."""
        n = self.n
        return self.m_sys * n * (n + 1) / (6.0 * (2 * n + 1) ** 3)


@dataclass(frozen=True)
class DisturbanceField:
    """Time-varying disturbance generator and line direction.

    k_orb(t) returns the 3x3 generator (1/s^2); p_hat(t) the unit direction of
    the line formation; period is the common period of both (s), which also
    sets the quarter-period offset between the two grid line families.
    R_l(t) = r_l * p_hat(t).  Both callables take a time or an array of times
    and return (..., 3, 3) and (..., 3) stacks; a callable that ignores t
    (such as lambda t: K) stands for a constant that broadcasts over times.
    """

    k_orb: Callable[[np.ndarray], np.ndarray]
    p_hat: Callable[[np.ndarray], np.ndarray]
    period: float

    def __post_init__(self):
        if not self.period > 0:
            raise ValueError("period must be positive")

    def direction(self, t):
        """Unit line direction(s) p_hat(t), shape np.shape(t) + (3,)."""
        t = np.asarray(t, dtype=float)
        p = np.broadcast_to(np.asarray(self.p_hat(t), dtype=float), t.shape + (3,))
        nrm = np.linalg.norm(p, axis=-1)
        bad = ~(np.abs(nrm - 1.0) <= 1e-9)  # NaN and inf fail too
        if bad.any():
            raise ValueError(f"p_hat must be a unit vector, got norm {nrm[bad].flat[0]}")
        return p

    @classmethod
    def from_orbit(cls, ctx: OrbitContext, plane: StablePlane):
        """Field of a swarm riding scaled copies of the stable relative orbit:
        the line direction is the normalized desired-trajectory chord.  Raises
        ValueError where check_trajectory_range does."""
        check_trajectory_range(plane, ctx)

        def p_hat(t):
            # the chords scaled exactly by one power of two, so no square leaves range
            # (on one trajectory |p| varies by a bounded factor)
            p = desired_trajectory(plane, ctx, t)
            p = np.ldexp(p, -np.frexp(np.abs(p).max())[1])
            return p / np.linalg.norm(p, axis=-1, keepdims=True)

        return cls(
            k_orb=lambda t: j2_disturbance_matrix(ctx, t),
            p_hat=p_hat,
            period=ctx.period,
        )


def _check_j(n, j):
    if not 2 <= j <= n + 1:
        raise ValueError(f"pair index j = {j} outside [2, {n + 1}]")


def force_weight(n, j):
    """Force-block coefficient of L(n, j), an exact Fraction."""
    _check_j(n, j)
    return Fraction((n - j + 2) * (n + j - 1), n * (n + 1))


def torque_weight(n, j):
    """Torque-block coefficient of L(n, j), an exact Fraction."""
    _check_j(n, j)
    return Fraction((n - j + 2) * (n - j + 3) * (2 * n + j - 1), n * (n + 1) * (2 * n + 1))


def unit_wrench(K, R_l):
    """Unit brigade command U_hat = [3 K R_l; R_l x (K R_l)].

    K is a (..., 3, 3) stack and R_l a (..., 3) stack, broadcast against each
    other; the result is the (..., 6) stack of commands.
    """
    K = np.asarray(K, dtype=float)
    R_l = np.asarray(R_l, dtype=float)
    KR = np.einsum("...xy,...y->...x", K, R_l)
    return np.concatenate([3.0 * KR, np.cross(R_l, KR)], axis=-1)


def pair_command(cfg, field, j, t):
    """Closed-form commanded wrench on satellite j-2 from j-1 (both half-lines
    and their mirrors use the same magnitudes): chi_sys * L(n, j) * U_hat."""
    _check_j(cfg.n, j)
    K = field.k_orb(t)
    R_l = cfg.r_l * field.direction(t)
    weights = np.repeat([float(force_weight(cfg.n, j)), float(torque_weight(cfg.n, j))], 3)
    return cfg.chi_sys * (weights * unit_wrench(K, R_l))


def telescoping_oracle(cfg, field, j, t):
    """Direct summation oracle for the pair command.

    Force: sum of outboard disturbances m_sat K (k d_sat p_hat), k = j-1..n.
    Torque: d_sat p_hat x the running sum of inboard reaction forces with
    triangular weights (n-k+1)(n+k)/2.  Must agree with pair_command exactly.
    """
    _check_j(cfg.n, j)
    n, d, m_sat = cfg.n, cfg.d_sat, cfg.m_sat
    K = field.k_orb(t)
    p = field.direction(t)
    Kp = K @ p
    force = m_sat * d * sum(k for k in range(j - 1, n + 1)) * Kp
    torque_scale = m_sat * d**2 * sum(
        (n - k + 1) * (n + k) / 2.0 for k in range(j - 1, n + 1)
    )
    return np.concatenate([force, torque_scale * np.cross(p, Kp)])


def equilibrium_residuals(cfg, field, t):
    """Per-satellite force/torque balance residuals of the assembled brigade.

    Returns dict with 'index' (2n+1 satellite indices -n..n), 'force' and
    'torque' residual arrays (N / N*m), and 'center_force' = f_{0<-1} +
    f_{0<--1}, which cancels exactly.  Interior and edge satellites balance in
    both force and torque; the centre's torque residual is the genuine
    2 chi_sys R_l x (K R_l) imbalance left by the edge boundary conditions.
    """
    n = cfg.n
    d = cfg.d_sat
    p = field.direction(t)
    Kp = field.k_orb(t) @ p
    # (force, torque) commanded on satellite j-2 from j-1, for every pair j
    cmds = {j: np.split(pair_command(cfg, field, j, t), 2) for j in range(2, n + 2)}

    # wrench on satellite a from satellite b, positive half-line pairs (a < b);
    # command on the inboard member, reaction via momentum conservation
    def wrench_on(a, b):
        if a + b > 0:  # positive half-line pair, command targets min(a,b)
            j = min(a, b) + 2
            f_cmd, tau_cmd = cmds[j]
            if a < b:
                return f_cmd, tau_cmd
            # reaction on the outboard member: r_{out<-in} = +d p
            return -f_cmd, -tau_cmd - d * np.cross(p, -f_cmd)
        # mirrored half-line: reflect indices, forces flip sign with K(-p)
        f_cmd, tau_cmd = cmds[-max(a, b) + 2]
        if a > b:
            return -f_cmd, tau_cmd
        return f_cmd, -tau_cmd - d * np.cross(-p, f_cmd)

    index = np.arange(-n, n + 1)
    f_res = np.zeros((2 * n + 1, 3))
    tau_res = np.zeros((2 * n + 1, 3))
    for row, i in enumerate(index):
        f_d = cfg.m_sat * i * d * Kp
        total_f = f_d.copy()
        total_tau = np.zeros(3)
        for nb in (i - 1, i + 1):
            if abs(nb) <= n:
                f, tau = wrench_on(i, nb)
                total_f += f
                total_tau += tau
        f_res[row] = total_f
        tau_res[row] = total_tau
    center_force = wrench_on(0, 1)[0] + wrench_on(0, -1)[0]
    return {
        "index": index,
        "force": f_res,
        "torque": tau_res,
        "center_force": center_force,
    }
