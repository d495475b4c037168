"""Far-field magnetic interaction between two sinusoidally driven dipoles.

Two coils carrying AC currents at a common angular frequency exchange a
nonzero time-averaged force and torque; at distinct frequencies the
first-order average vanishes.  The instantaneous wrench on coil j due to
coil k is bilinear in the dipole moments,

    u = (mu0 / 4 pi) * Q(r) * (mu_k kron mu_j),

where Q stacks a force block scaling as 1/d^4 and a torque block scaling
as 1/d^3, both expressed through a line-of-sight frame whose x-axis runs
along the separation vector r (pointing from coil k to coil j).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

MU0 = 4.0e-7 * np.pi  # vacuum permeability, T*m/A

#: Below this separation (m) the 1/d^4 far-field model is meaningless.
MIN_SEPARATION = 1.0e-3

#: Relative tolerance on ||r x hint|| before the perpendicular fallback kicks in.
TOL_PARALLEL = 1.0e-9

# Force block (rows: fx, fy, fz) acting on mu_k kron mu_j, line-of-sight frame,
# to be divided by d^4.  Torque block likewise, divided by d^3.
PSI_FORCE = np.array(
    [
        [-6.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 3.0],
        [0.0, 3.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0],
    ]
)
PSI_TORQUE = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, -2.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ]
)


class ZeroSeparationError(ValueError):
    """Separation below MIN_SEPARATION: the far-field model diverges."""


def _validate_stack3(v, name):
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"{name} must be a (..., 3) stack of vectors, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _validate_vec3(v, name):
    v = _validate_stack3(v, name)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class CoilDesign:
    """Single-axis coil geometry and wire properties.

    turns        -- number of turns N_t
    coil_radius  -- loop radius (m)
    wire_radius  -- conductor radius (m)
    resistivity  -- wire resistivity (ohm*m)
    """

    turns: float
    coil_radius: float
    wire_radius: float
    resistivity: float

    def __post_init__(self):
        for name in ("turns", "coil_radius", "wire_radius", "resistivity"):
            if not getattr(self, name) > 0:
                raise ValueError(f"CoilDesign.{name} must be strictly positive")

    @property
    def resistance(self):
        """Coil resistance R = 2*a*N*p_c / r_wire^2 (ohm)."""
        return 2.0 * self.coil_radius * self.turns * self.resistivity / self.wire_radius**2

    @property
    def dipole_per_current(self):
        """Moment produced per ampere: gamma = pi*N*a^2 (m^2)."""
        return np.pi * self.turns * self.coil_radius**2

    @property
    def power_scale(self):
        """R/gamma^2 = (2 p_c / r_wire^2) / (pi^2 N a^3), ohm/m^4."""
        return self.resistance / self.dipole_per_current**2


@dataclass(frozen=True, slots=True)
class DipoleWaveform:
    """Sinusoidal dipole command mu(t) = s*sin(omega t) + c*cos(omega t), A*m^2."""

    s: np.ndarray
    c: np.ndarray
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "s", _validate_vec3(self.s, "s"))
        object.__setattr__(self, "c", _validate_vec3(self.c, "c"))
        if not np.isfinite(self.omega):
            raise ValueError("omega must be finite")

    @property
    def amplitude_squared(self):
        """||s||^2 + ||c||^2 (A^2*m^4)."""
        return float(self.s @ self.s + self.c @ self.c)

    def within_saturation(self, limit):
        """True when ||s||^2 + ||c||^2 stays below the given saturation bound."""
        return self.amplitude_squared < limit

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        return np.sin(self.omega * t)[..., None] * self.s + np.cos(self.omega * t)[..., None] * self.c


@dataclass(frozen=True)
class Wrench:
    """Force (N) / torque (N*m) pair."""

    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "force", _validate_vec3(self.force, "force"))
        object.__setattr__(self, "torque", _validate_vec3(self.torque, "torque"))

    @classmethod
    def zero(cls):
        return cls(np.zeros(3), np.zeros(3))

    @classmethod
    def from_vector(cls, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (6,):
            raise ValueError(f"wrench vector must have shape (6,), got {u.shape}")
        return cls(u[:3].copy(), u[3:].copy())

    def as_vector(self):
        return np.concatenate([self.force, self.torque])

    @property
    def norm(self):
        return float(np.linalg.norm(self.as_vector()))


@dataclass(frozen=True)
class InteractionOperator:
    """6x9 bilinear wrench operator for a dipole pair at fixed geometry.

    Q maps mu_k kron mu_j (expressed in the same frame as Q) onto the
    pre-factor-free wrench on coil j.  `frame` holds the line-of-sight
    rotation (columns = LOS axes in the operator's frame); force rows
    scale as 1/separation^4 and torque rows as 1/separation^3.
    """

    Q: np.ndarray
    separation: float
    frame: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.Q.shape != (6, 9):
            raise ValueError("Q must be 6x9")
        if not self.separation > 0:
            raise ValueError("separation must be positive")
        C = self.frame
        if not (np.abs(C.T @ C - np.eye(3)) <= 1e-9).all() or np.linalg.det(C) < 0:
            raise ValueError("frame must be a proper rotation")


def psi_stack(d):
    """Line-of-sight interaction blocks [Psi_f/d^4; Psi_tau/d^3] as one 6x9 array."""
    return np.vstack([PSI_FORCE / d**4, PSI_TORQUE / d**3])


def check_separation(d):
    """Raise ZeroSeparationError when any separation in d is at most MIN_SEPARATION."""
    if np.any(np.asarray(d) <= MIN_SEPARATION):
        raise ZeroSeparationError(f"separation {np.min(d):.3e} m <= {MIN_SEPARATION} m")


def _cross(a, b):
    """a x b over the last axis, with np.cross's products and differences in
    its order: (a1 b2 - a2 b1, a2 b0 - a0 b2, a0 b1 - a1 b0)."""
    a, b = np.concatenate([a, a], axis=-1), np.concatenate([b, b], axis=-1)
    return a[..., 1:4] * b[..., 2:5] - a[..., 2:5] * b[..., 1:4]


def build_los_frame(r, hint):
    """Rotations whose columns are the line-of-sight axes of separations r.

    r and hint are (..., 3) stacks (broadcast against each other); the result
    is (..., 3, 3).  Column 1 is r/||r||; column 2 is (r x hint) normalized,
    falling back to a deterministic perpendicular (r/||r|| crossed with the
    world axis of its smallest component) when hint is zero or (near-)parallel
    to r; column 3 completes the right-handed triad.  Raises
    ZeroSeparationError when any separation is at most MIN_SEPARATION.
    """
    r, hint = _validate_stack3(r, "r"), _validate_stack3(hint, "hint")
    if r.shape != hint.shape:
        r, hint = np.broadcast_arrays(r, hint)
    # r and hint each scaled exactly by a power of two, so no square leaves range
    e = np.frexp(np.abs(r).max(axis=-1))[1]
    r = np.ldexp(r, -e[..., None])
    hint = np.ldexp(hint, -np.frexp(np.abs(hint).max(axis=-1))[1][..., None])
    d = np.linalg.norm(r, axis=-1)
    check_separation(np.ldexp(d, e))
    ex = r / d[..., None]
    cross = _cross(r, hint)
    parallel = np.linalg.norm(cross, axis=-1) <= TOL_PARALLEL * d * np.linalg.norm(hint, axis=-1)
    axis = np.eye(3)[np.argmin(np.abs(ex), axis=-1)]
    cross = np.where(parallel[..., None], _cross(ex, axis), cross)
    ey = cross / np.linalg.norm(cross, axis=-1)[..., None]
    return np.stack([ex, ey, _cross(ex, ey)], axis=-1)


def interaction_operator(r, hint):
    """Interaction operator in the frame r and hint are expressed in.

    Q = (I2 kron C) [Psi_f; Psi_tau] (C^T kron C^T) with C the line-of-sight
    rotation, so wrenches and dipoles transform covariantly with the inputs.
    """
    r = _validate_vec3(r, "r")
    C = build_los_frame(r, hint)
    d = np.linalg.norm(r)
    Q = np.kron(np.eye(2), C) @ psi_stack(d) @ np.kron(C.T, C.T)
    return InteractionOperator(Q=Q, separation=float(d), frame=C)


def instantaneous_wrench(op, mu_j, mu_k):
    """Wrench on coil j from coil k for constant moments: (mu0/4pi) Q (mu_k kron mu_j)."""
    mu_j = _validate_vec3(mu_j, "mu_j")
    mu_k = _validate_vec3(mu_k, "mu_k")
    u = MU0 / (4.0 * np.pi) * op.Q @ np.kron(mu_k, mu_j)
    return Wrench.from_vector(u)


def averaged_wrench(op, dj, dk):
    """First-order time-averaged wrench on coil j.

    Equal drive frequencies give u = (mu0/8pi) Q (s_k kron s_j + c_k kron c_j);
    distinct frequencies average to the zero wrench.
    """
    if not np.isclose(dj.omega, dk.omega, rtol=1e-12, atol=0.0):
        return Wrench.zero()
    bilinear = np.kron(dk.s, dj.s) + np.kron(dk.c, dj.c)
    u = MU0 / (8.0 * np.pi) * op.Q @ bilinear
    return Wrench.from_vector(u)


def dipole_field_wrench(r, mu_j, mu_k):
    """Classical closed-form oracle, independent of the Psi blocks.

    Field of dipole k at offset r: B = (mu0/4pi)(3(mu_k.rh)rh - mu_k)/d^3.
    Force on j is the gradient form of the dipole-dipole interaction and the
    torque is mu_j x B.  Used to cross-check Q against textbook physics.
    """
    r = _validate_vec3(r, "r")
    mu_j = _validate_vec3(mu_j, "mu_j")
    mu_k = _validate_vec3(mu_k, "mu_k")
    d = np.linalg.norm(r)
    check_separation(d)
    rh = r / d
    B = MU0 / (4.0 * np.pi) * (3.0 * (mu_k @ rh) * rh - mu_k) / d**3
    force = (
        3.0
        * MU0
        / (4.0 * np.pi * d**4)
        * (
            (mu_j @ rh) * mu_k
            + (mu_k @ rh) * mu_j
            + (mu_j @ mu_k) * rh
            - 5.0 * (mu_j @ rh) * (mu_k @ rh) * rh
        )
    )
    return Wrench(force, np.cross(mu_j, B))


def time_average_oracle(r, dj, dk, period, n_steps, hint=None):
    """Trapezoidal average of the instantaneous wrench over one common period.

    Independent validation of the closed-form averaging: samples
    mu(t) = s*sin + c*cos on n_steps subintervals of [0, period].  Warns when
    the period is not a near-integer multiple of both drive periods.
    """
    if n_steps < 64:
        raise ValueError("n_steps must be >= 64 for a trustworthy average")
    if period <= 0:
        raise ValueError("period must be positive")
    for w in (dj.omega, dk.omega):
        cycles = period * abs(w) / (2.0 * np.pi)
        if abs(cycles - round(cycles)) > 1e-6:
            warnings.warn(
                "averaging window is not a whole number of drive periods; "
                "frequencies may be incommensurate",
                stacklevel=2,
            )
    # a zero hint selects the frame builder's deterministic perpendicular
    op = interaction_operator(r, np.zeros(3) if hint is None else hint)
    ts = np.linspace(0.0, period, n_steps + 1)
    mj = np.sin(dj.omega * ts)[:, None] * dj.s + np.cos(dj.omega * ts)[:, None] * dj.c
    mk = np.sin(dk.omega * ts)[:, None] * dk.s + np.cos(dk.omega * ts)[:, None] * dk.c
    # kron(mu_k, mu_j) for every sample, then trapezoid over the window
    bilinear = np.einsum("ti,tj->tij", mk, mj).reshape(n_steps + 1, 9)
    u = MU0 / (4.0 * np.pi) * bilinear @ op.Q.T
    avg = np.trapezoid(u, ts, axis=0) / period
    return Wrench.from_vector(avg)
