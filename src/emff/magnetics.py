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
from dataclasses import dataclass

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
    """Separation outside the far-field model's range (see check_separation)."""


def _validate_stack3(v, name):
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"{name} must be a (..., 3) stack of vectors, got shape {v.shape}")
    if not np.isfinite(v).all():
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

    Every field must be finite and positive, and so must power_scale.
    """

    turns: float
    coil_radius: float
    wire_radius: float
    resistivity: float

    def __post_init__(self):
        for name in ("turns", "coil_radius", "wire_radius", "resistivity"):
            if not getattr(self, name) > 0:
                raise ValueError(f"CoilDesign.{name} must be strictly positive")
            if not getattr(self, name) < np.inf:
                raise ValueError(f"CoilDesign.{name} must be finite")
        with np.errstate(all="ignore"):  # finite fields can square past the float range
            try:
                scale = self.power_scale
            except (OverflowError, ZeroDivisionError):
                scale = np.inf
        if not 0.0 < scale < np.inf:
            raise ValueError("CoilDesign fields give no finite, positive power_scale")

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


def psi_stack(d):
    """Line-of-sight interaction blocks [Psi_f/d^4; Psi_tau/d^3] as one 6x9 array."""
    return np.concatenate([PSI_FORCE / d**4, PSI_TORQUE / d**3])


def check_separation(d):
    """Raise ZeroSeparationError when any separation in d is at most
    MIN_SEPARATION, or so large that its fourth power is not a finite double."""
    d = np.asarray(d, dtype=float)
    if (d <= MIN_SEPARATION).any():
        raise ZeroSeparationError(f"separation {np.min(d):.3e} m <= {MIN_SEPARATION} m")
    with np.errstate(over="ignore"):
        if not np.isfinite(d**4).all():
            raise ZeroSeparationError(f"separation {np.max(d):.3e} m: its fourth power overflows")


#: Index rotations of the last axis: (1, 2, 0) and (2, 0, 1).
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a, b):
    """a x b over the last axis, with np.cross's products and differences in
    its order: (a1 b2 - a2 b1, a2 b0 - a0 b2, a0 b1 - a1 b0)."""
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)


def _norm(x):
    """Euclidean norms over the last axis, bit for bit as np.linalg.norm(x, axis=-1)."""
    return np.sqrt((x * x).sum(axis=-1))


def build_los_frame(r, hint):
    """Rotations whose columns are the line-of-sight axes of separations r.

    r and hint are (..., 3) stacks (broadcast against each other); the result
    is (..., 3, 3).  Column 1 is r/||r||; column 2 is (r x hint) normalized,
    falling back to a deterministic perpendicular (r/||r|| crossed with the
    world axis of its smallest component) when hint is zero or (near-)parallel
    to r; column 3 completes the right-handed triad.  Raises
    ZeroSeparationError when check_separation rejects any separation, also
    one past the double range.
    """
    r, hint = _validate_stack3(r, "r"), _validate_stack3(hint, "hint")
    if r.shape != hint.shape:
        r, hint = np.broadcast_arrays(r, hint)
    return _los_frame(r, hint)


def _los_frame(r, hint):
    """build_los_frame of finite float stacks r and hint of one shape."""
    # hint scaled exactly by a power of two, so no square leaves range; any
    # separation whose square does (d reads inf or below 1e-154) fails check_separation
    hint = np.ldexp(hint, -np.frexp(np.abs(hint).max(axis=-1))[1][..., None])
    with np.errstate(over="ignore", under="ignore"):
        d = _norm(r)
    check_separation(d)
    ex = r / d[..., None]
    cross = _cross(r, hint)
    length = _norm(cross)
    parallel = length <= TOL_PARALLEL * d * _norm(hint)
    if parallel.any():
        axis = np.eye(3)[np.argmin(np.abs(ex), axis=-1)]
        cross = np.where(parallel[..., None], _cross(ex, axis), cross)
        length = _norm(cross)
    C = np.empty(r.shape + (3,))
    C[..., 0] = ex
    C[..., 1] = ey = cross / length[..., None]
    C[..., 2] = _cross(ex, ey)
    return C


def interaction_operator(r, hint):
    """The (6, 9) interaction operator Q in the frame r and hint are expressed in.

    Q = (I2 kron C) [Psi_f; Psi_tau] (C^T kron C^T) with C the line-of-sight
    rotation, so wrenches and dipoles transform covariantly with the inputs.
    Q maps mu_k kron mu_j onto the pre-factor-free wrench on coil j.
    """
    r = _validate_vec3(r, "r")
    C = _los_frame(r, _validate_vec3(hint, "hint"))
    return np.kron(np.eye(2), C) @ psi_stack(np.linalg.norm(r)) @ np.kron(C.T, C.T)


def instantaneous_wrench(Q, mu_j, mu_k):
    """Wrench on coil j from coil k for constant moments: (mu0/4pi) Q (mu_k kron mu_j)."""
    mu_j = _validate_vec3(mu_j, "mu_j")
    mu_k = _validate_vec3(mu_k, "mu_k")
    u = MU0 / (4.0 * np.pi) * Q @ np.kron(mu_k, mu_j)
    return Wrench.from_vector(u)


def averaged_wrench(Q, dj, dk):
    """First-order time-averaged wrench on coil j.

    Equal drive frequencies give u = (mu0/8pi) Q (s_k kron s_j + c_k kron c_j);
    distinct frequencies average to the zero wrench.
    """
    if not np.isclose(dj.omega, dk.omega, rtol=1e-12, atol=0.0):
        return Wrench.zero()
    bilinear = np.kron(dk.s, dj.s) + np.kron(dk.c, dj.c)
    u = MU0 / (8.0 * np.pi) * Q @ bilinear
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

    Independent validation of the closed-form averaging: samples each mu(t)
    (DipoleWaveform.evaluate) on n_steps subintervals of [0, period].  Warns
    when the period is not a near-integer multiple of both drive periods.
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
    Q = interaction_operator(r, np.zeros(3) if hint is None else hint)
    ts = np.linspace(0.0, period, n_steps + 1)
    mj, mk = dj.evaluate(ts), dk.evaluate(ts)
    # kron(mu_k, mu_j) for every sample, then trapezoid over the window
    bilinear = np.einsum("ti,tj->tij", mk, mj).reshape(n_steps + 1, 9)
    u = MU0 / (4.0 * np.pi) * bilinear @ Q.T
    avg = np.trapezoid(u, ts, axis=0) / period
    return Wrench.from_vector(avg)
