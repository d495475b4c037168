"""J2-perturbed linearized relative motion and stable relative orbits.

Linearized dynamics about a circular reference orbit whose in-plane and
cross-track frequencies are J2-corrected (omega_xy = c_- * omega_o and
omega_z near omega_zref).  The homogeneous solution is closed form; a pair
of frequencies that differ slightly makes a naively closed orbit drift in z,
and that mismatch plus the short-period part of the J2 gravity-gradient
tensor form the residual disturbance field used by the swarm analysis.  The
central body is the Earth (MU_EARTH, R_EARTH).
"""

from dataclasses import dataclass

import numpy as np

MU_EARTH = 3.986004418e14      # m^3/s^2
R_EARTH = 6378137.0            # m
J2_COEFF = 1.08263e-3
#: J2 strength k_J2 = (3/2) J2 mu R_E^2, m^5/s^2
K_J2 = 1.5 * J2_COEFF * MU_EARTH * R_EARTH**2


@dataclass(frozen=True)
class OrbitContext:
    """Reference-orbit constants of the linearized relative dynamics."""

    r_ref: float
    incl: float
    theta0: float
    k_j2: float
    omega_o: float
    s_j2: float
    c_plus: float
    c_minus: float
    omega_xy: float
    omega_z: float

    @property
    def period(self):
        """In-plane relative-orbit period 2*pi/omega_xy (s)."""
        return 2.0 * np.pi / self.omega_xy


@dataclass(frozen=True)
class RelativeElements:
    """Integration constants of the relative motion, referenced to t = 0.

    The in-plane/cross-track oscillations are stored in polar form; the
    Cartesian constants are c2 = r_xy cos(theta_xy), c3 = r_xy sin(theta_xy)
    and likewise (c5, c6) for the cross-track pair.
    """

    c1: float
    c4: float
    r_xy: float
    theta_xy: float
    r_z: float
    theta_z: float


@dataclass(frozen=True)
class StablePlane:
    """Orientation/size of a closed relative orbit: elevation angle theta_p,
    z-to-in-plane phase offset theta_z_xy, in-plane size r_xyd (m)."""

    theta_p: float
    theta_z_xy: float
    r_xyd: float

    def __post_init__(self):
        if not self.r_xyd > 0:
            raise ValueError("r_xyd must be positive")
        for name in ("theta_p", "theta_z_xy", "r_xyd"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"StablePlane.{name} must be finite")
        if abs(np.tan(self.theta_p)) < 1e-12:
            raise ValueError("theta_p must have nonzero tangent")
        if abs(np.cos(np.arctan(2.0 * np.tan(self.theta_z_xy)))) < 1e-12:
            raise ValueError("theta_z_xy too close to +-90 deg")


def make_context(altitude, incl, theta0, k_j2=K_J2):
    """Orbit constants for a circular Earth reference orbit at the given altitude (m).

    k_j2 = 0 recovers the unperturbed limit (c_+- = 1, omega_xy = omega_z =
    omega_o).  Raises ValueError for a non-finite input, an altitude not > 0
    or too large for a finite orbit period, and when the J2 correction would
    exceed the linearization's validity (|s_J2| >= 1).
    """
    if not (np.isfinite([altitude, incl, theta0, k_j2]).all() and altitude > 0):
        raise ValueError("altitude, incl, theta0 and k_j2 must be finite, and altitude > 0")
    r_ref = R_EARTH + float(altitude)
    try:
        omega_o = np.sqrt(MU_EARTH / r_ref**3)
    except OverflowError:  # r_ref^3 past the float range; below it, omega_o > 1e-147
        raise ValueError(f"altitude {altitude!r} m gives no finite orbit period") from None
    s_j2 = k_j2 * (1.0 + 3.0 * np.cos(2.0 * incl)) / (4.0 * MU_EARTH * r_ref**2)
    if abs(s_j2) >= 1.0:
        raise ValueError(f"|s_J2| = {abs(s_j2):.3e} >= 1: J2 correction out of range")
    c_plus = np.sqrt(1.0 + s_j2)
    c_minus = np.sqrt(1.0 - s_j2)
    omega_xy = c_minus * omega_o  # c_minus > 1e-8, so the period 2 pi/omega_xy is finite
    omega_z = omega_o * (c_plus + k_j2 * np.cos(incl) ** 2 / (MU_EARTH * r_ref**2))
    return OrbitContext(
        r_ref=r_ref, incl=incl, theta0=theta0, k_j2=k_j2, omega_o=omega_o, s_j2=s_j2,
        c_plus=c_plus, c_minus=c_minus, omega_xy=omega_xy, omega_z=omega_z,
    )


def drift_rate(ctx):
    """Along-track drift coefficient eps_2 = (3 + 5 s_J2)/(c_+ c_-) * omega_xy."""
    return (3.0 + 5.0 * ctx.s_j2) / (ctx.c_plus * ctx.c_minus) * ctx.omega_xy


def relative_elements(state, ctx):
    """Integration constants from a relative state [x, y, z, vx, vy, vz] at t = 0."""
    state = np.asarray(state, dtype=float)
    if state.shape != (6,) or not np.all(np.isfinite(state)):
        raise ValueError("state must be a finite 6-vector")
    x, y, z, vx, vy, vz = state
    xb, yb = ctx.c_plus * x, ctx.c_minus * y
    vxb, vyb = ctx.c_plus * vx, ctx.c_minus * vy
    c1 = ctx.c_plus / ctx.c_minus**2 * (2.0 * xb + vyb / ctx.omega_xy)
    c4 = (yb - 2.0 * vxb / ctx.omega_xy) / ctx.c_minus
    c2 = (yb - ctx.c_minus * c4) / 2.0
    c3 = xb - 2.0 * ctx.c_plus * c1
    c5 = vz / ctx.omega_z
    c6 = z
    return RelativeElements(
        c1=float(c1), c4=float(c4),
        r_xy=float(np.hypot(c2, c3)), theta_xy=float(np.arctan2(c3, c2)),
        r_z=float(np.hypot(c5, c6)), theta_z=float(np.arctan2(c6, c5)),
    )


def propagate_analytic_state(elems, ctx, t):
    """Closed-form state [x, y, z, vx, vy, vz] at time(s) t; t may be an array."""
    t = np.asarray(t, dtype=float)
    e2 = drift_rate(ctx)
    wxy, wz = ctx.omega_xy, ctx.omega_z
    ph_xy = wxy * t + elems.theta_xy
    ph_z = wz * t + elems.theta_z
    x = 2.0 * elems.c1 + elems.r_xy * np.sin(ph_xy) / ctx.c_plus
    y = elems.c4 - e2 * elems.c1 * t + 2.0 * elems.r_xy * np.cos(ph_xy) / ctx.c_minus
    z = elems.r_z * np.sin(ph_z)
    vx = elems.r_xy * wxy * np.cos(ph_xy) / ctx.c_plus
    vy = -e2 * elems.c1 - 2.0 * elems.r_xy * wxy * np.sin(ph_xy) / ctx.c_minus
    vz = elems.r_z * wz * np.cos(ph_z)
    return np.stack([x, y, z, vx, vy, vz], axis=-1)


def propagate_analytic(elems, ctx, t):
    """Closed-form relative position at time(s) t."""
    return propagate_analytic_state(elems, ctx, t)[..., :3]


def desired_trajectory(plane, ctx, t):
    """Closed relative orbit on the given plane with omega_z forced to omega_xy.

    Components (theta_xy = 0 convention):
        x = (r_xyd / c_+) sin(wt)
        y = (2 r_xyd / c_-) cos(wt)
        z = (r_xyd / tan theta_p) (cos theta_z_xy / cos theta_z) sin(wt + theta_z)
    with theta_z = arctan(2 tan theta_z_xy); periodic with period 2*pi/omega_xy.
    Outside the range of check_trajectory_range a sample overflows, or its
    direction is lost to rounding.
    """
    t = np.asarray(t, dtype=float)
    w = ctx.omega_xy
    th_z = np.arctan(2.0 * np.tan(plane.theta_z_xy))
    cos_ratio = np.cos(plane.theta_z_xy) / np.cos(th_z)
    x = plane.r_xyd * np.sin(w * t) / ctx.c_plus
    y = 2.0 * plane.r_xyd * np.cos(w * t) / ctx.c_minus
    z = plane.r_xyd / np.tan(plane.theta_p) * cos_ratio * np.sin(w * t + th_z)
    return np.stack([x, y, z], axis=-1)


def z_amplitude(plane):
    """Cross-track amplitude r_zd implied by the plane parameters."""
    th_z = np.arctan(2.0 * np.tan(plane.theta_z_xy))
    return plane.r_xyd / np.tan(plane.theta_p) * np.cos(plane.theta_z_xy) / np.cos(th_z)


def check_trajectory_range(plane, ctx):
    """Raise ValueError unless the desired trajectory's in-plane amplitudes
    r_xyd / c_+ and 2 r_xyd / c_- are normal doubles and r_zd is finite.  Past
    that range a sample overflows; below it |(x, y)| may be subnormal, and the
    rounding of its components alone turns its direction."""
    r = plane.r_xyd
    with np.errstate(over="ignore"):
        in_plane = np.array([r / ctx.c_plus, 2.0 * r / ctx.c_minus])
        r_zd = z_amplitude(plane)
    if not (np.all((in_plane >= np.finfo(float).tiny) & (in_plane < np.inf)) and np.isfinite(r_zd)):
        raise ValueError(f"r_xyd = {r!r} m gives a trajectory amplitude outside the normal double range")


def freq_mismatch_disturbance(r_zd, theta_z, ctx, t):
    """Cross-track acceleration from driving z at omega_xy instead of omega_z:

        d_fz = r_zd (omega_xy^2 sin(omega_xy t + theta_z)
                     - omega_z^2 sin(omega_z t + theta_z)),  m/s^2.
    """
    t = np.asarray(t, dtype=float)
    wxy, wz = ctx.omega_xy, ctx.omega_z
    return r_zd * (wxy**2 * np.sin(wxy * t + theta_z) - wz**2 * np.sin(wz * t + theta_z))


def j2_core_matrix(ctx, t):
    """Zero-trace symmetric short-period J2 gravity-gradient residual (1/s^2).

    Evaluated at argument of latitude theta = theta0 + omega_z * t.
    """
    th = ctx.theta0 + ctx.omega_z * np.asarray(t, dtype=float)
    si2 = np.sin(ctx.incl) ** 2
    s2i = np.sin(2.0 * ctx.incl)
    c2t, s2t = np.cos(2.0 * th), np.sin(2.0 * th)
    st, ct = np.sin(th), np.cos(th)
    pref = ctx.k_j2 / (2.0 * ctx.r_ref**5)
    K = np.empty(np.shape(th) + (3, 3))
    K[..., 0, 0] = 12.0 * si2 * c2t
    K[..., 0, 1] = K[..., 1, 0] = 4.0 * si2 * s2t
    K[..., 0, 2] = K[..., 2, 0] = 4.0 * s2i * st
    K[..., 1, 1] = -7.0 * si2 * c2t
    K[..., 1, 2] = K[..., 2, 1] = -s2i * ct
    K[..., 2, 2] = -5.0 * si2 * c2t
    return pref * K


def j2_disturbance_matrix(ctx, t):
    """Full position-proportional disturbance generator K_orb(t) (1/s^2).

    Core J2 residual plus the (3,3) frequency-mismatch term -(omega_z^2 -
    omega_xy^2); the disturbance force on a satellite at relative position p
    is m_sat * K_orb(t) @ p.
    """
    K = j2_core_matrix(ctx, t)
    K[..., 2, 2] += -(ctx.omega_z**2 - ctx.omega_xy**2)
    return K


def integrate_dynamics(state0, ctx, u_fn, d_fn, T, dt):
    """Fixed-step RK4 of the linearized relative dynamics with forcing.

    u_fn(t, state) and d_fn(t, state) return control/disturbance accelerations
    (m/s^2).  Returns (times, states) including both endpoints.  dt must
    resolve the orbit (dt <= period/1000).
    """
    if dt > ctx.period / 1000.0:
        raise ValueError(f"dt = {dt:.3f} s too coarse; need <= period/1000")
    state0 = np.asarray(state0, dtype=float)
    wxy, wz = ctx.omega_xy, ctx.omega_z
    s, cp, cm = ctx.s_j2, ctx.c_plus, ctx.c_minus

    def rhs(t, X):
        a = np.zeros(3) if u_fn is None else np.asarray(u_fn(t, X), dtype=float)
        d = np.zeros(3) if d_fn is None else np.asarray(d_fn(t, X), dtype=float)
        x, y, z, vx, vy, vz = X
        xb, yb = cp * x, cm * y
        vxb, vyb = cp * vx, cm * vy
        axb = (
            2.0 * wxy * vyb
            + 3.0 * wxy**2 * xb
            + 4.0 * wxy**2 * s / cm**2 * (2.0 * xb + vyb / wxy)
            + cp * (a[0] + d[0])
        )
        ayb = -2.0 * wxy * vxb + cm * (a[1] + d[1])
        az = -(wz**2) * z + a[2] + d[2]
        return np.array([vx, vy, vz, axb / cp, ayb / cm, az])

    n_steps = int(np.ceil(T / dt - 1e-12))
    h = T / n_steps
    times = np.linspace(0.0, T, n_steps + 1)
    states = np.empty((n_steps + 1, 6))
    states[0] = state0
    X = state0.copy()
    for i in range(n_steps):
        t = times[i]
        k1 = rhs(t, X)
        k2 = rhs(t + h / 2.0, X + h / 2.0 * k1)
        k3 = rhs(t + h / 2.0, X + h / 2.0 * k2)
        k4 = rhs(t + h, X + h * k3)
        X = X + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = X
    return times, states
