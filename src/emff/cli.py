"""Batch-analysis command line: allocate, orbit, scan, verify.

Scenario files are JSON with units spelled out in the key names (altitude_km,
r_l_m, ...) because unit mistakes dominate failure modes in this domain.
The one table SCENARIO describes the format: every section and key, each
key's default or its REQUIRED/OPTIONAL marker.  Every numeric field must be a
finite JSON number, not a string, bool or null, and a section or key not in
SCENARIO (a misspelling) is a usage error.
Numeric output is CSV (scan/orbit) or JSON (allocate/verify) at 17
significant digits, and the output bytes are deterministic (verify: for a
fixed seed).  `scan` runs serially in one process: it builds the orbit field,
coil and time grid once and computes the power reports of every distinct n,
in ascending order, in one power.compute_power_reports call.  Every gap, of
a dual solve or a scan row, is held to dual.DEFAULT_TOL (1e-10); a scenario
may still say so as sampling.dual_tol, but no other value.  The parser is
built once per process, on the first main call.  Exit codes: 0 ok, 1 usage
error, 2 numeric failure (SolverError or ZeroSeparationError).
"""

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import allocation, brigade, magnetics, orbit, power, verify
from .dual import DEFAULT_TOL, SolverError

DEFAULT_COIL = {
    "turns": 200.0,
    "coil_radius_m": 0.5,
    "wire_radius_m": 1.0e-3,
    "resistivity_ohm_m": 1.68e-8,
}
#: Markers of a key with no default: one a scenario must give, one it may give.
REQUIRED, OPTIONAL = object(), object()
#: The scenario format, section -> key -> default.  A section is required when
#: it has a REQUIRED key; grid also needs exactly one of r_l_m, d_sat_m.
SCENARIO = {
    "orbit": {"altitude_km": REQUIRED, "inclination_deg": REQUIRED, "theta0_deg": 0.0},
    "plane": {"theta_p_deg": REQUIRED, "theta_z_xy_deg": REQUIRED, "r_xyd_m": REQUIRED},
    "grid": {"n_list": REQUIRED, "m_sys_kg": REQUIRED, "r_l_m": OPTIONAL, "d_sat_m": OPTIONAL},
    "coil": DEFAULT_COIL,
    "overrides": {"k_j2": orbit.K_J2},
    "sampling": {"time_samples": 720, "dual_tol": DEFAULT_TOL},
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _fmt(x):
    return f"{float(x):.17g}"


@contextlib.contextmanager
def _open_out(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _parse_vec3(text, name):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"--{name} must be three comma-separated numbers") from exc
    if len(parts) != 3:
        raise UsageError(f"--{name} must have exactly three components")
    return np.array(parts)


def _count(value, name):
    """A positive integer count; integral floats such as 2.0 count too."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and float(value).is_integer() and value >= 1):
        raise UsageError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _number(value, name):
    """A finite JSON number (int or float, not bool) as a float; NaN, Infinity
    and integers beyond the float range are rejected."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise UsageError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def load_scenario(path):
    """Parse and validate a scenario file against SCENARIO; returns every
    section, each key in SCENARIO's order with its default filled in, n_list
    and time_samples as ints, dual_tol as given and every other value a float.
    A section or key outside SCENARIO (a misspelling) is a usage error."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise UsageError("scenario must be a JSON object")
    for section, values in raw.items():
        if section not in SCENARIO:
            raise UsageError(f"scenario has an unknown section '{section}'")
        if not isinstance(values, dict):
            raise UsageError(f"scenario section '{section}' must be a JSON object")
    unknown = [f"{s}.{k}" for s, keys in SCENARIO.items() for k in raw.get(s, {}) if k not in keys]
    if unknown:
        raise UsageError(f"scenario has unknown keys: {', '.join(unknown)}")
    scenario = {}
    for section, keys in SCENARIO.items():
        given = raw.get(section, {})
        required = [k for k, default in keys.items() if default is REQUIRED]
        if required and section not in raw:
            raise UsageError(f"scenario needs a '{section}' section (a JSON object)")
        missing = [f"{section}.{k}" for k in required if k not in given]
        if missing:
            raise UsageError(f"scenario missing {', '.join(missing)}")
        scenario[section] = {k: given.get(k, default) for k, default in keys.items()
                             if k in given or default is not OPTIONAL}
    grid, sampling = scenario["grid"], scenario["sampling"]
    if ("r_l_m" in grid) == ("d_sat_m" in grid):
        raise UsageError("grid must give exactly one of r_l_m or d_sat_m")
    if not isinstance(grid["n_list"], list) or not grid["n_list"]:
        raise UsageError("grid.n_list must be a nonempty list")
    if sampling["dual_tol"] != DEFAULT_TOL:
        raise UsageError(f"sampling.dual_tol must be {DEFAULT_TOL:g}: the dual is always"
                         f" solved at {DEFAULT_TOL:g}")
    sampling["time_samples"] = _count(sampling["time_samples"], "sampling.time_samples")
    grid["n_list"] = [_count(n, "grid.n_list entry") for n in grid["n_list"]]
    for section, values in scenario.items():
        values.update({k: _number(v, f"{section}.{k}") for k, v in values.items()
                       if k not in ("n_list", "time_samples", "dual_tol")})
    return scenario


def _context_from(scenario):
    orb = scenario["orbit"]
    return orbit.make_context(
        altitude=orb["altitude_km"] * 1e3,
        incl=np.deg2rad(orb["inclination_deg"]),
        theta0=np.deg2rad(orb["theta0_deg"]),
        k_j2=scenario["overrides"]["k_j2"],
    )


def _plane_from(scenario):
    pl = scenario["plane"]
    return orbit.StablePlane(
        theta_p=np.deg2rad(pl["theta_p_deg"]),
        theta_z_xy=np.deg2rad(pl["theta_z_xy_deg"]),
        r_xyd=pl["r_xyd_m"],
    )


def _coil_from(scenario):
    c = scenario["coil"]
    return magnetics.CoilDesign(
        turns=c["turns"],
        coil_radius=c["coil_radius_m"],
        wire_radius=c["wire_radius_m"],
        resistivity=c["resistivity_ohm_m"],
    )


def _grid_config(scenario, n):
    grid = scenario["grid"]
    if "r_l_m" in grid:
        return brigade.GridConfig.from_line_length(n, grid["m_sys_kg"], grid["r_l_m"])
    return brigade.GridConfig(n=n, m_sys=grid["m_sys_kg"], d_sat=grid["d_sat_m"])


def cmd_allocate(args):
    r = _parse_vec3(args.r, "r")
    force = _parse_vec3(args.force, "force") if args.force else np.zeros(3)
    torque = _parse_vec3(args.torque, "torque") if args.torque else np.zeros(3)
    u = magnetics.Wrench(force, torque)
    if args.hint:
        hint = _parse_vec3(args.hint, "hint")
    else:
        # force x r from copies scaled exactly by powers of two, so no product
        # overflows; the frame depends only on the hint's direction
        hint = np.cross(*(np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (force, r)))
        if not hint.any():
            hint = np.array([0.0, 0.0, 1.0])
    sol = allocation.allocate(r, hint, u, omega=args.omega, frame=args.frame)
    out = {
        "dipole_j": {"s": sol.dipole_j.s.tolist(), "c": sol.dipole_j.c.tolist()},
        "dipole_k": {"s": sol.dipole_k.s.tolist(), "c": sol.dipole_k.c.tolist()},
        "omega_rad_s": args.omega,
        "J_p_A2m4": sol.J_p,
        "J_d_A2m4": sol.J_d,
        "gap": sol.gap,
        "wrench_residual": sol.wrench_residual.tolist(),
    }
    with _open_out(args.out) as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


def cmd_orbit(args):
    scenario = load_scenario(args.scenario)
    ctx = _context_from(scenario)
    plane = _plane_from(scenario)
    ts = np.linspace(0.0, ctx.period, scenario["sampling"]["time_samples"])
    orbit.check_trajectory_range(plane, ctx)
    pos = orbit.desired_trajectory(plane, ctx, ts)
    header = ["t_s", "x_m", "y_m", "z_m"]
    header += [f"K{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    header.append("K_core_trace")
    K = orbit.j2_disturbance_matrix(ctx, ts).reshape(len(ts), 9)
    core_trace = np.trace(orbit.j2_core_matrix(ctx, ts), axis1=-2, axis2=-1)
    with _open_out(args.out) as fh:
        fh.write(",".join(header) + "\n")
        for i, t in enumerate(ts):
            row = [t, *pos[i], *K[i], core_trace[i]]
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return 0


def cmd_scan(args):
    scenario = load_scenario(args.scenario)
    ctx = _context_from(scenario)
    field = brigade.DisturbanceField.from_orbit(ctx, _plane_from(scenario))
    coil = _coil_from(scenario)
    grid = power.orbit_time_grid(ctx.period, scenario["sampling"]["time_samples"])
    cfgs = [_grid_config(scenario, n) for n in sorted(set(scenario["grid"]["n_list"]))]
    reports = power.compute_power_reports(cfgs, field, coil, grid)
    violated = [rep for rep in reports if rep.peak_pair_violation > 1e-9]
    for rep in violated:
        print(f"peak consistency violated at n={rep.n} j={rep.peak_pair_at[0]} t={rep.peak_pair_at[1]:.3f}s:"
              f" w*(j) exceeds w*(2) by {rep.peak_pair_violation:.3e} of the largest w*", file=sys.stderr)
    header = "n,N_l,r_l_m,chi_sys_kg,W_bar_W,W_oint_W,M_A2m4_per_kg,gamma_S"
    with _open_out(args.out) as fh:
        fh.write(header + "\n")
        for rep in reports:
            row = [rep.n, rep.n * 2 + 1, rep.r_l, rep.chi_sys, rep.W_bar, rep.W_oint, rep.M, rep.gamma_S]
            fh.write(",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row) + "\n")
    return 2 if violated else 0


def cmd_verify(args):
    names = verify.SUITES if args.suite is None or "all" in args.suite else tuple(args.suite)
    cases = None if args.cases is None else _count(args.cases, "--cases")
    summary = verify.run_suites(names=names, seed=args.seed, cases=cases)
    with _open_out(args.out) as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0 if summary["passed"] else 2


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared by every later
    call in the process; parse_args returns a fresh namespace each time."""
    parser = _Parser(prog="emff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="globally optimal dipole allocation for one pair")
    p_alloc.add_argument("--r", required=True, help="separation vector, m (x,y,z)")
    p_alloc.add_argument("--force", default=None, help="commanded force, N (x,y,z)")
    p_alloc.add_argument("--torque", default=None, help="commanded torque, N*m (x,y,z)")
    p_alloc.add_argument("--omega", type=float, default=1.0, help="drive frequency, rad/s")
    p_alloc.add_argument("--hint", default=None, help="frame hint vector (default: force x r)")
    p_alloc.add_argument("--frame", choices=("world", "los"), default="world")
    p_alloc.set_defaults(fn=cmd_allocate)

    p_orbit = sub.add_parser("orbit", help="sample the stable trajectory and disturbance matrix")
    p_orbit.add_argument("--scenario", required=True)
    p_orbit.set_defaults(fn=cmd_orbit)

    p_scan = sub.add_parser("scan", help="power metrics across swarm sizes")
    p_scan.add_argument("--scenario", required=True)
    p_scan.set_defaults(fn=cmd_scan)

    p_verify = sub.add_parser("verify", help="run randomized oracle suites")
    p_verify.add_argument(
        "--suite", action="append", default=None,
        help=f"suite name or 'all' (repeatable); one of {', '.join(verify.SUITES)}",
    )
    p_verify.add_argument("--cases", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(fn=cmd_verify)

    for p in (p_alloc, p_orbit, p_scan, p_verify):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, magnetics.ZeroSeparationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
