"""Batch-analysis command line: allocate, orbit, scan, verify.

Scenario files are JSON with units spelled out in the key names (altitude_km,
r_l_m, ...) because unit mistakes dominate failure modes in this domain.
Numeric output is CSV (scan/orbit) or JSON (allocate/verify) at 17
significant digits, and the output bytes are deterministic (verify: for a
fixed seed).  `scan` runs serially in one process: it builds the orbit field,
coil and time grid once and computes the power reports of every distinct n,
in ascending order, in one power.compute_power_reports call.  Every gap, of
a dual solve or a scan row, is held to dual.DEFAULT_TOL (1e-10); a scenario
may still say so as sampling.dual_tol, but no other value.  Exit codes: 0 ok,
1 usage error, 2 numeric failure.
"""

import argparse
import contextlib
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
DEFAULT_SAMPLING = {"time_samples": 720}
#: Keys each scenario section must give; grid also needs one of r_l_m, d_sat_m.
REQUIRED_KEYS = {
    "orbit": ("altitude_km", "inclination_deg"),
    "plane": ("theta_p_deg", "theta_z_xy_deg", "r_xyd_m"),
    "grid": ("n_list", "m_sys_kg"),
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


def load_scenario(path):
    """Parse and validate a scenario file; returns plain dicts with defaults
    filled, n_list and time_samples as ints."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise UsageError("scenario must be a JSON object")
    for section, keys in REQUIRED_KEYS.items():
        if not isinstance(raw.get(section), dict):
            raise UsageError(f"scenario needs a '{section}' section (a JSON object)")
        missing = [f"{section}.{k}" for k in keys if k not in raw[section]]
        if missing:
            raise UsageError(f"scenario missing {', '.join(missing)}")
    grid = raw["grid"]
    if ("r_l_m" in grid) == ("d_sat_m" in grid):
        raise UsageError("grid must give exactly one of r_l_m or d_sat_m")
    if not isinstance(grid["n_list"], list) or not grid["n_list"]:
        raise UsageError("grid.n_list must be a nonempty list")
    for section in ("coil", "sampling", "overrides"):
        if not isinstance(raw.get(section, {}), dict):
            raise UsageError(f"scenario section '{section}' must be a JSON object")
    sampling = {**DEFAULT_SAMPLING, **raw.get("sampling", {})}
    if sampling.pop("dual_tol", DEFAULT_TOL) != DEFAULT_TOL:
        raise UsageError(f"sampling.dual_tol must be {DEFAULT_TOL:g}: the dual is always"
                         f" solved at {DEFAULT_TOL:g}")
    sampling["time_samples"] = _count(sampling["time_samples"], "sampling.time_samples")
    return {
        "orbit": raw["orbit"],
        "plane": raw["plane"],
        "grid": {**grid, "n_list": [_count(n, "grid.n_list entry") for n in grid["n_list"]]},
        "coil": {**DEFAULT_COIL, **raw.get("coil", {})},
        "sampling": sampling,
        "overrides": raw.get("overrides", {}),
    }


def _context_from(scenario):
    orb = scenario["orbit"]
    kwargs = {}
    if "k_j2" in scenario["overrides"]:
        kwargs["k_j2"] = float(scenario["overrides"]["k_j2"])
    return orbit.make_context(
        altitude=float(orb["altitude_km"]) * 1e3,
        incl=np.deg2rad(float(orb["inclination_deg"])),
        theta0=np.deg2rad(float(orb.get("theta0_deg", 0.0))),
        **kwargs,
    )


def _plane_from(scenario):
    pl = scenario["plane"]
    return orbit.StablePlane(
        theta_p=np.deg2rad(float(pl["theta_p_deg"])),
        theta_z_xy=np.deg2rad(float(pl["theta_z_xy_deg"])),
        r_xyd=float(pl["r_xyd_m"]),
    )


def _coil_from(scenario):
    c = scenario["coil"]
    return magnetics.CoilDesign(
        turns=float(c["turns"]),
        coil_radius=float(c["coil_radius_m"]),
        wire_radius=float(c["wire_radius_m"]),
        resistivity=float(c["resistivity_ohm_m"]),
    )


def _grid_config(scenario, n):
    grid = scenario["grid"]
    m_sys = float(grid["m_sys_kg"])
    if "r_l_m" in grid:
        return brigade.GridConfig.from_line_length(n, m_sys, float(grid["r_l_m"]))
    return brigade.GridConfig(n=n, m_sys=m_sys, d_sat=float(grid["d_sat_m"]))


def cmd_allocate(args):
    r = _parse_vec3(args.r, "r")
    force = _parse_vec3(args.force, "force") if args.force else np.zeros(3)
    torque = _parse_vec3(args.torque, "torque") if args.torque else np.zeros(3)
    u = magnetics.Wrench(force, torque)
    if args.hint:
        hint = _parse_vec3(args.hint, "hint")
    else:
        hint = np.cross(force, r)
        if np.linalg.norm(hint) == 0.0:
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
    pos = orbit.desired_trajectory(plane, ctx, ts)
    header = ["t_s", "x_m", "y_m", "z_m"]
    header += [f"K{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    header.append("K_core_trace")
    with _open_out(args.out) as fh:
        fh.write(",".join(header) + "\n")
        for i, t in enumerate(ts):
            K = orbit.j2_disturbance_matrix(ctx, t)
            core_trace = np.trace(orbit.j2_core_matrix(ctx, t))
            row = [t, *pos[i], *K.reshape(-1), core_trace]
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
    header = "n,N_l,r_l_m,chi_sys_kg,W_bar_W,W_oint_W,M_A2m4_per_kg,gamma_S"
    failed = False
    with _open_out(args.out) as fh:
        fh.write(header + "\n")
        for rep in reports:
            scale = max(np.abs(rep.w_star_unit).max(), 1e-300)
            if rep.peak_pair_violation > 1e-9 * scale:
                j_off, t_off = np.unravel_index(
                    np.argmax(rep.w_star_unit[1:] - rep.w_star_unit[0]),
                    rep.w_star_unit[1:].shape,
                )
                print(
                    f"peak consistency violated at n={rep.n} j={j_off + 3} "
                    f"t={rep.samples[t_off]:.3f}s: w*(j) exceeds w*(2) by "
                    f"{rep.peak_pair_violation:.3e}",
                    file=sys.stderr,
                )
                failed = True
            row = [rep.n, rep.n * 2 + 1, rep.r_l, rep.chi_sys, rep.W_bar, rep.W_oint, rep.M, rep.gamma_S]
            fh.write(",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row) + "\n")
    return 2 if failed else 0


def cmd_verify(args):
    names = verify.SUITES if "all" in args.suite else tuple(args.suite)
    summary = verify.run_suites(names=names, seed=args.seed, cases=args.cases)
    with _open_out(args.out) as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0 if summary["passed"] else 2


def build_parser():
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
        if args.command == "verify" and args.suite is None:
            args.suite = ["all"]
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        SolverError,
        allocation.RecoveryError,
        allocation.GapViolationError,
        allocation.NoFeasiblePointError,
        magnetics.ZeroSeparationError,
    ) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
