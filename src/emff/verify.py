"""Seeded self-verification suites, shared by the CLI and the acceptance tests.

Each suite runs a batch of randomized consistency checks against an
independent oracle (numeric time averaging, brute-force optimization,
telescoping sums, RK4 integration).  It returns per-case failures and, in
"worst", the measured extreme of every quantity it bounds, oriented so that
larger is worse.  A case that raises SolverError is a failure and adds no
value.  A single 64-bit seed makes every suite reproducible; per-suite seeds
are derived from it so suites can run standalone or together with identical
outcomes.
"""

import time
import zlib

import numpy as np

from . import allocation, brigade, magnetics, orbit
from .dual import DEFAULT_TOL, SolverError


def _suite_rng(seed, name):
    # stable per-suite stream: crc32 keys are process-independent
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def _result(suite, cases):
    return {"suite": suite, "cases": cases, "failures": [], "worst": {}}


def _check(result, case, key, value, bound):
    """Record value in result["worst"][key]; a value over bound (or NaN)
    fails the case."""
    value = float(value)
    result["worst"][key] = float(np.maximum(result["worst"].get(key, -np.inf), value))
    if not value <= bound:
        result["failures"].append(f"case {case}: {key} {value:.3e} exceeds {bound:g}")


def _random_geometry(rng):
    r = rng.normal(size=3)
    r *= rng.uniform(0.5, 5.0) / np.linalg.norm(r)
    return r, rng.normal(size=3)


def _random_waveform(rng, omega):
    return magnetics.DipoleWaveform(
        s=rng.normal(scale=10.0, size=3), c=rng.normal(scale=10.0, size=3), omega=omega
    )


def _forward_case(rng):
    """A feasible command generated forward from random unit-frequency
    waveforms: (r, hint, Q, d_j, d_k, u) with u = averaged_wrench(Q, d_j, d_k)."""
    r, hint = _random_geometry(rng)
    Q = magnetics.interaction_operator(r, hint)
    dj, dk = _random_waveform(rng, 1.0), _random_waveform(rng, 1.0)
    return r, hint, Q, dj, dk, magnetics.averaged_wrench(Q, dj, dk)


def suite_averaging(cases=25, seed=0):
    """Closed-form averaging vs numeric trapezoid; cross-frequency decoupling;
    Newton pairs and the torque-pair identity via the textbook oracle."""
    rng = _suite_rng(seed, "averaging")
    result = _result("averaging", cases)
    omega = 2.0 * np.pi
    period = 1.0
    for case in range(cases):
        r, hint = _random_geometry(rng)
        dj = _random_waveform(rng, omega)
        dk = _random_waveform(rng, omega)
        Q = magnetics.interaction_operator(r, hint)
        closed = magnetics.averaged_wrench(Q, dj, dk).as_vector()
        numeric = magnetics.time_average_oracle(r, dj, dk, period, 512, hint=hint).as_vector()
        ref = max(np.linalg.norm(closed), 1e-30)
        _check(result, case, "averaging_error", np.linalg.norm(closed - numeric) / ref, 1e-8)
        dk2 = magnetics.DipoleWaveform(s=dk.s, c=dk.c, omega=2.0 * omega)
        cross = magnetics.time_average_oracle(r, dj, dk2, period, 512, hint=hint).as_vector()
        _check(result, case, "leakage", np.linalg.norm(cross) / ref, 1e-12)
        # instantaneous physics vs the Psi-block route
        mu_j, mu_k = rng.normal(scale=8.0, size=(2, 3))
        psi_w = magnetics.instantaneous_wrench(Q, mu_j, mu_k).as_vector()
        text_w = magnetics.dipole_field_wrench(r, mu_j, mu_k).as_vector()
        text_ref = max(np.linalg.norm(text_w), 1e-30)
        _check(result, case, "psi_vs_dipole", np.linalg.norm(psi_w - text_w) / text_ref, 1e-10)
        f_jk = text_w[:3]
        t_jk = text_w[3:]
        back = magnetics.dipole_field_wrench(-r, mu_k, mu_j).as_vector()
        f_ref = max(np.linalg.norm(f_jk), 1e-30)
        _check(result, case, "action_reaction", np.linalg.norm(f_jk + back[:3]) / f_ref, 1e-12)
        tq_sum = t_jk + back[3:] + np.cross(r, f_jk)
        t_ref = max(np.linalg.norm(t_jk), 1e-30)
        _check(result, case, "torque_pair", np.linalg.norm(tq_sum) / t_ref, 1e-10)
    return result


def suite_duality(cases=100, seed=0):
    """Strong duality on forward-generated feasible commands: relative gap,
    wrench reproduction, and weak duality against the generating point."""
    rng = _suite_rng(seed, "duality")
    result = _result("duality", cases)
    for case in range(cases):
        r, hint, _, dj, dk, u = _forward_case(rng)
        J_gen = 0.5 * (dj.amplitude_squared + dk.amplitude_squared)
        try:
            sol = allocation.allocate(r, hint, u, omega=1.0)
        except SolverError as exc:
            result["failures"].append(f"case {case}: {exc}")
            continue
        _check(result, case, "gap", sol.gap, DEFAULT_TOL)
        residual = np.linalg.norm(sol.wrench_residual) / max(u.norm, 1e-30)
        _check(result, case, "wrench_residual", residual, 1e-8)
        _check(result, case, "weak_duality", sol.J_d / J_gen - 1.0, 1e-9)
    return result


def suite_bruteforce(cases=10, seed=0):
    """Global-optimality oracle: the batched multistart Newton search on the
    constraint manifold (20 restarts) never beats the dual bound by more than
    1e-4 relative (undercut = 1 - J_bf/J_d)."""
    rng = _suite_rng(seed, "bruteforce")
    result = _result("bruteforce", cases)
    for case in range(cases):
        r, hint, _, _, _, u = _forward_case(rng)
        case_seed = int(rng.integers(2**31))
        try:
            sol = allocation.allocate(r, hint, u, omega=1.0)
            brute = allocation.brute_force_allocate(r, hint, u, restarts=20, seed=case_seed)
        except SolverError as exc:
            result["failures"].append(f"case {case}: {exc}")
            continue
        _check(result, case, "undercut", 1.0 - brute.J_p / sol.J_d, 1e-4)
    return result


def suite_telescoping(cases=12, seed=0):
    """Closed-form brigade commands vs direct sums, equilibrium assembly, and
    physical realization of a command through the magnetic model."""
    rng = _suite_rng(seed, "telescoping")
    result = _result("telescoping", cases)
    for case in range(cases):
        n = int(rng.integers(1, 21))
        cfg = brigade.GridConfig(n=n, m_sys=rng.uniform(10.0, 500.0), d_sat=rng.uniform(1.0, 30.0))
        K = rng.normal(scale=1e-8, size=(3, 3))
        K = 0.5 * (K + K.T)
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        field = brigade.DisturbanceField(k_orb=lambda t: K, p_hat=lambda t: p, period=6000.0)
        sum_error = 0.0
        for j in range(2, n + 2):
            closed = brigade.pair_command(cfg, field, j, 0.0)
            summed = brigade.telescoping_oracle(cfg, field, j, 0.0)
            ref = max(np.linalg.norm(summed), 1e-300)
            sum_error = np.maximum(sum_error, np.linalg.norm(closed - summed) / ref)
        _check(result, case, "telescoping_error", sum_error, 1e-12)
        res = brigade.equilibrium_residuals(cfg, field, 0.0)
        edge = np.linalg.norm(cfg.m_sat * n * cfg.d_sat * (K @ p))
        edge_ref = max(edge, 1e-300)
        _check(result, case, "force_equilibrium", np.abs(res["force"]).max() / edge_ref, 1e-10)
        center = np.linalg.norm(res["center_force"]) / edge_ref
        _check(result, case, "center_force", center, 1e-12)
        mask = res["index"] != 0
        tau_scale = max(np.abs(res["torque"]).max(), edge * cfg.d_sat, 1e-300)
        tau_off = np.abs(res["torque"][mask]).max() / tau_scale
        _check(result, case, "torque_equilibrium", tau_off, 1e-10)
        # realize the strongest command with actual coils and average the
        # physical wrench through the Psi-independent oracle
        u_cmd = brigade.pair_command(cfg, field, 2, 0.0)
        r = -cfg.d_sat * p
        try:
            sol = allocation.allocate(r, np.cross(u_cmd[:3], r), u_cmd, omega=2.0 * np.pi)
        except SolverError as exc:
            result["failures"].append(f"case {case}: {exc}")
            continue
        ts = np.linspace(0.0, 1.0, 257)
        mu_j = sol.dipole_j.evaluate(ts)
        mu_k = sol.dipole_k.evaluate(ts)
        wr = np.stack(
            [magnetics.dipole_field_wrench(r, mu_j[i], mu_k[i]).as_vector() for i in range(len(ts))]
        )
        avg = np.trapezoid(wr, ts, axis=0) / 1.0
        realized = np.linalg.norm(avg - u_cmd) / max(np.linalg.norm(u_cmd), 1e-300)
        _check(result, case, "realization_error", realized, 1e-6)
    return result


def suite_orbit(cases=6, seed=0):
    """Analytic propagation vs RK4, trajectory closure, element roundtrips,
    and structure of the disturbance generator (the J2 core's trace and
    symmetry at 25 times per case)."""
    rng = _suite_rng(seed, "orbit")
    result = _result("orbit", cases)
    for case in range(cases):
        alt = rng.uniform(400e3, 900e3)
        incl = rng.uniform(0.1, 1.4)
        ctx = orbit.make_context(alt, incl, rng.uniform(0.0, 2.0 * np.pi))
        elems = orbit.RelativeElements(
            c1=0.0, c4=0.0,
            r_xy=rng.uniform(20.0, 200.0), theta_xy=rng.uniform(-np.pi, np.pi),
            r_z=rng.uniform(20.0, 200.0), theta_z=rng.uniform(-np.pi, np.pi),
        )
        state0 = orbit.propagate_analytic_state(elems, ctx, 0.0)
        T = ctx.period
        _, states = orbit.integrate_dynamics(state0, ctx, None, None, T, T / 4000.0)
        err = np.linalg.norm(states[-1][:3] - orbit.propagate_analytic(elems, ctx, T))
        _check(result, case, "rk4_error_m", err, 1e-6)
        back = orbit.relative_elements(state0, ctx)
        roundtrip = max(
            abs(back.r_xy - elems.r_xy) / elems.r_xy, abs(back.r_z - elems.r_z) / elems.r_z
        )
        _check(result, case, "roundtrip_error", roundtrip, 1e-9)
        plane = orbit.StablePlane(
            theta_p=rng.uniform(0.2, 1.2), theta_z_xy=rng.uniform(-0.6, 0.6),
            r_xyd=rng.uniform(50.0, 500.0),
        )
        closure = np.linalg.norm(
            orbit.desired_trajectory(plane, ctx, T) - orbit.desired_trajectory(plane, ctx, 0.0)
        )
        _check(result, case, "closure_m", closure, 1e-9)
        K = orbit.j2_core_matrix(ctx, np.linspace(0.0, T, 25))
        trace = np.abs(np.trace(K, axis1=-2, axis2=-1))
        scale = np.maximum(np.abs(K).max(axis=(-2, -1)), 1e-300)
        _check(result, case, "core_trace", (trace / scale).max(), 1e-15)
        _check(result, case, "core_asymmetry", np.abs(K - K.swapaxes(-2, -1)).max(), 0.0)
        ctx0 = orbit.make_context(alt, incl, 0.0, k_j2=0.0)
        d = orbit.freq_mismatch_disturbance(100.0, 0.3, ctx0, np.linspace(0.0, T, 100))
        _check(result, case, "mismatch_at_zero_j2", np.abs(d).max(), 0.0)
    return result


_SUITE_FN = {
    "averaging": suite_averaging,
    "duality": suite_duality,
    "bruteforce": suite_bruteforce,
    "telescoping": suite_telescoping,
    "orbit": suite_orbit,
}
SUITES = tuple(_SUITE_FN)


def run_suites(names=SUITES, seed=0, cases=None):
    """Run the named suites; returns a summary dict with per-suite results
    ("failures", "worst"), each with its wall time in "seconds"."""
    results = []
    for name in names:
        if name not in _SUITE_FN:
            raise ValueError(f"unknown suite '{name}' (have {sorted(_SUITE_FN)})")
        kwargs = {"seed": seed}
        if cases is not None:
            kwargs["cases"] = cases
        start = time.perf_counter()
        result = _SUITE_FN[name](**kwargs)
        result["seconds"] = time.perf_counter() - start
        results.append(result)
    passed = all(not r["failures"] for r in results)
    return {"passed": passed, "seed": seed, "suites": results}
