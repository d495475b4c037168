"""Seeded self-verification suites, shared by the CLI and the test suite.

Each suite runs a batch of randomized consistency checks against an
independent oracle (numeric time averaging, brute-force optimization,
telescoping sums, RK4 integration) and reports per-case failures.  A single
64-bit seed makes every suite reproducible; per-suite seeds are derived from
it so suites can run standalone or together with identical outcomes.
"""

import time
import zlib

import numpy as np

from . import allocation, brigade, magnetics, orbit
from .dual import DEFAULT_TOL, SolverError

SUITES = ("averaging", "duality", "bruteforce", "telescoping", "orbit")

#: A failed solve or recovery is a failure of its case, not of the run.
_NUMERIC_FAILURES = (SolverError, allocation.RecoveryError)


def _suite_rng(seed, name):
    # stable per-suite stream: crc32 keys are process-independent
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def _random_geometry(rng):
    r = rng.normal(size=3)
    r *= rng.uniform(0.5, 5.0) / np.linalg.norm(r)
    hint = rng.normal(size=3)
    return r, hint


def _random_waveform(rng, omega):
    return magnetics.DipoleWaveform(
        s=rng.normal(scale=10.0, size=3), c=rng.normal(scale=10.0, size=3), omega=omega
    )


def suite_averaging(cases=25, seed=0):
    """Closed-form averaging vs numeric trapezoid; cross-frequency decoupling;
    Newton pairs and the torque-pair identity via the textbook oracle."""
    rng = _suite_rng(seed, "averaging")
    failures = []
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
        if np.linalg.norm(closed - numeric) > 1e-8 * ref:
            failures.append(f"case {case}: averaging mismatch")
        dk2 = magnetics.DipoleWaveform(s=dk.s, c=dk.c, omega=2.0 * omega)
        cross = magnetics.time_average_oracle(r, dj, dk2, period, 512, hint=hint).as_vector()
        if np.linalg.norm(cross) > 1e-12 * ref:
            failures.append(f"case {case}: distinct frequencies did not decouple")
        # instantaneous physics vs the Psi-block route
        mu_j, mu_k = rng.normal(scale=8.0, size=(2, 3))
        psi_w = magnetics.instantaneous_wrench(Q, mu_j, mu_k).as_vector()
        text_w = magnetics.dipole_field_wrench(r, mu_j, mu_k).as_vector()
        if np.linalg.norm(psi_w - text_w) > 1e-10 * max(np.linalg.norm(text_w), 1e-30):
            failures.append(f"case {case}: Psi blocks disagree with dipole-field oracle")
        f_jk = text_w[:3]
        t_jk = text_w[3:]
        back = magnetics.dipole_field_wrench(-r, mu_k, mu_j).as_vector()
        if np.linalg.norm(f_jk + back[:3]) > 1e-12 * max(np.linalg.norm(f_jk), 1e-30):
            failures.append(f"case {case}: action-reaction force violated")
        tq_sum = t_jk + back[3:] + np.cross(r, f_jk)
        if np.linalg.norm(tq_sum) > 1e-10 * max(np.linalg.norm(t_jk), 1e-30):
            failures.append(f"case {case}: torque-pair identity violated")
    return {"suite": "averaging", "cases": cases, "failures": failures}


def suite_duality(cases=100, seed=0):
    """Strong duality on forward-generated feasible commands: relative gap,
    wrench reproduction, and weak duality against the generating point."""
    rng = _suite_rng(seed, "duality")
    failures = []
    for case in range(cases):
        r, hint = _random_geometry(rng)
        Q = magnetics.interaction_operator(r, hint)
        dj = _random_waveform(rng, 1.0)
        dk = _random_waveform(rng, 1.0)
        u = magnetics.averaged_wrench(Q, dj, dk)
        J_gen = 0.5 * (dj.amplitude_squared + dk.amplitude_squared)
        try:
            sol = allocation.allocate(r, hint, u, omega=1.0)
        except _NUMERIC_FAILURES as exc:
            failures.append(f"case {case}: {exc}")
            continue
        if sol.gap > DEFAULT_TOL:
            failures.append(f"case {case}: gap {sol.gap:.3e}")
        if np.linalg.norm(sol.wrench_residual) > 1e-8 * max(u.norm, 1e-30):
            failures.append(f"case {case}: wrench residual too large")
        if sol.J_d > J_gen * (1.0 + 1e-9):
            failures.append(f"case {case}: weak duality violated")
    return {"suite": "duality", "cases": cases, "failures": failures}


def suite_bruteforce(cases=10, seed=0):
    """Global-optimality oracle: the batched multistart Newton search on the
    constraint manifold (20 restarts) never beats the dual bound by more than
    1e-4 relative."""
    rng = _suite_rng(seed, "bruteforce")
    failures = []
    for case in range(cases):
        r, hint = _random_geometry(rng)
        Q = magnetics.interaction_operator(r, hint)
        dj = _random_waveform(rng, 1.0)
        dk = _random_waveform(rng, 1.0)
        u = magnetics.averaged_wrench(Q, dj, dk)
        case_seed = int(rng.integers(2**31))
        try:
            sol = allocation.allocate(r, hint, u, omega=1.0)
            brute = allocation.brute_force_allocate(r, hint, u, restarts=20, seed=case_seed)
        except (*_NUMERIC_FAILURES, allocation.NoFeasiblePointError) as exc:
            failures.append(f"case {case}: {exc}")
            continue
        if brute.J_p < sol.J_d * (1.0 - 1e-4):
            failures.append(
                f"case {case}: brute force undercut the dual bound "
                f"({brute.J_p:.6e} < {sol.J_d:.6e})"
            )
    return {"suite": "bruteforce", "cases": cases, "failures": failures}


def suite_telescoping(cases=12, seed=0):
    """Closed-form brigade commands vs direct sums, equilibrium assembly, and
    physical realization of a command through the magnetic model."""
    rng = _suite_rng(seed, "telescoping")
    failures = []
    for case in range(cases):
        n = int(rng.integers(1, 21))
        cfg = brigade.GridConfig(n=n, m_sys=rng.uniform(10.0, 500.0), d_sat=rng.uniform(1.0, 30.0))
        K = rng.normal(scale=1e-8, size=(3, 3))
        K = 0.5 * (K + K.T)
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        field = brigade.DisturbanceField(k_orb=lambda t: K, p_hat=lambda t: p, period=6000.0)
        for j in range(2, n + 2):
            closed = brigade.pair_command(cfg, field, j, 0.0)
            summed = brigade.telescoping_oracle(cfg, field, j, 0.0)
            ref = max(np.linalg.norm(summed), 1e-300)
            if np.linalg.norm(closed - summed) > 1e-12 * ref:
                failures.append(f"case {case}: closed form != telescoping sum at n={n} j={j}")
                break
        res = brigade.equilibrium_residuals(cfg, field, 0.0)
        edge = np.linalg.norm(cfg.m_sat * n * cfg.d_sat * (K @ p))
        if np.abs(res["force"]).max() > 1e-10 * max(edge, 1e-300):
            failures.append(f"case {case}: force equilibrium violated at n={n}")
        if np.linalg.norm(res["center_force"]) > 1e-12 * max(edge, 1e-300):
            failures.append(f"case {case}: center force cancellation violated")
        mask = res["index"] != 0
        tau_scale = max(np.abs(res["torque"]).max(), edge * cfg.d_sat, 1e-300)
        if np.abs(res["torque"][mask]).max() > 1e-10 * tau_scale:
            failures.append(f"case {case}: non-center torque equilibrium violated")
        # realize the strongest command with actual coils and average the
        # physical wrench through the Psi-independent oracle
        u_cmd = brigade.pair_command(cfg, field, 2, 0.0)
        r = -cfg.d_sat * p
        try:
            sol = allocation.allocate(r, np.cross(u_cmd[:3], r), u_cmd, omega=2.0 * np.pi)
        except _NUMERIC_FAILURES as exc:
            failures.append(f"case {case}: {exc}")
            continue
        ts = np.linspace(0.0, 1.0, 257)
        mu_j = sol.dipole_j.evaluate(ts)
        mu_k = sol.dipole_k.evaluate(ts)
        wr = np.stack(
            [magnetics.dipole_field_wrench(r, mu_j[i], mu_k[i]).as_vector() for i in range(len(ts))]
        )
        avg = np.trapezoid(wr, ts, axis=0) / 1.0
        if np.linalg.norm(avg - u_cmd) > 1e-6 * max(np.linalg.norm(u_cmd), 1e-300):
            failures.append(f"case {case}: allocated pair does not realize the brigade command")
    return {"suite": "telescoping", "cases": cases, "failures": failures}


def suite_orbit(cases=6, seed=0):
    """Analytic propagation vs RK4, trajectory closure, element roundtrips,
    and structure of the disturbance generator."""
    rng = _suite_rng(seed, "orbit")
    failures = []
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
        if err > 1e-6:
            failures.append(f"case {case}: RK4 vs analytic error {err:.2e} m")
        back = orbit.relative_elements(state0, ctx)
        if not (
            np.isclose(back.r_xy, elems.r_xy, rtol=1e-9, atol=1e-12)
            and np.isclose(back.r_z, elems.r_z, rtol=1e-9, atol=1e-12)
        ):
            failures.append(f"case {case}: element roundtrip failed")
        plane = orbit.StablePlane(
            theta_p=rng.uniform(0.2, 1.2), theta_z_xy=rng.uniform(-0.6, 0.6),
            r_xyd=rng.uniform(50.0, 500.0),
        )
        closure = np.linalg.norm(
            orbit.desired_trajectory(plane, ctx, T) - orbit.desired_trajectory(plane, ctx, 0.0)
        )
        if closure > 1e-9:
            failures.append(f"case {case}: stable trajectory did not close ({closure:.2e} m)")
        K = orbit.j2_core_matrix(ctx, rng.uniform(0.0, T))
        if abs(np.trace(K)) > 1e-15 * max(np.abs(K).max(), 1e-300):
            failures.append(f"case {case}: J2 core trace nonzero")
        if np.abs(K - K.T).max() > 0.0:
            failures.append(f"case {case}: J2 core not symmetric")
        ctx0 = orbit.make_context(alt, incl, 0.0, k_j2=0.0)
        d = orbit.freq_mismatch_disturbance(100.0, 0.3, ctx0, np.linspace(0.0, T, 17))
        if np.abs(d).max() > 0.0:
            failures.append(f"case {case}: frequency-mismatch disturbance nonzero at k_J2=0")
    return {"suite": "orbit", "cases": cases, "failures": failures}


_SUITE_FN = {
    "averaging": suite_averaging,
    "duality": suite_duality,
    "bruteforce": suite_bruteforce,
    "telescoping": suite_telescoping,
    "orbit": suite_orbit,
}


def run_suites(names=SUITES, seed=0, cases=None):
    """Run the named suites; returns a summary dict with per-suite results,
    each with its wall time in "seconds"."""
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
