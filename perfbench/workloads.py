"""The three workloads: inputs made from a seed, the timed operation, its checks.

A workload object is built in set-up (imports plus input generation, which
`setup_s` times).  `operation(k)` is the only code inside the timed region;
`check(k, output)` and `global_checks()` run after it.  Operation k runs
input case k % n_cases, so a run is a number of whole passes over the same
cases, and every case is timed once per pass, at spread-out moments.
`probe` names the host-speed kernel (hostprobe.py) interleaved with
the timed operations.
"""

import json
import os

import numpy as np

import emff
from emff import brigade, cli

import checks

#: The reference scenario of the paper's headline scan (default coil), with
#: the n list trimmed to the two ends so that one scan fits a run while every
#: grid batch keeps its 2 x 720 = 1 440 rows.
REFERENCE = {
    "orbit": {"altitude_km": 500.0, "inclination_deg": 45.0, "theta0_deg": 0.0},
    "plane": {"theta_p_deg": 30.0, "theta_z_xy_deg": 0.0, "r_xyd_m": 100.0},
    "grid": {"n_list": [1, 10], "m_sys_kg": 100.0, "r_l_m": 1000.0},
    "sampling": {"time_samples": 720, "dual_tol": 1.0e-10},
}

#: Short scan whose CSV must not depend on EMFF_THREADS (three n values, so a
#: two-worker pool splits them).
THREAD_SCENARIO = {**REFERENCE, "grid": {**REFERENCE["grid"], "n_list": [1, 2, 3]},
                   "sampling": {"time_samples": 48, "dual_tol": 1.0e-10}}

#: Samples per orbit of the re-derived pair costs.
CHECK_SAMPLES = 48


def reference_field():
    orb, pl = REFERENCE["orbit"], REFERENCE["plane"]
    ctx = emff.make_context(
        altitude=orb["altitude_km"] * 1e3,
        incl=np.deg2rad(orb["inclination_deg"]),
        theta0=np.deg2rad(orb["theta0_deg"]),
    )
    plane = emff.StablePlane(
        theta_p=np.deg2rad(pl["theta_p_deg"]),
        theta_z_xy=np.deg2rad(pl["theta_z_xy_deg"]),
        r_xyd=pl["r_xyd_m"],
    )
    return emff.DisturbanceField.from_orbit(ctx, plane)


def _geometry(rng):
    r = rng.normal(size=3)
    r *= rng.uniform(0.5, 5.0) / np.linalg.norm(r)
    return r, rng.normal(size=3)


def _forward_case(rng):
    """Feasible command made by the dipole-field model from random waveforms;
    the generating waveforms' cost bounds the optimum from above."""
    r, hint = _geometry(rng)
    s_j, c_j, s_k, c_k = rng.normal(scale=10.0, size=(4, 3))
    u = checks.field_average_wrench(r, s_j, c_j, s_k, c_k)
    J_gen = 0.5 * (s_j @ s_j + c_j @ c_j + s_k @ s_k + c_k @ c_k)
    return r, hint, u, J_gen


class ScanRef:
    """`emff scan` on the trimmed reference scenario through `emff.cli.main`."""

    name = "scan-ref"
    n_cases = 1
    min_passes = 3
    root_span = "cli.main"
    probe = "batch"

    def __init__(self, seed, workdir):
        # the scan's inputs are the fixed reference scenario; the seed only
        # draws the frame hints of the check allocations
        self.seed = seed
        self.workdir = workdir
        self.scenario_path = os.path.join(workdir, "scenario.json")
        with open(self.scenario_path, "w", encoding="utf-8") as fh:
            json.dump(REFERENCE, fh)
        self.csv_path = os.path.join(workdir, "scan.csv")
        self._ref = None

    def operation(self, k):
        code = cli.main(["scan", "--scenario", self.scenario_path, "--out", self.csv_path])
        with open(self.csv_path, encoding="utf-8") as fh:
            return code, fh.read()

    def check(self, k, output):
        if self._ref is None:
            self._ref = self._reference()
        return checks.check_scan(*output, self._ref)

    def _reference(self):
        rng = np.random.default_rng([self.seed, 1])
        grid = REFERENCE["grid"]
        field = reference_field()
        T = field.period
        n_list = grid["n_list"]
        scale = checks.coil_power_scale(cli.DEFAULT_COIL)
        derived = {}
        for n in sorted({n_list[0], n_list[-1]}):
            cfg = brigade.GridConfig.from_line_length(n, grid["m_sys_kg"], grid["r_l_m"])

            def pair_cost(j, t):
                # primal cost of one bucket-brigade pair command, world frame
                u = brigade.pair_command(cfg, field, j, t)
                r = -cfg.d_sat * field.direction(t)
                sol = emff.allocate(r, rng.normal(size=3), u, omega=1.0, frame="world")
                return sol.J_p

            def w_star(j, t):
                return 2.0 * (pair_cost(j, t) + pair_cost(j, t + T / 4.0))

            # J on m T/48, m < 60, covers both t and t + T/4 = t + 12 T/48
            quarter = CHECK_SAMPLES // 4
            ts = np.arange(CHECK_SAMPLES + quarter) * T / CHECK_SAMPLES
            J2 = np.array([pair_cost(2, t) for t in ts])
            w2 = 2.0 * (J2[:CHECK_SAMPLES] + J2[quarter:])
            entry = {"W_max48": float(scale * w2.max())}
            if n == 1:
                entry["W_oint"] = float(scale * (2 * n + 1) * w2.mean())
            # refine around the argmax: T/240 steps, then 1e-3 T steps
            t_best, w_best = ts[int(np.argmax(w2))], w2.max()
            for step, reach in ((T / 240.0, 4), (1.0e-3 * T, 2)):
                centre = t_best
                for i in range(-reach, reach + 1):
                    if i == 0:
                        continue
                    w = w_star(2, centre + i * step)
                    if w > w_best:
                        t_best, w_best = centre + i * step, w
            entry["W_refined"] = float(scale * w_best)
            derived[n] = entry
        return {
            "n_list": n_list,
            "m_sys": grid["m_sys_kg"],
            "r_l": grid["r_l_m"],
            "scale": scale,
            "derived": derived,
        }

    def global_checks(self):
        path = os.path.join(self.workdir, "threads.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(THREAD_SCENARIO, fh)
        outputs = {}
        previous = os.environ.get("EMFF_THREADS")
        try:
            for threads in ("1", "2"):
                os.environ["EMFF_THREADS"] = threads
                out = os.path.join(self.workdir, f"threads-{threads}.csv")
                code = cli.main(["scan", "--scenario", path, "--out", out])
                with open(out, "rb") as fh:
                    outputs[threads] = (code, fh.read())
        finally:
            if previous is None:
                os.environ.pop("EMFF_THREADS", None)
            else:
                os.environ["EMFF_THREADS"] = previous
        if outputs["1"][0] != 0 or outputs["2"][0] != 0:
            return [f"short scan exit codes {outputs['1'][0]}, {outputs['2'][0]}"]
        if outputs["1"][1] != outputs["2"][1]:
            return ["short scan CSV differs between EMFF_THREADS=1 and 2"]
        return []


class AllocateMix:
    """Single-pair `emff.allocate` calls over four classes of command."""

    name = "allocate-mix"
    n_cases = 252
    min_passes = 4
    root_span = "allocation.allocate"
    probe = "scipy"
    classes = ("forward", "wide", "structured", "brigade")

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        field = reference_field()
        kinds = np.resize(np.arange(len(self.classes)), self.n_cases)
        self.cases = [self._case(self.classes[kind], rng, field) for kind in rng.permutation(kinds)]

    @staticmethod
    def _case(kind, rng, field):
        omega = rng.uniform(0.5, 5.0)
        J_gen = None
        if kind == "forward":
            r, hint, u, J_gen = _forward_case(rng)
        elif kind == "wide":
            r, hint = _geometry(rng)
            u = rng.normal(size=6)
            u *= 10.0 ** rng.uniform(-12.0, 3.0) / np.linalg.norm(u)
        elif kind == "structured":
            r, hint = _geometry(rng)
            size = 10.0 ** rng.uniform(-8.0, 0.0)
            axis = r / np.linalg.norm(r)
            v = rng.normal(size=3)
            v *= size / np.linalg.norm(v)
            shape = rng.integers(4)
            u = np.zeros(6)
            if shape == 0:      # axial force
                u[:3] = size * axis
            elif shape == 1:    # pure force
                u[:3] = v
            elif shape == 2:    # pure torque
                u[3:] = v
            else:               # axial torque
                u[3:] = size * axis
        else:  # a bucket-brigade pair command of the reference scenario
            n = int(rng.integers(1, 11))
            j = int(rng.integers(2, n + 2))
            t = rng.uniform(0.0, field.period)
            cfg = brigade.GridConfig.from_line_length(n, 100.0, 1000.0)
            u = brigade.pair_command(cfg, field, j, t)
            r = -cfg.d_sat * field.direction(t)
            hint = rng.normal(size=3)
        return r, hint, u, omega, J_gen

    def operation(self, k):
        r, hint, u, omega, _ = self.cases[k % self.n_cases]
        return emff.allocate(r, hint, u, omega=omega)

    def check(self, k, output):
        r, _, u, _, J_gen = self.cases[k % self.n_cases]
        return checks.check_allocation(r, u, output, J_gen)

    def global_checks(self):
        return []


class OracleBF:
    """`emff.brute_force_allocate` (20 restarts, fixed per-case seeds)."""

    name = "oracle-bf"
    n_cases = 12
    min_passes = 1
    root_span = "allocation.brute_force_allocate"
    probe = "scipy"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        self.cases = []
        for _ in range(self.n_cases):
            r, hint, u, J_gen = _forward_case(rng)
            self.cases.append((r, hint, u, J_gen, int(rng.integers(2**31))))
        self._dual_bound = {}

    def operation(self, k):
        r, hint, u, _, case_seed = self.cases[k % self.n_cases]
        return emff.brute_force_allocate(r, hint, u, restarts=20, seed=case_seed)

    def check(self, k, output):
        case = k % self.n_cases
        r, hint, u, J_gen, _ = self.cases[case]
        if case not in self._dual_bound:
            self._dual_bound[case] = emff.allocate(r, hint, u, omega=1.0).J_d
        return checks.check_oracle(r, u, output, self._dual_bound[case], J_gen)

    def global_checks(self):
        return []


WORKLOADS = {w.name: w for w in (ScanRef, AllocateMix, OracleBF)}
