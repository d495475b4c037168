"""Output checks of the benchmark, kept apart from the code paths they test.

Every check returns a list of failure messages; an empty list means the
output passed.  The checks compare against computations made here (closed
forms, the Psi-independent dipole-field wrench, primal costs of single-pair
allocations), never against stored copies of earlier output.
"""

import csv
import io
from fractions import Fraction

import numpy as np

from emff import magnetics

SCAN_HEADER = ["n", "N_l", "r_l_m", "chi_sys_kg", "W_bar_W", "W_oint_W", "M_A2m4_per_kg", "gamma_S"]

#: Drive-period samples of the dipole-field average.  The wrench of two
#: sinusoidal dipoles is a trigonometric polynomial of degree 2 in the drive
#: phase, so any uniform rule with more than 4 samples averages it exactly.
FIELD_SAMPLES = 8


def coil_power_scale(coil):
    """R/gamma^2 of a coil, written out from its geometry: (2 rho / r_w^2) / (pi^2 N a^3)."""
    return (2.0 * coil["resistivity_ohm_m"] / coil["wire_radius_m"] ** 2) / (
        np.pi**2 * coil["turns"] * coil["coil_radius_m"] ** 3
    )


def chi_sys(m_sys, n):
    """m_sys n(n+1) / (6 (2n+1)^3) in exact arithmetic, rounded once."""
    return float(Fraction(m_sys) * n * (n + 1) / (6 * (2 * n + 1) ** 3))


def field_average_wrench(r, s_j, c_j, s_k, c_k):
    """Drive-period average of the wrench on coil j from coil k (6-vector).

    Samples mu(t) = s sin + c cos over one period and averages the classical
    dipole-field force and torque, so it shares nothing with the Psi blocks
    or the closed-form average the allocation path uses.
    """
    total = np.zeros(6)
    for phase in 2.0 * np.pi * np.arange(FIELD_SAMPLES) / FIELD_SAMPLES:
        sn, cs = np.sin(phase), np.cos(phase)
        w = magnetics.dipole_field_wrench(r, s_j * sn + c_j * cs, s_k * sn + c_k * cs)
        total += w.as_vector()
    return total / FIELD_SAMPLES


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _realization_errors(r, u, sol, wrench_tol):
    """Failures of a returned allocation to cost J_p and to produce the wrench u."""
    fails = []
    wj, wk = sol.dipole_j, sol.dipole_k
    J_p = 0.5 * (wj.s @ wj.s + wj.c @ wj.c + wk.s @ wk.s + wk.c @ wk.c)
    if _rel(sol.J_p, J_p) > 1e-12:
        fails.append(f"J_p {sol.J_p!r} differs from the waveform cost {J_p!r}")
    u = np.asarray(u, dtype=float)
    err = np.linalg.norm(field_average_wrench(r, wj.s, wj.c, wk.s, wk.c) - u) / np.linalg.norm(u)
    if not err <= wrench_tol:
        fails.append(f"wrench reproduced to {err:.3e} of |u| (> {wrench_tol:g})")
    return fails


def check_allocation(r, u, sol, J_gen=None):
    """Certified single-pair allocation: cost, wrench, gap, weak duality."""
    fails = _realization_errors(r, u, sol, 1e-8)
    if not -1e-9 <= sol.gap <= 1e-6:
        fails.append(f"gap {sol.gap:.3e} outside [-1e-9, 1e-6]")
    if J_gen is not None and not sol.J_d <= J_gen * (1.0 + 1e-9):
        fails.append(f"J_d {sol.J_d!r} exceeds the generating cost {J_gen!r}")
    return fails


def check_oracle(r, u, sol, J_d, J_gen):
    """Brute-force oracle result: feasible, and never below the dual bound."""
    fails = _realization_errors(r, u, sol, 1e-6)
    if not sol.J_p >= J_d * (1.0 - 1e-4):
        fails.append(f"J_bf {sol.J_p!r} undercuts the dual bound {J_d!r}")
    if not J_d <= J_gen * (1.0 + 1e-9):
        fails.append(f"J_d {J_d!r} exceeds the generating cost {J_gen!r}")
    return fails


def parse_scan_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SCAN_HEADER:
        raise ValueError(f"unexpected scan CSV header {rows[:1]}")
    return [dict(zip(SCAN_HEADER, (float(v) for v in row))) for row in rows[1:]]


def check_scan(code, text, ref):
    """One `emff scan` run on the trimmed reference scenario.

    ref holds the scenario's n_list, m_sys, r_l and coil scale, plus for some
    n the re-derived pair-cost figures: 'W_oint' (48-sample orbit average),
    'W_max48' (48-sample maximum of w*(2, t)) and 'W_refined' (that maximum
    refined around its argmax at <= 1e-3 T spacing).
    """
    if code != 0:
        return [f"scan exited with code {code}"]
    try:
        rows = parse_scan_csv(text)
    except ValueError as exc:
        return [str(exc)]
    fails = []
    if [row["n"] for row in rows] != [float(n) for n in ref["n_list"]]:
        return [f"CSV rows for n = {[row['n'] for row in rows]}, expected {ref['n_list']}"]
    for row in rows:
        n = int(row["n"])
        n_l = 2 * n + 1
        if row["N_l"] != n_l:
            fails.append(f"n={n}: N_l {row['N_l']} != {n_l}")
        if row["gamma_S"] != float(n_l) ** (2.0 / 3.0):
            fails.append(f"n={n}: gamma_S {row['gamma_S']!r} != N_l**(2/3)")
        if _rel(row["r_l_m"], ref["r_l"]) > 1e-12:
            fails.append(f"n={n}: r_l {row['r_l_m']!r} != {ref['r_l']}")
        if _rel(row["chi_sys_kg"], chi_sys(ref["m_sys"], n)) > 1e-15:
            fails.append(f"n={n}: chi_sys {row['chi_sys_kg']!r} != {chi_sys(ref['m_sys'], n)!r}")
        W_from_M = row["M_A2m4_per_kg"] * ref["m_sys"] * ref["scale"]
        if _rel(row["W_oint_W"], W_from_M) > 1e-12:
            fails.append(f"n={n}: W_oint {row['W_oint_W']!r} != M m_sys R/gamma^2 {W_from_M!r}")
        derived = ref["derived"].get(n)
        if derived is None:
            continue
        if "W_oint" in derived and _rel(row["W_oint_W"], derived["W_oint"]) > 1e-4:
            fails.append(
                f"n={n}: W_oint {row['W_oint_W']!r} vs re-derived {derived['W_oint']!r} "
                f"({_rel(row['W_oint_W'], derived['W_oint']):.2e} > 1e-4)"
            )
        if not row["W_bar_W"] >= derived["W_max48"] * (1.0 - 1e-9):
            fails.append(f"n={n}: W_bar {row['W_bar_W']!r} below the sampled maximum {derived['W_max48']!r}")
        if _rel(row["W_bar_W"], derived["W_refined"]) > 1e-4:
            fails.append(
                f"n={n}: W_bar {row['W_bar_W']!r} vs refined maximum {derived['W_refined']!r} "
                f"({_rel(row['W_bar_W'], derived['W_refined']):.2e} > 1e-4)"
            )
    Ms = [row["M_A2m4_per_kg"] for row in rows]
    if not all(a > b for a, b in zip(Ms, Ms[1:])):
        fails.append(f"M not strictly decreasing in n: {Ms}")
    return fails
