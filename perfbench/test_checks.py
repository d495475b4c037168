"""Each benchmark check must reject a deliberately wrong output.

    python3 -m pytest perfbench/test_checks.py -q
"""

import dataclasses
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import emff  # noqa: E402

import checks  # noqa: E402
import hostprobe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _scan_fixture():
    """A consistent reference and a CSV that satisfies it."""
    from emff import cli

    scale = checks.coil_power_scale(cli.DEFAULT_COIL)
    m_sys = 100.0
    W_oint = {1: 3.0e-3, 10: 1.0e-3}
    W_bar = {1: 2.0e-4, 10: 5.0e-5}
    derived = {n: {"W_max48": W_bar[n] * 0.99, "W_refined": W_bar[n] * (1 + 2e-7)} for n in (1, 10)}
    derived[1]["W_oint"] = W_oint[1] * (1 + 9e-6)
    ref = {"n_list": [1, 10], "m_sys": m_sys, "r_l": 1000.0, "scale": scale, "derived": derived}
    rows = {}
    for n in (1, 10):
        rows[n] = [n, 2 * n + 1, 1000.0, checks.chi_sys(m_sys, n), W_bar[n], W_oint[n],
                   W_oint[n] / (m_sys * scale), float(2 * n + 1) ** (2.0 / 3.0)]
    return ref, rows


def _csv(rows):
    lines = [",".join(checks.SCAN_HEADER)]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, int) else f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def test_scan_check_accepts_consistent_output():
    ref, rows = _scan_fixture()
    assert checks.check_scan(0, _csv([rows[1], rows[10]]), ref) == []


@pytest.mark.parametrize("corrupt", [
    "exit_code", "W_oint_scaled", "M_swapped", "gamma_ulp", "chi_sys", "N_l",
    "W_bar_low", "W_bar_high", "missing_row", "W_oint_both",
])
def test_scan_check_rejects(corrupt):
    ref, rows = _scan_fixture()
    r1, r10 = list(rows[1]), list(rows[10])
    code = 0
    if corrupt == "exit_code":
        code = 2
    elif corrupt == "W_oint_scaled":
        r1[5] *= 1 + 1e-3
    elif corrupt == "W_oint_both":
        # W_oint and M moved together: only the re-derivation can see it
        r1[5] *= 1 + 1e-3
        r1[6] *= 1 + 1e-3
    elif corrupt == "M_swapped":
        r1[6], r10[6] = r10[6], r1[6]
    elif corrupt == "gamma_ulp":
        r10[7] = np.nextafter(r10[7], 0.0)
    elif corrupt == "chi_sys":
        r10[3] *= 1 + 1e-12
    elif corrupt == "N_l":
        r1[1] = 4
    elif corrupt == "W_bar_low":
        r10[4] = ref["derived"][10]["W_max48"] * (1 - 1e-6)
    elif corrupt == "W_bar_high":
        r10[4] *= 1 + 1e-3
    text = _csv([r1] if corrupt == "missing_row" else [r1, r10])
    assert checks.check_scan(code, text, ref)


@pytest.fixture(scope="module")
def forward_allocation():
    rng = np.random.default_rng(7)
    r, hint, u, J_gen = workloads._forward_case(rng)
    return r, u, J_gen, emff.allocate(r, hint, u, omega=1.0)


def test_allocation_check_accepts_real_output(forward_allocation):
    r, u, J_gen, sol = forward_allocation
    assert checks.check_allocation(r, u, sol, J_gen) == []


def _negate_component(sol):
    s = sol.dipole_k.s.copy()
    s[1] = -s[1]
    return dataclasses.replace(sol, dipole_k=dataclasses.replace(sol.dipole_k, s=s))


@pytest.mark.parametrize("corrupt", ["negated", "J_p", "gap", "J_gen"])
def test_allocation_check_rejects(forward_allocation, corrupt):
    r, u, J_gen, sol = forward_allocation
    if corrupt == "negated":
        sol = _negate_component(sol)
    elif corrupt == "J_p":
        sol = dataclasses.replace(sol, J_p=sol.J_p * (1 + 1e-9))
    elif corrupt == "gap":
        sol = dataclasses.replace(sol, gap=2e-6)
    else:
        J_gen = sol.J_d * (1 - 1e-6)
    assert checks.check_allocation(r, u, sol, J_gen)


def test_oracle_check(forward_allocation):
    # an allocate result stands in for a brute-force result: it is feasible
    # and sits on the dual bound
    r, u, J_gen, sol = forward_allocation
    assert checks.check_oracle(r, u, sol, sol.J_d, J_gen) == []
    assert checks.check_oracle(r, u, _negate_component(sol), sol.J_d, J_gen)
    low = dataclasses.replace(sol, J_p=sol.J_p * 0.999)
    assert any("undercuts" in f for f in checks.check_oracle(r, u, low, sol.J_d, J_gen))


def test_field_average_matches_closed_form():
    rng = np.random.default_rng(3)
    r, hint = workloads._geometry(rng)
    s_j, c_j, s_k, c_k = rng.normal(size=(4, 3))
    op = emff.interaction_operator(r, hint)
    closed = emff.averaged_wrench(op, emff.DipoleWaveform(s_j, c_j, 1.0),
                                  emff.DipoleWaveform(s_k, c_k, 1.0)).as_vector()
    avg = checks.field_average_wrench(r, s_j, c_j, s_k, c_k)
    assert np.linalg.norm(avg - closed) <= 1e-12 * np.linalg.norm(closed)


def test_thread_check_rejects_differing_csv(tmp_path, monkeypatch):
    scan = workloads.ScanRef(0, str(tmp_path))

    def fake_main(argv):
        with open(argv[argv.index("--out") + 1], "w", encoding="utf-8") as fh:
            fh.write(os.environ["EMFF_THREADS"])
        return 0

    monkeypatch.setattr(workloads.cli, "main", fake_main)
    assert scan.global_checks()


def test_repeated_counts_must_match():
    tracer = tracing.Tracer()
    for rows in (1440, 1440, 1439):
        root = tracer.open("cli.main")
        tracer.close(tracer.open("dual.solve_dual_batch"), rows)
        tracer.close(root)
    spans = tracer.spans
    first, second, third = (tracing.layer_metrics(spans, i, i + 2) for i in (0, 2, 4))
    assert first["dual.rows"] == 1440 and first["dual.batch_calls"] == 1
    assert tracing.count_mismatches(first, second) == []
    assert tracing.count_mismatches(first, third)


def test_self_time_excludes_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["power.compute_power_report", 1.0, 9.0, 0, 0],
        ["dual.solve_dual_batch", 2.0, 8.0, 1, 1440],
        ["allocation.allocate", 10.0, 13.0, -1, 0],
        ["allocation.recover_gram", 11.0, 12.0, 3, 0],
    ]
    m = tracing.layer_metrics(spans, 0, len(spans))
    assert (m["cli.self_s"], m["power.self_s"], m["dual.batch_s"]) == (2.0, 2.0, 6.0)
    assert (m["allocation.self_s"], m["allocation.recover_s"]) == (2.0, 1.0)
    assert m["dual.ns_per_row"] == 6.0 / 1440 * 1e9


def test_sampler_leaves_kernel_runs_out_of_the_call():
    probe = hostprobe.Probe(lambda: time.sleep(0.05), 0.025)
    with hostprobe.Sampler(probe) as sampler:
        runs, busy = len(sampler.times), sampler.busy
        start = time.perf_counter()
        _, elapsed, scale = sampler.call(time.sleep, 1.0)
        wall = time.perf_counter() - start
        inside, kernel_s = len(sampler.times) - runs, sampler.busy - busy
    assert inside >= 2  # the timer fired during the call
    assert kernel_s >= 0.05 * inside
    assert elapsed == pytest.approx(wall - kernel_s, abs=2e-3)
    assert 0.4 < scale <= 0.5  # nominal / measured kernel time
