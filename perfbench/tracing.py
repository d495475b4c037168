"""Span tracing from outside the program.

The traced run replaces module attributes with timing wrappers at the name
the caller looks up (`emff.power.solve_dual_batch`, the orbit functions the
`DisturbanceField` closures call, `scipy.optimize.minimize` as the oracle
reaches it, ...).  Spans (name, start, end, parent, count) stay in
memory and are written when the run ends.  A span's self time is its time
minus the time of its child spans.
"""

import functools
import gzip
import importlib
import json
import time

import numpy as np

# (module, attribute, span name as "<layer>.<function>", count taken from the call)
PATCHES = [
    ("emff.power", "compute_power_report", "power.compute_power_report", None),
    ("emff.power", "pair_power_w_star", "power.pair_power_w_star", None),
    ("emff.power", "solve_dual_batch", "dual.solve_dual_batch", "rows"),
    ("emff.power", "psi_stack", "magnetics.psi_stack", None),
    ("emff.brigade", "j2_disturbance_matrix", "orbit.j2_disturbance_matrix", None),
    ("emff.brigade", "desired_trajectory", "orbit.desired_trajectory", None),
    ("emff.allocation", "solve_dual", "dual.solve_dual", None),
    ("emff.dual", "solve_dual_batch", "dual.solve_dual_batch", "rows"),
    ("emff.allocation", "recover_gram", "allocation.recover_gram", None),
    ("emff.allocation", "extract_waveforms", "allocation.extract_waveforms", None),
    ("emff.allocation", "interaction_operator", "magnetics.interaction_operator", None),
    ("emff.allocation", "psi_stack", "magnetics.psi_stack", None),
    ("scipy.optimize", "minimize", "scipy.minimize", "nfev"),
    ("scipy.optimize", "least_squares", "scipy.least_squares", "nfev"),
]

#: Per-layer metrics and their units, in the order they are printed.
LAYER_METRICS = {
    "dual.batch_calls": "count",
    "dual.rows": "count",
    "dual.batch_s": "s",
    "dual.ns_per_row": "ns",
    "dual.solve_calls": "count",
    "dual.solve_s": "s",
    "orbit.field_calls": "count",
    "orbit.field_s": "s",
    "power.refine_calls": "count",
    "power.self_s": "s",
    "cli.self_s": "s",
    "allocation.recover_s": "s",
    "allocation.extract_s": "s",
    "magnetics.operator_s": "s",
    "allocation.self_s": "s",
    "allocation.bf_minimize_calls": "count",
    "allocation.bf_minimize_nfev": "count",
    "allocation.bf_lsq_nfev": "count",
    "allocation.bf_minimize_s": "s",
    "allocation.bf_lsq_s": "s",
    "allocation.bf_us_per_eval": "us",
}

#: Counts that must repeat exactly when an operation is run again.
EXACT_COUNTS = (
    "dual.batch_calls", "dual.rows", "dual.solve_calls", "orbit.field_calls",
    "power.refine_calls", "allocation.bf_minimize_calls", "allocation.bf_minimize_nfev",
    "allocation.bf_lsq_nfev",
)


def count_mismatches(first, again):
    """Messages for the exact counts that differ between two runs of the same operations."""
    return [f"count {name} not repeated: {first[name]} then {again[name]}"
            for name in EXACT_COUNTS if first[name] != again[name]]


def _rows(args, kwargs, result):
    u = args[1] if len(args) > 1 else kwargs["u"]
    return int(np.atleast_2d(np.asarray(u)).shape[0])


def _nfev(args, kwargs, result):
    return int(result.nfev)


_COUNTERS = {"rows": _rows, "nfev": _nfev}


class Tracer:
    """Keeps spans as [name, start, end, parent, count] lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx, count=0):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = count
        self._stack.pop()

    def install(self):
        for mod_name, attr, name, counter in PATCHES:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, _COUNTERS.get(counter)))
            self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, counter(args, kwargs, result) if counter and result is not None else 0)

        return wrapper

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans}, fh)


def layer_metrics(spans, start, stop):
    """Per-layer metrics of spans[start:stop], a run of whole operation trees."""
    calls, total, counts, own = {}, {}, {}, {}
    child_time = {}
    for idx in range(start, stop):
        name, t0, t1, parent, count = spans[idx]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (t1 - t0)
        counts[name] = counts.get(name, 0) + count
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    for idx in range(start, stop):
        name, t0, t1 = spans[idx][:3]
        own[name] = own.get(name, 0.0) + (t1 - t0) - child_time.get(idx, 0.0)

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    rows = counts.get("dual.solve_dual_batch", 0)
    bf_evals = counts.get("scipy.minimize", 0) + counts.get("scipy.least_squares", 0)
    bf_s = t("scipy.minimize") + t("scipy.least_squares")
    return {
        "dual.batch_calls": c("dual.solve_dual_batch"),
        "dual.rows": rows,
        "dual.batch_s": t("dual.solve_dual_batch"),
        "dual.ns_per_row": t("dual.solve_dual_batch") / rows * 1e9 if rows else 0.0,
        "dual.solve_calls": c("dual.solve_dual"),
        "dual.solve_s": t("dual.solve_dual"),
        "orbit.field_calls": c("orbit.j2_disturbance_matrix") + c("orbit.desired_trajectory"),
        "orbit.field_s": t("orbit.j2_disturbance_matrix") + t("orbit.desired_trajectory"),
        "power.refine_calls": c("power.pair_power_w_star"),
        "power.self_s": own.get("power.compute_power_report", 0.0)
        + own.get("power.pair_power_w_star", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "allocation.recover_s": t("allocation.recover_gram"),
        "allocation.extract_s": t("allocation.extract_waveforms"),
        "magnetics.operator_s": t("magnetics.interaction_operator") + t("magnetics.psi_stack"),
        "allocation.self_s": own.get("allocation.allocate", 0.0)
        + own.get("allocation.brute_force_allocate", 0.0),
        "allocation.bf_minimize_calls": c("scipy.minimize"),
        "allocation.bf_minimize_nfev": counts.get("scipy.minimize", 0),
        "allocation.bf_lsq_nfev": counts.get("scipy.least_squares", 0),
        "allocation.bf_minimize_s": t("scipy.minimize"),
        "allocation.bf_lsq_s": t("scipy.least_squares"),
        "allocation.bf_us_per_eval": bf_s / bf_evals * 1e6 if bf_evals else 0.0,
    }
