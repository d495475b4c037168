"""Benchmark of emff: one workload per run, printed as one JSON line.

    python3 perfbench/run.py --workload scan-ref --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.  A run
makes whole passes over the workload's cases.  With --trace 0 it adds passes
until the next one would overrun --seconds, interleaving a fixed host-speed
kernel (hostprobe.py) with the operations, and prints the end-to-end
metrics: times scaled to the kernel's nominal speed, each case's median over
passes.  With --trace 1 it makes a fixed number of passes under span
tracing, checks that the per-layer counts repeat exactly from pass to pass,
and prints the per-layer metrics.  In both modes every output is checked
after the timed region.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Fresh processes timed from spawn to ready; set-up time is their median.
SETUP_PROBES = 3

#: Host-speed kernel runs before each set-up process and after the last.
SETUP_KERNEL_REPS = 3

WORKLOAD_NAMES = ("scan-ref", "allocate-mix", "oracle-bf")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "emff", "__init__.py")):
        raise SystemExit(f"perfbench: no emff sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import emff

    if os.path.dirname(os.path.dirname(os.path.abspath(emff.__file__))) != SRC:
        raise SystemExit(f"perfbench: emff imported from {emff.__file__}, not from {SRC}")
    import workloads

    return workloads


def _setup_time(args):
    """Median wall time of fresh processes that import emff and build the
    inputs, raw and scaled to nominal host speed."""
    import hostprobe

    probe = hostprobe.PROBES["scipy"]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times, samples = [], probe.sample(SETUP_KERNEL_REPS)
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        samples += probe.sample(SETUP_KERNEL_REPS)
    raw = statistics.median(times)
    return raw, raw * probe.scale(samples)


def _attempt(workload, k):
    """Operation k's output, or the exception it raised."""
    try:
        return workload.operation(k)
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def _timed_passes(workload, seconds):
    """Whole passes over the cases until the next one would overrun `seconds`.

    The workload's host-speed kernel runs throughout (hostprobe.Sampler).
    Returns per operation (wall seconds without the kernel runs, factor to
    nominal host speed, output or exception).
    """
    import hostprobe

    results, pass_times = [], []
    start = time.perf_counter()
    with hostprobe.Sampler(hostprobe.PROBES[workload.probe]) as sampler:
        while True:
            t0 = time.perf_counter()
            for _ in range(workload.n_cases):
                out, elapsed, scale = sampler.call(functools.partial(_attempt, workload),
                                                   len(results))
                results.append((elapsed, scale, out))
            pass_times.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(pass_times) >= workload.min_passes and (
                elapsed + statistics.median(pass_times) > seconds
            ):
                return results


def _case_medians(times, n_cases):
    """Each case's median over passes of operation k's time times[k]."""
    return [statistics.median(times[case::n_cases]) for case in range(n_cases)]


def _traced_passes(workload):
    """Passes under tracing; per-layer metrics per pass, and count mismatches."""
    import tracing

    tracer = tracing.Tracer()
    bounds = []
    tracer.install()
    try:
        results = []
        for _ in range(max(2, workload.min_passes)):
            first_span = len(tracer.spans)
            for _ in range(workload.n_cases):
                idx = tracer.open(workload.root_span)
                results.append(_attempt(workload, len(results)))
                tracer.close(idx)
            bounds.append((first_span, len(tracer.spans)))
    finally:
        tracer.uninstall()
    per_pass = [tracing.layer_metrics(tracer.spans, a, b) for a, b in bounds]
    mismatches = [m for other in per_pass[1:] for m in tracing.count_mismatches(per_pass[0], other)]
    metrics = {name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
               for name, unit in tracing.LAYER_METRICS.items()}
    return results, metrics, mismatches, tracer


def _check(workload, results):
    failed = 0
    for k, out in enumerate(results):
        if isinstance(out, Exception):
            fails = [f"{type(out).__name__}: {out}"]
        else:
            fails = workload.check(k, out)
        if fails:
            failed += 1
            print(f"operation {k} failed: {'; '.join(fails)}", file=sys.stderr)
    return failed


def main(argv=None):
    args = _parse(argv)
    os.environ["EMFF_THREADS"] = "1"
    workloads = _import_program()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            return 0
        setup = None if args.trace else _setup_time(args)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        correct = True
        if args.trace:
            results, metrics, mismatches, tracer = _traced_passes(workload)
            for message in mismatches:
                correct = False
                print(message, file=sys.stderr)
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz"))
        else:
            timed = _timed_passes(workload, args.seconds)
            results = [out for _, _, out in timed]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            scaled = _case_medians([t * f for t, f, _ in timed], workload.n_cases)
            raw = _case_medians([t for t, _, _ in timed], workload.n_cases)
            metrics = {
                "setup_s": {"value": setup[1], "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
                "op_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
                "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            }
            slowdown = [1.0 / f for _, f, _ in timed]
            print(f"{args.workload} unscaled: setup_s = {setup[0]:.6g} s, "
                  f"op_p50_ms = {statistics.median(raw) * 1e3:.6g} ms, "
                  f"ops_per_s = {len(raw) / sum(raw):.6g} 1/s; host slowdown "
                  f"{min(slowdown):.3f}..{max(slowdown):.3f}, median {statistics.median(slowdown):.3f}")
        failed = _check(workload, results)
        for message in workload.global_checks():
            correct = False
            print(f"check failed: {message}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted = {len(results)}, failed = {failed}")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
