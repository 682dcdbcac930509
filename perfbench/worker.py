"""One fresh process of the benchmark: set up, run timed passes, check outputs.

Run by run.py with ``src`` on PYTHONPATH.  Prints one JSON object as its
last line.  ``--setup-only`` stops after set-up, which is how run.py samples
set-up time in several fresh processes.

The times behind the end-to-end metrics are scaled to a reference speed of
the machine; the report keeps them unscaled too.  A fixed piece of work
that uses no ifmsim code (`reference_loop`) is timed next to each pass and
after set-up; a time measured while that loop took t seconds is multiplied
by REFERENCE_S / t.  A shared host that runs at different speeds for minutes
at a time then moves the figures far less, while a change to the program
moves them in full.
"""

import argparse
import array
import gc
import json
import os
import resource
import statistics
import sys
import time


def machine_info() -> dict:
    """CPU, Python, numpy and BLAS facts; BLAS threads are read, never set."""
    import ctypes
    import platform

    import numpy as np

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": None,
    }
    try:
        with open("/proc/cpuinfo") as f:
            models = [ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")]
        if models:
            info["cpu_model"] = models[0]
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                info["blas_threads"] = fn()
                return info
    return info


# The reference loop's time at the reference speed, in seconds: about its
# median on a shared 2-vCPU Intel Xeon VM.  Fixed, so that figures from
# different runs and commits compare.
REFERENCE_S = 0.007
_REFERENCE_INPUTS = []


def reference_loop() -> float:
    """Seconds taken by a fixed piece of work in the program's style.

    Products of small complex matrices in a Python loop, as in the
    density-matrix evolution, then whole-array integer and complex arithmetic
    on 1e4 elements, as in the trajectory oracle.  Uses no ifmsim code, so a
    change to the program does not change it, and needs little memory, so it
    does not raise the peak RSS the benchmark reports.
    """
    import numpy as np

    if not _REFERENCE_INPUTS:
        m = np.eye(3, dtype=complex) * (0.9 + 0.1j)
        _REFERENCE_INPUTS[:] = [m, np.arange(10_000, dtype=np.uint64),
                                np.ones((10_000, 3), dtype=complex)]
    m, keys, amps = _REFERENCE_INPUTS
    t = time.perf_counter()
    r = np.eye(3, dtype=complex)
    for _ in range(300):
        r = m @ r
        r = r / np.trace(r).real
    for _ in range(8):
        x = keys ^ (keys >> np.uint64(30))
        x = x * np.uint64(0xBF58476D1CE4E5B9)
        y = amps @ m
        y = y[np.abs(y[:, 0]) ** 2 > 0.5]
    return time.perf_counter() - t


def _quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--size", default="full")
    p.add_argument("--tmpdir", required=True)
    p.add_argument("--trace", default=None, metavar="SPANS_PATH")
    args = p.parse_args(argv)

    t_start = time.perf_counter()
    import ifmsim  # noqa: F401

    t_import = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, args.tmpdir)
    api = workloads.make_api()
    t_setup = time.perf_counter()
    reference_loop()  # warm-up
    setup_scale = REFERENCE_S / statistics.median(reference_loop() for _ in range(5))
    result = {
        "import_s": t_import - t_start,
        "setup_raw_s": t_setup - t_start,
        "setup_s": (t_setup - t_start) * setup_scale,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # The inputs live for the whole run; frozen, they cost neither the
    # collection before each pass nor the collector inside a timed pass.
    gc.collect()
    gc.freeze()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    outcome = workloads.Outcome()
    raw_walls, keys, out_bytes = [], [], 0
    # The call latencies of every pass; passes with one key make the same
    # calls.  Compact arrays keep peak RSS from growing with passes.
    raw_calls = []
    # The reference loop before each pass and after the last one.
    refs = []
    # At least one pass; none that would end past --seconds after the loop
    # began, judged by the mean round (reference loop, pass, checks) so far.
    t_loop = time.perf_counter()
    while not raw_walls or (
        (time.perf_counter() - t_loop) * (1 + 1 / len(raw_walls)) <= args.seconds
    ):
        refs.append(reference_loop())
        gc.collect()
        if tracer:
            tracer.install(api)
        one = workload.run_pass(api)
        if tracer:
            tracer.uninstall()
        raw_walls.append(one.wall_s)
        keys.append(one.key)
        raw_calls.append(array.array("d", one.calls_s))
        if args.workload != "points":
            out_bytes += sum(len(out) for _, out in one.outputs if out is not None)
        workload.check(one, outcome)
        del one  # so the next pass does not run beside this one's outputs
    refs.append(reference_loop())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # A pass is scaled by the reference loops on either side of it.
    scales = [2 * REFERENCE_S / (refs[i] + refs[i + 1]) for i in range(len(raw_walls))]
    walls = [w * k for w, k in zip(raw_walls, scales)]
    # A call's latency is the median of its scaled repeats, so the
    # percentiles across calls show the spread of the work, not the host's
    # bursts.
    repeats = {}
    for key, row, k in zip(keys, raw_calls, scales):
        repeats.setdefault(key, []).append([c * k for c in row])
    calls = [statistics.median(row[j] for row in rows)
             for rows in repeats.values() for j in range(len(rows[0]))]
    result.update(
        walls=walls,
        raw_walls=raw_walls,
        reference_s=refs,
        calls=len(calls),
        call_p50=_quantile(calls, 50),
        call_p99=_quantile(calls, 99),
        attempted=outcome.attempted,
        failed=outcome.failed,
        problems=outcome.problems,
        peak_rss_mb=peak_rss_mb,
        machine=machine_info(),
    )
    if tracer:
        from tracer import layer_metrics

        layers = layer_metrics(tracer, len(raw_walls))
        layers["cli.out_bytes"] = out_bytes / len(walls)
        result["layers"] = layers
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
