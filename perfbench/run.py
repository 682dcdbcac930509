"""ifmsim benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every measurement happens in fresh child
processes (perfbench/worker.py) started with this interpreter and ``src`` on
PYTHONPATH: a few that only set up, for set-up time, then one that runs timed
passes and checks the outputs, then a few more that only set up.  Passes run
until the next one would end more than ``--seconds`` after the first began;
there is always at least one.  With ``--trace 1`` one untraced and one traced
child each get half the time; the traced one yields the per-layer figures and the pair
yields the tracing overhead.  The load is closed loop: one caller, one
process, no threads of its own.

The last line of stdout is the result object; the line before it is a report
with sample counts, quartiles, the error rate and machine details.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grid", "points", "oracle")
SETUP_SAMPLES = 10  # after one warm-up child that fills the bytecode cache
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_child(args, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:2]} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return {"n": 1, "q1": values[0], "median": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; 'tiny' is for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (SRC / "ifmsim" / "__init__.py").is_file():
        print(f"ifmsim sources not found under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".perfbench"
    tmpdir = scratch / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--tmpdir", str(tmpdir)]
    try:
        def setup_only():
            return run_child([*common, "--seconds", "0", "--setup-only"], deadline)

        # Half the set-up samples before the timed children and half after,
        # so that their median spans the run as the timed figures do.
        setups = [setup_only() for _ in range(SETUP_SAMPLES // 2 + 1)][1:]
        if args.trace:
            half = str(args.seconds / 2)
            plain = run_child([*common, "--seconds", half], deadline)
            spans = scratch / f"spans-{args.workload}.json"
            traced = run_child([*common, "--seconds", half, "--trace", str(spans)], deadline)
            runs = [plain, traced]
        else:
            runs = [run_child([*common, "--seconds", str(args.seconds)], deadline)]
        setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    main_run = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    setup_samples = [s["setup_s"] for s in setups] + [r["setup_s"] for r in runs]
    if args.trace:
        untraced = statistics.median(plain["walls"])
        layers = {
            "setup.import_s": statistics.median(s["import_s"] for s in setups),
            **traced["layers"],
            "trace.overhead_frac": (statistics.median(traced["walls"]) - untraced) / untraced,
        }
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(main_run["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
            "call_us.p50": {"value": main_run["call_p50"] * 1e6, "unit": "us"},
            "call_us.p99": {"value": main_run["call_p99"] * 1e6, "unit": "us"},
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "error_rate": failed / attempted if attempted else 1.0,
        "wall_s": [quartiles(r["walls"]) for r in runs],
        "raw_wall_s": [quartiles(r["raw_walls"]) for r in runs],
        "reference_s": [quartiles(r["reference_s"]) for r in runs],
        "setup_s": quartiles(setup_samples),
        "raw_setup_s": quartiles([s["setup_raw_s"] for s in setups + runs]),
        "calls": [r["calls"] for r in runs],
        "problems": [p for r in runs for p in r["problems"]],
        "machine": main_run["machine"],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_per_row", "_per_cycle")):
        return "us"
    if name.endswith("_per_traj_cycle"):
        return "ns"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
