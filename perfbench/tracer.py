"""In-memory spans around ifmsim's layer boundaries, and the per-layer figures.

The tracer replaces a public name at the place its caller looks it up (for
example ``ifmsim.sweep.evolve``, which ``run_single`` calls) with a wrapper
that records a span: name, start, end and the index of the enclosing span.
Nothing inside the package is edited; ``uninstall`` restores every name.

A span name is ``<layer>.<what>``.  A layer's self time is the duration of
its spans minus the part covered by their direct child spans; the run is
single threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

# (owner attribute path, attribute, span name, counter) for every boundary the
# program itself crosses.  Owners are resolved lazily; a name the program no
# longer has is skipped, and its layer then reads 0.
PROGRAM_SITES = [
    ("ifmsim.cli", "build_parser", "cli.parse", None),
    ("ifmsim.cli", "sweep_grid", "sweep.sweep_grid", "rows"),
    ("ifmsim.cli", "to_csv", "sweep.to_csv", "csv_rows"),
    ("ifmsim.cli", "evolve", "evolution.evolve", "cycles"),
    ("ifmsim.cli", "estimate", "oracle.estimate", "traj_cycles"),
    ("ifmsim.sweep", "evolve", "evolution.evolve", "cycles"),
    ("ifmsim.verify", "run_checks", "verify.run_checks", "checks"),
    ("ifmsim.verify", "render_report", "verify.render_report", None),
    ("ifmsim.evolution", "evolve", "evolution.evolve", "cycles"),
    ("ifmsim.evolution", "step_coherent", "evolution.step", None),
    ("ifmsim.evolution", "step_collapse", "evolution.step", None),
    ("ifmsim.linalg", "is_hermitian", "linalg.is_hermitian", None),
    ("ifmsim.linalg", "is_psd", "linalg.is_psd", None),
    ("ifmsim.oracle", "estimate", "oracle.estimate", "traj_cycles"),
]

# Boundaries the benchmark itself crosses, looked up on its own namespace.
BENCH_SITES = [
    ("main", "cli.main", None),
    ("run_single", "sweep.run_single", "rows"),
    ("to_csv", "sweep.to_csv", "csv_rows"),
]


def _work(counter, args, result) -> int:
    """The amount of work one call did, in the unit its counter counts."""
    if counter == "rows":
        return len(result) if isinstance(result, list) else 1
    if counter == "csv_rows":
        return len(args[0])
    if counter == "cycles":
        return args[0].n
    if counter == "traj_cycles":
        return args[0].trajectories * args[0].cycle.n
    if counter == "checks":
        return len(result)
    raise ValueError(counter)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.work = Counter()
        self._stack = []
        self._saved = []

    def start(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        if name == "cli.parse":
            return self._wrap_parser(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                self.work[counter] += _work(counter, args, result)
            return result

        return traced

    def _wrap_parser(self, build_parser):
        """One cli.parse span from building the parser to the parsed args."""

        @functools.wraps(build_parser)
        def traced():
            idx = self.start("cli.parse")
            try:
                parser = build_parser()
            except BaseException:
                self.end(idx)
                raise
            parse_args = parser.parse_args

            def traced_parse(*args, **kwargs):
                try:
                    return parse_args(*args, **kwargs)
                finally:
                    self.end(idx)

            parser.parse_args = traced_parse
            return parser

        return traced

    def _patch(self, owner, attr, name, counter):
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, counter))

    def install(self, api) -> None:
        """Wrap the program's boundaries and the benchmark's namespace `api`."""
        for module, attr, name, counter in PROGRAM_SITES:
            self._patch(importlib.import_module(module), attr, name, counter)
        for attr, name, counter in BENCH_SITES:
            self._patch(api, attr, name, counter)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def self_times(self) -> Counter:
        """Self time in seconds, summed per span name."""
        out = Counter()
        for name, start, end, parent in self.spans:
            d = end - start
            out[name] += d
            if parent >= 0:
                out[self.spans[parent][0]] -= d
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer figures per timed pass, named as in BENCHMARK.json."""
    self_s = tracer.self_times()
    calls = Counter(span[0] for span in tracer.spans)
    work = tracer.work

    def per_pass(x):
        return x / passes

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    def layer(prefix, exclude=()):
        return sum(v for k, v in self_s.items() if k.startswith(prefix) and k not in exclude)

    run_checks_total = sum(
        s[2] - s[1] for s in tracer.spans if s[0] == "verify.run_checks"
    )
    sweep_self = layer("sweep.", exclude=("sweep.to_csv",))
    to_csv = self_s["sweep.to_csv"]
    evolve = self_s["evolution.evolve"]
    estimate = self_s["oracle.estimate"]
    return {
        "cli.parse_s": per_pass(self_s["cli.parse"]),
        "cli.self_s": per_pass(layer("cli.")),
        "sweep.rows": per_pass(work["rows"]),
        "sweep.self_s": per_pass(sweep_self),
        "sweep.self_us_per_row": ratio(sweep_self, work["rows"], 1e6),
        "sweep.to_csv_s": per_pass(to_csv),
        "sweep.csv_us_per_row": ratio(to_csv, work["csv_rows"], 1e6),
        "evolution.evolve_calls": per_pass(calls["evolution.evolve"]),
        "evolution.cycles": per_pass(work["cycles"]),
        "evolution.evolve_s": per_pass(evolve),
        "evolution.us_per_cycle": ratio(evolve, work["cycles"], 1e6),
        "evolution.step_calls": per_pass(calls["evolution.step"]),
        "evolution.step_s": per_pass(self_s["evolution.step"]),
        "linalg.calls": per_pass(calls["linalg.is_hermitian"] + calls["linalg.is_psd"]),
        "linalg.s": per_pass(layer("linalg.")),
        "oracle.estimate_calls": per_pass(calls["oracle.estimate"]),
        "oracle.traj_cycles": per_pass(work["traj_cycles"]),
        "oracle.estimate_s": per_pass(estimate),
        "oracle.ns_per_traj_cycle": ratio(estimate, work["traj_cycles"], 1e9),
        "verify.checks": per_pass(work["checks"]),
        "verify.run_checks_s": per_pass(run_checks_total),
        "verify.self_s": per_pass(layer("verify.")),
    }
