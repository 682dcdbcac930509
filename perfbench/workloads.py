"""The benchmark's workloads: inputs from a seed, timed passes, output checks.

Every workload drives ifmsim through its public functions, looked up on a
namespace the benchmark owns (``api``) so a traced run can wrap them.  A pass
is the unit that is timed; checks run after it, outside the timed section.
An operation is one CLI command, one ``run_single`` call or one verify check;
it fails on an exception, a nonzero exit or a failed output check.
"""

from __future__ import annotations

import math
import os
import random
import time
import types

import ifmsim
from ifmsim import cli
from ifmsim.evolution import (
    closed_form_no_particle,
    closed_form_perfect_absorber,
    initial_state,
    probabilities,
    step_coherent,
    step_collapse,
)

# Workload sizes.  "full" is what the benchmark measures; "tiny" is for the
# benchmark's own tests.
SIZES = {
    "full": {
        "grid": (100, 5),
        "points": (20000, 200),
        "oracle": (50, 100000),
        "check_sample": 40,
    },
    "tiny": {
        "grid": (12, 5),
        "points": (300, 100),
        "oracle": (10, 5000),
        "check_sample": 10,
    },
}

TOL = 1e-12
MODELS = ("coherent", "collapse")
POINT_MODELS = ("coherent", "collapse", "absent")
EXTREME_A = (0.0, 1e-12, 1e-6, 0.5, 1.0 - 1e-9, 1.0)
VERIFY_CHECKS = 12


def make_api():
    """The public entry points a workload calls; the tracer wraps these."""
    return types.SimpleNamespace(
        main=cli.main, run_single=ifmsim.run_single, to_csv=ifmsim.to_csv
    )


class Pass:
    """One timed pass: its wall time, per-call latencies and raw outputs.

    Passes with the same key make the same calls on the same inputs, so
    their times can be compared call by call.
    """

    def __init__(self, wall_s, calls_s, outputs, key=0):
        self.wall_s = wall_s
        self.calls_s = calls_s
        self.outputs = outputs
        self.key = key


class Outcome:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems, label) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {problems[0]}")


def _call_main(api, argv):
    """cli.main's exit code, or the exception it raised as text."""
    try:
        return api.main(argv)
    except (Exception, SystemExit) as exc:
        return f"raised {type(exc).__name__}: {exc}"


def _read(path) -> bytes | None:
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def _remove(path) -> None:
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def reference(model: str, a: float, n: int, theta: float):
    """Outcome probabilities from the validated step kernels, one cycle at a time."""
    step = step_collapse if model == "collapse" else step_coherent
    a = 0.0 if model == "absent" else a
    rho = initial_state()
    for _ in range(n):
        rho = step(rho, theta, a)
    return probabilities(rho)


def closed_form(model: str, a: float, n: int, theta: float):
    """The exact answer where one exists (no particle, or a perfect absorber)."""
    if model == "absent" or a == 0.0:
        return closed_form_no_particle(theta, n)
    if a == 1.0:
        return closed_form_perfect_absorber(theta, n)
    return None


def real_problem(text: str) -> str | None:
    """Why a CSV real breaks the CSV contract's number format, or None.

    Positional notation for zero and for magnitudes in [1e-4, 1e17),
    scientific otherwise.  Text alone cannot prove a value round-trips; the
    callers compare parsed values with values known independently.
    """
    try:
        v = float(text)
    except ValueError:
        return f"not a number: {text!r}"
    if not math.isfinite(v):
        return f"not finite: {text!r}"
    positional = v == 0.0 or 1e-4 <= abs(v) < 1e17
    if positional == ("e" in text):
        return f"{text!r} is in the wrong notation"
    return None


def row_problems(fields, model, a, n, theta, rec=None) -> list[str]:
    """Problems with one parsed CSV row against its expected parameters.

    With `rec` (a SweepRecord) the probabilities must parse back to its exact
    values; limiting cases are always checked against the closed forms.
    """
    if len(fields) != 7:
        return [f"expected 7 fields, got {len(fields)}"]
    problems = [p for p in map(real_problem, (fields[1],) + tuple(fields[3:])) if p]
    if problems:
        return problems
    got_a, got_theta = float(fields[1]), float(fields[3])
    probs = tuple(float(x) for x in fields[4:])
    if fields[0] != model or got_a != a or fields[2] != str(n) or got_theta != theta:
        return [f"parameters {fields[:4]} != {(model, a, n, theta)}"]
    if rec is not None and probs != (rec.p_h, rec.p_v, rec.p_b):
        return [f"probabilities {fields[4:]} do not parse back to the record"]
    exact = closed_form(model, a, n, theta)
    if exact is not None and max(abs(x - y) for x, y in zip(probs, exact)) > TOL:
        return [f"{fields} differs from the closed form {tuple(exact)}"]
    return []


def reference_problem(model, a, n, theta, probs) -> str | None:
    ref = reference(model, a, n, theta)
    dev = max(abs(x - y) for x, y in zip(probs, ref))
    if dev > TOL:
        return f"{(model, a, n, theta)} deviates {dev:.3e} from the step kernels"
    return None


def _split_csv(text: str, rows: int):
    """Header problem (or None) and the data lines of an LF-terminated CSV."""
    if not text.endswith("\n"):
        return "output does not end with a line feed", []
    lines = text[:-1].split("\n")
    if lines[0] != ifmsim.CSV_HEADER:
        return f"header {lines[0]!r}", lines[1:]
    if len(lines) - 1 != rows:
        return f"{len(lines) - 1} rows, expected {rows}", lines[1:]
    return None, lines[1:]


def grid_csv_problems(text: str, model: str, cycles: int, steps: int, rng,
                      sample: int) -> list[str]:
    """Every check on one `grid` CSV: layout, exact floats, limits, reference."""
    head, lines = _split_csv(text, cycles * steps)
    if head:
        return [head]
    problems = []
    interior = []
    for idx, line in enumerate(lines):
        a = (idx // cycles) / (steps - 1)
        n = idx % cycles + 1
        fields = line.split(",")
        row = row_problems(fields, model, a, n, math.pi / (2.0 * n))
        problems += row
        if 0.0 < a < 1.0 and not row:
            interior.append((a, n, tuple(float(x) for x in fields[4:])))
    for a, n, probs in rng.sample(interior, min(sample, len(interior))):
        p = reference_problem(model, a, n, math.pi / (2.0 * n), probs)
        if p:
            problems.append(p)
    return problems


def oracle_problems(text: str, trajectories: int) -> list[str]:
    """Checks on one `oracle` report: layout, counts summing to the trajectories, PASS."""
    lines = text.split("\n")
    if len(lines) != 6 or lines[0] != "outcome,count,p_hat,p_exact,stderr,z":
        return [f"malformed report {lines[:1]}"]
    try:
        counts = [int(line.split(",")[1]) for line in lines[1:4]]
    except (IndexError, ValueError):
        return ["unparseable counts"]
    if sum(counts) != trajectories:
        return [f"counts {counts} do not sum to {trajectories}"]
    if not lines[4].startswith("PASS "):
        return [lines[4]]
    return []


def verify_check_problems(problems: list[str], out: bytes | None) -> list[list[str]]:
    """Problems per verify check: a FAIL line fails its check, any other fault all."""
    lines = out.decode().split("\n") if out is not None else []
    checks = lines[:VERIFY_CHECKS]
    well_formed = len(lines) == VERIFY_CHECKS + 2 and all(
        c.startswith(("PASS ", "FAIL ")) for c in checks
    )
    if well_formed and any(c.startswith("FAIL ") for c in checks):
        return [[c] if c.startswith("FAIL ") else [] for c in checks]
    if well_formed and not problems and lines[-2] == f"all {VERIFY_CHECKS} checks passed":
        return [[]] * VERIFY_CHECKS
    return [problems or ["malformed report"]] * VERIFY_CHECKS


class Commands:
    """A fixed list of CLI commands per pass, each ending in --out PATH.

    Set-up parses every command with the program's own parser; the parsed
    arguments also drive the output checks.
    """

    def __init__(self, argvs, seed, sample):
        parser = cli.build_parser()
        self.argvs = argvs
        self.args = [parser.parse_args(argv) for argv in argvs]
        self.seed = seed
        self.sample = sample
        self.first = None

    def run_pass(self, api) -> Pass:
        for argv in self.argvs:
            _remove(argv[-1])
        calls, codes = [], []
        t0 = time.perf_counter()
        for argv in self.argvs:
            t = time.perf_counter()
            codes.append(_call_main(api, argv))
            calls.append(time.perf_counter() - t)
        wall = time.perf_counter() - t0
        outputs = [_read(argv[-1]) for argv in self.argvs]
        return Pass(wall, calls, list(zip(codes, outputs)))

    def output_problems(self, i, out: bytes) -> list[str]:
        args = self.args[i]
        if args.command == "grid":
            rng = random.Random(f"grid-{self.seed}-{i}")
            return grid_csv_problems(out.decode(), args.model, args.cycles, args.steps,
                                     rng, self.sample)
        if args.command == "oracle":
            return oracle_problems(out.decode(), args.trajectories)
        return []

    def check(self, p: Pass, outcome: Outcome) -> None:
        """Exit codes, the first pass in full, later passes byte for byte."""
        if self.first is None:
            self.first = [out if code == 0 else None for code, out in p.outputs]
            self.first_problems = [
                [] if out is None else self.output_problems(i, out)
                for i, out in enumerate(self.first)
            ]
        for i, (code, out) in enumerate(p.outputs):
            if code != 0:
                problems = [f"exit {code}"]
            elif out is None:
                problems = ["no output written"]
            elif out != self.first[i]:
                problems = ["output differs from the run's first pass"]
            else:
                problems = self.first_problems[i]
            label = " ".join(self.argvs[i][:-2])
            if self.args[i].command == "verify":
                for check in verify_check_problems(problems, out):
                    outcome.add(check, label)
            else:
                outcome.add(problems, label)


def grid_workload(seed, size, tmpdir) -> Commands:
    """`grid` for each model, written to a file."""
    cycles, steps = SIZES[size]["grid"]
    return Commands(
        [["grid", "--cycles", str(cycles), "--steps", str(steps), "--model", m,
          "--out", os.path.join(tmpdir, f"grid-{m}.csv")] for m in MODELS],
        seed, SIZES[size]["check_sample"],
    )


def oracle_workload(seed, size, tmpdir) -> Commands:
    """`oracle` at a = 0.5 for each model, seeded from the benchmark seed, then `verify`."""
    cycles, trajectories = SIZES[size]["oracle"]
    return Commands(
        [["oracle", "--model", m, "--absorption", "0.5", "--cycles", str(cycles),
          "--trajectories", str(trajectories), "--seed", str(seed % 2**64),
          "--out", os.path.join(tmpdir, f"oracle-{m}.txt")] for m in MODELS]
        + [["verify", "--out", os.path.join(tmpdir, "verify.txt")]],
        seed, SIZES[size]["check_sample"],
    )


def point_inputs(seed: int, count: int):
    """(model, a, n, theta) tuples; the same seed gives the same list.

    Model uniform over the three; a from the extreme set 30% of the time,
    else uniform on [0, 1]; n log-uniform on 1..64; theta 'auto' (None) 70%
    of the time, else uniform on [0, pi).
    """
    rng = random.Random(f"points-{seed}")
    out = []
    for _ in range(count):
        model = rng.choice(POINT_MODELS)
        a = rng.choice(EXTREME_A) if rng.random() < 0.3 else rng.random()
        n = int(math.exp(rng.random() * math.log(65.0)))
        theta = None if rng.random() < 0.7 else math.pi * rng.random()
        out.append((model, a, n, theta))
    return out


class Points:
    """The stream cut into blocks; one pass is one block: run_single per config, then to_csv.

    Passes take the blocks in turn.  A pass is short so that a run holds many
    of them and their median is steady on a shared host.
    """

    def __init__(self, seed, size, tmpdir):
        count, block = SIZES[size]["points"]
        self.inputs = point_inputs(seed, count)
        self.configs = [ifmsim.CycleConfig(model=m, a=a, n=n, theta=t)
                        for m, a, n, t in self.inputs]
        self.blocks = [range(i, min(i + block, count)) for i in range(0, count, block)]
        # 5 x check_sample reference checks over the whole stream
        self.sample = max(1, SIZES[size]["check_sample"] * 5 // len(self.blocks))
        self.rng = random.Random(f"points-check-{seed}")
        self.passes = 0
        self.first = {}  # block index -> (CSV text, problems per config)

    def run_pass(self, api) -> Pass:
        b = self.passes % len(self.blocks)
        self.passes += 1
        configs = [self.configs[i] for i in self.blocks[b]]
        records, calls, raised = [], [], False
        t0 = time.perf_counter()
        for cfg in configs:
            t = time.perf_counter()
            try:
                records.append(api.run_single(cfg))
            except Exception:
                records.append(None)
                raised = True
            calls.append(time.perf_counter() - t)
        try:
            text = api.to_csv([r for r in records if r is not None] if raised else records)
        except Exception as exc:
            text = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        return Pass(wall, calls, (b, records, text), key=b)

    def expected(self, i):
        model, a, n, theta = self.inputs[i]
        a = 0.0 if model == "absent" else a
        return model, a, n, (math.pi / (2.0 * n) if theta is None else theta)

    def check(self, p: Pass, outcome: Outcome) -> None:
        """A block's first pass row by row, its later passes against it byte for byte."""
        b, records, text = p.outputs
        block = self.blocks[b]
        if b not in self.first:
            self.first[b] = (text, self.first_pass_problems(block, records, text))
        first_text, first_problems = self.first[b]
        identical = text == first_text
        lines = [] if identical else text.split("\n")
        first_lines = [] if identical else first_text.split("\n")
        row = 0
        for j, rec in enumerate(records):
            if rec is None:
                problems = ["run_single raised"]
            else:
                row += 1
                same = identical or (
                    row < min(len(lines), len(first_lines)) and lines[row] == first_lines[row]
                )
                problems = first_problems[j] if same else ["row differs from the first pass"]
            outcome.add(problems, f"run_single{self.expected(block[j])}" if problems else "")

    def first_pass_problems(self, block, records, text):
        kept = [j for j, r in enumerate(records) if r is not None]
        head, lines = _split_csv(text, len(kept))
        problems = [[head] if head else [] for _ in records]
        if head:
            return problems
        for j, line in zip(kept, lines):
            problems[j] = row_problems(line.split(","), *self.expected(block[j]), rec=records[j])
        for j in self.rng.sample(kept, min(self.sample, len(kept))):
            r = records[j]
            p = reference_problem(*self.expected(block[j]), (r.p_h, r.p_v, r.p_b))
            if p and not problems[j]:
                problems[j] = [p]
        return problems


WORKLOADS = {"grid": grid_workload, "points": Points, "oracle": oracle_workload}
