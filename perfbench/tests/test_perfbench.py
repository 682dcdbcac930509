"""Tests of the benchmark itself: inputs, checks and the printed metric names.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_reference_loop_uses_no_program_code():
    code = ("import sys, worker; t = worker.reference_loop(); "
            "print(t > 0, 'ifmsim' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench",
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["True", "False"], proc.stderr


def test_report_gives_scaled_and_unscaled_times():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "5",
         "--seconds", "0.2", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    for key in ("wall_s", "raw_wall_s", "reference_s"):
        assert report[key][0]["median"] > 0, key
    assert report["reference_s"][0]["n"] == report["wall_s"][0]["n"] + 1
    assert report["setup_s"]["median"] > 0 and report["raw_setup_s"]["median"] > 0


def first_pass(workload, tmp_path, seed=5):
    w = workloads.WORKLOADS[workload](seed, "tiny", str(tmp_path))
    return w, w.run_pass(workloads.make_api())


def checked(w, p):
    outcome = workloads.Outcome()
    w.check(p, outcome)
    return outcome


def test_inputs_are_deterministic_in_the_seed(tmp_path):
    assert workloads.point_inputs(7, 500) == workloads.point_inputs(7, 500)
    assert workloads.point_inputs(7, 500) != workloads.point_inputs(8, 500)
    oracle = workloads.WORKLOADS["oracle"]
    a = oracle(7, "tiny", str(tmp_path)).argvs
    assert a == oracle(7, "tiny", str(tmp_path)).argvs
    assert a != oracle(8, "tiny", str(tmp_path)).argvs


def test_point_inputs_cover_the_stated_mix():
    inputs = workloads.point_inputs(1, 5000)
    assert {m for m, _, _, _ in inputs} == set(workloads.POINT_MODELS)
    assert {a for _, a, _, _ in inputs} >= set(workloads.EXTREME_A)
    assert min(n for _, _, n, _ in inputs) == 1 and max(n for _, _, n, _ in inputs) == 64
    explicit = [t for _, _, _, t in inputs if t is not None]
    assert 0.2 < len(explicit) / len(inputs) < 0.4
    assert all(0.0 <= t < 3.141592653589793 for t in explicit)


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_passes_and_prints_the_end_to_end_metrics(workload):
    result = run_bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_prints_the_per_layer_metrics(workload):
    result = run_bench(workload, trace=1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_oracle_reaches_the_validation_layers():
    m = {k: v["value"] for k, v in run_bench("oracle", trace=1)["metrics"].items()}
    for name in ("evolution.step_calls", "linalg.calls", "verify.self_s",
                 "oracle.estimate_s", "cli.parse_s", "cli.out_bytes"):
        assert m[name] > 0, name
    assert m["verify.checks"] == workloads.VERIFY_CHECKS
    assert m["oracle.estimate_calls"] == 2 + 3  # two commands, three verify cells
    assert m["sweep.rows"] == 0


def _replace_row(text: bytes, index: int, field: int, value: str) -> bytes:
    lines = text.decode().split("\n")
    fields = lines[index].split(",")
    fields[field] = value
    lines[index] = ",".join(fields)
    return "\n".join(lines).encode()


def test_corrupted_grid_row_is_caught(tmp_path):
    w, p = first_pass("grid", tmp_path)
    assert checked(w, p).failed == 0
    w2, p2 = first_pass("grid", tmp_path)
    code, out = p2.outputs[0]
    # the last row has a = 1, so p_h must match the perfect-absorber closed form
    p2.outputs[0] = (code, _replace_row(out, -2, 4, "0.5000000000000000"))
    outcome = checked(w2, p2)
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert "closed form" in outcome.problems[0]


def test_corrupted_grid_interior_value_fails_the_reference_check():
    from ifmsim import sweep_grid, to_csv

    cycles, steps = 6, 3
    for model in workloads.MODELS:
        csv = to_csv(sweep_grid(cycles, steps, model))
        rng = random.Random(0)
        assert workloads.grid_csv_problems(csv, model, cycles, steps, rng, 99) == []
        # row cycles + 3 has a = 0.5; every interior row is sampled
        bad = _replace_row(csv.encode(), cycles + 3, 4, "0.12500000000000000").decode()
        problems = workloads.grid_csv_problems(bad, model, cycles, steps, rng, 99)
        assert any("step kernels" in p for p in problems)


def test_grid_pass_that_differs_from_the_first_is_caught(tmp_path):
    w, p = first_pass("grid", tmp_path)
    checked(w, p)
    later = w.run_pass(workloads.make_api())
    code, out = later.outputs[1]
    later.outputs[1] = (code, out.replace(b"\n", b"\r\n", 1))
    outcome = checked(w, later)
    assert outcome.failed == 1 and "differs" in outcome.problems[0]


def test_corrupted_points_row_is_caught(tmp_path):
    w, p = first_pass("points", tmp_path)
    block, records, text = p.outputs
    lines = text.split("\n")
    fields = lines[5].split(",")
    fields[6] = repr(float(fields[6]) + 1e-9)
    lines[5] = ",".join(fields)
    p.outputs = (block, records, "\n".join(lines))
    outcome = checked(w, p)
    assert outcome.attempted == len(w.blocks[block]) and outcome.failed == 1


def test_points_passes_cycle_through_the_blocks_and_repeats_must_match(tmp_path):
    w = workloads.WORKLOADS["points"](5, "tiny", str(tmp_path))
    api = workloads.make_api()
    outcome = workloads.Outcome()
    for _ in w.blocks:
        w.check(w.run_pass(api), outcome)
    assert outcome.attempted == len(w.configs) and outcome.failed == 0
    again = w.run_pass(api)
    assert again.key == 0
    block, records, text = again.outputs
    again.outputs = (block, records, text.replace("\n", ",\n", 2))
    outcome = checked(w, again)
    assert outcome.failed == 1 and "differs" in outcome.problems[0]


def test_corrupted_oracle_count_is_caught(tmp_path):
    w, p = first_pass("oracle", tmp_path)
    code, out = p.outputs[0]
    lines = out.decode().split("\n")
    name, count, *rest = lines[1].split(",")
    lines[1] = ",".join([name, str(int(count) + 1), *rest])
    p.outputs[0] = (code, "\n".join(lines).encode())
    outcome = checked(w, p)
    assert (outcome.attempted, outcome.failed) == (2 + workloads.VERIFY_CHECKS, 1)
    assert "do not sum" in outcome.problems[0]


def test_failed_verify_check_is_counted(tmp_path):
    w, p = first_pass("oracle", tmp_path)
    code, out = p.outputs[2]
    bad = out.replace(b"PASS trace-preservation", b"FAIL trace-preservation")
    p.outputs[2] = (1, bad.replace(b"all 12 checks passed", b"1 of 12 checks failed"))
    outcome = checked(w, p)
    assert (outcome.attempted, outcome.failed) == (2 + workloads.VERIFY_CHECKS, 1)

    # a nonzero exit with an all-PASS report fails every check
    w2, p2 = first_pass("oracle", tmp_path)
    p2.outputs[2] = (1, p2.outputs[2][1])
    outcome = checked(w2, p2)
    assert outcome.failed == workloads.VERIFY_CHECKS


def test_run_without_the_program_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "worker.py", "workloads.py", "tracer.py"):
        (tmp_path / "perfbench" / f).write_text((ROOT / "perfbench" / f).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
