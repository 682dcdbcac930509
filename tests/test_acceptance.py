"""End-to-end acceptance suite.

Each test covers one headline behavior of the package and prints a single
PASS/FAIL line with the measured numbers, so a full run doubles as a
report.  These tests are slower than the unit suites (the trajectory
concordance sweep runs sixty million cycles); expect a couple of minutes.
"""

import math
import subprocess
import sys
import time

import numpy as np

from ifmsim.evolution import (
    CycleConfig,
    ParticleModel,
    closed_form_no_particle,
    closed_form_perfect_absorber,
    evolve,
    step_coherent,
    step_collapse,
)
from ifmsim.operators import rotator2, rotator_eigen, rotator_power, switching_angle
from ifmsim.oracle import TrajectoryConfig, compare, estimate
from ifmsim.sweep import sweep_absorption
from ifmsim.verify import _random_states


def _random_density_matrix(rng):
    return _random_states(rng, 1)[-1][0]


def _report(capsys, num, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"criterion {num}: {verdict}  {detail}", flush=True)
    assert passed, f"criterion {num}: {detail}"


def test_two_dozen_cycle_explosion_bound(capsys):
    cfg = CycleConfig(model="coherent", a=1.0, n=24)
    for _ in range(3):
        evolve(cfg)
    elapsed = min(
        _timed(lambda: evolve(cfg)) for _ in range(5)
    )
    probs, _ = evolve(cfg)
    expected = 1.0 - math.cos(math.pi / 48.0) ** 48
    gap = abs(probs.p_b - expected)
    passed = gap <= 1e-9 and probs.p_b < 0.10 and elapsed < 1e-3
    _report(
        capsys,
        1,
        passed,
        f"p_b={probs.p_b:.12f} (closed form gap {gap:.2e}, tol 1e-9), "
        f"p_b<0.10, evolve time {elapsed * 1e3:.3f} ms (< 1 ms)",
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_empty_interrogator_always_switches(capsys):
    start = time.perf_counter()
    worst = 1.0
    for n in range(1, 501):
        probs, _ = evolve(CycleConfig(model="absent", a=0.0, n=n))
        worst = min(worst, probs.p_v)
    elapsed = time.perf_counter() - start
    passed = worst >= 1.0 - 1e-10 and elapsed < 1.0
    _report(
        capsys,
        2,
        passed,
        f"min p_v over N=1..500 is {worst:.15f} (floor 1-1e-10), "
        f"time {elapsed:.3f} s (< 1 s)",
    )


def test_limiting_cases_match_closed_forms(capsys):
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 251):
        theta = switching_angle(n)
        empty = closed_form_no_particle(theta, n)
        bomb = closed_form_perfect_absorber(theta, n)
        for model in ("coherent", "collapse"):
            probs, _ = evolve(CycleConfig(model=model, a=0.0, n=n))
            worst = max(worst, max(abs(a - b) for a, b in zip(probs, empty)))
            probs, _ = evolve(CycleConfig(model=model, a=1.0, n=n))
            worst = max(worst, max(abs(a - b) for a, b in zip(probs, bomb)))
        probs, _ = evolve(CycleConfig(model="absent", a=0.0, n=n))
        worst = max(worst, max(abs(a - b) for a, b in zip(probs, empty)))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-10 and elapsed < 5.0
    _report(
        capsys,
        3,
        passed,
        f"max closed-form error {worst:.2e} over N=1..250, a in {{0,1}} "
        f"(tol 1e-10), time {elapsed:.3f} s (< 5 s)",
    )


def test_steps_preserve_density_matrix_structure(capsys):
    rng = np.random.default_rng(424242)
    start = time.perf_counter()
    trace_dev = 0.0
    herm_dev = 0.0
    min_eig = np.inf
    for _ in range(1000):
        rho = _random_density_matrix(rng)
        theta = rng.uniform(0.0, math.pi)
        a = rng.uniform(0.0, 1.0)
        for step in (step_coherent, step_collapse):
            out = step(rho, theta, a)
            trace_dev = max(trace_dev, abs(np.trace(out).real - 1.0))
            trace_dev = max(trace_dev, abs(np.trace(out).imag))
            herm_dev = max(herm_dev, np.abs(out - out.conj().T).max())
            min_eig = min(
                min_eig,
                np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min(),
            )
    rho_b = np.zeros((3, 3), dtype=complex)
    rho_b[2, 2] = 1.0
    fixed = all(
        np.array_equal(step(rho_b, theta, a), rho_b)
        for step in (step_coherent, step_collapse)
        for theta in (0.1, math.pi / 48, 1.0)
        for a in (0.0, 0.5, 1.0)
    )
    elapsed = time.perf_counter() - start
    passed = (
        trace_dev <= 1e-13
        and herm_dev <= 1e-12
        and min_eig >= -1e-10
        and fixed
        and elapsed < 10.0
    )
    _report(
        capsys,
        4,
        passed,
        f"1000 random states x both steps: trace dev {trace_dev:.2e} "
        f"(tol 1e-13), hermiticity dev {herm_dev:.2e} (tol 1e-12), min "
        f"eigenvalue {min_eig:.2e} (floor -1e-10), absorbed state fixed "
        f"point {'exact' if fixed else 'BROKEN'}, time {elapsed:.3f} s "
        f"(< 10 s)",
    )


def test_models_agree_at_extremes_and_converge(capsys):
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(100):
        rho = _random_density_matrix(rng)
        theta = rng.uniform(0.0, math.pi)
        for a in (0.0, 1.0):
            diff = step_coherent(rho, theta, a) - step_collapse(rho, theta, a)
            worst = max(worst, np.abs(diff).max())
    gaps = {}
    for n in (10, 250):
        cfg = lambda model: CycleConfig(model=model, a=0.5, n=n)
        coh, _ = evolve(cfg("coherent"))
        col, _ = evolve(cfg("collapse"))
        gaps[n] = [abs(x - y) for x, y in zip(coh, col)]
    shrinks = all(g250 <= g10 for g250, g10 in zip(gaps[250], gaps[10]))
    passed = worst <= 1e-12 and shrinks
    gap10 = ", ".join(f"{g:.4f}" for g in gaps[10])
    gap250 = ", ".join(f"{g:.4f}" for g in gaps[250])
    _report(
        capsys,
        5,
        passed,
        f"extreme-a step gap {worst:.2e} (tol 1e-12); a=0.5 per-outcome "
        f"model gaps (h, v, b): N=10 [{gap10}] vs N=250 [{gap250}]",
    )


def test_trajectory_estimates_concord_with_channel(capsys):
    worst_z = 0.0
    worst_cell = None
    for model in (ParticleModel.COHERENT, ParticleModel.COLLAPSE):
        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            for n in (1, 10, 50):
                cycle = CycleConfig(model=model, a=a, n=n)
                est = estimate(
                    TrajectoryConfig(cycle=cycle, trajectories=10**6, seed=0)
                )
                exact, _ = evolve(cycle)
                z = np.abs(compare(est, exact)).max()
                if z > worst_z:
                    worst_z = z
                    worst_cell = (model.value, a, n)
    passed = worst_z <= 4.0
    _report(
        capsys,
        6,
        passed,
        f"30 cells x 1e6 trajectories: max |z| = {worst_z:.3f} at "
        f"{worst_cell} (tol 4)",
    )


def test_rotator_power_matches_iterated_product(capsys):
    angles = [1e-4, 0.01, math.pi / 48, 0.3, math.pi / 4, 1.0, 2.0, math.pi / 2]
    worst_pow = 0.0
    worst_rec = 0.0
    for theta in angles:
        r = rotator2(theta)
        acc = np.eye(2)
        for n in range(1, 10_001):
            acc = r @ acc
            worst_pow = max(
                worst_pow, np.abs(rotator_power(theta, n) - acc).max()
            )
    for theta in angles:
        eig = rotator_eigen(theta)
        rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
        worst_rec = max(worst_rec, np.abs(rebuilt - rotator2(theta)).max())
    passed = worst_pow <= 1e-10 and worst_rec <= 1e-13
    _report(
        capsys,
        7,
        passed,
        f"power vs iterated product max gap {worst_pow:.2e} over 8 angles x "
        f"N<=1e4 (tol 1e-10); eigenvector reconstruction error "
        f"{worst_rec:.2e} (tol 1e-13)",
    )


def test_detection_improves_with_absorption(capsys):
    worst_dip = 0.0
    for model in ("coherent", "collapse"):
        for n in (10, 50, 250):
            records = sweep_absorption(n, 21, model)
            p_h = [rec.p_h for rec in records]
            for lo, hi in zip(p_h, p_h[1:]):
                worst_dip = max(worst_dip, lo - hi)
    passed = worst_dip <= 1e-12
    _report(
        capsys,
        8,
        passed,
        f"p_h non-decreasing in a over 21-point grids at N in {{10,50,250}}, "
        f"both models: worst dip {worst_dip:.2e} (tol 1e-12)",
    )


def test_cli_output_is_reproducible(capsys, tmp_path):
    commands = [
        ["run", "--cycles", "24"],
        ["sweep-cycles", "--absorption", "0", "--cycles", "50"],
        ["sweep-absorption", "--cycles", "10", "--steps", "21"],
        ["grid", "--cycles", "20", "--steps", "5", "--model", "collapse"],
        ["oracle", "--cycles", "10", "--absorption", "0.5",
         "--trajectories", "50000", "--seed", "7"],
        ["verify"],
    ]
    identical = True
    detail = []
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "ifmsim", *argv], capture_output=True
            )
            for _ in range(2)
        ]
        out_path = tmp_path / ("out-" + argv[0] + ".txt")
        subprocess.run(
            [sys.executable, "-m", "ifmsim", *argv, "--out", str(out_path)],
            capture_output=True,
        )
        same = (
            runs[0].stdout == runs[1].stdout
            and runs[0].returncode == runs[1].returncode == 0
            and out_path.read_bytes() == runs[0].stdout
        )
        identical &= same
        if not same:
            detail.append(argv[0])
    _report(
        capsys,
        9,
        identical,
        "verify and every sweep subcommand byte-identical across reruns "
        "(stdout and --out)" if identical else
        f"output differed across reruns for: {', '.join(detail)}",
    )
