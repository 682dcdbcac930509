import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from ifmsim import oracle
from ifmsim.evolution import CycleConfig, Probabilities, evolve
from ifmsim.operators import Basis, switching_angle
from ifmsim.oracle import (
    OutcomeEstimate,
    TrajectoryConfig,
    compare,
    estimate,
    sample_trajectory,
    trajectory_key,
    trajectory_keys,
)


def _cfg(model, a, n, theta=None):
    return CycleConfig(model=model, a=a, n=n, theta=theta)


PINNED_SEEDS = (0, 7, 2**64 - 1)

# estimate(...).counts at 20,000 trajectories for each seed of PINNED_SEEDS,
# recorded from the per-trajectory-amplitude kernels this module replaced.
PINNED_COUNTS = {
    ("coherent", 0.0, 1, None): ((0, 20000, 0), (0, 20000, 0), (0, 20000, 0)),
    ("coherent", 0.0, 10, None): ((0, 20000, 0), (0, 20000, 0), (0, 20000, 0)),
    ("coherent", 0.0, 50, None): ((0, 20000, 0), (0, 20000, 0), (0, 20000, 0)),
    ("coherent", 0.5, 1, None): ((0, 9938, 10062), (0, 10042, 9958), (0, 10097, 9903)),
    ("coherent", 0.5, 10, None): ((6291, 1266, 12443), (6160, 1332, 12508), (6068, 1302, 12630)),
    ("coherent", 0.5, 50, None): ((15190, 115, 4695), (15189, 70, 4741), (15142, 86, 4772)),
    ("coherent", 1.0, 1, None): ((0, 0, 20000), (0, 0, 20000), (0, 0, 20000)),
    ("coherent", 1.0, 10, None): ((15698, 0, 4302), (15599, 0, 4401), (15555, 0, 4445)),
    ("coherent", 1.0, 50, None): ((19035, 0, 965), (19016, 0, 984), (18951, 0, 1049)),
    ("coherent", 1.0, 3, np.pi / 2): ((0, 0, 20000), (0, 0, 20000), (0, 0, 20000)),
    ("collapse", 0.0, 1, None): ((0, 20000, 0), (0, 20000, 0), (0, 20000, 0)),
    ("collapse", 0.0, 10, None): ((0, 20000, 0), (0, 20000, 0), (0, 20000, 0)),
    ("collapse", 0.0, 50, None): ((0, 20000, 0), (0, 20000, 0), (0, 20000, 0)),
    ("collapse", 0.5, 1, None): ((0, 9938, 10062), (0, 10042, 9958), (0, 10097, 9903)),
    ("collapse", 0.5, 10, None): ((10500, 872, 8628), (10537, 821, 8642), (10417, 833, 8750)),
    ("collapse", 0.5, 50, None): ((17344, 42, 2614), (17257, 56, 2687), (17281, 47, 2672)),
    ("collapse", 1.0, 1, None): ((0, 0, 20000), (0, 0, 20000), (0, 0, 20000)),
    ("collapse", 1.0, 10, None): ((15604, 0, 4396), (15561, 0, 4439), (15510, 0, 4490)),
    ("collapse", 1.0, 50, None): ((19020, 0, 980), (19041, 0, 959), (18983, 0, 1017)),
    ("collapse", 1.0, 3, np.pi / 2): ((0, 0, 20000), (0, 0, 20000), (0, 0, 20000)),
}


class TestStreams:
    def test_keys_match_single_key_derivation(self):
        keys = trajectory_keys(99, 50)
        assert [trajectory_key(99, i) for i in range(50)] == list(map(int, keys))

    def test_keys_are_distinct(self):
        keys = trajectory_keys(0, 10000)
        assert len(set(keys.tolist())) == 10000

    @pytest.mark.parametrize("bad_seed", [-1, 2**64])
    def test_rejects_out_of_range_seed(self, bad_seed):
        with pytest.raises(ValueError, match="2\\^64"):
            trajectory_keys(bad_seed, 1)

    @pytest.mark.parametrize(
        "bad_index", [math.inf, math.nan, 2.5, 2**64], ids=["inf", "nan", "2.5", "2^64"]
    )
    def test_rejects_bad_index(self, bad_index):
        with pytest.raises(ValueError, match=re.escape("index must be an integer in [0, 2^64)")):
            trajectory_key(0, bad_index)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match=">= 1"):
            trajectory_keys(0, 0)


class TestTrajectoryConfig:
    def test_rejects_zero_trajectories(self):
        with pytest.raises(ValueError, match="positive"):
            TrajectoryConfig(cycle=_cfg("coherent", 0.5, 3), trajectories=0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="2\\^64"):
            TrajectoryConfig(cycle=_cfg("coherent", 0.5, 3), trajectories=1, seed=-2)

    @pytest.mark.parametrize("bad_seed", [math.inf, math.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_seed(self, bad_seed):
        with pytest.raises(ValueError, match=re.escape("seed must be an integer in [0, 2^64)")):
            TrajectoryConfig(cycle=_cfg("coherent", 0.5, 3), trajectories=1, seed=bad_seed)


class TestEstimate:
    @pytest.mark.parametrize("model", ["coherent", "collapse"])
    def test_deterministic_for_fixed_seed(self, model):
        tc = TrajectoryConfig(cycle=_cfg(model, 0.5, 8), trajectories=4000, seed=123)
        assert estimate(tc) == estimate(tc)

    def test_different_seeds_differ(self):
        cyc = _cfg("coherent", 0.5, 8)
        a = estimate(TrajectoryConfig(cycle=cyc, trajectories=4000, seed=0))
        b = estimate(TrajectoryConfig(cycle=cyc, trajectories=4000, seed=1))
        assert a.counts != b.counts

    def test_counts_sum_to_trajectories(self):
        for model in ("coherent", "collapse"):
            est = estimate(
                TrajectoryConfig(cycle=_cfg(model, 0.7, 12), trajectories=5000, seed=5)
            )
            assert sum(est.counts) == 5000

    def test_single_trajectory(self):
        est = estimate(TrajectoryConfig(cycle=_cfg("coherent", 0.5, 3), trajectories=1))
        assert sum(est.counts) == 1

    def test_p_hat_and_stderr_are_exact_functions_of_counts(self):
        est = estimate(
            TrajectoryConfig(cycle=_cfg("collapse", 0.4, 9), trajectories=3000, seed=2)
        )
        m = est.trajectories
        for i in range(3):
            p = est.counts[i] / m
            assert est.p_hat[i] == p
            assert est.stderr[i] == np.sqrt(p * (1.0 - p) / m)

    @pytest.mark.parametrize("model", ["coherent", "collapse"])
    def test_fields_hold_python_numbers(self, model):
        est = estimate(TrajectoryConfig(cycle=_cfg(model, 0.4, 9), trajectories=300, seed=2))
        assert all(type(c) is int for c in est.counts)
        assert all(type(p) is float for p in (*est.p_hat, *est.stderr))
        assert "np." not in repr(est)

    @pytest.mark.parametrize("model", ["coherent", "collapse"])
    def test_aggregates_sample_trajectory(self, model):
        cyc = _cfg(model, 0.6, 7)
        est = estimate(TrajectoryConfig(cycle=cyc, trajectories=300, seed=42))
        counts = [0, 0, 0]
        for i in range(300):
            counts[int(sample_trajectory(cyc, trajectory_key(42, i)))] += 1
        assert tuple(counts) == est.counts

    @pytest.mark.parametrize("model", ["coherent", "collapse", "absent"])
    def test_no_absorber_always_switches(self, model):
        # a=0 with the switching angle is deterministic: every trajectory ends V
        est = estimate(
            TrajectoryConfig(cycle=_cfg(model, 0.0, 16), trajectories=5000, seed=3)
        )
        assert est.counts == (0, 5000, 0)

    @pytest.mark.parametrize("model", ["coherent", "collapse"])
    def test_certain_explosion_on_first_cycle(self, model):
        # a=1 and a quarter-turn rotation put the whole amplitude in the arm
        est = estimate(
            TrajectoryConfig(
                cycle=_cfg(model, 1.0, 1, theta=np.pi / 2), trajectories=5000, seed=4
            )
        )
        assert est.counts == (0, 0, 5000)

    def test_certain_absorption_stops_without_warnings(self):
        # a=1 and a quarter turn empty the arm-free amplitude: the coherent
        # norm becomes 0, which must end the run rather than produce NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model in ("coherent", "collapse"):
                est = estimate(TrajectoryConfig(
                    cycle=_cfg(model, 1.0, 3, theta=np.pi / 2), trajectories=100))
                assert est.counts == (0, 0, 100)
                assert est.max_norm_error == 0.0

    @pytest.mark.parametrize("model", ["coherent", "collapse"])
    def test_amplitude_norms_stay_unit(self, model):
        est = estimate(
            TrajectoryConfig(cycle=_cfg(model, 0.3, 500), trajectories=2000, seed=6)
        )
        assert est.max_norm_error <= 1e-12

    @pytest.mark.parametrize(
        "model,a,n", [("coherent", 0.5, 10), ("collapse", 0.5, 10)]
    )
    def test_concordance_smoke(self, model, a, n):
        cfg = _cfg(model, a, n)
        exact, _ = evolve(cfg)
        est = estimate(TrajectoryConfig(cycle=cfg, trajectories=100000, seed=0))
        assert np.abs(compare(est, exact)).max() <= 4.0


class TestPinnedCounts:
    @pytest.mark.parametrize("cell", list(PINNED_COUNTS), ids=str)
    def test_counts_match_recorded(self, cell):
        cycle = _cfg(*cell)
        got = tuple(
            estimate(TrajectoryConfig(cycle=cycle, trajectories=20000, seed=seed)).counts
            for seed in PINNED_SEEDS
        )
        assert got == PINNED_COUNTS[cell]


class TestChunking:
    @pytest.mark.parametrize(
        "model,a,n,theta",
        [("coherent", 0.5, 12, None), ("collapse", 0.5, 12, None),
         ("coherent", 0.3, 40, 2.5), ("collapse", 0.75, 40, 2.5)],
    )
    def test_estimate_is_chunk_invariant(self, monkeypatch, model, a, n, theta):
        tc = TrajectoryConfig(cycle=_cfg(model, a, n, theta), trajectories=1000, seed=11)
        results = []
        for chunk in (1, 7, 2**16, 1000, 5000):
            monkeypatch.setattr(oracle, "_CHUNK", chunk)
            results.append(estimate(tc))
        assert all(r == results[0] for r in results[1:])
        assert results[0].max_norm_error > 0.0  # the norm check is exercised

    def test_memory_does_not_grow_with_trajectories(self):
        def peak(trajectories):
            tc = TrajectoryConfig(cycle=_cfg("collapse", 0.5, 5), trajectories=trajectories)
            tracemalloc.start()
            try:
                estimate(tc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(200_000), peak(800_000)
        assert large <= 1.1 * small
        assert max(small, large) < 16 * 2**20

    # Measured peaks at this shape: 1.49 MiB collapse and 0.82 MiB coherent,
    # whatever the seed.  Each bound leaves ~10% for allocator and numpy
    # differences and stays below the 3.24 and 1.63 MiB that the kernels
    # took in chunks of 2**16 trajectories with an int32 cycle counter.
    @pytest.mark.parametrize("model,bound_mib", [("collapse", 1.65), ("coherent", 0.9)])
    def test_kernel_footprint_at_the_benchmark_shape(self, model, bound_mib):
        tc = TrajectoryConfig(cycle=_cfg(model, 0.5, 50), trajectories=100_000)
        tracemalloc.start()
        try:
            estimate(tc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


def _survivor_state(cycle):
    """evolve's (h, v): the populations of the not-absorbed block."""
    _, rho = evolve(cycle)
    return rho[0, 0].real, rho[1, 1].real


# Coherent cells of the table cross-check, leaving out those where almost
# every trajectory is absorbed (1 - p_b < 1e-6), as at a = 1 with theta = pi/2.
TABLE_CELLS = [
    (a, theta, n)
    for a in (0.0, 1e-12, 0.3, 0.5, 0.9, 1.0)
    for theta in (None, 0.3, 2.5)
    for n in (1, 10, 137)
    if sum(_survivor_state(_cfg("coherent", a, n, theta))) >= 1e-6
]


class TestTable:
    """The oracle's shared amplitude table against the density-matrix engine."""

    @pytest.mark.parametrize("a,theta,n", TABLE_CELLS, ids=str)
    def test_matches_evolve(self, a, theta, n):
        cycle = _cfg("coherent", a, n, theta)
        h, v = _survivor_state(cycle)
        table = oracle._table(n, cycle.resolved_theta(), a, collapse=False)
        assert len(table.cut_b) == n
        assert float(table.cut_v[-1]) * 2.0**-53 == pytest.approx(v / (h + v), rel=0, abs=1e-12)
        survival = np.prod(1.0 - table.cut_b.astype(np.float64) * 2.0**-53)
        assert survival == pytest.approx(h + v, rel=1e-12)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
    def test_entry_zero_is_h(self, a):
        # only the collapse table, built at a = 0, keeps the V cut of entry 0
        collapse = oracle._table(5, 0.3, 0.0, collapse=True)
        assert collapse.cut_v[0] == 0
        assert collapse.norm_err[0] == 0.0
        assert oracle._table(5, 0.3, a, collapse=False).norm_err[0] == 0.0

    @pytest.mark.parametrize("theta,n", [(0.3, 1), (0.3, 137), (switching_angle(10), 10)])
    def test_each_model_keeps_only_what_its_kernel_reads(self, theta, n):
        # At a = 0 both walks are the same walk, so the columns they share agree.
        coherent = oracle._table(n, theta, 0.0, collapse=False)
        collapse = oracle._table(n, theta, 0.0, collapse=True)
        assert list(coherent.cut_b) == [0] * n and len(collapse.cut_b) == 0
        assert len(coherent.cut_v) == 1 and len(collapse.cut_v) == n + 1
        assert coherent.cut_v[-1] == collapse.cut_v[-1]
        assert np.array_equal(coherent.norm_err, collapse.norm_err)
        assert len(collapse.norm_err) == n + 1

    def test_stops_at_a_cycle_that_absorbs_every_survivor(self):
        table = oracle._table(3, np.pi / 2, 1.0, collapse=False)
        assert list(map(int, table.cut_b)) == [2**53]
        assert len(table.cut_v) == len(table.norm_err) == 1


# Weights at the edges of the 53-bit grid: 0, the smallest subnormal, one
# grid step, both neighbours of 0.5, the largest double below 1, and 1.
EDGE_WEIGHTS = [
    0.0,
    2.0**-1074,
    2.0**-53,
    np.nextafter(2.0**-53, 0.0),
    np.nextafter(2.0**-53, 1.0),
    np.nextafter(0.5, 0.0),
    0.5,
    np.nextafter(0.5, 1.0),
    1.0 - 2.0**-53,
    1.0,
]


class TestDrawThresholds:
    @staticmethod
    def _weights():
        rng = np.random.default_rng(20240917)
        scales = 2.0 ** -rng.integers(0, 60, size=500)
        grid = rng.integers(0, 2**53, size=200) * 2.0**-53
        return EDGE_WEIGHTS + list(rng.random(500) * scales) + list(grid) + list(rng.random(300))

    def test_cut_matches_the_uniform_comparison(self):
        weights = self._weights()
        cuts = oracle._cut(np.array(weights))
        for p, cut in zip(weights, cuts):
            cut = int(cut)
            assert cut == int(oracle._cut(p))  # scalar and array agree
            for draw in range(max(cut - 3, 0), min(cut + 4, 2**53)):
                u = draw * 2.0**-53  # exact: draw < 2**53
                assert (draw < cut) == (u < p), (p, draw)
                assert (draw >= cut) == (u >= p), (p, draw)

    def test_extreme_cuts(self):
        assert int(oracle._cut(0.0)) == 0  # every draw is >= 0
        assert int(oracle._cut(2.0**-1074)) == 1  # only draw 0 is below it
        assert int(oracle._cut(1.0)) == 2**53  # no 53-bit draw survives weight 1
        assert oracle._cut(1.0).dtype == np.uint64

    def test_draws_are_53_bit_integers(self):
        draws = oracle._draw53(trajectory_keys(3, 10000))
        assert draws.dtype == np.uint64
        assert int(draws.max()) < 2**53
        assert int(draws.max()) >= 2**52  # the top bit is used

    def test_draws_into_a_buffer_leave_the_positions(self):
        positions = trajectory_keys(3, 1000) + oracle._PHI
        kept = positions.copy()
        buf = np.empty(1500, dtype=np.uint64)
        draws = oracle._draw53(positions, out=buf[:1000])
        assert np.shares_memory(draws, buf)
        assert np.array_equal(positions, kept)
        assert np.array_equal(draws, oracle._draw53(kept))

    def test_draws_with_scratch_allocate_nothing(self):
        positions = trajectory_keys(3, 100_000) + oracle._PHI
        buf, tmp = np.empty_like(positions), np.empty_like(positions)
        expected = oracle._draw53(positions.copy())
        tracemalloc.start()
        try:
            draws = oracle._draw53(positions, out=buf, scratch=tmp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096  # one 1e5-word temporary would be 800 KB
        assert np.array_equal(draws, expected)


class TestSampleTrajectory:
    def test_returns_basis_label(self):
        out = sample_trajectory(_cfg("coherent", 0.5, 5), trajectory_key(0, 0))
        assert isinstance(out, Basis)

    def test_rejects_bad_key(self):
        with pytest.raises(ValueError, match="2\\^64"):
            sample_trajectory(_cfg("coherent", 0.5, 5), -1)

    @pytest.mark.parametrize("bad_key", [math.inf, math.nan, 2**64], ids=["inf", "nan", "2^64"])
    def test_rejects_non_finite_or_large_key(self, bad_key):
        with pytest.raises(ValueError, match=re.escape("key must be an integer in [0, 2^64)")):
            sample_trajectory(_cfg("coherent", 0.5, 5), bad_key)


class TestCompare:
    def test_exact_agreement_is_zero(self):
        est = OutcomeEstimate(
            counts=(50, 25, 25),
            trajectories=100,
            p_hat=Probabilities(0.5, 0.25, 0.25),
            stderr=(0.05, 0.0433, 0.0433),
            max_norm_error=0.0,
        )
        z = compare(est, Probabilities(0.5, 0.25, 0.25))
        assert np.array_equal(z, np.zeros(3))

    def test_stderr_floor_avoids_division_by_zero(self):
        est = OutcomeEstimate(
            counts=(100, 0, 0),
            trajectories=100,
            p_hat=Probabilities(1.0, 0.0, 0.0),
            stderr=(0.0, 0.0, 0.0),
            max_norm_error=0.0,
        )
        z = compare(est, Probabilities(1.0, 0.0, 0.0))
        assert np.array_equal(z, np.zeros(3))
        # a true discrepancy at zero stderr is scaled by the 1/(2M) floor
        z = compare(est, Probabilities(0.99, 0.01, 0.0))
        assert z[0] == pytest.approx(0.01 / (1 / 200))
