"""Property test: estimate() against a pure-Python replay of the draw order.

The replay shares no code with the oracle's kernels.  It derives stream keys
and draws with Python integers, mix64(key + (j+1)*PHI) >> 11, compares each
draw as the uniform draw * 2**-53 against a probability in floating point,
and computes the per-cycle probabilities from real amplitudes of its own.
Those can differ from the kernels' in the last bit; a count could then
differ only if a draw fell within an ulp of a probability, which happens
with probability about 2**-53 per draw.
"""

import math
from itertools import islice

import numpy as np
import pytest

from ifmsim import oracle
from ifmsim.evolution import CycleConfig, ParticleModel
from ifmsim.oracle import TrajectoryConfig, _Stream, estimate

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_MASK = 2**64 - 1
_PHI = 0x9E3779B97F4A7C15


def _mix64(x):
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _stream(seed, index):
    """The uniforms of trajectory `index` of `seed`, in draw order."""
    key = _mix64((seed + (index + 1) * _PHI) & _MASK)
    j = 0
    while True:
        yield (_mix64((key + (j + 1) * _PHI) & _MASK) >> 11) * 2.0**-53
        j += 1


def _coherent_outcome(draws, n, theta, a):
    c, s = math.cos(theta), math.sin(theta)
    h, v = 1.0, 0.0
    for _ in range(n):
        h, v = c * h - s * v, s * h + c * v
        absorbed = a * v * v
        norm = math.sqrt(h * h + (1.0 - a) * v * v)
        if next(draws) < absorbed or absorbed >= 1.0 or norm == 0.0:
            return 2
        h, v = h / norm, math.sqrt(1.0 - a) * v / norm
    return 1 if next(draws) < v * v else 0


def _collapse_outcome(draws, n, theta, a):
    c, s = math.cos(theta), math.sin(theta)
    p_v = [0.0]  # |<V|R^k|H>|^2 by repeated rotation
    h, v = 1.0, 0.0
    for _ in range(n):
        h, v = c * h - s * v, s * h + c * v
        p_v.append(v * v)
    k = 0
    for _ in range(n):
        k += 1
        if next(draws) < a:  # the particle measures: a second draw decides
            if next(draws) < p_v[k]:
                return 2
            k = 0
    return 1 if next(draws) < p_v[k] else 0


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    model=st.sampled_from([ParticleModel.COHERENT, ParticleModel.COLLAPSE]),
    a=st.sampled_from([0.0, 1e-12, 0.5, 1.0]) | st.floats(0.0, 1.0),
    theta=st.none() | st.floats(-math.pi, math.pi),
    n=st.integers(1, 40),
    trajectories=st.integers(1, 2000),
    seed=st.integers(0, 2**64 - 1),
)
@hypothesis.example(
    model=ParticleModel.COHERENT, a=1.0, theta=math.pi / 2, n=3, trajectories=50, seed=0
)
@hypothesis.example(
    model=ParticleModel.COLLAPSE, a=0.5, theta=None, n=40, trajectories=2000, seed=2**64 - 1
)
# collapse cycles where no trajectory measures, and cycles where every one does
@hypothesis.example(
    model=ParticleModel.COLLAPSE, a=1e-6, theta=None, n=40, trajectories=2000, seed=11
)
@hypothesis.example(
    model=ParticleModel.COLLAPSE, a=1.0, theta=0.3, n=12, trajectories=2000, seed=12
)
# a survivor's cycle counter at the top of one byte (n = 255), and one past it
@hypothesis.example(
    model=ParticleModel.COLLAPSE, a=1e-6, theta=None, n=255, trajectories=300, seed=13
)
@hypothesis.example(
    model=ParticleModel.COLLAPSE, a=1e-6, theta=None, n=256, trajectories=300, seed=14
)
def test_estimate_replays_the_documented_draw_order(model, a, theta, n, trajectories, seed):
    cycle = CycleConfig(model=model, a=a, n=n, theta=theta)
    outcome = _collapse_outcome if model is ParticleModel.COLLAPSE else _coherent_outcome
    counts = [0, 0, 0]
    for i in range(trajectories):
        counts[outcome(_stream(seed, i), n, cycle.resolved_theta(), cycle.a)] += 1
    est = estimate(TrajectoryConfig(cycle=cycle, trajectories=trajectories, seed=seed))
    assert est.counts == tuple(counts)


@pytest.mark.parametrize("seed", [0, 20240917, 2**64 - 1])
def test_seeded_stream_replays_trajectory_zero(seed):
    stream = _Stream(seed)
    got = [*stream.random(1), *stream.random(0), *stream.random(40), *stream.random(159)]
    assert got == list(islice(_stream(seed, 0), 200))



def _unxorshift(y, shift):
    """The x with x ^ (x >> shift) == y."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def _unword(w):
    """The x whose SplitMix64 word is w: mix64(x) == w ^ (w >> 31).

    Both odd multipliers are invertible mod 2**64, and so is each xor-shift.
    """
    x = (w * pow(0x94D049BB133111EB, -1, 2**64)) & _MASK
    x = (_unxorshift(x, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & _MASK
    return _unxorshift(x, 30)


# cuts at both edges of a step of hi(c) = ceil(c / 2**22) * 2**33, and at the
# top, where hi(c) reaches 2**64
BUCKET_CUTS = [
    1, 2**22 - 1, 2**22, 2**22 + 1, 2**52, 2**53 - 2**22, 2**53 - 2**22 + 1, 2**53 - 1, 2**53
]


@pytest.mark.parametrize("budget", [1, 2**15], ids=["rounds of one cycle", "one round"])
@pytest.mark.parametrize("cut", BUCKET_CUTS)
def test_words_at_the_candidate_bucket_settle_as_full_draws(monkeypatch, budget, cut):
    # The coherent kernel finishes the mix only for a word below hi(c): a
    # draw reaches that bucket with probability ~2**-31, so random keys never
    # test its edges.  These keys put cycle 1's word at the edges and inside
    # it, and each outcome is replayed from full draws.  Cycle 0's cut of 1
    # lets almost every key reach cycle 1.
    hi = -(-cut // 2**22) * 2**33
    words = [hi - 2**33 - 1, hi - 2**33, cut * 2**11 - 1, cut * 2**11, hi - 1, hi]
    words = [w & _MASK for w in words]
    keys = [(_unword(w) - 2 * _PHI) & _MASK for w in words]
    assert [_mix64((k + 2 * _PHI) & _MASK) for k in keys] == [w ^ (w >> 31) for w in words]
    cuts, cut_v = [1, cut, cut], 2**52
    table = oracle._Table(
        cut_b=np.array(cuts, dtype=np.uint64),
        cut_v=np.array([cut_v], dtype=np.uint64),
        norm_err=np.zeros(len(cuts) + 1),
    )
    monkeypatch.setattr(oracle, "_ROUND", budget)
    expected = [0, 0, 0]
    for key in keys:
        draws = [_mix64((key + (j + 1) * _PHI) & _MASK) >> 11 for j in range(len(cuts) + 1)]
        if any(d < c for d, c in zip(draws, cuts)):
            outcome = 2
        else:
            outcome = 1 if draws[-1] < cut_v else 0
        expected[outcome] += 1
        counts, _ = oracle._run_coherent(np.array([key], dtype=np.uint64), len(cuts), table)
        assert counts.tolist() == [int(i == outcome) for i in range(3)], hex(key)
    counts, _ = oracle._run_coherent(np.array(keys, dtype=np.uint64), len(cuts), table)
    assert counts.tolist() == expected
