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

import pytest

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
