"""Monte Carlo trajectory unraveling of the channel evolution.

This module is validation plumbing: it simulates individual photon
trajectories whose outcome statistics must average to the deterministic
density-matrix results, giving an independent statistical cross-check.

Randomness is counter based.  Trajectory i of a seed owns the stream key
mix64(seed + (i+1)*PHI); its j-th draw is the 53-bit integer
d = mix64(key + (j+1)*PHI) >> 11, which stands for the uniform
u = d * 2**-53 in [0, 1).  Draws therefore depend only on (seed, trajectory
index, draw index), so estimates are reproducible bit for bit regardless of
execution order or batching.  Draw order per trajectory is fixed: each cycle
consumes one draw for the absorption/measurement decision (the collapse model
consumes a second draw in the cycles where the particle measures), and one
final draw picks H versus V from the surviving amplitudes.

Draws are never converted to floats.  A probability p is turned once per
run into the integer cut ceil(p * 2**53), and d < cut holds exactly when
u < p (d >= cut exactly when u >= p), so the integer comparison gives the
uniform comparison's outcome bit for bit with no rounding.

Because a trajectory's outcome depends only on (seed, index), the kernels
keep no amplitudes per trajectory.  All trajectories see the same operators,
so the amplitude a survivor holds is a function of how many cycles it has
seen (coherent) or of how many cycles have passed since its last collapse
(collapse).  Every operator is real, so that amplitude is a real 2-vector
(h, v), and one table per run holds what its kernel reads of it.  The
coherent model builds it at its own a and keeps cut_b[j], the cut of the
absorption weight in cycle j, and the cut of v^2 after the last cycle.  The
collapse model builds it at a = 0, since between measurements nothing
absorbs, and keeps cut_v[k], the cut of v^2 after k cycles.  Both keep
norm_err[k], the running norm check; entry 0 is the starting |H>.  A
coherent trajectory carries only its key; a collapse trajectory carries its
stream position (key and draw counter in one word, key + (j+1)*PHI for its
next draw j) and its table index k.
estimate() streams trajectory indices through the kernels in fixed-size
chunks and sums their counts, so memory stays bounded however many
trajectories are asked for.  A chunk is 2**15 trajectories, so that a
collapse chunk's live arrays (positions, two uint64 scratch arrays, a
byte-wide table index at the usual cycle counts, masks) come to about 1 MB
and fit one core's L2 cache; twice that did not.  Each chunk's index array
becomes its keys in place, and the collapse kernel advances those keys in
place as its stream positions, so a chunk holds no spare copy of either.

The same streams serve as the package's only seeded sampler: _Stream(seed)
hands out trajectory 0's draws of `seed` as uniforms, and the `verify`
suite draws all its samples from it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .evolution import CycleConfig, ParticleModel, Probabilities
from .operators import Basis, _check_count

__all__ = [
    "TrajectoryConfig",
    "OutcomeEstimate",
    "trajectory_key",
    "trajectory_keys",
    "sample_trajectory",
    "estimate",
    "compare",
]

_PHI = np.uint64(0x9E3779B97F4A7C15)
_U64_MAX = 2**64 - 1
# Trajectories per kernel call; results do not depend on it.  2**15 fits a
# collapse chunk in L2 (module docstring) and still runs each of verify's
# 20,000-trajectory cells as one chunk.
_CHUNK = 1 << 15


def _mix64(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """SplitMix64 finalizer: a bijective scramble of 64-bit words.

    Mixes into `out` and returns it; in place (into x) when out is None.
    `scratch`, a uint64 array of x's size, holds the shifted words; a call
    that passes it allocates nothing, and one that does not allocates it.
    """
    t = np.right_shift(x, np.uint64(30), out=scratch)
    x = np.bitwise_xor(x, t, out=x if out is None else out)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= np.uint64(0x94D049BB133111EB)
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    return x


def _check_u64(value: int, name: str) -> int:
    message = f"{name} must be an integer in [0, 2^64)"
    v = _check_count(value, 0, message)
    if v > _U64_MAX:
        raise ValueError(message)
    return v


def _keys_for(seed: int, indices: np.ndarray) -> np.ndarray:
    """The keys mix64(seed + (i+1)*PHI) of a uint64 array of indices i.

    Consumes `indices`: the keys are made in its array, which is returned.
    """
    # uint64 arithmetic wraps silently only for arrays, so stay vectorized
    indices += np.uint64(1)
    indices *= _PHI
    indices += np.uint64(seed)
    return _mix64(indices)


def trajectory_keys(seed: int, count: int) -> np.ndarray:
    """Stream keys for trajectories 0..count-1 of `seed`, as a uint64 array."""
    seed = _check_u64(seed, "seed")
    count = _check_count(count, 1, "count must be >= 1")
    return _keys_for(seed, np.arange(count, dtype=np.uint64))


def trajectory_key(seed: int, index: int) -> int:
    """The stream key of one trajectory; estimate() uses exactly these."""
    seed = _check_u64(seed, "seed")
    index = _check_u64(index, "index")
    return int(_keys_for(seed, np.array([index], dtype=np.uint64))[0])


def _draw53(
    positions: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """The draws at stream positions key + (j+1)*PHI, as 53-bit integers.

    Writes mix64(position) >> 11 into `out` (into `positions` itself when
    out is None) and returns it; `scratch` is _mix64's, so a call given both
    allocates nothing.  A draw d stands for the uniform d * 2**-53 in
    [0, 1); compare it with _cut(p), never with p itself.
    """
    x = _mix64(positions, out, scratch)
    x >>= np.uint64(11)
    return x


class _Stream:
    """The draws of trajectory 0 of `seed`, in order, as uniforms in [0, 1).

    random(size) returns the next `size` uniforms d * 2**-53 and moves past
    them, as numpy's Generator.random does.  They are the draws
    sample_trajectory reads for trajectory_key(seed, 0), and each is an
    exact IEEE function of its integer draw, the same on every platform.
    """

    def __init__(self, seed: int):
        self._key = np.uint64(trajectory_key(seed, 0))
        self._drawn = 0

    def random(self, size: int) -> np.ndarray:
        pos = np.arange(self._drawn + 1, self._drawn + size + 1, dtype=np.uint64)
        self._drawn += size
        pos *= _PHI
        pos += self._key
        return _draw53(pos) * 2.0**-53


def _cut(p):
    """ceil(p * 2**53) as uint64, for p in [0, 1] (a scalar or an array).

    For a 53-bit draw d and u = d * 2**-53, u < p exactly when d < _cut(p)
    and u >= p exactly when d >= _cut(p): scaling by 2**53 is exact, and an
    integer is below x exactly when it is below ceil(x).
    """
    return np.ceil(np.asarray(p, dtype=np.float64) * 2.0**53).astype(np.uint64)


@dataclass(frozen=True)
class _Table:
    """The amplitude every survivor shares, k cycles after it was last |H>.

    Each model keeps only the columns its kernel reads.  cut_b[j] is _cut
    of the Born probability of absorption in cycle j; the table stops early
    at a cycle that absorbs every survivor (weight 1.0, cut 2**53).  The
    collapse table, built at a = 0, leaves cut_b empty.  cut_v[k] is _cut of
    |amp_V|^2 after k cycles in the collapse table; the coherent table keeps
    only the entry after its last full cycle, as cut_v[-1].  norm_err[k] is
    the largest |norm^2 - 1| of the renormalized amplitudes after 0..k
    cycles.  Entry 0 is |H> itself, so norm_err[0] = 0.0 and, in the
    collapse table, cut_v[0] = 0.
    """

    cut_b: np.ndarray
    cut_v: np.ndarray
    norm_err: np.ndarray


def _table(n: int, theta: float, a: float, collapse: bool) -> _Table:
    """Walk the survivor amplitude (h, v) through up to n cycles at absorption a.

    Each cycle rotates by theta, records the absorption weight a*v^2, keeps
    sqrt(1-a)*v and renormalizes.  All amplitudes are real, so two floats
    carry them.  The collapse table records v^2 after every cycle and no
    weights; the coherent table records every weight and v^2 after the
    last cycle only.
    """
    c, s = math.cos(theta), math.sin(theta)
    keep = math.sqrt(1.0 - a)
    h, v = 1.0, 0.0
    # packed doubles: 8 bytes an entry, where a list of floats takes ~32
    weights, p_v, errs = array("d"), array("d", [0.0]), array("d", [0.0])
    for _ in range(n):
        h, v = c * h - s * v, s * h + c * v
        w = a * v * v
        v *= keep
        norm = math.sqrt(h * h + v * v)
        if w >= 1.0 or norm == 0.0:
            weights.append(1.0)  # no draw in [0, 1) survives this cycle
            break
        h, v = h / norm, v / norm
        if collapse:
            p_v.append(v * v)
        else:
            weights.append(w)
            p_v[0] = v * v
        errs.append(abs(h * h + v * v - 1.0))
    return _Table(_cut(weights), _cut(p_v), np.maximum.accumulate(errs))


def _run_coherent(keys: np.ndarray, n: int, table: _Table):
    """Outcome counts (n_h, n_v, n_b) of the coherent model, one trajectory per key.

    Every trajectory starts in |H> and sees the same unitary each cycle, so
    all survivors of cycle j share one renormalized amplitude and have drawn
    exactly j draws.  Per-trajectory state is therefore just the key:
    cycle j keeps the keys whose draw j is >= table.cut_b[j], and draw n
    splits the survivors into V (below table.cut_v[-1]) and H.  Returns
    (counts, max |norm^2 - 1| over the amplitudes survivors held), which is
    table.norm_err[c] when the last survivors saw c cycles.
    """
    m = keys.shape[0]
    offsets = (np.arange(n + 1, dtype=np.uint64) + np.uint64(1)) * _PHI
    # every cycle draws into buf and compares into mask, allocating nothing
    buf, tmp = np.empty(m, dtype=np.uint64), np.empty(m, dtype=np.uint64)
    mask = np.empty(m, dtype=bool)
    # absorbed keys stay in place, masked, until they are half of the array,
    # so a cycle that absorbs a few keys does not copy all the others
    alive = np.ones(m, dtype=bool)
    live = m

    def draws(j):
        size = keys.shape[0]
        return _draw53(np.add(keys, offsets[j], out=buf[:size]), scratch=tmp[:size])

    survived = -1
    for j, cut in enumerate(table.cut_b):
        if cut:  # every draw is >= 0
            alive &= np.greater_equal(draws(j), cut, out=mask[: keys.shape[0]])
            live = int(np.count_nonzero(alive))
            if 2 * live < keys.shape[0]:
                keys, alive = keys[alive], alive[alive]
        if not live:
            break
        survived = j
    is_v = np.less(draws(n), table.cut_v[-1], out=mask[: keys.shape[0]])
    n_v = np.count_nonzero(np.logical_and(is_v, alive, out=is_v))
    return np.array([live - n_v, n_v, m - live]), float(table.norm_err[survived + 1])


def _run_collapse(keys: np.ndarray, n: int, cut_a: np.uint64, table: _Table):
    """Outcome counts (n_h, n_v, n_b) of the collapse model, one trajectory per key.

    The state is rotated in the {H, V} plane each cycle; with probability a
    (a draw below cut_a = _cut(a)) the particle measures which arm the
    photon is in, absorbing the V branch (outcome B) and collapsing the H
    branch back to |H>.  A survivor is therefore always R^k|H>, k cycles
    after its last collapse (or the start): entry k of the table built at
    a = 0, since between measurements nothing absorbs.  Per-trajectory state
    is its stream position (key + (j+1)*PHI for its next draw j, per
    trajectory because measuring cycles consume a second draw) and k.
    Consumes `keys`: their array becomes the stream positions.  Returns
    (counts, max |norm^2 - 1| over the amplitudes survivors held).
    """
    m = keys.shape[0]
    pos = keys
    pos += _PHI
    # k <= n, so the smallest unsigned type that holds n holds k: one byte a
    # trajectory up to n = 255, a quarter of int32's traffic
    k = np.zeros(m, dtype=np.min_scalar_type(n))
    one = k.dtype.type(1)
    # the first draw of every cycle goes into first and its test into mask
    first, tmp = np.empty(m, dtype=np.uint64), np.empty(m, dtype=np.uint64)
    mask = np.empty(m, dtype=bool)
    # absorbed trajectories stay in place, masked, until they are half of
    # the array, so a cycle that absorbs a few does not copy all the others
    alive = np.ones(m, dtype=bool)
    live = m
    # The largest k a survivor held bounds the norm check through the table's
    # running maximum.  A survivor's k only grows until it is measured, so
    # that is the k before a measurement (k - 1 in the measuring cycle) or
    # the k it ends with.
    k_max = 0
    for _ in range(n):
        k += one
        size = pos.shape[0]
        if cut_a:  # no draw is < 0: at a = 0 nothing measures
            draw = _draw53(pos, out=first[:size], scratch=tmp[:size])
            measuring = np.less(draw, cut_a, out=mask[:size])
            measuring &= alive
            measured = np.flatnonzero(measuring)
            n_measured = measured.shape[0]
            if n_measured:
                # first and tmp are free once measuring is made.  mode="clip"
                # writes straight into them (the default buffers its output);
                # it clips nothing, since measured comes from flatnonzero of
                # an array the size of pos, and k <= n < len(table.cut_v).
                second = pos.take(measured, out=first[:n_measured], mode="clip")
                second += _PHI
                pos[measured] = second  # measuring streams move one draw further
                k_measured = k.take(measured)
                draw = _draw53(second, scratch=tmp[:n_measured])
                hit = draw < table.cut_v.take(k_measured, out=tmp[:n_measured], mode="clip")
                k_max = max(k_max, int(k_measured.max()) - 1)
                # A miss collapses to |H>; a hit is absorbed and masked, so its
                # k is moot.  On 65,536 entries, half measured, multiplying by
                # the negated mask is ~17x faster than a boolean-mask setitem
                # or a where= ufunc, and twice as fast as scattering zeros.
                k *= np.logical_not(measuring, out=measuring)
                dead = measured[hit]
                if dead.shape[0]:
                    alive[dead] = False
                    live -= dead.shape[0]
                    if 2 * live < size:
                        pos, k, alive = pos[alive], k[alive], alive[alive]
        pos += _PHI
        if not live:
            break
    if live:
        k_max = max(k_max, int(k[alive].max()))
    size = pos.shape[0]
    is_v = np.less(_draw53(pos, scratch=tmp[:size]), table.cut_v.take(k), out=mask[:size])
    n_v = np.count_nonzero(np.logical_and(is_v, alive, out=is_v))
    return np.array([live - n_v, n_v, m - live]), float(table.norm_err[k_max])


def _runner(cycle: CycleConfig):
    """The trajectory kernel of `cycle`: keys -> (counts, max norm error)."""
    collapse = cycle.model is ParticleModel.COLLAPSE
    table = _table(cycle.n, cycle.resolved_theta(), 0.0 if collapse else cycle.a, collapse)
    if collapse:
        cut_a = _cut(cycle.a)
        return lambda keys: _run_collapse(keys, cycle.n, cut_a, table)
    return lambda keys: _run_coherent(keys, cycle.n, table)


@dataclass(frozen=True)
class TrajectoryConfig:
    """A Monte Carlo run: which experiment, how many samples, which seed."""

    cycle: CycleConfig
    trajectories: int
    seed: int = 0

    def __post_init__(self):
        m = _check_count(self.trajectories, 1, "trajectories must be a positive integer")
        object.__setattr__(self, "trajectories", m)
        object.__setattr__(self, "seed", _check_u64(self.seed, "seed"))


@dataclass(frozen=True)
class OutcomeEstimate:
    """Aggregated Monte Carlo outcome statistics.

    counts holds (n_h, n_v, n_b) with sum equal to `trajectories`; p_hat is
    counts/trajectories exactly; stderr is the per-outcome binomial standard
    error sqrt(p_hat (1 - p_hat) / trajectories).  max_norm_error records the
    worst per-cycle |norm^2 - 1| of any surviving trajectory amplitude, a
    cheap internal health check.
    """

    counts: tuple[int, int, int]
    trajectories: int
    p_hat: Probabilities
    stderr: tuple[float, float, float]
    max_norm_error: float


def sample_trajectory(cycle: CycleConfig, key: int) -> Basis:
    """Outcome of the single trajectory owning `key` (see trajectory_key)."""
    keys = np.array([_check_u64(key, "key")], dtype=np.uint64)
    counts, _ = _runner(cycle)(keys)
    return Basis(int(np.argmax(counts)))


def estimate(config: TrajectoryConfig) -> OutcomeEstimate:
    """Run all trajectories of `config` and aggregate outcome counts.

    Deterministic: a fixed (cycle, trajectories, seed) always produces the
    identical estimate, bit for bit.  Trajectories run in chunks of
    _CHUNK consecutive indices, so memory does not grow with their number.
    """
    run = _runner(config.cycle)
    m = config.trajectories
    counts = np.zeros(3, dtype=np.int64)
    max_norm_err = 0.0
    for start in range(0, m, _CHUNK):
        indices = np.arange(start, min(start + _CHUNK, m), dtype=np.uint64)
        chunk_counts, err = run(_keys_for(config.seed, indices))
        counts += chunk_counts
        max_norm_err = max(max_norm_err, err)
    p_hat = counts / m
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / m)
    return OutcomeEstimate(
        counts=tuple(counts.tolist()),
        trajectories=m,
        p_hat=Probabilities(*p_hat.tolist()),
        stderr=tuple(stderr.tolist()),
        max_norm_error=max_norm_err,
    )


# The largest |z| of `compare` that still counts as agreement, for the
# `oracle` command's verdict and verify's concordance check alike.
_Z_LIMIT = 4.0


def compare(est: OutcomeEstimate, exact: Probabilities) -> np.ndarray:
    """Per-outcome z-scores (p_hat - exact)/stderr.

    The standard error is floored at 1/(2M) so exact agreement at p_hat in
    {0, 1} yields z = 0 instead of 0/0.
    """
    floor = 1.0 / (2.0 * est.trajectories)
    stderr = np.maximum(np.asarray(est.stderr), floor)
    return (np.asarray(est.p_hat) - np.asarray(exact)) / stderr
