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

The coherent kernel works in rounds.  A round draws B = max(1, _ROUND //
keys held) consecutive cycles for every key it holds, as one (B, keys)
array, cycles outer: a full chunk runs one cycle a round, and 1,000 keys
run 32.  It settles each draw from SplitMix64's word w, the finalizer's
state before its last xor-shift.  That shift, mix64 = w ^ (w >> 31), keeps
w's top 31 bits, so a draw below a cut c needs w < hi(c) = ceil(c / 2**22)
* 2**33, and only those rare candidate words finish the mix and take the
exact comparison.  Outcomes are those of the draw-by-draw order above.

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
from .operators import Basis, _count

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
# the messages of the 64-bit unsigned inputs, below 0 or above _U64_MAX alike
_SEED = "seed must be an integer in [0, 2^64)"
_INDEX = "index must be an integer in [0, 2^64)"
_KEY = "key must be an integer in [0, 2^64)"
# Trajectories per kernel call; results do not depend on it.  2**15 fits a
# collapse chunk in L2 (module docstring) and still runs each of verify's
# 20,000-trajectory cells as one chunk.
_CHUNK = 1 << 15
# Draws per round of the coherent kernel (see _run_coherent); results do
# not depend on it either.
_ROUND = 1 << 15


def _word(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """SplitMix64's finalizer up to its last xor-shift: the word w, mix64 = w ^ (w >> 31).

    That shift keeps w's top 31 bits, so mix64 >> 33 == w >> 33.  Writes w
    into `out` (in place, into x, when out is None) and returns it;
    `scratch`, a uint64 array of x's size, holds the shifted words (a call
    without it allocates it).
    """
    t = np.right_shift(x, np.uint64(30), out=scratch)
    x = np.bitwise_xor(x, t, out=x if out is None else out)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= np.uint64(0x94D049BB133111EB)
    return x


def _mix64(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """SplitMix64 finalizer: a bijective scramble of 64-bit words.

    Mixes into `out` and returns it; in place (into x) when out is None.
    `scratch`, a uint64 array of x's size, holds the shifted words; a call
    that passes it allocates nothing, and one that does not allocates it.
    """
    scratch = np.empty_like(x) if scratch is None else scratch
    x = _word(x, out, scratch)
    x ^= np.right_shift(x, np.uint64(31), out=scratch)
    return x


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
    seed = _count(seed, 0, _SEED, _U64_MAX, _SEED)
    # 2^64 trajectories hold every uint64 index once
    count = _count(count, 1, "count must be >= 1", 2**64, "count must be at most 2^64")
    return _keys_for(seed, np.arange(count, dtype=np.uint64))


def trajectory_key(seed: int, index: int) -> int:
    """The stream key of one trajectory; estimate() uses exactly these."""
    seed = _count(seed, 0, _SEED, _U64_MAX, _SEED)
    index = _count(index, 0, _INDEX, _U64_MAX, _INDEX)
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
    exactly j draws.  Per-trajectory state is therefore just the key: a key
    is absorbed at its first cycle j whose draw is below table.cut_b[j], and
    draw n splits the survivors into V (below table.cut_v[-1]) and H.

    Each round draws B = max(1, _ROUND // size) consecutive cycles for the
    `size` keys the kernel holds, as one (B, size) array, cycles outer, so
    every ufunc runs over whole rows of keys; a full chunk runs one cycle a
    round.  A draw is settled from its word w (see _word): since mix64
    keeps w's top 31 bits, a draw below cut c needs w < hi(c) =
    ceil(c / 2**22) * 2**33, and only those rare candidate words finish the
    mix for the exact test.  Returns (counts, max |norm^2 - 1| over the
    amplitudes survivors held), which is table.norm_err[c] when the last
    survivors saw c cycles.
    """
    m = keys.shape[0]
    # a cut of 0 absorbs nothing, so only the other cycles draw; the offset
    # of the final draw n rides along as the last
    cycles = np.flatnonzero(table.cut_b)
    cut = table.cut_b[cycles]
    offsets = (np.append(cycles, n) + 1).astype(np.uint64) * _PHI
    # hi(c) - 1, which wraps to 2**64 - 1 where c > 2**53 - 2**22 makes hi(c) 2**64
    top = ((cut + np.uint64(2**22 - 1)) >> np.uint64(22) << np.uint64(33)) - np.uint64(1)
    # every round draws into buf and compares into mask, allocating nothing
    cap = max(m, _ROUND)
    buf, tmp, mask = np.empty(cap, np.uint64), np.empty(cap, np.uint64), np.empty(cap, bool)
    # absorbed keys stay in place, masked, until they are half of the array,
    # so a round that absorbs a few keys does not copy all the others
    alive = np.ones(m, dtype=bool)
    live, i, last = m, 0, len(table.cut_b)
    while live and i < cut.shape[0]:
        size = keys.shape[0]
        b = min(max(1, _ROUND // size), cut.shape[0] - i)
        # a round of one cycle stays one-dimensional
        at, shape = (i, size) if b == 1 else (np.s_[i : i + b, None], (b, size))
        w = np.add(keys, offsets[at], out=buf[: b * size].reshape(shape))
        _word(w, scratch=tmp[: b * size].reshape(shape))
        cand = np.less_equal(w, top[at], out=mask[: b * size].reshape(shape))
        cand &= alive
        idx = np.flatnonzero(cand)  # a 2-D nonzero took 11 times as long
        if idx.shape[0]:
            row, col = (0, idx) if b == 1 else np.divmod(idx, size)
            x = w.take(idx)
            x ^= x >> np.uint64(31)
            hit = (x >> np.uint64(11)) < cut[i + row]
            col = col[hit]
            if col.shape[0]:
                alive[col] = False
                # a key is a column, at most once a row
                live = live - col.shape[0] if b == 1 else int(np.count_nonzero(alive))
                if not live:  # the cycle of the round's last key to die
                    r = row[hit][np.unique(col, return_index=True)[1]].max() if b > 1 else 0
                    last = int(cycles[i + r])
                elif 2 * live < size:
                    keys, alive = keys[alive], alive[alive]
        i += b
    size = keys.shape[0]
    draw = _draw53(np.add(keys, offsets[-1], out=buf[:size]), scratch=tmp[:size])
    is_v = np.less(draw, table.cut_v[-1], out=mask[:size])
    n_v = np.count_nonzero(np.logical_and(is_v, alive, out=is_v))
    return np.array([live - n_v, n_v, m - live]), float(table.norm_err[last])


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
        m = _count(self.trajectories, 1, "trajectories must be a positive integer")
        object.__setattr__(self, "trajectories", m)
        object.__setattr__(self, "seed", _count(self.seed, 0, _SEED, _U64_MAX, _SEED))


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
    keys = np.array([_count(key, 0, _KEY, _U64_MAX, _KEY)], dtype=np.uint64)
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
