"""Reproducible per-run random number streams.

Every Monte-Carlo run draws from its own counter-based Philox4x64-10
generator (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as easy as
1, 2, 3", SC'11) keyed directly by the 128-bit pair ``(seed, stream_index)``:
the scenario seed selects the experiment, the stream index the run. Keyed
streams are statistically independent and the mapping is pure arithmetic,
so the same (seed, run) pair reproduces the same draws on every platform
and regardless of how many runs execute or in which order.

The generator is written here in numpy's uint64 arithmetic and yields the
words of numpy's ``Philox(key=[seed, stream_index])`` bit for bit. A block
maps a 4-word counter (c0, c1, c2, c3) and the key (k0, k1) to 4 words by ten
rounds of

    (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))

with hi and lo the upper and lower words of the 128-bit product, formed from
32-bit halves, and the key advanced by the Weyl constants (W0, W1) before
every round but the first. Word i of a stream is word i mod 4 of the block
whose counter is (i div 4 + 1, 0, 0, 0). A word w becomes the double
(w >> 11) * 2^-53 in [0, 1), as ``numpy.random.Generator.random`` makes it.
A batch of streams at the same position is drawn by one call that runs the
rounds on (streams, blocks) arrays, in chunks that keep the work arrays
small, into one preallocated (streams, count) array; so no stream holds a
generator object and numpy's ``random`` package is never imported.

Normal variates are produced by the Box-Muller transform applied to pairs of
the generator's uniform doubles (u1 in (0, 1], u2 in [0, 1)):

    radius = sqrt(-2 ln u1)
    z0 = radius * cos(2 pi u2),   z1 = radius * sin(2 pi u2)

A request for m values takes the next uniforms two per pair, in order, and
returns z0, z1 of each pair in turn; an odd count keeps the last z1 as a
spare that opens the next request. So any sequence of requests yields the
same values as one request of their total size. The transform is fixed here
rather than delegated to library distribution code so that the exact draw
sequence is part of this package's contract.

Stream index 2^64 - 1 is reserved for sampling ground-truth trajectories;
run indices must stay below it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Reserved stream for ground-truth trajectory sampling (never a run index).
GROUND_TRUTH_STREAM = 2**64 - 1

# Philox4x64 round multipliers (M0, M1) and key increments (W0, W1).
_MULTIPLIERS = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_KEY_STEPS = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_ROUNDS = 10
_LOW = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)
_HALVES = tuple((m & _LOW, m >> _HALF) for m in _MULTIPLIERS)
# Elements per kernel work array: a chunk of (streams, blocks) whose ten work
# arrays (1.3 MB) stay in a core's cache.
_CHUNK = 2**14


class RandomStream:
    """Counter-based stream of uniforms and Box-Muller normal variates.

    Its state is the key, the number of words drawn and the spare normal.
    """

    def __init__(self, seed: int, stream_index: int):
        self.seed = int(seed)
        self.stream_index = int(stream_index)
        self._used = 0
        self._spare: float | None = None

    def standard_normal(self, size: int | None = None):
        """Standard normal draws; scalar for ``size=None``, else a 1-D array."""
        out = standard_normals([self], 1 if size is None else size)[0]
        return float(out[0]) if size is None else out

    def normal(self, mean: float, std: float) -> float:
        return mean + std * self.standard_normal()


def uniforms(streams: Sequence[RandomStream], count: int) -> np.ndarray:
    """The next ``count`` uniforms of each stream, as one (R, count) array.

    Row r holds the next ``count`` words of stream r as doubles; its caller
    guarantees one position (every stream has drawn as many words). The
    kernel runs on one chunk of streams and blocks at a time, into the result.
    """
    start = streams[0]._used if streams else 0
    keys = np.array([(s.seed, s.stream_index) for s in streams], dtype=np.uint64)
    out = np.empty((len(streams), count))
    first, stop = start // 4, -(-(start + count) // 4)  # the blocks holding the words
    span = max(1, min(stop - first, _CHUNK))
    step = max(1, _CHUNK // span)
    for r in range(0, len(streams), step):
        for block in range(first, stop, span):
            words = _philox(keys[r:r + step], block, min(span, stop - block))
            words >>= np.uint64(11)  # the top 53 bits
            offset = 4 * block - start  # output column of the chunk's first word
            cols = slice(max(offset, 0), min(offset + words.shape[1], count))
            np.multiply(words[:, cols.start - offset:cols.stop - offset], 2.0**-53,
                        out=out[r:r + step, cols])
    for stream in streams:
        stream._used += count
    return out


def standard_normals(streams: Sequence[RandomStream], count: int) -> np.ndarray:
    """The next ``count`` standard normals of each stream, as one (R, count)
    array; row r holds what ``streams[r].standard_normal(count)`` would
    return. The streams must all be at the same position, with or without a
    spare. The uniforms are drawn and transformed one chunk of streams at a
    time, so the temporaries stay small."""
    if len({(stream._used, stream._spare is None) for stream in streams}) > 1:
        raise ValueError("a batched draw needs its streams at the same position")
    spare = int(any(stream._spare is not None for stream in streams))
    pairs = -(-(count - spare) // 2)
    out = np.empty((len(streams), spare + 2 * pairs))
    if spare:
        out[:, 0] = [stream._spare for stream in streams]
    step = max(1, 2 * _CHUNK // max(pairs, 1))  # about one kernel chunk of streams
    for r in range(0, len(streams), step):
        drawn = uniforms(streams[r:r + step], 2 * pairs)
        radius = np.sqrt(-2.0 * np.log(1.0 - drawn[:, 0::2]))  # 1 - u in (0, 1]: finite log
        angle = 2.0 * np.pi * drawn[:, 1::2]
        out[r:r + step, spare::2] = radius * np.cos(angle)
        out[r:r + step, spare + 1::2] = radius * np.sin(angle)
    for stream, row in zip(streams, out):
        stream._spare = float(row[count]) if row.size > count else None
    return out[:, :count]


def _philox(keys: np.ndarray, first: int, blocks: int) -> np.ndarray:
    """(R, 4 blocks) words of blocks ``first``.. of each keyed stream."""
    shape = (len(keys), blocks)
    k0, k1 = keys[:, :1].copy(), keys[:, 1:].copy()
    # Round 1 maps the counter (n, 0, 0, 0) to (k0, 0, hi(M0 n) ^ k1, lo(M0 n)):
    # its zero words drop out, and its product is the same for every stream.
    counter = np.arange(first + 1, first + 1 + blocks, dtype=np.uint64)
    high = np.empty_like(counter)
    _mulhilo(counter, 0, high, [np.empty_like(counter) for _ in range(5)])
    c0, c1, c2, c3, free = (np.empty(shape, np.uint64) for _ in range(5))
    c0[:] = k0
    c1[:] = 0
    np.bitwise_xor(high, k1, out=c2)
    c3[:] = counter
    work = [np.empty(shape, np.uint64) for _ in range(5)]
    for _ in range(1, _ROUNDS):
        k0 += _KEY_STEPS[0]
        k1 += _KEY_STEPS[1]
        _mulhilo(c0, 0, free, work)  # c0 <- lo(M0 c0), free <- hi(M0 c0)
        free ^= c3
        free ^= k1
        _mulhilo(c2, 1, c3, work)  # c2 <- lo(M1 c2), c3 <- hi(M1 c2)
        c3 ^= c1
        c3 ^= k0
        c0, c1, c2, c3, free = c3, c2, free, c0, c1
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(keys), 4 * blocks)


def _mulhilo(a: np.ndarray, which: int, hi: np.ndarray, work: list[np.ndarray]) -> None:
    """``hi`` <- the upper word of the 128-bit product of ``a`` and
    multiplier ``which``; ``a`` <- its lower word. In place, from the
    32-bit halves of both factors."""
    m_lo, m_hi = _HALVES[which]
    a_lo, a_hi, low, mid, cross = work
    np.bitwise_and(a, _LOW, out=a_lo)
    np.right_shift(a, _HALF, out=a_hi)
    np.multiply(a_lo, m_lo, out=low)
    low >>= _HALF
    np.multiply(a_hi, m_lo, out=mid)
    mid += low  # a_hi m_lo + carry of a_lo m_lo: below 2^64
    np.bitwise_and(mid, _LOW, out=low)
    np.multiply(a_lo, m_hi, out=cross)
    cross += low
    np.multiply(a_hi, m_hi, out=hi)
    mid >>= _HALF
    hi += mid
    cross >>= _HALF
    hi += cross
    a *= _MULTIPLIERS[which]


def derive_run_stream(seed: int, run_index: int) -> RandomStream:
    """Independent, reproducible stream for Monte-Carlo run ``run_index``."""
    if not 0 <= int(run_index) < GROUND_TRUTH_STREAM:
        raise ValueError(
            f"run index must be in [0, {GROUND_TRUTH_STREAM}), got {run_index}"
        )
    return RandomStream(seed, run_index)


def trajectory_stream(seed: int) -> RandomStream:
    """Stream reserved for sampling the ground-truth trajectory."""
    return RandomStream(seed, GROUND_TRUTH_STREAM)
