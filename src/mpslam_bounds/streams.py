"""Reproducible per-run random number streams.

Every Monte-Carlo run draws from its own counter-based Philox (4x64)
generator keyed directly by the 128-bit pair ``(seed, stream_index)``: the
scenario seed selects the experiment, the stream index the run. Keyed
streams are statistically independent and the mapping is pure arithmetic,
so the same (seed, run) pair reproduces the same draws on every platform
and regardless of how many runs execute or in which order.

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

import numpy as np

# Reserved stream for ground-truth trajectory sampling (never a run index).
GROUND_TRUTH_STREAM = 2**64 - 1

_MAX_UINT64 = 2**64 - 1


class RandomStream:
    """Counter-based stream of uniforms and Box-Muller normal variates."""

    def __init__(self, seed: int, stream_index: int):
        for name, value in (("seed", seed), ("stream index", stream_index)):
            if not 0 <= int(value) <= _MAX_UINT64:
                raise ValueError(f"{name} must fit in 64 bits, got {value}")
        self.seed = int(seed)
        self.stream_index = int(stream_index)
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._spare: float | None = None

    def uniform(self, size: int | None = None):
        """Uniform doubles in [0, 1) straight from the bit generator."""
        return self._gen.random(size)

    def standard_normal(self, size: int | None = None):
        """Standard normal draws; scalar for ``size=None``, else a 1-D array."""
        count = 1 if size is None else size
        spare = [] if self._spare is None else [self._spare]
        pairs = -(-(count - len(spare)) // 2)
        uniforms = self._gen.random(2 * pairs)
        radius = np.sqrt(-2.0 * np.log(1.0 - uniforms[0::2]))  # 1 - u in (0, 1]: finite log
        angle = 2.0 * np.pi * uniforms[1::2]
        drawn = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1).ravel()
        out = np.concatenate([spare, drawn])
        self._spare = float(out[count]) if out.size > count else None
        return float(out[0]) if size is None else out[:count]

    def normal(self, mean: float, std: float) -> float:
        return mean + std * self.standard_normal()


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
