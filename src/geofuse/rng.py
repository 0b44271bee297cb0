"""Deterministic, splittable random streams.

Every source of randomness in the package flows through an RngStream so
that (seed, stream_id) fully determines the draw sequence on any
platform.  Streams are backed by the counter-based Philox generator,
keyed by the pair, so sibling streams are statistically independent.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RngStream:
    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def derive(self, child_id: int) -> "RngStream":
        """Independent child stream; same (seed, id) always gives the same stream."""
        return RngStream(self.seed, (self.stream_id * 0x9E3779B97F4A7C15 + child_id + 1) % (1 << 64))

    # thin wrappers so call sites stay short
    def normal(self, shape, std=1.0) -> np.ndarray:
        return self._gen.normal(0.0, std, size=shape)

    def uniform(self, shape, low=0.0, high=1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def beta(self, a: float, b: float, size=None):
        return self._gen.beta(a, b, size=size)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)
