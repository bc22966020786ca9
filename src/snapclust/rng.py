"""Seeded randomness with stable stream splitting.

Every randomized operation in the package draws from a SeedStream. The
generator is PCG64 keyed through numpy's SeedSequence, whose hashing is
fixed and platform independent, so one root seed reproduces identical
byte streams everywhere. Independent substreams are derived by extending
the spawn key with small integer tags, never by sharing a generator.
"""

from __future__ import annotations

import numpy as np

# Stage tags used to derive substreams. Values are part of the on-disk
# reproducibility contract: changing them changes every derived stream.
STAGE_TRAIN = 0
STAGE_LANDMARKS = 1
STAGE_KMEANS = 2
STAGE_REPEAT = 3
STAGE_INIT = 4
STAGE_EPOCH = 5
STAGE_NOISE = 6
STAGE_RESTART = 7
STAGE_SYNTH = 8
STAGE_BATCH = 9
STAGE_SPECTRAL = 10
STAGE_SAMPLE = 11


class SeedStream:
    """A point in a deterministic seed tree.

    `child(*tags)` derives an independent substream; `generator()` yields
    a fresh PCG64 generator for this node. Both are pure functions of the
    root seed and the tag path.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        if not 0 <= int(seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = int(seed)
        self.path = tuple(int(t) for t in path)

    def child(self, *tags: int) -> "SeedStream":
        return SeedStream(self.seed, self.path + tags)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))

    def __repr__(self) -> str:
        return f"SeedStream(seed={self.seed}, path={self.path})"
