"""Deterministic random-stream derivation shared by every sampler.

Each logical draw family (input locations, latent normals, spectral
frequencies, feature weights, observation noise) gets its own
counter-based Philox stream keyed by (seed, tag).  Streams are
independent across tags and across seeds, and reproducible on any
thread count.  The random-feature sampler replays a stream from the
start by restoring its saved `bit_generator.state`, instead of holding
its output in memory or building the stream again.
"""

from __future__ import annotations

import numpy as np

# stream tags; values are part of the on-disk reproducibility contract
INPUTS = 1
LATENT = 2
FREQUENCIES = 3
WEIGHTS = 4
NOISE = 5

_MASK64 = (1 << 64) - 1


def stream(seed: int, tag: int) -> np.random.Generator:
    """Return the Philox generator for draw family `tag` under `seed`."""
    key = np.array([int(seed) & _MASK64, int(tag) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(base_seed: int, *path: int) -> int:
    """Fold (base_seed, *path) into a single child seed.

    Used for experiment cells and repeats so every (cell, repeat) pair
    is an independent reproducible unit regardless of execution order.
    """
    ss = np.random.SeedSequence([int(base_seed) & _MASK64] + [int(p) & _MASK64 for p in path])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
