"""Deterministic random-number streams.

Each simulated component (edge model, cloud model, network links, video
generators, workload generators) draws from its own named stream derived
from a single experiment seed.  This keeps experiments reproducible and
makes the components independent: adding draws to one component does not
perturb another.
"""

from __future__ import annotations

import numpy as np


class RngRegistry:
    """Factory of named, independently seeded NumPy generators.

    Parameters
    ----------
    seed:
        Master seed of the experiment.

    Examples
    --------
    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.stream("edge-model")
    >>> b = rngs.stream("cloud-model")
    >>> a is rngs.stream("edge-model")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """Master seed this registry was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            seed_seq = np.random.SeedSequence([self._seed, _stable_hash(name)])
            self._streams[name] = np.random.default_rng(seed_seq)
        return self._streams[name]


def _stable_hash(name: str) -> int:
    """Hash a stream name into a non-negative 32-bit integer.

    Python's builtin ``hash`` is salted per process, so we roll a small
    FNV-1a instead to keep streams stable across runs.
    """
    value = 2166136261
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 16777619) & 0xFFFFFFFF
    return value
