"""Shared fixtures for the Croesus test suite.

Object factories live in :mod:`helpers` (``tests/helpers.py``) so test
modules can import them explicitly without relying on ``conftest``
import-path resolution, which breaks when ``benchmarks/conftest.py`` is
collected in the same pytest invocation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CroesusConfig
from repro.sim.rng import RngRegistry
from repro.storage.kvstore import KeyValueStore

from helpers import keeping_rows


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator."""
    return np.random.default_rng(42)


@pytest.fixture
def rngs() -> RngRegistry:
    """A registry of named deterministic streams."""
    return RngRegistry(seed=42)


@pytest.fixture
def store() -> KeyValueStore:
    """An empty key-value store."""
    return KeyValueStore()


@pytest.fixture
def rows_kept():
    """Stores and lock managers built in the test keep their version and
    tenure rows (:func:`helpers.keeping_rows`)."""
    with keeping_rows():
        yield


@pytest.fixture
def config() -> CroesusConfig:
    """A default Croesus configuration with a fixed seed."""
    return CroesusConfig(seed=7)
