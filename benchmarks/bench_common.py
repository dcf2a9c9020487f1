"""Constants shared by every benchmark module.

Kept in a uniquely named module (not ``conftest``) so the benchmark files
can import it without clashing with the unit-test ``conftest`` when both
directories are collected in one pytest invocation.
"""

from __future__ import annotations

#: Number of frames per experiment run.  Large enough for stable shapes,
#: small enough that the whole harness finishes in a couple of minutes.
BENCH_FRAMES = 80

#: Master seed for every benchmark.
BENCH_SEED = 2022
