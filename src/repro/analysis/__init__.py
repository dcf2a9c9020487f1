"""Result tabulation and parameter sweeps.

These helpers turn run results into the paper-style rows the benchmark
harness prints (tables and figure series), keeping formatting out of the
system code.
"""

from repro.analysis.sweeps import ThresholdSweep, sweep_thresholds
from repro.analysis.tables import format_table, latency_breakdown_row

__all__ = [
    "ThresholdSweep",
    "format_table",
    "latency_breakdown_row",
    "sweep_thresholds",
]
