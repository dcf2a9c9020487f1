"""Walkthrough: scaling Croesus out to a multi-edge cluster.

Runs eight camera streams on a four-edge cluster three ways — uniform
round-robin placement, load-aware placement, and a deliberately skewed
hotspot placement — and shows how the placement policy changes per-edge
utilization and queueing delay while the sharded store keeps executing
cross-edge transactions through 2PC.  Finally it reruns the skewed
deployment under MS-SR with a contended hot key range, so the cross-edge
lock conflicts of paper Section 4.5 become visible as 2PC aborts.

Usage::

    python examples/edge_cluster.py
"""

from __future__ import annotations

from repro import ClusterConfig, ClusterSystem, ConsistencyLevel, CroesusConfig
from repro.analysis.tables import format_table
from repro.cluster import hotspot_bank_factory
from repro.video.library import make_camera_streams

NUM_EDGES = 4
NUM_STREAMS = 8
FRAMES = 25
SEED = 11


def make_streams(seed: int = SEED) -> list:
    """Eight independent cameras cycling over the paper's video presets."""
    return make_camera_streams(NUM_STREAMS, num_frames=FRAMES, seed=seed)


def run_policy(policy: str) -> None:
    config = ClusterConfig(
        base=CroesusConfig(seed=SEED),
        num_edges=NUM_EDGES,
        router_policy=policy,
    )
    result = ClusterSystem(config).run(make_streams())

    print(f"\n=== placement policy: {policy} ===")
    rows = [
        [
            edge.edge_id,
            len(edge.streams),
            edge.frames_processed,
            f"{edge.utilization:.0%}",
            f"{edge.mean_queue_delay * 1000:.0f}",
        ]
        for edge in result.edges
    ]
    print(format_table(["edge", "streams", "frames", "utilization", "queue delay (ms)"], rows))
    print(
        f"throughput {result.throughput_fps:.1f} fps | "
        f"cross-partition transactions {result.cross_partition_fraction:.0%} | "
        f"2PC abort rate {result.stats.abort_rate:.0%}"
    )


def run_contended() -> None:
    """Hotspot placement + a shared hot key range under MS-SR."""
    config = ClusterConfig(
        base=CroesusConfig(seed=SEED, consistency=ConsistencyLevel.MS_SR),
        num_edges=NUM_EDGES,
        router_policy="hotspot",
    )
    system = ClusterSystem(config, bank_factory=hotspot_bank_factory(SEED, key_range=25))
    result = system.run(make_streams())

    print("\n=== MS-SR + shared hot key range (25 keys) ===")
    print(
        f"transactions {result.stats.attempts} | "
        f"cross-partition {result.cross_partition_fraction:.0%} | "
        f"2PC abort rate {result.stats.abort_rate:.0%}"
    )
    print("Small hot ranges make remote lock denials — and therefore 2PC aborts —")
    print("much more likely, exactly as Figure 6b shows for a single partition.")


def main() -> None:
    for policy in ("round-robin", "least-loaded", "hotspot"):
        run_policy(policy)
    run_contended()


if __name__ == "__main__":
    main()
