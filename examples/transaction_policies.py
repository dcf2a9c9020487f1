"""Compare the pluggable transaction policies on one seeded workload.

The consistency layer's commit protocol is a policy selected by name:

* ``immediate-2pc`` — every cross-edge commit runs its two-phase-commit
  round synchronously (the legacy default; coordinator messaging free);
* ``batched-2pc``   — the coordinator accumulates cross-edge commits per
  window and flushes one prepare/commit message pair per distinct remote
  participant for the whole batch;
* ``async-2pc``     — the prepare phase is issued when the initial
  section commits, overlapping the frame's cloud-validation round trip.

All three run the *same* seeded contention workload (8 hotspot streams
on 4 edges under MS-SR), so detections, commits and the F-score are
identical — only the coordinator's round-trip count and latency differ:
batching amortises messages, async hides them.

Run with::

    PYTHONPATH=src python examples/transaction_policies.py
"""

from repro.analysis.tables import format_table
from repro.experiments import ScenarioSpec, Sweep
from repro.transactions.policy import TXN_POLICIES


def main() -> None:
    base = ScenarioSpec(
        deployment="cluster",
        num_edges=4,
        streams=8,
        frames=10,
        seed=2022,
        consistency="ms-sr",
        workload="hotspot",
        hot_key_range=50,
    )
    print(f"workload: {base.streams} hotspot streams x {base.frames} frames "
          f"on {base.num_edges} edges (MS-SR, seed {base.seed})\n")

    # transaction_policy is a spec field, so comparing policies is just a
    # one-axis sweep (add max_workers=3 to fan it over a process pool).
    result = Sweep(base=base, axis="transaction_policy", values=TXN_POLICIES).run()

    rows = []
    for cell in result:
        report = cell.report
        rows.append(
            [
                report.transaction_policy,
                report.cross_partition_txns,
                report.coordinator_round_trips,
                f"{report.round_trips_per_cross_partition_txn:.2f}",
                report.coordinator_batches,
                f"{report.latency['commit_protocol_ms']:.2f}",
                f"{report.overlap_saved_ms:.1f}",
                f"{report.latency['final_ms']:.0f}",
                f"{report.f_score:.3f}",
            ]
        )
    print(
        format_table(
            [
                "policy",
                "cross-edge txns",
                "coordinator RTs",
                "RTs/txn",
                "batches",
                "commit (ms/frame)",
                "overlap saved (ms)",
                "final (ms)",
                "F-score",
            ],
            rows,
        )
    )

    immediate = result.report_at(transaction_policy="immediate-2pc")
    batched = result.report_at(transaction_policy="batched-2pc")
    async_2pc = result.report_at(transaction_policy="async-2pc")
    saved = (
        1.0
        - batched.round_trips_per_cross_partition_txn
        / immediate.round_trips_per_cross_partition_txn
    )
    print(f"\nbatching cut coordinator round trips per cross-edge transaction by {saved:.0%};")
    print(f"async 2PC hid {async_2pc.overlap_saved_ms:.1f} ms of prepare latency "
          "under cloud validation.")


if __name__ == "__main__":
    main()
