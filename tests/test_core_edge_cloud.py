"""Tests for the edge node, cloud node and client components."""

import pytest

from repro.core.client import Client, ClientResponse
from repro.core.cloud import CloudNode
from repro.core.edge import EdgeNode
from repro.detection.profiles import CLOUD_YOLOV3_416, EDGE_TINY_YOLOV3
from repro.network.topology import CLOUD_XLARGE, EDGE_REGULAR, EDGE_SMALL
from repro.transactions.bank import ANY_LABEL, TransactionBank
from repro.transactions.model import MultiStageTransaction, SectionContext, SectionSpec
from repro.transactions.ops import ReadWriteSet
from repro.video.library import make_video

from helpers import make_detection, make_frame, make_label_set, make_scene_object


def _counting_bank() -> TransactionBank:
    """A bank whose transactions write one key per trigger and apologise on
    corrected labels."""
    bank = TransactionBank()

    def factory(detection, txn_id) -> MultiStageTransaction:
        key = f"seen:{txn_id}"

        def initial(ctx: SectionContext):
            ctx.write(key, ctx.labels.name if ctx.labels is not None else None)
            return key

        def final(ctx: SectionContext):
            corrected = getattr(ctx.labels, "name", None)
            original = ctx.read(key, default=None)
            if corrected != original:
                ctx.apologize(f"{original} -> {corrected}")
                ctx.write(key, corrected)

        rwset = ReadWriteSet(reads=frozenset({key}), writes=frozenset({key}))
        return MultiStageTransaction(
            transaction_id=txn_id,
            initial=SectionSpec(body=initial, rwset=rwset),
            final=SectionSpec(body=final, rwset=rwset),
        )

    bank.register("count", ANY_LABEL, factory)
    return bank


def _edge_node(rngs, consistency: str = "ms-ia", machine=EDGE_REGULAR) -> EdgeNode:
    return EdgeNode(
        profile=EDGE_TINY_YOLOV3,
        machine=machine,
        bank=_counting_bank(),
        rng=rngs.stream("edge"),
        min_confidence=0.05,
        consistency=consistency,
    )


class TestEdgeNode:
    def test_detect_returns_labels_and_latency(self, rngs):
        edge = _edge_node(rngs)
        frame = make_frame(0, make_scene_object(0, "person"))
        labels, latency = edge.detect(frame)
        assert latency > 0
        assert labels.frame_id == 0

    def test_small_machine_is_slower(self, rngs):
        regular = _edge_node(rngs, machine=EDGE_REGULAR)
        small = EdgeNode(
            profile=EDGE_TINY_YOLOV3,
            machine=EDGE_SMALL,
            bank=_counting_bank(),
            rng=rngs.stream("edge-small"),
        )
        frame = make_frame(0, make_scene_object(0))
        regular_latency = sum(regular.detect(frame)[1] for _ in range(30)) / 30
        small_latency = sum(small.detect(frame)[1] for _ in range(30)) / 30
        assert small_latency > regular_latency * 1.5

    def test_filter_labels_drops_low_confidence(self, rngs):
        edge = _edge_node(rngs)
        labels = make_label_set(
            0, make_detection("a", confidence=0.01), make_detection("b", confidence=0.9)
        )
        assert edge.filter_labels(labels).names() == ["b"]

    def test_initial_stage_triggers_one_transaction_per_detection(self, rngs):
        edge = _edge_node(rngs)
        frame = make_frame(0)
        labels = make_label_set(0, make_detection("a"), make_detection("b"))
        outcome = edge.process_initial_stage(frame, labels, now=0.0)
        assert len(outcome.triggered) == 2
        assert outcome.txn_latency > 0
        assert len(outcome.committed) == 2

    def test_final_stage_without_cloud_uses_edge_labels(self, rngs):
        edge = _edge_node(rngs)
        frame = make_frame(0)
        labels = make_label_set(0, make_detection("a"))
        outcome = edge.process_initial_stage(frame, labels, now=0.0)
        final = edge.process_final_stage(outcome, None, now=1.0)
        assert final.overlaps is None
        assert final.corrections == 0
        assert all(entry.transaction.is_committed for entry in outcome.committed)

    def test_final_stage_corrects_mislabeled_detection(self, rngs):
        edge = _edge_node(rngs)
        frame = make_frame(0)
        edge_labels = make_label_set(0, make_detection("dog", x=100))
        cloud_labels = make_label_set(0, make_detection("cat", x=100))
        outcome = edge.process_initial_stage(frame, edge_labels, now=0.0)
        final = edge.process_final_stage(outcome, cloud_labels, now=1.0)
        assert final.corrections == 1
        assert final.apologies  # the counting bank apologises on correction

    def test_final_stage_triggers_transactions_for_missed_labels(self, rngs):
        edge = _edge_node(rngs)
        frame = make_frame(0)
        edge_labels = make_label_set(0)  # the edge saw nothing
        cloud_labels = make_label_set(0, make_detection("person", x=200))
        outcome = edge.process_initial_stage(frame, edge_labels, now=0.0)
        final = edge.process_final_stage(outcome, cloud_labels, now=1.0)
        assert final.new_transactions == 1

    def test_ms_sr_consistency_uses_two_stage_2pl(self, rngs):
        from repro.transactions.ms_sr import TwoStage2PL

        edge = _edge_node(rngs, consistency="ms-sr")
        assert isinstance(edge.controller, TwoStage2PL)


class TestCloudNode:
    def test_detection_latency_reflects_profile(self, rngs):
        cloud = CloudNode(CLOUD_YOLOV3_416, CLOUD_XLARGE, rngs.stream("cloud"))
        frame = make_frame(0, make_scene_object(0, "person"))
        latencies = [cloud.detect(frame)[1] for _ in range(20)]
        assert sum(latencies) / len(latencies) == pytest.approx(
            CLOUD_YOLOV3_416.inference_latency, rel=0.2
        )

    def test_model_name(self, rngs):
        cloud = CloudNode(CLOUD_YOLOV3_416, CLOUD_XLARGE, rngs.stream("cloud"))
        assert cloud.model_name == "yolov3-416"


class TestClient:
    def test_frames_stream_from_video(self):
        client = Client(make_video("v1", num_frames=5, seed=0))
        assert len(list(client.frames())) == 5

    def test_render_collects_responses(self):
        client = Client(make_video("v1", num_frames=1, seed=0))
        client.render(ClientResponse(frame_id=0, stage="initial", payload="x"))
        client.render(ClientResponse(frame_id=0, stage="final", payload=None, apologies=("sorry",)))
        assert len(client.responses) == 2
        assert client.apologies == ("sorry",)
