"""Integration tests for edge-model feedback inside the Croesus pipeline."""

import pytest

from repro.core.config import CroesusConfig
from repro.core.system import CroesusSystem
from repro.video.library import make_video


class TestFeedbackIntegration:
    def test_feedback_disabled_by_default(self):
        system = CroesusSystem(CroesusConfig(seed=4))
        assert system.edge.feedback is None
        assert system.edge.smoother is None

    def test_with_feedback_builds_components(self):
        config = CroesusConfig(seed=4).with_feedback()
        system = CroesusSystem(config)
        assert system.edge.feedback is not None
        assert system.edge.smoother is not None

    def test_feedback_accumulates_cloud_verdicts(self):
        config = CroesusConfig(seed=4, lower_threshold=0.0, upper_threshold=0.999).with_feedback()
        system = CroesusSystem(config)
        system.run(make_video("v1", num_frames=30, seed=4))
        memory = system.edge.feedback
        observed = sum(
            memory.stats_for(name).observations
            for name in ("dog", "person", "cat")
        )
        assert observed > 0

    def test_smoother_tracks_objects(self):
        config = CroesusConfig(seed=4).with_feedback()
        system = CroesusSystem(config)
        system.run(make_video("v1", num_frames=30, seed=4))
        assert len(system.edge.smoother._history) > 0  # objects tracked

    def test_run_with_feedback_produces_comparable_accuracy(self):
        """Feedback is a refinement: it must not wreck the pipeline's accuracy."""
        base_config = CroesusConfig(seed=4, lower_threshold=0.3, upper_threshold=0.7)
        without = CroesusSystem(base_config).run(make_video("v1", num_frames=40, seed=4))
        with_feedback = CroesusSystem(base_config.with_feedback()).run(
            make_video("v1", num_frames=40, seed=4)
        )
        assert with_feedback.f_score >= without.f_score - 0.1

    def test_feedback_flag_is_copy_on_write(self):
        base = CroesusConfig(seed=4)
        enabled = base.with_feedback()
        assert not base.enable_feedback
        assert enabled.enable_feedback
        assert enabled.with_feedback(False).enable_feedback is False
