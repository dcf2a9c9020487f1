"""Tests for the synthetic video substrate."""

import numpy as np
import pytest

from repro.detection.geometry import BoundingBox
from repro.video.frames import Frame
from repro.video.library import VIDEO_LIBRARY, make_video
from repro.video.scene import SceneObject
from repro.video.synthetic import ObjectClassSpec, SyntheticVideo


class TestSceneObject:
    def test_visibility_bounds(self):
        with pytest.raises(ValueError):
            SceneObject(0, "x", BoundingBox(0, 0, 10, 10), visibility=0.0)
        with pytest.raises(ValueError):
            SceneObject(0, "x", BoundingBox(0, 0, 10, 10), visibility=1.5)

    def test_difficulty_bounds(self):
        with pytest.raises(ValueError):
            SceneObject(0, "x", BoundingBox(0, 0, 10, 10), difficulty=0.5)

    def test_advanced_moves_by_velocity(self):
        obj = SceneObject(0, "x", BoundingBox(10, 10, 20, 20), velocity=(5.0, -2.0))
        moved = obj.advanced(1280, 720)
        assert moved.box.x_min == 15
        assert moved.box.y_min == 8
        assert moved.object_id == obj.object_id

    def test_advanced_with_zero_velocity_returns_same(self):
        obj = SceneObject(0, "x", BoundingBox(10, 10, 20, 20))
        assert obj.advanced(1280, 720) is obj

    def test_advanced_clips_to_frame(self):
        obj = SceneObject(0, "x", BoundingBox(1270, 0, 1280, 10), velocity=(100.0, 0.0))
        moved = obj.advanced(1280, 720)
        assert moved.box.x_max <= 1280

    def test_is_visible_in_frame(self):
        big = SceneObject(0, "x", BoundingBox(0, 0, 10, 10))
        assert big.is_visible_in_frame
        sliver = SceneObject(0, "x", BoundingBox(0, 0, 1, 1))
        assert not sliver.is_visible_in_frame


class TestFrame:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            Frame(frame_id=0, width=0, height=100)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            Frame(frame_id=0, width=10, height=10, size_bytes=0)


class TestSyntheticVideo:
    def _video(self, seed: int = 0, num_frames: int = 50) -> SyntheticVideo:
        return SyntheticVideo(
            name="test",
            query_class="person",
            classes=(ObjectClassSpec(name="person", arrival_rate=0.5),),
            num_frames=num_frames,
            rng=np.random.default_rng(seed),
        )

    def test_produces_requested_number_of_frames(self):
        frames = list(self._video(num_frames=25).frames())
        assert len(frames) == 25
        assert [f.frame_id for f in frames] == list(range(25))

    def test_objects_eventually_appear(self):
        frames = list(self._video().frames())
        assert any(len(frame.objects) > 0 for frame in frames)

    def test_objects_persist_across_frames(self):
        """An object id seen in one frame should usually appear again."""
        frames = list(self._video().frames())
        seen: dict[int, int] = {}
        for frame in frames:
            for obj in frame.objects:
                seen[obj.object_id] = seen.get(obj.object_id, 0) + 1
        assert seen, "no objects generated"
        assert max(seen.values()) > 1

    def test_same_seed_reproduces_stream(self):
        first = [(f.frame_id, len(f.objects)) for f in self._video(seed=3).frames()]
        second = [(f.frame_id, len(f.objects)) for f in self._video(seed=3).frames()]
        assert first == second

    def test_requires_positive_frames(self):
        with pytest.raises(ValueError):
            SyntheticVideo(
                name="bad",
                query_class="x",
                classes=(ObjectClassSpec(name="x"),),
                num_frames=0,
                rng=np.random.default_rng(0),
            )

    def test_requires_at_least_one_class(self):
        with pytest.raises(ValueError):
            SyntheticVideo(
                name="bad", query_class="x", classes=(), num_frames=5, rng=np.random.default_rng(0)
            )

    def test_frames_carry_query_class(self):
        frame = next(iter(self._video().frames()))
        assert frame.query_class == "person"


class TestVideoLibrary:
    def test_library_has_paper_videos_plus_stress(self):
        assert set(VIDEO_LIBRARY) == {"v1", "v2", "v3", "v4", "v5", "stress"}

    def test_stress_video_is_content_free(self):
        video = make_video("stress", num_frames=20, seed=3)
        frames = list(video.frames())
        assert all(len(frame.objects) == 0 for frame in frames)
        assert all(not frame.auxiliary_input for frame in frames)

    def test_make_video_returns_stream(self):
        video = make_video("v1", num_frames=10, seed=1)
        assert len(list(video.frames())) == 10

    def test_unknown_video_rejected(self):
        with pytest.raises(KeyError):
            make_video("v9")

    def test_query_classes_match_paper(self):
        assert VIDEO_LIBRARY["v1"].query_class == "dog"
        assert VIDEO_LIBRARY["v3"].query_class == "airplane"
        assert VIDEO_LIBRARY["v4"].query_class == "person"

    def test_airport_objects_are_easier_than_mall(self):
        airport = VIDEO_LIBRARY["v3"].classes[0]
        mall = VIDEO_LIBRARY["v4"].classes[0]
        assert airport.difficulty < mall.difficulty
        assert airport.visibility > mall.visibility
        assert airport.size_fraction > mall.size_fraction

    def test_same_seed_same_video_reproducible(self):
        first = [len(f.objects) for f in make_video("v2", num_frames=20, seed=5).frames()]
        second = [len(f.objects) for f in make_video("v2", num_frames=20, seed=5).frames()]
        assert first == second
