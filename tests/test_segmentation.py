from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import union_find_components
from uavnav.geometry import point_in_polygon
from uavnav.occupancy import BevGrid, bev_project, voxelize
from uavnav.pipeline import demo_scene_spec
from uavnav.scene import synthesize_scene
from uavnav.segmentation import (Caption, LandmarkInstance,
                                 caption_instance, extract_instances,
                                 instances_from_json, load_instances, parse_caption,
                                 save_instances)
from uavnav.vlm import VlmClient, VlmReplyError


def bev_from_cells(cells, heights=None, dims=(12, 12), cell_size=1.0) -> BevGrid:
    occ = np.zeros(dims, dtype=bool)
    hts = np.zeros(dims)
    for c in cells:
        occ[c] = True
        hts[c] = heights[c] if heights else 10.0
    return BevGrid(origin=np.zeros(2), cell_size=cell_size, dims=dims,
                   occupancy=occ, max_height=hts)


class TestExtractInstances:
    def test_all_free_bev(self):
        assert extract_instances(bev_from_cells([]), 0.0) == []

    def test_single_block(self):
        cells = [(i, j) for i in range(10) for j in range(10)]
        heights = {c: 30.0 for c in cells}
        bev = bev_from_cells(cells, heights)
        instances = extract_instances(bev, 0.0)
        assert len(instances) == 1
        inst = instances[0]
        assert inst.area == 100.0
        assert inst.height == 30.0
        assert inst.centroid == (5.0, 5.0)

    def test_l_shape_contour_matches_hand_trace(self):
        # Thick L: a 2x4 column plus a 2x2 foot. Boundary traced by hand
        # (clockwise Moore walk from the lexicographic minimum cell):
        cells = [(i, j) for i in range(2) for j in range(4)]
        cells += [(i, j) for i in range(2, 4) for j in range(2)]
        bev = bev_from_cells(cells)
        instances = extract_instances(bev, 0.0)
        assert len(instances) == 1
        expected_cells = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (1, 2),
                          (2, 1), (3, 1), (3, 0), (2, 0), (1, 0)]
        expected = [(i + 0.5, j + 0.5) for i, j in expected_cells]
        assert instances[0].contour == expected

    def test_min_area_threshold(self):
        cells = [(0, 0), (0, 1), (5, 5)]
        bev = bev_from_cells(cells)
        assert len(extract_instances(bev, 0.0)) == 2
        assert len(extract_instances(bev, 2.0)) == 1
        assert len(extract_instances(bev, 3.0)) == 0

    def test_component_count_matches_flood_fill_on_random_grids(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            occ = rng.random((14, 14)) < 0.35
            bev = BevGrid(origin=np.zeros(2), cell_size=1.0, dims=(14, 14),
                          occupancy=occ,
                          max_height=np.where(occ, 5.0, 0.0))
            instances = extract_instances(bev, 0.0)
            assert len(instances) == union_find_components(occ)

    def test_area_sum_bounded_by_occupied_area(self):
        rng = np.random.default_rng(22)
        occ = rng.random((16, 16)) < 0.3
        bev = BevGrid(origin=np.zeros(2), cell_size=1.0, dims=(16, 16),
                      occupancy=occ, max_height=np.where(occ, 4.0, 0.0))
        total = float(occ.sum())
        all_instances = extract_instances(bev, 0.0)
        assert sum(i.area for i in all_instances) == total
        some = extract_instances(bev, 3.0)
        assert sum(i.area for i in some) <= total

    def test_contours_closed_and_touching_free_space(self):
        rng = np.random.default_rng(23)
        occ = rng.random((15, 15)) < 0.3
        occ[0, :] = occ[-1, :] = occ[:, 0] = occ[:, -1] = False
        bev = BevGrid(origin=np.zeros(2), cell_size=1.0, dims=(15, 15),
                      occupancy=occ, max_height=np.where(occ, 4.0, 0.0))
        for inst in extract_instances(bev, 0.0):
            # An open boundary cycle: the first vertex is not repeated at the end.
            assert len(inst.contour) == 1 or inst.contour[0] != inst.contour[-1]
            for x, y in inst.contour:
                i, j = int(x), int(y)
                free_neighbor = any(
                    not (0 <= i + di < 15 and 0 <= j + dj < 15)
                    or not occ[i + di, j + dj]
                    for di in (-1, 0, 1) for dj in (-1, 0, 1)
                    if (di, dj) != (0, 0))
                assert free_neighbor

    def test_centroid_inside_contour_bbox(self):
        rng = np.random.default_rng(24)
        occ = rng.random((12, 12)) < 0.4
        bev = BevGrid(origin=np.zeros(2), cell_size=1.0, dims=(12, 12),
                      occupancy=occ, max_height=np.where(occ, 4.0, 0.0))
        for inst in extract_instances(bev, 0.0):
            xs = [p[0] for p in inst.contour]
            ys = [p[1] for p in inst.contour]
            assert min(xs) - 0.5 <= inst.centroid[0] <= max(xs) + 0.5
            assert min(ys) - 0.5 <= inst.centroid[1] <= max(ys) + 0.5


class TestSynthesizedSceneSegmentation:
    def test_instance_count_and_heights_match_ground_truth(self):
        spec = demo_scene_spec()
        grid = voxelize(synthesize_scene(spec), 1.0, 0.0)
        bev = bev_project(grid, min_height=2.0)
        instances = extract_instances(bev, 20.0)
        assert len(instances) == len(spec.buildings)
        labels = []
        for inst in instances:
            building, = [b for b in spec.buildings
                         if point_in_polygon(inst.centroid, b.footprint)]
            assert abs(inst.height - building.height) <= grid.voxel_size
            labels.append(building.label)
        assert sorted(labels) == sorted(b.label for b in spec.buildings)


class TestCaptionParsing:
    def test_loose_reply_fixture(self):
        caption = parse_caption(
            "color: blue, feature: Steel, glass, size: medium size, type: building")
        assert caption == Caption(color="blue", feature="Steel, glass",
                                  size="medium size", type="building")

    def test_json_reply(self):
        caption = parse_caption(
            '{"color": "red", "feature": "brick", "size": "small", "type": "house"}')
        assert caption.type == "house"

    def test_missing_field_raises(self):
        with pytest.raises(VlmReplyError) as err:
            parse_caption("color: blue, feature: glass, size: medium")
        assert "type" in str(err.value)
        assert err.value.raw_reply.startswith("color")


class _BrokenClient:
    mode = "mock"

    def __init__(self):
        self.calls = 0

    def complete(self, prompt, payload):
        self.calls += 1
        return "color: blue, feature: glass, size: medium"  # no type field


def make_instance(area=1200.0) -> LandmarkInstance:
    return LandmarkInstance(id=0, contour=[(0, 0), (1, 0), (1, 1)],
                            centroid=(0.5, 0.5), height=30.0, area=area,
                            cells=[(0, 0)])


class TestCaptionInstance:
    def test_mock_caption_from_ground_truth_label(self):
        vlm = VlmClient(mode="mock")
        inst = caption_instance(make_instance(area=1200.0), ["ref1"], vlm,
                                hint_label="blue glass tower, 30m")
        assert inst.caption == Caption(color="blue", feature="glass",
                                       size="large", type="tower")

    def test_mock_size_bucketing(self):
        vlm = VlmClient(mode="mock")
        small = caption_instance(make_instance(area=150.0), [], vlm,
                                 hint_label="gray concrete hut")
        medium = caption_instance(make_instance(area=500.0), [], vlm,
                                  hint_label="gray concrete hall")
        assert small.caption.size == "small"
        assert medium.caption.size == "medium"

    def test_malformed_reply_raises_after_retries(self):
        client = _BrokenClient()
        with pytest.raises(VlmReplyError, match="caption reply never parsed") as err:
            caption_instance(make_instance(), [], client)
        assert client.calls == 3
        assert "size: medium" in err.value.raw_reply


COORD = st.integers(-500, 500) | st.floats(-500.0, 500.0)
PAIRS = st.tuples(COORD, COORD)


def saved(instances: list[LandmarkInstance], directory) -> str:
    """The landmarks.json text ``save_instances`` writes for ``instances``."""
    save_instances(instances, directory / "landmarks.json")
    return (directory / "landmarks.json").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def landmarks_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("landmarks")


class TestInstanceSerialization:
    def test_json_round_trip(self, tmp_path):
        inst = make_instance()
        captioned = LandmarkInstance(
            id=3, contour=[(0.5, 0.5), (2.5, 0.5), (2.5, 2.5)],
            centroid=(1.5, 1.5), height=12.0, area=9.0,
            cells=[(0, 0), (0, 1)],
            caption=Caption("red", "brick", "small", "house"))
        path = tmp_path / "landmarks.json"
        save_instances([inst, captioned], path)
        assert load_instances(path) == [inst, captioned]

    def test_demo_landmarks_are_the_hand_written_document(self, demo_bundle, tmp_path):
        landmarks = demo_bundle.landmarks
        assert all(lm.caption is not None for lm in landmarks)
        assert saved(landmarks, tmp_path) == oracles.instances_to_json(landmarks)

    @settings(max_examples=150, deadline=None)
    @given(instances=st.lists(st.builds(
        LandmarkInstance, id=st.integers(0, 999), contour=st.lists(PAIRS, max_size=6),
        centroid=PAIRS, height=COORD, area=COORD,
        cells=st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=6),
        caption=st.none() | st.builds(Caption, *[st.text(max_size=6)] * 4)), max_size=4))
    def test_json_is_the_hand_written_document(self, landmarks_dir, instances):
        written = saved(instances, landmarks_dir)
        assert written == oracles.instances_to_json(instances)
        assert instances_from_json(json.loads(written)) == instances
