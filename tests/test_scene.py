from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_point_cloud_lines
from uavnav.scene import (BuildingSpec, PointCloud, PointCloudParseError,
                          SceneSpec, SceneSpecError, TreeSpec,
                          load_point_cloud, save_point_cloud,
                          scene_spec_from_dict, scene_spec_to_dict,
                          synthesize_scene)


def box(x, y, w, h):
    return [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]


class TestLoadPointCloud:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        cloud = load_point_cloud(path)
        assert len(cloud) == 0
        lo, hi = cloud.bounds
        assert np.array_equal(lo, hi)

    def test_single_point(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1.0 2.0 3.0\n")
        cloud = load_point_cloud(path)
        assert len(cloud) == 1
        assert np.allclose(cloud.points[0], [1.0, 2.0, 3.0])
        lo, hi = cloud.bounds
        assert np.array_equal(lo, [1.0, 2.0, 3.0])
        assert np.array_equal(hi, [1.0, 2.0, 3.0])

    def test_three_point_bounds_hand_computed(self, tmp_path):
        # min/max per axis worked out by hand for this fixture:
        # points (1,-2,0.5), (-3,4,2), (2,0,-1)
        path = tmp_path / "three.txt"
        path.write_text("1 -2 0.5\n-3 4 2\n2 0 -1\n")
        cloud = load_point_cloud(path)
        lo, hi = cloud.bounds
        assert np.array_equal(lo, [-3.0, -2.0, -1.0])
        assert np.array_equal(hi, [2.0, 4.0, 2.0])

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\n1 2 3\n   \n# trailing\n")
        assert len(load_point_cloud(path)) == 1

    def test_colors_parsed(self, tmp_path):
        path = tmp_path / "col.txt"
        path.write_text("1 2 3 0.5 0.25 1.0\n")
        cloud = load_point_cloud(path)
        assert cloud.colors is not None
        assert np.allclose(cloud.colors[0], [0.5, 0.25, 1.0])

    def test_malformed_line_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n4 5\n")
        with pytest.raises(PointCloudParseError) as err:
            load_point_cloud(path)
        assert err.value.line_number == 2
        assert ":2:" in str(err.value)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 spam\n")
        with pytest.raises(PointCloudParseError) as err:
            load_point_cloud(path)
        assert err.value.line_number == 1

    def test_point_order_preserved(self, tmp_path):
        path = tmp_path / "ord.txt"
        path.write_text("3 0 0\n1 0 0\n2 0 0\n")
        cloud = load_point_cloud(path)
        assert list(cloud.points[:, 0]) == [3.0, 1.0, 2.0]

    @pytest.mark.parametrize("text, line_number", [
        ("1 2 3\n4 5 6\nnan 1 2\n", 3),
        ("1 2 3 0 0 0\n4 5 6 1 1 1\n7 8 9\n", 3),
        ("1 2 3 0 0 0\n7 8 9\n4 5 6 1 1 1\n", 2),
    ], ids=["nan_on_line_3", "three_fields_in_six_field_file",
            "three_fields_mid_six_field_file"])
    def test_numpy_accepted_or_rejected_line_numbered_by_loop(self, tmp_path, text,
                                                              line_number):
        # NumPy parses the first and rejects the others; the loop must name the line.
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(PointCloudParseError) as err:
            load_point_cloud(path)
        assert err.value.line_number == line_number

    @pytest.mark.parametrize("data, line_number", [
        (b"1 2 3\n\xff 5 6\n7 8 9\n", 2),
        (b"# header\r\n1 2 3\r4 5 \xc3(\n", 3),
    ], ids=["numpy_path", "line_loop_path"])
    def test_not_utf8_names_line_of_first_bad_byte(self, tmp_path, data, line_number):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(PointCloudParseError, match="not UTF-8") as err:
            load_point_cloud(path)
        assert err.value.line_number == line_number


NUMBERS = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
           | st.integers(-999, 999).map(str))
ODD_FIELDS = ["nan", "-inf", "inf", "1e400", "1_0", "0x1p3", "+1.", "spam", "1#2", "#"]


@st.composite
def cloud_texts(draw) -> str:
    """Point cloud text: half the files only points and blank lines, the
    rest also comments, odd fields and lines of the wrong width."""
    clean = draw(st.booleans())
    width = draw(st.sampled_from([3, 6]))
    sep = st.sampled_from([" ", "\t", "\x0c", "\x1c", "\x85", " \t "])
    kinds = ["point"] * 4 + ["blank"] + ([] if clean else ["comment", "odd", "width"])
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\x0c"])))
            continue
        n = draw(st.sampled_from([2, 3, 4, 5, 6])) if kind == "width" else width
        fields = draw(st.lists(NUMBERS, min_size=n, max_size=n))
        if kind == "odd":
            fields[draw(st.integers(0, n - 1))] = draw(st.sampled_from(ODD_FIELDS))
        line = draw(sep).join(fields)
        if kind == "comment":
            line = draw(st.sampled_from(["# " + line, line + " # note", "#"]))
        lines.append(draw(st.sampled_from(["", " "])) + line + draw(st.sampled_from(["", "\t"])))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def cloud_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "cloud.txt"


@settings(max_examples=400, deadline=None)
@given(text=cloud_texts())
def test_load_point_cloud_matches_line_loop(cloud_path, text):
    cloud_path.write_bytes(text.encode("utf-8"))
    try:
        points, colors = parse_point_cloud_lines(cloud_path)
    except PointCloudParseError as expected:
        with pytest.raises(PointCloudParseError) as err:
            load_point_cloud(cloud_path)
        assert (err.value.line_number, str(err.value)) == (expected.line_number, str(expected))
        return
    cloud = load_point_cloud(cloud_path)
    assert cloud.points.shape == points.shape
    assert cloud.points.tobytes() == points.tobytes()
    assert (cloud.colors is None) == (colors is None)
    if colors is not None:
        assert cloud.colors.tobytes() == colors.tobytes()


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-500, 500, size=(200, 3))
        cloud = PointCloud(points=pts)
        path = tmp_path / "rt.txt"
        save_point_cloud(cloud, path)
        back = load_point_cloud(path)
        assert np.array_equal(back.points, cloud.points)

    def test_exact_round_trip_with_colors(self, tmp_path):
        rng = np.random.default_rng(12)
        cloud = PointCloud(points=rng.normal(size=(50, 3)),
                           colors=rng.uniform(0, 1, size=(50, 3)))
        path = tmp_path / "rtc.txt"
        save_point_cloud(cloud, path)
        back = load_point_cloud(path)
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.colors, cloud.colors)


class TestSynthesize:
    def test_empty_spec_ground_only(self):
        spec = SceneSpec(extent=(20.0, 20.0))
        cloud, landmarks = synthesize_scene(spec)
        assert landmarks == []
        assert len(cloud) > 0
        assert np.all(cloud.points[:, 2] == 0.0)

    def test_single_box_height_exact(self):
        spec = SceneSpec(extent=(40.0, 40.0),
                         buildings=[BuildingSpec(box(10, 10, 10, 10), 30.0, "box")])
        _, landmarks = synthesize_scene(spec)
        assert len(landmarks) == 1
        assert landmarks[0].height == 30.0
        assert landmarks[0].label == "box"
        assert landmarks[0].footprint == box(10, 10, 10, 10)

    def test_same_seed_bit_identical(self):
        spec = SceneSpec(extent=(30.0, 30.0),
                         buildings=[BuildingSpec(box(5, 5, 8, 8), 12.0, "b")],
                         trees=[TreeSpec((20.0, 20.0), 6.0)], seed=99)
        a, _ = synthesize_scene(spec)
        b, _ = synthesize_scene(spec)
        assert np.array_equal(a.points, b.points)

    def test_overlapping_footprints_rejected(self):
        with pytest.raises(SceneSpecError, match="overlap"):
            SceneSpec(extent=(40.0, 40.0), buildings=[
                BuildingSpec(box(5, 5, 10, 10), 10.0, "a"),
                BuildingSpec(box(10, 10, 10, 10), 10.0, "b"),
            ])

    def test_point_count_linear_in_surface_area(self):
        # Doubling every surface should double the point count within 10%.
        one = SceneSpec(extent=(50.0, 50.0),
                        buildings=[BuildingSpec(box(10, 10, 10, 10), 10.0, "a")])
        two = SceneSpec(extent=(100.0, 50.0),
                        buildings=[BuildingSpec(box(10, 10, 10, 10), 10.0, "a"),
                                   BuildingSpec(box(60, 10, 10, 10), 10.0, "b")])
        n1 = len(synthesize_scene(one)[0])
        n2 = len(synthesize_scene(two)[0])
        assert abs(n2 / n1 - 2.0) < 0.2

    def test_points_inside_extent_horizontally(self):
        spec = SceneSpec(extent=(60.0, 80.0),
                         buildings=[BuildingSpec(box(10, 20, 15, 10), 25.0, "a")],
                         trees=[TreeSpec((40.0, 40.0), 8.0)])
        cloud, _ = synthesize_scene(spec)
        assert cloud.points[:, 0].min() >= -1e-9
        assert cloud.points[:, 0].max() <= 60.0 + 1e-9
        assert cloud.points[:, 1].min() >= -1e-9
        assert cloud.points[:, 1].max() <= 80.0 + 1e-9

    def test_footprint_outside_extent_rejected(self):
        with pytest.raises(SceneSpecError):
            SceneSpec(extent=(20.0, 20.0),
                      buildings=[BuildingSpec(box(15, 15, 10, 10), 5.0, "a")])

    def test_spec_json_round_trip(self):
        spec = SceneSpec(extent=(30.0, 40.0),
                         buildings=[BuildingSpec(box(2, 3, 5, 6), 9.0, "tower")],
                         trees=[TreeSpec((11.0, 12.0), 7.0, 1.5)],
                         seed=5, scene_id="rt")
        again = scene_spec_from_dict(scene_spec_to_dict(spec))
        assert again == spec
