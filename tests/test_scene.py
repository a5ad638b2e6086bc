from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (parse_point_cloud_lines, roof_points_loop, save_point_cloud,
                     scene_spec_to_dict)
from uavnav import ConfigError
from uavnav.pipeline import write_scene_dir
from uavnav.scene import (SURFACE_SAMPLE_SPACING, BuildingSpec, PointCloud,
                          PointCloudParseError, SceneSpec, TreeSpec,
                          _sample_polygon_interior,
                          load_point_cloud, load_scene_spec,
                          scene_spec_from_dict,
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

    @pytest.mark.parametrize("shape", [(4, 6), (8, 2), (12,), (2, 2, 3), (0,)])
    def test_point_cloud_refuses_any_shape_but_n_by_3(self, shape):
        # An x y z r g b array once became twice the points, colours as coordinates.
        with pytest.raises(ValueError, match=r"expected \(n, 3\)"):
            PointCloud(points=np.arange(float(np.prod(shape))).reshape(shape))
        assert len(PointCloud(points=np.zeros((0, 3)))) == 0

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\n1 2 3\n   \n# trailing\n")
        assert len(load_point_cloud(path)) == 1

    def test_colors_parsed(self, tmp_path):
        # Colors are checked as every other field, then dropped: only xyz is kept.
        path = tmp_path / "col.txt"
        path.write_text("1 2 3 0.5 0.25 1.0\n")
        cloud = load_point_cloud(path)
        assert cloud.points.tobytes() == np.array([[1.0, 2.0, 3.0]]).tobytes()
        for bad, message in [("1 2 3 0.5 nan 1.0\n", "non-finite value"),
                             ("1 2 3 0.5 red 1.0\n", "could not convert"),
                             ("1 2 3 0.5 0.25 1.0\n4 5 6\n", "mixed colored")]:
            path.write_text(bad)
            with pytest.raises(PointCloudParseError, match=message):
                load_point_cloud(path)

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
        points = parse_point_cloud_lines(cloud_path)
    except PointCloudParseError as expected:
        with pytest.raises(PointCloudParseError) as err:
            load_point_cloud(cloud_path)
        assert (err.value.line_number, str(err.value)) == (expected.line_number, str(expected))
        return
    cloud = load_point_cloud(cloud_path)
    assert cloud.points.shape == points.shape
    assert cloud.points.tobytes() == points.tobytes()


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
        rows = np.hstack([rng.normal(size=(50, 3)), rng.uniform(0, 1, size=(50, 3))])
        path = tmp_path / "rtc.txt"
        path.write_text("".join(" ".join(map(repr, map(float, row))) + "\n" for row in rows))
        back = load_point_cloud(path)
        assert back.points.tobytes() == np.ascontiguousarray(rows[:, :3]).tobytes()


    @pytest.mark.parametrize("layout", [
        lambda a: a, lambda a: np.asfortranarray(a), lambda a: a.astype(">f8"),
        lambda a: a[:0]], ids=["c_order", "fortran_order", "big_endian", "empty"])
    def test_any_float64_npy_layout_loads_exactly(self, tmp_path, layout):
        rng = np.random.default_rng(13)
        array = rng.normal(size=(30, 6))
        path = tmp_path / "cloud.npy"
        np.save(path, layout(array), allow_pickle=False)
        cloud = load_point_cloud(path)
        assert np.array_equal(cloud.points, layout(array)[:, :3])


class TestSynthesize:
    def test_empty_spec_ground_only(self):
        spec = SceneSpec(extent=(20.0, 20.0))
        cloud = synthesize_scene(spec)
        assert len(cloud) > 0
        assert np.all(cloud.points[:, 2] == 0.0)

    def test_single_box_height_exact(self):
        spec = SceneSpec(extent=(40.0, 40.0),
                         buildings=[BuildingSpec(box(10, 10, 10, 10), 30.0, "box")])
        points = synthesize_scene(spec).points
        assert points[:, 2].max() == 30.0
        roof = points[points[:, 2] == 30.0, :2]
        assert len(roof) > 0 and np.all((roof >= 10.0) & (roof <= 20.0))

    def test_same_seed_bit_identical(self):
        spec = SceneSpec(extent=(30.0, 30.0),
                         buildings=[BuildingSpec(box(5, 5, 8, 8), 12.0, "b")],
                         trees=[TreeSpec((20.0, 20.0), 6.0)])
        a = synthesize_scene(spec)
        b = synthesize_scene(spec)
        assert np.array_equal(a.points, b.points)

    def test_overlapping_footprints_rejected(self):
        with pytest.raises(ConfigError, match="building footprints overlap"):
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
        n1 = len(synthesize_scene(one))
        n2 = len(synthesize_scene(two))
        assert abs(n2 / n1 - 2.0) < 0.2

    def test_points_inside_extent_horizontally(self):
        spec = SceneSpec(extent=(60.0, 80.0),
                         buildings=[BuildingSpec(box(10, 20, 15, 10), 25.0, "a")],
                         trees=[TreeSpec((40.0, 40.0), 8.0)])
        cloud = synthesize_scene(spec)
        assert cloud.points[:, 0].min() >= -1e-9
        assert cloud.points[:, 0].max() <= 60.0 + 1e-9
        assert cloud.points[:, 1].min() >= -1e-9
        assert cloud.points[:, 1].max() <= 80.0 + 1e-9

    def test_footprint_outside_extent_rejected(self):
        with pytest.raises(ConfigError, match="footprint leaves the ground extent"):
            SceneSpec(extent=(20.0, 20.0),
                      buildings=[BuildingSpec(box(15, 15, 10, 10), 5.0, "a")])

    def test_spec_json_round_trip(self):
        spec = SceneSpec(extent=(30.0, 40.0),
                         buildings=[BuildingSpec(box(2, 3, 5, 6), 9.0, "tower")],
                         trees=[TreeSpec((11.0, 12.0), 7.0, 1.5)], scene_id="rt")
        again = scene_spec_from_dict(json.loads(json.dumps(asdict(spec))))
        assert again == spec

    def test_spec_json_with_an_old_seed_loads(self, tmp_path):
        # scene.json files written before the spec lost its unused seed.
        spec = SceneSpec(extent=(30.0, 40.0), buildings=[BuildingSpec(box(2, 3, 5, 6), 9.0, "t")])
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({**asdict(spec), "seed": 3}))
        assert load_scene_spec(path) == spec

    @pytest.mark.parametrize("radius", [0.0, -3.0, -1e14])
    def test_non_positive_canopy_radius_rejected(self, radius):
        # -1e14 on a 1e7 m ground once made the point bound negative, so
        # it passed MAX_POINTS; the spec is refused before any bound.
        message = r"tree at \(20.0, 20.0\) has non-positive canopy radius"
        with pytest.raises(ConfigError, match=message):
            SceneSpec(extent=(40.0, 40.0), trees=[TreeSpec((20.0, 20.0), 6.0, radius)])
        doc = {"extent": [1e7, 1e7], "trees": [
            {"position": [20.0, 20.0], "canopy_height": 6.0, "canopy_radius": radius}]}
        with pytest.raises(ConfigError, match=message):
            scene_spec_from_dict(doc)

    @pytest.mark.parametrize("position", [(-5000.0, -5000.0), (40.5, 20.0), (20.0, -0.1),
                                          (float("nan"), 20.0)],
                             ids=["far", "past_x", "below_y", "nan"])
    def test_tree_outside_extent_rejected(self, position):
        # The far tree once synthesized, and its cloud's bounds would have
        # sized a ~7e8-cell grid for a 40 m scene; no grid is built here.
        with pytest.raises(ConfigError, match="leaves the ground extent"):
            SceneSpec(extent=(40.0, 40.0), trees=[TreeSpec(position, 6.0)])

    def test_tree_outside_extent_rejected_from_dict(self):
        doc = {"extent": [40.0, 40.0],
               "trees": [{"position": [-5000.0, -5000.0], "canopy_height": 6.0}]}
        with pytest.raises(ConfigError,
                           match=r"tree at \(-5000.0, -5000.0\) leaves the ground extent"):
            scene_spec_from_dict(doc)

    def test_tree_on_extent_edge_accepted(self):
        spec = SceneSpec(extent=(40.0, 30.0), trees=[TreeSpec((0.0, 30.0), 6.0),
                                                     TreeSpec((40.0, 0.0), 6.0)])
        assert len(spec.trees) == 2


def _on_lattice(v: float):
    v = round(v * 2) / 2  # the 0.5 m sampling lattice, as an int where whole
    return int(v) if v == int(v) else v


@st.composite
def footprints(draw) -> list:
    """A star-shaped polygon of 3-9 vertices around (20, 20), with its
    vertices on the 0.5 m sampling lattice (so lattice points fall on its
    edges and vertices), at tenths or anywhere; or a box, whose
    horizontal edges cross no ray."""
    if draw(st.booleans()):
        x, y = draw(st.sampled_from([5, 5.5, 5.3])), draw(st.sampled_from([7, 6.5, 6.1]))
        return box(x, y, draw(st.sampled_from([4, 7.5, 3.7])), draw(st.sampled_from([6, 2.5])))
    n = draw(st.integers(3, 9))
    angles = sorted(draw(st.lists(st.floats(0.0, 6.28), min_size=n, max_size=n, unique=True)))
    radii = draw(st.lists(st.floats(1.0, 15.0), min_size=n, max_size=n))
    snap = draw(st.sampled_from([_on_lattice, lambda v: round(v, 1), float]))
    return [(snap(20 + r * np.cos(t)), snap(20 + r * np.sin(t))) for r, t in zip(radii, angles)]


@settings(max_examples=300, deadline=None)
@given(footprint=footprints())
def test_roof_sampling_equals_point_in_polygon_loop(footprint):
    got = _sample_polygon_interior(footprint, SURFACE_SAMPLE_SPACING)
    want = roof_points_loop(footprint, SURFACE_SAMPLE_SPACING)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


SIZES = st.integers(1, 60) | st.floats(0.5, 60.0)  # JSON "30" and "30.0" alike


@st.composite
def scene_specs(draw) -> SceneSpec:
    """Up to four buildings, one per 10 m column so that none overlap, and
    up to three trees, each with the default canopy radius or its own."""
    n = draw(st.integers(0, 4))
    buildings = [BuildingSpec(box(10 * k + 1, draw(st.floats(0.0, 20.0)),
                                  draw(st.floats(1.0, 8.0)), draw(st.sampled_from([2, 4.5]))),
                              draw(SIZES), draw(st.text(min_size=1, max_size=6)))
                 for k in range(n)]
    trees = []
    for _ in range(draw(st.integers(0, 3))):
        position = (draw(st.floats(0.0, 40.0)), draw(st.floats(0.0, 30.0)))
        radius = draw(st.none() | SIZES)
        trees.append(TreeSpec(position, draw(SIZES)) if radius is None
                     else TreeSpec(position, draw(SIZES), radius))
    return SceneSpec(scene_id=draw(st.text(max_size=6)), extent=(10 * n + 40, 30.0),
                     buildings=buildings, trees=trees)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("spec")


@settings(max_examples=150, deadline=None)
@given(spec=scene_specs())
def test_scene_json_is_the_hand_written_document(spec_dir, spec):
    write_scene_dir(spec, spec_dir, cloud=PointCloud(points=np.zeros((0, 3))))
    written = (spec_dir / "scene.json").read_text(encoding="utf-8")
    assert written == json.dumps(scene_spec_to_dict(spec), indent=1)
    assert scene_spec_from_dict(json.loads(written)) == spec
