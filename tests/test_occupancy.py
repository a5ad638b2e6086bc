from __future__ import annotations

import math
import re
import struct

import numpy as np
import pytest

from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import (bev_columns, bev_where_max, brute_force_cells, dense_segment_free,
                     dilate_l1, point_blocked, traverse_step_budget, voxelize_broadcast)
from uavnav.geometry import Point3
from uavnav.occupancy import (BevGrid, VoxelGrid, bev_project, is_free, load_grid,
                              mark_vegetation, save_grid, segment_free, traverse_coords,
                              traverse_segment, voxelize)
from uavnav.scene import PointCloud, load_point_cloud


def cloud_of(points) -> PointCloud:
    return PointCloud(points=np.asarray(points, dtype=float))


def occupied_set(grid: VoxelGrid) -> set:
    return {tuple(c) for c in np.argwhere(grid.occupancy)}


@st.composite
def grids_and_points(draw, count: int):
    """A random 6x6x6 grid (voxel size 0.5, 0.7, 1 or 1.3; origin zero or
    not) and ``count`` points in and around it, each coordinate on a cell
    face, a float away from one, halfway, or anywhere in the cell."""
    size = draw(st.sampled_from([0.5, 0.7, 1.0, 1.3]))
    origin = np.array(draw(st.lists(st.sampled_from([0.0, -2.5, 0.35])
                                    | st.floats(-10, 10, allow_subnormal=False),
                                    min_size=3, max_size=3)))
    occ = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((6, 6, 6)) < 0.3
    grid = VoxelGrid(origin=origin, voxel_size=size, dims=(6, 6, 6), occupancy=occ)

    def coord(axis: int) -> float:
        face = float(origin[axis] + draw(st.integers(-2, 8)) * size)
        offset = draw(st.sampled_from(["on", "below", "above", "half", "any"]))
        if offset in ("below", "above"):
            return math.nextafter(face, -math.inf if offset == "below" else math.inf)
        if offset == "half":
            return face + 0.5 * size
        if offset == "any":
            return face + draw(st.floats(0, 1, exclude_max=True)) * size
        return face

    return grid, [Point3(coord(0), coord(1), coord(2)) for _ in range(count)]


class TestVoxelize:
    def test_single_point_flooring(self):
        # With no margin the grid's min corner is the cloud minimum, here
        # the origin, so the point at 1.5 m floors into cell 1 on each axis.
        grid = voxelize(cloud_of([[0.0, 0.0, 0.0], [1.5, 1.5, 1.5]]), 1.0, 0.0)
        assert np.array_equal(grid.origin, [0.0, 0.0, 0.0])
        assert occupied_set(grid) == {(0, 0, 0), (1, 1, 1)}

    def test_single_point_margin_one_dilates_to_seven_cells(self):
        grid = voxelize(cloud_of([[1.5, 1.5, 1.5]]), 1.0, 1.0)
        cells = occupied_set(grid)
        assert len(cells) == 7
        center = grid.cell_of(Point3(1.5, 1.5, 1.5))
        expected = {center}
        for axis in range(3):
            for d in (-1, 1):
                c = list(center)
                c[axis] += d
                expected.add(tuple(c))
        assert cells == expected

    def test_empty_cloud(self):
        grid = voxelize(cloud_of(np.zeros((0, 3))), 1.0, 2.0)
        assert grid.dims == (1, 1, 1)
        assert not grid.occupancy.any()

    def test_random_fixture_matches_brute_force(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-10, 30, size=(100, 3))
        grid = voxelize(cloud_of(pts), 2.0, 0.0)
        assert occupied_set(grid) == brute_force_cells(pts, grid.origin, 2.0)

    def test_monotone_in_point_set(self):
        rng = np.random.default_rng(8)
        # Both clouds hold the origin, their minimum, so both grids start there.
        base = np.vstack([np.zeros(3), rng.uniform(0, 20, size=(60, 3))])
        extra = rng.uniform(0, 20, size=(40, 3))
        small = voxelize(cloud_of(base), 1.0, 0.0)
        big = voxelize(cloud_of(np.vstack([base, extra])), 1.0, 0.0)
        assert np.array_equal(small.origin, big.origin)
        assert occupied_set(small) <= occupied_set(big)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            voxelize(cloud_of([[0, 0, 0]]), 0.0, 0.0)
        with pytest.raises(ValueError):
            voxelize(cloud_of([[0, 0, 0]]), 1.0, -1.0)


@st.composite
def dilation_cases(draw):
    """Points on a half-metre lattice (many on voxel faces), a voxel size
    and a margin that is often not a multiple of it."""
    size = draw(st.sampled_from([0.5, 1.0, 2.0]))
    coord = st.integers(0, 16).map(lambda v: v * 0.5)
    pts = np.array(draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=12)))
    margin = draw(st.sampled_from([0.0, 0.5, 1.0, 1.9, 2.0, 3.5]))
    return pts, size, margin


@settings(max_examples=300, deadline=None)
@given(case=dilation_cases())
def test_dilation_matches_l1_oracle(case):
    pts, size, margin = case
    grid = voxelize(cloud_of(pts), size, margin)
    seeds = np.zeros(grid.dims, dtype=bool)
    for cell in brute_force_cells(pts, grid.origin, size):
        seeds[cell] = True
    if margin == 0:  # the grid starts at the cloud minimum on every axis
        assert seeds[0].any() and seeds[:, 0].any() and seeds[:, :, 0].any()
    assert np.array_equal(grid.occupancy, dilate_l1(seeds, math.ceil(margin / size)))


COORDS = (st.integers(-90, 90).map(lambda k: k / 10)  # tenths: none is dyadic but 0 and .5
          | st.floats(-9.0, 9.0, allow_subnormal=False))


@st.composite
def layer_clouds(draw) -> tuple[str, np.ndarray]:
    """One to 40 points, or one point repeated; kept as an (n, 3) array
    or as the (n, 6) array of a colored ``cloud.npy``."""
    n = draw(st.integers(1, 40))
    points = draw(st.lists(st.tuples(COORDS, COORDS, COORDS), min_size=n, max_size=n))
    if draw(st.booleans()):
        points = points[:1] * n
    layout = draw(st.sampled_from(["n3", "n6_npy"]))
    a = np.array(points, dtype=np.float64)
    return layout, np.hstack([a, np.full((n, 3), 0.5)]) if layout == "n6_npy" else a


@pytest.fixture(scope="module")
def npy_path(tmp_path_factory):
    return tmp_path_factory.mktemp("layers") / "cloud.npy"


@settings(max_examples=250, deadline=None)
@given(case=layer_clouds(), size=st.sampled_from([0.3, 0.7, 1.0, 1.3]),
       min_height=st.sampled_from([-2.5, 0.0, 0.7, 3.0, 1e3]))
def test_scene_layers_equal_parent_formulas(npy_path, case, size, min_height):
    layout, a = case
    if layout == "n6_npy":
        np.save(npy_path, a, allow_pickle=False)
        cloud = load_point_cloud(npy_path)
        assert len(a) == 1 or not cloud.points.flags.c_contiguous  # a[:, :3], a strided view
    else:
        cloud = PointCloud(points=a)
    lo, hi = cloud.bounds
    assert np.array_equal(lo, a[:, :3].min(axis=0)) and np.array_equal(hi, a[:, :3].max(axis=0))
    for margin in (0.0, 2.0):
        grid, want = voxelize(cloud, size, margin), voxelize_broadcast(cloud, size, margin)
        assert np.array_equal(grid.origin, want.origin) and grid.dims == want.dims
        assert np.array_equal(grid.occupancy, want.occupancy)
        bev = bev_project(grid, min_height)
        occupied, heights = bev_where_max(grid, min_height)
        assert bev.occupancy.tobytes() == occupied.tobytes()
        assert bev.max_height.tobytes() == heights.tobytes()


class TestBevProject:
    def test_all_free(self):
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(4, 4, 4),
                         occupancy=np.zeros((4, 4, 4), dtype=bool))
        bev = bev_project(grid)
        assert not bev.occupancy.any()
        assert (bev.max_height == 0).all()

    def test_single_voxel_max_height(self):
        occ = np.zeros((3, 3, 12), dtype=bool)
        occ[1, 2, 9] = True
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(3, 3, 12),
                         occupancy=occ)
        bev = bev_project(grid)
        assert bev.occupancy[1, 2]
        assert bev.max_height[1, 2] == 10.0
        assert bev.occupancy.sum() == 1

    def test_fixture_matches_column_scan_oracle(self):
        rng = np.random.default_rng(9)
        occ = rng.random((8, 8, 10)) < 0.15
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=0.5, dims=(8, 8, 10),
                         occupancy=occ)
        bev = bev_project(grid)
        expected = bev_columns(grid)
        got = {(i, j): float(bev.max_height[i, j])
               for i, j in np.argwhere(bev.occupancy)}
        assert got == pytest.approx(expected)

    def test_bev_of_voxelized_cloud_matches_brute_force(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 25, size=(5000, 3))
        grid = voxelize(cloud_of(pts), 1.0, 0.0)
        bev = bev_project(grid)
        flat = {(i, j) for i, j, _ in brute_force_cells(pts, grid.origin, 1.0)}
        assert {tuple(c) for c in np.argwhere(bev.occupancy)} == flat

    def test_min_height_band_skips_ground(self):
        occ = np.zeros((2, 2, 8), dtype=bool)
        occ[:, :, 0] = True  # terrain surface everywhere
        occ[1, 1, 5] = True
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(2, 2, 8),
                         occupancy=occ)
        bev = bev_project(grid, min_height=2.0)
        assert bev.occupancy.sum() == 1
        assert bev.occupancy[1, 1]
        assert bev.max_height[1, 1] == 6.0

    @pytest.mark.parametrize("min_height", [-7.5, -0.5, 11.5, 12.0, 40.0])
    def test_band_outside_the_grid_equals_parent(self, min_height):
        # At or above the grid top the band is empty and every column is
        # free; below the base it holds the whole grid.
        occ = np.random.default_rng(12).random((5, 4, 12)) < 0.3
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(5, 4, 12), occupancy=occ)
        bev = bev_project(grid, min_height)
        occupied, heights = bev_where_max(grid, min_height)
        assert bev.occupancy.tobytes() == occupied.tobytes()
        assert bev.max_height.tobytes() == heights.tobytes()
        if min_height >= 12.0:
            assert not bev.occupancy.any() and not bev.max_height.any()
        if min_height < 0:
            assert np.array_equal(bev.max_height, bev_project(grid).max_height)

    def test_occupied_iff_positive_height(self):
        rng = np.random.default_rng(11)
        occ = rng.random((6, 6, 6)) < 0.2
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(6, 6, 6),
                         occupancy=occ)
        bev = bev_project(grid)
        assert np.array_equal(bev.occupancy, bev.max_height > 0)


class TestIsFree:
    @settings(max_examples=300, deadline=None)
    @given(grids_and_points(8))
    def test_on_faces_and_edges_equals_the_point_formula(self, case):
        grid, points = case
        for p in points:
            assert is_free(grid, p) == (not point_blocked(grid, p.x, p.y, p.z))

    @pytest.fixture()
    def wall_grid(self) -> VoxelGrid:
        occ = np.zeros((10, 10, 10), dtype=bool)
        occ[5, :, :] = True
        return VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(10, 10, 10),
                         occupancy=occ)

    def test_out_of_bounds_is_not_free(self, wall_grid):
        assert not is_free(wall_grid, Point3(-0.5, 1.0, 1.0))
        assert not is_free(wall_grid, Point3(1.0, 1.0, 10.5))

    def test_dilated_margin_cell_not_free(self):
        grid = voxelize(cloud_of([[5.5, 5.5, 5.5], [15.5, 15.5, 5.5]]), 1.0, 2.0)
        # Two cells along +x from the first point sit inside the inflation.
        assert not is_free(grid, Point3(7.5, 5.5, 5.5))
        assert is_free(grid, Point3(8.5, 5.5, 5.5))

    def test_thousand_random_points_match_brute_force(self, wall_grid):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-2, 12, size=(1000, 3))
        for x, y, z in pts:
            assert is_free(wall_grid, Point3(x, y, z)) == (
                not point_blocked(wall_grid, x, y, z))

    def test_dilation_distance_property(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(4, 16, size=(20, 3))
        margin = 2.0
        grid = voxelize(cloud_of(pts), 1.0, margin)
        sources = brute_force_cells(pts, grid.origin, 1.0)
        radius = math.ceil(margin / 1.0)
        # Any cell within `radius` of a source along a single axis is blocked.
        for i, j, k in sources:
            for axis in range(3):
                for d in range(-radius, radius + 1):
                    cell = [i, j, k]
                    cell[axis] += d
                    if all(0 <= c < n for c, n in zip(cell, grid.dims)):
                        assert grid.occupancy[tuple(cell)]


class TestSegmentFree:
    @pytest.fixture()
    def wall_grid(self) -> VoxelGrid:
        occ = np.zeros((20, 20, 10), dtype=bool)
        occ[10, :, :] = True
        return VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(20, 20, 10),
                         occupancy=occ)

    def test_degenerate_segment_equals_point_query(self, wall_grid):
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = Point3(*rng.uniform(0.2, 19.8, size=2), rng.uniform(0.2, 9.8))
            assert segment_free(wall_grid, p, p) == is_free(wall_grid, p)

    def test_crossing_wall_blocked(self, wall_grid):
        assert not segment_free(wall_grid, Point3(2, 5, 5), Point3(18, 5, 5))

    def test_parallel_to_wall_free(self, wall_grid):
        assert segment_free(wall_grid, Point3(2, 1, 5), Point3(2, 18, 5))

    def test_leaving_bounds_blocked(self, wall_grid):
        assert not segment_free(wall_grid, Point3(2, 2, 5), Point3(2, 2, 40))

    def test_200_random_segments_match_dense_sampling(self):
        rng = np.random.default_rng(15)
        occ = rng.random((15, 15, 8)) < 0.08
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(15, 15, 8),
                         occupancy=occ)
        for _ in range(200):
            a = Point3(*rng.uniform(0.5, 14.5, size=2), rng.uniform(0.5, 7.5))
            b = Point3(*rng.uniform(0.5, 14.5, size=2), rng.uniform(0.5, 7.5))
            assert segment_free(grid, a, b) == dense_segment_free(grid, a, b)

    def test_walk_stays_between_start_and_end_cells(self):
        # (0, 3, 0) is two cells off the segment, outside the box from the
        # start cell (3, 0, 0) to the end cell (2, 2, 0): the walk never visits it.
        occ = np.zeros((5, 5, 1), dtype=bool)
        occ[0, 3, 0] = True
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(5, 5, 1), occupancy=occ)
        a, b = Point3(3.5, 0.5, 0.5), Point3(2.0, 2.0, 0.5)
        assert list(traverse_segment(grid, a, b)) == [(3, 0, 0), (2, 0, 0), (2, 1, 0), (2, 2, 0)]
        assert segment_free(grid, a, b)

    @settings(max_examples=400, deadline=None)
    @given(grids_and_points(2))
    def test_walk_is_face_steps_toward_the_end_cell(self, case):
        grid, (a, b) = case
        cells = list(traverse_segment(grid, a, b))
        start, end = grid.cell_of(a), grid.cell_of(b)
        assert cells[0] == start and cells[-1] == end
        assert len(cells) == 1 + sum(abs(e - s) for s, e in zip(start, end))
        for u, v in zip(cells, cells[1:]):
            steps = [(w - x, e - x) for x, w, e in zip(u, v, end) if w != x]
            assert len(steps) == 1
            step, to_end = steps[0]
            assert abs(step) == 1 and step * to_end > 0
        for cell in cells:
            assert all(min(s, e) <= c <= max(s, e) for c, s, e in zip(cell, start, end))

    @settings(max_examples=400, deadline=None)
    @given(grids_and_points(2))
    def test_walk_equals_step_budget_walk_inside_the_box(self, case):
        grid, (a, b) = case
        old = traverse_step_budget(grid, a.x, a.y, a.z, b.x, b.y, b.z)
        start, end = grid.cell_of(a), grid.cell_of(b)
        inside = all(min(s, e) <= c <= max(s, e)
                     for cell in old for c, s, e in zip(cell, start, end))
        event(f"step-budget walk inside the box: {inside}")
        if inside:
            assert list(traverse_coords(grid, a.x, a.y, a.z, b.x, b.y, b.z)) == old

    def test_traversal_connects_start_to_end(self):
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(30, 30, 30),
                         occupancy=np.zeros((30, 30, 30), dtype=bool))
        rng = np.random.default_rng(16)
        for _ in range(50):
            a = Point3(*rng.uniform(1, 29, size=3))
            b = Point3(*rng.uniform(1, 29, size=3))
            cells = list(traverse_segment(grid, a, b))
            assert cells[0] == grid.cell_of(a)
            assert cells[-1] == grid.cell_of(b)
            for u, v in zip(cells, cells[1:]):
                assert sum(abs(x - y) for x, y in zip(u, v)) == 1


class TestGridIO:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        occ = rng.random((9, 7, 5)) < 0.3
        grid = VoxelGrid(origin=np.array([1.5, -2.0, 0.25]), voxel_size=0.75,
                         dims=(9, 7, 5), occupancy=occ)
        path = tmp_path / "grid.bin"
        save_grid(grid, path)
        back = load_grid(path)
        assert np.array_equal(back.origin, grid.origin)
        assert back.voxel_size == grid.voxel_size
        assert back.dims == grid.dims
        assert np.array_equal(back.occupancy, grid.occupancy)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(ValueError, match="truncated"):
            load_grid(path)

    @pytest.mark.parametrize("header, payload, message", [
        ((0.0, 0.0, 0.0, 1.0, 2, 2, 2), 1000, "dims (2, 2, 2) need 1 bytes of occupancy, "
                                              "the file holds 1000"),
        ((0.0, 0.0, 0.0, 1.0, 9, 7, 5), 39, "need 40 bytes of occupancy, the file holds 39"),
        ((0.0, 0.0, 0.0, 1.0, -2, -2, 2), 1, "bad grid header"),
        ((0.0, 0.0, 0.0, 1.0, 0, 4, 4), 0, "bad grid header"),
        ((0.0, 0.0, 0.0, math.nan, 2, 2, 2), 1, "bad grid header"),
        ((0.0, 0.0, 0.0, -1.0, 2, 2, 2), 1, "bad grid header"),
        ((0.0, math.inf, 0.0, 1.0, 2, 2, 2), 1, "bad grid header"),
    ], ids=["payload_too_long", "payload_too_short", "negative_dims", "zero_dim",
            "nan_voxel_size", "negative_voxel_size", "infinite_origin"])
    def test_malformed_header_rejected(self, tmp_path, header, payload, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<3dd3q", *header) + bytes(payload))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_grid(path)


class TestVegetation:
    def test_mark_vegetation_radius(self):
        bev = BevGrid(origin=np.zeros(2), cell_size=1.0, dims=(10, 10),
                      occupancy=np.zeros((10, 10), dtype=bool),
                      max_height=np.zeros((10, 10)))
        marked = mark_vegetation(bev, [(5.0, 5.0)], radius=1.6)
        assert marked.is_vegetation(5.2, 5.2)
        assert marked.is_vegetation(6.4, 5.5)
        assert not marked.is_vegetation(8.5, 8.5)
        assert bev.vegetation is None  # original untouched
