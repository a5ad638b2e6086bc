"""Voxel occupancy mapping and collision queries.

Two map structures back trajectory search: a dense 3D voxel grid built
from the scene point cloud (optionally inflated by a safety margin) and
a 2D bird's-eye-view grid holding per-column maximum heights. Both are
immutable after construction, so concurrent read queries are safe.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import ConfigError, atomic_open, check_kind
from .geometry import Point3
from .scene import PointCloud

DEFAULT_VOXEL_SIZE = 1.0  # meters
DEFAULT_MARGIN = 2.0  # meters of safety inflation around occupied cells
MAX_VOXELS = 10**9  # cells per grid: 1 GB of occupancy, a few times that while dilating
MAX_COORDINATE = 1e9  # meters from the origin, of a grid corner or an episode coordinate

_GRID_HEADER = struct.Struct("<3dd3q")  # origin xyz, voxel_size, dims xyz


@dataclass(frozen=True, eq=False)
class VoxelGrid:
    """Dense 3D occupancy over a box; cell (i,j,k) spans origin + [i,i+1)*size."""

    origin: np.ndarray  # (3,) float64, min corner
    voxel_size: float
    dims: tuple[int, int, int]
    occupancy: np.ndarray  # bool array of shape dims

    def __post_init__(self) -> None:
        if self.voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        if self.occupancy.shape != tuple(self.dims):
            raise ValueError("occupancy shape does not match dims")

    def cell_of(self, p: Point3) -> tuple[int, int, int]:
        i = int(np.floor((p.x - self.origin[0]) / self.voxel_size))
        j = int(np.floor((p.y - self.origin[1]) / self.voxel_size))
        k = int(np.floor((p.z - self.origin[2]) / self.voxel_size))
        return (i, j, k)

    def in_bounds(self, cell: tuple[int, int, int]) -> bool:
        i, j, k = cell
        nx, ny, nz = self.dims
        return 0 <= i < nx and 0 <= j < ny and 0 <= k < nz


@dataclass(frozen=True, eq=False)
class BevGrid:
    """Bird's-eye-view occupancy with per-cell max height.

    Heights are measured from the grid's base plane (``base_z``), i.e.
    max_height = (highest occupied voxel index + 1) * cell_size. The
    absolute top of a column is ``base_z + max_height``.
    """

    origin: np.ndarray  # (2,) float64
    cell_size: float
    dims: tuple[int, int]
    occupancy: np.ndarray  # bool (nx, ny)
    max_height: np.ndarray  # float64 (nx, ny), 0 where free
    base_z: float = 0.0
    vegetation: np.ndarray | None = field(default=None, compare=False)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        i = int(np.floor((x - self.origin[0]) / self.cell_size))
        j = int(np.floor((y - self.origin[1]) / self.cell_size))
        return (i, j)

    def in_bounds(self, cell: tuple[int, int]) -> bool:
        return 0 <= cell[0] < self.dims[0] and 0 <= cell[1] < self.dims[1]

    def column_top(self, x: float, y: float) -> float:
        """Absolute z of the highest occupied voxel in the column; -inf if free."""
        cell = self.cell_of(x, y)
        if not self.in_bounds(cell) or not self.occupancy[cell]:
            return float("-inf")
        return self.base_z + float(self.max_height[cell])

    def is_vegetation(self, x: float, y: float) -> bool:
        if self.vegetation is None:
            return False
        cell = self.cell_of(x, y)
        return self.in_bounds(cell) and bool(self.vegetation[cell])


def voxelize(cloud: PointCloud, voxel_size: float = DEFAULT_VOXEL_SIZE,
             margin: float = DEFAULT_MARGIN) -> VoxelGrid:
    """Build the global voxel map from a point cloud.

    A voxel is occupied iff at least one point falls inside it; the
    occupied set is then dilated by ceil(margin / voxel_size) cells using
    the 6-neighborhood (face) structuring element, with cells outside the
    grid counted as free. The grid covers the cloud bounds plus the
    margin. A grid of more than ``MAX_VOXELS`` cells, or with a corner
    more than ``MAX_COORDINATE`` from the origin, is a ConfigError: every
    pose planned in it is then one that ``dataset`` reads back.
    """
    check_kind("voxel_size", voxel_size, "a finite number > 0", ConfigError)
    check_kind("margin", margin, "a number >= 0", ConfigError)
    if len(cloud) == 0:
        return VoxelGrid(origin=np.zeros(3), voxel_size=voxel_size, dims=(1, 1, 1),
                         occupancy=np.zeros((1, 1, 1), dtype=bool))
    margin_cells = float(np.ceil(margin / voxel_size))  # float: an inf one fails the cap below
    lo, hi = cloud.bounds
    origin = lo - margin_cells * voxel_size
    dims = [float(d) + 1 + margin_cells for d in np.floor((hi - origin) / voxel_size)]
    if not math.prod(dims) <= MAX_VOXELS:  # counted in floats, before any allocation
        raise ConfigError(f"a {voxel_size} m grid over this cloud needs "
                          f"{math.prod(dims):.3g} voxels, more than MAX_VOXELS ({MAX_VOXELS:.0e})")
    reach = max(np.abs(origin).max(), np.abs(origin + np.array(dims) * voxel_size).max())
    if not reach <= MAX_COORDINATE:
        raise ConfigError(f"a grid over this cloud reaches {reach:.3g} m from the origin, "
                          f"more than MAX_COORDINATE ({MAX_COORDINATE:.0e} m)")
    dims = tuple(map(int, dims))
    occ = np.zeros(dims, dtype=bool)
    occ[tuple(np.floor((cloud.points[:, k] - origin[k]) / voxel_size).astype(np.int64)
              for k in range(3))] = True  # per column: no (n, 3) temporaries
    for _ in range(int(margin_cells)):  # one face-neighbour ring; cells past the edge are free
        grown = occ.copy()
        grown[1:] |= occ[:-1]
        grown[:-1] |= occ[1:]
        grown[:, 1:] |= occ[:, :-1]
        grown[:, :-1] |= occ[:, 1:]
        grown[:, :, 1:] |= occ[:, :, :-1]
        grown[:, :, :-1] |= occ[:, :, 1:]
        occ = grown
    return VoxelGrid(origin=origin, voxel_size=voxel_size, dims=dims, occupancy=occ)


def bev_project(grid: VoxelGrid, min_height: float = 0.0) -> BevGrid:
    """Flatten a voxel grid onto the ground plane, keeping column max heights.

    ``min_height`` ignores voxels below that height over the grid base,
    which keeps terrain surface points from fusing every structure into
    one component: only columns occupied above the band count.
    """
    k_min = int(np.floor(min_height / grid.voxel_size))
    occ = grid.occupancy[:, :, max(k_min, 0):]  # a view; empty at or above the grid top
    occupied = occ.any(axis=2)
    # Highest occupied z index + 1 per column: nz less the first hit from the top.
    top = grid.dims[2] - occ[:, :, ::-1].argmax(axis=2) if occ.shape[2] else 0
    heights = np.where(occupied, top * grid.voxel_size, 0.0)
    return BevGrid(
        origin=grid.origin[:2].copy(),
        cell_size=grid.voxel_size,
        dims=(grid.dims[0], grid.dims[1]),
        occupancy=occupied,
        max_height=heights,
        base_z=float(grid.origin[2]),
    )


def mark_vegetation(bev: BevGrid, centers: list[tuple[float, float]],
                    radius: float) -> BevGrid:
    """Return a copy of the BEV grid with cells near tree centers flagged."""
    veg = np.zeros(bev.dims, dtype=bool) if bev.vegetation is None else bev.vegetation.copy()
    xs = (np.arange(bev.dims[0]) + 0.5) * bev.cell_size + bev.origin[0]
    ys = (np.arange(bev.dims[1]) + 0.5) * bev.cell_size + bev.origin[1]
    for cx, cy in centers:
        d2 = (xs[:, None] - cx) ** 2 + (ys[None, :] - cy) ** 2
        veg |= d2 <= radius * radius
    return BevGrid(
        origin=bev.origin, cell_size=bev.cell_size, dims=bev.dims,
        occupancy=bev.occupancy, max_height=bev.max_height,
        base_z=bev.base_z, vegetation=veg,
    )


def is_free(grid: VoxelGrid, p: Point3) -> bool:
    """True iff p maps to an in-bounds, unoccupied voxel (out of bounds is not free)."""
    return segment_free_coords(grid, p.x, p.y, p.z, p.x, p.y, p.z)


def traverse_coords(grid: VoxelGrid, ax: float, ay: float, az: float,
                    bx_: float, by_: float, bz_: float,
                    ) -> Iterator[tuple[int, int, int]]:
    """Yield the voxel cells the segment crosses, from its start cell to
    its end cell.

    Amanatides-Woo 3D DDA that steps each axis only until it reaches the
    end cell's index, after which that axis's next crossing is at
    infinity. So the walk takes exactly ``|bx-ix| + |by-iy| + |bz-iz|``
    face steps, each toward the end cell, and stays in the box from the
    start cell to the end cell. Cells are yielded whether or not they
    are in bounds, so callers decide how to treat boundary exits. Ties
    pick the x axis first, then y, then z.
    """
    size = grid.voxel_size
    ox, oy, oz = float(grid.origin[0]), float(grid.origin[1]), float(grid.origin[2])
    ix = math.floor((ax - ox) / size)
    iy = math.floor((ay - oy) / size)
    iz = math.floor((az - oz) / size)
    bx = math.floor((bx_ - ox) / size)
    by = math.floor((by_ - oy) / size)
    bz = math.floor((bz_ - oz) / size)
    yield (ix, iy, iz)
    dx, dy, dz = bx_ - ax, by_ - ay, bz_ - az  # on an axis with steps left: nonzero, toward b
    inf = math.inf
    sx = 1 if dx > 0 else -1
    sy = 1 if dy > 0 else -1
    sz = 1 if dz > 0 else -1
    tmx = (ox + (ix + (dx > 0)) * size - ax) / dx if ix != bx else inf
    tmy = (oy + (iy + (dy > 0)) * size - ay) / dy if iy != by else inf
    tmz = (oz + (iz + (dz > 0)) * size - az) / dz if iz != bz else inf
    tdx = size / abs(dx) if dx else inf
    tdy = size / abs(dy) if dy else inf
    tdz = size / abs(dz) if dz else inf
    for _ in range(abs(bx - ix) + abs(by - iy) + abs(bz - iz)):
        if tmx <= tmy and tmx <= tmz:
            ix += sx
            tmx = tmx + tdx if ix != bx else inf
        elif tmy <= tmz:
            iy += sy
            tmy = tmy + tdy if iy != by else inf
        else:
            iz += sz
            tmz = tmz + tdz if iz != bz else inf
        yield (ix, iy, iz)


def traverse_segment(grid: VoxelGrid, a: Point3, b: Point3) -> Iterator[tuple[int, int, int]]:
    return traverse_coords(grid, a.x, a.y, a.z, b.x, b.y, b.z)


def segment_free_coords(grid: VoxelGrid, ax: float, ay: float, az: float,
                        bx: float, by: float, bz: float) -> bool:
    """Allocation-free variant of segment_free for search inner loops."""
    nx, ny, nz = grid.dims
    occ = grid.occupancy
    for i, j, k in traverse_coords(grid, ax, ay, az, bx, by, bz):
        if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz) or occ[i, j, k]:
            return False
    return True


def segment_free(grid: VoxelGrid, a: Point3, b: Point3) -> bool:
    """True iff every voxel intersected by segment a->b is free and in bounds."""
    return segment_free_coords(grid, a.x, a.y, a.z, b.x, b.y, b.z)


def save_grid(grid: VoxelGrid, path: str | Path) -> None:
    """Binary export: little-endian header then the packed occupancy bits."""
    packed = np.packbits(grid.occupancy.reshape(-1).astype(np.uint8))
    with atomic_open(path, "wb") as fh:
        fh.write(_GRID_HEADER.pack(*grid.origin, grid.voxel_size, *grid.dims))
        fh.write(packed.tobytes())


def load_grid(path: str | Path) -> VoxelGrid:
    """Read a grid that ``save_grid`` (``uavnav voxelize --out``) wrote.

    The header must hold dims >= 1, a finite origin and a finite voxel
    size > 0, and the payload must be exactly ``ceil(nx*ny*nz / 8)``
    bytes of packed bits; anything else raises ValueError.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _GRID_HEADER.size:
        raise ValueError(f"{path}: truncated grid file")
    ox, oy, oz, size, nx, ny, nz = _GRID_HEADER.unpack_from(raw)
    if min(nx, ny, nz) < 1 or not all(map(math.isfinite, (ox, oy, oz, size))) or size <= 0:
        raise ValueError(f"{path}: bad grid header: origin ({ox}, {oy}, {oz}), "
                         f"voxel size {size}, dims ({nx}, {ny}, {nz})")
    n_cells = nx * ny * nz
    need, payload = (n_cells + 7) // 8, len(raw) - _GRID_HEADER.size
    if payload != need:
        raise ValueError(f"{path}: dims ({nx}, {ny}, {nz}) need {need} bytes "
                         f"of occupancy, the file holds {payload}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8, offset=_GRID_HEADER.size))
    occ = bits[:n_cells].astype(bool).reshape((nx, ny, nz))
    return VoxelGrid(origin=np.array([ox, oy, oz]), voxel_size=size,
                     dims=(int(nx), int(ny), int(nz)), occupancy=occ)

