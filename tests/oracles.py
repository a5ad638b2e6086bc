"""Independent oracle implementations used to cross-check the package.

Everything here is deliberately written from scratch with different
algorithms or data layouts than the code under test: brute-force set
computations, dense sampling, union-find labeling, textbook Dijkstra,
and exhaustive matching. The exceptions are ``parse_point_cloud_lines``,
a copy of the line loop ``load_point_cloud`` falls back to, kept as the
reference for its NumPy path, ``visibility_per_call``, the
``landmark_visibility`` that aimed at the landmarks on every call, and
``merge_tokens_full_sort``, the ``merge_tokens`` that sorted every pair.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from pathlib import Path

import numpy as np

from uavnav.geometry import Point3
from uavnav.keyframe import (KeyframeSet, MergeEvent, TokenMatrix, _cosine_matrix,
                             aim_cell)
from uavnav.occupancy import VoxelGrid, segment_free, traverse_segment
from uavnav.scene import PointCloudParseError
from uavnav.segmentation import LandmarkInstance
from uavnav.trajgen import FORWARD_MAGNITUDES, TrajGenConfig, Pose

SQRT3 = math.sqrt(3.0)


def brute_force_cells(points: np.ndarray, origin: np.ndarray, size: float) -> set:
    """Set of voxel cells covering the points, by direct flooring."""
    cells = set()
    for p in points:
        cells.add((math.floor((p[0] - origin[0]) / size),
                   math.floor((p[1] - origin[1]) / size),
                   math.floor((p[2] - origin[2]) / size)))
    return cells


def point_blocked(grid: VoxelGrid, x: float, y: float, z: float) -> bool:
    """Direct point-in-occupied-voxel check (conservative out of bounds)."""
    i = math.floor((x - grid.origin[0]) / grid.voxel_size)
    j = math.floor((y - grid.origin[1]) / grid.voxel_size)
    k = math.floor((z - grid.origin[2]) / grid.voxel_size)
    if not (0 <= i < grid.dims[0] and 0 <= j < grid.dims[1] and 0 <= k < grid.dims[2]):
        return True
    return bool(grid.occupancy[i, j, k])


def dense_segment_free(grid: VoxelGrid, a: Point3, b: Point3,
                       step: float = 0.05) -> bool:
    """Sample the segment every ``step`` meters and check each point."""
    length = a.distance_to(b)
    n = max(1, int(math.ceil(length / step)))
    for k in range(n + 1):
        t = k / n
        if point_blocked(grid, a.x + t * (b.x - a.x), a.y + t * (b.y - a.y),
                         a.z + t * (b.z - a.z)):
            return False
    return True


def bev_columns(grid: VoxelGrid) -> dict[tuple[int, int], float]:
    """Column-scan BEV oracle: occupied columns with their top heights."""
    out: dict[tuple[int, int], float] = {}
    nx, ny, nz = grid.dims
    for i in range(nx):
        for j in range(ny):
            top = -1
            for k in range(nz):
                if grid.occupancy[i, j, k]:
                    top = k
            if top >= 0:
                out[(i, j)] = (top + 1) * grid.voxel_size
    return out


def union_find_components(occupancy: np.ndarray) -> int:
    """Count 4-connected components with union-find (no BFS/DFS)."""
    nx, ny = occupancy.shape
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for i in range(nx):
        for j in range(ny):
            if occupancy[i, j]:
                parent[(i, j)] = (i, j)
    for i in range(nx):
        for j in range(ny):
            if not occupancy[i, j]:
                continue
            for ni, nj in ((i + 1, j), (i, j + 1)):
                if ni < nx and nj < ny and occupancy[ni, nj]:
                    ra, rb = find((i, j)), find((ni, nj))
                    if ra != rb:
                        parent[ra] = rb
    return len({find(c) for c in parent})


# -- search state graph (shared convention, independently derived tables) --

def _half_decomposition(value: float) -> tuple[int, int]:
    """(p, q) with value == (p + q * sqrt(3)) / 2, integer p and q."""
    for p in range(-2, 3):
        for q in range(-1, 2):
            if abs((p + q * SQRT3) / 2.0 - value) < 1e-9:
                return p, q
    raise AssertionError(f"no half-integer decomposition for {value}")


_COS = [_half_decomposition(math.cos(math.radians(30 * k))) for k in range(12)]
_SIN = [_half_decomposition(math.sin(math.radians(30 * k))) for k in range(12)]


DOMINANCE_MARGIN = 45  # shared state-graph semantics: see the module under test


def dijkstra_units(start: Pose, goal: Point3, grid: VoxelGrid,
                   cfg: TrajGenConfig) -> int | None:
    """Optimal cost in 0.1 m units to reach the goal-tolerance sphere.

    Textbook Dijkstra, no heuristic. States are exact integer tuples
    (a, b, c, d, kz, yaw) with x = x0 + 1.5 (a + b sqrt(3)) and friends.
    A state is pruned when some same-bin state settled at least
    DOMINANCE_MARGIN units cheaper (the search-graph convention). Returns
    None when the goal is unreachable.
    """
    x0, y0, z0 = start.position.x, start.position.y, start.position.z
    yaw0 = int(round(start.yaw / 30.0)) % 12
    goal_xyz = (goal.x, goal.y, goal.z)
    z_lo, z_hi = cfg.height_range

    moves = []
    for mag in FORWARD_MAGNITUDES:
        moves.append(("f", int(round(mag / 3.0)), int(round(mag * 10))))
    moves.append(("l", 0, 1))
    moves.append(("r", 0, 1))
    moves.append(("u", 0, 30))
    moves.append(("d", 0, 30))

    def position(state):
        a, b, c, d, kz, _ = state
        return (x0 + 1.5 * (a + b * SQRT3), y0 + 1.5 * (c + d * SQRT3),
                z0 + 3.0 * kz)

    start_state = (0, 0, 0, 0, 0, yaw0)
    heap = [(0, 0, start_state)]
    settled: set = set()
    bin_floor: dict[tuple, int] = {}
    seq = 0
    while heap:
        g, _, state = heappop(heap)
        if state in settled:
            continue
        settled.add(state)
        pos = position(state)
        if math.dist(pos, goal_xyz) <= cfg.goal_tolerance:
            return g
        key = (math.floor(pos[0] / 1.0), math.floor(pos[1] / 1.0),
               state[4], state[5])
        best = bin_floor.get(key)
        if best is not None and best <= g - DOMINANCE_MARGIN:
            continue
        if best is None or g < best:
            bin_floor[key] = g
        a, b, c, d, kz, yaw = state
        for kind, steps, units in moves:
            if kind == "f":
                cp, cq = _COS[yaw]
                sp, sq = _SIN[yaw]
                nstate = (a + steps * cp, b + steps * cq,
                          c + steps * sp, d + steps * sq, kz, yaw)
            elif kind == "l":
                nstate = (a, b, c, d, kz, (yaw + 1) % 12)
            elif kind == "r":
                nstate = (a, b, c, d, kz, (yaw - 1) % 12)
            elif kind == "u":
                nstate = (a, b, c, d, kz + 1, yaw)
            else:
                nstate = (a, b, c, d, kz - 1, yaw)
            npos = position(nstate)
            if kind in ("u", "d") and not (z_lo <= npos[2] <= z_hi):
                continue
            if kind in ("f", "u", "d"):
                if not segment_free(grid, Point3(*pos), Point3(*npos)):
                    continue
            if nstate in settled:
                continue
            seq += 1
            heappush(heap, (g + units, seq, nstate))
    return None


def split_runs_oracle(kinds: list[str]) -> list[list[str]]:
    """Independent grouping enumeration for the slight-turn merge rule.

    Scans indices directly: finds maximal equal-kind stretches, marks the
    lone turns that sit right before a forward stretch, then re-groups by
    the adjusted labels.
    """
    n = len(kinds)
    if n == 0:
        return []
    stretches = []
    i = 0
    while i < n:
        j = i
        while j < n and kinds[j] == kinds[i]:
            j += 1
        stretches.append((i, j))
        i = j
    labels = list(kinds)
    for s, (i, j) in enumerate(stretches):
        if (j - i == 1 and kinds[i] in ("turn_left", "turn_right")
                and s + 1 < len(stretches)
                and kinds[stretches[s + 1][0]] == "forward"):
            labels[i] = "forward"
    groups: list[list[str]] = []
    i = 0
    while i < n:
        j = i
        while j < n and labels[j] == labels[i]:
            j += 1
        groups.append(kinds[i:j])
        i = j
    return groups


def exhaustive_greedy_merge(reference: np.ndarray, frame: np.ndarray,
                            threshold: float) -> np.ndarray:
    """Reference merge for a 2-frame set: repeatedly scan all unused pairs
    for the global best cosine similarity; average matched pairs."""
    out = reference.astype(float).copy()
    counts = [1] * len(out)
    used_i: set[int] = set()
    used_j: set[int] = set()

    def cosine(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0 or nv == 0:
            return 0.0
        return min(1.0, max(-1.0, float(np.dot(u, v) / (nu * nv))))

    while True:
        best = None
        for i in range(len(out)):
            if i in used_i:
                continue
            for j in range(len(frame)):
                if j in used_j:
                    continue
                sim = cosine(out[i], frame[j])
                if best is None or sim > best[0]:
                    best = (sim, i, j)
        if best is None or best[0] <= threshold:
            return out
        sim, i, j = best
        out[i] = (out[i] * counts[i] + frame[j]) / (counts[i] + 1)
        counts[i] += 1
        used_i.add(i)
        used_j.add(j)


def merge_tokens_full_sort(keyframe_set: KeyframeSet, threshold: float,
                           log: list[MergeEvent] | None = None) -> TokenMatrix:
    """``merge_tokens`` walking a stable sort of every pair's similarity
    until one is not above the threshold, and averaging one row at a
    time: the reference for the candidate-only sort."""
    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must lie in (0, 1]")
    reference = keyframe_set.reference
    running = reference.tokens.astype(np.float64).copy()
    counts = np.ones(reference.count, dtype=np.int64)
    for frame in keyframe_set.frames[1:]:
        if frame.dim != reference.dim:
            raise ValueError(
                f"token dimension mismatch: {frame.dim} vs {reference.dim}"
            )
        sims = _cosine_matrix(running, frame.tokens.astype(np.float64))
        order = np.argsort(-sims, axis=None, kind="stable")
        used_ref = np.zeros(sims.shape[0], dtype=bool)
        used_frame = np.zeros(sims.shape[1], dtype=bool)
        for flat in order:
            i, j = divmod(int(flat), sims.shape[1])
            sim = float(sims[i, j])
            if sim <= threshold:
                break
            if used_ref[i] or used_frame[j]:
                continue
            used_ref[i] = True
            used_frame[j] = True
            running[i] = (running[i] * counts[i] + frame.tokens[j]) / (counts[i] + 1)
            counts[i] += 1
            if log is not None:
                log.append(MergeEvent(frame_index=frame.frame_index,
                                      reference_token=i, frame_token=j,
                                      similarity=sim))
    return TokenMatrix(tokens=running, frame_index=reference.frame_index)


def parse_point_cloud_lines(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    """(points, colors or None) of a point cloud file, one text-mode line at
    a time with ``str.split`` and ``float``: the reference for
    ``load_point_cloud``, raising PointCloudParseError with the 1-based
    line number."""
    pts, colors = [], []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (3, 6):
                raise PointCloudParseError(path, lineno,
                                           f"expected 3 or 6 fields, got {len(fields)}")
            if pts and len(fields) != (6 if colors else 3):
                raise PointCloudParseError(path, lineno, "mixed colored and uncolored points")
            try:
                values = [float(f) for f in fields]
            except ValueError as exc:
                raise PointCloudParseError(path, lineno, str(exc)) from None
            if not all(math.isfinite(v) for v in values):
                raise PointCloudParseError(path, lineno, "non-finite value")
            pts.append(values[:3])
            if len(values) == 6:
                colors.append(values[3:])
    return (np.array(pts, dtype=np.float64).reshape(-1, 3),
            np.array(colors, dtype=np.float64).reshape(-1, 3) if colors else None)


def visibility_per_call(poses: list[Pose], landmarks: list[LandmarkInstance],
                        grid: VoxelGrid, fov_half_angle: float = 60.0,
                        ) -> dict[int, set[int]]:
    """Which landmarks each pose frame sees, aiming at every landmark on
    each call and bounding sight lines through ``grid.in_bounds``: the
    reference for ``landmark_visibility`` over ``sight_targets``."""
    size = grid.voxel_size
    lm_cells: list[set[tuple[int, int]]] = []
    aims: list[tuple[float, float, float]] = []
    for lm in landmarks:
        cells = set(lm.cells)
        lm_cells.append(cells)
        best = aim_cell(grid, list(cells), lm.centroid)
        aims.append((grid.origin[0] + (best[0] + 0.5) * size,
                     grid.origin[1] + (best[1] + 0.5) * size,
                     lm.height - 0.5 * size))
    visibility: dict[int, set[int]] = {}
    for frame, pose in enumerate(poses):
        seen: set[int] = set()
        p = pose.position
        for lm, cells, aim in zip(landmarks, lm_cells, aims):
            ax, ay, top = aim
            bearing = math.degrees(math.atan2(ay - p.y, ax - p.x))
            diff = (bearing - pose.yaw + 180.0) % 360.0 - 180.0
            if abs(diff) > fov_half_angle:
                continue
            target = Point3(ax, ay, min(max(p.z, grid.origin[2] + 0.5 * size), top))
            blocked = False
            for cell in traverse_segment(grid, p, target):
                if (cell[0], cell[1]) in cells:
                    break  # reached the landmark's own footprint
                if not grid.in_bounds(cell) or grid.occupancy[cell]:
                    blocked = True
                    break
            if not blocked:
                seen.add(lm.id)
        visibility[frame] = seen
    return visibility
