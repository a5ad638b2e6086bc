"""Independent oracle implementations used to cross-check the package.

Everything here is deliberately written from scratch with different
algorithms or data layouts than the code under test: brute-force set
computations, dense sampling, union-find labeling, textbook Dijkstra,
and exhaustive matching. The exceptions are ``parse_point_cloud_lines``,
a copy of the line loop ``load_point_cloud`` falls back to, kept as the
reference for its NumPy path, ``visibility_per_call``, the
``landmark_visibility`` that aimed at the landmarks on every call,
``merge_tokens_full_sort``, the ``merge_tokens`` that sorted every pair,
``landmark_phrases_two_parse``, the chunker whose core parse also
returned the index after the head and whose phrase scan re-parsed the
determiner branch itself, ``action_by_construction``, the rule an
action document passed when ``Action`` was a dataclass that checked
itself, ``lattice_heuristic_whole_ball``, the search heuristic that
subtracted the largest lattice norm over the whole goal ball, and
``first_blocked_pose_pair``, the walk over an episode's pose pairs that
``validate`` made before it replayed the actions as ``eval`` does, and
four scene-layer forms kept as the references for their column-pass
and lattice-state rewrites: ``voxelize_broadcast``, ``bev_where_max``,
``replay_lattice_walk`` and ``roof_points_loop``, and
``traverse_step_budget``, the voxel walk as it was before it stopped
each axis at the end cell, and ``scene_spec_to_dict`` and
``instances_to_json``, the hand-written scene.json and landmarks.json
writers, kept as the references for ``dataclasses.asdict``, and
``merge_log_json``, the merge log as ``json.dumps`` indented it, kept as
the reference for ``keyframe.save_merge_log``.
``save_point_cloud`` writes the ASCII cloud format, which only tests need.
"""

from __future__ import annotations

import itertools
import json
import math
from heapq import heappop, heappush
from pathlib import Path

import numpy as np

from uavnav.evaluation import ReplayResult
from uavnav.geometry import Point3, point_in_polygon
from uavnav.keyframe import (KeyframeSet, MergeEvent, TokenMatrix, _cosine_matrix,
                             aim_cell)
from uavnav.occupancy import VoxelGrid, is_free, segment_free, traverse_segment
from uavnav.scene import PointCloud, PointCloudParseError, SceneSpec
from uavnav.segmentation import LandmarkInstance
from uavnav.textproc import (_BOUNDARY_RE, ATTACH_PREPS, LANDMARK_NOUNS, NounPhrase,
                             _is_participle, _is_proper, tag_word, word_tokens)
from uavnav.trajgen import (FORWARD_MAGNITUDES, GOAL_BALL_NORM, VERTICAL_STEP, Action,
                            ActionKind, TrajGenConfig, Pose, advance, initial_state,
                            lattice_pose)

SQRT3 = math.sqrt(3.0)


def brute_force_cells(points: np.ndarray, origin: np.ndarray, size: float) -> set:
    """Set of voxel cells covering the points, by direct flooring."""
    cells = set()
    for p in points:
        cells.add((math.floor((p[0] - origin[0]) / size),
                   math.floor((p[1] - origin[1]) / size),
                   math.floor((p[2] - origin[2]) / size)))
    return cells


def dilate_l1(occ: np.ndarray, k: int) -> np.ndarray:
    """The OR of ``occ`` shifted by every offset within L1 distance ``k``,
    with cells past the grid edge free: the face-neighbour dilation
    repeated ``k`` times, computed in one pass over all offsets."""
    nx, ny, nz = occ.shape
    padded = np.pad(occ, k)
    out = np.zeros_like(occ)
    for di, dj, dk in itertools.product(range(-k, k + 1), repeat=3):
        if abs(di) + abs(dj) + abs(dk) <= k:
            out |= padded[k + di:k + di + nx, k + dj:k + dj + ny, k + dk:k + dk + nz]
    return out


def point_blocked(grid: VoxelGrid, x: float, y: float, z: float) -> bool:
    """Direct point-in-occupied-voxel check (conservative out of bounds):
    the negation of the formula ``occupancy.is_free`` computed by hand
    before it became the zero-length walk."""
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


def first_blocked_pose_pair(grid: VoxelGrid, poses: list[Pose]) -> int | None:
    """The first k whose segment ``poses[k] -> poses[k + 1]`` is not
    ``segment_free``, or None. A turn or Stop leaves the position, so its
    pair checks the voxel the drone stays in."""
    for k in range(len(poses) - 1):
        if not segment_free(grid, poses[k].position, poses[k + 1].position):
            return k
    return None


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


def lattice_heuristic_whole_ball(dx: float, dy: float, dz: float,
                                 tolerance: float) -> float:
    """``trajgen.lattice_heuristic`` as it was before its goal-ball term
    depended on dz: the lattice norm of the offset minus the largest
    lattice norm over the whole ball, GOAL_BALL_NORM * tolerance, and
    otherwise the same Euclidean term and rounding to whole 3 m steps."""
    tan15, cos45_over_cos15 = 2.0 - SQRT3, SQRT3 - 1.0
    ax, ay = abs(dx), abs(dy)
    norm = max(ax + tan15 * ay, cos45_over_cos15 * (ax + ay), tan15 * ax + ay) + abs(dz)
    bound = max(norm - GOAL_BALL_NORM * tolerance, math.hypot(dx, dy, dz) - tolerance)
    if bound <= 0.0:
        return 0.0
    return 30.0 * math.ceil(bound / VERTICAL_STEP - 1e-9)


def unpack_state(packed: int, width: int) -> tuple[int, ...]:
    """The lattice state in ``trajgen._pack``'s layout, read field by
    field: yaw in the low 4 bits, then kz, d, c, b and a, each in a
    ``width``-bit field and stored plus 2 ** (width - 1)."""
    yaw, packed = packed & 15, packed >> 4
    fields = []
    for _ in range(5):
        fields.append((packed & ((1 << width) - 1)) - (1 << (width - 1)))
        packed >>= width
    assert packed == 0, "a field overflowed its width"
    return (*reversed(fields), yaw)


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


def parse_point_cloud_lines(path: Path) -> np.ndarray:
    """The (n, 3) points of a point cloud file, one text-mode line at a time
    with ``str.split`` and ``float``: the reference for ``load_point_cloud``,
    raising PointCloudParseError with the 1-based line number."""
    pts, width = [], 0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (3, 6):
                raise PointCloudParseError(path, lineno,
                                           f"expected 3 or 6 fields, got {len(fields)}")
            width = width or len(fields)
            if len(fields) != width:
                raise PointCloudParseError(path, lineno, "mixed colored and uncolored points")
            try:
                values = [float(f) for f in fields]
            except ValueError as exc:
                raise PointCloudParseError(path, lineno, str(exc)) from None
            if not all(math.isfinite(v) for v in values):
                raise PointCloudParseError(path, lineno, "non-finite value")
            pts.append(values[:3])
    return np.array(pts, dtype=np.float64).reshape(-1, 3)


def save_point_cloud(cloud: PointCloud, path: Path) -> None:
    """Write ``cloud`` in the ASCII format ``load_point_cloud`` reads, as
    clouds made elsewhere come; floats use repr so a reload is exact."""
    with path.open("w", encoding="utf-8") as fh:
        for p in cloud.points:
            fh.write(f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}\n")


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


def landmark_phrases_two_parse(text: str) -> list[NounPhrase]:
    """``extract_landmark_phrases`` as it was before the chunker's core parse
    returned only the head index; the reference for the one-parse chunker."""
    tokens = word_tokens(text)

    def gap_breaks(i: int) -> bool:
        if i + 1 >= len(tokens):
            return True
        return bool(_BOUNDARY_RE.search(text[tokens[i].end:tokens[i + 1].start]))

    def parse_core(i: int) -> tuple[int, int] | None:
        j = i + 1
        last_noun = None
        while j < len(tokens):
            tag = tag_word(tokens[j].text)
            if tag in ("ADJ", "NOUN", "NUM"):
                if tag == "NOUN":
                    last_noun = j
                if gap_breaks(j):
                    j += 1
                    break
                j += 1
            elif (tag == "CONJ" and not gap_breaks(j) and j + 1 < len(tokens)
                  and tag_word(tokens[j + 1].text) in ("ADJ", "NOUN")):
                j += 1
            else:
                break
        if last_noun is None:
            return None
        return last_noun, last_noun + 1

    def parse_proper_sequence(i: int) -> int | None:
        j = i
        while j < len(tokens) and _is_proper(tokens[j].text):
            j += 1
            if gap_breaks(j - 1):
                break
        return j if j > i else None

    def parse_np(i: int, depth: int) -> int | None:
        if i >= len(tokens) or depth > 3:
            return None
        if tag_word(tokens[i].text) == "DET":
            core = parse_core(i)
            if core is None:
                return None
            return parse_tails(core[1], depth)
        return parse_proper_sequence(i)

    def parse_tails(j: int, depth: int) -> int:
        while j < len(tokens) and not gap_breaks(j - 1):
            word = tokens[j].text
            if word.lower() in ATTACH_PREPS:
                after = parse_np(j + 1, depth + 1)
                if after is None:
                    break
                j = after
            elif _is_participle(word):
                k = j + 1
                if k < len(tokens) and not gap_breaks(j):
                    if tokens[k].text.lower() in ATTACH_PREPS:
                        k += 1
                    after = parse_np(k, depth + 1)
                    if after is not None:
                        j = after
                        continue
                break
            else:
                break
        return j

    phrases: list[NounPhrase] = []
    i = 0
    while i < len(tokens):
        if tag_word(tokens[i].text) == "DET":
            core = parse_core(i)
            if core is not None:
                head_idx, j = core
                head = tokens[head_idx].text.lower()
                end = parse_tails(j, 0)
                if head in LANDMARK_NOUNS:
                    start, stop = tokens[i].start, tokens[end - 1].end
                    phrases.append(NounPhrase(start=start, end=stop,
                                              text=text[start:stop], head=head))
                i = end
                continue
        i += 1
    return phrases


def action_by_construction(doc) -> dict:
    """The canonical document of the action ``doc`` names, by the rule
    ``trajgen.Action`` checked on construction before it was an enum:
    ``kind`` is one of the six kind strings and ``magnitude``, read with
    ``float`` unless absent or null, is one of ``FORWARD_MAGNITUDES`` for
    a forward, 30 for a turn, 3 for a vertical move and absent for Stop.
    Any other document raises."""
    magnitude = doc.get("magnitude")
    kind = doc["kind"]
    if kind not in ("forward", "turn_left", "turn_right", "move_up", "move_down", "stop"):
        raise ValueError(f"unknown kind {kind!r}")
    magnitude = float(magnitude) if magnitude is not None else None
    allowed = {"forward": FORWARD_MAGNITUDES, "turn_left": (30.0,), "turn_right": (30.0,),
               "move_up": (3.0,), "move_down": (3.0,), "stop": (None,)}[kind]
    if magnitude not in allowed:
        raise ValueError(f"{kind} magnitude must be one of {allowed}")
    return {"kind": kind} if magnitude is None else {"kind": kind, "magnitude": magnitude}


def voxelize_broadcast(cloud: PointCloud, voxel_size: float, margin: float) -> VoxelGrid:
    """``occupancy.voxelize`` as it was before it worked column by column:
    bounds from one axis-0 reduction of the (n, 3) array and cell indices
    from one (n, 3) broadcast floor, then ``dilate_l1``."""
    k = math.ceil(margin / voxel_size)
    points = cloud.points
    lo, hi = points.min(axis=0), points.max(axis=0)
    origin = lo - k * voxel_size
    dims = tuple(int(d) + 1 + k for d in np.floor((hi - origin) / voxel_size))
    occ = np.zeros(dims, dtype=bool)
    idx = np.floor((points - origin) / voxel_size).astype(np.int64)
    occ[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return VoxelGrid(origin=origin, voxel_size=voxel_size, dims=dims,
                     occupancy=dilate_l1(occ, k))


def bev_where_max(grid: VoxelGrid, min_height: float) -> tuple[np.ndarray, np.ndarray]:
    """``occupancy.bev_project``'s (occupancy, max_height) as it was before
    it sliced the band and took a reversed ``argmax``: a masked copy of the
    grid and the max of an int64 ``where`` over it."""
    k_min = int(np.floor(min_height / grid.voxel_size))
    occ = grid.occupancy.copy()
    if k_min > 0:
        occ[:, :, :k_min] = False
    occupied = occ.any(axis=2)
    ks = np.arange(grid.dims[2], dtype=np.int64)
    top_index = np.where(occ, ks[None, None, :], -1).max(axis=2)
    return occupied, np.where(occupied, (top_index + 1) * grid.voxel_size, 0.0)


def replay_lattice_walk(start: Pose, actions: list[Action], grid: VoxelGrid) -> ReplayResult:
    """``evaluation.replay`` as it was before it kept the integer state
    itself: every action goes through ``advance`` and ``lattice_pose``."""
    state = initial_state(start)
    pose = start
    path = [start]
    executed = 0.0
    first_collision = None if is_free(grid, start.position) else 0
    for index, action in enumerate(actions):
        if action.kind is ActionKind.STOP:
            path.append(pose)
            break
        nstate = advance(state, action)
        nxt = lattice_pose(start.position, nstate)
        translating = action.kind in (ActionKind.FORWARD, ActionKind.MOVE_UP,
                                      ActionKind.MOVE_DOWN)
        if translating and not segment_free(grid, pose.position, nxt.position):
            if first_collision is None:
                first_collision = index
        else:
            executed += pose.position.distance_to(nxt.position)
            state, pose = nstate, nxt
        path.append(pose)
    return ReplayResult(final=pose, path=path, executed_length=executed,
                        collided=first_collision is not None,
                        first_collision_index=first_collision)


def roof_points_loop(footprint: list[tuple[float, float]], spacing: float) -> np.ndarray:
    """``scene._sample_polygon_interior`` as it was before it built one
    NumPy mask: a ``point_in_polygon`` call per lattice point, x-major."""
    xs = [v[0] for v in footprint]
    ys = [v[1] for v in footprint]
    gx = np.arange(min(xs), max(xs) + spacing / 2, spacing)
    gy = np.arange(min(ys), max(ys) + spacing / 2, spacing)
    pts = [(x, y) for x in gx for y in gy if point_in_polygon((x, y), footprint)]
    return np.array(pts, dtype=np.float64).reshape(-1, 2)


def traverse_step_budget(grid: VoxelGrid, ax: float, ay: float, az: float,
                         bx_: float, by_: float, bz_: float) -> list[tuple[int, int, int]]:
    """``occupancy.traverse_coords`` as it was before it stopped stepping an
    axis at the end cell's index: it stepped every axis the segment moves
    along until it met the end cell, within a budget of three steps past
    the Manhattan distance, then yielded the end cell."""
    size = grid.voxel_size
    ox, oy, oz = float(grid.origin[0]), float(grid.origin[1]), float(grid.origin[2])
    ix, iy, iz = (math.floor((ax - ox) / size), math.floor((ay - oy) / size),
                  math.floor((az - oz) / size))
    bx, by, bz = (math.floor((bx_ - ox) / size), math.floor((by_ - oy) / size),
                  math.floor((bz_ - oz) / size))
    cells = [(ix, iy, iz)]
    if (ix, iy, iz) == (bx, by, bz):
        return cells
    dx, dy, dz = bx_ - ax, by_ - ay, bz_ - az
    sx, sy, sz = (1 if dx > 0 else -1), (1 if dy > 0 else -1), (1 if dz > 0 else -1)
    tmx, tdx = ((ox + (ix + (dx > 0)) * size - ax) / dx, size / abs(dx)) if dx else (math.inf,) * 2
    tmy, tdy = ((oy + (iy + (dy > 0)) * size - ay) / dy, size / abs(dy)) if dy else (math.inf,) * 2
    tmz, tdz = ((oz + (iz + (dz > 0)) * size - az) / dz, size / abs(dz)) if dz else (math.inf,) * 2
    for _ in range(abs(bx - ix) + abs(by - iy) + abs(bz - iz) + 3):
        if tmx <= tmy and tmx <= tmz:
            ix, tmx = ix + sx, tmx + tdx
        elif tmy <= tmz:
            iy, tmy = iy + sy, tmy + tdy
        else:
            iz, tmz = iz + sz, tmz + tdz
        cells.append((ix, iy, iz))
        if (ix, iy, iz) == (bx, by, bz):
            return cells
    return cells + [(bx, by, bz)]


def scene_spec_to_dict(spec: SceneSpec) -> dict:
    """The scene.json document as its hand-written writer built it, key by
    key, before ``dataclasses.asdict`` of the spec replaced it."""
    return {
        "scene_id": spec.scene_id,
        "extent": list(spec.extent),
        "buildings": [
            {"footprint": [list(v) for v in b.footprint], "height": b.height, "label": b.label}
            for b in spec.buildings
        ],
        "trees": [
            {
                "position": list(t.position),
                "canopy_height": t.canopy_height,
                "canopy_radius": t.canopy_radius,
            }
            for t in spec.trees
        ],
    }


def instances_to_json(instances: list[LandmarkInstance]) -> str:
    """landmarks.json as its hand-written writer built it, before
    ``dataclasses.asdict`` of each instance replaced the field list."""
    docs = []
    for inst in instances:
        c = inst.caption
        docs.append({
            "id": inst.id,
            "contour": [[x, y] for x, y in inst.contour],
            "centroid": list(inst.centroid),
            "height": inst.height,
            "area": inst.area,
            "cells": [[i, j] for i, j in inst.cells],
            "caption": ({"color": c.color, "feature": c.feature, "size": c.size,
                         "type": c.type} if c else None),
        })
    return json.dumps(docs, indent=1)


def merge_log_json(events: list[MergeEvent]) -> str:
    """The ``keyframe --log`` text as ``cmd_keyframe`` wrote it through
    ``save_json``, one dict literal per event, before the one-pass writer."""
    return json.dumps([
        {"frame_index": e.frame_index, "reference_token": e.reference_token,
         "frame_token": e.frame_token, "similarity": e.similarity}
        for e in events], indent=1)
