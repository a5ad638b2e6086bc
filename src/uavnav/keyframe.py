"""Observation compression over abstract token matrices.

The pipeline mirrors a keyframe-aware flight model: candidate frames
are picked near action transitions, confirmed by landmark visibility,
merged token-wise against the first frame of each set, pooled down to a
fixed budget, and kept in a small FIFO memory bank that is prepended to
the uncompressed current frame.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import ConfigError, check_kinds
from .geometry import Point3
from .occupancy import VoxelGrid, traverse_segment
from .segmentation import LandmarkInstance
from .trajgen import Action, ActionKind, Pose

DEFAULT_WINDOW = 2  # frames kept on each side of a transition
DEFAULT_SIMILARITY_THRESHOLD = 0.9
DEFAULT_FOV_HALF_ANGLE = 60.0

_TOKENS_HEADER = struct.Struct("<2q")


@dataclass(frozen=True, eq=False)
class TokenMatrix:
    """N tokens of dimension D for one frame."""

    tokens: np.ndarray  # (N, D) float
    frame_index: int = 0

    def __post_init__(self) -> None:
        if self.tokens.ndim != 2 or self.tokens.shape[0] < 1 or self.tokens.shape[1] < 1:
            raise ValueError("tokens must be a (N>=1, D>=1) matrix")
        if not np.isfinite(self.tokens).all():
            raise ValueError("tokens must be finite")

    @property
    def count(self) -> int:
        return int(self.tokens.shape[0])

    @property
    def dim(self) -> int:
        return int(self.tokens.shape[1])


@dataclass(frozen=True)
class KeyframeCandidate:
    transition_index: int  # action index where the movement kind changes
    frame_indices: list[int]  # window of frame indices around it


@dataclass(frozen=True)
class KeyframeSet:
    transition_index: int
    frame_indices: list[int]
    frames: list[TokenMatrix]

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("keyframe set must hold at least one frame")

    @property
    def reference(self) -> TokenMatrix:
        return self.frames[0]


@dataclass(frozen=True)
class MemoryBankConfig:
    capacity: int = 2
    pooled_tokens: int = 1
    similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    current_tokens: int = 256

    def __post_init__(self) -> None:
        sizes = ("capacity", "pooled_tokens", "current_tokens")
        check_kinds(self, "", {"an integer": sizes, "a number": ("similarity_threshold",)})
        for name in sizes:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (0.0 < self.similarity_threshold <= 1.0):
            raise ValueError("similarity threshold must lie in (0, 1]")


@dataclass
class MemoryBank:
    """FIFO of pooled historical keyframes, oldest first."""

    items: list[TokenMatrix] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)


def select_candidates(actions: Sequence[Action], window: int = DEFAULT_WINDOW,
                      ) -> list[KeyframeCandidate]:
    """Transition indices with clipped frame windows.

    Slight-turn merging is applied first, so a lone 30-degree turn inside
    forward motion does not produce a transition. Frame i is the pose
    after action i-1; windows clip to [0, len(actions)].
    """
    if window < 0:
        raise ValueError("window must be non-negative")
    from .instructions import group_action_runs

    core = list(actions)
    if core and core[-1].kind is ActionKind.STOP:
        core = core[:-1]
    runs = group_action_runs(core)
    n_frames = len(actions) + 1
    candidates = []
    for start, _ in runs[1:]:
        lo = max(0, start - window)
        hi = min(n_frames - 1, start + window)
        candidates.append(KeyframeCandidate(
            transition_index=start, frame_indices=list(range(lo, hi + 1))
        ))
    return candidates


def confirm_keyframes(
    candidates: Sequence[KeyframeCandidate],
    landmark_visibility: Mapping[int, set[int]],
    frames: Mapping[int, TokenMatrix] | Sequence[TokenMatrix],
) -> list[KeyframeSet]:
    """Keep candidate frames that see at least one landmark.

    Windows with no landmark frames are dropped; each surviving window
    becomes one keyframe set over the supplied per-frame token matrices.
    """
    sets: list[KeyframeSet] = []
    for candidate in candidates:
        kept = [i for i in candidate.frame_indices if landmark_visibility.get(i)]
        if not kept:
            continue
        sets.append(KeyframeSet(
            transition_index=candidate.transition_index,
            frame_indices=kept,
            frames=[frames[i] for i in kept],
        ))
    return sets


@dataclass(frozen=True)
class MergeEvent:
    frame_index: int
    reference_token: int
    frame_token: int
    similarity: float


def _cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities; zero-norm tokens never match."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = np.outer(na, nb)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0, (a @ b.T) / np.where(denom > 0, denom, 1.0), 0.0)
    return np.clip(sims, -1.0, 1.0)


def merge_tokens(keyframe_set: KeyframeSet, threshold: float,
                 log: list[MergeEvent] | None = None) -> TokenMatrix:
    """Fold a keyframe set into a single matrix the size of its reference.

    The running matrix starts as the reference tokens. For each later
    frame, the running/frame token pairs whose cosine similarity strictly
    exceeds the threshold are taken in order of decreasing similarity,
    ties in row-major (running token, frame token) order, and greedily
    matched, each token used at most once. Matched running tokens become
    the running average of everything merged into them, and the frame's
    unmatched tokens are discarded. Merge events are logged in match
    order. A NaN similarity (only overflowing float64 tokens give one)
    never merges.
    """
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
        flat = np.flatnonzero(sims > threshold)  # ascending, so the sort keeps ties row-major
        flat = flat[np.argsort(-sims.ravel()[flat], kind="stable")]
        match: dict[int, int] = {}  # running token -> frame token, in match order
        used: set[int] = set()
        for f in flat.tolist():
            i, j = divmod(f, sims.shape[1])
            if i not in match and j not in used:
                match[i] = j
                used.add(j)
        rows, cols = list(match), list(match.values())
        # each row merges at most once per frame: one step, the same float ops per element
        c = counts[rows]
        running[rows] = (running[rows] * c[:, None] + frame.tokens[cols]) / (c + 1)[:, None]
        counts[rows] += 1
        if log is not None:
            log.extend(MergeEvent(frame_index=frame.frame_index, reference_token=i,
                                  frame_token=j, similarity=sim)
                       for i, j, sim in zip(rows, cols, sims[rows, cols].tolist()))
    return TokenMatrix(tokens=running, frame_index=reference.frame_index)


def grid_pool(matrix: TokenMatrix, out_tokens: int) -> TokenMatrix:
    """Average tokens down to a fixed budget.

    When both the token count and the budget are perfect squares with a
    divisible side, tokens are treated as a square row-major grid and
    pooled in square blocks; otherwise contiguous groups over the linear
    order are averaged (group sizes differ by at most one when the count
    is not divisible).
    """
    if out_tokens < 1:
        raise ValueError("out_tokens must be >= 1")
    n = matrix.count
    if out_tokens > n:
        raise ValueError(f"cannot pool {n} tokens up to {out_tokens}")
    if out_tokens == n:
        return TokenMatrix(matrix.tokens.copy(), matrix.frame_index)
    side = math.isqrt(n)
    out_side = math.isqrt(out_tokens)
    if side * side == n and out_side * out_side == out_tokens and side % out_side == 0:
        block = side // out_side
        grid = matrix.tokens.reshape(side, side, matrix.dim)
        pooled = grid.reshape(out_side, block, out_side, block, matrix.dim).mean(axis=(1, 3))
        return TokenMatrix(pooled.reshape(out_tokens, matrix.dim), matrix.frame_index)
    base, remainder = divmod(n, out_tokens)
    pooled_rows = []
    cursor = 0
    for g in range(out_tokens):
        size = base + (1 if g < remainder else 0)
        pooled_rows.append(matrix.tokens[cursor:cursor + size].mean(axis=0))
        cursor += size
    return TokenMatrix(np.stack(pooled_rows), matrix.frame_index)


def memory_push(bank: MemoryBank, keyframe: TokenMatrix,
                cfg: MemoryBankConfig) -> MemoryBank:
    """Append a pooled keyframe; evict the oldest beyond the capacity."""
    if keyframe.count != cfg.pooled_tokens:
        raise ValueError(
            f"keyframe holds {keyframe.count} tokens, config expects "
            f"{cfg.pooled_tokens}"
        )
    bank.items.append(keyframe)
    while len(bank.items) > cfg.capacity:
        bank.items.pop(0)
    return bank


def assemble_observation(bank: MemoryBank, current: TokenMatrix,
                         cfg: MemoryBankConfig) -> TokenMatrix:
    """[bank oldest..newest | current]; the current frame stays uncompressed."""
    if current.count != cfg.current_tokens:
        raise ValueError(
            f"current frame holds {current.count} tokens, config expects "
            f"{cfg.current_tokens}"
        )
    for item in bank.items:
        if item.dim != current.dim:
            raise ValueError("memory bank token dimension mismatch")
    parts = [item.tokens for item in bank.items] + [current.tokens]
    return TokenMatrix(np.concatenate(parts, axis=0), current.frame_index)


def aim_cell(grid: VoxelGrid, cells: Sequence[tuple[int, int]],
             centroid: tuple[float, float]) -> tuple[int, int]:
    """The cell whose centre is nearest ``centroid``; the first such on ties."""
    ij = np.array(cells, dtype=np.float64)
    dx = grid.origin[0] + (ij[:, 0] + 0.5) * grid.voxel_size - centroid[0]
    dy = grid.origin[1] + (ij[:, 1] + 0.5) * grid.voxel_size - centroid[1]
    return cells[int(np.argmin(dx * dx + dy * dy))]


class SightTarget(NamedTuple):
    """What sight lines to one landmark aim at and stop on."""

    id: int
    cells: set[tuple[int, int]]  # BEV footprint
    aim: tuple[float, float, float]  # aim cell centre (x, y) and the top voxel's centre z


def sight_targets(grid: VoxelGrid,
                  landmarks: Sequence[LandmarkInstance]) -> list[SightTarget]:
    """One target per landmark, in order; a landmark with no footprint
    cells is a ConfigError naming its id."""
    size = grid.voxel_size
    targets = []
    for lm in landmarks:
        if not lm.cells:
            raise ConfigError(f"landmark {lm.id} has no footprint cells")
        cells = set(lm.cells)
        best = aim_cell(grid, list(cells), lm.centroid)
        targets.append(SightTarget(lm.id, cells, (
            grid.origin[0] + (best[0] + 0.5) * size,
            grid.origin[1] + (best[1] + 0.5) * size,
            lm.height - 0.5 * size)))
    return targets


def landmark_visibility(
    poses: Sequence[Pose],
    targets: Sequence[SightTarget],
    grid: VoxelGrid,
    fov_half_angle: float = DEFAULT_FOV_HALF_ANGLE,
) -> dict[int, set[int]]:
    """Ground-truth visibility: which landmarks each pose frame can see.

    A landmark is visible when its aim point lies within the heading's
    field of view and the sight line reaches the landmark's own BEV
    footprint before crossing any other occupied voxel. ``targets`` come
    from ``sight_targets`` on the same grid. Use an uninflated grid here;
    safety margins would shadow the target.
    """
    nx, ny, nz = grid.dims
    occupancy = grid.occupancy
    z_floor = grid.origin[2] + 0.5 * grid.voxel_size
    visibility: dict[int, set[int]] = {}
    for frame, pose in enumerate(poses):
        seen: set[int] = set()
        p = pose.position
        px, py, pz, yaw = p.x, p.y, p.z, pose.yaw
        for lm_id, cells, (ax, ay, top) in targets:
            bearing = math.degrees(math.atan2(ay - py, ax - px))
            if abs((bearing - yaw + 180.0) % 360.0 - 180.0) > fov_half_angle:
                continue
            target = Point3(ax, ay, min(max(pz, z_floor), top))
            for i, j, k in traverse_segment(grid, p, target):
                if (i, j) in cells:
                    seen.add(lm_id)  # reached the landmark's own footprint
                    break
                if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz) or occupancy[i, j, k]:
                    break
            else:
                seen.add(lm_id)
        visibility[frame] = seen
    return visibility


def save_tokens(matrix: TokenMatrix, path: str | Path) -> None:
    """Binary token file: little-endian (N, D) int64 header, float32 rows."""
    with Path(path).open("wb") as fh:
        fh.write(_TOKENS_HEADER.pack(matrix.count, matrix.dim))
        fh.write(matrix.tokens.astype("<f4").tobytes(order="C"))


def load_tokens(path: str | Path, frame_index: int = 0) -> TokenMatrix:
    raw = Path(path).read_bytes()
    if len(raw) < _TOKENS_HEADER.size:
        raise ValueError("truncated token file")
    n, d = _TOKENS_HEADER.unpack_from(raw)
    expected = _TOKENS_HEADER.size + 4 * n * d
    if len(raw) < expected:
        raise ValueError("token payload too short")
    tokens = np.frombuffer(raw, dtype="<f4", count=n * d,
                           offset=_TOKENS_HEADER.size).reshape(n, d)
    return TokenMatrix(tokens=tokens.astype(np.float64), frame_index=frame_index)
