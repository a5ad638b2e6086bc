"""Replay of action sequences against a scene grid, and VLN scoring.

Metrics: navigation error (final-pose distance to goal), success rate
(stopped within the radius), oracle success rate (any pose within the
radius), and success weighted by path length, clamped so that one
episode never contributes more than 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import Point3
from .occupancy import VoxelGrid, is_free, segment_free
from .trajgen import (_MOVES, SQRT3, TURN_DEGREES, VERTICAL_STEP, Action, ActionKind, Pose,
                      initial_state)

SUCCESS_RADIUS = 20.0
STEP_CAP = 500  # eval replays at most this many actions; generated trajectories max out at 150

_TRANSLATING = (ActionKind.FORWARD, ActionKind.MOVE_UP, ActionKind.MOVE_DOWN)


@dataclass(frozen=True)
class ReplayResult:
    final: Pose
    path: list[Pose]  # pose after every consumed action, start included
    executed_length: float
    collided: bool
    first_collision_index: int | None


@dataclass(frozen=True)
class EvalResult:
    ne: float
    success: bool
    oracle_success: bool
    spl_term: float
    executed_length: float
    gt_length: float


@dataclass(frozen=True)
class EvalSummary:
    ne: float
    sr: float
    osr: float
    spl: float
    count: int


def replay(start: Pose, actions: Sequence[Action], grid: VoxelGrid) -> ReplayResult:
    """Walk the lattice states of ``trajgen.rollout`` up to the first Stop;
    a move whose swept segment is blocked keeps the state (the agent halts
    in place), and a start that ``is_free`` refuses is a collision at
    index 0. The executed length sums the translations that happened.
    A move ends where ``lattice_pose`` places its integer state, bit for
    bit, and a turn keeps the position it has.
    """
    ox, oy, oz = start.position.as_tuple()
    a, b, c, d, kz, yaw = initial_state(start)
    pose = start
    path = [start]
    executed = 0.0
    first_collision = None if is_free(grid, start.position) else 0
    for index, action in enumerate(actions):
        if action.kind is ActionKind.STOP:
            path.append(pose)
            break
        da, db, dc, dd, dkz, yaw = _MOVES[yaw, action]
        if action.kind not in _TRANSLATING:  # a turn; a move keeps the heading
            pose = Pose(pose.position, TURN_DEGREES * yaw)
        else:
            na, nb, nc, nd, nkz = a + da, b + db, c + dc, d + dd, kz + dkz
            nxt = Point3(ox + 1.5 * (na + nb * SQRT3), oy + 1.5 * (nc + nd * SQRT3),
                         oz + VERTICAL_STEP * nkz)
            if segment_free(grid, pose.position, nxt):
                executed += pose.position.distance_to(nxt)
                a, b, c, d, kz = na, nb, nc, nd, nkz
                pose = Pose(nxt, TURN_DEGREES * yaw)
            elif first_collision is None:
                first_collision = index
        path.append(pose)
    return ReplayResult(final=pose, path=path, executed_length=executed,
                        collided=first_collision is not None,
                        first_collision_index=first_collision)


def score(result: ReplayResult, goal: Point3, gt_length: float,
          radius: float = SUCCESS_RADIUS) -> EvalResult:
    """Score one replayed episode against its goal."""
    if gt_length <= 0:
        raise ValueError("ground-truth path length must be positive")
    ne = result.final.position.distance_to(goal)
    success = ne <= radius
    oracle = any(p.position.distance_to(goal) <= radius for p in result.path)
    spl = gt_length / max(gt_length, result.executed_length) if success else 0.0
    return EvalResult(ne=ne, success=success, oracle_success=oracle,
                      spl_term=spl, executed_length=result.executed_length,
                      gt_length=gt_length)


def aggregate(results: Sequence[EvalResult]) -> EvalSummary:
    """Means over episodes; SR and OSR as proportions, SPL as mean term."""
    if not results:
        raise ValueError("cannot aggregate zero results")
    n = len(results)
    return EvalSummary(
        ne=math.fsum(r.ne for r in results) / n,
        sr=sum(1 for r in results if r.success) / n,
        osr=sum(1 for r in results if r.oracle_success) / n,
        spl=math.fsum(r.spl_term for r in results) / n,
        count=n,
    )
