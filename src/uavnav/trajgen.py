"""Collision-free trajectory generation over the discrete UAV action space.

Actions: Forward (3, 6, or 9 m along the current heading), TurnLeft /
TurnRight (30 degrees), MoveUp / MoveDown (3 m), Stop. Headings are
quantized to 12 bins, which makes every reachable horizontal offset an
exact element of the lattice 1.5 * (a + b * sqrt(3)). That lattice is
the one kinematics: ``rollout`` and ``evaluation.replay`` move integer
states by the per-heading deltas of ``_MOVES``, the search by the same
deltas on packed states, and all place them as ``lattice_pose`` does.
A ``Trajectory`` is its start and its actions; its poses are their
``rollout``, so whoever builds or reads one sees the same floats.
Edge costs are exact (tenths of a meter, with turns costing one unit to
discourage free spinning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from . import ConfigError, UavnavError, check_kind, check_kinds
from .geometry import Point3, round_sig
from .occupancy import BevGrid, VoxelGrid, is_free, segment_free_coords
from .segmentation import LandmarkInstance

SQRT3 = math.sqrt(3.0)

FORWARD_MAGNITUDES = (3.0, 6.0, 9.0)
VERTICAL_STEP = 3.0
TURN_DEGREES = 30.0

TURN_COST_UNITS = 1  # 0.1 m per turn; keeps distance-based heuristics admissible
UNITS_PER_METER = 10
POSITION_BIN = 1.0  # dominance bin, below the smallest 3 m step

# A settled state makes every same-bin state at least this much costlier
# prunable. Same-bin states share z and sit under sqrt(2) m apart in x and
# y. The lattice norm of that offset is under sqrt(2) / cos 15 m, which
# bounds the unrounded heuristic's spread (the Euclidean term spreads by
# under sqrt(2) m); rounding to whole 3 m steps adds at most one step. So
# lattice_heuristic spreads by less than 10 * sqrt(2) / cos 15 + 30 = 44.64
# units between them, and with a larger margin the cheaper state settles
# first under both A* and plain Dijkstra orderings, making the pruned
# search graph identical for the two.
BIN_DOMINANCE_MARGIN_UNITS = 45

DEFAULT_GOAL_TOLERANCE = 5.0
GOAL_OFFSET = 10.0  # least distance of a sampled goal from its landmark's centroid


class TrajGenError(UavnavError):
    pass


class NoPathError(TrajGenError):
    pass


class SamplingError(TrajGenError):
    pass


class ActionKind(str, Enum):
    FORWARD = "forward"
    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"
    MOVE_UP = "move_up"
    MOVE_DOWN = "move_down"
    STOP = "stop"


class Action(Enum):
    """The eight moves. Each member carries its ``kind``, its
    ``magnitude`` (meters, degrees for a turn, None for Stop) and
    ``cost_units``, its edge cost in tenths of a meter: a turn costs one
    unit and Stop is free."""

    FORWARD_3 = (ActionKind.FORWARD, 3.0, 30)
    FORWARD_6 = (ActionKind.FORWARD, 6.0, 60)
    FORWARD_9 = (ActionKind.FORWARD, 9.0, 90)
    TURN_LEFT = (ActionKind.TURN_LEFT, TURN_DEGREES, TURN_COST_UNITS)
    TURN_RIGHT = (ActionKind.TURN_RIGHT, TURN_DEGREES, TURN_COST_UNITS)
    MOVE_UP = (ActionKind.MOVE_UP, VERTICAL_STEP, 30)
    MOVE_DOWN = (ActionKind.MOVE_DOWN, VERTICAL_STEP, 30)
    STOP = (ActionKind.STOP, None, 0)

    __hash__ = object.__hash__  # identity; Enum.__hash__ hashes the name in Python

    def __init__(self, kind: ActionKind, magnitude: float | None, cost_units: int) -> None:
        self.kind = kind
        self.magnitude = magnitude
        self.cost_units = cost_units

    def to_dict(self) -> dict:
        doc: dict = {"kind": self.kind.value}
        if self.magnitude is not None:
            doc["magnitude"] = self.magnitude
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Action":
        """The member a document names by its ``kind`` string and a
        ``magnitude`` that ``float`` reads as the member's (absent or null
        for Stop); any other document raises ValueError."""
        try:
            magnitude = doc.get("magnitude")
            return _ACTIONS[doc["kind"], float(magnitude) if magnitude is not None else None]
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
            raise ValueError(f"not an action document: {doc!r}") from None


# (kind string, magnitude) -> member.
_ACTIONS = {(a.kind.value, a.magnitude): a for a in Action}

STOP = Action.STOP
TURN_LEFT = Action.TURN_LEFT
TURN_RIGHT = Action.TURN_RIGHT
MOVE_UP = Action.MOVE_UP
MOVE_DOWN = Action.MOVE_DOWN


def forward(magnitude: float) -> Action:
    action = _ACTIONS.get((ActionKind.FORWARD.value, magnitude))
    if action is None:
        raise ValueError(f"forward magnitude must be one of {FORWARD_MAGNITUDES}")
    return action


@dataclass(frozen=True)
class Pose:
    position: Point3
    yaw: float  # degrees in [0, 360), multiple of 30

    def __post_init__(self) -> None:
        if not math.isfinite(self.yaw):
            raise ValueError("yaw must be finite")
        if abs(self.yaw - round(self.yaw / TURN_DEGREES) * TURN_DEGREES) > 1e-9:
            raise ValueError(f"yaw {self.yaw} is not a multiple of {TURN_DEGREES} degrees")
        if not (0.0 <= self.yaw < 360.0):
            raise ValueError(f"yaw {self.yaw} outside [0, 360)")


def path_cost_units(actions: list[Action]) -> int:
    return sum(a.cost_units for a in actions)


# Per-heading decomposition of cos/sin(30k degrees) as (p + q*sqrt(3)) / 2.
_COS_PQ = ((2, 0), (0, 1), (1, 0), (0, 0), (-1, 0), (0, -1),
           (-2, 0), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1))
_SIN_PQ = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 1), (1, 0),
           (0, 0), (-1, 0), (0, -1), (-2, 0), (0, -1), (-1, 0))

# Search state: (a, b, c, d, kz, yaw_idx) with
#   x = x0 + 1.5 * (a + b * sqrt(3)),  y = y0 + 1.5 * (c + d * sqrt(3)),
#   z = z0 + 3 * kz.
SearchState = tuple[int, int, int, int, int, int]

_FORWARD, _TURN, _VERTICAL = range(3)


def _successor_table(magnitudes: Sequence[float]) -> list[list[tuple]]:
    """Per heading, the moves in canonical order (forward by magnitude,
    left, right, up, down) as (da, db, dc, dd, dkz, next heading, cost,
    move kind, action)."""
    table = []
    for yaw in range(12):
        (cp, cq), (sp, sq) = _COS_PQ[yaw], _SIN_PQ[yaw]
        moves = []
        for g in magnitudes:
            n = int(round(g / 3.0))
            action = forward(g)
            moves.append((n * cp, n * cq, n * sp, n * sq, 0, yaw,
                          action.cost_units, _FORWARD, action))
        moves += [
            (0, 0, 0, 0, 0, (yaw + 1) % 12, TURN_LEFT.cost_units, _TURN, TURN_LEFT),
            (0, 0, 0, 0, 0, (yaw - 1) % 12, TURN_RIGHT.cost_units, _TURN, TURN_RIGHT),
            (0, 0, 0, 0, 1, yaw, MOVE_UP.cost_units, _VERTICAL, MOVE_UP),
            (0, 0, 0, 0, -1, yaw, MOVE_DOWN.cost_units, _VERTICAL, MOVE_DOWN),
        ]
        table.append(moves)
    return table


# The search offers only the 3 m forward: a 6 or 9 m one reaches the state
# that two or three of them reach, at the same cost.
_SUCCESSORS = _successor_table((3.0,))
# (heading, action) -> state delta and next heading, for every action but Stop.
_MOVES = {(yaw, move[8]): move[:6]
          for yaw, moves in enumerate(_successor_table(FORWARD_MAGNITUDES)) for move in moves}


def initial_state(start: Pose) -> SearchState:
    return (0, 0, 0, 0, 0, int(round(start.yaw / TURN_DEGREES)) % 12)


def advance(state: SearchState, action: Action) -> SearchState:
    """The lattice state after one action; Stop is the identity."""
    if action.kind is ActionKind.STOP:
        return state
    a, b, c, d, kz, yaw = state
    da, db, dc, dd, dkz, nyaw = _MOVES[yaw, action]
    return (a + da, b + db, c + dc, d + dd, kz + dkz, nyaw)


def lattice_pose(origin: Point3, state: SearchState) -> Pose:
    """The pose of a lattice state; ``astar_search`` and
    ``evaluation.replay`` inline the same expressions, so all three give
    bit-identical coordinates."""
    a, b, c, d, kz, yaw = state
    return Pose(Point3(origin.x + 1.5 * (a + b * SQRT3),
                       origin.y + 1.5 * (c + d * SQRT3),
                       origin.z + VERTICAL_STEP * kz), TURN_DEGREES * yaw)


def rollout(start: Pose, actions: list[Action]) -> list[Pose]:
    """``start``, then the ``lattice_pose`` of each state ``advance``
    reaches from it; ``evaluation.replay`` adds blocked moves."""
    state = initial_state(start)
    poses = [start]
    for action in actions:
        state = advance(state, action)
        poses.append(lattice_pose(start.position, state))
    return poses


@dataclass(frozen=True)
class TrajGenConfig:
    """A pipeline config's ``trajgen`` section. Construction,
    ``dataclasses.replace`` included, checks it and raises ConfigError."""

    height_range: tuple[float, float] = (20.0, 120.0)
    min_landmark_height: float = 20.0
    start_distance_range: tuple[float, float] = (60.0, 250.0)
    goal_tolerance: float = DEFAULT_GOAL_TOLERANCE
    max_expansions: int = 2_000_000
    max_sample_attempts: int = 200

    def __post_init__(self) -> None:
        check_kinds(self, "trajgen.", {
            "two numbers": ("height_range", "start_distance_range"),
            "a number": ("min_landmark_height",),
            "a finite number > 0": ("goal_tolerance",),
            "an integer >= 1": ("max_expansions", "max_sample_attempts")})
        lo, hi = self.start_distance_range
        if not (0 < lo <= hi):
            raise ConfigError("trajgen.start_distance_range must satisfy 0 < min <= max")
        if not 0 <= self.height_range[1] - self.height_range[0] < math.inf:  # for rng.uniform
            raise ConfigError("trajgen.height_range needs min <= max and a finite max - min")


@dataclass(frozen=True)
class Trajectory:
    start: Pose
    actions: list[Action]  # ends with Stop, and holds no other
    target_landmark_id: int = -1
    poses: list[Pose] = field(init=False, repr=False, compare=False)  # rollout, set once

    def __post_init__(self) -> None:
        if not self.actions or self.actions[-1] is not STOP:
            raise ValueError("trajectory actions must end with Stop")
        if STOP in self.actions[:-1]:
            raise ValueError("trajectory actions hold a Stop before the last action")
        check_kind("target_landmark_id", self.target_landmark_id, "an integer")
        object.__setattr__(self, "poses", rollout(self.start, self.actions))

    def path_length(self) -> float:
        return sum(
            self.poses[i].position.distance_to(self.poses[i + 1].position)
            for i in range(len(self.poses) - 1)
        )


# The 12 headings are the vertices of a regular 12-gon whose edge normals
# n_k point at 15 + 30k degrees, cos 15 degrees from the centre. Its gauge
# max_k |v . n_k| / cos 15 is 1 on every heading, so a forward move of L m
# changes it by at most L; by the polygon's mirror symmetries the six
# terms reduce to three, in |dx| and |dy| (see lattice_heuristic).
_TAN15 = 2.0 - SQRT3  # sin 15 / cos 15
_COS45_OVER_COS15 = SQRT3 - 1.0
_SEC15 = 1.0 / math.cos(math.radians(15.0))
# Largest lattice norm over a ball of radius r is r * hypot(1 / cos 15, 1),
# reached at |e_z| = r / GOAL_BALL_NORM. lattice_heuristic subtracts all
# of it only once |dz| reaches that height; below it, phi takes less.
GOAL_BALL_NORM = math.hypot(_SEC15, 1.0)


def lattice_heuristic(dx: float, dy: float, dz: float, tolerance: float) -> float:
    """Lower bound, in cost units, on reaching the goal ball from offset
    v = (dx, dy, dz) = position - goal.

    The lattice norm N(v) = gauge(v_xy) + |v_z| changes by at most the
    length of any forward or vertical move, so N(v - e) bounds the cost
    to reach the ball point goal + e. For |e| <= tolerance the gauge
    drops by at most |e_xy| / cos 15 and |v_z| by at most |e_z|, down to
    0, so N(v - e) >= gauge(v_xy) + phi(|dz|). Here phi(t) is the least
    of max(t - w, 0) - sqrt(tolerance^2 - w^2) / cos 15 over
    0 <= w <= tolerance:

    - phi(t) = t - GOAL_BALL_NORM * tolerance when
      t >= tolerance / GOAL_BALL_NORM: all of the ball's largest norm;
    - phi(t) = -sqrt(tolerance^2 - t^2) / cos 15 below that, which is
      -1.0353 * tolerance at t = 0 against -1.4394 * tolerance.

    phi's slope t / (cos 15 * sqrt(tolerance^2 - t^2)) rises from 0 to
    exactly 1 at the switch and stays 1 past it, so phi is 1-Lipschitz: a
    3 m vertical move changes the bound by at most 3 m, and a forward
    move leaves dz alone. Near the goal the Euclidean bound is the
    tighter one. Paths move in whole 3 m steps, so the larger bound
    rounds up to the next step (the 1e-9 guard keeps float noise on an
    exact multiple from adding a step). The result is admissible and
    consistent, and zero inside the goal ball.
    """
    ax, ay, az = abs(dx), abs(dy), abs(dz)
    if az * GOAL_BALL_NORM >= tolerance:
        phi = az - GOAL_BALL_NORM * tolerance
    else:
        phi = -math.sqrt(tolerance * tolerance - az * az) * _SEC15
    norm = max(ax + _TAN15 * ay, _COS45_OVER_COS15 * (ax + ay), _TAN15 * ax + ay)
    bound = max(norm + phi, math.hypot(dx, dy, dz) - tolerance)
    if bound <= 0.0:
        return 0.0
    return 30.0 * math.ceil(bound / VERTICAL_STEP - 1e-9)


def _pack(state: SearchState, width: int) -> int:
    """``state`` as one int: a, b, c, d and kz, each plus 2 ** (width - 1)
    in a ``width``-bit field, a highest, then yaw in the low 4 bits.
    ``astar_search`` reads the fields back in place."""
    packed = 0
    for value in state[:5]:
        packed = packed << width | (value + (1 << (width - 1)))
    return packed << 4 | state[5]


@lru_cache(maxsize=None)
def _packed_moves(width: int) -> tuple[tuple, dict[int, Action]]:
    """Per heading, ``_SUCCESSORS`` as (delta, cost, kind), where the delta
    moves a state packed with ``width``-bit fields; and each delta's action
    (fields of 3 bits or more keep the deltas of different actions apart)."""
    rows = [[(_pack(m[:6], width) - _pack((0, 0, 0, 0, 0, yaw), width), *m[6:]) for m in row]
            for yaw, row in enumerate(_SUCCESSORS)]
    return tuple(tuple(m[:3] for m in row) for row in rows), {m[0]: m[3] for r in rows for m in r}


def astar_search(start: Pose, goal: Point3, grid: VoxelGrid,
                 cfg: TrajGenConfig, stats=None,
                 flown: Sequence[Action] = (), target_landmark_id: int = -1) -> Trajectory:
    """A* over exact (position, heading) states.

    Edge costs are meters moved in 0.1 m units plus one unit per turn.
    The heuristic is ``lattice_heuristic``: the larger of a lattice-norm
    and a Euclidean bound on the distance to the goal-tolerance sphere,
    rounded up to whole 3 m steps. It is admissible and consistent, and
    goal states all have zero heuristic, so they settle in cost order and
    the returned cost is minimal over the search graph. Ties break on the
    smaller heuristic, then first-in-first-out insertion. States
    deduplicate exactly; the bin-dominance rule above keeps the state
    space finite without breaking Dijkstra-comparability.

    A state is packed into one int (``_pack``) whose fields hold every
    state the search can reach: no field's magnitude exceeds the first
    state's largest plus 2 * ``cfg.max_expansions`` (proved where the
    width is set). A successor is the state plus a per-heading delta of
    ``_SUCCESSORS``, which offers only the 3 m forward, so heap entries
    and parent links hold only ints and floats. Two per-search caches are
    keyed on the position, the packed state without its heading: its
    coordinates and ``lattice_heuristic``, computed once with the
    expressions in the SearchState comment, so they and every collision
    verdict on them do not depend on the path to it; and the verdict of
    the vertical sweep between it and the position above, which both
    directions and all 12 headings share.

    Edges are checked lazily, as in Lazy PRM (Bohlin & Kavraki 2000).
    Every offer into an unsettled state is pushed unchecked, apart from
    the height-range test on vertical moves. A forward or vertical edge
    is swept for collisions only when its entry is popped for a state
    that is not settled yet; a blocked entry is dropped and the state
    waits for its next offer. Offers into one state pop in cost order,
    so it settles at its cheapest collision-free cost, and no edge into
    a settled state is ever checked.

    The path to the goal is written with each run of 3 m forwards merged
    greedily: 9 m moves, then one 6 or 3 m move. Each merged move is
    swept once from its first state to its last; these sweeps are the
    only checks made between settled states. A refused sweep keeps one
    3 m step and merges again from the next state. The cost is the same.

    ``flown`` are actions already flown from ``start``: the search begins
    where they end, and the trajectory it returns, from ``start``, opens
    with them. It carries ``target_landmark_id``.

    ``stats`` (a ``pipeline.GenerationReport``, say), when given, gains
    this search's settled ``expansions`` and ``collision_checks``, the
    segment sweeps actually run (merge sweeps included, cached vertical
    verdicts not), also when the search fails.
    """
    first = initial_state(start)
    for action in flown:
        first = advance(first, action)
    here = lattice_pose(start.position, first).position
    if not is_free(grid, here):
        raise NoPathError("start pose is occupied or out of bounds")
    ox, oy, oz = start.position.as_tuple()
    goal_xyz = gx, gy, gz = (goal.x, goal.y, goal.z)
    tolerance = cfg.goal_tolerance
    # At most max_expansions states settle (one more raises), and a pushed
    # state's parent chain back to ``first`` holds only settled states, so
    # it is at most max_expansions moves from ``first``. A move changes a
    # field by at most 2 (a 3 m forward), so no |field| passes the sum
    # below; 2 ** (width - 1) exceeds it, so offset fields stay in range.
    width = (max(map(abs, first[:5])) + 2 * cfg.max_expansions).bit_length() + 1
    moves, action_of = _packed_moves(width)
    offset, mask, kz_yaw = 1 << (width - 1), (1 << width) - 1, (1 << (width + 4)) - 1
    a_at, b_at, c_at = 4 * width, 3 * width, 2 * width  # field shifts in a position
    state = _pack(first, width)
    h0 = lattice_heuristic(here.x - gx, here.y - gy, here.z - gz, tolerance)
    placed = {state >> 4: (*here.as_tuple(), h0)}  # position -> x, y, z, heuristic
    vertical_free: dict[int, bool] = {}  # the lower position -> sweep verdict
    # Parent links are recorded when a state is settled, so the
    # reconstructed action chain is exactly the one whose swept segments
    # were collision-checked.
    parents: dict[int, int] = {}  # state -> parent, -1 for the first
    bin_best: dict[tuple, int] = {}
    # (f, h, seq, g, state, parent, kind); the first has no edge to check.
    heap = [(h0, h0, 0, 0, state, -1, _TURN)]
    seq = 0
    expansions = checks = 0
    z_lo, z_hi = cfg.height_range

    try:
        while heap:
            _, h_here, _, g_here, state, parent, kind = heappop(heap)
            if state in parents:
                continue  # settled already
            pos = state >> 4
            x, y, z, _ = placed[pos]
            if kind != _TURN:
                ppos = parent >> 4
                free = vertical_free.get(min(pos, ppos)) if kind == _VERTICAL else None
                if free is None:
                    px, py, pz, _ = placed[ppos]
                    checks += 1
                    free = segment_free_coords(grid, px, py, pz, x, y, z)
                    if kind == _VERTICAL:
                        vertical_free[min(pos, ppos)] = free
                if not free:
                    continue  # blocked edge; a costlier offer may still be free
            parents[state] = parent
            expansions += 1
            if expansions > cfg.max_expansions:
                raise NoPathError(f"expansion budget {cfg.max_expansions} exceeded")
            if math.dist((x, y, z), goal_xyz) <= tolerance:
                path = [state]
                while parent >= 0:
                    path.append(parent)
                    parent = parents[parent]
                path.reverse()
                steps = [action_of[s - p] for p, s in zip(path, path[1:])]
                out: list[Action] = []
                i = 0
                while i < len(steps):
                    run = 1  # 3 m forwards merged into this action, at most three
                    while (run < 3 and i + run < len(steps)
                           and steps[i] is steps[i + run] is Action.FORWARD_3):
                        run += 1
                    if run > 1:
                        px, py, pz, _ = placed[path[i] >> 4]
                        nx, ny, nz, _ = placed[path[i + run] >> 4]
                        checks += 1
                        if not segment_free_coords(grid, px, py, pz, nx, ny, nz):
                            run = 1  # keep the checked 3 m step; merge from the next
                    out.append(forward(3.0 * run) if run > 1 else steps[i])
                    i += run
                return Trajectory(start, [*flown, *out, STOP], target_landmark_id)
            key = (math.floor(x / POSITION_BIN), math.floor(y / POSITION_BIN), state & kz_yaw)
            best = bin_best.get(key)
            if best is not None and best <= g_here - BIN_DOMINANCE_MARGIN_UNITS:
                continue  # a much cheaper same-bin state already settled
            if best is None or g_here < best:
                bin_best[key] = g_here
            for delta, cost, kind in moves[state & 15]:
                nstate = state + delta
                if nstate in parents:
                    continue
                if kind == _TURN:
                    nh = h_here  # same position
                else:
                    npos, nx, ny, nz = nstate >> 4, x, y, z
                    if kind == _VERTICAL:
                        nz = oz + VERTICAL_STEP * ((npos & mask) - offset)
                        if not z_lo <= nz <= z_hi:
                            continue
                    at = placed.get(npos)
                    if at is None:
                        if kind == _FORWARD:
                            nx = ox + 1.5 * ((npos >> a_at) - offset
                                             + ((npos >> b_at & mask) - offset) * SQRT3)
                            ny = oy + 1.5 * ((npos >> c_at & mask) - offset
                                             + ((npos >> width & mask) - offset) * SQRT3)
                        at = placed[npos] = (
                            nx, ny, nz, lattice_heuristic(nx - gx, ny - gy, nz - gz, tolerance))
                    nh = at[3]
                ng = g_here + cost
                seq += 1
                heappush(heap, (ng + nh, nh, seq, ng, nstate, state, kind))
        raise NoPathError("open set exhausted without reaching the goal")
    finally:
        if stats is not None:
            stats.expansions += expansions
            stats.collision_checks += checks


def _bearing_deg(dx: float, dy: float) -> float:
    return math.degrees(math.atan2(dy, dx)) % 360.0


def nearest_heading(bearing_deg: float) -> float:
    return (round(bearing_deg / TURN_DEGREES) % 12) * TURN_DEGREES


def _goal_on_line(from_xy: tuple[float, float], landmark: LandmarkInstance,
                  altitude: float, bev: BevGrid, grid: VoxelGrid) -> Point3 | None:
    """First point on the centroid->start line, at least GOAL_OFFSET out,
    that is unoccupied in the BEV map and free in the voxel grid, with
    coordinates rounded as the JSONL stores them."""
    cx, cy = landmark.centroid
    vx, vy = from_xy[0] - cx, from_xy[1] - cy
    span = math.hypot(vx, vy)
    if span <= GOAL_OFFSET:
        return None
    ux, uy = vx / span, vy / span
    t = GOAL_OFFSET
    while t < span:
        gx, gy = round_sig(cx + ux * t), round_sig(cy + uy * t)
        cell = bev.cell_of(gx, gy)
        bev_clear = bev.in_bounds(cell) and not bev.occupancy[cell]
        candidate = Point3(gx, gy, round_sig(altitude))
        if bev_clear and is_free(grid, candidate):
            return candidate
        t += 1.0
    return None


def eligible_landmarks(landmarks: list[LandmarkInstance],
                       cfg: TrajGenConfig) -> list[LandmarkInstance]:
    """The targets: landmarks at least ``cfg.min_landmark_height`` tall."""
    eligible = [lm for lm in landmarks if lm.height >= cfg.min_landmark_height]
    if not eligible:
        raise ConfigError(f"no landmark at least {cfg.min_landmark_height} m tall")
    return eligible


def sample_endpoints(
    landmarks: list[LandmarkInstance],
    bev: BevGrid,
    grid: VoxelGrid,
    cfg: TrajGenConfig,
    rng: np.random.Generator,
) -> tuple[Pose, Point3, int]:
    """Pick a target landmark, start pose, and goal point.

    The target is uniform among landmarks at least as tall as the
    configured threshold; the start lies within the configured distance
    ring of its centroid, free in both maps at a uniformly drawn
    altitude; the goal sits on the start->centroid line just outside the
    landmark; the start heading is the 30-degree bin nearest the bearing
    to the goal. Coordinates are rounded to the JSONL's 9 digits before
    any check, so the search starts from the floats that get serialized.
    No landmark that tall is a ConfigError (see ``eligible_landmarks``);
    running out of attempts is a SamplingError.
    """
    eligible = eligible_landmarks(landmarks, cfg)
    lo, hi = cfg.start_distance_range
    for _ in range(cfg.max_sample_attempts):
        lm = eligible[int(rng.integers(len(eligible)))]
        altitude = round_sig(rng.uniform(*cfg.height_range))
        radius = float(rng.uniform(lo, hi))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        sx = round_sig(lm.centroid[0] + radius * math.cos(theta))
        sy = round_sig(lm.centroid[1] + radius * math.sin(theta))
        start_pos = Point3(sx, sy, altitude)
        if not is_free(grid, start_pos):
            continue
        if bev.column_top(sx, sy) >= altitude:
            continue
        goal = _goal_on_line((sx, sy), lm, altitude, bev, grid)
        if goal is None:
            continue
        yaw = nearest_heading(_bearing_deg(goal.x - sx, goal.y - sy))
        return Pose(start_pos, yaw), goal, lm.id
    raise SamplingError(f"no valid start/goal pair after {cfg.max_sample_attempts} attempts")


def chain_trajectories(
    segments: int,
    landmarks: list[LandmarkInstance],
    bev: BevGrid,
    grid: VoxelGrid,
    cfg: TrajGenConfig,
    rng: np.random.Generator,
    stats=None,
) -> tuple[Trajectory, Point3]:
    """Chain A* segments, each starting where the previous one stopped,
    all searched from the episode's start with ``flown`` (see astar_search).

    Returns the trajectory, which carries the last segment's target
    landmark and no intermediate Stop, and the goal point given to the
    last segment's search. Every segment's search adds to ``stats``.
    """
    check_kind("segments", segments, "an integer >= 1")
    eligible = eligible_landmarks(landmarks, cfg)
    start, goal, target = sample_endpoints(eligible, bev, grid, cfg, rng)
    trajectory = astar_search(start, goal, grid, cfg, stats, target_landmark_id=target)
    lo, hi = cfg.start_distance_range
    for index in range(2, segments + 1):
        here = trajectory.poses[-1].position
        in_range = [
            lm for lm in eligible
            if lo <= math.hypot(lm.centroid[0] - here.x, lm.centroid[1] - here.y) <= hi
        ]
        candidates = in_range or [lm for lm in eligible if lm.id != target] or eligible
        try:
            lm = candidates[int(rng.integers(len(candidates)))]
            goal = _goal_on_line((here.x, here.y), lm, here.z, bev, grid)
            if goal is None:
                raise SamplingError("no clear goal on the connecting line")
            trajectory = astar_search(start, goal, grid, cfg, stats, trajectory.actions[:-1],
                                      lm.id)
        except TrajGenError as exc:
            raise NoPathError(f"segment {index} of {segments} failed: {exc}") from exc
        target = lm.id
    return trajectory, goal
