from __future__ import annotations

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import desk_trajgen_config, empty_grid, random_obstacle_grid
from oracles import (action_by_construction, dijkstra_units, lattice_heuristic_whole_ball,
                     point_blocked)
from uavnav import ConfigError
from uavnav import trajgen as tg
from uavnav.evaluation import replay
from uavnav.geometry import Point3
from uavnav.occupancy import is_free, segment_free
from uavnav.pipeline import (GenerationReport, PipelineConfig, build_scene_bundle,
                             demo_scene_spec)
from uavnav.trajgen import (BIN_DOMINANCE_MARGIN_UNITS, FORWARD_MAGNITUDES, GOAL_BALL_NORM,
                            MOVE_DOWN, MOVE_UP, STOP, TURN_LEFT, TURN_RIGHT,
                            UNITS_PER_METER, VERTICAL_STEP, Action, ActionKind,
                            NoPathError, Pose, SamplingError, Trajectory,
                            TrajGenConfig, astar_search, chain_trajectories,
                            forward, lattice_heuristic,
                            path_cost_units, rollout, sample_endpoints)


class TestActions:
    def test_forward_magnitudes_validated(self):
        for m in (3.0, 6.0, 9.0):
            assert forward(m).magnitude == m
            assert forward(m) is forward(int(m))
        with pytest.raises(ValueError):
            forward(4.0)

    def test_turn_and_vertical_magnitudes(self):
        assert (TURN_LEFT.magnitude, TURN_RIGHT.magnitude) == (30.0, 30.0)
        assert (MOVE_UP.magnitude, MOVE_DOWN.magnitude, STOP.magnitude) == (3.0, 3.0, None)
        for doc in ({"kind": "turn_left", "magnitude": 45.0},
                    {"kind": "move_up", "magnitude": 6.0}, {"kind": "stop", "magnitude": 1.0}):
            with pytest.raises(ValueError):
                Action.from_dict(doc)

    def test_eight_members(self):
        assert len(Action) == 8
        assert {a.kind for a in Action} == set(ActionKind)

    def test_dict_round_trip(self):
        for action in Action:
            doc = json.loads(json.dumps(action.to_dict()))
            assert doc == action_by_construction(doc)
            assert Action.from_dict(doc) is action

    def test_copy_and_pickle_keep_the_member(self):
        for action in Action:
            assert copy.deepcopy(action) is action
            assert pickle.loads(pickle.dumps(action)) is action

    def test_path_cost_units(self):
        assert [path_cost_units([forward(m)]) for m in FORWARD_MAGNITUDES] == [30, 60, 90]
        assert path_cost_units([TURN_LEFT]) == path_cost_units([TURN_RIGHT]) == 1
        assert path_cost_units([MOVE_UP]) == path_cost_units([MOVE_DOWN]) == 30
        assert path_cost_units([STOP]) == 0

    def test_from_dict_returns_shared_constants(self):
        for action in (*map(forward, FORWARD_MAGNITUDES), TURN_LEFT, MOVE_UP):
            doc = action.to_dict()
            m = int(action.magnitude)
            for magnitude in (m, str(m), f"{m}.0", float(m)):
                assert Action.from_dict({**doc, "magnitude": magnitude}) is action
        assert Action.from_dict({"kind": "stop", "magnitude": None}) is STOP

    @pytest.mark.parametrize("doc", [
        {"kind": "fly"}, {"kind": "forward", "magnitude": 4},
        {"kind": "turn_left", "magnitude": 45}, {"kind": "stop", "magnitude": 0},
        {"kind": "forward", "magnitude": math.nan}, {"kind": ["forward"], "magnitude": 3},
        {"magnitude": 3}, {"kind": [1], "magnitude": [1]},
        {"kind": "forward", "magnitude": [1]}, {"kind": "forward", "magnitude": "abc"},
        {"kind": "forward"}, {"kind": "move_up", "magnitude": True}, ["forward"],
    ], ids=["unknown_kind", "forward_4", "turn_45", "stop_0", "nan", "list_kind",
            "no_kind", "list_kind_and_magnitude", "list_magnitude", "string_magnitude",
            "forward_without_magnitude", "bool_magnitude", "list_document"])
    def test_from_dict_raises_what_construction_raises(self, doc):
        """Where construction raised, of whatever type, ``from_dict``
        raises ValueError naming the document."""
        with pytest.raises(Exception):
            action_by_construction(doc)
        with pytest.raises(ValueError, match="not an action document") as raised:
            Action.from_dict(doc)
        assert repr(doc) in str(raised.value)

    @given(kind=st.sampled_from([k.value for k in ActionKind] + ["fly", "", "Forward"]),
           magnitude=st.one_of(st.none(), st.booleans(), st.integers(-10, 40),
                               st.floats(allow_nan=True), st.sampled_from(FORWARD_MAGNITUDES),
                               st.sampled_from(["3", "30", "3.0", "x", ""])))
    @settings(max_examples=300, deadline=None)
    def test_from_dict_accepts_what_construction_accepts(self, kind, magnitude):
        doc = {"kind": kind} if magnitude is None else {"kind": kind, "magnitude": magnitude}
        try:
            expected = action_by_construction(doc)
        except Exception:
            with pytest.raises(ValueError):
                Action.from_dict(doc)
            return
        action = Action.from_dict(doc)
        assert action.to_dict() == expected
        assert Action.from_dict(expected) is action


def step(pose: Pose, action: Action) -> Pose:
    return rollout(pose, [action])[-1]


class TestStep:
    def test_forward_along_x(self):
        pose = Pose(Point3(0, 0, 10), 0.0)
        after = step(pose, forward(3.0))
        assert after.position == Point3(3.0, 0.0, 10.0)
        assert after.yaw == 0.0

    def test_turn_left_adds_30(self):
        pose = Pose(Point3(0, 0, 10), 0.0)
        assert step(pose, TURN_LEFT).yaw == 30.0
        assert step(pose, TURN_RIGHT).yaw == 330.0

    def test_forward_at_30_degrees_trigonometry(self):
        # 6 cos 30 = 3 sqrt(3) = 5.196152422706632, 6 sin 30 = 3.
        pose = Pose(Point3(0, 0, 10), 30.0)
        after = step(pose, forward(6.0))
        assert after.position.x == pytest.approx(5.196152422706632, abs=1e-9)
        assert after.position.y == pytest.approx(3.0, abs=1e-9)
        assert after.position.z == 10.0

    def test_vertical_moves(self):
        pose = Pose(Point3(1, 2, 10), 60.0)
        assert step(pose, MOVE_UP).position.z == 13.0
        assert step(pose, MOVE_DOWN).position.z == 7.0

    def test_stop_is_identity(self):
        pose = Pose(Point3(1, 2, 3), 90.0)
        assert step(pose, STOP) == pose

    def test_every_move_matches_trigonometry(self):
        start = Pose(Point3(123.456789, -45.6789012, 30.0), 0.0)
        for k in range(12):
            pose = Pose(start.position, 30.0 * k)
            rad = math.radians(pose.yaw)
            for m in FORWARD_MAGNITUDES:
                after = step(pose, forward(m))
                assert after.position.x == pytest.approx(123.456789 + m * math.cos(rad),
                                                         abs=1e-12)
                assert after.position.y == pytest.approx(-45.6789012 + m * math.sin(rad),
                                                         abs=1e-12)
                assert (after.position.z, after.yaw) == (30.0, pose.yaw)
            assert step(pose, TURN_LEFT).yaw == 30.0 * ((k + 1) % 12)
            assert step(pose, TURN_RIGHT).yaw == 30.0 * ((k - 1) % 12)

    def test_yaw_quantization_enforced(self):
        with pytest.raises(ValueError):
            Pose(Point3(0, 0, 0), 15.0)


class TestAstar:
    def test_start_within_tolerance_returns_stop(self):
        grid = empty_grid()
        cfg = TrajGenConfig(height_range=(0.0, 30.0))
        start = Pose(Point3(30, 30, 10), 0.0)
        traj = astar_search(start, Point3(32, 30, 10), grid, cfg)
        assert traj.actions == [STOP]
        assert traj.poses == [start, start]

    def test_straight_goal_matches_dijkstra(self):
        grid = empty_grid()
        cfg = TrajGenConfig(height_range=(0.0, 30.0))
        start = Pose(Point3(20, 30, 10), 0.0)
        goal = Point3(29, 30, 10)
        traj = astar_search(start, goal, grid, cfg)
        units = path_cost_units(traj.actions)
        assert units == dijkstra_units(start, goal, grid, cfg)
        # 9 m ahead with 5 m tolerance: a single 6 m hop is already enough.
        assert units == 60

    def test_occupied_start_raises(self):
        grid = random_obstacle_grid(np.random.default_rng(1))
        occupied = tuple(np.argwhere(grid.occupancy)[0])
        p = Point3(occupied[0] + 0.5, occupied[1] + 0.5, occupied[2] + 0.5)
        with pytest.raises(NoPathError):
            astar_search(Pose(p, 0.0), Point3(1, 1, 1), grid,
                         TrajGenConfig(height_range=(0.0, 30.0)))

    def test_enclosed_goal_raises(self):
        grid = empty_grid(dims=(40, 40, 12))
        grid.occupancy[18:23, 18:23, :] = True
        grid.occupancy[20, 20, 5] = False  # cavity, sealed on all sides
        cfg = TrajGenConfig(height_range=(0.0, 11.0), goal_tolerance=1.0,
                            max_expansions=30_000)
        start = Pose(Point3(5, 5, 5), 0.0)
        with pytest.raises(NoPathError):
            astar_search(start, Point3(20.5, 20.5, 5.5), grid, cfg)

    def test_kinematic_consistency_and_collision_freedom(self):
        rng = np.random.default_rng(2)
        grid = random_obstacle_grid(rng)
        cfg = TrajGenConfig(height_range=(3.0, 27.0), goal_tolerance=5.0,
                            max_expansions=300_000)
        found = 0
        for _ in range(20):
            sx, sy = rng.uniform(10, 90, size=2)
            sz = rng.uniform(5, 25)
            start = Pose(Point3(sx, sy, sz), 30.0 * rng.integers(0, 12))
            angle = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(15, 45)
            goal = Point3(sx + d * math.cos(angle), sy + d * math.sin(angle), sz)
            if not is_free(grid, start.position) or not is_free(grid, goal):
                continue
            try:
                traj = astar_search(start, goal, grid, cfg)
            except NoPathError:
                continue
            found += 1
            assert traj.poses == rollout(traj.start, traj.actions)
            for a, b in zip(traj.poses, traj.poses[1:]):
                assert segment_free(grid, a.position, b.position)
            assert traj.poses[-1].position.distance_to(goal) <= cfg.goal_tolerance + 1e-6
        assert found >= 10

    def test_cost_matches_dijkstra_on_random_scenes(self):
        rng = np.random.default_rng(3)
        cfg = TrajGenConfig(height_range=(4.0, 26.0), goal_tolerance=5.0,
                            max_expansions=300_000)
        checked = 0
        while checked < 10:
            grid = random_obstacle_grid(rng, dims=(60, 60, 30), n_boxes=8)
            sx, sy = rng.uniform(8, 52, size=2)
            sz = rng.uniform(6, 24)
            start = Pose(Point3(sx, sy, sz), 30.0 * rng.integers(0, 12))
            angle = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(12, 20)
            goal = Point3(sx + d * math.cos(angle), sy + d * math.sin(angle), sz)
            if not is_free(grid, start.position) or not is_free(grid, goal):
                continue
            try:
                traj = astar_search(start, goal, grid, cfg)
            except NoPathError:
                assert dijkstra_units(start, goal, grid, cfg) is None
                continue
            assert path_cost_units(traj.actions) == dijkstra_units(start, goal, grid, cfg)
            checked += 1

    def test_cost_matches_dijkstra_with_altitude_change(self):
        # Goals above or below the start exercise the |dz| term of the
        # lattice norm and the goal-ball slack of the heuristic.
        rng = np.random.default_rng(5)
        cfg = TrajGenConfig(height_range=(4.0, 26.0), goal_tolerance=5.0,
                            max_expansions=300_000)
        checked = 0
        while checked < 8:
            grid = random_obstacle_grid(rng, dims=(60, 60, 30), n_boxes=8)
            sx, sy = rng.uniform(8, 52, size=2)
            sz = rng.uniform(6, 24)
            start = Pose(Point3(sx, sy, sz), 30.0 * rng.integers(0, 12))
            angle = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(8, 14)
            gz = float(np.clip(sz + rng.uniform(-15, 15), *cfg.height_range))
            goal = Point3(sx + d * math.cos(angle), sy + d * math.sin(angle), gz)
            if not is_free(grid, start.position) or not is_free(grid, goal):
                continue
            try:
                traj = astar_search(start, goal, grid, cfg)
            except NoPathError:
                assert dijkstra_units(start, goal, grid, cfg) is None
                continue
            assert path_cost_units(traj.actions) == dijkstra_units(start, goal, grid, cfg)
            checked += 1

    def test_deterministic_output(self):
        grid = random_obstacle_grid(np.random.default_rng(4))
        cfg = TrajGenConfig(height_range=(3.0, 27.0))
        start = Pose(Point3(8.3, 9.1, 12.0), 60.0)
        goal = Point3(52.0, 48.0, 12.0)
        t1 = astar_search(start, goal, grid, cfg)
        t2 = astar_search(start, goal, grid, cfg)
        assert t1 == t2

    def test_blocked_cheap_offer_does_not_hide_free_costlier_one(self):
        # A one-voxel wall at x in [17, 18) up to z = 6 stands between the
        # start and the goal, which needs z = 4.5 (tolerance 1 m). The
        # first offer into the goal state, a 9 m hop from the start
        # (90 units), crosses the wall; the only free way in is over it,
        # up 3 m, ahead 9 m, down 3 m (150 units), offered later. Pruning
        # offers by their pushed cost would drop that one.
        grid = empty_grid(dims=(40, 20, 12))
        grid.occupancy[17, :, 0:6] = True
        cfg = TrajGenConfig(height_range=(3.0, 7.5), goal_tolerance=1.0)
        start = Pose(Point3(10.5, 10.5, 4.5), 0.0)
        goal = Point3(19.5, 10.5, 4.5)
        traj = astar_search(start, goal, grid, cfg)
        assert path_cost_units(traj.actions) == dijkstra_units(start, goal, grid, cfg) == 150
        for a, b in zip(traj.poses, traj.poses[1:]):
            assert segment_free(grid, a.position, b.position)

    def test_edges_checked_only_when_popped(self, monkeypatch):
        # Each check runs for one popped entry of an unsettled state, and a
        # free verdict settles that state, so there are no more checks than
        # pops and no more free verdicts than states settled after the start.
        import uavnav.trajgen as tg

        verdicts: list[bool] = []
        pops = 0
        check, pop = tg.segment_free_coords, tg.heappop

        def counting_check(*args):
            verdicts.append(check(*args))
            return verdicts[-1]

        def counting_pop(heap):
            nonlocal pops
            pops += 1
            return pop(heap)

        monkeypatch.setattr(tg, "segment_free_coords", counting_check)
        monkeypatch.setattr(tg, "heappop", counting_pop)
        grid = random_obstacle_grid(np.random.default_rng(4))
        cfg = TrajGenConfig(height_range=(3.0, 27.0))
        stats = GenerationReport()
        astar_search(Pose(Point3(8.3, 9.1, 12.0), 60.0), Point3(52.0, 48.0, 12.0),
                     grid, cfg, stats)
        assert False in verdicts  # the case does hit obstacles
        assert stats.collision_checks == len(verdicts) <= pops
        assert sum(verdicts) <= stats.expansions - 1

    def test_search_offers_only_the_3m_forward(self, monkeypatch):
        # A 6 or 9 m forward reaches the state that 3 m ones reach at the
        # same cost, so the search never offers one; the output merges them.
        import uavnav.trajgen as tg

        offered: list[Action] = []
        push = tg.heappush

        def recording_push(heap, entry):
            offered.extend(item for item in entry if isinstance(item, Action))
            push(heap, entry)

        monkeypatch.setattr(tg, "heappush", recording_push)
        grid = random_obstacle_grid(np.random.default_rng(4))
        traj = astar_search(Pose(Point3(8.3, 9.1, 12.0), 60.0), Point3(52.0, 48.0, 12.0),
                            grid, TrajGenConfig(height_range=(3.0, 27.0)))
        assert {a for a in offered if a.kind is ActionKind.FORWARD} == {Action.FORWARD_3}
        assert {Action.FORWARD_6, Action.FORWARD_9} & set(traj.actions)

    @pytest.mark.parametrize("start, goal", [
        (Pose(Point3(5.0, 5.0, 12.0), 0.0), Point3(52.0, 44.0, 12.0)),
        (Pose(Point3(50.0, 8.0, 6.0), 150.0), Point3(9.0, 50.0, 21.0)),
        (Pose(Point3(30.0, 30.0, 15.0), 270.0), Point3(31.0, 3.0, 15.0)),
    ])
    def test_forward_runs_are_nine_metre_moves_then_at_most_one_shorter(self, start, goal):
        traj = astar_search(start, goal, empty_grid(), TrajGenConfig(height_range=(3.0, 27.0)))
        runs: list[list[float]] = [[]]
        for action in traj.actions:
            if action.kind is ActionKind.FORWARD:
                runs[-1].append(action.magnitude)
            elif runs[-1]:
                runs.append([])
        assert any(9.0 in run for run in runs)
        for run in filter(None, runs):
            assert all(m == 9.0 for m in run[:-1]), traj.actions

    def test_refused_merge_sweep_keeps_a_3m_step(self, monkeypatch):
        # With every 9 m sweep refused, a run is written with 6 and 3 m
        # moves: the same cost, and replay flies it without a collision.
        import uavnav.trajgen as tg

        grid = random_obstacle_grid(np.random.default_rng(4))
        cfg = TrajGenConfig(height_range=(3.0, 27.0))
        start, goal = Pose(Point3(8.3, 9.1, 12.0), 60.0), Point3(52.0, 48.0, 12.0)
        merged = astar_search(start, goal, grid, cfg)
        assert Action.FORWARD_9 in merged.actions
        check = tg.segment_free_coords

        def refusing_nine(grid, ax, ay, az, bx, by, bz):
            return (math.dist((ax, ay, az), (bx, by, bz)) < 8.0
                    and check(grid, ax, ay, az, bx, by, bz))

        monkeypatch.setattr(tg, "segment_free_coords", refusing_nine)
        refused = astar_search(start, goal, grid, cfg)
        assert Action.FORWARD_9 not in refused.actions
        assert path_cost_units(refused.actions) == path_cost_units(merged.actions)
        assert refused.poses[-1] == merged.poses[-1]
        assert not replay(start, refused.actions, grid).collided

    def test_stats_count_failed_searches(self):
        grid = empty_grid(dims=(40, 40, 12))
        grid.occupancy[18:23, 18:23, :] = True  # the goal is inside the block
        cfg = TrajGenConfig(height_range=(0.0, 11.0), goal_tolerance=1.0,
                            max_expansions=200)
        stats = GenerationReport()
        with pytest.raises(NoPathError):
            astar_search(Pose(Point3(5, 5, 5), 0.0), Point3(20.5, 20.5, 5.5), grid, cfg,
                         stats)
        assert stats.expansions == 201  # the one past the budget raises
        assert stats.collision_checks > 0


_coord = st.floats(-300.0, 300.0, allow_nan=False)
_tolerance = st.floats(0.5, 20.0)


def _gauge_by_definition(dx: float, dy: float) -> float:
    """Largest |v . n_k| / cos 15 over the six edge normals of the 12-gon."""
    return max(abs(dx * math.cos(math.radians(15 + 30 * k))
                   + dy * math.sin(math.radians(15 + 30 * k)))
               for k in range(6)) / math.cos(math.radians(15))


class TestLatticeHeuristic:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi), st.floats(-1.0, 1.0),
           _tolerance)
    def test_zero_inside_goal_ball(self, frac, theta, cos_polar, tol):
        r = frac * tol
        sin_polar = math.sqrt(1.0 - cos_polar * cos_polar)
        h = lattice_heuristic(r * sin_polar * math.cos(theta),
                              r * sin_polar * math.sin(theta), r * cos_polar, tol)
        assert h == 0.0

    @settings(max_examples=300, deadline=None)
    @given(_coord, _coord, _coord, _tolerance)
    def test_bounded_below_by_the_gauge_definition(self, dx, dy, dz, tol):
        # Without the Euclidean term and the rounding, the heuristic is the
        # six-normal gauge of the offset minus the goal-ball slack.
        slack = tol * math.hypot(1.0 / math.cos(math.radians(15)), 1.0)
        bound = _gauge_by_definition(dx, dy) + abs(dz) - slack
        assert lattice_heuristic(dx, dy, dz, tol) >= UNITS_PER_METER * bound - 1e-6

    @settings(max_examples=300, deadline=None)
    @given(_coord, _coord, _coord, _tolerance)
    def test_consistent_over_every_move(self, dx, dy, dz, tol):
        h = lattice_heuristic(dx, dy, dz, tol)
        for k in range(12):
            c, s = math.cos(math.radians(30 * k)), math.sin(math.radians(30 * k))
            for m in FORWARD_MAGNITUDES:
                cost = m * UNITS_PER_METER
                assert h <= cost + lattice_heuristic(dx + m * c, dy + m * s, dz, tol)
        cost = VERTICAL_STEP * UNITS_PER_METER
        for sign in (1.0, -1.0):
            assert h <= cost + lattice_heuristic(dx, dy, dz + sign * VERTICAL_STEP, tol)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-300, 300), st.integers(-300, 300), _coord,
           st.floats(0.0, 0.999999), st.floats(0.0, 0.999999),
           st.floats(0.0, 0.999999), st.floats(0.0, 0.999999),
           st.floats(-150.0, 150.0), st.floats(-150.0, 150.0), _tolerance)
    def test_same_bin_spread_below_dominance_margin(self, i, j, z, u1, v1, u2, v2,
                                                    gx, gy, tol):
        h1 = lattice_heuristic(i + u1 - gx, j + v1 - gy, z, tol)
        h2 = lattice_heuristic(i + u2 - gx, j + v2 - gy, z, tol)
        assert abs(h1 - h2) < BIN_DOMINANCE_MARGIN_UNITS


def _goal_ball_term(dx: float, dy: float, dz: float, tol: float) -> float:
    """gauge(v_xy) + phi(|dz|), the unrounded lattice term that
    lattice_heuristic documents."""
    t = abs(dz)
    if t * GOAL_BALL_NORM >= tol:
        phi = t - GOAL_BALL_NORM * tol
    else:
        phi = -math.sqrt(tol * tol - t * t) / math.cos(math.radians(15))
    return _gauge_by_definition(dx, dy) + phi


class TestGoalBallBound:
    @settings(max_examples=500, deadline=None)
    @given(_coord, _coord, _coord, _tolerance)
    def test_never_below_the_whole_ball_bound(self, dx, dy, dz, tol):
        assert lattice_heuristic(dx, dy, dz, tol) >= lattice_heuristic_whole_ball(dx, dy, dz, tol)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-60.0, 60.0) | _coord, st.floats(-60.0, 60.0) | _coord,
           st.floats(-30.0, 30.0) | _coord, _tolerance, st.floats(0.0, 1.0),
           st.floats(0.0, 2 * math.pi), st.floats(-1.0, 1.0), st.booleans())
    def test_lattice_term_is_at_most_the_norm_to_every_ball_point(
            self, dx, dy, dz, tol, frac, theta, cos_polar, nearest_z):
        if nearest_z:
            # The e_z that phi's minimum picks, with the rest of the ball
            # radius in the plane: the bound is tight along an edge normal.
            ez = math.copysign(min(abs(dz), tol / GOAL_BALL_NORM), dz)
            r_xy = math.sqrt(max(tol * tol - ez * ez, 0.0))
        else:
            ez = frac * tol * cos_polar
            r_xy = frac * tol * math.sqrt(1.0 - cos_polar * cos_polar)
        ex, ey = r_xy * math.cos(theta), r_xy * math.sin(theta)
        term = _goal_ball_term(dx, dy, dz, tol)
        assert term <= _gauge_by_definition(dx - ex, dy - ey) + abs(dz - ez) + 1e-9
        # lattice_heuristic rounds the larger of this term and the
        # Euclidean one up to whole 3 m steps (up to float noise).
        bound = max(term, math.hypot(dx, dy, dz) - tol)
        allowed = {30.0 * max(0, math.ceil((bound + slack) / VERTICAL_STEP - 1e-9))
                   for slack in (-1e-7, 1e-7)}
        assert lattice_heuristic(dx, dy, dz, tol) in allowed

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0), st.floats(-4.0, 4.0),
           st.sampled_from((1.0, -1.0)), _tolerance)
    def test_consistent_over_every_move_across_the_switch(self, dx, dy, offset, sign, tol):
        # |dz| lies within 4 m of tol / GOAL_BALL_NORM, where phi changes
        # formula, so vertical 3 m moves cross the switch.
        dz = sign * abs(tol / GOAL_BALL_NORM + offset)
        h = lattice_heuristic(dx, dy, dz, tol)
        for k in range(12):
            c, s = math.cos(math.radians(30 * k)), math.sin(math.radians(30 * k))
            for m in FORWARD_MAGNITUDES:
                cost = m * UNITS_PER_METER
                assert h <= cost + lattice_heuristic(dx + m * c, dy + m * s, dz, tol)
        cost = VERTICAL_STEP * UNITS_PER_METER
        for step in (VERTICAL_STEP, -VERTICAL_STEP):
            assert h <= cost + lattice_heuristic(dx, dy, dz + step, tol)


@pytest.fixture(scope="module")
def demo_bundle_small():
    cfg = PipelineConfig(trajgen=desk_trajgen_config())
    return build_scene_bundle(demo_scene_spec(), cfg), cfg


class TestSampleEndpoints:
    def test_eligibility_error_when_all_landmarks_too_low(self, demo_bundle_small):
        bundle, cfg = demo_bundle_small
        high = desk_trajgen_config(min_landmark_height=100.0)
        with pytest.raises(ConfigError, match="no landmark at least 100.0 m tall"):
            sample_endpoints(bundle.landmarks, bundle.bev, bundle.nav_grid,
                             high, np.random.default_rng(0))

    def test_degenerate_distance_range(self, demo_bundle_small):
        bundle, _ = demo_bundle_small
        cfg = desk_trajgen_config(start_distance_range=(50.0, 50.0))
        rng = np.random.default_rng(1)
        for _ in range(10):
            start, goal, target = sample_endpoints(
                bundle.landmarks, bundle.bev, bundle.nav_grid, cfg, rng)
            lm = next(l for l in bundle.landmarks if l.id == target)
            d = math.hypot(start.position.x - lm.centroid[0],
                           start.position.y - lm.centroid[1])
            # each coordinate is snapped to 9 significant digits: under
            # 5e-7 m off for coordinates below 1000 m
            assert d == pytest.approx(50.0, abs=1e-6)

    def test_500_samples_in_range_and_free(self, demo_bundle_small):
        bundle, cfg = demo_bundle_small
        tg_cfg = cfg.trajgen
        rng = np.random.default_rng(2)
        lo, hi = tg_cfg.start_distance_range
        by_id = {l.id: l for l in bundle.landmarks}
        for _ in range(500):
            start, goal, target = sample_endpoints(
                bundle.landmarks, bundle.bev, bundle.nav_grid, tg_cfg, rng)
            lm = by_id[target]
            assert lm.height >= tg_cfg.min_landmark_height
            d = math.hypot(start.position.x - lm.centroid[0],
                           start.position.y - lm.centroid[1])
            assert lo - 1e-9 <= d <= hi + 1e-9
            p = start.position
            assert not point_blocked(bundle.nav_grid, p.x, p.y, p.z)
            assert tg_cfg.height_range[0] <= p.z <= tg_cfg.height_range[1]
            assert start.yaw % 30.0 == 0.0
            # goal sits on the start->centroid line, clear in the BEV map
            cell = bundle.bev.cell_of(goal.x, goal.y)
            assert not bundle.bev.occupancy[cell]

    def test_start_yaw_faces_goal(self, demo_bundle_small):
        bundle, cfg = demo_bundle_small
        rng = np.random.default_rng(3)
        for _ in range(50):
            start, goal, _ = sample_endpoints(
                bundle.landmarks, bundle.bev, bundle.nav_grid, cfg.trajgen, rng)
            bearing = math.degrees(math.atan2(goal.y - start.position.y,
                                              goal.x - start.position.x)) % 360
            diff = abs((start.yaw - bearing + 180) % 360 - 180)
            assert diff <= 15.0 + 1e-9

    def test_sampling_exhausted(self, demo_bundle_small):
        bundle, _ = demo_bundle_small
        # Demand starts inside a 1 m shell around the landmark: impossible,
        # those cells are inflated.
        cfg = desk_trajgen_config(start_distance_range=(1.0, 2.0),
                                  max_sample_attempts=50)
        with pytest.raises(SamplingError, match="no valid start/goal pair after 50 attempts"):
            sample_endpoints(bundle.landmarks, bundle.bev, bundle.nav_grid,
                             cfg, np.random.default_rng(4))


class TestChain:
    def test_single_segment_equals_astar(self, demo_bundle_small):
        bundle, cfg = demo_bundle_small
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        chained, chained_goal = chain_trajectories(1, bundle.landmarks, bundle.bev,
                                                   bundle.nav_grid, cfg.trajgen, rng1)
        start, goal, target = sample_endpoints(
            bundle.landmarks, bundle.bev, bundle.nav_grid, cfg.trajgen, rng2)
        direct = astar_search(start, goal, bundle.nav_grid, cfg.trajgen)
        assert chained.actions == direct.actions
        assert chained.start == direct.start
        assert chained.target_landmark_id == target
        assert chained_goal == goal

    def test_multi_segment_continuity_and_single_stop(self, demo_bundle_small):
        bundle, cfg = demo_bundle_small
        rng = np.random.default_rng(6)
        traj, goal = chain_trajectories(3, bundle.landmarks, bundle.bev,
                                        bundle.nav_grid, cfg.trajgen, rng)
        stops = [a for a in traj.actions if a.kind is ActionKind.STOP]
        assert len(stops) == 1
        assert traj.actions[-1].kind is ActionKind.STOP
        assert traj.poses == rollout(traj.start, traj.actions)
        for a, b in zip(traj.poses, traj.poses[1:]):
            assert segment_free(bundle.nav_grid, a.position, b.position)
        assert traj.poses[-1].position.distance_to(goal) <= cfg.trajgen.goal_tolerance

    def test_failed_later_segment_is_a_no_path_error(self, demo_bundle_small, monkeypatch):
        # The sampler's goal is found; the second segment's is not.
        bundle, cfg = demo_bundle_small
        goal_on_line, goals = tg._goal_on_line, []

        def first_goal_only(*args):
            goal = None if goals else goal_on_line(*args)
            goals.extend([goal] if goal is not None else [])
            return goal

        monkeypatch.setattr(tg, "_goal_on_line", first_goal_only)
        with pytest.raises(NoPathError, match="segment 2 of 2 failed: no clear goal on the "
                                              "connecting line"):
            chain_trajectories(2, bundle.landmarks, bundle.bev, bundle.nav_grid,
                               cfg.trajgen, np.random.default_rng(6))
        assert len(goals) == 1

    def test_invalid_segment_count(self, demo_bundle_small):
        bundle, cfg = demo_bundle_small
        with pytest.raises(ValueError):
            chain_trajectories(0, bundle.landmarks, bundle.bev,
                               bundle.nav_grid, cfg.trajgen,
                               np.random.default_rng(0))


class TestTrajectoryType:
    def test_from_actions_requires_stop(self):
        start = Pose(Point3(0, 0, 10), 0.0)
        with pytest.raises(ValueError, match="must end with Stop"):
            Trajectory(start, [forward(3.0)])
        with pytest.raises(ValueError, match="must end with Stop"):
            Trajectory(start, [])
        traj = Trajectory(start, [forward(3.0), STOP])
        with pytest.raises(ValueError, match="must end with Stop"):
            dataclasses.replace(traj, actions=[forward(3.0)])

    def test_stop_comes_only_last(self):
        # Replay ends at the first Stop, so actions after an earlier one
        # would fly in the rollout and never in validate or eval.
        start = Pose(Point3(0, 0, 10), 0.0)
        with pytest.raises(ValueError, match="Stop before the last action"):
            Trajectory(start, [forward(3.0), STOP, forward(3.0), STOP])
        with pytest.raises(ValueError, match="Stop before the last action"):
            Trajectory(start, [STOP, STOP])

    def test_construction_checks_the_shape(self):
        start = Pose(Point3(0, 0, 10), 0.0)
        traj = Trajectory(start, [forward(3.0), STOP])
        assert traj.poses == rollout(start, [forward(3.0), STOP])
        with pytest.raises(TypeError, match="poses"):
            Trajectory(start, [forward(3.0), STOP], poses=traj.poses)
        with pytest.raises(ValueError, match="poses"):
            dataclasses.replace(traj, poses=traj.poses[:2])
        longer = dataclasses.replace(traj, actions=[forward(6.0), STOP])
        assert longer.poses == rollout(start, [forward(6.0), STOP])

    def test_target_landmark_id_must_be_an_integer(self):
        # A pose list in the third positional field is what an old
        # Trajectory(start, actions, poses) call passes.
        start = Pose(Point3(0, 0, 10), 0.0)
        with pytest.raises(ValueError, match="target_landmark_id must be an integer"):
            Trajectory(start, [STOP], 2.7)
        with pytest.raises(ValueError, match="target_landmark_id must be an integer"):
            Trajectory(start, [STOP], rollout(start, [STOP]))

    def test_path_length_sums_translations(self):
        start = Pose(Point3(0, 0, 10), 0.0)
        traj = Trajectory(start, [forward(3.0), TURN_LEFT, forward(6.0), MOVE_UP, STOP])
        assert traj.path_length() == pytest.approx(3.0 + 6.0 + 3.0)
