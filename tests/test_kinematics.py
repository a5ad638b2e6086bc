"""One kinematics: the search, ``validate`` and ``eval`` replay place the
drone on the same floats, and the sampled endpoints are the floats the
JSONL stores."""

from __future__ import annotations

import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from conftest import desk_trajgen_config, empty_grid, random_obstacle_grid
from oracles import first_blocked_pose_pair
from uavnav import dataset as ds
from uavnav import evaluation as ev
from uavnav import pipeline as pl
from uavnav import trajgen as tg
from uavnav.dataset import round_sig
from uavnav.geometry import Point3
from uavnav.occupancy import BevGrid, VoxelGrid, segment_free

SEED = 5


@pytest.fixture(scope="module")
def desk_bundle():
    cfg = pl.PipelineConfig(trajgen=desk_trajgen_config())
    return pl.build_scene_bundle(pl.demo_scene_spec(), cfg), cfg


def boundary_grid(exact: Point3, rounded: Point3, lo: float, hi: float,
                  height: int, axis: int = 0) -> VoxelGrid:
    """An empty 1 m grid over [lo, hi) in x and y whose origin on ``axis``
    (0 for x, 1 for y) puts a voxel face strictly between ``exact`` and
    ``rounded`` on that axis; the voxel holding ``rounded`` is occupied,
    the one holding ``exact`` is free."""
    e, r = exact.as_tuple()[axis], rounded.as_tuple()[axis]
    face = (e + r) / 2.0
    assert min(e, r) < face < max(e, r)
    n = math.ceil(face - lo) + 1
    origin = np.array([lo, lo, 0.0])
    origin[axis] = face - n
    dims = [math.ceil(hi - lo), math.ceil(hi - lo), height]
    dims[axis] = n + math.ceil(hi - face)
    grid = VoxelGrid(origin=origin, voxel_size=1.0, dims=tuple(dims),
                     occupancy=np.zeros(dims, dtype=bool))
    grid.occupancy[grid.cell_of(rounded)] = True
    assert grid.cell_of(exact) != grid.cell_of(rounded)
    return grid


def serialized(trajectory: tg.Trajectory, goal: Point3) -> ds.Episode:
    """The episode as ``validate`` and ``eval`` see it: written to JSONL
    and read back."""
    episode = ds.Episode(
        episode_id="e-000000", scene_id="demo", trajectory=trajectory,
        instruction=None, image_refs=[f"r{k}" for k in range(len(trajectory.poses))],
        meta={"goal": [goal.x, goal.y, goal.z]})
    return ds.episode_from_dict(json.loads(json.dumps(ds.episode_to_dict(episode))))


def over_grid(bundle: pl.SceneBundle, grid: VoxelGrid) -> pl.SceneBundle:
    """The same scene with ``grid`` as its nav grid."""
    scene = copy.copy(bundle)
    scene.nav_grid = grid  # set on the copy only; a set layer is never built
    return scene


def validate_violations(episode: ds.Episode, bundle: pl.SceneBundle,
                        cfg: pl.PipelineConfig) -> list[pl.Violation]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "episodes.jsonl"
        ds.write_episodes([episode], path)
        return pl.run_validate(path, cfg, bundle).violations


def validate_kinds(episode: ds.Episode, bundle: pl.SceneBundle,
                   cfg: pl.PipelineConfig) -> set[str]:
    return {v.kind for v in validate_violations(episode, bundle, cfg)}


def test_sampled_episode_validates_on_its_serialized_start(desk_bundle, monkeypatch):
    # The drawn start, before rounding to the 9 digits the JSONL keeps, is
    # free, and the rounded one sits in an occupied voxel. Searching from
    # the unrounded start built an episode that `validate` and `eval`
    # replay, which start from the file, both saw collide.
    bundle, cfg = desk_bundle
    tcfg = cfg.trajgen
    with monkeypatch.context() as m:
        m.setattr(tg, "round_sig", float, raising=False)
        drawn, _, _ = tg.sample_endpoints(bundle.landmarks, bundle.bev, bundle.nav_grid,
                                          tcfg, np.random.default_rng(SEED))
    exact = drawn.position
    rounded = Point3(round_sig(exact.x), round_sig(exact.y), round_sig(exact.z))
    assert abs(exact.x - rounded.x) > 1e-9
    grid = boundary_grid(exact, rounded, -60.0, 300.0, height=60)
    scene = over_grid(bundle, grid)

    start, goal, _ = tg.sample_endpoints(bundle.landmarks, bundle.bev, grid, tcfg,
                                         np.random.default_rng(SEED))
    episode = serialized(tg.astar_search(start, goal, grid, tcfg), goal)

    assert not {"collision", "schema", "goal"} & validate_kinds(episode, scene, cfg)
    t = episode.trajectory
    assert not ev.replay(t.start, t.actions, grid).collided


def test_generated_poses_read_back_bit_for_bit(desk_bundle):
    # A read episode's poses are the rollout of the file's start and
    # actions: the floats generate wrote, not their 9-digit rounding.
    bundle, cfg = desk_bundle
    episodes = [o.episode for o in (pl.generate_episode(bundle, cfg, None, index)
                                    for index in range(12)) if o.episode is not None]
    assert len(episodes) >= 10
    bits = lambda poses: [float.hex(c) for p in poses for c in (*p.position.as_tuple(), p.yaw)]
    unrounded = 0
    for episode in episodes:
        read = ds.episode_from_dict(json.loads(ds.episode_to_line(episode)))
        assert bits(read.trajectory.poses) == bits(episode.trajectory.poses)
        unrounded += sum(p.position.x != round_sig(p.position.x) for p in read.trajectory.poses)
    assert unrounded


def test_filter_verdict_survives_the_file_next_to_a_vegetation_cell():
    # One vegetation cell holds a pose's 9-digit x but not its exact x.
    # The episode in memory and its written-and-read copy fly the same
    # rollout, so the tree-altitude rule gives both one verdict.
    start = tg.Pose(Point3(10.0, 10.0, 12.0), 0.0)
    goal = Point3(40.0, 35.0, 12.0)
    tcfg = tg.TrajGenConfig(height_range=(3.0, 27.0))
    trajectory = tg.astar_search(start, goal, empty_grid(), tcfg)
    exact = next(p.position for p in trajectory.poses if p.position.x != round_sig(p.position.x))
    rounded_x = round_sig(exact.x)
    face = (exact.x + rounded_x) / 2.0
    assert min(exact.x, rounded_x) < face < max(exact.x, rounded_x)
    dims = (80, 80)
    bev = BevGrid(origin=np.array([face - 40.0, -20.0]), cell_size=1.0, dims=dims,
                  occupancy=np.zeros(dims, dtype=bool), max_height=np.zeros(dims),
                  vegetation=np.zeros(dims, dtype=bool))
    bev.vegetation[bev.cell_of(rounded_x, exact.y)] = True
    assert not bev.is_vegetation(exact.x, exact.y)

    verdict = ds.filter_episode(serialized(trajectory, goal), 100.0, bev)
    assert verdict == ds.filter_episode(ds.Episode(
        episode_id="e-000000", scene_id="demo", trajectory=trajectory, instruction=None,
        image_refs=[f"r{k}" for k in range(len(trajectory.poses))]), 100.0, bev)
    assert verdict.accepted


def record_free_edges(monkeypatch) -> set[tuple[str, ...]]:
    """The set that every free ``segment_free_coords`` call of the search
    adds its coordinates to, as float hex strings."""
    free_edges: set[tuple[str, ...]] = set()
    check = tg.segment_free_coords

    def recording_check(grid, *coords):
        free = check(grid, *coords)
        if free:
            free_edges.add(tuple(float.hex(c) for c in coords))
        return free

    monkeypatch.setattr(tg, "segment_free_coords", recording_check)
    return free_edges


def assert_rollout_edges_checked(traj: tg.Trajectory, free_edges: set) -> None:
    poses = tg.rollout(traj.start, traj.actions)
    assert poses == traj.poses
    moved = [(a, b) for a, b, action in zip(poses, poses[1:], traj.actions)
             if action.kind not in (tg.ActionKind.TURN_LEFT, tg.ActionKind.TURN_RIGHT,
                                    tg.ActionKind.STOP)]
    assert moved
    for a, b in moved:
        coords = (*a.position.as_tuple(), *b.position.as_tuple())
        assert tuple(float.hex(c) for c in coords) in free_edges


def test_search_edges_are_rollout_segments_bit_for_bit(monkeypatch):
    # astar_search inlines lattice_pose's expressions; every edge of the
    # returned path was checked on exactly the floats rollout gives.
    free_edges = record_free_edges(monkeypatch)
    cfg = tg.TrajGenConfig(height_range=(3.0, 27.0))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        grid = random_obstacle_grid(rng)
        start = tg.Pose(Point3(*(float(v) for v in rng.uniform(2.0, 20.0, 2)), 12.0),
                        30.0 * int(rng.integers(12)))
        free_edges.clear()
        try:
            traj = tg.astar_search(start, Point3(80.0, 85.0, 15.0), grid, cfg)
        except tg.NoPathError:
            continue
        assert_rollout_edges_checked(traj, free_edges)


@pytest.mark.parametrize("segments", [2, 3])
def test_chained_search_edges_are_rollout_segments_bit_for_bit(desk_bundle, monkeypatch,
                                                               segments):
    # Every segment is searched from the episode's start, so its edges
    # were checked on the floats that rollout, validate and eval replay give.
    bundle, cfg = desk_bundle
    free_edges = record_free_edges(monkeypatch)
    chained = 0
    for seed in range(30):
        free_edges.clear()
        try:
            traj, _ = tg.chain_trajectories(segments, bundle.landmarks, bundle.bev,
                                            bundle.nav_grid, cfg.trajgen,
                                            np.random.default_rng(seed))
        except tg.TrajGenError:
            continue
        chained += 1
        assert_rollout_edges_checked(traj, free_edges)
    assert chained >= 20


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(x=st.floats(25.0, 55.0), y=st.floats(25.0, 55.0), z=st.floats(9.0, 18.0),
       yaw=st.integers(0, 11), goal_angle=st.floats(0.0, 2.0 * math.pi),
       goal_dist=st.floats(10.0, 22.0), pick=st.floats(0.0, 1.0))
def test_search_validate_and_replay_agree_next_to_a_voxel_face(
        desk_bundle, x, y, z, yaw, goal_angle, goal_dist, pick):
    # A later pose of a search on an open grid and its 9-digit rounding
    # straddle a voxel face, with the rounded side occupied. On that grid,
    # the first path and a new search's path get one collision verdict
    # from the search's segment checks, from `validate` and from replay.
    bundle, cfg = desk_bundle
    tcfg = tg.TrajGenConfig(height_range=(3.0, 27.0))
    start = tg.Pose(Point3(round_sig(x), round_sig(y), round_sig(z)), 30.0 * yaw)
    goal = Point3(round_sig(x + goal_dist * math.cos(goal_angle)),
                  round_sig(y + goal_dist * math.sin(goal_angle)), round_sig(z))
    dims = (80, 80, 30)
    open_grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=dims,
                          occupancy=np.zeros(dims, dtype=bool))
    first = tg.astar_search(start, goal, open_grid, tcfg)
    # (pose, axis) pairs whose coordinate is not already a 9-digit float
    faces = [(p.position, axis) for p in first.poses[1:]
             for axis in (0, 1)
             if abs(p.position.as_tuple()[axis]
                    - round_sig(p.position.as_tuple()[axis])) > 1e-12]
    assume(faces)
    exact, axis = faces[min(int(pick * len(faces)), len(faces) - 1)]
    rounded = Point3(round_sig(exact.x), round_sig(exact.y), round_sig(exact.z))
    grid = boundary_grid(exact, rounded, 0.0, 80.0, height=30, axis=axis)
    assume(tg.is_free(grid, start.position))
    scene = over_grid(bundle, grid)
    try:
        found = tg.astar_search(start, goal, grid, tcfg)
    except tg.NoPathError:
        found = None

    for traj in filter(None, (first, found)):
        rolled = tg.rollout(traj.start, traj.actions)
        search_free = all(segment_free(grid, a.position, b.position)
                          for a, b in zip(rolled, rolled[1:]))
        episode = serialized(traj, goal)
        validate_free = "collision" not in validate_kinds(episode, scene, cfg)
        t = episode.trajectory
        replay_free = not ev.replay(t.start, t.actions, grid).collided
        assert search_free == validate_free == replay_free
        assert search_free or traj is first
        event(f"{'first' if traj is first else 'new'} path free: {search_free}")


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(demo=st.booleans(), seed=st.integers(0, 2**32 - 1),
       fraction=st.tuples(*[st.floats(0.0, 1.0)] * 3),
       offset=st.tuples(*[st.integers(-6, 6)] * 4), kz=st.integers(-3, 3),
       yaw=st.integers(0, 11), steps=st.sampled_from([2, 3]))
def test_merged_forward_is_free_exactly_when_its_3m_steps_are(desk_bundle, demo, seed, fraction,
                                                              offset, kz, yaw, steps):
    # Differential: the search settles 3 m steps and writes a run of two or
    # three of them as one 6 or 9 m forward swept once; that sweep gives
    # the steps' verdict, on the floats lattice_pose places them at.
    grid = desk_bundle[0].nav_grid if demo else random_obstacle_grid(np.random.default_rng(seed))
    lo, hi = grid.origin, grid.origin + grid.voxel_size * np.array(grid.dims)
    origin = Point3(*(float(l + f * (h - l)) for l, f, h in zip(lo, fraction, hi)))
    chain = [(*offset, kz, yaw)]
    for _ in range(steps):
        chain.append(tg.advance(chain[-1], tg.Action.FORWARD_3))
    assert tg.advance(chain[0], tg.forward(3.0 * steps)) == chain[-1]
    points = [tg.lattice_pose(origin, state).position for state in chain]
    stepwise = all(segment_free(grid, a, b) for a, b in zip(points, points[1:]))
    assert segment_free(grid, points[0], points[-1]) == stepwise
    event(f"{'demo' if demo else 'random'} grid, {steps} steps free: {stepwise}")


MOVES = [tg.forward(3.0), tg.forward(6.0), tg.forward(9.0), tg.TURN_LEFT, tg.TURN_RIGHT,
         tg.MOVE_UP, tg.MOVE_DOWN]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), x=st.floats(-5.0, 105.0), y=st.floats(-5.0, 105.0),
       z=st.floats(-3.0, 33.0), yaw=st.integers(0, 11),
       turns=st.lists(st.sampled_from([tg.TURN_LEFT, tg.TURN_RIGHT]), max_size=3),
       moves=st.lists(st.sampled_from(MOVES), max_size=25))
def test_validate_collision_is_the_first_blocked_pose_pair(desk_bundle, seed, x, y, z, yaw,
                                                           turns, moves):
    # Differential: `validate` finds collisions by replay, as `eval` does;
    # its violation is the one the walk over every pose pair gives, also
    # for a start in a box or off the grid, turns before the first move
    # and moves that leave the grid.
    bundle, cfg = desk_bundle
    grid = random_obstacle_grid(np.random.default_rng(seed))
    start = tg.Pose(Point3(x, y, z), 30.0 * yaw)
    episode = ds.episode_from_dict(ds.episode_to_dict(ds.Episode(
        episode_id="e-000000", scene_id="demo",
        trajectory=tg.Trajectory(start, [*turns, *moves, tg.STOP]), instruction=None,
        image_refs=[f"r{k}" for k in range(len(turns) + len(moves) + 2)])))
    k = first_blocked_pose_pair(grid, episode.trajectory.poses)
    violations = validate_violations(episode, over_grid(bundle, grid), cfg)
    collisions = [(v.kind, v.detail) for v in violations if v.kind == "collision"]
    assert collisions == ([] if k is None else
                          [("collision", f"segment {k} crosses occupied space")])
    event(f"start free: {tg.is_free(grid, episode.trajectory.start.position)}")
    event(f"collision: {'none' if k is None else 'at 0' if k == 0 else 'later'}")


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.floats(1e-3, 1e5), st.floats(-1e5, -1e-3),
                 st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
                           st.integers(-3, 4))))
def test_round_sig_is_a_fixed_point_that_survives_json(value):
    snapped = round_sig(value)
    assert round_sig(snapped) == snapped
    assert json.loads(json.dumps(snapped)) == snapped
