from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_grid, random_obstacle_grid
from oracles import replay_lattice_walk
from uavnav.evaluation import (EvalResult, ReplayResult, aggregate, replay,
                               score)
from uavnav.geometry import Point3
from uavnav.occupancy import VoxelGrid
from uavnav.trajgen import (MOVE_DOWN, MOVE_UP, STOP, TURN_LEFT, TURN_RIGHT,
                            Action, Pose, forward, rollout)

F3, F6 = forward(3.0), forward(6.0)


def start_pose(x=10.0, y=10.0, z=10.0, yaw=0.0) -> Pose:
    return Pose(Point3(x, y, z), yaw)


class TestReplay:
    def test_stop_only(self):
        result = replay(start_pose(), [STOP], empty_grid())
        assert result.final == start_pose()
        assert result.executed_length == 0.0
        assert not result.collided

    def test_two_forwards(self):
        result = replay(start_pose(), [F3, F3, STOP], empty_grid())
        assert result.executed_length == pytest.approx(6.0)
        assert result.final.position.x == pytest.approx(16.0)

    def test_random_rollouts_match_distance_sum_oracle(self):
        rng = np.random.default_rng(51)
        grid = empty_grid(dims=(300, 300, 60))
        pool = [F3, F6, forward(9.0), TURN_LEFT, TURN_RIGHT, MOVE_UP, MOVE_DOWN]
        for _ in range(20):
            actions = [pool[i] for i in rng.integers(0, len(pool), size=40)]
            actions.append(STOP)
            start = Pose(Point3(150.0, 150.0, 30.0), 30.0 * rng.integers(0, 12))
            result = replay(start, actions, grid)
            poses = rollout(start, actions)
            expected = sum(a.position.distance_to(b.position)
                           for a, b in zip(poses, poses[1:]))
            assert result.executed_length == pytest.approx(expected, rel=1e-12)
            assert result.final == poses[-1]

    def test_collision_halts_in_place_and_continues(self):
        occ = np.zeros((30, 30, 20), dtype=bool)
        occ[14, :, :] = True  # wall across x=14
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(30, 30, 20),
                         occupancy=occ)
        result = replay(start_pose(x=10.0), [F6, TURN_LEFT, F3, STOP], grid)
        assert result.collided
        assert result.first_collision_index == 0
        # blocked forward is a no-op; the turn still happens, then a free move
        assert result.final.yaw == 30.0
        assert result.executed_length == pytest.approx(3.0)

    def test_stops_consuming_after_first_stop(self):
        result = replay(start_pose(), [F3, STOP, F3, F3], empty_grid())
        assert result.executed_length == pytest.approx(3.0)

    def test_replays_every_action_up_to_stop(self):
        # The step cap is eval's (cli.cmd_eval); validate replays it all.
        result = replay(start_pose(), [TURN_LEFT] * 1000 + [STOP], empty_grid())
        assert len(result.path) == 1002

    def test_start_not_free_is_a_collision_at_index_zero(self):
        grid = empty_grid()
        grid.occupancy[grid.cell_of(start_pose().position)] = True
        result = replay(start_pose(), [TURN_LEFT, F3, STOP], grid)
        assert (result.collided, result.first_collision_index) == (True, 0)
        # the turn still happens and the move halts, as from any blocked move
        assert result.final == Pose(start_pose().position, 30.0)
        assert result.executed_length == 0.0


REPLAY_GRID = random_obstacle_grid(np.random.default_rng(29), dims=(60, 60, 24), n_boxes=10)


@settings(max_examples=300, deadline=None)
@given(cell=st.tuples(st.integers(0, 59), st.integers(0, 59), st.integers(0, 23)),
       offset=st.tuples(*[st.floats(0.0, 0.999)] * 3), heading=st.integers(0, 11),
       actions=st.lists(st.sampled_from([a for a in Action if a is not STOP]), max_size=60),
       tail=st.sampled_from([[STOP], [STOP, F3, TURN_LEFT], []]))
def test_replay_equals_lattice_pose_walk(cell, offset, heading, actions, tail):
    # Starts anywhere in the grid, occupied cells included; random moves
    # leave the grid or hit boxes, and a Stop may end the list or not.
    start = Pose(Point3(*(c + o for c, o in zip(cell, offset))), 30.0 * heading)
    got = replay(start, actions + tail, REPLAY_GRID)
    want = replay_lattice_walk(start, actions + tail, REPLAY_GRID)
    assert got == want
    assert repr(got) == repr(want)  # every float bit for bit, the sign of zero included


class TestScore:
    def replay_result(self, final, path, executed):
        return ReplayResult(final=final, path=path, executed_length=executed,
                            collided=False, first_collision_index=None)

    def test_exact_goal_perfect_score(self):
        pose = start_pose()
        r = self.replay_result(pose, [pose], 100.0)
        out = score(r, pose.position, gt_length=100.0)
        assert out.ne == 0.0
        assert out.success and out.oracle_success
        assert out.spl_term == 1.0

    def test_far_stop_with_grazing_path(self):
        final = start_pose(x=35.0)  # 25 m from goal
        grazing = start_pose(x=10.0, y=28.0)  # 18 m from goal
        goal = Point3(10.0, 10.0, 10.0)
        r = self.replay_result(final, [start_pose(x=60.0), grazing, final], 80.0)
        out = score(r, goal, gt_length=70.0)
        assert not out.success
        assert out.oracle_success
        assert out.spl_term == 0.0

    def test_spl_halved_when_path_doubled(self):
        final = start_pose()
        r = self.replay_result(final, [final], 200.0)
        out = score(r, final.position, gt_length=100.0)
        assert out.success
        assert out.spl_term == pytest.approx(0.5)

    def test_gt_length_must_be_positive(self):
        final = start_pose()
        r = self.replay_result(final, [final], 10.0)
        with pytest.raises(ValueError):
            score(r, final.position, gt_length=0.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            fx, fy = rng.uniform(-50, 50, size=2)
            gx, gy = rng.uniform(-50, 50, size=2)
            executed = float(rng.uniform(1, 200))
            gt = float(rng.uniform(1, 200))
            radius = float(rng.uniform(5, 40))
            scale = float(rng.uniform(0.1, 10))

            def result_at(k):
                final = Pose(Point3(fx * k, fy * k, 0.0), 0.0)
                return self.replay_result(final, [final], executed * k)

            base = score(result_at(1.0), Point3(gx, gy, 0.0), gt, radius)
            scaled = score(result_at(scale), Point3(gx * scale, gy * scale, 0.0),
                           gt * scale, radius * scale)
            assert scaled.success == base.success
            assert scaled.oracle_success == base.oracle_success
            assert scaled.spl_term == pytest.approx(base.spl_term, rel=1e-9)
            assert scaled.ne == pytest.approx(base.ne * scale, rel=1e-9)


def eval_result(ne, success, oracle, spl):
    return EvalResult(ne=ne, success=success, oracle_success=oracle,
                      spl_term=spl, executed_length=1.0, gt_length=1.0)


class TestAggregate:
    def test_single_success(self):
        summary = aggregate([eval_result(3.0, True, True, 0.8)])
        assert summary.sr == 1.0
        assert summary.osr == 1.0
        assert summary.spl == pytest.approx(0.8)

    def test_mixed_pair(self):
        summary = aggregate([eval_result(0.0, True, True, 1.0),
                             eval_result(50.0, False, False, 0.0)])
        assert summary.sr == 0.5
        assert summary.ne == pytest.approx(25.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_50_result_fixture_matches_spreadsheet_style_oracle(self):
        rng = np.random.default_rng(53)
        results = []
        for _ in range(50):
            ne = float(rng.uniform(0, 60))
            success = bool(ne <= 20.0)
            oracle = success or bool(rng.random() < 0.3)
            gt = float(rng.uniform(10, 200))
            executed = float(rng.uniform(10, 300))
            spl = (gt / max(gt, executed)) if success else 0.0
            results.append(EvalResult(ne=ne, success=success,
                                      oracle_success=oracle, spl_term=spl,
                                      executed_length=executed, gt_length=gt))
        summary = aggregate(results)
        # independent plain-loop recomputation
        total_ne = 0.0
        n_success = 0
        n_oracle = 0
        total_spl = 0.0
        for r in results:
            total_ne += r.ne
            n_success += 1 if r.success else 0
            n_oracle += 1 if r.oracle_success else 0
            total_spl += r.spl_term
        assert summary.ne == pytest.approx(total_ne / 50, rel=1e-9)
        assert summary.sr == pytest.approx(n_success / 50, rel=1e-9)
        assert summary.osr == pytest.approx(n_oracle / 50, rel=1e-9)
        assert summary.spl == pytest.approx(total_spl / 50, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(1, 300),
                              st.floats(1, 300), st.floats(5, 40)),
                    min_size=1, max_size=20))
    def test_spl_le_sr_le_osr(self, rows):
        results = []
        for ne, gt, executed, radius in rows:
            final = Pose(Point3(ne, 0.0, 0.0), 0.0)
            r = ReplayResult(final=final, path=[final], executed_length=executed,
                             collided=False, first_collision_index=None)
            results.append(score(r, Point3(0, 0, 0), gt, radius))
        summary = aggregate(results)
        assert summary.spl <= summary.sr + 1e-12
        assert summary.sr <= summary.osr + 1e-12
        for r in results:
            assert r.spl_term <= (1.0 if r.success else 0.0)
            assert (not r.success) or r.oracle_success


class TestSelfConsistency:
    def test_generated_episodes_replay_successfully(self, demo_bundle, desk_cfg,
                                                    small_batch):
        for episode in small_batch[:20]:
            t = episode.trajectory
            result = replay(t.start, t.actions, demo_bundle.nav_grid)
            assert not result.collided
            goal = Point3(*episode.meta["goal"])
            out = score(result, goal, episode.meta["gt_length"], radius=20.0)
            assert out.success
            assert out.oracle_success
