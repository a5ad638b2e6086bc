from __future__ import annotations

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (exhaustive_greedy_merge, merge_log_json, merge_tokens_full_sort,
                     split_runs_oracle, visibility_per_call)
from uavnav.geometry import Point3
from uavnav.keyframe import (KeyframeCandidate, KeyframeSet, MemoryBank,
                             MemoryBankConfig, MergeEvent, TokenMatrix,
                             _cosine_matrix, aim_cell, assemble_observation,
                             confirm_keyframes, grid_pool, landmark_visibility,
                             load_tokens, memory_push, merge_tokens, save_merge_log,
                             save_tokens, select_candidates, sight_targets)
from uavnav.occupancy import VoxelGrid
from uavnav.segmentation import LandmarkInstance
from uavnav.trajgen import (MOVE_UP, STOP, TURN_LEFT, TURN_RIGHT, Pose,
                            forward)

F3, F9, L, R, U, S = forward(3.0), forward(9.0), TURN_LEFT, TURN_RIGHT, MOVE_UP, STOP


def tm(rows, frame_index=0) -> TokenMatrix:
    return TokenMatrix(tokens=np.asarray(rows, dtype=float),
                       frame_index=frame_index)


class TestSelectCandidates:
    def test_all_forward_no_transitions(self):
        assert select_candidates([F3, F3, F3, S]) == []

    def test_turn_block_transitions(self):
        candidates = select_candidates([F3, F3, L, L, F3], window=2)
        assert [c.transition_index for c in candidates] == [2, 4]
        assert candidates[0].frame_indices == [0, 1, 2, 3, 4]
        assert candidates[1].frame_indices == [2, 3, 4, 5]

    def test_slight_turn_produces_no_transition(self):
        assert select_candidates([F3, F3, L, F3, F3, S]) == []

    def test_window_zero(self):
        candidates = select_candidates([F3, U, S], window=0)
        assert [c.frame_indices for c in candidates] == [[1]]

    def test_30_random_sequences_match_scan_oracle(self):
        rng = np.random.default_rng(61)
        pool = [F3, F9, L, R, U]
        for _ in range(30):
            actions = [pool[i] for i in rng.integers(0, len(pool),
                                                     size=rng.integers(1, 25))]
            groups = split_runs_oracle([a.kind.value for a in actions])
            expected = []
            index = 0
            for g, group in enumerate(groups):
                if g > 0:
                    expected.append(index)
                index += len(group)
            got = [c.transition_index for c in select_candidates(actions)]
            assert got == expected


class TestConfirmKeyframes:
    def frames_for(self, n):
        rng = np.random.default_rng(62)
        return {i: tm(rng.normal(size=(4, 3)), frame_index=i) for i in range(n)}

    def test_window_without_landmarks_dropped(self):
        candidates = [KeyframeCandidate(2, [1, 2, 3])]
        out = confirm_keyframes(candidates, {1: set(), 2: set(), 3: set()},
                                self.frames_for(5))
        assert out == []

    def test_window_fully_visible_kept_whole(self):
        frames = self.frames_for(5)
        candidates = [KeyframeCandidate(2, [1, 2, 3])]
        out = confirm_keyframes(candidates, {1: {7}, 2: {7}, 3: {7}}, frames)
        assert len(out) == 1
        assert out[0].frame_indices == [1, 2, 3]
        assert out[0].reference is frames[1]

    def test_mixed_fixture_matches_set_filter_oracle(self):
        rng = np.random.default_rng(63)
        frames = self.frames_for(30)
        visibility = {i: ({1} if rng.random() < 0.5 else set()) for i in range(30)}
        candidates = [KeyframeCandidate(t, list(range(max(0, t - 2),
                                                      min(29, t + 2) + 1)))
                      for t in (4, 11, 19, 26)]
        out = confirm_keyframes(candidates, visibility, frames)
        expected = []
        for c in candidates:
            kept = [i for i in c.frame_indices if visibility[i]]
            if kept:
                expected.append((c.transition_index, kept))
        assert [(s.transition_index, s.frame_indices) for s in out] == expected


class TestMergeTokens:
    def test_identical_frames_fixed_point(self):
        rng = np.random.default_rng(64)
        ref = rng.normal(size=(6, 4))
        frames = [tm(ref, frame_index=i) for i in range(4)]
        out = merge_tokens(KeyframeSet(0, list(range(4)), frames), 0.9)
        assert np.allclose(out.tokens, ref, atol=1e-12)
        assert out.count == 6

    def test_orthogonal_tokens_nothing_merges(self):
        ref = tm([[1.0, 0.0], [0.0, 1.0]])
        other = tm([[1.0, -1.0], [-1.0, 1.0]])  # 45 degrees off both axes
        log: list[MergeEvent] = []
        out = merge_tokens(KeyframeSet(0, [0, 1], [ref, other]), 0.9, log=log)
        assert np.array_equal(out.tokens, ref.tokens)
        assert log == []

    def test_two_frame_example_matches_hand_computed_merge(self):
        # Similarities: (r0,f0)=0.995..., (r2,f1)=0.9899...; everything else
        # is below 0.9, and f2 is discarded. Averages computed by hand.
        root2 = math.sqrt(2.0)
        ref = tm([[1.0, 0.0], [0.0, 1.0], [1 / root2, 1 / root2]])
        frame = tm([[2.0, 0.2], [0.6, 0.8], [-1.0, 0.0]], frame_index=1)
        keyframe_set = KeyframeSet(0, [0, 1], [ref, frame])
        log: list[MergeEvent] = []
        out = merge_tokens(keyframe_set, 0.9, log=log)
        expected = np.array([
            [1.5, 0.1],
            [0.0, 1.0],
            [(1 / root2 + 0.6) / 2, (1 / root2 + 0.8) / 2],
        ])
        assert np.allclose(out.tokens, expected, atol=1e-12)
        assert [(e.reference_token, e.frame_token) for e in log] == [(0, 0), (2, 1)]
        # and the exhaustive scan oracle agrees exactly
        oracle = exhaustive_greedy_merge(ref.tokens, frame.tokens, 0.9)
        assert np.allclose(out.tokens, oracle, atol=1e-12)

    def test_output_size_always_matches_reference(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            n_ref = int(rng.integers(1, 10))
            frames = [tm(rng.normal(size=(n_ref, 3)))]
            for k in range(int(rng.integers(1, 4))):
                frames.append(tm(rng.normal(size=(int(rng.integers(1, 12)), 3)),
                                 frame_index=k + 1))
            out = merge_tokens(KeyframeSet(0, list(range(len(frames))), frames),
                               0.7)
            assert out.count == n_ref

    def test_threshold_monotonicity_two_frames(self):
        rng = np.random.default_rng(66)
        for _ in range(40):
            ref = tm(rng.normal(size=(8, 4)))
            frame = tm(rng.normal(size=(8, 4)), frame_index=1)
            counts = []
            for threshold in (0.2, 0.5, 0.8, 0.95):
                log: list[MergeEvent] = []
                merge_tokens(KeyframeSet(0, [0, 1], [ref, frame]), threshold,
                             log=log)
                counts.append(len(log))
            assert counts == sorted(counts, reverse=True)

    def test_permutation_invariance_with_distinct_similarities(self):
        rng = np.random.default_rng(67)
        ref = tm(rng.normal(size=(5, 6)))
        frame_rows = rng.normal(size=(7, 6))
        base = merge_tokens(KeyframeSet(0, [0, 1], [ref, tm(frame_rows, 1)]), 0.3)
        perm = rng.permutation(7)
        shuffled = merge_tokens(
            KeyframeSet(0, [0, 1], [ref, tm(frame_rows[perm], 1)]), 0.3)
        assert np.allclose(base.tokens, shuffled.tokens, atol=1e-12)

    def test_threshold_one_returns_reference(self):
        rng = np.random.default_rng(68)
        ref = tm(rng.normal(size=(4, 3)))
        frame = tm(rng.normal(size=(4, 3)), frame_index=1)
        out = merge_tokens(KeyframeSet(0, [0, 1], [ref, frame]), 1.0)
        assert np.array_equal(out.tokens, ref.tokens)

    def test_zero_norm_token_never_merges(self):
        ref = tm([[0.0, 0.0], [1.0, 0.0]])
        frame = tm([[0.0, 0.0], [1.0, 0.0]], frame_index=1)
        log: list[MergeEvent] = []
        out = merge_tokens(KeyframeSet(0, [0, 1], [ref, frame]), 0.5, log=log)
        assert [(e.reference_token, e.frame_token) for e in log] == [(1, 1)]
        assert np.array_equal(out.tokens[0], [0.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge_tokens(KeyframeSet(0, [0, 1],
                                     [tm([[1.0, 0.0]]), tm([[1.0, 0.0, 0.0]], 1)]),
                         0.9)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nan_similarity_never_merges(self):
        # 1e200 squared overflows, so the norms and the dot product are inf
        # and the similarity is inf / inf = NaN; the average stays finite.
        ref = tm([[1e200, 1e200]])
        frame = tm([[1e200, 1e200]], frame_index=1)
        keyframe_set = KeyframeSet(0, [0, 1], [ref, frame])
        assert np.isnan(_cosine_matrix(ref.tokens, frame.tokens)).all()
        log: list[MergeEvent] = []
        out = merge_tokens(keyframe_set, 0.5, log=log)
        assert np.array_equal(out.tokens, ref.tokens)
        assert log == []
        # the full sort put the lone NaN last and, with nothing before it, merged it
        full_log: list[MergeEvent] = []
        merge_tokens_full_sort(keyframe_set, 0.5, log=full_log)
        assert [(e.reference_token, e.frame_token) for e in full_log] == [(0, 0)]
        assert math.isnan(full_log[0].similarity)


@st.composite
def merge_cases(draw):
    """A keyframe set and a threshold, with many tied similarities.

    Rows come from a small pool of vectors rounded to 0 or 1 decimals, so
    rows repeat within and across frames, and some rows are zero. The 1-4
    later frames have their own token counts. The threshold is drawn from
    (0, 1], is 1.0, or is a similarity the reference and first later
    frame attain.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    pool = np.round(rng.uniform(-2.0, 2.0, size=(draw(st.integers(1, 8)), dim)),
                    draw(st.sampled_from([0, 1])))
    zero_share = draw(st.sampled_from([0.0, 0.2]))

    def frame(n: int, k: int) -> TokenMatrix:
        rows = pool[rng.integers(0, len(pool), size=n)]
        rows[rng.random(n) < zero_share] = 0.0
        return TokenMatrix(rows, frame_index=k)

    frames = [frame(draw(st.integers(1, 12)), k) for k in range(draw(st.integers(2, 5)))]
    sims = _cosine_matrix(frames[0].tokens, frames[1].tokens).ravel()
    attained = sorted(set(sims[(sims > 0.0) & (sims <= 1.0)].tolist()))
    choices = [st.floats(0.0, 1.0, exclude_min=True), st.just(1.0)]
    if attained:
        choices.append(st.sampled_from(attained))
    threshold = draw(st.one_of(choices))
    return KeyframeSet(0, list(range(len(frames))), frames), threshold


@settings(max_examples=400, deadline=None)
@given(case=merge_cases())
def test_merge_matches_full_sort(case):
    keyframe_set, threshold = case
    log: list[MergeEvent] = []
    out = merge_tokens(keyframe_set, threshold, log=log)
    full_log: list[MergeEvent] = []
    expected = merge_tokens_full_sort(keyframe_set, threshold, log=full_log)
    assert np.array_equal(out.tokens, expected.tokens)
    assert out.tokens.tobytes() == expected.tokens.tobytes()  # bit for bit
    assert log == full_log


@settings(max_examples=200, deadline=None)
@given(case=merge_cases())
def test_logged_similarities_finite_and_above_threshold(case):
    # what lets save_merge_log write every logged event with float.__repr__
    keyframe_set, threshold = case
    log: list[MergeEvent] = []
    merge_tokens(keyframe_set, threshold, log=log)
    assert all(math.isfinite(e.similarity) and threshold < e.similarity <= 1.0 for e in log)


def test_merge_event_repr_and_keywords():
    event = MergeEvent(frame_index=3, reference_token=1, frame_token=2, similarity=0.5)
    assert event == MergeEvent(3, 1, 2, 0.5)
    assert repr(event) == \
        "MergeEvent(frame_index=3, reference_token=1, frame_token=2, similarity=0.5)"


INDICES = st.integers(0, 2**31)
SIMILARITIES = st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from(
    [1.0, 5e-324, 1 / 3, math.nextafter(0.1, 1.0)])
MERGE_EVENTS = st.builds(MergeEvent, INDICES, INDICES, INDICES, SIMILARITIES)


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("merge_log")


@settings(max_examples=300, deadline=None)
@given(events=st.lists(MERGE_EVENTS, max_size=40))
@example(events=[])
@example(events=[MergeEvent(0, 0, 0, 1.0)])
@example(events=[MergeEvent(2**31, 7, 2**31, s) for s in (1.0, 5e-324, 1 / 3, 0.1000001)] * 25)
def test_merge_log_bytes_match_json_dumps(log_dir, events):
    path = log_dir / "merges.json"
    save_merge_log(events, path)
    assert path.read_bytes() == merge_log_json(events).encode()


@pytest.mark.parametrize("similarity", [math.nan, math.inf, -math.inf])
def test_merge_log_refuses_non_finite_similarity(tmp_path, similarity):
    path = tmp_path / "merges.json"
    with pytest.raises(ValueError, match="non-finite similarity"):
        save_merge_log([MergeEvent(0, 0, 0, 0.5), MergeEvent(1, 2, 3, similarity)], path)
    assert list(tmp_path.iterdir()) == []


class TestGridPool:
    def test_identity(self):
        m = tm(np.arange(12.0).reshape(6, 2))
        out = grid_pool(m, 6)
        assert np.array_equal(out.tokens, m.tokens)

    def test_global_mean(self):
        m = tm(np.arange(12.0).reshape(6, 2))
        out = grid_pool(m, 1)
        assert np.allclose(out.tokens, m.tokens.mean(axis=0, keepdims=True))

    def test_square_blocks_hand_computed(self):
        m = tm(np.arange(16.0).reshape(16, 1))
        out = grid_pool(m, 4)
        assert np.allclose(out.tokens.ravel(), [2.5, 4.5, 10.5, 12.5])

    def test_linear_grouping_when_not_square(self):
        m = tm(np.arange(12.0).reshape(12, 1))
        out = grid_pool(m, 4)
        assert np.allclose(out.tokens.ravel(), [1.0, 4.0, 7.0, 10.0])

    def test_uneven_linear_grouping(self):
        m = tm(np.arange(10.0).reshape(10, 1))
        out = grid_pool(m, 4)
        # group sizes 3,3,2,2 over the linear order
        assert np.allclose(out.tokens.ravel(), [1.0, 4.0, 6.5, 8.5])

    def test_mean_preserved_over_equal_groups(self):
        rng = np.random.default_rng(69)
        m = tm(rng.normal(size=(36, 5)))
        for out_tokens in (1, 4, 9, 36):
            pooled = grid_pool(m, out_tokens)
            assert np.allclose(pooled.tokens.mean(axis=0), m.tokens.mean(axis=0),
                               atol=1e-12)

    def test_budget_larger_than_count_rejected(self):
        with pytest.raises(ValueError):
            grid_pool(tm([[1.0]]), 2)


class TestMemoryBank:
    def cfg(self, **kw):
        defaults = dict(capacity=2, pooled_tokens=1, current_tokens=4)
        defaults.update(kw)
        return MemoryBankConfig(**defaults)

    def test_push_into_empty(self):
        bank = MemoryBank()
        memory_push(bank, tm([[1.0, 2.0]]), self.cfg())
        assert len(bank) == 1

    def test_fifo_keeps_last_two(self):
        bank = MemoryBank()
        cfg = self.cfg()
        a, b, c = (tm([[float(k), 0.0]], frame_index=k) for k in range(3))
        for item in (a, b, c):
            memory_push(bank, item, cfg)
        assert bank.items == [b, c]

    def test_ten_pushes_keep_last_two_in_order(self):
        bank = MemoryBank()
        cfg = self.cfg()
        items = [tm([[float(k), 1.0]], frame_index=k) for k in range(10)]
        for item in items:
            memory_push(bank, item, cfg)
        assert bank.items == items[-2:]

    def test_wrong_token_count_rejected(self):
        with pytest.raises(ValueError):
            memory_push(MemoryBank(), tm([[1.0], [2.0]]), self.cfg())


class TestAssembleObservation:
    def test_empty_bank_current_only(self):
        cfg = MemoryBankConfig(capacity=2, pooled_tokens=1, current_tokens=256)
        current = tm(np.random.default_rng(70).normal(size=(256, 8)))
        out = assemble_observation(MemoryBank(), current, cfg)
        assert out.count == 256

    def test_full_bank_prepends_pooled_tokens(self):
        cfg = MemoryBankConfig(capacity=2, pooled_tokens=1, current_tokens=256)
        rng = np.random.default_rng(71)
        bank = MemoryBank()
        for k in range(3):
            memory_push(bank, tm(rng.normal(size=(1, 8)), frame_index=k), cfg)
        current = tm(rng.normal(size=(256, 8)), frame_index=9)
        out = assemble_observation(bank, current, cfg)
        assert out.count == 2 * 1 + 256

    def test_ordering_oldest_bank_tokens_first(self):
        cfg = MemoryBankConfig(capacity=3, pooled_tokens=1, current_tokens=2)
        bank = MemoryBank()
        for k in range(3):
            memory_push(bank, tm([[float(k), 0.0]]), cfg)
        current = tm([[100.0, 0.0], [101.0, 0.0]])
        out = assemble_observation(bank, current, cfg)
        assert list(out.tokens[:, 0]) == [0.0, 1.0, 2.0, 100.0, 101.0]

    def test_token_count_mismatch_rejected(self):
        cfg = MemoryBankConfig(capacity=2, pooled_tokens=1, current_tokens=8)
        with pytest.raises(ValueError):
            assemble_observation(MemoryBank(), tm([[1.0]]), cfg)

    def test_observation_length_bounded_regardless_of_frames(self):
        cfg = MemoryBankConfig(capacity=2, pooled_tokens=1, current_tokens=16)
        rng = np.random.default_rng(72)
        bank = MemoryBank()
        for k in range(40):  # long trajectory worth of keyframes
            merged = merge_tokens(
                KeyframeSet(k, [0, 1], [tm(rng.normal(size=(16, 4))),
                                        tm(rng.normal(size=(16, 4)), 1)]), 0.9)
            memory_push(bank, grid_pool(merged, cfg.pooled_tokens), cfg)
        out = assemble_observation(bank, tm(rng.normal(size=(16, 4))), cfg)
        assert out.count <= cfg.capacity * cfg.pooled_tokens + cfg.current_tokens


class TestTokenIO:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(73)
        m = tm(rng.normal(size=(7, 5)).astype(np.float32).astype(float),
               frame_index=3)
        path = tmp_path / "tokens.bin"
        save_tokens(m, path)
        back = load_tokens(path, frame_index=3)
        assert back.count == 7 and back.dim == 5
        assert np.allclose(back.tokens, m.tokens, atol=1e-7)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01\x00")
        with pytest.raises(ValueError):
            load_tokens(path)

    @pytest.mark.parametrize("header, floats, message", [
        ((-4, 4), 16, "header counts (-4, 4) must both be >= 1"),
        ((4, 0), 0, "header counts (4, 0) must both be >= 1"),
        ((2, 2), 16, "header (2, 2) needs 32 bytes, the file holds 80"),
        ((4, 4), 15, "header (4, 4) needs 80 bytes, the file holds 76"),
    ], ids=["negative_rows", "zero_columns", "long_payload", "short_payload"])
    def test_header_must_match_the_payload(self, tmp_path, header, floats, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<2q", *header) + np.ones(floats, "<f4").tobytes())
        with pytest.raises(ValueError, match=re.escape(message)):
            load_tokens(path)


class TestLandmarkVisibility:
    @pytest.fixture()
    def scene(self):
        occ = np.zeros((60, 60, 30), dtype=bool)
        occ[28:33, 28:33, 0:20] = True  # target block, 20 m tall
        occ[20:22, 20:40, 0:15] = True  # a wall west of it
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(60, 60, 30),
                         occupancy=occ)
        landmark = LandmarkInstance(
            id=0, contour=[(28.5, 28.5), (32.5, 28.5), (32.5, 32.5), (28.5, 32.5)],
            centroid=(30.5, 30.5), height=20.0, area=25.0,
            cells=[(i, j) for i in range(28, 33) for j in range(28, 33)])
        return grid, landmark

    def test_facing_pose_sees_landmark(self, scene):
        grid, landmark = scene
        pose = Pose(Point3(45.0, 30.5, 10.0), 180.0)
        assert landmark_visibility(pose, sight_targets(grid, [landmark]), grid) == {0}

    def test_pose_facing_away_sees_nothing(self, scene):
        grid, landmark = scene
        pose = Pose(Point3(45.0, 30.5, 10.0), 0.0)
        assert landmark_visibility(pose, sight_targets(grid, [landmark]), grid) == set()

    def test_wall_blocks_sight_line(self, scene):
        grid, landmark = scene
        pose = Pose(Point3(10.0, 30.5, 10.0), 0.0)  # wall between
        assert landmark_visibility(pose, sight_targets(grid, [landmark]), grid) == set()

    def test_flying_above_wall_restores_sight(self, scene):
        grid, landmark = scene
        pose = Pose(Point3(10.0, 30.5, 28.0), 0.0)
        assert landmark_visibility(pose, sight_targets(grid, [landmark]), grid) == {0}

    def test_aim_cell_matches_nearest_by_loop(self):
        def reference(grid, cells, centroid):
            size = grid.voxel_size
            return min(cells, key=lambda c: (
                (grid.origin[0] + (c[0] + 0.5) * size - centroid[0]) ** 2
                + (grid.origin[1] + (c[1] + 0.5) * size - centroid[1]) ** 2))

        rng = np.random.default_rng(0)
        grid = VoxelGrid(origin=np.array([-3.7, 12.2, 0.0]), voxel_size=1.0,
                         dims=(80, 80, 4), occupancy=np.zeros((80, 80, 4), dtype=bool))
        for _ in range(200):
            i0, j0 = rng.integers(0, 60, size=2)
            cells = list({(int(i0 + i), int(j0 + j))
                          for i, j in rng.integers(0, 20, size=(30, 2))})
            centroid = tuple(rng.uniform(-10.0, 90.0, size=2))
            assert aim_cell(grid, cells, centroid) == reference(grid, cells, centroid)
        # A centroid on a shared corner ties four cells; both keep the first.
        grid = VoxelGrid(origin=np.zeros(3), voxel_size=1.0, dims=(8, 8, 1),
                         occupancy=np.zeros((8, 8, 1), dtype=bool))
        square = [(5, 6), (6, 6), (6, 5), (5, 5)]
        for first in range(4):
            cells = square[first:] + square[:first]
            assert aim_cell(grid, cells, (6.0, 6.0)) == reference(grid, cells, (6.0, 6.0)) \
                == cells[0]


@st.composite
def visibility_cases(draw):
    """A small random grid, landmarks on it and poses around it. Centroids
    and pose coordinates are often whole or half voxels from the origin,
    so aim cells tie and poses sit on voxel faces; footprints often touch
    the grid edge, and some poses lie outside the grid or above its top."""
    nx, ny, nz = (draw(st.integers(2, 9)) for _ in range(3))
    size = draw(st.sampled_from([1.0, 0.5, 2.0, 1.5]))
    origin = np.array(draw(st.sampled_from([(0.0, 0.0, 0.0), (-3.25, 1.5, -2.0)])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occupancy = rng.random((nx, ny, nz)) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    grid = VoxelGrid(origin=origin, voxel_size=size, dims=(nx, ny, nz), occupancy=occupancy)

    def coordinate(axis: int, below: int, above: int) -> float:
        """Within ``below`` voxels under the grid to ``above`` over it."""
        n = grid.dims[axis]
        face = st.integers(-2 * below, 2 * (n + above)).map(
            lambda h: float(origin[axis] + 0.5 * h * size))
        return draw(face | st.floats(origin[axis] - below * size,
                                     origin[axis] + (n + above) * size))

    cell = st.tuples(st.sampled_from([0, nx - 1]) | st.integers(0, nx - 1),
                     st.sampled_from([0, ny - 1]) | st.integers(0, ny - 1))
    landmarks = []
    for lm_id in range(draw(st.integers(1, 3))):
        cells = draw(st.lists(cell, min_size=1, max_size=6))
        landmarks.append(LandmarkInstance(
            id=lm_id, contour=[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
            centroid=(coordinate(0, 0, 0), coordinate(1, 0, 0)),
            height=coordinate(2, 0, 1), area=1.0, cells=cells))
    poses = [Pose(Point3(coordinate(0, 1, 1), coordinate(1, 1, 1), coordinate(2, 1, 3)),
                  30.0 * draw(st.integers(0, 11)))
             for _ in range(draw(st.integers(1, 5)))]
    return grid, landmarks, poses, draw(st.sampled_from([30.0, 60.0, 90.0, 180.0]))


@settings(max_examples=400, deadline=None)
@given(case=visibility_cases())
def test_visibility_over_sight_targets_matches_per_call_aims(case):
    grid, landmarks, poses, fov = case
    targets = sight_targets(grid, landmarks)
    assert ({k: landmark_visibility(p, targets, grid, fov) for k, p in enumerate(poses)}
            == visibility_per_call(poses, landmarks, grid, fov))

