from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavnav import ConfigError
from uavnav.dataset import (DatasetReadError, Episode, IntegrityError,
                            compute_stats, episode_from_dict,
                            episode_to_dict, filter_episode, read_episodes,
                            round_sig, scan_episodes, split_dataset, write_episodes)
from uavnav.geometry import Point3
from uavnav.instructions import Instruction
from uavnav.occupancy import BevGrid, mark_vegetation
from uavnav.trajgen import STOP, Pose, Trajectory, forward


def make_episode(eid="ep-0", scene="demo", n_forward=4, altitude=30.0,
                 instruction=True, meta=None) -> Episode:
    actions = [forward(3.0)] * n_forward + [STOP]
    start = Pose(Point3(round_sig(10.123456789), 20.0, altitude), 0.0)
    t = Trajectory(start, actions, target_landmark_id=1)
    refs = [f"{eid}/frame_{i:05d}" for i in range(len(t.poses))]
    instr = Instruction(text="go straight to the tower",
                        sub_instructions=["go straight to the tower"]) \
        if instruction else None
    return Episode(episode_id=eid, scene_id=scene, trajectory=t,
                   instruction=instr, image_refs=refs, meta=meta or {"seed": 1})


def random_episode(rng: np.random.Generator, eid: str, scene: str) -> Episode:
    n = int(rng.integers(1, 12))
    pool = [forward(3.0), forward(6.0), forward(9.0)]
    actions = [pool[i] for i in rng.integers(0, 3, size=n)] + [STOP]
    start = Pose(Point3(round_sig(float(rng.uniform(-200, 200))),
                        round_sig(float(rng.uniform(-200, 200))),
                        round_sig(float(rng.uniform(10, 120)))),
                 30.0 * int(rng.integers(0, 12)))
    t = Trajectory(start, actions, target_landmark_id=int(rng.integers(0, 5)))
    refs = [f"{eid}/f{i}" for i in range(len(t.poses))]
    instr = Instruction(text=f"go to landmark {t.target_landmark_id}",
                        sub_instructions=[f"go to landmark {t.target_landmark_id}"])
    meta = {"seed": int(rng.integers(0, 1 << 31)),
            "gt_length": round_sig(float(t.path_length())), "created_at": None}
    return Episode(episode_id=eid, scene_id=scene, trajectory=t,
                   instruction=instr, image_refs=refs, meta=meta)


class TestFilterEpisode:
    def test_one_action_too_short(self):
        episode = make_episode(n_forward=0)
        verdict = filter_episode(episode)
        assert not verdict
        assert verdict.reason == "too_short"

    def test_151_actions_too_long(self):
        episode = make_episode(n_forward=150)  # 151 including Stop
        verdict = filter_episode(episode)
        assert verdict.reason == "too_long"

    def test_150_actions_accepted(self):
        episode = make_episode(n_forward=149)
        assert filter_episode(episode).accepted

    def test_mid_length_high_altitude_accepted(self):
        episode = make_episode(n_forward=74, altitude=30.0)
        assert filter_episode(episode, tree_height=15.0).accepted

    def test_damaged_image_rejected(self):
        episode = make_episode(meta={"damaged_image_indices": [2]})
        assert filter_episode(episode).reason == "damaged_image"

    def test_vegetation_altitude_rule(self):
        bev = BevGrid(origin=np.array([-50.0, -50.0]), cell_size=1.0,
                      dims=(200, 200), occupancy=np.zeros((200, 200), bool),
                      max_height=np.zeros((200, 200)))
        bev = mark_vegetation(bev, [(16.0, 20.0)], radius=30.0)
        low = make_episode(altitude=10.0)
        high = make_episode(altitude=30.0)
        assert filter_episode(low, tree_height=15.0, bev=bev).reason == \
            "below_tree_altitude"
        assert filter_episode(high, tree_height=15.0, bev=bev).accepted

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=300))
    def test_length_rule_property(self, n_actions):
        if n_actions == 0:
            return  # a trajectory always carries at least its Stop
        episode = make_episode(n_forward=n_actions - 1)
        verdict = filter_episode(episode)
        assert verdict.accepted == (2 <= n_actions <= 150)

    def test_idempotent(self):
        episodes = [make_episode(eid=f"e{i}", n_forward=i) for i in range(8)]
        kept = [e for e in episodes if filter_episode(e)]
        assert [e for e in kept if filter_episode(e)] == kept


class TestRoundTrip:
    def test_write_read_equality_100_episodes(self, tmp_path):
        rng = np.random.default_rng(41)
        episodes = [random_episode(rng, f"ep-{i:04d}", f"scene-{i % 3}")
                    for i in range(100)]
        path = tmp_path / "d.jsonl"
        assert write_episodes(episodes, path) == 100
        assert read_episodes(path) == episodes

    def test_corrupted_line_reports_line_number(self, tmp_path):
        episodes = [make_episode(eid=f"e{i}") for i in range(10)]
        path = tmp_path / "d.jsonl"
        write_episodes(episodes, path)
        lines = path.read_text().splitlines()
        lines[6] = lines[6][:25] + "#corrupt#" + lines[6][25:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetReadError) as err:
            read_episodes(path)
        assert err.value.line_number == 7

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_episodes(path) == []

    def test_duplicate_id_on_read(self, tmp_path):
        episode = make_episode()
        path = tmp_path / "dup.jsonl"
        line = json.dumps(episode_to_dict(episode))
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(IntegrityError):
            read_episodes(path)

    @pytest.mark.parametrize("version", [99, 0, "1", None],
                             ids=["newer", "older", "string", "missing"])
    def test_unsupported_schema_version_reports_line_number(self, tmp_path, version):
        doc = episode_to_dict(make_episode())
        doc["schema_version"] = version
        path = tmp_path / "v.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(DatasetReadError) as err:
            read_episodes(path)
        assert err.value.line_number == 1
        assert f"unsupported schema_version {version!r}" in str(err.value)

    def test_scan_yields_every_line_and_goes_on(self, tmp_path):
        good = json.dumps(episode_to_dict(make_episode("ep-a")))
        other = json.dumps(episode_to_dict(make_episode("ep-b")))
        path = tmp_path / "mixed.jsonl"
        path.write_text(f"{good}\n\n{{not json\n{good}\n{other}\n")
        items = list(scan_episodes(path))
        assert [n for n, _ in items] == [1, 3, 4, 5]
        assert isinstance(items[0][1], Episode) and isinstance(items[3][1], Episode)
        assert isinstance(items[1][1], ValueError)
        duplicate = items[2][1]
        assert isinstance(duplicate, IntegrityError) and duplicate.episode_id == "ep-a"

    def test_duplicate_id_on_write(self, tmp_path):
        with pytest.raises(IntegrityError):
            write_episodes([make_episode(), make_episode()], tmp_path / "x.jsonl")

    def test_failed_write_leaves_earlier_file(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_episodes([make_episode("ep-earlier")], path)
        before = path.read_bytes()
        with pytest.raises(IntegrityError):
            write_episodes([make_episode(), make_episode()], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.jsonl"]

    @pytest.mark.parametrize("damaged", [[1.5], [True], None])  # CLI tests take the rest
    def test_damaged_image_indices_must_be_integers(self, damaged):
        doc = episode_to_dict(make_episode(meta={"damaged_image_indices": damaged}))
        with pytest.raises(ValueError, match="meta.damaged_image_indices"):
            episode_from_dict(doc)

    def test_unknown_fields_preserved(self, tmp_path):
        doc = episode_to_dict(make_episode())
        doc["annotator_note"] = {"stars": 5}
        episode = episode_from_dict(doc)
        assert episode.extra == {"annotator_note": {"stars": 5}}
        path = tmp_path / "x.jsonl"
        write_episodes([episode], path)
        again = json.loads(path.read_text().splitlines()[0])
        assert again["annotator_note"] == {"stars": 5}

    def test_canonical_float_formatting(self):
        doc = episode_to_dict(make_episode())
        # canonical floats survive a JSON round trip bit-for-bit
        text = json.dumps(doc)
        assert episode_from_dict(json.loads(text)) == episode_from_dict(doc)

    def test_instruction_absent_round_trip(self, tmp_path):
        episode = make_episode(instruction=False)
        path = tmp_path / "noins.jsonl"
        write_episodes([episode], path)
        assert read_episodes(path) == [episode]


class TestSplitDataset:
    def test_all_scenes_to_train(self):
        episodes = [make_episode(eid=f"e{i}", scene="s0") for i in range(5)]
        train, seen, unseen = split_dataset(episodes, {"s0": "train"})
        assert len(train.episodes) == 5
        assert seen.episodes == [] and unseen.episodes == []

    def test_scene_in_train_and_unseen_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset([], {"train": ["s0"], "test_unseen": ["s0"],
                               "test_seen": []})

    def test_unassigned_scene_rejected(self):
        episodes = [make_episode(eid="e0", scene="mystery")]
        with pytest.raises(ConfigError):
            split_dataset(episodes, {"s0": "train"})

    def test_counting_oracle_on_five_scenes(self):
        rng = np.random.default_rng(42)
        episodes = []
        per_scene = {f"s{k}": 0 for k in range(5)}
        for i in range(60):
            scene = f"s{rng.integers(0, 5)}"
            per_scene[scene] += 1
            episodes.append(make_episode(eid=f"e{i}", scene=scene))
        assignment = {"s0": "train", "s1": "train", "s2": "train",
                      "s3": "test_seen", "s4": "test_unseen"}
        train, seen, unseen = split_dataset(episodes, assignment)
        assert len(train.episodes) == per_scene["s0"] + per_scene["s1"] + per_scene["s2"]
        assert len(seen.episodes) == per_scene["s3"]
        assert len(unseen.episodes) == per_scene["s4"]
        ids = [e.episode_id for e in train.episodes + seen.episodes
               + unseen.episodes]
        assert sorted(ids) == sorted(e.episode_id for e in episodes)

    def test_split_form_with_lists(self):
        episodes = [make_episode(eid="e0", scene="a"),
                    make_episode(eid="e1", scene="b")]
        train, seen, unseen = split_dataset(
            episodes, {"train": ["a"], "test_seen": [], "test_unseen": ["b"]})
        assert [e.episode_id for e in train.episodes] == ["e0"]
        assert [e.episode_id for e in unseen.episodes] == ["e1"]


    @pytest.mark.parametrize("assignment", [{"train": 5}, {"train": "s0"},
                                            {"train": ["s0", 1]}],
                             ids=["count", "string", "non_string_scene"])
    def test_split_form_needs_lists_of_scene_ids(self, assignment):
        with pytest.raises(ConfigError, match="must be a list of scene ids"):
            split_dataset([make_episode(scene="s0")], assignment)


class TestComputeStats:
    def test_empty_dataset(self):
        stats = compute_stats([])
        assert stats.episode_count == 0
        assert stats.vocab_size == 0
        assert stats.action_histogram == {}
        assert stats.mean_instruction_tokens == 0.0

    def test_two_instruction_fixture(self):
        a = make_episode(eid="a")
        a.instruction = Instruction(text="go up", sub_instructions=["go up"])
        b = make_episode(eid="b")
        b.instruction = Instruction(text="go left", sub_instructions=["go left"])
        stats = compute_stats([a, b])
        assert stats.vocab_size == 3  # go, up, left
        assert stats.mean_instruction_tokens == 2.0

    def test_histogram_totals_match_direct_summation(self):
        rng = np.random.default_rng(43)
        episodes = [random_episode(rng, f"e{i}", "s") for i in range(200)]
        stats = compute_stats(episodes)
        total_actions = sum(len(e.trajectory.actions) for e in episodes)
        assert sum(stats.action_histogram.values()) == total_actions
        assert sum(stats.length_histogram.values()) == len(episodes)
        assert sum(stats.height_histogram.values()) == len(episodes)

    def test_histogram_additivity_over_partition(self):
        rng = np.random.default_rng(44)
        episodes = [random_episode(rng, f"e{i}", "s") for i in range(80)]
        cut = 33
        whole = compute_stats(episodes)
        left = compute_stats(episodes[:cut])
        right = compute_stats(episodes[cut:])
        for field in ("action_histogram", "length_histogram", "height_histogram",
                      "noun_table", "verb_table"):
            combined: dict = {}
            for part in (getattr(left, field), getattr(right, field)):
                for key, count in part.items():
                    combined[key] = combined.get(key, 0) + count
            assert combined == getattr(whole, field)

    def test_noun_and_verb_tables(self):
        episode = make_episode()
        episode.instruction = Instruction(
            text="proceed to the tall tower and turn left",
            sub_instructions=[])
        stats = compute_stats([episode])
        assert stats.verb_table.get("proceed") == 1
        assert stats.verb_table.get("turn") == 1
        assert stats.noun_table.get("tower") == 1

    def test_buckets_sort_by_lower_bound_below_zero(self):
        episodes = [make_episode(eid=f"e{z}", altitude=z) for z in (-210.0, 30.0, -20.0, 5.0)]
        doc = compute_stats(episodes).to_dict()
        assert list(doc["height_histogram"]) == ["-225--200", "-25-0", "0-25", "25-50"]
        assert list(doc["length_histogram"]) == ["0-25"]

    def test_stats_serialization(self):
        rng = np.random.default_rng(45)
        stats = compute_stats([random_episode(rng, "e", "s")])
        doc = stats.to_dict()
        assert json.dumps(doc)
        assert "action histogram" in stats.to_text().replace("_", " ")
