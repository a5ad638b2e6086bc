from __future__ import annotations

import importlib
import io
import json
import logging
import re
import threading
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import desk_trajgen_config
from oracles import first_blocked_pose_pair, visibility_per_call
from uavnav import keyframe as kf
from uavnav import dataset as ds
from uavnav import evaluation as ev
from uavnav import pipeline as pl
from uavnav import segmentation as seg
from uavnav import trajgen as tg
from uavnav.dataset import read_episodes
from uavnav.geometry import Point3
from uavnav.instructions import split_subtrajectories
from uavnav.occupancy import VoxelGrid
from uavnav.scene import SceneSpec, TreeSpec, load_point_cloud
from uavnav.vlm import API_KEY_ENV, ENDPOINT_ENV, VlmClient


class TestPipelineConfig:
    def test_from_dict_with_nested_sections(self):
        cfg = pl.pipeline_config_from_dict({
            "seed": 3, "workers": 2,
            "trajgen": {"height_range": [10.0, 20.0],
                        "start_distance_range": [30.0, 50.0]},
            "vlm": {"mode": "mock", "model": "anything"},
        })
        assert cfg.seed == 3
        assert cfg.trajgen.height_range == (10.0, 20.0)
        assert cfg.vlm_model == "anything"

    def test_readme_names_exactly_the_config_fields(self):
        readme = " ".join((Path(__file__).resolve().parents[1] / "README.md")
                          .read_text(encoding="utf-8").split())
        paragraph = readme[readme.index("Top-level keys are"):readme.index("Any other key is")]
        top, trajgen, vlm = re.split(r"The `trajgen` section takes|The `vlm` section takes",
                                     paragraph)
        named = [set(re.findall(r"`(\w+)`", part)) - {"true", "false"}
                 for part in (top, trajgen, vlm)]
        pipeline = {f.name for f in fields(pl.PipelineConfig)} - {"trajgen"}
        assert named == [{n for n in pipeline if not n.startswith("vlm_")},
                         {f.name for f in fields(tg.TrajGenConfig)},
                         {n.removeprefix("vlm_") for n in pipeline if n.startswith("vlm_")}]

    def test_unknown_keys_rejected(self):
        with pytest.raises(pl.ConfigError, match="unknown"):
            pl.pipeline_config_from_dict({"velocity": 9})

    def test_trajgen_seed_rejected(self):
        # Episode RNGs derive from the top-level seed only, and every
        # search uses all of FORWARD_MAGNITUDES.
        for key in ("seed", "forward_granularities"):
            with pytest.raises(pl.ConfigError, match=f"trajgen.{key}"):
                pl.pipeline_config_from_dict({"trajgen": {key: 3}})

    def test_replace_rechecks(self, desk_cfg):
        with pytest.raises(pl.ConfigError, match="workers"):
            replace(desk_cfg, workers=0)
        with pytest.raises(pl.ConfigError, match="trajgen.height_range"):
            replace(desk_cfg.trajgen, height_range=(40.0, 15.0))

    def test_workers_above_the_cap_rejected(self, desk_cfg):
        # A pool of that many threads is never started: only configs are built.
        assert replace(desk_cfg, workers=pl.MAX_WORKERS).workers == pl.MAX_WORKERS
        message = f"workers must be <= {pl.MAX_WORKERS}, got {pl.MAX_WORKERS + 1}"
        with pytest.raises(pl.ConfigError, match=message):
            replace(desk_cfg, workers=pl.MAX_WORKERS + 1)
        with pytest.raises(pl.ConfigError, match=message):
            pl.pipeline_config_from_dict({"workers": pl.MAX_WORKERS + 1})

    def test_invalid_nested_values_rejected(self):
        with pytest.raises(pl.ConfigError):
            pl.pipeline_config_from_dict(
                {"trajgen": {"start_distance_range": [50.0, 30.0]}})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 11}))
        assert pl.load_pipeline_config(path).seed == 11

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(pl.ConfigError):
            pl.load_pipeline_config(tmp_path / "nope.json")

    def test_env_overrides_vlm_secrets(self, monkeypatch):
        monkeypatch.setenv(ENDPOINT_ENV, "http://env-endpoint")
        monkeypatch.setenv(API_KEY_ENV, "env-key")
        cfg = pl.PipelineConfig(vlm_mode="live", vlm_endpoint="http://from-config")
        vlm = cfg.make_vlm()
        assert vlm.endpoint == "http://env-endpoint"
        assert vlm.api_key == "env-key"


class TestRunGenerate:
    def test_rejected_attempt_is_counted_and_retried(self, demo_bundle, desk_cfg, monkeypatch):
        filter_episode, verdicts = ds.filter_episode, []

        def reject_first(episode, **kwargs):
            verdicts.append(ds.FilterVerdict(False, "damaged_image") if not verdicts
                            else filter_episode(episode, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(ds, "filter_episode", reject_first)
        outcome = pl.generate_episode(demo_bundle, desk_cfg, VlmClient(), 0)
        assert [v.accepted for v in verdicts] == [False, True]
        assert outcome.rejections == Counter(damaged_image=1)
        assert outcome.accepted == 1 and outcome.episode is not None

    def test_count_zero_writes_empty_dataset(self, demo_bundle, desk_cfg,
                                             tmp_path):
        out = tmp_path / "none.jsonl"
        report = pl.run_generate(demo_bundle, desk_cfg, 0, out)
        assert report.ok
        assert report.accepted == 0
        assert read_episodes(out) == []

    def test_no_eligible_landmark_runs_no_episode(self, demo_bundle, desk_cfg, tmp_path,
                                                  monkeypatch):
        calls, generate_episode = Counter(), pl.generate_episode

        def counting(*args):
            calls["episodes"] += 1
            return generate_episode(*args)

        monkeypatch.setattr(pl, "generate_episode", counting)
        tall = replace(desk_cfg, trajgen=replace(desk_cfg.trajgen, min_landmark_height=1000))
        out = tmp_path / "none.jsonl"
        with pytest.raises(pl.ConfigError, match="no landmark at least 1000 m tall"):
            pl.run_generate(demo_bundle, tall, 50, out)
        assert calls["episodes"] == 0 and not out.exists()

    def test_byte_identical_across_worker_counts(self, demo_bundle, desk_cfg,
                                                 tmp_path):
        single = replace(desk_cfg, workers=1)
        many = replace(desk_cfg, workers=3)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        pl.run_generate(demo_bundle, single, 12, a)
        pl.run_generate(demo_bundle, many, 12, b)
        assert a.read_bytes() == b.read_bytes()

    def test_episodes_aim_with_the_bundles_sight_targets(self, demo_bundle, tmp_path,
                                                        monkeypatch):
        # The benchmark's gen_desk config. Episodes must not aim sight lines
        # themselves, and must match the oracle that aims on every call.
        cfg = pl.PipelineConfig(seed=7, workers=1, trajgen=desk_trajgen_config())
        lean, oracle = tmp_path / "lean.jsonl", tmp_path / "oracle.jsonl"

        def per_episode_setup(*args, **kwargs):
            raise AssertionError("sight targets rebuilt per episode")

        demo_bundle.sight_targets  # aimed once per bundle, before the patch
        with monkeypatch.context() as patch:
            patch.setattr(kf, "aim_cell", per_episode_setup)
            patch.setattr(VoxelGrid, "in_bounds", per_episode_setup)
            assert pl.run_generate(demo_bundle, cfg, 20, lean).accepted == 20
        monkeypatch.setattr(pl, "landmark_visibility", lambda pose, targets, grid:
                            visibility_per_call([pose], demo_bundle.landmarks, grid)[0])
        assert pl.run_generate(demo_bundle, cfg, 20, oracle).accepted == 20
        assert lean.read_bytes() == oracle.read_bytes()

    def test_sight_lines_start_only_where_sub_trajectories_end(self, demo_bundle, small_batch,
                                                               monkeypatch):
        walk, starts, walked = kf.traverse_segment, [], 0

        def traverse(grid, a, b):
            starts.append(a)
            return walk(grid, a, b)

        monkeypatch.setattr(kf, "traverse_segment", traverse)
        vlm = VlmClient(mode="mock")
        for episode in small_batch:
            t = episode.trajectory
            # By identity: a turn leaves a non-terminal pose at a terminal one's position.
            ends = {id(t.poses[sub.terminal_pose_index].position)
                    for sub in split_subtrajectories(t)}
            starts.clear()
            pl.narrate(demo_bundle, vlm, t, episode.image_refs)
            assert all(id(a) in ends for a in starts), episode.episode_id
            walked += len(starts)
        assert walked > 0

    def test_a_second_episode_starts_while_the_first_runs(self, demo_bundle, desk_cfg,
                                                          tmp_path, monkeypatch):
        # Episode 0 waits for another one to start; without fan-out it
        # gives up after the timeout, so the test fails rather than hangs.
        second, generate_episode, waited = threading.Event(), pl.generate_episode, []

        def gated(bundle, cfg, vlm, index):
            if index == 0:
                waited.append(second.wait(timeout=10))
            else:
                second.set()
            return generate_episode(bundle, cfg, vlm, index)

        monkeypatch.setattr(pl, "generate_episode", gated)
        report = pl.run_generate(demo_bundle, replace(desk_cfg, workers=4), 8,
                                 tmp_path / "fan_out.jsonl")
        assert waited == [True] and report.accepted == 8

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_episodes_in_flight_are_bounded(self, demo_bundle, desk_cfg, tmp_path,
                                            monkeypatch, workers):
        # Episode i starts only after outcome i - B is consumed, that is
        # written, as every episode here is accepted.
        bound = 1 if workers == 1 else pl.IN_FLIGHT_PER_WORKER * workers
        consumed, early = [], []
        generate_episode, write_episodes = pl.generate_episode, pl.ds.write_episodes

        def counting(bundle, cfg, vlm, index):
            if len(consumed) < index - bound + 1:
                early.append((index, len(consumed)))
            return generate_episode(bundle, cfg, vlm, index)

        def writing(episodes, path):
            def seen():
                for episode in episodes:
                    consumed.append(episode.meta["episode_index"])
                    yield episode
            return write_episodes(seen(), path)

        monkeypatch.setattr(pl, "generate_episode", counting)
        monkeypatch.setattr(pl.ds, "write_episodes", writing)
        report = pl.run_generate(demo_bundle, replace(desk_cfg, workers=workers), 16,
                                 tmp_path / "bounded.jsonl")
        assert report.accepted == 16 and consumed == list(range(16))
        assert early == []

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_config_error_in_an_episode_stops_the_run(self, demo_bundle, desk_cfg, tmp_path,
                                                      monkeypatch, workers):
        calls, generate_episode = [], pl.generate_episode

        def failing(bundle, cfg, vlm, index):
            calls.append(index)
            if index == 3:
                raise pl.ConfigError("episode 3 is misconfigured")
            return generate_episode(bundle, cfg, vlm, index)

        monkeypatch.setattr(pl, "generate_episode", failing)
        with pytest.raises(pl.ConfigError, match="episode 3"):
            pl.run_generate(demo_bundle, replace(desk_cfg, workers=workers), 10_000,
                            tmp_path / "stopped.jsonl")
        assert len(calls) <= 4 + pl.IN_FLIGHT_PER_WORKER * workers
        assert list(tmp_path.iterdir()) == []  # no output, no temp file

    def test_verbose_lines_come_in_index_order(self, demo_bundle, desk_cfg, tmp_path, caplog):
        with caplog.at_level(logging.DEBUG, logger="uavnav"):
            report = pl.run_generate(demo_bundle, replace(desk_cfg, workers=2), 8,
                                     tmp_path / "verbose.jsonl")
        lines = [json.loads(r.getMessage()) for r in caplog.records]
        assert [line["episode_index"] for line in lines] == list(range(8))
        search = report.to_dict()["search"]
        assert {key: sum(line["search"][key] for line in lines) for key in search} == search

    def test_retry_budget_exhaustion_gives_partial_output(self, demo_bundle,
                                                          desk_cfg, tmp_path):
        # Start ring far outside the scene: every sample attempt fails.
        impossible = replace(
            desk_cfg,
            trajgen=desk_trajgen_config(start_distance_range=(2000.0, 2100.0),
                                        max_sample_attempts=3))
        out = tmp_path / "partial.jsonl"
        report = pl.run_generate(demo_bundle, impossible, 4, out)
        assert not report.ok
        assert report.failed_episodes == 4
        assert report.sampling_failures > 0
        assert read_episodes(out) == []

    def test_vlm_failures_fail_only_their_episodes(self, demo_bundle, desk_cfg,
                                                   tmp_path):
        # Every instruction request misses the empty replay cache.
        replay = VlmClient(mode="replay", cache_dir=tmp_path / "empty_cache")
        out = tmp_path / "unnarrated.jsonl"
        report = pl.run_generate(demo_bundle, desk_cfg, 2, out, replay)
        assert report.failed_episodes == 2
        assert report.vlm_failures > 0
        assert read_episodes(out) == []

    def test_report_shape(self, demo_bundle, desk_cfg, tmp_path):
        report = pl.run_generate(demo_bundle, desk_cfg, 3,
                                 tmp_path / "r.jsonl")
        doc = report.to_dict()
        assert set(doc) == {"requested", "accepted", "failed_episodes",
                            "rejections", "sampling_failures",
                            "search_failures", "vlm_failures", "search",
                            "wall_time_s"}
        assert doc["requested"] == 3
        assert set(doc["search"]) == {"expansions", "collision_checks"}
        assert doc["search"]["expansions"] > 0


class TestRunValidate:
    def test_fresh_output_validates_for_multiple_seeds(self, demo_bundle,
                                                       desk_cfg, tmp_path):
        for seed in (1, 2):
            cfg = replace(desk_cfg, seed=seed)
            out = tmp_path / f"s{seed}.jsonl"
            report = pl.run_generate(demo_bundle, cfg, 8, out)
            assert report.ok
            validation = pl.run_validate(out, cfg, demo_bundle)
            assert validation.ok, validation.to_dict()
            assert validation.episodes_checked == 8

    def test_chained_episode_goal_is_last_searched_goal(self, demo_bundle, desk_cfg,
                                                        tmp_path, monkeypatch):
        goals = []
        search = tg.astar_search

        def recording_search(start, goal, *args, **kwargs):
            goals.append(goal)
            return search(start, goal, *args, **kwargs)

        monkeypatch.setattr(tg, "astar_search", recording_search)
        cfg = replace(desk_cfg, segments=2, workers=1)
        out = tmp_path / "chained.jsonl"
        assert pl.run_generate(demo_bundle, cfg, 1, out).ok
        [episode] = read_episodes(out)
        goal = goals[-1]
        assert episode.meta["goal"] == pytest.approx([goal.x, goal.y, goal.z])
        final = episode.trajectory.poses[-1].position
        assert final.distance_to(goal) <= cfg.trajgen.goal_tolerance + 1e-6
        validation = pl.run_validate(out, cfg, demo_bundle)
        assert validation.ok, validation.to_dict()

    def test_goal_violation_detected(self, demo_bundle, desk_cfg, tmp_path):
        out = tmp_path / "g.jsonl"
        pl.run_generate(demo_bundle, desk_cfg, 1, out)
        doc = json.loads(out.read_text().splitlines()[0])
        doc["meta"]["goal"] = [0.0, 0.0, 0.0]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(doc) + "\n")
        report = pl.run_validate(bad, desk_cfg, demo_bundle)
        assert any(v.kind == "goal" for v in report.violations)

    def test_schema_version_checked(self, demo_bundle, desk_cfg, tmp_path):
        out = tmp_path / "v.jsonl"
        pl.run_generate(demo_bundle, desk_cfg, 1, out)
        doc = json.loads(out.read_text().splitlines()[0])
        doc["schema_version"] = 999
        bad = tmp_path / "badv.jsonl"
        bad.write_text(json.dumps(doc) + "\n")
        report = pl.run_validate(bad, desk_cfg, demo_bundle)
        assert any(v.kind == "schema" for v in report.violations)

    def test_duplicate_id_is_integrity_violation(self, demo_bundle, desk_cfg, tmp_path):
        out = tmp_path / "d.jsonl"
        pl.run_generate(demo_bundle, desk_cfg, 1, out)
        line = out.read_text().splitlines()[0]
        dup = tmp_path / "dup.jsonl"
        dup.write_text(line + "\n" + line + "\n")
        report = pl.run_validate(dup, desk_cfg, demo_bundle)
        episode_id = json.loads(line)["episode_id"]
        assert report.episodes_checked == 2
        assert [v.to_dict() for v in report.violations] == [
            {"episode_id": episode_id, "kind": "integrity", "detail": "duplicate episode_id"}]

    @pytest.mark.parametrize("start, actions, segment", [
        ((30.0, 40.0, 10.0), [tg.TURN_LEFT, tg.STOP], 0),
        ((30.0, 40.0, 10.0), [tg.TURN_LEFT, tg.TURN_LEFT, tg.forward(3.0), tg.STOP], 0),
        ((20.0, 42.0, 10.0), [tg.TURN_LEFT] * 504 + [tg.forward(3.0)] * 3 + [tg.STOP], 506),
    ], ids=["turn_in_a_wall", "turns_then_forward_in_a_wall", "collision_past_eval_step_cap"])
    def test_collision_is_the_first_blocked_pose_pair(self, demo_bundle, desk_cfg, tmp_path,
                                                      start, actions, segment):
        # (30, 40, 10) is inside a wall of the demo nav grid: replay halts
        # every move from it, and a start that is not free is a collision
        # at index 0 even before the first translation. Eval's step cap
        # does not bound validate: 504 turns leave the heading as it was,
        # and the third forward from (20, 42, 10) enters the wall.
        trajectory = tg.Trajectory(tg.Pose(Point3(*start), 0.0), actions)
        path = tmp_path / "crafted.jsonl"
        ds.write_episodes([ds.Episode(
            episode_id="e-crafted", scene_id="demo", trajectory=trajectory, instruction=None,
            image_refs=[f"r{k}" for k in range(len(trajectory.poses))])], path)
        report = pl.run_validate(path, desk_cfg, demo_bundle)
        assert segment == first_blocked_pose_pair(demo_bundle.nav_grid, trajectory.poses)
        assert [v.to_dict() for v in report.violations if v.kind != "filter"] == [
            {"episode_id": "e-crafted", "kind": "collision",
             "detail": f"segment {segment} crosses occupied space"}]

    @pytest.mark.parametrize("meta", [{"goal": [1.0, 2.0]}, {"gt_length": "abc"},
                                      {"gt_length": -1.0}],
                             ids=["two_field_goal", "string_gt_length", "negative_gt_length"])
    def test_malformed_meta_is_schema_violation(self, demo_bundle, desk_cfg, tmp_path,
                                                meta):
        out = tmp_path / "m.jsonl"
        pl.run_generate(demo_bundle, desk_cfg, 1, out)
        good = out.read_text().splitlines()[0]
        doc = json.loads(good)
        doc["meta"].update(meta)
        bad = tmp_path / "badm.jsonl"
        bad.write_text(json.dumps(doc) + "\n" + good + "\n")
        report = pl.run_validate(bad, desk_cfg, demo_bundle)
        assert report.episodes_checked == 2
        assert [(v.episode_id, v.kind) for v in report.violations] == [("line 1", "schema")]


class TestSceneBundle:
    def test_round_trip_through_scene_dir(self, desk_cfg, tmp_path):
        spec = pl.demo_scene_spec(scene_id="rt")
        scene_dir = pl.write_scene_dir(spec, tmp_path / "scene")
        bundle = pl.load_scene_dir(scene_dir, desk_cfg)
        assert bundle.scene_id == "rt"
        assert len(bundle.landmarks) == 6
        assert all(lm.caption is not None for lm in bundle.landmarks)
        assert [t.id for t in bundle.sight_targets] == [lm.id for lm in bundle.landmarks]

    def test_each_tree_marked_with_its_own_canopy(self, desk_cfg):
        # Each tree is marked with its own canopy radius, not the largest one.
        spec = SceneSpec(extent=(60.0, 40.0),
                         trees=[TreeSpec((20.0, 20.0), 10.0, canopy_radius=1.0),
                                TreeSpec((45.0, 20.0), 10.0, canopy_radius=8.0)])
        bev = pl.build_scene_bundle(spec, desk_cfg).bev
        assert bev.is_vegetation(20.0, 20.0) and bev.is_vegetation(50.0, 20.0)
        assert not bev.is_vegetation(25.0, 20.0)  # 5 m from the 1 m tree, 20 m from the other

    @pytest.mark.parametrize("colored", [False, True])
    def test_scene_dir_cloud_is_what_np_save_writes(self, tmp_path, colored):
        # A cloud read from x y z r g b columns keeps and writes only its x y z.
        rng = np.random.default_rng(5)
        xyz = rng.uniform(-50, 50, size=(40, 3))
        source = tmp_path / "source.npy"
        np.save(source, np.hstack([xyz, rng.uniform(0, 1, size=(40, 3))]) if colored else xyz)
        cloud = load_point_cloud(source)
        scene_dir = pl.write_scene_dir(pl.demo_scene_spec(), tmp_path / "scene", cloud=cloud)
        assert sorted(p.name for p in scene_dir.iterdir()) == ["cloud.npy", "scene.json"]
        buf = io.BytesIO()
        np.save(buf, xyz, allow_pickle=False)
        assert (scene_dir / "cloud.npy").read_bytes() == buf.getvalue()
        assert pl.read_scene_dir(scene_dir)[1].points.tobytes() == xyz.tobytes()

    def test_captions_reflect_ground_truth_labels(self, demo_bundle):
        colors = {lm.caption.color for lm in demo_bundle.landmarks}
        assert {"blue", "red", "gray", "beige", "green", "white"} == colors

    def test_run_generate_builds_each_layer_once(self, desk_cfg, tmp_path, monkeypatch):
        # Every layer is built on the calling thread before the workers start.
        calls, threads = Counter(), set()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                threads.add(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapper

        for owner, name in ((pl, "voxelize"), (seg, "extract_instances"),
                            (seg, "caption_instance")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        cfg = replace(desk_cfg, workers=2)
        bundle = pl.build_scene_bundle(pl.demo_scene_spec(), cfg)
        assert pl.run_generate(bundle, cfg, 4, tmp_path / "out.jsonl").ok
        assert calls == {"voxelize": 2, "extract_instances": 1,
                         "caption_instance": len(bundle.landmarks)}
        assert threads == {threading.get_ident()}


def test_benchmark_probes_resolve(monkeypatch):
    """perfbench/tracing.py wraps program attributes by name; renaming one
    of them must fail here, not only in the slow benchmark smoke test."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    probes = tracing._probes(tracing.Tracer())
    assert probes and all(callable(wrapper) for _, _, wrapper in probes)


def test_benchmark_probe_counts_match_the_program(monkeypatch, demo_bundle, desk_cfg, tmp_path):
    """The benchmark's ``trajgen.collision_checks`` counts calls of trajgen's
    ``segment_free_coords``; it equals the report's own count only while
    nothing else (``is_free`` included) goes through that name. Its
    ``evaluation.replay_checks`` is one ``segment_free`` per translating
    action before Stop."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    A = tg.Action
    actions = [A.FORWARD_3, A.TURN_LEFT, A.MOVE_UP, A.FORWARD_9, A.TURN_RIGHT, A.MOVE_DOWN,
               A.FORWARD_6, A.STOP, A.FORWARD_3]
    with tracing.traced(tracer):
        report = pl.run_generate(demo_bundle, replace(desk_cfg, workers=1), 5,
                                 tmp_path / "out.jsonl")
        checks = tracer.summary()[2]["trajgen.segment_free_coords"]
        start = read_episodes(tmp_path / "out.jsonl")[0].trajectory.start
        ev.replay(start, actions, demo_bundle.nav_grid)
    counts = tracer.summary()[2]
    assert report.accepted == 5 and checks == report.collision_checks > 0
    assert counts["evaluation.segment_free"] == 5
