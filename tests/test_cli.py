from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from uavnav import pipeline as pl
from uavnav.cli import main
from uavnav.dataset import read_episodes
from uavnav.keyframe import load_tokens, save_tokens, TokenMatrix
from uavnav.occupancy import load_grid
from uavnav.scene import BuildingSpec, SceneSpec, TreeSpec, scene_spec_to_dict


def small_spec() -> SceneSpec:
    def box(x, y, w, h):
        return [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]

    return SceneSpec(
        scene_id="cli-scene", extent=(120.0, 120.0),
        buildings=[BuildingSpec(box(20, 20, 18, 18), 32.0, "blue glass tower"),
                   BuildingSpec(box(75, 70, 20, 16), 26.0, "red brick warehouse")],
        trees=[TreeSpec((60.0, 30.0), 8.0)], seed=3)


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip()
    assert "Traceback" not in err and len(err.splitlines()) == 1, err
    return err


def scene_args(workdir, config: Path | None = None) -> list[str]:
    return ["--scene", str(workdir / "scene"),
            "--config", str(config or workdir / "config.json")]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(scene_spec_to_dict(small_spec())))
    config_path = root / "config.json"
    config_path.write_text(json.dumps({
        "seed": 7,
        "workers": 2,
        "trajgen": {"height_range": [15.0, 35.0], "min_landmark_height": 18.0,
                    "start_distance_range": [30.0, 60.0]},
    }))
    scene_dir = root / "scene"
    assert main(["scene", "synth", "--spec", str(spec_path),
                 "--out", str(scene_dir)]) == 0
    return root


def test_scene_synth_writes_inputs(workdir):
    assert (workdir / "scene" / "scene.json").exists()
    assert (workdir / "scene" / "cloud.txt").exists()


def test_scene_synth_demo_scene(tmp_path):
    out = tmp_path / "demo"
    assert main(["scene", "synth", "--out", str(out)]) == 0
    assert (out / "cloud.txt").exists()


def test_voxelize_roundtrip(workdir):
    grid_path = workdir / "grid.bin"
    debug_path = workdir / "grid.json"
    assert main(["voxelize", "--scene", str(workdir / "scene"),
                 "--out", str(grid_path), "--debug-json", str(debug_path)]) == 0
    grid = load_grid(grid_path)
    assert grid.occupancy.any()
    assert json.loads(debug_path.read_text())["voxel_size"] == 1.0


def test_segment_writes_landmarks(workdir):
    out = workdir / "landmarks.json"
    assert main(["segment", "--scene", str(workdir / "scene"),
                 "--out", str(out)]) == 0
    docs = json.loads(out.read_text())
    assert len(docs) == 2
    assert all(d["caption"] for d in docs)


def test_trajgen_emits_trajectories(workdir):
    out = workdir / "trajs.jsonl"
    assert main(["trajgen", "--scene", str(workdir / "scene"),
                 "--config", str(workdir / "config.json"),
                 "--count", "3", "--seed", "11", "--out", str(out)]) == 0
    episodes = read_episodes(out)
    assert len(episodes) == 3
    assert all(e.instruction is None for e in episodes)


def test_instruct_fills_instructions(workdir):
    src = workdir / "trajs.jsonl"
    out = workdir / "instructed.jsonl"
    assert main(["instruct", "--scene", str(workdir / "scene"),
                 "--config", str(workdir / "config.json"),
                 "--episodes", str(src), "--mode", "mock",
                 "--out", str(out)]) == 0
    episodes = read_episodes(out)
    assert all(e.instruction is not None and e.instruction.text
               for e in episodes)


def test_generate_and_validate(workdir):
    out = workdir / "generated.jsonl"
    report_path = workdir / "report.json"
    assert main(["generate", "--scene", str(workdir / "scene"),
                 "--config", str(workdir / "config.json"),
                 "--count", "5", "--out", str(out),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["accepted"] == 5
    assert main(["validate", "--scene", str(workdir / "scene"),
                 "--config", str(workdir / "config.json"),
                 "--episodes", str(out)]) == 0


def test_validate_flags_corruption(workdir, capsys):
    src = workdir / "generated.jsonl"
    bad = workdir / "corrupted.jsonl"
    lines = src.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["poses"][1]["position"][0] += 5.0  # break the kinematic rollout
    lines[0] = json.dumps(doc)
    bad.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--episodes", str(bad)]) == 1
    out = json.loads(capsys.readouterr().out)
    kinds = {v["kind"] for v in out["violations"]}
    assert "kinematics" in kinds


def test_validate_flags_too_long(workdir, capsys):
    src = workdir / "generated.jsonl"
    bad = workdir / "toolong.jsonl"
    doc = json.loads(src.read_text().splitlines()[0])
    doc["actions"] = [{"kind": "turn_left", "magnitude": 30.0}] * 151 \
        + [{"kind": "stop"}]
    from uavnav.trajgen import rollout
    from uavnav.dataset import episode_from_dict, episode_to_dict
    start_doc = doc["start"]
    episode = episode_from_dict({**doc, "poses": [start_doc] * 153,
                                 "image_refs": [f"r{i}" for i in range(153)]})
    episode.trajectory.poses[:] = rollout(episode.trajectory.start,
                                          episode.trajectory.actions)
    bad.write_text(json.dumps(episode_to_dict(episode)) + "\n")
    assert main(["validate", "--episodes", str(bad)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert any(v["kind"] == "filter" and v["detail"] == "too_long"
               for v in out["violations"])


def test_dataset_filter_split_stats(workdir, capsys):
    src = workdir / "generated.jsonl"
    kept = workdir / "kept.jsonl"
    assert main(["dataset", "filter", "--episodes", str(src),
                 "--out", str(kept)]) == 0
    assert len(read_episodes(kept)) == 5

    assignment = workdir / "assignment.json"
    assignment.write_text(json.dumps({"cli-scene": "train"}))
    out_dir = workdir / "splits"
    assert main(["dataset", "split", "--episodes", str(kept),
                 "--assignment", str(assignment), "--out-dir", str(out_dir)]) == 0
    assert len(read_episodes(out_dir / "train.jsonl")) == 5
    assert read_episodes(out_dir / "test_unseen.jsonl") == []

    stats_json = workdir / "stats.json"
    assert main(["dataset", "stats", "--episodes", str(kept),
                 "--json", str(stats_json)]) == 0
    doc = json.loads(stats_json.read_text())
    assert doc["episode_count"] == 5
    assert doc["vocab_size"] > 0


def test_eval_ground_truth_predictions_score_perfectly(workdir, capsys):
    src = workdir / "generated.jsonl"
    preds = workdir / "preds.jsonl"
    with preds.open("w") as fh:
        for episode in read_episodes(src):
            fh.write(json.dumps({
                "episode_id": episode.episode_id,
                "actions": [a.to_dict() for a in episode.trajectory.actions],
            }) + "\n")
    report_path = workdir / "eval.json"
    assert main(["eval", "--scene", str(workdir / "scene"),
                 "--config", str(workdir / "config.json"),
                 "--episodes", str(src), "--predictions", str(preds),
                 "--radius", "20", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["sr"] == 1.0
    assert report["osr"] == 1.0
    assert report["spl"] > 0.9


def test_keyframe_command(workdir):
    actions = [{"kind": "forward", "magnitude": 3.0}] * 3 \
        + [{"kind": "turn_left", "magnitude": 30.0}] * 2 \
        + [{"kind": "forward", "magnitude": 6.0}] * 2 + [{"kind": "stop"}]
    actions_path = workdir / "actions.json"
    actions_path.write_text(json.dumps(actions))
    tokens_dir = workdir / "tokens"
    tokens_dir.mkdir()
    rng = np.random.default_rng(5)
    for k in range(len(actions) + 1):
        save_tokens(TokenMatrix(rng.normal(size=(16, 4)), frame_index=k),
                    tokens_dir / f"frame_{k:05d}.bin")
    cfg_path = workdir / "kf.json"
    cfg_path.write_text(json.dumps({"capacity": 2, "pooled_tokens": 1,
                                    "current_tokens": 16, "window": 1}))
    out = workdir / "obs.bin"
    log = workdir / "merges.json"
    assert main(["keyframe", "--actions", str(actions_path),
                 "--tokens", str(tokens_dir), "--config", str(cfg_path),
                 "--out", str(out), "--log", str(log)]) == 0
    obs = load_tokens(out)
    assert obs.count >= 16
    assert json.loads(log.read_text()) is not None


def test_bad_config_exits_2(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_knob": 1}))
    assert main(["generate", "--scene", str(workdir / "scene"),
                 "--config", str(bad), "--count", "1",
                 "--out", str(tmp_path / "x.jsonl")]) == 2


def test_missing_scene_exits_2(tmp_path):
    assert main(["generate", "--count", "1",
                 "--out", str(tmp_path / "x.jsonl")]) == 2


def test_trajgen_is_generate_without_instructions(workdir, tmp_path):
    trajs, generated, instructed = (tmp_path / f"{name}.jsonl" for name in
                                    ("trajs", "generated", "instructed"))
    assert main(["trajgen", *scene_args(workdir), "--count", "5",
                 "--out", str(trajs)]) == 0
    assert main(["generate", *scene_args(workdir), "--count", "5",
                 "--out", str(generated)]) == 0
    lines = generated.read_text().splitlines()
    assert len(lines) == 5
    assert [json.loads(line) for line in trajs.read_text().splitlines()] == \
        [dict(json.loads(line), instruction=None) for line in lines]
    # Narrating afterwards goes through the same code as narrating in place.
    assert main(["instruct", *scene_args(workdir), "--episodes", str(trajs),
                 "--out", str(instructed)]) == 0
    assert instructed.read_bytes() == generated.read_bytes()


def test_trajgen_retries_failed_searches(workdir, tmp_path, capsys):
    doc = json.loads((workdir / "config.json").read_text())
    doc["trajgen"]["max_expansions"] = 4  # too few for some first attempts
    config = tmp_path / "tight.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "trajs.jsonl"
    assert main(["trajgen", *scene_args(workdir, config), "--count", "5",
                 "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["search_failures"] > 0
    assert report["accepted"] == 5
    assert len(read_episodes(out)) == 5


def test_instruct_mode_defaults_to_the_config(workdir, tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    doc = json.loads((workdir / "config.json").read_text())
    config = tmp_path / "replay.json"
    config.write_text(json.dumps({**doc, "vlm": {"mode": "replay", "cache_dir": str(cache)}}))
    instruct = ["instruct", *scene_args(workdir, config), "--episodes",
                str(workdir / "trajs.jsonl"), "--out", str(tmp_path / "x.jsonl")]
    assert main(instruct) == 1
    assert "no recorded reply" in one_line_error(capsys)
    assert main([*instruct, "--mode", "mock"]) == 0


def test_replay_with_empty_cache_exits_1(workdir, tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    replay = ["generate", *scene_args(workdir), "--count", "1", "--mode", "replay",
              "--out", str(tmp_path / "x.jsonl")]
    assert main([*replay, "--cache-dir", str(cache)]) == 1
    assert "no recorded reply" in one_line_error(capsys)
    assert main(replay) == 2
    assert "cache directory" in one_line_error(capsys)


@pytest.mark.parametrize("name, edit, message", [
    ("cloud.txt", lambda spec: "1.0 2.0\n", "expected 3 or 6 fields"),
    ("scene.json", lambda spec: json.dumps({**json.loads(spec), "extent": [-120.0, 120.0]}),
     "extent must be positive"),
    ("scene.json", lambda spec: "{not json", "scene.json"),
    ("landmarks.json", lambda spec: json.dumps([{"id": 0, "height": 30.0}]),
     "landmarks.json"),
    ("scene.json", lambda spec: json.dumps(
        {**json.loads(spec), "buildings": json.loads(spec)["buildings"] * 2}),
     "footprints overlap"),
    ("landmarks.json", lambda spec: json.dumps([{
        "id": 3, "contour": [[20, 20], [38, 20], [38, 38]], "centroid": [29, 29],
        "height": 32.0, "area": 324.0}]), "landmark 3 has no footprint cells"),
    ("cloud.txt", lambda spec: "1 2 3\n\udcff 5 6\n", "cloud.txt:2: not UTF-8"),
    ("landmarks.json", lambda spec: json.dumps([{
        "id": 3, "contour": [[20, 20], [38, 20], [38, 38]], "centroid": [29, 29],
        "height": 32.0, "area": 324.0, "cells": [[1]]}]), "cell must be two integers"),
    ("landmarks.json", lambda spec: json.dumps([{
        "id": 3, "contour": [[20, 20], [38, 20], [38, 38]], "centroid": [29, 29],
        "height": 32.0, "area": 324.0, "cells": [[1, 2, 3]]}]), "cell must be two integers"),
], ids=["two_field_cloud", "negative_extent", "spec_not_json",
        "landmark_without_contour", "overlapping_footprints", "landmark_without_cells",
        "cloud_not_utf8", "one_index_cell", "three_index_cell"])
def test_malformed_scene_files_exit_2(workdir, tmp_path, capsys, name, edit, message):
    scene = tmp_path / "scene"
    scene.mkdir()
    spec = (workdir / "scene" / "scene.json").read_text()
    (scene / "scene.json").write_text(spec)
    shutil.copy(workdir / "scene" / "cloud.txt", scene)
    (scene / name).write_bytes(edit(spec).encode("utf-8", "surrogateescape"))  # \udcff: 0xff
    assert main(["trajgen", "--scene", str(scene), "--count", "1",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    assert message in one_line_error(capsys)


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "must be a JSON object"),
    ({"trajgen": 5}, "'trajgen' must be a JSON object"),
    ({"vlm": 5}, "'vlm' must be a JSON object"),
    ({"seed": "x"}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"segments": 1.5}, "segments must be an integer"),
    ({"workers": "2"}, "workers must be an integer"),
    ({"trajgen": {"height_range": 5}}, "trajgen.height_range must be two numbers"),
    ({"trajgen": {"start_distance_range": [1, 2, 3]}}, "trajgen.start_distance_range"),
    ({"vlm": {"modle": "live"}}, "vlm.modle"),
    ({"vlm": {"cache_dir": 5}}, "vlm_cache_dir must be a string or null"),
    ({"stamp_outputs": "no"}, "stamp_outputs must be a bool"),
], ids=["list", "trajgen_not_object", "vlm_not_object", "string_seed", "bool_seed",
        "float_segments", "string_workers", "scalar_range", "three_field_range",
        "unknown_vlm_key", "int_cache_dir", "string_stamp_outputs"])
def test_malformed_config_exit_2(workdir, tmp_path, capsys, doc, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["trajgen", *scene_args(workdir, config), "--count", "1",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    assert message in one_line_error(capsys)


@pytest.mark.parametrize("line", [
    "{not json",
    json.dumps({"actions": [{"kind": "stop"}]}),
    json.dumps({"episode_id": "cli-scene-000000"}),
    json.dumps({"episode_id": ["cli-scene-000000"], "actions": [{"kind": "stop"}]}),
    json.dumps({"episode_id": "cli-scene-000000", "actions": [{"kind": "fly"}]}),
], ids=["not_json", "no_episode_id", "no_actions", "list_episode_id", "bad_action"])
def test_malformed_predictions_exit_2(workdir, tmp_path, capsys, line):
    src = workdir / "generated.jsonl"
    first = read_episodes(src)[0]
    good = json.dumps({"episode_id": first.episode_id,
                       "actions": [a.to_dict() for a in first.trajectory.actions]})
    preds = tmp_path / "preds.jsonl"
    preds.write_text(good + "\n" + line + "\n")
    assert main(["eval", *scene_args(workdir), "--episodes", str(src),
                 "--predictions", str(preds)]) == 2
    assert "preds.jsonl" in one_line_error(capsys)


@pytest.mark.parametrize("actions, config, culprit", [
    ([{"kind": "forward", "magnitude": 3.0}, {"kind": "stop"}], {"bogus": 1}, "kf.json"),
    ([{"kind": "fly"}], {}, "actions.json"),
    ([{"kind": "forward", "magnitude": 3.0}, {"kind": "stop"}], {"window": -1}, "kf.json"),
    ([{"kind": "forward", "magnitude": 3.0}, {"kind": "stop"}], {"pooled_tokens": 4.0},
     "kf.json: pooled_tokens must be an integer"),
    ([{"kind": "forward", "magnitude": 3.0}, {"kind": "stop"}], {"capacity": 2.5},
     "kf.json: capacity must be an integer"),
], ids=["unknown_config_key", "bad_action", "negative_window", "float_pooled_tokens",
        "fractional_capacity"])
def test_malformed_keyframe_inputs_exit_2(tmp_path, capsys, actions, config, culprit):
    (tmp_path / "actions.json").write_text(json.dumps(actions))
    (tmp_path / "kf.json").write_text(json.dumps(config))
    assert main(["keyframe", "--actions", str(tmp_path / "actions.json"),
                 "--tokens", str(tmp_path), "--config", str(tmp_path / "kf.json"),
                 "--out", str(tmp_path / "obs.bin")]) == 2
    assert culprit in one_line_error(capsys)


@pytest.mark.parametrize("visibility", [{"0": 5}, {"x": [1]}, {"0": [[1]]}],
                         ids=["ids_not_a_list", "frame_not_an_integer", "id_not_an_integer"])
def test_malformed_visibility_exit_2(tmp_path, capsys, visibility):
    (tmp_path / "actions.json").write_text(json.dumps([{"kind": "stop"}]))
    for k in range(2):
        save_tokens(TokenMatrix(np.ones((4, 2)), frame_index=k),
                    tmp_path / f"frame_{k:05d}.bin")
    (tmp_path / "vis.json").write_text(json.dumps(visibility))
    assert main(["keyframe", "--actions", str(tmp_path / "actions.json"),
                 "--tokens", str(tmp_path), "--visibility", str(tmp_path / "vis.json"),
                 "--out", str(tmp_path / "obs.bin")]) == 2
    assert "vis.json" in one_line_error(capsys)


@pytest.mark.parametrize("actions, frames, culprit", [
    ([{"kind": "stop"}], [b"\x01\x00"], "frame_00000.bin"),
    ([{"kind": "stop"}], [np.ones((4, 2)), np.ones((4, 2))], ""),
    ([{"kind": "forward", "magnitude": 3.0}, {"kind": "move_up", "magnitude": 3.0},
      {"kind": "stop"}],
     [np.ones((4, 2)), np.ones((4, 3)), np.ones((4, 2)), np.ones((256, 2))], ""),
], ids=["truncated", "row_count", "dim_mismatch"])
def test_malformed_tokens_exit_2(tmp_path, capsys, actions, frames, culprit):
    (tmp_path / "actions.json").write_text(json.dumps(actions))
    for k, frame in enumerate(frames):
        path = tmp_path / f"frame_{k:05d}.bin"
        if isinstance(frame, bytes):
            path.write_bytes(frame)
        else:
            save_tokens(TokenMatrix(frame, frame_index=k), path)
    assert main(["keyframe", "--actions", str(tmp_path / "actions.json"),
                 "--tokens", str(tmp_path), "--out", str(tmp_path / "obs.bin")]) == 2
    assert str(tmp_path / culprit) in one_line_error(capsys)


def test_dataset_split_assignment_not_json_exits_2(tmp_path, capsys):
    episodes = tmp_path / "empty.jsonl"
    episodes.write_text("")
    assignment = tmp_path / "assignment.json"
    assignment.write_text("{not json")
    assert main(["dataset", "split", "--episodes", str(episodes),
                 "--assignment", str(assignment),
                 "--out-dir", str(tmp_path / "splits")]) == 2
    assert "assignment.json" in one_line_error(capsys)


@pytest.mark.parametrize("lines", [
    [],
    [json.dumps({"episode_id": "no-such-episode", "actions": [{"kind": "stop"}]})],
], ids=["empty", "no_match"])
def test_eval_without_scorable_prediction_exits_2(workdir, tmp_path, capsys, monkeypatch,
                                                  lines):
    # Checked before the scene is loaded.
    monkeypatch.setattr(pl, "load_scene_dir", lambda *a, **k: pytest.fail("scene loaded"))
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(line + "\n" for line in lines))
    assert main(["eval", *scene_args(workdir), "--episodes",
                 str(workdir / "generated.jsonl"), "--predictions", str(preds)]) == 2
    assert "preds.jsonl" in one_line_error(capsys)


def test_eval_with_some_predictions_missing_exits_1(workdir, tmp_path):
    first = read_episodes(workdir / "generated.jsonl")[0]
    actions = [a.to_dict() for a in first.trajectory.actions]
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps({"episode_id": episode_id, "actions": actions}) + "\n"
                             for episode_id in (first.episode_id, "no-such-episode")))
    report = tmp_path / "eval.json"
    assert main(["eval", *scene_args(workdir), "--episodes", str(workdir / "generated.jsonl"),
                 "--predictions", str(preds), "--out", str(report)]) == 1
    doc = json.loads(report.read_text())
    assert (doc["count"], doc["missing_predictions"]) == (1, 1)


@pytest.mark.parametrize("command", ["generate", "trajgen"])
def test_negative_count_exits_2(workdir, tmp_path, capsys, monkeypatch, command):
    # Checked before the scene is loaded.
    monkeypatch.setattr(pl, "load_scene_dir", lambda *a, **k: pytest.fail("scene loaded"))
    out = tmp_path / "out.jsonl"
    assert main([command, *scene_args(workdir), "--count", "-1",
                 "--out", str(out)]) == 2
    assert "count" in one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--voxel-size", "0"), ("--margin", "-1")],
                         ids=["zero_voxel_size", "negative_margin"])
def test_bad_voxelize_arguments_exit_2(workdir, tmp_path, capsys, flag, value):
    assert main(["voxelize", "--scene", str(workdir / "scene"), flag, value,
                 "--out", str(tmp_path / "grid.bin")]) == 2
    assert flag.lstrip("-").replace("-", "_") in one_line_error(capsys)
