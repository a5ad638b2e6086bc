from __future__ import annotations

import io
import json
import os
import shutil
import stat
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from oracles import merge_log_json, save_point_cloud
from uavnav import ConfigError, load_json
from uavnav import dataset as ds
from uavnav import evaluation as ev
from uavnav import keyframe as kf
from uavnav import pipeline as pl
from uavnav import segmentation as seg
from uavnav import trajgen as tg
from uavnav.cli import main
from uavnav.dataset import read_episodes
from uavnav.geometry import Point3
from uavnav.keyframe import load_tokens, save_tokens, TokenMatrix
from uavnav.occupancy import load_grid, voxelize
from uavnav.scene import BuildingSpec, SceneSpec, TreeSpec, load_scene_spec, synthesize_scene


def test_cli_imports_neither_scipy_nor_requests():
    # Nor the HTTP transport, which only live VLM mode uses.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = ("import sys, uavnav.cli; "
            "print(sorted(({m.split('.')[0] for m in sys.modules} & {'scipy', 'requests'})"
            " | (set(sys.modules) & {'urllib.request', 'http.client', 'ssl'})))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def small_spec() -> SceneSpec:
    def box(x, y, w, h):
        return [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]

    return SceneSpec(
        scene_id="cli-scene", extent=(120.0, 120.0),
        buildings=[BuildingSpec(box(20, 20, 18, 18), 32.0, "blue glass tower"),
                   BuildingSpec(box(75, 70, 20, 16), 26.0, "red brick warehouse")],
        trees=[TreeSpec((60.0, 30.0), 8.0)])


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
    spec_path.write_text(json.dumps(asdict(small_spec())))
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


@pytest.fixture(scope="module")
def trajs(workdir):
    """Three un-narrated episodes, written once for the tests that read them."""
    out = workdir / "trajs.jsonl"
    assert main(["trajgen", *scene_args(workdir), "--count", "3", "--seed", "11",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def generated(workdir):
    """Five generated episodes, written once for the tests that read them;
    the generation report goes to ``report.json`` next to them."""
    out = workdir / "generated.jsonl"
    assert main(["generate", *scene_args(workdir), "--count", "5", "--out", str(out),
                 "--report", str(workdir / "report.json")]) == 0
    return out


def write_predictions(path: Path, episodes) -> Path:
    """Each episode's own actions as its prediction, one JSONL line each."""
    path.write_text("".join(json.dumps({
        "episode_id": e.episode_id, "actions": [a.to_dict() for a in e.trajectory.actions],
    }) + "\n" for e in episodes))
    return path


def with_schema_version(src: Path, dst: Path, version) -> Path:
    """``src`` rewritten with every episode's ``schema_version`` set to ``version``."""
    dst.write_text("".join(json.dumps({**json.loads(line), "schema_version": version}) + "\n"
                           for line in src.read_text().splitlines()))
    return dst


def test_scene_synth_writes_inputs(workdir):
    assert (workdir / "scene" / "scene.json").exists()
    assert (workdir / "scene" / "cloud.npy").exists()


def test_scene_synth_demo_scene(tmp_path):
    out = tmp_path / "demo"
    assert main(["scene", "synth", "--out", str(out)]) == 0
    assert (out / "cloud.npy").exists()
    assert "seed" not in json.loads((out / "scene.json").read_text())


@pytest.mark.parametrize("argv", [
    ["scene", "synth", "--out", "unused", "--seed", "3"],
    ["dataset", "filter", "--episodes", "e.jsonl", "--out", "o.jsonl", "--rejects", "r.jsonl"],
], ids=["scene_synth_seed", "dataset_filter_rejects"])
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_voxelize_roundtrip(workdir):
    grid_path = workdir / "grid.bin"
    assert main(["voxelize", "--scene", str(workdir / "scene"),
                 "--out", str(grid_path)]) == 0
    grid = load_grid(grid_path)
    assert grid.occupancy.any()
    assert grid.voxel_size == 1.0


def test_voxelize_reads_a_spec_only_scene_dir(workdir, tmp_path):
    # The cloud is synthesized from scene.json, as for every other command.
    scene = tmp_path / "scene"
    scene.mkdir()
    shutil.copy(workdir / "scene" / "scene.json", scene)
    out = tmp_path / "grid.bin"
    assert main(["voxelize", "--scene", str(scene), "--out", str(out)]) == 0
    got = load_grid(out)
    want = voxelize(synthesize_scene(load_scene_spec(scene / "scene.json")))
    assert (got.dims, got.voxel_size) == (want.dims, want.voxel_size)
    assert np.array_equal(got.origin, want.origin)
    assert np.array_equal(got.occupancy, want.occupancy)


def test_voxelize_reads_an_npy_cloud_file(workdir, tmp_path):
    grids = []
    for scene in (workdir / "scene", workdir / "scene" / "cloud.npy"):
        out = tmp_path / "grid.bin"
        assert main(["voxelize", "--scene", str(scene), "--out", str(out)]) == 0
        grids.append(out.read_bytes())
    assert grids[0] == grids[1]


def test_segment_writes_landmarks(workdir):
    out = workdir / "landmarks.json"
    assert main(["segment", "--scene", str(workdir / "scene"),
                 "--out", str(out)]) == 0
    docs = json.loads(out.read_text())
    assert len(docs) == 2
    assert all(d["caption"] for d in docs)


def test_segment_reads_scene_dirs_like_every_command(workdir, tmp_path, capsys):
    scene = tmp_path / "scene"
    scene.mkdir()
    out = tmp_path / "landmarks.json"
    assert main(["segment", "--scene", str(scene), "--out", str(out)]) == 2
    assert "has no scene.json" in one_line_error(capsys)
    shutil.copy(workdir / "scene" / "scene.json", scene)  # the cloud is synthesized
    assert main(["segment", "--scene", str(scene), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 2
    (scene / "landmarks.json").write_text("[]")  # segment extracts; it never reads one
    assert main(["segment", "--scene", str(scene), "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())) == 2


def test_trajgen_emits_trajectories(trajs):
    episodes = read_episodes(trajs)
    assert len(episodes) == 3
    assert all(e.instruction is None for e in episodes)


def test_instruct_fills_instructions(workdir, trajs):
    out = workdir / "instructed.jsonl"
    assert main(["instruct", "--scene", str(workdir / "scene"),
                 "--config", str(workdir / "config.json"),
                 "--episodes", str(trajs), "--mode", "mock",
                 "--out", str(out)]) == 0
    episodes = read_episodes(out)
    assert all(e.instruction is not None and e.instruction.text
               for e in episodes)


def test_generate_and_validate(workdir, generated):
    report = json.loads((workdir / "report.json").read_text())
    assert report["accepted"] == 5
    assert main(["validate", "--scene", str(workdir / "scene"),
                 "--config", str(workdir / "config.json"),
                 "--episodes", str(generated)]) == 0


def test_validate_flags_corruption(workdir, generated, capsys):
    bad = workdir / "corrupted.jsonl"
    lines = generated.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["poses"][1]["position"][0] += 5.0  # break the kinematic rollout
    lines[0] = json.dumps(doc)
    bad.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--episodes", str(bad)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == [{"episode_id": "line 1", "kind": "schema",
                                  "detail": "pose 1 deviates from the action rollout"}]


def test_validate_flags_too_long(workdir, generated, capsys):
    from uavnav.dataset import episode_to_dict
    from uavnav.trajgen import STOP, TURN_LEFT, Trajectory
    bad = workdir / "toolong.jsonl"
    episode = read_episodes(generated)[0]
    episode.trajectory = Trajectory(episode.trajectory.start, [TURN_LEFT] * 151 + [STOP])
    episode.image_refs = [f"r{i}" for i in range(153)]
    bad.write_text(json.dumps(episode_to_dict(episode)) + "\n")
    assert main(["validate", "--episodes", str(bad)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert any(v["kind"] == "filter" and v["detail"] == "too_long"
               for v in out["violations"])


def test_validate_flags_empty_instruction_text(workdir, generated, tmp_path, capsys):
    doc = json.loads(generated.read_text().splitlines()[0])
    doc["instruction"]["text"] = ""
    bad = tmp_path / "empty.jsonl"
    bad.write_text(json.dumps(doc) + "\n")
    assert main(["validate", "--episodes", str(bad)]) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == [
        {"episode_id": doc["episode_id"], "kind": "instruction", "detail": "empty text"}]


def test_dataset_filter_split_stats(workdir, generated, capsys):
    kept = workdir / "kept.jsonl"
    assert main(["dataset", "filter", "--episodes", str(generated),
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


def test_eval_ground_truth_predictions_score_perfectly(workdir, generated, capsys):
    preds = write_predictions(workdir / "preds.jsonl", read_episodes(generated))
    report_path = workdir / "eval.json"
    assert main(["eval", "--scene", str(workdir / "scene"),
                 "--config", str(workdir / "config.json"),
                 "--episodes", str(generated), "--predictions", str(preds),
                 "--radius", "20", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["sr"] == 1.0
    assert report["osr"] == 1.0
    assert report["spl"] > 0.9
    assert (report["count"], report["missing_predictions"], report["unpredicted"]) == (5, 0, 0)


def test_eval_without_meta_goal_scores_against_the_final_pose(workdir, generated, tmp_path):
    episode = read_episodes(generated)[0]
    final = episode.trajectory.poses[-1].position
    assert final.distance_to(Point3(*episode.meta.pop("goal"))) > 0.01  # the two differ
    episodes = tmp_path / "episodes.jsonl"
    episodes.write_text(json.dumps(ds.episode_to_dict(episode)) + "\n")
    preds = write_predictions(tmp_path / "preds.jsonl", [episode])
    assert main(["eval", *scene_args(workdir), "--episodes", str(episodes),
                 "--predictions", str(preds), "--out", str(tmp_path / "eval.json")]) == 0
    assert json.loads((tmp_path / "eval.json").read_text())["ne"] == pytest.approx(0.0, abs=1e-9)


def test_eval_replays_at_most_step_cap_actions(workdir, generated, tmp_path):
    # Twelve turns face the drone as before, so the episode's own actions
    # still reach its goal after 12 of them; after STEP_CAP + 4 of them
    # (a multiple of 12), eval has replayed only turns: the drone never
    # left its start. `validate` replays every action (test_pipeline).
    episode = read_episodes(generated)[0]
    own = [a.to_dict() for a in episode.trajectory.actions]
    start_to_goal = episode.trajectory.start.position.distance_to(Point3(*episode.meta["goal"]))
    summaries = []
    for turns in (12, ev.STEP_CAP + 4):
        preds = tmp_path / f"preds_{turns}.jsonl"
        preds.write_text(json.dumps({"episode_id": episode.episode_id,
                                     "actions": [tg.TURN_LEFT.to_dict()] * turns + own}))
        assert main(["eval", *scene_args(workdir), "--episodes", str(generated),
                     "--predictions", str(preds), "--out", str(tmp_path / "eval.json")]) == 0
        summaries.append(json.loads((tmp_path / "eval.json").read_text()))
    assert summaries[0]["sr"] == 1.0
    assert (summaries[1]["sr"], summaries[1]["osr"]) == (0.0, 0.0)
    assert summaries[1]["ne"] == pytest.approx(start_to_goal)


@pytest.mark.parametrize("source", ["scene", "spec"])
def test_eval_replays_on_the_bundle_nav_grid(workdir, generated, tmp_path, monkeypatch,
                                             source):
    cfg = pl.load_pipeline_config(workdir / "config.json")
    if source == "scene":
        expected = pl.load_scene_dir(workdir / "scene", cfg).nav_grid
    else:
        spec = load_scene_spec(workdir / "spec.json")
        expected = pl.build_scene_bundle(spec, cfg).nav_grid
    # eval reads only the nav grid: no BEV, so no landmarks either.
    monkeypatch.setattr(pl, "bev_project", lambda *a, **k: pytest.fail("BEV built"))
    monkeypatch.setattr(seg, "extract_instances", lambda *a, **k: pytest.fail("landmarks built"))
    grids = []
    replay = ev.replay
    monkeypatch.setattr(ev, "replay", lambda start, actions, grid:
                        grids.append(grid) or replay(start, actions, grid))
    preds = write_predictions(tmp_path / "preds.jsonl", read_episodes(generated))
    source_arg = {"scene": workdir / "scene", "spec": workdir / "spec.json"}[source]
    assert main(["eval", f"--{source}", str(source_arg), "--config", str(workdir / "config.json"),
                 "--episodes", str(generated), "--predictions", str(preds)]) == 0
    assert len(grids) == 5 and all(grid is grids[0] for grid in grids)
    grid = grids[0]
    assert grid.origin.tobytes() == expected.origin.tobytes()
    assert (grid.voxel_size, grid.dims) == (expected.voxel_size, expected.dims)
    assert grid.occupancy.dtype == expected.occupancy.dtype
    assert grid.occupancy.tobytes() == expected.occupancy.tobytes()


SCENE_READERS = ["eval", "validate", "dataset filter"]  # none reads landmarks


def scene_reader_output(command: str, scene: Path, config: Path, episodes: Path,
                        tmp_path: Path, capsys) -> tuple[str, bytes | None]:
    """Exit code 0 asserted, then (stdout, bytes of --out) of one command."""
    out = tmp_path / "out"
    out.unlink(missing_ok=True)
    preds = write_predictions(tmp_path / "preds.jsonl", read_episodes(episodes))
    argv = {"eval": ["eval", "--predictions", str(preds), "--out", str(out)],
            "validate": ["validate"],
            "dataset filter": ["dataset", "filter", "--out", str(out)]}[command]
    assert main([*argv, "--scene", str(scene), "--config", str(config),
                 "--episodes", str(episodes)]) == 0
    return capsys.readouterr().out, out.read_bytes() if out.exists() else None


def bare_scene(workdir, root: Path) -> Path:
    """The CLI scene without landmarks.json."""
    scene = root / "scene"
    scene.mkdir()
    for name in ("scene.json", "cloud.npy"):
        shutil.copy(workdir / "scene" / name, scene)
    return scene


@pytest.mark.parametrize("command", SCENE_READERS)
def test_makes_no_vlm_call(workdir, generated, tmp_path, capsys, command):
    # A replay-mode config with an empty cache fails every VLM request; a
    # scene without landmarks.json would need captions to have landmarks.
    scene = bare_scene(workdir, tmp_path)
    cache = tmp_path / "cache"
    cache.mkdir()
    doc = json.loads((workdir / "config.json").read_text())
    outputs = {}
    for mode in ("mock", "replay"):
        config = tmp_path / f"{mode}.json"
        config.write_text(json.dumps({**doc, "vlm": {"mode": mode, "cache_dir": str(cache)}}))
        outputs[mode] = scene_reader_output(command, scene, config, generated, tmp_path,
                                            capsys)
    assert outputs["replay"] == outputs["mock"]
    if command == "eval":
        assert json.loads(outputs["replay"][1])["sr"] == 1.0


@pytest.mark.parametrize("command", SCENE_READERS)
def test_malformed_landmarks_json_changes_no_output(workdir, generated, tmp_path, capsys,
                                                    command):
    scene = bare_scene(workdir, tmp_path)
    config = workdir / "config.json"
    bare = scene_reader_output(command, scene, config, generated, tmp_path, capsys)
    (scene / "landmarks.json").write_text("{not json")
    assert scene_reader_output(command, scene, config, generated, tmp_path, capsys) == bare


def test_eval_refuses_a_repeated_prediction(workdir, generated, tmp_path, capsys):
    first, second = read_episodes(generated)[:2]
    preds = write_predictions(tmp_path / "preds.jsonl", [first, second, first])
    assert main(["eval", *scene_args(workdir), "--episodes", str(generated),
                 "--predictions", str(preds)]) == 2
    err = one_line_error(capsys)
    assert f"preds.jsonl:3: episode {first.episode_id!r} is already predicted on line 1" in err


@pytest.mark.parametrize("command", ["validate", "eval", "instruct", "dataset stats"])
def test_episode_file_not_utf8(workdir, generated, tmp_path, capsys, command):
    lines = generated.read_bytes().splitlines(keepends=True)
    episodes = tmp_path / "bad.jsonl"
    episodes.write_bytes(lines[0] + b"\xff" + b"".join(lines[1:]))
    preds = write_predictions(tmp_path / "preds.jsonl", read_episodes(generated)[:1])
    argv = {"validate": ["validate", *scene_args(workdir)],
            "eval": ["eval", *scene_args(workdir), "--predictions", str(preds)],
            "instruct": ["instruct", *scene_args(workdir), "--out", str(tmp_path / "x.jsonl")],
            "dataset stats": ["dataset", "stats"]}[command]
    assert main([*argv, "--episodes", str(episodes)]) == 1
    message = "'utf-8' codec can't decode byte 0xff in position 0"
    if command == "validate":
        report = json.loads(capsys.readouterr().out)
        assert report["episodes_checked"] == 5
        assert [(v["episode_id"], v["kind"]) for v in report["violations"]] == \
            [("line 2", "schema")]
        assert message in report["violations"][0]["detail"]
    else:
        assert f"bad.jsonl:2: {message}" in one_line_error(capsys)


def test_keyframe_command(workdir, monkeypatch):
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
    logs = []  # the log argument of every merge_tokens call
    merge_tokens = kf.merge_tokens

    def recording_merge(keyframe_set, threshold, log=None):
        logs.append(log)
        return merge_tokens(keyframe_set, threshold, log=log)

    monkeypatch.setattr(kf, "merge_tokens", recording_merge)
    out = workdir / "obs.bin"
    args = ["keyframe", "--actions", str(actions_path), "--tokens", str(tokens_dir),
            "--config", str(cfg_path), "--out", str(out)]
    assert main(args) == 0
    assert logs and all(arg is None for arg in logs)  # no --log: no events collected
    plain = out.read_bytes()
    logs.clear()
    log = workdir / "merges.json"
    assert main([*args, "--log", str(log)]) == 0
    assert out.read_bytes() == plain
    assert load_tokens(out).count >= 16
    events = logs[0]
    assert events and all(arg is events for arg in logs)
    assert log.read_bytes() == merge_log_json(events).encode()


def test_bad_config_exits_2(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_knob": 1}))
    assert main(["generate", "--scene", str(workdir / "scene"),
                 "--config", str(bad), "--count", "1",
                 "--out", str(tmp_path / "x.jsonl")]) == 2


@pytest.mark.parametrize("command", ["generate", "trajgen"])
def test_no_eligible_landmark_exits_2(workdir, tmp_path, capsys, command):
    # No draw can make a landmark taller, so this is a config error, not a
    # report of sampling failures.
    doc = json.loads((workdir / "config.json").read_text())
    doc["trajgen"]["min_landmark_height"] = 1000
    config = tmp_path / "tall.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out.jsonl"
    assert main([command, *scene_args(workdir, config), "--count", "3",
                 "--out", str(out)]) == 2
    assert one_line_error(capsys) == "config error: no landmark at least 1000 m tall"
    assert not out.exists()


@pytest.mark.parametrize("command", ["read", "write"])
def test_overlong_path_exits_2(workdir, generated, tmp_path, capsys, command):
    overlong = str(tmp_path / ("a" * 5000))
    argv = {"read": ["validate", "--episodes", overlong],
            "write": ["dataset", "stats", "--episodes", str(generated),
                      "--json", overlong]}[command]
    assert main(argv) == 2
    assert one_line_error(capsys).startswith("config error: [Errno ")


def test_missing_scene_exits_2(tmp_path):
    assert main(["generate", "--count", "1",
                 "--out", str(tmp_path / "x.jsonl")]) == 2


@pytest.mark.parametrize("command", ["validate", "dataset stats", "eval", "generate",
                                     "keyframe"])
def test_directory_as_input_file_exits_2(workdir, generated, tmp_path, capsys, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    out = str(tmp_path / "out")
    argv = {"validate": ["validate", *scene_args(workdir), "--episodes", str(folder)],
            "dataset stats": ["dataset", "stats", "--episodes", str(folder)],
            "eval": ["eval", *scene_args(workdir), "--episodes", str(generated),
                     "--predictions", str(folder)],
            "generate": ["generate", "--spec", str(folder), "--count", "1", "--out", out],
            "keyframe": ["keyframe", "--actions", str(folder), "--tokens", str(tmp_path),
                         "--out", out]}[command]
    assert main(argv) == 2
    assert str(folder) in one_line_error(capsys)


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


def test_trajgen_retries_failed_searches(workdir, tmp_path, capsys, monkeypatch):
    doc = json.loads((workdir / "config.json").read_text())
    config = tmp_path / "one_worker.json"
    config.write_text(json.dumps({**doc, "workers": 1}))  # searches run one at a time
    search, calls = tg.astar_search, []

    def every_other_search_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) % 2:
            raise tg.NoPathError("every other search fails")
        return search(*args, **kwargs)

    monkeypatch.setattr(tg, "astar_search", every_other_search_fails)
    out = tmp_path / "trajs.jsonl"
    assert main(["trajgen", *scene_args(workdir, config), "--count", "5",
                 "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["search_failures"] > 0
    assert report["accepted"] == 5
    assert len(read_episodes(out)) == 5


def test_instruct_mode_defaults_to_the_config(workdir, trajs, tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    doc = json.loads((workdir / "config.json").read_text())
    config = tmp_path / "replay.json"
    config.write_text(json.dumps({**doc, "vlm": {"mode": "replay", "cache_dir": str(cache)}}))
    instruct = ["instruct", *scene_args(workdir, config), "--episodes",
                str(trajs), "--out", str(tmp_path / "x.jsonl")]
    assert main(instruct) == 1
    assert "no recorded reply" in one_line_error(capsys)
    assert main([*instruct, "--mode", "mock"]) == 0


def test_replay_with_empty_cache_exits_1(workdir, tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    replay = ["generate", *scene_args(workdir), "--count", "1", "--mode", "replay",
              "--out", str(tmp_path / "x.jsonl")]
    assert main([*replay, "--cache-dir", str(cache)]) == 1
    err = one_line_error(capsys)
    assert err.startswith("error: no recorded reply for request hash ") and "'" not in err
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
    *[("landmarks.json", lambda spec, centroid=centroid: json.dumps([{
        "id": 3, "contour": [[20, 20], [38, 20], [38, 38]], "centroid": centroid,
        "height": 32.0, "area": 324.0, "cells": [[20, 20]]}]),
       "centroid must be two finite numbers")
      for centroid in ([29], [1, 2, 3], [float("inf"), 29], ["a", 1])],
    *[("landmarks.json", lambda spec, field=field: json.dumps([{
        "id": 3, "contour": [[20, 20], [38, 20], [38, 38]], "centroid": [29, 29],
        "height": 32.0, "area": 324.0, "cells": [[20, 20]], **field}]), message)
      for field, message in (({"id": 2.7}, "id must be an integer"),
                             ({"height": "12"}, "height must be a number"),
                             ({"area": True}, "area must be a number"))],
    *[("scene.json", lambda spec, edit=edit: json.dumps(edit(json.loads(spec))), message)
      for edit, message in (
          (lambda doc: {**doc, "buildings": [{**doc["buildings"][0], "height": "5"}]},
           "building height must be a number"),
          (lambda doc: {**doc, "buildings": [{**doc["buildings"][0], "label": 7}]},
           "building label must be a string"),
          (lambda doc: {**doc, "trees": [{**doc["trees"][0], "position": ["60", 30]}]},
           "tree position must be two finite numbers"))],
    *[("landmarks.json", lambda spec, caption=caption: json.dumps([{
        "id": 3, "contour": [[20, 20], [38, 20], [38, 38]], "centroid": [29, 29],
        "height": 32.0, "area": 324.0, "cells": [[20, 20]], "caption": caption}]), message)
      for caption, message in (
          ({"color": 5, "feature": ["x"], "size": None, "type": "tower"},
           "caption color must be a string"),
          ("red", "caption must be an object"))],
    *[("landmarks.json", lambda spec, doc=doc: json.dumps(doc),
       "landmarks.json: document must be a list of objects") for doc in ([1, 2], "x", {"a": 1})],
    ("scene.json", lambda spec: "[1, 2]", "scene.json: document must be an object, got [1, 2]"),
], ids=["two_field_cloud", "negative_extent", "spec_not_json",
        "landmark_without_contour", "overlapping_footprints", "landmark_without_cells",
        "cloud_not_utf8", "one_index_cell", "three_index_cell", "one_number_centroid",
        "three_number_centroid", "infinite_centroid", "string_centroid",
        "fractional_landmark_id", "string_landmark_height", "bool_landmark_area",
        "string_building_height", "int_building_label",
        "string_tree_position", "non_string_caption_fields", "string_caption",
        "landmarks_list_of_numbers", "landmarks_string", "landmarks_object", "spec_list"])
def test_malformed_scene_files_exit_2(workdir, tmp_path, capsys, name, edit, message):
    scene = tmp_path / "scene"
    scene.mkdir()
    spec = (workdir / "scene" / "scene.json").read_text()
    (scene / "scene.json").write_text(spec)
    shutil.copy(workdir / "scene" / "cloud.npy", scene)
    if name == "cloud.txt":
        (scene / "cloud.npy").unlink()  # the text cloud replaces it
    (scene / name).write_bytes(edit(spec).encode("utf-8", "surrogateescape"))  # \udcff: 0xff
    assert main(["trajgen", "--scene", str(scene), "--count", "1",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    assert message in one_line_error(capsys)


# -- scene clouds: cloud.npy, checked before it is allocated -------------------

def saved(save, *args, **kwargs) -> bytes:
    """The bytes ``save(file, *args, **kwargs)`` writes, as ``np.save`` or ``np.savez``."""
    buf = io.BytesIO()
    save(buf, *args, **kwargs)
    return buf.getvalue()


def huge_header_npy() -> bytes:
    """A header claiming (10**9, 3) float64, 22.4 GiB, over 48 bytes of payload."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (10**9, 3)})
    return buf.getvalue() + bytes(48)


POINTS = np.arange(12.0).reshape(4, 3)
BAD_NPY = {
    "empty": (lambda: b"", "not a .npy array"),
    "truncated": (lambda: saved(np.save, POINTS)[:-8],
                  "needs 96 bytes of data, the file holds 88"),
    "pickled_objects": (lambda: saved(np.save, np.full((2, 3), None, dtype=object),
                                      allow_pickle=True), "dtype |O, expected float64"),
    "npz_archive": (lambda: saved(np.savez, points=POINTS), "not a .npy array"),
    "text": (lambda: b"1 2 3\n4 5 6\n", "not a .npy array"),
    "float32": (lambda: saved(np.save, POINTS.astype(np.float32)), "dtype <f4, expected float64"),
    "one_dimensional": (lambda: saved(np.save, POINTS.ravel()), "shape (12,), expected (n, 3)"),
    "four_columns": (lambda: saved(np.save, POINTS.reshape(3, 4)),
                     "shape (3, 4), expected (n, 3)"),
    "nan": (lambda: saved(np.save, np.where(POINTS == 7.0, np.nan, POINTS)),
            "row 2: non-finite value"),
    "inf": (lambda: saved(np.save, np.where(POINTS == 0.0, -np.inf, POINTS)),
            "row 0: non-finite value"),
}


def scene_with_cloud(workdir, root: Path, data: bytes) -> Path:
    """The CLI scene's scene.json beside a cloud.npy holding ``data``."""
    scene = root / "scene"
    scene.mkdir()
    shutil.copy(workdir / "scene" / "scene.json", scene)
    (scene / "cloud.npy").write_bytes(data)
    return scene


@pytest.mark.parametrize("case", BAD_NPY)
def test_malformed_npy_cloud_exits_2(workdir, generated, tmp_path, capsys, case):
    data, message = BAD_NPY[case]
    scene = scene_with_cloud(workdir, tmp_path, data())
    assert main(["validate", "--scene", str(scene), "--episodes", str(generated)]) == 2
    err = one_line_error(capsys)
    assert err.startswith(f"config error: {scene / 'cloud.npy'}: ") and message in err, err


def test_npy_header_larger_than_memory_exits_2(workdir, generated, tmp_path):
    # A reader that allocates the header's shape first, as np.load does,
    # dies of a MemoryError traceback under the cap.
    scene = scene_with_cloud(workdir, tmp_path, huge_header_npy())
    done = run_capped(["validate", "--scene", scene, "--episodes", generated], 2 << 30,
                      "RLIMIT_AS")
    assert done.returncode == 2, done.stderr
    assert done.stderr.strip() == (f"config error: {scene / 'cloud.npy'}: shape (1000000000, 3) "
                                   "needs 24000000000 bytes of data, the file holds 48")


@pytest.mark.parametrize("cloud, flags, message", [
    (None, ["--voxel-size", "0.001"], "a 0.001 m grid over this cloud needs 5.54e+14 voxels"),
    ([[0.0, 0.0, 0.0], [1e9, 0.0, 0.0]], [], "a 1.0 m grid over this cloud needs 2.5e+10 voxels"),
    ([[0.0, 0.0, 0.0], [1e300, 1e300, 1e300]], [], "a 1.0 m grid over this cloud needs inf voxels"),
    (None, ["--voxel-size", "1e-10", "--margin", "1e300"],
     "a 1e-10 m grid over this cloud needs inf voxels"),
], ids=["millimetre_voxels", "cloud_spanning_1e9_m", "point_at_1e300", "margin_of_1e310_voxels"])
def test_grid_past_the_voxel_cap_exits_2(workdir, tmp_path, cloud, flags, message):
    # The cell count is checked before anything is allocated. Under the cap,
    # a MemoryError, "array is too big" or "negative dimensions" traceback
    # ended these runs before.
    scene = (workdir / "scene" if cloud is None
             else scene_with_cloud(workdir, tmp_path, saved(np.save, np.array(cloud))))
    done = run_capped(["voxelize", "--scene", scene, *flags, "--out", tmp_path / "grid.bin"],
                      2 << 30, "RLIMIT_AS")
    assert done.returncode == 2, done.stderr
    assert done.stderr.strip() == f"config error: {message}, more than MAX_VOXELS (1e+09)"
    assert not (tmp_path / "grid.bin").exists()


@pytest.mark.parametrize("command", ["voxelize", "trajgen"])
def test_grid_past_the_coordinate_bound_exits_2(workdir, tmp_path, capsys, command):
    # Poses planned in it could lie past MAX_COORDINATE, which the episode readers refuse.
    scene = scene_with_cloud(workdir, tmp_path, saved(np.save, np.array(
        [[2e9, 0.0, 0.0], [2e9 + 40.0, 40.0, 40.0]])))
    argv = {"voxelize": ["voxelize", "--scene", str(scene)],
            "trajgen": ["trajgen", *scene_args(workdir), "--scene", str(scene), "--count", "1"]}
    assert main([*argv[command], "--out", str(tmp_path / "out")]) == 2
    assert one_line_error(capsys) == ("config error: a grid over this cloud reaches 2e+09 m "
                                      "from the origin, more than MAX_COORDINATE (1e+09 m)")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(extent=[1e7, 1e7]), "samples up to 4e+14 points"),
    (lambda doc: doc["buildings"][0].update(height=1e12), "samples up to 3.04e+14 points"),
], ids=["extent_of_1e7_m", "building_1e12_m_tall"])
def test_scene_past_the_point_cap_exits_2(tmp_path, edit, message):
    # The point count is bounded from the spec before anything is
    # allocated: sampling these specs needs an 8.5 PiB ground grid or
    # 14.6 TiB of wall.
    doc = asdict(small_spec())
    edit(doc)
    spec = tmp_path / "scene.json"
    spec.write_text(json.dumps(doc))
    done = run_capped(["scene", "synth", "--spec", spec, "--out", tmp_path / "out"],
                      2 << 30, "RLIMIT_AS")
    assert done.returncode == 2, done.stderr
    assert done.stderr.strip() == (f"config error: scene 'cli-scene' {message}, "
                                   "more than MAX_POINTS (4e+07)")
    assert not (tmp_path / "out").exists()


def test_scene_dir_with_both_clouds_exits_2(workdir, generated, tmp_path, capsys):
    scene = bare_scene(workdir, tmp_path)
    (scene / "cloud.txt").write_text("1 2 3\n")
    assert main(["validate", "--scene", str(scene), "--episodes", str(generated)]) == 2
    assert f"{scene} holds both cloud.npy and cloud.txt" in one_line_error(capsys)


def test_scene_synth_refuses_a_dir_with_a_text_cloud(tmp_path, capsys):
    out = tmp_path / "scene"
    out.mkdir()
    (out / "cloud.txt").write_text("1 2 3\n")
    assert main(["scene", "synth", "--out", str(out)]) == 2
    assert f"{out / 'cloud.txt'} is already there" in one_line_error(capsys)
    assert [p.name for p in out.iterdir()] == ["cloud.txt"]
    assert (out / "cloud.txt").read_text() == "1 2 3\n"


DESK_CONFIG = {"seed": 7, "trajgen": {"height_range": [15.0, 40.0], "min_landmark_height": 20.0,
                                     "start_distance_range": [40.0, 90.0]}}  # README run_config
DEFAULT_CONFIG = {"seed": 7}  # the CLI's default TrajGenConfig ranges


@pytest.fixture(scope="module")
def demo_scenes(tmp_path_factory) -> tuple[Path, Path]:
    """The demo scene twice: as ``scene synth`` writes it (cloud.npy), and
    with the same cloud as text (cloud.txt), as clouds made elsewhere come."""
    root = tmp_path_factory.mktemp("demo")
    binary, text = root / "npy", root / "txt"
    assert main(["scene", "synth", "--out", str(binary)]) == 0
    text.mkdir()
    shutil.copy(binary / "scene.json", text)
    save_point_cloud(synthesize_scene(pl.demo_scene_spec()), text / "cloud.txt")
    return binary, text


@pytest.fixture(scope="module")
def demo_config(demo_scenes) -> Path:
    path = demo_scenes[0].parent / "desk.json"
    path.write_text(json.dumps(DESK_CONFIG))
    return path


@pytest.fixture(scope="module")
def demo_episodes(demo_scenes, demo_config) -> Path:
    out = demo_scenes[0].parent / "episodes.jsonl"
    assert main(["generate", "--scene", str(demo_scenes[0]), "--config", str(demo_config),
                 "--count", "20", "--out", str(out)]) == 0
    return out


def test_npy_and_text_clouds_load_bit_identical(demo_scenes):
    (spec, binary), (text_spec, text) = map(pl.read_scene_dir, demo_scenes)
    assert spec == text_spec
    assert binary.points.shape == text.points.shape
    assert binary.points.tobytes() == text.points.tobytes()


@pytest.mark.parametrize("doc, count", [(DESK_CONFIG, 20), (DEFAULT_CONFIG, 3)],
                         ids=["gen_desk", "cli_default"])
def test_generate_is_byte_identical_on_npy_and_text_clouds(demo_scenes, tmp_path, doc, count):
    outputs = set()
    for workers in (1, 2):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**doc, "workers": workers}))
        for scene in demo_scenes:
            out = tmp_path / "out.jsonl"
            assert main(["generate", "--scene", str(scene), "--config", str(config),
                         "--count", str(count), "--out", str(out)]) == 0
            assert len(out.read_bytes().splitlines()) == count
            outputs.add(out.read_bytes())
    assert len(outputs) == 1


@pytest.mark.parametrize("command", SCENE_READERS)
def test_scene_readers_are_byte_identical_on_npy_and_text_clouds(
        demo_scenes, demo_config, demo_episodes, tmp_path, capsys, command):
    capsys.readouterr()
    binary, text = (scene_reader_output(command, scene, demo_config, demo_episodes,
                                        tmp_path, capsys) for scene in demo_scenes)
    assert binary == text


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "document must be an object, got [1, 2]"),
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
    ({"stamp_outputs": True}, "unknown config keys: ['stamp_outputs']"),
    ({"schema_version": 1}, "unknown config keys: ['schema_version']"),
    ({"bev_min_height": 2.0}, "unknown config keys: ['bev_min_height']"),
    ({"min_area": 20.0}, "unknown config keys: ['min_area']"),
    ({"tree_height": 15.0}, "unknown config keys: ['tree_height']"),
    ({"coref_threshold": 0.6}, "unknown config keys: ['coref_threshold']"),
    ({"trajgen": {"goal_offset": 10.0}}, "unknown config keys: ['trajgen.goal_offset']"),
    ({"trajgen": {"max_sample_attempts": 0}},
     "trajgen.max_sample_attempts must be an integer >= 1"),
    ({"trajgen": {"max_expansions": 0}}, "trajgen.max_expansions must be an integer >= 1"),
    *[({"trajgen": {"height_range": span}},
       "trajgen.height_range needs min <= max and a finite max - min")
      for span in ([40.0, 20.0], [-1e308, 1e308])],
], ids=["list", "trajgen_not_object", "vlm_not_object", "string_seed", "bool_seed",
        "float_segments", "string_workers", "scalar_range", "three_field_range",
        "unknown_vlm_key", "int_cache_dir", "removed_stamp_outputs", "removed_schema_version",
        "removed_bev_min_height",
        "removed_min_area", "removed_tree_height", "removed_coref_threshold",
        "removed_goal_offset",
        "zero_sample_attempts", "zero_expansions", "inverted_height_range",
        "overflowing_height_span"])
def test_malformed_config_exit_2(workdir, tmp_path, capsys, doc, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["trajgen", *scene_args(workdir, config), "--count", "1",
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    err = one_line_error(capsys)
    assert err.startswith(f"config error: {config}: ") and message in err


def test_unknown_vlm_mode_exits_2(workdir, generated, tmp_path, capsys):
    # Every command that reads a config refuses the mode as it loads it,
    # also those that never build a VLM client.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"vlm": {"mode": "bogus"}}))
    preds = write_predictions(tmp_path / "preds.jsonl", read_episodes(generated)[:1])
    out = tmp_path / "x.jsonl"
    for argv in (["generate", "--count", "1", "--out", str(out)],
                 ["validate", "--episodes", str(generated)],
                 ["eval", "--episodes", str(generated), "--predictions", str(preds)],
                 ["dataset", "filter", "--episodes", str(generated), "--out", str(out)]):
        capsys.readouterr()
        assert main([*argv, *scene_args(workdir, config)]) == 2, argv
        assert one_line_error(capsys) == f"config error: {config}: unknown VLM mode 'bogus'"
        assert not out.exists()


@pytest.mark.parametrize("content, build, detail", [
    (None, None, "No such file or directory"),
    (b"\xff[]", None, "'utf-8' codec can't decode byte 0xff"),
    (b"{not json", None, "Expecting property name"),
    (b"[1]", None, "document must be an object, got [1]"),
    (b"[" * 100_000 + b"]" * 100_000, None, "maximum recursion depth exceeded"),
    (b"{}", lambda doc: doc["contour"], "missing key 'contour'"),
    (b"{}", lambda doc: doc + 1, "unsupported operand type(s) for +: 'dict' and 'int'"),
    (b'{"bogus": 1}', pl.pipeline_config_from_dict, "unknown config keys: ['bogus']"),
], ids=["missing", "not_utf8", "not_json", "wrong_kind", "deeply_nested", "key_error",
        "type_error", "config_error"])
def test_load_json_failure_is_one_config_error_naming_the_file(tmp_path, content, build,
                                                               detail):
    path = tmp_path / "side.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError) as info:
        load_json(path, "an object", build)
    assert str(info.value).startswith(f"{path}: {detail}")


@pytest.mark.parametrize("line", [
    "{not json",
    json.dumps({"actions": [{"kind": "stop"}]}),
    json.dumps({"episode_id": "cli-scene-000000"}),
    json.dumps({"episode_id": ["cli-scene-000000"], "actions": [{"kind": "stop"}]}),
    json.dumps({"episode_id": "cli-scene-000000", "actions": [{"kind": "fly"}]}),
    "\udcff",
    "[" * 100_000,
], ids=["not_json", "no_episode_id", "no_actions", "list_episode_id", "bad_action",
        "not_utf8", "nested_100000_deep"])
def test_malformed_predictions_exit_2(workdir, generated, tmp_path, capsys, line):
    first = read_episodes(generated)[0]
    good = json.dumps({"episode_id": first.episode_id,
                       "actions": [a.to_dict() for a in first.trajectory.actions]})
    preds = tmp_path / "preds.jsonl"
    preds.write_bytes((good + "\n" + line + "\n").encode("utf-8", "surrogateescape"))
    assert main(["eval", *scene_args(workdir), "--episodes", str(generated),
                 "--predictions", str(preds)]) == 2
    assert "preds.jsonl" in one_line_error(capsys)


@pytest.mark.parametrize("meta, message", [
    ({"goal": [1.0, 2.0]}, "meta.goal must be three finite numbers"),
    ({"gt_length": "abc"}, "meta.gt_length must be a finite number > 0"),
    ({"gt_length": -1.0}, "meta.gt_length must be a finite number > 0"),
], ids=["two_field_goal", "string_gt_length", "negative_gt_length"])
def test_malformed_episode_meta_is_one_line_error(workdir, generated, tmp_path, capsys, meta,
                                                  message):
    first = read_episodes(generated)[0]
    doc = json.loads(generated.read_text().splitlines()[0])
    doc["meta"].update(meta)
    episodes = tmp_path / "episodes.jsonl"
    episodes.write_text(json.dumps(doc) + "\n")
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"episode_id": first.episode_id,
                                 "actions": [a.to_dict() for a in first.trajectory.actions]}))
    assert main(["eval", *scene_args(workdir), "--episodes", str(episodes),
                 "--predictions", str(preds)]) == 1
    assert f"episodes.jsonl:1: {message}" in one_line_error(capsys)


@pytest.mark.parametrize("damaged", [5, [[1]], "abc"], ids=["int", "nested_list", "string"])
def test_malformed_damaged_image_indices(workdir, generated, tmp_path, capsys, damaged):
    doc = json.loads(generated.read_text().splitlines()[0])
    doc["meta"]["damaged_image_indices"] = damaged
    episodes = tmp_path / "episodes.jsonl"
    episodes.write_text(json.dumps(doc) + "\n")
    message = "meta.damaged_image_indices must be a list of integers"
    assert main(["validate", "--episodes", str(episodes)]) == 1
    [violation] = json.loads(capsys.readouterr().out)["violations"]
    assert violation["kind"] == "schema" and message in violation["detail"]
    assert main(["dataset", "filter", "--episodes", str(episodes),
                 "--out", str(tmp_path / "kept.jsonl")]) == 1
    assert f"episodes.jsonl:1: {message}" in one_line_error(capsys)


def _set(container, key, value):
    container[key] = value


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(actions=doc["actions"][:-1], poses=doc["poses"][:-1],
                            image_refs=doc["image_refs"][:-1]),
     "trajectory actions must end with Stop"),
    (lambda doc: doc.update(actions=doc["actions"][:1] + doc["actions"][-1:] + doc["actions"][1:],
                            poses=doc["poses"][:2] + doc["poses"][1:],
                            image_refs=doc["image_refs"][:2] + doc["image_refs"][1:]),
     "trajectory actions hold a Stop before the last action"),
    (lambda doc: doc.update(poses=doc["poses"][:-1], image_refs=doc["image_refs"][:-1]),
     "trajectory has"),
    (lambda doc: doc.update(poses=doc["poses"] + doc["poses"][-1:],
                            image_refs=doc["image_refs"] + ["extra"]), "trajectory has"),
    (lambda doc: _set(doc["instruction"], "text", 5), "instruction.text must be a string"),
    (lambda doc: _set(doc["instruction"], "sub_instructions", "abc"),
     "instruction.sub_instructions must be a list of strings"),
    *[(lambda doc, v=v: _set(doc, "target_landmark_id", v),
       "target_landmark_id must be an integer") for v in (2.7, "3", True)],
    (lambda doc: _set(doc["image_refs"], 0, 1), "image_refs must be a list of strings"),
    (lambda doc: _set(doc, "episode_id", 5), "episode_id must be a string"),
    (lambda doc: _set(doc["start"]["position"], 0, str(doc["start"]["position"][0])),
     "pose position must be three finite numbers"),
    (lambda doc: _set(doc["poses"][1]["position"], 0, doc["poses"][1]["position"][0] + 5.0),
     "pose 1 deviates from the action rollout"),
    (lambda doc: _set(doc["poses"][1], "yaw", (doc["poses"][1]["yaw"] + 30.0) % 360.0),
     "pose 1 deviates from the action rollout"),
    (lambda doc: _set(doc, "meta", [list(item) for item in doc["meta"].items()]),
     "meta must be an object"),
    (lambda doc: _set(doc, "instruction", "abc"), "instruction must be an object"),
    (lambda doc: doc.update(image_refs=doc["image_refs"][:-1]),
     "episode cli-scene-000000: 3 image refs for 4 poses"),
    (lambda doc: [p["position"].__setitem__(2, 1e308) for p in [doc["start"], *doc["poses"]]],
     "pose position must lie within MAX_COORDINATE (1e+09 m) of the origin"),
    (lambda doc: _set(doc["meta"], "goal", [1.7e308] * 3),
     "meta.goal must lie within MAX_COORDINATE (1e+09 m) of the origin"),
], ids=["no_final_stop", "mid_stop", "one_pose_short", "one_pose_extra", "int_instruction_text",
        "string_sub_instructions", "fractional_target_landmark_id",
        "string_target_landmark_id", "bool_target_landmark_id", "int_image_ref",
        "int_episode_id", "string_start_coordinate", "pose_1_moved_5_m", "pose_1_yaw_plus_30",
        "meta_list_of_pairs", "string_instruction", "one_image_ref_short",
        "poses_at_1e308_m", "goal_at_1_7e308_m"])
def test_malformed_episode_is_refused_by_every_reader(workdir, generated, tmp_path, capsys,
                                                      edit, message):
    doc = json.loads(generated.read_text().splitlines()[0])
    edit(doc)
    episodes = tmp_path / "episodes.jsonl"
    episodes.write_text(json.dumps(doc) + "\n")
    preds = write_predictions(tmp_path / "preds.jsonl", read_episodes(generated)[:1])
    assignment = tmp_path / "assignment.json"
    assignment.write_text(json.dumps({"cli-scene": "train"}))
    for command in (["instruct", *scene_args(workdir), "--out", str(tmp_path / "out.jsonl")],
                    ["dataset", "filter", "--out", str(tmp_path / "out.jsonl")],
                    ["dataset", "split", "--assignment", str(assignment),
                     "--out-dir", str(tmp_path / "splits")],
                    ["dataset", "stats"],
                    ["eval", *scene_args(workdir), "--predictions", str(preds)]):
        assert main([*command, "--episodes", str(episodes)]) == 1, command
        assert f"episodes.jsonl:1: {message}" in one_line_error(capsys)
    assert not (tmp_path / "out.jsonl").exists() and not (tmp_path / "splits").exists()
    assert main(["validate", "--episodes", str(episodes)]) == 1
    [violation] = json.loads(capsys.readouterr().out)["violations"]
    assert (violation["episode_id"], violation["kind"]) == ("line 1", "schema")
    assert message in violation["detail"]


def test_eval_zero_length_ground_truth_exits_2(workdir, generated, tmp_path, capsys):
    from uavnav.dataset import episode_to_dict
    from uavnav.trajgen import STOP, TURN_LEFT, Trajectory
    episode = read_episodes(generated)[0]
    episode.trajectory = Trajectory(episode.trajectory.start, [TURN_LEFT, STOP])
    episode.image_refs = episode.image_refs[:3]
    del episode.meta["gt_length"]
    episodes = tmp_path / "episodes.jsonl"
    episodes.write_text(json.dumps(episode_to_dict(episode)) + "\n")
    preds = write_predictions(tmp_path / "preds.jsonl", [episode])
    assert main(["eval", *scene_args(workdir), "--episodes", str(episodes),
                 "--predictions", str(preds)]) == 2
    assert f"episodes.jsonl: episode {episode.episode_id!r} has a zero-length" \
        in one_line_error(capsys)


@pytest.mark.parametrize("command", ["eval", "instruct", "dataset stats"])
def test_unsupported_schema_version_is_one_line_error(workdir, generated, tmp_path, capsys,
                                                      command):
    episodes = with_schema_version(generated, tmp_path / "v99.jsonl", 99)
    first = read_episodes(generated)[0]
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"episode_id": first.episode_id,
                                 "actions": [a.to_dict() for a in first.trajectory.actions]}))
    argv = {"eval": ["eval", *scene_args(workdir), "--predictions", str(preds)],
            "instruct": ["instruct", *scene_args(workdir), "--out", str(tmp_path / "x.jsonl")],
            "dataset stats": ["dataset", "stats"]}[command]
    assert main([*argv, "--episodes", str(episodes)]) == 1
    assert "v99.jsonl:1: unsupported schema_version 99" in one_line_error(capsys)


def test_validate_reports_every_unsupported_schema_version(workdir, generated, tmp_path,
                                                           capsys):
    episodes = with_schema_version(generated, tmp_path / "v99.jsonl", 99)
    assert main(["validate", *scene_args(workdir), "--episodes", str(episodes)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["episodes_checked"] == 5
    assert [(v["episode_id"], v["kind"], v["detail"]) for v in report["violations"]] == \
        [(f"line {n}", "schema", "unsupported schema_version 99") for n in range(1, 6)]


@pytest.mark.parametrize("actions, config, culprit", [
    ([{"kind": "forward", "magnitude": 3.0}, {"kind": "stop"}], {"bogus": 1}, "kf.json"),
    ([{"kind": "fly"}], {}, "actions.json"),
    ([{"kind": "forward", "magnitude": 3.0}, {"kind": "stop"}], {"window": -1}, "kf.json"),
    ([{"kind": "forward", "magnitude": 3.0}, {"kind": "stop"}], {"pooled_tokens": 4.0},
     "kf.json: pooled_tokens must be an integer"),
    ([{"kind": "forward", "magnitude": 3.0}, {"kind": "stop"}], {"capacity": 2.5},
     "kf.json: capacity must be an integer"),
    *[([{"kind": "forward", "magnitude": 3.0}, {"kind": "stop"}], {"window": window},
       "kf.json: window must be an integer") for window in (2.5, "1", True)],
], ids=["unknown_config_key", "bad_action", "negative_window", "float_pooled_tokens",
        "fractional_capacity", "fractional_window", "string_window", "bool_window"])
def test_malformed_keyframe_inputs_exit_2(tmp_path, capsys, actions, config, culprit):
    (tmp_path / "actions.json").write_text(json.dumps(actions))
    (tmp_path / "kf.json").write_text(json.dumps(config))
    assert main(["keyframe", "--actions", str(tmp_path / "actions.json"),
                 "--tokens", str(tmp_path), "--config", str(tmp_path / "kf.json"),
                 "--out", str(tmp_path / "obs.bin")]) == 2
    assert culprit in one_line_error(capsys)


@pytest.mark.parametrize("visibility", [{"0": 5}, {"x": [1]}, {"0": [[1]]}, {"0": [True]}],
                         ids=["ids_not_a_list", "frame_not_an_integer", "id_not_an_integer",
                              "bool_id"])
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
    *[([{"kind": "stop"}], [np.array(header, "<i8").tobytes() + np.ones(16, "<f4").tobytes()],
       f"frame_00000.bin: header {message}") for header, message in
      (((-4, 4), "counts (-4, 4) must both be >= 1"),
       ((2, 2), "(2, 2) needs 32 bytes, the file holds 80"))],
    ([{"kind": "stop"}], [np.ones((4, 2)), np.ones((4, 2))], ""),
    ([{"kind": "forward", "magnitude": 3.0}, {"kind": "move_up", "magnitude": 3.0},
      {"kind": "stop"}],
     [np.ones((4, 2)), np.ones((4, 3)), np.ones((4, 2)), np.ones((256, 2))], ""),
], ids=["truncated", "negative_header_rows", "short_header", "row_count", "dim_mismatch"])
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


@pytest.mark.parametrize("assignment, message", [
    ({"train": 5}, "split 'train' must be a list of scene ids, got 5"),
    ({"train": "demo"}, "split 'train' must be a list of scene ids, got 'demo'"),
    ({"train": ["s0", 1]}, "split 'train' must be a list of scene ids"),
    ({"s0": "bogus"}, "unknown split 'bogus' for scene 's0'"),
    ({"train": ["s0"], "test_unseen": ["s0"]}, "scene 's0' assigned to both"),
], ids=["count", "string", "non_string_scene", "unknown_split", "train_and_unseen"])
def test_dataset_split_malformed_assignment_exits_2(tmp_path, capsys, assignment, message):
    episodes = tmp_path / "empty.jsonl"
    episodes.write_text("")
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps(assignment))
    assert main(["dataset", "split", "--episodes", str(episodes), "--assignment", str(path),
                 "--out-dir", str(tmp_path / "splits")]) == 2
    assert f"assignment.json: {message}" in one_line_error(capsys)
    assert not (tmp_path / "splits").exists()


@pytest.mark.parametrize("lines", [
    [],
    [json.dumps({"episode_id": "no-such-episode", "actions": [{"kind": "stop"}]})],
], ids=["empty", "no_match"])
def test_eval_without_scorable_prediction_exits_2(workdir, generated, tmp_path, capsys,
                                                  monkeypatch, lines):
    # Checked before the scene is loaded.
    monkeypatch.setattr(pl, "read_scene_dir", lambda *a, **k: pytest.fail("scene loaded"))
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(line + "\n" for line in lines))
    assert main(["eval", *scene_args(workdir), "--episodes",
                 str(generated), "--predictions", str(preds)]) == 2
    assert "preds.jsonl" in one_line_error(capsys)


@pytest.mark.parametrize("radius", ["-5", "0", "nan", "inf"])
def test_eval_radius_must_be_finite_and_positive(workdir, generated, tmp_path, capsys,
                                                 monkeypatch, radius):
    # Checked before the scene is loaded.
    monkeypatch.setattr(pl, "read_scene_dir", lambda *a, **k: pytest.fail("scene loaded"))
    preds = write_predictions(tmp_path / "preds.jsonl", read_episodes(generated))
    assert main(["eval", *scene_args(workdir), "--episodes", str(generated),
                 "--predictions", str(preds), "--radius", radius]) == 2
    assert "radius must be a finite number > 0" in one_line_error(capsys)


def test_eval_with_some_predictions_missing_exits_1(workdir, generated, tmp_path):
    first = read_episodes(generated)[0]
    actions = [a.to_dict() for a in first.trajectory.actions]
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps({"episode_id": episode_id, "actions": actions}) + "\n"
                             for episode_id in (first.episode_id, "no-such-episode")))
    report = tmp_path / "eval.json"
    assert main(["eval", *scene_args(workdir), "--episodes", str(generated),
                 "--predictions", str(preds), "--out", str(report)]) == 1
    doc = json.loads(report.read_text())
    assert (doc["count"], doc["missing_predictions"], doc["unpredicted"]) == (1, 1, 4)


@pytest.mark.parametrize("command", ["generate", "trajgen"])
def test_negative_count_exits_2(workdir, tmp_path, capsys, monkeypatch, command):
    # Checked before the scene is loaded.
    monkeypatch.setattr(pl, "load_scene_dir", lambda *a, **k: pytest.fail("scene loaded"))
    out = tmp_path / "out.jsonl"
    assert main([command, *scene_args(workdir), "--count", "-1",
                 "--out", str(out)]) == 2
    assert "count" in one_line_error(capsys)
    assert not out.exists()


def test_workers_above_the_cap_exits_2(workdir, tmp_path, capsys, monkeypatch):
    # Refused with the config, before the scene loads or a thread starts.
    monkeypatch.setattr(pl, "load_scene_dir", lambda *a, **k: pytest.fail("scene loaded"))
    out = tmp_path / "out.jsonl"
    assert main(["generate", *scene_args(workdir), "--workers", str(pl.MAX_WORKERS + 1),
                 "--count", "1", "--out", str(out)]) == 2
    assert f"workers must be <= {pl.MAX_WORKERS}" in one_line_error(capsys)
    assert not out.exists()


def test_non_positive_canopy_radius_exits_2(tmp_path, capsys):
    doc = {"scene_id": "small", "extent": [40.0, 40.0],
           "trees": [{"position": [20.0, 20.0], "canopy_height": 6.0, "canopy_radius": -3}]}
    spec = tmp_path / "scene.json"
    spec.write_text(json.dumps(doc))
    assert main(["scene", "synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert one_line_error(capsys) == (f"config error: {spec}: tree at (20.0, 20.0) "
                                      "has non-positive canopy radius -3.0")
    assert not (tmp_path / "out").exists()


def test_tree_outside_extent_exits_2(tmp_path, capsys):
    doc = {"scene_id": "small", "extent": [40.0, 40.0],
           "trees": [{"position": [-5000.0, -5000.0], "canopy_height": 6.0}]}
    spec = tmp_path / "scene.json"
    spec.write_text(json.dumps(doc))
    assert main(["scene", "synth", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert one_line_error(capsys) == (f"config error: {spec}: tree at (-5000.0, -5000.0) "
                                      "leaves the ground extent")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--voxel-size", "0"), ("--margin", "-1"), ("--voxel-size", "inf"),
    ("--voxel-size", "nan"), ("--margin", "nan"), ("--margin", "inf"),
], ids=["zero_voxel_size", "negative_margin", "infinite_voxel_size", "nan_voxel_size",
        "nan_margin", "infinite_margin"])
def test_bad_voxelize_arguments_exit_2(workdir, tmp_path, capsys, flag, value):
    assert main(["voxelize", "--scene", str(workdir / "scene"), flag, value,
                 "--out", str(tmp_path / "grid.bin")]) == 2
    assert flag.lstrip("-").replace("-", "_") in one_line_error(capsys)


# -- outputs: every file appears whole or not at all ---------------------------

def run_capped(argv: list, limit: int, rlimit: str = "RLIMIT_FSIZE"
               ) -> subprocess.CompletedProcess:
    """``uavnav <argv>`` in a child process that may not grow a file (or,
    with "RLIMIT_AS", its address space) past ``limit`` bytes; the limit
    is set in the child only."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = ("import resource, sys; from uavnav.cli import main; "
            f"resource.setrlimit(resource.{rlimit}, ({limit}, {limit})); "
            "sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_capped_scene_synth_leaves_no_partial_cloud(tmp_path):
    out = tmp_path / "capped"
    done = run_capped(["scene", "synth", "--out", out], 500 * 1024)
    assert done.returncode == 2, done.stderr
    assert done.stderr.strip() == "config error: [Errno 27] File too large"
    assert [p.name for p in out.iterdir()] == ["scene.json"]  # no cloud.npy, no temp file
    spec, cloud = pl.read_scene_dir(out)  # the cloud is synthesized from scene.json
    assert spec == pl.demo_scene_spec() and len(cloud) > 0


def test_capped_binary_output_keeps_the_earlier_file(workdir, tmp_path):
    out = tmp_path / "grid.bin"
    out.write_bytes(b"earlier")
    done = run_capped(["voxelize", "--scene", workdir / "scene", "--out", out], 4096)
    assert done.returncode == 2, done.stderr
    assert out.read_bytes() == b"earlier"
    assert list(tmp_path.iterdir()) == [out]


def test_fifo_output_is_written_in_place(trajs, tmp_path):
    plain, fifo = tmp_path / "kept.jsonl", tmp_path / "kept.fifo"
    assert main(["dataset", "filter", "--episodes", str(trajs), "--out", str(plain)]) == 0
    assert plain.stat().st_size < 65536  # fits the pipe: the writer never blocks
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
    try:
        assert main(["dataset", "filter", "--episodes", str(trajs), "--out", str(fifo)]) == 0
        received = os.read(reader, 65536)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert received == plain.read_bytes()


def test_symlinked_output_stays_a_symlink(trajs, tmp_path):
    plain, target, link = tmp_path / "kept.jsonl", tmp_path / "real.jsonl", tmp_path / "link"
    target.write_text("earlier\n")
    link.symlink_to(target.name)  # relative, as ``ln -s real.jsonl link`` makes it
    for out in (plain, link):
        assert main(["dataset", "filter", "--episodes", str(trajs), "--out", str(out)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == plain.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl", "link", "real.jsonl"]
