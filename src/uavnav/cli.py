"""Command-line entry point wiring all pipeline stages.

Exit codes: 0 success, 1 violations, failed episodes or other library
errors, 2 configuration errors (bad flags, such as an ``eval --radius``
or ``voxelize`` size that is not finite, malformed config or scene
files, no landmark as tall as ``trajgen.min_landmark_height``, and every
OSError: a missing input, a directory given as an input file, an output
that cannot be written). Every JSON
side input (``--config``, ``scene.json``, ``landmarks.json``, the
``dataset split`` assignment and the ``keyframe`` documents) is read by
``uavnav.load_json``, so any failure to read, parse or check one prints
``config error: <path>: <detail>``.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import ConfigError, UavnavError, check_kind, load_json, save_json
from . import dataset as ds
from . import evaluation as ev
from . import keyframe as kf
from . import pipeline as pl
from . import segmentation as seg
from . import trajgen as tg
from .geometry import Point3
from .occupancy import DEFAULT_MARGIN, DEFAULT_VOXEL_SIZE, save_grid, voxelize
from .scene import load_point_cloud, load_scene_spec, synthesize_scene

log = logging.getLogger("uavnav")


def _load_config(args) -> pl.PipelineConfig:
    cfg = (pl.load_pipeline_config(args.config)
           if getattr(args, "config", None) else pl.PipelineConfig())
    flags = {"seed": "seed", "mode": "vlm_mode", "cache_dir": "vlm_cache_dir",
             "workers": "workers"}
    return replace(cfg, **{name: getattr(args, flag) for flag, name in flags.items()
                           if getattr(args, flag, None) is not None})


def _visibility_from_dict(doc: dict) -> dict[int, set[int]]:
    """Frame index -> visible landmark ids, from a JSON object of lists."""
    return {int(key): set(check_kind(f"frame {key!r}", ids, "a list of integers"))
            for key, ids in doc.items()}


def _read_predictions(path: str | Path) -> dict[str, list[tg.Action]]:
    """Episode id -> actions, one per non-blank JSONL line of a predictions
    file, in file order; an id on two lines is a ConfigError."""
    predictions: dict[str, list[tg.Action]] = {}
    first_line: dict[str, int] = {}
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                doc = json.loads(raw.decode("utf-8"))
                if not isinstance(doc["episode_id"], str):
                    raise TypeError("episode_id is not a string")
                actions = [tg.Action.from_dict(a) for a in doc["actions"]]
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad prediction ({exc!r})") from exc
            episode_id = doc["episode_id"]
            if episode_id in first_line:
                raise ConfigError(f"{path}:{lineno}: episode {episode_id!r} is already "
                                  f"predicted on line {first_line[episode_id]}")
            first_line[episode_id] = lineno
            predictions[episode_id] = actions
    return predictions


def _bundle(args, cfg: pl.PipelineConfig) -> pl.SceneBundle:
    if getattr(args, "scene", None):
        return pl.load_scene_dir(args.scene, cfg)
    if getattr(args, "spec", None):
        return pl.build_scene_bundle(load_scene_spec(args.spec), cfg)
    raise ConfigError("a scene directory (--scene) or spec (--spec) is required")


def cmd_scene_synth(args) -> int:
    spec = load_scene_spec(args.spec) if args.spec else pl.demo_scene_spec()
    cloud = synthesize_scene(spec)
    pl.write_scene_dir(spec, args.out, cloud=cloud)
    print(f"wrote scene {spec.scene_id!r}: {len(cloud)} points, "
          f"{len(spec.buildings)} ground-truth landmarks -> {args.out}")
    return 0


def cmd_voxelize(args) -> int:
    cloud = (pl.read_scene_dir(args.scene)[1] if Path(args.scene).is_dir()
             else load_point_cloud(args.scene))
    grid = voxelize(cloud, args.voxel_size, args.margin)
    save_grid(grid, args.out)
    print(f"voxelized {len(cloud)} points -> dims {grid.dims}, "
          f"{int(grid.occupancy.sum())} occupied cells -> {args.out}")
    return 0


def cmd_segment(args) -> int:
    cfg = _load_config(args)
    bundle = replace(_bundle(args, cfg), landmarks_path=None)  # extract, not read
    seg.save_instances(bundle.landmarks, args.out)
    print(f"extracted {len(bundle.landmarks)} landmark instances -> {args.out}")
    return 0


def cmd_instruct(args) -> int:
    cfg = _load_config(args)
    bundle = _bundle(args, cfg)
    vlm = cfg.make_vlm()
    episodes = ds.read_episodes(args.episodes)
    for episode in episodes:
        episode.instruction = pl.narrate(bundle, vlm, episode.trajectory, episode.image_refs)
    ds.write_episodes(episodes, args.out)
    print(f"instructed {len(episodes)} episodes -> {args.out}")
    return 0


def cmd_dataset_filter(args) -> int:
    cfg = _load_config(args)
    bev = _bundle(args, cfg).bev if (args.scene or args.spec) else None
    episodes = ds.read_episodes(args.episodes)
    kept = [e for e in episodes if ds.filter_episode(e, bev=bev).accepted]
    ds.write_episodes(kept, args.out)
    print(f"kept {len(kept)} / {len(episodes)} episodes -> {args.out}")
    return 0


def cmd_dataset_split(args) -> int:
    episodes = ds.read_episodes(args.episodes)
    train, seen, unseen = load_json(args.assignment, "an object",
                                    lambda assignment: ds.split_dataset(episodes, assignment))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for split in (train, seen, unseen):
        ds.write_episodes(split.episodes, out_dir / f"{split.name}.jsonl")
        print(f"{split.name}: {len(split.episodes)} episodes "
              f"({len(split.scene_ids)} scenes)")
    return 0


def cmd_dataset_stats(args) -> int:
    episodes = ds.read_episodes(args.episodes)
    stats = ds.compute_stats(episodes)
    if args.json:
        save_json(args.json, stats.to_dict())
    print(stats.to_text())
    return 0


def cmd_eval(args) -> int:
    check_kind("radius", args.radius, "a finite number > 0", ConfigError)
    cfg = _load_config(args)
    gt = {e.episode_id: e for e in ds.read_episodes(args.episodes)}
    predictions = _read_predictions(args.predictions)
    if gt.keys().isdisjoint(predictions):
        raise ConfigError(f"{args.predictions}: no prediction names an episode "
                          f"of {args.episodes}")
    nav_grid = _bundle(args, cfg).nav_grid
    results = []
    for episode_id, actions in predictions.items():
        episode = gt.get(episode_id)
        if episode is None:
            continue
        result = ev.replay(episode.trajectory.start, actions[:ev.STEP_CAP], nav_grid)
        goal = episode.meta.get("goal")
        goal_point = (Point3(*goal) if goal
                      else episode.trajectory.poses[-1].position)
        gt_length = float(episode.meta.get("gt_length")
                          or episode.trajectory.path_length())
        if gt_length == 0.0:
            raise ConfigError(f"{args.episodes}: episode {episode_id!r} has a zero-length "
                              "ground truth and no meta.gt_length")
        results.append(ev.score(result, goal_point, gt_length, args.radius))
    missing = len(predictions) - len(results)
    summary = asdict(ev.aggregate(results))
    summary["missing_predictions"] = missing
    summary["unpredicted"] = len(gt) - len(results)
    if args.out:
        save_json(args.out, summary)
    print(json.dumps(summary, indent=1))
    print(f"NE {summary['ne']:.2f} m | SR {summary['sr']:.3f} | "
          f"OSR {summary['osr']:.3f} | SPL {summary['spl']:.3f}")
    return 0 if missing == 0 else 1


def cmd_keyframe(args) -> int:
    actions = load_json(args.actions, "a list of objects",
                        lambda docs: [tg.Action.from_dict(a) for a in docs])

    def candidates_and_config(doc: dict):  # "window" and MemoryBankConfig fields
        candidates = kf.select_candidates(actions, doc.pop("window", kf.DEFAULT_WINDOW))
        return candidates, kf.MemoryBankConfig(**doc)

    candidates, cfg = (load_json(args.config, "an object", candidates_and_config)
                       if args.config else candidates_and_config({}))
    tokens_dir = Path(args.tokens)
    frames = {}
    for k in range(len(actions) + 1):
        path = tokens_dir / f"frame_{k:05d}.bin"
        if path.exists():
            try:
                frames[k] = kf.load_tokens(path, frame_index=k)
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
    if args.visibility:
        visibility = load_json(args.visibility, "an object", _visibility_from_dict)
    else:
        visibility = {k: {-1} for k in frames}  # no map: every frame counts
    sets = kf.confirm_keyframes(
        [c for c in candidates if all(i in frames for i in c.frame_indices)],
        visibility, frames)
    if not frames:
        raise ConfigError(f"no token files found under {tokens_dir}")
    bank = kf.MemoryBank()
    events: list[kf.MergeEvent] | None = [] if args.log else None
    try:  # token shapes that disagree with each other or with the config
        for keyframe_set in sets:
            merged = kf.merge_tokens(keyframe_set, cfg.similarity_threshold, log=events)
            kf.memory_push(bank, kf.grid_pool(merged, cfg.pooled_tokens), cfg)
        observation = kf.assemble_observation(bank, frames[max(frames)], cfg)
    except ValueError as exc:
        raise ConfigError(f"{tokens_dir}: {exc}") from exc
    kf.save_tokens(observation, args.out)
    if args.log:
        kf.save_merge_log(events, args.log)
    print(f"assembled observation: {observation.count} tokens "
          f"({len(bank)} bank keyframes + current) -> {args.out}")
    return 0


def cmd_generate(args) -> int:
    """``generate``, and ``trajgen`` (the same run without narration)."""
    cfg = _load_config(args)
    check_kind("count", args.count, "an integer >= 0", ConfigError)  # before the scene loads
    bundle = _bundle(args, cfg)
    report = pl.run_generate(bundle, cfg, args.count, args.out, narrate=args.narrate)
    if args.report:
        save_json(args.report, report.to_dict())
    print(json.dumps(report.to_dict(), indent=1))
    return 0 if report.ok else 1


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    bundle = _bundle(args, cfg) if (args.scene or args.spec) else None
    report = pl.run_validate(args.episodes, cfg, bundle)
    print(json.dumps(report.to_dict(), indent=1))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavnav",
        description="Generate, validate, and evaluate aerial navigation episodes.")
    parser.add_argument("--verbose", action="store_true",
                        help="log per-stage JSON lines to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scene=True, config=True, seed=False):
        if scene:
            p.add_argument("--scene", help="scene directory (scene.json, optional cloud)")
            p.add_argument("--spec", help="scene spec JSON (synthesized on the fly)")
        if config:
            p.add_argument("--config", help="pipeline config JSON")
        if seed:
            p.add_argument("--seed", type=int, help="generation seed")

    p = sub.add_parser("scene", help="scene tools")
    scene_sub = p.add_subparsers(dest="scene_command", required=True)
    p_synth = scene_sub.add_parser("synth", help="synthesize a procedural scene")
    p_synth.add_argument("--spec", help="scene spec JSON (omit for the demo scene)")
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_scene_synth)

    p = sub.add_parser("voxelize", help="build and export the voxel grid")
    p.add_argument("--scene", required=True, help="scene dir or point cloud file")
    p.add_argument("--voxel-size", type=float, default=DEFAULT_VOXEL_SIZE)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_voxelize)

    p = sub.add_parser("segment", help="extract and caption landmark instances")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["mock", "live", "replay"])
    p.add_argument("--cache-dir")
    p.add_argument("--config")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("trajgen", help="generate episodes without instructions")
    add_common(p, seed=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate, narrate=False, report=None)

    p = sub.add_parser("instruct", help="generate instructions for episodes")
    add_common(p)
    p.add_argument("--episodes", required=True)
    p.add_argument("--mode", choices=["mock", "live", "replay"])
    p.add_argument("--cache-dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_instruct)

    p = sub.add_parser("dataset", help="filter / split / stats")
    dataset_sub = p.add_subparsers(dest="dataset_command", required=True)
    p_filter = dataset_sub.add_parser("filter")
    add_common(p_filter)
    p_filter.add_argument("--episodes", required=True)
    p_filter.add_argument("--out", required=True)
    p_filter.set_defaults(func=cmd_dataset_filter)
    p_split = dataset_sub.add_parser("split")
    p_split.add_argument("--episodes", required=True)
    p_split.add_argument("--assignment", required=True,
                         help="JSON: scene->split or split->[scenes]")
    p_split.add_argument("--out-dir", required=True)
    p_split.set_defaults(func=cmd_dataset_split)
    p_stats = dataset_sub.add_parser("stats")
    p_stats.add_argument("--episodes", required=True)
    p_stats.add_argument("--json", help="also write stats as JSON")
    p_stats.set_defaults(func=cmd_dataset_stats)

    p = sub.add_parser("eval", help="replay predictions and score them")
    add_common(p)
    p.add_argument("--episodes", required=True, help="ground-truth JSONL")
    p.add_argument("--predictions", required=True,
                   help="JSONL of {episode_id, actions}")
    p.add_argument("--radius", type=float, default=ev.SUCCESS_RADIUS)
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("keyframe", help="compress observations for one episode")
    p.add_argument("--actions", required=True, help="JSON list of actions")
    p.add_argument("--tokens", required=True, help="directory of frame_%%05d.bin")
    p.add_argument("--config", help="memory bank config JSON")
    p.add_argument("--visibility", help="JSON map frame->visible landmark ids")
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="merge-event log JSON")
    p.set_defaults(func=cmd_keyframe)

    p = sub.add_parser("generate", help="end-to-end episode generation")
    add_common(p, seed=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--workers", type=int)
    p.add_argument("--mode", choices=["mock", "live", "replay"])
    p.add_argument("--cache-dir")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write the generation report JSON here")
    p.set_defaults(func=cmd_generate, narrate=True)

    p = sub.add_parser("validate", help="re-check every episode invariant")
    add_common(p)
    p.add_argument("--episodes", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UavnavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
