"""End-to-end wiring: scene -> occupancy -> segmentation -> trajectories
-> instructions -> episodes, plus dataset validation.

One JSON config document reproduces a whole run; per-episode RNG streams
are derived from (seed, episode index) so results do not depend on
worker scheduling, and generated files are byte-identical across runs
for a fixed seed.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, partial
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from . import ConfigError, atomic_open, check_kind, check_kinds, load_json, save_json
from . import dataset as ds
from . import evaluation as ev
from . import instructions as instr
from . import segmentation as seg
from . import trajgen as tg
from .geometry import Point3, point_in_polygon
from .keyframe import SightTarget, landmark_visibility, sight_targets
from .occupancy import (DEFAULT_MARGIN, DEFAULT_VOXEL_SIZE, BevGrid, VoxelGrid, bev_project,
                        mark_vegetation, voxelize)
from .scene import (BuildingSpec, PointCloud, SceneSpec, TreeSpec, load_point_cloud,
                    load_scene_spec, synthesize_scene)
from .vlm import API_KEY_ENV, DEFAULT_MODEL, ENDPOINT_ENV, VlmClient, VlmError

log = logging.getLogger("uavnav")

RETRY_BUDGET_FACTOR = 5
IN_FLIGHT_PER_WORKER = 2  # pool episodes submitted and not yet consumed, per thread
MAX_WORKERS = 256  # pool threads a config may ask for
BEV_MIN_HEIGHT = 2.0  # ignore terrain-surface voxels in the BEV


@dataclass(frozen=True)
class PipelineConfig:
    """One run's settings. Construction, ``dataclasses.replace`` included,
    checks them and raises ConfigError naming the field."""

    seed: int = 0
    voxel_size: float = DEFAULT_VOXEL_SIZE
    margin: float = DEFAULT_MARGIN
    segments: int = 1
    workers: int = 4
    trajgen: tg.TrajGenConfig = field(default_factory=tg.TrajGenConfig)
    vlm_mode: str = "mock"
    vlm_endpoint: str = ""
    vlm_model: str = DEFAULT_MODEL
    vlm_cache_dir: str | None = None

    def __post_init__(self) -> None:
        check_kinds(self, "", {
            "an integer >= 0": ("seed",),
            "an integer >= 1": ("segments", "workers"),
            "a finite number > 0": ("voxel_size",),
            "a number >= 0": ("margin",),
            "a string": ("vlm_mode", "vlm_endpoint", "vlm_model"),
            "a string or null": ("vlm_cache_dir",)})
        if self.workers > MAX_WORKERS:
            raise ConfigError(f"workers must be <= {MAX_WORKERS}, got {self.workers}")

    def make_vlm(self) -> VlmClient:
        """Build the client; endpoint and key env vars override the config,
        so secrets stay out of the JSON document."""
        cache = Path(self.vlm_cache_dir) if self.vlm_cache_dir else None
        return VlmClient(
            mode=self.vlm_mode,
            endpoint=os.environ.get(ENDPOINT_ENV, self.vlm_endpoint),
            api_key=os.environ.get(API_KEY_ENV, ""),
            model=self.vlm_model, cache_dir=cache)


def pipeline_config_from_dict(doc: Mapping) -> PipelineConfig:
    """The config of a JSON object of fields, with ``trajgen`` and ``vlm``
    sections; a malformed one is a ConfigError naming the key or section."""
    doc = dict(doc)
    sections = {name: doc.pop(name, {}) for name in ("trajgen", "vlm")}
    for name, section in sections.items():
        if not isinstance(section, Mapping):
            raise ConfigError(f"config section {name!r} must be a JSON object")
    names = {f.name for f in fields(PipelineConfig)}
    unknown = ([k for k in doc if k not in names or k.startswith("vlm_")]
               + [f"trajgen.{k}" for k in sections["trajgen"]
                  if k not in {f.name for f in fields(tg.TrajGenConfig)}]
               + [f"vlm.{k}" for k in sections["vlm"] if f"vlm_{k}" not in names])
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    trajgen = tg.TrajGenConfig(**{k: tuple(v) if isinstance(v, list) else v
                                  for k, v in sections["trajgen"].items()})
    return PipelineConfig(trajgen=trajgen, **doc,
                          **{f"vlm_{k}": v for k, v in sections["vlm"].items()})


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    return load_json(path, "an object", pipeline_config_from_dict)


@dataclass
class SceneBundle:
    """One scene's inputs; each derived layer is built when first read, so a
    command builds only the layers it reads. ``landmarks`` come from
    ``landmarks_path`` if given, else are extracted and captioned by the
    config's VLM. The cache has no lock: read the layers workers share on
    the calling thread before they start, as ``run_generate`` does."""

    spec: SceneSpec
    cloud: PointCloud
    cfg: PipelineConfig
    landmarks_path: Path | None = None

    @property
    def scene_id(self) -> str:
        return self.spec.scene_id

    @cached_property
    def nav_grid(self) -> VoxelGrid:  # margin-inflated, for planning and replay
        return voxelize(self.cloud, self.cfg.voxel_size, self.cfg.margin)

    @cached_property
    def raw_grid(self) -> VoxelGrid:  # uninflated, for segmentation and visibility
        return voxelize(self.cloud, self.cfg.voxel_size, 0.0)

    @cached_property
    def bev(self) -> BevGrid:  # of the raw grid, trees marked as vegetation
        bev = bev_project(self.raw_grid, min_height=BEV_MIN_HEIGHT)
        for t in self.spec.trees:  # each with its own canopy
            bev = mark_vegetation(bev, [t.position], radius=t.canopy_radius)
        return bev

    @cached_property
    def landmarks(self) -> list[seg.LandmarkInstance]:
        if self.landmarks_path is not None:
            return seg.load_instances(self.landmarks_path)
        vlm = self.cfg.make_vlm()
        return [seg.caption_instance(inst, [f"{self.scene_id}/landmark_{inst.id:03d}/view_{k}"
                                            for k in range(3)],
                                     vlm, hint_label=_match_label(inst, self.spec))
                for inst in seg.extract_instances(self.bev)]

    @cached_property
    def sight_targets(self) -> list[SightTarget]:  # of the landmarks, on the raw grid
        return sight_targets(self.raw_grid, self.landmarks)

    @cached_property
    def captions(self) -> dict[int, dict[str, str]]:  # of the captioned landmarks, by id
        return {lm.id: asdict(lm.caption) for lm in self.landmarks if lm.caption is not None}


def _match_label(inst: seg.LandmarkInstance, spec: SceneSpec) -> str | None:
    """Ground-truth label for an extracted instance, by footprint centroid."""
    for b in spec.buildings:
        if point_in_polygon(inst.centroid, b.footprint):
            return b.label
    best, best_d = None, math.inf
    for b in spec.buildings:
        cx = sum(v[0] for v in b.footprint) / len(b.footprint)
        cy = sum(v[1] for v in b.footprint) / len(b.footprint)
        d = math.hypot(cx - inst.centroid[0], cy - inst.centroid[1])
        if d < best_d:
            best, best_d = b.label, d
    return best


def build_scene_bundle(spec: SceneSpec, cfg: PipelineConfig) -> SceneBundle:
    """The bundle of ``spec`` over a cloud synthesized from it; its layers
    are built when first read."""
    return SceneBundle(spec, synthesize_scene(spec), cfg)


def read_scene_dir(scene_dir: str | Path) -> tuple[SceneSpec, PointCloud]:
    """A scene directory's spec (scene.json, required) and point cloud:
    cloud.npy or a text cloud.txt, synthesized from the spec when neither is
    there. A directory holding both is a ConfigError, so a stale one never
    wins silently."""
    scene_dir = Path(scene_dir)
    spec_path = scene_dir / "scene.json"
    if not spec_path.exists():
        raise ConfigError(f"{scene_dir} has no scene.json")
    spec = load_scene_spec(spec_path)
    clouds = [p for p in (scene_dir / "cloud.npy", scene_dir / "cloud.txt") if p.exists()]
    if len(clouds) == 2:
        raise ConfigError(f"{scene_dir} holds both cloud.npy and cloud.txt; "
                          "remove the stale one")
    cloud = load_point_cloud(clouds[0]) if clouds else synthesize_scene(spec)
    return spec, cloud


def load_scene_dir(scene_dir: str | Path, cfg: PipelineConfig) -> SceneBundle:
    """Load a scene directory: scene.json, its cloud as ``read_scene_dir``
    reads it, optional landmarks.json."""
    spec, cloud = read_scene_dir(scene_dir)
    lm_path = Path(scene_dir) / "landmarks.json"
    return SceneBundle(spec, cloud, cfg, lm_path if lm_path.exists() else None)


def write_scene_dir(spec: SceneSpec, out_dir: str | Path,
                    cloud: PointCloud | None = None) -> Path:
    """Write ``spec`` as scene.json and its cloud as cloud.npy, float64 x y z
    columns. A directory that already holds a cloud.txt is refused
    before anything is written, as it would then hold both."""
    out_dir = Path(out_dir)
    if (out_dir / "cloud.txt").exists():
        raise ConfigError(f"{out_dir / 'cloud.txt'} is already there; "
                          "a scene directory holds one cloud")
    out_dir.mkdir(parents=True, exist_ok=True)
    if cloud is None:
        cloud = synthesize_scene(spec)
    save_json(out_dir / "scene.json", asdict(spec))
    a = np.ascontiguousarray(cloud.points)
    # np.save's bytes, written by the file object so that a failed write keeps its errno
    with atomic_open(out_dir / "cloud.npy", "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, np.lib.format.header_data_from_array_1_0(a))
        fh.write(a.data)
    return out_dir


def demo_scene_spec(scene_id: str = "demo") -> SceneSpec:
    """A compact mixed-height scene used by tests, docs, and quickstarts."""
    def box(x: float, y: float, w: float, h: float) -> list[tuple[float, float]]:
        return [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]

    return SceneSpec(
        scene_id=scene_id,
        extent=(240.0, 240.0),
        buildings=[
            BuildingSpec(box(30, 30, 24, 24), 48.0, "blue glass tower"),
            BuildingSpec(box(150, 40, 36, 20), 30.0, "red brick warehouse"),
            BuildingSpec(box(60, 150, 20, 30), 60.0, "gray concrete skyscraper"),
            BuildingSpec(box(170, 160, 26, 26), 24.0, "beige office building"),
            BuildingSpec(box(110, 95, 18, 18), 36.0, "green copper dome"),
            BuildingSpec(box(25, 200, 30, 14), 12.0, "white storage hall"),
        ],
        trees=[TreeSpec((100.0, 40.0), 10.0), TreeSpec((210.0, 110.0), 12.0),
               TreeSpec((40.0, 110.0), 9.0)],
    )


@dataclass
class GenerationReport:
    """The counts of a run, or of one episode as ``generate_episode``
    returns it, with its accepted ``episode``. Searches add their work to
    ``expansions`` and ``collision_checks``; ``add`` sums in a record's."""

    requested: int = 0
    accepted: int = 0
    rejections: Counter = field(default_factory=Counter)
    sampling_failures: int = 0
    search_failures: int = 0
    vlm_failures: int = 0
    expansions: int = 0
    collision_checks: int = 0
    wall_time_s: float = 0.0
    episode: ds.Episode | None = None

    @property
    def failed_episodes(self) -> int:
        return self.requested - self.accepted

    @property
    def ok(self) -> bool:
        return self.failed_episodes == 0

    def add(self, other: GenerationReport) -> None:
        for name, value in vars(other).items():
            if type(value) is int:  # every count but the rejections
                setattr(self, name, getattr(self, name) + value)
        self.rejections.update(other.rejections)

    def to_dict(self) -> dict:
        return {
            "requested": self.requested,
            "accepted": self.accepted,
            "failed_episodes": self.failed_episodes,
            "rejections": dict(sorted(self.rejections.items())),
            "sampling_failures": self.sampling_failures,
            "search_failures": self.search_failures,
            "vlm_failures": self.vlm_failures,
            "search": {"expansions": self.expansions, "collision_checks": self.collision_checks},
            "wall_time_s": round(self.wall_time_s, 3),
        }


def narrate(bundle: SceneBundle, vlm: VlmClient, trajectory: tg.Trajectory,
            image_refs: list[str]) -> instr.Instruction:
    """Instruction for one trajectory, hinted by the landmarks in view at
    each sub-trajectory's end."""
    return instr.build_instruction(
        trajectory, bundle.captions, vlm, image_refs=image_refs,
        visible=lambda k: landmark_visibility(trajectory.poses[k], bundle.sight_targets,
                                              bundle.raw_grid))


def generate_episode(bundle: SceneBundle, cfg: PipelineConfig,
                     vlm: VlmClient | None, index: int) -> GenerationReport:
    """Sample, search, narrate, and filter one episode; retry within budget.
    Returns its counts and wall time, with ``episode`` if one was accepted.

    Without a VLM client the episode carries no instruction. A failed VLM
    request fails only the attempt it belongs to.
    """
    started = time.monotonic()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,)))
    outcome = GenerationReport(requested=1)
    episode_id = f"{bundle.scene_id}-{index:06d}"
    for _ in range(RETRY_BUDGET_FACTOR):
        try:
            trajectory, goal = tg.chain_trajectories(
                cfg.segments, bundle.landmarks, bundle.bev, bundle.nav_grid,
                cfg.trajgen, rng, outcome)
        except tg.SamplingError:
            outcome.sampling_failures += 1
            continue
        except tg.NoPathError:
            outcome.search_failures += 1
            continue
        image_refs = [f"{episode_id}/frame_{k:05d}"
                      for k in range(len(trajectory.poses))]
        try:
            instruction = (narrate(bundle, vlm, trajectory, image_refs)
                           if vlm is not None else None)
        except VlmError:
            outcome.vlm_failures += 1
            continue
        meta = {
            "engine": "synthetic",
            "seed": cfg.seed,
            "episode_index": index,
            "goal": [goal.x, goal.y, goal.z],
            "gt_length": trajectory.path_length(),
        }
        episode = ds.Episode(episode_id=episode_id, scene_id=bundle.scene_id,
                             trajectory=trajectory, instruction=instruction,
                             image_refs=image_refs, meta=meta)
        verdict = ds.filter_episode(episode, bev=bundle.bev)
        if verdict.accepted:
            outcome.accepted, outcome.episode = 1, episode
            break
        outcome.rejections[verdict.reason] += 1
    outcome.wall_time_s = time.monotonic() - started
    return outcome


def run_generate(bundle: SceneBundle, cfg: PipelineConfig, count: int,
                 out_path: str | Path, vlm: VlmClient | None = None, *,
                 narrate: bool = True) -> GenerationReport:
    """Produce ``count`` accepted episodes (resampling rejected ones) and
    write them as canonical JSONL; ``narrate=False`` leaves instructions
    out and needs no VLM. Episodes stream in index order: each is counted
    and written as it comes, and an exception in one, a ConfigError say,
    ends the run at once with no output file."""
    check_kind("count", count, "an integer >= 0", ConfigError)
    tg.eligible_landmarks(bundle.landmarks, cfg.trajgen)  # refused before any episode runs
    vlm = (vlm or cfg.make_vlm()) if narrate else None
    bundle.nav_grid, bundle.bev, bundle.sight_targets, bundle.captions  # not raced for by workers
    started = time.monotonic()
    report = GenerationReport()

    def accepted() -> Iterator[ds.Episode]:
        job = partial(generate_episode, bundle, cfg, vlm)
        outcomes = (map(job, range(count)) if cfg.workers == 1  # no pool for one worker
                    else _in_order(job, count, cfg.workers))
        for index, outcome in enumerate(outcomes):
            report.add(outcome)
            if log.isEnabledFor(logging.DEBUG):
                log.debug(json.dumps({"stage": "episode", "episode_index": index,
                                      "accepted": outcome.episode is not None,
                                      "search": outcome.to_dict()["search"],
                                      "duration_s": round(outcome.wall_time_s, 4)}))
            if outcome.episode is not None:
                yield outcome.episode

    ds.write_episodes(accepted(), out_path)
    report.wall_time_s = time.monotonic() - started
    return report


def _in_order(job, count: int, workers: int) -> Iterator:
    """``job(0)``, ..., ``job(count - 1)`` in index order, run on ``workers``
    pool threads with at most ``IN_FLIGHT_PER_WORKER * workers`` of them
    submitted and not yet taken. An exception, or closing the iterator,
    cancels the jobs not yet started."""
    pool, window = ThreadPoolExecutor(max_workers=workers), deque()
    try:
        for index in range(count):
            if len(window) == IN_FLIGHT_PER_WORKER * workers:
                yield window.popleft().result()
            window.append(pool.submit(job, index))
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)  # and waits for the running ones


@dataclass
class Violation:
    episode_id: str
    kind: str
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ValidationReport:
    episodes_checked: int
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"episodes_checked": self.episodes_checked,
                "ok": self.ok,
                "violations": [v.to_dict() for v in self.violations]}


def run_validate(path: str | Path, cfg: PipelineConfig,
                 bundle: SceneBundle | None = None) -> ValidationReport:
    """Re-check every episode invariant in a dataset file.

    A line the episode reader refuses, a pose off the action rollout
    included, is a ``schema`` violation at ``line N``. Collisions come
    from ``evaluation.replay``, as in ``eval``; they, the goal and the
    vegetation check need the scene bundle.
    """
    violations: list[Violation] = []
    checked = 0
    for lineno, item in ds.scan_episodes(path):
        checked += 1
        if isinstance(item, ds.IntegrityError):
            violations.append(Violation(item.episode_id, "integrity", "duplicate episode_id"))
        elif isinstance(item, Exception):
            violations.append(Violation(f"line {lineno}", "schema", str(item)))
        else:
            violations.extend(_validate_episode(item, cfg, bundle))
    return ValidationReport(episodes_checked=checked, violations=violations)


def _validate_episode(episode: ds.Episode, cfg: PipelineConfig,
                      bundle: SceneBundle | None) -> list[Violation]:
    out: list[Violation] = []
    t = episode.trajectory
    verdict = ds.filter_episode(episode, bev=bundle.bev if bundle else None)
    if not verdict.accepted:
        out.append(Violation(episode.episode_id, "filter", verdict.reason))
    if episode.instruction is not None and not episode.instruction.text:
        out.append(Violation(episode.episode_id, "instruction", "empty text"))
    if bundle is not None:
        k = ev.replay(t.start, t.actions, bundle.nav_grid).first_collision_index
        if k is not None:
            out.append(Violation(episode.episode_id, "collision",
                                 f"segment {k} crosses occupied space"))
        goal = episode.meta.get("goal")
        if goal is not None:
            d = t.poses[-1].position.distance_to(Point3(*goal))
            if d > cfg.trajgen.goal_tolerance + 1e-6:
                out.append(Violation(episode.episode_id, "goal",
                                     f"final pose {d:.2f} m from goal"))
    return out
