"""Episode assembly, quality filtering, JSONL serialization, splits,
and corpus statistics.

Episodes serialize to JSONL in a canonical form: fixed key order and
floats rounded to 9 significant digits, so byte-level diffs of dataset
files are meaningful. Unknown fields survive a read/write round trip.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from . import ConfigError, UavnavError, atomic_open, check_kind
from .geometry import Point3, round_sig
from .instructions import Instruction
from .occupancy import MAX_COORDINATE, BevGrid
from .textproc import alnum_tokens, noun_verb_tables
from .trajgen import Action, Pose, Trajectory

SCHEMA_VERSION = 1
DEFAULT_TREE_HEIGHT = 15.0
MIN_ACTIONS = 2
MAX_ACTIONS = 150
POSE_TOLERANCE = 1e-4  # canonical 9-digit float form rounds serialized poses
HISTOGRAM_BUCKET = 25.0  # meters, of path length and of mean altitude

SPLIT_NAMES = ("train", "test_seen", "test_unseen")


class DatasetReadError(UavnavError):
    def __init__(self, path: str | Path, line_number: int, message: str) -> None:
        super().__init__(f"{path}:{line_number}: {message}")
        self.line_number = line_number


class IntegrityError(UavnavError):
    def __init__(self, episode_id: str, where: str = "") -> None:
        super().__init__(f"{where}duplicate episode_id {episode_id!r}")
        self.episode_id = episode_id


@dataclass
class Episode:
    episode_id: str
    scene_id: str
    trajectory: Trajectory
    instruction: Instruction | None
    image_refs: list[str]
    meta: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)  # unknown fields, kept on round trip

    def __post_init__(self) -> None:
        if len(self.image_refs) != len(self.trajectory.poses):
            raise ValueError(
                f"episode {self.episode_id}: {len(self.image_refs)} image refs "
                f"for {len(self.trajectory.poses)} poses"
            )


def _canonical(value):
    if isinstance(value, float):
        return round_sig(value)
    if isinstance(value, dict):
        return {k: _canonical(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _pose_doc(pose: Pose) -> dict:
    return {
        "position": [round_sig(pose.position.x), round_sig(pose.position.y),
                     round_sig(pose.position.z)],
        "yaw": round_sig(pose.yaw),
    }


def _coordinates(name: str, value) -> list:
    """``value``, if it is three numbers each within ``MAX_COORDINATE`` of 0."""
    x, y, z = check_kind(name, value, "three finite numbers")
    if not max(abs(x), abs(y), abs(z)) <= MAX_COORDINATE:
        raise ValueError(f"{name} must lie within MAX_COORDINATE ({MAX_COORDINATE:.0e} m) "
                         f"of the origin, got {value!r}")
    return value


def _pose_from_doc(doc: dict) -> Pose:
    x, y, z = _coordinates("pose position", doc["position"])
    yaw = check_kind("pose yaw", doc["yaw"], "a number")
    return Pose(Point3(float(x), float(y), float(z)), float(yaw))


_KNOWN_KEYS = {
    "schema_version", "episode_id", "scene_id", "start", "actions", "poses",
    "target_landmark_id", "instruction", "image_refs", "meta",
}


def episode_to_dict(episode: Episode) -> dict:
    t = episode.trajectory
    doc = {
        "schema_version": SCHEMA_VERSION,
        "episode_id": episode.episode_id,
        "scene_id": episode.scene_id,
        "start": _pose_doc(t.start),
        "actions": [_canonical(a.to_dict()) for a in t.actions],
        "poses": [_pose_doc(p) for p in t.poses],
        "target_landmark_id": t.target_landmark_id,
        "instruction": (
            {"text": episode.instruction.text,
             "sub_instructions": list(episode.instruction.sub_instructions)}
            if episode.instruction is not None else None
        ),
        "image_refs": list(episode.image_refs),
        "meta": _canonical(episode.meta),
    }
    for key in sorted(episode.extra):
        doc[key] = _canonical(episode.extra[key])
    return doc


def episode_from_dict(doc: dict) -> Episode:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    meta = dict(check_kind("meta", doc.get("meta", {}), "an object"))
    if meta.get("goal") is not None:
        _coordinates("meta.goal", meta["goal"])
    if meta.get("gt_length") is not None:
        check_kind("meta.gt_length", meta["gt_length"], "a finite number > 0")
    check_kind("meta.damaged_image_indices", meta.get("damaged_image_indices", []),
               "a list of integers")
    poses = [_pose_from_doc(p) for p in doc["poses"]]
    trajectory = Trajectory(
        start=_pose_from_doc(doc["start"]),
        actions=[Action.from_dict(a) for a in doc["actions"]],
        target_landmark_id=doc.get("target_landmark_id", -1),
    )
    if len(poses) != len(trajectory.poses):
        raise ValueError(f"trajectory has {len(poses)} poses for "
                         f"{len(trajectory.actions)} actions, not {len(trajectory.poses)}")
    for k, (a, b) in enumerate(zip(trajectory.poses, poses)):
        if a.yaw != b.yaw or any(abs(u - v) > POSE_TOLERANCE for u, v in
                                 zip(a.position.as_tuple(), b.position.as_tuple())):
            raise ValueError(f"pose {k} deviates from the action rollout")
    instr_doc = doc.get("instruction")
    instruction = None
    if instr_doc is not None:
        check_kind("instruction", instr_doc, "an object")
        instruction = Instruction(
            text=check_kind("instruction.text", instr_doc["text"], "a string"),
            sub_instructions=check_kind("instruction.sub_instructions",
                                        instr_doc["sub_instructions"], "a list of strings"))
    extra = {k: doc[k] for k in doc if k not in _KNOWN_KEYS}
    return Episode(
        episode_id=check_kind("episode_id", doc["episode_id"], "a string"),
        scene_id=check_kind("scene_id", doc["scene_id"], "a string"),
        trajectory=trajectory,
        instruction=instruction,
        image_refs=check_kind("image_refs", doc["image_refs"], "a list of strings"),
        meta=meta,
        extra=extra,
    )


def episode_to_line(episode: Episode) -> str:
    return json.dumps(episode_to_dict(episode), separators=(",", ":"),
                      ensure_ascii=False)


def write_episodes(episodes: Iterable[Episode], path: str | Path) -> int:
    """Write canonical JSONL, one episode per line; returns the count.

    The file appears whole or not at all: on an error, such as a
    duplicate episode id, an earlier file at ``path`` is left unchanged.
    """
    seen: set[str] = set()
    count = 0
    with atomic_open(path) as fh:
        for episode in episodes:
            if episode.episode_id in seen:
                raise IntegrityError(episode.episode_id)
            seen.add(episode.episode_id)
            fh.write(episode_to_line(episode) + "\n")
            count += 1
    return count


def scan_episodes(path: str | Path) -> Iterator[tuple[int, Episode | Exception]]:
    """Yield ``(line number, episode or error)`` per non-blank line and go on past
    errors: a line's parse exception (bytes that are not UTF-8 included), or an
    ``IntegrityError`` for a repeated id."""
    seen: set[str] = set()
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                episode = episode_from_dict(json.loads(raw.decode("utf-8")))
            except Exception as exc:
                yield lineno, exc
                continue
            if episode.episode_id in seen:
                yield lineno, IntegrityError(episode.episode_id, f"{path}:{lineno}: ")
                continue
            seen.add(episode.episode_id)
            yield lineno, episode


def read_episodes(path: str | Path) -> list[Episode]:
    """Every episode of a JSONL file; raises on the first bad line."""
    episodes: list[Episode] = []
    for lineno, item in scan_episodes(path):
        if isinstance(item, IntegrityError):
            raise item
        if isinstance(item, Exception):
            raise DatasetReadError(path, lineno, str(item)) from item
        episodes.append(item)
    return episodes


@dataclass(frozen=True)
class FilterVerdict:
    accepted: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


ACCEPT = FilterVerdict(True)


def filter_episode(episode: Episode, tree_height: float = DEFAULT_TREE_HEIGHT,
                   bev: BevGrid | None = None) -> FilterVerdict:
    """Quality gate: action-count bounds, tree altitude rule, damaged images.

    The vegetation check needs the scene's BEV grid; without one it is
    skipped (pure length and damage checks remain).
    """
    n = len(episode.trajectory.actions)
    if n < MIN_ACTIONS:
        return FilterVerdict(False, "too_short")
    if n > MAX_ACTIONS:
        return FilterVerdict(False, "too_long")
    if episode.meta.get("damaged_image_indices"):
        return FilterVerdict(False, "damaged_image")
    if bev is not None and bev.vegetation is not None:
        for pose in episode.trajectory.poses:
            p = pose.position
            if p.z < tree_height and bev.is_vegetation(p.x, p.y):
                return FilterVerdict(False, "below_tree_altitude")
    return ACCEPT


@dataclass
class DatasetSplit:
    name: str
    scene_ids: set[str]
    episodes: list[Episode]


def normalize_scene_assignment(assignment: Mapping) -> dict[str, str]:
    """Accept either {scene_id: split} or {split: [scene_ids]} form."""
    if all(k in SPLIT_NAMES for k in assignment):
        normalized: dict[str, str] = {}
        for split, scenes in assignment.items():
            if not (isinstance(scenes, list) and all(isinstance(s, str) for s in scenes)):
                raise ConfigError(f"split {split!r} must be a list of scene ids, "
                                  f"got {scenes!r}")
            for scene in scenes:
                if scene in normalized and normalized[scene] != split:
                    raise ConfigError(
                        f"scene {scene!r} assigned to both "
                        f"{normalized[scene]!r} and {split!r}"
                    )
                normalized[scene] = split
        return normalized
    out = {str(k): str(v) for k, v in assignment.items()}
    for scene, split in out.items():
        if split not in SPLIT_NAMES:
            raise ConfigError(f"unknown split {split!r} for scene {scene!r}")
    return out


def split_dataset(
    episodes: Sequence[Episode], scene_assignment: Mapping
) -> tuple[DatasetSplit, DatasetSplit, DatasetSplit]:
    """Partition episodes by scene into train / test_seen / test_unseen."""
    assignment = normalize_scene_assignment(scene_assignment)
    splits = {name: DatasetSplit(name=name, scene_ids=set(), episodes=[])
              for name in SPLIT_NAMES}
    for scene, split in assignment.items():
        splits[split].scene_ids.add(scene)
    for episode in episodes:
        split = assignment.get(episode.scene_id)
        if split is None:
            raise ConfigError(
                f"episode {episode.episode_id!r} has unassigned scene "
                f"{episode.scene_id!r}"
            )
        splits[split].episodes.append(episode)
    return splits["train"], splits["test_seen"], splits["test_unseen"]


@dataclass
class CorpusStats:
    episode_count: int
    action_histogram: dict[str, int]
    length_histogram: dict[float, int]  # path length, by bucket lower bound
    height_histogram: dict[float, int]  # mean altitude, by bucket lower bound
    vocab_size: int
    mean_instruction_tokens: float
    noun_table: dict[str, int]
    verb_table: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "episode_count": self.episode_count,
            "action_histogram": dict(sorted(self.action_histogram.items())),
            "length_histogram": _labelled(self.length_histogram),
            "height_histogram": _labelled(self.height_histogram),
            "vocab_size": self.vocab_size,
            "mean_instruction_tokens": round_sig(self.mean_instruction_tokens),
            "noun_table": dict(Counter(self.noun_table).most_common(50)),
            "verb_table": dict(Counter(self.verb_table).most_common(50)),
        }

    def to_text(self) -> str:
        doc = self.to_dict()
        lines = [f"episodes: {doc['episode_count']}",
                 f"vocab size: {doc['vocab_size']}",
                 f"mean instruction tokens: {doc['mean_instruction_tokens']}"]
        for name in ("action_histogram", "length_histogram", "height_histogram"):
            lines.append(f"{name.replace('_', ' ')}:")
            for key, count in doc[name].items():
                lines.append(f"  {key:>12}  {count}")
        for name in ("noun_table", "verb_table"):
            top = list(doc[name].items())[:10]
            lines.append(f"top {name.split('_')[0]}s: "
                         + ", ".join(f"{w}({c})" for w, c in top))
        return "\n".join(lines)


def _lower_bound(value: float) -> float:
    return math.floor(value / HISTOGRAM_BUCKET) * HISTOGRAM_BUCKET


def _labelled(histogram: dict[float, int]) -> dict[str, int]:
    """Counts by "lo-hi" label, in the order of the lower bounds: "-50--25"
    before "-25-0" before "0-25". Bounds that ``:g`` prints alike share one."""
    labelled: Counter = Counter()
    for lo, count in sorted(histogram.items()):
        labelled[f"{lo:g}-{lo + HISTOGRAM_BUCKET:g}"] += count
    return dict(labelled)


def compute_stats(episodes: Sequence[Episode]) -> CorpusStats:
    """Exact histograms and vocabulary over a set of episodes."""
    actions: Counter = Counter()
    lengths: Counter = Counter()
    heights: Counter = Counter()
    vocab: set[str] = set()
    token_total = 0
    instruction_count = 0
    texts: list[str] = []
    for episode in episodes:
        t = episode.trajectory
        for action in t.actions:
            actions[action.kind.value] += 1
        lengths[_lower_bound(t.path_length())] += 1
        mean_alt = sum(p.position.z for p in t.poses) / len(t.poses)
        heights[_lower_bound(mean_alt)] += 1
        if episode.instruction is not None:
            tokens = alnum_tokens(episode.instruction.text)
            vocab.update(tokens)
            token_total += len(tokens)
            instruction_count += 1
            texts.append(episode.instruction.text)
    nouns, verbs = noun_verb_tables(texts)
    return CorpusStats(
        episode_count=len(episodes),
        action_histogram=dict(actions),
        length_histogram=dict(lengths),
        height_histogram=dict(heights),
        vocab_size=len(vocab),
        mean_instruction_tokens=(token_total / instruction_count
                                 if instruction_count else 0.0),
        noun_table=dict(nouns),
        verb_table=dict(verbs),
    )
