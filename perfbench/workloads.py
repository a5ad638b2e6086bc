"""Workload definitions, generated inputs and the measured rounds.

Each workload fixes a pipeline config document for its generate batches.
Every set-up also generates the read side's dataset: 100 episodes of the
``gen_desk`` config, which the ``validate`` and ``eval`` rounds of every
workload read. The ``--seed`` of a run seeds the agent-side inputs the
benchmark makes itself: random-walk predictions for ``eval``, and the
action sequence and correlated token files for ``keyframe``.

The generation seed is fixed (7, the README's ``run_config.json``) rather
than taken from ``--seed``, because one episode's cost varies too much
for a run-sized sample of episodes to give a stable rate: on the
``gen_long`` config the per-episode wall time has a coefficient of
variation of 2.3-3.1 (episode 0 of seed 7 alone is ~12 s of a ~21 s
batch), on the ``gen_desk`` config 1.2. See README.md.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from uavnav import cli, keyframe as kf, pipeline as pl, trajgen as tg

GEN_SEED = 7
# Smoke runs check plumbing only. Episode 0 of seed 7 under the CLI
# default ranges is a ~12 s search, so they generate from seed 1.
SMOKE_GEN_SEED = 1


def _config(trajgen: dict, workers: int) -> dict:
    return {"seed": GEN_SEED, "workers": workers, "trajgen": trajgen, "vlm": {"mode": "mock"}}


DESK_CONFIG = _config({"height_range": [15.0, 40.0], "min_landmark_height": 20.0,
                       "start_distance_range": [40.0, 90.0]}, workers=1)
LONG_CONFIG = _config({}, workers=2)  # the CLI's default TrajGenConfig ranges


@dataclass(frozen=True)
class Sizes:
    batch: int  # episodes per measured run_generate call
    dataset: int  # episodes of the read side's set-up dataset
    agent_actions: int  # keyframe agent trajectory length
    prediction_actions: tuple[int, int]  # shortest and longest random-walk prediction
    tokens: int  # tokens per frame (a perfect square)
    token_dim: int


@dataclass(frozen=True)
class Workload:
    config: dict  # pipeline config JSON document of the generate batches
    sizes: Sizes
    smoke: Sizes
    first_reads: int  # read rounds before the first generate batch
    generate_share: float  # of the measured busy time; read rounds take the rest


_READ_SIDE = dict(dataset=100, agent_actions=120, prediction_actions=(20, 300),
                  tokens=144, token_dim=64)
_SMOKE_READ_SIDE = dict(dataset=4, agent_actions=30, prediction_actions=(5, 40),
                        tokens=16, token_dim=8)

# gen_desk gives generation two thirds of its time, since its batch rate
# is its noisiest figure. gen_long's one ~25 s batch takes about half a
# run, and 5 read rounds first put about half the read samples on each
# side of it.
WORKLOADS = {
    "gen_desk": Workload(DESK_CONFIG, Sizes(batch=200, **_READ_SIDE),
                         Sizes(batch=3, **_SMOKE_READ_SIDE),
                         first_reads=2, generate_share=2 / 3),
    "gen_long": Workload(LONG_CONFIG, Sizes(batch=20, **_READ_SIDE),
                         Sizes(batch=2, **_SMOKE_READ_SIDE),
                         first_reads=5, generate_share=1 / 2),
}

MEMORY_BANK = {"capacity": 4, "pooled_tokens": 4, "similarity_threshold": 0.9, "window": 2}
SUCCESS_RADIUS = 20.0


class CheckFailed(AssertionError):
    """An output of the program is wrong; the run reports correct=false."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Inputs:
    """Everything set-up leaves on disk and in memory for the rounds."""

    work: Path
    cfg: pl.PipelineConfig  # of the generate batches
    bundle: pl.SceneBundle
    scene_dir: Path
    config_path: Path  # the read-side dataset's config, for the commands
    actions_path: Path
    tokens_dir: Path
    bank_path: Path
    dataset_path: Path
    predictions_path: Path
    episodes: int  # in the dataset


# -- agent-side inputs --------------------------------------------------------

_MOVES = {"forward": None, "turn_left": tg.TURN_LEFT, "turn_right": tg.TURN_RIGHT,
          "move_up": tg.MOVE_UP, "move_down": tg.MOVE_DOWN}


def random_walk(rng: np.random.Generator, length: int, run_length: int) -> list[dict]:
    """A seeded agent: ``length`` moves in runs of ``run_length``, each run
    of another kind than the one before, then Stop. The run structure is
    fixed, so the work a walk causes depends little on the seed."""
    actions: list[dict] = []
    kinds = list(_MOVES)
    previous = None
    while len(actions) < length:
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == previous:
            continue
        previous = kind
        for _ in range(min(run_length, length - len(actions))):
            move = _MOVES[kind] or tg.forward(float(rng.choice(tg.FORWARD_MAGNITUDES)))
            actions.append(move.to_dict())
    return actions + [tg.STOP.to_dict()]


def write_keyframe_inputs(work: Path, seed: int, sizes: Sizes) -> tuple[Path, Path, Path]:
    """Agent action list, one token file per frame, memory bank config.

    Frame k's tokens are frame k-1's plus small noise, so consecutive
    frames are similar (cosine ~0.99) and merges happen.
    """
    rng = np.random.default_rng([seed, 1])
    actions = random_walk(rng, sizes.agent_actions, run_length=6)
    actions_path = work / "agent_actions.json"
    actions_path.write_text(json.dumps(actions), encoding="utf-8")
    tokens_dir = work / "tokens"
    tokens_dir.mkdir(exist_ok=True)
    frame = rng.standard_normal((sizes.tokens, sizes.token_dim))
    for k in range(len(actions) + 1):
        kf.save_tokens(kf.TokenMatrix(frame, frame_index=k), tokens_dir / f"frame_{k:05d}.bin")
        frame = frame + 0.1 * rng.standard_normal(frame.shape)
    bank_path = work / "memory_bank.json"
    bank_path.write_text(json.dumps({**MEMORY_BANK, "current_tokens": sizes.tokens}),
                         encoding="utf-8")
    return actions_path, tokens_dir, bank_path


def write_predictions(dataset_path: Path, out: Path, seed: int, sizes: Sizes) -> None:
    """One random-walk prediction per episode of the dataset. Lengths are
    evenly spaced over the configured range and shuffled, so the total
    number of actions to replay does not depend on the seed."""
    rng = np.random.default_rng([seed, 2])
    ids = [json.loads(line)["episode_id"]
           for line in dataset_path.read_text(encoding="utf-8").splitlines()]
    lengths = rng.permutation(np.linspace(*sizes.prediction_actions, len(ids)).round())
    with out.open("w", encoding="utf-8") as fh:
        for episode_id, length in zip(ids, lengths):
            actions = random_walk(rng, int(length), run_length=3)
            fh.write(json.dumps({"episode_id": episode_id, "actions": actions}) + "\n")


# -- set-up and rounds --------------------------------------------------------

def set_up(workload: Workload, work: Path, seed: int, smoke: bool) -> Inputs:
    """Build the bundle and write every input file. This is what setup_s times."""
    sizes = workload.smoke if smoke else workload.sizes
    gen_seed = SMOKE_GEN_SEED if smoke else GEN_SEED
    cfg = pl.pipeline_config_from_dict(dict(workload.config, seed=gen_seed))
    read_doc = dict(DESK_CONFIG, seed=gen_seed)
    spec = pl.demo_scene_spec()
    bundle = pl.build_scene_bundle(spec, cfg)
    scene_dir = pl.write_scene_dir(spec, work / "scene", cloud=bundle.cloud)
    config_path = work / "run_config.json"
    config_path.write_text(json.dumps(read_doc, indent=1), encoding="utf-8")
    actions_path, tokens_dir, bank_path = write_keyframe_inputs(work, seed, sizes)
    dataset_path = work / "dataset.jsonl"
    report, _ = generate(pl.pipeline_config_from_dict(read_doc), bundle,
                         sizes.dataset, dataset_path)
    check(report.accepted == sizes.dataset,
          f"set-up generated {report.accepted} of {sizes.dataset} episodes")
    predictions_path = work / "predictions.jsonl"
    write_predictions(dataset_path, predictions_path, seed, sizes)
    return Inputs(work, cfg, bundle, scene_dir, config_path, actions_path, tokens_dir,
                  bank_path, dataset_path, predictions_path, sizes.dataset)


def generate(cfg: pl.PipelineConfig, bundle: pl.SceneBundle, count: int,
             out: Path) -> tuple[pl.GenerationReport, float]:
    """One run_generate call, timed wall to wall (JSONL write included)."""
    gc.collect()  # so no call pays for garbage an earlier one left
    started = time.perf_counter()
    report = pl.run_generate(bundle, cfg, count, out)
    return report, time.perf_counter() - started


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """``uavnav <argv>`` in-process with stdout captured: (exit code, wall s, stdout)."""
    buf = io.StringIO()
    gc.collect()
    started = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, time.perf_counter() - started, buf.getvalue()


@dataclass
class ReadResult:
    walls: dict[str, float]  # command -> wall s
    failed: int  # commands that exited non-zero
    eval_summary: dict
    observation_sha256: str


def read_round(inp: Inputs, before_each: Callable[[], None] | None = None) -> ReadResult:
    """validate, eval and keyframe through ``cli.main``, outputs checked.
    ``before_each`` runs, untimed, before each command."""
    w, dataset_path, episodes = inp.work, inp.dataset_path, inp.episodes
    scene = ["--scene", str(inp.scene_dir), "--config", str(inp.config_path)]
    commands = {
        "validate": ["validate", *scene, "--episodes", str(dataset_path)],
        "eval": ["eval", *scene, "--episodes", str(dataset_path),
                 "--predictions", str(inp.predictions_path),
                 "--radius", str(SUCCESS_RADIUS), "--out", str(w / "eval.json")],
        "keyframe": ["keyframe", "--actions", str(inp.actions_path),
                     "--tokens", str(inp.tokens_dir), "--config", str(inp.bank_path),
                     "--out", str(w / "observation.bin"), "--log", str(w / "merges.json")],
    }
    walls, outputs, failed = {}, {}, 0
    for name, argv in commands.items():
        if before_each:
            before_each()
        code, walls[name], outputs[name] = run_cli(argv)
        failed += code != 0
    check(failed == 0, f"{failed} read-side command(s) exited non-zero")
    report = json.loads(outputs["validate"])
    check(report["ok"] and report["episodes_checked"] == episodes,
          f"validate: {report['episodes_checked']} checked, "
          f"{len(report['violations'])} violations")
    summary = json.loads((w / "eval.json").read_text(encoding="utf-8"))
    check(summary["count"] == episodes and summary["missing_predictions"] == 0,
          f"eval scored {summary['count']} of {episodes} episodes")
    bank = json.loads(inp.bank_path.read_text(encoding="utf-8"))
    observation = kf.load_tokens(w / "observation.bin")
    expected = bank["capacity"] * bank["pooled_tokens"] + bank["current_tokens"]
    check(observation.count == expected,
          f"keyframe observation has {observation.count} tokens, expected {expected}")
    merges = json.loads((w / "merges.json").read_text(encoding="utf-8"))
    check(len(merges) > 0, "keyframe merged no tokens")
    return ReadResult(walls, failed, summary, sha256_file(w / "observation.bin"))


def check_batch(inp: Inputs, report: pl.GenerationReport, path: Path) -> None:
    """Every requested episode accepted, and the JSONL re-validates clean."""
    check(report.failed_episodes == 0 and report.accepted == report.requested,
          f"generate: {report.accepted} of {report.requested} episodes accepted")
    violations = pl.run_validate(path, inp.cfg, inp.bundle).violations
    check(not violations, f"generated JSONL has {len(violations)} violations, "
                          f"first: {violations[0].to_dict() if violations else None}")
