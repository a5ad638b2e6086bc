"""Instruction synthesis: trajectory splitting, per-segment clauses,
fusion into one sentence, and coreference cleanup.

A trajectory is split at action-kind transitions into sub-trajectories;
a single 30-degree turn is treated as a slight heading adjustment and
absorbed into the surrounding forward motion rather than forming its own
segment. Each sub-trajectory yields one clause (via the VLM client, or
a deterministic template in mock mode); the clauses are fused into one
instruction, and near-duplicate landmark descriptions are replaced by
"it".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .textproc import bag_of_words_embedding, embedding_dot, extract_landmark_phrases
from .trajgen import Action, ActionKind, Trajectory
from .vlm import VlmClient

DEFAULT_SIMILARITY_THRESHOLD = 0.6

SUB_INSTRUCTION_PROMPT = (
    "You are an image recognition assistant helping to narrate a drone "
    "flight. Given one leg of the flight (its actions and the view at its "
    "end), write a short imperative clause that combines the motion with "
    "the most prominent landmark in view."
)

FUSION_PROMPT = (
    "You are a text editing assistant. Combine the given scattered motion "
    "clauses into one smooth, fluent instruction, keeping their order and "
    "meaning. If adjacent clauses describe similar or identical landmarks, "
    "refer back to them with pronouns."
)


@dataclass(frozen=True)
class SubTrajectory:
    """A maximal run of consistent actions, plus its terminal-frame context."""

    actions: list[Action]
    start_index: int  # first action index in the parent trajectory
    terminal_pose_index: int  # pose index right after the run's last action
    key_image_ref: str | None = None
    landmark_hint: int | None = None

    @property
    def kind(self) -> ActionKind:
        for action in reversed(self.actions):
            if action.kind is not ActionKind.STOP:
                return action.kind
        return ActionKind.STOP

    @property
    def leading_turn(self) -> str | None:
        """Set when a merged-in slight turn opens a forward run."""
        if self.kind is not ActionKind.FORWARD:
            return None
        first = self.actions[0].kind
        if first is ActionKind.TURN_LEFT:
            return "left"
        if first is ActionKind.TURN_RIGHT:
            return "right"
        return None


@dataclass
class Instruction:
    text: str
    sub_instructions: list[str]


_TURN_KINDS = (ActionKind.TURN_LEFT, ActionKind.TURN_RIGHT)


def group_action_runs(actions: Sequence[Action]) -> list[tuple[int, list[Action]]]:
    """Group actions (no trailing Stop) into sub-trajectory runs.

    Runs are maximal stretches of one action kind, except that a lone
    turn directly followed by a Forward run takes on kind Forward and
    coalesces with the forward motion around it. Two or more consecutive
    turns are a deliberate heading change and stay separate.
    """
    runs: list[tuple[int, list[Action]]] = []
    label = None
    for i, action in enumerate(actions):
        previous, label = label, action.kind
        if (label in _TURN_KINDS and i + 1 < len(actions)
                and actions[i + 1].kind is ActionKind.FORWARD
                and (i == 0 or actions[i - 1].kind is not label)):
            label = ActionKind.FORWARD
        if runs and label is previous:
            runs[-1][1].append(action)
        else:
            runs.append((i, [action]))
    return runs


def split_subtrajectories(
    trajectory: Trajectory,
    image_refs: Sequence[str] | None = None,
    visible: Callable[[int], set[int] | None] | None = None,
) -> list[SubTrajectory]:
    """Partition the trajectory's actions into sub-trajectories.

    The final Stop attaches to the last sub-trajectory. When image
    references or ``visible`` (frame -> visible landmark ids) are
    provided, each segment also records its terminal frame and a visible
    landmark id (the trajectory target when visible, otherwise the
    smallest id); ``visible`` is asked only about terminal frames.
    """
    actions = trajectory.actions
    runs = group_action_runs(actions[:-1]) or [(0, [])]
    runs[-1][1].append(actions[-1])
    target = trajectory.target_landmark_id
    subs: list[SubTrajectory] = []
    for start, run in runs:
        end = start + len(run)
        seen = visible(end) if visible is not None else None
        ref = image_refs[end] if image_refs is not None and end < len(image_refs) else None
        hint = (target if target in seen else min(seen)) if seen else None
        subs.append(SubTrajectory(run, start, end, ref, hint))
    return subs


def generate_sub_instruction(
    sub: SubTrajectory,
    landmark_caption: Mapping[str, str] | None,
    vlm: VlmClient,
) -> str:
    """One clause combining the run's motion with the described landmark."""
    payload = {
        "task": "sub_instruction",
        "actions": [a.to_dict() for a in sub.actions],
        "caption": dict(landmark_caption) if landmark_caption else None,
        "leading_turn": sub.leading_turn,
        "key_image_ref": sub.key_image_ref,
    }
    return vlm.complete(SUB_INSTRUCTION_PROMPT, payload)


def fuse_instruction(sub_instructions: Sequence[str], llm: VlmClient) -> Instruction:
    """Fuse clauses into one instruction; clause list is kept verbatim."""
    if not sub_instructions:
        raise ValueError("at least one sub-instruction is required")
    payload = {"task": "fuse", "clauses": list(sub_instructions)}
    text = llm.complete(FUSION_PROMPT, payload)
    return Instruction(text=text, sub_instructions=list(sub_instructions))


def refine_coreference(
    instruction: Instruction,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> Instruction:
    """Replace repeated landmark descriptions with "it".

    Landmark noun phrases are found by rule-based chunking and embedded
    as bags of words; any phrase whose similarity to an earlier phrase
    exceeds the threshold is replaced by a pronoun. Identical phrases
    count as similarity exactly 1, so they merge even at threshold 1.
    First mentions are always kept.
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must lie in (0, 1]")
    phrases = extract_landmark_phrases(instruction.text)
    if len(phrases) < 2:
        return instruction
    vectors = [bag_of_words_embedding(p.text) for p in phrases]
    pieces: list[str] = []
    cursor = 0
    for i, phrase in enumerate(phrases):
        if i == 0:
            continue
        best = max(1.0 if vectors[i] == vectors[j]
                   else embedding_dot(vectors[i], vectors[j])
                   for j in range(i))
        if best > threshold or best >= 1.0:
            pieces.append(instruction.text[cursor:phrase.start])
            pieces.append("it")
            cursor = phrase.end
    pieces.append(instruction.text[cursor:])
    return Instruction(text="".join(pieces),
                       sub_instructions=list(instruction.sub_instructions))


def build_instruction(
    trajectory: Trajectory,
    captions_by_landmark: Mapping[int, Mapping[str, str]],
    vlm: VlmClient,
    image_refs: Sequence[str] | None,
    visible: Callable[[int], set[int] | None],
) -> Instruction:
    """Full trajectory-to-instruction pipeline for one trajectory; each
    clause describes the landmark in view at its sub-trajectory's end."""
    clauses = [generate_sub_instruction(sub, captions_by_landmark.get(sub.landmark_hint), vlm)
               for sub in split_subtrajectories(trajectory, image_refs, visible)]
    return refine_coreference(fuse_instruction(clauses, vlm))
