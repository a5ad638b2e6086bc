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

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

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
    if not actions:
        return []
    kinds = [a.kind for a in actions]
    # Maximal runs of the raw kinds.
    raw: list[tuple[int, int]] = []  # (start, end) exclusive
    start = 0
    for i in range(1, len(actions) + 1):
        if i == len(actions) or kinds[i] != kinds[start]:
            raw.append((start, i))
            start = i
    # A length-1 turn run immediately before a Forward run acts as Forward.
    effective: list[ActionKind] = []
    for r, (s, e) in enumerate(raw):
        kind = kinds[s]
        if (e - s == 1 and kind in _TURN_KINDS and r + 1 < len(raw)
                and kinds[raw[r + 1][0]] is ActionKind.FORWARD):
            kind = ActionKind.FORWARD
        effective.extend([kind] * (e - s))
    runs: list[tuple[int, list[Action]]] = []
    start = 0
    for i in range(1, len(actions) + 1):
        if i == len(actions) or effective[i] != effective[start]:
            runs.append((start, list(actions[start:i])))
            start = i
    return runs


def split_subtrajectories(
    trajectory: Trajectory,
    image_refs: Sequence[str] | None = None,
    visibility: Mapping[int, set[int]] | None = None,
) -> list[SubTrajectory]:
    """Partition the trajectory's actions into sub-trajectories.

    The final Stop attaches to the last sub-trajectory. When image
    references or a landmark-visibility map are provided, each segment
    also records its terminal frame and a visible landmark id (the
    trajectory target when visible, otherwise the smallest id).
    """
    actions = trajectory.actions
    if not actions or actions[-1].kind is not ActionKind.STOP:
        raise ValueError("trajectory must end with Stop")
    runs = group_action_runs(actions[:-1])
    if not runs:
        runs = [(0, [])]
    subs: list[SubTrajectory] = []
    for start, run_actions in runs:
        subs.append(SubTrajectory(actions=run_actions, start_index=start,
                                  terminal_pose_index=start + len(run_actions)))
    last = subs[-1]
    subs[-1] = replace(last, actions=last.actions + [actions[-1]],
                       terminal_pose_index=last.terminal_pose_index + 1)
    if image_refs is not None or visibility is not None:
        enriched = []
        for sub in subs:
            ref = None
            if image_refs is not None and sub.terminal_pose_index < len(image_refs):
                ref = image_refs[sub.terminal_pose_index]
            hint = None
            if visibility is not None:
                visible = visibility.get(sub.terminal_pose_index) or set()
                if visible:
                    hint = (trajectory.target_landmark_id
                            if trajectory.target_landmark_id in visible
                            else min(visible))
            enriched.append(replace(sub, key_image_ref=ref, landmark_hint=hint))
        subs = enriched
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
    image_refs: Sequence[str] | None = None,
    visibility: Mapping[int, set[int]] | None = None,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> Instruction:
    """Full trajectory-to-instruction pipeline for one trajectory."""
    subs = split_subtrajectories(trajectory, image_refs=image_refs,
                                 visibility=visibility)

    def caption_for(sub: SubTrajectory) -> Mapping[str, str] | None:
        lm = sub.landmark_hint
        if lm is None and visibility is None:
            lm = trajectory.target_landmark_id
        if lm is None:
            return None
        return captions_by_landmark.get(lm)

    clauses = [generate_sub_instruction(sub, caption_for(sub), vlm) for sub in subs]
    return refine_coreference(fuse_instruction(clauses, vlm), threshold=threshold)
