from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import landmark_phrases_two_parse, split_runs_oracle
from uavnav.geometry import Point3
from uavnav.instructions import (DEFAULT_SIMILARITY_THRESHOLD, Instruction,
                                 build_instruction, fuse_instruction,
                                 generate_sub_instruction, group_action_runs,
                                 refine_coreference, split_subtrajectories,
                                 SubTrajectory)
from uavnav.textproc import (ADJ_LEXICON, ATTACH_PREPS, CONJUNCTIONS, DETERMINERS,
                             LANDMARK_NOUNS, NOUN_OVERRIDES, OTHER_PREPS, PRONOUNS,
                             VERB_LEXICON, alnum_tokens, bag_of_words_embedding,
                             embedding_dot, extract_landmark_phrases)
from uavnav.trajgen import (MOVE_DOWN, MOVE_UP, STOP, TURN_LEFT, TURN_RIGHT,
                            ActionKind, Pose, Trajectory, forward)
from uavnav.vlm import VlmClient

F3, F6, F9 = forward(3.0), forward(6.0), forward(9.0)
L, R, U, D, S = TURN_LEFT, TURN_RIGHT, MOVE_UP, MOVE_DOWN, STOP


def traj(actions, yaw=0.0) -> Trajectory:
    return Trajectory(Pose(Point3(0, 0, 30), yaw), list(actions))


def kinds(subs):
    return [[a.kind.value for a in sub.actions] for sub in subs]


class TestSplitSubtrajectories:
    def test_single_forward_run(self):
        subs = split_subtrajectories(traj([F3, F3, F3, S]))
        assert kinds(subs) == [["forward", "forward", "forward", "stop"]]

    def test_slight_turn_merged_into_forwards(self):
        subs = split_subtrajectories(traj([F3, F3, L, F3, F3, S]))
        assert len(subs) == 1
        assert [a.kind for a in subs[0].actions] == [
            ActionKind.FORWARD, ActionKind.FORWARD, ActionKind.TURN_LEFT,
            ActionKind.FORWARD, ActionKind.FORWARD, ActionKind.STOP]

    def test_double_turn_kept_separate(self):
        subs = split_subtrajectories(traj([F3, L, L, F3, U, S]))
        assert kinds(subs) == [["forward"], ["turn_left", "turn_left"],
                               ["forward"], ["move_up", "stop"]]

    def test_stop_only_trajectory(self):
        subs = split_subtrajectories(traj([S]))
        assert kinds(subs) == [["stop"]]
        assert subs[0].terminal_pose_index == 1

    def test_terminal_indices_strictly_increasing(self):
        subs = split_subtrajectories(traj([F3, L, L, F6, U, U, S]))
        indices = [sub.terminal_pose_index for sub in subs]
        assert indices == sorted(set(indices))

    def test_partition_against_oracle_30_random_sequences(self):
        rng = np.random.default_rng(31)
        pool = [F3, F6, F9, L, R, U, D]
        for _ in range(30):
            core = [pool[i] for i in rng.integers(0, len(pool),
                                                  size=rng.integers(1, 20))]
            runs = group_action_runs(core)
            oracle = split_runs_oracle([a.kind.value for a in core])
            assert [[a.kind.value for a in r] for _, r in runs] == oracle

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([F3, F6, F9, L, R, U, D]), min_size=0,
                    max_size=30))
    def test_slices_concatenate_to_input(self, core):
        t = traj(core + [S])
        subs = split_subtrajectories(t)
        flattened = [a for sub in subs for a in sub.actions]
        assert flattened == t.actions
        starts = [sub.start_index for sub in subs]
        assert starts == sorted(starts)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([F3, F6, F9, L, R, U, D]), min_size=0,
                    max_size=25))
    def test_regrouping_flattened_output_is_stable(self, core):
        first = group_action_runs(core)
        flattened = [a for _, r in first for a in r]
        assert [r for _, r in group_action_runs(flattened)] == [r for _, r in first]

    def test_image_refs_and_visibility_enrichment(self):
        t = traj([F3, L, L, F3, S])
        refs = [f"frame_{i}" for i in range(len(t.poses))]
        visibility = {1: {4}, 3: set(), 4: {2, 7}, 5: {2}}
        subs = split_subtrajectories(t, image_refs=refs, visible=visibility.get)
        assert [sub.key_image_ref for sub in subs] == ["frame_1", "frame_3", "frame_5"]
        assert subs[0].landmark_hint == 4
        assert subs[1].landmark_hint is None
        assert subs[2].landmark_hint == 2

    def test_hint_prefers_trajectory_target(self):
        t = Trajectory(Pose(Point3(0, 0, 30), 0.0), [F3, S], target_landmark_id=7)
        subs = split_subtrajectories(t, visible={2: {2, 7, 9}}.get)
        assert subs[0].landmark_hint == 7

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([F3, F6, F9, L, R, U, D]), max_size=25),
           st.one_of(st.none(), st.integers(0, 30)),
           st.one_of(st.none(), st.lists(st.sets(st.integers(0, 6), max_size=3),
                                         max_size=30)),
           st.one_of(st.just(-1), st.integers(0, 6)))  # -1: no target
    def test_each_sub_reads_its_terminal_frame(self, core, n_refs, frames, target):
        t = Trajectory(Pose(Point3(0, 0, 30), 0.0), core + [S], target_landmark_id=target)
        refs = None if n_refs is None else [f"frame_{i}" for i in range(n_refs)]
        visibility = dict(enumerate(frames or []))
        asked: list[int] = []

        def visible(k: int) -> set[int] | None:
            asked.append(k)
            return visibility.get(k)

        subs = split_subtrajectories(t, image_refs=refs,
                                     visible=None if frames is None else visible)
        assert asked == ([] if frames is None else [sub.terminal_pose_index for sub in subs])
        for sub in subs:
            k = sub.terminal_pose_index
            in_range = refs is not None and k < len(refs)
            assert sub.key_image_ref == (refs[k] if in_range else None)
            seen = visibility.get(k, set())
            if target in seen:
                assert sub.landmark_hint == target
            else:
                assert sub.landmark_hint == (min(seen) if seen else None)


CAPTION = {"color": "gray", "feature": "glass", "size": "large", "type": "tower"}


class TestGenerateSubInstruction:
    def test_forward_clause(self):
        sub = SubTrajectory(actions=[F3, F3, F3], start_index=0,
                            terminal_pose_index=3)
        out = generate_sub_instruction(sub, CAPTION, VlmClient(mode="mock"))
        assert out == "go straight to the large gray tower"

    def test_turn_clause(self):
        sub = SubTrajectory(actions=[L, L], start_index=0, terminal_pose_index=2)
        out = generate_sub_instruction(sub, CAPTION, VlmClient(mode="mock"))
        assert out.startswith("turn left toward")

    def test_no_caption_clause(self):
        sub = SubTrajectory(actions=[U, U], start_index=0, terminal_pose_index=2)
        out = generate_sub_instruction(sub, None, VlmClient(mode="mock"))
        assert out == "ascend"


class TestFuseInstruction:
    def test_single_clause_unchanged(self):
        instr = fuse_instruction(["go straight"], VlmClient(mode="mock"))
        assert instr.text == "go straight"
        assert instr.sub_instructions == ["go straight"]

    def test_two_clause_template(self):
        instr = fuse_instruction(["c one", "c two"], VlmClient(mode="mock"))
        assert instr.text == "c one. Then, c two."

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fuse_instruction([], VlmClient(mode="mock"))

    def test_recorded_fusion_fixture(self, tmp_path):
        # A canned live-style reply, replayed offline through the cache.
        fused = ("Move forward to a high-rise building with a noticeable logo "
                 "at the top. Then, slightly turn left and go straight to a "
                 "futuristic tower with a large spherical structure in the "
                 "middle.")
        clauses = ["move forward to the high-rise building",
                   "slightly turn left and go straight to the futuristic tower"]
        live = VlmClient(mode="live", endpoint="unused", cache_dir=tmp_path)
        request = {
            "model": live.model,
            "messages": [
                {"role": "system", "content": __import__("uavnav.instructions",
                                                         fromlist=["FUSION_PROMPT"]).FUSION_PROMPT},
                {"role": "user",
                 "content": json.dumps({"task": "fuse", "clauses": clauses},
                                       sort_keys=True)},
            ],
        }
        live._record(request, fused)
        replay = VlmClient(mode="replay", cache_dir=tmp_path)
        instr = fuse_instruction(clauses, replay)
        assert instr.text == fused
        assert instr.sub_instructions == clauses

    def test_alnum_tokens_of_instruction_text(self):
        instr = Instruction(text="Go to the Tower.", sub_instructions=["x"])
        assert alnum_tokens(instr.text) == ["go", "to", "the", "tower"]


REDUNDANT = (
    "make a left turn toward a medium-sized beige building marked by a "
    "signboard reading CHARLIE'S CHOCOLATE. Continue heading straight, "
    "passing a medium-sized gray building with a prominent rooftop billboard "
    "displaying Charlie's Chocolate and descend."
)


class TestRefineCoreference:
    def test_disjoint_phrases_unchanged(self):
        instr = Instruction(
            text="go to the tall blue tower. Then pass the small red house.",
            sub_instructions=[])
        refined = refine_coreference(instr, threshold=0.8)
        assert refined.text == instr.text

    def test_worked_example_replaces_second_mention(self):
        instr = Instruction(text=REDUNDANT, sub_instructions=[])
        refined = refine_coreference(instr)
        assert ("passing a medium-sized gray building with a prominent "
                "rooftop billboard") not in refined.text
        assert "passing it and descend." in refined.text
        assert ("a medium-sized beige building marked by a signboard reading "
                "CHARLIE'S CHOCOLATE") in refined.text

    def test_identical_phrase_replaced_at_threshold_one(self):
        text = ("head to the large gray tower. Continue past the large gray "
                "tower toward the river.")
        instr = Instruction(text=text, sub_instructions=[])
        refined = refine_coreference(instr, threshold=1.0)
        assert refined.text == ("head to the large gray tower. Continue past "
                                "it toward the river.")

    def test_first_mention_and_other_tokens_preserved(self):
        instr = Instruction(text=REDUNDANT, sub_instructions=[])
        refined = refine_coreference(instr)
        phrases = extract_landmark_phrases(REDUNDANT)
        first = phrases[0]
        assert REDUNDANT[:first.end] == refined.text[:first.end]
        assert refined.text.endswith(" and descend.")

    def test_threshold_monotonicity(self):
        instr = Instruction(text=REDUNDANT, sub_instructions=[])

        def replacements(threshold):
            return refine_coreference(instr, threshold=threshold).text.count(" it")

        counts = [replacements(t) for t in (0.3, 0.5, 0.7, 0.9, 1.0)]
        assert counts == sorted(counts, reverse=True)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            refine_coreference(Instruction(text="x", sub_instructions=[]),
                               threshold=0.0)


class TestSimilarityValues:
    def test_worked_example_similarity_exceeds_default_threshold(self):
        phrases = extract_landmark_phrases(REDUNDANT)
        assert len(phrases) == 2
        sim = embedding_dot(bag_of_words_embedding(phrases[0].text),
                            bag_of_words_embedding(phrases[1].text))
        assert sim > DEFAULT_SIMILARITY_THRESHOLD
        assert sim == pytest.approx(0.6455, abs=2e-3)


_PROPER_WORDS = ["Charlie's", "CHOCOLATE", "Main", "Tower", "Plaza", "North", "It", "The"]
_NOUN_PHRASES = st.builds(lambda det, adjs, noun: " ".join([det, *adjs, noun]),
                          st.sampled_from(sorted(DETERMINERS)),
                          st.lists(st.sampled_from(sorted(ADJ_LEXICON)), max_size=2),
                          st.sampled_from(sorted(LANDMARK_NOUNS)))
_CHUNKER_WORDS = st.one_of(
    st.sampled_from(sorted(DETERMINERS)),
    st.sampled_from(sorted(LANDMARK_NOUNS)),
    st.sampled_from(sorted(ADJ_LEXICON | NOUN_OVERRIDES)),
    st.sampled_from(sorted(ATTACH_PREPS | OTHER_PREPS | CONJUNCTIONS | PRONOUNS)),
    st.sampled_from(sorted(VERB_LEXICON) + ["reading", "marked", "topped", "medium-sized",
                                            "signboard", "rooftop", "logo", "42"]),
    st.sampled_from(_PROPER_WORDS),
    _NOUN_PHRASES,
    st.builds(lambda link, np: f"{link} {np}",
              st.sampled_from(sorted(ATTACH_PREPS) + ["reading", "marked", "marked by"]),
              st.one_of(_NOUN_PHRASES, st.sampled_from(_PROPER_WORDS))),
)


class TestLandmarkPhrases:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(_CHUNKER_WORDS, st.sampled_from([" ", " ", " ", ", ", ". ", "; ",
                                                               ",", "."])),
                    max_size=30))
    def test_matches_two_parse_chunker(self, pieces):
        text = "".join(word + sep for word, sep in pieces)
        assert extract_landmark_phrases(text) == landmark_phrases_two_parse(text)

    def test_reference_text_phrases(self):
        phrases = extract_landmark_phrases(REDUNDANT)
        assert phrases == landmark_phrases_two_parse(REDUNDANT)
        assert [p.head for p in phrases] == ["building", "building"]


class TestBuildInstruction:
    def test_mock_pipeline_deterministic(self):
        t = traj([F3, F3, L, L, F6, S])
        captions = {0: CAPTION, 1: {"color": "red", "feature": "brick",
                                    "size": "small", "type": "house"}}
        refs = [f"f{i}" for i in range(len(t.poses))]
        visibility = {i: {0} for i in range(len(t.poses))}
        vlm = VlmClient(mode="mock")
        one = build_instruction(t, captions, vlm, refs, visibility.get)
        two = build_instruction(t, captions, vlm, refs, visibility.get)
        assert one == two
        assert len(one.sub_instructions) == 3

    def test_repeated_landmark_collapses_to_pronoun(self):
        t = traj([F3, F3, L, L, F6, S])
        captions = {0: CAPTION}
        visibility = {i: {0} for i in range(len(t.poses))}
        instr = build_instruction(t, captions, VlmClient(mode="mock"),
                                  None, visibility.get)
        assert instr.text.count("the large gray tower") == 1
        assert " it" in instr.text
