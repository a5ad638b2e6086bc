"""Rule-based text utilities: tokenizing, tagging, noun-phrase chunking,
and a bag-of-words embedder.

This deliberately avoids a full parser. A small closed-class lexicon
plus suffix heuristics is enough to find landmark noun phrases of the
form "determiner + modifiers + head noun (+ prepositional or participial
tails)" in generated navigation instructions.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from .vlm import COLOR_WORDS

WORD_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9'\-]*")
ALNUM_RE = re.compile(r"[a-z0-9]+")
_BOUNDARY_RE = re.compile(r"[.,;:!?]")

DETERMINERS = {"a", "an", "the", "this", "that", "these", "those", "its",
               "their", "another", "next"}
ATTACH_PREPS = {"with", "of", "on", "at", "near", "by", "atop", "beside",
                "above", "under", "beneath", "along"}
OTHER_PREPS = {"to", "toward", "towards", "from", "into", "over", "past",
               "through", "until", "across", "down", "up", "in", "for"}
CONJUNCTIONS = {"and", "or", "then", "while", "as", "when", "before", "after"}
PRONOUNS = {"it", "there", "you", "your", "yours", "we", "i", "they", "them"}

VERB_LEXICON = {
    "go", "goes", "going", "gone", "went", "move", "moves", "moving", "moved",
    "turn", "turns", "turning", "turned", "head", "heads", "heading", "headed",
    "continue", "continues", "continuing", "continued", "proceed", "proceeds",
    "proceeding", "proceeded", "fly", "flies", "flying", "flew", "ascend",
    "ascends", "ascending", "ascended", "descend", "descends", "descending",
    "descended", "stop", "stops", "stopping", "stopped", "pass", "passes",
    "passing", "passed", "reach", "reaches", "reaching", "reached", "make",
    "makes", "making", "made", "advance", "advances", "advancing", "advanced",
    "keep", "keeps", "keeping", "kept", "veer", "veers", "veering", "veered",
    "climb", "climbs", "climbing", "climbed", "approach", "approaches",
    "approaching", "approached", "cross", "crosses", "crossing", "crossed",
    "follow", "follows", "following", "followed", "hover", "hovers",
    "hovering", "hovered", "maintain", "maintains", "maintaining",
    "maintained", "begin", "begins", "beginning", "began", "start", "starts",
    "starting", "started", "navigate", "navigates", "navigating", "navigated",
    "is", "are", "be", "see", "sees", "seeing", "seen",
}

ADJ_LEXICON = {
    "small", "medium", "large", "big", "tall", "high", "low", "huge", "tiny",
    "wide", "narrow", "long", "short", "prominent", "noticeable", "futuristic",
    "modern", "classical", "spherical", "rectangular", "round", "square",
    "glass", "steel", "concrete", "brick", "wooden", "left", "right",
    "straight", "nearest", "nearby", "distinct", "striking", "flat",
    "slight", "sleek", "new", "old",
} | COLOR_WORDS

# Nouns whose -ing/-ed endings would otherwise look like participles.
NOUN_OVERRIDES = {"building", "buildings", "ceiling", "railing", "railings",
                  "landing", "crossing"}

LANDMARK_NOUNS = {
    "building", "buildings", "tower", "towers", "skyscraper", "skyscrapers",
    "house", "houses", "structure", "structures", "block", "bridge",
    "stadium", "library", "church", "hotel", "warehouse", "factory",
    "monument", "museum", "hall", "plaza", "mall", "apartment", "apartments",
    "complex", "terminal", "station", "pavilion", "dome", "silo", "chimney",
}


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int


def word_tokens(text: str) -> list[Token]:
    return [Token(m.group(0), m.start(), m.end()) for m in WORD_RE.finditer(text)]


def alnum_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric tokens; hyphens and apostrophes split words."""
    return ALNUM_RE.findall(text.lower())


def tag_word(word: str) -> str:
    """One of DET, PREP, CONJ, PRON, NOUN, VERB, ADJ, NUM."""
    lower = word.lower()
    if lower in DETERMINERS:
        return "DET"
    if lower in ATTACH_PREPS or lower in OTHER_PREPS:
        return "PREP"
    if lower in CONJUNCTIONS:
        return "CONJ"
    if lower in PRONOUNS:
        return "PRON"
    if lower in NOUN_OVERRIDES:
        return "NOUN"
    if lower in VERB_LEXICON:
        return "VERB"
    if "-" in lower or lower in ADJ_LEXICON:
        return "ADJ"
    if lower.endswith("ing") or (lower.endswith("ed") and len(lower) > 3):
        return "VERB"
    if lower.isdigit():
        return "NUM"
    return "NOUN"


def _is_participle(word: str) -> bool:
    lower = word.lower()
    return tag_word(word) == "VERB" and (lower.endswith("ing") or lower.endswith("ed"))


def _is_proper(word: str) -> bool:
    return word[0].isupper() and tag_word(word) == "NOUN"


@dataclass(frozen=True)
class NounPhrase:
    start: int  # character span in the source text
    end: int
    text: str
    head: str


class _Chunker:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = word_tokens(text)

    def _gap_breaks(self, i: int) -> bool:
        """True when punctuation separates token i from token i+1."""
        if i + 1 >= len(self.tokens):
            return True
        between = self.text[self.tokens[i].end:self.tokens[i + 1].start]
        return bool(_BOUNDARY_RE.search(between))

    def _parse_core(self, i: int) -> int | None:
        """Parse DET (ADJ|NOUN)* ending at the last noun; returns the head noun's index."""
        j = i + 1
        last_noun = None
        while j < len(self.tokens):
            tag = tag_word(self.tokens[j].text)
            if tag in ("ADJ", "NOUN", "NUM"):
                if tag == "NOUN":
                    last_noun = j
                if self._gap_breaks(j):
                    j += 1
                    break
                j += 1
            elif (tag == "CONJ" and not self._gap_breaks(j) and j + 1 < len(self.tokens)
                  and tag_word(self.tokens[j + 1].text) in ("ADJ", "NOUN")):
                j += 1
            else:
                break
        return last_noun

    def _parse_proper_sequence(self, i: int) -> int | None:
        """Consume consecutive capitalized nouns; returns index after the last."""
        j = i
        while j < len(self.tokens) and _is_proper(self.tokens[j].text):
            j += 1
            if self._gap_breaks(j - 1):
                break
        return j if j > i else None

    def _parse_np(self, i: int, depth: int) -> int | None:
        """NP := DET core tails | ProperNoun+; returns index after the phrase."""
        if i >= len(self.tokens) or depth > 3:
            return None
        if tag_word(self.tokens[i].text) != "DET":
            return self._parse_proper_sequence(i)
        head = self._parse_core(i)
        return None if head is None else self._parse_tails(head + 1, depth)

    def _parse_tails(self, j: int, depth: int) -> int:
        """Attach prepositional and participial modifiers while they fit."""
        while j < len(self.tokens) and not self._gap_breaks(j - 1):
            word = self.tokens[j].text
            lower = word.lower()
            if lower in ATTACH_PREPS:
                after = self._parse_np(j + 1, depth + 1)
                if after is None:
                    break
                j = after
            elif _is_participle(word):
                k = j + 1
                if k < len(self.tokens) and not self._gap_breaks(j):
                    if self.tokens[k].text.lower() in ATTACH_PREPS:
                        k += 1
                    after = self._parse_np(k, depth + 1)
                    if after is not None:
                        j = after
                        continue
                # Bare participle with no complement ends the phrase.
                break
            else:
                break
        return j

    def landmark_phrases(self) -> list[NounPhrase]:
        phrases: list[NounPhrase] = []
        i = 0
        while i < len(self.tokens):
            head = self._parse_core(i) if tag_word(self.tokens[i].text) == "DET" else None
            if head is None:
                i += 1
                continue
            end = self._parse_tails(head + 1, 0)
            word = self.tokens[head].text.lower()
            if word in LANDMARK_NOUNS:
                start, stop = self.tokens[i].start, self.tokens[end - 1].end
                phrases.append(NounPhrase(start, stop, self.text[start:stop], word))
            i = end
        return phrases


def extract_landmark_phrases(text: str) -> list[NounPhrase]:
    """Landmark noun phrases with character spans, in reading order."""
    return _Chunker(text).landmark_phrases()


def bag_of_words_embedding(text: str) -> dict[str, float]:
    """L2-normalized token-count vector, so dot product equals cosine."""
    counts = Counter(alnum_tokens(text))
    norm = math.sqrt(sum(c * c for c in counts.values()))
    if norm == 0:
        return {}
    return {tok: c / norm for tok, c in counts.items()}


def embedding_dot(u: dict[str, float], v: dict[str, float]) -> float:
    if len(v) < len(u):
        u, v = v, u
    return sum(weight * v[tok] for tok, weight in u.items() if tok in v)


def noun_verb_tables(texts: list[str]) -> tuple[Counter, Counter]:
    """Frequency tables of tokens tagged NOUN and VERB across texts."""
    nouns: Counter = Counter()
    verbs: Counter = Counter()
    for text in texts:
        for token in word_tokens(text):
            tag = tag_word(token.text)
            if tag == "NOUN":
                nouns[token.text.lower()] += 1
            elif tag == "VERB":
                verbs[token.text.lower()] += 1
    return nouns, verbs
