"""Outside-in tracing of uavnav layers for the benchmark.

Spans (name, start, end, parent) and counters are recorded by replacing
module attributes of the program with thin wrappers for the duration of
one traced pass, then restoring them. Nothing inside ``src/`` knows about
this. The counters are stop-gaps: once the program reports its own search,
sampling and VLM counters (ROADMAP aim 4), the benchmark should read those
instead.

Every module attribute patched here is looked up at call time by its
caller (a module global or a ``module.attr`` access), which is why
``pipeline.voxelize`` is patched rather than ``occupancy.voxelize``.

Worker threads (``workers=2`` in ``run_generate``) get their own span
stack and counters, merged when the pass is summarised, so counts stay
exact without a lock on the hot path.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from uavnav import dataset, evaluation, keyframe, pipeline, segmentation, trajgen
from uavnav import instructions
from uavnav.vlm import VlmClient

# Time metrics: metric name -> span name. Values are summed self time
# (span duration minus the time covered by its child spans).
TIME_METRICS = {
    "scene.synthesize_s": "scene.synthesize",
    "scene.load_point_cloud_s": "scene.load_point_cloud",
    "occupancy.voxelize_s": "occupancy.voxelize",
    "occupancy.bev_s": "occupancy.bev",
    "segmentation.extract_s": "segmentation.extract",
    "segmentation.caption_s": "segmentation.caption",
    "trajgen.sample_s": "trajgen.sample",
    "trajgen.search_s": "trajgen.search",
    "keyframe.visibility_s": "keyframe.visibility",
    "instructions.build_s": "instructions.build",
    "vlm.complete_s": "vlm.complete",
    "dataset.filter_s": "dataset.filter",
    "dataset.write_s": "dataset.write",
    "dataset.read_s": "dataset.read",
    "pipeline.validate_s": "pipeline.validate",
    "evaluation.replay_s": "evaluation.replay",
    "keyframe.merge_s": "keyframe.merge",
}

REJECTION_REASONS = ("too_short", "too_long", "damaged_image", "below_tree_altitude")

# Count metrics: metric name -> counter name.
COUNT_METRICS = {
    "trajgen.heap_pops": "trajgen.heappop",
    "trajgen.collision_checks": "trajgen.segment_free_coords",
    "trajgen.search_failures": "trajgen.search_failures",
    "keyframe.sight_lines": "keyframe.traverse_segment",
    "vlm.calls": "vlm.calls",
    "evaluation.replay_checks": "evaluation.segment_free",
    "keyframe.merge_events": "keyframe.merge_events",
    **{f"dataset.rejections.{r}": f"dataset.rejections.{r}" for r in REJECTION_REASONS},
}

EPISODE_SPAN = "pipeline.episode"


@dataclass
class _ThreadState:
    spans: list = field(default_factory=list)  # [name, start, end, parent index]
    stack: list = field(default_factory=list)  # (name, index of nearest recorded span)
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """Spans and counters for one traced pass, kept in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def span(self, name: str, fn, *, record: bool = True, after=None):
        """Wrap ``fn`` in a span; ``after(state, result, args, kwargs)``
        may add counts. An unrecorded span only marks the stack, so that a
        counter can tell which caller it runs under."""

        def wrapper(*args, **kwargs):
            st = self.state()
            parent = st.stack[-1][1] if st.stack else None
            if record:
                index = len(st.spans)
                entry = [name, time.perf_counter(), 0.0, parent]
                st.spans.append(entry)
                st.stack.append((name, index))
            else:
                st.stack.append((name, parent))
            try:
                result = fn(*args, **kwargs)
            finally:
                st.stack.pop()
                if record:
                    entry[2] = time.perf_counter()
            if after is not None:
                after(st, result, args, kwargs)
            return result

        return wrapper

    def counter(self, name: str, fn, *, under: str | None = None):
        """Count calls of ``fn``; with ``under``, only calls made directly
        inside a span of that name."""

        def wrapper(*args, **kwargs):
            st = self.state()
            if under is None or (st.stack and st.stack[-1][0] == under):
                st.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> tuple[Counter, dict[str, list[float]], Counter]:
        """(self time per span name, durations per span name, counts)."""
        self_time: Counter = Counter()
        durations: dict[str, list[float]] = {}
        counts: Counter = Counter()
        for st in self._threads:
            child = [0.0] * len(st.spans)
            for name, start, end, parent in st.spans:
                if parent is not None:
                    child[parent] += end - start
            for (name, start, end, _), covered in zip(st.spans, child):
                self_time[name] += (end - start) - covered
                durations.setdefault(name, []).append(end - start)
            counts.update(st.counts)
        return self_time, durations, counts


def _probes(tr: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every traced layer boundary."""

    def on_episode(st, outcome, args, kwargs):
        if outcome.episode is not None:
            st.counts["pipeline.accepted"] += 1

    def on_sample(st, result, args, kwargs):
        st.counts["trajgen.samples"] += 1

    def on_filter(st, verdict, args, kwargs):
        if not verdict.accepted:
            st.counts[f"dataset.rejections.{verdict.reason}"] += 1

    def on_vlm(st, reply, args, kwargs):
        st.counts["vlm.calls"] += 1

    def search(fn):
        inner = tr.span("trajgen.search", fn)

        def wrapper(*args, **kwargs):
            st = tr.state()
            st.counts["trajgen.searches"] += 1
            try:
                return inner(*args, **kwargs)
            except trajgen.NoPathError:
                st.counts["trajgen.search_failures"] += 1
                raise

        return wrapper

    def merge(fn):
        inner = tr.span("keyframe.merge", fn)

        def wrapper(keyframe_set, threshold, log=None):
            events = log if log is not None else []
            before = len(events)
            result = inner(keyframe_set, threshold, log=events)
            tr.state().counts["keyframe.merge_events"] += len(events) - before
            return result

        return wrapper

    table = [
        (pipeline, "synthesize_scene", lambda f: tr.span("scene.synthesize", f)),
        (pipeline, "load_point_cloud", lambda f: tr.span("scene.load_point_cloud", f)),
        (pipeline, "voxelize", lambda f: tr.span("occupancy.voxelize", f)),
        (pipeline, "bev_project", lambda f: tr.span("occupancy.bev", f)),
        (segmentation, "extract_instances", lambda f: tr.span("segmentation.extract", f)),
        (segmentation, "caption_instance", lambda f: tr.span("segmentation.caption", f)),
        (pipeline, "generate_episode",
         lambda f: tr.span(EPISODE_SPAN, f, after=on_episode)),
        (trajgen, "sample_endpoints",
         lambda f: tr.span("trajgen.sample", f, after=on_sample)),
        (trajgen, "_goal_on_line", lambda f: tr.span("trajgen.goal_line", f, record=False)),
        # sample_endpoints tests its start pose with is_free once per attempt.
        (trajgen, "is_free",
         lambda f: tr.counter("trajgen.sample_attempts", f, under="trajgen.sample")),
        (trajgen, "astar_search", search),
        (trajgen, "heappop", lambda f: tr.counter("trajgen.heappop", f)),
        (trajgen, "segment_free_coords",
         lambda f: tr.counter("trajgen.segment_free_coords", f)),
        (pipeline, "landmark_visibility", lambda f: tr.span("keyframe.visibility", f)),
        (keyframe, "traverse_segment", lambda f: tr.counter("keyframe.traverse_segment", f)),
        (instructions, "build_instruction", lambda f: tr.span("instructions.build", f)),
        (VlmClient, "complete", lambda f: tr.span("vlm.complete", f, after=on_vlm)),
        (dataset, "filter_episode", lambda f: tr.span("dataset.filter", f, after=on_filter)),
        (dataset, "write_episodes", lambda f: tr.span("dataset.write", f)),
        (dataset, "read_episodes", lambda f: tr.span("dataset.read", f)),
        (dataset, "episode_from_dict", lambda f: tr.span("dataset.read", f)),
        (pipeline, "run_validate", lambda f: tr.span("pipeline.validate", f)),
        (evaluation, "replay", lambda f: tr.span("evaluation.replay", f)),
        (evaluation, "segment_free", lambda f: tr.counter("evaluation.segment_free", f)),
        (keyframe, "merge_tokens", merge),
    ]
    return [(owner, attr, make(getattr(owner, attr))) for owner, attr, make in table]


@contextmanager
def traced(tracer: Tracer):
    """Install the probes for the body of the ``with`` block."""
    probes = _probes(tracer)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in probes]
    try:
        for owner, attr, wrapper in probes:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(round(q * len(ordered), 9))) - 1]


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README for each)."""
    self_time, durations, counts = tracer.summary()
    out: dict[str, float] = {}
    for metric, span_name in TIME_METRICS.items():
        out[metric] = self_time[span_name]
    for metric, counter_name in COUNT_METRICS.items():
        out[metric] = counts[counter_name]
    # Every sample_endpoints call that returned used one attempt without retry.
    out["trajgen.sample_retries"] = counts["trajgen.sample_attempts"] - counts["trajgen.samples"]
    searches = counts["trajgen.searches"]
    out["trajgen.accept_ratio"] = counts["pipeline.accepted"] / searches if searches else 0.0
    episodes = durations.get(EPISODE_SPAN, [0.0])
    out["pipeline.episode_s.p50"] = statistics.median(episodes)
    out["pipeline.episode_s.p99"] = _quantile(episodes, 0.99)
    out["pipeline.episode_s.max"] = max(episodes)
    return out


# Counts that must repeat exactly between traced passes of the same inputs.
EXACT_COUNTS = tuple(COUNT_METRICS) + ("trajgen.sample_retries", "trajgen.accept_ratio")


def unit_of(metric: str) -> str:
    if metric == "trajgen.accept_ratio":
        return "ratio"
    return "count" if metric in EXACT_COUNTS else "s"
