#!/usr/bin/env python3
"""uavnav benchmark: generate throughput, read-side command latency, and
per-layer traces on the built-in demo scene with the mock VLM.

Run from the repository root:

    python3 perfbench/run.py --workload gen_desk --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The exit code is 0 when every output check passed and 1 when one failed;
without the uavnav sources it exits non-zero before printing a result.
See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
READ_COMMANDS = ("validate", "eval", "keyframe")

wl = None  # the workloads module, imported once the sources are on the path

END_TO_END_UNITS = {
    "episodes_per_s": "episodes/s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "validate_s": "s",
    "eval_s": "s",
    "keyframe_s": "s",
    "setup_s": "s",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and the fewest rounds, to test the plumbing")
    return p.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; the benchmark always
    measures the sources next to it, never an installed copy."""
    src = ROOT / "src"
    if not (src / "uavnav" / "__init__.py").is_file():
        sys.exit(f"benchmark: no uavnav sources under {src}")
    sys.path.insert(0, str(src))


class Run:
    """One invocation: workload, tallies, and the output digests that
    every later round must repeat."""

    def __init__(self, workload, seed: int, seconds: float, smoke: bool, work: Path):
        self.workload = workload
        self.sizes = workload.smoke if smoke else workload.sizes
        self.seed, self.seconds, self.smoke, self.work = seed, seconds, smoke, work
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, object] = {}

    def same_as_before(self, key: str, value) -> None:
        first = self.reference.setdefault(key, value)
        wl.check(value == first, f"{key} differs between rounds: {value!r} vs {first!r}")

    def set_up(self):
        return wl.set_up(self.workload, self.work, self.seed, self.smoke)

    def generate_batch(self, inp) -> float:
        """One run_generate call; returns accepted episodes per second."""
        out = self.work / "batch.jsonl"
        report, wall = wl.generate(inp.cfg, inp.bundle, self.sizes.batch, out)
        self.attempted += report.requested
        self.failed += report.failed_episodes
        if "jsonl_sha256" not in self.reference:
            # Later batches must be byte-identical, so one full check suffices.
            # It runs in the first pass, which is never traced.
            wl.check_batch(inp, report, out)
        self.same_as_before("jsonl_sha256", wl.sha256_file(out))
        return report.accepted / wall

    def read_round(self, inp, before_each=None) -> dict[str, float]:
        """One round of validate, eval and keyframe; wall seconds of each."""
        self.attempted += len(READ_COMMANDS)
        result = wl.read_round(inp, before_each)
        self.failed += result.failed
        self.same_as_before("eval_summary", result.eval_summary)
        self.same_as_before("observation_sha256", result.observation_sha256)
        return result.walls


def _settle() -> float:
    """Collect garbage left by the previous round, then start the clock,
    so no round pays for another's collections."""
    gc.collect()
    return time.perf_counter()


def measure(run: Run) -> dict[str, float]:
    """End-to-end metrics, tracing off.

    The measured phase starts with the workload's ``first_reads`` read
    rounds. Then generate batches and read rounds interleave, generation
    taking the workload's ``generate_share`` of the busy time, so that both
    sample the whole run: on a shared machine the speed of identical work
    drifts over tens of seconds. Rounds go on while the next one, as long
    as the last of its kind, fits in ``run.seconds``.

    The host speed kernels run before every set-up and read-side command,
    and the set-up and read-side times are reported at the reference host
    speed (see hostspeed.py). The generate rate is reported as timed: it
    does not follow the kernels. The figures as timed are printed before
    the result.
    """
    from hostspeed import HostSpeed

    share = run.workload.generate_share
    host = HostSpeed()
    setups = []
    for _ in range(SETUP_REPS):
        host.probe()
        started = _settle()
        inp = run.set_up()
        setups.append(time.perf_counter() - started)
    deadline = time.perf_counter() + run.seconds
    rates: list[float] = []
    walls: dict[str, list[float]] = {c: [] for c in READ_COMMANDS}
    busy = {"generate": 0.0, "read": 0.0}
    last = dict(busy)

    def next_kind() -> str:
        reads = len(walls["validate"])
        if reads >= run.workload.first_reads and (
                not rates or busy["generate"] * (1 - share) <= busy["read"] * share):
            return "generate"
        return "read"

    while True:
        kind = next_kind()
        started = time.perf_counter()
        if kind == "generate":
            rates.append(run.generate_batch(inp))
        else:
            for name, wall in run.read_round(inp, host.probe).items():
                walls[name].append(wall)
        last[kind] = time.perf_counter() - started
        busy[kind] += last[kind]
        if rates and time.perf_counter() + last[next_kind()] > deadline:
            break
    timed = {
        "episodes_per_s": statistics.median(rates),
        **{f"{c}_s": statistics.median(walls[c]) for c in READ_COMMANDS},
        "setup_s": statistics.median(setups),
    }
    factor = host.factor()
    print(f"rounds generate {len(rates)} read {len(walls['validate'])}")
    print(f"host_factor {factor!r}")
    for name, median in host.medians().items():
        print(f"host_kernel {name} {median!r} s")
    for name, value in timed.items():
        print(f"timed {name} {value!r} {END_TO_END_UNITS[name]}")
    peak_kib = sum(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "episodes_per_s": timed["episodes_per_s"],
        "ok_share": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": peak_kib / 1024.0,
        **{f"{c}_s": timed[f"{c}_s"] / factor for c in READ_COMMANDS},
        "setup_s": timed["setup_s"] / factor,
    }


def trace(run: Run) -> dict[str, float]:
    """Per-layer metrics, median over traced passes. A pass is one set-up,
    one generate batch and one read-side round.
    Untraced passes run between them; the difference is the overhead."""
    from tracing import EXACT_COUNTS, Tracer, pass_metrics, traced

    def one_pass(tracer: Tracer | None) -> float:
        started = _settle()
        with traced(tracer) if tracer else contextlib.nullcontext():
            inp = run.set_up()
            run.generate_batch(inp)
            run.read_round(inp)
        return time.perf_counter() - started

    start = time.perf_counter()
    plain, traced_walls, layers = [], [], []

    def traced_pass() -> None:
        tracer = Tracer()
        traced_walls.append(one_pass(tracer))
        layers.append(pass_metrics(tracer))

    plain.append(one_pass(None))
    traced_pass()
    traced_pass()
    while not run.smoke and (time.perf_counter() + plain[-1] + traced_walls[-1]
                             <= start + run.seconds):
        plain.append(one_pass(None))
        traced_pass()
    for metrics in layers[1:]:
        for name in EXACT_COUNTS:
            wl.check(metrics[name] == layers[0][name],
                     f"{name} differs between traced passes: "
                     f"{metrics[name]} vs {layers[0][name]}")
    out = {name: value if name in EXACT_COUNTS else statistics.median(m[name] for m in layers)
           for name, value in layers[0].items()}
    out["trace.pass_s"] = statistics.median(plain)
    out["trace.overhead_s"] = statistics.median(traced_walls) - out["trace.pass_s"]
    return out


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    global wl
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {sorted(wl.WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(wl.WORKLOADS[args.workload], args.seed, args.seconds, args.smoke, work)
    metrics: dict[str, float] = {}
    correct = True
    try:
        if args.trace:
            from tracing import unit_of
            metrics = trace(run)
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics = measure(run)
            units = END_TO_END_UNITS
    except wl.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        run.failed = max(run.failed, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            work.parent.rmdir()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print(f"config {json.dumps(run.workload.config, sort_keys=True)}")
    for key, value in run.reference.items():
        print(f"{key} {json.dumps(value, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
