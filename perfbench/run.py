"""framefuse benchmark: one workload per run, one JSON result as the last line.

    python3 perfbench/run.py --workload many_streams --seed 1 --seconds 30 --trace 0

Run it from the root of a framefuse checkout; it starts the CLI from that
checkout's own `src/`. With --trace 0 it drives `framefuse predict-stream` as
a child process and reports the end-to-end metrics. With --trace 1 it reports
the per-layer metrics, timed around calls into each module from this process.
Every output is checked against an independent reference; a missing or wrong
one counts as a failed operation. See perfbench/README.md for each metric.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import child
import layers
import reference
from layers import percentile
from workloads import (P_CNN, Q, WINDOW, WORKLOADS, StreamInput, encode_frame, live_paced,
                       training_items)

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
# Set-up runs before measuring; one more precedes every SETUP_EVERY-th
# measured run, so the set-up samples span the same stretch of time.
SETUP_REPS = 3
SETUP_EVERY = 3
# The traced run times the open-loop generator on a quarter-size live_paced
# input when the workload itself is a closed batch.
PACED_PROBE_SCALE = 0.25

# name -> (unit, better); BENCHMARK.json lists the same, and smoke.py checks it.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "frames_per_s": ("1/s", "higher"),
    "first_event_s": ("s", "lower"),
    "event_latency_p50_ms": ("ms", "lower"),
    "event_latency_p99_ms": ("ms", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}
PER_LAYER = {
    "pipeline.parse_fps": ("1/s", "higher"),
    "pipeline.parse_mb_per_s": ("MB/s", "higher"),
    "pipeline.fold_fps": ("1/s", "higher"),
    "pipeline.serialize_fps": ("1/s", "higher"),
    "pipeline.serialize_mb_per_s": ("MB/s", "higher"),
    "pipeline.streams": ("count", "higher"),
    "pipeline.degenerate_share": ("share", "lower"),
    "pipeline.tumbling_resets": ("count", "lower"),
    "pipeline.degenerate_resets": ("count", "lower"),
    "bayes.chain_update_fps": ("1/s", "higher"),
    "bayes.ns_per_label_update": ("ns", "lower"),
    "bayes.argmax_per_s": ("1/s", "higher"),
    "cli.self_s": ("s", "lower"),
    "backends.predict_per_s": ("1/s", "higher"),
    "backends.predict_p50_us": ("us", "lower"),
    "backends.predict_p99_us": ("us", "lower"),
    "backends.train_s": ("s", "lower"),
    "backends.errors": ("count", "lower"),
    "training.offline_s": ("s", "lower"),
    "training.validation_s": ("s", "lower"),
    "training.retrain_s": ("s", "lower"),
    "training.refeed_share": ("share", "lower"),
    "training.retrain_rounds": ("count", "lower"),
    "bench.gen_lag_p99_ms": ("ms", "lower"),
    "bench.trace_overhead_share": ("share", "lower"),
}

STREAM_ARGS = ("predict-stream", "--p-cnn", repr(P_CNN), "--window", str(WINDOW),
               "--auto-reset", "--format", "jsonl")


@dataclass
class Tally:
    """Operations attempted and failed: frames, plus the traced training session."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and why:
            print(f"failure: {why}", file=sys.stderr)


def best(values: Sequence[float], better: str) -> float:
    """The best of a run's repetitions: the lowest time or the highest rate.

    Contention from other work on a shared machine only ever slows a
    repetition, so the best one tracks the program's own cost much more
    steadily than the median does; README.md gives the measurement.
    """
    if not values:
        return 0.0
    return max(values) if better == "higher" else min(values)


def summarize(samples: Dict[str, List[float]], table: Dict[str, Tuple[str, str]]) -> Dict[str, float]:
    return {name: best(samples.get(name, []), better) for name, (_, better) in table.items()}


class StreamCase:
    """One stream input, its reference events, and the CLI runs over it."""

    def __init__(self, program: child.Program, inp: StreamInput, tally: Tally, work: Path):
        self.program, self.inp, self.tally, self.work = program, inp, tally, work
        self.reference = reference.reference_fold(inp.frames, P_CNN, WINDOW)
        first = inp.frames[0]
        self.setup_input = StreamInput([first], [encode_frame(first)], None)
        self.setup_reference = reference.reference_fold([first], P_CNN, WINDOW)
        self.position = {(s, f): i for i, (s, f, _) in enumerate(inp.frames)}
        self._verified: Dict[int, Tuple[bytes, reference.StreamCheck]] = {}

    def check(self, lines: List[bytes], ref: reference.ReferenceFold, frames: int,
              source: str) -> reference.StreamCheck:
        # The same input gives the same bytes; a repeat of output already
        # checked against this reference needs no second check.
        output = b"".join(lines)
        seen = self._verified.get(id(ref))
        if seen and seen[0] == output:
            check = seen[1]
        else:
            check = reference.check_events(lines, ref)
            self._verified[id(ref)] = (output, check)
        self.tally.add(frames + check.unexpected, check.missing + check.unexpected,
                       f"{source}: {check.missing} events missing or wrong, "
                       f"{check.unexpected} unexpected")
        return check

    def run(self, due: Optional[List[float]] = None, setup: bool = False):
        inp, ref = (self.setup_input, self.setup_reference) if setup else (self.inp, self.reference)
        result = child.run(self.program, STREAM_ARGS, self.work, inp.lines, due)
        if result.exit_code != 0 or result.timed_out:
            self.tally.add(len(inp.frames), len(inp.frames),
                           f"predict-stream exit {result.exit_code}: {result.stderr}")
            return result, None
        return result, self.check(result.lines, ref, len(inp.frames), "predict-stream")

    def setup(self) -> float:
        return self.run(setup=True)[0].wall_s

    def paced_due(self, lead_s: float) -> List[float]:
        """Open-loop send times; the schedule starts one set-up time after spawn,
        so start-up, which setup_s measures, is not counted again as latency."""
        return [lead_s + i / self.inp.rate for i in range(len(self.inp.frames))]

    def sample(self, samples: Dict[str, List[float]], lead_s: float) -> float:
        """One measured run, fed as the workload says; returns its wall time."""
        due = self.paced_due(lead_s) if self.inp.rate else None
        result, check = self.run(due)
        samples["frames_per_s"].append(len(self.inp.frames) / result.wall_s)
        samples["peak_rss_mib"].append(result.peak_rss_mib)
        if check is not None and check.arrivals:
            sent = due or result.send_s
            latencies = [result.arrival_s[line] - sent[self.position[key]]
                         for key, line in check.arrivals.items()]
            samples["first_event_s"].append(result.first_line_s)
            samples["event_latency_p50_ms"].append(percentile(latencies, 0.5) * 1e3)
            samples["event_latency_p99_ms"].append(percentile(latencies, 0.99) * 1e3)
        return result.wall_s


def measure(case: StreamCase, seconds: float) -> Dict[str, float]:
    case.setup()  # warm-up: bytecode caches and page cache
    samples: Dict[str, List[float]] = defaultdict(list)
    samples["setup_s"] = [case.setup() for _ in range(SETUP_REPS)]
    lead = min(samples["setup_s"])
    measured, runs = 0.0, 0
    while measured < seconds:
        if runs % SETUP_EVERY == 0:
            samples["setup_s"].append(case.setup())
        measured += case.sample(samples, lead)
        runs += 1
    return summarize(samples, END_TO_END)


def trace(case: StreamCase, seed: int, scale: float, seconds: float,
          spans: layers.Spans) -> Dict[str, float]:
    """Per-layer metrics. The stream layers are timed in rounds for `seconds`;
    each round also takes one set-up run and one closed-batch CLI run of the
    same input, for cli.self_s."""
    tally = case.tally
    case.setup()  # warm-up: bytecode caches and page cache
    samples: Dict[str, List[float]] = defaultdict(list)
    walls, setups, untraced, traced = [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not walls:
        setups.append(case.setup())
        walls.append(case.run()[0].wall_s)
        profile = layers.profile_stream(case.inp, spans)
        case.check(profile.output, case.reference, len(case.inp.frames), "in-process pipeline")
        for name, value in profile.metrics.items():
            samples[name].append(value)
        untraced.append(profile.untraced_s)
        traced.append(profile.traced_s)

    # backends and training: one in-process session against the fake backend.
    items = training_items(seed, scale)
    expected = reference.expected_history(items.crossval, Q)
    session = layers.profile_train(ROOT, items, spans)
    tally.add(1, int(session.accuracy_history != expected),
              f"training accuracy history {session.accuracy_history} != {expected}")
    for name, value in session.metrics.items():
        samples[name].append(value)

    ref = case.reference
    samples.update({
        "pipeline.streams": [len(ref.events)],
        "pipeline.degenerate_share": [ref.degenerate_events / len(case.inp.frames)],
        "pipeline.tumbling_resets": [ref.tumbling_resets],
        "pipeline.degenerate_resets": [ref.degenerate_resets],
        # CLI wall less start-up and the parse, fold and serialize calls it makes.
        "cli.self_s": [min(walls) - min(setups) - min(untraced)],
        "bench.trace_overhead_share": [min(traced) / min(untraced) - 1.0],
    })

    paced = case if case.inp.rate else StreamCase(
        case.program, live_paced(seed, scale * PACED_PROBE_SCALE), tally, case.work)
    due = paced.paced_due(min(setups) if paced is case else paced.setup())
    result, _ = paced.run(due)
    samples["bench.gen_lag_p99_ms"] = [
        percentile([(sent - want) * 1e3 for sent, want in zip(result.send_s, due)], 0.99)]
    return summarize(samples, PER_LAYER)


def environment() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the smoke check")
    args = parser.parse_args(argv)
    try:
        program = child.Program(ROOT)
    except child.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    env = environment()
    try:
        case = StreamCase(program, WORKLOADS[args.workload](args.seed, args.scale), tally, work)
        if args.trace:
            sys.path.insert(0, str(ROOT / "src"))
            import framefuse

            if not Path(framefuse.__file__).resolve().is_relative_to(ROOT / "src"):
                print(f"error: imported framefuse from {framefuse.__file__}", file=sys.stderr)
                return 2
            spans = layers.Spans()
            metrics = trace(case, args.seed, args.scale, args.seconds, spans)
            spans.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl",
                        dict(env, workload=args.workload, seed=args.seed))
            units = PER_LAYER
        else:
            metrics = measure(case, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (unit, _) in units.items():
        print(f"{args.workload:15} {name:28} {metrics[name]:>16.6g} {unit}")
    print(f"{args.workload:15} {'failed_share':28} {tally.failed / max(tally.attempted, 1):>16.6g} share"
          f"  ({tally.failed} of {tally.attempted} operations)")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
