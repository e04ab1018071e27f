"""In-process per-layer timing for the traced run.

Spans are taken from the benchmark's own code around calls into each
module's public functions; nothing inside the program is changed. Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import shlex
import statistics
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from workloads import P_CNN, Q, WINDOW, StreamInput, TrainInput

now_ns = time.perf_counter_ns


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Spans:
    """Named spans as compact (start, end) arrays; each name has one parent."""

    def __init__(self) -> None:
        self.starts: Dict[str, array] = defaultdict(lambda: array("q"))
        self.ends: Dict[str, array] = defaultdict(lambda: array("q"))
        self.parents: Dict[str, str] = {}

    def add(self, name: str, parent: str, start: int, end: int) -> None:
        self.parents[name] = parent
        self.starts[name].append(start)
        self.ends[name].append(end)

    def durations_ns(self, name: str, since: int = 0) -> List[int]:
        return [e - s for s, e in zip(self.starts[name], self.ends[name]) if s >= since]

    def total_s(self, name: str, since: int = 0) -> float:
        return sum(self.durations_ns(name, since)) / 1e9

    def write(self, path: Path, header: dict) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for name in self.starts:
                handle.write(json.dumps({
                    "name": name,
                    "parent": self.parents[name],
                    "start_ns": self.starts[name].tolist(),
                    "end_ns": self.ends[name].tolist(),
                }) + "\n")


def _stream_config(profile, stream_id: str):
    from framefuse import pipeline

    return pipeline.StreamConfig(profile=profile, capacity_n=WINDOW, auto_reset=True,
                                 stream_id=stream_id)


@dataclass
class StreamProfile:
    untraced_s: float  # parse + fold + serialize through the same calls the CLI makes
    traced_s: float  # the same work with one span per call
    metrics: Dict[str, float]
    output: List[bytes]  # the untraced pass's JSONL, for the correctness check


def profile_stream(inp: StreamInput, spans: Spans) -> StreamProfile:
    from framefuse import bayes, pipeline

    profile = bayes.ClassifierProfile(model_name="bench", p_cnn=P_CNN, q_threshold=Q)
    text = [line.decode() for line in inp.lines]

    t0 = time.perf_counter()
    streams = pipeline.read_frame_streams(text)
    events = []
    for stream_id, frames in streams.items():
        events.extend(pipeline.process_stream(frames, _stream_config(profile, stream_id)))
    output = pipeline.events_to_jsonl(events)
    untraced = time.perf_counter() - t0
    del streams, events

    round_start = now_ns()
    grouped: Dict[str, list] = {}
    for number, line in enumerate(text, start=1):
        a = now_ns()
        stream_id, dist = pipeline.parse_frame_line(line, number)
        spans.add("pipeline.parse_frame_line", "traced", a, now_ns())
        grouped.setdefault(stream_id, []).append(dist)
    per_stream = []
    for stream_id, frames in grouped.items():
        a = now_ns()
        stream_events = pipeline.process_stream(frames, _stream_config(profile, stream_id))
        spans.add("pipeline.process_stream", "traced", a, now_ns())
        per_stream.append(stream_events)
    serialized = 0
    for stream_events in per_stream:
        a = now_ns()
        chunk = pipeline.events_to_jsonl(stream_events)
        spans.add("pipeline.events_to_jsonl", "traced", a, now_ns())
        serialized += len(chunk.encode())
    traced = (now_ns() - round_start) / 1e9
    event_count = sum(len(e) for e in per_stream)
    del per_stream

    label_updates = 0
    for frames in grouped.values():
        state = bayes.PosteriorState.initial()
        for dist in frames:
            a = now_ns()
            state = bayes.chain_update(state, dist, profile)
            b = now_ns()
            bayes.argmax_label(state.posteriors)
            spans.add("bayes.chain_update", "bayes", a, b)
            spans.add("bayes.argmax_label", "bayes", b, now_ns())
            label_updates += len(dist.scores)
            if state.degenerate or state.steps_applied >= WINDOW:
                state = bayes.PosteriorState.initial()

    frames_in = len(inp.lines)
    parse_s = spans.total_s("pipeline.parse_frame_line", round_start)
    serialize_s = spans.total_s("pipeline.events_to_jsonl", round_start)
    chain_ns = sum(spans.durations_ns("bayes.chain_update", round_start))
    metrics = {
        "pipeline.parse_fps": frames_in / parse_s,
        "pipeline.parse_mb_per_s": inp.payload_bytes / 1e6 / parse_s,
        "pipeline.fold_fps": frames_in / spans.total_s("pipeline.process_stream", round_start),
        "pipeline.serialize_fps": event_count / serialize_s,
        "pipeline.serialize_mb_per_s": serialized / 1e6 / serialize_s,
        "bayes.chain_update_fps": frames_in / (chain_ns / 1e9),
        "bayes.ns_per_label_update": chain_ns / label_updates,
        "bayes.argmax_per_s": frames_in / spans.total_s("bayes.argmax_label", round_start),
    }
    return StreamProfile(untraced, traced, metrics, output.encode().splitlines(keepends=True))


class TimedBackend:
    """A ClassifierBackend proxy that spans every call, tagged with the session phase."""

    def __init__(self, inner, session, spans: Spans):
        self.inner, self.session, self.spans = inner, session, spans
        self.calls: List[tuple] = []  # (op, phase, start_ns, item count)
        self.errors = 0

    def _timed(self, op: str, items: int, call, *args):
        from framefuse.backends import BackendError

        phase = self.session.phase.value
        a = now_ns()
        try:
            return call(*args)
        except BackendError:
            self.errors += 1
            raise
        finally:
            self.spans.add(f"backends.{op}", f"training.{phase}", a, now_ns())
            self.calls.append((op, phase, a, items))

    def train(self, items):
        return self._timed("train", len(items), self.inner.train, items)

    def predict(self, ref):
        return self._timed("predict", 1, self.inner.predict, ref)


def backend_command(root: Path) -> str:
    return shlex.join([sys.executable, str(root / "tests" / "fake_backend.py")])


@dataclass
class TrainProfile:
    metrics: Dict[str, float]
    accuracy_history: List[float]


def profile_train(root: Path, inp: TrainInput, spans: Spans) -> TrainProfile:
    """One training session against the fake backend, through the timing proxy."""
    from framefuse import training
    from framefuse.backends import ExternalBackend

    session = training.TrainingSession(offline_set=list(inp.offline), crossval_set=list(inp.crossval),
                                       q_threshold=Q, max_retrain_rounds=1)
    backend = ExternalBackend(backend_command(root))
    proxy = TimedBackend(backend, session, spans)
    try:
        start = now_ns()
        training.run_session(session, proxy)
        end = now_ns()
    finally:
        backend.close()
    spans.add("training.run_session", "bench", start, end)

    phase_s: Dict[str, float] = defaultdict(float)
    phase, since = "offline", start
    for _, call_phase, at, _ in proxy.calls:
        if call_phase != phase:
            phase_s[phase] += (at - since) / 1e9
            phase, since = call_phase, at
    phase_s[phase] += (end - since) / 1e9
    predicts = [d / 1e3 for d in spans.durations_ns("backends.predict", start)]
    refeed = sum(n for op, ph, _, n in proxy.calls if op == "train" and ph == "retrain")
    metrics = {
        "backends.predict_per_s": len(predicts) / (sum(predicts) / 1e6),
        "backends.predict_p50_us": statistics.median(predicts),
        "backends.predict_p99_us": percentile(predicts, 0.99),
        "backends.train_s": spans.total_s("backends.train", start),
        "backends.errors": proxy.errors,
        "training.offline_s": phase_s["offline"],
        "training.validation_s": phase_s["online_validation"],
        "training.retrain_s": phase_s["retrain"],
        "training.refeed_share": refeed / len(inp.crossval),
        "training.retrain_rounds": session.retrain_rounds_used,
    }
    return TrainProfile(metrics, session.accuracy_history)
