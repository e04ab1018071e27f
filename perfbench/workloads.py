"""Seeded input generators for the benchmark workloads.

Each generator is a pure function of (seed, scale): the same seed gives the
same inputs, byte for byte. Inputs are built before any timed section, and
the program under test only ever sees the generated bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# The paper's traffic classes. tests/fake_backend.py answers with this label
# set too, so the training items draw their labels from it.
TRAFFIC_LABELS = ("Empty", "Fluid", "Heavy", "Jam")
P_CNN = 0.9893
WINDOW = 3
Q = 0.7

Frame = Tuple[str, int, Dict[str, float]]  # (stream_id, frame_id, scores)
Item = Tuple[str, str]  # (image ref, true label)


@dataclass
class StreamInput:
    """Frames in input order, their JSONL encoding, and how they are fed."""

    frames: List[Frame]
    lines: List[bytes]
    rate: Optional[float]  # frames/s of an open loop; None feeds one closed batch

    @property
    def payload_bytes(self) -> int:
        return sum(len(line) for line in self.lines)


@dataclass
class TrainInput:
    offline: List[Item]
    crossval: List[Item]


def encode_frame(frame: Frame) -> bytes:
    stream_id, frame_id, scores = frame
    record = {"stream_id": stream_id, "frame_id": frame_id, "scores": scores}
    return (json.dumps(record) + "\n").encode()


def _stream_input(per_stream: List[List[Frame]], rng: random.Random,
                  rate: Optional[float]) -> StreamInput:
    # Round r carries every stream's r-th frame in a shuffled stream order, so
    # the streams interleave while each one stays in frame_id order.
    frames: List[Frame] = []
    for r in range(max(len(stream) for stream in per_stream)):
        batch = [stream[r] for stream in per_stream if r < len(stream)]
        rng.shuffle(batch)
        frames.extend(batch)
    return StreamInput(frames, [encode_frame(f) for f in frames], rate)


def _frame_ids(rng: random.Random, count: int) -> List[int]:
    """Strictly increasing ids from a random start, with occasional gaps."""
    ids, frame_id = [], rng.randrange(1000)
    for _ in range(count):
        ids.append(frame_id)
        frame_id += 1 if rng.random() < 0.9 else 2
    return ids


def _normalised(values: List[float], total: float = 1.0) -> List[float]:
    scale = total / sum(values)
    return [v * scale for v in values]


def _traffic_scores(rng: random.Random, tie_share: float) -> Dict[str, float]:
    values = [rng.expovariate(1.0) for _ in TRAFFIC_LABELS]
    if rng.random() < tie_share:
        # An exact top-score tie: the lexicographic tie-break decides raw_label.
        ranked = sorted(range(len(values)), key=values.__getitem__, reverse=True)
        values[ranked[1]] = values[ranked[0]]
    return dict(zip(TRAFFIC_LABELS, _normalised(values)))


def _traffic_streams(rng: random.Random, streams: int, per_stream: int,
                     tie_share: float) -> List[List[Frame]]:
    return [
        [(f"cam-{s:04d}", frame_id, _traffic_scores(rng, tie_share))
         for frame_id in _frame_ids(rng, per_stream)]
        for s in range(streams)
    ]


def _frames_per_stream(full: int, scale: float) -> int:
    return max(2, round(full * scale))


def many_streams(seed: int, scale: float = 1.0) -> StreamInput:
    """4 labels, 1000 interleaved streams, 2% exact top-score ties, closed batch."""
    rng = random.Random(f"many_streams/{seed}")
    per_stream = _traffic_streams(rng, 1000, _frames_per_stream(20, scale), 0.02)
    return _stream_input(per_stream, rng, rate=None)


def wide_labels(seed: int, scale: float = 1.0) -> StreamInput:
    """1000 labels, 10 streams: half peaked on one label, half flat.

    A peaked stream puts 0.9 on one label, so its chain survives the whole
    window. A flat stream spreads its mass evenly, so every posterior falls
    below the degeneracy epsilon on the second frame and the chain resets
    early, which shifts that stream's tumbling grid.
    """
    rng = random.Random(f"wide_labels/{seed}")
    labels = [f"c{i:03d}" for i in range(1000)]
    count = _frames_per_stream(20, scale)
    per_stream = []
    for s in range(10):
        peak = rng.randrange(len(labels)) if s % 2 == 0 else None
        frames = []
        for frame_id in _frame_ids(rng, count):
            if peak is None:
                values = _normalised([rng.uniform(0.5, 1.5) for _ in labels])
            else:
                values = _normalised([rng.random() + 1e-3 for _ in labels], 0.1)
                values[peak] = 0.9
            frames.append((f"wide-{s:02d}", frame_id, dict(zip(labels, values))))
        per_stream.append(frames)
    return _stream_input(per_stream, rng, rate=None)


LIVE_RATE = 2000.0  # frames/s, about a tenth of measured 4-label throughput
LIVE_SECONDS = 2.0


def live_paced(seed: int, scale: float = 1.0) -> StreamInput:
    """4 labels, 100 streams, an open loop at LIVE_RATE for LIVE_SECONDS."""
    rng = random.Random(f"live_paced/{seed}")
    streams = 100
    per_stream = _frames_per_stream(LIVE_RATE * LIVE_SECONDS / streams, scale)
    return _stream_input(_traffic_streams(rng, streams, per_stream, 0.02), rng,
                         rate=LIVE_RATE)


def training_items(seed: int, scale: float = 1.0) -> TrainInput:
    """Offline and cross-validation items with disjoint refs, for the traced run.

    The fake backend memorizes what it is trained on and answers the first
    label for a ref it has not seen, so the cross-validation accuracy is the
    share of "Empty" items, one refeed of the misses is due, and the retrain
    round then scores 1.0.
    """
    rng = random.Random(f"training/{seed}")

    def manifest(prefix: str, count: int) -> List[Item]:
        return [(f"{prefix}/{i:06d}-{rng.getrandbits(32):08x}.jpg", rng.choice(TRAFFIC_LABELS))
                for i in range(count)]

    return TrainInput(manifest("offline", max(1, round(2000 * scale))),
                      manifest("crossval", max(4, round(4000 * scale))))


WORKLOADS = {
    "many_streams": many_streams,
    "wide_labels": wide_labels,
    "live_paced": live_paced,
}
