"""Reference results the benchmark checks the program's outputs against.

The fold here is written from the paper's update rule, not from
framefuse.bayes, which it must never import: a defect shared by the program
and its own oracle would pass unseen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Frame, Item, TRAFFIC_LABELS

DEGENERACY_EPSILON = 1e-4
RELATIVE_TOLERANCE = 1e-12


def top_label(scores: Dict[str, float]) -> str:
    """Highest score; an exact tie goes to the lexicographically smallest label."""
    best = max(scores.values())
    return min(label for label, value in scores.items() if value == best)


@dataclass
class Expected:
    frame_id: int
    raw_label: str
    raw_scores: Dict[str, float]
    tmav_label: str
    tmav_scores: Dict[str, float]
    degenerate: bool


@dataclass
class ReferenceFold:
    """Expected events per stream, plus the reset counts that explain fold cost."""

    events: Dict[str, List[Expected]]
    tumbling_resets: int
    degenerate_resets: int

    @property
    def degenerate_events(self) -> int:
        return sum(e.degenerate for events in self.events.values() for e in events)


def reference_fold(frames: Sequence[Frame], p_cnn: float, window: int) -> ReferenceFold:
    """Tumbling-window fold with auto-reset, one stream at a time.

    The first frame of a window passes through; each later frame maps every
    label's posterior x to x*s / (x*s + p_cnn). The window restarts after
    `window` frames (a tumbling reset) or, earlier, after an event whose
    posteriors all fell below the degeneracy epsilon (a degenerate reset).
    """
    events: Dict[str, List[Expected]] = {}
    state: Dict[str, Tuple[Optional[Dict[str, float]], int]] = {}
    tumbling = degenerate_resets = 0
    for stream_id, frame_id, scores in frames:
        posterior, steps = state.get(stream_id, (None, 0))
        if steps == 0:
            posterior = dict(scores)
        else:
            posterior = {
                label: (x * scores[label]) / (x * scores[label] + p_cnn)
                for label, x in posterior.items()
            }
        steps += 1
        degenerate = max(posterior.values()) < DEGENERACY_EPSILON
        events.setdefault(stream_id, []).append(Expected(
            frame_id, top_label(scores), scores, top_label(posterior), posterior, degenerate))
        if steps >= window:
            tumbling += 1
            steps = 0
        elif degenerate:
            degenerate_resets += 1
            steps = 0
        state[stream_id] = (posterior, steps)
    return ReferenceFold(events, tumbling, degenerate_resets)


def _close(a: Dict[str, float], b: object) -> bool:
    if not isinstance(b, dict) or a.keys() != b.keys():
        return False
    for label, x in a.items():
        y = b[label]
        if not isinstance(y, (int, float)) or abs(x - y) > RELATIVE_TOLERANCE * max(abs(x), abs(y)):
            return False
    return True


def _matches(expected: Expected, record: dict) -> bool:
    return (
        record.get("raw_label") == expected.raw_label
        and record.get("tmav_label") == expected.tmav_label
        and record.get("degenerate") is expected.degenerate
        and _close(expected.raw_scores, record.get("raw_scores"))
        and _close(expected.tmav_scores, record.get("tmav_scores"))
    )


@dataclass
class StreamCheck:
    """Outcome of checking one predict-stream output against the reference."""

    arrivals: Dict[Tuple[str, int], int]  # (stream_id, frame_id) -> output line index
    missing: int  # frames whose event is absent or wrong
    unexpected: int  # output lines that match no frame of the input


def check_events(lines: Sequence[bytes], reference: ReferenceFold) -> StreamCheck:
    """Check every event line; only each stream's own sequence must be in order.

    Events of different streams may interleave in any order, so a change from
    grouped to input-order output is not a failure.
    """
    cursor: Dict[str, int] = {}
    arrivals: Dict[Tuple[str, int], int] = {}
    unexpected = 0
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
            stream_id, frame_id = record["stream_id"], record["frame_id"]
            expected = reference.events[stream_id][cursor.get(stream_id, 0)]
        except (ValueError, TypeError, KeyError, IndexError):
            unexpected += 1
            continue
        cursor[stream_id] = cursor.get(stream_id, 0) + 1
        if frame_id == expected.frame_id and _matches(expected, record):
            arrivals[(stream_id, frame_id)] = index
    total = sum(len(events) for events in reference.events.values())
    return StreamCheck(arrivals, total - len(arrivals), unexpected)


def expected_history(crossval: Sequence[Item], q: float) -> List[float]:
    """The accuracy history the memorizing fake backend makes certain.

    Cross-validation refs are unseen, so the backend answers its first label
    for each: the accuracy is the share of items with that label. Below q the
    misses are refed once, and then every item is answered right.
    """
    accuracy = sum(label == TRAFFIC_LABELS[0] for _, label in crossval) / len(crossval)
    return [accuracy] if accuracy >= q else [accuracy, 1.0]
