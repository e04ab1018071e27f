"""Streaming frame pipeline: a running Bayes fold per stream over a tumbling window.

Each incoming frame produces one event carrying both the raw per-frame
verdict and the window-integrated verdict. JSON-lines in, JSON-lines or CSV
out.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .bayes import (
    DEGENERACY_EPSILON,
    MAX_RECOMMENDED_WINDOW,
    CategoryDistribution,
    ClassifierProfile,
    LabelSetMismatchError,
    chained_posteriors,
    check_scores,
)

DEFAULT_WINDOW = 3
CSV_HEADER = ("stream_id", "frame_id", "raw_label", "tmav_label", "degenerate")
_scan_once = json.JSONDecoder().scan_once  # (value, end) of the JSON value at an index


class OutOfOrderFrameError(ValueError):
    """frame_id not strictly greater than the previous frame for the stream."""


class StreamSchemaError(ValueError):
    """Malformed frame record; carries the 1-based input line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class _LabelSet:
    """A score map's labels in sorted order; ``values`` takes the map to its
    value tuple in that order. ``escaped`` holds the labels as json.dumps
    escapes them, and ``template`` writes a value tuple as json.dumps writes
    the sorted map, each value through its own ``__repr__`` (``%r``).
    """

    __slots__ = ("labels", "escaped", "values", "template")

    def __init__(self, labels: tuple[str, ...]):
        self.labels = tuple(sorted(labels))
        self.escaped = tuple(map(encode_basestring_ascii, self.labels))
        get = operator.itemgetter(*self.labels)
        self.values = get if len(labels) > 1 else lambda scores: (get(scores),)
        fields = ", ".join(f"{label.replace('%', '%%')}: %r" for label in self.escaped)
        self.template = f"{{{fields}}}"


# Keyed by a map's labels in its own order; bounded: fuzzed input brings arbitrary label sets.
_label_set = lru_cache(maxsize=256)(_LabelSet)


class StreamEvent(namedtuple("StreamEvent", (
        "frame_id", "raw_index", "raw_values", "tmav_index", "tmav_values", "degenerate",
        "wall_time", "stream_id", "stream_json", "label_set"))):
    """Per-frame output: the classifier's verdict and the temporal verdict.

    Scores are value tuples in ``label_set``'s order, verdicts indices into it,
    ``stream_json`` the stream id as JSON; labels and score maps are built when
    read. On a window's first frame ``tmav_values`` is ``raw_values``.
    """

    __slots__ = ()
    raw_label = property(lambda self: self.label_set.labels[self.raw_index])
    tmav_label = property(lambda self: self.label_set.labels[self.tmav_index])
    raw_scores = property(lambda self: dict(zip(self.label_set.labels, self.raw_values)))
    tmav_scores = property(lambda self: dict(zip(self.label_set.labels, self.tmav_values)))


class StreamConfig:
    """How every stream folds: the classifier, the window, and the frame interval.

    A window longer than MAX_RECOMMENDED_WINDOW warns once, here.
    """

    __slots__ = ("profile", "capacity_n", "auto_reset", "frame_interval_seconds", "stream_id")

    def __init__(self, profile: ClassifierProfile, capacity_n: int = DEFAULT_WINDOW,
                 auto_reset: bool = True, frame_interval_seconds: float | None = None,
                 stream_id: str = ""):
        if capacity_n < 0:
            raise ValueError(f"capacity_n (the window) must be >= 0, got {capacity_n}")
        if capacity_n > MAX_RECOMMENDED_WINDOW:
            warnings.warn(
                f"frame window of {capacity_n} exceeds the recommended maximum of "
                f"{MAX_RECOMMENDED_WINDOW}; chained posteriors are likely to collapse",
                stacklevel=2,
            )
        interval = frame_interval_seconds
        if interval is not None and not 0.0 < interval < math.inf:
            raise ValueError(f"frame interval must be finite and > 0, got {interval!r}")
        self.profile = profile
        self.capacity_n = capacity_n
        self.auto_reset = auto_reset
        self.frame_interval_seconds = frame_interval_seconds
        self.stream_id = stream_id


class StreamFold:
    """One stream's running Bayes fold.

    With auto_reset on, the chain restarts after every N chained frames and
    after any degenerate event; with it off, the chain runs continuously.
    The frame_id watermark survives a restart.
    """

    __slots__ = ("config", "stream_id", "stream_json", "label_set", "chain", "steps",
                 "last_frame_id", "frames_seen")

    def __init__(self, config: StreamConfig, stream_id: str = ""):
        self.config = config
        self.stream_id = stream_id
        self.stream_json = encode_basestring_ascii(stream_id)
        self.label_set: _LabelSet | None = None  # the chain's labels and, in their order,
        self.chain: tuple[float, ...] = ()  # its values; both read only once steps > 0
        self.steps = 0  # frames chained since the window started
        self.last_frame_id: int | None = None
        self.frames_seen = 0

    def fold(self, frame_id: int, scores: Mapping[str, float]) -> StreamEvent:
        """Chain one frame whose scores passed ``check_scores``. Each argmax is the
        first maximum in sorted-label order: a tie goes to the label that sorts first."""
        config = self.config
        if self.last_frame_id is not None and frame_id <= self.last_frame_id:
            raise OutOfOrderFrameError(
                f"stream {self.stream_id!r}: frame_id {frame_id} not after {self.last_frame_id}"
            )
        label_set = _label_set(tuple(scores))
        raw = label_set.values(scores)
        best = max(raw)
        raw_index = raw.index(best)
        if self.steps:
            if label_set is not self.label_set and label_set.labels != self.label_set.labels:
                raise LabelSetMismatchError(frame_id, label_set.labels, self.label_set.labels)
            tmav = chained_posteriors(self.chain, raw, config.profile.p_cnn)
            best = max(tmav)
            tmav_index = tmav.index(best)
        else:
            tmav, tmav_index = raw, raw_index
        steps = self.steps + 1
        degenerate = best < DEGENERACY_EPSILON
        interval = config.frame_interval_seconds
        event = tuple.__new__(StreamEvent, (
            frame_id, raw_index, raw, tmav_index, tmav, degenerate,
            None if interval is None else interval * self.frames_seen,
            self.stream_id, self.stream_json, label_set))
        if config.auto_reset and (
            degenerate or (config.capacity_n and steps >= config.capacity_n)
        ):
            steps = 0
        self.label_set = label_set
        self.chain = tmav
        self.steps = steps
        self.last_frame_id = frame_id
        self.frames_seen += 1
        return event


def process_stream(
    frames: Iterable[CategoryDistribution],
    config: StreamConfig,
) -> list[StreamEvent]:
    """Run one stream's frames through a fresh fold named ``config.stream_id``."""
    fold = StreamFold(config, config.stream_id)
    return [fold.fold(frame.frame_id, frame.scores) for frame in frames]


def _load_record(line: str, line_number: int) -> tuple[str, int, dict]:
    """One JSONL record -> (stream_id, frame_id, scores), scores not yet checked.
    A line the scanner does not parse whole goes to json.loads, which parses
    it (whitespace around the value) or names its fault."""
    try:
        record, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):  # no value, bad JSON, nested too deep
        end = None
    if end != len(line):
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise StreamSchemaError(line_number, f"invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise StreamSchemaError(line_number, "record must be a JSON object")
    try:
        stream_id = record["stream_id"]
        frame_id = record["frame_id"]
        scores = record["scores"]
    except KeyError as exc:
        raise StreamSchemaError(line_number, f"missing field {exc}") from exc
    if stream_id.__class__ is not str:
        raise StreamSchemaError(line_number, f"stream_id must be a string, got {stream_id!r}")
    if frame_id.__class__ is not int:
        raise StreamSchemaError(line_number, f"frame_id must be an integer, got {frame_id!r}")
    if not isinstance(scores, dict) or not scores:
        raise StreamSchemaError(line_number, "scores must be a non-empty object")
    # Only a \u escape can put a lone surrogate into a decoded string.
    if "\\ud" in line or "\\uD" in line:
        for text in (stream_id, *scores):
            try:
                text.encode()
            except UnicodeEncodeError as exc:
                raise StreamSchemaError(
                    line_number, f"{text!r} holds a lone surrogate, which is not Unicode text"
                ) from exc
    return stream_id, frame_id, scores


def parse_frame_line(line: str, line_number: int) -> tuple[str, CategoryDistribution]:
    """One JSONL record -> (stream_id, distribution). Raises StreamSchemaError."""
    stream_id, frame_id, scores = _load_record(line, line_number)
    try:
        dist = CategoryDistribution(frame_id=frame_id, scores=scores)
    except ValueError as exc:
        raise StreamSchemaError(line_number, str(exc)) from exc
    return stream_id, dist


def read_frame_streams(lines: Iterable[str]) -> dict[str, list[CategoryDistribution]]:
    """Group JSONL frame records by stream_id, preserving per-stream order."""
    streams: dict[str, list[CategoryDistribution]] = {}
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        stream_id, dist = parse_frame_line(line, line_number)
        streams.setdefault(stream_id, []).append(dist)
    return streams


def read_lines(read: Callable[[int], bytes], size: int) -> Iterator[bytes]:
    """Yield the lines of what ``read(size)`` returns until it returns b"", split at b"\\n".

    A line cut by a read is carried into the next one; a last line without
    its newline is still yielded.
    """
    tail = b""
    while chunk := read(size):
        lines = (tail + chunk).split(b"\n")
        tail = lines.pop()
        yield from lines
    if tail:
        yield tail


def fold_lines(lines: Iterable[bytes], config: StreamConfig) -> Iterator[StreamEvent]:
    """Fold interleaved JSONL frames per stream, yielding each event in input order.

    Each line is UTF-8 bytes. ``config.stream_id`` is ignored: every record
    names its own stream. A line that is not UTF-8, a bad record or score, or
    an error from a frame's fold is raised as StreamSchemaError with its line
    number.
    """
    folds: dict[str, StreamFold] = {}
    for line_number, raw in enumerate(lines, start=1):
        try:
            line = raw.decode()
        except UnicodeDecodeError as exc:
            raise StreamSchemaError(line_number, f"not UTF-8: {exc}") from exc
        if not line.strip():
            continue
        stream_id, frame_id, scores = _load_record(line, line_number)
        fold = folds.get(stream_id)
        if fold is None:
            fold = folds[stream_id] = StreamFold(config, stream_id)
        try:
            check_scores(scores)
            event = fold.fold(frame_id, scores)
        except ValueError as exc:
            raise StreamSchemaError(line_number, str(exc)) from exc
        yield event


def event_to_json(event: StreamEvent) -> str:
    """One JSON line, byte for byte what ``json.dumps(record, sort_keys=True)``
    writes for the event's record, built field by field in sorted key order.

    A window's first event shares one value tuple between its raw and tmav
    scores, so those are encoded once.
    """
    frame_id, raw_index, raw, tmav_index, tmav, degenerate, wall_time, _, stream_json, labels = event
    raw_scores = labels.template % raw
    tmav_scores = raw_scores if tmav is raw else labels.template % tmav
    wall_time = "" if wall_time is None else f', "wall_time": {wall_time!r}'
    return (
        f'{{"degenerate": {"true" if degenerate else "false"}, '
        f'"frame_id": {frame_id!r}, '
        f'"raw_label": {labels.escaped[raw_index]}, '
        f'"raw_scores": {raw_scores}, '
        f'"stream_id": {stream_json}, '
        f'"tmav_label": {labels.escaped[tmav_index]}, '
        f'"tmav_scores": {tmav_scores}{wall_time}}}\n'
    )


def events_to_jsonl(events: Sequence[StreamEvent]) -> str:
    return "".join(event_to_json(e) for e in events)


def event_to_csv_row(event: StreamEvent) -> list:
    return [event.stream_id, event.frame_id, event.raw_label, event.tmav_label,
            str(event.degenerate).lower()]
