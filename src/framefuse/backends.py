"""Classifier backends: in-process synthetic models and the wire-protocol client.

A backend answers ``predict(ref) -> {label: score}`` and
``train(items) -> count``. The synthetic backends exist so the training
loop can be driven deterministically; the external backend speaks
a JSON-lines protocol to a subprocess serving a real model.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import shlex
import subprocess
import time
from collections.abc import Collection, Sequence

from . import bayes, pipeline

PROTOCOL_VERSION = 1
CLOSE_WAIT_S = 10.0  # how long close() waits for the child before killing it
REPLY_TIMEOUT_S = 60.0  # how long a predict reply may take; hello and train replies have no bound
# Predict scores are raw classifier outputs, which sum to 1 only as closely
# as a float32 softmax does.
SCORE_SUM_TOLERANCE = 1e-3

LabeledItem = tuple[str, str]  # (image ref, true label)


class BackendError(RuntimeError):
    """The backend failed to train or predict."""


class ProtocolError(BackendError):
    """The external backend violated the wire protocol."""


def check_reply_scores(scores: object, labels: Collection[str]) -> dict[str, float]:
    """Return a predict reply's scores once they pass, or raise ProtocolError.

    The scores must pass the score rule (``bayes.check_scores``), cover
    every label in ``labels`` and sum to 1 within SCORE_SUM_TOLERANCE.
    """
    if not isinstance(scores, dict) or not scores:
        raise ProtocolError(f"predict reply without scores: {scores!r}")
    try:
        bayes.check_scores(scores)
    except bayes.ScoreDomainError as exc:
        raise ProtocolError(f"predict reply score is not a number in [0, 1]: {exc}") from exc
    missing = set(labels) - scores.keys()
    if missing:
        raise ProtocolError(f"predict reply lacks labels {sorted(missing)}")
    total = math.fsum(scores.values())
    if abs(total - 1.0) > SCORE_SUM_TOLERANCE:
        raise ProtocolError(f"predict scores sum to {total!r}, not 1")
    return scores


def _one_hot(labels: Sequence[str], chosen: str) -> dict[str, float]:
    return {label: 1.0 if label == chosen else 0.0 for label in labels}


class MemorizingBackend:
    """Learns an exact ref -> label table; predicts uniformly when unseen."""

    def __init__(self, labels: Sequence[str]):
        if not labels:
            raise ValueError("labels must be non-empty")
        self.labels = list(labels)
        self._memory: dict[str, str] = {}

    def train(self, items: Sequence[LabeledItem]) -> int:
        for ref, label in items:
            self._memory[ref] = label
        return len(items)

    def predict(self, ref: str) -> dict[str, float]:
        label = self._memory.get(ref)
        if label is None:
            uniform = 1.0 / len(self.labels)
            return {l: uniform for l in self.labels}
        return _one_hot(self.labels, label)


class ExternalBackend:
    """JSON-lines client for a classifier served by a subprocess.

    Wire format, one JSON object per line on stdin/stdout:
      -> {"op": "hello", "id": 0, "version": 1}
      <- {"id": 0, "ok": true, "version": 1}
      -> {"op": "predict", "id": n, "image": "<path-or-base64>"}
      <- {"id": n, "scores": {"label": 0.9, ...}}
      -> {"op": "train", "id": n, "items": [{"image": ..., "label": ...}]}
      <- {"id": n, "ok": true}
    """

    def __init__(self, command: str, labels: Sequence[str] = ()):
        self.labels = tuple(labels)
        argv = shlex.split(command)
        if not argv:
            raise ValueError("backend command is empty")
        try:
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise BackendError(f"cannot start backend {command!r}: {exc}") from exc
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._proc.stdout, selectors.EVENT_READ)
        self._replies = pipeline.read_lines(self._read, 65536)  # a pipe's capacity
        self._next_id = 0
        try:
            reply = self._call({"op": "hello", "version": PROTOCOL_VERSION})
            if not reply.get("ok") or reply.get("version") != PROTOCOL_VERSION:
                raise ProtocolError(f"handshake failed: {reply}")
        except BackendError:
            self.close()
            raise

    def _read(self, size: int) -> bytes:
        """The child's next output bytes; past the reply deadline, kill the child and raise."""
        if self._deadline is not None and not self._selector.select(
                self._deadline - time.monotonic()):
            self._proc.kill()
            raise BackendError(f"no reply within {REPLY_TIMEOUT_S} s")
        return os.read(self._proc.stdout.fileno(), size)

    def _call(self, request: dict) -> dict:
        request = dict(request, id=self._next_id)
        self._next_id += 1
        self._deadline = time.monotonic() + REPLY_TIMEOUT_S if request["op"] == "predict" else None
        try:
            self._proc.stdin.write(json.dumps(request).encode() + b"\n")
            self._proc.stdin.flush()
        except OSError as exc:
            raise BackendError(f"backend process went away: {exc}") from exc
        raw = next(self._replies, None)
        if raw is None:
            raise BackendError("backend closed its output stream")
        try:
            # The line as sent, decoded here: json.loads would also take UTF-16 or UTF-32.
            line = (raw + b"\n").decode()
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"reply is not UTF-8: {exc}") from exc
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"non-JSON reply: {line!r}") from exc
        except RecursionError as exc:
            raise ProtocolError(f"reply to request {request['id']} is nested too deep") from exc
        if not isinstance(reply, dict):
            raise ProtocolError(f"reply is not a JSON object: {line!r}")
        if reply.get("id") != request["id"]:
            raise ProtocolError(
                f"reply id {reply.get('id')!r} does not match request id {request['id']}"
            )
        if "error" in reply:
            raise BackendError(f"backend error: {reply['error']}")
        return reply

    def train(self, items: Sequence[LabeledItem]) -> int:
        reply = self._call(
            {"op": "train", "items": [{"image": ref, "label": label} for ref, label in items]}
        )
        if not reply.get("ok"):
            raise BackendError(f"train not acknowledged: {reply}")
        return len(items)

    def predict(self, ref: str) -> dict[str, float]:
        reply = self._call({"op": "predict", "image": ref})
        return check_reply_scores(reply.get("scores"), self.labels)

    def close(self) -> None:
        """Close both pipes and reap the child, killing it if it outlives CLOSE_WAIT_S."""
        self._selector.close()
        for stream in (self._proc.stdin, self._proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self._proc.wait(timeout=CLOSE_WAIT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
