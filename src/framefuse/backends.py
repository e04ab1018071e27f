"""Classifier backends: in-process synthetic models and the wire-protocol client.

A backend answers ``predict(ref) -> {label: score}`` and
``train(items) -> count``. The synthetic backends exist so the training
state machine can be driven deterministically; the external backend speaks
a JSON-lines protocol to a subprocess serving a real model.
"""

from __future__ import annotations

import json
import shlex
import subprocess
from typing import Dict, Protocol, Sequence, Tuple

PROTOCOL_VERSION = 1
CLOSE_WAIT_S = 10.0  # how long close() waits for the child before killing it

LabeledItem = Tuple[str, str]  # (image ref, true label)


class BackendError(RuntimeError):
    """The backend failed to train or predict."""


class ProtocolError(BackendError):
    """The external backend violated the wire protocol."""


class ClassifierBackend(Protocol):
    def train(self, items: Sequence[LabeledItem]) -> int: ...

    def predict(self, ref: str) -> Dict[str, float]: ...


def _one_hot(labels: Sequence[str], chosen: str) -> Dict[str, float]:
    return {label: 1.0 if label == chosen else 0.0 for label in labels}


class MemorizingBackend:
    """Learns an exact ref -> label table; predicts uniformly when unseen."""

    def __init__(self, labels: Sequence[str]):
        if not labels:
            raise ValueError("labels must be non-empty")
        self.labels = list(labels)
        self._memory: Dict[str, str] = {}

    def train(self, items: Sequence[LabeledItem]) -> int:
        for ref, label in items:
            self._memory[ref] = label
        return len(items)

    def predict(self, ref: str) -> Dict[str, float]:
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

    def __init__(self, command: str):
        try:
            self._proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise BackendError(f"cannot start backend {command!r}: {exc}") from exc
        self._next_id = 0
        try:
            reply = self._call({"op": "hello", "version": PROTOCOL_VERSION})
            if not reply.get("ok") or reply.get("version") != PROTOCOL_VERSION:
                raise ProtocolError(f"handshake failed: {reply}")
        except BackendError:
            self.close()
            raise

    def _call(self, request: dict) -> dict:
        request = dict(request, id=self._next_id)
        self._next_id += 1
        assert self._proc.stdin is not None and self._proc.stdout is not None
        try:
            self._proc.stdin.write(json.dumps(request) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise BackendError(f"backend process went away: {exc}") from exc
        line = self._proc.stdout.readline()
        if not line:
            raise BackendError("backend closed its output stream")
        try:
            reply = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"non-JSON reply: {line!r}") from exc
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

    def predict(self, ref: str) -> Dict[str, float]:
        reply = self._call({"op": "predict", "image": ref})
        scores = reply.get("scores")
        if not isinstance(scores, dict) or not scores:
            raise ProtocolError(f"predict reply without scores: {reply}")
        for label, value in scores.items():
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0.0 <= value <= 1.0):
                raise ProtocolError(f"score for {label!r} is not a number in [0, 1]: {value!r}")
        return {str(label): float(value) for label, value in scores.items()}

    def close(self) -> None:
        """Close both pipes and reap the child, killing it if it outlives CLOSE_WAIT_S."""
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

    def __enter__(self) -> "ExternalBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
