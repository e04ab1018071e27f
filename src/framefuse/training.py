"""Hybrid training loop over an abstract classifier backend.

Offline training, then cross-validation that stacks the misses for
refeeding; while the accuracy is below the quality threshold and retrain
rounds remain, the backend trains on the refeed stack and the set is
validated again. The backend is any object with ``train(items) -> count``
and ``predict(ref) -> {label: score}``: synthetic in-process or external
over the wire protocol.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field

from .backends import BackendError, LabeledItem
from .bayes import DEFAULT_Q, argmax_label, check_probability


class Phase(enum.Enum):
    OFFLINE = "offline"
    ONLINE_VALIDATION = "online_validation"
    RETRAIN = "retrain"
    DONE = "done"


class ManifestError(ValueError):
    """Dataset manifest is malformed."""


@dataclass
class TrainingSession:
    """Settings and mutable state of one training run."""

    offline_set: list[LabeledItem]
    crossval_set: list[LabeledItem]
    q_threshold: float = DEFAULT_Q
    max_retrain_rounds: int = 1
    phase: Phase = field(init=False, default=Phase.OFFLINE)
    refeed_stack: list[LabeledItem] = field(init=False, default_factory=list)
    accuracy_history: list[float] = field(init=False, default_factory=list)
    retrain_rounds_used: int = field(init=False, default=0)
    quality_met: bool | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if not self.offline_set:
            raise ValueError("offline_set must be non-empty")
        if not self.crossval_set:
            raise ValueError("crossval_set must be non-empty")
        check_probability("q_threshold", self.q_threshold)
        if self.max_retrain_rounds < 0:
            raise ValueError(f"max_retrain_rounds must be >= 0, got {self.max_retrain_rounds}")

    @property
    def final_accuracy(self) -> float | None:
        return self.accuracy_history[-1] if self.accuracy_history else None

    @property
    def best_accuracy(self) -> float | None:
        return max(self.accuracy_history) if self.accuracy_history else None


def _validate(session: TrainingSession, backend) -> float:
    """Predict each cross-validation item once; stack the misses, record the accuracy."""
    session.refeed_stack = []
    correct = 0
    for ref, true_label in session.crossval_set:
        try:
            predicted, _ = argmax_label(backend.predict(ref))
        except BackendError as exc:
            done = correct + len(session.refeed_stack)
            raise BackendError(
                f"backend failed mid-validation after {done} of "
                f"{len(session.crossval_set)} items ({correct} correct): {exc}"
            ) from exc
        if predicted == true_label:
            correct += 1
        else:
            session.refeed_stack.append((ref, true_label))
    accuracy = correct / len(session.crossval_set)
    session.accuracy_history.append(accuracy)
    return accuracy


def run_session(session: TrainingSession, backend) -> TrainingSession:
    """Train offline, then refeed the misses and validate again until Q holds.

    Each retrain round trains on the refeed stack and validates once, up to
    ``max_retrain_rounds`` rounds.
    """
    try:
        backend.train(session.offline_set)
    except BackendError as exc:
        raise BackendError(f"offline training failed: {exc}") from exc
    session.phase = Phase.ONLINE_VALIDATION
    accuracy = _validate(session, backend)
    while (accuracy < session.q_threshold
           and session.retrain_rounds_used < session.max_retrain_rounds):
        session.phase = Phase.RETRAIN
        session.retrain_rounds_used += 1
        try:
            backend.train(session.refeed_stack)
        except BackendError as exc:
            raise BackendError(
                f"retrain round {session.retrain_rounds_used} training failed: {exc}") from exc
        accuracy = _validate(session, backend)
    session.quality_met = accuracy >= session.q_threshold
    session.phase = Phase.DONE
    return session


def session_report(session: TrainingSession) -> dict:
    return {
        "phases": ([Phase.OFFLINE.value, Phase.ONLINE_VALIDATION.value]
                   + [Phase.RETRAIN.value] * session.retrain_rounds_used
                   + [Phase.DONE.value]),
        "accuracy_history": session.accuracy_history,
        "final_accuracy": session.final_accuracy,
        "best_accuracy": session.best_accuracy,
        "retrain_rounds_used": session.retrain_rounds_used,
        "quality_met": bool(session.quality_met),
        "q_threshold": session.q_threshold,
    }


def load_manifest(path) -> list[LabeledItem]:
    """Read a UTF-8 path,label CSV manifest, after a leading BOM. A file that
    is not UTF-8, or that the csv reader refuses (a cell over its field
    limit), is a ManifestError naming the file."""
    items: list[LabeledItem] = []
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            if reader.fieldnames is None or not {"path", "label"} <= set(reader.fieldnames):
                raise ManifestError(f"{path}: manifest must have columns path,label")
            for row_number, row in enumerate(reader, start=2):
                if not row.get("path") or not row.get("label"):
                    raise ManifestError(f"{path}: row {row_number} missing path or label")
                items.append((row["path"], row["label"]))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ManifestError(f"{path}: {exc}") from exc
    if not items:
        raise ManifestError(f"{path}: manifest is empty")
    return items
