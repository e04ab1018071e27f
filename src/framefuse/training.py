"""Hybrid training loop over an abstract classifier backend.

Offline training, then cross-validation that collects the misses; while the
accuracy is below the quality threshold and retrain rounds remain, the
backend trains on those misses and the set is validated again. The backend
is any object with ``train(items)`` and ``predict(ref) -> {label: score}``:
synthetic in-process or external over the wire protocol.
"""

from __future__ import annotations

import csv
import enum

from .backends import BackendError, LabeledItem
from .bayes import DEFAULT_Q, argmax_label, check_probability


class Phase(enum.Enum):
    """The phase a backend call falls in; run_session sets it before the calls."""

    OFFLINE = "offline"
    ONLINE_VALIDATION = "online_validation"
    RETRAIN = "retrain"


class ManifestError(ValueError):
    """Dataset manifest is malformed."""


class TrainingSession:
    """Settings of one training run, and the phase, accuracies and rounds
    ``run_session`` writes as it goes."""

    __slots__ = ("offline_set", "crossval_set", "q_threshold", "max_retrain_rounds",
                 "phase", "accuracy_history", "retrain_rounds_used")

    def __init__(self, offline_set: list[LabeledItem], crossval_set: list[LabeledItem],
                 q_threshold: float = DEFAULT_Q, max_retrain_rounds: int = 1):
        if not offline_set:
            raise ValueError("offline_set must be non-empty")
        if not crossval_set:
            raise ValueError("crossval_set must be non-empty")
        check_probability("q", q_threshold)
        if max_retrain_rounds < 0:
            raise ValueError(f"max_retrain_rounds must be >= 0, got {max_retrain_rounds}")
        self.offline_set = offline_set
        self.crossval_set = crossval_set
        self.q_threshold = q_threshold
        self.max_retrain_rounds = max_retrain_rounds
        self.phase = Phase.OFFLINE
        self.accuracy_history: list[float] = []
        self.retrain_rounds_used = 0


def _validate(session: TrainingSession, backend) -> list[LabeledItem]:
    """Predict each cross-validation item once and record the accuracy;
    return the misses in the order met."""
    misses = []
    correct = 0
    for ref, true_label in session.crossval_set:
        try:
            predicted, _ = argmax_label(backend.predict(ref))
        except BackendError as exc:
            raise BackendError(
                f"backend failed mid-validation after {correct + len(misses)} of "
                f"{len(session.crossval_set)} items ({correct} correct): {exc}"
            ) from exc
        if predicted == true_label:
            correct += 1
        else:
            misses.append((ref, true_label))
    session.accuracy_history.append(correct / len(session.crossval_set))
    return misses


def run_session(session: TrainingSession, backend) -> TrainingSession:
    """Train offline, then retrain on the misses and validate again until Q holds.

    Each retrain round trains on the last validation's misses and validates
    once, up to ``max_retrain_rounds`` rounds.
    """
    try:
        backend.train(session.offline_set)
    except BackendError as exc:
        raise BackendError(f"offline training failed: {exc}") from exc
    session.phase = Phase.ONLINE_VALIDATION
    misses = _validate(session, backend)
    while (session.accuracy_history[-1] < session.q_threshold
           and session.retrain_rounds_used < session.max_retrain_rounds):
        session.phase = Phase.RETRAIN
        session.retrain_rounds_used += 1
        try:
            backend.train(misses)
        except BackendError as exc:
            raise BackendError(
                f"retrain round {session.retrain_rounds_used} training failed: {exc}") from exc
        misses = _validate(session, backend)
    return session


def session_report(session: TrainingSession) -> dict:
    """The report of a session that ``run_session`` has run."""
    history = session.accuracy_history
    return {
        "phases": (["offline", "online_validation"]
                   + ["retrain"] * session.retrain_rounds_used + ["done"]),
        "accuracy_history": history,
        "final_accuracy": history[-1],
        "best_accuracy": max(history),
        "retrain_rounds_used": session.retrain_rounds_used,
        "quality_met": history[-1] >= session.q_threshold,
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
