"""Test-only backend that hits a scripted accuracy on a known truth table."""

from typing import Dict, List, Mapping, Sequence

from framefuse.backends import BackendError, LabeledItem


class ScriptedAccuracyBackend:
    """Hits a scripted accuracy on a known truth table, per training round.

    After the r-th call to train(), accuracy follows ``schedule[r-1]``
    (clamped to the last entry). The wrong predictions are the first
    ``round((1-acc)*m)`` refs in sorted order, answered with the next label
    cyclically, so refeed contents are fully predictable.
    """

    def __init__(
        self,
        truth: Mapping[str, str],
        labels: Sequence[str],
        schedule: Sequence[float],
    ):
        if not schedule:
            raise ValueError("schedule must be non-empty")
        self.truth = dict(truth)
        self.labels = list(labels)
        self.schedule = list(schedule)
        self.train_calls = 0
        self._ordered_refs = sorted(self.truth)
        self._pick_wrong_refs()

    def train(self, items: Sequence[LabeledItem]) -> None:
        self.train_calls += 1
        self._pick_wrong_refs()

    def _pick_wrong_refs(self) -> None:
        """Fix this round's wrong refs; accuracy changes only when train() runs."""
        index = min(max(self.train_calls, 1), len(self.schedule)) - 1
        wrong_count = round((1.0 - self.schedule[index]) * len(self._ordered_refs))
        self._wrong = self._ordered_refs[:wrong_count]
        self._wrong_set = frozenset(self._wrong)

    def wrong_refs(self) -> List[str]:
        return list(self._wrong)

    def predict(self, ref: str) -> Dict[str, float]:
        true_label = self.truth.get(ref)
        if true_label is None:
            raise BackendError(f"unknown ref {ref!r}")
        chosen = true_label
        if ref in self._wrong_set:
            position = self.labels.index(true_label)
            chosen = self.labels[(position + 1) % len(self.labels)]
        return {label: 1.0 if label == chosen else 0.0 for label in self.labels}
