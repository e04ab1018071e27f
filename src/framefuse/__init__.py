"""Streaming conversion of per-frame classifier scores into temporally
integrated video-level predictions.

The package root exports the stream core (``bayes`` and ``pipeline``) only.
The training loop, the classifier backends and the energy/thermal
reports are imported from their own modules (``framefuse.training``,
``framefuse.backends``, ``framefuse.energy``), so a stream run never loads
them.
"""

from .bayes import ClassifierProfile, LabelSetMismatchError, ScoreDomainError, argmax_label
from .pipeline import (
    OutOfOrderFrameError,
    StreamConfig,
    StreamEvent,
    StreamFold,
    StreamSchemaError,
    fold_lines,
)

__version__ = "0.1.0"
