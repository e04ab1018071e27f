"""Streaming conversion of per-frame classifier scores into temporally
integrated video-level predictions.

The package root exports the stream core (``bayes`` and ``pipeline``) only.
The training state machine, the classifier backends and the energy/thermal
reports are imported from their own modules (``framefuse.training``,
``framefuse.backends``, ``framefuse.energy``), so a stream run never loads
them.
"""

from .bayes import (
    CategoryDistribution,
    ClassifierProfile,
    LabelSetMismatchError,
    PosteriorState,
    ScoreDomainError,
    argmax_label,
    chain_update,
    degeneracy_horizon,
    update_posterior,
)
from .pipeline import (
    OutOfOrderFrameError,
    StreamConfig,
    StreamEvent,
    StreamFold,
    StreamSchemaError,
    fold_lines,
    process_stream,
)

__version__ = "0.1.0"
