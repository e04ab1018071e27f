"""Streaming conversion of per-frame classifier scores into temporally
integrated video-level predictions, with the training state machine and
energy/thermal reporting around it.
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
from .training import (
    Phase,
    TrainingSession,
    evaluate_accuracy,
    run_offline,
    run_online_validation,
    run_retrain,
    run_session,
)
from .energy import (
    EctiResult,
    NoQualifyingModelError,
    PowerTrace,
    ThermalTrace,
    TraceError,
    TrainingRunMeta,
    average_power,
    compute_ecti,
    lifespan_reduction,
    select_model,
    thermal_summary,
)
from .backends import (
    BackendError,
    ClassifierBackend,
    ExternalBackend,
    MemorizingBackend,
    ProtocolError,
)

__version__ = "0.1.0"
