"""Energy-per-training-image metric, power/thermal trace handling, and the
device-lifespan projection from temperature deviation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .bayes import DEFAULT_Q, check_probability, is_number

TEMP_GUARD_LOW = -20.0
TEMP_GUARD_HIGH = 150.0
LIFESPAN_DOUBLING_INTERVALS = (10.0, 15.0)


class TraceError(ValueError):
    """A power/thermal trace is empty, unordered, or physically implausible."""


class NoQualifyingModelError(ValueError):
    """Every candidate fell below the quality threshold."""


def _check_timestamps(timestamps: Sequence[float]) -> None:
    for t in timestamps:
        if not math.isfinite(t):
            raise TraceError(f"timestamp {t} is not a finite number")
    for previous, current in zip(timestamps, timestamps[1:]):
        if current <= previous:
            raise TraceError(f"timestamps must strictly increase ({previous} -> {current})")


@dataclass(frozen=True)
class PowerTrace:
    samples: Tuple[Tuple[float, float], ...]  # (timestamp s, watts)

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple((float(t), float(w)) for t, w in self.samples))
        _check_timestamps([t for t, _ in self.samples])
        for t, watts in self.samples:
            if not 0 <= watts < math.inf:
                raise TraceError(f"power must be finite and >= 0, got {watts} W at t={t}")


@dataclass(frozen=True)
class ThermalTrace:
    samples: Tuple[Tuple[float, float], ...]  # (timestamp s, celsius)
    baseline_temp: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple((float(t), float(c)) for t, c in self.samples))
        _check_timestamps([t for t, _ in self.samples])
        for t, celsius in self.samples:
            if not TEMP_GUARD_LOW <= celsius <= TEMP_GUARD_HIGH:
                raise TraceError(f"implausible temperature {celsius} C at t={t}")
        if not math.isfinite(self.baseline_temp):
            raise TraceError(f"baseline temperature must be finite, got {self.baseline_temp!r}")


@dataclass(frozen=True)
class TrainingRunMeta:
    """What a training run cost and achieved; duration in hours."""

    model_name: str
    duration_hours: float
    image_count: int
    achieved_accuracy: float
    q_threshold: float = DEFAULT_Q

    def __post_init__(self) -> None:
        if not 0 < self.duration_hours < math.inf:
            raise ValueError(f"duration_hours must be finite and > 0, got {self.duration_hours!r}")
        if self.image_count < 1:
            raise ValueError("image_count must be >= 1")
        check_probability("achieved_accuracy", self.achieved_accuracy)
        check_probability("q_threshold", self.q_threshold)


@dataclass(frozen=True)
class EctiResult:
    """Energy per training image; undefined when accuracy missed the threshold."""

    model_name: str
    kwh_per_image: float  # raw (duration/n) * e figure, always computed
    defined: bool
    achieved_accuracy: float

    @property
    def value(self) -> Optional[float]:
        return self.kwh_per_image if self.defined else None


@dataclass(frozen=True)
class ThermalSummary:
    peak: float
    mean: float
    deviation_from_baseline: float


def average_power(trace: PowerTrace) -> float:
    """Time-weighted mean power over the trace span, in kW (trapezoid rule)."""
    if len(trace.samples) < 2:
        raise TraceError("average_power needs at least 2 samples")
    samples = trace.samples
    energy_joules = math.fsum(
        (t1 - t0) * (w0 + w1) / 2 for (t0, w0), (t1, w1) in zip(samples, samples[1:])
    )
    return energy_joules / (samples[-1][0] - samples[0][0]) / 1000.0


def compute_ecti(meta: TrainingRunMeta, average_power_kw: float) -> EctiResult:
    """(duration_hours / image_count) * kW, defined only when P >= Q."""
    if average_power_kw < 0:
        raise ValueError("average power must be >= 0")
    kwh_per_image = (meta.duration_hours / meta.image_count) * average_power_kw
    if not kwh_per_image < math.inf:  # NaN fails this test too
        raise ValueError(f"energy per image is not a finite number ({kwh_per_image!r} kWh)")
    return EctiResult(
        model_name=meta.model_name,
        kwh_per_image=kwh_per_image,
        defined=meta.achieved_accuracy >= meta.q_threshold,
        achieved_accuracy=meta.achieved_accuracy,
    )


def select_model(
    candidates: Sequence[Tuple[str, float, float]], q: float = DEFAULT_Q
) -> str:
    """Pick the lowest-energy candidate among those meeting the threshold.

    Candidates are (model_name, ecti_kwh_per_image, accuracy) triples; ties
    break lexicographically by name.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    qualifying = [(ecti, name) for name, ecti, accuracy in candidates if accuracy >= q]
    if not qualifying:
        raise NoQualifyingModelError(f"no candidate reached accuracy {q}")
    return min(qualifying)[1]


def lifespan_reduction(
    peak_temp: float, baseline_temp: float, doubling_interval: float = 10.0
) -> float:
    """Lifespan-reduction factor (delta T / doubling interval) * 2.

    Linear by construction; this intentionally reproduces the published
    arithmetic rather than an exponential Arrhenius-style model.
    """
    if doubling_interval <= 0:
        raise ValueError("doubling_interval must be > 0")
    delta = peak_temp - baseline_temp
    if delta < 0:
        raise ValueError(f"peak {peak_temp} C below baseline {baseline_temp} C")
    return (delta / doubling_interval) * 2.0


def thermal_summary(trace: ThermalTrace) -> ThermalSummary:
    """Peak, mean, and peak deviation from the idle baseline."""
    if not trace.samples:
        raise TraceError("thermal trace is empty")
    temps = [c for _, c in trace.samples]
    peak = max(temps)
    if trace.baseline_temp > peak:
        raise TraceError(f"baseline {trace.baseline_temp} C is above the trace peak {peak} C")
    return ThermalSummary(
        peak=peak,
        mean=math.fsum(temps) / len(temps),
        deviation_from_baseline=peak - trace.baseline_temp,
    )


def _load_two_column_csv(path: Path, expected_header: Tuple[str, str]) -> List[Tuple[float, float]]:
    rows: List[Tuple[float, float]] = []
    with open(path, newline="") as handle:
        header = handle.readline().strip()
        if tuple(header.split(",")) != expected_header:
            raise TraceError(
                f"{path}: expected header {','.join(expected_header)!r}, got {header!r}"
            )
        for line_number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != 2:
                raise TraceError(f"{path}: line {line_number}: expected 2 columns")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise TraceError(f"{path}: line {line_number}: {exc}") from exc
    return rows


def load_power_csv(path: Path) -> PowerTrace:
    return PowerTrace(samples=tuple(_load_two_column_csv(Path(path), ("timestamp_s", "watts"))))


def load_thermal_csv(path: Path, baseline_temp: float) -> ThermalTrace:
    return ThermalTrace(
        samples=tuple(_load_two_column_csv(Path(path), ("timestamp_s", "celsius"))),
        baseline_temp=baseline_temp,
    )


# Each run metadata field's JSON type: its test and its name. TrainingRunMeta
# checks the values.
_META_TYPES = {
    "model": (lambda value: value.__class__ is str, "a string"),
    "duration_s": (is_number, "a number"),
    "image_count": (lambda value: value.__class__ is int, "an integer"),
    "accuracy": (is_number, "a number"),
    "q": (is_number, "a number"),
}


def load_run_meta(path: Path) -> TrainingRunMeta:
    """Run metadata JSON: {model, duration_s, image_count, accuracy, q}; q is optional.

    Each field must have its JSON type, and a number must fit a float;
    nothing is coerced.
    """
    with open(path) as handle:
        try:
            record = json.load(handle)
        except RecursionError as exc:
            raise ValueError(f"{path}: run metadata is nested too deep") from exc
    if not isinstance(record, dict):
        raise ValueError(f"{path}: run metadata must be a JSON object")
    record = {"q": DEFAULT_Q, **record}
    for name, (test, json_type) in _META_TYPES.items():
        if name not in record:
            raise ValueError(f"{path}: missing field {name!r}")
        value = record[name]
        if not test(value):
            raise ValueError(f"{path}: {name} must be {json_type}, got {value!r}")
        if value.__class__ is int:
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"{path}: {name} is too large for a float") from None
    try:
        return TrainingRunMeta(
            model_name=record["model"],
            duration_hours=record["duration_s"] / 3600.0,
            image_count=record["image_count"],
            achieved_accuracy=record["accuracy"],
            q_threshold=record["q"],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
