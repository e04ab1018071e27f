"""Energy-per-training-image metric, power/thermal trace handling, and the
device-lifespan projection from temperature deviation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .bayes import DEFAULT_Q, check_probability, is_number

TEMP_GUARD_LOW = -20.0
TEMP_GUARD_HIGH = 150.0
LIFESPAN_DOUBLING_INTERVALS = (10.0, 15.0)


class TraceError(ValueError):
    """A power/thermal trace is empty, unordered, or physically implausible."""


def _check_timestamps(rows: list[tuple[float, float]]) -> None:
    for t, _ in rows:
        if not math.isfinite(t):
            raise TraceError(f"timestamp {t} is not a finite number")
    for (previous, _), (current, _) in zip(rows, rows[1:]):
        if current <= previous:
            raise TraceError(f"timestamps must strictly increase ({previous} -> {current})")


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


def average_power(rows: list[tuple[float, float]]) -> float:
    """Time-weighted mean power of (timestamp s, watts) rows, in kW (trapezoid rule)."""
    _check_timestamps(rows)
    for t, watts in rows:
        if not 0 <= watts < math.inf:
            raise TraceError(f"power must be finite and >= 0, got {watts} W at t={t}")
    if len(rows) < 2:
        raise TraceError("average_power needs at least 2 samples")
    energy_joules = math.fsum(
        (t1 - t0) * (w0 + w1) / 2 for (t0, w0), (t1, w1) in zip(rows, rows[1:])
    )
    return energy_joules / (rows[-1][0] - rows[0][0]) / 1000.0


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


def select_model(results: list[EctiResult]) -> str | None:
    """The lowest-energy model among those whose ECTI is defined, ties broken
    by name; None when no ECTI is defined."""
    defined = [(r.kwh_per_image, r.model_name) for r in results if r.defined]
    return min(defined)[1] if defined else None


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


def thermal_summary(
    rows: list[tuple[float, float]], baseline_temp: float
) -> tuple[float, float, float]:
    """(peak, mean, peak deviation from the idle baseline) of (timestamp s, celsius) rows."""
    _check_timestamps(rows)
    for t, celsius in rows:
        if not TEMP_GUARD_LOW <= celsius <= TEMP_GUARD_HIGH:
            raise TraceError(f"implausible temperature {celsius} C at t={t}")
    if not math.isfinite(baseline_temp):
        raise TraceError(f"baseline temperature must be finite, got {baseline_temp!r}")
    if not rows:
        raise TraceError("thermal trace is empty")
    temps = [c for _, c in rows]
    peak = max(temps)
    if baseline_temp > peak:
        raise TraceError(f"baseline {baseline_temp} C is above the trace peak {peak} C")
    return peak, math.fsum(temps) / len(temps), peak - baseline_temp


def _json_number(cell: str) -> float | None:
    """The cell as a float if it is one JSON number, else None: 7_0, +1, nan
    and inf are not JSON numbers. An integer too large for a float reads as
    inf, as 1e400 does."""
    try:
        # parse_constant=str turns NaN and Infinity into strings, which fail below.
        value = json.loads(cell, parse_int=float, parse_constant=str)
    except (ValueError, RecursionError):
        return None
    return value if value.__class__ is float else None


def _load_two_column_csv(path: str, expected_header: tuple[str, str]) -> list[tuple[float, float]]:
    """A UTF-8 trace's rows, after a leading BOM. Lines end at \\n, \\r\\n or \\r;
    a line that is not UTF-8 is rejected by its number."""
    with open(path, "rb") as handle:
        lines = handle.read().splitlines() or [b""]
    rows = []
    for line_number, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8-sig" if line_number == 1 else "utf-8").strip()
        except UnicodeDecodeError as exc:
            raise TraceError(f"{path}: line {line_number}: not UTF-8: {exc}") from exc
        if line_number == 1:
            if tuple(line.split(",")) != expected_header:
                raise TraceError(
                    f"{path}: expected header {','.join(expected_header)!r}, got {line!r}"
                )
        elif line:
            cells = line.split(",")
            if len(cells) != 2:
                raise TraceError(f"{path}: line {line_number}: expected 2 columns")
            row = tuple(map(_json_number, cells))
            if None in row:
                cell = cells[row.index(None)].strip()
                raise TraceError(f"{path}: line {line_number}: {cell!r} is not a JSON number")
            rows.append(row)
    return rows


def load_power_csv(path: str) -> list[tuple[float, float]]:
    return _load_two_column_csv(path, ("timestamp_s", "watts"))


def load_thermal_csv(path: str) -> list[tuple[float, float]]:
    return _load_two_column_csv(path, ("timestamp_s", "celsius"))


# Each run metadata field's JSON type: its test and its name. TrainingRunMeta
# checks the values.
_META_TYPES = {
    "model": (lambda value: value.__class__ is str, "a string"),
    "duration_s": (is_number, "a number"),
    "image_count": (lambda value: value.__class__ is int, "an integer"),
    "accuracy": (is_number, "a number"),
    "q": (is_number, "a number"),
}


def load_run_meta(path: str, q: float | None = None) -> TrainingRunMeta:
    """Run metadata JSON: {model, duration_s, image_count, accuracy, q}; q is optional.

    Each field must have its JSON type, and a number must fit a float;
    nothing is coerced. A q given here replaces the file's own, which must
    still be valid.
    """
    with open(path, encoding="utf-8-sig") as handle:
        try:
            record = json.load(handle)
        except RecursionError as exc:
            raise ValueError(f"{path}: run metadata is nested too deep") from exc
        except ValueError as exc:  # not JSON, not UTF-8, or an integer too long to read
            raise ValueError(f"{path}: {exc}") from exc
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
        meta = TrainingRunMeta(
            model_name=record["model"],
            duration_hours=record["duration_s"] / 3600.0,
            image_count=record["image_count"],
            achieved_accuracy=record["accuracy"],
            q_threshold=record["q"],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return meta if q is None else replace(meta, q_threshold=q)
