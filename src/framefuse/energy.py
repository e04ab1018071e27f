"""Energy-per-training-image metric, power/thermal trace handling, and the
device-lifespan projection from temperature deviation.
"""

from __future__ import annotations

import json
import math

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


def ecti_row(meta: dict, average_power_kw: float, q: float | None = None) -> dict:
    """One run's report row: ECTI = (training hours / image_count) * kW, always
    computed, and defined only when the accuracy reaches q (the file's own q
    unless one is given). ``meta`` is a record from ``load_run_meta``."""
    kwh_per_image = meta["duration_s"] / 3600.0 / meta["image_count"] * average_power_kw
    if not kwh_per_image < math.inf:  # NaN fails this test too
        raise ValueError(f"energy per image is not a finite number ({kwh_per_image!r} kWh)")
    return {
        "model": meta["model"],
        "ecti_kwh_per_image": kwh_per_image,
        "defined": meta["accuracy"] >= (meta["q"] if q is None else q),
        "accuracy": meta["accuracy"],
    }


def select_model(rows: list[dict]) -> str | None:
    """The lowest-energy model among the rows whose ECTI is defined, ties broken
    by name; None when no ECTI is defined."""
    defined = [(row["ecti_kwh_per_image"], row["model"]) for row in rows if row["defined"]]
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


def _meta_rule(rule: str, test):
    """A field check that raises unless ``test(value)``: the value must be ``rule``."""
    def check(name: str, value: object) -> None:
        if not test(value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")
    return check


# Each run metadata field's one rule, for its JSON type and its range.
_META_RULES = {
    "model": _meta_rule("a string", lambda value: value.__class__ is str),
    "duration_s": _meta_rule("a finite number > 0",
                             lambda value: is_number(value) and 0 < value < math.inf),
    "image_count": _meta_rule("an integer >= 1",
                              lambda value: value.__class__ is int and value >= 1),
    "accuracy": check_probability,
    "q": check_probability,
}


def load_run_meta(path: str) -> dict:
    """Run metadata JSON: {model, duration_s, image_count, accuracy, q}; q is optional.

    Returns the record, q defaulted, once each field has passed its rule:
    a number must fit a float, and nothing is coerced. An error names the
    file, the field and the value as written.
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
    for name, check in _META_RULES.items():
        if name not in record:
            raise ValueError(f"{path}: missing field {name!r}")
        value = record[name]
        try:
            if value.__class__ is int:
                float(value)
            check(name, value)
        except OverflowError:
            raise ValueError(f"{path}: {name} is too large for a float") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return record
