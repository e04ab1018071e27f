"""Command-line surface: stream prediction, training, energy and thermal reports.

Exit codes: 0 success, 2 schema/input error, 3 quality-not-met, 4 backend
failure. Every flag has a FRAMEFUSE_* environment variable fallback. Each
command imports the modules it needs when it runs, so predict-stream loads
only the stream core.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import pipeline
from .bayes import ClassifierProfile

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_QUALITY_NOT_MET = 3
EXIT_BACKEND = 4


def _env(name: str, fallback=None):
    return os.environ.get(f"FRAMEFUSE_{name}", fallback)


def _env_flag(name: str, fallback: bool) -> bool:
    raw = _env(name)
    if raw is None:
        return fallback
    return raw.strip().lower() in {"1", "true", "yes", "on"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framefuse",
        description="Temporally-integrated video-frame prediction, training "
        "control, and energy/thermal reporting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    predict = sub.add_parser("predict-stream", help="run frame JSONL through the Bayes window")
    predict.add_argument("--input", default=_env("INPUT", "-"), help="frame JSONL path or - for stdin")
    predict.add_argument("--output", default=_env("OUTPUT", "-"), help="output path or - for stdout")
    predict.add_argument("--window", type=int, default=_env("WINDOW", "3"))
    predict.add_argument("--p-cnn", type=float, default=_env("P_CNN", "0.9893"))
    predict.add_argument("--q", type=float, default=_env("Q", "0.7"))
    predict.add_argument("--model-name", default=_env("MODEL_NAME", "classifier"))
    predict.add_argument("--format", choices=("jsonl", "csv"), default=_env("FORMAT", "jsonl"))
    predict.add_argument("--frame-interval", type=float, default=None,
                         help="seconds between frames, reported as event wall_time")
    reset = predict.add_mutually_exclusive_group()
    reset.add_argument("--auto-reset", dest="auto_reset", action="store_true",
                       default=_env_flag("AUTO_RESET", True))
    reset.add_argument("--no-auto-reset", dest="auto_reset", action="store_false")

    train = sub.add_parser("train", help="drive the hybrid training state machine")
    train.add_argument("--offline-manifest", required=True, help="path,label CSV for offline training")
    train.add_argument("--crossval-manifest", required=True, help="path,label CSV for cross-validation")
    train.add_argument("--backend", default=_env("BACKEND", "synthetic"),
                       help="'synthetic' or 'external:<command>'")
    train.add_argument("--q", type=float, default=_env("Q", "0.7"))
    train.add_argument("--max-retrain-rounds", type=int, default=1)
    train.add_argument("--output", default=_env("OUTPUT", "-"), help="report JSON path or -")

    ecti = sub.add_parser("ecti", help="energy per training image, per model")
    ecti.add_argument("--run", action="append", required=True, metavar="META.json,POWER.csv",
                      help="meta JSON and power CSV pair; repeatable")
    ecti.add_argument("--q", type=float, default=None, help="override the quality threshold")
    ecti.add_argument("--output", default=_env("OUTPUT", "-"))

    thermal = sub.add_parser("thermal", help="thermal summary and lifespan projection")
    thermal.add_argument("--trace", required=True, help="timestamp_s,celsius CSV")
    thermal.add_argument("--baseline-temp", type=float, required=True,
                         help="idle operating temperature in C")
    thermal.add_argument("--output", default=_env("OUTPUT", "-"))
    return parser


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _open(path: str, mode: str):
    if path == "-":
        return contextlib.nullcontext(sys.stdin if mode == "r" else sys.stdout)
    return open(path, mode)


def cmd_predict_stream(args: argparse.Namespace) -> int:
    """Fold frames line by line, writing each event as soon as its frame is read."""
    try:
        profile = ClassifierProfile(model_name=args.model_name, p_cnn=args.p_cnn,
                                    q_threshold=args.q)
        config = pipeline.StreamConfig(
            profile=profile,
            capacity_n=args.window,
            auto_reset=args.auto_reset,
            frame_interval_seconds=args.frame_interval,
        )
        with _open(args.input, "r") as source, _open(args.output, "w") as sink:
            if args.format == "csv":
                writer = csv.writer(sink, lineterminator="\n")
                writer.writerow(pipeline.CSV_HEADER)
                for event in pipeline.fold_lines(source, config):
                    writer.writerow(pipeline.event_to_csv_row(event))
                    sink.flush()
            else:
                for event in pipeline.fold_lines(source, config):
                    sink.write(pipeline.event_to_json(event))
                    sink.flush()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    return EXIT_OK


def _make_backend(spec: str, labels: Sequence[str]):
    from .backends import ExternalBackend, MemorizingBackend

    if spec == "synthetic":
        return MemorizingBackend(labels)
    if spec.startswith("external:"):
        return ExternalBackend(spec[len("external:"):])
    raise ValueError(f"unknown backend {spec!r}")


def cmd_train(args: argparse.Namespace) -> int:
    from . import training
    from .backends import BackendError, ExternalBackend

    try:
        offline = training.load_manifest(Path(args.offline_manifest))
        crossval = training.load_manifest(Path(args.crossval_manifest))
    except (training.ManifestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    labels = sorted({label for _, label in offline + crossval})
    backend = None
    try:
        backend = _make_backend(args.backend, labels)
        session = training.TrainingSession(
            offline_set=offline,
            crossval_set=crossval,
            q_threshold=args.q,
            max_retrain_rounds=args.max_retrain_rounds,
        )
        training.run_session(session, backend)
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    finally:
        if isinstance(backend, ExternalBackend):
            backend.close()
    report = training.session_report(session)
    _write(args.output, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report["quality_met"] else EXIT_QUALITY_NOT_MET


def cmd_ecti(args: argparse.Namespace) -> int:
    from . import energy

    results = []
    try:
        for run in args.run:
            meta_path, _, power_path = run.partition(",")
            if not power_path:
                raise ValueError(f"--run expects META.json,POWER.csv, got {run!r}")
            meta = energy.load_run_meta(Path(meta_path))
            if args.q is not None:
                meta = energy.TrainingRunMeta(
                    model_name=meta.model_name,
                    duration_hours=meta.duration_hours,
                    image_count=meta.image_count,
                    achieved_accuracy=meta.achieved_accuracy,
                    q_threshold=args.q,
                )
            kw = energy.average_power(energy.load_power_csv(Path(power_path)))
            results.append((meta, energy.compute_ecti(meta, kw)))
    except (energy.TraceError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    candidates = [
        (r.model_name, r.kwh_per_image, r.achieved_accuracy) for _, r in results
    ]
    q = args.q if args.q is not None else results[0][0].q_threshold
    try:
        selected: Optional[str] = energy.select_model(candidates, q)
    except energy.NoQualifyingModelError:
        selected = None
    report = {
        "models": [
            {
                "model": r.model_name,
                "ecti_kwh_per_image": r.kwh_per_image,
                "defined": r.defined,
                "accuracy": r.achieved_accuracy,
            }
            for _, r in results
        ],
        "selected": selected,
    }
    _write(args.output, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_thermal(args: argparse.Namespace) -> int:
    from . import energy

    try:
        trace = energy.load_thermal_csv(Path(args.trace), args.baseline_temp)
        summary = energy.thermal_summary(trace)
    except (energy.TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    report = {
        "peak_c": summary.peak,
        "mean_c": summary.mean,
        "baseline_c": trace.baseline_temp,
        "deviation_c": summary.deviation_from_baseline,
        "lifespan_reduction": {
            f"per_{int(interval)}c": energy.lifespan_reduction(
                summary.peak, trace.baseline_temp, interval
            )
            for interval in energy.LIFESPAN_DOUBLING_INTERVALS
        },
    }
    _write(args.output, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "predict-stream": cmd_predict_stream,
        "train": cmd_train,
        "ecti": cmd_ecti,
        "thermal": cmd_thermal,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
