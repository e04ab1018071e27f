"""Command-line surface: stream prediction, training, energy and thermal reports.

Exit codes: 0 success, 2 schema/input error, 3 quality-not-met, 4 backend
failure. Every setting is a flag; no environment variable is read. Each
command imports the modules it needs when it runs, so predict-stream loads
only the stream core.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import warnings
from collections.abc import Sequence

from . import pipeline
from .bayes import DEFAULT_Q, ClassifierProfile

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_QUALITY_NOT_MET = 3
EXIT_BACKEND = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framefuse",
        description="Temporally-integrated video-frame prediction, training "
        "control, and energy/thermal reporting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    predict = sub.add_parser("predict-stream", help="run frame JSONL through the Bayes window")
    predict.add_argument("--input", default="-", help="frame JSONL path or - for stdin")
    predict.add_argument("--output", default="-", help="output path or - for stdout")
    predict.add_argument("--window", type=int, default=pipeline.DEFAULT_WINDOW)
    predict.add_argument("--p-cnn", type=float, default=0.9893)
    predict.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    predict.add_argument("--frame-interval", type=float, default=None,
                         help="seconds between frames (finite, > 0), reported as event wall_time")
    reset = predict.add_mutually_exclusive_group()
    reset.add_argument("--auto-reset", dest="auto_reset", action="store_true", default=True)
    reset.add_argument("--no-auto-reset", dest="auto_reset", action="store_false")
    predict.set_defaults(handler=cmd_predict_stream)

    train = sub.add_parser("train", help="run the hybrid training loop")
    train.add_argument("--offline-manifest", required=True, help="path,label CSV for offline training")
    train.add_argument("--crossval-manifest", required=True, help="path,label CSV for cross-validation")
    train.add_argument("--backend", default="synthetic", help="'synthetic' or 'external:<command>'")
    train.add_argument("--q", type=float, default=DEFAULT_Q)
    train.add_argument("--max-retrain-rounds", type=int, default=1)
    train.add_argument("--output", default="-", help="report JSON path or -")
    train.set_defaults(handler=cmd_train)

    ecti = sub.add_parser("ecti", help="energy per training image, per model")
    ecti.add_argument("--run", action="append", required=True, metavar="META.json,POWER.csv",
                      help="meta JSON and power CSV pair; repeatable")
    ecti.add_argument("--q", type=float, default=None, help="override the quality threshold")
    ecti.add_argument("--output", default="-")
    ecti.set_defaults(handler=cmd_ecti)

    thermal = sub.add_parser("thermal", help="thermal summary and lifespan projection")
    thermal.add_argument("--trace", required=True, help="timestamp_s,celsius CSV")
    thermal.add_argument("--baseline-temp", type=float, required=True,
                         help="idle operating temperature in C")
    thermal.add_argument("--output", default="-")
    thermal.set_defaults(handler=cmd_thermal)
    return parser


# The most input read at once. The events of one read leave in one write, so
# a larger read holds events back for longer and raises event latency.
READ_BYTES = io.DEFAULT_BUFFER_SIZE


class _Batch(list):
    """Encoded events waiting for their write; also a csv.writer target."""

    write = list.append


def _open_binary(path: str, mode: str):
    if path == "-":
        return contextlib.nullcontext(sys.stdin.buffer if mode == "rb" else sys.stdout.buffer)
    return open(path, mode)


def _write_all(sink, data: bytes) -> None:
    """Write every byte: an unbuffered (raw) sink may take only part of a write."""
    written = sink.write(data)
    while written < len(data):
        written += sink.write(memoryview(data)[written:])


def _write_report(path: str, report: dict) -> None:
    """Write the report as indented JSON."""
    with _open_binary(path, "wb") as sink:
        _write_all(sink, (json.dumps(report, indent=2, sort_keys=True) + "\n").encode())
        sink.flush()


def cmd_predict_stream(args: argparse.Namespace) -> int:
    """Fold frames line by line; the events of one input read leave in one write."""
    profile = ClassifierProfile(model_name="classifier", p_cnn=args.p_cnn)
    with warnings.catch_warnings(record=True) as caught:  # a long window warns
        config = pipeline.StreamConfig(
            profile=profile,
            capacity_n=args.window,
            auto_reset=args.auto_reset,
            frame_interval_seconds=args.frame_interval,
        )
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    with _open_binary(args.input, "rb") as source, _open_binary(args.output, "wb") as sink:
        batch = _Batch()

        def write_batch() -> None:
            if batch:
                data = "".join(batch).encode()
                batch.clear()
                _write_all(sink, data)
                sink.flush()

        def read(size: int) -> bytes:
            """Write the pending events first, so that none waits on the next input."""
            write_batch()
            return source.read1(size)

        if args.format == "csv":
            import csv

            writer = csv.writer(batch, lineterminator="\n")
            writer.writerow(pipeline.CSV_HEADER)
            encode, emit = pipeline.event_to_csv_row, writer.writerow
        else:
            encode, emit = pipeline.event_to_json, batch.append
        try:
            for event in pipeline.fold_lines(pipeline.read_lines(read, READ_BYTES), config):
                emit(encode(event))
        finally:
            write_batch()  # the last line's event, or those before a bad line
    return EXIT_OK


def _open_backend(spec: str, labels: Sequence[str]):
    """The backend named by --backend, as a context that closes what it started."""
    from .backends import ExternalBackend, MemorizingBackend

    if spec == "synthetic":
        return contextlib.nullcontext(MemorizingBackend(labels))
    if spec.startswith("external:"):
        return contextlib.closing(ExternalBackend(spec[len("external:"):], labels))
    raise ValueError(f"unknown backend {spec!r}")


def cmd_train(args: argparse.Namespace) -> int:
    from . import training
    from .backends import BackendError

    offline = training.load_manifest(args.offline_manifest)
    crossval = training.load_manifest(args.crossval_manifest)
    session = training.TrainingSession(
        offline_set=offline,
        crossval_set=crossval,
        q_threshold=args.q,
        max_retrain_rounds=args.max_retrain_rounds,
    )
    labels = sorted({label for _, label in offline + crossval})
    try:
        with _open_backend(args.backend, labels) as backend:
            training.run_session(session, backend)
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    report = training.session_report(session)
    _write_report(args.output, report)
    return EXIT_OK if report["quality_met"] else EXIT_QUALITY_NOT_MET


def cmd_ecti(args: argparse.Namespace) -> int:
    """ECTI per run; the model selected is the lowest-energy one whose ECTI is defined."""
    from . import energy

    results = []
    for run in args.run:
        meta_path, _, power_path = run.partition(",")
        if not power_path:
            raise ValueError(f"--run expects META.json,POWER.csv, got {run!r}")
        meta = energy.load_run_meta(meta_path, args.q)
        kw = energy.average_power(energy.load_power_csv(power_path))
        results.append(energy.compute_ecti(meta, kw))
    _write_report(args.output, {
        "models": [
            {
                "model": r.model_name,
                "ecti_kwh_per_image": r.kwh_per_image,
                "defined": r.defined,
                "accuracy": r.achieved_accuracy,
            }
            for r in results
        ],
        "selected": energy.select_model(results),
    })
    return EXIT_OK


def cmd_thermal(args: argparse.Namespace) -> int:
    from . import energy

    baseline = args.baseline_temp
    peak, mean, deviation = energy.thermal_summary(energy.load_thermal_csv(args.trace), baseline)
    _write_report(args.output, {
        "peak_c": peak,
        "mean_c": mean,
        "baseline_c": baseline,
        "deviation_c": deviation,
        "lifespan_reduction": {
            f"per_{int(interval)}c": energy.lifespan_reduction(peak, baseline, interval)
            for interval in energy.LIFESPAN_DOUBLING_INTERVALS
        },
    })
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command. An input or output error exits 2; only train maps
    its backend's failure (exit 4) itself. A reader that closes the output
    pipe chose to stop: that exits 0, silently."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at shutdown writes nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (OSError, ValueError, OverflowError) as exc:  # OverflowError: e.g. a huge power trace
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
