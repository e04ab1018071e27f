"""The bytes `framefuse predict-stream` writes, rebuilt from the paper's rule alone.

Nothing here imports framefuse, so a defect in the program's fold, argmax or
encoder cannot hide in the oracle as well. Per frame and label, with p_cnn
the classifier's accuracy:

    posterior = prior * score / (prior * score + p_cnn)

A window's first frame passes its own scores through. Each stream folds on
its own. With auto-reset on, a new window opens after `window` frames (never
for 0) and after any frame whose posteriors all lie below 1e-4.
"""

import csv
import io
import json

DEGENERATE_BELOW = 1e-4
CSV_HEADER = ["stream_id", "frame_id", "raw_label", "tmav_label", "degenerate"]


def best_label(scores):
    """The label of the highest score; a tie goes to the label that sorts first."""
    return min(scores, key=lambda label: (-scores[label], label))


def expected_records(lines, p_cnn, window, auto_reset, frame_interval):
    """One event record per frame line, in input order."""
    streams = {}  # stream_id -> (posteriors, frames in the window, frames seen)
    records = []
    for line in lines:
        frame = json.loads(line)
        stream_id, scores = frame["stream_id"], frame["scores"]
        posteriors, in_window, seen = streams.get(stream_id, (None, 0, 0))
        if in_window == 0:
            posteriors = scores
        else:
            posteriors = {label: posteriors[label] * scores[label]
                          / (posteriors[label] * scores[label] + p_cnn)
                          for label in posteriors}
        degenerate = all(value < DEGENERATE_BELOW for value in posteriors.values())
        record = {
            "stream_id": stream_id,
            "frame_id": frame["frame_id"],
            "raw_label": best_label(scores),
            "raw_scores": scores,
            "tmav_label": best_label(posteriors),
            "tmav_scores": posteriors,
            "degenerate": degenerate,
        }
        if frame_interval is not None:
            record["wall_time"] = frame_interval * seen
        records.append(record)
        in_window += 1
        if auto_reset and (degenerate or in_window == window):
            in_window = 0
        streams[stream_id] = posteriors, in_window, seen + 1
    return records


def expected_output(lines, fmt="jsonl", p_cnn=0.9893, window=3, auto_reset=True,
                    frame_interval=None):
    """predict-stream's stdout for these frame lines; the defaults are the CLI's."""
    records = expected_records(lines, p_cnn, window, auto_reset, frame_interval)
    if fmt == "jsonl":
        return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records).encode()
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([r["stream_id"], r["frame_id"], r["raw_label"], r["tmav_label"],
                         "true" if r["degenerate"] else "false"])
    return text.getvalue().encode()
