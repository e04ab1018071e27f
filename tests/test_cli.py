import contextlib
import gc
import io
import json
import math
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import framefuse
from framefuse.backends import BackendError
from framefuse.cli import main

from conftest import TABLE1_FRAMES, TABLE2_FRAMES
from scripted_backend import ScriptedAccuracyBackend
from stream_oracle import expected_output

FAKE_BACKEND = Path(__file__).resolve().parent / "fake_backend.py"
SRC_DIR = str(Path(framefuse.__file__).resolve().parents[1])


def run_cli(*argv):
    return main(list(argv))


def run_in_child(*argv, stdin=b"", env=None):
    """The CLI in a new interpreter, by default with this environment and the
    source on PYTHONPATH; stdout and stderr are bytes."""
    return subprocess.run([sys.executable, "-m", "framefuse.cli", *argv], input=stdin,
                          capture_output=True, env=env or dict(os.environ, PYTHONPATH=SRC_DIR),
                          timeout=60)


def modules_after_run(*argv):
    """The modules loaded by a run of the CLI in a new interpreter, which must exit 0.

    -S keeps site-packages' start-up hooks out of the module set.
    """
    script = (
        "import sys\n"
        "from framefuse.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "print(code, *sorted(sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR), timeout=30)
    code, *modules = proc.stdout.split()
    assert code == "0", proc.stderr
    return set(modules)


class TestPredictStream:
    def test_traffic_fixture_reproduces_published_values(self, fixtures_dir, tmp_path):
        out = tmp_path / "events.jsonl"
        code = run_cli(
            "predict-stream",
            "--input", str(fixtures_dir / "table1_traffic.jsonl"),
            "--output", str(out),
            "--p-cnn", "0.9893", "--no-auto-reset",
        )
        assert code == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert [e["tmav_label"] for e in events] == ["Fluid"] * 3
        assert events[1]["tmav_scores"]["Fluid"] == pytest.approx(0.1986, abs=1e-4)
        assert events[2]["tmav_scores"]["Fluid"] == pytest.approx(0.0524, abs=1e-4)

    def test_pedestrian_fixture(self, fixtures_dir, tmp_path):
        out = tmp_path / "events.jsonl"
        code = run_cli(
            "predict-stream",
            "--input", str(fixtures_dir / "table2_pedestrian.jsonl"),
            "--output", str(out),
            "--p-cnn", "0.7250", "--no-auto-reset",
        )
        assert code == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert [e["tmav_label"] for e in events] == ["Obstruction"] * 3
        assert events[1]["tmav_scores"]["Obstruction"] == pytest.approx(0.3166, abs=1e-4)
        assert events[2]["tmav_scores"]["No-Obstruction"] == pytest.approx(0.1047, abs=1e-4)

    def test_empty_input(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        out = tmp_path / "out.jsonl"
        assert run_cli("predict-stream", "--input", str(src), "--output", str(out)) == 0
        assert out.read_text() == ""

    def test_malformed_input_exits_schema(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"stream_id": "s", "frame_id": 1}\n')
        assert run_cli("predict-stream", "--input", str(src)) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        '{"stream_id": "s", "frame_id": 1e400, "scores": {"a": 0.5}}',
        '{"stream_id": "s", "frame_id": Infinity, "scores": {"a": 0.5}}',
        '{"stream_id": "s", "frame_id": 2.7, "scores": {"a": 0.5}}',
        '{"stream_id": "s", "frame_id": 2, "scores": {"a": true}}',
        "[" * 100_000,
    ], ids=["frame_id-1e400", "frame_id-Infinity", "frame_id-2.7", "bool-score", "nested-too-deep"])
    def test_bad_record_exits_schema_without_output(self, record, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text(record + "\n")
        assert run_cli("predict-stream", "--input", str(src)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 1: ")
        assert captured.out == ""

    @pytest.mark.parametrize("interval", ["nan", "inf", "-1", "0"])
    def test_bad_frame_interval_exits_schema(self, interval, fixtures_dir, capsys):
        code = run_cli("predict-stream", "--input", str(fixtures_dir / "table1_traffic.jsonl"),
                       "--frame-interval", interval)
        assert code == 2
        captured = capsys.readouterr()
        assert "frame interval" in captured.err
        assert captured.out == ""

    def test_csv_format(self, fixtures_dir, tmp_path):
        out = tmp_path / "events.csv"
        run_cli(
            "predict-stream", "--input", str(fixtures_dir / "table1_traffic.jsonl"),
            "--output", str(out), "--format", "csv", "--no-auto-reset",
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "stream_id,frame_id,raw_label,tmav_label,degenerate"
        assert lines[1] == "ucsd-traffic,1,Fluid,Fluid,false"
        assert len(lines) == 4

    def test_output_matches_in_process_run(self, fixtures_dir, tmp_path):
        out = tmp_path / "events.jsonl"
        run_cli(
            "predict-stream", "--input", str(fixtures_dir / "table1_traffic.jsonl"),
            "--output", str(out), "--p-cnn", "0.9893", "--window", "3",
        )
        cli_events = [json.loads(line) for line in out.read_text().splitlines()]
        lines = (fixtures_dir / "table1_traffic.jsonl").read_text().splitlines()
        direct = [json.loads(line) for line in
                  expected_output(lines, p_cnn=0.9893, window=3).splitlines()]
        assert [e["tmav_scores"] for e in cli_events] == [e["tmav_scores"] for e in direct]
        assert [e["frame_id"] for e in cli_events] == [e["frame_id"] for e in direct]


def frame_line(stream_id, frame_id, scores):
    return json.dumps({"stream_id": stream_id, "frame_id": frame_id, "scores": scores})


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
)
# JSON number tokens that no Python value dumps to.
json_tokens = json_values.map(json.dumps) | st.sampled_from(["1e400", "-1e400", "2.7", "1E2", "-0"])


def allowed_token(token, rule):
    """Whether the README schema allows this JSON token as a frame_id or a score."""
    value = json.loads(token)
    if rule == "frame_id":
        return value.__class__ is int
    return value.__class__ in (int, float) and 0 <= value <= 1


# Text that is Unicode: no lone surrogates.
unicode_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
wire_scores = st.floats(min_value=0.0, max_value=1.0) | st.integers(0, 1)


@st.composite
def fuzzed_inputs(draw):
    """Frame input lines, and True when the README schema allows every line,
    False when it rejects one, None when it cannot tell (arbitrary text).

    Allowed lines are records, blank lines and records ending in "\r"; each
    stream keeps one label set and increasing frame_ids. A fuzzed record on a
    stream of its own has its frame_id or one score swapped for any JSON token.
    """
    lines, verdict = [], True
    streams = {}  # stream_id -> (labels, last frame_id)
    for number in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["record", "record", "blank", "fuzzed", "text"]))
        if kind == "record":
            stream_id = draw(unicode_text)
            if stream_id in streams:
                labels, last = streams[stream_id]
                frame_id = last + draw(st.integers(1, 2**70))
            else:
                labels = draw(st.lists(unicode_text, min_size=1, max_size=3, unique=True))
                frame_id = draw(st.integers(-2**70, 2**70))
            streams[stream_id] = labels, frame_id
            scores = {label: draw(wire_scores) for label in labels}
            line = json.dumps({"stream_id": stream_id, "frame_id": frame_id, "scores": scores},
                              ensure_ascii=draw(st.booleans()))
            lines.append(line + draw(st.sampled_from(["", "\r"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\r"])))
        elif kind == "fuzzed":
            frame_id, score_a = "1", "0.5"
            if draw(st.booleans()):
                frame_id = draw(json_tokens)
            else:
                score_a = draw(json_tokens)
            lines.append('{"stream_id": "fuzzed-%d", "frame_id": %s, "scores": {"a": %s, "b": 0.5}}'
                         % (number, frame_id, score_a))
            if not (allowed_token(frame_id, "frame_id") and allowed_token(score_a, "score")):
                verdict = False
        else:
            lines.append(draw(st.text()))
            if verdict:
                verdict = None
    return lines, verdict


class TestStreaming:
    def test_interleaved_streams_emit_in_input_order(self, tmp_path):
        frames = {"cam-a": TABLE1_FRAMES, "cam-b": TABLE2_FRAMES}
        order = [("cam-a", 0), ("cam-b", 0), ("cam-b", 1), ("cam-a", 1), ("cam-a", 2),
                 ("cam-b", 2)]
        src = tmp_path / "frames.jsonl"
        src.write_text("".join(frame_line(sid, i + 1, frames[sid][i]) + "\n" for sid, i in order))
        out = tmp_path / "events.jsonl"
        assert run_cli("predict-stream", "--input", str(src), "--output", str(out)) == 0
        lines = out.read_text().splitlines(keepends=True)
        assert [(json.loads(l)["stream_id"], json.loads(l)["frame_id"]) for l in lines] == [
            (sid, i + 1) for sid, i in order
        ]
        for sid, stream_frames in frames.items():
            alone = [frame_line(sid, i + 1, scores) for i, scores in enumerate(stream_frames)]
            mine = "".join(l for l in lines if json.loads(l)["stream_id"] == sid)
            assert mine == expected_output(alone).decode()

    @pytest.mark.parametrize("bad_line", [
        frame_line("s", 1, {"a": 0.5, "b": 0.5}),  # frame_id not after 2
        frame_line("s", 3, {"a": 0.5, "c": 0.5}),  # label set changes mid-window
    ])
    def test_bad_frame_exits_schema_with_line_number(self, bad_line, tmp_path, capsys):
        src = tmp_path / "frames.jsonl"
        src.write_text("\n".join([
            frame_line("s", 1, {"a": 0.6, "b": 0.4}),
            frame_line("t", 1, {"a": 0.6, "b": 0.4}),
            frame_line("s", 2, {"a": 0.6, "b": 0.4}),
            bad_line,
        ]) + "\n")
        assert run_cli("predict-stream", "--input", str(src)) == 2
        captured = capsys.readouterr()
        assert "line 4" in captured.err
        # events for the frames before the bad line are already out
        assert len(captured.out.splitlines()) == 3

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_event_leaves_before_input_closes(self, unbuffered, fixtures_dir):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = SRC_DIR
        lines = (fixtures_dir / "table1_traffic.jsonl").read_text().splitlines()[:2]
        proc = subprocess.Popen(
            [sys.executable, "-m", "framefuse.cli", "predict-stream"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        try:
            for frame_id, line in enumerate(lines, start=1):
                proc.stdin.write(line.encode() + b"\n")
                proc.stdin.flush()
                readable, _, _ = select.select([proc.stdout], [], [], 10)
                assert readable, f"no event for frame {frame_id} before the next line was sent"
                assert json.loads(proc.stdout.readline())["frame_id"] == frame_id
            proc.stdin.close()
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_output_pipe_exits_ok_without_a_message(self, unbuffered, tmp_path):
        # The events (~3 MB) fill the pipe, so the CLI is still writing when
        # the reader closes it after one line, as `| head -1` does.
        src = tmp_path / "frames.jsonl"
        src.write_text("".join(frame_line(f"cam-{i % 7}", i, {"a": 0.25, "b": 0.75}) + "\n"
                               for i in range(1, 20_001)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = SRC_DIR
        proc = subprocess.Popen(
            [sys.executable, "-m", "framefuse.cli", "predict-stream", "--input", str(src)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert json.loads(proc.stdout.readline())["frame_id"] == 1
            proc.stdout.close()
            assert proc.wait(timeout=30) == 0
            assert proc.stderr.read() == b""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()

    def test_long_window_warns_in_one_line(self, fixtures_dir):
        frames = (fixtures_dir / "table1_traffic.jsonl").read_bytes()
        proc = run_in_child("predict-stream", "--window", "9", stdin=frames)
        assert proc.returncode == 0
        assert proc.stderr == (b"warning: frame window of 9 exceeds the recommended maximum of "
                               b"7; chained posteriors are likely to collapse\n")
        assert proc.stdout == expected_output(frames.decode().splitlines(), window=9)

    @staticmethod
    def run_in_fresh_interpreter(tmp_path, *flags):
        """One-frame predict-stream in a new interpreter: (modules loaded, output text)."""
        source = tmp_path / "one.jsonl"
        source.write_text(frame_line("cam-1", 1, {"b": 0.25, "a": 0.75}))
        out = tmp_path / "out"
        modules = modules_after_run("predict-stream", "--input", str(source),
                                    "--output", str(out), *flags)
        return modules, out.read_text()

    def test_loads_only_the_stream_core(self, tmp_path):
        modules, output = self.run_in_fresh_interpreter(tmp_path)
        assert json.loads(output)["tmav_label"] == "a"
        unwanted = {"dataclasses", "inspect", "logging", "csv", "numpy",
                    "framefuse.training", "framefuse.backends", "framefuse.energy"}
        assert unwanted.isdisjoint(modules), sorted(unwanted & modules)

    def test_csv_format_loads_csv_and_writes_the_same_rows(self, tmp_path):
        jsonl_modules, jsonl = self.run_in_fresh_interpreter(tmp_path)
        modules, output = self.run_in_fresh_interpreter(tmp_path, "--format", "csv")
        assert "csv" in modules - jsonl_modules
        event = json.loads(jsonl)
        assert output == (
            "stream_id,frame_id,raw_label,tmav_label,degenerate\n"
            f"{event['stream_id']},{event['frame_id']},{event['raw_label']},"
            f"{event['tmav_label']},{str(event['degenerate']).lower()}\n"
        )


class TestFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=fuzzed_inputs(), fmt=st.sampled_from(["jsonl", "csv"]))
    def test_any_input_exits_ok_or_schema(self, data, fmt, tmp_path):
        lines, verdict = data
        src = tmp_path / "frames.jsonl"
        # surrogatepass: a lone surrogate becomes bytes that are not UTF-8.
        src.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
        code = run_cli("predict-stream", "--input", str(src), "--output", os.devnull,
                       "--format", fmt)
        if verdict is None:
            assert code in (0, 2)
        else:
            assert code == (0 if verdict else 2)


# Labels with non-ASCII text, "%" (the encoder's template character), and the
# characters JSON and CSV quote.
oracle_labels = st.text(alphabet=st.sampled_from('ab%é日🎥",\\'), max_size=3)
# Mostly scores that keep a chain alive for a window or more; now and then 0
# or 1 written as a JSON integer, or a near-zero score that collapses the chain.
# Exact ties come from repeats.
oracle_scores = st.one_of(
    st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0),
    st.sampled_from([0, 1, 0.5, 0.25, 1e-3, 1e-5, 1e-9, 5e-324]) | st.floats(0.0, 1.0),
)


@st.composite
def oracle_streams(draw):
    """Frame lines from 1-6 interleaved streams, each with gaps in its frame_ids
    and all with one label set."""
    labels = draw(st.lists(oracle_labels, min_size=1, max_size=5, unique=True))
    stream_ids = draw(st.lists(oracle_labels, min_size=1, max_size=6, unique=True))
    next_id = {stream_id: draw(st.integers(-2, 2)) for stream_id in stream_ids}
    rows = st.lists(oracle_scores, min_size=len(labels), max_size=len(labels))
    tied_rows = oracle_scores.map(lambda score: [score] * len(labels))
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        stream_id = draw(st.sampled_from(stream_ids))
        frame_id = next_id[stream_id]
        next_id[stream_id] += draw(st.integers(1, 3))
        scores = dict(zip(labels, draw(rows | tied_rows)))
        lines.append(json.dumps({"stream_id": stream_id, "frame_id": frame_id, "scores": scores},
                                ensure_ascii=draw(st.booleans())))
    return lines


class TestByteOracle:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=oracle_streams(), window=st.integers(0, 8), auto_reset=st.booleans(),
           interval=st.sampled_from([None, "0.04", repr(1 / 3)]),
           p_cnn=st.floats(0.01, 1.0) | st.just(1.0), fmt=st.sampled_from(["jsonl", "csv"]))
    def test_output_bytes_match_the_oracle(self, lines, window, auto_reset, interval, p_cnn,
                                           fmt, tmp_path):
        src, out = tmp_path / "frames.jsonl", tmp_path / "events"
        src.write_text("".join(line + "\n" for line in lines))
        argv = ["predict-stream", "--input", str(src), "--output", str(out), "--format", fmt,
                "--window", str(window), "--p-cnn", repr(p_cnn),
                "--auto-reset" if auto_reset else "--no-auto-reset"]
        if interval is not None:
            argv += ["--frame-interval", interval]
        assert main(argv) == 0
        assert out.read_bytes() == expected_output(
            lines, fmt, p_cnn, window, auto_reset, None if interval is None else float(interval))


VALID_META = {"model": "m", "duration_s": 5864, "image_count": 360, "accuracy": 0.9, "q": 0.7}


# Values next to the metadata type rules: bools, numbers that are not
# integers, numeric strings, and numbers out of every field's range.
META_EDGES = [True, False, 2.7, "360", None, ["m"], 0, 1, -1, 1e300, 10**400, math.inf, math.nan]


@st.composite
def fuzzed_meta(draw):
    """Run metadata with each field kept, dropped, or swapped for any JSON value."""
    meta = {}
    for name, valid in VALID_META.items():
        fate = draw(st.integers(0, 15))
        if fate > 3:
            meta[name] = valid
        elif fate > 0:
            meta[name] = draw(st.sampled_from(META_EDGES) | json_values)
    return meta


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


# Trace cells next to the number rule: Python-only spellings, JSON constants,
# numbers beyond a float, padding and an empty cell.
TRACE_EDGES = ["7_0", "1_00", "+1", "nan", "inf", "NaN", "-Infinity", "0x10", "1.", ".5",
               "1e400", "1" + "0" * 400, " 93.6 ", "-0", ""]
trace_edges = st.sampled_from(TRACE_EDGES) | json_values.map(json.dumps)
trace_numbers = st.integers(-30, 160).map(str) | st.floats(-30, 160).map(repr)


@st.composite
def trace_rows(draw):
    """The rows of a trace CSV: rising timestamps and numbers near the plausible
    range, and now and then a cell swapped for an edge."""
    rows = []
    for number in range(draw(st.integers(0, 6))):
        cells = [str(10 * number), draw(trace_numbers)]
        cells = [draw(trace_edges) if draw(st.integers(0, 7)) == 0 else cell for cell in cells]
        rows.append(",".join(cells) + "\n")
    return "".join(rows)


def is_strict_json_number(cell):
    try:
        value = json.loads(cell, parse_constant=reject_constant)
    except ValueError:
        return False
    return value.__class__ in (int, float)


def check_report_or_schema(code, captured, rows):
    """Exit 0 with strict JSON, every trace cell a JSON number; or exit 2 with an error."""
    if code == 0:
        assert all(is_strict_json_number(cell)
                   for row in rows.splitlines() for cell in row.split(","))
        return json.loads(captured.out, parse_constant=reject_constant)
    assert code == 2
    assert captured.err.startswith("error: ") and captured.out == ""
    return None


class PieceSource:
    """A binary source whose read1 returns pieces of the drawn sizes, then up to n bytes."""

    def __init__(self, data, sizes=()):
        self.data = data
        self.sizes = list(sizes)
        self.reads = 0

    def read1(self, n):
        self.reads += 1
        size = min(self.sizes.pop(0) if self.sizes else n, n)
        piece, self.data = self.data[:size], self.data[size:]
        return piece


class ShortWriteSink(io.BytesIO):
    """A sink that counts writes and, like a raw file, may take only part of one."""

    def __init__(self, limit=None):
        super().__init__()
        self.limit = limit
        self.writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(bytes(data)[:self.limit])


def run_on_pipes(data, *argv, sizes=(), limit=None):
    """Run predict-stream on stdin/stdout stand-ins: (exit code, output, reads, writes)."""
    source, sink = PieceSource(data, sizes), ShortWriteSink(limit)
    with mock.patch.multiple(sys, stdin=SimpleNamespace(buffer=source),
                             stdout=SimpleNamespace(buffer=sink)):
        code = main(["predict-stream", *argv])
    return code, sink.getvalue(), source.reads, sink.writes


# Python-level calls per frame that predict-stream made when this guard was set,
# counted as below. A change that adds a call to the per-frame path fails here
# without timing anything; one that removes calls may lower the figure.
CALLS_PER_FRAME = 7.41  # 2000 calls over 270 frames; 14.74 before the value-tuple fold


def test_per_frame_python_calls_are_bounded():
    def frames(count):  # 3 interleaved streams, 4 labels
        return "".join(
            '{"stream_id": "cam-%d", "frame_id": %d, "scores": {"Empty": %r, "Fluid": %r, '
            '"Heavy": 0.25, "Jam": 0.125}}\n' % (i % 3, i // 3 + 1, i * 37 % 100 / 100,
                                                 1 - i * 37 % 100 / 100)
            for i in range(count)).encode()

    def calls(count):
        counted = 0

        def profile(frame, event, arg):
            nonlocal counted
            counted += event == "call"

        data = frames(count)
        gc.collect()  # no finalizer of another test's garbage runs while counting
        gc.disable()
        sys.setprofile(profile)
        try:
            code, out, _, _ = run_on_pipes(data)
        finally:
            sys.setprofile(None)
            gc.enable()
        assert (code, len(out.splitlines())) == (0, count)
        return counted

    calls(30)  # warm the label-set cache
    assert (calls(300) - calls(30)) / 270 <= CALLS_PER_FRAME


# Stream ids and labels whose UTF-8 spans 1 to 4 bytes, so reads cut characters.
wide_text = st.sampled_from(["cam", "é", "日本", "🎥", "a%b"])


@st.composite
def split_inputs(draw):
    """(input, valid): frames from a few streams, written raw (not \\u-escaped) with
    \\n or \\r\\n, a blank line now and then, maybe one bad line, maybe no final newline."""
    labels = draw(st.lists(wide_text, min_size=1, max_size=3, unique=True))
    next_id = {}
    lines = []
    for stream_id in draw(st.lists(wide_text, max_size=12)):
        frame_id = next_id[stream_id] = next_id.get(stream_id, 0) + 1
        scores = {label: draw(st.floats(0.0, 1.0)) for label in labels}
        record = {"stream_id": stream_id, "frame_id": frame_id, "scores": scores}
        lines.append(json.dumps(record, ensure_ascii=False).encode())
        if draw(st.integers(0, 9)) == 0:
            lines.append(b"")
    valid = not (lines and draw(st.booleans()))
    if not valid:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([b"\xff", b"{"])))
    ending = draw(st.sampled_from([b"\n", b"\r\n"]))
    return ending.join(lines) + (ending if draw(st.booleans()) else b""), valid


class TestInputReads:
    @settings(max_examples=200, deadline=None)
    @given(split=split_inputs(), sizes=st.lists(st.integers(1, 64), max_size=40),
           limit=st.none() | st.integers(1, 50), fmt=st.sampled_from(["jsonl", "csv"]))
    def test_output_does_not_depend_on_read_sizes(self, split, sizes, limit, fmt):
        data, valid = split
        whole = run_on_pipes(data, "--format", fmt)
        assert whole[0] == (0 if valid else 2)
        assert whole[2] <= 2  # the whole input in one read, then end of input
        pieces = run_on_pipes(data, "--format", fmt, sizes=sizes, limit=limit)
        assert pieces[:2] == whole[:2]

    def test_closed_batch_takes_one_write_per_read(self):
        frames = [frame_line(f"cam-{i % 7}", i, {"a": 0.25, "b": 0.75}) for i in range(1, 501)]
        code, out, reads, writes = run_on_pipes(("\n".join(frames) + "\n").encode())
        assert code == 0
        assert len(out.splitlines()) == 500
        assert reads > 2
        assert writes <= reads + 1

    def test_input_from_file_reads_bytes_too(self, tmp_path):
        src = tmp_path / "frames.jsonl"
        data = (frame_line("é", 1, {"日本": 0.5}) + "\r\n").encode()
        src.write_bytes(data)
        out = tmp_path / "events.jsonl"
        assert run_cli("predict-stream", "--input", str(src), "--output", str(out)) == 0
        assert out.read_bytes() == run_on_pipes(data)[1]


def file_or_stdin(tmp_path, data, source):
    """(exit code, output) of predict-stream on `data` given as --input or on stdin."""
    if source == "stdin":
        return run_on_pipes(data)[:2]
    src, out = tmp_path / "frames.jsonl", tmp_path / "events.jsonl"
    src.write_bytes(data)
    code = run_cli("predict-stream", "--input", str(src), "--output", str(out))
    return code, out.read_bytes()


@pytest.mark.parametrize("source", ["file", "stdin"])
class TestInputRules:
    good = frame_line("s", 1, {"a": 0.5, "b": 0.5}).encode()

    def test_line_that_is_not_utf8_names_its_line(self, source, tmp_path, capsys):
        bad = b'{"stream_id": "s\xff", "frame_id": 2, "scores": {"a": 0.5, "b": 0.5}}'
        code, out = file_or_stdin(tmp_path, self.good + b"\n" + bad + b"\n", source)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: line 2: not UTF-8")
        assert [json.loads(line)["frame_id"] for line in out.splitlines()] == [1]

    def test_records_end_at_newline_only(self, source, tmp_path, capsys):
        later = frame_line("s", 2, {"a": 0.5, "b": 0.5}).encode()
        code, out = file_or_stdin(tmp_path, self.good + b"\r\n" + later + b"\r\n", source)
        assert code == 0  # JSON skips the "\r" of "\r\n"
        assert [json.loads(line)["frame_id"] for line in out.splitlines()] == [1, 2]
        code, out = file_or_stdin(tmp_path, self.good + b"\r" + later + b"\n", source)
        assert code == 2  # a bare "\r" ends no record
        assert capsys.readouterr().err.startswith("error: line 1: invalid JSON")
        assert out == b""

    @pytest.mark.parametrize("stream_id", ["null", "5", "true", '["s"]'])
    def test_stream_id_must_be_a_json_string(self, source, stream_id, tmp_path, capsys):
        record = '{"stream_id": %s, "frame_id": 1, "scores": {"a": 0.5}}' % stream_id
        code, out = file_or_stdin(tmp_path, self.good + b"\n" + record.encode(), source)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: line 2: stream_id must be a string")
        assert len(out.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
class TestLoneSurrogates:
    @pytest.mark.parametrize("record", [
        r'{"stream_id": "s", "frame_id": 1, "scores": {"\ud800": 0.5}}',
        r'{"stream_id": "\uDFFF", "frame_id": 1, "scores": {"a": 0.5}}',
        r'{"stream_id": "s", "frame_id": 1, "scores": {"a": 0.5, "x\ude00": 0.5}}',
    ], ids=["label", "stream_id", "low-half-label"])
    def test_rejected_with_line_number_in_both_formats(self, fmt, record, capsys):
        first = frame_line("t", 1, {"a": 0.5})
        code, out, _, _ = run_on_pipes(f"{first}\n{record}\n".encode(), "--format", fmt)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: line 2: ")
        assert len(out.splitlines()) == (2 if fmt == "csv" else 1)  # the csv header, too

    def test_surrogate_pair_is_one_character(self, fmt):
        record = r'{"stream_id": "\ud83c\udfa5", "frame_id": 1, "scores": {"\ud83d\ude00": 1.0}}'
        code, out, _, _ = run_on_pipes(record.encode(), "--format", fmt)
        assert code == 0
        assert ("\U0001f3a5" if fmt == "csv" else r"\ud83c\udfa5") in out.decode()


# Lines that are not one bare JSON object, and their results, recorded from the
# parser that ran json.loads on every line. The line under test is line 2: after
# a frame of stream "s" and before a frame of stream "t".
FRAME_S1 = ('{"degenerate": false, "frame_id": 1, "raw_label": "a", "raw_scores": '
            '{"a": 0.5, "b": 0.25}, "stream_id": "s", "tmav_label": "a", "tmav_scores": '
            '{"a": 0.5, "b": 0.25}}\n')
FRAME_S2 = ('{"degenerate": false, "frame_id": 2, "raw_label": "a", "raw_scores": '
            '{"a": 0.5, "b": 0.25}, "stream_id": "s", "tmav_label": "a", "tmav_scores": '
            '{"a": 0.2017267812474784, "b": 0.05942194333523483}}\n')
FRAME_T1 = ('{"degenerate": false, "frame_id": 1, "raw_label": "a", "raw_scores": {"a": 1}, '
            '"stream_id": "t", "tmav_label": "a", "tmav_scores": {"a": 1}}\n')
RECORD_S2 = '{"stream_id": "s", "frame_id": 2, "scores": {"a": 0.5, "b": 0.25}}'
PARSE_CASES = {
    "leading-spaces": ("  " + RECORD_S2, 0, FRAME_S1 + FRAME_S2 + FRAME_T1, ""),
    "trailing-cr": (RECORD_S2 + "\r", 0, FRAME_S1 + FRAME_S2 + FRAME_T1, ""),
    "bom": ("\ufeff" + RECORD_S2, 2, FRAME_S1,
            "error: line 2: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)\n"),
    "extra-data": (RECORD_S2 + " " + RECORD_S2, 2, FRAME_S1,
                   "error: line 2: invalid JSON: Extra data: line 1 column 68 (char 67)\n"),
    "list": ("[1]", 2, FRAME_S1, "error: line 2: record must be a JSON object\n"),
    "string": ('"s"', 2, FRAME_S1, "error: line 2: record must be a JSON object\n"),
    "deep": ("[" * 100_000 + "]" * 100_000, 2, FRAME_S1,
             "error: line 2: invalid JSON: maximum recursion depth exceeded while decoding "
             "a JSON array from a unicode string\n"),
    "duplicate-scores": (
        '{"stream_id": "s", "frame_id": 2, "scores": {"a": 0.5}, '
        '"scores": {"a": 0.25, "b": 1}}', 0,
        FRAME_S1 + '{"degenerate": false, "frame_id": 2, "raw_label": "b", "raw_scores": '
        '{"a": 0.25, "b": 1}, "stream_id": "s", "tmav_label": "b", "tmav_scores": '
        '{"a": 0.1121780489993718, "b": 0.2017267812474784}}\n' + FRAME_T1, ""),
    "nan": ('{"stream_id": "s", "frame_id": 2, "scores": {"a": NaN, "b": 0.25}}', 2, FRAME_S1,
            "error: line 2: score[a] must be a number in [0, 1], got nan\n"),
    "infinity": ('{"stream_id": "s", "frame_id": 2, "scores": {"a": 0.5, "b": Infinity}}', 2,
                 FRAME_S1, "error: line 2: score[b] must be a number in [0, 1], got inf\n"),
    "surrogate-label": (r'{"stream_id": "s", "frame_id": 2, "scores": {"\ud800": 0.5}}', 2,
                        FRAME_S1, "error: line 2: '\\ud800' holds a lone surrogate, "
                        "which is not Unicode text\n"),
    "surrogate-stream_id": (r'{"stream_id": "\ud800", "frame_id": 2, "scores": {"a": 0.5}}', 2,
                            FRAME_S1, "error: line 2: '\\ud800' holds a lone surrogate, "
                            "which is not Unicode text\n"),
    "extra-fields": ('{"frame_id": 2, "camera": [1, {"x": null}], "stream_id": "s", '
                     '"scores": {"b": 0.25, "a": 0.5}, "t": 1.5}', 0,
                     FRAME_S1 + FRAME_S2 + FRAME_T1, ""),
    "blank": ("", 0, FRAME_S1 + FRAME_T1, ""),
}


@pytest.mark.parametrize("line,code,stdout,stderr", PARSE_CASES.values(), ids=PARSE_CASES)
def test_line_parse_results_are_pinned(line, code, stdout, stderr, capsys):
    data = "\n".join(['{"stream_id": "s", "frame_id": 1, "scores": {"a": 0.5, "b": 0.25}}',
                      line, '{"stream_id": "t", "frame_id": 1, "scores": {"a": 1}}', ""])
    assert run_on_pipes(data.encode())[:2] == (code, stdout.encode())
    assert capsys.readouterr() == ("", stderr)


# Manifest headers: the right one, in another order or with an extra column,
# misnamed, missing (a data row in its place), empty, or after a BOM.
MANIFEST_HEADERS = ["path,label", "label,path", "path,label,extra", "path", "file,cat",
                    "a.jpg,Fluid", "", "\ufeffpath,label"]
# Manifest cells next to the CSV rules: empty, quoted, holding a comma, a quote or
# "\r", and one longer than the csv module's field limit.
MANIFEST_EDGES = ["", " ", '"', '""', '"a,b"', "a,b", 'a"b', "a\rb", "\r", '"x\r\ny"', "\ufeff",
                  "x" * 131_073]
plain_cells = st.sampled_from(["a.jpg", "b.jpg", "c.jpg", "Fluid", "Jam", "é"])
edge_cells = st.sampled_from(MANIFEST_EDGES) | st.text(max_size=4)


@st.composite
def manifest_files(draw):
    """The bytes of a manifest: a path,label header and rows of a path and a label,
    each drawn from a few plain cells. Now and then the header is another, a row
    has an edge cell in place of a plain one or a third cell, or a byte is not UTF-8."""
    header = MANIFEST_HEADERS[0]
    if draw(st.integers(0, 4)) == 0:
        header = draw(st.sampled_from(MANIFEST_HEADERS))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(plain_cells), draw(plain_cells)]
        if draw(st.integers(0, 5)) == 0:
            cells.insert(draw(st.integers(0, 2)), draw(edge_cells))
            if draw(st.booleans()):
                cells.pop(draw(st.integers(0, 2)))
        rows.append(",".join(cells))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    data = ending.join([header, *rows]).encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


class TestTrain:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(offline=manifest_files(), crossval=manifest_files())
    def test_any_manifest_exits_with_a_report_or_schema(self, offline, crossval, tmp_path,
                                                        capsys):
        paths = tmp_path / "offline.csv", tmp_path / "crossval.csv"
        paths[0].write_bytes(offline)
        paths[1].write_bytes(crossval)
        code = run_cli("train", "--offline-manifest", str(paths[0]),
                       "--crossval-manifest", str(paths[1]), "--backend", "synthetic",
                       "--output", "-")
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err.startswith("error: ") and captured.out == ""
        else:
            assert code in (0, 3)
            report = json.loads(captured.out, parse_constant=reject_constant)
            assert report["quality_met"] is (code == 0)

    @pytest.fixture
    def manifests(self, tmp_path):
        labels = ["Empty", "Fluid", "Heavy", "Jam"]
        offline = tmp_path / "offline.csv"
        crossval = tmp_path / "crossval.csv"
        rows = [(f"img{i}.jpg", labels[i % 4]) for i in range(20)]
        offline.write_text("path,label\n" + "\n".join(f"{p},{l}" for p, l in rows) + "\n")
        crossval.write_text("path,label\n" + "\n".join(f"{p},{l}" for p, l in rows) + "\n")
        return offline, crossval

    def test_synthetic_backend_completes(self, manifests, tmp_path):
        offline, crossval = manifests
        report_path = tmp_path / "report.json"
        code = run_cli(
            "train", "--offline-manifest", str(offline),
            "--crossval-manifest", str(crossval), "--output", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["quality_met"] is True
        assert report["final_accuracy"] == 1.0

    def test_external_backend_over_wire(self, manifests, tmp_path):
        offline, crossval = manifests
        report_path = tmp_path / "report.json"
        code = run_cli(
            "train", "--offline-manifest", str(offline),
            "--crossval-manifest", str(crossval), "--output", str(report_path),
            "--backend", f"external:{sys.executable} {FAKE_BACKEND}",
        )
        assert code == 0
        assert json.loads(report_path.read_text())["quality_met"] is True

    def test_quality_not_met_exit_code(self, manifests, tmp_path):
        offline, crossval = manifests
        report_path = tmp_path / "report.json"
        code = run_cli(
            "train", "--offline-manifest", str(offline),
            "--crossval-manifest", str(crossval), "--output", str(report_path),
            "--backend", f"external:{sys.executable} {FAKE_BACKEND} --wrong",
        )
        assert code == 3
        report = json.loads(report_path.read_text())
        assert report["quality_met"] is False
        assert report["best_accuracy"] == pytest.approx(0.25)

    def test_bad_manifest_exits_schema(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("file,cat\nx,y\n")
        assert run_cli("train", "--offline-manifest", str(bad),
                       "--crossval-manifest", str(bad)) == 2

    def test_unreachable_backend_exits_backend_failure(self, manifests):
        offline, crossval = manifests
        code = run_cli(
            "train", "--offline-manifest", str(offline),
            "--crossval-manifest", str(crossval),
            "--backend", "external:no-such-binary-zzz",
        )
        assert code == 4

    def test_nan_scores_exit_backend_failure(self, manifests, capsys):
        offline, crossval = manifests
        code = run_cli(
            "train", "--offline-manifest", str(offline),
            "--crossval-manifest", str(crossval),
            "--backend", f"external:{sys.executable} {FAKE_BACKEND} --nan",
        )
        assert code == 4
        assert "not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,message", [
        ("--list-reply", "not a JSON object"),
        ("--bad-utf8", "not UTF-8"),
    ])
    def test_reply_that_is_not_a_utf8_json_object_exits_backend_failure(
            self, flag, message, manifests, capsys):
        offline, crossval = manifests
        code = run_cli(
            "train", "--offline-manifest", str(offline),
            "--crossval-manifest", str(crossval),
            "--backend", f"external:{sys.executable} {FAKE_BACKEND} {flag}",
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_empty_backend_command_exits_schema(self, manifests, capsys):
        offline, crossval = manifests
        code = run_cli(
            "train", "--offline-manifest", str(offline),
            "--crossval-manifest", str(crossval), "--backend", "external:",
        )
        assert code == 2
        assert capsys.readouterr().err == "error: backend command is empty\n"

    def test_foreign_labels_exit_backend_failure(self, manifests, capsys):
        offline, crossval = manifests
        code = run_cli(
            "train", "--offline-manifest", str(offline),
            "--crossval-manifest", str(crossval),
            "--backend", f"external:{sys.executable} {FAKE_BACKEND} --foreign",
        )
        assert code == 4
        assert "lacks labels" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [
        ("--q", "1.5"), ("--q", "nan"), ("--q", "0"), ("--max-retrain-rounds", "-1"),
    ])
    def test_bad_bounds_exit_schema_before_the_backend_starts(self, bound, manifests, capsys):
        offline, crossval = manifests
        code = run_cli(
            "train", "--offline-manifest", str(offline),
            "--crossval-manifest", str(crossval),
            "--backend", "external:no-such-binary-zzz", *bound,
        )
        assert code == 2
        assert "must be" in capsys.readouterr().err

    def test_loads_neither_typing_nor_pathlib(self, manifests, tmp_path):
        offline, crossval = manifests
        report = tmp_path / "report.json"
        modules = modules_after_run("train", "--offline-manifest", str(offline),
                                    "--crossval-manifest", str(crossval),
                                    "--backend", "synthetic", "--output", str(report))
        assert json.loads(report.read_text())["quality_met"] is True
        assert {"typing", "pathlib"}.isdisjoint(modules), sorted({"typing", "pathlib"} & modules)

    @pytest.mark.parametrize("backend,code,stderr", [
        (f"{sys.executable} {FAKE_BACKEND} --hang", 4,
         "error: backend failed mid-validation after 0 of 20 items (0 correct): "
         "no reply within 0.5 s\n"),
        # A hello reply waits out the server's model load, however long.
        (f"sh -c 'sleep 1 && exec {sys.executable} {FAKE_BACKEND}'", 0, ""),
    ], ids=["silent-predict", "slow-hello"])
    def test_reply_deadline_bounds_predict_only(self, backend, code, stderr, manifests):
        # The CLI runs in a child with a 0.5 s predict deadline. After main returns,
        # the child reports any process of its own left unreaped; -W shows any
        # pipe left open.
        script = (
            "import gc, os, sys\n"
            "from framefuse import backends\n"
            "from framefuse.cli import main\n"
            "backends.REPLY_TIMEOUT_S = 0.5\n"
            "code = main(sys.argv[1:])\n"
            "gc.collect()\n"
            "try:\n"
            "    print('left behind:', os.waitpid(-1, os.WNOHANG), file=sys.stderr)\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "sys.exit(code)\n"
        )
        offline, crossval = manifests
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-W", "always::ResourceWarning", "-c", script, "train",
             "--offline-manifest", str(offline), "--crossval-manifest", str(crossval),
             "--backend", f"external:{backend}"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR),
            timeout=10,
        )
        assert (proc.returncode, proc.stderr) == (code, stderr)
        assert time.monotonic() - start < 5

    def test_zero_rounds_never_retrains(self, manifests, tmp_path):
        offline, crossval = manifests
        report_path = tmp_path / "report.json"
        code = run_cli(
            "train", "--offline-manifest", str(offline),
            "--crossval-manifest", str(crossval), "--output", str(report_path),
            "--backend", f"external:{sys.executable} {FAKE_BACKEND} --wrong",
            "--max-retrain-rounds", "0",
        )
        assert code == 3
        report = json.loads(report_path.read_text())
        assert report["phases"] == ["offline", "online_validation", "done"]
        assert report["accuracy_history"] == [0.25]

    def test_failed_retrain_names_its_round(self, manifests, capsys):
        class RetrainFails(ScriptedAccuracyBackend):
            """Validates at 0.5, so a round retrains; the second train call raises."""

            def train(self, items):
                if self.train_calls == 1:
                    raise BackendError("connection reset")
                return super().train(items)

        offline, crossval = manifests
        refs = [f"img{i}.jpg" for i in range(20)]
        labels = ["Empty", "Fluid", "Heavy", "Jam"]
        backend = RetrainFails({ref: labels[i % 4] for i, ref in enumerate(refs)}, labels, [0.5])
        with mock.patch("framefuse.cli._open_backend",
                        return_value=contextlib.nullcontext(backend)):
            code = run_cli("train", "--offline-manifest", str(offline),
                           "--crossval-manifest", str(crossval), "--max-retrain-rounds", "2")
        assert (code, backend.train_calls) == (4, 1)
        assert capsys.readouterr().err == (
            "error: retrain round 1 training failed: connection reset\n")


def report_argv(command, fixtures_dir, tmp_path):
    """The arguments of a report command that exits 0 on the fixtures."""
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label\na.jpg,Fluid\nb.jpg,Jam\n")
    return [command, *{
        "train": ["--offline-manifest", str(manifest), "--crossval-manifest", str(manifest)],
        "ecti": ["--run", f"{fixtures_dir / 'vgg16_meta.json'},{fixtures_dir / 'vgg16_power.csv'}"],
        "thermal": ["--trace", str(fixtures_dir / "vgg16_thermal.csv"), "--baseline-temp", "69.24"],
    }[command]]


@pytest.mark.parametrize("command", ["train", "ecti", "thermal"])
def test_unwritable_output_exits_schema(command, fixtures_dir, tmp_path, capsys):
    argv = report_argv(command, fixtures_dir, tmp_path)
    assert run_cli(*argv, "--output", str(tmp_path / "missing" / "r.json")) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["train", "ecti", "thermal"])
def test_report_to_a_closed_pipe_exits_ok_without_a_message(command, fixtures_dir, tmp_path):
    # Buffered stdout, so that the report is still in the buffer when the command returns.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC_DIR
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "framefuse.cli", *report_argv(command, fixtures_dir, tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("command,argv,code,message", [
    ("predict-stream", ["--input", "{tmp}/missing.jsonl"], 2, "missing.jsonl"),
    ("predict-stream", ["--input", "{tmp}/deep.json"], 2, "line 1"),
    ("ecti", ["--run", "{tmp}/missing.json,{fixtures}/vgg16_power.csv"], 2, "missing.json"),
    ("ecti", ["--run", "{tmp}/deep.json,{fixtures}/vgg16_power.csv"], 2, "nested too deep"),
    ("ecti", ["--run", "{tmp}/huge.json,{fixtures}/vgg16_power.csv"], 2, "huge.json: duration_s"),
    ("train", ["--offline-manifest", "{tmp}/missing.csv", "--crossval-manifest",
               "{tmp}/missing.csv"], 2, "missing.csv"),
    ("train", ["--offline-manifest", "{tmp}/manifest.csv", "--crossval-manifest",
               "{tmp}/manifest.csv", "--backend",
               f"external:{sys.executable} {FAKE_BACKEND} --deep-reply"], 4, "nested too deep"),
    ("thermal", ["--trace", "{tmp}/missing.csv", "--baseline-temp", "69.24"], 2, "missing.csv"),
    ("ecti", ["--run", "{tmp}/bad.json,{fixtures}/vgg16_power.csv"], 2,
     "bad.json: Expecting property name"),
    ("ecti", ["--run", "{tmp}/not-utf8.json,{fixtures}/vgg16_power.csv"], 2,
     "not-utf8.json: 'utf-8' codec can't decode"),
    ("thermal", ["--trace", "{tmp}/underscore.csv", "--baseline-temp", "69.24"], 2,
     "underscore.csv: line 2: '7_0' is not a JSON number"),
    ("ecti", ["--run", "{fixtures}/vgg16_meta.json,{fixtures}/vgg16_power.csv", "--q", "1.5"], 2,
     "q_threshold"),
    ("thermal", ["--trace", "{tmp}/not-utf8.csv", "--baseline-temp", "69.24"], 2,
     "not-utf8.csv: line 3: not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    ("ecti", ["--run", "{fixtures}/vgg16_meta.json,{tmp}/not-utf8-power.csv"], 2,
     "not-utf8-power.csv: line 2: not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    ("train", ["--offline-manifest", "{tmp}/manifest.csv", "--crossval-manifest",
               "{tmp}/not-utf8-manifest.csv"], 2,
     "not-utf8-manifest.csv: 'utf-8' codec can't decode byte 0xff"),
    ("train", ["--offline-manifest", "{tmp}/wide-manifest.csv", "--crossval-manifest",
               "{tmp}/manifest.csv"], 2, "wide-manifest.csv: field larger than field limit"),
    ("predict-stream", ["--input", "{tmp}/manifest.csv", "--window", "-1"], 2,
     "capacity_n (the window) must be >= 0, got -1"),
], ids=["stream-missing", "stream-deep", "ecti-missing", "ecti-deep-meta", "ecti-huge-int",
        "train-missing", "train-deep-reply", "thermal-missing", "ecti-meta-not-json",
        "ecti-meta-not-utf8", "thermal-underscore-cell", "ecti-q-above-1",
        "thermal-trace-not-utf8", "ecti-power-trace-not-utf8", "train-manifest-not-utf8",
        "train-manifest-cell-over-csv-limit", "stream-negative-window"])
def test_bad_input_exits_its_code_without_traceback(command, argv, code, message, fixtures_dir,
                                                    tmp_path):
    (tmp_path / "deep.json").write_text("[" * 100_000 + "\n")
    (tmp_path / "bad.json").write_text("{bad")
    (tmp_path / "not-utf8.json").write_bytes(b"\xff\xfe")
    (tmp_path / "underscore.csv").write_text("timestamp_s,celsius\n0,7_0\n1, 8_0 \n")
    (tmp_path / "huge.json").write_text(
        f'{{"model": "m", "duration_s": {10**400}, "image_count": 360, "accuracy": 0.9}}')
    (tmp_path / "manifest.csv").write_text("path,label\na.jpg,Fluid\nb.jpg,Jam\n")
    (tmp_path / "not-utf8.csv").write_bytes(b"timestamp_s,celsius\n0,69.5\n1,7\xff0\n")
    (tmp_path / "not-utf8-power.csv").write_bytes(b"timestamp_s,watts\n0,1\xff\n1,10\n")
    (tmp_path / "not-utf8-manifest.csv").write_bytes(b"path,label\na.jpg,Fl\xffuid\n")
    (tmp_path / "wide-manifest.csv").write_text("path,label\na.jpg," + "x" * 200_000 + "\n")
    argv = [arg.format(tmp=tmp_path, fixtures=fixtures_dir) for arg in argv]
    proc = run_in_child(command, *argv)
    stderr = proc.stderr.decode()
    assert proc.returncode == code, stderr
    assert stderr.startswith("error: ") and "Traceback" not in stderr
    assert message in stderr


@pytest.mark.parametrize("source,argv", [
    ("vgg16_power.csv", ["ecti", "--run", "{fixtures}/vgg16_meta.json,{file}"]),
    ("vgg16_thermal.csv", ["thermal", "--trace", "{file}", "--baseline-temp", "69.24"]),
    (None, ["train", "--offline-manifest", "{file}", "--crossval-manifest", "{file}"]),
    ("vgg16_meta.json", ["ecti", "--run", "{file},{fixtures}/vgg16_power.csv"]),
], ids=["power-trace", "thermal-trace", "manifest", "meta"])
def test_leading_bom_is_skipped(source, argv, fixtures_dir, tmp_path, capsys):
    data = (fixtures_dir / source).read_bytes() if source else b"path,label\na.jpg,Fluid\n"
    results = []
    for name, bom in [("plain", b""), ("bom", "\ufeff".encode())]:
        path = tmp_path / name
        path.write_bytes(bom + data)
        code = run_cli(*[arg.format(file=path, fixtures=fixtures_dir) for arg in argv])
        results.append((code, capsys.readouterr().out))
    assert results[0][1]  # the file without a BOM gives a report
    assert results[1] == results[0]


@pytest.mark.parametrize("argv", [
    ["predict-stream"],
    ["train", "--offline-manifest", "{tmp}/manifest.csv", "--crossval-manifest",
     "{tmp}/manifest.csv", "--backend", "synthetic"],
], ids=["predict-stream", "train"])
def test_framefuse_variables_are_not_read(argv, fixtures_dir, tmp_path):
    # Each value would change the run, or stop it, if it were read as its flag's default.
    stray = tmp_path / "stray-output"
    old = {"FORMAT": "csv", "P_CNN": "0.5", "WINDOW": "abc", "AUTO_RESET": "maybe", "Q": "abc",
           "BACKEND": "external:false", "INPUT": str(tmp_path / "missing.jsonl"),
           "OUTPUT": str(stray)}
    (tmp_path / "manifest.csv").write_text("path,label\na.jpg,Fluid\nb.jpg,Jam\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    frames = (fixtures_dir / "table1_traffic.jsonl").read_bytes()
    clean = run_in_child(*argv, stdin=frames)
    env = dict(os.environ, PYTHONPATH=SRC_DIR, **{f"FRAMEFUSE_{k}": v for k, v in old.items()})
    under = run_in_child(*argv, stdin=frames, env=env)
    assert clean.stdout
    assert (under.returncode, under.stdout) == (clean.returncode, clean.stdout), under.stderr
    assert not stray.exists()


class TestEctiCommand:
    def test_published_figures_and_verdict(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "ecti",
            "--run", f"{fixtures_dir / 'vgg16_meta.json'},{fixtures_dir / 'vgg16_power.csv'}",
            "--run", f"{fixtures_dir / 'resnet50_meta.json'},{fixtures_dir / 'resnet50_power.csv'}",
            "--output", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        by_model = {m["model"]: m for m in report["models"]}
        assert by_model["VGG16"]["ecti_kwh_per_image"] == pytest.approx(48.097e-6, rel=1e-3)
        assert by_model["ResNet50"]["ecti_kwh_per_image"] == pytest.approx(62.817e-6, rel=1e-3)
        assert report["selected"] == "VGG16"

    def test_undefined_metric_is_reported_not_crashed(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "ecti",
            "--run", f"{fixtures_dir / 'vgg16_meta.json'},{fixtures_dir / 'vgg16_power.csv'}",
            "--q", "0.999", "--output", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["models"][0]["defined"] is False
        assert report["selected"] is None

    @pytest.mark.parametrize("order", [("A", "B"), ("B", "A")])
    def test_selects_only_a_model_whose_ecti_is_defined(self, order, fixtures_dir, tmp_path):
        # B spends a tenth of A's energy per image but misses its own Q.
        metas = {
            "A": {"model": "A", "duration_s": 3600, "image_count": 100, "accuracy": 0.75,
                  "q": 0.7},
            "B": {"model": "B", "duration_s": 3600, "image_count": 1000, "accuracy": 0.9,
                  "q": 0.95},
        }
        runs = []
        for name in order:
            meta_path = tmp_path / f"{name}.json"
            meta_path.write_text(json.dumps(metas[name]))
            runs += ["--run", f"{meta_path},{fixtures_dir / 'vgg16_power.csv'}"]
        out = tmp_path / "report.json"
        assert run_cli("ecti", *runs, "--output", str(out)) == 0
        report = json.loads(out.read_text())
        by_model = {m["model"]: m for m in report["models"]}
        assert [m["model"] for m in report["models"]] == list(order)
        assert by_model["A"]["defined"] is True and by_model["B"]["defined"] is False
        assert by_model["B"]["ecti_kwh_per_image"] == pytest.approx(
            by_model["A"]["ecti_kwh_per_image"] / 10)
        assert report["selected"] == "A"

    @pytest.mark.parametrize("meta", [
        "[1]",
        '"VGG16"',
        '{"model": "m", "duration_s": NaN, "image_count": 360, "accuracy": 0.9}',
        '{"model": "m", "duration_s": Infinity, "image_count": 360, "accuracy": 0.9}',
        '{"model": "m", "duration_s": null, "image_count": 360, "accuracy": 0.9}',
        '{"model": "m", "duration_s": 5864, "image_count": 1e400, "accuracy": 0.9}',
        '{"model": "m", "duration_s": 5864, "image_count": 360, "accuracy": NaN}',
        '{"model": "m", "duration_s": 5864, "image_count": 360, "accuracy": Infinity}',
        '{"model": "m", "duration_s": 5864, "image_count": 2.7, "accuracy": 0.9}',
        '{"model": "m", "duration_s": 5864, "image_count": true, "accuracy": 0.9}',
        '{"model": "m", "duration_s": 5864, "image_count": "360", "accuracy": 0.9}',
        '{"model": "m", "duration_s": 5864, "image_count": 360, "accuracy": true}',
        '{"model": "m", "duration_s": 5864, "image_count": 360, "accuracy": 0.9, "q": true}',
        '{"model": null, "duration_s": 5864, "image_count": 360, "accuracy": 0.9}',
        '{"model": ["m"], "duration_s": 5864, "image_count": 360, "accuracy": 0.9}',
    ], ids=["list", "string", "nan-duration", "inf-duration", "null-duration",
            "inf-image-count", "nan-accuracy", "inf-accuracy", "fractional-image-count",
            "bool-image-count", "string-image-count", "bool-accuracy", "bool-q", "null-model",
            "list-model"])
    def test_bad_meta_exits_schema(self, meta, fixtures_dir, tmp_path, capsys):
        meta_path = tmp_path / "meta.json"
        meta_path.write_text(meta)
        assert run_cli("ecti", "--run", f"{meta_path},{fixtures_dir / 'vgg16_power.csv'}") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(meta=fuzzed_meta())
    def test_any_meta_exits_ok_with_strict_json_or_schema(self, meta, fixtures_dir, tmp_path,
                                                           capsys):
        meta_path = tmp_path / "meta.json"
        meta_path.write_text(json.dumps(meta))
        code = run_cli("ecti", "--run", f"{meta_path},{fixtures_dir / 'vgg16_power.csv'}")
        captured = capsys.readouterr()
        if meta == VALID_META:
            assert code == 0
        if code == 0:
            report = json.loads(captured.out, parse_constant=reject_constant)
            assert report["models"][0]["model"] == meta["model"]
            # nothing was coerced: each field has the JSON type the README names
            assert meta["model"].__class__ is str and meta["image_count"].__class__ is int
            for name in ("duration_s", "accuracy", "q"):
                assert meta.get(name, 0.7).__class__ in (int, float)
        else:
            assert code == 2
            assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("rows", [
        "0,10.63\n10,nan\n",
        "0,10.63\n10,inf\n",
        "0,10.63\nnan,10.63\n",
        "0,5e307\n1,5e307\n2,5e307\n3,5e307\n4,5e307\n",
        "0,1e308\n1,1e308\n",
    ], ids=["nan-watts", "inf-watts", "nan-timestamp", "energy-overflows-fsum", "power-overflows"])
    def test_bad_power_trace_exits_schema(self, rows, fixtures_dir, tmp_path, capsys):
        power = tmp_path / "power.csv"
        power.write_text("timestamp_s,watts\n" + rows)
        assert run_cli("ecti", "--run", f"{fixtures_dir / 'vgg16_meta.json'},{power}") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=trace_rows())
    def test_any_power_trace_exits_ok_with_strict_json_or_schema(self, rows, fixtures_dir,
                                                                 tmp_path, capsys):
        power = tmp_path / "power.csv"
        power.write_text("timestamp_s,watts\n" + rows)
        code = run_cli("ecti", "--run", f"{fixtures_dir / 'vgg16_meta.json'},{power}")
        report = check_report_or_schema(code, capsys.readouterr(), rows)
        if report is not None:
            assert report["selected"] == "VGG16"


class TestThermalCommand:
    def test_vgg16_style_trace(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "thermal", "--trace", str(fixtures_dir / "vgg16_thermal.csv"),
            "--baseline-temp", "69.24", "--output", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["deviation_c"] == pytest.approx(24.36)
        assert report["lifespan_reduction"]["per_10c"] == pytest.approx(4.872, abs=5e-4)
        assert report["lifespan_reduction"]["per_15c"] == pytest.approx(3.248, abs=5e-4)

    def test_resnet50_style_trace(self, fixtures_dir, tmp_path):
        out = tmp_path / "report.json"
        run_cli(
            "thermal", "--trace", str(fixtures_dir / "resnet50_thermal.csv"),
            "--baseline-temp", "69.24", "--output", str(out),
        )
        report = json.loads(out.read_text())
        assert report["lifespan_reduction"]["per_10c"] == pytest.approx(4.896, abs=5e-4)
        assert report["lifespan_reduction"]["per_15c"] == pytest.approx(3.264, abs=5e-4)

    def test_flat_trace_gives_zero_factors(self, tmp_path):
        trace = tmp_path / "flat.csv"
        trace.write_text("timestamp_s,celsius\n0,69.24\n30,69.24\n")
        out = tmp_path / "report.json"
        run_cli("thermal", "--trace", str(trace), "--baseline-temp", "69.24",
                "--output", str(out))
        report = json.loads(out.read_text())
        assert report["lifespan_reduction"]["per_10c"] == 0.0
        assert report["lifespan_reduction"]["per_15c"] == 0.0

    @pytest.mark.parametrize("baseline", ["100", "93.61", "inf", "nan"])
    def test_bad_baseline_exits_schema(self, baseline, fixtures_dir, capsys):
        # the trace peaks at 93.6 C
        code = run_cli("thermal", "--trace", str(fixtures_dir / "vgg16_thermal.csv"),
                       "--baseline-temp", baseline)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "baseline" in captured.err
        assert captured.out == ""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=trace_rows(), baseline=st.floats() | st.floats(-30, 160))
    def test_any_trace_exits_ok_with_strict_json_or_schema(self, rows, baseline, tmp_path,
                                                           capsys):
        trace = tmp_path / "thermal.csv"
        trace.write_text("timestamp_s,celsius\n" + rows)
        code = run_cli("thermal", "--trace", str(trace), f"--baseline-temp={baseline!r}")
        report = check_report_or_schema(code, capsys.readouterr(), rows)
        if report is not None:
            assert report["baseline_c"] == baseline
            assert report["peak_c"] == max(float(row.split(",")[1])
                                           for row in rows.splitlines())
