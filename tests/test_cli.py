import json
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import framefuse
from framefuse.bayes import ClassifierProfile
from framefuse.cli import main
from framefuse.pipeline import StreamConfig, events_to_jsonl, process_stream, read_frame_streams

from conftest import TABLE1_FRAMES, TABLE2_FRAMES, make_frames

FAKE_BACKEND = Path(__file__).resolve().parent / "fake_backend.py"


def run_cli(*argv):
    return main(list(argv))


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
        frames = read_frame_streams(
            (fixtures_dir / "table1_traffic.jsonl").read_text().splitlines()
        )["ucsd-traffic"]
        profile = ClassifierProfile(model_name="classifier", p_cnn=0.9893)
        direct = process_stream(frames, StreamConfig(profile=profile, capacity_n=3,
                                                     stream_id="ucsd-traffic"))
        assert [e["tmav_scores"] for e in cli_events] == [e.tmav_scores for e in direct]
        assert [e["frame_id"] for e in cli_events] == [e.frame_id for e in direct]


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


@st.composite
def fuzzed_records(draw):
    """A valid frame record with its frame_id or one score swapped for any JSON value."""
    frame_id, score_a = "1", "0.5"
    if draw(st.booleans()):
        frame_id = draw(json_tokens)
    else:
        score_a = draw(json_tokens)
    return '{"stream_id": "s", "frame_id": %s, "scores": {"a": %s, "b": 0.5}}' % (frame_id, score_a)


class TestStreaming:
    def test_interleaved_streams_emit_in_input_order(self, tmp_path):
        frames = {"cam-a": make_frames(TABLE1_FRAMES), "cam-b": make_frames(TABLE2_FRAMES)}
        order = [("cam-a", 0), ("cam-b", 0), ("cam-b", 1), ("cam-a", 1), ("cam-a", 2),
                 ("cam-b", 2)]
        src = tmp_path / "frames.jsonl"
        src.write_text("".join(
            frame_line(sid, frames[sid][i].frame_id, frames[sid][i].scores) + "\n"
            for sid, i in order
        ))
        out = tmp_path / "events.jsonl"
        assert run_cli("predict-stream", "--input", str(src), "--output", str(out)) == 0
        lines = out.read_text().splitlines(keepends=True)
        assert [(json.loads(l)["stream_id"], json.loads(l)["frame_id"]) for l in lines] == [
            (sid, frames[sid][i].frame_id) for sid, i in order
        ]
        profile = ClassifierProfile(model_name="classifier", p_cnn=0.9893)
        for sid, stream_frames in frames.items():
            alone = process_stream(stream_frames, StreamConfig(profile=profile, stream_id=sid))
            mine = "".join(l for l in lines if json.loads(l)["stream_id"] == sid)
            assert mine == events_to_jsonl(alone)

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

    def test_event_leaves_before_input_closes(self, fixtures_dir):
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED" and not k.startswith("FRAMEFUSE_")}
        env["PYTHONPATH"] = str(Path(framefuse.__file__).resolve().parents[1])
        first = (fixtures_dir / "table1_traffic.jsonl").read_text().splitlines()[0]
        proc = subprocess.Popen(
            [sys.executable, "-m", "framefuse.cli", "predict-stream"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )
        try:
            proc.stdin.write(first.encode() + b"\n")
            proc.stdin.flush()
            readable, _, _ = select.select([proc.stdout], [], [], 10)
            assert readable, "no event before stdin was closed"
            assert json.loads(proc.stdout.readline())["frame_id"] == 1
            proc.stdin.close()
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_loads_only_the_stream_core(self, fixtures_dir):
        script = (
            "import os, sys\n"
            "from framefuse.cli import main\n"
            f"code = main(['predict-stream', '--input', {str(fixtures_dir / 'table1_traffic.jsonl')!r},"
            " '--output', os.devnull])\n"
            "print(code, *sorted(sys.modules))\n"
        )
        env = {k: v for k, v in os.environ.items() if not k.startswith("FRAMEFUSE_")}
        env["PYTHONPATH"] = str(Path(framefuse.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=30)
        code, *modules = proc.stdout.split()
        assert code == "0", proc.stderr
        unwanted = {"numpy", "framefuse.training", "framefuse.energy", "framefuse.backends"}
        assert unwanted.isdisjoint(modules)


class TestFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(
        st.text() | st.sampled_from([frame_line("s", 1, {"a": 0.5, "b": 0.5})]) | fuzzed_records(),
        max_size=4,
    ), fmt=st.sampled_from(["jsonl", "csv"]))
    def test_any_input_exits_ok_or_schema(self, lines, fmt, tmp_path):
        src = tmp_path / "frames.jsonl"
        # surrogatepass: a lone surrogate becomes bytes that are not UTF-8.
        src.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
        code = run_cli("predict-stream", "--input", str(src), "--output", os.devnull,
                       "--format", fmt)
        assert code in (0, 2)


class TestEnvFallbacks:
    @pytest.mark.parametrize("name,commands", [
        ("WINDOW", ["predict-stream"]),
        ("P_CNN", ["predict-stream"]),
        ("Q", ["train"]),
    ])
    def test_bad_numeric_fallback_is_a_usage_error(self, name, commands, monkeypatch, capsys):
        monkeypatch.setenv(f"FRAMEFUSE_{name}", "abc")
        for command in commands:
            argv = [command]
            if command == "train":
                argv += ["--offline-manifest", "o.csv", "--crossval-manifest", "c.csv"]
            with pytest.raises(SystemExit) as exit_info:
                run_cli(*argv)
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err and "'abc'" in err


class TestTrain:
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


@pytest.mark.parametrize("command", ["train", "ecti", "thermal"])
def test_unwritable_output_exits_schema(command, fixtures_dir, tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label\na.jpg,Fluid\nb.jpg,Jam\n")
    argv = {
        "train": ["--offline-manifest", str(manifest), "--crossval-manifest", str(manifest)],
        "ecti": ["--run", f"{fixtures_dir / 'vgg16_meta.json'},{fixtures_dir / 'vgg16_power.csv'}"],
        "thermal": ["--trace", str(fixtures_dir / "vgg16_thermal.csv"), "--baseline-temp", "69.24"],
    }[command]
    assert run_cli(command, *argv, "--output", str(tmp_path / "missing" / "r.json")) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
