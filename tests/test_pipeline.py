import json
import time
import warnings
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framefuse.bayes import ClassifierProfile
from framefuse.cli import main
from framefuse.pipeline import (
    OutOfOrderFrameError,
    StreamConfig,
    StreamEvent,
    StreamFold,
    StreamSchemaError,
    _label_set,
    event_to_json,
    fold_lines,
    read_frame_streams,
    read_lines,
)

from conftest import (
    TABLE1_EXPECTED,
    TABLE1_FRAMES,
    TABLE1_P_CNN,
    TABLE1_RAW_LABELS,
    TABLE2_EXPECTED,
    TABLE2_FRAMES,
    TABLE2_RAW_LABELS,
    event_to_dict,
    fold_stream,
    oracle_fold,
)


# Labels and stream ids with non-ASCII text, quotes, backslashes, control
# characters and lone surrogates, all of which JSON escapes, and "%".
escaped_text = st.text(alphabet=st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800é%'))
wire_score_maps = st.dictionaries(
    escaped_text, st.floats(min_value=0.0, max_value=1.0) | st.integers(0, 1), min_size=1, max_size=6
)


def continuous(profile, **kwargs):
    return StreamConfig(profile=profile, auto_reset=False, **kwargs)


class TestTableStreams:
    def test_traffic_stream(self, traffic_profile):
        events = fold_stream(TABLE1_FRAMES, continuous(traffic_profile))
        assert [e.raw_label for e in events] == TABLE1_RAW_LABELS
        assert [e.tmav_label for e in events] == ["Fluid", "Fluid", "Fluid"]
        for event, expected in zip(events, TABLE1_EXPECTED):
            for label, value in expected.items():
                assert event.tmav_scores[label] == pytest.approx(value, abs=1e-4)

    def test_pedestrian_stream(self, pedestrian_profile):
        events = fold_stream(TABLE2_FRAMES, continuous(pedestrian_profile))
        assert [e.raw_label for e in events] == TABLE2_RAW_LABELS
        assert [e.tmav_label for e in events] == ["Obstruction"] * 3
        for event, expected in zip(events, TABLE2_EXPECTED):
            for label, value in expected.items():
                assert event.tmav_scores[label] == pytest.approx(value, abs=1e-4)

    def test_single_frame_verdicts_agree(self, traffic_profile):
        events = fold_stream(TABLE1_FRAMES[:1], continuous(traffic_profile))
        assert len(events) == 1
        assert events[0].tmav_values is events[0].raw_values
        assert events[0].tmav_label == events[0].raw_label


class TestWindowMechanics:
    def test_out_of_order_rejected(self, traffic_profile):
        # a one-frame window restarts the chain in between; the watermark survives
        fold = StreamFold(StreamConfig(profile=traffic_profile, capacity_n=1))
        fold.fold(1, TABLE1_FRAMES[0])
        with pytest.raises(OutOfOrderFrameError):
            fold.fold(1, TABLE1_FRAMES[0])

    def test_reset_then_replay_reproduces_table(self, traffic_profile):
        # two full uniform windows, then Table 1 opens the third window
        uniform = [{l: 0.25 for l in TABLE1_FRAMES[0]}] * 6
        events = fold_stream(
            uniform + TABLE1_FRAMES, StreamConfig(profile=traffic_profile, capacity_n=3)
        )
        for event, expected in zip(events[6:], TABLE1_EXPECTED):
            for label, value in expected.items():
                assert event.tmav_scores[label] == pytest.approx(value, abs=1e-4)

    def test_long_window_warns(self, traffic_profile):
        with pytest.warns(UserWarning):
            fold_stream([], StreamConfig(profile=traffic_profile, capacity_n=8))

    def test_long_window_warns_once_for_all_streams(self, traffic_profile):
        lines = [b'{"stream_id": "cam-%d", "frame_id": 1, "scores": {"a": 0.5}}' % i
                 for i in range(50)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            events = list(fold_lines(lines, StreamConfig(profile=traffic_profile, capacity_n=8)))
        assert len(events) == 50
        assert [str(w.message) for w in caught] == [
            "frame window of 8 exceeds the recommended maximum of 7; "
            "chained posteriors are likely to collapse"
        ]

    def test_tumbling_reset_restarts_chain(self, traffic_profile):
        events = fold_stream(
            [{"a": 0.6, "b": 0.4}] * 6,
            StreamConfig(profile=traffic_profile, capacity_n=3, auto_reset=True),
        )
        # fourth frame opens a fresh window: integrated verdict == raw verdict
        assert events[3].tmav_scores == events[3].raw_scores
        assert events[0].tmav_scores == events[0].raw_scores
        assert events[1].tmav_scores != events[1].raw_scores

    def test_degenerate_stream_flags_and_collapses(self):
        # Brute-force oracle locates the first degenerate frame independently.
        profile = ClassifierProfile(model_name="m", p_cnn=0.99)
        score_maps = [{"a": 0.5, "b": 0.5}] * 20
        chain = oracle_fold(score_maps, profile.p_cnn)
        first_degenerate = next(
            i for i, row in enumerate(chain) if max(row.values()) < 1e-4
        )
        events = fold_stream(score_maps, continuous(profile))
        assert all(value < 1e-4 for value in events[-1].tmav_scores.values())
        degenerate_indexes = [i for i, e in enumerate(events) if e.degenerate]
        assert degenerate_indexes[0] == first_degenerate
        # safety reset: with auto_reset on, the chain recovers after collapse
        reset_events = fold_stream(
            score_maps,
            StreamConfig(profile=profile, capacity_n=0, auto_reset=True),
        )
        assert reset_events[first_degenerate + 1].tmav_scores == score_maps[0]


class TestOracleAndDeterminism:
    @given(
        data=st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
                      min_size=1, max_size=15),
        p_cnn=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=150)
    def test_stream_matches_independent_fold(self, data, p_cnn):
        labels = ["x", "y"]
        score_maps = [dict(zip(labels, row)) for row in data]
        profile = ClassifierProfile(model_name="m", p_cnn=p_cnn)
        events = fold_stream(score_maps, continuous(profile))
        expected = oracle_fold(score_maps, p_cnn)
        assert len(events) == len(score_maps)
        assert [e.frame_id for e in events] == sorted(e.frame_id for e in events)
        for event, row in zip(events, expected):
            for label in labels:
                assert event.tmav_scores[label] == pytest.approx(row[label], abs=1e-12)

    def test_determinism(self, traffic_profile):
        config = StreamConfig(profile=traffic_profile, frame_interval_seconds=1.3)

        def encoded():
            return "".join(map(event_to_json, fold_stream(TABLE1_FRAMES, config)))

        assert encoded() == encoded()

    def test_empty_stream(self, traffic_profile):
        assert fold_stream([], continuous(traffic_profile)) == []


class TestWireFormats:
    def test_jsonl_round_trip(self, traffic_profile, fixtures_dir):
        lines = (fixtures_dir / "table1_traffic.jsonl").read_bytes().splitlines()
        events = list(fold_lines(lines, continuous(traffic_profile)))
        assert {e.stream_id for e in events} == {"ucsd-traffic"}
        parsed = [json.loads(event_to_json(e)) for e in events]
        assert [p["tmav_label"] for p in parsed] == ["Fluid"] * 3
        assert parsed[0]["stream_id"] == "ucsd-traffic"
        assert parsed == [event_to_dict(e) for e in events]

    def test_csv_summary(self, tmp_path):
        frames = tmp_path / "frames.jsonl"
        frames.write_text("".join(
            json.dumps({"stream_id": "cam-1", "frame_id": i, "scores": scores}) + "\n"
            for i, scores in enumerate(TABLE1_FRAMES, start=1)
        ))
        out = tmp_path / "events.csv"
        assert main(["predict-stream", "--input", str(frames), "--output", str(out),
                     "--format", "csv", "--no-auto-reset", "--p-cnn", str(TABLE1_P_CNN)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "stream_id,frame_id,raw_label,tmav_label,degenerate"
        assert lines[1] == "cam-1,1,Fluid,Fluid,false"
        assert lines[3] == "cam-1,3,Jam,Fluid,false"

    def test_schema_errors_carry_line_numbers(self):
        with pytest.raises(StreamSchemaError, match="line 2"):
            read_frame_streams(['{"stream_id":"s","frame_id":1,"scores":{"a":0.5}}',
                                "not json"])
        with pytest.raises(StreamSchemaError, match="missing field"):
            read_frame_streams(['{"stream_id":"s"}'])
        with pytest.raises(StreamSchemaError):
            read_frame_streams(['{"stream_id":"s","frame_id":1,"scores":{"a":7}}'])

    @pytest.mark.parametrize("frame_id", ["1e400", "Infinity", "-Infinity", "2.7", "true", '"5"'])
    def test_frame_id_must_be_a_json_integer(self, frame_id):
        line = '{"stream_id": "s", "frame_id": %s, "scores": {"a": 0.5}}' % frame_id
        with pytest.raises(StreamSchemaError, match="line 3: frame_id must be an integer"):
            read_frame_streams(["", "", line])

    @pytest.mark.parametrize("score", ["true", "false", '"0.5"', "null", "[0.5]"])
    def test_score_must_be_a_number(self, score):
        line = '{"stream_id": "s", "frame_id": 1, "scores": {"b": 0.5, "a": %s}}' % score
        with pytest.raises(StreamSchemaError, match=r"line 1: score\[a\] must be a number"):
            read_frame_streams([line])

    @pytest.mark.parametrize("record", [
        '{"stream_id": null, "frame_id": 1, "scores": {"a": 0.5}}',
        r'{"stream_id": "s", "frame_id": 1, "scores": {"\ud800": 0.5}}',
    ], ids=["null-stream_id", "lone-surrogate-label"])
    def test_batch_parser_keeps_the_record_rules(self, record):
        with pytest.raises(StreamSchemaError, match="line 1: "):
            read_frame_streams([record])

    def test_wall_time_from_frame_interval(self, traffic_profile):
        events = fold_stream(
            TABLE1_FRAMES, continuous(traffic_profile, frame_interval_seconds=1.3)
        )
        assert [e.wall_time for e in events] == [0.0, 1.3, 2.6]

    @given(data=st.data(), raw_scores=wire_score_maps,
           tmav=st.sampled_from(["drawn", "shared", "copy"]))
    def test_event_to_json_is_json_dumps(self, data, raw_scores, tmav):
        label_set = _label_set(tuple(raw_scores))
        raw_values = label_set.values(raw_scores)
        if tmav == "drawn":
            tmav_values = tuple(data.draw(st.lists(
                st.floats(min_value=0.0, max_value=1.0) | st.integers(0, 1),
                min_size=len(raw_values), max_size=len(raw_values))))
        else:
            tmav_values = raw_values if tmav == "shared" else tuple(list(raw_values))
        stream_id = data.draw(escaped_text)
        indices = st.integers(0, len(raw_values) - 1)
        event = StreamEvent(
            frame_id=data.draw(st.integers()),
            raw_index=data.draw(indices),
            raw_values=raw_values,
            tmav_index=data.draw(indices),
            tmav_values=tmav_values,
            degenerate=data.draw(st.booleans()),
            wall_time=data.draw(st.none() | st.floats(min_value=0.0, allow_infinity=False)),
            stream_id=stream_id,
            stream_json=encode_basestring_ascii(stream_id),
            label_set=label_set,
        )
        assert event_to_json(event) == json.dumps(event_to_dict(event), sort_keys=True) + "\n"


def test_a_long_line_is_split_in_linear_time():
    # 32 MiB in 8 KiB reads: ~0.03 s when each part is copied once, ~90 s
    # when the carried part is copied on every read.
    chunk = b"x" * 8192
    reads = iter([chunk] * 4096 + [b"\nend", b""])
    started = time.perf_counter()
    lines = list(read_lines(lambda size: next(reads), 8192))
    elapsed = time.perf_counter() - started
    assert [len(line) for line in lines] == [32 * 2**20, 3]
    assert elapsed < 5.0
