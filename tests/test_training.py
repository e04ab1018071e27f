import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framefuse.backends import MemorizingBackend
from framefuse.training import (
    ManifestError,
    Phase,
    TrainingSession,
    load_manifest,
    run_session,
    session_report,
)

from scripted_backend import ScriptedAccuracyBackend

LABELS = ["Empty", "Fluid", "Heavy", "Jam"]


def labeled_items(count, prefix="img"):
    return [(f"{prefix}{i:03d}", LABELS[i % len(LABELS)]) for i in range(count)]


def fresh_session(**kwargs):
    defaults = dict(offline_set=labeled_items(12, "train"),
                    crossval_set=labeled_items(100, "cv"))
    defaults.update(kwargs)
    return TrainingSession(**defaults)


def scripted_backend(crossval, schedule):
    return ScriptedAccuracyBackend(truth=dict(crossval), labels=LABELS, schedule=schedule)


def validate_once(backend, crossval_set, offline_set=None):
    """Train offline and validate once, with no retrain round."""
    session = TrainingSession(offline_set=offline_set or labeled_items(12, "train"),
                              crossval_set=crossval_set, max_retrain_rounds=0)
    return run_session(session, backend)


class PhaseRecorder:
    """Backend proxy that logs each call as op@phase, read from the session."""

    def __init__(self, inner, session):
        self.inner, self.session, self.calls = inner, session, []

    def train(self, items):
        self.calls.append(f"train@{self.session.phase.value}")
        return self.inner.train(items)

    def predict(self, ref):
        self.calls.append(f"predict@{self.session.phase.value}")
        return self.inner.predict(ref)


class TestOffline:
    def test_memorizing_backend_learns_training_items(self):
        backend = MemorizingBackend(LABELS)
        session = validate_once(backend, labeled_items(100, "cv"))
        assert session_report(session)["phases"] == ["offline", "online_validation", "done"]
        for ref, label in session.offline_set:
            assert max(backend.predict(ref), key=backend.predict(ref).get) == label

    def test_empty_offline_set_rejected(self):
        with pytest.raises(ValueError):
            fresh_session(offline_set=[])

    def test_train_acknowledges_item_count(self):
        backend = MemorizingBackend(LABELS)
        assert backend.train(labeled_items(360)) == 360


class TestOnlineValidation:
    def test_high_accuracy_finishes(self):
        crossval = labeled_items(100, "cv")
        session = validate_once(scripted_backend(crossval, [0.93]), crossval)
        assert session.accuracy_history[0] == pytest.approx(0.93)
        assert session.phase is Phase.DONE
        assert session.quality_met is True
        assert len(session.refeed_stack) == 7

    def test_low_accuracy_requests_retrain(self):
        crossval = labeled_items(100, "cv")
        session = validate_once(scripted_backend(crossval, [0.65]), crossval)
        assert session.quality_met is False
        assert len(session.refeed_stack) == 35

    def test_stack_contents_and_pop_order(self):
        crossval = labeled_items(100, "cv")
        backend = scripted_backend(crossval, [0.65])
        session = validate_once(backend, crossval)
        wrong = set(backend.wrong_refs())
        assert {ref for ref, _ in session.refeed_stack} == wrong
        encounter_order = [ref for ref, _ in session.crossval_set if ref in wrong]
        popped = [session.refeed_stack.pop()[0] for _ in range(len(encounter_order))]
        assert popped == list(reversed(encounter_order))

    def test_perfect_backend(self):
        crossval = labeled_items(100, "cv")
        session = validate_once(MemorizingBackend(LABELS), crossval, offline_set=crossval)
        assert session.accuracy_history == [1.0]
        assert session.refeed_stack == []
        assert session.phase is Phase.DONE


class TestRetrain:
    def test_improving_backend_passes_after_one_round(self):
        session = fresh_session()
        backend = scripted_backend(session.crossval_set, [0.65, 0.9])
        run_session(session, backend)
        assert session.phase is Phase.DONE
        assert session.quality_met is True
        assert session.retrain_rounds_used == 1
        assert session.final_accuracy == pytest.approx(0.9)

    def test_stuck_backend_reports_quality_not_met(self):
        session = fresh_session(max_retrain_rounds=2)
        backend = scripted_backend(session.crossval_set, [0.5])
        run_session(session, backend)
        assert session.phase is Phase.DONE
        assert session.quality_met is False
        assert session.retrain_rounds_used == 2
        assert session.best_accuracy == pytest.approx(0.5)
        assert session.accuracy_history == [pytest.approx(0.5)] * 3

    def test_calls_are_tagged_with_their_phase(self):
        session = fresh_session()
        n = len(session.crossval_set)
        recorder = PhaseRecorder(scripted_backend(session.crossval_set, [0.5, 0.9]), session)
        run_session(session, recorder)
        assert recorder.calls == (["train@offline"] + ["predict@online_validation"] * n
                                  + ["train@retrain"] + ["predict@retrain"] * n)


class TestEvaluateAccuracy:
    def test_all_correct(self):
        items = labeled_items(10)
        session = validate_once(MemorizingBackend(LABELS), items, offline_set=items)
        assert session.accuracy_history[0] == 1.0

    def test_half_correct(self):
        items = labeled_items(10)
        session = validate_once(MemorizingBackend(LABELS), items, offline_set=items[:5])
        # untrained refs answer uniformly; tie-break picks "Empty", so only
        # the trained half is guaranteed correct plus any lucky Empty items
        wrong = [item for item in items[5:] if item[1] != "Empty"]
        expected = (10 - len(wrong)) / 10
        assert session.accuracy_history[0] == pytest.approx(expected)
        assert session.refeed_stack == wrong

    def test_accuracy_close_to_publishable_ratio(self):
        # 93 of 94 correct reproduces a 98.93%-style accuracy from counts
        items = labeled_items(94)
        session = validate_once(scripted_backend(items, [93 / 94]), items)
        assert session.accuracy_history[0] == pytest.approx(0.9893, abs=1e-4)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            fresh_session(crossval_set=[])

    def test_measurement_is_pure(self):
        items = labeled_items(50)
        backend = scripted_backend(items, [0.8])
        first, second = validate_once(backend, items), validate_once(backend, items)
        assert first.accuracy_history == second.accuracy_history
        assert first.refeed_stack == second.refeed_stack


class TestStateMachine:
    @given(
        schedule=st.lists(st.sampled_from([0.2, 0.5, 0.69, 0.7, 0.8, 1.0]),
                          min_size=1, max_size=4),
        max_rounds=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_round_validates_once(self, schedule, max_rounds):
        session = fresh_session(max_retrain_rounds=max_rounds,
                                crossval_set=labeled_items(20, "cv"))
        recorder = PhaseRecorder(scripted_backend(session.crossval_set, schedule), session)
        run_session(session, recorder)
        k = session.retrain_rounds_used
        assert k <= max_rounds
        assert session_report(session)["phases"] == (
            ["offline", "online_validation"] + ["retrain"] * k + ["done"])
        assert len(session.accuracy_history) == 1 + k
        assert recorder.calls.count("predict@online_validation") + recorder.calls.count(
            "predict@retrain") == 20 * (1 + k)
        # the model after r + 1 train calls scores schedule[r], clamped
        assert session.accuracy_history == [
            (20 - round((1 - schedule[min(r, len(schedule) - 1)]) * 20)) / 20
            for r in range(1 + k)
        ]
        # threshold gate: finishing cleanly implies the last accuracy made Q
        if session.quality_met:
            assert session.final_accuracy >= session.q_threshold
            # the loop stops at the first round that reaches Q
            assert all(a < session.q_threshold for a in session.accuracy_history[:-1])
        else:
            assert session.best_accuracy < session.q_threshold
            assert k == max_rounds


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = tmp_path / "set.csv"
        manifest.write_text("path,label\na.jpg,Fluid\nb.jpg,Jam\n")
        assert load_manifest(manifest) == [("a.jpg", "Fluid"), ("b.jpg", "Jam")]

    def test_bad_header(self, tmp_path):
        manifest = tmp_path / "set.csv"
        manifest.write_text("file,category\na.jpg,Fluid\n")
        with pytest.raises(ManifestError):
            load_manifest(manifest)

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "set.csv"
        manifest.write_text("path,label\n")
        with pytest.raises(ManifestError):
            load_manifest(manifest)


def test_session_report_shape():
    session = fresh_session()
    backend = scripted_backend(session.crossval_set, [0.65, 0.9])
    run_session(session, backend)
    report = session_report(session)
    assert report["phases"][0] == "offline"
    assert report["phases"][-1] == "done"
    assert report["quality_met"] is True
    assert report["accuracy_history"] == [pytest.approx(0.65), pytest.approx(0.9)]
