import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framefuse.backends import MemorizingBackend
from framefuse.training import (
    ALLOWED_TRANSITIONS,
    ManifestError,
    Phase,
    PhaseError,
    TrainingSession,
    evaluate_accuracy,
    load_manifest,
    run_offline,
    run_online_validation,
    run_retrain,
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


class TestOffline:
    def test_memorizing_backend_learns_training_items(self):
        session = fresh_session()
        backend = MemorizingBackend(LABELS)
        run_offline(session, backend)
        assert session.phase is Phase.ONLINE_VALIDATION
        for ref, label in session.offline_set:
            assert max(backend.predict(ref), key=backend.predict(ref).get) == label

    def test_empty_offline_set_rejected(self):
        session = fresh_session(offline_set=[])
        with pytest.raises(ValueError):
            run_offline(session, MemorizingBackend(LABELS))

    def test_wrong_phase_rejected(self):
        session = fresh_session(phase=Phase.DONE)
        with pytest.raises(PhaseError):
            run_offline(session, MemorizingBackend(LABELS))

    def test_train_acknowledges_item_count(self):
        backend = MemorizingBackend(LABELS)
        assert backend.train(labeled_items(360)) == 360


class TestOnlineValidation:
    def test_high_accuracy_finishes(self):
        session = fresh_session(phase=Phase.ONLINE_VALIDATION)
        backend = scripted_backend(session.crossval_set, [0.93])
        backend.train_calls = 1
        run_online_validation(session, backend)
        assert session.final_accuracy == pytest.approx(0.93)
        assert session.phase is Phase.DONE
        assert session.quality_met is True
        assert len(session.refeed_stack) == 7

    def test_low_accuracy_requests_retrain(self):
        session = fresh_session(phase=Phase.ONLINE_VALIDATION)
        backend = scripted_backend(session.crossval_set, [0.65])
        backend.train_calls = 1
        run_online_validation(session, backend)
        assert session.phase is Phase.RETRAIN
        assert len(session.refeed_stack) == 35

    def test_stack_contents_and_pop_order(self):
        session = fresh_session(phase=Phase.ONLINE_VALIDATION)
        backend = scripted_backend(session.crossval_set, [0.65])
        backend.train_calls = 1
        run_online_validation(session, backend)
        wrong = set(backend.wrong_refs())
        assert {ref for ref, _ in session.refeed_stack} == wrong
        encounter_order = [ref for ref, _ in session.crossval_set if ref in wrong]
        popped = [session.refeed_stack.pop()[0] for _ in range(len(encounter_order))]
        assert popped == list(reversed(encounter_order))

    def test_perfect_backend(self):
        session = fresh_session()
        backend = MemorizingBackend(LABELS)
        backend.train(session.crossval_set)
        session.phase = Phase.ONLINE_VALIDATION
        run_online_validation(session, backend)
        assert session.final_accuracy == 1.0
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

    def test_empty_stack_consumes_round_without_training(self):
        session = fresh_session(phase=Phase.RETRAIN)
        session.accuracy_history.append(0.6)
        backend = scripted_backend(session.crossval_set, [0.6])
        run_retrain(session, backend)
        assert backend.train_calls == 0
        assert session.retrain_rounds_used == 1
        assert session.quality_met is False
        assert session.final_accuracy == pytest.approx(0.6)


class TestEvaluateAccuracy:
    def test_all_correct(self):
        items = labeled_items(10)
        backend = MemorizingBackend(LABELS)
        backend.train(items)
        assert evaluate_accuracy(backend, items) == 1.0

    def test_half_correct(self):
        items = labeled_items(10)
        backend = MemorizingBackend(LABELS)
        backend.train(items[:5])
        # untrained refs answer uniformly; tie-break picks "Empty", so only
        # the trained half is guaranteed correct plus any lucky Empty items
        wrong = [item for item in items[5:] if item[1] != "Empty"]
        expected = (10 - len(wrong)) / 10
        assert evaluate_accuracy(backend, items) == pytest.approx(expected)

    def test_accuracy_close_to_publishable_ratio(self):
        # 93 of 94 correct reproduces a 98.93%-style accuracy from counts
        items = labeled_items(94)
        backend = scripted_backend(items, [93 / 94])
        backend.train_calls = 1
        assert evaluate_accuracy(backend, items) == pytest.approx(0.9893, abs=1e-4)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_accuracy(MemorizingBackend(LABELS), [])

    def test_measurement_is_pure(self):
        items = labeled_items(50)
        backend = scripted_backend(items, [0.8])
        backend.train_calls = 1
        assert evaluate_accuracy(backend, items) == evaluate_accuracy(backend, items)


class TestStateMachine:
    @given(
        schedule=st.lists(st.sampled_from([0.2, 0.5, 0.69, 0.7, 0.8, 1.0]),
                          min_size=1, max_size=4),
        max_rounds=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_transitions_stay_on_declared_graph(self, schedule, max_rounds):
        session = fresh_session(max_retrain_rounds=max_rounds,
                                crossval_set=labeled_items(20, "cv"))
        backend = scripted_backend(session.crossval_set, schedule)
        run_session(session, backend)
        for before, after in zip(session.phase_history, session.phase_history[1:]):
            assert (before, after) in ALLOWED_TRANSITIONS
        assert session.phase is Phase.DONE
        # threshold gate: finishing cleanly implies the last accuracy made Q
        if session.quality_met:
            assert session.final_accuracy >= session.q_threshold
        else:
            assert session.best_accuracy < session.q_threshold
        assert session.retrain_rounds_used <= max_rounds


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
