"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold. Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import json
import random
import time

import pytest

from framefuse.backends import MemorizingBackend
from framefuse.bayes import ClassifierProfile
from framefuse.energy import ecti_row, lifespan_reduction, load_run_meta, select_model
from framefuse.pipeline import StreamConfig
from framefuse.training import TrainingSession, run_session, session_report

from conftest import (
    TABLE1_EXPECTED,
    TABLE1_FRAMES,
    TABLE1_P_CNN,
    TABLE2_EXPECTED,
    TABLE2_FRAMES,
    TABLE2_P_CNN,
    fold_stream,
    oracle_fold,
)
from scripted_backend import ScriptedAccuracyBackend


def report(name):
    print(f"ACCEPTANCE PASS: {name}")


def continuous(p_cnn):
    profile = ClassifierProfile(model_name="m", p_cnn=p_cnn)
    return StreamConfig(profile=profile, auto_reset=False)


def test_traffic_table_reproduction():
    started = time.perf_counter()
    events = fold_stream(TABLE1_FRAMES, continuous(TABLE1_P_CNN))
    elapsed = time.perf_counter() - started
    for event, expected in zip(events, TABLE1_EXPECTED):
        for label, value in expected.items():
            assert event.tmav_scores[label] == pytest.approx(value, abs=1e-4)
    assert [e.tmav_label for e in events] == ["Fluid", "Fluid", "Fluid"]
    assert elapsed < 1.0
    report("traffic table reproduction (p_cnn 0.9893, +-0.0001, < 1 s)")


def test_pedestrian_table_reproduction():
    started = time.perf_counter()
    events = fold_stream(TABLE2_FRAMES, continuous(TABLE2_P_CNN))
    elapsed = time.perf_counter() - started
    for event, expected in zip(events, TABLE2_EXPECTED):
        for label, value in expected.items():
            assert event.tmav_scores[label] == pytest.approx(value, abs=1e-4)
    assert [e.tmav_label for e in events] == ["Obstruction"] * 3
    assert elapsed < 1.0
    report("pedestrian table reproduction (p_cnn 0.7250, +-0.0001, < 1 s)")


def test_energy_per_training_image():
    vgg16 = ecti_row({"model": "VGG16", "duration_s": 97 * 60 + 44, "image_count": 360,
                      "accuracy": 0.9893, "q": 0.7}, 0.01063)
    resnet50 = ecti_row({"model": "ResNet50", "duration_s": 117 * 60 + 27, "image_count": 330,
                         "accuracy": 0.9279, "q": 0.7}, 0.01059)
    assert vgg16["ecti_kwh_per_image"] == pytest.approx(48.097e-6, rel=1e-3)
    assert resnet50["ecti_kwh_per_image"] == pytest.approx(62.817e-6, rel=1e-3)
    winner = select_model([vgg16, resnet50])  # both at the default Q of 0.7
    assert winner == "VGG16"
    report("energy per training image (48.097e-6 / 62.817e-6 kWh, VGG16 selected)")


def test_lifespan_factors():
    assert round(lifespan_reduction(93.60, 69.24, 10), 3) == 4.872
    assert round(lifespan_reduction(93.72, 69.24, 10), 3) == 4.896
    assert round(lifespan_reduction(93.60, 69.24, 15), 3) == 3.248
    assert round(lifespan_reduction(93.72, 69.24, 15), 3) == 3.264
    report("lifespan reduction factors (4.872 / 4.896 / 3.248 / 3.264)")


def test_degeneracy_collapse():
    # Traffic-style scores: the published three frames continued with repeats
    # of the third. All posteriors fall below 1e-4 within 8 update steps
    # (event index 8) and the pipeline flags the collapse.
    score_maps = TABLE1_FRAMES + [TABLE1_FRAMES[2]] * 6
    events = fold_stream(score_maps, continuous(TABLE1_P_CNN))
    degenerate_indexes = [i for i, e in enumerate(events) if e.degenerate]
    assert degenerate_indexes and degenerate_indexes[0] <= 8
    first = degenerate_indexes[0]
    assert all(value < 1e-4 for value in events[first].tmav_scores.values())

    # Property sweep: whenever the classifier accuracy dominates every
    # per-frame score, the chained posterior never increases and heads to 0.
    rng = random.Random(20240824)
    for _ in range(1000):
        p_cnn = rng.uniform(0.3, 1.0)
        labels = [f"c{k}" for k in range(rng.randint(2, 4))]
        length = rng.randint(2, 20)
        score_maps = [
            {label: rng.uniform(0.0, p_cnn) for label in labels} for _ in range(length)
        ]
        chain = oracle_fold(score_maps, p_cnn)
        events = fold_stream(
            score_maps,
            StreamConfig(profile=ClassifierProfile(model_name="m", p_cnn=p_cnn),
                         auto_reset=False),
        )
        for label in labels:
            series = [e.tmav_scores[label] for e in events]
            assert all(b <= a for a, b in zip(series, series[1:]))
            assert series == [row[label] for row in chain]
        # long-run limit: keep feeding the last frame; the chain must collapse
        posterior = dict(events[-1].tmav_scores)
        last = score_maps[-1]
        for _ in range(300):
            posterior = {
                label: (posterior[label] * last[label])
                / (posterior[label] * last[label] + p_cnn)
                for label in labels
            }
        assert all(value < 0.01 for value in posterior.values())
    report("degeneracy: traffic-regime collapse within 8 update steps; "
           "1000-stream decay property")


def test_oracle_equivalence():
    rng = random.Random(987654321)
    for _ in range(1000):
        p_cnn = rng.uniform(0.01, 1.0)
        labels = [f"c{k}" for k in range(rng.randint(2, 6))]
        length = rng.randint(1, 20)
        score_maps = [
            {label: rng.random() for label in labels} for _ in range(length)
        ]
        events = fold_stream(
            score_maps,
            StreamConfig(profile=ClassifierProfile(model_name="m", p_cnn=p_cnn),
                         auto_reset=False),
        )
        expected = oracle_fold(score_maps, p_cnn)
        for event, row in zip(events, expected):
            for label in labels:
                assert abs(event.tmav_scores[label] - row[label]) <= 1e-12
    report("oracle equivalence: 1000 random streams match the independent fold "
           "to 1e-12")


def test_training_state_machine():
    labels = ["Empty", "Fluid", "Heavy", "Jam"]
    items = [(f"img{i:03d}", labels[i % 4]) for i in range(100)]

    def run(backend):
        return session_report(run_session(TrainingSession(offline_set=items, crossval_set=items),
                                          backend))

    result = run(MemorizingBackend(labels))
    assert result["phases"][-1] == "done" and result["quality_met"]
    assert result["final_accuracy"] == 1.0

    result = run(ScriptedAccuracyBackend(dict(items), labels, schedule=[0.65, 0.9]))
    assert result["quality_met"] and result["retrain_rounds_used"] == 1
    assert result["final_accuracy"] == pytest.approx(0.9)

    result = run(ScriptedAccuracyBackend(dict(items), labels, schedule=[0.5]))
    assert result["quality_met"] is False
    assert result["best_accuracy"] == pytest.approx(0.5)

    # the retrain round trains on exactly the wrong predictions, in crossval order
    class Checker(ScriptedAccuracyBackend):
        def train(self, items):
            self.trained = list(items)
            super().train(items)

    checker = Checker(dict(items), labels, schedule=[0.65])
    wrong = set(checker.wrong_refs())
    run(checker)
    assert checker.trained == [(ref, label) for ref, label in items if ref in wrong]
    report("training state machine: memorizing / improving / stuck backends "
           "and exact refeed contents")


def test_hardware_scale_figures_pass_through(tmp_path):
    # Published model accuracies and the on-device speedup depend on real CNN
    # training and the target board; here they are carried through untouched.
    for accuracy in (0.8125, 0.9893, 0.9279):
        path = tmp_path / "meta.json"
        path.write_text(json.dumps({"model": "m", "duration_s": 3600, "image_count": 10,
                                    "accuracy": accuracy}))
        meta = load_run_meta(path)
        assert meta["accuracy"] == accuracy
        assert ecti_row(meta, 0.01)["accuracy"] == accuracy
        profile = ClassifierProfile(model_name="m", p_cnn=accuracy)
        assert profile.p_cnn == accuracy
    report("hardware-scale accuracies are pass-through values, not recomputed")
