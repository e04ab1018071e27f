import json
from pathlib import Path

import pytest

from framefuse.bayes import ClassifierProfile
from framefuse.pipeline import StreamFold

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Raw per-frame scores and expected chained posteriors from the traffic run
# (classifier accuracy 0.9893, 4 categories).
TABLE1_FRAMES = [
    {"Empty": 0.0100, "Fluid": 0.7930, "Heavy": 0.1683, "Jam": 0.0286},
    {"Empty": 0.0131, "Fluid": 0.3091, "Heavy": 0.5098, "Jam": 0.1681},
    {"Empty": 0.0131, "Fluid": 0.2754, "Heavy": 0.3399, "Jam": 0.3717},
]
TABLE1_EXPECTED = [
    {"Empty": 0.0100, "Fluid": 0.7930, "Heavy": 0.1683, "Jam": 0.0286},
    {"Empty": 0.0001, "Fluid": 0.1986, "Heavy": 0.0798, "Jam": 0.0048},
    {"Empty": 0.0000, "Fluid": 0.0524, "Heavy": 0.0267, "Jam": 0.0018},
]
TABLE1_RAW_LABELS = ["Fluid", "Heavy", "Jam"]
TABLE1_P_CNN = 0.9893

# Pedestrian run (classifier accuracy 0.7250, 2 categories).
TABLE2_FRAMES = [
    {"No-Obstruction": 0.3270, "Obstruction": 0.6730},
    {"No-Obstruction": 0.5010, "Obstruction": 0.4990},
    {"No-Obstruction": 0.4600, "Obstruction": 0.5400},
]
TABLE2_EXPECTED = [
    {"No-Obstruction": 0.3270, "Obstruction": 0.6730},
    {"No-Obstruction": 0.1843, "Obstruction": 0.3166},
    {"No-Obstruction": 0.1047, "Obstruction": 0.1908},
]
TABLE2_RAW_LABELS = ["Obstruction", "No-Obstruction", "Obstruction"]
TABLE2_P_CNN = 0.7250


def fold_stream(score_maps, config, start_id=1):
    """Fold one stream's score maps through StreamFold.fold, the call predict-stream
    makes per frame, with frame_ids counting up from start_id."""
    fold = StreamFold(config)
    return [fold.fold(start_id + i, scores) for i, scores in enumerate(score_maps)]


def oracle_fold(score_maps, p_cnn):
    """Independent brute-force fold of the update equation, per category.

    Kept free of the library's chaining code on purpose: plain arithmetic
    over dicts, first frame passes through verbatim.
    """
    chain = []
    posterior = None
    for scores in score_maps:
        if posterior is None:
            posterior = dict(scores)
        else:
            posterior = {
                label: (posterior[label] * scores[label])
                / (posterior[label] * scores[label] + p_cnn)
                for label in posterior
            }
        chain.append(dict(posterior))
    return chain


def event_to_dict(event):
    """An event's JSON record: the oracle for pipeline.event_to_json, which
    must write exactly json.dumps(event_to_dict(event), sort_keys=True)."""
    record = {
        "stream_id": event.stream_id,
        "frame_id": event.frame_id,
        "raw_label": event.raw_label,
        "raw_scores": event.raw_scores,
        "tmav_label": event.tmav_label,
        "tmav_scores": event.tmav_scores,
        "degenerate": event.degenerate,
    }
    if event.wall_time is not None:
        record["wall_time"] = event.wall_time
    return record


@pytest.fixture
def traffic_profile():
    return ClassifierProfile(model_name="VGG16", p_cnn=TABLE1_P_CNN)


@pytest.fixture
def pedestrian_profile():
    return ClassifierProfile(model_name="ResNet50", p_cnn=TABLE2_P_CNN)


@pytest.fixture
def fixtures_dir():
    return FIXTURES
