import math

import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from framefuse.bayes import (
    DEFAULT_Q,
    CategoryDistribution,
    ClassifierProfile,
    LabelSetMismatchError,
    PosteriorState,
    ScoreDomainError,
    argmax_label,
    chain_update,
    chained_posteriors,
    check_probability,
    check_scores,
)
from framefuse.pipeline import StreamConfig, StreamFold

from conftest import (
    TABLE1_EXPECTED,
    TABLE1_FRAMES,
    TABLE1_P_CNN,
    oracle_fold,
)

scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
pos_scores = st.floats(min_value=1e-9, max_value=1.0, allow_nan=False)


def update(prior, current, p_cnn):
    """One label's Bayes step, through the update the stream fold runs."""
    (updated,) = chained_posteriors((prior,), (current,), p_cnn)
    return updated


class TestUpdatePosterior:
    @pytest.mark.parametrize(
        "prior,current,p_cnn,expected",
        [
            (0.793, 0.3091, 0.9893, 0.1986),   # traffic run, Fluid
            (0.1683, 0.5098, 0.9893, 0.0798),  # traffic run, Heavy
            (0.6730, 0.4990, 0.7250, 0.3166),  # pedestrian run, Obstruction
        ],
    )
    def test_published_values(self, prior, current, p_cnn, expected):
        assert update(prior, current, p_cnn) == pytest.approx(expected, abs=1e-4)

    def test_zero_current_kills_posterior(self):
        assert update(0.9, 0.0, 0.9893) == 0.0
        assert update(1.0, 0.0, 0.9893) == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_domain_errors(self, bad):
        # The update takes a score that passed the score rule and a p_cnn that
        # passed the probability rule; a prior is always an earlier update.
        with pytest.raises(ScoreDomainError):
            check_scores({"current": bad})
        with pytest.raises(ScoreDomainError):
            check_probability("p_cnn", bad)

    def test_zero_denominator(self):
        # prior * current >= 0, so only p_cnn = 0 could zero the denominator.
        with pytest.raises(ScoreDomainError):
            ClassifierProfile(model_name="m", p_cnn=0.0)

    @given(prior=scores, current=scores, p_cnn=pos_scores)
    def test_range_preservation(self, prior, current, p_cnn):
        result = update(prior, current, p_cnn)
        assert 0.0 <= result < 1.0

    @given(prior=scores, p_cnn=st.floats(min_value=0.1, max_value=1.0))
    def test_vanishing_current_limit(self, prior, p_cnn):
        assert update(prior, 1e-12, p_cnn) < 1e-10

    @given(
        prior=st.floats(min_value=1e-6, max_value=1.0),
        current=scores,
        p_cnn=pos_scores,
    )
    def test_monotone_decay_when_accuracy_dominates(self, prior, current, p_cnn):
        assume(p_cnn >= current)
        assert update(prior, current, p_cnn) < prior


def make_frames(score_maps):
    return [CategoryDistribution(frame_id=1 + i, scores=scores)
            for i, scores in enumerate(score_maps)]


class TestChainUpdate:
    def test_first_frame_passes_through_bitexact(self, traffic_profile):
        frame = make_frames(TABLE1_FRAMES)[0]
        state = chain_update(PosteriorState.initial(), frame, traffic_profile)
        assert state.posteriors == dict(frame.scores)
        assert state.steps_applied == 1
        assert not state.degenerate

    def test_traffic_chain_matches_published_rows(self, traffic_profile):
        state = PosteriorState.initial()
        for frame, expected in zip(make_frames(TABLE1_FRAMES), TABLE1_EXPECTED):
            state = chain_update(state, frame, traffic_profile)
            for label, value in expected.items():
                assert state.posteriors[label] == pytest.approx(value, abs=1e-4)

    def test_label_mismatch_rejected(self, traffic_profile):
        state = chain_update(
            PosteriorState.initial(), make_frames(TABLE1_FRAMES)[0], traffic_profile
        )
        other = CategoryDistribution(frame_id=2, scores={"A": 0.5, "B": 0.5})
        with pytest.raises(LabelSetMismatchError):
            chain_update(state, other, traffic_profile)

    def test_chained_collapse_theorem(self):
        # 50 identical updates at score 0.5 with accuracy 0.99 go below 1e-6,
        # never increasing along the way.
        profile = ClassifierProfile(model_name="m", p_cnn=0.99)
        state = PosteriorState.initial()
        previous = None
        for i in range(50):
            frame = CategoryDistribution(frame_id=i + 1, scores={"A": 0.5, "B": 0.5})
            state = chain_update(state, frame, profile)
            if previous is not None:
                assert state.posteriors["A"] <= previous
            previous = state.posteriors["A"]
        assert state.posteriors["A"] < 1e-6
        assert state.degenerate

    @given(
        data=st.lists(
            st.lists(scores, min_size=3, max_size=3), min_size=1, max_size=12
        ),
        p_cnn=pos_scores,
    )
    @settings(max_examples=200)
    def test_matches_independent_fold(self, data, p_cnn):
        labels = ["a", "b", "c"]
        score_maps = [dict(zip(labels, row)) for row in data]
        profile = ClassifierProfile(model_name="m", p_cnn=p_cnn)
        state = PosteriorState.initial()
        expected_chain = oracle_fold(score_maps, p_cnn)
        for i, scores_map in enumerate(score_maps):
            state = chain_update(
                state, CategoryDistribution(frame_id=i + 1, scores=scores_map), profile
            )
            for label in labels:
                assert state.posteriors[label] == pytest.approx(
                    expected_chain[i][label], abs=1e-12
                )


class TestArgmax:
    def test_published_row(self):
        label, value = argmax_label(
            {"Empty": 0.0001, "Fluid": 0.1986, "Heavy": 0.0798, "Jam": 0.0048}
        )
        assert (label, value) == ("Fluid", 0.1986)

    def test_two_category_row(self):
        label, value = argmax_label({"Obstruction": 0.1908, "No-Obstruction": 0.1047})
        assert (label, value) == ("Obstruction", 0.1908)

    def test_lexicographic_tie_break(self):
        assert argmax_label({"B": 0.5, "A": 0.5}) == ("A", 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            argmax_label({})

    @given(st.dictionaries(st.text(max_size=3), st.sampled_from([0.0, 0.25, 0.5]), min_size=1))
    def test_matches_the_two_pass_definition(self, posteriors):
        # Few distinct values, so most maps hold ties in every key order.
        best = max(posteriors.values())
        expected = min(label for label, value in posteriors.items() if value == best)
        assert argmax_label(posteriors) == (expected, best)

    @given(
        values=st.lists(pos_scores, min_size=2, max_size=6),
        factor=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_scaling_invariance(self, values, factor):
        labels = [f"l{i}" for i in range(len(values))]
        base = dict(zip(labels, values))
        scaled = {k: v * factor for k, v in base.items()}
        assert argmax_label(base)[0] == argmax_label(scaled)[0]


def degeneracy_horizon(score, p_cnn, max_steps=1000):
    """1-based index of the first degenerate event of a one-label stream whose
    frames all score ``score``, folded without resets; None within max_steps."""
    fold = StreamFold(StreamConfig(ClassifierProfile(model_name="m", p_cnn=p_cnn),
                                   auto_reset=False))
    for k in range(1, max_steps + 1):
        if fold.fold(k, {"c": score}).degenerate:
            return k
    return None


class TestDegeneracyHorizon:
    def test_matches_direct_iteration(self):
        # Independent oracle: iterate the arithmetic inline.
        score, p_cnn, epsilon = 0.5, 0.9893, 1e-4
        posterior, k = score, 1
        while posterior >= epsilon:
            posterior = (posterior * score) / (posterior * score + p_cnn)
            k += 1
        assert degeneracy_horizon(score, p_cnn) == k

    def test_low_score_regime_collapses_within_eight(self):
        assert degeneracy_horizon(0.3, 0.9893) <= 8

    def test_slow_decay_hits_cap(self):
        assert degeneracy_horizon(1.0, 1e-9, max_steps=1000) is None


def test_profile_validation():
    with pytest.raises(ScoreDomainError):
        ClassifierProfile(model_name="m", p_cnn=0.0)
    with pytest.raises(ScoreDomainError):
        ClassifierProfile(model_name="m", p_cnn=0.9, q_threshold=1.2)
    profile = ClassifierProfile(model_name="m", p_cnn=0.9)
    assert profile.q_threshold == DEFAULT_Q == 0.7


@pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, float("nan"), float("inf"), True, "0.5", None])
def test_probability_rule(bad):
    with pytest.raises(ScoreDomainError, match=r"^q must be in \(0, 1\], got "):
        check_probability("q", bad)


@pytest.mark.parametrize("good", [1e-9, 0.7, 1.0, 1])
def test_probability_rule_accepts(good):
    check_probability("q", good)


def test_distribution_validation():
    with pytest.raises(ScoreDomainError):
        CategoryDistribution(frame_id=1, scores={})
    with pytest.raises(ScoreDomainError, match="at least one category score"):
        check_scores({})
    with pytest.raises(ScoreDomainError):
        CategoryDistribution(frame_id=1, scores={"a": 1.2})
    for bad in (float("nan"), -0.1, True, "0.5", None):
        with pytest.raises(ScoreDomainError, match=r"score\[b\]"):
            CategoryDistribution(frame_id=1, scores={"a": 0.5, "b": bad})
    dist = CategoryDistribution(frame_id=1, scores={"a": 0.5})
    assert math.isclose(dist.scores["a"], 0.5)
