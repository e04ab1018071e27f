"""Unnormalized recursive Bayesian update over per-frame category scores.

The core update takes the previous chained posterior for a category as the
prior, multiplies by the current frame's score for that category, and divides
by (prior * current + p_cnn) where p_cnn is the classifier's overall accuracy.
Posteriors are deliberately NOT renormalized to sum to 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

# Every category below this chained posterior marks the window degenerate.
DEGENERACY_EPSILON = 1e-4
# The quality threshold Q: the accuracy a trained classifier must reach.
DEFAULT_Q = 0.7

# Chained posteriors collapse toward zero for long windows; empirically the
# chain is unusable beyond this many frames at realistic score levels.
MAX_RECOMMENDED_WINDOW = 7


class ScoreDomainError(ValueError):
    """A score is not a number in [0, 1], or a probability not one in (0, 1]."""


class LabelSetMismatchError(ValueError):
    """Incoming frame labels differ from the labels already in the chain."""

    def __init__(self, frame_id: int, labels: Iterable[str], chain_labels: Iterable[str]):
        super().__init__(f"frame {frame_id} labels {sorted(labels)} != chain labels "
                         f"{sorted(chain_labels)}")


def is_number(value: object) -> bool:
    """A JSON number: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_probability(name: str, value: object) -> None:
    """The probability rule: a number (not a bool) in (0, 1]; NaN fails it."""
    if not (is_number(value) and 0.0 < value <= 1.0):
        raise ScoreDomainError(f"{name} must be in (0, 1], got {value!r}")


class CategoryDistribution:
    """One frame's classifier scores, keyed by category label.

    The map passes the score rule (``check_scores``). The distribution keeps
    its own copy of the map.
    """

    __slots__ = ("frame_id", "scores")

    def __init__(self, frame_id: int, scores: Mapping[str, float]):
        scores = dict(scores)
        check_scores(scores)
        self.frame_id = frame_id
        self.scores = scores


def check_scores(scores: Mapping[str, float]) -> None:
    """The score rule: at least one score, each an int or float (not a bool) in [0, 1].

    NaN fails the range test. Raises ScoreDomainError naming the label.
    """
    if not scores:
        raise ScoreDomainError("a frame needs at least one category score")
    for label, value in scores.items():
        # The float test first: a JSON score is almost always a float.
        if not (value.__class__ is float or is_number(value)) or not 0.0 <= value <= 1.0:
            raise ScoreDomainError(f"score[{label}] must be a number in [0, 1], got {value!r}")


class ClassifierProfile:
    """A classifier's identity, overall accuracy, and quality threshold."""

    __slots__ = ("model_name", "p_cnn", "q_threshold")

    def __init__(self, model_name: str, p_cnn: float, q_threshold: float = DEFAULT_Q):
        check_probability("p_cnn", p_cnn)
        check_probability("q_threshold", q_threshold)
        self.model_name = model_name
        self.p_cnn = p_cnn
        self.q_threshold = q_threshold


class PosteriorState:
    """Chained per-category posteriors plus bookkeeping for one stream window.

    ``steps_applied`` counts frames chained since the window started; the
    first frame passes through verbatim, later frames go through the update.
    ``degenerate`` fires when every category has collapsed below
    ``DEGENERACY_EPSILON``.
    """

    __slots__ = ("posteriors", "steps_applied", "degenerate")

    def __init__(self, posteriors: dict[str, float] | None = None, steps_applied: int = 0,
                 degenerate: bool = False):
        self.posteriors = {} if posteriors is None else posteriors
        self.steps_applied = steps_applied
        self.degenerate = degenerate

    @classmethod
    def initial(cls) -> "PosteriorState":
        return cls()


def chained_posteriors(
    prior: Iterable[float],
    scores: Iterable[float],
    p_cnn: float,
) -> tuple[float, ...]:
    """One frame's Bayes step for every label: prior*s / (prior*s + p_cnn).

    ``prior`` and ``scores`` hold one value per label, in one label order.
    Scores were checked by the score rule and p_cnn > 0 by ClassifierProfile,
    so the update is applied without further checks.
    """
    return tuple([(n := x * s) / (n + p_cnn) for x, s in zip(prior, scores)])


def chain_update(
    state: PosteriorState,
    frame: CategoryDistribution,
    profile: ClassifierProfile,
) -> PosteriorState:
    """Advance the chained posterior with one frame, returning a new state.

    An empty state adopts the frame's own score map as its posteriors (no
    copy: neither the frame nor the chain ever mutates a map); afterwards
    every category's posterior is fed back as the prior for the next frame.
    Raises LabelSetMismatchError when the frame's labels differ from the chain's.
    """
    posteriors = frame.scores
    if state.steps_applied:
        prior = state.posteriors
        if posteriors.keys() != prior.keys():
            raise LabelSetMismatchError(frame.frame_id, posteriors, prior)
        values = chained_posteriors(prior.values(), map(posteriors.__getitem__, prior),
                                    profile.p_cnn)
        posteriors = dict(zip(prior, values))
    return PosteriorState(
        posteriors=posteriors,
        steps_applied=state.steps_applied + 1,
        degenerate=max(posteriors.values()) < DEGENERACY_EPSILON,
    )


def argmax_label(posteriors: Mapping[str, float]) -> tuple[str, float]:
    """Label with the highest posterior; ties break lexicographically."""
    items = iter(posteriors.items())
    for best_label, best_value in items:
        break
    else:
        raise ValueError("cannot take argmax of an empty posterior map")
    for label, value in items:
        if value > best_value or (value == best_value and label < best_label):
            best_label, best_value = label, value
    return best_label, best_value
