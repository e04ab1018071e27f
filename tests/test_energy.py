import pytest
from hypothesis import given
from hypothesis import strategies as st

from framefuse.energy import (
    EctiResult,
    TraceError,
    TrainingRunMeta,
    average_power,
    compute_ecti,
    lifespan_reduction,
    load_power_csv,
    load_run_meta,
    load_thermal_csv,
    select_model,
    thermal_summary,
)

VGG16_META = TrainingRunMeta(
    model_name="VGG16", duration_hours=(97 * 60 + 44) / 3600,
    image_count=360, achieved_accuracy=0.9893,
)
RESNET50_META = TrainingRunMeta(
    model_name="ResNet50", duration_hours=(117 * 60 + 27) / 3600,
    image_count=330, achieved_accuracy=0.9279,
)


def constant_trace(watts, seconds=600, step=10):
    return [(t, watts) for t in range(0, seconds + 1, step)]


class TestAveragePower:
    def test_constant_measured_load(self):
        assert average_power(constant_trace(10.63)) == pytest.approx(0.01063)

    def test_two_samples(self):
        trace = [(0.0, 2.0), (1.0, 2.0)]
        assert average_power(trace) == pytest.approx(0.002)

    def test_triangle_trapezoid(self):
        # hand computation: area = 0.5*1*2 + 0.5*1*2 = 2 J over 2 s -> 1 W
        trace = [(0.0, 0.0), (1.0, 2.0), (2.0, 0.0)]
        assert average_power(trace) == pytest.approx(0.001)

    def test_too_few_samples(self):
        with pytest.raises(TraceError):
            average_power([(0.0, 1.0)])

    @given(offset=st.floats(min_value=-1e5, max_value=1e5))
    def test_timestamp_translation_invariance(self, offset):
        base = [(0.0, 1.0), (1.0, 3.0), (4.0, 2.0)]
        shifted = [(t + offset, w) for t, w in base]
        assert average_power(shifted) == pytest.approx(average_power(base), rel=1e-9)

    def test_trace_validation(self):
        with pytest.raises(TraceError):
            average_power([(1.0, 1.0), (1.0, 2.0)])
        with pytest.raises(TraceError):
            average_power([(0.0, -1.0), (1.0, 2.0)])

    @pytest.mark.parametrize("samples", [
        ((0.0, 1.0), (1.0, float("nan"))),
        ((0.0, 1.0), (1.0, float("inf"))),
        ((0.0, 1.0), (float("nan"), 2.0)),
        ((0.0, 1.0), (float("inf"), 2.0)),
    ], ids=["nan-watts", "inf-watts", "nan-timestamp", "inf-timestamp"])
    def test_samples_must_be_finite(self, samples):
        with pytest.raises(TraceError, match="finite"):
            average_power(samples)


class TestEcti:
    def test_published_vgg16_figure(self):
        result = compute_ecti(VGG16_META, 0.01063)
        assert result.defined
        assert result.kwh_per_image == pytest.approx(48.097e-6, rel=1e-3)

    def test_published_resnet50_figure(self):
        result = compute_ecti(RESNET50_META, 0.01059)
        assert result.defined
        assert result.kwh_per_image == pytest.approx(62.817e-6, rel=1e-3)

    def test_below_threshold_is_undefined(self):
        meta = TrainingRunMeta(model_name="m", duration_hours=1.0,
                               image_count=10, achieved_accuracy=0.5)
        result = compute_ecti(meta, 0.01)
        assert not result.defined
        assert select_model([result]) is None
        assert result.kwh_per_image == pytest.approx(0.001)  # raw figure still carried

    def test_unit_identity(self):
        meta = TrainingRunMeta(model_name="m", duration_hours=1.0,
                               image_count=1, achieved_accuracy=1.0)
        assert compute_ecti(meta, 1.0).kwh_per_image == 1.0

    @given(
        duration=st.floats(0.01, 100), count=st.integers(1, 10_000),
        kw=st.floats(1e-6, 10),
    )
    def test_scaling_laws(self, duration, count, kw):
        meta = TrainingRunMeta(model_name="m", duration_hours=duration,
                               image_count=count, achieved_accuracy=0.9)
        base = compute_ecti(meta, kw).kwh_per_image
        doubled_images = TrainingRunMeta(model_name="m", duration_hours=duration,
                                         image_count=2 * count, achieved_accuracy=0.9)
        assert compute_ecti(doubled_images, kw).kwh_per_image == pytest.approx(base / 2)
        assert compute_ecti(meta, 2 * kw).kwh_per_image == pytest.approx(base * 2)
        doubled_time = TrainingRunMeta(model_name="m", duration_hours=2 * duration,
                                       image_count=count, achieved_accuracy=0.9)
        assert compute_ecti(doubled_time, kw).kwh_per_image == pytest.approx(base * 2)

    @pytest.mark.parametrize("hours", [float("nan"), float("inf"), 0.0])
    def test_duration_must_be_finite_and_positive(self, hours):
        with pytest.raises(ValueError, match="duration_hours must be finite and > 0"):
            TrainingRunMeta(model_name="m", duration_hours=hours, image_count=1,
                            achieved_accuracy=0.9)

    @pytest.mark.parametrize("kw", [float("nan"), float("inf"), 1e308])
    def test_figure_must_be_finite(self, kw):
        meta = TrainingRunMeta(model_name="m", duration_hours=1e300, image_count=1,
                               achieved_accuracy=0.9)
        with pytest.raises(ValueError, match="not a finite number"):
            compute_ecti(meta, kw)


def ecti_results(candidates, q=0.7):
    """EctiResults from (model_name, kwh_per_image, accuracy) triples, defined at q."""
    return [EctiResult(model_name=name, kwh_per_image=kwh, defined=accuracy >= q,
                       achieved_accuracy=accuracy)
            for name, kwh, accuracy in candidates]


class TestSelectModel:
    CANDIDATES = [("VGG16", 48.097e-6, 0.9893), ("ResNet50", 62.817e-6, 0.9279)]

    def test_picks_lowest_energy_qualifier(self):
        assert select_model(ecti_results(self.CANDIDATES)) == "VGG16"

    def test_single_candidate(self):
        assert select_model(ecti_results([("only", 1.0, 0.8)])) == "only"

    def test_no_qualifier(self):
        assert select_model(ecti_results([("a", 1.0, 0.5), ("b", 2.0, 0.6)])) is None

    def test_unqualified_low_energy_model_skipped(self):
        candidates = [("cheap", 1e-6, 0.2)] + self.CANDIDATES
        assert select_model(ecti_results(candidates)) == "VGG16"

    def test_tie_breaks_lexicographically(self):
        assert select_model(ecti_results([("b", 1.0, 0.9), ("a", 1.0, 0.9)])) == "a"

    @given(
        candidates=st.lists(
            st.tuples(st.text(min_size=1, max_size=4),
                      st.floats(1e-9, 1.0), st.floats(0.71, 1.0)),
            min_size=1, max_size=8,
        )
    )
    def test_winner_is_never_beaten(self, candidates):
        winner = select_model(ecti_results(candidates))
        winner_ecti = min(e for n, e, _ in candidates if n == winner)
        assert all(winner_ecti <= e for _, e, _ in candidates)


class TestLifespan:
    @pytest.mark.parametrize(
        "peak,interval,expected",
        [
            (93.60, 10, 4.872),
            (93.72, 10, 4.896),
            (93.60, 15, 3.248),
            (93.72, 15, 3.264),
        ],
    )
    def test_published_factors(self, peak, interval, expected):
        factor = lifespan_reduction(peak, 69.24, interval)
        assert round(factor, 3) == expected

    def test_zero_deviation(self):
        assert lifespan_reduction(70.0, 70.0, 10) == 0.0

    def test_negative_deviation_rejected(self):
        with pytest.raises(ValueError):
            lifespan_reduction(60.0, 70.0, 10)

    @given(delta=st.floats(0.0, 80.0), interval=st.floats(1.0, 50.0))
    def test_linear_in_delta_and_inverse_in_interval(self, delta, interval):
        base = lifespan_reduction(50.0 + delta, 50.0, interval)
        assert lifespan_reduction(50.0 + 2 * delta, 50.0, interval) == pytest.approx(2 * base)
        assert lifespan_reduction(50.0 + delta, 50.0, 2 * interval) == pytest.approx(base / 2)


class TestThermalSummary:
    def test_training_deviation(self):
        peak, _, deviation = thermal_summary(
            [(0, 70.1), (30, 85.0), (60, 93.60), (90, 92.0)], 69.24)
        assert peak == pytest.approx(93.60)
        assert deviation == pytest.approx(24.36)

    def test_second_model_deviation(self):
        _, _, deviation = thermal_summary([(0, 80.0), (30, 93.72)], 69.24)
        assert deviation == pytest.approx(24.48)

    def test_flat_trace(self):
        _, mean, deviation = thermal_summary([(0, 69.24), (30, 69.24)], 69.24)
        assert deviation == 0.0
        assert mean == pytest.approx(69.24)

    def test_plausibility_guard(self):
        with pytest.raises(TraceError):
            thermal_summary([(0, 200.0)], 69.24)

    @pytest.mark.parametrize("baseline", [float("nan"), float("inf"), float("-inf")])
    def test_baseline_must_be_finite(self, baseline):
        with pytest.raises(TraceError, match="baseline temperature must be finite"):
            thermal_summary([(0, 80.0)], baseline)

    def test_baseline_above_the_peak_rejected(self):
        with pytest.raises(TraceError, match="above the trace peak"):
            thermal_summary([(0, 80.0), (30, 93.6)], 93.7)


class TestFileFormats:
    def test_power_csv(self, fixtures_dir):
        trace = load_power_csv(fixtures_dir / "vgg16_power.csv")
        assert average_power(trace) == pytest.approx(0.01063)

    def test_thermal_csv(self, fixtures_dir):
        trace = load_thermal_csv(fixtures_dir / "vgg16_thermal.csv")
        assert thermal_summary(trace, 69.24)[0] == pytest.approx(93.60)

    def test_meta_json(self, fixtures_dir):
        meta = load_run_meta(fixtures_dir / "vgg16_meta.json")
        assert meta.model_name == "VGG16"
        assert meta.duration_hours == pytest.approx(5864 / 3600)
        assert meta.image_count == 360

    def test_bad_header(self, tmp_path):
        bad = tmp_path / "p.csv"
        bad.write_text("time,power\n0,1\n")
        with pytest.raises(TraceError):
            load_power_csv(bad)
