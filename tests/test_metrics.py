import csv
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oculogate.errors import DataError
from oculogate.metrics import (coverage_accuracy_curve, dynamic_warning,
                               eligibility_filter, grade_md,
                               mean_absolute_error, metrics_at_threshold, ols_slope,
                               moderate_severe_fraction, retained, roc_auc)
from oculogate.rng import Rng

from helpers import risk_by_age_band

FIXTURES = os.path.join(os.path.dirname(__file__), "data")


def pairwise_auc(scores, labels):
    """O(n^2) Mann-Whitney oracle with 0.5 tie credit."""
    scores = np.asarray(scores)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            total += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
    return total / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_mann_whitney_oracle(self):
        rng = Rng(17, "auc")
        scores = np.round(rng.uniform(200), 2)  # rounding forces ties
        labels = (rng.uniform(200) < 0.4).astype(int)
        assert abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_auc([0.1, 0.9], [1, 1])

    def test_invariant_under_monotone_transform(self):
        rng = Rng(18, "auc2")
        scores = rng.uniform(300)
        labels = (rng.uniform(300) < 0.5).astype(int)
        a = roc_auc(scores, labels)
        b = roc_auc(scores ** 3, labels)
        assert abs(a - b) <= 1e-12


class TestMetricsAtThreshold:
    def test_hand_count(self):
        m = metrics_at_threshold([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0], 0.5)
        assert m["sensitivity"] == 0.5
        assert m["specificity"] == 0.5
        assert m["accuracy"] == 0.5

    def test_zero_threshold_all_positive(self):
        m = metrics_at_threshold([0.2, 0.8, 0.5], [1, 0, 1], 0.0)
        assert m["sensitivity"] == 1.0

    def test_counting_oracle(self):
        rng = Rng(19, "thr")
        scores = rng.uniform(500)
        labels = (rng.uniform(500) < 0.3).astype(int)
        t = 0.4
        m = metrics_at_threshold(scores, labels, t)
        pred = scores >= t
        tp = np.sum(pred & (labels == 1))
        fn = np.sum(~pred & (labels == 1))
        tn = np.sum(~pred & (labels == 0))
        fp = np.sum(pred & (labels == 0))
        assert m["sensitivity"] == 1.0 - fn / (fn + tp)
        assert m["specificity"] == tn / (tn + fp)
        assert m["accuracy"] == (tp + tn) / 500
        assert m["f1"] == 2 * tp / (2 * tp + fp + fn)

    def test_sensitivity_is_one_minus_fnr(self):
        from oculogate.fairness import group_fnr

        rng = Rng(20, "tie")
        scores = rng.uniform(300)
        labels = (rng.uniform(300) < 0.5).astype(int)
        groups = np.array(["g"] * 300)
        m = metrics_at_threshold(scores, labels, 0.5)
        fnr = group_fnr(scores, labels, groups, 0.5)["g"]
        assert m["sensitivity"] == 1.0 - fnr


class TestCoverageCurve:
    def _fixture(self, n=200, seed=21):
        rng = Rng(seed, "cov")
        u = rng.uniform(n)
        scores = rng.uniform(n)
        labels = (rng.uniform(n) < 0.5).astype(int)
        ids = [f"s{i:04d}" for i in range(n)]
        return u, scores, labels, ids

    def test_full_coverage_equals_global_accuracy(self):
        u, scores, labels, ids = self._fixture()
        points = coverage_accuracy_curve(u, scores, labels, ids)
        acc = metrics_at_threshold(scores, labels, 0.5)["accuracy"]
        assert points[-1][0] == 1.0 and points[-1][1] == acc

    def test_sort_and_slice_oracle(self):
        u, scores, labels, ids = self._fixture()
        points = coverage_accuracy_curve(u, scores, labels, ids)
        order = sorted(range(len(u)), key=lambda i: (u[i], ids[i]))
        for c, acc in points:
            k = int(np.ceil(c * len(u)))
            kept = order[:k]
            want = np.mean([(scores[i] >= 0.5) == labels[i] for i in kept])
            assert acc == want

    def test_retained_sets_nested(self):
        u, scores, labels, ids = self._fixture()
        order = sorted(range(len(u)), key=lambda i: (u[i], ids[i]))
        prev = set()
        for c in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]:
            keep = retained(u, ids, c)
            assert list(keep) == order[:int(np.ceil(c * len(u)))]
            assert prev.issubset(set(keep))
            prev = set(keep)

    def test_retained_keeps_one_to_n(self):
        u, _, _, ids = self._fixture()
        assert list(retained(u, ids, 0.0)) == [int(np.argmin(u))]
        assert sorted(retained(u, ids, 2.0)) == list(range(len(u)))
        assert retained([], [], 0.5).size == 0

    def test_one_sort_matches_the_per_point_retained_rule(self):
        """Tied U, coverages that cut at the same count, coverage 1.0 and
        coverages below 1/n read the same points as a retained call each."""
        n = 37
        rng = Rng(8, "cov-ties")
        u = np.round(rng.uniform(n) * 4.0) / 4.0     # five distinct values
        scores, labels = rng.uniform(n), (rng.uniform(n) < 0.5).astype(int)
        ids = [f"s{i:03d}" for i in rng.permutation(n)]
        coverages = [0.0, 0.01, 0.5 / n, 1.0 / n, 0.3, 11 / n, 10.5 / n,
                     0.5, 0.51, 0.999, 1.0, *np.linspace(0.0, 1.0, 101)]
        correct = (scores >= 0.5).astype(int) == labels
        want = []
        for c in coverages:
            keep = retained(u, ids, c)
            want.append((float(c), float(correct[keep].sum() / keep.size)))
        assert coverage_accuracy_curve(u, scores, labels, ids, coverages) == want

    def test_no_samples_refused(self):
        with pytest.raises(DataError, match="at least one sample"):
            coverage_accuracy_curve([], [], [], [])

    def test_ties_break_by_sample_id(self):
        u = [0.5, 0.5, 0.5, 0.5]
        scores = [1.0, 0.0, 1.0, 0.0]
        labels = [1, 1, 1, 1]
        ids = ["a", "b", "c", "d"]
        points = coverage_accuracy_curve(u, scores, labels, ids, coverages=[0.5])
        # retained = a, b -> one correct of two
        assert points[0][1] == 0.5


class TestMeanAbsoluteError:
    def test_averages_over_the_observed_targets(self):
        got = mean_absolute_error([1.0, 2.0, 5.0, 0.0], [2.0, np.nan, 1.0, np.nan])
        assert got == 2.5

    def test_no_observed_target_is_a_data_error(self):
        with pytest.raises(DataError, match="no observed target"):
            mean_absolute_error([1.0, 2.0], [np.nan, np.nan])


class TestOlsSlope:
    def test_hand_line(self):
        assert ols_slope([0, 1, 2], [-1, -2, -3]) == -1.0

    def test_constant_is_zero(self):
        assert ols_slope([0, 1, 2], [4.0, 4.0, 4.0]) == 0.0

    def test_normal_equations_oracle(self):
        rng = Rng(22, "ols")
        for _ in range(50):
            n = rng.integers(2, 12)
            t = np.sort(rng.uniform(n) * 10)
            if t[0] == t[-1]:
                continue
            v = rng.normal(n) * 3
            a = np.vstack([t, np.ones(n)]).T
            want = np.linalg.lstsq(a, v, rcond=None)[0][0]
            assert abs(ols_slope(t, v) - want) <= 1e-9

    def test_translation_invariance_and_scaling(self):
        rng = Rng(23, "ols2")
        t = np.array([0.0, 0.7, 1.9, 3.2])
        v = rng.normal(4)
        base = ols_slope(t, v)
        assert abs(ols_slope(t + 100.0, v) - base) <= 1e-9
        assert abs(ols_slope(t * 4.0, v) - base / 4.0) <= 1e-12

    def test_degenerate_times(self):
        with pytest.raises(DataError):
            ols_slope([1.0, 1.0, 1.0], [1, 2, 3])


class TestEligibility:
    def test_two_visits_long_span_excluded(self):
        assert eligibility_filter([0.0, 3.0]) is False

    def test_three_visits_short_span_excluded(self):
        assert eligibility_filter([0.0, 0.5, 0.9]) is False

    def test_three_visits_exactly_one_year_included(self):
        assert eligibility_filter([0.0, 0.5, 1.0]) is True


class TestSeverity:
    @pytest.mark.parametrize("md,grade", [
        (-0.57, "normal"),
        (-2.97, "early"),
        (-7.62, "moderate"),
        (-11.70, "advanced"),
    ])
    def test_reference_cases(self, md, grade):
        assert grade_md(md) == grade

    @pytest.mark.parametrize("md,grade", [
        (-2.0, "early"), (-6.0, "moderate"), (-11.0, "advanced"),
    ])
    def test_boundaries_fall_to_worse_band(self, md, grade):
        assert grade_md(md) == grade

    def test_mts_prob_from_passes(self):
        passes = np.array([[-7.0] * 6 + [0.0] * 9, [-7.0] * 15])
        assert moderate_severe_fraction(passes).tolist() == [6 / 15, 1.0]

    def test_mts_prob_indicator_fallback(self):
        # one estimate per row is the 0/1 indicator the predict stage writes
        md_hat = np.array([-7.0, -5.0])
        assert moderate_severe_fraction(md_hat[:, None]).tolist() == [1.0, 0.0]

    def test_mts_boundary_agrees_with_grade(self):
        # exactly -6 dB is "moderate" for grade_md and counts as
        # moderate-to-severe for the gate and the predict stage alike
        assert grade_md(-6.0) == "moderate"
        assert moderate_severe_fraction([[-6.0]]).tolist() == [1.0]
        assert moderate_severe_fraction([[np.nextafter(-6.0, 0.0)]]).tolist() == [0.0]


class TestAgeBands:
    def test_constant_predictions(self):
        out = risk_by_age_band([0.4] * 6, [35, 45, 55, 65, 75, 85])
        assert list(out.values()) == [0.4, 0.4, 0.4]

    def test_reference_fixture_file(self):
        ages, risks = [], []
        with open(os.path.join(FIXTURES, "age_band_fixture.csv")) as f:
            for row in csv.DictReader(f):
                ages.append(float(row["age"]))
                risks.append(float(row["risk"]))
        out = risk_by_age_band(risks, ages)
        assert out["30-50"] == 0.36
        assert out["50-70"] == 0.48
        assert out["70-90"] == 0.58
        values = list(out.values())
        assert values == sorted(values)

    def test_empty_band_flagged(self):
        out = risk_by_age_band([0.2, 0.3], [40, 45])
        assert out["30-50"] is not None
        assert out["50-70"] is None


class TestDynamicWarning:
    def test_absolute_rule(self):
        w = dynamic_warning([0, 1, 2, 3], [0.1, 0.2, 0.6, 0.7], onset_time=2.5)
        assert w.fired and w.first_warning_index == 2
        assert w.lead_time_months == (2.5 - 2.0) * 12

    def test_rise_rule(self):
        w = dynamic_warning([0, 1, 2, 3], [0.10, 0.15, 0.21, 0.26])
        assert w.fired and w.first_warning_index == 2

    def test_rise_equal_to_the_threshold_up_to_rounding_fires(self):
        # 0.35 - 0.25 rounds to 0.09999999999999998
        w = dynamic_warning([0, 1, 2, 3], [0.25, 0.25, 0.25, 0.35])
        assert w.fired and w.first_warning_index == 3

    def test_no_fire(self):
        w = dynamic_warning([0, 1, 2, 3], [0.2, 0.25, 0.22, 0.28])
        assert not w.fired
        assert w.first_warning_time is None and w.lead_time_months is None

    def test_delta_and_peak(self):
        w = dynamic_warning([0, 1, 2, 3], [0.2, 0.9, 0.3, 0.4])
        assert w.delta_risk == pytest.approx(0.2)
        assert w.peak_risk == 0.9

    def test_unordered_times_rejected(self):
        with pytest.raises(DataError):
            dynamic_warning([0, 2, 1, 3], [0.1, 0.2, 0.3, 0.4])

    def test_too_few_visits_rejected(self):
        with pytest.raises(DataError):
            dynamic_warning([0, 1, 2], [0.1, 0.2, 0.3])

    @given(st.lists(st.floats(0.0, 0.45), min_size=4, max_size=10),
           st.floats(0.01, 0.5))
    @settings(max_examples=60, deadline=None)
    @example(risks=[0.0, 0.0, 0.0, 0.1], bump=0.25)
    def test_monotone_raising_risks_never_unfires(self, risks, bump):
        times = list(range(len(risks)))
        base = dynamic_warning(times, risks)
        raised = dynamic_warning(times, [min(r + bump, 1.0) for r in risks])
        if base.fired:
            assert raised.fired
            assert raised.first_warning_index <= base.first_warning_index
