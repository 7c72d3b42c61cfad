import numpy as np
import pytest

from oculogate.errors import ConfigError
from oculogate.fairness import (THRESHOLD_GRID, CalibrationResult,
                                apply_group_thresholds, calibrate_groups,
                                fairness_report, fnr_gap, group_fnr,
                                group_metrics)
from oculogate.metrics import roc_auc
from oculogate.rng import Rng


def reference_fixture():
    """Per-group FNRs match the published two-stage breakdown exactly:
    global 0.254 / 0.320 / 0.197 for White / Black / Asian."""
    scores, labels, groups = [], [], []

    def add_group(name, n_pos, fn, n_neg=300, fp=30):
        for i in range(n_pos):
            scores.append(0.4 if i < fn else 0.6)
            labels.append(1)
            groups.append(name)
        for i in range(n_neg):
            scores.append(0.6 if i < fp else 0.4)
            labels.append(0)
            groups.append(name)

    add_group("White", 500, 127)   # 127/500 = 0.254
    add_group("Black", 500, 160)   # 160/500 = 0.320
    add_group("Asian", 1000, 197)  # 197/1000 = 0.197
    return (np.array(scores), np.array(labels), np.array(groups))


class TestGroupFnr:
    def test_all_positives_confident_zero_fnr(self):
        scores = np.ones(30)
        labels = np.ones(30, dtype=int)
        scores2 = np.concatenate([scores, np.zeros(30)])
        labels2 = np.concatenate([labels, np.zeros(30, dtype=int)])
        groups = np.array(["a"] * 30 + ["b"] * 30)
        labels2[30:45] = 1
        scores2[30:45] = 1.0
        out = group_fnr(scores2, labels2, groups, 0.5)
        assert out["a"] == 0.0 and out["b"] == 0.0

    def test_reference_readback_exact(self):
        scores, labels, groups = reference_fixture()
        out = group_fnr(scores, labels, groups, 0.5)
        assert out["White"] == 127 / 500 == 0.254
        assert out["Black"] == 160 / 500 == 0.320
        assert out["Asian"] == 197 / 1000 == 0.197

    def test_counting_oracle(self):
        rng = Rng(71, "fnr")
        n = 400
        scores = rng.uniform(n)
        labels = (rng.uniform(n) < 0.4).astype(int)
        groups = np.array([["a", "b", "c"][int(g)] for g in rng.integers(0, 3, n)])
        out = group_fnr(scores, labels, groups, 0.5)
        for g in ("a", "b", "c"):
            m = groups == g
            pos = m & (labels == 1)
            fn = int(np.sum(pos & (scores < 0.5)))
            assert out[g] == fn / int(pos.sum())

    def test_no_positives_flagged(self):
        scores = np.array([0.1, 0.9, 0.3, 0.8])
        labels = np.array([0, 0, 1, 1])
        groups = np.array(["a", "a", "b", "b"])
        with pytest.warns(UserWarning, match="'a'"):
            out = group_fnr(scores, labels, groups, 0.5)
        assert out["a"] is None

    def test_per_group_thresholds(self):
        scores, labels, groups = reference_fixture()
        out = group_fnr(scores, labels, groups, {"White": 0.5, "Black": 0.3,
                                                 "Asian": 0.7})
        assert out["Black"] == 0.0     # every positive scores >= 0.4
        assert out["Asian"] == 1.0     # nobody reaches 0.7

    def test_monotone_in_threshold(self):
        rng = Rng(72, "mono")
        scores = rng.uniform(200)
        labels = (rng.uniform(200) < 0.5).astype(int)
        groups = np.array(["g"] * 200)
        prev = -1.0
        for t in np.linspace(0.05, 0.95, 19):
            fnr = group_fnr(scores, labels, groups, float(t))["g"]
            assert fnr >= prev
            prev = fnr


class TestFnrGap:
    def test_reference_values(self):
        assert fnr_gap([0.254, 0.320, 0.197]) == max(0.254, 0.320, 0.197) - 0.197
        assert fnr_gap([0.254, 0.320, 0.197]) == pytest.approx(0.123, abs=1e-12)
        assert fnr_gap([0.262, 0.272, 0.239]) == pytest.approx(0.033, abs=1e-12)

    def test_all_equal_zero(self):
        assert fnr_gap([0.3, 0.3, 0.3]) == 0.0

    def test_fewer_than_two_rejected(self):
        with pytest.raises(ConfigError):
            fnr_gap([0.2])
        with pytest.raises(ConfigError):
            fnr_gap({"a": 0.2, "b": None})


def shifted_fixture(n_per_group=600, shift=-0.2, seed=73):
    """Group b's scores shifted down; same labels-conditional structure."""
    rng = Rng(seed, "shift")
    scores, labels, groups = [], [], []
    for g, delta in (("a", 0.0), ("b", shift)):
        y = (rng.uniform(n_per_group) < 0.5).astype(int)
        s = np.clip(0.35 + 0.3 * y + rng.normal(n_per_group) * 0.18 + delta, 0, 1)
        scores.extend(s)
        labels.extend(y)
        groups.extend([g] * n_per_group)
    return np.array(scores), np.array(labels), np.array(groups)


def oracle_fixture(n_groups, kind):
    """150 visits per group with shifted scores ("coarse": rounded to 0.1,
    so whole threshold ranges tie on gap and accuracy), or "l2-tie": a
    small input whose best (gap, accuracy) holds (0.49, 0.48) and
    (0.51, 0.52), which lie at the same L2 distance from 0.5; group c
    copies group a."""
    if kind == "l2-tie":
        a = ([0.49, 0.52, 0.5, 0.58], [1, 1, 0, 0])
        b = ([0.58, 0.48, 0.51, 0.44, 0.45], [1, 1, 0, 0, 0])
        parts = [("a", a), ("b", b), ("c", a)][:n_groups]
        return (np.array([v for _, (s, _) in parts for v in s]),
                np.array([v for _, (_, y) in parts for v in y]),
                np.array([g for g, (s, _) in parts for _ in s]))
    rng = Rng(76, f"oracle/{n_groups}")
    n = 150 * n_groups
    groups = np.repeat(["a", "b", "c"][:n_groups], 150)
    labels = (rng.uniform(n) < 0.5).astype(int)
    shift = np.repeat([0.0, -0.2, 0.1][:n_groups], 150)
    scores = np.clip(0.35 + 0.3 * labels + rng.normal(n) * 0.18 + shift, 0, 1)
    if kind == "coarse":
        scores = np.round(scores * 10) / 10
    return scores, labels, groups


def lexsort_oracle(scores, labels, groups, names, acc_tolerance=0.005):
    """The first of every feasible threshold combination in one lexsort by
    (gap, -accuracy, L2 to 0.5, thresholds), from per-threshold counts; and
    how many combinations tie with it on all but the thresholds."""
    grid = THRESHOLD_GRID
    fnr = np.empty((len(names), grid.size))
    correct = np.empty((len(names), grid.size))
    for j, g in enumerate(names):
        s, y = scores[groups == g], labels[groups == g]
        for i, t in enumerate(grid):
            fnr[j, i] = np.sum((s < t) & (y == 1)) / np.sum(y == 1)
            correct[j, i] = np.sum((s >= t) == (y == 1))
    combos = np.indices((grid.size,) * len(names)).reshape(len(names), -1)
    rows = np.arange(len(names))[:, None]
    gap = fnr[rows, combos].max(axis=0) - fnr[rows, combos].min(axis=0)
    acc = correct[rows, combos].sum(axis=0) / scores.size
    acc0 = ((scores >= 0.5).astype(int) == labels).mean()
    ok = acc >= acc0 - acc_tolerance
    t, gap, acc = grid[combos[:, ok].T], gap[ok], acc[ok]     # t: (m, groups)
    d2 = ((t - 0.5) ** 2).sum(axis=1)
    first = np.lexsort((*t.T[::-1], d2, -acc, gap))[0]
    tied = (gap == gap[first]) & (acc == acc[first]) & (d2 == d2[first])
    return [float(v) for v in t[first]], int(tied.sum())


class TestCalibrateGroups:
    def test_identical_distributions_symmetric(self):
        rng = Rng(74, "sym")
        n = 500
        y = (rng.uniform(2 * n) < 0.5).astype(int)
        s = np.clip(0.3 + 0.4 * y + rng.normal(2 * n) * 0.15, 0, 1)
        groups = np.array(["a"] * n + ["b"] * n)
        # identical scores in both groups: duplicate the first half
        s[n:] = s[:n]
        y[n:] = y[:n]
        res = calibrate_groups(s, y, groups)
        assert res.thresholds["a"] == res.thresholds["b"]
        assert res.gap_after <= res.gap_before + 1e-12

    def test_shifted_group_gets_lower_threshold(self):
        scores, labels, groups = shifted_fixture()
        res = calibrate_groups(scores, labels, groups)
        assert res.gap_before >= 0.10
        assert res.gap_after <= 0.02
        assert res.thresholds["b"] < res.thresholds["a"]
        assert res.acc_after >= res.acc_before - 0.005

    def test_auc_unchanged_exactly(self):
        scores, labels, groups = shifted_fixture(seed=75)
        res = calibrate_groups(scores, labels, groups)
        assert res.auc == roc_auc(scores, labels)

    def test_gap_never_increases(self):
        for seed in (1, 2, 3):
            scores, labels, groups = shifted_fixture(seed=seed, shift=-0.1)
            res = calibrate_groups(scores, labels, groups)
            assert res.gap_after <= res.gap_before + 1e-12

    @pytest.mark.parametrize("kind", ["fine", "coarse", "l2-tie"])
    @pytest.mark.parametrize("n_groups", [2, 3])
    def test_exhaustive_grid_oracle(self, n_groups, kind):
        scores, labels, groups = oracle_fixture(n_groups, kind)
        res = calibrate_groups(scores, labels, groups)
        names = sorted(set(groups))
        chosen, n_tied = lexsort_oracle(scores, labels, groups, names)
        assert [res.thresholds[g] for g in names] == chosen
        if kind == "l2-tie":   # only the threshold order decides
            assert n_tied == 2

    def test_order_and_renaming_invariance(self):
        scores, labels, groups = shifted_fixture(n_per_group=200, seed=77)
        res = calibrate_groups(scores, labels, groups)
        perm = Rng(78, "perm").permutation(len(scores))
        res2 = calibrate_groups(scores[perm], labels[perm], groups[perm])
        assert res.thresholds == res2.thresholds
        assert res.gap_after == res2.gap_after
        renamed = np.where(groups == "a", "zz_a", "mm_b")
        res3 = calibrate_groups(scores, labels, renamed)
        assert res3.thresholds["zz_a"] == res.thresholds["a"]
        assert res3.thresholds["mm_b"] == res.thresholds["b"]

    def test_group_without_both_classes_rejected(self):
        scores = np.array([0.9, 0.8, 0.4, 0.2])
        labels = np.array([1, 1, 0, 0])
        groups = np.array(["a", "a", "a", "b"])
        with pytest.raises(ConfigError, match="'b'"):
            calibrate_groups(scores, labels, groups)

    def test_four_groups_refused_before_the_search(self):
        """91^4 threshold combinations exceed the dense search's cap; the
        refusal comes before any grid array is built."""
        scores = np.tile([0.9, 0.2], 4)
        labels = np.tile([1, 0], 4)
        groups = np.repeat(["a", "b", "c", "d"], 2)
        with pytest.raises(ConfigError, match="4 groups"):
            calibrate_groups(scores, labels, groups)

    def test_infeasible_returns_global_with_flag(self):
        scores, labels, groups = shifted_fixture(n_per_group=200, seed=79)
        res = calibrate_groups(scores, labels, groups, acc_tolerance=-1.0)
        assert not res.feasible
        assert res.thresholds == {"a": 0.5, "b": 0.5}
        assert res.gap_after == res.gap_before


class TestApplyThresholds:
    def _result(self, ta=0.5, tb=0.5):
        return CalibrationResult(
            thresholds={"a": ta, "b": tb}, global_threshold=0.5,
            fnr_before={}, fnr_after={}, gap_before=0.0, gap_after=0.0,
            acc_before=0.0, acc_after=0.0, auc=0.5, feasible=True)

    def test_uniform_thresholds_match_global(self):
        rng = Rng(80, "app")
        scores = rng.uniform(100)
        groups = np.array([["a", "b"][int(b)] for b in rng.integers(0, 2, 100)])
        dec, flagged = apply_group_thresholds(self._result(), scores, groups)
        assert np.array_equal(dec, (scores >= 0.5).astype(int))
        assert flagged == []

    def test_boundary_counts_positive(self):
        dec, _ = apply_group_thresholds(self._result(ta=0.37),
                                        np.array([0.37]), np.array(["a"]))
        assert dec[0] == 1

    def test_one_line_oracle(self):
        rng = Rng(81, "app2")
        scores = rng.uniform(200)
        groups = np.array([["a", "b"][int(b)] for b in rng.integers(0, 2, 200)])
        res = self._result(ta=0.4, tb=0.7)
        dec, _ = apply_group_thresholds(res, scores, groups)
        want = np.where(groups == "a", scores >= 0.4, scores >= 0.7).astype(int)
        assert np.array_equal(dec, want)

    def test_unseen_group_uses_global_and_flags(self):
        res = self._result(ta=0.3, tb=0.3)
        dec, flagged = apply_group_thresholds(res, np.array([0.45, 0.55]),
                                              np.array(["zz", "zz"]))
        assert flagged == ["zz"]
        assert dec.tolist() == [0, 1]


class TestReportShape:
    def test_two_stage_report(self):
        scores, labels, groups = shifted_fixture(n_per_group=150, seed=82)
        res = calibrate_groups(scores, labels, groups)
        report = fairness_report(res)
        assert [s["stage"] for s in report["stages"]] == ["global", "calibrated"]
        for stage in report["stages"]:
            assert set(stage) == {"stage", "per_group", "gap", "auc", "accuracy"}
            assert set(stage["per_group"]) == {"a", "b"}
        assert report["stages"][0]["auc"] == report["stages"][1]["auc"]

    def test_group_metrics_fields(self):
        scores, labels, groups = shifted_fixture(n_per_group=100, seed=83)
        for gm in group_metrics(scores, labels, groups):
            assert gm.n > 0 and gm.n_pos >= 0
            assert 0.0 <= gm.fnr <= 1.0
            assert 0.0 <= gm.fpr <= 1.0
