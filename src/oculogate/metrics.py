"""Discrimination metrics, selective-prediction curves, slopes, severity
grades, and the longitudinal warning rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

# Severity bands in dB: label -> (low_exclusive, high_inclusive_or_open)
SEVERITY_BANDS = (
    ("normal", -2.0),     # md > -2
    ("early", -6.0),      # -6 < md <= -2
    ("moderate", -11.0),  # -11 < md <= -6
    ("advanced", None),   # md <= -11
)

WARN_ABS_THRESHOLD = 0.5    # fire when risk reaches this level
WARN_RISE_THRESHOLD = 0.10  # or when risk rises this much over two visits
# a rise is a difference of two rounded risks: 0.35 - 0.25 is 0.0999...98, so a
# rise that equals the threshold up to rounding must clear it by this much less
WARN_RISE_ROUNDING = 1e-9


def roc_auc(scores, labels) -> float:
    """Trapezoidal area under the ROC from a score-descending sweep.

    Ties are grouped, which makes this equal to the Mann-Whitney statistic
    with 0.5 credit for tied pairs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("roc_auc undefined: both classes must be present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = (labels[order] == 1).astype(np.float64)
    # indices where a run of tied scores ends
    last_of_run = np.flatnonzero(np.diff(s) != 0)
    last_of_run = np.append(last_of_run, s.size - 1)
    tps = np.cumsum(y)[last_of_run]
    fps = (last_of_run + 1) - tps
    tpr = np.concatenate([[0.0], tps / n_pos])
    fpr = np.concatenate([[0.0], fps / n_neg])
    return float(np.trapezoid(tpr, fpr))


def metrics_at_threshold(scores, labels, threshold: float) -> dict[str, float]:
    """Confusion-derived rates with the score >= threshold positive rule."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    neg = labels == 0
    if not pos.any() or not neg.any():
        raise DataError("metrics undefined: both classes must be present")
    pred = scores >= threshold
    tp = int((pred & pos).sum())
    fn = int((~pred & pos).sum())
    tn = int((~pred & neg).sum())
    fp = int((pred & neg).sum())
    # sensitivity written as 1 - FNR so it ties bitwise to the fairness module
    sens = 1.0 - fn / (fn + tp)
    spec = tn / (tn + fp)
    acc = (tp + tn) / labels.size
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    return {"accuracy": acc, "sensitivity": sens, "specificity": spec, "f1": f1}


def retained(uncertainties, sample_ids, coverage: float) -> np.ndarray:
    """Indices of the ceil(coverage*n) lowest-U samples, lowest first, with
    at least one and at most n kept. Ties in U break by sample id, so the
    retained sets are a deterministic, nested family as coverage grows."""
    u = np.asarray(uncertainties, dtype=np.float64)
    return np.lexsort((np.asarray(sample_ids), u))[:_kept(coverage, u.size)]


def _kept(coverage: float, n: int) -> int:
    return min(max(int(np.ceil(coverage * n)), 1), n)


def coverage_accuracy_curve(
    uncertainties,
    scores,
    labels,
    sample_ids=None,
    coverages=None,
    threshold: float = 0.5,
) -> list[tuple[float, float]]:
    """(coverage, accuracy) points over the samples `retained` at each
    coverage (Geifman & El-Yaniv, NeurIPS 2017), read off one sort."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise DataError("coverage_accuracy_curve needs at least one sample")
    if sample_ids is None:
        sample_ids = np.arange(scores.size)
    if coverages is None:
        coverages = [round(0.50 + 0.05 * i, 2) for i in range(11)]
    correct = (scores >= threshold).astype(int) == np.asarray(labels)
    hits = np.cumsum(correct[retained(uncertainties, sample_ids, 1.0)])
    ks = [_kept(c, hits.size) for c in coverages]
    return [(float(c), float(hits[k - 1] / k)) for c, k in zip(coverages, ks)]


def ols_slope(times, values):
    """Closed-form least-squares slope of values on times along the last
    axis: a float for one series, an array for a stack of them."""
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if t.shape[-1] < 2 or np.all(t == t[..., :1], axis=-1).any():
        raise DataError("ols_slope needs at least 2 distinct times")
    tc = t - t.mean(axis=-1, keepdims=True)
    slope = (tc * (v - v.mean(axis=-1, keepdims=True))).sum(axis=-1) \
        / (tc * tc).sum(axis=-1)
    return float(slope) if slope.ndim == 0 else slope


def eligibility_filter(visit_times):
    """True when there are >= 3 visits spanning >= 1.0 year, along the last
    axis: a bool for one series, a bool array for a stack of them."""
    t = np.asarray(visit_times, dtype=np.float64)
    if t.shape[-1] < 3:
        return False if t.ndim == 1 else np.zeros(t.shape[:-1], dtype=bool)
    ok = t.max(axis=-1) - t.min(axis=-1) >= 1.0
    return bool(ok) if ok.ndim == 0 else ok


def grade_md(md: float) -> str:
    for name, floor in SEVERITY_BANDS:
        if floor is None or md > floor:
            return name


def moderate_severe_fraction(md_passes) -> np.ndarray:
    """Fraction of MD estimates along the last axis at or below -6 dB, the
    bound grade_md already counts as "moderate"; one estimate per row gives
    the 0/1 indicator."""
    return (np.asarray(md_passes, dtype=np.float64) <= -6.0).mean(axis=-1)


@dataclass
class WarningResult:
    fired: bool
    first_warning_time: float | None
    first_warning_index: int | None
    lead_time_months: float | None
    delta_risk: float
    peak_risk: float


def dynamic_warning(visit_times, risks,
                    onset_time: float | None = None) -> WarningResult:
    """First-visit warning: risk >= WARN_ABS_THRESHOLD OR a two-visit rise
    >= WARN_RISE_THRESHOLD, up to rounding. Lead time is (onset - first
    warning) in months; negative means the warning came after onset.
    """
    t = np.asarray(visit_times, dtype=np.float64)
    p = np.asarray(risks, dtype=np.float64)
    if t.size < 4:
        raise DataError("dynamic_warning needs at least 4 visits")
    if np.any(np.diff(t) <= 0):
        raise DataError("dynamic_warning: visit times must be strictly increasing")
    fired_at = None
    rise = WARN_RISE_THRESHOLD - WARN_RISE_ROUNDING
    for i in range(t.size):
        if p[i] >= WARN_ABS_THRESHOLD or (i >= 2 and p[i] - p[i - 2] >= rise):
            fired_at = i
            break
    lead = None
    if fired_at is not None and onset_time is not None:
        lead = (onset_time - float(t[fired_at])) * 12.0
    return WarningResult(
        fired=fired_at is not None,
        first_warning_time=None if fired_at is None else float(t[fired_at]),
        first_warning_index=fired_at,
        lead_time_months=lead,
        delta_risk=float(p[-1] - p[0]),
        peak_risk=float(p.max()),
    )


def mean_absolute_error(pred, target) -> float:
    """Mean |pred - target| over the observed (non-NaN) targets."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ConfigError("mean_absolute_error: shape mismatch")
    observed = ~np.isnan(target)
    if not observed.any():
        raise DataError("mean_absolute_error: no observed target")
    return float(np.abs(pred[observed] - target[observed]).mean())
