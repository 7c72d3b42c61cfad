"""Subgroup audit and per-group threshold calibration.

Calibration minimizes the cross-group false-negative-rate gap over an
exhaustive per-group threshold grid, subject to a bound on overall accuracy
loss relative to the shared global threshold. Thresholds never touch the
scores, so AUC is reported unchanged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError, DataError
from .metrics import roc_auc

THRESHOLD_GRID = np.round(np.arange(0.05, 0.95 + 1e-9, 0.01), 2)
DEFAULT_ACC_TOLERANCE = 0.005  # 0.5 percentage points
MAX_GRID_CELLS = 1 << 24       # per-group threshold combinations searched
                               # densely: 128 MB per float64 array


@dataclass
class GroupMetrics:
    group: str
    n: int
    n_pos: int
    fnr: float | None
    fpr: float | None
    auc: float | None


@dataclass
class CalibrationResult:
    thresholds: dict[str, float]
    global_threshold: float
    fnr_before: dict[str, float]
    fnr_after: dict[str, float]
    gap_before: float
    gap_after: float
    acc_before: float
    acc_after: float
    auc: float
    feasible: bool


def _as_arrays(scores, labels, groups):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    groups = np.asarray(groups)
    if not (scores.shape == labels.shape == groups.shape):
        raise ConfigError("scores, labels, and groups must have equal length")
    return scores, labels, groups


def group_fnr(scores, labels, groups, threshold) -> dict[str, float | None]:
    """FNR per group with predicted-positive iff score >= threshold(group).

    threshold may be a scalar or a group->threshold map. Groups without
    positives get None (flagged, excluded from any gap).
    """
    scores, labels, groups = _as_arrays(scores, labels, groups)
    out: dict[str, float | None] = {}
    for g in np.unique(groups):
        t = threshold[str(g)] if isinstance(threshold, dict) else threshold
        m = groups == g
        pos = m & (labels == 1)
        n_pos = int(pos.sum())
        if n_pos == 0:
            warnings.warn(f"group '{g}' has no positives; FNR undefined")
            out[str(g)] = None
            continue
        fn = int((scores[pos] < t).sum())
        out[str(g)] = fn / n_pos
    return out


def fnr_gap(fnrs) -> float:
    """Maximum pairwise |FNR_i - FNR_j|; undefined FNRs are excluded."""
    values = [v for v in (fnrs.values() if isinstance(fnrs, dict) else fnrs)
              if v is not None]
    if len(values) < 2:
        raise ConfigError("fnr_gap needs at least 2 groups with defined FNR")
    return max(values) - min(values)


def group_metrics(scores, labels, groups, threshold: float = 0.5) -> list[GroupMetrics]:
    scores, labels, groups = _as_arrays(scores, labels, groups)
    out = []
    for g in np.unique(groups):
        m = groups == g
        pos = m & (labels == 1)
        neg = m & (labels == 0)
        n_pos, n_neg = int(pos.sum()), int(neg.sum())
        fnr = float((scores[pos] < threshold).sum() / n_pos) if n_pos else None
        fpr = float((scores[neg] >= threshold).sum() / n_neg) if n_neg else None
        try:
            auc = roc_auc(scores[m], labels[m])
        except DataError:
            auc = None
        out.append(GroupMetrics(group=str(g), n=int(m.sum()), n_pos=n_pos,
                                fnr=fnr, fpr=fpr, auc=auc))
    return out


def calibrate_groups(
    scores,
    labels,
    groups,
    acc_tolerance: float = DEFAULT_ACC_TOLERANCE,
    global_threshold: float = 0.5,
) -> CalibrationResult:
    """Exhaustive search of THRESHOLD_GRID per group minimizing the FNR gap
    (Hardt, Price & Srebro, NeurIPS 2016).

    Feasible solutions keep overall accuracy within acc_tolerance of the
    global-threshold accuracy. Ties break toward higher accuracy, then
    thresholds nearest 0.5 in L2, then lexicographic threshold order (groups
    in sorted name order). With an empty feasible set the global thresholds
    are returned, flagged infeasible. A group count whose grid product
    exceeds MAX_GRID_CELLS is refused.
    """
    scores, labels, groups = _as_arrays(scores, labels, groups)
    names = [str(g) for g in np.unique(groups)]
    grid = THRESHOLD_GRID
    if grid.size ** len(names) > MAX_GRID_CELLS:
        raise ConfigError(
            f"calibrate_groups: {len(names)} groups on a {grid.size}-point "
            f"threshold grid exceed the {MAX_GRID_CELLS} combinations the "
            f"dense search holds")
    n = scores.size
    for g in names:
        m = groups == g
        if not ((labels[m] == 1).any() and (labels[m] == 0).any()):
            raise ConfigError(f"group '{g}' needs both positives and negatives")

    auc = roc_auc(scores, labels)
    fnr_before = group_fnr(scores, labels, groups, global_threshold)
    gap_before = fnr_gap(fnr_before)
    acc_before = float(((scores >= global_threshold).astype(int) == labels).mean())

    # per-group curves over the grid: FNR and correct-count are separable
    fnr_curves, correct_curves = [], []
    for g in names:
        m = groups == g
        pred = scores[m][None, :] >= grid[:, None]      # (k, n_g)
        pos = labels[m] == 1
        fnr_curves.append((~pred[:, pos]).sum(axis=1) / max(int(pos.sum()), 1))
        correct_curves.append((pred == pos[None, :]).sum(axis=1).astype(np.float64))

    # the same curves, one grid axis per group, over the full grid product
    fnr = np.ix_(*fnr_curves)
    gap = reduce(np.maximum, fnr) - reduce(np.minimum, fnr)
    accuracy = reduce(np.add, np.ix_(*correct_curves)) / n

    feasible = accuracy >= acc_before - acc_tolerance
    if not feasible.any():
        return CalibrationResult(
            thresholds={g: global_threshold for g in names},
            global_threshold=global_threshold,
            fnr_before=fnr_before, fnr_after=dict(fnr_before),
            gap_before=gap_before, gap_after=gap_before,
            acc_before=acc_before, acc_after=acc_before,
            auc=auc, feasible=False,
        )

    candidate_gap = np.where(feasible, gap, np.inf)
    mask = candidate_gap == candidate_gap.min()
    mask &= accuracy == accuracy[mask].max()
    # argwhere lists the ties in lexicographic index order, and argmin takes
    # the first of the L2 minima
    idx = np.argwhere(mask)
    chosen = idx[np.argmin(((grid[idx] - 0.5) ** 2).sum(axis=1))]
    thresholds = {g: float(grid[chosen[a]]) for a, g in enumerate(names)}

    fnr_after = group_fnr(scores, labels, groups, thresholds)
    return CalibrationResult(
        thresholds=thresholds,
        global_threshold=global_threshold,
        fnr_before=fnr_before,
        fnr_after=fnr_after,
        gap_before=gap_before,
        gap_after=fnr_gap(fnr_after),
        acc_before=acc_before,
        acc_after=float(accuracy[tuple(chosen)]),
        auc=auc,
        feasible=True,
    )


def apply_group_thresholds(result: CalibrationResult, scores, groups
                           ) -> tuple[np.ndarray, list[str]]:
    """Binary decisions (score >= group threshold) plus audit flags for
    groups missing from the calibration."""
    scores = np.asarray(scores, dtype=np.float64)
    groups = np.asarray(groups)
    decisions = np.zeros(scores.size, dtype=np.int64)
    flagged: list[str] = []
    for g in np.unique(groups):
        m = groups == g
        t = result.thresholds.get(str(g))
        if t is None:
            t = result.global_threshold
            flagged.append(str(g))
        decisions[m] = (scores[m] >= t).astype(np.int64)
    return decisions, flagged


def fairness_report(result: CalibrationResult) -> dict:
    """Two-stage report of a calibration: shared global threshold vs
    per-group calibrated."""
    return {
        "stages": [
            {
                "stage": "global",
                "per_group": {g: {"fnr": result.fnr_before[g]}
                              for g in sorted(result.fnr_before)},
                "gap": result.gap_before,
                "auc": result.auc,
                "accuracy": result.acc_before,
            },
            {
                "stage": "calibrated",
                "per_group": {g: {"fnr": result.fnr_after[g]}
                              for g in sorted(result.fnr_after)},
                "gap": result.gap_after,
                "auc": result.auc,
                "accuracy": result.acc_after,
            },
        ],
        "thresholds": {g: result.thresholds[g] for g in sorted(result.thresholds)},
        "feasible": result.feasible,
    }
