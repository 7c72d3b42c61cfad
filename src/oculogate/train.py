"""Multi-task optimization and the two validation-set grid searches.

The total loss is mean screening cross-entropy (averaged over the two
stream logits) plus lambda times the mean progression term over
slope-labeled samples; the progression term averages the Smooth-L1 of the
current-MD and slope outputs. The two terms are backpropagated separately
so their gradient norms on the shared clinical trunk can be logged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import CohortTable
from .errors import ConfigError, NumericError
from .metrics import mean_absolute_error, roc_auc
from .model import (DualStreamModel, FusionConfig, dropout, predict_arrays,
                    visual_features_batch)
from .numerics import (adamw_step, binary_cross_entropy, binary_cross_entropy_grad,
                       smooth_l1, smooth_l1_grad)
from .rng import Rng


# key -> (whether a value is allowed, what the key must be)
TRAIN_BOUNDS = {
    "lr": (lambda v: v > 0.0, "be > 0"),
    "wd": (lambda v: v >= 0.0, "be >= 0"),
}


@dataclass
class TrainConfig:
    lambda_weight: float = 5.0
    lr: float = 1e-4
    wd: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 10
    split: tuple[float, float, float] = (0.70, 0.15, 0.15)
    seed: int = 7
    include_md_in_regression: bool = True

    def validate(self) -> None:
        for key, (allowed, rule) in TRAIN_BOUNDS.items():
            if not allowed(getattr(self, key)):
                raise ConfigError(f"'{key}' must {rule}, got {getattr(self, key)}")
        if not self.lr * self.wd < 1.0:
            # weight decay scales every weight by 1 - lr*wd each step
            raise ConfigError(f"'lr' * 'wd' must be < 1, got {self.lr} * {self.wd}")
        if self.lambda_weight < 0:
            raise ConfigError("lambda_weight must be >= 0")
        if abs(sum(self.split) - 1.0) > 1e-9 or any(f <= 0 for f in self.split):
            raise ConfigError("split fractions must be positive and sum to 1")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, max_epochs, patience must be >= 1")


SPLITS = ("train", "val", "test")


@dataclass
class SplitResult:
    train: CohortTable
    val: CohortTable
    test: CohortTable
    assignment: dict[str, str]    # patient_id -> split name

    @classmethod
    def of(cls, cohort: CohortTable, assignment: dict[str, str]) -> "SplitResult":
        """Each split's rows of cohort, in cohort order; a patient the
        assignment does not name belongs to no split."""
        split_of = [assignment.get(pid) for pid in cohort.patient_id]
        return cls(**{name: cohort.subset(np.flatnonzero([s == name for s in split_of]))
                      for name in SPLITS}, assignment=assignment)


def _apportion(n: int, fractions) -> list[int]:
    """Largest-remainder apportionment with every split non-empty."""
    k = len(fractions)
    counts = [1] * k
    remaining = n - k
    raw = [remaining * f for f in fractions]
    floors = [int(x) for x in raw]
    counts = [c + f for c, f in zip(counts, floors)]
    left = remaining - sum(floors)
    order = sorted(range(k), key=lambda j: (-(raw[j] - floors[j]), j))
    for j in order[:left]:
        counts[j] += 1
    return counts


def split_dataset(cohort: CohortTable, cfg: TrainConfig) -> SplitResult:
    """Patient-level split stratified on (ever-positive label, group).

    No patient spans splits. A stratum with fewer than 3 patients cannot
    appear in every split and raises a config error naming it.
    """
    cfg.validate()
    if len(cohort) == 0:
        raise ConfigError("split_dataset: empty cohort")
    per_patient: dict[str, dict] = {}
    for i, pid in enumerate(cohort.patient_id):
        entry = per_patient.setdefault(pid, {"label": 0, "group": cohort.race[i]})
        entry["label"] = max(entry["label"], int(cohort.label[i]))
    strata: dict[tuple[str, int], list[str]] = {}
    for pid in sorted(per_patient):
        e = per_patient[pid]
        strata.setdefault((e["group"], e["label"]), []).append(pid)

    assignment: dict[str, str] = {}
    for (group, label), pids in sorted(strata.items()):
        if len(pids) < len(SPLITS):
            raise ConfigError(
                f"stratum (group={group}, label={label}) has {len(pids)} patients; "
                f"too small to appear in all splits")
        rng = Rng(cfg.seed, f"split/{group}/{label}")
        order = rng.permutation(len(pids))
        counts = _apportion(len(pids), cfg.split)
        cursor = 0
        for name, count in zip(SPLITS, counts):
            for j in order[cursor : cursor + count]:
                assignment[pids[j]] = name
            cursor += count
    return SplitResult.of(cohort, assignment)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _dcce_norm(model: DualStreamModel) -> float:
    """Squared norm of the trunk (dcce.*) gradients in the store, summed in
    the order backward reaches them: blocks and layers last to first, the
    weight before the bias."""
    total = 0.0
    for b, l in reversed(model.dense_layers()):
        for part in ("W", "b"):
            g = model.params[f"dcce.b{b}.l{l}.{part}"].grad
            total += float((g * g).sum())
    return total


def multitask_loss(out: dict, y, md_t, slope_t, labeled, cfg: TrainConfig
                   ) -> tuple[float, float, dict, dict]:
    """The training objective of one batch from the forward outputs: the
    screening loss, the progression loss, and the upstream derivatives
    (backward's d_* keywords) of each. The progression term and its
    upstream are before the lambda weight; with lambda 0 or no slope-labeled
    row (labeled) it is 0.0 with no upstream. A row whose MD is missing
    (NaN) is its own MD target, so its MD term has zero loss and gradient."""
    b = y.size
    l_scr = 0.5 * (binary_cross_entropy(out["logit_vis"], y)
                   + binary_cross_entropy(out["logit_clin"], y)).mean()
    d_scr = {"d_logit_vis": 0.5 * binary_cross_entropy_grad(out["logit_vis"], y) / b,
             "d_logit_clin": 0.5 * binary_cross_entropy_grad(out["logit_clin"], y) / b}
    m_count = int(labeled.sum())
    if m_count == 0 or cfg.lambda_weight == 0:
        return float(l_scr), 0.0, d_scr, {}
    w_md, w_sl = (0.5, 0.5) if cfg.include_md_in_regression else (0.0, 1.0)
    md_hat, md_t = out["md_hat"][labeled], md_t[labeled]
    md_t = np.where(np.isnan(md_t), md_hat, md_t)
    sl_hat, slope_t = out["slope_hat"][labeled], slope_t[labeled]
    l_prog = float((w_md * smooth_l1(md_hat, md_t)
                    + w_sl * smooth_l1(sl_hat, slope_t)).mean())
    d_prog = {"d_md": np.zeros(b), "d_slope": np.zeros(b)}
    d_prog["d_md"][labeled] = w_md * smooth_l1_grad(md_hat, md_t) / m_count
    d_prog["d_slope"][labeled] = w_sl * smooth_l1_grad(sl_hat, slope_t) / m_count
    return float(l_scr), l_prog, d_scr, d_prog


@dataclass
class TrainHistory:
    records: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_auc: float = -np.inf

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records) + "\n"


def train_multitask(
    model: DualStreamModel,
    cfg: TrainConfig,
    x_train: np.ndarray, s_train: np.ndarray, train_table: CohortTable,
    x_val: np.ndarray, v_val: np.ndarray, val_table: CohortTable,
    fusion: FusionConfig,
) -> TrainHistory:
    """AdamW on the multi-task loss with early stopping on validation AUC.

    The caller precomputes the clinical matrices (preprocessing must be
    fitted on the training split only), the validation features and the
    training split's patch statistics, s_train, which take 1 KB per visit
    where features take 16 KB. Each batch's features are projected from its
    rows of s_train, with the bytes pipeline.feature_matrices gives those
    rows. Returns the history; the model is left holding the
    best-validation-AUC parameters.
    """
    cfg.validate()
    rng = Rng(cfg.seed, "train")
    n = len(train_table)
    y = train_table.label.astype(np.float64)
    md_t = train_table.md
    m_t = train_table.slope_target
    has_slope = ~np.isnan(m_t)

    y_val = val_table.label
    md_val = val_table.md
    total_mask_width = sum(w for _, w in model.mask_segments())
    p_drop = model.dcce.dropout_p

    lam = cfg.lambda_weight
    history = TrainHistory()
    best_values = model.params.value.copy()
    since_best = 0

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        norm_scr = 0.0
        norm_prog = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            b = idx.size
            v = visual_features_batch(model.visual, s_train[idx])
            if p_drop > 0:
                keep, masks = model.masks_from_uniform(
                    rng.fill_u64(b * total_mask_width).reshape(b, total_mask_width),
                    p_drop)
                v = dropout(v, keep, p_drop)
            else:
                masks = None
            out, cache = model.forward(x_train[idx], v, masks)

            l_scr, l_prog, d_scr, d_prog = multitask_loss(
                out, y[idx], md_t[idx], m_t[idx], has_slope[idx], cfg)
            if n_batches % 8 == 0:
                # per-term trunk norms on every 8th batch (epoch diagnostic),
                # each from a backward of that term alone; the step's own
                # set_grads below overwrites every branch they write
                model.backward(cache, **d_scr)
                norm_scr += _dcce_norm(model)
                if d_prog:
                    model.backward(cache, **d_prog)
                    norm_prog += lam ** 2 * _dcce_norm(model)

            loss = l_scr + lam * l_prog
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {n_batches}")
            epoch_loss += loss
            n_batches += 1

            model.set_grads(cache, **d_scr,
                            **{key: lam * d for key, d in d_prog.items()})
            adamw_step(model.params, lr=cfg.lr, wd=cfg.wd)

        val = predict_arrays(model, fusion, x_val, v_val)
        val_auc = roc_auc(val["p_final"], y_val)
        val_mae = mean_absolute_error(val["md_hat"], md_val)
        grad_ratio = (float(np.sqrt(norm_scr) / np.sqrt(norm_prog))
                      if norm_prog > 0 else None)
        history.records.append({
            "epoch": epoch,
            "train_loss": epoch_loss / max(n_batches, 1),
            "val_auc": val_auc,
            "val_mae": val_mae,
            "grad_ratio": grad_ratio,
        })

        if val_auc > history.best_val_auc:
            history.best_val_auc = val_auc
            history.best_epoch = epoch
            best_values[...] = model.params.value
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    model.params.value[...] = best_values
    return history


# ---------------------------------------------------------------------------
# validation grid searches
# ---------------------------------------------------------------------------

def grid_search_alpha(p_vis, p_clin, labels) -> FusionConfig:
    """Pick the fusion weight alpha_vis on an 11-point grid by validation
    AUC; exact ties prefer (0.6, 0.4), then the larger alpha_vis."""
    p_vis = np.asarray(p_vis, dtype=np.float64)
    p_clin = np.asarray(p_clin, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ConfigError("grid_search_alpha: empty validation set")
    grid = [(i / 10.0, (10 - i) / 10.0) for i in range(11)]
    aucs = [roc_auc(a * p_vis + c * p_clin, labels) for a, c in grid]
    best = max(aucs)
    winners = [i for i, v in enumerate(aucs) if v == best]
    if any(grid[i][0] == 0.6 for i in winners):
        choice = next(i for i in winners if grid[i][0] == 0.6)
    else:
        choice = max(winners, key=lambda i: grid[i][0])
    return FusionConfig(alpha_vis=grid[choice][0], alpha_clin=grid[choice][1])


@dataclass
class TauSearchResult:
    tau_unc: float
    objective: float
    retained_accuracy: float
    referral_rate: float
    candidates: np.ndarray


def grid_search_tau_unc(u_values, mu_values, labels, gamma: float) -> TauSearchResult:
    """Pick the uncertainty threshold maximizing retained accuracy (mu >= 0.5
    is positive) minus gamma times the referral rate.

    Candidates are the 5th..95th percentiles of the validation U plus one
    accept-everything sentinel just above max(U); without the sentinel a
    degenerate all-equal U (e.g. the no-MC-dropout ablation) could only
    reject everything, since the boundary U == tau rejects.
    """
    u = np.asarray(u_values, dtype=np.float64)
    mu = np.asarray(mu_values, dtype=np.float64)
    labels = np.asarray(labels)
    if u.size == 0:
        raise ConfigError("grid_search_tau_unc: empty validation set")
    pct = np.percentile(u, np.arange(5, 100, 5))
    sentinel = float(u.max()) * (1.0 + 1e-9) + 1e-12
    candidates = np.append(pct, sentinel)
    correct = (mu >= 0.5).astype(int) == labels

    best = None
    for tau in candidates:
        retained = u < tau
        k = int(retained.sum())
        acc = float(correct[retained].mean()) if k else 0.0
        referral = 1.0 - k / u.size
        objective = acc - gamma * referral
        entry = (objective, -referral, -tau)
        if best is None or entry > best[0]:
            best = (entry, tau, acc, referral, objective)
    _, tau, acc, referral, objective = best
    return TauSearchResult(tau_unc=float(tau), objective=objective,
                           retained_accuracy=acc, referral_rate=referral,
                           candidates=candidates)
