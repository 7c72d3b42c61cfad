"""End-to-end orchestration shared by the CLI, the demos, and the tests:
feature assembly, training, gate calibration, and the report builders."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import (CohortTable, PreprocessStats, apply_preprocess_table,
                   fit_preprocess, generate_trajectories)
from .errors import ConfigError, DataError
from .fairness import fnr_gap, group_fnr, group_metrics
from .gate import GateConfig, GateRun, ensemble_over_table, run_gate
from .metrics import (coverage_accuracy_curve, dynamic_warning,
                      mean_absolute_error, metrics_at_threshold, retained,
                      roc_auc)
from .model import (DCCEConfig, DualStreamModel, FusionConfig, VisualFeatConfig,
                    patch_stats, predict_arrays)
from .rng import Rng
from .train import (SplitResult, TauSearchResult, TrainConfig, TrainHistory,
                    grid_search_alpha, grid_search_tau_unc, split_dataset,
                    train_multitask)


@dataclass
class AblationFlags:
    no_clinical: bool = False
    no_tta: bool = False
    no_mc_dropout: bool = False

    def apply(self, fusion: FusionConfig, gate_cfg: GateConfig
              ) -> tuple[FusionConfig, GateConfig]:
        if self.no_clinical:
            fusion = FusionConfig(alpha_vis=1.0, alpha_clin=0.0)
        if self.no_tta:
            gate_cfg = replace(gate_cfg, tta_set=("identity",))
        if self.no_mc_dropout:
            gate_cfg = replace(gate_cfg, dropout_p=0.0)
        return fusion, gate_cfg


def feature_matrices(table: CohortTable, stats: PreprocessStats,
                     model: DualStreamModel) -> tuple[np.ndarray, np.ndarray]:
    """Clinical matrix and (n, 2·grid²) patch-statistics matrix for a table,
    the rasters read RASTER_READ at a time: 1 KB per visit at the default
    8x8 grid, where its features take 16 KB: training and predict_arrays
    project them a batch or a block at a time."""
    grid = model.visual.patch_grid
    s = np.empty((len(table), 2 * grid * grid))
    for start, rasters in table.raster_blocks():
        s[start : start + len(rasters)] = patch_stats(rasters, grid)
    return apply_preprocess_table(stats, table), s


@dataclass
class TrainedPipeline:
    model: DualStreamModel
    stats: PreprocessStats
    fusion: FusionConfig
    split: SplitResult | None   # None: loaded without a cohort
    history: TrainHistory


def run_training_pipeline(
    cohort: CohortTable,
    train_cfg: TrainConfig | None = None,
    dcce_cfg: DCCEConfig | None = None,
    visual_cfg: VisualFeatConfig | None = None,
    fusion: FusionConfig | None = None,
    search_alpha: bool = False,
) -> TrainedPipeline:
    """Split, fit preprocessing on train only, train, and (optionally) grid
    search the fusion weights on validation. A provided dcce_cfg acts as a
    template, checked when built like every config: its input_dim (the CLI
    passes 1) is always replaced by the fitted feature count.
    """
    train_cfg = train_cfg or TrainConfig()
    split = split_dataset(cohort, train_cfg)
    stats = fit_preprocess(split.train)
    visual_cfg = visual_cfg or VisualFeatConfig()
    dcce_cfg = replace(dcce_cfg or DCCEConfig(input_dim=1),
                       input_dim=len(stats.feature_names))
    model = DualStreamModel(dcce_cfg, visual_cfg,
                            init_rng=Rng(train_cfg.seed, "model-init"))
    fusion = fusion or FusionConfig()

    x_tr, s_tr = feature_matrices(split.train, stats, model)
    x_va, s_va = feature_matrices(split.val, stats, model)
    history = train_multitask(model, train_cfg, x_tr, s_tr, split.train,
                              x_va, s_va, split.val, fusion)
    if search_alpha:
        arrs = predict_arrays(model, FusionConfig(0.5, 0.5), x_va, s_va,
                              regression=False)
        fusion = grid_search_alpha(arrs["p_vis"], arrs["p_clin"], split.val.label)
    return TrainedPipeline(model=model, stats=stats, fusion=fusion, split=split,
                           history=history)


def deterministic_scores(tp: TrainedPipeline, table: CohortTable,
                         regression: bool = True) -> dict[str, np.ndarray]:
    """Single-pass predictions (dropout off, identity augmentation); without
    regression, only the probabilities."""
    x, s = feature_matrices(table, tp.stats, tp.model)
    return predict_arrays(tp.model, tp.fusion, x, s, regression)


def calibrate_gate(tp: TrainedPipeline, gate_cfg: GateConfig, gamma: float,
                   seed: int, fusion: FusionConfig | None = None
                   ) -> tuple[GateConfig, TauSearchResult, GateRun]:
    """Set tau_unc from the validation ensemble."""
    fusion = fusion or tp.fusion
    val_run = ensemble_over_table(tp.model, tp.split.val, tp.stats, gate_cfg,
                                  seed, fusion)
    u, mu, _, labels = val_run.gated(tp.split.val.label)
    if u.size == 0 and len(tp.split.val):
        raise ConfigError(
            f"tau_blur {gate_cfg.tau_blur!r} rejects all {len(tp.split.val)} "
            f"validation visits as blurred, so none is left to calibrate tau_unc on")
    result = grid_search_tau_unc(u, mu, labels, gamma)
    return replace(gate_cfg, tau_unc=result.tau_unc), result, val_run


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def screening_report(tp: TrainedPipeline, table: CohortTable,
                     threshold: float = 0.5) -> dict:
    arrs = deterministic_scores(tp, table)
    labels = table.label
    rates = metrics_at_threshold(arrs["p_final"], labels, threshold)
    per_group = {
        gm.group: {"n": gm.n, "n_pos": gm.n_pos, "fnr": gm.fnr,
                   "fpr": gm.fpr, "auc": gm.auc}
        for gm in group_metrics(arrs["p_final"], labels, np.asarray(table.race),
                                threshold)
    }
    return {
        "auc": roc_auc(arrs["p_final"], labels),
        "accuracy": rates["accuracy"],
        "sensitivity": rates["sensitivity"],
        "specificity": rates["specificity"],
        "f1": rates["f1"],
        "md_mae": mean_absolute_error(arrs["md_hat"], table.md),
        "per_group": per_group,
        "n": len(table),
        "threshold": threshold,
    }


def coverage_report(gate_run: GateRun, labels, threshold: float = 0.5,
                    coverages=None) -> dict:
    """Coverage-accuracy points over the gated (sharp) subset."""
    u, mu, sample_ids, labels = gate_run.gated(labels)
    points = coverage_accuracy_curve(u, mu, labels, sample_ids=sample_ids,
                                     coverages=coverages, threshold=threshold)
    return {"points": [[c, a] for c, a in points],
            "n_gated": u.size, "threshold": threshold}


def ablation_report(tp: TrainedPipeline, gate_cfg: GateConfig, gamma: float,
                    seed: int, flags: AblationFlags,
                    top_fraction: float = 0.3) -> dict:
    """Table-shaped ablation row: AUC / sensitivity / specificity / FNR gap
    on the top confidence subset (lowest-U fraction of gated test samples)."""
    fusion, cfg = flags.apply(tp.fusion, gate_cfg)
    cfg, _, _ = calibrate_gate(tp, cfg, gamma, seed, fusion)
    test_run = run_gate(tp.model, tp.split.test, tp.stats, cfg, seed, fusion)
    u, mu, sample_ids, y, g = test_run.gated(tp.split.test.label,
                                             tp.split.test.race)
    keep = retained(u, sample_ids, top_fraction)
    mu, y, g = mu[keep], y[keep], g[keep]
    try:
        auc = roc_auc(mu, y)
    except DataError:
        auc = None
    try:
        rates = metrics_at_threshold(mu, y, 0.5)
    except DataError:
        rates = {"sensitivity": None, "specificity": None,
                 "accuracy": None, "f1": None}
    fnrs = group_fnr(mu, y, g, 0.5)
    defined = [v for v in fnrs.values() if v is not None]
    gap = fnr_gap(fnrs) if len(defined) >= 2 else None
    accepted = sum(d.kind == "accept" for d in test_run.decisions)
    return {
        "flags": vars(flags),
        "top_fraction": top_fraction,
        "n_subset": keep.size,
        "auc": auc,
        "sensitivity": rates["sensitivity"],
        "specificity": rates["specificity"],
        "fnr_gap": gap,
        "tau_unc": cfg.tau_unc,
        "accept_rate": accepted / len(test_run.decisions),
        "max_u": float(u.max()) if u.size else None,
    }


def warning_report(tp: TrainedPipeline, seeds, n_visits: int = 8) -> dict:
    """Apply the dynamic warning rule to the deterministic risk of the three
    simulated follow-up scenarios per seed, all scored as one table in drawn
    order, kind-major (a row's scores do not depend on the rows beside it)."""
    kinds = ("stable", "slow", "rapid")
    seeds = [int(seed) for seed in seeds]
    drawn = [generate_trajectories(kind, n_visits, seeds) for kind in kinds]
    table = CohortTable.concat([t for t, _ in drawn])
    shape = (len(kinds), len(seeds), n_visits)
    risks = deterministic_scores(tp, table, regression=False)["p_final"].reshape(shape)
    times = table.visit_time.reshape(shape)
    per_kind = {k: [] for k in kinds}
    for k, (kind, (_, onsets)) in enumerate(zip(kinds, drawn)):
        for j, seed in enumerate(seeds):
            w = dynamic_warning(times[k, j], risks[k, j], onsets[j])
            per_kind[kind].append(
                {"seed": seed, **asdict(w), "mean_risk": float(np.mean(risks[k, j]))})
    summary = {}
    for kind in kinds:
        rows = per_kind[kind]
        summary[kind] = {
            "fire_rate": sum(r["fired"] for r in rows) / len(rows),
            "mean_delta_risk": float(np.mean([r["delta_risk"] for r in rows])),
            "mean_peak_risk": float(np.mean([r["peak_risk"] for r in rows])),
        }
    return {"per_kind": per_kind, "summary": summary, "n_visits": n_visits}
