"""Operator command line: staged, reproducible runs.

Each subcommand reads a flat JSON config (unknown keys rejected), applies
flag overrides, writes the fully resolved config beside its outputs, and
writes every artifact atomically (temp file + rename). Artifacts are never
overwritten: re-running into the same directory is an error, which keeps
run directories append-only.

Exit codes: 0 success, 1 runtime/data error, 2 config or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .data import (CohortSpec, PreprocessStats, generate_cohort,
                   load_cohort_csv, write_atomic, write_cohort)
from .errors import ConfigError, DataError, NumericError
from .fairness import calibrate_groups, fairness_report
from .gate import GateConfig, run_gate
from .metrics import grade_md, moderate_severe_fraction
from .model import (FusionConfig, VisualFeatConfig, load_checkpoint,
                    predict_arrays, save_checkpoint)
from .pipeline import (AblationFlags, TrainedPipeline, ablation_report,
                       calibrate_gate, coverage_report, deterministic_scores,
                       feature_matrices, run_training_pipeline, warning_report)
from .train import SplitResult, TrainConfig

COMMANDS = ("gen-data", "train", "predict", "gate", "calibrate", "evaluate",
            "coverage", "warn", "report")

_DEFAULTS = {
    "gen-data": {
        "seed": 20240601, "n_patients": 300, "visits_min": 4, "visits_max": 8,
        "prevalence": 0.35, "age_effect": 0.5, "label_noise": 0.05,
        "group_mix": {"Asian": 1 / 3, "Black": 1 / 3, "White": 1 / 3},
        "group_shift": {"Asian": 0.5, "Black": -0.5, "White": 0.0},
        "with_images": True,
    },
    "train": {
        "seed": 7, "lambda_weight": 5.0, "lr": 1e-4, "wd": 1e-4,
        "batch_size": 32, "max_epochs": 30, "patience": 10,
        "split_train": 0.70, "split_val": 0.15, "split_test": 0.15,
        "dropout_p": 0.3, "growth_k": 32, "n_blocks": 2, "layers_per_block": 2,
        "patch_grid": 8, "proj_dim": 2048, "proj_seed": 7040125,
        "alpha_vis": 0.6, "alpha_clin": 0.4, "search_alpha": False,
        "include_md_in_regression": True,
    },
    "predict": {"split": "test"},
    "gate": {
        "seed": 23, "split": "test", "tau_blur": 100.0, "n_passes": 15,
        "dropout_p": 0.3, "gamma": 0.15,
        "no_clinical": False, "no_tta": False, "no_mc_dropout": False,
    },
    "calibrate": {"split": "val", "acc_tolerance": 0.005, "threshold": 0.5},
    "evaluate": {
        "seed": 23, "split": "test", "threshold": 0.5, "ablation_table": False,
        "top_fraction": 0.3, "gamma": 0.15, "tau_blur": 100.0, "n_passes": 15,
        "dropout_p": 0.3,
        "no_clinical": False, "no_tta": False, "no_mc_dropout": False,
    },
    "coverage": {
        "seed": 23, "split": "test", "coverage_min": 0.5, "coverage_step": 0.05,
        "tau_blur": 100.0, "n_passes": 15, "dropout_p": 0.3,
        "no_clinical": False, "no_tta": False, "no_mc_dropout": False,
    },
    "warn": {"seed": 0, "n_triples": 50, "n_visits": 8},
    "report": {},
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)}")


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def resolve_config(command: str, config_path: str | None, overrides: dict) -> dict:
    cfg = json.loads(json.dumps(_DEFAULTS[command]))  # deep copy
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as f:
                loaded = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {config_path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key '{key}' for {command}")
            cfg[key] = value
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


def _echo_config(cfg: dict, out_dir: str, command: str) -> None:
    write_atomic(os.path.join(out_dir, f"{command}-config.json"), dump_json(cfg))


# ---------------------------------------------------------------------------
# shared loading
# ---------------------------------------------------------------------------

def _load_model_dir(model_dir: str):
    model, fusion, extra = load_checkpoint(os.path.join(model_dir, "checkpoint"))
    with open(os.path.join(model_dir, "preprocess.json"), "r", encoding="utf-8") as f:
        stats = PreprocessStats.from_dict(json.load(f))
    with open(os.path.join(model_dir, "splits.json"), "r", encoding="utf-8") as f:
        assignment = json.load(f)
    return model, fusion, stats, assignment, extra


def _subset_by_split(table, assignment: dict, split: str):
    if split == "all":
        return table
    idx = [i for i, pid in enumerate(table.patient_id)
           if assignment.get(pid) == split]
    if not idx:
        raise DataError(f"no samples assigned to split '{split}'")
    return table.subset(idx)


def _pipeline_from_dirs(cohort_dir: str, model_dir: str) -> TrainedPipeline:
    table = load_cohort_csv(os.path.join(cohort_dir, "cohort.csv"))
    model, fusion, stats, assignment, extra = _load_model_dir(model_dir)
    split = SplitResult(
        train=_subset_by_split(table, assignment, "train"),
        val=_subset_by_split(table, assignment, "val"),
        test=_subset_by_split(table, assignment, "test"),
        assignment=assignment,
    )
    from .train import TrainHistory

    return TrainedPipeline(model=model, stats=stats, fusion=fusion, split=split,
                           history=TrainHistory(), train_cfg=TrainConfig(),
                           train_seconds=0.0)


def _gate_config(cfg: dict) -> tuple[GateConfig, AblationFlags]:
    gate_cfg = GateConfig(tau_blur=cfg["tau_blur"], n_passes=cfg["n_passes"],
                          dropout_p=cfg["dropout_p"])
    flags = AblationFlags(no_clinical=cfg["no_clinical"], no_tta=cfg["no_tta"],
                          no_mc_dropout=cfg["no_mc_dropout"])
    return gate_cfg, flags


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = resolve_config("gen-data", args.config, {"seed": args.seed})
    spec = CohortSpec(
        n_patients=cfg["n_patients"],
        visits_per_patient=(cfg["visits_min"], cfg["visits_max"]),
        group_mix=dict(cfg["group_mix"]),
        prevalence=cfg["prevalence"],
        age_effect=cfg["age_effect"],
        group_shift=dict(cfg["group_shift"]),
        label_noise=cfg["label_noise"],
        seed=cfg["seed"],
    )
    table = generate_cohort(spec)
    out = args.out
    os.makedirs(out, exist_ok=True)
    if os.path.exists(os.path.join(out, "cohort.csv")):
        raise ConfigError(f"output already exists: {os.path.join(out, 'cohort.csv')}")
    _echo_config(cfg, out, "gen-data")
    write_cohort(table, out, with_images=cfg["with_images"])
    print(f"wrote {len(table)} visits for {cfg['n_patients']} patients to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config("train", args.config, {"seed": args.seed})
    table = load_cohort_csv(os.path.join(args.cohort, "cohort.csv"))
    train_cfg = TrainConfig(
        lambda_weight=cfg["lambda_weight"], lr=cfg["lr"], wd=cfg["wd"],
        batch_size=cfg["batch_size"], max_epochs=cfg["max_epochs"],
        patience=cfg["patience"],
        split=(cfg["split_train"], cfg["split_val"], cfg["split_test"]),
        seed=cfg["seed"],
        include_md_in_regression=cfg["include_md_in_regression"],
    )
    visual_cfg = VisualFeatConfig(patch_grid=cfg["patch_grid"],
                                  proj_dim=cfg["proj_dim"],
                                  proj_seed=cfg["proj_seed"])
    from .model import DCCEConfig

    dcce_template = DCCEConfig(input_dim=0, n_blocks=cfg["n_blocks"],
                               layers_per_block=cfg["layers_per_block"],
                               growth_k=cfg["growth_k"],
                               dropout_p=cfg["dropout_p"])
    fusion = FusionConfig(alpha_vis=cfg["alpha_vis"], alpha_clin=cfg["alpha_clin"])
    fusion.validate()

    tp = run_training_pipeline(
        table, train_cfg,
        dcce_cfg=dcce_template, visual_cfg=visual_cfg, fusion=fusion,
        search_alpha=cfg["search_alpha"],
    )
    out = args.out
    os.makedirs(out, exist_ok=True)
    _echo_config(cfg, out, "train")
    save_checkpoint(tp.model, tp.fusion, os.path.join(out, "checkpoint"),
                    extra={"train_seed": cfg["seed"]})
    write_atomic(os.path.join(out, "preprocess.json"),
                 dump_json(tp.stats.to_dict()))
    write_atomic(os.path.join(out, "splits.json"), dump_json(tp.split.assignment))
    write_atomic(os.path.join(out, "history.jsonl"), tp.history.to_jsonl())
    summary = {
        "best_epoch": tp.history.best_epoch,
        "best_val_auc": tp.history.best_val_auc,
        "epochs_run": len(tp.history.records),
        "fusion": {"alpha_vis": tp.fusion.alpha_vis,
                   "alpha_clin": tp.fusion.alpha_clin},
        "n_train": len(tp.split.train), "n_val": len(tp.split.val),
        "n_test": len(tp.split.test),
    }
    write_atomic(os.path.join(out, "train-report.json"), dump_json(summary))
    print(f"trained: best val AUC {tp.history.best_val_auc:.4f} "
          f"(epoch {tp.history.best_epoch}) -> {out}")
    return 0


def cmd_predict(args) -> int:
    cfg = resolve_config("predict", args.config, {})
    table = load_cohort_csv(os.path.join(args.cohort, "cohort.csv"))
    model, fusion, stats, assignment, _ = _load_model_dir(args.model)
    subset = _subset_by_split(table, assignment, cfg["split"])
    x, v = feature_matrices(subset, stats, model)
    arrs = predict_arrays(model, fusion, x, v)
    mts = moderate_severe_fraction(arrs["md_hat"][:, None])

    lines = ["sample_id,group,label,p_final,p_vis,p_clin,md_hat,slope_hat,"
             "severity,vfd_prob,mts_prob"]
    for i, sid in enumerate(subset.sample_ids()):
        md_hat = float(arrs["md_hat"][i])
        lines.append(",".join([
            sid, subset.race[i], str(int(subset.label[i])),
            f"{arrs['p_final'][i]:.9g}", f"{arrs['p_vis'][i]:.9g}",
            f"{arrs['p_clin'][i]:.9g}", f"{md_hat:.9g}",
            f"{arrs['slope_hat'][i]:.9g}", grade_md(md_hat),
            f"{arrs['p_final'][i]:.9g}", f"{mts[i]:.9g}",
        ]))
    os.makedirs(args.out, exist_ok=True)
    _echo_config(cfg, args.out, "predict")
    write_atomic(os.path.join(args.out, "predictions.csv"),
                 "\n".join(lines) + "\n")
    print(f"wrote {len(subset)} predictions to {args.out}")
    return 0


def cmd_gate(args) -> int:
    cfg = resolve_config("gate", args.config, {
        "seed": args.seed, "no_clinical": args.no_clinical or None,
        "no_tta": args.no_tta or None, "no_mc_dropout": args.no_mc_dropout or None,
    })
    tp = _pipeline_from_dirs(args.cohort, args.model)
    gate_cfg, flags = _gate_config(cfg)
    fusion, gate_cfg = flags.apply(tp.fusion, gate_cfg)
    gate_cfg, tau_result, _ = calibrate_gate(tp, gate_cfg, cfg["gamma"],
                                             cfg["seed"], fusion)
    table = getattr(tp.split, cfg["split"]) if cfg["split"] != "all" else None
    if table is None:
        raise ConfigError("gate split must be train, val, or test")
    run = run_gate(tp.model, table, tp.stats, gate_cfg, cfg["seed"], fusion)

    os.makedirs(args.out, exist_ok=True)
    _echo_config(cfg, args.out, "gate")
    audit = "\n".join(json.dumps(r, sort_keys=True, default=_json_default)
                      for r in run.audit_records()) + "\n"
    write_atomic(os.path.join(args.out, "gate.jsonl"), audit)
    kinds = [d.kind for d in run.decisions]
    summary = {
        "tau_unc": gate_cfg.tau_unc,
        "tau_blur": gate_cfg.tau_blur,
        "gamma": cfg["gamma"],
        "n": len(kinds),
        "accepted": kinds.count("accept"),
        "rejected_blur": kinds.count("reject_blur"),
        "rejected_uncertain": kinds.count("reject_uncertain"),
        "referral_rate_val": tau_result.referral_rate,
        "retained_accuracy_val": tau_result.retained_accuracy,
        "flags": vars(flags),
    }
    write_atomic(os.path.join(args.out, "gate-report.json"), dump_json(summary))
    print(f"gated {len(kinds)} samples: {summary['accepted']} accepted, "
          f"{summary['rejected_blur']} blur, "
          f"{summary['rejected_uncertain']} uncertain -> {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    cfg = resolve_config("calibrate", args.config, {})
    tp = _pipeline_from_dirs(args.cohort, args.model)
    table = getattr(tp.split, cfg["split"], None)
    if table is None:
        raise ConfigError("calibrate split must be train, val, or test")
    arrs = deterministic_scores(tp, table)
    result = calibrate_groups(arrs["p_final"], table.label,
                              np.asarray(table.race),
                              acc_tolerance=cfg["acc_tolerance"],
                              global_threshold=cfg["threshold"])
    report = fairness_report(arrs["p_final"], table.label,
                             np.asarray(table.race), result)
    os.makedirs(args.out, exist_ok=True)
    _echo_config(cfg, args.out, "calibrate")
    write_atomic(os.path.join(args.out, "fairness.json"), dump_json(report))
    print(f"FNR gap {result.gap_before:.4f} -> {result.gap_after:.4f} "
          f"(accuracy {result.acc_before:.4f} -> {result.acc_after:.4f}) "
          f"-> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config("evaluate", args.config, {
        "seed": args.seed, "no_clinical": args.no_clinical or None,
        "no_tta": args.no_tta or None, "no_mc_dropout": args.no_mc_dropout or None,
    })
    tp = _pipeline_from_dirs(args.cohort, args.model)
    table = getattr(tp.split, cfg["split"], None)
    if table is None:
        raise ConfigError("evaluate split must be train, val, or test")
    from .pipeline import screening_report

    flags = AblationFlags(no_clinical=cfg["no_clinical"], no_tta=cfg["no_tta"],
                          no_mc_dropout=cfg["no_mc_dropout"])
    fusion, _ = flags.apply(tp.fusion, GateConfig())
    report = screening_report(
        TrainedPipeline(model=tp.model, stats=tp.stats, fusion=fusion,
                        split=tp.split, history=tp.history,
                        train_cfg=tp.train_cfg, train_seconds=0.0),
        table, threshold=cfg["threshold"])
    if cfg["ablation_table"] or cfg["no_clinical"] or cfg["no_tta"] \
            or cfg["no_mc_dropout"]:
        gate_cfg = GateConfig(tau_blur=cfg["tau_blur"], n_passes=cfg["n_passes"],
                              dropout_p=cfg["dropout_p"])
        report["ablation"] = ablation_report(
            tp, gate_cfg, cfg["gamma"], cfg["seed"], flags,
            top_fraction=cfg["top_fraction"])
    os.makedirs(args.out, exist_ok=True)
    _echo_config(cfg, args.out, "evaluate")
    write_atomic(os.path.join(args.out, "metrics.json"), dump_json(report))
    print(f"AUC {report['auc']:.4f} accuracy {report['accuracy']:.4f} "
          f"MD MAE {report['md_mae']:.3f} -> {args.out}")
    return 0


def cmd_coverage(args) -> int:
    cfg = resolve_config("coverage", args.config, {
        "seed": args.seed, "coverage_min": args.coverage_min,
        "no_clinical": args.no_clinical or None,
        "no_tta": args.no_tta or None, "no_mc_dropout": args.no_mc_dropout or None,
    })
    tp = _pipeline_from_dirs(args.cohort, args.model)
    table = getattr(tp.split, cfg["split"], None)
    if table is None:
        raise ConfigError("coverage split must be train, val, or test")
    gate_cfg, flags = _gate_config(cfg)
    fusion, gate_cfg = flags.apply(tp.fusion, gate_cfg)
    from .gate import ensemble_over_table

    run = ensemble_over_table(tp.model, table, tp.stats, gate_cfg,
                              cfg["seed"], fusion)
    n_pts = int(round((1.0 - cfg["coverage_min"]) / cfg["coverage_step"])) + 1
    coverages = [round(cfg["coverage_min"] + i * cfg["coverage_step"], 10)
                 for i in range(n_pts)]
    report = coverage_report(run, table.label, coverages=coverages)
    os.makedirs(args.out, exist_ok=True)
    _echo_config(cfg, args.out, "coverage")
    write_atomic(os.path.join(args.out, "coverage.json"), dump_json(report))
    csv_lines = ["coverage,accuracy"] + [
        f"{c:.9g},{a:.9g}" for c, a in report["points"]]
    write_atomic(os.path.join(args.out, "coverage.csv"),
                 "\n".join(csv_lines) + "\n")
    print(f"coverage curve over {report['n_gated']} gated samples -> {args.out}")
    return 0


def cmd_warn(args) -> int:
    cfg = resolve_config("warn", args.config, {"seed": args.seed})
    tp = _pipeline_from_dirs(args.cohort, args.model)
    seeds = [cfg["seed"] + i for i in range(cfg["n_triples"])]
    report = warning_report(tp, seeds, n_visits=cfg["n_visits"])
    os.makedirs(args.out, exist_ok=True)
    _echo_config(cfg, args.out, "warn")
    write_atomic(os.path.join(args.out, "warnings.json"), dump_json(report))
    s = report["summary"]
    print("fire rates: " + ", ".join(
        f"{k}={s[k]['fire_rate']:.2f}" for k in ("stable", "slow", "rapid"))
        + f" -> {args.out}")
    return 0


_REPORT_PIECES = ("metrics.json", "fairness.json", "coverage.json",
                  "warnings.json", "gate-report.json", "train-report.json")


def cmd_report(args) -> int:
    # sources are recorded by piece name, not path, so identical runs merge
    # to byte-identical reports regardless of where their dirs live
    merged: dict = {"sources": []}
    for d in args.inputs:
        for name in _REPORT_PIECES:
            path = os.path.join(d, name)
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as f:
                    merged[name.replace(".json", "").replace("-", "_")] = json.load(f)
                merged["sources"].append(name)
    if len(merged["sources"]) == 0:
        raise DataError("no report pieces found in the given directories")
    os.makedirs(args.out, exist_ok=True)
    write_atomic(os.path.join(args.out, "report.json"), dump_json(merged))
    print(f"merged {len(merged['sources'])} pieces -> {args.out}/report.json")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oculogate",
        description="Gated dual-stream screening pipeline on synthetic cohorts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cohort=False, model=False):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")
        if cohort:
            p.add_argument("--cohort", required=True,
                           help="directory holding cohort.csv")
        if model:
            p.add_argument("--model", required=True,
                           help="directory produced by the train command")

    def ablations(p):
        p.add_argument("--no-clinical", action="store_true",
                       help="visual stream only (fusion weight 1.0)")
        p.add_argument("--no-tta", action="store_true",
                       help="identity augmentation only")
        p.add_argument("--no-mc-dropout", action="store_true",
                       help="disable inference-time dropout")

    p = sub.add_parser("gen-data", help="generate a synthetic cohort")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the dual-stream model")
    common(p, cohort=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="deterministic per-sample predictions")
    common(p, cohort=True, model=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gate", help="calibrate tau_unc and gate a split")
    common(p, cohort=True, model=True)
    ablations(p)
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("calibrate", help="per-group threshold calibration")
    common(p, cohort=True, model=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="screening metrics (and ablation table)")
    common(p, cohort=True, model=True)
    ablations(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("coverage", help="coverage-accuracy curve")
    common(p, cohort=True, model=True)
    ablations(p)
    p.add_argument("--coverage-min", type=float, help="lowest coverage point")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("warn", help="dynamic warning over trajectory triples")
    common(p, cohort=True, model=True)
    p.set_defaults(func=cmd_warn)

    p = sub.add_parser("report", help="merge prior JSON outputs into one report")
    p.add_argument("inputs", nargs="+", help="directories with prior outputs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, NumericError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
