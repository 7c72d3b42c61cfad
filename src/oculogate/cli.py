"""Operator command line: staged, reproducible runs.

Each stage is a function `cmd_<stage>(cfg, args)` from its resolved config
and inputs to `({path under --out: payload}, summary line)`; one runner,
`_run`, does the rest. It resolves the flat JSON config and the flags that
name a config key of the stage, and refuses an unknown key, a value of
another JSON type than its default's, and one out of its key's bound (an
entry of model.CONFIG_BOUNDS, train.TRAIN_BOUNDS, gate.GATE_BOUNDS,
data.DATA_BOUNDS or, for the stages' own keys, _BOUNDS), all before any
file is read. It refuses an --out that already holds the stage's output,
runs the stage, and only then creates --out, writes the resolved config
(`<stage>-config.json`) and every artifact atomically (temp file + rename),
and prints the summary. A failed or refused stage writes nothing (gen-data
streams its PGMs before committing cohort.csv), and nothing is overwritten:
run dirs are append-only.

`predict` takes the split `train`, `val`, `test` or `all`; `gate`,
`calibrate`, `evaluate` and `coverage` take `train`, `val` or `test`. The
name is checked before any file is read.

Exit codes: 0 success, 1 runtime/data error, 2 config or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields, replace

import numpy as np

from .data import (DATA_BOUNDS, VISIT_KEYS, CohortSpec, CohortTable, PreprocessStats,
                   default_cohort_spec, generate_cohort, load_cohort_csv,
                   read_json_object, refuse_existing, write_atomic, write_cohort)
from .errors import ConfigError, DataError, NumericError, SchemaError, refusal
from .fairness import DEFAULT_ACC_TOLERANCE, calibrate_groups, fairness_report
from .gate import GATE_BOUNDS, GateConfig, ensemble_over_table, run_gate
from .metrics import grade_md, moderate_severe_fraction
from .model import (CONFIG_BOUNDS, DCCEConfig, FusionConfig, VisualFeatConfig,
                    checkpoint_files, load_checkpoint)
from .pipeline import (AblationFlags, TrainedPipeline, ablation_report,
                       calibrate_gate, coverage_report, deterministic_scores,
                       run_training_pipeline, screening_report, warning_report)
from .train import (SPLIT_KEYS, SPLITS, TRAIN_BOUNDS, SplitResult, TrainConfig,
                    TrainHistory)


# ---------------------------------------------------------------------------
# stage defaults: a key that names a config-dataclass field reads its default
# ---------------------------------------------------------------------------

def _field_defaults(config) -> dict:
    """The defaulted fields of a config instance that a flat JSON config
    holds as they are (numbers, bools and dicts), by name; a stage spells
    out a tuple field as one key per element."""
    return {f.name: getattr(config, f.name) for f in fields(config)
            if (f.default is not MISSING or f.default_factory is not MISSING)
            and isinstance(getattr(config, f.name), (int, float, dict))}


def _build(cls, cfg: dict, **fixed):
    """cls from the resolved config's keys that name its fields, and fixed."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}, **fixed)


# the defaults every gated stage (gate, evaluate, coverage) shares
_GATED = {"seed": 23, "split": "test", **_field_defaults(GateConfig()),
          **_field_defaults(AblationFlags())}
_DEFAULTS = {
    "gen-data": {
        **_field_defaults(default_cohort_spec()),
        "n_patients": 300,   # a desk-sized cohort, not CohortSpec's 2,000
        **dict(zip(VISIT_KEYS, CohortSpec().visits_per_patient)),
        "with_images": True,
    },
    "train": {
        **_field_defaults(TrainConfig()),
        **dict(zip(SPLIT_KEYS, TrainConfig().split)),
        **_field_defaults(DCCEConfig(input_dim=1)),
        **_field_defaults(VisualFeatConfig()), **_field_defaults(FusionConfig()),
        "search_alpha": False,
    },
    "predict": {"split": "test"},
    "gate": {**_GATED, "gamma": 0.15},
    "calibrate": {"split": "val", "acc_tolerance": DEFAULT_ACC_TOLERANCE,
                  "threshold": 0.5},
    "evaluate": {**_GATED, "threshold": 0.5, "ablation_table": False,
                 "top_fraction": 0.3, "gamma": 0.15},
    "coverage": {**_GATED, "coverage_min": 0.5, "coverage_step": 0.05},
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


# key -> (whether a value is allowed, what the key must be), for every stage
_BOUNDS = {
    "coverage_min": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "coverage_step": (lambda v: v > 0.0, "be > 0"),
    "top_fraction": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "n_triples": (lambda v: v >= 1, "be >= 1"),
    **CONFIG_BOUNDS, **TRAIN_BOUNDS, **GATE_BOUNDS, **DATA_BOUNDS,
}


def resolve_config(command: str, args) -> dict:
    """The stage's defaults, overridden by the --config file and then by
    flags; a value of another JSON type than its default's, a non-finite
    number (JSON's NaN and Infinity literals, also as a dict's value) or a
    value out of its key's bounds is refused."""
    defaults = _DEFAULTS[command]
    cfg = json.loads(json.dumps(defaults))  # deep copy
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = read_json_object(config_path)
        except OSError as e:   # missing, a directory, unreadable
            raise ConfigError(f"config file {config_path}: {e.strerror or e}") from None
        except SchemaError as e:
            raise ConfigError(f"config file {e}") from None
        for key, value in loaded.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key '{key}' for {command}")
            cfg[key] = value
    for key, value in vars(args).items():
        if key in cfg and value is not None:
            cfg[key] = value
    if reason := refusal(cfg, _BOUNDS, like=defaults):
        raise ConfigError(f"config key {reason} ({command})")
    return cfg


# ---------------------------------------------------------------------------
# shared loading
# ---------------------------------------------------------------------------

def _load_model(args) -> TrainedPipeline:
    """The trained pipeline of --model: its checkpoint and preprocessing
    stats, with no split."""
    model, fusion, _ = load_checkpoint(os.path.join(args.model, "checkpoint"))
    stats = PreprocessStats.from_dict(
        read_json_object(os.path.join(args.model, "preprocess.json")))
    return TrainedPipeline(model=model, stats=stats, fusion=fusion, split=None,
                           history=TrainHistory())


def _load(args, split: str, allowed=SPLITS) -> tuple[TrainedPipeline, CohortTable]:
    """The trained pipeline of --model over the cohort of --cohort, and the
    named split of that cohort (`all` is the whole cohort). A split name
    outside `allowed` is refused before anything is read, and a splits.json
    value other than a name in SPLITS once it is."""
    if split not in allowed:
        raise ConfigError(f"unknown split '{split}' for {args.command}: "
                          f"expected one of {', '.join(allowed)}")
    tp = _load_model(args)
    assignment = read_json_object(os.path.join(args.model, "splits.json"))
    for pid, name in assignment.items():
        if name not in SPLITS:
            raise SchemaError(f"splits.json: patient '{pid}' has split "
                              f"{json.dumps(name)}, expected one of {', '.join(SPLITS)}")
    table = load_cohort_csv(os.path.join(args.cohort, "cohort.csv"))
    tp.split = SplitResult.of(table, assignment)
    if split == "all":
        return tp, table
    subset = getattr(tp.split, split)
    if len(subset) == 0:
        raise DataError(f"no samples assigned to split '{split}'")
    return tp, subset


def _gate_setup(cfg: dict, tp: TrainedPipeline
                ) -> tuple[AblationFlags, FusionConfig, GateConfig]:
    """The stage's ablation flags, and the fusion and gate config under them."""
    flags = _build(AblationFlags, cfg)
    return (flags, *flags.apply(tp.fusion, _build(GateConfig, cfg)))


# ---------------------------------------------------------------------------
# stages: (cfg, args) -> ({path under --out: payload}, summary line)
# ---------------------------------------------------------------------------

def cmd_gen_data(cfg, args):
    table = generate_cohort(_build(
        CohortSpec, cfg, visits_per_patient=tuple(cfg[k] for k in VISIT_KEYS)))
    # PGMs stream to disk; write_cohort commits cohort.csv last, atomically
    write_cohort(table, args.out, with_images=cfg["with_images"])
    return {}, (f"wrote {len(table)} visits for {cfg['n_patients']} "
                f"patients to {args.out}")


def cmd_train(cfg, args):
    train_cfg = _build(TrainConfig, cfg, split=tuple(cfg[k] for k in SPLIT_KEYS))
    fusion = _build(FusionConfig, cfg)
    table = load_cohort_csv(os.path.join(args.cohort, "cohort.csv"))
    tp = run_training_pipeline(
        table, train_cfg,
        dcce_cfg=_build(DCCEConfig, cfg, input_dim=1),
        visual_cfg=_build(VisualFeatConfig, cfg), fusion=fusion,
        search_alpha=cfg["search_alpha"],
    )
    checkpoint = checkpoint_files(tp.model, tp.fusion,
                                  extra={"train_seed": cfg["seed"]})
    summary = {
        "best_epoch": tp.history.best_epoch,
        "best_val_auc": tp.history.best_val_auc,
        "epochs_run": len(tp.history.records),
        "fusion": {"alpha_vis": tp.fusion.alpha_vis,
                   "alpha_clin": tp.fusion.alpha_clin},
        "n_train": len(tp.split.train), "n_val": len(tp.split.val),
        "n_test": len(tp.split.test),
    }
    return {
        **{f"checkpoint/{name}": payload for name, payload in checkpoint.items()},
        "preprocess.json": dump_json(tp.stats.to_dict()),
        "splits.json": dump_json(tp.split.assignment),
        "history.jsonl": tp.history.to_jsonl(),
        "train-report.json": dump_json(summary),
    }, (f"trained: best val AUC {tp.history.best_val_auc:.4f} "
        f"(epoch {tp.history.best_epoch}) -> {args.out}")


def cmd_predict(cfg, args):
    tp, table = _load(args, cfg["split"], allowed=(*SPLITS, "all"))
    arrs = deterministic_scores(tp, table)
    mts = moderate_severe_fraction(arrs["md_hat"][:, None])

    lines = ["sample_id,group,label,p_final,p_vis,p_clin,md_hat,slope_hat,"
             "severity,vfd_prob,mts_prob"]
    for i, sid in enumerate(table.sample_ids()):
        md_hat = float(arrs["md_hat"][i])
        lines.append(",".join([
            sid, table.race[i], str(int(table.label[i])),
            f"{arrs['p_final'][i]:.9g}", f"{arrs['p_vis'][i]:.9g}",
            f"{arrs['p_clin'][i]:.9g}", f"{md_hat:.9g}",
            f"{arrs['slope_hat'][i]:.9g}", grade_md(md_hat),
            f"{arrs['p_final'][i]:.9g}", f"{mts[i]:.9g}",
        ]))
    return ({"predictions.csv": "\n".join(lines) + "\n"},
            f"wrote {len(table)} predictions to {args.out}")


def cmd_gate(cfg, args):
    tp, table = _load(args, cfg["split"])
    flags, fusion, gate_cfg = _gate_setup(cfg, tp)
    gate_cfg, tau_result, _ = calibrate_gate(tp, gate_cfg, cfg["gamma"],
                                             cfg["seed"], fusion)
    run = run_gate(tp.model, table, tp.stats, gate_cfg, cfg["seed"], fusion)
    audit = "\n".join(json.dumps(r, sort_keys=True, default=_json_default)
                      for r in run.audit_records()) + "\n"
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
    return ({"gate.jsonl": audit, "gate-report.json": dump_json(summary)},
            f"gated {len(kinds)} samples: {summary['accepted']} accepted, "
            f"{summary['rejected_blur']} blur, "
            f"{summary['rejected_uncertain']} uncertain -> {args.out}")


def cmd_calibrate(cfg, args):
    tp, table = _load(args, cfg["split"])
    arrs = deterministic_scores(tp, table, regression=False)
    result = calibrate_groups(arrs["p_final"], table.label, np.asarray(table.race),
                              acc_tolerance=cfg["acc_tolerance"],
                              global_threshold=cfg["threshold"])
    report = fairness_report(result)
    return ({"fairness.json": dump_json(report)},
            f"FNR gap {result.gap_before:.4f} -> {result.gap_after:.4f} "
            f"(accuracy {result.acc_before:.4f} -> {result.acc_after:.4f}) "
            f"-> {args.out}")


def cmd_evaluate(cfg, args):
    tp, table = _load(args, cfg["split"])
    flags, fusion, _ = _gate_setup(cfg, tp)
    report = screening_report(replace(tp, fusion=fusion), table,
                              threshold=cfg["threshold"])
    if cfg["ablation_table"] or any(vars(flags).values()):
        report["ablation"] = ablation_report(
            tp, _build(GateConfig, cfg), cfg["gamma"], cfg["seed"], flags,
            top_fraction=cfg["top_fraction"])
    return ({"metrics.json": dump_json(report)},
            f"AUC {report['auc']:.4f} accuracy {report['accuracy']:.4f} "
            f"MD MAE {report['md_mae']:.3f} -> {args.out}")


_COVERAGE_POINTS = 10_001   # most points a coverage curve may have


def cmd_coverage(cfg, args):
    lo, step = cfg["coverage_min"], cfg["coverage_step"]
    # the grid has round(q) + 1 points, q = (1 - lo)/step, and round halves
    # to even, so q <= 10,000.5 leaves 10,001; an inf q (a subnormal step)
    # fails the comparison too
    if not (1.0 - lo) / step <= _COVERAGE_POINTS - 0.5:
        raise ConfigError(
            f"config key 'coverage_step' for coverage must leave at most "
            f"{_COVERAGE_POINTS} points from coverage_min {lo!r} to 1, "
            f"got {json.dumps(step)}")
    tp, table = _load(args, cfg["split"])
    _, fusion, gate_cfg = _gate_setup(cfg, tp)
    run = ensemble_over_table(tp.model, table, tp.stats, gate_cfg,
                              cfg["seed"], fusion)
    # lo, lo + step, ... up to the last point at or below full coverage
    grid = [round(lo + i * step, 10) for i in range(int(round((1.0 - lo) / step)) + 1)]
    coverages = [c for c in grid if c <= 1.0]
    report = coverage_report(run, table.label, coverages=coverages)
    csv_lines = ["coverage,accuracy"] + [
        f"{c:.9g},{a:.9g}" for c, a in report["points"]]
    return ({"coverage.json": dump_json(report),
             "coverage.csv": "\n".join(csv_lines) + "\n"},
            f"coverage curve over {report['n_gated']} gated samples -> {args.out}")


def cmd_warn(cfg, args):
    # the trajectories are simulated, so only --model is read (--cohort is
    # still taken, as by every stage that reads a model)
    tp = _load_model(args)
    seeds = [cfg["seed"] + i for i in range(cfg["n_triples"])]
    report = warning_report(tp, seeds, n_visits=cfg["n_visits"])
    s = report["summary"]
    return ({"warnings.json": dump_json(report)},
            "fire rates: " + ", ".join(
                f"{k}={s[k]['fire_rate']:.2f}" for k in ("stable", "slow", "rapid"))
            + f" -> {args.out}")


_REPORT_PIECES = ("metrics.json", "fairness.json", "coverage.json",
                  "warnings.json", "gate-report.json", "train-report.json")


def cmd_report(cfg, args):
    # sources are recorded by piece name, not path, so identical runs merge
    # to byte-identical reports regardless of where their dirs live
    merged: dict = {"sources": []}
    found_in: dict[str, str] = {}
    for d in args.inputs:
        if not os.path.isdir(d):
            raise DataError(f"report input is not a directory: {d}")
        for name in _REPORT_PIECES:
            path = os.path.join(d, name)
            if not os.path.exists(path):
                continue
            if name in found_in:
                raise DataError(f"{name} is in two report inputs: "
                                f"{found_in[name]} and {d}")
            found_in[name] = d
            merged[name.replace(".json", "").replace("-", "_")] = read_json_object(path)
            merged["sources"].append(name)
    if len(merged["sources"]) == 0:
        raise DataError("no report pieces found in the given directories")
    return ({"report.json": dump_json(merged)},
            f"merged {len(merged['sources'])} pieces -> {args.out}/report.json")


# ---------------------------------------------------------------------------
# the runner and the parser
# ---------------------------------------------------------------------------

def _run(args) -> int:
    stage = args.command
    cfg = resolve_config(stage, args)
    marker = "report.json" if stage == "report" else f"{stage}-config.json"
    refuse_existing(os.path.join(args.out, marker))
    # looked up at call time, so a stage function rebound on the module is
    # the one that runs
    artifacts, summary = globals()[f"cmd_{stage.replace('-', '_')}"](cfg, args)
    if stage != "report":  # report merges earlier outputs; it has no config
        artifacts = {marker: dump_json(cfg), **artifacts}
    os.makedirs(args.out, exist_ok=True)
    for name, payload in artifacts.items():
        write_atomic(os.path.join(args.out, name), payload)
    print(summary)
    return 0


# argument name -> (flag, add_argument options); switches default to None so
# that an absent switch never overrides the config file
_SWITCH = {"action": "store_true", "default": None}
_ARGUMENTS = {
    "inputs": ("inputs", {"nargs": "+", "help": "directories with prior outputs"}),
    "config": ("--config", {"help": "flat JSON config file"}),
    "seed": ("--seed", {"type": int, "help": "override the config seed"}),
    "out": ("--out", {"required": True, "help": "output directory"}),
    "cohort": ("--cohort", {"required": True, "help": "directory holding cohort.csv"}),
    "model": ("--model", {"required": True,
                          "help": "directory produced by the train command"}),
    "no_clinical": ("--no-clinical", {
        **_SWITCH, "help": "visual stream only (fusion weight 1.0)"}),
    "no_tta": ("--no-tta", {**_SWITCH, "help": "identity augmentation only"}),
    "no_mc_dropout": ("--no-mc-dropout", {
        **_SWITCH, "help": "disable inference-time dropout"}),
    "coverage_min": ("--coverage-min", {"type": float, "help": "lowest coverage point"}),
}
_RUN = ("config", "seed", "out")
_ON_MODEL = _RUN + ("cohort", "model")
_ABLATIONS = ("no_clinical", "no_tta", "no_mc_dropout")

# stage -> (help, arguments)
_STAGES = {
    "gen-data": ("generate a synthetic cohort", _RUN),
    "train": ("train the dual-stream model", _RUN + ("cohort",)),
    "predict": ("deterministic per-sample predictions", _ON_MODEL),
    "gate": ("calibrate tau_unc and gate a split", _ON_MODEL + _ABLATIONS),
    "calibrate": ("per-group threshold calibration", _ON_MODEL),
    "evaluate": ("screening metrics (and ablation table)", _ON_MODEL + _ABLATIONS),
    "coverage": ("coverage-accuracy curve",
                 _ON_MODEL + _ABLATIONS + ("coverage_min",)),
    "warn": ("dynamic warning over trajectory triples", _ON_MODEL),
    "report": ("merge prior JSON outputs into one report", ("inputs", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oculogate",
        description="Gated dual-stream screening pipeline on synthetic cohorts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage, (help_text, arguments) in _STAGES.items():
        p = sub.add_parser(stage, help=help_text)
        for name in arguments:
            flag, options = _ARGUMENTS[name]
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, NumericError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
