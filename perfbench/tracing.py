"""Spans around oculogate's public functions, recorded from outside the package.

`Tracer.install` wraps each target function and rebinds it under every name
an oculogate module holds it by (`oculogate.train.adamw_step` as well as
`oculogate.numerics.adamw_step`), and wraps the target methods on their
classes. Spans are recorded only inside `Tracer.op()`, the timed region of
one benchmark operation; outside it the wrappers call straight through.

A span is `[name_id, start, end, parent_index, info]`; `info` is a per-call
work count or key taken from the call's arguments or result. Spans stay in
memory until `write` at the end of the run. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

OP = "bench.op"   # root span around each timed operation; not a program layer

LAYERS = ("rng", "numerics", "data", "model", "train", "gate", "pipeline",
          "fairness", "metrics", "cli")

CLI_STAGES = ("gate", "calibrate", "evaluate", "coverage", "warn", "report")


def _rows(i):
    return lambda args, kwargs, result: int(np.shape(args[i])[0])


def _raster_key(args, kwargs, result):
    table, i = args[0], args[1]
    return f"{table.patient_id[i]}#{int(table.visit_index[i])}"


def _ensemble_info(args, kwargs, result):
    cfg = args[5]
    distinct = {cfg.tta_set[i % len(cfg.tta_set)] for i in range(cfg.n_passes)}
    return [int(np.shape(args[2])[0]), len(distinct)]


def _decisions(args, kwargs, result):
    kinds = [d.kind for d in result.decisions]
    return [kinds.count("accept"), kinds.count("reject_blur"),
            kinds.count("reject_uncertain")]


def _param_count(args, kwargs, result):
    return sum(int(p.value.size) for p in args[0].entries.values())


def _grid_cells(args, kwargs, result):
    from oculogate.fairness import THRESHOLD_GRID

    grid = kwargs.get("grid", args[5] if len(args) > 5 else THRESHOLD_GRID)
    return int(len(grid)) ** len(np.unique(np.asarray(args[2])))


def _payload_bytes(args, kwargs, result):
    payload = args[1]
    return len(payload.encode("utf-8") if isinstance(payload, str) else payload)


def _epochs(args, kwargs, result):
    return len(result.records)


# (defining module, attribute path, info hook) for every public function or
# method a measured operation reaches. Methods are "Class.method".
TARGETS = [
    ("rng", "Rng.__init__", None),
    ("rng", "Rng.fill_u64", lambda a, k, r: int(a[1])),
    ("rng", "Rng.uniform", None),
    ("rng", "Rng.normal", None),
    ("rng", "Rng.permutation", None),
    ("numerics", "adamw_step", _param_count),
    ("data", "generate_image", None),
    ("data", "generate_trajectory", None),
    ("data", "load_image_pgm", None),
    ("data", "load_cohort_csv", None),
    ("data", "fit_preprocess", None),
    ("data", "apply_preprocess_table", None),
    ("data", "CohortTable.raster", _raster_key),
    ("data", "CohortTable.subset", None),
    ("model", "DualStreamModel.forward", _rows(1)),
    ("model", "DualStreamModel.backward", None),
    ("model", "DualStreamModel.masks_from_uniform", None),
    ("model", "DualStreamModel.set_grads", None),
    ("model", "projection_matrix", None),
    ("model", "visual_features_batch", _rows(1)),
    ("model", "predict_arrays", None),
    ("model", "load_checkpoint", None),
    ("train", "split_dataset", None),
    ("train", "train_multitask", _epochs),
    ("train", "grid_search_tau_unc", None),
    ("gate", "laplacian_variance", None),
    ("gate", "apply_tta", None),
    ("gate", "ensemble_passes", _ensemble_info),
    ("gate", "summarize_passes", None),
    ("gate", "ensemble_over_table", None),
    ("gate", "run_gate", _decisions),
    ("pipeline", "feature_matrices", None),
    ("pipeline", "run_training_pipeline", None),
    ("pipeline", "deterministic_scores", None),
    ("pipeline", "calibrate_gate", None),
    ("pipeline", "screening_report", None),
    ("pipeline", "coverage_report", None),
    ("pipeline", "warning_report", None),
    ("fairness", "calibrate_groups", _grid_cells),
    ("fairness", "fairness_report", None),
    ("fairness", "group_metrics", None),
    ("metrics", "roc_auc", None),
    ("metrics", "metrics_at_threshold", None),
    ("metrics", "coverage_accuracy_curve", None),
    ("metrics", "dynamic_warning", None),
    ("cli", "main", None),
    ("cli", "write_atomic", _payload_bytes),
] + [("cli", f"cmd_{stage}", None) for stage in CLI_STAGES]


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, info):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name_id, 0.0, 0.0, stack[-1], None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def op(self) -> "_OpSpan":
        """Timed region of one operation; spans are recorded only inside it."""
        return _OpSpan(self)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}
        for layer, path, info in TARGETS:
            module = sys.modules[f"oculogate.{layer}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{layer}.{path}", original, info)
            self._set(owner, attr, wrapper)
            if not owner_name:
                wrappers[original] = wrapper
        # rebind every other name a module imported a target function under
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("oculogate.") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and not isinstance(value, type):
                    try:
                        wrapper = wrappers.get(value)
                    except TypeError:  # unhashable callable
                        continue
                    if wrapper is not None:
                        self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self, untraced_op_s: float) -> dict[str, float]:
        """Per-layer metrics, each per operation (`_s` are self times unless
        documented as inclusive)."""
        spans, names = self.spans, self.names
        n = len(spans)
        child = np.zeros(n)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        ep_id = names.index("gate.ensemble_passes")
        under_ep = [False] * n          # some ancestor is gate.ensemble_passes
        op_of = [0] * n                 # index of the enclosing bench.op span
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        info: dict[str, list] = defaultdict(list)
        raster_keys: dict[int, set] = defaultdict(set)
        ep_substreams = ep_featurised = 0
        for i, (nid, t0, t1, parent, extra) in enumerate(spans):
            name = names[nid]
            if parent >= 0:
                under_ep[i] = under_ep[parent] or spans[parent][0] == ep_id
                op_of[i] = op_of[parent]
            else:
                op_of[i] = i
            self_s[name] += (t1 - t0) - child[i]
            incl_s[name] += t1 - t0
            calls[name] += 1
            if extra is not None:
                info[name].append(extra)
            if name == "data.CohortTable.raster":
                raster_keys[op_of[i]].add(extra)
            elif under_ep[i] and name == "rng.Rng.__init__":
                ep_substreams += 1
            elif under_ep[i] and name == "model.visual_features_batch":
                ep_featurised += extra

        ops = calls[OP]
        per = 1.0 / ops

        def ratio(a, b):
            return a / b if b else 0.0

        ensembles = info["gate.ensemble_passes"]
        visits_ensembled = sum(e[0] for e in ensembles)
        decisions = np.sum(info["gate.run_gate"], axis=0) if info["gate.run_gate"] \
            else np.zeros(3)
        distinct_visits = sum(len(k) for k in raster_keys.values())
        adamw_params = max(info["numerics.adamw_step"], default=0)
        epochs = sum(info["train.train_multitask"])
        m = {
            "rng.substreams": calls["rng.Rng.__init__"] * per,
            "rng.substream_s": self_s["rng.Rng.__init__"] * per,
            "rng.fill_u64_s": self_s["rng.Rng.fill_u64"] * per,
            "rng.fill_u64_values": sum(info["rng.Rng.fill_u64"]) * per,
            "rng.substreams_per_visit": ratio(ep_substreams, visits_ensembled),
            "numerics.adamw_s": self_s["numerics.adamw_step"] * per,
            "numerics.adamw_steps": calls["numerics.adamw_step"] * per,
            "numerics.adamw_params_per_step": adamw_params,
            # computed, not measured: one fused pass reads value, grad, m1
            # and m2 and writes value, m1 and m2, 8 bytes each
            "numerics.adamw_bytes_per_step": 56 * adamw_params,
            "model.forward_s": self_s["model.DualStreamModel.forward"] * per,
            "model.forward_rows": sum(info["model.DualStreamModel.forward"]) * per,
            "model.backward_s": self_s["model.DualStreamModel.backward"] * per,
            "model.backward_calls_per_step": ratio(
                calls["model.DualStreamModel.backward"],
                calls["numerics.adamw_step"]),
            "model.visual_features_s": self_s["model.visual_features_batch"] * per,
            "model.featurisations_per_visit": ratio(ep_featurised, visits_ensembled),
            "model.tta_distinct_per_visit": max((e[1] for e in ensembles), default=0),
            "model.checkpoint_load_s": incl_s["model.load_checkpoint"] * per,
            "data.generate_image_s": self_s["data.generate_image"] * per,
            "data.load_image_pgm_s": self_s["data.load_image_pgm"] * per,
            "data.raster_reads_per_visit": ratio(calls["data.CohortTable.raster"],
                                                 distinct_visits),
            "data.distinct_visits": distinct_visits * per,
            "data.fit_preprocess_s": self_s["data.fit_preprocess"] * per,
            "data.load_cohort_csv_s": self_s["data.load_cohort_csv"] * per,
            "data.apply_preprocess_table_s":
                self_s["data.apply_preprocess_table"] * per,
            "train.epoch_s": ratio(incl_s["train.train_multitask"], epochs),
            "train.epochs": epochs * per,
            "train.split_dataset_s": self_s["train.split_dataset"] * per,
            "train.grid_search_tau_unc_s": self_s["train.grid_search_tau_unc"] * per,
            "gate.ensemble_passes_s": self_s["gate.ensemble_passes"] * per,
            "gate.laplacian_variance_s": self_s["gate.laplacian_variance"] * per,
            "gate.apply_tta_s": self_s["gate.apply_tta"] * per,
            "gate.summarize_passes_s": self_s["gate.summarize_passes"] * per,
            "gate.visits_ensembled": visits_ensembled * per,
            "gate.accepts": float(decisions[0]) * per,
            "gate.blur_rejects": float(decisions[1]) * per,
            "gate.uncertain_rejects": float(decisions[2]) * per,
            "pipeline.feature_matrices_s": self_s["pipeline.feature_matrices"] * per,
            "pipeline.calibrate_gate_s": self_s["pipeline.calibrate_gate"] * per,
            "pipeline.deterministic_scores_s":
                self_s["pipeline.deterministic_scores"] * per,
            "pipeline.warning_report_s": self_s["pipeline.warning_report"] * per,
            "fairness.calibrate_groups_s": self_s["fairness.calibrate_groups"] * per,
            "fairness.grid_cells": sum(info["fairness.calibrate_groups"]) * per,
            "metrics.roc_auc_s": self_s["metrics.roc_auc"] * per,
            "metrics.coverage_accuracy_curve_s":
                self_s["metrics.coverage_accuracy_curve"] * per,
            "cli.write_atomic_s": self_s["cli.write_atomic"] * per,
            "cli.write_atomic_bytes": sum(info["cli.write_atomic"]) * per,
        }
        for stage in CLI_STAGES:   # inclusive stage time
            m[f"cli.{stage}_s"] = incl_s[f"cli.cmd_{stage}"] * per
        for layer in LAYERS:
            m[f"{layer}.self_s"] = per * sum(
                v for k, v in self_s.items() if k.startswith(layer + "."))
        op_s = incl_s[OP] * per
        m["other_s"] = self_s[OP] * per
        m["trace.op_s"] = op_s
        m["trace.untraced_op_s"] = untraced_op_s
        m["trace.overhead_s"] = op_s - untraced_op_s
        m["trace.covered_share"] = ratio(op_s - m["other_s"], op_s)
        m["trace.spans_per_op"] = n * per
        m["trace.ops"] = ops
        return m

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class _OpSpan:
    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self.seconds = 0.0

    def __enter__(self):
        t = self._tracer
        self._span = [0, 0.0, 0.0, -1, None]
        t._stack.append(len(t.spans))
        t.spans.append(self._span)
        t._active = True
        self._span[1] = perf_counter()
        return self

    def __exit__(self, *exc):
        self._span[2] = perf_counter()
        t = self._tracer
        t._active = False
        t._stack.pop()
        self.seconds = self._span[2] - self._span[1]
        return False
