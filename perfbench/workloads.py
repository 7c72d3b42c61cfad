"""The three workloads. Each drives oculogate's public API from outside and
calls it through module attributes (`pipeline.run_training_pipeline`,
`gate.run_gate`, `cli.main`), so the tracer's wrappers see the root calls.

A workload is built from the seed alone. `setup(k)` builds its inputs (run
several times; the first set-up's state is used), `op(i, timer)` runs one
operation with its measured part inside `with timer() as t`, and `check`,
`auc` and `digests` read the op records afterwards, outside any timing.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
from time import perf_counter

import numpy as np

from oculogate import cli, gate, pipeline
from oculogate.data import default_cohort_spec, generate_cohort
from oculogate.metrics import roc_auc
from oculogate.model import save_checkpoint
from oculogate.train import TrainConfig

# Sizes are chosen so that a run of each workload, with three set-ups and a
# 20 s window, stays within ~40 s on a 2-vCPU machine.
TRAIN_PATIENTS = 600
SCREEN_PATIENTS = 300
VISIT_PATIENTS = 300
EPOCHS = 2             # patience == EPOCHS, so early stopping never cuts work
# The workload seed picks the cohort, the MC-dropout streams and the warning
# trajectories. Model init stays fixed (the CLI default): two epochs from some
# inits leave the model near chance, which no timing or quality bound survives.
TRAIN_SEED = 7
GAMMA = 0.15           # referral cost of the tau_unc search (the CLI default)
AUC_FLOOR = 0.75       # a trained model that screens worse than this is broken
MATCH_TOL = 1e-12      # single-visit vs batched gate agreement (README promise)
VISIT_MIN_OPS = 1000   # so p99 has ten samples beyond it
REPORT_PIECES = ("metrics.json", "fairness.json", "coverage.json",
                 "warnings.json", "gate-report.json", "train-report.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return sha256(f.read())


def checkpoint_digest(tp, workdir: str) -> str:
    """sha256 of params.bin as the train stage writes it."""
    out = os.path.join(workdir, "ckpt")
    save_checkpoint(tp.model, tp.fusion, out)
    try:
        return file_sha256(os.path.join(out, "params.bin"))
    finally:
        shutil.rmtree(out)


def cohort_digest(table) -> str:
    h = hashlib.sha256()
    h.update("\n".join(table.sample_ids() + table.sex + table.race).encode())
    for col in (table.visit_time, table.age, table.rnflt, table.iop, table.cdr,
                table.md, table.label, table.slope_target, table.img_severity,
                table.image_seed):
        h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


def history_failures(history, epochs: int) -> list[str]:
    out = []
    if len(history.records) != epochs:
        out.append(f"ran {len(history.records)} epochs, expected {epochs}")
    for rec in history.records:
        values = [rec["train_loss"], rec["val_auc"], rec["val_mae"]]
        if rec["grad_ratio"] is not None:
            values.append(rec["grad_ratio"])
        if not all(math.isfinite(v) for v in values):
            out.append(f"non-finite history at epoch {rec['epoch']}")
    if not history.best_val_auc >= AUC_FLOOR:
        out.append(f"best val AUC {history.best_val_auc} below {AUC_FLOOR}")
    return out


class Workload:
    name = ""
    min_ops = 2          # repeats on one seed are compared byte for byte
    tail = "max"         # too few ops for a percentile with ten beyond it

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.setup_digests: list[dict] = []
        self.sizes: dict = {}

    def setup(self, k: int) -> None:
        raise NotImplementedError

    def op(self, i: int, timer) -> dict:
        raise NotImplementedError

    def check(self, records: list[dict]) -> list[list[str]]:
        """Failures per op record; the first record's digests are the
        reference for byte-identical repeats."""
        ref = records[0]["digests"]
        return [r["failures"] + [f"{k} differs from the first op"
                                 for k in ref if r["digests"][k] != ref[k]]
                for r in records]

    def auc(self, records: list[dict]) -> float:
        return statistics.median(r["auc"] for r in records)

    def digests(self, records: list[dict]) -> dict:
        out = dict(self.setup_digests[0])
        out.update(records[0]["digests"])
        return out


class TrainWorkload(Workload):
    """run_training_pipeline on a generated cohort, fixed epoch count."""

    name = "train"

    def setup(self, k: int) -> None:
        cohort = generate_cohort(default_cohort_spec(n_patients=TRAIN_PATIENTS,
                                                     seed=self.seed))
        self.setup_digests.append({"cohort": cohort_digest(cohort)})
        if k == 0:
            self.cohort = cohort
            self.sizes = {"patients": TRAIN_PATIENTS, "visits": len(cohort),
                          "epochs": EPOCHS, "train_seed": TRAIN_SEED}

    def op(self, i: int, timer) -> dict:
        cfg = TrainConfig(max_epochs=EPOCHS, patience=EPOCHS, seed=TRAIN_SEED)
        with timer() as t:
            tp = pipeline.run_training_pipeline(self.cohort, cfg)
        n_train = len(tp.split.train)
        self.sizes.update(train=n_train, val=len(tp.split.val),
                          test=len(tp.split.test),
                          adamw_params=sum(int(p.value.size) for p in
                                           tp.model.params.entries.values()))
        return {
            "seconds": t.seconds,
            "items": n_train * len(tp.history.records),
            "auc": tp.history.best_val_auc,
            "failures": history_failures(tp.history, EPOCHS),
            "digests": {
                "params.bin": checkpoint_digest(tp, self.workdir),
                "history.jsonl": sha256(tp.history.to_jsonl().encode()),
            },
        }


class VisitWorkload(Workload):
    """Closed loop, one client: run_gate on a one-row subset per test visit."""

    name = "visit"
    min_ops = VISIT_MIN_OPS
    # p99 over ~1,000 visits spread 0.45 (IQR/median) over ten seeds on a
    # shared 2-vCPU machine; p90 has 100 samples beyond it and holds still
    tail = "p90"

    def setup(self, k: int) -> None:
        cohort = generate_cohort(default_cohort_spec(n_patients=VISIT_PATIENTS,
                                                     seed=self.seed))
        tp = pipeline.run_training_pipeline(
            cohort, TrainConfig(max_epochs=EPOCHS, patience=EPOCHS, seed=TRAIN_SEED))
        cfg, _, _ = pipeline.calibrate_gate(tp, gate.GateConfig(), GAMMA, self.seed)
        self.setup_digests.append({
            "params.bin": checkpoint_digest(tp, self.workdir),
            "history.jsonl": sha256(tp.history.to_jsonl().encode()),
            "tau_unc": repr(cfg.tau_unc),
        })
        failures = history_failures(tp.history, EPOCHS)
        if failures:
            raise RuntimeError("visit set-up: " + "; ".join(failures))
        if k == 0:
            self.tp, self.cfg = tp, cfg
            test = tp.split.test
            self.rows = [test.subset([j]) for j in range(len(test))]
            self.sizes = {"patients": VISIT_PATIENTS, "visits": len(cohort),
                          "train": len(tp.split.train), "val": len(tp.split.val),
                          "test": len(test), "epochs": EPOCHS,
                          "train_seed": TRAIN_SEED, "n_passes": cfg.n_passes,
                          "tau_unc": cfg.tau_unc}

    def op(self, i: int, timer) -> dict:
        j = i % len(self.rows)
        tp = self.tp
        with timer() as t:
            run = gate.run_gate(tp.model, self.rows[j], tp.stats, self.cfg,
                                self.seed, tp.fusion)
        return {"seconds": t.seconds, "j": j, "mu": float(run.mu[0]),
                "u": float(run.u[0]), "decision": run.decisions[0].kind,
                "audit": json.dumps(run.audit_records()[0], sort_keys=True)}

    def check(self, records: list[dict]) -> list[list[str]]:
        tp = self.tp
        ref = gate.run_gate(tp.model, tp.split.test, tp.stats, self.cfg,
                            self.seed, tp.fusion)
        first_audit = {}
        out = []
        for r in records:
            j = r["j"]
            fails = []
            for key in ("mu", "u"):
                a, b = r[key], float(getattr(ref, key)[j])
                same_nan = math.isnan(a) and math.isnan(b)
                if not (same_nan or abs(a - b) <= MATCH_TOL):
                    fails.append(f"visit {j}: {key} {a!r} vs batched {b!r}")
            if r["decision"] != ref.decisions[j].kind:
                fails.append(f"visit {j}: decision {r['decision']} vs batched "
                             f"{ref.decisions[j].kind}")
            if first_audit.setdefault(j, r["audit"]) != r["audit"]:
                fails.append(f"visit {j}: audit record differs between repeats")
            if not (0.0 <= r["mu"] <= 1.0 and r["u"] >= 0.0) \
                    and r["decision"] != "reject_blur":
                fails.append(f"visit {j}: mu/u out of range")
            out.append(fails)
        return out

    def digests(self, records: list[dict]) -> dict:
        first = {}
        for r in records:
            first.setdefault(r["j"], r["audit"])
        out = dict(self.setup_digests[0])
        out["gate.jsonl"] = sha256(
            "".join(first[j] + "\n" for j in sorted(first)).encode())
        return out

    def auc(self, records: list[dict]) -> float:
        first = {}
        for r in records:
            first.setdefault(r["j"], r["mu"])
        js = sorted(first)
        return roc_auc([first[j] for j in js], self.tp.split.test.label[js])


class ScreenWorkload(Workload):
    """The staged CLI in-process: gen-data and train in set-up, then
    gate, calibrate, evaluate, coverage, warn and report per op."""

    name = "screen"
    stages = ("gate", "calibrate", "evaluate", "coverage", "warn", "report")

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self._seq = 0

    def _cli(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def setup(self, k: int) -> None:
        base = os.path.join(self.workdir, f"setup{k}")
        os.makedirs(base)
        gen_cfg = os.path.join(base, "gen.json")
        train_cfg = os.path.join(base, "train.json")
        with open(gen_cfg, "w") as f:
            json.dump({"n_patients": SCREEN_PATIENTS, "seed": self.seed}, f)
        with open(train_cfg, "w") as f:
            json.dump({"max_epochs": EPOCHS, "patience": EPOCHS,
                       "seed": TRAIN_SEED}, f)
        cohort, model = os.path.join(base, "cohort"), os.path.join(base, "model")
        rcs = [self._cli("gen-data", "--config", gen_cfg, "--out", cohort),
               self._cli("train", "--cohort", cohort, "--config", train_cfg,
                         "--out", model)]
        if rcs != [0, 0]:
            raise RuntimeError(f"screen set-up: gen-data/train exited {rcs}")
        self.setup_digests.append({
            "cohort.csv": file_sha256(os.path.join(cohort, "cohort.csv")),
            "params.bin": file_sha256(os.path.join(model, "checkpoint", "params.bin")),
            "history.jsonl": file_sha256(os.path.join(model, "history.jsonl")),
        })
        if k > 0:
            shutil.rmtree(base)
            return
        self.cohort, self.model = cohort, model
        with open(os.path.join(model, "splits.json")) as f:
            assignment = json.load(f)
        with open(os.path.join(cohort, "cohort.csv"), newline="") as f:
            split_of = [assignment[row["patient_id"]] for row in csv.DictReader(f)]
        with open(os.path.join(model, "checkpoint", "manifest.json")) as f:
            shapes = [p["shape"] for p in json.load(f)["params"]]
        self.sizes = {"patients": SCREEN_PATIENTS, "visits": len(split_of),
                      "epochs": EPOCHS, "train_seed": TRAIN_SEED,
                      "adamw_params": int(sum(np.prod(s) for s in shapes))}
        for name in ("train", "val", "test"):
            self.sizes[name] = split_of.count(name)
        self.sizes["gated_per_op"] = self.sizes["val"] + self.sizes["test"]

    def op(self, i: int, timer) -> dict:
        out = os.path.join(self.workdir, f"seq{self._seq}")
        self._seq += 1
        d = {s: os.path.join(out, s) for s in self.stages}
        inputs = ["--cohort", self.cohort, "--model", self.model]
        seeded = ["--seed", str(self.seed)]
        argvs = {s: [s, *inputs, *([] if s == "calibrate" else seeded),
                     "--out", d[s]] for s in self.stages[:-1]}
        argvs["report"] = ["report", d["evaluate"], d["calibrate"], d["coverage"],
                           d["warn"], d["gate"], self.model, "--out", d["report"]]
        stage_s, rcs = {}, {}
        with timer() as t:
            for s in self.stages:
                t0 = perf_counter()
                rcs[s] = self._cli(*argvs[s])
                stage_s[s] = perf_counter() - t0
        record = {"seconds": t.seconds, "stage_s": stage_s, "rcs": rcs,
                  "items": self.sizes["gated_per_op"],
                  "items_seconds": stage_s["gate"]}
        record["failures"] = self._artifact_failures(d, rcs)
        record["digests"] = {
            name: _maybe_digest(os.path.join(d[stage], name))
            for stage, name in (("gate", "gate.jsonl"), ("coverage", "coverage.csv"),
                                ("calibrate", "fairness.json"),
                                ("warn", "warnings.json"))}
        try:
            with open(os.path.join(d["evaluate"], "metrics.json")) as f:
                record["auc"] = json.load(f)["auc"]
        except (OSError, ValueError, KeyError):
            record["auc"] = float("nan")
        shutil.rmtree(out)
        return record

    def _artifact_failures(self, d: dict, rcs: dict) -> list[str]:
        fails = [f"{s} exited {rc}" for s, rc in rcs.items() if rc != 0]
        if fails:
            return fails
        n = self.sizes["test"]
        with open(os.path.join(d["gate"], "gate-config.json")) as f:
            self.sizes["n_passes"] = json.load(f)["n_passes"]
        with open(os.path.join(d["gate"], "gate.jsonl")) as f:
            recs = [json.loads(line) for line in f]
        with open(os.path.join(d["gate"], "gate-report.json")) as f:
            report = json.load(f)
        if len(recs) != n:
            fails.append(f"gate.jsonl has {len(recs)} records, test split has {n}")
        kinds = [r["decision"] for r in recs]
        if report["accepted"] + report["rejected_blur"] \
                + report["rejected_uncertain"] != n or report["n"] != n \
                or report["accepted"] != kinds.count("accept"):
            fails.append("gate decisions do not sum to the test visits")
        for r in recs:
            if r["decision"] == "reject_blur":
                continue
            if not (0.0 <= r["mu"] <= 1.0 and r["u"] >= 0.0):
                fails.append(f"{r['sample_id']}: mu/u out of range")
        with open(os.path.join(d["calibrate"], "fairness.json")) as f:
            stages = {s["stage"]: s for s in json.load(f)["stages"]}
        if not stages["calibrated"]["gap"] <= stages["global"]["gap"]:
            fails.append("calibrated FNR gap exceeds the global gap")
        with open(os.path.join(d["report"], "report.json")) as f:
            sources = json.load(f)["sources"]
        if sorted(sources) != sorted(REPORT_PIECES):
            fails.append(f"report merged {sources}")
        return fails


def _maybe_digest(path: str) -> str | None:
    return file_sha256(path) if os.path.exists(path) else None


WORKLOADS = {w.name: w for w in (TrainWorkload, ScreenWorkload, VisitWorkload)}
