"""Hierarchical gating: blur firewall, MC-dropout + TTA ensemble, and the
coverage-accuracy trade-off.

Blurred rasters are rejected before any model inference. Sharp ones get 15
stochastic passes (dropout in both streams, cycling through the 7-transform
augmentation list); the variance of the fused probabilities is the
uncertainty, and samples at or above the threshold are referred to a human,
ordered by the triage policy.

On this model the gamma search refers no validation visit: dropping the
most uncertain visits does not raise the retained accuracy by more than
gamma times the referral rate. So the demo sets the threshold from a
referral budget instead, the 90th percentile of the validation U, to show
the queue's ordering by U.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np

from oculogate.data import default_cohort_spec, generate_cohort, inject_blur
from oculogate.gate import GateConfig, run_gate, triage_queue
from oculogate.pipeline import calibrate_gate, coverage_report, run_training_pipeline
from oculogate.train import TrainConfig

cohort = generate_cohort(default_cohort_spec(n_patients=500, seed=2))
tp = run_training_pipeline(cohort, TrainConfig(max_epochs=12, seed=3))

gate_cfg, tau_res, val_run = calibrate_gate(tp, GateConfig(), gamma=0.15, seed=7)
print(f"calibrated tau_unc = {gate_cfg.tau_unc:.5f} "
      f"(validation referral rate {tau_res.referral_rate:.2f}, "
      f"retained accuracy {tau_res.retained_accuracy:.4f})")
val_u = val_run.gated(tp.split.val.label)[0]
gate_cfg = replace(gate_cfg, tau_unc=float(np.percentile(val_u, 90)))
print(f"referral budget: tau_unc = {gate_cfg.tau_unc:.5f} "
      f"(validation referral rate {np.mean(val_u >= gate_cfg.tau_unc):.2f})")

# blur a handful of test rasters so the firewall has something to catch
test = tp.split.test
test.rasters = [test.raster(i) for i in range(len(test))]
for i in range(0, 12):
    test.rasters[i] = inject_blur(test.rasters[i], 3)

run = run_gate(tp.model, test, tp.stats, gate_cfg, seed=11, fusion=tp.fusion)
print("\ndecisions:", dict(Counter(d.kind for d in run.decisions)))

queue = triage_queue(run, priority_groups=["Black", "Asian", "White"])
print("\ntop of the review queue (priority group, then uncertainty):")
for i in queue[:8]:
    u = "-" if math.isnan(run.u[i]) else f"{run.u[i]:.4f}"   # no U for blur rejects
    print(f"  {run.sample_ids[i]:12s} {run.groups[i]:6s} {run.decisions[i].kind:17s} U={u}")

cov = coverage_report(run, test.label)
print("\ncoverage-accuracy over the sharp samples:")
for c, acc in cov["points"]:
    bar = "#" * int(40 * (acc - 0.5) / 0.5)
    print(f"  {c:.2f}  {acc:.4f}  {bar}")
