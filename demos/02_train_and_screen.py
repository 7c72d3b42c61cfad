"""Train the dual-stream model and read its screening outputs.

The clinical stream is a densely connected encoder over the tabular
features; the visual stream is patch statistics behind a fixed projection.
Each stream emits its own probability and the decision-level fusion
combines them with weights (0.6, 0.4). The regression head predicts the
current MD and the progression slope at the same time.
"""

import time
from collections import Counter

from oculogate.data import default_cohort_spec, generate_cohort
from oculogate.metrics import grade_md
from oculogate.pipeline import (deterministic_scores, run_training_pipeline,
                                screening_report)
from oculogate.train import TrainConfig

cohort = generate_cohort(default_cohort_spec(n_patients=500, seed=2))
t0 = time.perf_counter()
tp = run_training_pipeline(cohort, TrainConfig(max_epochs=12, seed=3))

print(f"trained {len(tp.history.records)} epochs in "
      f"{time.perf_counter() - t0:.0f}s; "
      f"best val AUC {tp.history.best_val_auc:.4f} "
      f"at epoch {tp.history.best_epoch}")

report = screening_report(tp, tp.split.test)
print("\nheld-out screening:")
for key in ("auc", "accuracy", "sensitivity", "specificity", "f1", "md_mae"):
    print(f"  {key:12s} {report[key]:.4f}")

arrs = deterministic_scores(tp, tp.split.test)
grades = Counter(grade_md(md) for md in arrs["md_hat"])
print("\npredicted severity grades on the test split:")
for grade in ("normal", "early", "moderate", "advanced"):
    print(f"  {grade:9s} {grades.get(grade, 0):4d}")

# a single visit is a batch of one
one = tp.split.test.subset([0])
pred = {k: float(v[0]) for k, v in deterministic_scores(tp, one).items()}
print(f"\none sample ({one.sample_ids()[0]}, measured md {one.md[0]:.2f} dB):")
print(f"  p_final {pred['p_final']:.3f} = 0.6*{pred['p_vis']:.3f} "
      f"+ 0.4*{pred['p_clin']:.3f}")
print(f"  md_hat {pred['md_hat']:.2f} dB, slope_hat {pred['slope_hat']:.2f} dB/yr, "
      f"severity '{grade_md(pred['md_hat'])}'")
