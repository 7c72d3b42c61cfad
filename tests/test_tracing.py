"""The benchmark tracer wraps oculogate functions by name; every name it
lists must exist, so a rename or deletion fails here rather than in a
benchmark run."""

import importlib
import importlib.util
import os
import pkgutil
import threading
from dataclasses import asdict

import numpy as np

import oculogate

from helpers import spy_on_streams

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    for info in pkgutil.iter_modules(oculogate.__path__):
        importlib.import_module(f"oculogate.{info.name}")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_installs_over_every_module():
    tracing = _load_tracing()
    from oculogate import gate

    original = gate.run_gate
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert gate.run_gate is not original
    finally:
        tracer.uninstall()
    assert gate.run_gate is original
    assert len(tracer.names) == len(tracing.TARGETS) + 1


def test_gate_derives_substreams_at_once_and_featurises_each_transform_once(
        small_pipeline):
    """A fall-back to per-pass Rng objects or per-pass featurisation inside
    the ensemble shows up in the benchmark's per-visit counts."""
    tracing = _load_tracing()
    from oculogate import gate

    tp = small_pipeline
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.op():
            gate.run_gate(tp.model, tp.split.test.subset(range(4)), tp.stats,
                          gate.GateConfig(tau_unc=0.5), 3, tp.fusion)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(0.0)
    assert m["gate.visits_ensembled"] > 0
    assert m["rng.substreams_per_visit"] == 0
    assert m["model.tta_distinct_per_visit"] == 7
    assert m["model.featurisations_per_visit"] == m["model.tta_distinct_per_visit"]


def test_spans_nest_while_the_gate_draws_on_its_worker(small_pipeline):
    """The tracer keeps one span stack for every thread. A wrapped function
    called from the gate's draw worker would open its span under whatever
    the calling thread was in, beside or past the spans open there, which
    misattributes perfbench's per-layer self times. Gating a 65-visit table
    runs multi-visit batches on the worker, and still every span opens on
    the calling thread, lies within its parent's [start, end] and overlaps
    none of its siblings."""
    tracing = _load_tracing()
    from oculogate import gate

    openers = set()

    class RecordingStack(list):
        def append(self, index):
            openers.add(threading.get_ident())
            super().append(index)

    tp = small_pipeline
    tracer = tracing.Tracer()
    tracer._stack = RecordingStack()
    try:
        tracer.install()
        with tracer.op():
            gate.run_gate(tp.model, tp.split.test.subset(range(65)), tp.stats,
                          gate.GateConfig(tau_unc=0.5), 3, tp.fusion)
    finally:
        tracer.uninstall()
    spans, names = tracer.spans, tracer.names
    ensemble = names.index("gate.ensemble_passes")
    assert max(s[4][0] for s in spans if s[0] == ensemble) > 1
    assert openers == {threading.get_ident()}
    last_end = {}   # parent index -> end of its latest child
    for i, (name_id, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            assert p_start <= start <= end <= p_end, (names[name_id], i)
            assert start >= last_end.get(parent, p_start), (names[name_id], i)
            last_end[parent] = end


def test_adamw_span_counts_every_parameter():
    """perfbench's numerics.adamw_params_per_step reads the span info of
    adamw_step, so it must count the whole flat vector."""
    tracing = _load_tracing()
    from oculogate import numerics
    from oculogate.model import DCCEConfig, DualStreamModel, VisualFeatConfig

    params = DualStreamModel(DCCEConfig(input_dim=9), VisualFeatConfig()).params
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.op():
            numerics.adamw_step(params, lr=1e-4, wd=1e-4)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(0.0)
    assert m["numerics.adamw_steps"] == 1
    assert m["numerics.adamw_params_per_step"] == params.value.size


def test_cli_stages_are_looked_up_at_call_time(tmp_path):
    """perfbench's cli.<stage>_s and cli.write_atomic_* read the spans of the
    rebound module functions; a stage table bound at import would bypass
    them and report 0."""
    tracing = _load_tracing()
    from oculogate import cli

    (tmp_path / "eval").mkdir()
    (tmp_path / "eval" / "metrics.json").write_text('{"auc": 0.5}')
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.op():
            assert cli.main(["report", str(tmp_path / "eval"),
                             "--out", str(tmp_path / "rep")]) == 0
    finally:
        tracer.uninstall()
    recorded = {tracer.names[span[0]] for span in tracer.spans}
    assert {"cli.cmd_report", "cli.write_atomic"} <= recorded


def test_training_counters_follow_the_step_and_the_diagnostic():
    """perfbench's numerics.adamw_params_per_step and
    model.backward_calls_per_step read the spans of one training run: the
    step updates the whole flat vector, and backward runs once per step
    (inside set_grads) plus once per term on every 8th batch."""
    tracing = _load_tracing()
    from oculogate import pipeline
    from oculogate.data import default_cohort_spec, generate_cohort
    from oculogate.train import TrainConfig

    cohort = generate_cohort(default_cohort_spec(n_patients=60, seed=2718,
                                                 visits_per_patient=(2, 6)))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.op():
            tp = pipeline.run_training_pipeline(
                cohort, TrainConfig(max_epochs=1, batch_size=16, seed=5))
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(0.0)
    steps = -(-len(tp.split.train) // 16)
    # every batch of this cohort holds slope-labeled rows, so each
    # diagnostic batch runs both the screening and the progression pass
    diagnostic = 2 * -(-steps // 8)
    assert m["numerics.adamw_steps"] == steps
    assert m["numerics.adamw_params_per_step"] == tp.model.params.value.size
    assert m["model.backward_calls_per_step"] == (steps + diagnostic) / steps


def test_warning_report_draws_its_trajectories_column_wise(small_pipeline,
                                                            monkeypatch):
    """No per-trajectory Rng: one sponge pass per trajectory kind (every
    label "traj/<kind>" is 2 words long), then one per half of each raster
    block, as generate_images draws each half's rows on its own; the
    risks are those of the per-trajectory tables scored seed-major and
    kind-minor as one table, where the report scores them kind-major."""
    from oculogate import data, pipeline
    from oculogate.metrics import dynamic_warning

    seeds, n_visits = [4, -2, 2**64 + 1], 8
    kinds = ("stable", "slow", "rapid")
    trajs = [data.generate_trajectory(kind, n_visits, seed)
             for seed in seeds for kind in kinds]
    risks = pipeline.deterministic_scores(
        small_pipeline, data.CohortTable.concat([t.table for t in trajs]),
        regression=False)["p_final"].reshape(len(seeds), len(kinds), n_visits)
    counts = spy_on_streams(monkeypatch)
    report = pipeline.warning_report(small_pipeline, seeds, n_visits)
    assert counts["rng"] == 0
    rasters = len(trajs) * n_visits
    blocks = [min(data.RASTER_READ, rasters - start)
              for start in range(0, rasters, data.RASTER_READ)]
    assert blocks == [32, 32, 8]   # even, so the halves' passes are alike
    assert counts["sponge"] == [(len(seeds), 2)] * len(kinds) + \
        [(b // 2, 1) for b in blocks for _ in range(2)]
    for k, kind in enumerate(kinds):
        for j, row in enumerate(report["per_kind"][kind]):
            traj = trajs[j * len(kinds) + k]
            warning = dynamic_warning(traj.table.visit_time, risks[j, k],
                                      traj.onset_time)
            assert row == {"seed": seeds[j], **asdict(warning),
                           "mean_risk": float(np.mean(risks[j, k]))}
