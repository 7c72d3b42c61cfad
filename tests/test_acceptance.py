"""Acceptance gates for the whole pipeline, one test per criterion.

Everything runs on CPU from pinned seeds. The expensive pieces (the
2,000-patient cohort, its training run, and the gated test split) are built
once in the module fixture and shared. Each test prints one PASS line.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from oculogate.data import (default_cohort_spec, generate_cohort,
                            generate_image, generate_trajectory, inject_blur)
from oculogate.fairness import calibrate_groups, fnr_gap, group_fnr
from oculogate.gate import (GateConfig, laplacian_variance, run_gate,
                            summarize_passes)
from oculogate.metrics import (dynamic_warning, eligibility_filter,
                               mean_absolute_error, ols_slope, roc_auc)
from oculogate.model import DCCEConfig, DualStreamModel, VisualFeatConfig
from oculogate.pipeline import (AblationFlags, TrainedPipeline, ablation_report,
                                calibrate_gate, coverage_report,
                                deterministic_scores, run_training_pipeline)
from oculogate.rng import Rng
from oculogate.train import TrainConfig, multitask_loss

from helpers import grad_check, risk_by_age_band

GATE_SEED = 99
TEST_GATE_SEED = 123


def _ok(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module")
def big():
    cohort = generate_cohort(default_cohort_spec())
    t0 = time.perf_counter()
    tp = run_training_pipeline(cohort, TrainConfig(seed=7))
    train_seconds = time.perf_counter() - t0
    gate_cfg, tau_res, _ = calibrate_gate(tp, GateConfig(), gamma=0.15,
                                          seed=GATE_SEED)
    test_run = run_gate(tp.model, tp.split.test, tp.stats, gate_cfg,
                        seed=TEST_GATE_SEED, fusion=tp.fusion)
    scores = deterministic_scores(tp, tp.split.test)
    return SimpleNamespace(cohort=cohort, tp=tp, train_seconds=train_seconds,
                           gate_cfg=gate_cfg, tau_res=tau_res, test_run=test_run,
                           scores=scores)


def _subset_pipeline(tp: TrainedPipeline, n: int) -> TrainedPipeline:
    from oculogate.train import SplitResult

    split = SplitResult(
        train=tp.split.train,
        val=tp.split.val.subset(range(min(n, len(tp.split.val)))),
        test=tp.split.test.subset(range(min(n, len(tp.split.test)))),
        assignment=tp.split.assignment,
    )
    return TrainedPipeline(model=tp.model, stats=tp.stats, fusion=tp.fusion,
                           split=split, history=tp.history)


def test_c01_gradient_fidelity():
    """grad_check on DCCE + both heads + fused multi-task loss, lambda in
    {0, 1, 5}, max relative error <= 1e-4, under 10 seconds."""
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (0.0, 1.0, 5.0):
        dcce = DCCEConfig(input_dim=6, dropout_p=0.0)
        vis = VisualFeatConfig()
        m = DualStreamModel(dcce, vis, init_rng=Rng(1, f"acc1-{lam}"))
        rng = Rng(2, f"probe-{lam}")
        n = 4
        x = rng.normal((n, 6))
        v = np.tanh(rng.normal((n, vis.proj_dim)) * 0.5)
        y = np.array([1.0, 0.0, 1.0, 0.0])
        md_t = rng.normal(n) * 3
        sl_t = rng.normal(n) * 0.5
        labeled = np.array([True, True, False, True])
        cfg = TrainConfig(lambda_weight=lam)

        def model_fn():
            out, cache = m.forward(x, v, None)
            l_scr, l_prog, d_scr, d_prog = multitask_loss(out, y, md_t, sl_t,
                                                          labeled, cfg)
            m.set_grads(cache, **d_scr, **{k: lam * d for k, d in d_prog.items()})
            return l_scr + lam * l_prog

        worst = max(worst, grad_check(model_fn, m.params, max_per_entry=16))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4
    assert elapsed < 10.0
    _ok("criterion 1", f"max rel err {worst:.2e} in {elapsed:.1f}s")


def test_c02_uncertainty_identity():
    """Streaming mu/U equals the definitional two-pass computation to 1e-12
    on 1,000 random ensembles; the 8-zeros/7-ones fixture gives U = 56/225."""
    rng = Rng(202, "c2")
    worst = 0.0
    for _ in range(10):
        passes = rng.uniform((100, int(rng.integers(2, 30))))
        mu, u = summarize_passes(passes)
        mu2 = passes.mean(axis=1)
        u2 = ((passes - mu2[:, None]) ** 2).mean(axis=1)
        worst = max(worst, float(np.abs(mu - mu2).max()),
                    float(np.abs(u - u2).max()))
    assert worst <= 1e-12
    mu, u = summarize_passes(np.array([[0.0] * 8 + [1.0] * 7]))
    assert abs(mu[0] - 7 / 15) <= 1e-12
    assert abs(u[0] - 56 / 225) <= 1e-12
    _ok("criterion 2", f"1000 ensembles, worst deviation {worst:.1e}; "
        f"Bernoulli fixture U = {u[0]:.12f}")


def test_c03_laplacian_oracle():
    """Implementation matches the naive 9-tap oracle to 1e-9 on 100 random
    rasters; impulse fixture is 20/9; blur separates at tau_blur = 100."""
    rng = Rng(303, "c3")
    worst = 0.0
    for _ in range(100):
        raster = rng.uniform((64, 64))
        a = raster * 255.0
        resp = (-4 * a[1:-1, 1:-1] + a[:-2, 1:-1] + a[2:, 1:-1]
                + a[1:-1, :-2] + a[1:-1, 2:])
        naive = float(((resp - resp.mean()) ** 2).mean())
        worst = max(worst, abs(laplacian_variance(raster) - naive))
    assert worst <= 1e-9

    impulse = np.zeros((5, 5))
    impulse[2, 2] = 1.0 / 255.0
    assert abs(laplacian_variance(impulse) - 20.0 / 9.0) <= 1e-12

    n = 200
    sharp_pass = 0
    blur_below = 0
    for i in range(n):
        sev = -0.3 + 2.3 * (i / n)
        img = generate_image(sev, 9000 + i)
        if laplacian_variance(img) >= 100.0:
            sharp_pass += 1
        radius = 2 + (i % 3)
        if laplacian_variance(inject_blur(img, radius)) < 100.0:
            blur_below += 1
    assert sharp_pass / n >= 0.99
    assert blur_below / n >= 0.95
    _ok("criterion 3", f"oracle diff {worst:.1e}; sharp pass {sharp_pass}/{n}; "
        f"blurred below threshold {blur_below}/{n}")


def test_c04_selective_prediction(big):
    """Coverage points equal the sort-and-slice oracle exactly; accuracy at
    50% coverage >= accuracy at 100%; curve stays within a 0.05 band."""
    run = big.test_run
    labels = big.tp.split.test.label
    report = coverage_report(run, labels)
    points = report["points"]

    sharp = ~np.isnan(run.u)
    u = run.u[sharp]
    mu = run.mu[sharp]
    y = np.asarray(labels)[sharp]
    sids = [s for s, ok in zip(run.sample_ids, sharp) if ok]
    order = sorted(range(len(u)), key=lambda i: (u[i], sids[i]))
    for c, acc in points:
        k = int(np.ceil(c * len(u)))
        kept = order[:k]
        oracle = float(np.mean([(mu[i] >= 0.5) == y[i] for i in kept]))
        assert acc == oracle

    accs = [a for _, a in points]
    assert points[0][0] == 0.5 and points[-1][0] == 1.0
    assert accs[0] >= accs[-1]
    band = max(accs) - min(accs)
    assert band <= 0.05
    _ok("criterion 4", f"acc@50% {accs[0]:.4f} >= acc@100% {accs[-1]:.4f}, "
        f"band {band:.4f}")


def test_c05_fairness_calibration(big):
    """Per-group calibration on the validation scores cuts the FNR gap by
    >= 60% at <= 0.5pp accuracy cost with AUC bit-identical; the published
    two-stage fixture reads back exactly."""
    val_scores = deterministic_scores(big.tp, big.tp.split.val)
    scores = val_scores["p_final"]
    labels = big.tp.split.val.label
    groups = np.asarray(big.tp.split.val.race)
    res = calibrate_groups(scores, labels, groups)
    assert res.gap_before >= 0.10
    reduction = 1.0 - res.gap_after / res.gap_before
    assert reduction >= 0.60
    assert res.acc_after >= res.acc_before - 0.005
    assert res.auc == roc_auc(scores, labels)

    # fixture readback: global stage 0.254 / 0.320 / 0.197, gap 0.123
    from test_fairness import reference_fixture

    s, y, g = reference_fixture()
    fnrs = group_fnr(s, y, g, 0.5)
    assert (fnrs["White"], fnrs["Black"], fnrs["Asian"]) == (0.254, 0.320, 0.197)
    gap2 = fnr_gap(fnrs)
    assert gap2 == 0.320 - 0.197
    assert abs(gap2 - 0.123) <= 1e-12
    # calibrated stage 0.262 / 0.272 / 0.239, gap 0.033
    stage3 = {"White": 131 / 500, "Black": 136 / 500, "Asian": 239 / 1000}
    assert (stage3["White"], stage3["Black"], stage3["Asian"]) == \
        (0.262, 0.272, 0.239)
    gap3 = fnr_gap(stage3)
    assert gap3 == 0.272 - 0.239
    assert abs(gap3 - 0.033) <= 1e-12
    _ok("criterion 5", f"gap {res.gap_before:.4f} -> {res.gap_after:.4f} "
        f"({100 * reduction:.1f}% reduction), accuracy "
        f"{res.acc_before:.4f} -> {res.acc_after:.4f}; fixtures exact")


def test_c06_desk_scale_end_to_end(big):
    """Trained on the 2,000-patient cohort: held-out screening AUC >= 0.90
    and MD MAE <= 1.0 dB, trained within 2 minutes."""
    auc = roc_auc(big.scores["p_final"], big.tp.split.test.label)
    mae = mean_absolute_error(big.scores["md_hat"], big.tp.split.test.md)
    assert auc >= 0.90
    assert mae <= 1.0
    assert big.train_seconds <= 120.0
    _ok("criterion 6", f"test AUC {auc:.4f}, MD MAE {mae:.3f} dB, "
        f"trained in {big.train_seconds:.0f}s")


def test_c07_ols_and_eligibility():
    """Slope matches the normal-equations oracle to 1e-9 on 1,000 random
    series; the three eligibility boundary cases behave as specified."""
    rng = Rng(707, "c7")
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        t = np.cumsum(0.1 + rng.uniform(n))
        v = rng.normal(n) * 4
        a = np.vstack([t, np.ones(n)]).T
        want = float(np.linalg.lstsq(a, v, rcond=None)[0][0])
        worst = max(worst, abs(ols_slope(t, v) - want))
    assert worst <= 1e-9
    assert eligibility_filter([0.0, 3.0]) is False
    assert eligibility_filter([0.0, 0.4, 0.9]) is False
    assert eligibility_filter([0.0, 0.5, 1.0]) is True
    _ok("criterion 7", f"worst oracle diff {worst:.1e}; boundaries exact")


def test_c08_age_monotonicity(big):
    """Mean predicted risk strictly increases across the three age bands on
    the held-out split."""
    risks = big.scores["p_final"]
    ages = big.tp.split.test.age
    bands = risk_by_age_band(risks, ages)
    values = [bands["30-50"], bands["50-70"], bands["70-90"]]
    assert None not in values
    assert values[0] < values[1] < values[2]
    _ok("criterion 8", "band means " + " < ".join(f"{v:.3f}" for v in values))


def test_c09_dynamic_warning(big):
    """Over 50 seeded trajectory triples: stable never fires, slow and rapid
    always fire, and rapid fires at an index <= slow's in >= 90%."""
    outcomes = {"stable": [], "slow": [], "rapid": []}
    for seed in range(50):
        for kind in outcomes:
            traj = generate_trajectory(kind, 8, seed)
            arrs = deterministic_scores(big.tp, traj.table)
            w = dynamic_warning(traj.table.visit_time, arrs["p_final"],
                                traj.onset_time)
            outcomes[kind].append(w)
    assert sum(w.fired for w in outcomes["stable"]) == 0
    assert all(w.fired for w in outcomes["slow"])
    assert all(w.fired for w in outcomes["rapid"])
    ordered = sum(
        1 for a, b in zip(outcomes["rapid"], outcomes["slow"])
        if a.first_warning_index <= b.first_warning_index)
    assert ordered / 50 >= 0.90
    _ok("criterion 9", f"stable 0/50 fired, slow 50/50, rapid 50/50, "
        f"rapid<=slow in {ordered}/50")


def test_c10_ablation_harness(big):
    """Each ablation toggle produces a valid table-shaped report; disabling
    MC dropout under identity-only TTA forces U = 0 and the gate accepts
    every sharp sample. The same toggles ride the CLI flags --no-clinical,
    --no-tta, --no-mc-dropout (exercised in test_cli)."""
    small = _subset_pipeline(big.tp, 600)
    shaped_keys = {"auc", "sensitivity", "specificity", "fnr_gap",
                   "top_fraction", "n_subset"}
    for flags in (AblationFlags(no_clinical=True), AblationFlags(no_tta=True),
                  AblationFlags(no_mc_dropout=True)):
        rep = ablation_report(small, GateConfig(), gamma=0.15, seed=GATE_SEED,
                              flags=flags)
        assert shaped_keys <= set(rep)
        assert rep["n_subset"] >= 1
        assert rep["auc"] is None or 0.0 <= rep["auc"] <= 1.0

    rep = ablation_report(small, GateConfig(), gamma=0.15, seed=GATE_SEED,
                          flags=AblationFlags(no_tta=True, no_mc_dropout=True))
    assert rep["max_u"] == 0.0
    assert rep["accept_rate"] == 1.0
    _ok("criterion 10", "three toggles report; no-mc-dropout + identity TTA "
        f"gives max U = {rep['max_u']} and accept rate {rep['accept_rate']}")


def test_c11_determinism(tmp_path):
    """Two runs with identical resolved configs produce byte-identical
    reports. Internal parallelism is limited to the BLAS thread pool, which
    the fixed-order reductions make schedule-independent."""
    from oculogate.cli import main

    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"n_patients": 70, "visits_min": 3,
                                   "visits_max": 4, "seed": 17}))
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"max_epochs": 3, "seed": 5}))
    gate_cfg = tmp_path / "gate.json"
    gate_cfg.write_text(json.dumps({"n_passes": 6, "seed": 23}))

    assert main(["gen-data", "--config", str(gen_cfg),
                 "--out", str(tmp_path / "cohort")]) == 0
    assert main(["train", "--config", str(train_cfg),
                 "--cohort", str(tmp_path / "cohort"),
                 "--out", str(tmp_path / "model")]) == 0
    pairs = []
    piece_pairs = []
    for tag in ("a", "b"):
        ev = tmp_path / f"eval-{tag}"
        cov = tmp_path / f"cov-{tag}"
        assert main(["evaluate", "--cohort", str(tmp_path / "cohort"),
                     "--model", str(tmp_path / "model"),
                     "--out", str(ev)]) == 0
        assert main(["coverage", "--config", str(gate_cfg),
                     "--cohort", str(tmp_path / "cohort"),
                     "--model", str(tmp_path / "model"),
                     "--out", str(cov)]) == 0
        assert main(["report", str(ev), str(cov),
                     "--out", str(tmp_path / f"rep-{tag}")]) == 0
        pairs.append((tmp_path / f"rep-{tag}" / "report.json").read_bytes())
        piece_pairs.append((ev / "metrics.json").read_bytes()
                           + (cov / "coverage.json").read_bytes()
                           + (cov / "coverage.csv").read_bytes())
    assert piece_pairs[0] == piece_pairs[1]
    assert pairs[0] == pairs[1]

    # training itself is bit-stable: retrain and compare checkpoints
    assert main(["train", "--config", str(train_cfg),
                 "--cohort", str(tmp_path / "cohort"),
                 "--out", str(tmp_path / "model2")]) == 0
    a = (tmp_path / "model" / "checkpoint" / "params.bin").read_bytes()
    b = (tmp_path / "model2" / "checkpoint" / "params.bin").read_bytes()
    assert a == b
    _ok("criterion 11", "reports and retrained checkpoints byte-identical")
