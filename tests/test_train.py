import hashlib

import numpy as np
import pytest

from oculogate import numerics
from oculogate.data import default_cohort_spec, generate_cohort
from oculogate.errors import ConfigError
from oculogate.metrics import roc_auc
from oculogate.model import DCCEConfig, FusionConfig
from oculogate.pipeline import patch_stat_matrices, run_training_pipeline
from oculogate.rng import Rng
import oculogate.train as train_module
from oculogate.train import (TrainConfig, grid_search_alpha,
                             grid_search_tau_unc, split_dataset)

from helpers import _InlinePool, reference_feature_matrices, traced_peak


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(default_cohort_spec(n_patients=400, seed=77))


class TestSplit:
    def test_patients_never_span_splits(self, cohort):
        split = split_dataset(cohort, TrainConfig(seed=1))
        seen = {}
        for part, table in (("train", split.train), ("val", split.val),
                            ("test", split.test)):
            for pid in table.patient_id:
                assert seen.setdefault(pid, part) == part

    def test_prevalence_within_3pp(self, cohort):
        # stratification controls the patient-level (ever-positive) rate;
        # visit-level prevalence inherits extra wobble from visit counts
        split = split_dataset(cohort, TrainConfig(seed=1))

        def patient_rate(table):
            ever = {}
            for pid, lab in zip(table.patient_id, table.label):
                ever[pid] = max(ever.get(pid, 0), int(lab))
            return sum(ever.values()) / len(ever)

        overall = patient_rate(cohort)
        for table in (split.train, split.val, split.test):
            assert abs(patient_rate(table) - overall) <= 0.03

    def test_same_seed_same_assignment(self, cohort):
        a = split_dataset(cohort, TrainConfig(seed=5)).assignment
        b = split_dataset(cohort, TrainConfig(seed=5)).assignment
        assert a == b
        c = split_dataset(cohort, TrainConfig(seed=6)).assignment
        assert c != a

    def test_fractions_respected(self, cohort):
        split = split_dataset(cohort, TrainConfig(seed=2))
        n = len({*cohort.patient_id})
        n_train = len({*split.train.patient_id})
        assert abs(n_train / n - 0.70) < 0.05

    def test_small_stratum_named_in_error(self):
        spec = default_cohort_spec(n_patients=8, seed=3,
                                   group_mix={"Asian": 0.9, "Black": 0.05,
                                              "White": 0.05})
        tiny = generate_cohort(spec)
        with pytest.raises(ConfigError, match="stratum"):
            split_dataset(tiny, TrainConfig(seed=1))


@pytest.mark.parametrize("overrides, key", [
    ({"lr": 0.0}, "'lr'"), ({"lr": -0.5, "wd": 4.0}, "'lr'"),
    ({"lr": float("nan")}, "'lr'"), ({"wd": -1e-4}, "'wd'"),
    ({"lr": 0.5, "wd": 2.0}, "'lr' \\* 'wd'"), ({"lr": 0.5, "wd": 4.0}, "'lr' \\* 'wd'"),
], ids=["lr-zero", "lr-negative", "lr-nan", "wd-negative", "decay-one", "decay-past-one"])
def test_validate_refuses_an_optimizer_that_cannot_descend(overrides, key):
    """A non-positive lr climbs the loss, and a decay factor 1 - lr*wd at or
    below 0 zeroes or flips every weight each step."""
    with pytest.raises(ConfigError, match=key):
        TrainConfig(**overrides).validate()
    TrainConfig(lr=0.5, wd=1.999).validate()


class TestTrainingLoop:
    def test_loss_decreases_on_separable_cohort(self):
        cohort = generate_cohort(default_cohort_spec(
            n_patients=250, seed=91, label_noise=0.0))
        tp = run_training_pipeline(cohort, TrainConfig(max_epochs=5, seed=11))
        losses = [r["train_loss"] for r in tp.history.records]
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_history_fields_and_grad_ratio(self, small_pipeline):
        for rec in small_pipeline.history.records:
            assert set(rec) == {"epoch", "train_loss", "val_auc", "val_mae",
                                "grad_ratio"}
        ratios = [r["grad_ratio"] for r in small_pipeline.history.records[1:]]
        assert all(r is not None and 0.1 <= r <= 10.0 for r in ratios)

    def test_best_checkpoint_is_running_max(self, small_pipeline):
        aucs = [r["val_auc"] for r in small_pipeline.history.records]
        assert small_pipeline.history.best_val_auc == max(aucs)
        assert aucs[small_pipeline.history.best_epoch] == max(aucs)

    def test_reproducible_bit_for_bit(self):
        cohort = generate_cohort(default_cohort_spec(n_patients=120, seed=55))
        a = run_training_pipeline(cohort, TrainConfig(max_epochs=2, seed=9))
        b = run_training_pipeline(cohort, TrainConfig(max_epochs=2, seed=9))
        assert np.array_equal(a.model.params.value, b.model.params.value)
        assert a.history.records == b.history.records

    def test_lambda_zero_freezes_regression_head(self):
        cohort = generate_cohort(default_cohort_spec(n_patients=120, seed=56))
        tp = run_training_pipeline(
            cohort, TrainConfig(max_epochs=2, seed=9, lambda_weight=0.0))
        # with no regression gradient the head only sees weight decay
        from oculogate.model import DualStreamModel, DCCEConfig, VisualFeatConfig

        fresh = DualStreamModel(
            DCCEConfig(input_dim=tp.model.dcce.input_dim),
            VisualFeatConfig(), init_rng=Rng(9, "model-init"))
        steps = tp.model.params.step_count
        decay = (1.0 - 1e-4 * 1e-4) ** steps
        assert np.allclose(tp.model.params["reg.W2"].value,
                           fresh.params["reg.W2"].value * decay, atol=1e-12)

    def test_slope_unlabeled_contribute_zero_to_prog(self):
        # patients with < 3 visits have no slope target; loss must still be finite
        cohort = generate_cohort(default_cohort_spec(
            n_patients=150, seed=57, visits_per_patient=(1, 2)))
        assert np.isnan(cohort.slope_target).all()
        tp = run_training_pipeline(cohort, TrainConfig(max_epochs=2, seed=9))
        for rec in tp.history.records:
            assert np.isfinite(rec["train_loss"])
            assert rec["grad_ratio"] is None  # no progression term anywhere


class TestGridSearchAlpha:
    def test_noise_clinical_stream_pushes_alpha_up(self):
        rng = Rng(31, "alpha")
        n = 600
        labels = (rng.uniform(n) < 0.5).astype(int)
        # informative but imperfect visual stream; any admixture of the pure
        # noise stream strictly hurts, so the grid maximum sits at the top
        p_vis = np.clip(0.5 + (labels - 0.5) * 0.5 + rng.normal(n) * 0.25, 0, 1)
        p_clin = rng.uniform(n)  # pure noise
        cfg = grid_search_alpha(p_vis, p_clin, labels)
        assert cfg.alpha_vis >= 0.9

    def test_identical_streams_tie_break_to_default(self):
        rng = Rng(32, "alpha2")
        n = 200
        labels = (rng.uniform(n) < 0.5).astype(int)
        p = rng.uniform(n)
        cfg = grid_search_alpha(p, p, labels)
        assert (cfg.alpha_vis, cfg.alpha_clin) == (0.6, 0.4)

    def test_result_on_grid_and_sums_to_one(self):
        rng = Rng(33, "alpha3")
        n = 300
        labels = (rng.uniform(n) < 0.4).astype(int)
        cfg = grid_search_alpha(rng.uniform(n), rng.uniform(n), labels)
        assert round(cfg.alpha_vis * 10) == cfg.alpha_vis * 10
        assert abs(cfg.alpha_vis + cfg.alpha_clin - 1.0) <= 1e-9

    def test_exhaustive_grid_oracle(self):
        rng = Rng(34, "alpha4")
        n = 400
        labels = (rng.uniform(n) < 0.5).astype(int)
        p_vis = np.clip(labels * 0.6 + rng.uniform(n) * 0.4, 0, 1)
        p_clin = np.clip(labels * 0.3 + rng.uniform(n) * 0.7, 0, 1)
        cfg = grid_search_alpha(p_vis, p_clin, labels)
        best = max(roc_auc((i / 10) * p_vis + (1 - i / 10) * p_clin, labels)
                   for i in range(11))
        got = roc_auc(cfg.alpha_vis * p_vis + cfg.alpha_clin * p_clin, labels)
        assert got == best

    def test_empty_validation_rejected(self):
        with pytest.raises(ConfigError):
            grid_search_alpha([], [], [])


class TestGridSearchTau:
    def _fixture(self, n=400, seed=41):
        rng = Rng(seed, "tau")
        labels = (rng.uniform(n) < 0.5).astype(int)
        mu = np.clip(labels + rng.normal(n) * 0.35, 0, 1)
        correct = (mu >= 0.5).astype(int) == labels
        # uncertainty that perfectly ranks errors below correct predictions
        u = np.where(correct, rng.uniform(n) * 0.1, 0.1 + rng.uniform(n) * 0.1)
        return u, mu, labels

    def test_large_gamma_rejects_almost_nothing(self):
        u, mu, labels = self._fixture()
        res = grid_search_tau_unc(u, mu, labels, gamma=100.0)
        assert res.referral_rate <= 0.05

    def test_perfect_ranking_improves_retained_accuracy(self):
        u, mu, labels = self._fixture()
        full_acc = float(((mu >= 0.5).astype(int) == labels).mean())
        res = grid_search_tau_unc(u, mu, labels, gamma=0.01)
        assert res.retained_accuracy >= full_acc

    def test_chosen_tau_reproduces_its_accuracy(self):
        u, mu, labels = self._fixture(seed=42)
        res = grid_search_tau_unc(u, mu, labels, gamma=0.05)
        retained = u < res.tau_unc
        again = float((((mu >= 0.5).astype(int) == labels)[retained]).mean())
        assert res.retained_accuracy == again

    def test_exhaustive_candidate_oracle(self):
        u, mu, labels = self._fixture(seed=43)
        gamma = 0.05
        res = grid_search_tau_unc(u, mu, labels, gamma=gamma)
        correct = (mu >= 0.5).astype(int) == labels
        best = -np.inf
        for tau in res.candidates:
            retained = u < tau
            acc = correct[retained].mean() if retained.any() else 0.0
            best = max(best, acc - gamma * (1 - retained.mean()))
        assert res.objective == best

    def test_degenerate_all_equal_u_accepts_everything(self):
        u = np.zeros(100)
        rng = Rng(44, "deg")
        labels = (rng.uniform(100) < 0.5).astype(int)
        mu = np.clip(labels + rng.normal(100) * 0.3, 0, 1)
        res = grid_search_tau_unc(u, mu, labels, gamma=0.05)
        assert res.tau_unc > 0.0
        assert (u < res.tau_unc).all()


class TestAlphaSearchIntegration:
    def test_search_alpha_runs_in_pipeline(self):
        cohort = generate_cohort(default_cohort_spec(n_patients=150, seed=58))
        tp = run_training_pipeline(cohort, TrainConfig(max_epochs=2, seed=9),
                                   search_alpha=True)
        assert isinstance(tp.fusion, FusionConfig)
        assert abs(tp.fusion.alpha_vis + tp.fusion.alpha_clin - 1.0) <= 1e-9


def _assert_pinned_training_bytes():
    cohort = generate_cohort(default_cohort_spec(n_patients=60, seed=12,
                                                 visits_per_patient=(2, 6)))
    labeled = ~np.isnan(cohort.slope_target)
    assert 0 < labeled.sum() < len(cohort)
    tp = run_training_pipeline(cohort, TrainConfig(max_epochs=2, patience=2,
                                                   batch_size=16, seed=5))
    assert tp.model.dcce.dropout_p > 0
    assert hashlib.sha256(tp.model.params.value.tobytes()).hexdigest() == \
        "0a982f6de0d2b2c66dda8bd0f81924a3967d50d5b16af5846b7c721cfdcf7b74"
    assert hashlib.sha256(tp.history.to_jsonl().encode()).hexdigest() == \
        "1d72ab442cf34f15e2982bf3ec5650f52f5bfe5d5501e8785174fa327141fec2"


def test_training_bytes_are_pinned():
    """Two epochs with dropout on and slope labels on most rows, batches of
    16 so the every-8th-batch trunk-norm diagnostic runs twice per epoch:
    the final parameters and the history keep their bytes through any
    rewrite of backward, the optimizer step or the raster generator. On
    this cohort grad_ratio also changes if the trunk norms are summed in
    layout order or in plain reversed layout order."""
    _assert_pinned_training_bytes()


def test_training_bytes_are_pinned_with_the_worker_inline(monkeypatch):
    """The same bytes when the optimizer's and the raster generator's
    second halves run on the calling thread."""
    pool = _InlinePool()
    monkeypatch.setattr(numerics, "WORKER", pool)
    _assert_pinned_training_bytes()
    assert pool.submits > 0


@pytest.mark.parametrize("train_cfg, dcce_cfg, digests", [
    (TrainConfig(max_epochs=2, patience=2, batch_size=16, seed=5, lambda_weight=0.0),
     None,
     ("8142dbe35f242a926526e6e2a8342ec6d5c3883e209db0108045e7b1d434c917",
      "e5faa740b8142f82f751cf2cc8987d083d5ec9161da0b9ffa0a7d1f5f4a85200")),
    (TrainConfig(max_epochs=2, patience=2, batch_size=16, seed=5),
     DCCEConfig(input_dim=1, dropout_p=0.0),
     ("f840e4fabfac8a0d96236b47310b59e900b47058b4edf2fbcffdf08ca88048df",
      "b0304ca5e200c84f6cfd3f2f61d6fc799a49cb6d607553e311d889238f924713")),
], ids=["lambda-0", "no-dropout"])
def test_training_bytes_without_a_term_are_pinned(train_cfg, dcce_cfg, digests):
    """The cohort and schedule of test_training_bytes_are_pinned with one
    part of the step switched off: without the progression term (no
    diagnostic backward of it, regression grads zeroed by set_grads) and
    without dropout (the batch rows read as given, no masks drawn). The
    final parameters and the history keep their bytes."""
    cohort = generate_cohort(default_cohort_spec(n_patients=60, seed=12,
                                                 visits_per_patient=(2, 6)))
    tp = run_training_pipeline(cohort, train_cfg, dcce_cfg)
    assert (hashlib.sha256(tp.model.params.value.tobytes()).hexdigest(),
            hashlib.sha256(tp.history.to_jsonl().encode()).hexdigest()) == digests


def test_training_bytes_above_32_rows_are_pinned():
    """One epoch at batch sizes past backward's 32-row input-gradient
    blocks and, at 300 rows and at one batch of the whole training split,
    past its 256-row weight-gradient blocks: the final parameters and the
    history keep their bytes, at one and at two BLAS threads
    (test_blas_guards_hold_at_one_and_two_threads). Without the
    weight-gradient blocks the whole-split batch differs between the two."""
    cohort = generate_cohort(default_cohort_spec(n_patients=150, seed=77))
    digests = {}
    for batch_size in (33, 64, 300, 1000):
        tp = run_training_pipeline(cohort, TrainConfig(max_epochs=1, patience=1,
                                                       batch_size=batch_size, seed=5))
        digests[batch_size] = (hashlib.sha256(tp.model.params.value.tobytes()).hexdigest(),
                               hashlib.sha256(tp.history.to_jsonl().encode()).hexdigest())
    assert 512 < len(tp.split.train) < 1000
    assert digests == {
        33: ("453d00eb006cf3c7c16c08c49925ef5c1a200f43283092efcc09efb3c98232c3",
             "6800666de2b1591e0c141fa00fe34730a3450a0d46440327040d18055eb0ffbd"),
        64: ("dde35f8ee6a186bf05ed721adb1c5ecfc203b139c69e668b8dfac2d001ac2fe6",
             "c6ab23182527d1677fe1e84d0ccc99d1526e48929a234afcdff120f1ec982513"),
        300: ("99b8a657024df13563e35166af31d4e8a120b48b9ad3668b61352f55e1bb5ffb",
              "1bc0275f2980b24e93b21f48c36918f7fd108394142e2e1cbce9d705e2e407b9"),
        1000: ("a3b3b7eab62a6f8c57c363f9867557565bca754dd4a05a82488a8a027429b69c",
               "cdc81b40f036db1dbd3ecb1b573bc48254206bf171dd223b8b76072d1a99dde2"),
    }


@pytest.fixture(scope="module", params=[
    (41, 3, 32, "7e922c2130953bd470188c3b83bf2121413bdf7685cd25f09e55079368a1d9bf",
     "e5d6b40d5de05e471efb8c7a1721849a5179fe7d758415c9cc3b5ead5b7175f7"),
    (132, 1, 512, "2796c0651f3641f628379765a052166d0879876dbfb76fcb95e76e34ad8e52c1",
     "3474916379a1a21e42cce03bff7293d51d173f04e89eb74724ba135e310f25b0"),
], ids=["one-row-batch", "one-row-block"])
def lone_row_run(request):
    """Two epochs on a cohort whose training split has n ≡ 1 rows modulo
    the modulus: 129 rows (mod 32), so each epoch's last batch holds one
    row, and 513 rows (mod 512), whose last row a 512-row blocked
    projection would hold alone. The patch statistics and features of
    every training batch are recorded."""
    n_patients, seed, modulus, *digests = request.param
    batches = []

    def recording(cfg, stats):
        v = batch_of(cfg, stats)
        batches.append((stats.copy(), v.copy()))
        return v

    batch_of = train_module.visual_features_batch
    patch = pytest.MonkeyPatch()
    patch.setattr(train_module, "visual_features_batch", recording)
    try:
        cohort = generate_cohort(default_cohort_spec(n_patients=n_patients, seed=seed))
        tp = run_training_pipeline(cohort, TrainConfig(max_epochs=2, patience=2, seed=5))
    finally:
        patch.undo()
    assert len(tp.split.train) % modulus == 1
    return tp, batches, tuple(digests)


def test_training_bytes_at_a_lone_row_are_pinned(lone_row_run):
    """Projecting each batch from the patch statistics gives the bytes of
    training on the projected feature matrix (digests recorded from it)."""
    tp, _, digests = lone_row_run
    assert (hashlib.sha256(tp.model.params.value.tobytes()).hexdigest(),
            hashlib.sha256(tp.history.to_jsonl().encode()).hexdigest()) == digests


def test_every_training_batch_has_the_feature_matrix_rows(lone_row_run):
    """Each batch's projected rows equal the rows of the per-row oracle's
    feature matrix bit for bit, one-row batches and the last row of a
    513-row split included. A batch row is found by its patch statistics."""
    tp, batches, _ = lone_row_run
    _, s = patch_stat_matrices(tp.split.train, tp.stats, tp.model)
    _, v_ref = reference_feature_matrices(tp.split.train, tp.stats, tp.model)
    row_of = {row.tobytes(): i for i, row in enumerate(s)}
    assert len(row_of) == len(s)
    assert sum(len(stats) for stats, _ in batches) == 2 * len(s)
    assert any(len(stats) == 1 for stats, _ in batches)
    for stats, v in batches:
        rows = [row_of[row.tobytes()] for row in stats]
        assert v.tobytes() == v_ref[rows].tobytes(), rows


def test_training_peak_grows_by_a_few_kb_per_training_visit():
    """run_training_pipeline holds the training split's patch statistics
    (1 KB per visit), not its features (16 KB per visit); the rest of the
    growth is the validation split's features and its per-epoch forward.
    Holding the training features measured 24 KB per training visit."""
    cfg = TrainConfig(max_epochs=1, patience=1, seed=5)
    sizes, peaks = [], []
    for n_patients in (150, 450):
        cohort = generate_cohort(default_cohort_spec(n_patients=n_patients, seed=61))
        sizes.append(len(split_dataset(cohort, cfg).train))
        peaks.append(traced_peak(run_training_pipeline, cohort, cfg))
    per_visit = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
    assert per_visit <= 12_000, (sizes, peaks)
