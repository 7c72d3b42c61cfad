import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oculogate.data import (DATA_BOUNDS, VISIT_KEYS, CohortSpec, apply_preprocess_table,
                            default_cohort_spec)
from oculogate.errors import ConfigError, SchemaError
from oculogate.gate import GATE_BOUNDS, GateConfig, ensemble_passes, gate_decide
from oculogate.model import (CONFIG_BOUNDS, DCCEConfig, DualStreamModel, FusionConfig,
                             VisualFeatConfig, dropout, fuse, keep_bits,
                             load_checkpoint, patch_stats, predict_arrays,
                             projection_matrix, save_checkpoint,
                             visual_features_batch)
from oculogate.numerics import adamw_step, sigmoid
from oculogate.pipeline import feature_matrices
from oculogate.rng import Rng, _unit
from oculogate.train import SPLIT_KEYS, TRAIN_BOUNDS, TrainConfig, multitask_loss

from helpers import (ConcatTrunkModel, blas_pool_threads, float_rule_masks,
                     grad_check, projected_rows, reference_feature_matrices,
                     traced_peak)


def features_of_one(cfg, raster):
    """Features of one raster: the batched extractor on a batch of one."""
    return visual_features_batch(cfg, patch_stats(raster[None, :, :], cfg.patch_grid))[0]


def small_model(input_dim=5, k=4, proj_dim=6, seed=3, dropout_p=0.0):
    dcce = DCCEConfig(input_dim=input_dim, n_blocks=2, layers_per_block=2,
                      growth_k=k, dropout_p=dropout_p)
    vis = VisualFeatConfig(patch_grid=2, proj_dim=proj_dim, proj_seed=11)
    return DualStreamModel(dcce, vis, init_rng=Rng(seed, "test-model"))


class TestDCCE:
    def test_embedding_dim_formula(self):
        m = small_model(input_dim=16, k=32)
        assert m.dcce.output_dim == 16 + 4 * 32 == 144
        x = Rng(1, "x").normal((3, 16))
        v = Rng(1, "v").normal((3, 6))
        out, _ = m.forward(x, v)
        assert out["embedding"].shape == (3, 144)

    def test_zero_weights_pass_input_through(self):
        m = small_model()
        for name in m.params.entries:
            if name.startswith("dcce."):
                m.params[name].value[...] = 0.0
        x = Rng(2, "x").normal((4, 5))
        v = np.zeros((4, 6))
        out, _ = m.forward(x, v)
        emb = out["embedding"]
        assert np.array_equal(emb[:, :5], x)
        assert np.all(emb[:, 5:] == 0.0)

    def test_dense_connectivity_perturbation_propagates(self):
        m = small_model()
        x = Rng(4, "x").normal((2, 5))
        v = Rng(4, "v").normal((2, 6))
        _, cache0 = m.forward(x, v)
        # nudging the first layer's bias must move every later pre-activation
        m.params["dcce.b0.l0.b"].value[:] += 0.37
        _, cache1 = m.forward(x, v)
        for key in ((0, 1), (1, 0), (1, 1)):
            assert not np.allclose(cache0["pres"][key], cache1["pres"][key])

    def test_dimension_mismatch(self):
        m = small_model()
        with pytest.raises(SchemaError):
            m.forward(np.zeros((2, 7)), np.zeros((2, 6)))

    @pytest.mark.parametrize("p", [1.0, 1.5, -0.5, float("nan")])
    def test_dropout_outside_zero_one_refused(self, p):
        with pytest.raises(ConfigError, match="dropout_p"):
            DCCEConfig(input_dim=5, dropout_p=p)

    @pytest.mark.parametrize("dcce,visual", [
        ({"n_blocks": -1}, {}), ({"layers_per_block": -1}, {}), ({"growth_k": -2}, {}),
        ({"input_dim": 0}, {}), ({}, {"patch_grid": 0}), ({}, {"proj_dim": -1}),
    ], ids=["n_blocks", "layers_per_block", "growth_k", "input_dim", "patch_grid",
            "proj_dim"])
    def test_model_refuses_configs_outside_their_bounds(self, dcce, visual):
        """A model is not built from a config CONFIG_BOUNDS refuses, where
        it used to die in forward or in a numpy constructor, or not at all."""
        key = next(iter({**dcce, **visual}))
        with pytest.raises(ConfigError, match=f"'{key}'"):
            DualStreamModel(DCCEConfig(**{"input_dim": 5, **dcce}), VisualFeatConfig(**visual))


# config class -> (its bounds table, the fields every instance needs)
_CONFIG_TABLES = {
    DCCEConfig: (CONFIG_BOUNDS, {"input_dim": 5}), VisualFeatConfig: (CONFIG_BOUNDS, {}),
    FusionConfig: (CONFIG_BOUNDS, {}), GateConfig: (GATE_BOUNDS, {}),
    TrainConfig: (TRAIN_BOUNDS, {}), CohortSpec: (DATA_BOUNDS, {}),
}
# key -> a value of its field that the key's bound refuses; a key spelled out
# as one element of a tuple field, or a dict's entry, gets the whole field
_OUT_OF_BOUND = {
    "input_dim": 0, "patch_grid": 0, "proj_dim": -1, "n_blocks": -1,
    "layers_per_block": -1, "growth_k": -2, "dropout_p": 1.0,
    "alpha_vis": -0.5, "alpha_clin": -0.5, "tau_blur": 0.0, "n_passes": 1,
    "lambda_weight": -1.0, "lr": 0.0, "wd": -1e-4, "batch_size": 0,
    "max_epochs": 0, "patience": 0, "split_train": (0.0, 0.5, 0.5),
    "split_val": (0.5, 0.0, 0.5), "split_test": (0.5, 0.5, 0.0),
    "n_patients": 0, "visits_min": (0, 8), "visits_max": (4, 0),
    "group_mix": {"Asian": -0.5, "Black": 0.75, "White": 0.75},
    "prevalence": 2.0, "label_noise": 0.5,
}
_FIELD_OF = {**dict.fromkeys(SPLIT_KEYS, "split"),
             **dict.fromkeys(VISIT_KEYS, "visits_per_patient")}


def _bounded_key_rows():
    """One row per config class and key of its bounds table that names one
    of its fields; every key of every table is some class's, but the
    trajectories' n_visits."""
    rows, seen = [], set()
    for cls, (table, needed) in _CONFIG_TABLES.items():
        names = {f.name for f in dataclasses.fields(cls)}
        for key in table:
            field = _FIELD_OF.get(key, key)
            if field in names:
                seen.add(key)
                rows.append(pytest.param(cls, needed, field, _OUT_OF_BOUND[key], key,
                                         id=f"{cls.__name__}-{key}"))
    assert seen == {*CONFIG_BOUNDS, *GATE_BOUNDS, *TRAIN_BOUNDS, *DATA_BOUNDS} - {"n_visits"}
    return rows


@pytest.mark.parametrize("cls, needed, field, value, key", _bounded_key_rows())
def test_every_config_refuses_each_bounded_key_when_built(cls, needed, field, value, key):
    """A config is checked once, when it is built, and cannot change after."""
    with pytest.raises(ConfigError, match=f"'{key}'"):
        cls(**{**needed, field: value})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cls(**needed), field, value)


@pytest.mark.parametrize("use, key", [
    (lambda: projection_matrix(VisualFeatConfig(proj_dim=-1)), "proj_dim"),
    (lambda: visual_features_batch(VisualFeatConfig(patch_grid=0), np.zeros((1, 2))),
     "patch_grid"),
    (lambda: DCCEConfig(input_dim=5, n_blocks=-1), "n_blocks"),
    (lambda: default_cohort_spec(prevalence=2.0), "prevalence"),
    (lambda: gate_decide(np.array([200.0]), np.array([0.01]),
                         GateConfig(tau_unc=float("nan"))), "tau_unc"),
], ids=["projection-negative-dim", "features-zero-grid", "negative-blocks",
        "default-spec-prevalence", "gate-nan-tau-unc"])
def test_library_paths_refuse_unchecked_configs(use, key):
    """Paths that take a config without building a model used to run on
    values nobody checked: a raw numpy error, a built config or spec, or a
    NaN tau_unc that refers every sharp visit."""
    with pytest.raises(ConfigError, match=f"'{key}'"):
        use()


class TestVisualFeatures:
    def test_deterministic(self):
        cfg = VisualFeatConfig(patch_grid=4, proj_dim=32, proj_seed=5)
        raster = Rng(5, "r").uniform((64, 64))
        assert np.array_equal(features_of_one(cfg, raster),
                              features_of_one(cfg, raster))

    def test_constant_raster_uses_mean_channel_only(self):
        cfg = VisualFeatConfig(patch_grid=4, proj_dim=32, proj_seed=5)
        proj = projection_matrix(cfg)
        f1 = features_of_one(cfg, np.full((32, 32), 0.2))
        f2 = features_of_one(cfg, np.full((32, 32), 0.8))
        n_patches = 16
        means1 = np.full(n_patches, 0.2)
        means2 = np.full(n_patches, 0.8)
        assert np.allclose(f1, np.tanh(
            np.concatenate([means1, np.zeros(n_patches)]) @ proj))
        assert not np.allclose(f1, f2)

    def test_sensitive_to_cup_radius(self):
        from oculogate.data import generate_image

        cfg = VisualFeatConfig()
        a = features_of_one(cfg, generate_image(0.0, 9))
        b = features_of_one(cfg, generate_image(0.8, 9))
        assert np.linalg.norm(a - b) > 0.0

    def test_raster_smaller_than_grid_rejected(self):
        cfg = VisualFeatConfig(patch_grid=8, proj_dim=16, proj_seed=1)
        with pytest.raises(ConfigError):
            features_of_one(cfg, np.zeros((4, 4)))

    def test_lipschitz_bound_via_projection_norm(self):
        cfg = VisualFeatConfig(patch_grid=4, proj_dim=64, proj_seed=2)
        proj = projection_matrix(cfg)
        op_norm = np.linalg.svd(proj, compute_uv=False)[0]
        rng = Rng(6, "lip")
        for _ in range(10):
            a = rng.uniform((32, 32))
            b = np.clip(a + rng.normal((32, 32)) * 0.05, 0, 1)
            fa = features_of_one(cfg, a)
            fb = features_of_one(cfg, b)
            assert np.linalg.norm(fa - fb) <= op_norm * np.linalg.norm(a - b) + 1e-12


def reference_patch_stats(rasters, grid):
    """Per-patch mean then std as numpy's reductions over the tile axes."""
    n, h, w = rasters.shape
    tiles = rasters.reshape(n, grid, h // grid, grid, w // grid)
    return np.concatenate([tiles.mean(axis=(2, 4)).reshape(n, -1),
                           tiles.std(axis=(2, 4)).reshape(n, -1)], axis=1)


class TestPatchStats:
    @given(st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
           st.sampled_from([1, 31, 32, 33, 65]),
           st.sampled_from(["noise", None, "hflip", "vflip", "brightness+0.2",
                            "contrast-0.2"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_equals_numpy_reduction_bitwise(self, grid, n, tta, seed):
        """Generated rasters, raw or TTA'd as the gate buffers them, and
        uniform noise."""
        from oculogate.data import generate_images
        from oculogate.gate import apply_tta

        rng = Rng(seed, "patch-stats")
        if tta == "noise":
            rasters = rng.uniform((n, 64, 64))
        else:
            rasters = generate_images(rng.uniform(n), rng.fill_u64(n))
            if tta is not None:
                rasters = apply_tta(tta, rasters, np.empty(rasters.shape))
        got = patch_stats(rasters, grid)
        assert got.shape == (n, 2 * grid * grid)
        assert got.tobytes() == reference_patch_stats(rasters, grid).tobytes()

    # every (side, grid) with grid dividing side: patch rows of fewer than 8
    # values (one running sum), of 8 to 128 with and without a tail past the
    # last multiple of 8, and above 128 (264 / 2 = 132: split in two halves)
    @given(st.sampled_from([(side, grid) for side in (24, 40, 48, 96, 264)
                            for grid in range(1, side + 1) if side % grid == 0]),
           st.sampled_from([1, 32, 33]),
           st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_other_raster_sides_equal_numpy_reduction_bitwise(self, side_grid, n,
                                                              quantized, seed):
        """Uniform noise, raw or quantized to 8-bit levels as PGM rasters
        are, on square rasters other than 64x64."""
        side, grid = side_grid
        rasters = Rng(seed, "patch-stats-sides").uniform((n, side, side))
        if quantized:
            rasters = np.round(rasters * 255.0) / 255.0
        got = patch_stats(rasters, grid)
        assert got.shape == (n, 2 * grid * grid)
        assert got.tobytes() == reference_patch_stats(rasters, grid).tobytes()


class TestProjection:
    def test_read_only_and_equal_to_a_fresh_draw(self):
        cfg = VisualFeatConfig(patch_grid=4, proj_dim=48, proj_seed=19)
        proj = projection_matrix(cfg)
        assert not proj.flags.writeable
        with pytest.raises(ValueError):
            proj[0, 0] = 1.0
        fresh = Rng(19, "visual-projection").normal((32, 48)) * (1.0 / np.sqrt(32))
        assert proj.tobytes() == fresh.tobytes()
        assert projection_matrix(VisualFeatConfig(patch_grid=4, proj_dim=48,
                                                  proj_seed=19)) is proj


class TestMasksFromWords:
    @given(st.one_of(st.sampled_from([0.3, 0.5, 2**-53, 5 / 2**53,
                                      (2**53 - 1) / 2**53]),
                     st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_word_rule_equals_float_rule_bitwise(self, p, seed):
        m = small_model()
        width = sum(w for _, w in m.mask_segments())
        words = Rng(seed, "mask-words").fill_u64(4 * width).reshape(4, width)
        # words at the cut, one below and one above it, and the extremes
        cut = int(np.ceil(p * 2.0**53)) << 11
        words[0, :5] = [cut - 1, cut, cut + 1, 0, 2**64 - 1]
        keep, got = m.masks_from_uniform(words, p)
        want = float_rule_masks(m, _unit(words), p)
        assert keep.dtype == bool
        assert np.array_equal(keep, want.pop("vis") > 0)
        assert keep[0, :5].tolist() == [False, True, True, False, True]
        assert list(got) == list(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


DROPOUT_RATES = st.one_of(
    st.sampled_from([0.3, 0.5, 0.9, 2**-53, 5 / 2**53, (2**53 - 1) / 2**53]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
FEATURES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
                     st.floats(-1e6, 1e6))


class TestDropoutRule:
    """dropout scales x once, then writes each block as x's block under its
    keep bits: the bytes of the float mask rule x[rows] * ((u >= p) / (1 - p))
    over the blocks' rows, a dropped unit's zero sign included."""

    @given(DROPOUT_RATES, st.lists(FEATURES, min_size=12, max_size=12),
           st.lists(st.integers(0, 3), min_size=1, max_size=9),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_float_mask_rule_bitwise(self, p, values, rows, seed):
        x = np.array(values).reshape(4, 3)
        words = Rng(seed, "dropout-words").fill_u64(len(rows) * 3) \
            .reshape(len(rows), 3)
        cut = int(np.ceil(p * 2.0**53)) << 11
        words[0] = [cut - 1, cut, cut + 1]
        want = x[rows] * ((_unit(words) >= p) / (1.0 - p))
        got = dropout(x, keep_bits(words, p), p, rows)   # blocks of one row
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_without_blocks_x_is_dropped_in_place(self):
        x = np.tanh(Rng(3, "dropout-x").normal((5, 4)))
        keep = keep_bits(Rng(3, "dropout-keep").fill_u64(20).reshape(5, 4), 0.3)
        want = x * (keep / (1.0 - 0.3))
        got = dropout(x, keep, 0.3)
        assert got is x and got.tobytes() == want.tobytes()

    def test_a_dropped_negative_is_a_negative_zero(self):
        got = dropout(np.array([[-0.5, 0.5, -0.0]]),
                      np.zeros((1, 3), dtype=bool), 0.3)
        assert np.signbit(got).tolist() == [[True, False, True]]
        assert not got.any()

    @pytest.mark.parametrize("n, passes", [(1, 1), (3, 4), (5, 15)])
    def test_diagnose_of_dropped_features_equals_the_float_masks(self, n, passes):
        """The form of the gate and of training (features dropped before
        diagnose, masks of the hidden sites only) gives the outputs of the
        float masks bit for bit."""
        m = small_model(dropout_p=0.3)
        rng = Rng(29, "dropout-diagnose")
        x = rng.normal((n, 5))
        v = np.tanh(rng.normal((2 * n, 6)))
        blocks = np.arange(passes) % 2   # pass i reads transform i mod 2
        rows = (blocks[:, None] * n + np.arange(n)).ravel()
        width = sum(w for _, w in m.diagnostic_segments())
        words = rng.fill_u64(passes * n * width).reshape(passes * n, width)
        x_all = np.tile(x, (passes, 1))
        float_masks = float_rule_masks(m, _unit(words), 0.3)
        want, _ = m.diagnose(x_all, v[rows] * float_masks.pop("vis"), float_masks)
        keep, masks = m.masks_from_uniform(words, 0.3)
        got, _ = m.diagnose(x_all, dropout(v, keep, 0.3, blocks), masks)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key


class TestFeatureMatrices:
    @pytest.mark.parametrize("n", [1, 31, 33, 511, 512, 513, 1025])
    def test_equals_reads_of_512_rasters(self, small_pipeline, small_cohort, n):
        tp = small_pipeline
        table = small_cohort.subset(range(n))
        x, s = feature_matrices(table, tp.stats, tp.model)
        x_ref, s_ref = reference_feature_matrices(table, tp.stats, tp.model)
        assert x.tobytes() == x_ref.tobytes()
        assert s.tobytes() == s_ref.tobytes()

    def test_peak_memory_beyond_the_output_is_bounded(self, small_pipeline,
                                                      small_cohort):
        """Scoring holds reads of 32 rasters, the table's patch statistics
        (1 KB per visit) and one predict block's features: a few MB beyond
        the clinical and statistics matrices and the outputs, where the
        table's features alone are 16 MB and one read of 512 rasters too."""
        from oculogate.pipeline import deterministic_scores

        tp = small_pipeline
        table = small_cohort.subset(range(1025))
        x, s = feature_matrices(table, tp.stats, tp.model)
        out = deterministic_scores(tp, table)
        peak = traced_peak(deterministic_scores, tp, table)
        held = x.nbytes + s.nbytes + sum(a.nbytes for a in out.values())
        assert peak - held < 8 * 2**20, peak


    def test_rows_are_batch_invariant(self):
        """Each row of visual_features_batch equals the per-row oracle, the
        row projected beside a copy of itself, bit for bit: in shuffled
        gathers of 1 to 64 and of 512 rows, and in whole tables of 513 to
        4,097 rows. So a row's features do not depend on its batch."""
        cfg = VisualFeatConfig()
        rng = Rng(16, "batch-invariance")
        stats = rng.uniform((4097, 2 * cfg.patch_grid ** 2))
        want = projected_rows(cfg, stats)
        for n in (513, 1025, 1816, 4097):
            assert visual_features_batch(cfg, stats[:n]).tobytes() == \
                want[:n].tobytes(), n
        for n in [*range(1, 65), 512]:
            rows = rng.permutation(len(stats))[:n]
            assert visual_features_batch(cfg, stats[rows]).tobytes() == \
                want[rows].tobytes(), n

    def test_projection_rows_equal_the_block_product_bitwise(self):
        """Every row of a product of 2 to 64 (and 512) gathered rows of a
        512-row block of statistics equals that row of the block's own
        product bit for bit; visual_features_batch's one rule rests on it.
        A one-row product goes through gemv and rounds apart, so it is
        excluded. This is a property of the BLAS build: on OpenBLAS 0.3.31
        (SkylakeX dgemm kernel, one and two threads) it holds for every row
        count from 2 to 512."""
        proj = projection_matrix(VisualFeatConfig())
        rng = Rng(17, "block-stats")
        for trial in range(3):
            stats = rng.uniform((512, proj.shape[0]))
            block = stats @ proj
            for n in [*range(2, 65), 512]:
                rows = rng.permutation(512)[:n]
                assert (stats[rows] @ proj).tobytes() == block[rows].tobytes(), n


class TestFusion:
    def test_reference_arithmetic(self):
        # sigma(lv) = 0.9, sigma(lc) = 0.5
        lv = float(np.log(0.9 / 0.1))
        assert fuse(FusionConfig(0.6, 0.4), lv, 0.0) == pytest.approx(0.74, abs=1e-12)

    def test_both_zero_logits(self):
        assert fuse(FusionConfig(0.6, 0.4), 0.0, 0.0) == 0.5

    def test_degenerate_weight_passthrough(self):
        lv = 1.234
        assert fuse(FusionConfig(1.0, 0.0), lv, -50.0) == sigmoid(lv)

    def test_monotone_in_each_logit(self):
        cfg = FusionConfig()
        base = fuse(cfg, 0.3, -0.2)
        assert fuse(cfg, 0.8, -0.2) > base
        assert fuse(cfg, 0.3, 0.5) > base

    def test_invalid_weights_rejected(self):
        with pytest.raises(ConfigError):
            fuse(FusionConfig(0.7, 0.4), 0.0, 0.0)
        with pytest.raises(ConfigError):
            fuse(FusionConfig(1.2, -0.2), 0.0, 0.0)

    @pytest.mark.parametrize("weights", [(float("nan"), 0.4), (0.6, float("nan")),
                                         (float("inf"), 0.0), (float("-inf"), float("inf"))])
    def test_non_finite_weights_rejected(self, weights):
        """NaN compares false against every bound, so it needs its own check."""
        with pytest.raises(ConfigError, match="finite"):
            FusionConfig(*weights)


class TestHeads:
    def test_zero_head_weights_give_half_probability(self):
        m = small_model()
        for name in ("vis_head.W", "vis_head.b", "clin_head.W", "clin_head.b",
                     "reg.W2", "reg.b2"):
            m.params[name].value[...] = 0.0
        x = Rng(7, "x").normal((3, 5))
        v = Rng(7, "v").normal((3, 6))
        out, _ = m.forward(x, v)
        assert np.all(out["logit_vis"] == 0.0)
        assert np.all(out["logit_clin"] == 0.0)
        assert np.all(out["md_hat"] == 0.0)
        assert np.all(out["slope_hat"] == 0.0)
        arrs = predict_arrays(m, FusionConfig(), x, Rng(7, "s").uniform((3, 8)))
        assert np.all(arrs["p_final"] == 0.5)

    def test_regression_hidden_dims(self):
        m = small_model()
        assert m.params["reg.W0"].value.shape[1] == 256
        assert m.params["reg.W1"].value.shape == (256, 128)
        assert m.params["reg.W2"].value.shape == (128, 2)


class TestGradients:
    @staticmethod
    def _loss_fn(m, cfg, x, v, y, md_t, sl_t, labeled):
        def model():
            out, cache = m.forward(x, v, None)
            l_scr, l_prog, d_scr, d_prog = multitask_loss(out, y, md_t, sl_t,
                                                          labeled, cfg)
            lam = cfg.lambda_weight
            m.set_grads(cache, **d_scr, **{k: lam * d for k, d in d_prog.items()})
            return l_scr + lam * l_prog

        return model

    @pytest.mark.parametrize("include_md", [True, False])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
    def test_multitask_loss_gradcheck(self, lam, include_md):
        m = small_model()
        rng = Rng(10, f"probe{lam}")
        x = rng.normal((4, 5))
        v = rng.normal((4, 6)) * 0.5
        y = np.array([1.0, 0.0, 1.0, 0.0])
        md_t = rng.normal(4) * 2
        sl_t = rng.normal(4) * 0.5
        labeled = np.array([True, True, False, True])
        cfg = TrainConfig(lambda_weight=lam, include_md_in_regression=include_md)
        fn = self._loss_fn(m, cfg, x, v, y, md_t, sl_t, labeled)
        assert grad_check(fn, m.params, max_per_entry=24) <= 1e-4

    def test_missing_md_target_has_zero_loss_and_gradient(self):
        """A slope-labeled row whose MD is missing (NaN) adds no MD loss or
        gradient: the objective equals that of the row's own md_hat as its
        target, and the gradients still pass the gradient check."""
        m = small_model()
        rng = Rng(12, "missing-md")
        x = rng.normal((4, 5))
        v = rng.normal((4, 6)) * 0.5
        y = np.array([1.0, 0.0, 1.0, 0.0])
        md_t = rng.normal(4) * 2
        md_t[[1, 2]] = np.nan
        sl_t = rng.normal(4) * 0.5
        labeled = np.array([True, True, True, False])
        cfg = TrainConfig(lambda_weight=1.0)
        out, _ = m.forward(x, v, None)
        got = multitask_loss(out, y, md_t, sl_t, labeled, cfg)
        own = np.where(np.isnan(md_t), out["md_hat"], md_t)
        want = multitask_loss(out, y, own, sl_t, labeled, cfg)
        assert np.isfinite(got[1]) and got[1] == want[1]
        assert got[3]["d_md"].tobytes() == want[3]["d_md"].tobytes()
        assert np.all(got[3]["d_md"][[1, 2]] == 0.0)
        fn = self._loss_fn(m, cfg, x, v, y, md_t, sl_t, labeled)
        assert grad_check(fn, m.params, max_per_entry=24) <= 1e-4

    def test_lambda_zero_kills_regression_gradients(self):
        m = small_model()
        rng = Rng(11, "l0")
        x = rng.normal((4, 5))
        v = rng.normal((4, 6))
        y = np.array([1.0, 0.0, 1.0, 0.0])
        out, cache = m.forward(x, v, None)
        d_lv = 0.5 * (sigmoid(out["logit_vis"]) - y) / 4
        m.set_grads(cache, d_logit_vis=d_lv, d_logit_clin=d_lv)
        for name in ("reg.W0", "reg.b0", "reg.W1", "reg.b1", "reg.W2", "reg.b2"):
            assert not m.params[name].grad.any(), name

    def test_set_grads_zeroes_parameters_the_loss_missed(self):
        m = small_model()
        rng = Rng(12, "stale")
        x = rng.normal((4, 5))
        v = rng.normal((4, 6))
        out, cache = m.forward(x, v, None)
        ones = np.ones(4)
        m.set_grads(cache, d_logit_vis=ones, d_logit_clin=ones,
                    d_md=ones, d_slope=ones)
        assert np.abs(m.params["reg.W0"].grad).sum() > 0
        m.set_grads(cache, d_logit_vis=ones, d_logit_clin=ones)
        for name in ("reg.W0", "reg.b0", "reg.W1", "reg.b1", "reg.W2", "reg.b2"):
            assert not m.params[name].grad.any(), name
        assert m.params["vis_head.W"].grad.any()


    @pytest.mark.parametrize("case", ["both-terms", "lambda-0", "no-slope-label"])
    def test_diagnostic_backwards_leave_the_step_unchanged(self, case):
        """The every-8th-batch diagnostic of train_multitask runs a plain
        backward per loss term before the step. The step's own set_grads
        overwrites every branch those write, so the store after the step has
        the bytes of a step without them; without a progression term the
        regression grads still end at zero."""
        lam = 0.0 if case == "lambda-0" else 1.0
        labeled = np.array([case != "no-slope-label"] * 4 + [False] * 2)
        cfg = TrainConfig(lambda_weight=lam)
        stores = []
        for diagnostic in (False, True):
            m = small_model(dropout_p=0.3)
            rng = Rng(13, "diagnostic")
            x = rng.normal((6, 5))
            v = np.tanh(rng.normal((6, 6)))
            width = sum(w for _, w in m.mask_segments())
            keep, masks = m.masks_from_uniform(
                rng.fill_u64(6 * width).reshape(6, width), 0.3)
            out, cache = m.forward(x, dropout(v, keep, 0.3), masks)
            _, _, d_scr, d_prog = multitask_loss(
                out, np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0]), rng.normal(6),
                rng.normal(6), labeled, cfg)
            assert bool(d_prog) == (case == "both-terms")
            m.params.grad[...] = 1.0   # the previous step's gradients
            if diagnostic:
                m.backward(cache, **d_scr)
                if d_prog:
                    m.backward(cache, **d_prog)
            m.set_grads(cache, **d_scr, **{k: lam * d for k, d in d_prog.items()})
            adamw_step(m.params, lr=1e-3, wd=1e-4)
            stores.append(m.params)
        without, after_diagnostic = stores
        for vector in ("value", "grad", "m1", "m2"):
            assert getattr(after_diagnostic, vector).tobytes() == \
                getattr(without, vector).tobytes(), vector
        for name, p in after_diagnostic.entries.items():
            assert p.grad.any() == (case == "both-terms" or
                                    not name.startswith("reg.")), name


_UPSTREAMS = {"all": ("d_logit_vis", "d_logit_clin", "d_md", "d_slope"),
              "clin": ("d_logit_clin",), "reg": ("d_md", "d_slope")}


@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 40), st.integers(1, 8),
       st.sampled_from([1, 2, 3, 7, 8, 9, 33, 64, 70]), st.booleans(),
       st.sampled_from(sorted(_UPSTREAMS)), st.integers(0, 2**32))
@settings(max_examples=120, deadline=None)
def test_one_buffer_trunk_equals_concatenation(n_blocks, layers, k, input_dim, rows,
                                                masked, upstream, seed):
    """The trunk written into one embedding buffer, and its backward adding
    into prefixes of one gradient, give the outputs and every gradient of
    the per-layer concatenation and its segment-wise backward, bit for bit."""
    dcce = DCCEConfig(input_dim=input_dim, n_blocks=n_blocks,
                      layers_per_block=layers, growth_k=k)
    vis = VisualFeatConfig(patch_grid=2, proj_dim=6, proj_seed=11)
    model = DualStreamModel(dcce, vis, init_rng=Rng(seed, "trunk-model"))
    ref = ConcatTrunkModel(dcce, vis)
    ref.params.value[...] = model.params.value
    rng = Rng(seed, "trunk-data")
    x, v = rng.normal((rows, input_dim)), rng.normal((rows, 6))
    masks = None
    if masked:
        width = sum(w for _, w in model.mask_segments())
        masks = model.masks_from_uniform(rng.fill_u64(rows * width).reshape(rows, width),
                                         0.3)[1]
    up = {name: rng.normal(rows) for name in _UPSTREAMS[upstream]}
    got, cache = model.forward(x, v, masks)
    want, ref_cache = ref.forward(x, v, masks)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    model.set_grads(cache, **up)
    ref.set_grads(ref_cache, **up)
    for name, param in ref.params.entries.items():
        assert model.params[name].grad.tobytes() == param.grad.tobytes(), name


_ENSEMBLE_CASES = {
    "ensemble-mc": GateConfig(),
    "ensemble-no-mc": GateConfig(dropout_p=0.0),
    "ensemble-identity": GateConfig(dropout_p=0.0, tta_set=("identity",)),
}


@pytest.mark.parametrize("case", ["predict", "predict-no-regression", *_ENSEMBLE_CASES])
def test_outputs_are_row_invariant(small_pipeline, case):
    """Every row of the model's outputs has the whole table's bytes in a
    shuffled gather of each row count from 1 to 65: predict_arrays with and
    without the regression head, and the gate's ensemble_passes with and
    without MC dropout. With one transform and no dropout a lone visit is
    one diagnose row. test_blas_guards_hold_at_one_and_two_threads reruns
    it at one and two BLAS threads."""
    tp = small_pipeline
    table = tp.split.test.subset(range(65))
    if case.startswith("predict"):
        x, s = feature_matrices(table, tp.stats, tp.model)

        def outputs(rows):
            return predict_arrays(tp.model, tp.fusion, x[rows], s[rows],
                                  regression=case == "predict")
    else:
        x = apply_preprocess_table(tp.stats, table)
        rasters, ids = table.raster_stack(range(65)), table.sample_ids()

        def outputs(rows):
            return {"p_passes": ensemble_passes(tp.model, tp.fusion, x[rows], rasters[rows],
                                                [ids[i] for i in rows], _ENSEMBLE_CASES[case], 17)}
    whole = outputs(np.arange(65))
    rng = Rng(41, "row-invariance")
    for n in range(1, 66):
        rows = rng.permutation(65)[:n]
        got = outputs(rows)
        for key, value in whole.items():
            assert got[key].tobytes() == value[rows].tobytes(), (n, key)


# the bitwise checks that hold at one and at two BLAS threads
_BLAS_GUARDS = [
    "tests/test_model.py::test_blas_pool_has_the_requested_threads",
    "tests/test_model.py::TestFeatureMatrices::test_rows_are_batch_invariant",
    "tests/test_model.py::TestFeatureMatrices::test_projection_rows_equal_the_block_product_bitwise",
    "tests/test_model.py::test_outputs_are_row_invariant",
    "tests/test_model.py::TestPredict::test_scoring_bytes_are_pinned",
    "tests/test_gate.py::test_gate_audit_bytes_are_pinned",
    "tests/test_gate.py::test_ensemble_bytes_at_the_buffer_edges_are_pinned",
    "tests/test_train.py::test_training_bytes_are_pinned",
    "tests/test_train.py::test_training_bytes_without_a_term_are_pinned",
    "tests/test_train.py::test_training_bytes_at_a_lone_row_are_pinned",
    "tests/test_train.py::test_training_bytes_above_32_rows_are_pinned",
]


def test_blas_pool_has_the_requested_threads():
    """tests/conftest.py sizes the BLAS pool from OCULOGATE_TEST_BLAS_THREADS,
    and the pool numpy loaded has that many threads."""
    threads = blas_pool_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS to ask")
    assert threads == int(os.environ["OCULOGATE_TEST_BLAS_THREADS"])


def test_blas_guards_hold_at_one_and_two_threads():
    """The bitwise BLAS guards hold with one BLAS thread, as the benchmark
    runs, and with two. OpenBLAS reads its thread count when it loads, so
    each count runs the guards in a fresh interpreter; the two run at once.
    Each run first checks that its pool has the count it asked for, and no
    guard may skip."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join([os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")])
    runs = {threads: subprocess.Popen(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 *_BLAS_GUARDS], cwd=root, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True,
                env=dict(os.environ, OCULOGATE_TEST_BLAS_THREADS=threads,
                         PYTHONPATH=path))
            for threads in ("1", "2")}
    for threads, proc in runs.items():
        out, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0, f"{threads} BLAS threads\n{out[-3000:]}"
        assert "skipped" not in out, out


class TestPredict:
    def test_eq1_identity_and_severity(self, small_pipeline):
        from oculogate.metrics import grade_md, moderate_severe_fraction
        from oculogate.pipeline import deterministic_scores

        tp = small_pipeline
        table = tp.split.test
        batch = deterministic_scores(tp, table)
        for i in (0, 1, 2):
            one = deterministic_scores(tp, table.subset([i]))
            assert set(one) == set(batch)
            for key, value in one.items():
                assert value.shape == (1,)
                assert value.tobytes() == batch[key][i : i + 1].tobytes(), key
            want = (tp.fusion.alpha_vis * one["p_vis"][0]
                    + tp.fusion.alpha_clin * one["p_clin"][0])
            assert abs(one["p_final"][0] - want) <= 1e-12
            mts = moderate_severe_fraction(one["md_hat"][:, None])[0]
            assert mts == float(grade_md(one["md_hat"][0]) in ("moderate",
                                                                "advanced"))

    def test_deterministic_pass(self, small_pipeline):
        from oculogate.pipeline import deterministic_scores

        tp = small_pipeline
        one = tp.split.test.subset([0])
        a = deterministic_scores(tp, one)
        b = deterministic_scores(tp, one)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_probabilities_only_pass_gives_the_same_bytes(self, small_pipeline):
        from oculogate.pipeline import deterministic_scores

        tp = small_pipeline
        full = deterministic_scores(tp, tp.split.val)
        probs = deterministic_scores(tp, tp.split.val, regression=False)
        assert set(probs) == {"p_vis", "p_clin", "p_final"}
        for key, value in probs.items():
            assert value.tobytes() == full[key].tobytes(), key

    def test_zero_rows_give_an_empty_array_per_key(self, small_pipeline):
        from oculogate.pipeline import deterministic_scores

        empty = small_pipeline.split.test.subset([])
        for regression, n_keys in ((True, 5), (False, 3)):
            arrs = deterministic_scores(small_pipeline, empty, regression)
            assert len(arrs) == n_keys, regression
            assert all(value.shape == (0,) for value in arrs.values()), regression

    def test_warning_report_scores_as_per_trajectory_calls(self, small_pipeline):
        """The trajectories scored as one table give each trajectory's
        warning record the bytes of scoring it alone."""
        from oculogate.data import generate_trajectory
        from oculogate.metrics import dynamic_warning
        from oculogate.pipeline import deterministic_scores, warning_report

        tp = small_pipeline
        seeds = [5, 6, 7, 8]
        report = warning_report(tp, seeds, n_visits=8)
        for kind, records in report["per_kind"].items():
            assert [r["seed"] for r in records] == seeds
            for seed, record in zip(seeds, records):
                traj = generate_trajectory(kind, 8, seed)
                risk = deterministic_scores(tp, traj.table)["p_final"]
                w = dynamic_warning(traj.table.visit_time, risk, traj.onset_time)
                assert record["fired"] == w.fired
                assert record["first_warning_index"] == w.first_warning_index
                for key in ("delta_risk", "peak_risk"):
                    assert record[key] == getattr(w, key), (kind, seed, key)
                assert record["mean_risk"] == float(np.mean(risk))

    # sha256 of each array deterministic_scores returns on small_pipeline's
    # 274-visit test split; without regression it returns the p_* arrays
    _SCORING_DIGESTS = {
        "p_vis": "2963a289a710819e8137b82a41cc5d91876b1ae78f96000ca351030dee626381",
        "p_clin": "af4e52270d77507fbd4c7d26501224f375cf0fac2a2828e176aa44648cceab8b",
        "p_final": "423047d709313ed410fc13ecd3d3f3361ded4b35514e01fd9e9f811ac762ec02",
        "md_hat": "31addf10bb94d1e063a85f1e00d40d3e0d7906744c045161a97b240eac361905",
        "slope_hat": "29ea7610558de3858878be502a75892ff548898666c94afbcda7ffc2530117e8",
    }
    # sha256 of warning_report(tp, range(5)) as sorted-key JSON
    _WARNING_DIGEST = "aec48b7986cf6b7159209ca7a5510b6c6ad083053645f44f5b8be4a7b5b8526e"

    def test_scoring_bytes_are_pinned(self, small_pipeline):
        """Scoring a table and the warning report keep their recorded bytes,
        at one and two BLAS threads."""
        from oculogate.pipeline import deterministic_scores, warning_report

        tp = small_pipeline
        for regression in (True, False):
            arrs = deterministic_scores(tp, tp.split.test, regression)
            want = {key: digest for key, digest in self._SCORING_DIGESTS.items()
                    if regression or key.startswith("p_")}
            assert {key: hashlib.sha256(value.tobytes()).hexdigest()
                    for key, value in arrs.items()} == want, regression
        report = json.dumps(warning_report(tp, range(5)), sort_keys=True)
        assert hashlib.sha256(report.encode()).hexdigest() == self._WARNING_DIGEST


class TestInit:
    # sha256 of every parameter as float64 LE in layout order, for
    # (config, init label, init seed); the digests pin the init draws
    @pytest.mark.parametrize("dcce,vis,label,seed,digest", [
        (DCCEConfig(input_dim=5, growth_k=4),
         VisualFeatConfig(patch_grid=2, proj_dim=6, proj_seed=11), "test-model", 3,
         "3bb9dbaedf2f6733952a397cba6cd140449648d7af620143b11eb75cf8c75486"),
        (DCCEConfig(input_dim=9), VisualFeatConfig(), "model-init", 7,
         "780d3a9acc23f03b13984ea7367bda063a1a42db94cceeccd37007c67aeac87b"),
    ])
    def test_init_draws_are_pinned(self, dcce, vis, label, seed, digest):
        m = DualStreamModel(dcce, vis, init_rng=Rng(seed, label))
        assert list(m.params.entries) == list(m.param_layout())
        assert hashlib.sha256(m.params.value.astype("<f8").tobytes()).hexdigest() \
            == digest

    def test_no_init_rng_gives_zero_parameters(self):
        m = DualStreamModel(DCCEConfig(input_dim=5, growth_k=4),
                            VisualFeatConfig(patch_grid=2, proj_dim=6))
        assert not m.params.value.any()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = small_model(seed=21)
        fusion = FusionConfig(0.7, 0.3)
        save_checkpoint(m, fusion, tmp_path / "ck", extra={"note": 1})
        m2, fusion2, extra = load_checkpoint(tmp_path / "ck")
        assert extra == {"note": 1}
        assert fusion2 == fusion
        assert list(m2.params.entries) == list(m.params.entries)
        assert np.array_equal(m.params.value, m2.params.value)
        x = Rng(1, "x").normal((2, 5))
        v = Rng(1, "v").normal((2, 6))
        a, _ = m.forward(x, v)
        b, _ = m2.forward(x, v)
        assert np.array_equal(a["md_hat"], b["md_hat"])
        assert np.array_equal(a["logit_vis"], b["logit_vis"])

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        import oculogate.model as model_module

        save_checkpoint(small_model(seed=22), FusionConfig(), tmp_path / "ck")
        labels = []

        class RecordingRng(Rng):
            def __init__(self, seed, label=""):
                labels.append(label)
                super().__init__(seed, label)

        monkeypatch.setattr(model_module, "Rng", RecordingRng)
        load_checkpoint(tmp_path / "ck")
        assert "model-init" not in labels

    def test_non_finite_value_is_refused_by_name(self, tmp_path):
        """A NaN or infinity anywhere in params.bin is a SchemaError naming
        the first parameter, in store order, that holds one."""
        m = small_model(seed=25)
        m.params["reg.W0"].value[3, 1] = np.nan
        m.params["clin_head.W"].value[2, 0] = -np.inf
        save_checkpoint(m, FusionConfig(), tmp_path / "ck")
        with pytest.raises(SchemaError, match="'clin_head.W'"):
            load_checkpoint(tmp_path / "ck")

    def test_second_save_is_refused_and_changes_nothing(self, tmp_path):
        out = tmp_path / "ck"
        save_checkpoint(small_model(seed=23), FusionConfig(), out)
        before = {f: (out / f).read_bytes() for f in os.listdir(out)}
        assert sorted(before) == ["manifest.json", "params.bin"]
        with pytest.raises(ConfigError):
            save_checkpoint(small_model(seed=24), FusionConfig(), out)
        assert {f: (out / f).read_bytes() for f in os.listdir(out)} == before
