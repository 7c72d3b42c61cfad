import hashlib
import json
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oculogate import gate as gate_module
from oculogate import numerics
from oculogate.data import (apply_preprocess_table, generate_image, generate_images,
                            inject_blur)
from oculogate.errors import ConfigError, DataError, NumericError
from oculogate.gate import (TTA_DEFAULT, GateConfig, GateDecision, GateRun,
                            _tta_stats, apply_tta, ensemble_over_table,
                            ensemble_passes, gate_decide, laplacian_variance,
                            run_gate, summarize_passes, triage_queue)
from oculogate.model import DualStreamModel, fuse, patch_stats, visual_features_batch
from oculogate.numerics import ParamStore
from oculogate.rng import Rng, Streams

from helpers import (TTA_REFERENCE, _InlinePool, _RefusingPool, float_rule_masks,
                     reference_ensemble_over_table, traced_peak, y_hat)


def naive_laplacian_variance(raster):
    a = np.asarray(raster) * 255.0
    h, w = a.shape
    vals = []
    for i in range(1, h - 1):
        for j in range(1, w - 1):
            vals.append(a[i - 1, j] + a[i + 1, j] + a[i, j - 1] + a[i, j + 1]
                        - 4 * a[i, j])
    vals = np.array(vals)
    return float(((vals - vals.mean()) ** 2).mean())


class TestLaplacianVariance:
    def test_constant_raster_zero(self):
        assert laplacian_variance(np.full((16, 16), 0.37)) == 0.0

    def test_unit_impulse_fixture(self):
        raster = np.zeros((5, 5))
        raster[2, 2] = 1.0 / 255.0  # value 1 on the 0-255 scale
        assert laplacian_variance(raster) == pytest.approx(20.0 / 9.0, abs=1e-12)

    def test_naive_convolution_oracle(self):
        rng = Rng(61, "lap")
        for trial in range(5):
            raster = rng.uniform((64, 64))
            assert laplacian_variance(raster) == pytest.approx(
                naive_laplacian_variance(raster), abs=1e-9)

    def test_small_raster_rejected(self):
        with pytest.raises(ConfigError):
            laplacian_variance(np.zeros((2, 5)))
        with pytest.raises(ConfigError):
            laplacian_variance(np.zeros((4, 5, 2)))

    @pytest.mark.parametrize("kind", ["uniform", "generated", "blurred",
                                      "17x23", "3x3"])
    def test_stack_equals_per_raster_calls_bytewise(self, kind):
        rng = Rng(67, f"lap-stack/{kind}")
        shape = {"17x23": (17, 23), "3x3": (3, 3)}.get(kind, (64, 64))
        if kind in ("generated", "blurred"):
            stack = generate_images(rng.uniform(40), rng.fill_u64(40))
            if kind == "blurred":
                stack = np.stack([inject_blur(r, 1 + i % 3)
                                  for i, r in enumerate(stack)])
        else:
            stack = rng.uniform((40, *shape))
        got = laplacian_variance(stack)
        one = [laplacian_variance(r) for r in stack]
        assert got.shape == (40,) and all(type(v) is float for v in one)
        assert got.tobytes() == np.array(one).tobytes()
        # and each one is the variance of that raster's whole response
        a = stack * 255.0
        whole = [float((-4.0 * r[1:-1, 1:-1] + r[:-2, 1:-1] + r[2:, 1:-1]
                        + r[1:-1, :-2] + r[1:-1, 2:]).var()) for r in a]
        assert np.array(one).tobytes() == np.array(whole).tobytes()


class TestQualityGate:
    """The blur firewall as run_gate applies it to a batch of one."""

    @staticmethod
    def _gate_one(tp, raster):
        one = tp.split.test.subset([0])
        one.rasters = [raster]
        return run_gate(tp.model, one, tp.stats, GateConfig(tau_unc=1.0),
                        seed=2, fusion=tp.fusion)

    def test_sharp_generator_image_passes(self, small_pipeline):
        run = self._gate_one(small_pipeline, generate_image(0.5, 99))
        assert run.lap_var[0] >= GateConfig().tau_blur
        assert run.decisions[0].kind == "accept"  # U <= 0.25 < tau_unc

    def test_blurred_image_rejected(self, small_pipeline):
        cfg = GateConfig()
        run = self._gate_one(small_pipeline, inject_blur(generate_image(0.5, 99), 4))
        assert run.decisions[0].kind == "reject_blur"
        assert run.lap_var[0] < cfg.tau_blur
        assert np.isnan(run.mu[0]) and np.isnan(run.u[0])

    def test_constant_image_rejected(self, small_pipeline):
        run = self._gate_one(small_pipeline, np.full((64, 64), 0.5))
        assert run.decisions[0].kind == "reject_blur" and run.lap_var[0] == 0.0


class TestTTA:
    def test_flips(self):
        r = Rng(1, "t").uniform((8, 8))
        assert np.array_equal(apply_tta("hflip", r, np.empty_like(r)), r[:, ::-1])
        assert np.array_equal(apply_tta("vflip", r, np.empty_like(r)), r[::-1, :])

    def test_brightness_contrast_clip(self):
        r = Rng(2, "t").uniform((8, 8))
        b = apply_tta("brightness+0.2", r, np.empty_like(r))
        assert b.min() >= 0.0 and b.max() <= 1.0
        assert np.allclose(np.clip(r + 0.2, 0, 1), b)
        c = apply_tta("contrast-0.2", r, np.empty_like(r))
        assert np.allclose(np.clip((r - 0.5) * 0.8 + 0.5, 0, 1), c)

    @pytest.mark.parametrize("name", TTA_DEFAULT)
    def test_written_into_out_equals_the_plain_expression(self, name):
        r = Rng(3, "t").uniform((4, 8, 8))
        out = np.empty_like(r)
        assert apply_tta(name, r, out) is out
        assert out.tobytes() == np.ascontiguousarray(TTA_REFERENCE[name](r)).tobytes()

    def test_default_set_has_seven(self):
        assert len(GateConfig().tta_set) == 7

    def test_unknown_transform_rejected(self):
        with pytest.raises(ConfigError):
            GateConfig(tta_set=("identity", "rot90")).validate()

    def test_empty_set_rejected_by_name(self):
        with pytest.raises(ConfigError, match="tta_set"):
            GateConfig(tta_set=()).validate()


class TestTTAStats:
    """The ensemble's patch statistics come from one buffer of 32
    transformed rasters at a time, never from the stack of all of them."""

    NAMES = ("hflip", "identity", "contrast+0.2", "vflip", "brightness-0.2")

    @pytest.mark.parametrize("n", [1, 5, 6, 7, 31, 32, 33])
    @pytest.mark.parametrize("grid", [1, 4])
    def test_equals_the_stats_of_the_whole_stack(self, n, grid):
        rasters = Rng(71, "tta-stats").uniform((n, 16, 16))
        stack = np.concatenate([TTA_REFERENCE[name](rasters) for name in self.NAMES])
        assert _tta_stats(self.NAMES, rasters, grid).tobytes() == \
            patch_stats(stack, grid).tobytes()

    @pytest.mark.parametrize("n, sizes", [(1, [5]), (6, [30]), (7, [32, 3]),
                                          (32, [32] * 5)])
    def test_patch_stats_reads_one_buffer_at_a_time(self, monkeypatch, n, sizes):
        import oculogate.gate as gate

        seen = []

        def recording(rasters, grid):
            seen.append(len(rasters))
            return patch_stats(rasters, grid)

        monkeypatch.setattr(gate, "patch_stats", recording)
        _tta_stats(self.NAMES, Rng(72, "tta-stats").uniform((n, 8, 8)), 2)
        assert seen == sizes


class TestSummarize:
    def test_degenerate_all_equal(self):
        passes = np.full((3, 15), 0.42)
        mu, u = summarize_passes(passes)
        assert np.all(mu == pytest.approx(0.42, abs=1e-15))
        assert np.all(u == 0.0)

    def test_bernoulli_fixture(self):
        passes = np.array([[0.0] * 8 + [1.0] * 7])
        mu, u = summarize_passes(passes)
        assert mu[0] == pytest.approx(7 / 15, abs=1e-15)
        assert u[0] == pytest.approx(56 / 225, abs=1e-12)

    def test_two_pass_oracle(self):
        rng = Rng(63, "sum")
        passes = rng.uniform((50, 15))
        mu, u = summarize_passes(passes)
        mu2 = passes.mean(axis=1)
        u2 = ((passes - mu2[:, None]) ** 2).mean(axis=1)
        assert np.abs(mu - mu2).max() <= 1e-12
        assert np.abs(u - u2).max() <= 1e-12

    @given(st.integers(2, 40), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_streaming_equals_definitional(self, n_passes, seed):
        passes = Rng(seed, "hy").uniform((4, n_passes))
        mu, u = summarize_passes(passes)
        mu2 = passes.mean(axis=1)
        u2 = ((passes - mu2[:, None]) ** 2).mean(axis=1)
        assert np.abs(mu - mu2).max() <= 1e-12
        assert np.abs(u - u2).max() <= 1e-12
        assert np.all(u <= 0.25 + 1e-12)


def one_row_passes(tp, i, cfg, seed):
    """Ensemble passes of test visit i, run as a batch of one."""
    one = tp.split.test.subset([i])
    return ensemble_passes(tp.model, tp.fusion, apply_preprocess_table(tp.stats, one),
                           one.raster(0)[None, :, :], one.sample_ids(), cfg, seed)


class TestEnsemble:
    def test_no_dropout_identity_tta_gives_zero_u(self, small_pipeline):
        tp = small_pipeline
        cfg = GateConfig(dropout_p=0.0, tta_set=("identity",), n_passes=5)
        run = ensemble_over_table(tp.model, tp.split.test.subset([0]), tp.stats,
                                  cfg, seed=3, fusion=tp.fusion)
        assert run.u[0] == 0.0
        passes = one_row_passes(tp, 0, cfg, seed=3)
        assert np.all(passes == passes[0, 0])

    def test_deterministic_given_seed(self, small_pipeline):
        tp = small_pipeline
        cfg = GateConfig(n_passes=6)
        a = one_row_passes(tp, 1, cfg, seed=5)
        b = one_row_passes(tp, 1, cfg, seed=5)
        assert np.array_equal(a, b)
        c = one_row_passes(tp, 1, cfg, seed=6)
        assert not np.array_equal(a, c)

    def test_batched_matches_single_sample(self, small_pipeline):
        tp = small_pipeline
        cfg = GateConfig(n_passes=4)
        table = tp.split.test.subset(range(6))
        run = ensemble_over_table(tp.model, table, tp.stats, cfg, seed=11,
                                  fusion=tp.fusion)
        for i in range(6):
            one = ensemble_over_table(tp.model, table.subset([i]), tp.stats, cfg,
                                      seed=11, fusion=tp.fusion)
            assert run.mu[i : i + 1].tobytes() == one.mu.tobytes()
            assert run.u[i : i + 1].tobytes() == one.u.tobytes()

    def test_passes_bounded_and_u_bounded(self, small_pipeline):
        tp = small_pipeline
        cfg = GateConfig(n_passes=8)
        passes = one_row_passes(tp, 2, cfg, seed=7)
        run = ensemble_over_table(tp.model, tp.split.test.subset([2]), tp.stats,
                                  cfg, seed=7, fusion=tp.fusion)
        assert np.all((passes >= 0) & (passes <= 1))
        assert 0.0 <= run.u[0] <= 0.25 + 1e-12
        assert run.mu[0] == pytest.approx(passes.mean(), abs=1e-12)
        assert run.decisions == []  # only run_gate decides


def per_pass_reference(model, fusion, x_clin, rasters, sample_ids, cfg, seed):
    """The ensemble as a plain loop over passes: one Rng per (sample, pass),
    one featurisation and one forward per pass."""
    n = x_clin.shape[0]
    width = sum(w for _, w in model.mask_segments())
    p_passes = np.empty((n, cfg.n_passes))
    md_passes = np.empty((n, cfg.n_passes))
    for i in range(cfg.n_passes):
        aug = cfg.tta_set[i % len(cfg.tta_set)]
        v = visual_features_batch(model.visual, patch_stats(TTA_REFERENCE[aug](rasters),
                                                            model.visual.patch_grid))
        masks = None
        if cfg.dropout_p > 0.0:
            # the float rule on each stream's uniforms, not the word compare
            u = np.stack([Rng(seed, f"mc/{sid}/{i}").uniform(width)
                          for sid in sample_ids])
            masks = float_rule_masks(model, u, cfg.dropout_p)
            v = v * masks.pop("vis")
        out, _ = model.forward(x_clin, v, masks)
        p_passes[:, i] = fuse(fusion, out["logit_vis"], out["logit_clin"])
        md_passes[:, i] = out["md_hat"]
    return p_passes, md_passes


@pytest.fixture
def diagnose_calls(monkeypatch):
    """A list that grows by one per DualStreamModel.diagnose call. The spy
    goes on the class through monkeypatch, which restores the method after
    the test: the session's small_pipeline model must not keep it."""
    calls = []
    diagnose = DualStreamModel.diagnose

    def spy(self, *args, **kwargs):
        calls.append(1)
        return diagnose(self, *args, **kwargs)

    monkeypatch.setattr(DualStreamModel, "diagnose", spy)
    return calls


class TestEnsembleOracle:
    @pytest.mark.parametrize("tta_set", [TTA_DEFAULT, ("identity",)],
                             ids=["tta", "identity"])
    @pytest.mark.parametrize("dropout_p", [0.3, 0.0], ids=["mc", "no-mc"])
    @pytest.mark.parametrize("n_passes", [2, 4, 7, 15, 16])
    @pytest.mark.parametrize("n", [1, 5, 6])
    def test_matches_per_pass_loop(self, small_pipeline, diagnose_calls, n,
                                   n_passes, dropout_p, tta_set):
        tp = small_pipeline
        cfg = GateConfig(n_passes=n_passes, dropout_p=dropout_p, tta_set=tta_set)
        table = tp.split.test.subset(range(n))
        x = apply_preprocess_table(tp.stats, table)
        rasters = np.stack([table.raster(i) for i in range(n)])
        args = (tp.model, tp.fusion, x, rasters, table.sample_ids(), cfg, 13)
        p = ensemble_passes(*args)
        assert len(diagnose_calls) == 1
        p_ref, _ = per_pass_reference(*args)
        assert p.shape == (n, n_passes)
        assert p.tobytes() == p_ref.tobytes()
        if dropout_p == 0.0:
            for i in range(n_passes):
                j = i % len(tta_set)   # first pass with the same transform
                assert p[:, i].tobytes() == p[:, j].tobytes()

    def test_one_forward_per_batch(self, small_pipeline, diagnose_calls):
        """Each read block's sharp visits are one ensemble batch, blurred
        visits in the middle of a block included, and every visit gets the
        bytes it has when gated alone."""
        from oculogate.data import RASTER_READ

        tp = small_pipeline
        n = 2 * RASTER_READ + 5
        table = tp.split.test.subset(range(n))
        table.rasters = [table.raster(i) for i in range(n)]
        blurred = [10, 11, 12, 40, RASTER_READ + 20]
        for i in blurred:
            table.rasters[i] = inject_blur(table.rasters[i], 4)
        cfg = GateConfig(n_passes=4)
        run = ensemble_over_table(tp.model, table, tp.stats, cfg, seed=4,
                                  fusion=tp.fusion)
        sharp = run.lap_var >= cfg.tau_blur
        assert sorted(np.flatnonzero(~sharp)) == blurred
        assert len(diagnose_calls) == 3
        for i in range(n):
            one = ensemble_over_table(tp.model, table.subset([i]), tp.stats, cfg,
                                      seed=4, fusion=tp.fusion)
            assert run.mu[i : i + 1].tobytes() == one.mu.tobytes(), i
            assert run.u[i : i + 1].tobytes() == one.u.tobytes(), i


class TestEnsembleReadsOnlyDiagnostics:
    """The gate reads only the fused probability, so the ensemble runs the
    trunk and the two diagnostic heads, and draws only their dropout sites."""

    @staticmethod
    def _passes(tp, cfg):
        table = tp.split.test.subset(range(3))
        rasters = np.stack([table.raster(i) for i in range(3)])
        return ensemble_passes(tp.model, tp.fusion,
                               apply_preprocess_table(tp.stats, table), rasters,
                               table.sample_ids(), cfg, 13)

    @pytest.mark.parametrize("dropout_p", [0.3, 0.0], ids=["mc", "no-mc"])
    def test_no_regression_parameter_read(self, small_pipeline, monkeypatch,
                                          dropout_p):
        read = []
        getitem = ParamStore.__getitem__

        def recording(store, name):
            read.append(name)
            return getitem(store, name)

        monkeypatch.setattr(ParamStore, "__getitem__", recording)
        self._passes(small_pipeline, GateConfig(n_passes=4, dropout_p=dropout_p))
        assert read and not [name for name in read if name.startswith("reg.")]

    def test_draws_only_diagnostic_sites(self, small_pipeline, monkeypatch):
        import oculogate.gate as gate

        widths = []

        class Recording(Streams):
            def fill_u64(self, n, out=None):
                widths.append(n)
                return super().fill_u64(n, out)

        monkeypatch.setattr(gate, "Streams", Recording)
        tp = small_pipeline
        self._passes(tp, GateConfig(n_passes=4))
        diagnostic = sum(w for name, w in tp.model.mask_segments()
                         if name == "vis" or name.startswith("dcce."))
        assert widths == [diagnostic]


def _same_run(got, want):
    """Every GateRun field equal, the float arrays bit for bit."""
    assert got.sample_ids == want.sample_ids and got.groups == want.groups
    for name in ("lap_var", "mu", "u"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.decisions == want.decisions


def _sharp_table(tp, n):
    """The first n test visits that pass the default blur firewall."""
    lap = laplacian_variance(tp.split.test.raster_stack(range(len(tp.split.test))))
    rows = np.flatnonzero(lap >= GateConfig().tau_blur)[:n]
    assert rows.size == n
    return tp.split.test.subset(rows)


class TestDrawWorker:
    """A batch of two or more visits fills its dropout words on
    numerics.WORKER while the calling thread featurises; a lone visit draws
    on the calling thread. Which thread fills the counter-based streams
    changes no bit, and no draw outlives its ensemble_passes call."""

    @staticmethod
    def _passes(tp, table):
        rasters = table.raster_stack(range(len(table)))
        return ensemble_passes(tp.model, tp.fusion,
                               apply_preprocess_table(tp.stats, table), rasters,
                               table.sample_ids(), GateConfig(n_passes=4), 13)

    def test_lone_visit_never_submits(self, small_pipeline, monkeypatch):
        tp = small_pipeline
        table = _sharp_table(tp, 1)
        monkeypatch.setattr(numerics, "WORKER", _RefusingPool())
        run = run_gate(tp.model, table, tp.stats, GateConfig(tau_unc=0.5), 19,
                       tp.fusion)
        assert np.isfinite(run.u).all() and len(run.decisions) == 1

    def test_one_submit_per_multi_visit_batch(self, small_pipeline, monkeypatch):
        tp = small_pipeline
        table = _sharp_table(tp, 2 * 32 + 1)
        # attached rasters, so that only the draws reach the worker
        table.rasters = list(table.raster_stack(range(len(table))))
        pool = _InlinePool()
        monkeypatch.setattr(numerics, "WORKER", pool)
        # batches of 32, 32 and a lone visit
        ensemble_over_table(tp.model, table, tp.stats, GateConfig(n_passes=2), 19,
                            tp.fusion)
        assert pool.submits == 2

    @pytest.mark.parametrize("n", [2, 31, 32, 33, 65])
    def test_worker_run_equals_the_inline_run(self, small_pipeline, monkeypatch, n):
        tp = small_pipeline
        args = (tp.model, _sharp_table(tp, n), tp.stats, GateConfig(), 19, tp.fusion)
        threaded = ensemble_over_table(*args)
        monkeypatch.setattr(numerics, "WORKER", _InlinePool())
        _same_run(threaded, ensemble_over_table(*args))

    def test_batch_fills_on_the_worker_thread(self, small_pipeline, monkeypatch):
        threads = []

        class Recording(Streams):
            def fill_u64(self, n, out=None):
                threads.append(threading.get_ident())
                return super().fill_u64(n, out)

        monkeypatch.setattr(gate_module, "Streams", Recording)
        tp = small_pipeline
        self._passes(tp, _sharp_table(tp, 2))
        self._passes(tp, _sharp_table(tp, 1))
        assert threads[0] != threading.get_ident() and \
            threads[1] == threading.get_ident()

    def test_concurrent_callers_share_the_worker(self, small_pipeline):
        """Four calling threads on two cores, switching every 10 us, each
        hand their batches to the one worker; every call gets the bytes of
        a serial call."""
        tp = small_pipeline
        tables = [_sharp_table(tp, n) for n in (2, 33)]
        want = [self._passes(tp, t).tobytes() for t in tables]
        got = [[] for _ in range(4)]

        def caller(out):
            for _ in range(3):
                out.extend(self._passes(tp, t).tobytes() for t in tables)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(out,)) for out in got]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want * 3] * 4

    def test_worker_error_keeps_its_type(self, small_pipeline, monkeypatch):
        class Failing(Streams):
            def fill_u64(self, n, out=None):
                raise NumericError("fill failed")

        monkeypatch.setattr(gate_module, "Streams", Failing)
        tp = small_pipeline
        with pytest.raises(NumericError, match="fill failed"):
            self._passes(tp, _sharp_table(tp, 2))

    def test_featurisation_error_waits_for_the_draw(self, small_pipeline,
                                                    monkeypatch):
        tp = small_pipeline
        table = _sharp_table(tp, 3)
        want = self._passes(tp, table)
        filled = []

        class Slow(Streams):
            def fill_u64(self, n, out=None):
                time.sleep(0.05)
                out = super().fill_u64(n, out)
                filled.append(n)
                return out

        def failing_stats(rasters, grid):
            raise DataError("stats failed")

        monkeypatch.setattr(gate_module, "Streams", Slow)
        monkeypatch.setattr(gate_module, "patch_stats", failing_stats)
        with pytest.raises(DataError, match="stats failed"):
            self._passes(tp, table)
        assert len(filled) == 1   # the draw ended before the error surfaced
        monkeypatch.undo()
        assert self._passes(tp, table).tobytes() == want.tobytes()


class TestBlockedTableRead:
    """ensemble_over_table reads RASTER_READ rasters at a time and ensembles
    each read's sharp rows at once; its run is bit for bit the run from one
    read of every raster, batched 32 sharp rows at a time."""

    @pytest.mark.parametrize("n, blurred", [
        *((n, b) for n in (0, 1, 31, 32, 33, 95) for b in ("none", "boundaries")),
        (33, "all"), (95, "all")])
    def test_equals_the_whole_stack_run(self, small_pipeline, n, blurred):
        tp = small_pipeline
        table = tp.split.test.subset(range(n))
        if blurred != "none":
            table.rasters = [table.raster(i) for i in range(n)]
            rows = range(n) if blurred == "all" else \
                [i for i in (0, 30, 31, 32, 33, 63, 64, 94) if i < n]
            for i in rows:
                table.rasters[i] = inject_blur(table.rasters[i], 4)
        args = (tp.model, table, tp.stats, GateConfig(), 19, tp.fusion)
        run = ensemble_over_table(*args)
        _same_run(run, reference_ensemble_over_table(*args))
        if blurred == "all":
            assert np.isnan(run.u).all()

    def test_no_mc_dropout_equals_the_whole_stack_run(self, small_pipeline):
        tp = small_pipeline
        args = (tp.model, tp.split.test.subset(range(70)), tp.stats,
                GateConfig(dropout_p=0.0), 19, tp.fusion)
        _same_run(ensemble_over_table(*args), reference_ensemble_over_table(*args))

    def test_reads_at_most_one_block_at_a_time(self, small_pipeline, monkeypatch):
        from oculogate.data import RASTER_READ, CohortTable

        reads = []
        raster_stack = CohortTable.raster_stack

        def recording(table, indices, shape=None):
            reads.append(len(indices))
            return raster_stack(table, indices, shape)

        monkeypatch.setattr(CohortTable, "raster_stack", recording)
        tp = small_pipeline
        ensemble_over_table(tp.model, tp.split.test.subset(range(70)), tp.stats,
                            GateConfig(n_passes=2), 19, tp.fusion)
        assert reads == [RASTER_READ, RASTER_READ, 70 - 2 * RASTER_READ]

    def test_peak_memory_does_not_grow_with_the_table(self, small_pipeline,
                                                      small_cohort):
        """The peak is one ensemble batch's, whatever the table's size. A
        batch of 32 visits and 15 passes holds its 480-row pass-major
        feature stack (7.5 MiB of float64) and the features of its 7
        distinct transforms (3.5 MiB), and the run peaks near 15 MiB. The
        draw behind its dropout is 480 x 2,176 uint64 words, another 8 MiB:
        kept alive past masks_from_uniform, beside the stack, it lifts the
        peak to about 26 MiB, over the 20 MiB bound."""
        tp = small_pipeline
        gate = (tp.model, tp.stats, GateConfig(), 19, tp.fusion)

        def run(table):
            ensemble_over_table(gate[0], table, *gate[1:])

        run(small_cohort.subset([0]))   # warm every cache first
        small = traced_peak(run, small_cohort.subset(range(64)))
        large = traced_peak(run, small_cohort.subset(range(640)))
        assert abs(large - small) <= 0.1 * small, (small, large)
        assert large <= 20 * 2**20, large


@pytest.mark.parametrize("dropout_p, digest", [
    (0.3, "c0da33a171df000ce6525924876df9721093d1d77dec07291d40ec3917c2bf25"),
    (0.0, "7f7d13438055bbc69014f39c2a9bddb3fff40bcf36c91ca2e30bf96a7842cb4e"),
], ids=["mc", "no-mc"])
def test_gate_audit_bytes_are_pinned(small_pipeline, dropout_p, digest):
    """The audit records of 40 test visits, one of them blurred, as gate.jsonl
    writes them, keep their bytes through any rewrite of the ensemble."""
    tp = small_pipeline
    table = tp.split.test.subset(range(40))
    table.rasters = [table.raster(i) for i in range(40)]
    table.rasters[3] = inject_blur(table.rasters[3], 4)
    run = run_gate(tp.model, table, tp.stats,
                   GateConfig(tau_unc=0.005, dropout_p=dropout_p), seed=21,
                   fusion=tp.fusion)
    kinds = {d.kind for d in run.decisions}
    assert kinds == {"accept", "reject_blur", "reject_uncertain"}
    text = "\n".join(json.dumps(r, sort_keys=True)
                     for r in run.audit_records()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# extra GateConfig fields of each pinned edge case
_EDGE_CASES = {
    "tta": {},
    "repeated-name": {"tta_set": ("identity", "hflip", "identity")},
    "fewer-passes": {"n_passes": 3},
}


@pytest.mark.parametrize("case, dropout_p, digest", [
    ("tta", 0.3,
     "6dd23d3eb5ee31921dbe94eb55dcc63a292f0577bf9f6de0e6c76df6f229e6e9"),
    ("tta", 0.0,
     "e8db2ea13256e35771956ad2d63d031096a07dcf338431ad74e6caf55e29e0e1"),
    ("repeated-name", 0.3,
     "0a3a3d7cd96f5bc34859aa9524bb4ef8f0e0ddfb3cf8325923200f14c9640e44"),
    ("repeated-name", 0.0,
     "8ffabb0e96b84f581dae10d9276bd00c23cca2bf25ce86e2fafe6a080a35a7b0"),
    ("fewer-passes", 0.3,
     "a768196ecbefeb2df658b05f86c44d946c2187201f319c692910d502e0182c1f"),
    ("fewer-passes", 0.0,
     "4192d475b09fa25d41ebef3ea40ca3e8f397537c54c13c257db35fc3c345013c"),
], ids=["tta-mc", "tta-no-mc", "repeated-name-mc", "repeated-name-no-mc",
        "fewer-passes-mc", "fewer-passes-no-mc"])
def test_ensemble_bytes_at_the_buffer_edges_are_pinned(small_pipeline, case,
                                                       dropout_p, digest):
    """ensemble_passes of 1, 5, 31 and 32 sharp visits keeps its bytes: the
    transformed rasters of those batches cross the 32-raster statistics
    buffer at and between transform boundaries. A repeated transform name
    and fewer passes than transforms pin how a pass finds the features of
    its transform."""
    tp = small_pipeline
    table = tp.split.test.subset(range(40))
    rasters = table.raster_stack(range(40))
    sharp = np.flatnonzero(laplacian_variance(rasters) >= GateConfig().tau_blur)[:32]
    assert sharp.size == 32
    x, ids = apply_preprocess_table(tp.stats, table), table.sample_ids()
    cfg = GateConfig(dropout_p=dropout_p, **_EDGE_CASES[case])
    h = hashlib.sha256()
    for n in (1, 5, 31, 32):
        idx = sharp[:n]
        h.update(ensemble_passes(tp.model, tp.fusion, x[idx], rasters[idx],
                                 [ids[i] for i in idx], cfg, 29).tobytes())
    assert h.hexdigest() == digest


def _decided(mu, u, cfg, lap_var=None):
    """A GateRun of sharp visits (or of the given lap_var) with mu and u,
    decided by gate_decide."""
    mu, u = np.asarray(mu, dtype=float), np.asarray(u, dtype=float)
    lap = np.full(u.size, 200.0) if lap_var is None else np.asarray(lap_var, dtype=float)
    return GateRun(sample_ids=[f"P{i}#0" for i in range(u.size)],
                   groups=["White"] * u.size, lap_var=lap, mu=mu, u=u,
                   decisions=gate_decide(lap, u, cfg))


class TestGateDecide:
    def test_zero_u_accepts(self):
        run = _decided([0.7], [0.0], GateConfig(tau_unc=0.01))
        assert run.decisions[0].kind == "accept" and y_hat(run, 0) == 0.7

    def test_boundary_rejects(self):
        run = _decided([0.7], [0.02], GateConfig(tau_unc=0.02))
        assert run.decisions[0].kind == "reject_uncertain" and y_hat(run, 0) is None

    def test_unset_tau_rejected(self):
        with pytest.raises(ConfigError):
            gate_decide(np.array([200.0]), np.array([0.0]), GateConfig())

    def test_all_blur_run_needs_no_tau(self):
        """With every visit below tau_blur nothing is compared against
        tau_unc, so an unset one is not refused; one sharp visit is."""
        lap, u = np.array([5.0, 50.0]), np.full(2, np.nan)
        assert [d.kind for d in gate_decide(lap, u, GateConfig())] == ["reject_blur"] * 2
        with pytest.raises(ConfigError):
            gate_decide(np.array([5.0, 200.0]), np.array([np.nan, 0.1]), GateConfig())

    def test_blur_precedes_uncertainty(self):
        run = _decided([0.5, 0.5], [0.0, 0.0], GateConfig(tau_unc=0.5),
                       lap_var=[99.0, 100.0])
        assert [d.kind for d in run.decisions] == ["reject_blur", "accept"]
        assert y_hat(run, 0) is None

    def test_threshold_sweep_matches_rank(self):
        rng = Rng(65, "sweep")
        u = np.sort(np.unique(rng.uniform(40)))
        for k in range(len(u)):
            run = _decided(np.full(u.size, 0.5), u, GateConfig(tau_unc=float(u[k])))
            assert sum(d.kind == "accept" for d in run.decisions) == k

    def test_lowering_tau_never_accepts_previous_reject(self):
        us = Rng(66, "mono").uniform(30)
        mu = np.full(us.size, 0.5)
        d_hi = _decided(mu, us, GateConfig(tau_unc=0.6)).decisions
        d_lo = _decided(mu, us, GateConfig(tau_unc=0.2)).decisions
        for hi, lo in zip(d_hi, d_lo):
            if hi.kind == "reject_uncertain":
                assert lo.kind == "reject_uncertain"


class TestBlurPrecedence:
    def test_no_forward_pass_for_blur_rejects(self, small_pipeline, diagnose_calls):
        tp = small_pipeline
        table = tp.split.test.subset(range(4))
        # blur every raster so the firewall rejects them all
        table.rasters = [inject_blur(table.raster(i), 4) for i in range(4)]
        run = run_gate(tp.model, table, tp.stats, GateConfig(tau_unc=0.05),
                       seed=2, fusion=tp.fusion)
        assert all(d.kind == "reject_blur" for d in run.decisions)
        assert diagnose_calls == []

    def test_mixed_table_decision_kinds(self, small_pipeline):
        tp = small_pipeline
        table = tp.split.test.subset(range(6))
        table.rasters = [table.raster(i) for i in range(6)]
        table.rasters[2] = inject_blur(table.rasters[2], 4)
        run = run_gate(tp.model, table, tp.stats, GateConfig(tau_unc=1.0),
                       seed=2, fusion=tp.fusion)
        assert run.decisions[2].kind == "reject_blur"
        assert all(run.decisions[i].kind == "accept" for i in (0, 1, 3, 4, 5))
        assert np.isnan(run.mu[2]) and not np.isnan(run.mu[0])

    def test_audit_record_shape(self, small_pipeline):
        tp = small_pipeline
        table = tp.split.test.subset(range(3))
        run = run_gate(tp.model, table, tp.stats, GateConfig(tau_unc=0.5),
                       seed=2, fusion=tp.fusion)
        for rec in run.audit_records():
            assert set(rec) == {"sample_id", "lap_var", "mu", "u", "decision",
                                "group"}


def _gated(items):
    """A GateRun over (group, sample id, (kind, u)) triples."""
    nan = np.full(len(items), np.nan)
    return GateRun(sample_ids=[sid for _, sid, _ in items],
                   groups=[g for g, _, _ in items], lap_var=nan, mu=nan,
                   u=np.array([u for _, _, (_, u) in items]),
                   decisions=[GateDecision(kind) for _, _, (kind, _) in items])


def _uncertain(u):
    return "reject_uncertain", u


_BLUR = ("reject_blur", np.nan)


def test_coverage_report_scores_at_its_threshold():
    """At threshold 0.9 the sharp rows predict (0, 1, 0): all correct, where
    0.5 would call the first positive. The blurred row is left out."""
    from oculogate.pipeline import coverage_report

    run = GateRun(sample_ids=["a", "b", "c", "d"], groups=["White"] * 4,
                  lap_var=np.full(4, 200.0), mu=np.array([0.6, 0.95, 0.2, np.nan]),
                  u=np.array([0.1, 0.2, 0.3, np.nan]))
    labels = [0, 1, 0, 1]
    report = coverage_report(run, labels, threshold=0.9, coverages=[1.0])
    assert report == {"points": [[1.0, 1.0]], "n_gated": 3, "threshold": 0.9}
    assert coverage_report(run, labels, coverages=[1.0])["points"] == \
        [[1.0, pytest.approx(2 / 3)]]


class TestTriage:
    def test_higher_uncertainty_first(self):
        run = _gated([("White", "P1#0", _uncertain(0.1)),
                      ("White", "P2#0", _uncertain(0.2)),
                      ("White", "P3#0", ("accept", 0.0))])
        out = triage_queue(run, ["White"])
        assert out == [1, 0]  # accepts are not queued

    def test_priority_group_precedes_regardless_of_u(self):
        run = _gated([("White", "P2#0", _uncertain(0.9)),
                      ("Asian", "P3#0", _uncertain(0.5)),
                      ("Black", "P1#0", _uncertain(0.01))])
        out = triage_queue(run, ["Black", "Asian", "White"])
        assert [run.groups[i] for i in out] == ["Black", "Asian", "White"]

    def test_blur_sorts_after_uncertain_within_group(self):
        run = _gated([("White", "P1#0", _BLUR), ("White", "P2#0", _uncertain(0.001))])
        out = triage_queue(run, ["White"])
        assert run.decisions[out[0]].kind == "reject_uncertain"

    def test_permutation_invariance(self):
        rng = Rng(67, "triage")
        items = []
        for p in range(10):
            group = ["Asian", "Black", "White"][int(rng.integers(0, 3))]
            for v in range(2):  # blur rejects of one patient tie up to visit
                if rng.uniform() < 0.3:
                    d = _BLUR
                else:
                    d = _uncertain(float(rng.uniform()))
                items.append((group, f"P{p:03d}#{v}", d))

        def queued_ids(items):
            run = _gated(items)
            return [run.sample_ids[i]
                    for i in triage_queue(run, ["Black", "Asian", "White"])]

        base = queued_ids(items)
        for _ in range(5):
            assert queued_ids([items[i] for i in rng.permutation(20)]) == base

    def test_unknown_group_sorts_last(self):
        run = _gated([("Martian", "P1#0", _uncertain(0.9)),
                      ("White", "P2#0", _uncertain(0.1))])
        out = triage_queue(run, ["Black", "Asian", "White"])
        assert run.groups[out[0]] == "White"


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            GateConfig(n_passes=1).validate()
        with pytest.raises(ConfigError):
            GateConfig(dropout_p=1.0).validate()
        with pytest.raises(ConfigError):
            GateConfig(tau_blur=0.0).validate()
