"""Helpers that only the tests read: views of program outputs that no
program stage needs, and reference rules the program is compared against."""

import ctypes
import glob
import hashlib
import math
import os
import tracemalloc
from collections import defaultdict
from concurrent import futures

import numpy as np
from scipy.special import ndtri

from oculogate.data import (_LABEL_AMBIGUITY_STD, _MD_OBS_STD, _MD_PER_SEVERITY,
                            _SEVERITY_PER_Z, _STRUCTURE_STD, CohortTable, _structure,
                            apply_preprocess_table)
from oculogate.gate import GateRun, ensemble_passes, laplacian_variance, summarize_passes
from oculogate.metrics import eligibility_filter, ols_slope
from oculogate.model import (DualStreamModel, _affine_grads, _gemm, _narrow, patch_stats,
                             projection_matrix)
from oculogate.numerics import Param, relu
import oculogate.rng as rng_module
from oculogate.rng import Rng

AGE_BANDS = ((30.0, 50.0), (50.0, 70.0), (70.0, 90.0))


def blas_pool_threads() -> int | None:
    """The thread count of the OpenBLAS that numpy's wheel bundles, as the
    library reports it, or None where numpy brings no such library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


class _InlinePool:
    """An executor that runs each submitted call at once on the calling
    thread, counting the calls; it stands in for numerics.WORKER."""

    def __init__(self):
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        future = futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class _RefusingPool:
    """A stand-in for numerics.WORKER where no work may be handed over."""

    def submit(self, fn, *args):
        raise AssertionError("work that runs inline was handed to the worker")


def risk_by_age_band(risks, ages, bands=AGE_BANDS) -> dict[str, float | None]:
    """Mean predicted risk per age band [lo, hi); an empty band maps to None."""
    risks = np.asarray(risks, dtype=np.float64)
    ages = np.asarray(ages, dtype=np.float64)
    out = {}
    for lo, hi in bands:
        mask = (ages >= lo) & (ages < hi)
        out[f"{lo:g}-{hi:g}"] = float(risks[mask].mean()) if mask.any() else None
    return out


def y_hat(run, i: int) -> float | None:
    """The prediction of a gate run's visit i: its mu if accepted, else None."""
    return float(run.mu[i]) if run.decisions[i].kind == "accept" else None


def patients(table) -> dict[str, list[int]]:
    """Row indices of a table's visits, by patient id, in table order."""
    out: dict[str, list[int]] = {}
    for i, pid in enumerate(table.patient_id):
        out.setdefault(pid, []).append(i)
    return out


def float_rule_masks(model, u, p):
    """Inverted-dropout masks from uniforms as (u >= p) / (1 - p), filling
    the sites of model.mask_segments() in order, as far as u's columns go:
    the reference for the word compare of masks_from_uniform."""
    masks, offset = {}, 0
    for name, width in model.mask_segments():
        if offset + width > u.shape[1]:
            break
        masks[name] = (u[:, offset : offset + width] >= p) / (1.0 - p)
        offset += width
    return masks


def _brightness(r, delta):
    return np.clip(r + delta, 0.0, 1.0)


def _contrast(r, delta):
    return np.clip((r - 0.5) * (1.0 + delta) + 0.5, 0.0, 1.0)


# the TTA transforms as plain expressions that return a new array (or a
# view): the oracle of gate.apply_tta, which writes into a buffer
TTA_REFERENCE = {
    "identity": lambda r: r,
    "hflip": lambda r: r[..., :, ::-1],
    "vflip": lambda r: r[..., ::-1, :],
    "brightness+0.2": lambda r: _brightness(r, 0.2),
    "brightness-0.2": lambda r: _brightness(r, -0.2),
    "contrast+0.2": lambda r: _contrast(r, 0.2),
    "contrast-0.2": lambda r: _contrast(r, -0.2),
}


def traced_peak(fn, *args) -> int:
    """Peak bytes that fn(*args) holds under tracemalloc, above what was
    held when the call began."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def reference_ensemble_over_table(model, table, stats, cfg, seed, fusion):
    """The gate's table pass from one read of every raster: the blur
    firewall over the whole stack, then the sharp rows in ensemble batches
    of 32, in table order."""
    n = len(table)
    sample_ids = table.sample_ids()
    rasters = table.raster_stack(range(n))
    lap = np.empty(n)
    for start in range(0, n, 32):
        lap[start : start + 32] = laplacian_variance(rasters[start : start + 32])
    sharp = np.flatnonzero(lap >= cfg.tau_blur)
    mu = np.full(n, np.nan)
    u = np.full(n, np.nan)
    x_all = apply_preprocess_table(stats, table)
    for start in range(0, sharp.size, 32):
        idx = sharp[start : start + 32]
        mu[idx], u[idx] = summarize_passes(ensemble_passes(
            model, fusion, x_all[idx], rasters[idx], [sample_ids[i] for i in idx],
            cfg, seed))
    return GateRun(sample_ids=sample_ids, groups=list(table.race), lap_var=lap,
                   mu=mu, u=u)


def projected_rows(cfg, stats):
    """The per-row oracle of visual_features_batch: each row of the patch
    statistics projected beside a copy of itself, in a product of its own,
    so no row's bytes depend on the others."""
    proj = projection_matrix(cfg)
    v = np.empty((len(stats), cfg.proj_dim))
    for i, row in enumerate(stats):
        v[i] = np.tanh(np.stack([row, row]) @ proj)[0]
    return v


def reference_feature_matrices(table, stats, model):
    """Clinical and patch-statistics matrices from reads of 512 rasters."""
    n = len(table)
    s = np.empty((n, 2 * model.visual.patch_grid ** 2))
    for start in range(0, n, 512):
        rasters = table.raster_stack(range(start, min(start + 512, n)))
        s[start : start + len(rasters)] = patch_stats(rasters, model.visual.patch_grid)
    return apply_preprocess_table(stats, table), s


def grad_check(model_fn, store, h: float = 1e-5,
               max_per_entry: int | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    model_fn() must compute the scalar loss from the store's current values
    and write (not add) every analytic gradient into store.*.grad, as
    DualStreamModel.set_grads does, so no probe needs the store zeroed and
    the grads read are those of the first call. Relative error per
    component is |ga - gn| / max(|ga|, |gn|, 1e-8). With max_per_entry set,
    large tensors are probed at that many evenly spaced components instead
    of all of them (deterministic selection).
    """
    model_fn()
    analytic = {k: p.grad.copy() for k, p in store.entries.items()}
    worst = 0.0
    for name, p in store.entries.items():
        flat = p.value.reshape(-1)
        ga = analytic[name].reshape(-1)
        if max_per_entry is None or flat.size <= max_per_entry:
            indices = range(flat.size)
        else:
            indices = np.unique(np.linspace(0, flat.size - 1, max_per_entry,
                                            dtype=np.int64))
        for i in indices:
            orig = flat[i]
            flat[i] = orig + h
            lp = model_fn()
            flat[i] = orig - h
            lm = model_fn()
            flat[i] = orig
            gn = (lp - lm) / (2.0 * h)
            denom = max(abs(ga[i]), abs(gn), 1e-8)
            worst = max(worst, abs(ga[i] - gn) / denom)
    return worst


def table_digest(table, extra: str = "") -> str:
    """sha256 over the fields the benchmark's cohort digest hashes (sample
    ids, sex, race, and the numeric columns), then extra."""
    h = hashlib.sha256()
    h.update("\n".join(table.sample_ids() + table.sex + table.race).encode())
    for col in (table.visit_time, table.age, table.rnflt, table.iop, table.cdr,
                table.md, table.label, table.slope_target, table.img_severity,
                table.image_seed):
        h.update(np.ascontiguousarray(col).tobytes())
    h.update(extra.encode())
    return h.hexdigest()


def spy_on_streams(monkeypatch) -> dict:
    """Counters, from now on, of Rng constructions ("rng") and of sponge
    passes ("sponge": the shape of the label words of each pass)."""
    counts = {"rng": 0, "sponge": []}
    rng_init, sponge = rng_module.Rng.__init__, rng_module._sponge

    def counting_init(self, *args, **kwargs):
        counts["rng"] += 1
        rng_init(self, *args, **kwargs)

    def counting_sponge(seeds, words, lengths):
        counts["sponge"].append(words.shape)
        return sponge(seeds, words, lengths)

    monkeypatch.setattr(rng_module.Rng, "__init__", counting_init)
    monkeypatch.setattr(rng_module, "_sponge", counting_sponge)
    return counts


# ---------------------------------------------------------------------------
# reference trunk: one concatenation per layer, a segment-wise backward
# ---------------------------------------------------------------------------

class ConcatTrunkModel(DualStreamModel):
    """The dense trunk as concatenations: each layer reads a fresh
    np.concatenate of the block input and the block's earlier outputs, and
    the backward splits each block's output gradient into per-segment
    copies. Its products follow the model's rules (_gemm, _narrow forward,
    _affine_grads backward), and its regression head and every other
    method are the model's."""

    def diagnose(self, x_clin, v_feats, masks=None):
        p = self.params
        z_ins, pres = {}, {}
        block_in = x_clin
        for b in range(self.dcce.n_blocks):
            feats = [block_in]
            for l in range(self.dcce.layers_per_block):
                z_in = np.concatenate(feats, axis=1)
                pre = _gemm(z_in, p[f"dcce.b{b}.l{l}.W"].value) + p[f"dcce.b{b}.l{l}.b"].value
                h = relu(pre)
                if masks is not None:
                    h = h * masks[f"dcce.b{b}.l{l}"]
                z_ins[(b, l)] = z_in
                pres[(b, l)] = pre
                feats.append(h)
            block_in = np.concatenate(feats, axis=1)
        emb = block_in
        logit_vis = (_narrow(v_feats, p["vis_head.W"].value) + p["vis_head.b"].value)[:, 0]
        logit_clin = (_narrow(emb, p["clin_head.W"].value) + p["clin_head.b"].value)[:, 0]
        outputs = {"logit_vis": logit_vis, "logit_clin": logit_clin, "embedding": emb}
        cache = {"x": x_clin, "v": v_feats, "emb": emb, "masks": masks,
                 "z_ins": z_ins, "pres": pres}
        return outputs, cache

    def backward(self, cache, d_logit_vis=None, d_logit_clin=None, d_md=None,
                 d_slope=None):
        p = self.params
        masks = cache["masks"]
        n = cache["x"].shape[0]
        reached = []
        d_emb = None
        if d_logit_vis is not None:
            _affine_grads(np.asarray(d_logit_vis).reshape(n, 1), cache["v"],
                          p["vis_head.W"], p["vis_head.b"], dx=False)
            reached.append("vis_head.")
        if d_logit_clin is not None:
            d_emb = _affine_grads(np.asarray(d_logit_clin).reshape(n, 1), cache["emb"],
                                  p["clin_head.W"], p["clin_head.b"])
            reached.append("clin_head.")
        if d_md is not None or d_slope is not None:
            g2 = np.zeros((n, 2))
            if d_md is not None:
                g2[:, 0] = d_md
            if d_slope is not None:
                g2[:, 1] = d_slope
            dh1 = _affine_grads(g2, cache["h1"], p["reg.W2"], p["reg.b2"])
            if masks is not None:
                dh1 = dh1 * masks["reg.h1"]
            dpre1 = dh1 * (cache["pre1"] > 0)
            dh0 = _affine_grads(dpre1, cache["h0"], p["reg.W1"], p["reg.b1"])
            if masks is not None:
                dh0 = dh0 * masks["reg.h0"]
            dpre0 = dh0 * (cache["pre0"] > 0)
            vis, w0 = self.visual.proj_dim, p["reg.W0"]
            _affine_grads(dpre0, cache["v"], Param(w0.value[:vis], w0.grad[:vis]), dx=False)
            d_reg = _affine_grads(dpre0, cache["emb"], Param(w0.value[vis:], w0.grad[vis:]),
                                  p["reg.b0"])
            reached.append("reg.")
            if d_emb is None:
                d_emb = d_reg
            else:
                d_emb += d_reg
        if d_emb is None:
            return tuple(reached)
        k = self.dcce.growth_k
        L = self.dcce.layers_per_block
        g_out = d_emb
        for b in reversed(range(self.dcce.n_blocks)):
            d_block_in = self.dcce.input_dim + b * L * k
            acc = [g_out[:, :d_block_in]]
            for l in range(L):
                acc.append(g_out[:, d_block_in + l * k : d_block_in + (l + 1) * k])
            acc = [a.copy() for a in acc]
            for l in reversed(range(L)):
                g_h = acc[l + 1]
                if masks is not None:
                    g_h = g_h * masks[f"dcce.b{b}.l{l}"]
                g_pre = g_h * (cache["pres"][(b, l)] > 0)
                g_z = _affine_grads(g_pre, cache["z_ins"][(b, l)],
                                    p[f"dcce.b{b}.l{l}.W"], p[f"dcce.b{b}.l{l}.b"])
                acc[0] += g_z[:, :d_block_in]
                for j in range(l):
                    acc[j + 1] += g_z[:, d_block_in + j * k : d_block_in + (j + 1) * k]
            g_out = acc[0]
        reached.append("dcce.")
        return tuple(reached)


# ---------------------------------------------------------------------------
# reference streams: xoshiro256** in Python ints
# ---------------------------------------------------------------------------

_M64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _M64


def _starstar(s1: int) -> int:
    return (_rotl((s1 * 5) & _M64, 7) * 9) & _M64


def reference_draws(seed: int, label: str, n: int) -> list[int]:
    """The first n next_u64 outputs of the stream (seed, label): the seed,
    each zero-padded little-endian 8-byte chunk of the label and then its
    byte length folded through splitmix64, the state words read off the
    splitmix chain, then the reference xoshiro256** update."""
    data = label.encode("utf-8")
    s = _mix64((seed + _GOLDEN) & _M64)
    for i in range(0, len(data), 8):
        s = _mix64(((s ^ int.from_bytes(data[i : i + 8], "little")) + _GOLDEN) & _M64)
    s = _mix64(((s ^ len(data)) + _GOLDEN) & _M64)
    state = [_mix64((s + k * _GOLDEN) & _M64) for k in range(1, 5)]
    out = []
    for _ in range(n):
        s0, s1, s2, s3 = state
        out.append(_starstar(s1))
        t = (s1 << 17) & _M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        state = [s0, s1, s2, _rotl(s3, 45)]
    return out


def reference_fill(sub: int, n: int) -> list[int]:
    """The n lanes of a fill with sub-seed sub: lane j is the starstar
    output of the splitmix chain's output 2(j + 1)."""
    return [_starstar(_mix64((sub + 2 * (j + 1) * _GOLDEN) & _M64)) for j in range(n)]


# ---------------------------------------------------------------------------
# reference generators: one patient and one visit at a time
# ---------------------------------------------------------------------------

def reference_slope_targets(table) -> None:
    """Per-patient OLS slope of md on time for eligible patients, in place,
    one patient at a time."""
    for pid, idx in patients(table).items():
        idx = sorted(idx, key=lambda i: table.visit_time[i])
        times = table.visit_time[idx]
        mds = table.md[idx]
        ok = ~np.isnan(mds)
        if eligibility_filter(times[ok]):
            table.slope_target[idx] = ols_slope(times[ok], mds[ok])
        else:
            table.slope_target[idx] = np.nan


def reference_cohort(spec):
    """Synthetic multi-visit cohort, one Rng per patient and per visit, with
    the slope targets of reference_slope_targets."""
    groups = sorted(spec.group_mix)
    mix = np.array([spec.group_mix[g] for g in groups])
    mean_shift = float(sum(spec.group_mix[g] * spec.group_shift.get(g, 0.0)
                           for g in groups))
    # age ~ U(30, 90) contributes variance 3 * age_effect^2 to the risk logit
    sigma_eff = math.sqrt(1.0 + 3.0 * spec.age_effect ** 2)
    z0 = sigma_eff * float(ndtri(spec.prevalence)) - mean_shift

    cols: dict[str, list] = defaultdict(list)
    vmin, vmax = spec.visits_per_patient
    for i in range(spec.n_patients):
        pid = f"P{i:05d}"
        rp = Rng(spec.seed, f"patient/{i}")
        group = groups[rp.choice(mix)]
        age0 = 30.0 + 60.0 * rp.uniform()
        eta = rp.normal()
        omega = rp.normal() * _LABEL_AMBIGUITY_STD
        sex = "F" if rp.uniform() < 0.5 else "M"
        n_visits = rp.integers(vmin, vmax + 1)
        gaps = 0.4 + 0.4 * rp.uniform(max(n_visits - 1, 1))
        times = np.concatenate([[0.0], np.cumsum(gaps[: n_visits - 1])])

        z = z0 + spec.age_effect * (age0 - 60.0) / 10.0 \
            + spec.group_shift.get(group, 0.0) + eta
        s0 = _SEVERITY_PER_Z * z
        md0 = -2.0 - _MD_PER_SEVERITY * s0
        slope = -(0.05 + 0.25 * max(s0, 0.0)) + rp.normal() * 0.08
        slope = float(np.clip(slope, -2.0, 0.3))

        # each visit's stream draws its noise, its label flip, its image seed
        visits = [Rng(spec.seed, f"visit/{i}/{v}") for v in range(n_visits)]
        eps = np.array([rv.normal(4) for rv in visits])
        flip = np.array([rv.uniform() for rv in visits]) < spec.label_noise
        md_lat = md0 + slope * times
        s = (-2.0 - md_lat) / _MD_PER_SEVERITY
        for name, values in {
            "patient_id": [pid] * n_visits, "visit_index": range(n_visits),
            "visit_time": times, "age": age0 + times,
            "sex": [sex] * n_visits, "race": [group] * n_visits,
            **_structure(s, eps, _STRUCTURE_STD),
            "md": np.clip(md_lat + eps[:, 3] * _MD_OBS_STD, -30.0, 5.0),
            "label": (s / _SEVERITY_PER_Z + omega > 0.0) ^ flip,
            "img_severity": s,
            "image_seed": [rv.next_u64() for rv in visits],
        }.items():
            cols[name].extend(values)
    table = CohortTable({**cols, "slope_target": np.full(len(cols["md"]), np.nan)})
    reference_slope_targets(table)
    return table
