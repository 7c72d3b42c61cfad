"""Hierarchical gating: a physical blur firewall, then an MC-dropout +
test-time-augmentation ensemble whose predictive variance drives the
accept/reject decision, and a triage ordering for the rejected queue.

Every ensemble pass draws its dropout masks from the substream
(seed, "mc/<sample_id>/<pass_index>"), so the masks do not depend on how
samples are batched. Pass i applies tta_set[i mod len(tta_set)]. A batch runs
all its passes as one call of the trunk and the two diagnostic heads over the
pass-major stack of (pass, sample) rows. Each distinct transform is
featurised once, and the transformed rasters never exist as a stack:
_tta_stats writes them into one reused buffer of data.RASTER_READ rasters,
in the order of the statistics rows, and reduces each full buffer to patch
statistics, all of which are projected together. The streams of all rows
are derived together and drawn in one Streams.fill_u64 of the diagnostic
sites' width, the prefix of each stream's full-width fill. The draw shares
no data with the featurisation, so a batch of two or more visits fills its
words on numerics.WORKER, the process's one worker thread, through
numerics.beside while the calling thread featurises; the streams are
counter-based, so which thread fills them changes no bit. The calling
thread derives the streams and allocates the words, the worker runs only
the fill (nothing perfbench's tracer wraps), a lone visit fills on the
calling thread, and no draw outlives its call.
The draw stays in raw uint64 words, which masks_from_uniform turns into
keep bits on the calling thread by comparing them against the dropout
rate, with no conversion to uniforms; no word outlives that call.
model.dropout, the rule training uses too, scales the features of the
distinct transforms once and writes each pass's block of the stack
as one multiply of its transform's features by its keep bits, so the
visual site never gets a float mask and no feature row is gathered. The
regression head is not run; MTS comes from predict's deterministic md_hat.
Every rate takes this one path: at dropout_p 0 every keep bit is true and
the scale is 1, so each pass has the bytes of its transform's pass. A row
of the stack has the same bytes in any batch, so a visit's mu and u do not
depend on the visits gated with it.
A run's decisions come from its lap_var and u arrays at once (gate_decide);
a decision holds only its kind, and mu and u stay in the run's arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .data import RASTER_READ, apply_preprocess_table
from .errors import ConfigError, refusal
from .model import (CONFIG_BOUNDS, DualStreamModel, FusionConfig, dropout, fuse,
                    patch_stats, visual_features_batch)
from .rng import Streams

TTA_DEFAULT = (
    "identity", "hflip", "vflip",
    "brightness+0.2", "brightness-0.2",
    "contrast+0.2", "contrast-0.2",
)


# key -> (whether a value is allowed, what the key must be), for GateConfig
GATE_BOUNDS = {
    "tau_blur": (lambda v: v > 0.0, "be > 0"),
    "n_passes": (lambda v: v >= 2, "be >= 2"),
    "dropout_p": CONFIG_BOUNDS["dropout_p"],   # the entry DCCEConfig's dropout has
}


@dataclass(frozen=True)
class GateConfig:
    tau_blur: float = 100.0
    tau_unc: float | None = None    # calibrated on validation, never a constant
    n_passes: int = 15
    dropout_p: float = 0.3
    tta_set: tuple[str, ...] = TTA_DEFAULT

    def __post_init__(self):
        if reason := refusal(vars(self), GATE_BOUNDS):
            raise ConfigError(reason)
        if not self.tta_set or not set(self.tta_set) <= TTA_TRANSFORMS.keys():
            raise ConfigError(f"'tta_set' must name one or more of "
                              f"{', '.join(TTA_TRANSFORMS)}, got {list(self.tta_set)}")


@dataclass
class GateDecision:
    """One visit's outcome; its lap_var, mu and u are the run's arrays."""
    kind: str                       # accept | reject_blur | reject_uncertain


# ---------------------------------------------------------------------------
# physical firewall
# ---------------------------------------------------------------------------

def laplacian_variance(rasters: np.ndarray):
    """Population variance of the 4-neighbour Laplacian over the valid
    interior (no padding), with the raster scaled to 0-255 first: (n,) for
    an (n, H, W) stack, a float for one (H, W) raster (Pech-Pacheco et al.,
    ICPR 2000)."""
    r = np.asarray(rasters, dtype=np.float64)
    if r.ndim not in (2, 3) or r.shape[-2] < 3 or r.shape[-1] < 3:
        raise ConfigError("laplacian_variance needs rasters of at least 3x3")
    a = r * 255.0
    resp = (-4.0 * a[..., 1:-1, 1:-1] + a[..., :-2, 1:-1] + a[..., 2:, 1:-1]
            + a[..., 1:-1, :-2] + a[..., 1:-1, 2:])
    out = resp.var(axis=(-2, -1))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# test-time augmentation
# ---------------------------------------------------------------------------

def _brightness(r, delta, out):
    np.add(r, delta, out=out)
    np.clip(out, 0.0, 1.0, out=out)


def _contrast(r, delta, out):
    np.subtract(r, 0.5, out=out)
    out *= 1.0 + delta
    out += 0.5
    np.clip(out, 0.0, 1.0, out=out)


# name -> transform(rasters, out), writing into out
TTA_TRANSFORMS = {
    "identity": lambda r, out: np.copyto(out, r),
    "hflip": lambda r, out: np.copyto(out, r[..., :, ::-1]),
    "vflip": lambda r, out: np.copyto(out, r[..., ::-1, :]),
    "brightness+0.2": lambda r, out: _brightness(r, 0.2, out),
    "brightness-0.2": lambda r, out: _brightness(r, -0.2, out),
    "contrast+0.2": lambda r, out: _contrast(r, 0.2, out),
    "contrast-0.2": lambda r, out: _contrast(r, -0.2, out),
}


def apply_tta(name: str, rasters: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Transform `name` of a raster or a stack of rasters, written into out
    (of their shape), which is returned."""
    TTA_TRANSFORMS[name](rasters, out)
    return out


# ---------------------------------------------------------------------------
# stochastic ensemble
# ---------------------------------------------------------------------------

def _tta_stats(names, rasters: np.ndarray, grid: int) -> np.ndarray:
    """Patch statistics of each named transform of every raster: row
    k·n + j is transform k of raster j. The rows are written RASTER_READ at a
    time into one reused buffer, a run of one transform per apply_tta call,
    and each full buffer is one patch_stats call; a row's statistics do not
    depend on its neighbours, so they equal those of the whole stack."""
    n, total = len(rasters), len(names) * len(rasters)
    stats = np.empty((total, 2 * grid * grid))
    buf = np.empty((min(RASTER_READ, total), *rasters.shape[1:]))
    for start in range(0, total, RASTER_READ):
        row, stop = start, min(start + RASTER_READ, total)
        while row < stop:   # the run of transform k that falls in the buffer
            k, j = divmod(row, n)
            end = min(stop, (k + 1) * n)
            apply_tta(names[k], rasters[j : j + end - row],
                      buf[row - start : end - start])
            row = end
        stats[start:stop] = patch_stats(buf[: stop - start], grid)
    return stats


def ensemble_passes(model: DualStreamModel, fusion: FusionConfig,
                    x_clin: np.ndarray, rasters: np.ndarray, sample_ids,
                    cfg: GateConfig, seed: int) -> np.ndarray:
    """Fused probabilities p_passes (n_samples, n_passes) from one pass of
    the trunk and the diagnostic heads; the regression head never runs."""
    n = x_clin.shape[0]
    names = [cfg.tta_set[i % len(cfg.tta_set)] for i in range(cfg.n_passes)]
    distinct = list(dict.fromkeys(names))
    labels = [f"mc/{sid}/{i}" for i in range(cfg.n_passes) for sid in sample_ids]
    # the diagnostic sites lead mask_segments, so their columns are a prefix
    # of each label's full-width stream
    width = sum(w for _, w in model.diagnostic_segments())
    streams = Streams(seed, labels)
    # allocated here: the worker's allocations land in another malloc arena,
    # which keeps them resident
    words = np.empty((streams.size, width), dtype=np.uint64)

    def fill():
        streams.fill_u64(width, words)

    def featurise():   # block k of the features is transform k of every raster
        return visual_features_batch(
            model.visual, _tta_stats(distinct, rasters, model.visual.patch_grid))

    if n > 1:
        v = numerics.beside(fill, featurise)
    else:   # a lone visit's fill costs less than the handoff
        fill()
        v = featurise()
    keep, masks = model.masks_from_uniform(words, cfg.dropout_p)
    del words   # the words, 8 MiB per 32-visit batch, end here
    # block i of the pass-major stack, rows i*n .. i*n + n - 1, is pass i
    v = dropout(v, keep, cfg.dropout_p, [distinct.index(name) for name in names])
    out, _ = model.diagnose(np.tile(x_clin, (cfg.n_passes, 1)), v, masks)
    return fuse(fusion, out["logit_vis"], out["logit_clin"]).reshape(-1, n).T


def summarize_passes(p_passes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Streaming (Welford) mean and population variance along the pass axis."""
    n_samples, n_passes = p_passes.shape
    mean = np.zeros(n_samples)
    m2 = np.zeros(n_samples)
    for i in range(n_passes):
        delta = p_passes[:, i] - mean
        mean += delta / (i + 1)
        m2 += delta * (p_passes[:, i] - mean)
    return mean, m2 / n_passes


def gate_decide(lap_var: np.ndarray, u: np.ndarray, cfg: GateConfig) -> list[GateDecision]:
    """One decision per visit: a blur reject below tau_blur, else accept iff
    U < tau_unc (the boundary U == tau_unc rejects). An unset tau_unc is
    refused only when some visit passed the firewall."""
    blur = np.asarray(lap_var) < cfg.tau_blur
    if cfg.tau_unc is None and not blur.all():
        raise ConfigError("tau_unc is unset; calibrate it on validation first")
    # tau_unc is unset only when every visit is a blur reject
    accept = ~blur & (np.asarray(u) < (cfg.tau_unc or 0.0))
    return [GateDecision("reject_blur" if b else "accept" if a else "reject_uncertain")
            for b, a in zip(blur.tolist(), accept.tolist())]


# ---------------------------------------------------------------------------
# table-level gating
# ---------------------------------------------------------------------------

@dataclass
class GateRun:
    sample_ids: list[str]
    groups: list[str]
    lap_var: np.ndarray
    mu: np.ndarray            # NaN for blur rejects
    u: np.ndarray             # NaN for blur rejects
    decisions: list[GateDecision] = field(default_factory=list)  # by run_gate

    def gated(self, *columns) -> tuple:
        """The visits that passed the blur firewall (finite u), in table
        order: their u, mu and sample ids, then each per-visit column given."""
        keep = np.flatnonzero(~np.isnan(self.u))
        return (self.u[keep], self.mu[keep], [self.sample_ids[i] for i in keep],
                *(np.asarray(c)[keep] for c in columns))

    def _decided(self) -> list[GateDecision]:
        """The decisions, refused on a run from ensemble_over_table."""
        if len(self.decisions) != len(self.sample_ids):
            raise ConfigError("this gate run holds no accept/reject decisions; "
                              "gate the table with run_gate")
        return self.decisions

    def audit_records(self) -> list[dict]:
        decisions = self._decided()
        recs = []
        for i, sid in enumerate(self.sample_ids):
            recs.append({
                "sample_id": sid,
                "lap_var": float(self.lap_var[i]),
                "mu": None if math.isnan(self.mu[i]) else float(self.mu[i]),
                "u": None if math.isnan(self.u[i]) else float(self.u[i]),
                "decision": decisions[i].kind,
                "group": self.groups[i],
            })
        return recs


def ensemble_over_table(model: DualStreamModel, table, stats, cfg: GateConfig,
                        seed: int, fusion: FusionConfig) -> GateRun:
    """Firewall plus ensemble statistics for every sample of a table,
    without the accept/reject call (tau_unc may still be unset, and
    decisions stay empty). Blur rejects never reach the model; their mu
    and u stay NaN. The table is read RASTER_READ rasters at a time, and
    each read's sharp rows are one ensemble_passes call: a visit's bytes do
    not depend on the visits that share its batch."""
    n = len(table)
    sample_ids = table.sample_ids()
    x_all = apply_preprocess_table(stats, table)
    lap = np.empty(n)
    mu = np.full(n, np.nan)
    u = np.full(n, np.nan)

    for start, rasters in table.raster_blocks():
        block = slice(start, start + len(rasters))
        lap[block] = laplacian_variance(rasters)
        passed = np.flatnonzero(lap[block] >= cfg.tau_blur)
        if passed.size:
            idx = start + passed
            mu[idx], u[idx] = summarize_passes(ensemble_passes(
                model, fusion, x_all[idx], rasters[passed],
                [sample_ids[i] for i in idx], cfg, seed))
    return GateRun(sample_ids=sample_ids, groups=list(table.race), lap_var=lap,
                   mu=mu, u=u)


def run_gate(model: DualStreamModel, table, stats, cfg: GateConfig, seed: int,
             fusion: FusionConfig) -> GateRun:
    """Gate every sample of a table: firewall first (no model pass for blur
    rejects), then the ensemble and the uncertainty decision."""
    run = ensemble_over_table(model, table, stats, cfg, seed, fusion)
    run.decisions = gate_decide(run.lap_var, run.u, cfg)
    return run


# ---------------------------------------------------------------------------
# triage
# ---------------------------------------------------------------------------

def triage_queue(run: GateRun, priority_groups) -> list[int]:
    """Indices of a gated run's rejects in manual-review order: priority
    group first, then higher uncertainty; blur rejects (no U) sort after
    uncertainty rejects within a group; patient id, then visit index, break
    the remaining ties, so the order is total."""
    rank = {g: i for i, g in enumerate(priority_groups)}
    decisions = run._decided()

    def key(i):
        u_eff = run.u[i] if decisions[i].kind == "reject_uncertain" else -math.inf
        patient, _, visit = run.sample_ids[i].rpartition("#")
        return (rank.get(run.groups[i], len(priority_groups)), -u_eff,
                patient, int(visit))

    rejects = [i for i, d in enumerate(decisions) if d.kind != "accept"]
    return sorted(rejects, key=key)
