"""Dual-stream network: densely connected clinical encoder, a fixed
patch-statistics visual extractor behind the image->2048-vector interface,
per-stream diagnostic heads, a shared regression head, and probability-level
fusion.

The visual extractor is a deterministic stand-in: per-patch mean/std over an
8x8 tiling, a fixed seeded linear projection to proj_dim, then tanh. A real
convolutional backbone can replace it behind the same interface; its
callers hand patch_stats one raster read (data.RASTER_READ) at a time.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .data import read_json_object, write_atomic
from .errors import ConfigError, SchemaError, refusal
from .numerics import Param, ParamStore, relu, sigmoid
from .rng import Rng

REG_HIDDEN = (256, 128)

# key -> (whether a value is allowed, what the key must be), for the model's
# configs, which each checks when built, as load_checkpoint does its manifest
# (inverted dropout scales each kept unit by 1/(1 - p))
CONFIG_BOUNDS = {
    "input_dim": (lambda v: v >= 1, "be >= 1"),
    "patch_grid": (lambda v: v >= 1, "be >= 1"),
    "proj_dim": (lambda v: v >= 0, "be >= 0"),
    "n_blocks": (lambda v: v >= 0, "be >= 0"),
    "layers_per_block": (lambda v: v >= 0, "be >= 0"),
    "growth_k": (lambda v: v >= 0, "be >= 0"),
    "dropout_p": (lambda p: 0.0 <= p < 1.0, "lie in [0, 1)"),
    "alpha_vis": (lambda v: v >= 0.0, "be >= 0"),
    "alpha_clin": (lambda v: v >= 0.0, "be >= 0"),
}


def keep_bits(words: np.ndarray, p: float) -> np.ndarray:
    """Dropout keep bits from raw uint64 words (as fill_u64 returns them): a
    unit is kept where its uniform (word >> 11)·2^-53 is >= p, which is word
    >= ceil(p·2^53) << 11, as p·2^53 is exact."""
    return words >= np.uint64(math.ceil(p * 2.0 ** 53) << 11)


def dropout(x: np.ndarray, keep: np.ndarray, p: float, blocks=None) -> np.ndarray:
    """Inverted dropout: a kept unit is scaled by 1/(1 - p), a dropped one
    becomes a zero of its sign. keep holds the output's keep bits
    (masks_from_uniform's first value). x is scaled by 1/(1 - p) once, in
    place, then multiplied by the keep bits into the output, so neither a
    float mask nor a gather of x is built. Without blocks the output is x
    itself (training's rows are its batch). With blocks, x is a stack of
    row blocks of len(keep) // len(blocks) rows, and block i of a new
    output is x's block blocks[i] under keep's block i, one multiply each
    (the gate's pass-major stack over the features of its distinct
    transforms). Where x·(1/(1 - p)) does not overflow (the tanh features
    lie in [-1, 1]) the bytes are those of the float mask rule
    x * (keep / (1 - p)): (x·s)·1 = x·(1·s), and (x·s)·0 is a zero of the
    sign of x·0."""
    x *= 1.0 / (1.0 - p)
    if blocks is None:
        x *= keep
        return x
    h = len(keep) // len(blocks)
    out = np.empty(keep.shape)
    for i, b in enumerate(blocks):
        np.multiply(x[b * h : (b + 1) * h], keep[i * h : (i + 1) * h],
                    out=out[i * h : (i + 1) * h])
    return out


class _Bounded:
    """Refuses, when built, the first field value out of its CONFIG_BOUNDS entry."""

    def __post_init__(self):
        if reason := refusal(vars(self), CONFIG_BOUNDS):
            raise ConfigError(reason)


@dataclass(frozen=True)
class DCCEConfig(_Bounded):
    input_dim: int
    n_blocks: int = 2
    layers_per_block: int = 2
    growth_k: int = 32
    dropout_p: float = 0.3

    @property
    def output_dim(self) -> int:
        return self.input_dim + self.n_blocks * self.layers_per_block * self.growth_k


@dataclass(frozen=True)
class VisualFeatConfig(_Bounded):
    patch_grid: int = 8
    proj_dim: int = 2048
    proj_seed: int = 7_040_125


@dataclass(frozen=True)
class FusionConfig(_Bounded):
    alpha_vis: float = 0.6
    alpha_clin: float = 0.4

    def __post_init__(self):
        super().__post_init__()
        if abs(self.alpha_vis + self.alpha_clin - 1.0) > 1e-9:
            raise ConfigError(f"'alpha_vis' + 'alpha_clin' must sum to 1, "
                              f"got {self.alpha_vis} + {self.alpha_clin}")


def fuse(cfg: FusionConfig, logit_vis, logit_clin):
    """Probability-level weighted fusion of the two stream logits."""
    return cfg.alpha_vis * sigmoid(logit_vis) + cfg.alpha_clin * sigmoid(logit_clin)


# ---------------------------------------------------------------------------
# visual stand-in
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def projection_matrix(cfg: VisualFeatConfig) -> np.ndarray:
    """Fixed seeded projection from patch statistics to proj_dim features,
    drawn once per (patch_grid, proj_dim, proj_seed) and read-only."""
    feat_dim = 2 * cfg.patch_grid * cfg.patch_grid
    proj = Rng(cfg.proj_seed, "visual-projection").normal((feat_dim, cfg.proj_dim))
    proj *= 1.0 / np.sqrt(feat_dim)
    proj.flags.writeable = False
    return proj


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over x's last axis in the order of numpy's pairwise summation,
    as whole-array strided adds: below 8 values one running sum; up to 128
    eight running sums over stride-8 columns, combined as ((r0+r1)+(r2+r3))
    + ((r4+r5)+(r6+r7)), then the tail added in order; above 128 the sums of
    two halves split at a multiple of 8."""
    n = x.shape[-1]
    if n < 8:
        total = x[..., 0].copy()
        for i in range(1, n):
            total += x[..., i]
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _row_sums(x[..., :half])
        total += _row_sums(x[..., half:])
        return total
    body = n - n % 8
    acc = x[..., :8]
    if body > 8:
        acc = acc.copy()
        for i in range(8, body, 8):
            acc += x[..., i : i + 8]
    for _ in range(3):   # pairwise halving: 8 -> 4 -> 2 -> 1
        acc = acc[..., 0::2] + acc[..., 1::2]
    total = acc[..., 0]
    for i in range(body, n):
        total += x[..., i]
    return total


def patch_stats(rasters: np.ndarray, grid: int) -> np.ndarray:
    """Per-patch mean then population std over a grid x grid tiling, as
    (n, 2·grid²) rows of means followed by stds. rasters (n, H, W).

    Each patch row of pw values is summed in numpy's own pairwise order
    (_row_sums), then the ph row partials are added in order; the deviations
    subtract the means repeated along each patch row. For grid >= 2 that is
    the order of tiles.mean/std(axis=(2, 4)), so the result equals theirs bit
    for bit. With grid == 1 numpy reduces the whole raster as one pairwise
    run, so that case keeps that reduction."""
    rasters = np.asarray(rasters, dtype=np.float64)
    n, h, w = rasters.shape
    if h < grid or w < grid or h % grid or w % grid:
        raise ConfigError(f"raster {h}x{w} does not tile into a {grid}x{grid} grid")
    if grid == 1:
        return np.stack([rasters.mean(axis=(1, 2)), rasters.std(axis=(1, 2))], axis=1)
    ph, pw = h // grid, w // grid
    out = np.empty((n, 2, grid, grid))
    rows = np.ascontiguousarray(rasters).reshape(n, grid, ph, w)
    mean, std = out.swapaxes(0, 1)
    np.sum(_row_sums(rows.reshape(n, grid, ph, grid, pw)), axis=2, out=mean)
    mean /= ph * pw
    dev = rows - np.repeat(mean, pw, axis=2)[:, :, None, :]
    dev *= dev
    np.sum(_row_sums(dev.reshape(n, grid, ph, grid, pw)), axis=2, out=std)
    std /= ph * pw
    np.sqrt(std, out=std)
    return out.reshape(n, -1)


# ---------------------------------------------------------------------------
# products: every output row and every gradient is the same bytes at one or
# two BLAS threads, and every output row at any row count (OpenBLAS 0.3.31)
# ---------------------------------------------------------------------------

# the deepest product computed as one gemm: reg.W0's depth of 2,182 gave
# other bytes at one and two BLAS threads, products of depth 256 did not
_DEPTH = 256
# the most rows of one input-gradient product: backward's (n, 256) @
# (256, 134) gave other bytes at one and two BLAS threads from 33 rows on
_ROWS = 32


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a b of many columns. numpy sends a product of two or more
    rows through gemm, which gives a row the same bytes at every row count,
    and a one-row product through gemv, which rounds apart, so a lone row
    is multiplied beside a copy of itself."""
    if len(a) == 1:
        return (np.repeat(a, 2, axis=0) @ b)[:1]
    return a @ b


def _narrow(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w for a w of one or two columns, by np.einsum, which calls no
    BLAS: each row is its own dot product, where gemv rounds some rows
    apart by row count and by thread count."""
    return np.einsum("ij,jk->ik", a, w)


def _fixed_order_product(blocks, w: np.ndarray) -> np.ndarray:
    """The product of blocks, concatenated column-wise, with w, without the
    concatenation: the sum, in block and column order, of _gemm products of
    at most _DEPTH columns each."""
    out, row = None, 0
    for a in blocks:
        for lo in range(0, a.shape[1], _DEPTH):
            hi = min(lo + _DEPTH, a.shape[1])
            part = _gemm(a[:, lo:hi], w[row + lo : row + hi])
            out = part if out is None else np.add(out, part, out=out)
        row += a.shape[1]
    return out


def _affine_grads(g: np.ndarray, x: np.ndarray, weight: Param,
                  bias: Param | None = None, dx: bool = True):
    """Backward's product rule for a layer y = x @ weight + bias under
    upstream g (n, h): writes x.T @ g into weight.grad and g's column sums
    into bias.grad (if given), and returns g @ weight.value.T if dx. x.T @ g
    sums _DEPTH-row products in row order and g @ weight.value.T is one
    product per _ROWS-row block, so both are the plain products up to _ROWS
    rows and the same bytes at one and two BLAS threads at any row count."""
    # x is read as a contiguous copy: the trunk's strided embedding prefix
    # rounded some small batches apart on some OpenBLAS kernels
    x = np.ascontiguousarray(x)
    np.matmul(x[:_DEPTH].T, g[:_DEPTH], out=weight.grad)
    for lo in range(_DEPTH, len(g), _DEPTH):
        np.add(weight.grad, x[lo : lo + _DEPTH].T @ g[lo : lo + _DEPTH], out=weight.grad)
    if bias is not None:
        np.sum(g, axis=0, out=bias.grad)
    if not dx:
        return None
    out = np.empty((len(g), len(weight.value)))
    for lo in range(0, len(g), _ROWS):
        np.matmul(g[lo : lo + _ROWS], weight.value.T, out=out[lo : lo + _ROWS])
    return out


def visual_features_batch(cfg: VisualFeatConfig, stats: np.ndarray) -> np.ndarray:
    """(n, proj_dim) features tanh(stats @ projection) for the (n, 2·grid²)
    patch_stats rows of n rasters, so a caller reads rasters in smaller
    blocks than it projects. A row's features are the same bytes in any
    batch (_gemm)."""
    out = _gemm(stats, projection_matrix(cfg))
    return np.tanh(out, out=out)


# ---------------------------------------------------------------------------
# trainable network
# ---------------------------------------------------------------------------

class DualStreamModel:
    """Owns the ParamStore; forward is pure given parameters and masks.

    With init_rng the weights are drawn (He scale for the trunk and the
    regression hidden layers, 1/sqrt(fan-in) for the three output layers,
    zero biases); without it every parameter is zero, ready to be filled
    from a checkpoint.
    """

    # output layers; heads get small random inits so both loss terms reach
    # the shared trunk from the first step
    _OUTPUT_WEIGHTS = ("vis_head.W", "clin_head.W", "reg.W2")

    def __init__(self, dcce: DCCEConfig, visual: VisualFeatConfig,
                 init_rng: Rng | None = None):
        self.dcce = dcce
        self.visual = visual
        self.params = ParamStore(self.param_layout())
        if init_rng is not None:
            for name, p in self.params.entries.items():
                if p.value.ndim == 2:
                    d = p.value.shape[0]
                    if name in self._OUTPUT_WEIGHTS:
                        p.value[...] = init_rng.normal(p.value.shape) / np.sqrt(d)
                    else:
                        p.value[...] = init_rng.normal(p.value.shape) * np.sqrt(2.0 / d)

    def dense_layers(self) -> list[tuple[int, int]]:
        """(block, layer) of every dense layer, in forward order."""
        return [(b, l) for b in range(self.dcce.n_blocks)
                for l in range(self.dcce.layers_per_block)]

    # layer input width for block b, layer l: the embedding columns it reads
    def _in_dim(self, b: int, l: int) -> int:
        d = self.dcce.input_dim + b * self.dcce.layers_per_block * self.dcce.growth_k
        return d + l * self.dcce.growth_k

    def param_layout(self) -> dict[str, tuple[int, ...]]:
        """Every parameter's name and shape, in store and checkpoint order."""
        k = self.dcce.growth_k
        layout: dict[str, tuple[int, ...]] = {}
        for b, l in self.dense_layers():
            layout[f"dcce.b{b}.l{l}.W"] = (self._in_dim(b, l), k)
            layout[f"dcce.b{b}.l{l}.b"] = (k,)
        emb = self.dcce.output_dim
        h0, h1 = REG_HIDDEN
        layout.update({
            "vis_head.W": (self.visual.proj_dim, 1), "vis_head.b": (1,),
            "clin_head.W": (emb, 1), "clin_head.b": (1,),
            "reg.W0": (self.visual.proj_dim + emb, h0), "reg.b0": (h0,),
            "reg.W1": (h0, h1), "reg.b1": (h1,),
            "reg.W2": (h1, 2), "reg.b2": (2,),
        })
        return layout

    def diagnostic_segments(self) -> list[tuple[str, int]]:
        """Dropout sites the trunk and the two diagnostic heads read: visual
        features and every DCCE hidden layer."""
        return [("vis", self.visual.proj_dim)] + [
            (f"dcce.b{b}.l{l}", self.dcce.growth_k) for b, l in self.dense_layers()]

    def mask_segments(self) -> list[tuple[str, int]]:
        """Every dropout site: the diagnostic ones, then both regression
        hidden layers."""
        return self.diagnostic_segments() + [("reg.h0", REG_HIDDEN[0]),
                                             ("reg.h1", REG_HIDDEN[1])]

    def masks_from_uniform(self, words: np.ndarray, p: float) -> tuple[np.ndarray, dict]:
        """Dropout at rate p from one (n, width) draw of raw uint64 words
        (as fill_u64 returns them), whose columns fill the sites of
        mask_segments in order: the visual site's keep bits, for the
        caller's dropout() of the features, and the inverted-dropout masks
        keep_bits / (1 - p) of the hidden sites, by name. A draw narrower
        than every site masks only the hidden sites it covers."""
        vis = self.visual.proj_dim
        scaled = keep_bits(words[:, vis:], p) * (1.0 / (1.0 - p))
        masks, offset = {}, 0
        for name, width in self.mask_segments()[1:]:
            if offset + width > scaled.shape[1]:
                break
            masks[name] = scaled[:, offset : offset + width]
            offset += width
        return keep_bits(words[:, :vis], p), masks

    def diagnose(self, x_clin: np.ndarray, v_feats: np.ndarray,
                 masks: dict | None = None) -> tuple[dict, dict]:
        """The clinical trunk and the two diagnostic heads: (outputs, cache)
        with logit_vis, logit_clin and embedding. x_clin (n, d), v_feats
        (n, proj_dim), read as given: under dropout the caller has already
        applied dropout() to them. masks (masks_from_uniform's second value)
        need only the diagnostic hidden sites. Each dense layer appends its
        growth_k columns to one embedding buffer. A row's outputs are the
        same bytes in any batch, as are forward's."""
        if x_clin.shape[1] != self.dcce.input_dim:
            raise SchemaError(
                f"clinical width {x_clin.shape[1]} != input_dim {self.dcce.input_dim}")
        p = self.params
        k = self.dcce.growth_k
        emb = np.empty((len(x_clin), self.dcce.output_dim))
        emb[:, : self.dcce.input_dim] = x_clin
        pres: dict[tuple[int, int], np.ndarray] = {}
        for b, l in self.dense_layers():
            d = self._in_dim(b, l)
            pres[(b, l)] = pre = _gemm(emb[:, :d], p[f"dcce.b{b}.l{l}.W"].value) \
                + p[f"dcce.b{b}.l{l}.b"].value
            h = np.maximum(pre, 0.0, out=emb[:, d : d + k])
            if masks is not None:
                h *= masks[f"dcce.b{b}.l{l}"]

        logit_vis = (_narrow(v_feats, p["vis_head.W"].value) + p["vis_head.b"].value)[:, 0]
        logit_clin = (_narrow(emb, p["clin_head.W"].value) + p["clin_head.b"].value)[:, 0]

        outputs = {"logit_vis": logit_vis, "logit_clin": logit_clin, "embedding": emb}
        cache = {"x": x_clin, "v": v_feats, "emb": emb, "masks": masks,
                 "pres": pres}
        return outputs, cache

    def forward(self, x_clin: np.ndarray, v_feats: np.ndarray,
                masks: dict | None = None) -> tuple[dict, dict]:
        """diagnose, then the regression head on top: the outputs add md_hat
        and slope_hat."""
        outputs, cache = self.diagnose(x_clin, v_feats, masks)
        p = self.params
        pre0 = _fixed_order_product((cache["v"], cache["emb"]), p["reg.W0"].value)
        pre0 += p["reg.b0"].value
        h0 = relu(pre0)
        if masks is not None:
            h0 = h0 * masks["reg.h0"]
        pre1 = _gemm(h0, p["reg.W1"].value) + p["reg.b1"].value
        h1 = relu(pre1)
        if masks is not None:
            h1 = h1 * masks["reg.h1"]
        out2 = _narrow(h1, p["reg.W2"].value) + p["reg.b2"].value

        outputs.update(md_hat=out2[:, 0], slope_hat=out2[:, 1])
        cache.update(pre0=pre0, h0=h0, pre1=pre1, h1=h1)
        return outputs, cache

    def backward(self, cache: dict, d_logit_vis=None, d_logit_clin=None,
                 d_md=None, d_slope=None) -> tuple[str, ...]:
        """Write the gradients of a scalar loss, given upstream derivatives
        (each (n,) or None), into the store's grad vector, and return the
        name prefixes of the branches written. Each gradient it reaches gets
        exactly one contribution, written in place by _affine_grads, the one
        rule of every layer; a branch the upstream does not reach is skipped
        and keeps what it held, so a training step calls it through
        set_grads. The trunk's layers run in reverse over one embedding
        gradient, each adding its input gradient into the prefix it read."""
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
            # reg.W0's rows read the visual features, then the embedding
            vis, w0 = self.visual.proj_dim, p["reg.W0"]
            _affine_grads(dpre0, cache["v"], Param(w0.value[:vis], w0.grad[:vis]), dx=False)
            d_reg = _affine_grads(dpre0, cache["emb"], Param(w0.value[vis:], w0.grad[vis:]),
                                  p["reg.b0"])
            reached.append("reg.")
            d_emb = d_reg if d_emb is None else np.add(d_emb, d_reg, out=d_emb)

        if d_emb is None:
            return tuple(reached)
        k = self.dcce.growth_k
        for b, l in reversed(self.dense_layers()):
            d = self._in_dim(b, l)
            g_h = d_emb[:, d : d + k]
            if masks is not None:
                g_h = g_h * masks[f"dcce.b{b}.l{l}"]
            g_pre = g_h * (cache["pres"][(b, l)] > 0)
            d_emb[:, :d] += _affine_grads(g_pre, cache["emb"][:, :d],
                                          p[f"dcce.b{b}.l{l}.W"], p[f"dcce.b{b}.l{l}.b"])
        reached.append("dcce.")
        return tuple(reached)

    def set_grads(self, cache: dict, **upstream) -> None:
        """Run one backward into the store, then zero the gradients of the
        branches it did not reach: a parameter the loss did not reach gets
        zero, not what an earlier backward wrote. A full training step
        reaches every branch and zeroes nothing. upstream holds backward's
        d_* keywords."""
        reached = self.backward(cache, **upstream)
        for name, param in self.params.entries.items():
            if not name.startswith(reached):
                param.grad[...] = 0.0


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

# rows per predict_arrays block; each block packs reg.W0's 2,182 x 256 operand
# again, so over 540 rows blocks of 32 took 40 % longer than one block, 128 10 %
_PREDICT_ROWS = 128


def predict_arrays(model: DualStreamModel, fusion: FusionConfig,
                   x_clin: np.ndarray, stats: np.ndarray,
                   regression: bool = True) -> dict[str, np.ndarray]:
    """Deterministic pass (dropout off, identity augmentation) over x_clin
    and its (n, 2·grid²) patch statistics, _PREDICT_ROWS rows at a time (zero
    rows: one empty block): the probabilities, and with regression md_hat and
    slope_hat too, each row's the same bytes in any block and either way."""
    run = model.forward if regression else model.diagnose
    keys = ("p_vis", "p_clin", "p_final") + (("md_hat", "slope_hat") if regression else ())
    arrs = {key: np.empty(len(x_clin)) for key in keys}
    for lo in range(0, max(len(x_clin), 1), _PREDICT_ROWS):
        rows = slice(lo, lo + _PREDICT_ROWS)
        out, _ = run(x_clin[rows], visual_features_batch(model.visual, stats[rows]))
        out.update(p_vis=sigmoid(out["logit_vis"]), p_clin=sigmoid(out["logit_clin"]),
                   p_final=fuse(fusion, out["logit_vis"], out["logit_clin"]))
        for key, value in arrs.items():
            value[rows] = out[key]
    return arrs


# ---------------------------------------------------------------------------
# checkpoints: JSON manifest + flat binary of float64 LE in manifest order
# ---------------------------------------------------------------------------

def _param_entries(model: DualStreamModel) -> list[dict]:
    """The manifest's params list: each parameter's name and shape, in order."""
    return [{"name": n, "shape": list(shape)} for n, shape in model.param_layout().items()]


def checkpoint_files(model: DualStreamModel, fusion: FusionConfig,
                     extra: dict | None = None) -> dict[str, str | bytes]:
    """manifest.json and params.bin, by file name."""
    manifest = {
        "dcce": asdict(model.dcce),
        "visual": asdict(model.visual),
        "fusion": asdict(fusion),
        "params": _param_entries(model),
        "extra": extra or {},
    }
    return {
        "manifest.json": json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        "params.bin": model.params.value.astype("<f8", copy=False).tobytes(),
    }


def save_checkpoint(model: DualStreamModel, fusion: FusionConfig, out_dir,
                    extra: dict | None = None) -> None:
    """Write manifest.json and params.bin, each atomically and write-once."""
    for name, payload in checkpoint_files(model, fusion, extra).items():
        write_atomic(os.path.join(out_dir, name), payload)


def _config_block(template, manifest: dict, block: str):
    """template's class from the manifest block save_checkpoint wrote, which
    names each of template's fields exactly once, with a value of the JSON
    type of the template's within the field's CONFIG_BOUNDS."""
    entries = manifest.get(block, {})
    if not isinstance(entries, dict):
        raise SchemaError(f"manifest block '{block}' must be an object, got "
                          f"{type(entries).__name__}")
    want = vars(template)
    unknown, missing = sorted(set(entries) - set(want)), sorted(set(want) - set(entries))
    if unknown or missing:
        raise SchemaError(f"manifest block '{block}': unknown keys {unknown}, "
                          f"missing keys {missing}")
    if reason := refusal(entries, CONFIG_BOUNDS, like=want):
        raise SchemaError(f"manifest block '{block}': {reason}")
    try:
        return type(template)(**entries)
    except ConfigError as exc:   # a rule across keys, such as fusion's sum
        raise SchemaError(f"manifest block '{block}': {exc}") from None


def load_checkpoint(in_dir) -> tuple[DualStreamModel, FusionConfig, dict]:
    manifest = read_json_object(os.path.join(in_dir, "manifest.json"))
    dcce = _config_block(DCCEConfig(input_dim=1), manifest, "dcce")
    visual = _config_block(VisualFeatConfig(), manifest, "visual")
    fusion = _config_block(FusionConfig(), manifest, "fusion")
    model = DualStreamModel(dcce, visual)  # zero parameters, no init draws
    want, listed = _param_entries(model), manifest.get("params")
    if not isinstance(listed, list):
        raise SchemaError(f"manifest.json in {in_dir}: 'params' is missing or not a list")
    if listed != want:   # named by the first entry that differs
        i = next((i for i, (a, b) in enumerate(zip(listed, want)) if a != b),
                 min(len(listed), len(want)))
        got, exp = (json.dumps(e[i]) if i < len(e) else "none" for e in (listed, want))
        raise SchemaError(f"manifest.json in {in_dir}: 'params' entry {i} is {got}, "
                          f"the model's {exp}")
    with open(os.path.join(in_dir, "params.bin"), "rb") as f:
        raw = f.read()
    if len(raw) != 8 * model.params.value.size:
        raise SchemaError("params.bin length does not match the manifest")
    model.params.value[...] = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(model.params.value).all():
        name = next(k for k, p in model.params.entries.items()
                    if not np.isfinite(p.value).all())
        raise SchemaError(f"params.bin in {in_dir}: non-finite value in '{name}'")
    return model, fusion, manifest.get("extra", {})
