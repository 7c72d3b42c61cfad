"""Deterministic random numbers: xoshiro256** seeded via splitmix64.

A stream is derived from (seed, label) by folding the label bytes into a
splitmix64 sponge, so per-sample work can run in any order and still
reproduce bit-for-bit. Bulk fills are lane-parallel: each call burns one
draw of the parent stream as a sub-seed, expands it with the splitmix64
chain into per-lane xoshiro states, and takes one starstar output per lane
(vectorized in uint64).

Streams are derived and advanced column-wise, in the manner of
counter-based generators (Salmon et al., SC 2011): `Streams(seeds, labels)`
holds one stream per row, runs one sponge pass per label word count (each
row folds its own byte length), and steps every row's xoshiro256** state
(Blackman & Vigna, ACM TOMS 2021) with one numpy operation per state word.
A draw program whose length does not depend on the drawn values, such as a
synthetic patient's or visit's, so costs a few array operations however many
rows it has. `Rng` is a Streams of one row with shaped draws. A fill's lane
depends only on its sub-seed and its number, so a row that needs fewer
values than its neighbours reads the prefix of a common-width fill.
"""

from __future__ import annotations

import math

import numpy as np

_M64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_INV_2_53 = float(2.0 ** -53)
_BLOCK_VALUES = 1 << 16   # values per fill block (512 kB of uint64)
# lane j of a fill reads the splitmix chain at index 2(j + 1), and state
# word k of a stream its sponge's chain at index k + 1
_LANE_STEP = np.uint64(2 * _GOLDEN_INT & _M64)
_STATE_STEPS = np.array([[k * _GOLDEN_INT & _M64] for k in range(1, 5)], dtype=np.uint64)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 output function, in place on a uint64 array."""
    t = np.empty_like(z)
    np.right_shift(z, _U64(30), out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, _U64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _U64(31), out=t)
    z ^= t
    return z


def _rotl(x, k: int):
    return (x << _U64(k)) | (x >> _U64(64 - k))


def _starstar(s1):
    """xoshiro256** output from the state word s1 (uint64 array)."""
    return _rotl(s1 * _U64(5), 7) * _U64(9)


def _sponge(seeds, words: np.ndarray, lengths) -> np.ndarray:
    """Column-wise sponge states of m labels of one word count W, given as
    their zero-padded little-endian words (m, W) uint64 and byte lengths
    (m,) uint64, under the (m,) uint64 seeds: the seed, each word and then
    the length are folded in through splitmix64."""
    s = seeds + _GOLDEN
    _mix64(s)
    for chunk in (*words.T, lengths):
        s ^= chunk
        s += _GOLDEN
        _mix64(s)
    return s


def _fill(z: np.ndarray) -> np.ndarray:
    """Lane outputs of fills, in place: z holds each lane's sub-seed plus
    (j + 1)·_LANE_STEP for its lane number j. A lane's word s1 is its pair's
    second splitmix chain output, so only even chain indices are derived,
    and a lane depends only on its sub-seed and its number."""
    _mix64(z)
    # _starstar, in place: this is the bulk of every fill
    z *= _U64(5)
    t = z >> _U64(57)
    z <<= _U64(7)
    z |= t
    z *= _U64(9)
    return z


def _unit(raw: np.ndarray) -> np.ndarray:
    """U[0, 1) with 53-bit resolution from raw uint64s."""
    return (raw >> _U64(11)) * _INV_2_53


def _box_muller(raw: np.ndarray, n: int) -> np.ndarray:
    """n standard normals along the last axis from m = n + (n & 1) raw
    uint64s there: the first m/2 give u1 in (0, 1], so log() is safe, the
    last m/2 give the angles. One float array holds u1 and the angles, then
    r·cos and r·sin in their place; the shifted words go straight into it
    (exact, as they are below 2^53), with no uint64 temporary."""
    half = raw.shape[-1] // 2
    out = np.right_shift(raw, _U64(11), out=np.empty(raw.shape), casting="unsafe")
    r, theta = out[..., :half], out[..., half:]
    r += 1.0
    out *= _INV_2_53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    cos = np.cos(theta)
    np.sin(theta, out=theta)
    theta *= r
    r *= cos
    return out[..., :n]


def _seed_words(seeds) -> np.ndarray:
    """seeds as uint64: a uint64 array as it is, ints reduced mod 2**64."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    if isinstance(seeds, (int, np.integer)):
        return np.array(int(seeds) & _M64, dtype=np.uint64)
    return np.array([int(s) & _M64 for s in seeds], dtype=np.uint64)


class Streams:
    """m xoshiro256** streams advanced together. Row r is bit for bit the
    stream of (seeds[r], labels[r]); seeds is one int for every row or one
    per row, and labels one str per row or one str for every seed. Each
    draw method gives every row what that row's Rng draws: an (m,) column,
    or (m, n) rows of n values."""

    def __init__(self, seeds, labels):
        one_label = isinstance(labels, str)
        encoded = [label.encode("utf-8") for label in ([labels] if one_label else labels)]
        seeds = _seed_words(seeds)
        self.size = m = seeds.size if one_label else len(encoded)
        n_words = {-(-len(data) // 8) for data in encoded}
        width = max(max(n_words, default=0), 1)
        words = np.array(encoded, dtype=f"S{8 * width}").view("<u8") \
            .reshape(len(encoded), width)
        lengths = np.array([len(data) for data in encoded], dtype=np.uint64)
        if one_label:
            words, lengths = words.repeat(m, axis=0), lengths.repeat(m)
        if seeds.ndim == 0:
            seeds = np.full(m, seeds, dtype=np.uint64)
        if len(n_words) == 1:
            s = _sponge(seeds, words[:, : n_words.pop()], lengths)
        else:
            s = np.empty(m, dtype=np.uint64)
            row_words = (lengths + _U64(7)) // _U64(8)
            for w in sorted(n_words):
                rows = np.flatnonzero(row_words == w)
                s[rows] = _sponge(seeds[rows], words[rows, :w], lengths[rows])
        # expand each sponge into the 4 state words via the splitmix chain;
        # _mix64 is a bijection with _mix64(0) == 0, so the four distinct
        # inputs never give the forbidden all-zero state
        self._state = list(_mix64(s + _STATE_STEPS))

    def next_u64(self) -> np.ndarray:
        """Advance every stream one step (the xoshiro256** update)."""
        s0, s1, s2, s3 = self._state
        result = _starstar(s1)
        t = s1 << _U64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._state = [s0, s1, s2, _rotl(s3, 45)]
        return result

    def fill_u64(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """(m, n) uint64s, one starstar output per splitmix-seeded lane,
        written into out (an (m, n) uint64 array) when it is given, and
        returned; a fill of 0 values leaves the streams as they are. Any
        fill of n >= 1 advances each stream once, and lane j depends only on
        the sub-seed drawn and on j, so the first k lanes of a fill are a
        fill of k on the same streams. Given out, a fill allocates only its
        block-sized temporaries: numerics.WORKER fills words that the
        gate's calling thread allocated."""
        if out is None:
            out = np.empty((self.size, n), dtype=np.uint64)
        elif out.shape != (self.size, n) or out.dtype != np.uint64:
            raise ValueError(f"fill_u64 needs a ({self.size}, {n}) uint64 out, "
                             f"got {out.dtype} {out.shape}")
        if n == 0:
            return out
        sub = self.next_u64()[:, None]
        lanes = np.arange(1, n + 1, dtype=np.uint64)
        lanes *= _LANE_STEP
        # fill a block of rows at a time so the uint64 temporaries stay in cache
        step = max(1, _BLOCK_VALUES // n)
        for r in range(0, self.size, step):
            _fill(np.add(lanes, sub[r : r + step], out=out[r : r + step]))
        return out

    def uniform(self, n=None) -> np.ndarray:
        """U[0, 1) with 53-bit resolution: one per row, or fill_u64(n) as
        uniforms."""
        return _unit(self.next_u64() if n is None else self.fill_u64(n))

    def normal(self, n: int | None = None) -> np.ndarray:
        """Standard normals via Box-Muller on paired uniforms: one per row,
        or (m, n)."""
        k = 1 if n is None else n
        out = _box_muller(self.fill_u64(k + (k & 1)), k)
        return out[:, 0] if n is None else out

    def integers(self, low: int, high: int, n: int | None = None) -> np.ndarray:
        """Uniform ints in [low, high): one per row, or (m, n). Modulo bias
        is negligible at our ranges."""
        span = high - low
        if span <= 0:
            raise ValueError("high must exceed low")
        raw = self.next_u64() if n is None else self.fill_u64(n)
        return (raw % _U64(span)).astype(np.int64) + low

    def choice(self, weights) -> np.ndarray:
        """Per row, an index drawn proportionally to non-negative weights."""
        cum = np.cumsum(np.asarray(weights, dtype=np.float64))
        return np.searchsorted(cum, self.uniform() * cum[-1], side="right")


class Rng:
    """One xoshiro256** stream: the single row of a Streams, drawing a
    scalar when no shape is given and otherwise an array of that shape."""

    def __init__(self, seed: int, label: str = ""):
        self._row = Streams(seed, [label])

    def next_u64(self) -> np.uint64:
        return self._row.next_u64()[0]

    def fill_u64(self, n: int) -> np.ndarray:
        """n uint64s, one starstar output per splitmix-seeded xoshiro lane."""
        return self._row.fill_u64(n)[0]

    @staticmethod
    def _shaped(draw, shape, *args):
        """draw(*args) of the one row as a Python scalar, or draw(*args, n)
        of n values reshaped to shape."""
        if shape is None:
            return draw(*args)[0].item()
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        return draw(*args, math.prod(shape))[0].reshape(shape)

    def uniform(self, shape=None):
        """U[0, 1) with 53-bit resolution."""
        return self._shaped(self._row.uniform, shape)

    def normal(self, shape=None):
        """Standard normal variates via Box-Muller on paired uniforms."""
        return self._shaped(self._row.normal, shape)

    def integers(self, low: int, high: int, shape=None):
        """Uniform ints in [low, high)."""
        return self._shaped(self._row.integers, shape, low, high)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation as the argsort of fresh random keys."""
        return np.argsort(self.fill_u64(n), kind="stable")

    def choice(self, weights) -> int:
        """Index drawn proportionally to non-negative weights."""
        return int(self._row.choice(weights)[0])

