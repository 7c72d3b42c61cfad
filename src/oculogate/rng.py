"""Deterministic random numbers: xoshiro256** seeded via splitmix64.

One Rng = one stream. Substreams are derived from (seed, label) by folding
the label bytes into a splitmix64 sponge, so per-sample work can run in any
order and still reproduce bit-for-bit. Bulk fills are lane-parallel: each
call burns one draw of the parent stream as a sub-seed, expands it with the
splitmix64 chain into per-lane xoshiro states, and takes one starstar output
per lane (vectorized in uint64).

Because a stream's first fill depends only on its sponge state, that fill
can be derived for many streams at once, in the manner of counter-based
generators (Salmon et al., SC 2011): `substream_u64` returns the raw words
of many labels' first fills under one seed, one column-wise sponge pass per
label word count (each row folds its own byte length), and
`substream_normals` the normals of one label under many seeds.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

_M64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)
_U64 = np.uint64
_INV_2_53 = float(2.0 ** -53)
_BLOCK_VALUES = 1 << 16   # values per substream_u64 block (512 kB of uint64)


def _mix64_int(z: int) -> int:
    """splitmix64 output function on a Python int in [0, 2**64)."""
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _M64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _M64
    return z ^ (z >> 31)


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
    """xoshiro256** output from the state word s1 (uint64 scalar or array)."""
    return _rotl(s1 * _U64(5), 7) * _U64(9)


def _sponge_start(seed: int) -> int:
    return _mix64_int((seed + _GOLDEN_INT) & _M64)


def _sponge(seeds, words: np.ndarray, lengths) -> np.ndarray:
    """Column-wise sponge states of m labels of one word count W, given as
    their zero-padded words (m, W) uint64 and byte lengths (an (m,) uint64
    array or one length for all), under one seed in [0, 2**64) or an (m,)
    uint64 array of them; row r equals _sponge_int(seed of row r, label r)."""
    s = np.empty(words.shape[0], dtype=np.uint64)
    s[...] = seeds
    s += _GOLDEN
    _mix64(s)   # _sponge_start, column-wise
    for chunk in (*words.T, lengths):
        s ^= chunk
        s += _GOLDEN
        _mix64(s)
    return s


def _first_fill_seeds(seeds, words: np.ndarray, lengths) -> np.ndarray:
    """Per row of _sponge(seeds, words, lengths), the sub-seed of that
    stream's first fill_u64: its first draw, the starstar output of its
    state word s1 (the sponge's second splitmix output)."""
    s = _sponge(seeds, words, lengths)
    return _starstar(_mix64(s + _U64(2 * _GOLDEN_INT & _M64)))


def _sponge_int(seed: int, data: bytes) -> int:
    """Fold the seed, each zero-padded little-endian 8-byte chunk of the
    label and then its byte length through splitmix64."""
    s = _sponge_start(seed)
    for i in range(0, len(data), 8):
        s = _mix64_int(((s ^ int.from_bytes(data[i : i + 8], "little"))
                        + _GOLDEN_INT) & _M64)
    return _mix64_int(((s ^ len(data)) + _GOLDEN_INT) & _M64)


def _fill(sub, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """n starstar outputs (into out, if given) of the lanes seeded by sub, a
    scalar or an (m, 1) column, through the splitmix chain. A lane's word s1
    is its pair's second chain output: only even chain indices are derived."""
    z = np.add(sub, np.arange(2, 2 * n + 1, 2, dtype=np.uint64) * _GOLDEN, out=out)
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


class Rng:
    """xoshiro256** stream with labeled substreams and vectorized fills."""

    def __init__(self, seed: int, label: str = ""):
        s = _sponge_int(seed, label.encode("utf-8"))
        # expand the sponge into the 4 state words via the splitmix chain;
        # _mix64 is a bijection with _mix64(0) == 0, so the four distinct
        # inputs never give the forbidden all-zero state
        self._state = np.array([_mix64_int((s + k * _GOLDEN_INT) & _M64)
                                for k in range(1, 5)], dtype=np.uint64)

    def next_u64(self) -> np.uint64:
        """Advance the stream one step (reference xoshiro256** update)."""
        with np.errstate(over="ignore"):
            s0, s1, s2, s3 = self._state
            result = _starstar(s1)
            t = s1 << _U64(17)
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = _rotl(s3, 45)
            self._state = np.array([s0, s1, s2, s3], dtype=np.uint64)
        return result

    def fill_u64(self, n: int) -> np.ndarray:
        """n uint64s, one starstar output per splitmix-seeded xoshiro lane."""
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        return _fill(self.next_u64(), n)

    def uniform(self, shape=None) -> np.ndarray | float:
        """U[0, 1) with 53-bit resolution."""
        if shape is None:
            return float(self.next_u64() >> _U64(11)) * _INV_2_53
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        return _unit(self.fill_u64(n)).reshape(shape)

    def normal(self, shape=None):
        """Standard normal variates via Box-Muller on paired uniforms."""
        scalar = shape is None
        shape = (1,) if scalar else ((shape,) if isinstance(shape, int) else tuple(shape))
        n = int(np.prod(shape)) if shape else 1
        out = _box_muller(self.fill_u64(n + (n & 1)), n).reshape(shape)
        return float(out[0]) if scalar else out

    def integers(self, low: int, high: int, shape=None):
        """Uniform ints in [low, high). Modulo bias is negligible at our ranges."""
        span = high - low
        if span <= 0:
            raise ValueError("high must exceed low")
        if shape is None:
            return low + int(self.next_u64() % _U64(span))
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        vals = (self.fill_u64(n) % _U64(span)).astype(np.int64) + low
        return vals.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation as the argsort of fresh random keys."""
        return np.argsort(self.fill_u64(n), kind="stable")

    def choice(self, weights: np.ndarray) -> int:
        """Index drawn proportionally to non-negative weights."""
        cum = np.cumsum(np.asarray(weights, dtype=np.float64))
        return int(np.searchsorted(cum, self.uniform() * cum[-1], side="right"))


def substream_u64(seed: int, labels, n: int) -> np.ndarray:
    """(len(labels), n) uint64 array whose row r equals
    Rng(seed, labels[r]).fill_u64(n) bit for bit, derived for all labels at
    once: one sponge pass per label word count."""
    encoded = [label.encode("utf-8") for label in labels]
    by_words = defaultdict(list)
    for r, data in enumerate(encoded):
        by_words[-(-len(data) // 8)].append(r)
    sub = np.empty(len(encoded), dtype=np.uint64)
    for n_words, rows in by_words.items():
        padded = b"".join(encoded[r].ljust(8 * n_words, b"\0") for r in rows)
        words = np.frombuffer(padded, dtype="<u8").reshape(len(rows), n_words)
        lengths = np.array([len(encoded[r]) for r in rows], dtype=np.uint64)
        sub[rows] = _first_fill_seeds(int(seed) & _M64, words, lengths)
    out = np.empty((len(encoded), n), dtype=np.uint64)
    # fill a block of rows at a time so the uint64 temporaries stay in cache
    step = max(1, _BLOCK_VALUES // max(n, 1))
    for r in range(0, len(encoded), step):
        _fill(sub[r : r + step, None], n, out=out[r : r + step])
    return out


def substream_normals(seeds: np.ndarray, label: str, n: int) -> np.ndarray:
    """(len(seeds), n) array whose row r holds the standard normals behind
    Rng(seeds[r], label).normal(n), derived for all seeds at once; seeds is
    a uint64 array."""
    data = label.encode("utf-8")
    words = np.frombuffer(data.ljust(-(-len(data) // 8) * 8, b"\0"), dtype="<u8")
    sub = _first_fill_seeds(seeds, np.broadcast_to(words, (len(seeds), words.size)),
                            _U64(len(data)))
    return _box_muller(_fill(sub[:, None], n + (n & 1)), n)
