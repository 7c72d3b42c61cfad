import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oculogate.rng import Rng, Streams

from helpers import reference_draws, reference_fill

GOLDEN = {
    # (seed, label, n): sha256 of fill_u64(n), uniform(n), normal(n)
    (0, '', 1): (
        "3b868cfe94dfd5f94e1125098b3804b559892a5cf28bf1207dd16127aa840181",
        "69fb32217c41f3986678df51a9b026271ebe61494cd7b4ebe3a99aa9ca8c72ea",
        "36997da959846d749f8b63d495c9fd7f0728df67dd43959090396708e12eca66",
    ),
    (0, '', 7): (
        "d6c3f7dacc7a5a81c6734a80a1994ec318ef4e8bffe167cac818bda5e962ed7d",
        "f2aff88173f8caf617f01ffc3a3e75d28eaa25788d44e66db6efc962aff607e8",
        "a0c04f7f660dfc69658aff93552348ae2272d72358ceb2064dd611ee11db19d8",
    ),
    (0, '', 2560): (
        "06d738682c06b26be5b85421ca0445bf9cd0aa91f4aabbadfd976750dc2e2d0a",
        "c0d6ddd741e9e309eea94cc3215d1a0ab54471514003efc1358d72b4f282b3e0",
        "da229cac7d26cdf1d15c54816964fbc4e1eb41fe5cbdf3f5618fad6f3e197d55",
    ),
    (7, 'mc/P00012#3/14', 1): (
        "4db741493b7795a7e8ea45645ebfc173fcf6699682665d1b135981d131da31fc",
        "b97f970b2acce410a30c008317a645de5e355845ed737c2c23078765c54f42ca",
        "15cc80a21e9927425e61f0826f19cdcb8b60a96550b3c0a9fb1effcd5ee1926b",
    ),
    (7, 'mc/P00012#3/14', 7): (
        "4b8459f18832884b40ab2e7d1c889fbc7efe2b5105939a80b1b0eccc58107af6",
        "9b6dbee669e22d923d75ce3569867cd17681e44d3b28263b6213e709afc9c318",
        "74be6352af411e0f0562796268464c5f459f5fc66068175f21ffb73d331b4400",
    ),
    (7, 'mc/P00012#3/14', 2560): (
        "8498fae794f5c8c9be75e103e1bf2732740337b7f8a06677d3b33c80e8fd93d7",
        "9253236fc63a3073147452fa0c442132f0ec048461d75763defe7636050b7d53",
        "ddbdd2fe0d9caa9607cee559836e37a4466caa18016985d28dc72cb7a6c054c6",
    ),
    (2**64 - 1, 'visual-projection', 1): (
        "079f3ceb8a3210855ecdb7d8e28aed032a0b94257f09c395859143d2005f594b",
        "7583695e3a9b3a70ef1b934b99da9e0000d229eb4d4ae8456e507b97ef77a6cc",
        "3745cb5191c8280a8e3fc107973c5ba6be1cf557c115a599f208463fb6e659cf",
    ),
    (2**64 - 1, 'visual-projection', 7): (
        "d579da908f8f3064b28449a55d53c9838e7713814b90ef054e11d846b6e3d282",
        "481f4b39832d56dbbc4ed1e270c7f3671aa145f86be0f7f125a50dd8a91d9204",
        "ab1d4b6a5672f073407b419e2149230ed6e68062588e23f3462cdc452116ef3d",
    ),
    (2**64 - 1, 'visual-projection', 2560): (
        "fec11e03667eb93a7e15fe34c0aac9ec7298247663db8cbc720a4d3782aab90b",
        "c9643364b2f7796b043d846040eafc31214ef38c88500e70e289aa3b76042f88",
        "7421b9af179c4e4fce181a29f823d44ace9c7edc8c6757b483af114d5d6a8d08",
    ),
    (12345, 'é/ü/漢字', 1): (
        "01dfa35874d253d09d24cb839db1940bb5eb01a9ce8f3029e0bca204a4a5ff52",
        "88403516f4d0327ac7b500cdc8a0088c5fe77d8caaddb7e9cb77377da1107b72",
        "ed609205588fb2620d8f978ca4f7c475bff788f4f2b7de0c58867ac25ea1889d",
    ),
    (12345, 'é/ü/漢字', 7): (
        "fd1f56369e9fafb256d8a013e9f9b230fb1d7907b081e62de1e249d3b578676e",
        "9a52f11efe711804918f5da3bb2389317a2f222d7aa0b84701f366007988b25b",
        "d14cc855b70ab1cf729af5c455a9a6cd07a5903e59f7da214537863df565b610",
    ),
    (12345, 'é/ü/漢字', 2560): (
        "55cb8f6bdd97139715285ef62bd80233f918fb92e82484336fea398127af9610",
        "7245881e724cbe387d886db516a867a9d6c0591a2060368ee292d7ee2394665e",
        "ac605f505499f4a364edf2dd1b1073e5319f9e53cb7d5886baaf4510b62fdce8",
    ),
}


def test_same_seed_same_stream():
    a = Rng(1234)
    b = Rng(1234)
    assert [int(a.next_u64()) for _ in range(20)] == \
           [int(b.next_u64()) for _ in range(20)]


def test_substreams_differ_and_reproduce():
    a = Rng(7, "alpha").uniform(256)
    b = Rng(7, "beta").uniform(256)
    a2 = Rng(7, "alpha").uniform(256)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).fill_u64(64), Rng(2).fill_u64(64))


def test_uniform_range_and_moments():
    u = Rng(99).uniform(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 5e-3
    assert abs(u.std() - np.sqrt(1 / 12)) < 5e-3


def test_normal_moments():
    z = Rng(11).normal(200_000)
    assert abs(z.mean()) < 1e-2
    assert abs(z.std() - 1.0) < 1e-2


def test_permutation_is_permutation():
    perm = Rng(3).permutation(1000)
    assert sorted(perm.tolist()) == list(range(1000))


def test_integers_in_range():
    v = Rng(5).integers(3, 9, 10_000)
    assert v.min() >= 3 and v.max() <= 8
    assert set(np.unique(v)) == set(range(3, 9))


def test_scalar_draws_deterministic():
    r1, r2 = Rng(42, "s"), Rng(42, "s")
    assert r1.uniform() == r2.uniform()
    assert r1.normal() == r2.normal()
    assert r1.integers(0, 100) == r2.integers(0, 100)


@pytest.mark.parametrize("shape", [(3, 4), (2, 2, 2), 7])
def test_shapes(shape):
    u = Rng(1).uniform(shape)
    expected = (shape,) if isinstance(shape, int) else shape
    assert u.shape == expected


def _sha(values: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(values.astype(dtype).tobytes()).hexdigest()


@pytest.mark.parametrize("seed,label,n", sorted(GOLDEN, key=repr))
def test_golden_streams(seed, label, n):
    """The streams every seeded artifact rests on, pinned by digest."""
    assert (_sha(Rng(seed, label).fill_u64(n), "<u8"),
            _sha(Rng(seed, label).uniform(n), "<f8"),
            _sha(Rng(seed, label).normal(n), "<f8")) == GOLDEN[(seed, label, n)]


# labels of 7, 8, 9, 16 and 17 bytes sit on either side of the sponge's
# 8-byte chunk boundaries; the others add the empty label and multi-byte UTF-8
EDGE_LABELS = ["", "a" * 7, "b" * 8, "c" * 9, "d" * 16, "e" * 17, "é", "é" * 4,
               "mc/漢字/3", "mc/P00012#3/14"]
SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


@given(SEEDS, st.lists(st.one_of(st.sampled_from(EDGE_LABELS), st.text(max_size=20)),
                       min_size=1, max_size=12),
       st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_streams_fill_equals_per_label_streams(seed, labels, n):
    got = Streams(seed, labels).fill_u64(n)
    want = np.stack([Rng(seed, label).fill_u64(n) for label in labels])
    assert got.dtype == np.uint64 and got.shape == (len(labels), n)
    assert got.tobytes() == want.tobytes()


def test_streams_fill_edge_labels_and_seeds():
    for seed in (0, 2**64 - 1):
        got = Streams(seed, EDGE_LABELS).fill_u64(2560)
        for row, label in zip(got, EDGE_LABELS):
            assert row.tobytes() == Rng(seed, label).fill_u64(2560).tobytes()


def test_streams_group_labels_by_word_count(monkeypatch):
    """Gate labels mc/<sid>/<i> with i < 10 and i >= 10 differ in byte
    length but not in word count: one sponge pass serves them all."""
    import oculogate.rng as rng_module

    calls = []
    sponge = rng_module._sponge

    def recording(seeds, words, lengths):
        calls.append(words.shape)
        return sponge(seeds, words, lengths)

    monkeypatch.setattr(rng_module, "_sponge", recording)
    labels = [f"mc/P00012#3/{i}" for i in range(15)]
    got = Streams(7, labels).fill_u64(5)
    assert calls == [(15, 2)]
    for row, label in zip(got, labels):
        assert row.tobytes() == Rng(7, label).fill_u64(5).tobytes()


@given(SEEDS, st.lists(st.one_of(st.sampled_from(EDGE_LABELS), st.text(max_size=20)),
                       min_size=1, max_size=6),
       st.integers(0, 40), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_fill_prefix_is_a_shorter_fill(seed, labels, n, k):
    """The first k lanes of a fill of n >= k are a fill of k on a fresh
    stream: a lane depends only on the sub-seed and its number."""
    k = min(k, n)
    assert Streams(seed, labels).fill_u64(n)[:, :k].tobytes() == \
        Streams(seed, labels).fill_u64(k).tobytes()


ANY_SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1, -1, -7, 2**70 + 3]),
                      st.integers(-2**70, 2**70))
LABELS = st.one_of(st.sampled_from(EDGE_LABELS), st.text(max_size=20))


@given(ANY_SEEDS, LABELS, st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_rng_follows_the_reference_xoshiro(seed, label, n):
    """Rng is checked against xoshiro256** in Python ints: the draws of the
    stream, and the lanes of a fill seeded by its next draw."""
    rng = Rng(seed, label)
    draws = reference_draws(seed, label, 4)
    assert [int(rng.next_u64()) for _ in range(3)] == draws[:3]
    assert rng.fill_u64(n).tolist() == reference_fill(draws[3], n)


# a draw program: (method, argument) steps applied to every stream
STEPS = st.one_of(
    st.tuples(st.just("next_u64"), st.none()),
    st.tuples(st.sampled_from(["uniform", "normal"]),
              st.one_of(st.none(), st.integers(0, 9))),
    st.tuples(st.just("fill_u64"), st.integers(0, 9)),
    st.tuples(st.just("integers"), st.one_of(st.none(), st.integers(0, 5))),
    st.tuples(st.just("prefix"), st.integers(0, 2**32)),
)


def _step(streams, method: str, arg):
    """One step of a draw program on a Streams or an Rng."""
    if method == "next_u64":
        return streams.next_u64()
    if method == "integers":
        return streams.integers(-3, 40, arg)
    return getattr(streams, method)(arg)


@given(st.one_of(ANY_SEEDS, st.lists(ANY_SEEDS, min_size=1, max_size=8)),
       st.lists(LABELS, min_size=1, max_size=8), st.lists(STEPS, max_size=6))
@settings(max_examples=80, deadline=None)
def test_streams_rows_equal_per_label_rng(seeds, labels, program):
    """Row r of Streams(seeds, labels) draws what Rng(seeds[r], labels[r])
    draws, step for step, through any program of column draws; the first
    c lanes of a common-width fill are what its Rng draws with a fill of
    max(c, 1), as the cohort's visit gaps rely on."""
    if isinstance(seeds, list):
        labels = (labels * len(seeds))[: len(seeds)]
        row_seeds = seeds
    else:
        row_seeds = [seeds] * len(labels)
    streams = Streams(seeds, labels)
    rows = [Rng(seed, label) for seed, label in zip(row_seeds, labels)]
    assert streams.size == len(labels)
    for method, arg in program:
        if method == "prefix":
            counts = [(arg >> (4 * r)) % 4 for r in range(len(rows))]
            fill = streams.fill_u64(max(max(counts), 1))
            got = [row[:c] for row, c in zip(fill, counts)]
            want = [rng.fill_u64(max(c, 1))[:c] for rng, c in zip(rows, counts)]
        else:
            got = _step(streams, method, arg)
            want = [_step(rng, method, arg) for rng in rows]
        for r, w in enumerate(want):
            g = np.asarray(got[r])
            assert g.tobytes() == np.asarray(w, dtype=g.dtype).tobytes(), (method, arg, r)


@given(st.lists(ANY_SEEDS, max_size=6), LABELS, st.integers(0, 9))
@settings(max_examples=40, deadline=None)
def test_one_label_streams_follow_each_seed(seeds, label, n):
    """One label for every seed, as the raster noise and the trajectories
    draw it."""
    streams = Streams(seeds, label)
    got = streams.normal(n)
    assert got.shape == (len(seeds), n)
    for row, seed in zip(got, seeds):
        assert row.tobytes() == Rng(seed, label).normal(n).tobytes()
