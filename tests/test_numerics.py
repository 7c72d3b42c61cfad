import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oculogate.errors import NumericError
from oculogate.model import _affine_grads
from oculogate.numerics import (ADAMW_BLOCK, Param, ParamStore, adamw_step,
                                binary_cross_entropy, binary_cross_entropy_grad,
                                sigmoid, smooth_l1, smooth_l1_grad)
from oculogate.rng import Rng

from helpers import grad_check


def naive_matmul(x, w, b):
    n, d = x.shape
    h = w.shape[1]
    out = np.zeros((n, h))
    for i in range(n):
        for j in range(h):
            acc = b[j]
            for k in range(d):
                acc += x[i, k] * w[k, j]
            out[i, j] = acc
    return out


def naive_affine_backward(g, x, w):
    """Gradients of y = x @ w + b, each through the triple-loop oracle."""
    n, d = x.shape
    h = w.shape[1]
    return (naive_matmul(g, w.T, np.zeros(d)), naive_matmul(x.T, g, np.zeros(h)),
            naive_matmul(np.ones((1, n)), g, np.zeros(h))[0])


def affine_grads(g, x, w):
    """(dx, dw, db) from the model's backward rule, with fresh dw and db
    buffers."""
    weight, bias = Param(w, np.empty(w.shape)), Param(None, np.empty(g.shape[1]))
    return _affine_grads(g, x, weight, bias), weight.grad, bias.grad


class TestAffine:
    """The affine layer's backward (model._affine_grads); the forward is
    the model's product rule inside DualStreamModel.forward."""

    def test_identity(self):
        eye = np.eye(2)
        dx, dw, db = affine_grads(eye, eye, eye)
        assert np.array_equal(dx, eye) and np.array_equal(dw, eye)
        assert np.array_equal(db, np.ones(2))

    def test_hand_arithmetic(self):
        dx, dw, db = affine_grads(np.array([[1.0]]), np.array([[1.0, 2.0]]),
                                  np.array([[1.0], [1.0]]))
        assert dx.tolist() == [[1.0, 1.0]]
        assert dw.tolist() == [[1.0], [2.0]] and db.tolist() == [1.0]

    def test_triple_loop_oracle_8x8(self):
        rng = Rng(2024, "affine")
        g, x, w = rng.normal((8, 8)), rng.normal((8, 8)), rng.normal((8, 8))
        for got, want in zip(affine_grads(g, x, w), naive_affine_backward(g, x, w)):
            assert np.abs(got - want).max() <= 1e-12

    def test_triple_loop_oracle_random_shapes(self):
        rng = Rng(77, "shapes")
        for trial in range(25):
            n = rng.integers(1, 17)
            d = rng.integers(1, 17)
            h = rng.integers(1, 17)
            g, x, w = rng.normal((n, h)), rng.normal((n, d)), rng.normal((d, h))
            for got, want in zip(affine_grads(g, x, w),
                                 naive_affine_backward(g, x, w)):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65, 257, 600])
    def test_triple_loop_oracle_across_row_blocks(self, n, strided):
        """Row counts on both sides of the 32-row input-gradient blocks and
        the 256-row weight-gradient blocks, with x contiguous or a strided
        column prefix as the trunk reads it."""
        rng = Rng(n, "row-blocks")
        g, w = rng.normal((n, 4)), rng.normal((5, 4))
        x = rng.normal((n, 9))[:, :5] if strided else rng.normal((n, 5))
        for got, want in zip(affine_grads(g, x, w), naive_affine_backward(g, x, w)):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 31, 32])
    def test_plain_products_up_to_32_rows(self, n):
        """Up to 32 rows the rule is the plain products, bit for bit."""
        rng = Rng(n, "plain")
        g, x, w = rng.normal((n, 256)), rng.normal((n, 134)), rng.normal((134, 256))
        dx, dw, db = affine_grads(g, x, w)
        assert dx.tobytes() == (g @ w.T).tobytes()
        assert dw.tobytes() == np.matmul(x.T, g).tobytes()
        assert db.tobytes() == g.sum(axis=0).tobytes()


class TestSmoothL1:
    def test_zero(self):
        assert smooth_l1(0.0, 0.0) == 0.0

    def test_quadratic_region(self):
        assert smooth_l1(0.5, 0.0) == 0.125

    def test_linear_region(self):
        assert smooth_l1(2.0, 0.0) == 1.5

    def test_c1_at_transition(self):
        # numerical left/right derivative at |d| = beta
        h = 1e-7
        left = (smooth_l1(1.0, 0.0) - smooth_l1(1.0 - h, 0.0)) / h
        right = (smooth_l1(1.0 + h, 0.0) - smooth_l1(1.0, 0.0)) / h
        assert abs(left - right) <= 1e-6
        assert abs(smooth_l1_grad(1.0 - 1e-12, 0.0) - smooth_l1_grad(1.0, 0.0)) <= 1e-9

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_continuous_and_nonnegative(self, p, t):
        v = smooth_l1(p, t)
        assert v >= 0.0
        h = 1e-6
        assert abs(smooth_l1(p + h, t) - v) < 2e-6 + abs(smooth_l1_grad(p, t)) * 2 * h

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            smooth_l1(np.inf, 0.0)


class TestBCE:
    def test_ln2_at_zero(self):
        assert abs(binary_cross_entropy(0.0, 1) - math.log(2)) <= 1e-12

    def test_saturation_no_overflow(self):
        assert binary_cross_entropy(30.0, 1) <= 1e-12
        assert binary_cross_entropy(-30.0, 0) <= 1e-12
        assert np.isfinite(binary_cross_entropy(700.0, 0))

    def test_high_precision_oracle(self):
        import mpmath
        from mpmath import mp, mpf

        mp.dps = 50
        rng = Rng(5, "bce")
        for _ in range(40):
            z = float(rng.normal() * 8)
            y = int(rng.uniform() < 0.5)
            got = binary_cross_entropy(z, y)
            sig = 1 / (1 + mpmath.exp(-mpf(z)))
            want = float(-(y * mpmath.ln(sig) + (1 - y) * mpmath.ln(1 - sig)))
            assert abs(got - want) / max(abs(want), 1e-300) <= 1e-10

    @given(st.floats(-50, 50), st.integers(0, 1))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, z, y):
        assert binary_cross_entropy(z, y) > 0.0  # zero only in the saturated limit

    def test_grad_matches_sigmoid(self):
        for z in (-3.0, 0.0, 4.0):
            for y in (0, 1):
                assert abs(binary_cross_entropy_grad(z, y) - (sigmoid(z) - y)) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            binary_cross_entropy(np.nan, 1)


def quad_store(theta):
    store = ParamStore({"theta": (1,)})
    store["theta"].value[0] = theta
    return store


class TestAdamW:
    def test_zero_grad_no_decay_is_identity(self):
        store = quad_store(1.0)
        adamw_step(store, lr=1e-4, wd=0.0)
        assert store["theta"].value[0] == 1.0

    def test_lr_zero_identity_on_values(self):
        store = quad_store(3.0)
        store["theta"].grad[:] = 2.5
        adamw_step(store, lr=0.0, wd=0.3)
        assert store["theta"].value[0] == 3.0

    def test_first_step_analytic(self):
        store = quad_store(1.0)
        store["theta"].grad[:] = 1.0
        adamw_step(store, lr=1e-4, wd=0.0)
        # bias-corrected m/v make the first step lr * g/(|g|+eps) ~ lr
        assert abs(store["theta"].value[0] - (1.0 - 1e-4)) <= 1e-9

    def test_descends_quadratic(self):
        store = quad_store(1.0)
        values = [1.0]
        for _ in range(3):
            store["theta"].grad[:] = 2.0 * store["theta"].value
            adamw_step(store, lr=1e-2, wd=0.0)
            values.append(float(store["theta"].value[0]))
        assert values == sorted(values, reverse=True)
        assert values[-1] < values[0]

    def test_nan_grad_leaves_state(self):
        store = quad_store(1.0)
        store["theta"].grad[:] = np.nan
        with pytest.raises(NumericError):
            adamw_step(store, lr=1e-4, wd=1e-4)
        assert store["theta"].value[0] == 1.0
        assert store.step_count == 0

    def test_step_count_increments(self):
        store = quad_store(1.0)
        store["theta"].grad[:] = 0.1
        adamw_step(store, lr=1e-4, wd=1e-4)
        adamw_step(store, lr=1e-4, wd=1e-4)
        assert store.step_count == 2

    def test_decay_applied_before_update(self):
        store = quad_store(10.0)
        store["theta"].grad[:] = 0.0
        adamw_step(store, lr=0.5, wd=0.1)
        assert abs(store["theta"].value[0] - 10.0 * (1 - 0.05)) <= 1e-12


def per_entry_adamw(entries, lr=1e-4, wd=1e-4, beta1=0.9, beta2=0.999,
                    eps=1e-8):
    """Reference: one AdamW update per entry of {name: dict(value, grad, m1,
    m2, t)}, with the op order of the flat step."""
    for e in entries.values():
        e["t"] += 1
        t = e["t"]
        e["value"] *= 1.0 - lr * wd
        e["m1"] *= beta1
        e["m1"] += (1.0 - beta1) * e["grad"]
        e["m2"] *= beta2
        e["m2"] += (1.0 - beta2) * (e["grad"] * e["grad"])
        denom = np.sqrt(e["m2"] / (1.0 - beta2 ** t))
        denom += eps
        e["value"] -= lr * (e["m1"] / (1.0 - beta1 ** t)) / denom


def mixed_store(seed=5):
    layout = {"a.W": (4, 3), "a.b": (3,), "head.W": (7, 1), "c": (2, 2, 2)}
    store = ParamStore(layout)
    rng = Rng(seed, "mixed")
    for name, shape in layout.items():
        store[name].value[...] = rng.normal(shape)
    return store


def straddling_store(seed=5):
    """2*ADAMW_BLOCK + 7 values over entries whose edges fall on both sides
    of each block edge, so the blocked step crosses into a short last
    block."""
    b = ADAMW_BLOCK
    layout = {"lead": (b - 3,), "edge1.W": (2, 5), "mid": (b - 10, 1),
              "edge2": (6,), "tail.W": (2, 2)}
    assert sum(math.prod(shape) for shape in layout.values()) == 2 * b + 7
    store = ParamStore(layout)
    rng = Rng(seed, "straddle")
    for name, shape in layout.items():
        store[name].value[...] = rng.normal(shape)
    return store


def assert_matches_per_entry_oracle(store):
    """Five steps of the flat store against per_entry_adamw, bit for bit."""
    ref = {name: {"value": p.value.copy(), "grad": None, "t": 0,
                  "m1": np.zeros_like(p.value), "m2": np.zeros_like(p.value)}
           for name, p in store.entries.items()}
    rng = Rng(6, "grads")
    for step in range(5):
        for name, p in store.entries.items():
            p.grad[...] = rng.normal(p.grad.shape) * 10.0 ** (step - 2)
            ref[name]["grad"] = p.grad.copy()
        adamw_step(store, lr=1e-2, wd=0.1)
        per_entry_adamw(ref, lr=1e-2, wd=0.1)
        for name, p in store.entries.items():
            assert np.array_equal(p.value, ref[name]["value"])
    assert store.step_count == 5
    offset = 0
    for name, e in ref.items():
        size = e["value"].size
        assert np.array_equal(store.m1[offset:offset + size], e["m1"].ravel())
        assert np.array_equal(store.m2[offset:offset + size], e["m2"].ravel())
        offset += size


class TestFlatStore:
    def test_matches_per_entry_oracle_bitwise(self):
        assert_matches_per_entry_oracle(mixed_store())

    def test_crosses_block_edges_bitwise(self):
        assert_matches_per_entry_oracle(straddling_store())

    def test_nonfinite_grad_leaves_all_state(self):
        store = mixed_store()
        store.grad[...] = 0.5
        adamw_step(store, lr=1e-2, wd=1e-4)
        before = [store.value.copy(), store.m1.copy(), store.m2.copy()]
        store["head.W"].grad[3, 0] = np.inf
        with pytest.raises(NumericError, match="'head.W'"):
            adamw_step(store, lr=1e-2, wd=1e-4)
        for kept, now in zip(before, (store.value, store.m1, store.m2)):
            assert np.array_equal(kept, now)
        assert store.step_count == 1

    def test_nonfinite_grad_in_last_block_leaves_all_state(self):
        store = straddling_store()
        store.grad[...] = 0.5
        adamw_step(store, lr=1e-2, wd=1e-4)
        before = [store.value.copy(), store.m1.copy(), store.m2.copy()]
        store["tail.W"].grad[1, 1] = np.nan
        with pytest.raises(NumericError, match="'tail.W'"):
            adamw_step(store, lr=1e-2, wd=1e-4)
        for kept, now in zip(before, (store.value, store.m1, store.m2)):
            assert np.array_equal(kept, now)
        assert store.step_count == 1

    def test_entries_are_views_of_the_flat_vectors(self):
        store = mixed_store()
        for name, p in store.entries.items():
            assert np.shares_memory(store.value, p.value)
            assert np.shares_memory(store.grad, p.grad)
        store.value[:] = 2.0
        assert (store["c"].value == 2.0).all()
        store["a.b"].grad[1] = 3.0
        assert store.grad[12 + 1] == 3.0
        assert store.value.size == 12 + 3 + 7 + 8


class TestGradCheck:
    def test_linear_quadratic_exact(self):
        rng = Rng(8, "gc")
        x = rng.normal((6, 3))
        t = rng.normal(6)
        store = ParamStore({"w": (3,)})
        store["w"].value[...] = rng.normal(3)

        def model():
            pred = x @ store["w"].value
            r = pred - t
            store["w"].grad[...] = 2.0 * x.T @ r / 6.0
            return float((r * r).mean())

        assert grad_check(model, store) <= 1e-7

    def test_corrupted_gradient_detected(self):
        rng = Rng(9, "gc2")
        x = rng.normal((6, 3))
        t = rng.normal(6)
        store = ParamStore({"w": (3,)})
        store["w"].value[...] = rng.normal(3)

        def model():
            pred = x @ store["w"].value
            r = pred - t
            store["w"].grad[...] = 2.0 * (2.0 * x.T @ r / 6.0)  # doubled on purpose
            return float((r * r).mean())

        assert grad_check(model, store) >= 0.4
