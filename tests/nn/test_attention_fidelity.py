"""Row-subset / reduced-precision attention primitives and their bounds.

``MultiHeadSelfAttention.forward_rows`` / ``forward_rows_batch`` are the
fidelity layer's kernels: full-row float64 calls must mirror ``__call__``
(same arithmetic, so bit-identical), row subsets must equal the matching
slice of the full output up to BLAS-blocking round-off, and float32 runs
must stay within single-precision error of the float64 reference.  The
hypothesis suite drives random token sets and row subsets through those
bounds; ``Linear.at`` and the float32-preserving softmax are pinned
alongside since the kernels lean on both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import attention as attention_module
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.linear import Linear
from repro.nn.ops import layer_norm, softmax


def _tokens(seed, count, dim=16, scale=3.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=(count, dim))


@pytest.fixture(scope="module")
def attention():
    return MultiHeadSelfAttention(dim=16, num_heads=2, rng=7)


class TestForwardRowsParity:
    def test_all_rows_float64_bit_identical_to_call(self, attention):
        tokens = _tokens(0, 24)
        assert np.array_equal(attention(tokens), attention.forward_rows(tokens))

    def test_multi_row_tiles_close_to_one_tile(self, attention, monkeypatch):
        tokens = _tokens(1, 12)
        rows = np.array([0, 3, 5, 11])
        full, subset = attention(tokens), attention.forward_rows(tokens, rows)
        monkeypatch.setattr(attention_module, "_TILE_BYTES", 1)
        assert np.max(np.abs(attention(tokens) - full)) <= 1e-12
        assert np.max(np.abs(attention.forward_rows(tokens, rows) - subset)) <= 1e-12

    def test_row_subset_close_to_full_slice(self, attention):
        tokens = _tokens(2, 30)
        full = attention(tokens)
        rows = np.array([1, 4, 17, 29])
        subset = attention.forward_rows(tokens, rows)
        assert np.allclose(subset, full[rows], atol=1e-10)

    def test_float32_close_to_float64(self, attention):
        tokens = _tokens(3, 20)
        exact = attention.forward_rows(tokens)
        approx = attention.forward_rows(tokens, dtype=np.float32)
        assert approx.dtype == np.float32
        assert np.max(np.abs(approx - exact)) < 1e-4

    def test_batch_matches_single_elements(self, attention):
        batch = np.stack([_tokens(s, 18) for s in (4, 5, 6)], axis=0)
        rows = np.array([[0, 2, 9], [1, 3, 17], [5, 6, 7]])
        batched = attention.forward_rows_batch(batch, rows)
        assert batched.shape == (3, 3, 16)
        for index in range(3):
            single = attention.forward_rows(batch[index], rows[index])
            assert np.allclose(batched[index], single, atol=1e-10)


class TestLinearAt:
    def test_float64_delegates_to_call(self):
        linear = Linear(8, 5, np.random.default_rng(0))
        x = _tokens(7, 6, dim=8)
        assert np.array_equal(linear(x), linear.at(x))

    def test_float32_uses_cast_weights(self):
        linear = Linear(8, 5, np.random.default_rng(0))
        x = _tokens(8, 6, dim=8)
        out = linear.at(x, np.float32)
        assert out.dtype == np.float32
        expected = x.astype(np.float32) @ linear.weight.astype(
            np.float32
        ) + linear.bias.astype(np.float32)
        assert np.allclose(out, expected, atol=1e-5)

    def test_cast_cache_is_reused(self):
        linear = Linear(8, 5, np.random.default_rng(0))
        linear.at(_tokens(9, 4, dim=8), np.float32)
        first = linear._param_casts["float32"]
        linear.at(_tokens(10, 4, dim=8), np.float32)
        assert linear._param_casts["float32"] is first

    def test_reassigned_weights_invalidate_cast(self):
        linear = Linear(8, 5, np.random.default_rng(0))
        x = _tokens(11, 4, dim=8)
        linear.at(x, np.float32)
        linear.weight = np.zeros_like(linear.weight)
        out = linear.at(x, np.float32)
        assert np.allclose(out, 0.0)


class TestSoftmaxDtype:
    def test_float32_preserved(self):
        x = np.random.default_rng(1).normal(size=(4, 9)).astype(np.float32)
        out = softmax(x, axis=-1)
        assert out.dtype == np.float32
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_float64_unchanged(self):
        x = np.random.default_rng(2).normal(size=(4, 9))
        out = softmax(x, axis=-1)
        assert out.dtype == np.float64
        reference = np.exp(x - x.max(axis=-1, keepdims=True))
        reference /= reference.sum(axis=-1, keepdims=True)
        assert np.allclose(out, reference, atol=1e-12)

    def test_integer_input_promotes_to_float64(self):
        out = softmax(np.array([[0, 1, 2]]), axis=-1)
        assert out.dtype == np.float64


class TestErrorBoundsProperty:
    """Hypothesis-driven bounds on the approximate attention kernels."""

    @given(
        seed=st.integers(0, 2**16),
        count=st.integers(4, 32),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_subset_error_bound(self, attention, seed, count, data):
        tokens = _tokens(seed, count)
        size = data.draw(st.integers(1, count), label="subset size")
        rows = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, count - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                ),
                label="rows",
            )
        )
        full = attention(tokens)
        subset = attention.forward_rows(tokens, rows)
        assert np.max(np.abs(subset - full[rows])) < 1e-9

    @given(seed=st.integers(0, 2**16), count=st.integers(4, 32))
    @settings(max_examples=40, deadline=None)
    def test_float32_error_bound(self, attention, seed, count):
        tokens = _tokens(seed, count)
        exact = attention(tokens)
        approx = attention.forward_rows(tokens, dtype=np.float32)
        # layer_norm outputs are O(1), so single-precision round-off through
        # two matmuls and a softmax stays well under 1e-3.
        assert np.max(np.abs(approx - exact)) < 1e-3

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_rows_output_is_normalized(self, attention, seed):
        tokens = _tokens(seed, 16)
        rows = np.array([0, 5, 11])
        out = attention.forward_rows(tokens, rows, dtype=np.float32)
        reference = layer_norm(out.astype(np.float64), axis=-1)
        assert np.allclose(out, reference, atol=1e-4)
