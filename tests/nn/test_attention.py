"""Tests for scaled dot-product and multi-head self-attention."""

import numpy as np
import pytest

from repro.nn import attention as attention_module
from repro.nn.attention import (
    MultiHeadSelfAttention,
    attend,
    scaled_dot_product_attention,
)
from repro.nn.ops import layer_norm, softmax


def _qkv(seed, batch=(), queries=12, keys=20, dim=8, value_dim=5, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(0.0, 2.0, size=batch + (queries, dim)).astype(dtype),
        rng.normal(0.0, 2.0, size=batch + (keys, dim)).astype(dtype),
        rng.normal(0.0, 1.0, size=batch + (keys, value_dim)).astype(dtype),
    )


class TestAttend:
    def test_one_tile_bit_identical_to_untiled_expression(self):
        q, k, v = _qkv(0)
        temperature = 1.7
        expected = softmax(q @ k.T / temperature, axis=-1) @ v
        assert np.array_equal(attend(q, k, v, temperature), expected)

    # Default budget (all six images in one tile), two whole images per
    # tile, and five-row tiles within each image.
    @pytest.mark.parametrize("tile_bytes", [None, 2 * 12 * 20 * 8, 5 * 20 * 8])
    def test_batched_elements_bit_identical_to_single_calls(
        self, tile_bytes, monkeypatch
    ):
        if tile_bytes is not None:
            monkeypatch.setattr(attention_module, "_TILE_BYTES", tile_bytes)
        q, k, v = _qkv(1, batch=(3, 2))
        batched = attend(q, k, v, 2.0)
        assert batched.shape == (3, 2, 12, 5)
        for index in np.ndindex(3, 2):
            single = attend(q[index], k[index], v[index], 2.0)
            assert np.array_equal(batched[index], single)

    def test_multi_row_tiles_close_to_untiled(self, monkeypatch):
        q, k, v = _qkv(2, batch=(2,), queries=37, keys=29)
        untiled = attend(q, k, v, 1.3)
        # Three query rows of 29 float64 scores per tile: 13 tiles per image.
        monkeypatch.setattr(attention_module, "_TILE_BYTES", 3 * 29 * 8)
        tiled = attend(q, k, v, 1.3)
        assert np.max(np.abs(tiled - untiled)) <= 1e-12
        monkeypatch.setattr(attention_module, "_TILE_BYTES", 1)
        single_rows = attend(q, k, v, 1.3)
        assert np.max(np.abs(single_rows - untiled)) <= 1e-12

    def test_float32_stays_float32(self):
        q, k, v = _qkv(3, dtype=np.float32)
        out = attend(q, k, v, 2.0)
        assert out.dtype == np.float32
        exact = attend(*(a.astype(np.float64) for a in (q, k, v)), 2.0)
        assert np.max(np.abs(out - exact)) < 1e-5

    def test_mismatched_shapes_rejected(self):
        q, k, v = _qkv(4, batch=(2,))
        with pytest.raises(ValueError):
            attend(q[..., :4], k, v, 1.0)
        with pytest.raises(ValueError):
            attend(q, k, v[:, :3], 1.0)
        with pytest.raises(ValueError):
            attend(q[:1], k, v, 1.0)


class TestScaledDotProductAttention:
    def test_weights_are_a_distribution(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(5, 8))
        k = rng.normal(size=(7, 8))
        v = rng.normal(size=(7, 8))
        attended, weights = scaled_dot_product_attention(q, k, v)
        assert attended.shape == (5, 8)
        assert weights.shape == (5, 7)
        assert np.allclose(weights.sum(axis=-1), 1.0)
        assert np.all(weights >= 0)

    def test_identical_keys_give_uniform_weights(self):
        q = np.ones((2, 4))
        k = np.ones((3, 4))
        v = np.arange(12, dtype=float).reshape(3, 4)
        _, weights = scaled_dot_product_attention(q, k, v)
        assert np.allclose(weights, 1.0 / 3.0)

    def test_dominant_key_attracts_attention(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[10.0, 0.0], [-10.0, 0.0]])
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        attended, weights = scaled_dot_product_attention(q, k, v)
        assert weights[0, 0] > 0.99
        assert attended[0, 0] > 0.99

    def test_temperature_controls_sharpness(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[1.0, 0.0], [0.5, 0.0]])
        v = np.eye(2)
        _, sharp = scaled_dot_product_attention(q, k, v, temperature=0.05)
        _, soft = scaled_dot_product_attention(q, k, v, temperature=50.0)
        assert sharp[0, 0] > soft[0, 0]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            scaled_dot_product_attention(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 4)))
        with pytest.raises(ValueError):
            scaled_dot_product_attention(np.ones((2, 3)), np.ones((2, 3)), np.ones((5, 3)))


class TestMultiHeadSelfAttention:
    def test_output_shape_preserved(self):
        attention = MultiHeadSelfAttention(dim=16, num_heads=2, rng=0)
        tokens = np.random.default_rng(0).normal(size=(10, 16))
        assert attention(tokens).shape == (10, 16)

    def test_matches_explicit_attention_matrices(self):
        # Each head attends through the tiled kernel; the layer output equals
        # the textbook form built from full per-head weight matrices.
        attention = MultiHeadSelfAttention(dim=8, num_heads=2, rng=0)
        tokens = np.random.default_rng(1).normal(size=(6, 8))
        query = attention.query_proj(tokens).reshape(6, 2, 4)
        key = attention.key_proj(tokens).reshape(6, 2, 4)
        value = attention.value_proj(tokens).reshape(6, 2, 4)
        heads = []
        for head in range(2):
            _, weights = scaled_dot_product_attention(
                query[:, head], key[:, head], value[:, head]
            )
            assert np.allclose(weights.sum(axis=-1), 1.0)
            heads.append(weights @ value[:, head])
        expected = layer_norm(
            tokens + attention.out_proj(np.concatenate(heads, axis=-1)), axis=-1
        )
        assert np.max(np.abs(attention(tokens) - expected)) <= 1e-12

    def test_deterministic_given_seed(self):
        tokens = np.random.default_rng(2).normal(size=(5, 8))
        a = MultiHeadSelfAttention(dim=8, num_heads=2, rng=7)(tokens)
        b = MultiHeadSelfAttention(dim=8, num_heads=2, rng=7)(tokens)
        assert np.allclose(a, b)

    def test_global_connectivity(self):
        # Changing a single token changes the output of *other* tokens —
        # the defining property of self-attention exploited by the paper.
        attention = MultiHeadSelfAttention(dim=8, num_heads=2, rng=0)
        tokens = np.random.default_rng(3).normal(size=(6, 8))
        baseline = attention(tokens)
        modified_tokens = tokens.copy()
        modified_tokens[5] += 5.0
        modified = attention(modified_tokens)
        assert not np.allclose(baseline[0], modified[0])

    def test_dim_must_be_divisible_by_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(dim=10, num_heads=3)

    def test_wrong_token_dim_rejected(self):
        attention = MultiHeadSelfAttention(dim=8, num_heads=2, rng=0)
        with pytest.raises(ValueError):
            attention(np.zeros((4, 9)))
