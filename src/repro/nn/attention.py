"""The attention kernel and multi-head self-attention (forward pass only)."""

from __future__ import annotations

import numpy as np

from repro.nn.linear import Linear
from repro.nn.ops import layer_norm, softmax

#: Byte budget of one score tile in :func:`attend`.  A tile holds as many
#: whole images' score matrices as fit, or a block of one image's query
#: rows when a single image does not fit, so memory grows with the token
#: count, not with its square.  2 MiB measured faster than 8 MiB on a
#: 2-vCPU host, both for batch-16 attention at 480 tokens (one image per
#: tile) and for a 7,332-token image (35- vs 143-row tiles).
_TILE_BYTES = 2 << 20


def attention_weights(
    query: np.ndarray, key: np.ndarray, temperature: float
) -> np.ndarray:
    """The full attention matrix ``softmax(query keyᵀ / temperature)``.

    Only for callers that need the matrix itself (analysis, heatmaps);
    attended values come from :func:`attend`, which never builds it.
    """
    scores = query @ np.swapaxes(key, -1, -2)
    return softmax(scores, axis=-1, temperature=temperature)


def attend(
    query: np.ndarray,
    key: np.ndarray,
    value: np.ndarray,
    temperature: float,
) -> np.ndarray:
    """``softmax(query keyᵀ / temperature) @ value`` in byte-bounded tiles.

    Inputs are ``(..., queries, dim)``, ``(..., keys, dim)`` and ``(...,
    keys, value_dim)`` with equal leading (batch) axes.  The work runs in
    tiles whose scores stay under :data:`_TILE_BYTES`: several whole
    images when their score matrices fit together, else blocks of one
    image's query rows.  No unbounded (batch, queries, keys) stack is
    built.  Stacked products and the row-wise softmax treat each batch
    element on its own, so element ``i`` of a batched call is
    bit-identical to a call on element ``i`` alone.  When one tile holds
    all of an image's query rows the result is bit-identical to the
    untiled expression; row tiles can shift the ``@ value`` product by
    BLAS blocking round-off.  The output has the inputs' floating dtype,
    so float32 stays float32.
    """
    query = np.asarray(query)
    key = np.asarray(key)
    value = np.asarray(value)
    if query.shape[-1] != key.shape[-1]:
        raise ValueError("query and key feature dimensions differ")
    if key.shape[-2] != value.shape[-2]:
        raise ValueError("key and value token counts differ")
    batch_shape = query.shape[:-2]
    if key.shape[:-2] != batch_shape or value.shape[:-2] != batch_shape:
        raise ValueError("query, key and value batch axes differ")
    dtype = np.result_type(query, key, value, np.float32)
    n_queries, n_keys = query.shape[-2], key.shape[-2]
    # One leading axis; a view for the (batch, tokens, dim) inputs callers pass.
    query = query.reshape((-1,) + query.shape[-2:])
    key = key.reshape((-1,) + key.shape[-2:])
    value = value.reshape((-1,) + value.shape[-2:])
    out = np.empty(query.shape[:-1] + (value.shape[-1],), dtype=dtype)
    rows = max(1, _TILE_BYTES // (dtype.itemsize * max(1, n_keys)))
    images = max(1, rows // max(1, n_queries))
    for first in range(0, query.shape[0], images):
        block = slice(first, first + images)
        key_t = np.swapaxes(key[block], -1, -2)
        for start in range(0, n_queries, rows):
            tile = (block, slice(start, start + rows))
            scores = query[tile] @ key_t
            weights = softmax(scores, axis=-1, temperature=temperature)
            np.matmul(weights, value[block], out=out[tile])
    return out.reshape(batch_shape + out.shape[-2:])


def scaled_dot_product_attention(
    query: np.ndarray,
    key: np.ndarray,
    value: np.ndarray,
    temperature: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Attention(Q, K, V) = softmax(QK^T / sqrt(d)) V, with its weights.

    Returns the attended values and the attention weight matrix.  The
    attention weights are what connect "two arbitrary regions in an image"
    (the paper's conjectured source of transformer susceptibility), so they
    are exposed for analysis and heatmap generation.  The forward passes use
    :func:`attend`, which skips the full matrix.

    Inputs may carry arbitrary leading batch axes (``(..., tokens, dim)``);
    the attention is computed per batch element, bit-identical to calling
    the function on each element separately.
    """
    query = np.asarray(query, dtype=np.float64)
    key = np.asarray(key, dtype=np.float64)
    value = np.asarray(value, dtype=np.float64)
    scale = temperature if temperature is not None else np.sqrt(query.shape[-1])
    attended = attend(query, key, value, scale)
    return attended, attention_weights(query, key, scale)


class MultiHeadSelfAttention:
    """Multi-head self-attention over a set of tokens.

    Weights are random (seeded) projections; the simulated transformer
    detector does not learn them — the *structure* (global softmax mixing)
    is what matters for the butterfly-effect experiments.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int = 2,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if dim <= 0 or num_heads <= 0:
            raise ValueError("dim and num_heads must be positive")
        if dim % num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng if rng is not None else 0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.query_proj = Linear(dim, dim, rng)
        self.key_proj = Linear(dim, dim, rng)
        self.value_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)

    def _attend_rows(
        self, row_tokens: np.ndarray, tokens: np.ndarray, dtype: np.dtype
    ) -> np.ndarray:
        """Layer output for ``row_tokens`` querying the full ``tokens`` set.

        One :func:`attend` call per head, then the output projection and the
        residual layer norm.  ``row_tokens`` and ``tokens`` share their
        leading axes.  The scale is a Python float: an ``np.float64`` scalar
        would promote float32 activations back to float64.
        """
        head_shape = (self.num_heads, self.head_dim)
        query = self.query_proj.at(row_tokens, dtype)
        query = query.reshape(row_tokens.shape[:-1] + head_shape)
        key = self.key_proj.at(tokens, dtype).reshape(tokens.shape[:-1] + head_shape)
        value = self.value_proj.at(tokens, dtype).reshape(key.shape)
        scale = float(np.sqrt(self.head_dim))
        head_outputs = [
            attend(query[..., head, :], key[..., head, :], value[..., head, :], scale)
            for head in range(self.num_heads)
        ]
        output = self.out_proj.at(np.concatenate(head_outputs, axis=-1), dtype)
        return layer_norm(row_tokens + output, axis=-1)

    def __call__(self, tokens: np.ndarray) -> np.ndarray:
        """Apply self-attention with a residual connection and layer norm.

        Accepts ``(tokens, dim)`` or batched ``(..., tokens, dim)`` input;
        batched results match the per-element computation bit-for-bit.
        """
        tokens = np.asarray(tokens, dtype=np.float64)
        if tokens.ndim < 2 or tokens.shape[-1] != self.dim:
            raise ValueError(
                f"expected tokens of shape (..., n, {self.dim}), got {tokens.shape}"
            )
        return self._attend_rows(tokens, tokens, np.dtype(np.float64))

    def forward_rows(
        self,
        tokens: np.ndarray,
        rows: np.ndarray | None = None,
        dtype: np.dtype | str = np.float64,
    ) -> np.ndarray:
        """Self-attention restricted to a subset of query rows.

        Computes the layer output only for the tokens indexed by ``rows``
        (all tokens when ``rows`` is None), while keys and values still span
        the full token set — the approximation is in *which rows are
        refreshed*, never in what each refreshed row attends to.  This is
        the windowed-attention fidelity primitive: the caller keeps clean
        cached outputs for rows outside the window.

        With ``rows=None`` and float64 this is :meth:`__call__`; row subsets
        and float32 are approximate — BLAS blocking means a row-sliced
        matmul need not be bit-identical to a slice of the full product.
        """
        dtype = np.dtype(dtype)
        tokens = np.asarray(tokens, dtype=dtype)
        if tokens.ndim != 2 or tokens.shape[-1] != self.dim:
            raise ValueError(
                f"expected tokens of shape (n, {self.dim}), got {tokens.shape}"
            )
        row_tokens = tokens if rows is None else tokens[rows]
        return self._attend_rows(row_tokens, tokens, dtype)

    def forward_rows_batch(
        self,
        tokens: np.ndarray,
        rows: np.ndarray,
        dtype: np.dtype | str = np.float64,
    ) -> np.ndarray:
        """Batched :meth:`forward_rows` with per-element query row subsets.

        ``tokens`` is ``(B, n, dim)`` and ``rows`` an integer ``(B, R)``
        array selecting each element's refreshed rows (equal count per
        element — the caller groups by window shape).  Returns ``(B, R,
        dim)``.  Keys/values span each element's full token set; the
        arithmetic mirrors :meth:`forward_rows` with a batch axis carried
        through every operation.
        """
        dtype = np.dtype(dtype)
        tokens = np.asarray(tokens, dtype=dtype)
        if tokens.ndim != 3 or tokens.shape[-1] != self.dim:
            raise ValueError(
                f"expected tokens of shape (B, n, {self.dim}), got {tokens.shape}"
            )
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] != tokens.shape[0]:
            raise ValueError(
                f"expected rows of shape ({tokens.shape[0]}, R), got {rows.shape}"
            )
        batch = np.arange(tokens.shape[0])[:, None]
        return self._attend_rows(tokens[batch, rows], tokens, dtype)
