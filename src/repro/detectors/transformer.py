"""Transformer (DETR-like) simulated detector.

The defining architectural property reproduced here is *global attention*:
before classification, every cell's features are mixed with the features of
every other cell through a content-dependent softmax attention matrix.  Any
pixel in the image can therefore influence any prediction — the mechanism
the paper conjectures makes transformer detectors more susceptible to
butterfly-effect attacks ("the attention mechanisms connecting two arbitrary
regions in an image").
"""

from __future__ import annotations

import numpy as np

from repro.detection.prediction import Prediction
from repro.detectors.activation_cache import CleanActivations
from repro.detectors.base import (
    Detector,
    DetectorConfig,
    validate_image,
    validate_image_batch,
)
from repro.detectors.prototypes import PrototypeBank
from repro.nn.attention import MultiHeadSelfAttention, attend, attention_weights
from repro.nn.features import CELL_FEATURE_DIM, GridFeatureExtractor
from repro.nn.incremental import (
    BBox,
    bbox_is_empty,
    dilate_bbox,
    pixel_bbox_to_cell_bbox,
)
from repro.nn.linear import Linear
from repro.nn.ops import grid_positional_encoding, layer_norm


def _flat_cell_indices(cell_bbox: BBox, cols: int) -> np.ndarray:
    """Row-major flat token indices of a cell rectangle.

    The rectangle order matches ``window_features``' (wr, wc, dim) reshape,
    so spliced windows and flat-index scatters agree element for element.
    """
    r0, r1, c0, c1 = cell_bbox
    return (np.arange(r0, r1)[:, None] * cols + np.arange(c0, c1)[None, :]).ravel()


class TransformerDetector(Detector):
    """Grid-token detector with global self-attention feature mixing.

    The forward pass is:

    1. extract raw per-cell features (the "patch embedding" input),
    2. embed them (seeded linear projection + 2-D positional encoding),
    3. run ``num_layers`` of multi-head self-attention to obtain contextual
       token embeddings,
    4. compute a content-dependent attention matrix from the contextual
       embeddings and use it to mix the *raw* cell features globally,
    5. classify the mixed features against the trained prototype bank and
       decode boxes exactly like the single-stage detector.

    Because step 4 mixes features across the whole image with softmax
    weights, a strong perturbation anywhere can capture attention mass from
    an object's cells and drag their mixed features away from the class
    prototype — changing class scores, box moments or both.

    Parameters
    ----------
    attention_mix:
        Weight ``α`` of the attention-mixed features; ``(1 - α)`` stays on
        the cell's own features.
    embed_dim:
        Dimension of the token embeddings used to compute attention.
    num_layers:
        Number of self-attention refinement layers.
    attention_sharpness:
        Multiplier on the attention logits; larger values concentrate
        attention on fewer cells.
    """

    architecture = "transformer"
    supports_incremental = True

    def __init__(
        self,
        prototypes: PrototypeBank,
        config: DetectorConfig | None = None,
        seed: int = 0,
        attention_mix: float = 0.45,
        embed_dim: int = 16,
        num_heads: int = 2,
        num_layers: int = 2,
        attention_sharpness: float = 2.0,
    ) -> None:
        super().__init__(config, seed)
        if not 0.0 <= attention_mix <= 1.0:
            raise ValueError("attention_mix must be in [0, 1]")
        if attention_sharpness <= 0:
            raise ValueError("attention_sharpness must be positive")
        self.prototypes = prototypes
        self.attention_mix = attention_mix
        self.embed_dim = embed_dim
        self.attention_sharpness = attention_sharpness
        self.extractor = GridFeatureExtractor(cell=self.config.cell)

        rng = np.random.default_rng(seed)
        self.embedding = Linear(CELL_FEATURE_DIM, embed_dim, rng)
        self.layers = [
            MultiHeadSelfAttention(embed_dim, num_heads=num_heads, rng=rng)
            for _ in range(num_layers)
        ]
        self.query_proj = Linear(embed_dim, embed_dim, rng)
        self.key_proj = Linear(embed_dim, embed_dim, rng)
        self._positional_cache: dict[tuple[int, int], np.ndarray] = {}

    @property
    def _mixing_temperature(self) -> float:
        # A Python float: an np.float64 scalar would promote float32
        # activations of the reduced-precision fidelities back to float64.
        return float(np.sqrt(self.embed_dim) / self.attention_sharpness)

    def _positional(self, rows: int, cols: int) -> np.ndarray:
        key = (rows, cols)
        if key not in self._positional_cache:
            self._positional_cache[key] = grid_positional_encoding(
                rows, cols, self.embed_dim
            )
        return self._positional_cache[key]

    def _mixing_query_key(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mixing-attention queries and keys of raw cell features.

        ``raw`` is ``(..., rows, cols, dim)``; single images and batches
        alike carry their leading axes through every token operation
        unchanged, so batched results are bit-identical to the per-image
        computation.  Returns ``(..., tokens, embed_dim)`` queries and keys.
        """
        rows, cols = raw.shape[-3], raw.shape[-2]
        flat = raw.reshape(raw.shape[:-3] + (rows * cols, raw.shape[-1]))
        tokens = self.embedding(flat)
        tokens = layer_norm(tokens + self._positional(rows, cols), axis=-1)
        for layer in self.layers:
            tokens = layer(tokens)
        return self.query_proj(tokens), self.key_proj(tokens)

    def attention_matrix(self, image: np.ndarray) -> np.ndarray:
        """Content-dependent (tokens, tokens) attention matrix for an image.

        The forward pass never builds this matrix; it is for heatmaps and
        analysis.
        """
        image = validate_image(image)
        query, key = self._mixing_query_key(self.extractor(image))
        return attention_weights(query, key, self._mixing_temperature)

    def _mixed_rows(
        self,
        row_tokens: np.ndarray,
        tokens: np.ndarray,
        value: np.ndarray,
        dtype: np.dtype,
    ) -> np.ndarray:
        """Mixing attention of ``row_tokens`` over ``tokens``, applied to
        ``value`` (the flat raw features), at an activation dtype."""
        query = self.query_proj.at(row_tokens, dtype)
        key = self.key_proj.at(tokens, dtype)
        return attend(query, key, value, self._mixing_temperature)

    def _fidelity_state(self, clean: CleanActivations, dtype: np.dtype) -> dict:
        """Clean-scene attention state for the approximate delta path.

        Everything the windowed recompute splices against, derived once per
        activation dtype from the bundle's cached raw grid and memoized on
        ``clean.fidelity_state``: the flat raw features, the token
        embeddings *after each attention layer*, the full (tokens, tokens)
        mixing-attention matrix (the stale weights that rows outside a
        window propagate raw deltas through) and the mixed features.  Pure
        recompute cache — rebuilt lazily per worker when a bundle crosses a
        process boundary.
        """
        key = f"attn:{dtype.name}"
        state = clean.fidelity_state.get(key)
        if state is not None:
            return state
        raw = clean.tensors["raw"]
        rows, cols = raw.shape[0], raw.shape[1]
        flat = np.asarray(raw.reshape(rows * cols, raw.shape[-1]), dtype=dtype)
        pos = np.asarray(self._positional(rows, cols), dtype=dtype)
        tokens = [layer_norm(self.embedding.at(flat, dtype) + pos, axis=-1)]
        for layer in self.layers:
            tokens.append(layer.forward_rows(tokens[-1], None, dtype=dtype))
        query = self.query_proj.at(tokens[-1], dtype)
        keys = self.key_proj.at(tokens[-1], dtype)
        temperature = self._mixing_temperature
        state = {
            "grid": (rows, cols),
            "flat": flat,
            "pos": pos,
            "tokens": tokens,
            "weights": attention_weights(query, keys, temperature),
            "mixed": attend(query, keys, flat, temperature),
        }
        clean.fidelity_state[key] = state
        return state

    def _approx_windowed_grid(
        self,
        image: np.ndarray,
        mask: np.ndarray,
        pixel_bbox: BBox,
        clean: CleanActivations,
        fidelity,
    ) -> np.ndarray | None:
        """Blended (attention-mixed) feature grid under windowed attention.

        The bounded-error counterpart of splice + :meth:`_mix_features`:

        * dirty cells (the mask's spliced window) get exact raw features
          and exact stage-0 embeddings;
        * each attention layer refreshes only the rows of the dirty window
          dilated by ``fidelity.attention_window`` cells — rows outside
          keep the clean scene's cached outputs (layer-1 window rows are
          exact, deeper layers accumulate bounded staleness);
        * mixing rows inside the window are recomputed from the refreshed
          tokens; rows outside propagate the raw-feature delta *exactly*
          through the clean scene's stale attention weights.

        ``attention_window=None`` refreshes every row (full recompute at
        the requested dtype).  Returns ``None`` when no cell is touched.
        """
        grid_shape = self.extractor.grid_shape(image)
        rows, cols = grid_shape
        cell_bbox = pixel_bbox_to_cell_bbox(
            dilate_bbox(pixel_bbox, 1, (image.shape[0], image.shape[1])),
            self.config.cell,
            grid_shape,
        )
        if bbox_is_empty(cell_bbox):
            return None
        dtype = fidelity.numpy_dtype
        state = self._fidelity_state(clean, dtype)
        dirty = _flat_cell_indices(cell_bbox, cols)
        if fidelity.attention_window is None:
            window = np.arange(rows * cols)
        else:
            window = _flat_cell_indices(
                dilate_bbox(cell_bbox, fidelity.attention_window, grid_shape), cols
            )
        flat_p = state["flat"].copy()
        patch = self.extractor.window_features(image, mask, cell_bbox)
        flat_p[dirty] = np.asarray(
            patch.reshape(-1, patch.shape[-1]), dtype=dtype
        )
        tokens = state["tokens"][0].copy()
        tokens[dirty] = layer_norm(
            self.embedding.at(flat_p[dirty], dtype) + state["pos"][dirty], axis=-1
        )
        for depth, layer in enumerate(self.layers):
            refreshed = state["tokens"][depth + 1].copy()
            refreshed[window] = layer.forward_rows(tokens, window, dtype=dtype)
            tokens = refreshed
        raw_delta = flat_p[dirty] - state["flat"][dirty]
        mixed = state["mixed"] + state["weights"][:, dirty] @ raw_delta
        mixed[window] = self._mixed_rows(tokens[window], tokens, flat_p, dtype)
        alpha = float(self.attention_mix)
        blended = (1.0 - alpha) * flat_p + alpha * mixed
        return blended.reshape(rows, cols, flat_p.shape[-1])

    def _approx_full_grid(self, raw: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Full blended feature grid of one image at a reduced dtype.

        Dense masks have no dirty window to bound, so the only available
        approximation is precision; attention itself is computed in full.
        """
        rows, cols = raw.shape[0], raw.shape[1]
        flat = np.asarray(raw.reshape(rows * cols, raw.shape[-1]), dtype=dtype)
        pos = np.asarray(self._positional(rows, cols), dtype=dtype)
        tokens = layer_norm(self.embedding.at(flat, dtype) + pos, axis=-1)
        for layer in self.layers:
            tokens = layer.forward_rows(tokens, None, dtype=dtype)
        mixed = self._mixed_rows(tokens, tokens, flat, dtype)
        alpha = float(self.attention_mix)
        blended = (1.0 - alpha) * flat + alpha * mixed
        return blended.reshape(raw.shape)

    def predict_batch_at(self, images: np.ndarray, fidelity=None) -> list:
        """Batch prediction at a fidelity; only reduced precision applies
        to dense (windowless) evaluation — anything else answers exactly."""
        if fidelity is None or fidelity.numpy_dtype == np.float64:
            return self.predict_batch(images)
        images = validate_image_batch(images)
        image_shape = (images.shape[1], images.shape[2])
        dtype = fidelity.numpy_dtype
        predictions = []
        for image in images:
            blended = self._approx_full_grid(self.extractor(image), dtype)
            probabilities = self.prototypes.probabilities(blended)
            predictions.append(self._decode(probabilities, image_shape))
        return predictions

    def _mix_features(self, raw: np.ndarray) -> np.ndarray:
        """Blend raw cell features with their attention-mixed counterpart.

        ``raw`` is ``(..., rows, cols, dim)``; the mixing attention runs
        through :func:`~repro.nn.attention.attend` with the flat raw
        features as values, so no (tokens, tokens) matrix is built.
        """
        rows, cols = raw.shape[-3], raw.shape[-2]
        flat_raw = raw.reshape(raw.shape[:-3] + (rows * cols, raw.shape[-1]))
        query, key = self._mixing_query_key(raw)
        mixed = attend(query, key, flat_raw, self._mixing_temperature)
        blended = (1.0 - self.attention_mix) * flat_raw + self.attention_mix * mixed
        return blended.reshape(raw.shape)

    def backbone_features(self, image: np.ndarray) -> np.ndarray:
        """Attention-mixed cell features (rows, cols, feature_dim)."""
        image = validate_image(image)
        return self._mix_features(self.extractor(image))

    def backbone_features_batch(self, images: np.ndarray) -> np.ndarray:
        """Batched :meth:`backbone_features`; returns (B, rows, cols, dim).

        One embedding/attention pass serves the whole stack; per-image
        results are bit-identical to the single-image path.
        """
        images = validate_image_batch(images)
        return self._mix_features(self.extractor.batch(images))

    def cell_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Per-cell class probabilities (rows, cols, num_classes + 1)."""
        return self.prototypes.probabilities(self.backbone_features(image))

    def cell_probabilities_batch(self, images: np.ndarray) -> np.ndarray:
        """Batched per-cell class probabilities (B, rows, cols, classes + 1)."""
        return self.prototypes.probabilities(self.backbone_features_batch(images))

    def predict(self, image: np.ndarray) -> Prediction:
        image = validate_image(image)
        probabilities = self.cell_probabilities(image)
        return self._decode(probabilities, (image.shape[0], image.shape[1]))

    def predict_batch(self, images: np.ndarray) -> list[Prediction]:
        """Vectorised batch prediction, processed in cache-friendly chunks."""
        images = validate_image_batch(images)
        image_shape = (images.shape[1], images.shape[2])
        chunk = max(1, int(self.batch_chunk))
        predictions: list[Prediction] = []
        for start in range(0, images.shape[0], chunk):
            probabilities = self.cell_probabilities_batch(images[start : start + chunk])
            predictions.extend(self._decode_batch(probabilities, image_shape))
        return predictions

    # ------------------------------------------------------------------
    # Incremental (dirty-region) inference
    # ------------------------------------------------------------------

    def clean_activations(self, image: np.ndarray) -> CleanActivations:
        """Cache the clean scene's raw (pre-attention) patch tokens.

        Only the patch-embedding input — the raw per-cell feature grid — is
        cached: the attention stage mixes every token with every other one,
        so a perturbation anywhere invalidates the mixed features globally
        and attention must always be recomputed from the spliced grid.
        """
        image = validate_image(image)
        clean_image = np.clip(image + 0.0, 0.0, 255.0)
        raw = self.extractor(clean_image)
        probabilities = self.prototypes.probabilities(self._mix_features(raw))
        prediction = self._decode(probabilities, (image.shape[0], image.shape[1]))
        return CleanActivations(
            clean_image=clean_image, prediction=prediction, tensors={"raw": raw}
        )

    def _delta_raw_state(
        self,
        image: np.ndarray,
        mask: np.ndarray,
        pixel_bbox: BBox,
        source: dict[str, np.ndarray],
    ) -> np.ndarray | None:
        """Raw patch tokens after splicing the ``pixel_bbox`` window into a
        ``source`` raw grid (the clean bundle's, or an evaluated ancestor's
        stored tokens for cross-generation reuse); ``None`` when no cell is
        touched.  Tokens outside the window read identical input pixels, so
        the spliced grid is bit-identical to a full extraction; the global
        attention stage is always recomputed from it.
        """
        grid_shape = self.extractor.grid_shape(image)
        cell_bbox = pixel_bbox_to_cell_bbox(
            dilate_bbox(pixel_bbox, 1, (image.shape[0], image.shape[1])),
            self.config.cell,
            grid_shape,
        )
        if bbox_is_empty(cell_bbox):
            return None
        raw = source["raw"].copy()
        cr0, cr1, cc0, cc1 = cell_bbox
        raw[cr0:cr1, cc0:cc1] = self.extractor.window_features(image, mask, cell_bbox)
        return raw

    def _approx_delta_batch(
        self,
        image: np.ndarray,
        masks: np.ndarray,
        items: list[tuple[int, BBox]],
        clean: CleanActivations,
        fidelity,
    ) -> list[Prediction]:
        """Windowed-attention delta evaluation of a sparse population.

        Members are grouped by their (dirty, window) index shapes — in the
        NSGA sparse regime most offspring share a patch geometry — and each
        group runs the bounded-error recompute *batched* over its members
        (one BLAS call per stage instead of a per-mask Python loop); the
        classification head and decode then run over the stacked grids in
        the same chunks as the exact path.  Per-member results match
        :meth:`_approx_windowed_grid` up to BLAS-blocking noise (pinned by
        the fidelity test suite).  Untouched members answer the *exact*
        clean prediction — approximation never degrades an evaluation the
        cache already answers for free.
        """
        plane = (image.shape[0], image.shape[1])
        grid_shape = self.extractor.grid_shape(image)
        grid_rows, grid_cols = grid_shape
        dtype = fidelity.numpy_dtype
        state = self._fidelity_state(clean, dtype)
        predictions: list[Prediction] = [clean.prediction] * len(items)
        groups: dict[tuple[int, int], list] = {}
        for pos, (index, bbox) in enumerate(items):
            cell_bbox = pixel_bbox_to_cell_bbox(
                dilate_bbox(bbox, 1, plane), self.config.cell, grid_shape
            )
            if bbox_is_empty(cell_bbox):
                continue
            dirty = _flat_cell_indices(cell_bbox, grid_cols)
            if fidelity.attention_window is None:
                window = np.arange(grid_rows * grid_cols)
            else:
                window = _flat_cell_indices(
                    dilate_bbox(cell_bbox, fidelity.attention_window, grid_shape),
                    grid_cols,
                )
            groups.setdefault((dirty.size, window.size), []).append(
                (pos, index, cell_bbox, dirty, window)
            )
        live: list[int] = []
        grids: list[np.ndarray] = []
        for group in groups.values():
            blended = self._approx_windowed_group(image, masks, group, state, fidelity)
            for (pos, _, _, _, _), grid in zip(group, blended):
                live.append(pos)
                grids.append(grid.reshape(grid_rows, grid_cols, grid.shape[-1]))
        if grids:
            # Head/decode in deterministic population order, independent of
            # the grouping that produced the grids.
            order = np.argsort(live, kind="stable")
            stacked = np.stack([grids[i] for i in order], axis=0)
            image_shape = plane
            chunk = max(1, int(self.delta_batch_chunk))
            decoded: list[Prediction] = []
            for start in range(0, stacked.shape[0], chunk):
                probabilities = self.prototypes.probabilities(
                    stacked[start : start + chunk]
                )
                decoded.extend(self._decode_batch(probabilities, image_shape))
            for i, prediction in zip(order, decoded):
                predictions[live[i]] = prediction
        return predictions

    def _approx_windowed_group(
        self,
        image: np.ndarray,
        masks: np.ndarray,
        group: list,
        state: dict,
        fidelity,
    ) -> np.ndarray:
        """Batched windowed recompute of one same-shape group.

        ``group`` entries are ``(pos, index, cell_bbox, dirty, window)``
        with equal ``dirty``/``window`` sizes; returns the ``(B, tokens,
        dim)`` blended features.  Same algorithm as
        :meth:`_approx_windowed_grid` with a batch axis: splice dirty raw
        features, refresh stage-0 embeddings of dirty rows, refresh each
        attention layer only on the window rows, then recompute mixing
        rows inside the window and propagate the raw delta exactly through
        the stale clean weights outside it.
        """
        dtype = fidelity.numpy_dtype
        count = len(group)
        tokens_n, feature_dim = state["flat"].shape
        dirty = np.stack([entry[3] for entry in group])
        window = np.stack([entry[4] for entry in group])
        batch = np.arange(count)[:, None]
        flat_p = np.broadcast_to(state["flat"], (count, tokens_n, feature_dim)).copy()
        for g, (_, index, cell_bbox, dirty_i, _) in enumerate(group):
            patch = self.extractor.window_features(image, masks[index], cell_bbox)
            flat_p[g, dirty_i] = np.asarray(
                patch.reshape(-1, feature_dim), dtype=dtype
            )
        flat_dirty = flat_p[batch, dirty]
        tokens = np.broadcast_to(
            state["tokens"][0], (count,) + state["tokens"][0].shape
        ).copy()
        tokens[batch, dirty] = layer_norm(
            self.embedding.at(flat_dirty, dtype) + state["pos"][dirty], axis=-1
        )
        for depth, layer in enumerate(self.layers):
            refreshed = np.broadcast_to(state["tokens"][depth + 1], tokens.shape).copy()
            refreshed[batch, window] = layer.forward_rows_batch(
                tokens, window, dtype=dtype
            )
            tokens = refreshed
        raw_delta = flat_dirty - state["flat"][dirty]
        stale = np.swapaxes(state["weights"][:, dirty], 0, 1)
        mixed = state["mixed"] + stale @ raw_delta
        mixed[batch, window] = self._mixed_rows(
            tokens[batch, window], tokens, flat_p, dtype
        )
        alpha = float(self.attention_mix)
        return (1.0 - alpha) * flat_p + alpha * mixed

    def _predict_delta_spliced_batch(
        self,
        image: np.ndarray,
        masks: np.ndarray,
        items: list[tuple[int, BBox, dict, Prediction]],
        fidelity=None,
        clean: CleanActivations | None = None,
    ) -> tuple[list[Prediction], list[dict | None]]:
        """Splice each item's window into its source raw grid, then batch
        the global stages.

        The local feature extraction runs per item on its own window (the
        window sizes differ); cross-generation reuse re-extracts only the
        relative window against an ancestor's stored tokens.  The global
        attention mixing and the classification head then run over the
        stacked spliced grids in chunks of :attr:`delta_batch_chunk`;
        attention carries the batch axis through every token operation
        unchanged, so per-grid results are bit-identical to
        :meth:`predict` however items mix clean and ancestor sources.

        An approximate ``fidelity`` instead runs the bounded-error
        windowed-attention recompute (:meth:`_approx_delta_batch`) against
        the ``clean`` bundle; it returns no state, so nothing is stored.

        The temporal frame-to-frame derivation (:meth:`~repro.detectors.
        base.Detector.clean_activations_delta`) also routes here, with a
        *zero* mask and the previous frame's clean tensors as the source:
        ``clip(image + 0)`` is the new frame's clean image, so splicing the
        inter-frame diff window into the previous ``raw`` grid yields the
        new frame's clean activations bit-exactly, and the returned state
        dicts use the clean bundle's stage name (``raw``).
        """
        if fidelity is not None:
            windows = [(index, bbox) for index, bbox, _, _ in items]
            return (
                self._approx_delta_batch(image, masks, windows, clean, fidelity),
                [None] * len(items),
            )
        grids = [
            self._delta_raw_state(image, masks[index], bbox, source)
            for index, bbox, source, _ in items
        ]
        live = [i for i, grid in enumerate(grids) if grid is not None]
        predictions: list[Prediction] = [fallback for _, _, _, fallback in items]
        if live:
            stacked = np.stack([grids[i] for i in live], axis=0)
            image_shape = (image.shape[0], image.shape[1])
            chunk = max(1, int(self.delta_batch_chunk))
            decoded: list[Prediction] = []
            for start in range(0, stacked.shape[0], chunk):
                probabilities = self.prototypes.probabilities(
                    self._mix_features(stacked[start : start + chunk])
                )
                decoded.extend(self._decode_batch(probabilities, image_shape))
            for i, prediction in zip(live, decoded):
                predictions[i] = prediction
        return predictions, [
            None if grid is None else {"raw": grid} for grid in grids
        ]
