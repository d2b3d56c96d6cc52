"""Acoustic/written encoders, pooling, and the prediction layer."""

import numpy as np
import pytest

from awekit import autodiff as ad
from awekit import encoders as enc
from awekit import nn
from awekit import segmental as seg
from awekit.autodiff import Tensor
from awekit.corpus import FeatureTable, Lexicon, Vocabulary


def pool_segment(outputs, start, end, mode):
    """Per-segment pooling oracle: pre-projection embedding of one
    [start, end) slice of (T, W) frame outputs, forward direction in
    columns [:W/2], backward in [W/2:]."""
    if isinstance(outputs, np.ndarray):
        outputs = Tensor(outputs)
    T, W = outputs.values.shape
    if not 0 <= start < end <= T:
        raise enc.EncoderError(f"empty or out-of-range segment [{start}, {end})")
    if mode == "concat":
        h = W // 2
        fw = ad.getitem(outputs, (end - 1, slice(0, h)))
        bw = ad.getitem(outputs, (start, slice(h, W)))
        return ad.concat([fw, bw], axis=0)
    return ad.mean(ad.getitem(outputs, slice(start, end)), axis=0)


def encode_utterance(f, frames):
    """Frame outputs of one utterance encoded on its own."""
    x, mask, _ = enc.pad_and_mask([np.asarray(frames, dtype=np.float64)], f.config.subsample)
    out, out_mask = f.encode_padded(Tensor(x), mask)
    return out.values[0, : int(out_mask[0].sum())]


def embed_word(g, word, lexicon=None):
    return g.embed_words([word], lexicon).values[0]


def small_acoustic(pooling="concat", layers=1, hidden=2, input_dim=3, embed_dim=4,
                   subsample=1, cell="lstm", seed=0):
    cfg = enc.AcousticEncoderConfig(
        input_dim=input_dim, cell=cell, layers=layers, hidden=hidden,
        pooling=pooling, embed_dim=embed_dim, subsample=subsample,
    )
    return enc.AcousticEncoder(cfg, np.random.default_rng(seed))


def small_written(mode="char", seed=1, **kw):
    cfg = enc.WrittenEncoderConfig(mode=mode, symbol_embed_dim=3, hidden=2, embed_dim=4, **kw)
    symbols = list("abcdefgh") if mode != "feature" else None
    ft = None
    if mode == "feature":
        ft = FeatureTable.from_dict(("f1", "f2", "f3"), {"p": [1, 0, 1], "q": [0, 1, 0]})
    return enc.WrittenEncoder(cfg, np.random.default_rng(seed), symbols=symbols, feature_table=ft)


class TestEncodeUtterance:
    def test_output_shape(self):
        f = small_acoustic(layers=1, hidden=2)
        out = encode_utterance(f, np.random.default_rng(0).standard_normal((3, 3)))
        assert out.shape == (3, 4)  # 2 per direction

    def test_zero_weights_zero_outputs(self):
        f = small_acoustic()
        for p in f.parameters():
            p.values[...] = 0.0
        out = encode_utterance(f, np.ones((5, 3)))
        np.testing.assert_allclose(out, 0.0)

    def test_batch_order_independence(self):
        f = small_acoustic(layers=2, hidden=3)
        rng = np.random.default_rng(1)
        utts = [rng.standard_normal((t, 3)) for t in (4, 7, 5)]
        x, mask, lengths = enc.pad_and_mask(utts)
        out, _ = f.encode_padded(Tensor(x), mask)
        x2, mask2, _ = enc.pad_and_mask(utts[::-1])
        out2, _ = f.encode_padded(Tensor(x2), mask2)
        for i, t in enumerate(lengths):
            np.testing.assert_allclose(out.values[i, :t], out2.values[2 - i, :t], atol=1e-12)

    def test_subsample_boundary_map_and_padding_independence(self):
        f = small_acoustic(subsample=4, layers=1, hidden=2)
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 3))
        b = rng.standard_normal((18, 3))
        solo = encode_utterance(f, a)
        x, mask, _ = enc.pad_and_mask([a, b], pad_multiple=4)
        out, out_mask = f.encode_padded(Tensor(x), mask)
        T_a = int(out_mask[0].sum())
        assert T_a == -(-10 // 4) == 3
        np.testing.assert_allclose(out.values[0, :T_a], solo, atol=1e-12)
        rows, starts, lengths = f.output_spans([(0, 5, 10)])  # output frames [1, 3)
        assert rows.tolist() == [0] and starts.tolist() == [1] and lengths.tolist() == [2]


def pool_one(pooling, rows, start, end):
    """``pool_spans`` of one [start, end) slice of (T, W) frame outputs."""
    return enc.pool_spans(Tensor(rows[None]), [0], [start], [end - start], pooling).values[0]


class TestPoolSegment:
    def test_mean_of_constant_rows(self):
        rows = np.tile([1.0, 2.0, 3.0, 4.0], (5, 1))
        np.testing.assert_allclose(pool_one("mean", rows, 1, 4), [1, 2, 3, 4])

    def test_single_frame_mean(self):
        rows = np.random.default_rng(3).standard_normal((4, 6))
        np.testing.assert_allclose(pool_one("mean", rows, 2, 3), rows[2])

    def test_concat_picks_boundary_states(self):
        rows = np.arange(24, dtype=float).reshape(4, 6)
        out = pool_one("concat", rows, 1, 3)
        np.testing.assert_allclose(out, np.concatenate([rows[2, :3], rows[1, 3:]]))

    def test_empty_segment_rejected(self):
        with pytest.raises(enc.EncoderError):
            pool_segment(np.zeros((3, 4)), 2, 2, "mean")


class TestPoolSpans:
    """``pool_spans`` equals the per-segment oracle span by span, in span
    order: bit for bit for concat and mean, which add the same frames in
    the same order."""

    # (row, start, end) spans of a (3, 6, 4) batch
    SPANS = {
        "sorted-lengths": [(0, 0, 1), (2, 3, 4), (1, 0, 2), (0, 2, 5), (2, 1, 4)],
        "unsorted": [(1, 0, 4), (0, 2, 3), (2, 1, 6), (0, 0, 2), (1, 5, 6)],
        "mixed-lengths": [(2, 0, 6), (0, 3, 4), (1, 1, 3), (1, 0, 6), (0, 0, 5), (2, 2, 3)],
        "overlapping-repeated": [(0, 1, 4), (0, 2, 5), (0, 1, 4), (1, 0, 3), (0, 1, 4), (0, 3, 4)],
    }

    @staticmethod
    def _batch(seed=0):
        return Tensor(np.random.default_rng(seed).standard_normal((3, 6, 4)))

    @pytest.mark.parametrize("case", sorted(SPANS))
    @pytest.mark.parametrize("mode", ["concat", "mean"])
    def test_matches_per_segment_oracle(self, mode, case):
        out = self._batch()
        rows, starts, ends = np.array(self.SPANS[case]).T
        pooled = enc.pool_spans(out, rows, starts, ends - starts, mode).values
        want = np.stack([pool_segment(out.values[b], s, e, mode).values for b, s, e in self.SPANS[case]])
        np.testing.assert_array_equal(pooled, want)

    @pytest.mark.parametrize("mode", ["concat", "mean"])
    def test_frames_outside_the_spans_are_not_read(self, mode):
        """Concat reads the two boundary frames of a span and mean every
        frame inside it; changing any other frame leaves the rows as they
        were, bit for bit."""
        out = self._batch(seed=3)
        rows, starts, ends = np.array(self.SPANS["mixed-lengths"]).T
        pooled = enc.pool_spans(out, rows, starts, ends - starts, mode).values
        read = np.zeros(out.values.shape[:2], dtype=bool)
        for b, s, e in self.SPANS["mixed-lengths"]:
            if mode == "concat":
                read[b, [s, e - 1]] = True
            else:
                read[b, s:e] = True
        changed = out.values.copy()
        changed[~read] = 1e6
        repooled = enc.pool_spans(Tensor(changed), rows, starts, ends - starts, mode).values
        np.testing.assert_array_equal(repooled, pooled)

    @pytest.mark.parametrize("mode", ["concat", "mean"])
    def test_gradients(self, mode):
        """Repeated and overlapping spans sum their gradients into the
        frames they share."""
        out = self._batch(seed=1)
        rows, starts, ends = np.array(self.SPANS["overlapping-repeated"]).T
        w = np.random.default_rng(2).standard_normal((len(rows), 4))

        def loss():
            pooled = enc.pool_spans(out, rows, starts, ends - starts, mode)
            return ad.sum_(ad.tanh(ad.mul_const(pooled, w)))

        assert ad.grad_check(loss, [out], eps=1e-5) <= 1e-6


class TestPoolSegmentGrid:
    """Every segment of a ragged batch, pooled at once through
    ``AcousticEncoder.pool`` with the (row, start, length) arrays of
    ``segmental.segment_grid``, equals the per-segment oracle, in the
    grid's row order."""

    LENGTHS = [5, 2, 4]  # rows 1 and 2 padded in time

    def _batch(self, pooling, seed=0):
        f = small_acoustic(pooling=pooling, hidden=2)
        rng = np.random.default_rng(seed)
        out = Tensor(rng.standard_normal((3, 6, 4)))  # T = 6 > 5: padding past every row
        return f, out

    @staticmethod
    def _pool_grid(f, out, grid):
        s0, b, t = np.nonzero(grid.transpose(2, 0, 1) >= 0)
        return f.pool(out, b, t, s0 + 1)

    @pytest.mark.parametrize("pooling", ["concat", "mean"])
    def test_matches_per_segment_oracle(self, pooling):
        f, out = self._batch(pooling)
        grid = seg.segment_grid(self.LENGTHS, 3)
        pooled = self._pool_grid(f, out, grid).values
        assert pooled.shape == (np.count_nonzero(grid >= 0), 4)
        for b, t, s0 in zip(*np.nonzero(grid >= 0)):
            want = pool_segment(out.values[b], t, t + s0 + 1, pooling).values
            np.testing.assert_allclose(pooled[grid[b, t, s0]], want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("pooling", ["concat", "mean"])
    def test_row_of_a_batch_equals_the_row_alone(self, pooling):
        """Concat and mean pooling read a segment's own frames only, so a
        batch row pools bit for bit as it does alone."""
        f, out = self._batch(pooling, seed=1)
        grid = seg.segment_grid(self.LENGTHS, 3)
        pooled = self._pool_grid(f, out, grid).values
        for b, T in enumerate(self.LENGTHS):
            alone_grid = seg.segment_grid([T], 3)
            alone = self._pool_grid(f, Tensor(out.values[b:b + 1, :T]), alone_grid).values
            valid = alone_grid[0] >= 0
            np.testing.assert_array_equal(pooled[grid[b, :T][valid]], alone[alone_grid[0][valid]])

    @pytest.mark.parametrize("pooling", ["concat", "mean"])
    def test_gradients_reach_only_real_frames(self, pooling):
        f, out = self._batch(pooling, seed=2)
        grid = seg.segment_grid(self.LENGTHS, 3)
        w = np.random.default_rng(3).standard_normal((np.count_nonzero(grid >= 0), 4))
        assert ad.grad_check(lambda: ad.sum_(ad.mul_const(self._pool_grid(f, out, grid), w)),
                             [out], eps=1e-5) <= 1e-6
        for b, T in enumerate(self.LENGTHS):
            np.testing.assert_array_equal(out.grad[b, T:], 0.0)


class TestWrittenEncoder:
    def test_same_word_same_vector(self):
        g = small_written()
        a = embed_word(g, "cafe")
        b = embed_word(g, "cafe")
        np.testing.assert_array_equal(a, b)

    def test_single_symbol_zero_weights_gives_projection_of_zero(self):
        g = small_written()
        for p in g.parameters():
            p.values[...] = 0.0
        g.proj_b.values[...] = 0.5
        np.testing.assert_allclose(embed_word(g, "a"), 0.5)

    def test_distinct_words_distinct_vectors(self):
        g = small_written(seed=7)
        a = embed_word(g, "abc")
        b = embed_word(g, "fgh")
        assert np.linalg.norm(a - b) > 1e-6

    def test_phone_mode_uses_lexicon(self):
        lex = Lexicon.from_dict({"cat": ("a", "b"), "dog": ("c",)})
        g = small_written(mode="phone")
        out = g.embed_words(["cat", "dog"], lex)
        assert out.values.shape == (2, 4)
        with pytest.raises(enc.EncoderError):
            embed_word(g, "bird", lex)

    def test_feature_mode_is_sum_of_feature_embeddings(self):
        g = small_written(mode="feature")
        lex = Lexicon.from_dict({"w": ("p", "q"), "v": ("p",)})
        # phone input embedding = phi @ E; check via a single-phone word with
        # zero recurrent influence
        emb = embed_word(g, "v", lex)
        assert emb.shape == (4,)
        # phi('p') = [1,0,1] so its input embedding is E[0] + E[2]
        seq_inputs, _ = g._sequence_inputs([("p",)])
        np.testing.assert_allclose(
            seq_inputs.values[0, 0], g.embed_table.values[0] + g.embed_table.values[2]
        )

    def test_batched_matches_single(self):
        g = small_written(seed=8)
        batch = g.embed_words(["ab", "cdef", "g"]).values
        for i, w in enumerate(["ab", "cdef", "g"]):
            np.testing.assert_allclose(batch[i], embed_word(g, w), atol=1e-12)

    def test_gradients_flow_to_symbol_table(self):
        g = small_written(seed=9)
        leaves = [p.tensor for p in g.parameters()]

        def f():
            e = g.embed_words(["ab", "ba"])
            return ad.sum_(ad.mul(e, e))

        assert ad.grad_check(f, leaves, eps=1e-4) <= 1e-4


class TestPredictionLayer:
    def _setup(self, unk=True):
        vocab = Vocabulary(["cab", "dad", "egg"], unk_token="<unk>" if unk else None)
        g = small_written(seed=10)
        rng = np.random.default_rng(11)
        pl = enc.PredictionLayer.from_written_encoder(vocab, g, None, rng)
        return vocab, g, pl

    def test_static_rows_are_unit_normalized_embeddings(self):
        vocab, g, pl = self._setup()
        for w in ["cab", "dad", "egg"]:
            e = embed_word(g, w)
            np.testing.assert_allclose(pl.w.values[vocab.index(w)], e / np.linalg.norm(e), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(pl.w.values, axis=1), 1.0)

    def test_freeze_contract(self):
        _, _, pl = self._setup()
        pl.freeze()
        before = pl.w.values.copy()
        pl.w.tensor.grad = np.ones_like(before)
        nn.Adam(lr=0.5).step(pl.parameters())
        np.testing.assert_array_equal(pl.w.values, before)

    def test_extend_by_zero_words_identical(self):
        _, g, pl = self._setup()
        pl.freeze()
        ext = enc.extend_vocabulary(pl, g, [])
        np.testing.assert_array_equal(ext.w.values, pl.w.values)
        assert ext.vocab.labels == pl.vocab.labels

    def test_extend_appends_written_embeddings(self):
        vocab, g, pl = self._setup()
        pl.freeze()
        ext = enc.extend_vocabulary(pl, g, ["fad", "had"])
        assert ext.w.values.shape == (6, 4)
        np.testing.assert_array_equal(ext.w.values[:4], pl.w.values)
        e = embed_word(g, "fad")
        np.testing.assert_allclose(ext.w.values[4], e / np.linalg.norm(e), atol=1e-12)
        np.testing.assert_allclose(ext.b.values[4:], 0.0)
        assert ext.vocab.index("had") == 5
        assert ext.base_size == 4

    def test_extend_duplicate_rejected(self):
        _, g, pl = self._setup()
        with pytest.raises(enc.EncoderError):
            enc.extend_vocabulary(pl, g, ["cab"])


class TestIsolatedSegmentEmbedding:
    def test_shapes_and_projection_dim(self):
        f = small_acoustic(pooling="concat", layers=2, hidden=3, embed_dim=5)
        rng = np.random.default_rng(12)
        segs = [rng.standard_normal((t, 3)) for t in (4, 9, 6)]
        out = f.embed_segments_isolated(segs)
        assert out.values.shape == (3, 5)

    def test_gradient_through_whole_path(self):
        f = small_acoustic(pooling="mean", layers=1, hidden=2, embed_dim=3)
        rng = np.random.default_rng(13)
        segs = [rng.standard_normal((3, 3)), rng.standard_normal((5, 3))]
        leaves = [p.tensor for p in f.parameters()]

        def fn():
            e = f.embed_segments_isolated(segs)
            return ad.sum_(ad.mul(e, e))

        assert ad.grad_check(fn, leaves, eps=1e-4) <= 1e-4


class TestFloat32Checkpoint:
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_trained_encoder_reloads_to_the_same_frame_outputs(self, tmp_path, cell):
        f = small_acoustic(cell=cell, layers=2, hidden=4, seed=3)
        g = small_written(seed=5)
        rng = np.random.default_rng(6)
        segs = [rng.standard_normal((t, 3)) for t in (4, 9, 6)]
        params = f.parameters() + g.parameters()
        opt = nn.Adam(lr=0.05)
        for _ in range(3):
            nn.zero_grads(params)
            with ad.Tape() as tape:
                e = ad.concat([f.embed_segments_isolated(segs), g.embed_words(["ab", "cde"])], axis=0)
                loss = ad.sum_(ad.mul(e, e))
            tape.backward(loss)
            opt.step(params)
        recurrent = [q for fw, bw in f.cells for q in fw.parameters() + bw.parameters()]
        recurrent += g.fw.parameters() + g.bw.parameters()
        assert {q.values.dtype for q in recurrent} == {np.dtype(np.float32)}

        path = tmp_path / "model.cadp"
        nn.save_checkpoint(path, params, "{}")
        f2, g2 = small_acoustic(cell=cell, layers=2, hidden=4, seed=7), small_written(seed=8)
        nn.assign_from_checkpoint(f2.parameters() + g2.parameters(), nn.load_checkpoint(path)[1])
        # the float32 recurrent weights reload exactly, so the frame outputs do
        recurrent2 = [q for fw, bw in f2.cells for q in fw.parameters() + bw.parameters()]
        recurrent2 += g2.fw.parameters() + g2.bw.parameters()
        assert [q.values.tobytes() for q in recurrent2] == [q.values.tobytes() for q in recurrent]
        assert f2.encode(segs)[0].values.tobytes() == f.encode(segs)[0].values.tobytes()
        # the float64 projection is stored rounded to float32
        np.testing.assert_allclose(f2.embed_segments_isolated(segs).values,
                                   f.embed_segments_isolated(segs).values, rtol=1e-6, atol=1e-7)
