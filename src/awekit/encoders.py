"""Acoustic-view and written-view encoders plus the word prediction layer.

The acoustic encoder is a stacked bidirectional recurrent network whose
per-frame output is the concatenation of both directions' hidden states
(width 2*hidden). A segment embedding pools those rows over [start, end)
-- "concat" takes the forward state at end-1 next to the backward state
at start, "mean" averages the rows -- and then projects to the embedding
dimension.
``pool_spans`` is the one pooling function: it pools a batch of spans
given as arrays, and serves word embeddings, the written encoder, the
segmental recognizer's segment scores and the CTC recognizer's span
embeddings.

The written encoder embeds a symbol sequence (characters, phones, or
binary distinctive-feature vectors mapped through a linear layer, i.e.
a sum of feature embeddings), runs one bidirectional recurrent layer,
pools each whole sequence by concatenation (its final states), and
projects into the same space. It shares the acoustic encoder's
projection whenever the widths match and there is no fully-connected
stack.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .corpus import FeatureTable, Lexicon, Vocabulary, phones_to_feature_rows
from .metrics import unit_rows

FC_DIM = 256  # width of the optional fully-connected layers
CELLS = {"lstm": nn.LstmParams, "gru": nn.GruParams}  # the recurrent cells of the acoustic encoder


class EncoderError(Exception):
    pass


def pad_and_mask(arrays, pad_multiple: int = 1):
    """Stack variable-length (T_i, D) arrays into (B, T, D) plus a mask."""
    lengths = [a.shape[0] for a in arrays]
    T = max(lengths)
    if pad_multiple > 1:
        T = -(-T // pad_multiple) * pad_multiple
    D = arrays[0].shape[1]
    out = np.zeros((len(arrays), T, D))
    mask = np.zeros((len(arrays), T))
    for i, a in enumerate(arrays):
        out[i, : a.shape[0]] = a
        mask[i, : a.shape[0]] = 1.0
    return out, mask, lengths


def pool_spans(outputs: Tensor, rows, starts, lengths, mode: str) -> Tensor:
    """Pool spans of (B, T, W) frame outputs into (n, W) rows, in span order.

    Span i covers frames [starts[i], starts[i] + lengths[i]) of batch row
    rows[i]; lengths are at least 1. "concat" takes the forward half
    (columns [:W/2]) of the last frame next to the backward half of the
    first, in one gather of half-rows. "mean" gathers the spans of one
    length as one (n, s, W) block and averages it.
    """
    B, T, W = outputs.values.shape
    first = np.asarray(rows, dtype=np.intp) * T + np.asarray(starts, dtype=np.intp)  # into (B*T, W)
    lengths = np.asarray(lengths, dtype=np.intp)
    if mode == "concat":
        # frame i's forward half is half-row 2i and its backward half 2i+1
        idx = np.stack([2 * (first + lengths - 1), 2 * first + 1], axis=1)
        pooled = ad.gather_rows(ad.reshape(outputs, (2 * B * T, W // 2)), idx.reshape(-1))
        return ad.reshape(pooled, (len(first), W))
    frames = ad.reshape(outputs, (B * T, W))
    blocks, order = [], []
    # one block per span length, ascending; not np.unique, which imports
    # numpy.ma on first use (about 1.5 MB more peak memory in asr-train)
    for s in sorted(set(lengths.tolist())):
        sel = np.flatnonzero(lengths == s)
        win = first[sel, None] + np.arange(s)  # (n, s) frame indices
        gathered = ad.gather_rows(frames, win.reshape(-1))  # (n*s, W)
        blocks.append(ad.mean(ad.reshape(gathered, (len(sel), s, W)), axis=1))
        order.append(sel)
    pooled = ad.concat(blocks, axis=0)
    if (np.diff(lengths) < 0).any():  # the blocks hold the spans in length order
        pooled = ad.gather_rows(pooled, np.argsort(np.concatenate(order)))
    return pooled


# ---------------------------------------------------------------------------
# Acoustic encoder


@dataclass
class AcousticEncoderConfig:
    input_dim: int
    cell: str = "lstm"  # lstm | gru
    layers: int = 2
    hidden: int = 128  # per direction
    dropout: float = 0.0
    pooling: str = "concat"  # concat | mean
    embed_dim: int = 64
    subsample: int = 1  # mean-pool stride over frame outputs
    fc_layers: int = 0  # optional ReLU stack of width FC_DIM before the projection


class AcousticEncoder:
    """Stacked bidirectional recurrent encoder with pooling + projection."""

    def __init__(self, config: AcousticEncoderConfig, rng: np.random.Generator):
        self.config = config
        make = CELLS[config.cell].create
        self.cells = []
        in_dim = config.input_dim
        for layer in range(config.layers):
            fw = make(f"f.layer{layer}.fw", in_dim, config.hidden, rng, nn.RECURRENT_DTYPE)
            bw = make(f"f.layer{layer}.bw", in_dim, config.hidden, rng, nn.RECURRENT_DTYPE)
            self.cells.append((fw, bw))
            in_dim = 2 * config.hidden
        self.frame_width = 2 * config.hidden
        self.fc = []
        fc_in = self.frame_width
        for i in range(config.fc_layers):
            w = nn.Parameter(f"f.fc{i}.w", uniform_fc(rng, fc_in, FC_DIM))
            b = nn.Parameter(f"f.fc{i}.b", np.zeros(FC_DIM))
            self.fc.append((w, b))
            fc_in = FC_DIM
        self.proj_w = nn.Parameter("f.proj.w", uniform_fc(rng, fc_in, config.embed_dim))
        self.proj_b = nn.Parameter("f.proj.b", np.zeros(config.embed_dim))

    def parameters(self) -> list[nn.Parameter]:
        out = []
        for fw, bw in self.cells:
            out.extend(fw.parameters())
            out.extend(bw.parameters())
        for w, b in self.fc:
            out.extend([w, b])
        out.extend([self.proj_w, self.proj_b])
        return out

    # -- frame-level forward

    def encode_padded(self, x: Tensor, mask: np.ndarray, train: bool = False,
                      rng: np.random.Generator | None = None):
        """(B, T, D) -> (B, T', 2*hidden) frame outputs plus the new mask.

        With subsample > 1, consecutive groups of `subsample` frames are
        mean-pooled (normalized by the number of real frames per group),
        so per-utterance outputs do not depend on batch padding.
        """
        h = x
        for layer, (fw_p, bw_p) in enumerate(self.cells):
            fw = nn.run_recurrent_layer(fw_p, h, mask)
            bw = nn.run_recurrent_layer(bw_p, h, mask, reverse=True)
            h = ad.concat([fw, bw], axis=2)
            if train and self.config.dropout > 0 and layer < len(self.cells) - 1:
                h = ad.dropout(h, self.config.dropout, rng, train=True)
        q = self.config.subsample
        if q == 1:
            return h, mask
        B, T, W = h.values.shape
        if T % q:
            raise EncoderError("padded length must be a multiple of the subsample stride")
        grouped = ad.sum_(ad.reshape(h, (B, T // q, q, W)), axis=2)
        counts = mask.reshape(B, T // q, q).sum(axis=2)
        inv = np.where(counts > 0, 1.0 / np.where(counts > 0, counts, 1.0), 0.0)
        out = ad.mul_const(grouped, inv[:, :, None])
        return out, (counts > 0).astype(np.float64)

    def encode(self, frame_arrays, train: bool = False, rng: np.random.Generator | None = None):
        """Encode variable-length (T_i, D) frame arrays as one batch padded
        to the subsample stride: (B, T', 2*hidden) outputs and each row's
        output length."""
        x, mask, _ = pad_and_mask(frame_arrays, self.config.subsample)
        outputs, out_mask = self.encode_padded(Tensor(x), mask, train=train, rng=rng)
        return outputs, out_mask.sum(axis=1).astype(int)

    # -- pooling + projection

    def output_spans(self, spans) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, starts, lengths) in output frames of (row, start, end)
        spans given in input frames: a span covers every output frame that
        one of its input frames falls into."""
        r, s, e = np.array(spans, dtype=np.intp).reshape(-1, 3).T
        q = self.config.subsample
        starts = s // q
        return r, starts, -(-e // q) - starts

    def project(self, pooled: Tensor) -> Tensor:
        h = pooled
        for w, b in self.fc:
            h = ad.relu(ad.affine(h, w.tensor, b.tensor))
        return ad.affine(h, self.proj_w.tensor, self.proj_b.tensor)

    def pool(self, outputs: Tensor, rows, starts, lengths) -> Tensor:
        """``pool_spans`` with the configured mode."""
        return pool_spans(outputs, rows, starts, lengths, self.config.pooling)

    def span_embeddings(self, outputs: Tensor, spans) -> Tensor:
        """Pool and project (row, start, end) spans of ``outputs`` given in
        *input* frames: (n, d)."""
        return self.project(self.pool(outputs, *self.output_spans(spans)))

    def embed_segments_isolated(self, segment_frames, train: bool = False,
                                rng: np.random.Generator | None = None) -> Tensor:
        """Embed isolated word segments (each encoded on its own): (n, d)."""
        outputs, _ = self.encode(segment_frames, train=train, rng=rng)
        return self.span_embeddings(outputs, [(i, 0, len(f)) for i, f in enumerate(segment_frames)])


def uniform_fc(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    return nn.uniform_init(rng, (fan_in, fan_out), fan_in)


# ---------------------------------------------------------------------------
# Written encoder


@dataclass
class WrittenEncoderConfig:
    mode: str = "char"  # char | phone | feature
    symbol_embed_dim: int = 64
    hidden: int = 128
    embed_dim: int = 64


class WrittenEncoder:
    """Symbol-sequence encoder: embedding, 1-layer bi-LSTM, concat pooling,
    projection. In feature mode each phone's binary feature vector passes
    through a bias-free linear map (a sum of feature-value embeddings)."""

    def __init__(
        self,
        config: WrittenEncoderConfig,
        rng: np.random.Generator,
        symbols: list[str] | None = None,
        feature_table: FeatureTable | None = None,
        shared_projection: tuple[nn.Parameter, nn.Parameter] | None = None,
    ):
        self.config = config
        self.feature_table = feature_table
        if config.mode == "feature":
            if feature_table is None:
                raise EncoderError("feature mode needs a feature table")
            self.symbol_index = None
            self.embed_table = nn.Parameter(
                "g.feature_embed",
                nn.normal_init(rng, (feature_table.num_features, config.symbol_embed_dim)),
            )
        else:
            if not symbols:
                raise EncoderError("char/phone mode needs a symbol inventory")
            self.symbols = sorted(symbols)
            self.symbol_index = {s: i for i, s in enumerate(self.symbols)}
            self.embed_table = nn.Parameter(
                "g.symbol_embed", nn.normal_init(rng, (len(self.symbols), config.symbol_embed_dim))
            )
        self.fw = nn.LstmParams.create("g.rnn.fw", config.symbol_embed_dim, config.hidden, rng, nn.RECURRENT_DTYPE)
        self.bw = nn.LstmParams.create("g.rnn.bw", config.symbol_embed_dim, config.hidden, rng, nn.RECURRENT_DTYPE)
        self.width = 2 * config.hidden
        if shared_projection is not None:
            self.proj_w, self.proj_b = shared_projection
            if self.proj_w.values.shape != (self.width, config.embed_dim):
                raise EncoderError("shared projection has incompatible shape")
            self.owns_projection = False
        else:
            self.proj_w = nn.Parameter("g.proj.w", uniform_fc(rng, self.width, config.embed_dim))
            self.proj_b = nn.Parameter("g.proj.b", np.zeros(config.embed_dim))
            self.owns_projection = True

    def parameters(self) -> list[nn.Parameter]:
        out = [self.embed_table] + self.fw.parameters() + self.bw.parameters()
        if self.owns_projection:
            out.extend([self.proj_w, self.proj_b])
        return out

    def resolve(self, word: str, lexicon: Lexicon | None) -> tuple:
        """Word -> symbol sequence for the configured input mode."""
        if self.config.mode == "char":
            seq = tuple(word)
        else:
            if lexicon is None or word not in lexicon:
                raise EncoderError(f"word {word!r} not resolvable through the lexicon")
            seq = lexicon[word]
        if not seq:
            raise EncoderError(f"word {word!r} resolves to an empty sequence")
        return seq

    def _sequence_inputs(self, seqs) -> tuple[Tensor, np.ndarray]:
        """Symbol sequences -> (n, L, E) embedded inputs plus mask."""
        n = len(seqs)
        L = max(len(s) for s in seqs)
        mask = np.zeros((n, L))
        for i, s in enumerate(seqs):
            mask[i, : len(s)] = 1.0
        E = self.config.symbol_embed_dim
        if self.config.mode == "feature":
            F = self.feature_table.num_features
            rows = np.zeros((n, L, F))
            for i, s in enumerate(seqs):
                rows[i, : len(s)] = phones_to_feature_rows(s, self.feature_table)
            flat = ad.matmul(Tensor(rows.reshape(n * L, F)), self.embed_table.tensor)
        else:
            ids = np.zeros((n, L), dtype=np.intp)
            for i, s in enumerate(seqs):
                for j, sym in enumerate(s):
                    if sym not in self.symbol_index:
                        raise EncoderError(f"symbol {sym!r} not in inventory")
                    ids[i, j] = self.symbol_index[sym]
            flat = ad.gather_rows(self.embed_table.tensor, ids.reshape(-1))
        return ad.reshape(flat, (n, L, E)), mask

    def embed_sequences(self, seqs) -> Tensor:
        """Embed resolved symbol sequences: (n, d)."""
        x, mask = self._sequence_inputs(seqs)
        fw_out = nn.run_recurrent_layer(self.fw, x, mask)
        bw_out = nn.run_recurrent_layer(self.bw, x, mask, reverse=True)
        n = len(seqs)
        pooled = pool_spans(ad.concat([fw_out, bw_out], axis=2), np.arange(n), 0, [len(s) for s in seqs],
                            "concat")
        return ad.affine(pooled, self.proj_w.tensor, self.proj_b.tensor)

    def embed_words(self, words, lexicon: Lexicon | None = None) -> Tensor:
        return self.embed_sequences([self.resolve(w, lexicon) for w in words])


# ---------------------------------------------------------------------------
# Prediction layer


class PredictionLayer:
    """Word scoring matrix W (|V| x d) of free rows (optionally frozen
    after init) and bias b (|V|)."""

    def __init__(self, vocab: Vocabulary, embed_dim: int, rng: np.random.Generator,
                 unit_normalized: bool = False):
        self.vocab = vocab
        self.unit_normalized = unit_normalized
        self.w = nn.Parameter("pred.w", nn.normal_init(rng, (vocab.size, embed_dim)) / np.sqrt(embed_dim))
        self.b = nn.Parameter("pred.b", np.zeros(vocab.size))
        self.base_size = vocab.size  # rows beyond this are extension rows

    @staticmethod
    def from_written_encoder(vocab: Vocabulary, g: WrittenEncoder, lexicon: Lexicon | None,
                             rng: np.random.Generator, unit_normalize: bool = True) -> "PredictionLayer":
        """Rows are copies of g(v) (unit-normalized when requested); reserved
        UNK rows are random."""
        pl = PredictionLayer(vocab, g.config.embed_dim, rng, unit_normalized=unit_normalize)
        embeddable = [v for v in vocab.labels if v != vocab.unk_token]
        embs = g.embed_words(embeddable, lexicon).values
        if unit_normalize:
            embs = unit_rows(embs)
            pl.w.values[...] = unit_rows(pl.w.values)
        for word, row in zip(embeddable, embs):
            pl.w.values[vocab.index(word)] = row
        return pl

    def parameters(self) -> list[nn.Parameter]:
        return [self.w, self.b]

    def freeze(self):
        """Freeze the weight rows (biases stay trainable)."""
        self.w.frozen = True


def extend_vocabulary(pl: PredictionLayer, g: WrittenEncoder, new_words,
                      lexicon: Lexicon | None = None) -> PredictionLayer:
    """Append rows g(w) for new words; existing rows are untouched and new
    biases are zero. New rows are unit-normalized when the layer was
    initialized unit-normalized. Duplicates are rejected."""
    new_words = list(new_words)
    for w in new_words:
        if w in pl.vocab:
            raise EncoderError(f"word {w!r} already in the vocabulary")
    if len(set(new_words)) != len(new_words):
        raise EncoderError("duplicate words in the extension")
    out = copy.copy(pl)  # chained extensions keep the original base_size
    out.vocab = _extended_vocab(pl.vocab, new_words)
    rows = pl.w.values
    if new_words:
        new_rows = g.embed_words(new_words, lexicon).values
        if pl.unit_normalized:
            new_rows = unit_rows(new_rows)
        rows = np.concatenate([rows, new_rows], axis=0)
    out.w = nn.Parameter("pred.w", rows.copy())
    out.w.frozen = True
    out.b = nn.Parameter("pred.b", np.concatenate([pl.b.values, np.zeros(len(new_words))]))
    return out


def _extended_vocab(vocab: Vocabulary, new_words) -> Vocabulary:
    ext = copy.copy(vocab)  # the new words follow the reserved UNK row
    ext.labels = vocab.labels + list(new_words)
    ext._index = {w: i for i, w in enumerate(ext.labels)}
    return ext
