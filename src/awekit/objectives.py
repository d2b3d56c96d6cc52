"""Embedding-training losses.

Covers the word-classifier cross entropy, single-view triplets (uniform,
confusion-matrix, and most-offending negative selection, all scored by
``triplet_loss`` from one distance matrix over a batch), the multi-view
contrastive objective with its three terms and hard/semi-hard negative
selection, the square-root per-term variant, the written-embedding
regularizer for prediction layers, and joint-objective combination.

Distances are cosine throughout. For a segment embedding f(X) with label
v and written embeddings g(.), the three multi-view terms average hinge
values [margin + d(f(X), g(v)) - d(negative pair)]_+ over a negative set:
term 0 contrasts f(X) against other labels' g(v'), term 1 contrasts g(v)
against other g(v'), term 2 contrasts g(v) against other segments f(X').
``multiview_loss`` takes a batch as plain arguments: the segment
embeddings and their labels, the sorted batch vocabulary and its written
embeddings, then the margin, k negatives per item and the strategy.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class ObjectiveError(Exception):
    pass


# The negative-selection strategies each embedding loss runs.
STRATEGIES = {"multiview": ("hard", "semi-hard"),
              "triplet": ("uniform", "confusion", "offending")}


def batch_vocabulary(labels, full_vocab=None, extras: int = 0,
                     rng: np.random.Generator | None = None) -> list:
    """Unique batch labels plus ``extras`` labels sampled (without
    replacement) from the rest of the vocabulary; sorted."""
    vocab = set(labels)
    if extras > 0:
        if full_vocab is None or rng is None:
            raise ObjectiveError("extras need the full vocabulary and an rng")
        outside = sorted(set(full_vocab) - vocab)
        take = min(extras, len(outside))
        if take:
            picks = rng.choice(len(outside), size=take, replace=False)
            vocab.update(outside[i] for i in picks)
    return sorted(vocab)


# ---------------------------------------------------------------------------
# Classifier


def cross_entropy_batch(logits: Tensor, label_indices) -> Tensor:
    """Summed cross entropy over a (B, |V|) batch."""
    ids = np.asarray(label_indices, dtype=np.intp)
    ls = ad.log_softmax(logits, axis=1)
    picked = ad.getitem(ls, (np.arange(len(ids)), ids))
    return ad.scale(ad.sum_(picked), -1.0)


# ---------------------------------------------------------------------------
# Single-view triplets


def triplet_loss(dist: Tensor, anchors, positives, negatives, margin: float) -> Tensor:
    """Summed cosine hinge [margin + d(a, p) - d(a, n)]_+ over t triplets.

    ``dist`` is an (m, m) distance tensor over a batch's segments;
    ``anchors`` and ``positives`` are (t,) row indices and ``negatives`` a
    (t, c) array of candidate rows. Each anchor is scored against its
    candidate closest to it (``np.argmin``, so ties go to the first): c = 1
    is the plain triplet, c = k the most-offending one.
    """
    anchors = np.asarray(anchors, dtype=np.intp)
    positives = np.asarray(positives, dtype=np.intp)
    negatives = np.asarray(negatives, dtype=np.intp)
    if negatives.ndim != 2 or negatives.shape[1] == 0:
        raise ObjectiveError("need a non-empty (t, c) candidate array")
    closest = np.argmin(dist.values[anchors[:, None], negatives], axis=1)
    pos = ad.getitem(dist, (anchors, positives))
    neg = ad.getitem(dist, (anchors, negatives[np.arange(len(anchors)), closest]))
    return ad.sum_(ad.relu(ad.add(ad.sub(pos, neg), margin)))


class ConfusionMatrix:
    """Label-confusion statistics driving non-uniform negative sampling.

    At each epoch reset the matrix has zeros on the diagonal and ones
    elsewhere, which makes sampling uniform. During training, a triplet
    whose negative violates d(a,d) <= d(a,s) + threshold adds the cosine
    similarity cos(f(a), f(d)) at both (label_a, label_d) and
    (label_d, label_a); the sampling PMF for an anchor label is its row
    normalized by the row sum (entries clipped at zero first, since
    accumulated cosines can in principle be negative). PMFs are read at
    sampling time, so updates take effect after the batch that produced
    them.
    """

    def __init__(self, num_labels: int, threshold: float = 0.6):
        self.threshold = threshold
        self.num_labels = num_labels
        self.matrix = np.ones((num_labels, num_labels))
        np.fill_diagonal(self.matrix, 0.0)

    def reset(self):
        self.matrix[...] = 1.0
        np.fill_diagonal(self.matrix, 0.0)

    def update(self, anchor_label: int, diff_label: int, d_as: float, d_ad: float):
        """Record a triplet from its distances d(anchor, same) and
        d(anchor, different)."""
        if anchor_label == diff_label:
            raise ObjectiveError("anchor and different labels must differ")
        if d_ad <= d_as + self.threshold:
            self.matrix[anchor_label, diff_label] += 1.0 - d_ad
            self.matrix[diff_label, anchor_label] += 1.0 - d_ad

    def pmf(self, anchor_label: int) -> np.ndarray:
        row = np.clip(self.matrix[anchor_label], 0.0, None)
        total = row.sum()
        if total == 0:  # degenerate; fall back to uniform over others
            row = np.ones(self.num_labels)
            row[anchor_label] = 0.0
            total = row.sum()
        return row / total

    def sample_different(self, anchor_label: int, rng: np.random.Generator) -> int:
        return int(rng.choice(self.num_labels, p=self.pmf(anchor_label)))


# ---------------------------------------------------------------------------
# Multi-view loss


def _select_topk(dist: np.ndarray, candidates: np.ndarray, k: int, semi_hard: bool,
                 pos: float) -> np.ndarray:
    """Pick up to k candidate indices by the configured strategy.

    hard: the k smallest distances; semi-hard: the k smallest among
    candidates farther than the positive. Ties break lexicographically by
    (distance, candidate index).
    """
    if semi_hard:
        candidates = candidates[dist[candidates] > pos]
    order = np.lexsort((candidates, dist[candidates]))
    return candidates[order[:k]]


def multiview_loss(
    acoustic: Tensor,
    labels: list,
    vocab: list,
    word_embeddings: Tensor,
    margin: float,
    k: int,
    strategy: str = "hard",
    terms=(0, 2),
    sqrt_variant: bool = False,
) -> Tensor:
    """Contrastive multi-view objective over a batch.

    ``acoustic`` holds the (n, d) segment embeddings with their ``labels``;
    ``word_embeddings`` holds one (|vocab|, d) row per word of the sorted
    batch ``vocab``, which contains every label (``batch_vocabulary``).
    Sums the selected loss ``terms`` (distinct members of {0, 1, 2}) over
    items; each term averages its hinge values over up to ``k`` negatives
    picked by ``strategy`` (hard or semi-hard; empty sets
    contribute 0). With ``sqrt_variant`` each per-item term value is taken
    to the power 0.5.
    ``isolated`` vs ``contextual`` training differ only in how the batch's
    acoustic embeddings were produced (whole-segment encoding vs pooling
    inside utterances); this function sees only the embeddings.
    """
    terms = tuple(terms)
    if strategy not in STRATEGIES["multiview"]:
        raise ObjectiveError(f"strategy {strategy!r}: the multiview loss runs {STRATEGIES['multiview']}")
    n = len(labels)
    if n == 0:
        raise ObjectiveError("empty batch")
    col = {v: j for j, v in enumerate(vocab)}
    label_idx = np.array([col[v] for v in labels], dtype=np.intp)
    labels_arr = np.asarray(labels)

    d_aw = ad.cosine_distance_matrix(acoustic, word_embeddings)  # (n, V)
    d_ww = ad.cosine_distance_matrix(word_embeddings, word_embeddings) if 1 in terms else None
    pos = ad.getitem(d_aw, (np.arange(n), label_idx))  # (n,)

    semi = strategy == "semi-hard"
    pieces = []  # per term: (hinge values weighted by 1/k, per-item slot)
    for ti, term in enumerate(terms):
        picked, sels = [], []
        for i in range(n):
            li = label_idx[i]
            if term in (0, 1):
                cand = np.nonzero(np.arange(len(vocab)) != li)[0]
                dvec = d_aw.values[i] if term == 0 else d_ww.values[li]
            else:
                cand = np.nonzero(labels_arr != labels[i])[0]
                dvec = d_aw.values[:, li]
            sel = _select_topk(dvec, cand, k, semi, float(pos.values[i]))
            if len(sel):
                picked.append(i)
                sels.append(sel)
        if not picked:
            continue
        counts = np.array([len(sel) for sel in sels])
        items = np.repeat(np.array(picked, dtype=np.intp), counts)
        sel = np.concatenate(sels)
        if term == 0:
            neg = ad.getitem(d_aw, (items, sel))
        elif term == 1:
            neg = ad.getitem(d_ww, (label_idx[items], sel))
        else:
            neg = ad.getitem(d_aw, (sel, label_idx[items]))
        hinge = ad.relu(ad.add(ad.sub(ad.getitem(pos, items), neg), margin))
        pieces.append((ad.mul_const(hinge, np.repeat(1.0 / counts, counts)), ti * n + items))

    if not pieces:
        return ad.constant(0.0)
    flat = ad.concat([p for p, _ in pieces], axis=0)
    seg = np.concatenate([s for _, s in pieces])
    per_item_terms = ad.segment_sum(flat, seg, n * len(terms))
    if sqrt_variant:
        per_item_terms = ad.sqrt(per_item_terms)
    return ad.sum_(per_item_terms)


# ---------------------------------------------------------------------------
# Regularizer and joint combination


def agwe_regularizer(prediction_rows: Tensor, written_rows: Tensor) -> Tensor:
    """Sum over rows of the Euclidean distance ||g(v) - W_v||_2.

    Callers gather the rows for the batch's unique words. In pretrain-
    regularize mode the written rows are constants; in joint mode they are
    live encoder outputs and gradients flow into both sides.
    """
    if prediction_rows.values.shape != written_rows.values.shape:
        raise ObjectiveError("row matrices must have matching shapes")
    return ad.sum_(ad.l2norm_rows(ad.sub(written_rows, prediction_rows)))


SCHEMES = ("additive", "convex")  # the ways combine_joint weighs its losses


def combine_joint(asr_loss: Tensor, emb_loss: Tensor | None, reg_loss: Tensor | None,
                  lambda_emb: float, lambda_reg: float, scheme: str = "additive") -> Tensor:
    """Combine recognizer, embedding, and regularizer losses.

    additive: asr + lambda_emb*emb + lambda_reg*reg
    convex:   (1-lambda_reg)*asr + lambda_reg*reg + lambda_emb*emb
    """
    total = ad.scale(asr_loss, 1.0 - lambda_reg) if scheme == "convex" else asr_loss
    if reg_loss is not None and lambda_reg > 0:
        total = ad.add(total, ad.scale(reg_loss, lambda_reg))
    if emb_loss is not None and lambda_emb > 0:
        total = ad.add(total, ad.scale(emb_loss, lambda_emb))
    return total
