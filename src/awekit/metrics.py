"""Evaluation metrics: word-discrimination average precision, search
quality (FOM, OTWV, P@k, normalized cross entropy, term-weighted value),
and word error rate.

Conventions: word-discrimination scores are *distances* (lower = same);
search scores are *similarities* (higher = hit). Average precision uses
step integration of the precision-recall curve with tie-grouped
thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class MetricError(Exception):
    pass


# ---------------------------------------------------------------------------
# Average precision and the discrimination proxies


def _sweep(scores_row, truth_row):
    """Descending-threshold sweep: cumulative TP and FP per distinct score."""
    order = np.argsort(-scores_row, kind="stable")
    t = truth_row[order]
    s = scores_row[order]
    cum_tp = np.cumsum(t)
    cum_fp = np.cumsum(~t)
    # keep only the last entry of each tied-score run
    keep = np.nonzero(np.concatenate([np.diff(s) != 0, [True]]))[0]
    return cum_tp[keep], cum_fp[keep]


def average_precision(distances, is_same) -> float:
    """Area under the precision-recall curve swept over distance thresholds.

    Thresholds visit each distinct distance ascending (ties grouped); a
    pair is predicted "same" when its distance is <= the threshold. AP is
    the sum of precision * recall-increment at each threshold (step
    integration).
    """
    distances = np.asarray(distances, dtype=np.float64)
    is_same = np.asarray(is_same, dtype=bool)
    if distances.shape != is_same.shape or distances.ndim != 1:
        raise MetricError("need matching 1-D distances and labels")
    if not np.isfinite(distances).all():
        raise MetricError("non-finite distances")
    n_pos = int(is_same.sum())
    if n_pos == 0:
        raise MetricError("average precision needs at least one same pair")
    tp, fp = _sweep(-distances, is_same)
    precision = tp / (tp + fp)
    delta_recall = np.diff(np.concatenate([[0.0], tp / n_pos]))
    return float((precision * delta_recall).sum())


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; a zero row stays zero, so its cosines are
    0 and its cosine distances exactly 1."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.where(norms > 0, norms, 1.0)


def acoustic_ap(embeddings, labels) -> float:
    """Same/different-word AP over all segment pairs (cosine distance)."""
    labels = np.asarray(labels)
    if len(labels) < 2:
        raise MetricError("need at least two segments")
    x = unit_rows(np.asarray(embeddings, dtype=np.float64))
    iu = np.triu_indices(len(labels), k=1)
    same = labels[iu[0]] == labels[iu[1]]
    return average_precision(1.0 - (x @ x.T)[iu], same)


def cross_view_ap(acoustic_embeddings, acoustic_labels, word_embeddings, word_labels) -> float:
    """AP over all (segment, written word) pairs, cosine distance."""
    a = np.asarray(acoustic_embeddings, dtype=np.float64)
    w = np.asarray(word_embeddings, dtype=np.float64)
    if len(w) < 1 or len(a) < 1:
        raise MetricError("need at least one segment and one word")
    dist = 1.0 - unit_rows(a) @ unit_rows(w).T
    same = np.asarray(acoustic_labels)[:, None] == np.asarray(word_labels)[None, :]
    return average_precision(dist.ravel(), same.ravel())


# ---------------------------------------------------------------------------
# Query-by-example search metrics


@dataclass
class QueryResultSet:
    """Dense score matrix for query instances against search utterances.

    scores[q, u] is the detection score (similarity; -1 sentinel allowed),
    truth[q, u] says whether utterance u truly contains query q's term,
    query_types groups instances into term types, and total_hours is the
    duration of the search collection.
    """

    query_ids: list
    utterance_ids: list
    scores: np.ndarray
    truth: np.ndarray
    query_types: dict = field(default_factory=dict)
    total_hours: float = 1.0

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.truth = np.asarray(self.truth, dtype=bool)
        expect = (len(self.query_ids), len(self.utterance_ids))
        if self.scores.shape != expect or self.truth.shape != expect:
            raise MetricError("scores/truth must be (num queries, num utterances)")
        if not self.query_types:
            self.query_types = {q: q for q in self.query_ids}


def fom_per_query(results: QueryResultSet) -> dict:
    """Figure of merit: recall averaged at 1..10 false alarms per hour,
    linearly interpolated between achievable false-alarm rates."""
    if results.total_hours <= 0:
        raise MetricError("total_hours must be positive")
    out = {}
    for qi, q in enumerate(results.query_ids):
        truth = results.truth[qi]
        n_pos = int(truth.sum())
        if n_pos == 0:
            out[q] = 0.0
            continue
        tp, fp = _sweep(results.scores[qi], truth)
        fa_rates = np.concatenate([[0.0], fp / results.total_hours])
        recalls = np.concatenate([[0.0], tp / n_pos])
        # best recall achievable at each distinct FA rate (recall is
        # monotone along the sweep, so keep the last entry per rate)
        keep = np.nonzero(np.concatenate([np.diff(fa_rates) != 0, [True]]))[0]
        targets = np.arange(1, 11, dtype=np.float64)
        interp = np.interp(targets, fa_rates[keep], recalls[keep], right=recalls[-1])
        out[q] = float(interp.mean())
    return out


def fom(results: QueryResultSet, per_query: dict | None = None) -> float:
    """Mean per-query figure of merit (unweighted over query instances).
    Here and in ``otwv`` and ``p_at_k``, ``per_query`` is the per-query
    dict when the caller has already computed it."""
    per = fom_per_query(results) if per_query is None else per_query
    return float(np.mean(list(per.values())))


def otwv_per_query(results: QueryResultSet, beta: float = 999.9) -> dict:
    """Oracular term-weighted value: per query, the best threshold's
    recall - beta * false-alarm probability.

    False-alarm probability is false alarms over non-target utterances.
    ``beta`` weighs false alarms against misses; the classic
    spoken-term-detection weight 999.9 is the default.
    """
    out = {}
    for qi, q in enumerate(results.query_ids):
        truth = results.truth[qi]
        n_pos = int(truth.sum())
        n_neg = len(truth) - n_pos
        if n_pos == 0:
            out[q] = 0.0
            continue
        tp, fp = _sweep(results.scores[qi], truth)
        recall = tp / n_pos
        p_fa = fp / n_neg if n_neg > 0 else np.zeros_like(fp, dtype=np.float64)
        values = np.concatenate([[0.0], recall - beta * p_fa])  # 0 = reject all
        out[q] = float(values.max())
    return out


def otwv(results: QueryResultSet, beta: float = 999.9, per_query: dict | None = None) -> float:
    per = otwv_per_query(results, beta) if per_query is None else per_query
    return float(np.mean(list(per.values())))


def p_at_k_per_query(results: QueryResultSet, k: int = 10) -> dict:
    """Fraction of the top-k scoring utterances that are true matches.

    Ties broken by utterance position; collections smaller than k use
    min(k, #utterances) as the denominator.
    """
    out = {}
    for qi, q in enumerate(results.query_ids):
        order = np.argsort(-results.scores[qi], kind="stable")[:k]
        denom = min(k, len(order))
        out[q] = float(results.truth[qi][order].sum() / denom)
    return out


def p_at_k(results: QueryResultSet, k: int = 10, per_query: dict | None = None) -> float:
    per = p_at_k_per_query(results, k) if per_query is None else per_query
    return float(np.mean(list(per.values())))


def aggregate_median_max(per_instance: dict, query_types: dict) -> tuple[float, float]:
    """Median and max of a per-instance metric within each query type,
    then the unweighted mean across types: (median-mean, max-mean)."""
    groups: dict = {}
    for q, value in per_instance.items():
        groups.setdefault(query_types[q], []).append(value)
    medians = [float(np.median(v)) for v in groups.values()]
    maxima = [float(np.max(v)) for v in groups.values()]
    return float(np.mean(medians)), float(np.mean(maxima))


_CNXE_SLOPES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
_CNXE_OFFSETS = np.linspace(-6.0, 6.0, 25)
_CNXE_CLAMP = 1e-6


def min_cnxe(scores, truth) -> float:
    """Minimum normalized cross entropy over an affine score calibration.

    Scores are standardized, mapped to probabilities via sigmoid(a*z + b)
    over a fixed deterministic grid of (a, b), and scored with the
    balanced (prior-0.5) binary cross entropy in bits, normalized by the
    1-bit entropy of random scoring. The grid includes a=0, b=0 (constant
    0.5), so the result is always <= 1.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=bool).ravel()
    n_pos = int(truth.sum())
    n_neg = len(truth) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("normalized cross entropy needs both classes")
    std = scores.std()
    z = (scores - scores.mean()) / (std if std > 0 else 1.0)
    best = np.inf
    for a in _CNXE_SLOPES:
        logits = a * z[None, :] + _CNXE_OFFSETS[:, None]
        p = np.clip(1.0 / (1.0 + np.exp(-logits)), _CNXE_CLAMP, 1.0 - _CNXE_CLAMP)
        ce_pos = -np.log2(p[:, truth]).mean(axis=1)
        ce_neg = -np.log2(1.0 - p[:, ~truth]).mean(axis=1)
        best = min(best, float((0.5 * ce_pos + 0.5 * ce_neg).min()))
    return best


def max_twv(scores, truth, beta: float = 12.49) -> float:
    """Maximum term-weighted value 1 - (P_miss + beta * P_fa) over decision
    thresholds at the distinct scores (plus the reject-all threshold)."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=bool).ravel()
    n_pos = int(truth.sum())
    n_neg = len(truth) - n_pos
    if n_pos == 0:
        raise MetricError("term-weighted value needs at least one positive")
    tp, fp = _sweep(scores, truth)
    p_miss = 1.0 - tp / n_pos
    p_fa = fp / n_neg if n_neg > 0 else np.zeros_like(fp, dtype=np.float64)
    twv = 1.0 - (p_miss + beta * p_fa)
    return float(max(twv.max(), 0.0))  # rejecting everything gives 0


# ---------------------------------------------------------------------------
# Word error rate


class WerResult(NamedTuple):
    substitutions: int
    deletions: int
    insertions: int
    rate: float


def wer(ref, hyp) -> WerResult:
    """Levenshtein alignment with unit costs; rate = (S+D+I)/len(ref).

    Backtrace prefers match/substitution, then deletion, then insertion
    on ties (affects only the S/D/I split, never the total).
    """
    ref = list(ref)
    hyp = list(hyp)
    if len(ref) == 0:
        raise MetricError("reference must be non-empty")
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1])
            dele = dist[i - 1, j] + 1
            ins = dist[i, j - 1] + 1
            dist[i, j] = min(sub, dele, ins)
    s = d = ins_count = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i, j] == dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            s += ref[i - 1] != hyp[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            d += 1
            i -= 1
        else:
            ins_count += 1
            j -= 1
    return WerResult(int(s), int(d), int(ins_count), (s + d + ins_count) / len(ref))
