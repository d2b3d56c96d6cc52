"""Embedding-based query-by-example search.

Sliding-window segment generation and an index built from
random-hyperplane bit signatures: the signatures are sorted
lexicographically under P random bit permutations, and a query reads the
B entries on each side of its insertion point in every sorted list.
Everything but the refs and the embeddings follows from the seed, so an
index file (CADI version 3) stores only its header, the refs, the
float32 embeddings and a CRC32, and ``load_index`` reads them with
``corpus.BinaryReader`` and rebuilds the rest through ``build_index``,
which rounds embeddings to float32 before it signs them: an index in
memory equals its reload. Candidates are scored once, in
``query_index``, by exact cosine similarity against the stored
embeddings; a beam covering the index scores every entry. The ranked
candidates come back as ``Hits``: entry ids and scores as arrays, read
as (ref, score) pairs. ``utterance_scores`` reduces them to the best
admissible window of each utterance with array operations over
entry-to-utterance and entry-to-size tables.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .corpus import BinaryReader, open_binary, pack_name

INDEX_MAGIC = b"CADI"
INDEX_VERSION = 3
MAX_BITS = 4096  # the most hyperplanes an index may have: 4x the paper's 1024
MAX_PERMUTATIONS = 64  # the most bit permutations an index may have: 4x the default 16


class SearchError(Exception):
    pass


def default_window_sizes() -> tuple:
    return tuple(range(12, 31, 3)) + tuple(range(36, 121, 6))


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window generation and query-length admissibility: a window
    is admissible for a query of L frames when its size is in
    [2L/3, 4L/3]. The sizes are strictly increasing and the stride is at
    least 1, as the [search] schema requires."""

    sizes: tuple = field(default_factory=default_window_sizes)
    stride: int = 5

    def admissible_sizes(self, query_len: int) -> tuple:
        lo = 2.0 / 3.0 * query_len
        hi = 4.0 / 3.0 * query_len
        return tuple(s for s in self.sizes if lo <= s <= hi)


def generate_windows(num_frames: int, cfg: WindowConfig) -> list[tuple[int, int]]:
    """All (start, size) with size from cfg.sizes, start on the stride
    grid, and start+size within the utterance. Size-major order."""
    out = []
    for size in cfg.sizes:
        if size > num_frames:
            continue
        for start in range(0, num_frames - size + 1, cfg.stride):
            out.append((start, size))
    return out


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class HyperplaneSet:
    """b random hyperplanes (rows, i.i.d. standard normal) with the seed
    recorded for reproducibility."""

    planes: np.ndarray
    seed: int

    @staticmethod
    def create(bits: int, dim: int, seed: int) -> "HyperplaneSet":
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5149]))
        planes = rng.standard_normal((bits, dim))
        while (np.linalg.norm(planes, axis=1) == 0).any():  # measure zero
            planes = rng.standard_normal((bits, dim))
        return HyperplaneSet(planes, int(seed))

    @property
    def bits(self) -> int:
        return self.planes.shape[0]


def sign_embed(vector: np.ndarray, planes: HyperplaneSet) -> np.ndarray:
    """Bit i = 1 iff plane_i . v >= 0 (ties map to 1). Scale invariant."""
    v = np.asarray(vector, dtype=np.float64)
    if np.linalg.norm(v) == 0:
        raise SearchError("cannot sign a zero vector")
    return (planes.planes @ v >= 0).astype(np.uint8)


# ---------------------------------------------------------------------------
# Permuted signature index


@dataclass(frozen=True)
class SegmentKey:
    """Where an indexed embedding came from."""

    utterance_id: str
    start: int
    size: int


@dataclass(frozen=True, eq=False)
class PermutedSignatureIndex:
    """Signatures of database segments under P bit permutations, each kept
    as a lexicographically sorted list (ties ordered by entry number).
    Made only by ``build_index``."""

    planes: HyperplaneSet
    refs: list
    embeddings: np.ndarray  # (N, d) float64 holding float32 values
    norms: np.ndarray  # (N,) row norms of the embeddings, for cosine scoring
    permutations: np.ndarray  # (P, b) int array
    sorted_orders: list  # per permutation: entry ids in key order
    sorted_keys: list  # per permutation: packed signatures in key order, dtype S{(b+7)//8}

    @property
    def size(self) -> int:
        return len(self.refs)

    @property
    def num_permutations(self) -> int:
        return len(self.permutations)


def _packed_keys(sigs: np.ndarray) -> np.ndarray:
    """Rows of bits packed into one fixed-width byte string each; numpy
    orders these like the bytes they hold."""
    packed = np.ascontiguousarray(np.packbits(sigs, axis=-1))
    return packed.view(f"S{packed.shape[-1]}").reshape(packed.shape[:-1])


def _sorted_keys(sigs: np.ndarray, perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry ids in lexicographic order of their signatures under one bit
    permutation (ties by entry id), and the packed keys in that order."""
    keys = _packed_keys(np.take(sigs, perm, axis=1))
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


def build_index(embeddings, refs, bits: int, permutations: int, seed: int) -> PermutedSignatureIndex:
    """Index segment embeddings for beamwidth lookup; deterministic in the
    seed (hyperplanes and bit permutations both derive from it). The
    embeddings are rounded to float32, as an index file stores them, before
    anything is computed from them."""
    with np.errstate(invalid="ignore", over="ignore"):  # the norm check below refuses such rows
        embeddings = np.asarray(embeddings, dtype=np.float32).astype(np.float64)
    refs = list(refs)
    if embeddings.ndim != 2 or len(refs) != embeddings.shape[0]:
        raise SearchError("need (N, d) embeddings with one ref per row")
    norms = np.linalg.norm(embeddings, axis=1)
    if not (np.isfinite(norms) & (norms > 0)).all():  # before any hyperplane is drawn
        raise SearchError("an embedding with zero or non-finite norm cannot be indexed")
    planes = HyperplaneSet.create(bits, embeddings.shape[1], seed)
    sigs = (embeddings @ planes.planes.T >= 0).astype(np.uint8)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7065]))
    perms = np.stack([rng.permutation(bits) for _ in range(permutations)])
    orders, keys = zip(*(_sorted_keys(sigs, perm) for perm in perms))
    return PermutedSignatureIndex(planes, refs, embeddings, norms, perms, list(orders), list(keys))


@dataclass(frozen=True, eq=False)
class Hits(Sequence):
    """``query_index`` output: candidate entry ids and their scores in rank
    order; ``hits[i]`` is ``(ref, score)``."""

    refs: list
    entries: np.ndarray
    scores: np.ndarray

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.refs[self.entries[i]], float(self.scores[i])


def query_index(query: np.ndarray, index: PermutedSignatureIndex, beamwidth: int) -> Hits:
    """Approximate nearest neighbors with exact cosine re-ranking.

    For each permutation, the query signature's insertion point is found
    by binary search and the ``beamwidth`` entries on each side join the
    candidate set (a beamwidth of ``index.size`` takes every entry);
    candidates are scored by exact cosine similarity against the stored
    embeddings and returned sorted by descending score (ties by entry
    order).
    """
    if index.size == 0:
        raise SearchError("empty index")
    q = np.asarray(query, dtype=np.float64)
    sig = sign_embed(q, index.planes)  # refuses a zero vector
    chosen = np.zeros(index.size, dtype=bool)
    for perm, order, keys in zip(index.permutations, index.sorted_orders, index.sorted_keys):
        pos = int(np.searchsorted(keys, _packed_keys(sig[perm])))
        chosen[order[max(0, pos - beamwidth) : pos + beamwidth]] = True
    cand = np.flatnonzero(chosen)
    scores = index.embeddings[cand] @ q / (index.norms[cand] * np.linalg.norm(q))
    order = np.lexsort((cand, -scores))
    return Hits(index.refs, cand[order], scores[order])


def utterance_scores(hits: Hits, entry_utterance: np.ndarray, entry_size: np.ndarray,
                     admissible: np.ndarray, num_utterances: int) -> tuple[np.ndarray, np.ndarray]:
    """Each utterance's best admissible window in ranked ``hits``: its score
    and entry id. ``entry_utterance`` and ``entry_size`` give each entry's
    utterance slot and window size, and ``admissible[size]`` says whether a
    size is admissible. The first admissible hit of an utterance in rank
    order wins: the highest score, ties to the lower entry id. An utterance
    with no admissible hit above -1 keeps score -1 (below any true cosine)
    and entry -1."""
    keep = admissible[entry_size[hits.entries]] & (hits.scores > -1.0)
    entries = hits.entries[keep]
    utts, first = np.unique(entry_utterance[entries], return_index=True)
    scores, best = np.full(num_utterances, -1.0), np.full(num_utterances, -1, dtype=np.intp)
    scores[utts], best[utts] = hits.scores[keep][first], entries[first]
    return scores, best


# ---------------------------------------------------------------------------
# Persistence


def save_index(path, index: PermutedSignatureIndex):
    """CADI version 3: magic, the header (version, bits, permutations,
    seed, N, d), the N refs, the N x d float32 embeddings, then a CRC32
    trailer (``corpus.open_binary``)."""
    N, d = index.embeddings.shape
    with open_binary(path, INDEX_MAGIC, INDEX_VERSION) as write:
        write(struct.pack("<IIqII", index.planes.bits, index.num_permutations, index.planes.seed, N, d))
        for ref in index.refs:
            write(pack_name(ref.utterance_id) + struct.pack("<II", ref.start, ref.size))
        write(index.embeddings.astype("<f4").tobytes())


def load_index(path) -> PermutedSignatureIndex:
    """Parse a CADI version 3 file and rebuild its index with
    ``build_index``. The header is checked before anything is drawn."""
    r = BinaryReader(path, INDEX_MAGIC, INDEX_VERSION, "rebuild the file with `awekit index`", SearchError)
    b, P, seed, N, d = r.unpack("<IIqII")
    if seed < 0:  # stored signed; SeedSequence takes only non-negative seeds
        raise SearchError(f"corrupt index file: negative hyperplane seed {seed}")
    if N == 0:  # never written; only N >= 1 ties d to the file size
        raise SearchError(f"corrupt index file: {N} entries")
    # bounded: nothing else in the file ties b or P to its size
    if not 1 <= b <= MAX_BITS:
        raise SearchError(f"corrupt index file: {b} bits, not in [1, {MAX_BITS}]")
    if not 1 <= P <= MAX_PERMUTATIONS:
        raise SearchError(f"corrupt index file: {P} permutations, not in [1, {MAX_PERMUTATIONS}]")
    refs = [SegmentKey(r.text(), *r.unpack("<II")) for _ in range(N)]
    emb = r.floats((N, d))
    r.finish()
    return build_index(emb, refs, b, P, seed)
