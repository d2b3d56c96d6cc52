"""Embedding-based query-by-example search.

Sliding-window segment generation, exhaustive cosine scoring, and an
approximate index built from random-hyperplane bit signatures: the
signatures are sorted lexicographically under P random bit permutations,
and a query reads the B entries on each side of its insertion point in
every sorted list. Candidates are then re-ranked by exact cosine
similarity against the stored embeddings.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

INDEX_MAGIC = b"CADI"
INDEX_VERSION = 1


class SearchError(Exception):
    pass


def default_window_sizes() -> tuple:
    return tuple(range(12, 31, 3)) + tuple(range(36, 121, 6))


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window generation and query-length admissibility."""

    sizes: tuple = field(default_factory=default_window_sizes)
    stride: int = 5
    min_ratio: float = 2.0 / 3.0
    max_ratio: float = 4.0 / 3.0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if any(b <= a for a, b in zip(sizes, sizes[1:])) or not sizes:
            raise SearchError("window sizes must be strictly increasing")
        if self.stride < 1:
            raise SearchError("stride must be >= 1")
        if not 0 < self.min_ratio <= 1 <= self.max_ratio:
            raise SearchError("need min_ratio <= 1 <= max_ratio")

    def admissible_sizes(self, query_len: int) -> tuple:
        lo = self.min_ratio * query_len
        hi = self.max_ratio * query_len
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

    @property
    def dim(self) -> int:
        return self.planes.shape[1]


def sign_embed(vector: np.ndarray, planes: HyperplaneSet) -> np.ndarray:
    """Bit i = 1 iff plane_i . v >= 0 (ties map to 1). Scale invariant."""
    v = np.asarray(vector, dtype=np.float64)
    if np.linalg.norm(v) == 0:
        raise SearchError("cannot sign a zero vector")
    return (planes.planes @ v >= 0).astype(np.uint8)


def sign_embed_many(vectors: np.ndarray, planes: HyperplaneSet) -> np.ndarray:
    v = np.asarray(vectors, dtype=np.float64)
    if (np.linalg.norm(v, axis=1) == 0).any():
        raise SearchError("cannot sign zero vectors")
    return (v @ planes.planes.T >= 0).astype(np.uint8)


def hamming_fraction(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float(np.count_nonzero(sig_a != sig_b) / len(sig_a))


# ---------------------------------------------------------------------------
# Permuted signature index


@dataclass(frozen=True)
class SegmentKey:
    """Where an indexed embedding came from."""

    utterance_id: str
    start: int
    size: int


class PermutedSignatureIndex:
    """Signatures of database segments under P bit permutations, each kept
    as a lexicographically sorted list (ties ordered by entry number)."""

    def __init__(self, planes: HyperplaneSet, refs, embeddings, permutations,
                 sorted_orders, sorted_keys):
        self.planes = planes
        self.refs = list(refs)
        self.embeddings = np.asarray(embeddings, dtype=np.float64)
        self.permutations = permutations  # (P, b) int array
        self.sorted_orders = sorted_orders  # per permutation: entry ids in key order
        self.sorted_keys = sorted_keys  # per permutation: packed signature bytes

    @property
    def size(self) -> int:
        return len(self.refs)

    @property
    def num_permutations(self) -> int:
        return len(self.permutations)


def _pack_bits(sigs: np.ndarray) -> list[bytes]:
    packed = np.packbits(sigs, axis=1)
    return [row.tobytes() for row in packed]


def build_index(embeddings, refs, bits: int, permutations: int, seed: int) -> PermutedSignatureIndex:
    """Index segment embeddings for beamwidth lookup; deterministic in the
    seed (hyperplanes and bit permutations both derive from it)."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    refs = list(refs)
    if embeddings.ndim != 2 or len(refs) != embeddings.shape[0]:
        raise SearchError("need (N, d) embeddings with one ref per row")
    if (np.linalg.norm(embeddings, axis=1) == 0).any():
        raise SearchError("zero-norm embedding cannot be indexed")
    planes = HyperplaneSet.create(bits, embeddings.shape[1], seed)
    sigs = sign_embed_many(embeddings, planes)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7065]))
    perms = np.stack([rng.permutation(bits) for _ in range(permutations)])
    sorted_orders = []
    sorted_keys = []
    for p in range(permutations):
        keys = _pack_bits(sigs[:, perms[p]])
        order = sorted(range(len(refs)), key=lambda i: (keys[i], i))
        sorted_orders.append(np.array(order, dtype=np.intp))
        sorted_keys.append([keys[i] for i in order])
    return PermutedSignatureIndex(planes, refs, embeddings, perms, sorted_orders, sorted_keys)


def query_index(query: np.ndarray, index: PermutedSignatureIndex, beamwidth: int):
    """Approximate nearest neighbors with exact cosine re-ranking.

    For each permutation, the query signature's insertion point is found
    by binary search and the ``beamwidth`` entries on each side join the
    candidate set; candidates are scored by exact cosine similarity
    against the stored embeddings and returned as (ref, score) sorted by
    descending score (ties by entry order).
    """
    if index.size == 0:
        raise SearchError("empty index")
    q = np.asarray(query, dtype=np.float64)
    if np.linalg.norm(q) == 0:
        raise SearchError("cannot query with a zero vector")
    sig = sign_embed(q, index.planes)
    candidates = set()
    for p in range(index.num_permutations):
        key = np.packbits(sig[index.permutations[p]]).tobytes()
        keys = index.sorted_keys[p]
        pos = bisect_left(keys, key)
        lo = max(0, pos - beamwidth)
        hi = min(len(keys), pos + beamwidth)
        candidates.update(index.sorted_orders[p][lo:hi].tolist())
    cand = np.array(sorted(candidates), dtype=np.intp)
    emb = index.embeddings[cand]
    scores = emb @ q / (np.linalg.norm(emb, axis=1) * np.linalg.norm(q))
    order = np.lexsort((cand, -scores))
    return [(index.refs[cand[i]], float(scores[i])) for i in order]


@dataclass(frozen=True)
class SearchHit:
    """Best-scoring admissible window of one utterance for one query."""

    utterance_id: str
    window: tuple | None  # (start, size) or None when nothing admissible
    score: float


def qbe_score_utterance(query_embedding, utterance_id, window_embeddings, windows,
                        query_len: int, cfg: WindowConfig) -> SearchHit:
    """Max cosine similarity over windows of length within the admissible
    ratio band around the query length; utterances with no admissible
    window score -1 (below any true cosine)."""
    q = np.asarray(query_embedding, dtype=np.float64)
    ok_sizes = set(cfg.admissible_sizes(query_len))
    keep = [i for i, (_, size) in enumerate(windows) if size in ok_sizes]
    if not keep:
        return SearchHit(utterance_id, None, -1.0)
    emb = np.asarray(window_embeddings, dtype=np.float64)[keep]
    norms = np.linalg.norm(emb, axis=1) * np.linalg.norm(q)
    scores = emb @ q / np.where(norms > 0, norms, 1.0)
    best = int(np.argmax(scores))  # first max: earliest admissible window
    return SearchHit(utterance_id, windows[keep[best]], float(scores[best]))


# ---------------------------------------------------------------------------
# Persistence


def save_index(path, index: PermutedSignatureIndex):
    with open(path, "wb") as f:
        f.write(INDEX_MAGIC)
        b = index.planes.bits
        P = index.num_permutations
        N = index.size
        d = index.embeddings.shape[1]
        f.write(struct.pack("<IIIqII", INDEX_VERSION, b, P, index.planes.seed, N, d))
        for ref in index.refs:
            uid = ref.utterance_id.encode("utf-8")
            f.write(struct.pack("<H", len(uid)))
            f.write(uid)
            f.write(struct.pack("<II", ref.start, ref.size))
        sigs = sign_embed_many(index.embeddings, index.planes)
        f.write(np.packbits(sigs, axis=1).tobytes())
        f.write(index.permutations.astype("<u4").tobytes())
        for order in index.sorted_orders:
            f.write(order.astype("<u4").tobytes())
        f.write(index.embeddings.astype("<f4").tobytes())


def load_index(path) -> PermutedSignatureIndex:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != INDEX_MAGIC:
        raise SearchError("not an index file")
    # every read past the end of a truncated file raises struct.error or
    # ValueError (short id, short array)
    try:
        version, b, P, seed, N, d = struct.unpack_from("<IIIqII", data, 4)
        if version != INDEX_VERSION:
            raise SearchError(f"unsupported index version {version}")
        off = 4 + struct.calcsize("<IIIqII")
        refs = []
        for _ in range(N):
            (nlen,) = struct.unpack_from("<H", data, off)
            off += 2
            uid = data[off : off + nlen].decode("utf-8")
            off += nlen
            start, size = struct.unpack_from("<II", data, off)
            off += 8
            refs.append(SegmentKey(uid, start, size))
        row_bytes = (b + 7) // 8
        packed = np.frombuffer(data, dtype=np.uint8, count=N * row_bytes, offset=off).reshape(N, row_bytes)
        sigs = np.unpackbits(packed, axis=1)[:, :b]
        off += N * row_bytes
        perms = np.frombuffer(data, dtype="<u4", count=P * b, offset=off).reshape(P, b).astype(np.intp)
        off += 4 * P * b
        sorted_orders = []
        for _ in range(P):
            order = np.frombuffer(data, dtype="<u4", count=N, offset=off).astype(np.intp)
            off += 4 * N
            sorted_orders.append(order)
        emb = np.frombuffer(data, dtype="<f4", count=N * d, offset=off).reshape(N, d).astype(np.float64)
        off += 4 * N * d
    except (struct.error, ValueError) as e:
        raise SearchError(f"truncated or corrupt index file: {e}") from e
    if off != len(data):
        raise SearchError("trailing bytes in index file")
    planes = HyperplaneSet.create(b, d, seed)
    sorted_keys = []
    for p in range(P):
        keys = _pack_bits(sigs[:, perms[p]])
        sorted_keys.append([keys[i] for i in sorted_orders[p]])
    return PermutedSignatureIndex(planes, refs, emb, perms, sorted_orders, sorted_keys)
