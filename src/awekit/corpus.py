"""Data model and I/O: feature archives, alignments, lexicons, feature
tables, vocabularies, plus segment extraction, span merging (into a
``WordAlignment`` whose labels are space-joined word sequences), and
SpecAugment-style masking.

All container types are immutable after construction and validate their
invariants up front. Frame intervals use exclusive end indices
throughout.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import uuid
from dataclasses import dataclass, field

import numpy as np


class CorpusError(Exception):
    """Base class for data-model and file-format errors."""


class MalformedHeaderError(CorpusError):
    pass


class TruncatedPayloadError(CorpusError):
    pass


class NonFiniteValueError(CorpusError):
    pass


class AlignmentMismatchError(CorpusError):
    pass


class UnknownPhoneError(CorpusError):
    pass


ARCHIVE_MAGIC = b"CADF"
ARCHIVE_VERSION = 1


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class FrameMatrix:
    """One utterance's T x D frame features (e.g. log-Mel), with frame rate."""

    utterance_id: str
    frames: np.ndarray
    frames_per_second: float = 100.0

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        object.__setattr__(self, "frames", frames)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise CorpusError(f"{self.utterance_id}: frames must be T x D with T,D >= 1")
        if not np.isfinite(frames).all():
            raise NonFiniteValueError(f"{self.utterance_id}: non-finite frame values")
        if not self.frames_per_second > 0:
            raise CorpusError("frames_per_second must be positive")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class SegmentRef:
    """A labeled [start, end) frame interval within an utterance."""

    utterance_id: str
    start: int
    end: int
    label: str

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise CorpusError(f"bad segment bounds [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


def _check_entries(utterance_id, entries):
    prev_end = 0
    prev_start = -1
    for start, end, _ in entries:
        if not 0 <= start < end:
            raise CorpusError(f"{utterance_id}: bad entry bounds [{start}, {end})")
        if start <= prev_start:
            raise CorpusError(f"{utterance_id}: entries must be strictly increasing in start")
        if start < prev_end:
            raise CorpusError(f"{utterance_id}: overlapping entries")
        prev_start, prev_end = start, end


@dataclass(frozen=True)
class WordAlignment:
    """Ordered, non-overlapping (start, end, word) entries for one utterance.

    Gaps (silence) between entries are allowed.
    """

    utterance_id: str
    entries: tuple

    def __post_init__(self):
        entries = tuple((int(s), int(e), str(v)) for s, e, v in self.entries)
        object.__setattr__(self, "entries", entries)
        _check_entries(self.utterance_id, entries)

    def __len__(self):
        return len(self.entries)

    def labels(self) -> list[str]:
        return [v for _, _, v in self.entries]

    def check_bounds(self, fm: FrameMatrix):
        if fm.utterance_id != self.utterance_id:
            raise AlignmentMismatchError(
                f"alignment {self.utterance_id!r} does not belong to utterance {fm.utterance_id!r}"
            )
        if self.entries and self.entries[-1][1] > fm.num_frames:
            raise AlignmentMismatchError(f"{self.utterance_id}: alignment exceeds {fm.num_frames} frames")


@dataclass(frozen=True)
class Lexicon:
    """word -> symbol sequence (characters or phones) over a fixed inventory."""

    pronunciations: dict
    inventory: frozenset

    @staticmethod
    def from_dict(pron: dict) -> "Lexicon":
        pron = {str(w): tuple(str(s) for s in seq) for w, seq in pron.items()}
        inv = frozenset(s for seq in pron.values() for s in seq)
        return Lexicon(pron, inv)

    def __post_init__(self):
        for w, seq in self.pronunciations.items():
            if len(seq) == 0:
                raise CorpusError(f"lexicon: empty pronunciation for {w!r}")
            for s in seq:
                if s not in self.inventory:
                    raise CorpusError(f"lexicon: symbol {s!r} not in inventory")

    def __contains__(self, word):
        return word in self.pronunciations

    def __getitem__(self, word):
        return self.pronunciations[word]

    def symbols(self) -> list[str]:
        return sorted(self.inventory)


@dataclass(frozen=True)
class FeatureTable:
    """phone -> binary feature-value vector over F named feature-values."""

    feature_names: tuple
    table: dict

    @staticmethod
    def from_dict(feature_names, table) -> "FeatureTable":
        names = tuple(str(n) for n in feature_names)
        tbl = {str(p): np.asarray(v, dtype=np.uint8) for p, v in table.items()}
        return FeatureTable(names, tbl)

    def __post_init__(self):
        F = len(self.feature_names)
        for p, v in self.table.items():
            if v.shape != (F,):
                raise CorpusError(f"feature table: {p!r} has {v.shape} values, expected ({F},)")
            if not np.isin(v, (0, 1)).all():
                raise CorpusError(f"feature table: {p!r} has non-binary values")

    @property
    def num_features(self) -> int:
        return len(self.feature_names)

    def __contains__(self, phone):
        return phone in self.table


class Vocabulary:
    """Dense label <-> index map with optional reserved UNK; the CTC blank
    sits at index ``size`` (one past the vocabulary)."""

    def __init__(self, words, unk_token: str | None = None):
        words = list(words)
        if unk_token is not None:
            if unk_token in words:
                raise CorpusError("unk token collides with a vocabulary word")
            words = words + [unk_token]
        if len(set(words)) != len(words):
            raise CorpusError("duplicate vocabulary entries")
        self.labels = list(words)
        self.unk_token = unk_token
        self._index = {w: i for i, w in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def unk_index(self) -> int | None:
        return self._index[self.unk_token] if self.unk_token is not None else None

    def index(self, label: str) -> int:
        if label in self._index:
            return self._index[label]
        if self.unk_token is not None:
            return self._index[self.unk_token]
        raise KeyError(label)

    def label(self, index: int) -> str:
        return self.labels[index]

    def __contains__(self, label):
        return label in self._index


# ---------------------------------------------------------------------------
# Output files


@contextlib.contextmanager
def open_artifact(path, mode: str = "w"):
    """Write an output file ("w" text as UTF-8, or "wb") whole or not at
    all: the block writes a new file next to ``path`` (its directory is
    created first), which is synced to disk and replaces ``path`` when the
    block ends, and is removed when the block raises, so an earlier file
    stays as it was."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# Feature archive I/O (binary, little-endian)


def save_feature_archive(path, fms: list[FrameMatrix]):
    with open_artifact(path, "wb") as f:
        f.write(ARCHIVE_MAGIC)
        f.write(struct.pack("<II", ARCHIVE_VERSION, len(fms)))
        for fm in fms:
            uid = fm.utterance_id.encode("utf-8")
            f.write(struct.pack("<H", len(uid)))
            f.write(uid)
            f.write(struct.pack("<IIf", fm.num_frames, fm.dim, fm.frames_per_second))
            f.write(fm.frames.astype("<f4").tobytes())


def load_feature_archive(path) -> list[FrameMatrix]:
    """Read a feature archive; order is preserved.

    Raises MalformedHeaderError, TruncatedPayloadError, or
    NonFiniteValueError depending on what is wrong with the file.
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12 or data[:4] != ARCHIVE_MAGIC:
        raise MalformedHeaderError(f"{path}: not a feature archive")
    version, count = struct.unpack_from("<II", data, 4)
    if version != ARCHIVE_VERSION:
        raise MalformedHeaderError(f"{path}: unsupported version {version}")
    off = 12
    out = []
    for i in range(count):
        try:
            (nlen,) = struct.unpack_from("<H", data, off)
            off += 2
            uid = data[off : off + nlen].decode("utf-8")
            off += nlen
            T, D, fps = struct.unpack_from("<IIf", data, off)
            off += 12
        except (struct.error, UnicodeDecodeError) as e:
            raise MalformedHeaderError(f"{path}: bad utterance header #{i}: {e}") from e
        need = 4 * T * D
        if off + need > len(data):
            raise TruncatedPayloadError(f"{path}: utterance {uid!r} declares {T}x{D} but payload is short")
        frames = np.frombuffer(data, dtype="<f4", count=T * D, offset=off).reshape(T, D)
        off += need
        if not np.isfinite(frames).all():
            raise NonFiniteValueError(f"{path}: utterance {uid!r} has non-finite values")
        out.append(FrameMatrix(uid, frames.astype(np.float64), float(fps)))
    if off != len(data):
        raise TruncatedPayloadError(f"{path}: {len(data) - off} trailing bytes")
    return out


# ---------------------------------------------------------------------------
# TSV I/O


def _int_field(path, ln: int, field: str, text: str) -> int:
    """``text`` as an integer; CorpusError naming the file, line and field
    otherwise."""
    try:
        return int(text)
    except ValueError:
        raise CorpusError(f"{path}:{ln}: field {field} = {text!r} is not an integer") from None


def save_alignments(path, alignments: list[WordAlignment]):
    with open_artifact(path) as f:
        f.write("# utterance_id\tstart\tend\tlabel\n")
        for al in alignments:
            for s, e, v in al.entries:
                f.write(f"{al.utterance_id}\t{s}\t{e}\t{v}\n")


def load_alignments(path) -> dict[str, WordAlignment]:
    """Alignment TSV: utterance_id, start, end, label; '#' comments."""
    rows: dict[str, list] = {}
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise CorpusError(f"{path}:{ln}: expected 4 tab-separated fields")
            uid, s, e, v = parts
            entry = (_int_field(path, ln, "start", s), _int_field(path, ln, "end", e), v)
            rows.setdefault(uid, []).append(entry)
    return {uid: WordAlignment(uid, tuple(entries)) for uid, entries in rows.items()}


def save_lexicon(path, lex: Lexicon):
    with open_artifact(path) as f:
        f.write("# word\tsymbols\n")
        for w in sorted(lex.pronunciations):
            f.write(f"{w}\t{' '.join(lex.pronunciations[w])}\n")


def load_lexicon(path) -> Lexicon:
    pron = {}
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CorpusError(f"{path}:{ln}: expected word<TAB>symbols")
            pron[parts[0]] = tuple(parts[1].split())
    return Lexicon.from_dict(pron)


def save_feature_table(path, ft: FeatureTable):
    with open_artifact(path) as f:
        f.write("feature_values\t" + ",".join(ft.feature_names) + "\n")
        for p in sorted(ft.table):
            vals = ",".join(f"{n}={int(v)}" for n, v in zip(ft.feature_names, ft.table[p]))
            f.write(f"{p}\t{vals}\n")


def load_feature_table(path) -> FeatureTable:
    """Feature-table TSV: a header row naming all F feature-values, then
    one row per phone with comma-separated name=value pairs (missing
    names default to 0)."""
    names = None
    table = {}
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if names is None:
                if len(parts) != 2 or parts[0] != "feature_values":
                    raise CorpusError(f"{path}:{ln}: expected feature_values header")
                names = tuple(parts[1].split(","))
                continue
            if len(parts) != 2:
                raise CorpusError(f"{path}:{ln}: expected phone<TAB>name=value,...")
            vec = np.zeros(len(names), dtype=np.uint8)
            index = {n: i for i, n in enumerate(names)}
            for item in parts[1].split(","):
                if not item:
                    continue
                # names may themselves contain '=' (multi-valued features),
                # so the value is whatever follows the last '='
                name, _, val = item.rpartition("=")
                if name not in index:
                    raise CorpusError(f"{path}:{ln}: unknown feature value {name!r}")
                value = _int_field(path, ln, name, val)
                if value not in (0, 1):
                    raise CorpusError(f"{path}:{ln}: field {name} = {val!r} must be 0 or 1")
                vec[index[name]] = value
            table[parts[0]] = vec
    if names is None:
        raise CorpusError(f"{path}: missing feature_values header")
    return FeatureTable.from_dict(names, table)


# ---------------------------------------------------------------------------
# Segment operations


def extract_segments(fm: FrameMatrix, al: WordAlignment, min_frames: int, max_frames: int) -> list[SegmentRef]:
    """The alignment entries whose length is within [min_frames, max_frames],
    in order, unmodified."""
    if min_frames < 1:
        raise ValueError("min_frames must be >= 1")
    al.check_bounds(fm)
    return [
        SegmentRef(fm.utterance_id, s, e, v)
        for s, e, v in al.entries
        if min_frames <= e - s <= max_frames
    ]


def merge_spans(al: WordAlignment, rng: np.random.Generator) -> WordAlignment:
    """Randomly merge adjacent entries into multi-word spans.

    Draws r uniformly from the integers {ceil((L-1)/2), ..., L-1}, removes
    r distinct boundaries chosen uniformly, and labels each merged span
    with its words joined by spaces. L=1 passes through unchanged.
    """
    L = len(al.entries)
    if L == 0:
        raise CorpusError("merge_spans: empty alignment")
    spans = [[s, e, [v]] for s, e, v in al.entries]
    if L > 1:
        lo = math.ceil((L - 1) / 2)
        r = int(rng.integers(lo, L))  # upper bound L-1 inclusive
        removed = sorted(rng.choice(L - 1, size=r, replace=False), reverse=True)
        for b in removed:  # boundary b sits between entries b and b+1
            spans[b][1] = spans[b + 1][1]
            spans[b][2].extend(spans[b + 1][2])
            del spans[b + 1]
    return WordAlignment(al.utterance_id, tuple((s, e, " ".join(vs)) for s, e, vs in spans))


def spec_augment(
    fm: FrameMatrix,
    al: WordAlignment,
    rng: np.random.Generator,
    m_f: int = 1,
    f_max: int = 9,
    m_t: int = 1,
) -> FrameMatrix:
    """Frequency/time masking with word protection.

    Applies ``m_f`` frequency masks of width F ~ U{0..f_max} and ``m_t``
    time masks of width W ~ U{0..floor(t_min/2)} where t_min is the
    shortest aligned word; masked cells become 0. The width cap keeps a
    time mask shorter than every word, so no word is masked whole.
    Draw order: frequency masks first, then time masks.
    """
    if len(al.entries) == 0:
        raise CorpusError("spec_augment needs a non-empty alignment")
    al.check_bounds(fm)
    frames = fm.frames.copy()
    T, D = frames.shape
    t_min = min(e - s for s, e, _ in al.entries)

    for _ in range(m_f):
        width = int(rng.integers(0, min(f_max, D) + 1))
        if width == 0:
            continue
        f0 = int(rng.integers(0, D - width + 1))
        frames[:, f0 : f0 + width] = 0.0

    t_cap = t_min // 2
    for _ in range(m_t):
        width = int(rng.integers(0, t_cap + 1))
        if width:
            t0 = int(rng.integers(0, T - width + 1))
            frames[t0 : t0 + width, :] = 0.0
    return FrameMatrix(fm.utterance_id, frames, fm.frames_per_second)


def phones_to_feature_rows(seq, ft: FeatureTable) -> np.ndarray:
    """Stack the feature-table rows for a phone sequence: |seq| x F."""
    rows = np.zeros((len(seq), ft.num_features), dtype=np.float64)
    for i, p in enumerate(seq):
        if p not in ft.table:
            raise UnknownPhoneError(f"phone {p!r} not in feature table")
        rows[i] = ft.table[p]
    return rows
