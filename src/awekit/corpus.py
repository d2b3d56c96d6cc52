"""Data model and I/O: feature archives, alignments, lexicons, feature
tables, vocabularies, plus segment extraction and SpecAugment-style
masking. Every input file is read here: ``BinaryReader`` parses the three
binary formats, one row reader the TSVs and ``load_words`` word lists.

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
import zlib
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
ARCHIVE_VERSION = 2
_F32 = np.dtype("<f4")  # the binary formats' float: little-endian float32


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
# Binary files: CADF feature archives here, CADP checkpoints (nn) and CADI
# indexes (search)


def pack_name(text: str) -> bytes:
    """A name as the binary formats store it: ``<H`` byte count, then UTF-8."""
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


@contextlib.contextmanager
def open_binary(path, magic: bytes, version: int):
    """``open_artifact`` for a binary file: ``magic``, the ``<I`` version, the
    block's ``write(data)`` calls, then their ``<I`` CRC32, kept as they stream."""
    crc = 0
    with open_artifact(path, "wb") as fh:
        def write(data):
            nonlocal crc
            crc = zlib.crc32(data, crc)
            fh.write(data)
        write(magic + struct.pack("<I", version))
        yield write
        fh.write(struct.pack("<I", crc))


class BinaryReader:
    """One binary file (``open_binary``) read whole and parsed front to
    back: little-endian fields, UTF-8 texts and float32 arrays. A wrong
    magic or version (the message then ends in ``remedy``) or a text that
    is not UTF-8 raises ``error``. A CRC32 mismatch, checked before any
    field is read, a read past the end or bytes left over at ``finish``
    raises ``truncated`` (``error`` when not given). Messages name the file."""

    def __init__(self, path, magic: bytes, version: int, remedy: str, error, truncated=None):
        with open(path, "rb") as f:
            self.data = f.read()
        self.path, self.error, self.truncated = path, error, truncated or error
        if self.data[:4] != magic:
            raise error(f"{path}: not a {magic.decode()} file")
        self.off, self.end = 4, len(self.data)
        (found,) = self.unpack("<I")
        if found != version:
            raise error(f"{path}: unsupported {magic.decode()} version {found}; {remedy}")
        self.end -= 4  # the CRC32 trailer, checked on a view: no copy of the file
        crc = zlib.crc32(memoryview(self.data)[: self.end])
        if self.end < 8 or crc != int.from_bytes(self.data[self.end :], "little"):
            raise self.truncated(f"{path}: CRC32 mismatch: the file is truncated or corrupt")

    def _advance(self, n: int) -> int:
        """The offset of the next ``n`` bytes, which are then consumed."""
        at = self.off
        if at + n > self.end:
            raise self.truncated(f"{self.path}: truncated: {n} bytes wanted at byte {at} of {self.end}")
        self.off = at + n
        return at

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self._advance(struct.calcsize(fmt)))

    def text(self, count: str = "<H") -> str:
        """The next UTF-8 text after its byte count of format ``count``."""
        (n,) = self.unpack(count)
        at = self._advance(n)
        try:
            return self.data[at : at + n].decode("utf-8")
        except UnicodeDecodeError as e:
            raise self.error(f"{self.path}: text at byte {at} is not UTF-8") from e

    def floats(self, shape: tuple) -> np.ndarray:
        """The next float32 array of ``shape``, as a read-only view of the file."""
        # positional arguments and a dtype object: keywords and a dtype string
        # cost a CADF load about 10% more
        return np.ndarray(shape, _F32, self.data, self._advance(4 * math.prod(shape)))

    def finish(self):
        if self.off != self.end:
            raise self.truncated(f"{self.path}: {self.end - self.off} trailing bytes")


def save_feature_archive(path, fms: list[FrameMatrix]):
    with open_binary(path, ARCHIVE_MAGIC, ARCHIVE_VERSION) as write:
        write(struct.pack("<I", len(fms)))
        for fm in fms:
            write(pack_name(fm.utterance_id) + struct.pack("<IIf", fm.num_frames, fm.dim, fm.frames_per_second))
            write(fm.frames.astype("<f4").tobytes())


def load_feature_archive(path) -> list[FrameMatrix]:
    """Read a feature archive; order is preserved. Raises MalformedHeaderError
    (magic, version, names), TruncatedPayloadError (a CRC32 mismatch, a short
    file, trailing bytes) or NonFiniteValueError (frames)."""
    r = BinaryReader(path, ARCHIVE_MAGIC, ARCHIVE_VERSION, "regenerate the archive", MalformedHeaderError,
                     TruncatedPayloadError)
    (count,) = r.unpack("<I")
    out = []
    for _ in range(count):
        uid = r.text()
        T, D, fps = r.unpack("<IIf")
        frames = r.floats((T, D))
        if not np.isfinite(frames).all():
            raise NonFiniteValueError(f"{path}: utterance {uid!r} has non-finite values")
        out.append(FrameMatrix(uid, frames.astype(np.float64), float(fps)))
    r.finish()
    return out


# ---------------------------------------------------------------------------
# Text files: UTF-8, one record per line


def _lines(path):
    """(line number, line) of a UTF-8 text file; CorpusError naming the
    file when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            yield from enumerate(f, 1)
    except UnicodeDecodeError:
        raise CorpusError(f"{path}: not UTF-8 text") from None


def _rows(path, fields: int, what: str):
    """(line number, fields) of each line of a tab-separated file that is
    neither blank nor a '#' comment; CorpusError naming ``path:line`` when
    a line does not hold ``fields`` fields, which ``what`` describes."""
    for ln, line in _lines(path):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != fields:
            raise CorpusError(f"{path}:{ln}: expected {what}")
        yield ln, parts


def load_words(path) -> list[str]:
    """A word list: each stripped non-blank line, in file order ('#' and
    tabs are not special)."""
    return [word for _, line in _lines(path) if (word := line.strip())]


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
    for ln, (uid, s, e, v) in _rows(path, 4, "4 tab-separated fields"):
        entry = (_int_field(path, ln, "start", s), _int_field(path, ln, "end", e), v)
        rows.setdefault(uid, []).append(entry)
    return {uid: WordAlignment(uid, tuple(entries)) for uid, entries in rows.items()}


def save_lexicon(path, lex: Lexicon):
    with open_artifact(path) as f:
        f.write("# word\tsymbols\n")
        for w in sorted(lex.pronunciations):
            f.write(f"{w}\t{' '.join(lex.pronunciations[w])}\n")


def load_lexicon(path) -> Lexicon:
    return Lexicon.from_dict({w: tuple(syms.split()) for _, (w, syms) in _rows(path, 2, "word<TAB>symbols")})


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
    for ln, (phone, values) in _rows(path, 2, "phone<TAB>name=value,..."):
        if names is None:
            if phone != "feature_values":
                raise CorpusError(f"{path}:{ln}: expected feature_values header")
            names = tuple(values.split(","))
            index = {n: i for i, n in enumerate(names)}
            continue
        vec = np.zeros(len(names), dtype=np.uint8)
        for item in values.split(","):
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
        table[phone] = vec
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
