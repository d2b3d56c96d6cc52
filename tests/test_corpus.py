"""Corpus data model, file formats, and segment operations."""

import ast
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from awekit import corpus
from awekit.corpus import (
    FeatureTable,
    FrameMatrix,
    Lexicon,
    Vocabulary,
    WordAlignment,
)


def with_crc(body: bytes) -> bytes:
    """``body`` followed by the CRC32 trailer every binary format ends in."""
    return body + struct.pack("<I", zlib.crc32(body))


def _fm(uid="u1", T=10, D=3, seed=0):
    rng = np.random.default_rng(seed)
    return FrameMatrix(uid, rng.standard_normal((T, D)))


class TestTypes:
    def test_frame_matrix_rejects_non_finite(self):
        with pytest.raises(corpus.NonFiniteValueError):
            FrameMatrix("u", np.array([[1.0, np.nan]]))

    def test_frame_matrix_rejects_empty(self):
        with pytest.raises(corpus.CorpusError):
            FrameMatrix("u", np.zeros((0, 3)))

    def test_alignment_rejects_overlap(self):
        with pytest.raises(corpus.CorpusError):
            WordAlignment("u", ((0, 5, "a"), (4, 8, "b")))

    def test_alignment_allows_gaps(self):
        al = WordAlignment("u", ((0, 3, "a"), (5, 8, "b")))
        assert al.labels() == ["a", "b"]

    def test_lexicon_rejects_empty_pronunciation(self):
        with pytest.raises(corpus.CorpusError):
            Lexicon.from_dict({"a": ()})

    def test_vocabulary_is_dense_and_invertible(self):
        v = Vocabulary(["cat", "dog"], unk_token="<unk>")
        assert v.size == 3 and v.unk_index == 2
        for i, w in enumerate(v.labels):
            assert v.index(w) == i and v.label(i) == w
        assert v.index("zebra") == v.unk_index  # maps OOV to UNK

    def test_vocabulary_without_unk_raises_on_oov(self):
        v = Vocabulary(["cat"])
        with pytest.raises(KeyError):
            v.index("zebra")


class TestFeatureArchive:
    def test_single_utterance_round_trip(self, tmp_path):
        fm = FrameMatrix("utt-1", np.arange(6, dtype=np.float32).reshape(3, 2))
        path = tmp_path / "a.cadf"
        corpus.save_feature_archive(path, [fm])
        (back,) = corpus.load_feature_archive(path)
        assert back.utterance_id == "utt-1"
        np.testing.assert_array_equal(back.frames, fm.frames)
        assert back.frames_per_second == 100.0

    def test_empty_archive(self, tmp_path):
        path = tmp_path / "empty.cadf"
        corpus.save_feature_archive(path, [])
        assert corpus.load_feature_archive(path) == []

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        fms = [
            FrameMatrix(f"u{i}", rng.standard_normal((1 + i, 4)).astype(np.float32), 50.0)
            for i in range(5)
        ]
        p1, p2 = tmp_path / "x.cadf", tmp_path / "y.cadf"
        corpus.save_feature_archive(p1, fms)
        corpus.save_feature_archive(p2, corpus.load_feature_archive(p1))
        assert p1.read_bytes() == p2.read_bytes()
        assert [f.utterance_id for f in corpus.load_feature_archive(p1)] == [f"u{i}" for i in range(5)]

    def test_truncated_payload_error(self, tmp_path):
        fm = _fm(T=4)
        path = tmp_path / "t.cadf"
        corpus.save_feature_archive(path, [fm])
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(corpus.TruncatedPayloadError):
            corpus.load_feature_archive(path)

    def test_truncated_file_rejected_at_every_offset(self, tmp_path):
        fms = [FrameMatrix("utt\u00e9", np.ones((3, 2))), FrameMatrix("u2", np.zeros((1, 4)))]
        path = tmp_path / "a.cadf"
        corpus.save_feature_archive(path, fms)
        data = path.read_bytes()
        cut = tmp_path / "cut.cadf"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            # a cut magic is a header fault; a cut anywhere after it is a short file
            with pytest.raises(corpus.MalformedHeaderError if n < 4 else corpus.TruncatedPayloadError):
                corpus.load_feature_archive(cut)

    def test_malformed_header_error(self, tmp_path):
        path = tmp_path / "m.cadf"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(corpus.MalformedHeaderError):
            corpus.load_feature_archive(path)

    def test_non_finite_payload_error(self, tmp_path):
        fm = _fm(T=2)
        path = tmp_path / "n.cadf"
        corpus.save_feature_archive(path, [fm])
        data = bytearray(path.read_bytes()[:-4])
        data[-4:] = np.array([np.inf], dtype="<f4").tobytes()  # the last frame value
        path.write_bytes(with_crc(bytes(data)))
        with pytest.raises(corpus.NonFiniteValueError):
            corpus.load_feature_archive(path)

    def test_file_ends_in_the_crc32_of_the_bytes_before_it(self, tmp_path):
        path = tmp_path / "a.cadf"
        corpus.save_feature_archive(path, [_fm("a"), _fm("b", T=3)])
        data = path.read_bytes()
        assert data == with_crc(data[:-4])
        assert data[:8] == corpus.ARCHIVE_MAGIC + struct.pack("<I", corpus.ARCHIVE_VERSION)

    @pytest.mark.parametrize("at", [4, 8, 12, -5, -1], ids=["version", "count", "name", "frame", "crc"])
    def test_flipped_byte_fails_the_crc32_before_any_field_is_read(self, tmp_path, at):
        path = tmp_path / "a.cadf"
        corpus.save_feature_archive(path, [_fm("a")])
        data = bytearray(path.read_bytes())
        data[at] ^= 0x01  # version 2 reads 3, which its own check refuses
        path.write_bytes(bytes(data))
        error, message = ((corpus.MalformedHeaderError, "unsupported CADF version 3; regenerate the archive")
                          if at == 4 else (corpus.TruncatedPayloadError, "CRC32 mismatch"))
        with pytest.raises(error, match=message):
            corpus.load_feature_archive(path)

    def test_version_1_archive_rejected_with_a_regenerate_hint(self, tmp_path):
        # the version-1 layout: magic, <II> version and count, the utterances, no CRC32
        fm = _fm("a", T=2, D=1)
        path = tmp_path / "old.cadf"
        path.write_bytes(corpus.ARCHIVE_MAGIC + struct.pack("<II", 1, 1) + corpus.pack_name("a")
                         + struct.pack("<IIf", 2, 1, 100.0) + fm.frames.astype("<f4").tobytes())
        with pytest.raises(corpus.MalformedHeaderError, match="version 1; regenerate the archive"):
            corpus.load_feature_archive(path)


class TestTsvFormats:
    def test_alignment_round_trip(self, tmp_path):
        als = [WordAlignment("u1", ((0, 3, "hi"), (3, 9, "there"))), WordAlignment("u2", ((2, 4, "yo"),))]
        path = tmp_path / "ali.tsv"
        corpus.save_alignments(path, als)
        back = corpus.load_alignments(path)
        assert back["u1"].entries == als[0].entries
        assert back["u2"].entries == als[1].entries

    def test_lexicon_round_trip(self, tmp_path):
        lex = Lexicon.from_dict({"cat": ("k", "ae", "t"), "dog": ("d", "ao", "g")})
        path = tmp_path / "lex.tsv"
        corpus.save_lexicon(path, lex)
        back = corpus.load_lexicon(path)
        assert back.pronunciations == lex.pronunciations
        assert back.inventory == lex.inventory

    def test_feature_table_round_trip(self, tmp_path):
        ft = FeatureTable.from_dict(
            ("voice=+", "voice=-", "nasal"),
            {"m": [0, 1, 1], "a": [1, 0, 0]},
        )
        path = tmp_path / "feats.tsv"
        corpus.save_feature_table(path, ft)
        back = corpus.load_feature_table(path)
        assert back.feature_names == ft.feature_names
        for p in ft.table:
            np.testing.assert_array_equal(back.table[p], ft.table[p])

    def test_feature_table_row_leaving_out_a_value_reads_it_as_0(self, tmp_path):
        # a row lists the values it sets; one that lists none is all zeros
        path = tmp_path / "feats.tsv"
        path.write_text("feature_values\tfv1,fv2,fv3\na\tfv2=1\nb\tfv3=0,fv1=1\nc\t\n", encoding="utf-8")
        ft = corpus.load_feature_table(path)
        assert ft.feature_names == ("fv1", "fv2", "fv3")
        assert {p: ft.table[p].tolist() for p in "abc"} == {"a": [0, 1, 0], "b": [1, 0, 0], "c": [0, 0, 0]}


    @pytest.mark.parametrize("start,end,field", [("x", "9", "start"), ("3", "12.5", "end"), ("", "9", "start")])
    def test_alignment_non_integer_bound_is_a_corpus_error(self, tmp_path, start, end, field):
        path = tmp_path / "ali.tsv"
        path.write_text(f"# header\nu1\t0\t3\thi\nu1\t{start}\t{end}\tthere\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match=rf"ali.tsv:3: field {field} = "):
            corpus.load_alignments(path)

    @pytest.mark.parametrize("value", ["q", "1.0", "", "2", "-1", "300"])
    def test_feature_table_value_not_0_or_1_is_a_corpus_error(self, tmp_path, value):
        path = tmp_path / "feats.tsv"
        path.write_text(f"feature_values\tfv1,fv2\na\tfv1=1,fv2=0\nb\tfv1=0,fv2={value}\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match=r"feats.tsv:3: field fv2 = "):
            corpus.load_feature_table(path)

# Each writer's second item is named by a lone surrogate, which UTF-8
# cannot encode, so the writer raises after writing the first.
BAD = "b\ud800"
HALFWAY = {
    "archive": (corpus.save_feature_archive, [_fm("a"), _fm(BAD)]),
    "alignments": (corpus.save_alignments,
                   [WordAlignment("a", ((0, 3, "x"),)), WordAlignment(BAD, ((0, 3, "x"),))]),
    "lexicon": (corpus.save_lexicon, Lexicon.from_dict({"a": ("x",), BAD: ("y",)})),
    "feature_table": (corpus.save_feature_table, FeatureTable.from_dict(("f",), {"a": [0], BAD: [1]})),
}
INTACT = {
    "archive": [_fm("a")], "alignments": [WordAlignment("a", ((0, 3, "x"),))],
    "lexicon": Lexicon.from_dict({"a": ("x",)}), "feature_table": FeatureTable.from_dict(("f",), {"a": [0]}),
}


@pytest.mark.parametrize("earlier", [False, True], ids=["new", "replace"])
@pytest.mark.parametrize("kind", list(HALFWAY))
def test_writer_raising_halfway_leaves_no_partial_file(tmp_path, kind, earlier):
    save, items = HALFWAY[kind]
    path = tmp_path / "out"
    if earlier:
        save(path, INTACT[kind])
        before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        save(path, items)
    assert [p.name for p in tmp_path.iterdir()] == (["out"] if earlier else [])
    if earlier:
        assert path.read_bytes() == before


def _file_writes(source: str) -> list:
    """(innermost function, call) of each call in ``source`` that makes a
    directory (``makedirs``, ``mkdir``) or may open a file to write: an
    ``open`` given a mode that holds w, a, x or +, or one that is not a
    string literal."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                modes = [*child.args[1:], *(child.args[:1] if isinstance(func, ast.Attribute) else []),
                         *(k.value for k in child.keywords if k.arg == "mode")]
                if called in ("makedirs", "mkdir"):
                    found.append((owner, called))
                elif called == "open" and any(not isinstance(m, ast.Constant) or not isinstance(m.value, str)
                                              or set(m.value) & set("wax+") for m in modes):
                    found.append((owner, called))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), None)
    return found


def test_only_open_artifact_writes_files():
    """Every file the package writes goes through ``corpus.open_artifact``,
    the one place that makes an output directory."""
    package = Path(corpus.__file__).parent
    writes = {f"{path.stem}.{owner}: {call}" for path in sorted(package.glob("*.py"))
              for owner, call in _file_writes(path.read_text(encoding="utf-8"))}
    assert writes == {"corpus.open_artifact: makedirs", "corpus.open_artifact: open"}


class TestExtractSegments:
    def test_single_entry_within_bounds(self):
        fm = _fm(T=12)
        al = WordAlignment("u1", ((0, 10, "cat"),))
        segs = corpus.extract_segments(fm, al, 1, 100)
        assert len(segs) == 1 and segs[0].label == "cat" and segs[0].length == 10

    def test_short_segment_excluded(self):
        fm = _fm(T=12)
        al = WordAlignment("u1", ((0, 4, "uh"),))
        assert corpus.extract_segments(fm, al, 6, 100) == []

    def test_length_window_filters(self):
        fm = _fm(T=400)
        al = WordAlignment("u1", ((0, 5, "a"), (10, 60, "b"), (80, 380, "c")))
        segs = corpus.extract_segments(fm, al, 50, 200)
        assert [s.label for s in segs] == ["b"]

    def test_output_is_subsequence_of_input(self):
        rng = np.random.default_rng(5)
        fm = _fm(T=300)
        entries, pos = [], 0
        for i in range(12):
            ln = int(rng.integers(1, 30))
            entries.append((pos, pos + ln, f"w{i}"))
            pos += ln + int(rng.integers(0, 3))
        al = WordAlignment("u1", tuple(entries))
        segs = corpus.extract_segments(fm, al, 5, 20)
        tuples = [(s.start, s.end, s.label) for s in segs]
        assert tuples == [t for t in al.entries if 5 <= t[1] - t[0] <= 20]

    def test_mismatched_utterance_raises(self):
        with pytest.raises(corpus.AlignmentMismatchError):
            corpus.extract_segments(_fm("u1"), WordAlignment("other", ((0, 2, "x"),)), 1, 10)


class TestSpecAugment:
    def test_zero_width_masks_identity(self):
        fm = _fm(T=6, D=4)
        al = WordAlignment("u1", ((0, 1, "a"),))  # t_min=1 => time cap 0
        out = corpus.spec_augment(fm, al, np.random.default_rng(0), m_f=1, f_max=0, m_t=1)
        np.testing.assert_array_equal(out.frames, fm.frames)

    def test_forced_frequency_band(self):
        # rig the generator so the width draw is 2 and the band start is 1
        class Forced:
            def __init__(self):
                self.draws = iter([2, 1, 0])

            def integers(self, lo, hi):
                return next(self.draws)

        fm = _fm(T=5, D=4)
        al = WordAlignment("u1", ((0, 5, "a"),))
        out = corpus.spec_augment(fm, al, Forced(), m_f=1, f_max=3, m_t=1)
        np.testing.assert_array_equal(out.frames[:, 1:3], 0.0)
        np.testing.assert_array_equal(out.frames[:, 0], fm.frames[:, 0])
        np.testing.assert_array_equal(out.frames[:, 3], fm.frames[:, 3])

    def test_fixed_seed_bit_identical(self):
        fm = _fm(T=40, D=8)
        al = WordAlignment("u1", ((0, 12, "a"), (12, 40, "b")))
        a = corpus.spec_augment(fm, al, np.random.default_rng(5))
        b = corpus.spec_augment(fm, al, np.random.default_rng(5))
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_only_masked_cells_change(self):
        fm = _fm(T=30, D=9, seed=2)
        al = WordAlignment("u1", ((0, 10, "a"), (10, 30, "b")))
        out = corpus.spec_augment(fm, al, np.random.default_rng(3))
        changed = out.frames != fm.frames
        np.testing.assert_array_equal(out.frames[changed], 0.0)

    def test_no_word_fully_masked(self):
        # D exceeds the default frequency cap, so some dims always survive
        fm = _fm(T=50, D=12, seed=4)
        al = WordAlignment("u1", tuple((i * 5, i * 5 + 5, f"w{i}") for i in range(10)))
        for seed in range(100):
            out = corpus.spec_augment(fm, al, np.random.default_rng(seed))
            for s, e, _ in al.entries:
                assert np.abs(out.frames[s:e]).sum() > 0

    def test_time_mask_at_most_half_the_shortest_word(self):
        # the width cap t_min // 2 (here 5 // 2) is what keeps every word
        # partly unmasked; over many seeds the mask reaches it, never more
        fm = _fm(T=50, D=12, seed=5)
        al = WordAlignment("u1", ((0, 5, "a"), (5, 20, "b"), (20, 50, "c")))
        widths = set()
        for seed in range(200):
            out = corpus.spec_augment(fm, al, np.random.default_rng(seed), m_f=0)
            widths.add(int((np.abs(out.frames).sum(axis=1) == 0).sum()))
        assert widths == {0, 1, 2}

    def test_empty_alignment_rejected(self):
        with pytest.raises(corpus.CorpusError):
            corpus.spec_augment(_fm(), WordAlignment("u1", ()), np.random.default_rng(0))


class TestPhonesToFeatureRows:
    def setup_method(self):
        self.ft = FeatureTable.from_dict(("a", "b"), {"p": [1, 0], "q": [0, 1]})

    def test_empty_sequence(self):
        rows = corpus.phones_to_feature_rows((), self.ft)
        assert rows.shape == (0, 2)

    def test_two_phones(self):
        rows = corpus.phones_to_feature_rows(("q", "p"), self.ft)
        np.testing.assert_array_equal(rows, [[0, 1], [1, 0]])

    def test_unknown_phone(self):
        with pytest.raises(corpus.UnknownPhoneError):
            corpus.phones_to_feature_rows(("z",), self.ft)
