"""Sliding windows, LSH signatures, index lookup vs exhaustive search."""

import struct
import warnings

import numpy as np
import pytest

from awekit import search
from awekit.search import SegmentKey, WindowConfig
from test_corpus import with_crc


class TestWindows:
    def test_too_short_utterance_empty(self):
        assert search.generate_windows(11, WindowConfig()) == []

    def test_hand_enumeration(self):
        cfg = WindowConfig(sizes=(12, 15, 18), stride=5)
        got = search.generate_windows(20, cfg)
        assert got == [(0, 12), (5, 12), (0, 15), (5, 15), (0, 18)]

    def test_exact_fit_single_window(self):
        got = search.generate_windows(12, WindowConfig())
        assert got == [(0, 12)]

    def test_default_sizes_match_spec_grid(self):
        sizes = search.default_window_sizes()
        assert sizes[:7] == (12, 15, 18, 21, 24, 27, 30)
        assert sizes[7:10] == (36, 42, 48)
        assert sizes[-1] == 120

    def test_admissible_ratio_band(self):
        cfg = WindowConfig()
        for lq in (15, 30, 60, 90):
            for s in cfg.admissible_sizes(lq):
                assert (2 / 3) * lq <= s <= (4 / 3) * lq


class TestSignatures:
    def test_scale_invariance(self):
        planes = search.HyperplaneSet.create(64, 8, seed=0)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(8)
        np.testing.assert_array_equal(search.sign_embed(v, planes), search.sign_embed(2 * v, planes))

    def test_negation_flips_all_bits(self):
        planes = search.HyperplaneSet.create(64, 8, seed=0)
        v = np.random.default_rng(2).standard_normal(8)
        a = search.sign_embed(v, planes)
        b = search.sign_embed(-v, planes)
        assert (a != b).all()  # no exact zero dot products at random v

    def test_zero_vector_rejected(self):
        planes = search.HyperplaneSet.create(16, 4, seed=0)
        with pytest.raises(search.SearchError):
            search.sign_embed(np.zeros(4), planes)

    def test_hamming_estimates_angle(self):
        # E[Hamming/b] = angle/pi; with b=4096 the estimator is tight
        planes = search.HyperplaneSet.create(4096, 16, seed=3)
        rng = np.random.default_rng(4)
        errs = []
        for _ in range(100):
            u = rng.standard_normal(16)
            v = rng.standard_normal(16)
            ang = np.arccos(np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1, 1))
            ham = np.mean(search.sign_embed(u, planes) != search.sign_embed(v, planes))  # Hamming fraction
            errs.append(abs(ham - ang / np.pi))
        assert np.mean(errs) <= 0.02


def _random_db(rng, n=50, d=8):
    emb = rng.standard_normal((n, d))
    refs = [SegmentKey(f"u{i}", i, 10) for i in range(n)]
    return emb, refs


class TestIndex:
    def test_single_entry_everywhere(self):
        rng = np.random.default_rng(5)
        emb, refs = _random_db(rng, n=1)
        idx = search.build_index(emb, refs, bits=32, permutations=4, seed=0)
        for order in idx.sorted_orders:
            assert list(order) == [0]

    def test_duplicates_adjacent_in_every_list(self):
        rng = np.random.default_rng(6)
        emb, refs = _random_db(rng, n=10)
        emb[7] = emb[3]
        idx = search.build_index(emb, refs, bits=64, permutations=6, seed=1)
        for order in idx.sorted_orders:
            pos = {int(e): i for i, e in enumerate(order)}
            assert abs(pos[3] - pos[7]) == 1

    def test_same_seed_identical_index(self):
        rng = np.random.default_rng(7)
        emb, refs = _random_db(rng)
        a = search.build_index(emb, refs, bits=64, permutations=4, seed=9)
        b = search.build_index(emb, refs, bits=64, permutations=4, seed=9)
        np.testing.assert_array_equal(a.permutations, b.permutations)
        for oa, ob in zip(a.sorted_orders, b.sorted_orders):
            np.testing.assert_array_equal(oa, ob)

    def test_insertion_order_invariance(self):
        rng = np.random.default_rng(8)
        emb, refs = _random_db(rng, n=30)
        idx = search.build_index(emb, refs, bits=128, permutations=4, seed=2)
        q = rng.standard_normal(8)
        got = search.query_index(q, idx, beamwidth=5)
        perm = rng.permutation(30)
        idx2 = search.build_index(emb[perm], [refs[p] for p in perm], bits=128, permutations=4, seed=2)
        got2 = search.query_index(q, idx2, beamwidth=5)
        assert {r.utterance_id for r, _ in got} == {r.utterance_id for r, _ in got2}

    def test_big_beam_reproduces_exhaustive_ranking(self):
        rng = np.random.default_rng(9)
        emb, refs = _random_db(rng, n=40)
        idx = search.build_index(emb, refs, bits=64, permutations=1, seed=3)
        q = rng.standard_normal(8)
        got = search.query_index(q, idx, beamwidth=40)
        assert len(got) == 40
        cos = emb @ q / (np.linalg.norm(emb, axis=1) * np.linalg.norm(q))
        want = np.argsort(-cos, kind="stable")
        assert [r.utterance_id for r, _ in got] == [refs[i].utterance_id for i in want]

    def test_scores_equal_cosine_over_the_candidates_alone(self, tmp_path):
        # row norms kept on the index give the bits of norms taken over
        # each query's candidate rows, for a built and a reloaded index
        rng = np.random.default_rng(14)
        emb, refs = _random_db(rng, n=300, d=96)
        built = search.build_index(emb, refs, bits=32, permutations=3, seed=8)
        search.save_index(tmp_path / "i.cadi", built)
        for idx in (built, search.load_index(tmp_path / "i.cadi")):
            pos = {(r.utterance_id, r.start): i for i, r in enumerate(idx.refs)}
            for _ in range(150):
                q = rng.standard_normal(96)
                hits = search.query_index(q, idx, beamwidth=int(rng.integers(1, 40)))
                cand = idx.embeddings[sorted(pos[(r.utterance_id, r.start)] for r, _ in hits)]
                want = cand @ q / (np.linalg.norm(cand, axis=1) * np.linalg.norm(q))
                assert sorted(s for _, s in hits) == sorted(want.tolist())

    def test_self_query_scores_one_and_ranks_first(self):
        rng = np.random.default_rng(10)
        emb, refs = _random_db(rng)
        idx = search.build_index(emb, refs, bits=256, permutations=8, seed=4)
        hits = search.query_index(emb[17], idx, beamwidth=10)
        assert hits[0][0].utterance_id == "u17"
        assert hits[0][1] == pytest.approx(1.0)

    def test_beam_monotonicity(self):
        rng = np.random.default_rng(11)
        emb, refs = _random_db(rng, n=60)
        idx = search.build_index(emb, refs, bits=128, permutations=4, seed=5)
        q = rng.standard_normal(8)
        sizes = [len(search.query_index(q, idx, beamwidth=B)) for B in (2, 5, 10, 30, 60)]
        assert sizes == sorted(sizes)

    def test_exhaustive_score_bounds_index_score(self):
        rng = np.random.default_rng(12)
        emb, refs = _random_db(rng, n=60)
        idx = search.build_index(emb, refs, bits=64, permutations=2, seed=6)
        for _ in range(10):
            q = rng.standard_normal(8)
            best_index = search.query_index(q, idx, beamwidth=3)[0][1]
            stored = idx.embeddings  # the float32 values an index keeps
            cos = stored @ q / (np.linalg.norm(stored, axis=1) * np.linalg.norm(q))
            assert cos.max() >= best_index - 1e-12

    def test_round_trip_persistence(self, tmp_path):
        # the reload is the built index, field by field and bit for bit
        rng = np.random.default_rng(13)
        emb, refs = _random_db(rng, n=25)
        idx = search.build_index(emb, refs, bits=64, permutations=3, seed=7)
        path = tmp_path / "segments.cadi"
        search.save_index(path, idx)
        back = search.load_index(path)
        assert back.refs == idx.refs
        assert back.planes.seed == idx.planes.seed

        def raw(arrays):
            return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]

        for name in ("embeddings", "norms", "permutations"):
            assert raw([getattr(back, name)]) == raw([getattr(idx, name)]), name
        assert raw(back.sorted_orders) == raw(idx.sorted_orders)
        assert raw(back.sorted_keys) == raw(idx.sorted_keys)
        assert raw([back.planes.planes]) == raw([idx.planes.planes])
        q = rng.standard_normal(8)
        a = search.query_index(q, idx, beamwidth=6)
        b = search.query_index(q, back, beamwidth=6)
        assert raw([a.entries, a.scores]) == raw([b.entries, b.scores])

    def test_truncated_file_rejected_at_every_offset(self, tmp_path):
        rng = np.random.default_rng(14)
        emb, refs = _random_db(rng, n=6, d=4)
        refs[0] = SegmentKey("utt\u00e9", 0, 10)
        path = tmp_path / "segments.cadi"
        search.save_index(path, search.build_index(emb, refs, bits=16, permutations=2, seed=1))
        data = path.read_bytes()
        cut = tmp_path / "cut.cadi"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(search.SearchError):
                search.load_index(cut)

    def test_negative_seed_rejected(self, tmp_path):
        rng = np.random.default_rng(17)
        emb, refs = _random_db(rng, n=6, d=4)
        path = tmp_path / "segments.cadi"
        search.save_index(path, search.build_index(emb, refs, bits=16, permutations=2, seed=1))
        data = bytearray(path.read_bytes()[:-4])
        # header: magic, then u4 version, bits, permutations, i8 seed
        data[16:24] = (-5).to_bytes(8, "little", signed=True)
        path.write_bytes(with_crc(bytes(data)))
        with pytest.raises(search.SearchError, match="negative hyperplane seed"):
            search.load_index(path)

    @pytest.mark.parametrize("value", [0.0, float("nan")])
    def test_zero_or_nan_embedding_rejected(self, tmp_path, value):
        rng = np.random.default_rng(18)
        emb, refs = _random_db(rng, n=6, d=4)
        path = tmp_path / "segments.cadi"
        search.save_index(path, search.build_index(emb, refs, bits=16, permutations=2, seed=1))
        data = bytearray(path.read_bytes()[:-4])
        # the N*d f4 embedding values precede the CRC32; entry 0's come first
        at = len(data) - 4 * 6 * 4
        data[at : at + 4 * 4] = np.full(4, value, dtype="<f4").tobytes()
        path.write_bytes(with_crc(bytes(data)))
        with pytest.raises(search.SearchError, match="zero or non-finite norm"):
            search.load_index(path)

    # beyond float32's range, a quiet NaN, and a signalling NaN: rounding to
    # float32 warns on the first and the last unless told not to
    SIGNALLING_NAN = np.array([0x7FF0_0000_0000_0001], dtype=np.uint64).view(np.float64)

    @pytest.mark.parametrize("value", [1e300, float("nan"), SIGNALLING_NAN], ids=["1e300", "nan", "snan"])
    def test_non_finite_after_rounding_rejected_without_a_warning(self, value):
        emb, refs = _random_db(np.random.default_rng(19), n=4, d=3)
        emb[2, 1:2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(search.SearchError, match="zero or non-finite norm"):
                search.build_index(emb, refs, bits=16, permutations=2, seed=1)

    @pytest.mark.parametrize("N, P, b, d", [(0, 0, 2**31, 2**31), (0, 1, 8, 2**31)])
    def test_header_without_entries_or_permutations_rejected(self, tmp_path, N, P, b, d):
        # bits and dim this large must be refused before any hyperplane is
        # drawn; with no entries the file is the header alone
        path = tmp_path / "empty.cadi"
        path.write_bytes(with_crc(search.INDEX_MAGIC + struct.pack("<IIIqII", search.INDEX_VERSION, b, P, 1, N, d)))
        with pytest.raises(search.SearchError, match="0 entries"):
            search.load_index(path)

    @pytest.mark.parametrize("bits", [search.MAX_BITS, search.MAX_BITS + 1])
    def test_header_bits_bounded_before_any_hyperplane(self, tmp_path, monkeypatch, bits):
        # a sound one-entry, one-permutation file whose header asks for
        # ``bits`` hyperplanes; only the bound on b can refuse it
        path = _one_entry_index(tmp_path / "wide.cadi", bits=bits, permutations=1)
        if bits <= search.MAX_BITS:
            assert search.load_index(path).planes.bits == bits
            return
        drawn = []
        monkeypatch.setattr(search.HyperplaneSet, "create", lambda *args: drawn.append(args))
        with pytest.raises(search.SearchError, match=f"{bits} bits"):
            search.load_index(path)
        assert drawn == []

    @pytest.mark.parametrize("permutations", [search.MAX_PERMUTATIONS, search.MAX_PERMUTATIONS + 1, 0])
    def test_header_permutations_bounded_before_any_draw(self, tmp_path, monkeypatch, permutations):
        # as above for P; build_index draws every hyperplane and permutation
        path = _one_entry_index(tmp_path / "many.cadi", bits=16, permutations=permutations)
        if 1 <= permutations <= search.MAX_PERMUTATIONS:
            assert search.load_index(path).num_permutations == permutations
            return
        built = []
        monkeypatch.setattr(search, "build_index", lambda *args: built.append(args))
        with pytest.raises(search.SearchError, match=f"{permutations} permutations"):
            search.load_index(path)
        assert built == []

    def test_version_1_file_rejected_with_a_rebuild_hint(self, tmp_path):
        path = _one_entry_index(tmp_path / "old.cadi", bits=16, permutations=1)
        data = bytearray(path.read_bytes())
        data[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(search.SearchError, match="version 1; rebuild the file with `awekit index`"):
            search.load_index(path)


def _one_entry_index(path, bits, permutations):
    """A sound one-entry CADI file whose header asks for ``bits``
    hyperplanes and ``permutations`` bit permutations."""
    uid = b"u0"
    path.write_bytes(with_crc(search.INDEX_MAGIC
                              + struct.pack("<IIIqII", search.INDEX_VERSION, bits, permutations, 1, 1, 2)
                              + struct.pack("<H", len(uid)) + uid + struct.pack("<II", 0, 10)
                              + np.array([1.0, 0.0], "<f4").tobytes()))
    return path


def oracle_ranked_hits(query, index, beamwidth):
    """``query_index`` as a list of (ref, score) tuples, one per candidate."""
    q = np.asarray(query, dtype=np.float64)
    sig = search.sign_embed(q, index.planes)
    chosen = np.zeros(index.size, dtype=bool)
    for perm, order, keys in zip(index.permutations, index.sorted_orders, index.sorted_keys):
        pos = int(np.searchsorted(keys, search._packed_keys(sig[perm])))
        chosen[order[max(0, pos - beamwidth) : pos + beamwidth]] = True
    cand = np.flatnonzero(chosen)
    scores = index.embeddings[cand] @ q / (index.norms[cand] * np.linalg.norm(q))
    return [(index.refs[cand[i]], float(scores[i])) for i in np.lexsort((cand, -scores))]


def oracle_utterance_scores(hits, utterance_pos, admissible_sizes):
    """Walk the ranked hits; the first admissible hit scoring above -1 of
    each utterance wins. Returns the scores and the (start, size) windows."""
    scores = np.full(len(utterance_pos), -1.0)
    windows = [None] * len(utterance_pos)
    for ref, score in hits:
        pos = utterance_pos[ref.utterance_id]
        if windows[pos] is None and ref.size in admissible_sizes and score > -1.0:
            scores[pos] = score
            windows[pos] = (ref.start, ref.size)
    return scores, windows


def _entry_tables(refs, utts, sizes, admissible_sizes):
    """The arrays ``utterance_scores`` takes: each entry's utterance slot
    and window size, and the admissible-size table."""
    pos = {u: i for i, u in enumerate(utts)}
    entry_utt = np.array([pos[r.utterance_id] for r in refs], dtype=np.intp)
    entry_size = np.array([r.size for r in refs], dtype=np.intp)
    admissible = np.zeros(max(max(sizes), *entry_size) + 1, dtype=bool)
    admissible[list(admissible_sizes)] = True
    return entry_utt, entry_size, admissible


class TestHits:
    def test_equals_the_ranked_tuple_list(self):
        rng = np.random.default_rng(19)
        emb, refs = _random_db(rng, n=80)
        emb[40] = emb[7]  # a tie, ranked by entry id
        idx = search.build_index(emb, refs, bits=32, permutations=3, seed=2)
        for beam in (1, 4, 80):
            for q in (rng.standard_normal(8), emb[7]):
                hits, want = search.query_index(q, idx, beam), oracle_ranked_hits(q, idx, beam)
                assert len(hits) == len(want)
                assert [hits[i] for i in range(len(hits))] == want
                assert hits[-1] == want[-1]
                assert list(hits) == want
                assert all(type(s) is float for _, s in hits)
                with pytest.raises(IndexError):
                    hits[len(want)]


class TestUtteranceScores:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_loop_over_hits(self, seed):
        # random ranked hits over a few utterances, with tied scores, scores
        # of exactly -1, and sizes outside the admissible set
        rng = np.random.default_rng(seed)
        sizes = (12, 15, 18, 24, 30)
        utts = [f"u{i}" for i in range(int(rng.integers(1, 9)))]
        refs = [SegmentKey(utts[int(rng.integers(len(utts)))], int(rng.integers(50)), int(rng.choice(sizes)))
                for _ in range(int(rng.integers(1, 120)))]
        cand = np.flatnonzero(rng.random(len(refs)) < 0.7)
        scores = rng.choice([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0], size=len(cand))
        free = rng.random(len(cand)) < 0.5
        scores[free] = rng.uniform(-1.0, 1.0, size=int(free.sum()))
        order = np.lexsort((cand, -scores))
        hits = search.Hits(refs, cand[order], scores[order])
        admissible_sizes = set(rng.choice(sizes, size=int(rng.integers(0, 4))).tolist())
        got, best = search.utterance_scores(hits, *_entry_tables(refs, utts, sizes, admissible_sizes), len(utts))
        want, windows = oracle_utterance_scores(hits, {u: i for i, u in enumerate(utts)}, admissible_sizes)
        assert got.tobytes() == want.tobytes()
        assert [(refs[e].start, refs[e].size) if e >= 0 else None for e in best] == windows
        assert all(e < 0 or refs[e].utterance_id == u for e, u in zip(best, utts))


class TestQbeScore:
    """``utterance_scores`` over ``query_index`` hits with a beam covering
    the index."""

    @staticmethod
    def _score(q, emb, windows, query_len, cfg=WindowConfig(), utt_of=None):
        refs = [SegmentKey(utt_of(i) if utt_of else "utt", s, z) for i, (s, z) in enumerate(windows)]
        idx = search.build_index(emb, refs, bits=32, permutations=2, seed=0)
        utts = sorted({r.utterance_id for r in refs})
        hits = search.query_index(q, idx, beamwidth=idx.size)
        tables = _entry_tables(refs, utts, cfg.sizes, cfg.admissible_sizes(query_len))
        scores, best = search.utterance_scores(hits, *tables, len(utts))
        return scores, [(refs[e].start, refs[e].size) if e >= 0 else None for e in best]

    def test_identical_window_scores_one(self):
        rng = np.random.default_rng(14)
        q = rng.standard_normal(6)
        emb = np.vstack([rng.standard_normal(6), q])
        scores, windows = self._score(q, emb, [(0, 12), (5, 12)], query_len=12)
        assert scores[0] == pytest.approx(1.0)
        assert windows == [(5, 12)]

    def test_orthogonal_windows_score_zero(self):
        q = np.array([1.0, 0.0])
        emb = np.array([[0.0, 1.0], [0.0, 2.0]])
        scores, _ = self._score(q, emb, [(0, 12), (5, 12)], 12)
        assert scores[0] == pytest.approx(0.0)

    def test_no_admissible_window_sentinel(self):
        q = np.array([1.0, 0.0])
        scores, windows = self._score(q, np.array([[1.0, 0.0]]), [(0, 120)], 12)
        assert scores[0] == -1.0 and windows == [None]

    def test_tie_goes_to_lower_entry_id(self):
        q = np.array([1.0, 1.0])
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [2.0, 2.0]])
        scores, windows = self._score(q, emb, [(0, 12), (3, 12), (6, 12), (9, 12)], 12)
        assert windows == [(6, 12)]
        assert scores[0] == pytest.approx(1.0)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(15)
        cfg = WindowConfig()
        q = rng.standard_normal(5)
        windows = search.generate_windows(60, cfg) * 3
        emb = rng.standard_normal((len(windows), 5))
        per_utt = len(windows) // 3
        scores, got = self._score(q, emb, windows, 24, cfg, utt_of=lambda i: f"u{i // per_utt}")
        emb = emb.astype(np.float32).astype(np.float64)  # the values an index keeps
        for u in range(3):
            best, best_win = -1.0, None
            for i in range(u * per_utt, (u + 1) * per_utt):
                start, size = windows[i]
                if not (2 / 3) * 24 <= size <= (4 / 3) * 24:
                    continue
                c = emb[i] @ q / (np.linalg.norm(emb[i]) * np.linalg.norm(q))
                if c > best:
                    best, best_win = c, (start, size)
            assert scores[u] == pytest.approx(best, abs=1e-12)
            assert got[u] == best_win
