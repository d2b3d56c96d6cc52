"""Pipeline integration: synthetic corpora, training commands, reports,
search, decoding, and determinism across reruns and thread counts."""

import json
import os
import signal
from types import SimpleNamespace

import numpy as np
import pytest

from awekit import autodiff as ad
from awekit import corpus as cp
from awekit import objectives, pipelines, recognition, search, synth
from awekit.config import ConfigError, ExperimentConfig
from test_corpus import with_crc
from test_nn import edit_checkpoint


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    spec = synth.SyntheticSpec(vocab_size=8, num_train=40, num_eval=16, num_speakers=4,
                               noise=0.2, speaker_scale=0.2, words_per_utterance=(1, 2),
                               base_duration=(12, 20))
    corpus = synth.generate_corpus(spec, seed=5)
    return synth.write_corpus(corpus, out)


@pytest.fixture(scope="module")
def embed_checkpoint(corpus_dir, tmp_path_factory):
    cfg = small_cfg(corpus_dir, {("training", "epochs"): "0"})
    return pipelines.train_embed(cfg, tmp_path_factory.mktemp("emb0"))["checkpoint"]


def _last_weight(arrays: dict, value) -> dict:
    """``arrays`` with the last value of the last one set to ``value``."""
    arrays[list(arrays)[-1]].flat[-1] = value
    return arrays


def _data_args(paths):
    args = ["--seed", "9"]
    for key in ("train", "train_align", "dev", "dev_align", "lexicon"):
        args += ["--set", f"data.{key}={paths[key]}"]
    return args


def small_cfg(paths, extra=None):
    overrides = {
        ("data", "train"): paths["train"],
        ("data", "train_align"): paths["train_align"],
        ("data", "dev"): paths["dev"],
        ("data", "dev_align"): paths["dev_align"],
        ("data", "lexicon"): paths["lexicon"],
        ("data", "feature_table"): paths["feature_table"],
        ("encoder", "layers"): "1",
        ("encoder", "hidden"): "16",
        ("encoder", "embed_dim"): "12",
        ("written", "hidden"): "16",
        ("written", "symbol_embed_dim"): "8",
        ("training", "epochs"): "1",
        ("training", "batch_size"): "8",
        ("run", "seed"): "9",
    }
    overrides.update(extra or {})
    return ExperimentConfig.load(None, overrides=overrides)


class TestSynth:
    def test_instances_identical_without_noise_or_jitter(self):
        spec = synth.SyntheticSpec(vocab_size=3, noise=0.0, duration_jitter=0.0,
                                   num_speakers=1, num_train=20, num_eval=2)
        corpus = synth.generate_corpus(spec, seed=1)
        by_word = {}
        for fm, al in zip(corpus.train, corpus.train_alignments):
            (s, e, w) = al.entries[0]
            by_word.setdefault(w, []).append(fm.frames[s:e])
        for w, insts in by_word.items():
            for inst in insts[1:]:
                np.testing.assert_array_equal(inst, insts[0])

    def test_same_seed_bit_identical_files(self, tmp_path):
        spec = synth.SyntheticSpec(vocab_size=4, num_train=10, num_eval=4)
        a = synth.write_corpus(synth.generate_corpus(spec, seed=3), tmp_path / "a")
        b = synth.write_corpus(synth.generate_corpus(spec, seed=3), tmp_path / "b")
        for key in a:
            assert open(a[key], "rb").read() == open(b[key], "rb").read()

    def test_alignments_exact_by_construction(self, corpus_dir):
        import awekit.corpus as cp

        fms = cp.load_feature_archive(corpus_dir["train"])
        als = cp.load_alignments(corpus_dir["train_align"])
        for fm in fms:
            al = als[fm.utterance_id]
            assert al.entries[0][0] == 0
            assert al.entries[-1][1] == fm.num_frames


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[encoder]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.load(path)

    def test_seed_mandatory(self):
        cfg = ExperimentConfig.load(None)
        with pytest.raises(ConfigError):
            cfg.seed

    def test_preset_then_file_then_override(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[objective]\nmargin = 0.7\n")
        cfg = ExperimentConfig.load(path, preset="ch5-multiview",
                                    overrides={("objective", "k"): "3"})
        assert cfg.getfloat("objective", "margin") == 0.7  # file beats preset
        assert cfg.getint("objective", "k") == 3  # override beats both
        assert cfg.getbool("objective", "sqrt_variant") is True  # preset beats default

    def test_missing_path_reported(self, corpus_dir):
        cfg = small_cfg(corpus_dir, {("data", "train"): "/nonexistent/x.cadf"})
        with pytest.raises(ConfigError):
            cfg.data_path("train")

    @pytest.mark.parametrize("setting", [
        "[recognizer]\nvocab_sample = 8\n", "[recognizer]\nunk_row_init = zero\n",
        "[recognizer]\nfreeze_encoder = true\n", "[search]\nmin_ratio = 0.5\n",
        "[search]\nmax_ratio = 1.5\n", "[objective]\nspans = false\n", "[scheduler]\nrule = metric\n",
        "[recognizer]\nlexicon_mode = static\n", "[search]\nexhaustive = false\n"],
        ids=["vocab_sample", "unk_row_init", "freeze_encoder", "min_ratio", "max_ratio", "spans", "rule",
             "lexicon_mode", "exhaustive"])
    def test_removed_key_exits_with_config_error(self, tmp_path, setting):
        from awekit.cli import main

        ini = tmp_path / "old.ini"
        ini.write_text("[run]\nseed = 1\n" + setting)
        assert main(["make-synth", "--out", str(tmp_path / "c"), "--config", str(ini)]) == 2
        assert not os.path.exists(tmp_path / "c")

    @pytest.mark.parametrize("setting", [
        "[encoder]\nfc_dim = 256\n", "[written]\ncell = lstm\n", "[written]\nshared_projection = true\n",
        "[optimizer]\nbeta1 = 0.9\n", "[optimizer]\nbeta2 = 0.999\n", "[optimizer]\neps = 1e-8\n"],
        ids=["fc_dim", "written_cell", "shared_projection", "beta1", "beta2", "eps"])
    def test_fixed_key_exits_with_config_error(self, tmp_path, setting):
        from awekit.cli import main

        ini = tmp_path / "old.ini"
        ini.write_text("[run]\nseed = 1\n" + setting)
        assert main(["make-synth", "--out", str(tmp_path / "c"), "--config", str(ini)]) == 2

    def test_window_band_matches_window_config(self, corpus_dir):
        band = pipelines._window_config(small_cfg(corpus_dir))
        assert band.admissible_sizes(18) == (12, 15, 18, 21, 24)
        for query_len in range(1, 181):
            assert band.admissible_sizes(query_len) == search.WindowConfig().admissible_sizes(query_len)


class TestTrainEmbed:
    @pytest.mark.parametrize("kind,extra", [
        ("multiview", {}),
        ("multiview", {("objective", "contextual"): "true", ("objective", "strategy"): "semi-hard",
                       ("objective", "terms"): "0,1,2"}),
        ("multiview", {("objective", "contextual"): "true", ("training", "spec_augment"): "true"}),
        ("triplet", {("objective", "strategy"): "uniform"}),
        ("triplet", {("objective", "strategy"): "confusion"}),
        ("triplet", {("objective", "strategy"): "offending", ("objective", "k"): "3"}),
    ])
    def test_one_epoch_runs_and_reports(self, corpus_dir, tmp_path, kind, extra):
        cfg = small_cfg(corpus_dir, {("objective", "kind"): kind, **extra})
        report = pipelines.train_embed(cfg, tmp_path / "run")
        assert os.path.exists(report["checkpoint"])
        assert 0.0 <= report["final"]["acoustic_ap"] <= 1.0

    @pytest.mark.parametrize("kind,extra", [
        ("classifier", {("encoder", "embed_dim"): "8"}),
        ("triplet", {("objective", "strategy"): "uniform"}),
    ])
    def test_contextual_needs_multiview(self, corpus_dir, tmp_path, kind, extra):
        cfg = small_cfg(corpus_dir, {("objective", "kind"): kind, ("objective", "contextual"): "true",
                                     **extra})
        with pytest.raises(ConfigError, match="contextual"):
            pipelines.train_embed(cfg, tmp_path / "run")

    def test_classifier_objective(self, corpus_dir, tmp_path):
        cfg = small_cfg(corpus_dir, {("objective", "kind"): "classifier",
                                       ("encoder", "embed_dim"): "8"})
        report = pipelines.train_embed(cfg, tmp_path / "cls")
        assert report["final"]["cross_view_ap"] is None

    def test_zero_epochs_checkpoint_equals_initialization(self, corpus_dir, tmp_path):
        from awekit import nn

        cfg = small_cfg(corpus_dir, {("training", "epochs"): "0"})
        report = pipelines.train_embed(cfg, tmp_path / "zero")
        f, g, meta, _ = pipelines.rebuild_embed_model(report["checkpoint"])
        from awekit.config import component_rng
        from awekit.pipelines import build_acoustic_encoder

        fresh = build_acoustic_encoder(cfg, meta["input_dim"], component_rng(cfg.seed, "init"))
        for p, q in zip(fresh.parameters(), f.parameters()):
            np.testing.assert_array_equal(
                p.values.astype(np.float32), q.values.astype(np.float32))

    def test_checkpoint_bytes_do_not_depend_on_where_the_inputs_are(self, corpus_dir, tmp_path):
        import shutil

        moved = {key: shutil.copy(path, tmp_path / os.path.basename(path)) for key, path in corpus_dir.items()}
        extra = {("training", "epochs"): "0", ("run", "threads"): "2"}
        here = pipelines.train_embed(small_cfg(corpus_dir, {("training", "epochs"): "0"}), tmp_path / "here")
        there = pipelines.train_embed(small_cfg(moved, extra), tmp_path / "there")
        assert open(here["checkpoint"], "rb").read() == open(there["checkpoint"], "rb").read()

    def test_same_seed_same_checkpoint_and_log(self, corpus_dir, tmp_path):
        cfg = small_cfg(corpus_dir, {("training", "epochs"): "2"})
        r1 = pipelines.train_embed(cfg, tmp_path / "d1")
        r2 = pipelines.train_embed(cfg, tmp_path / "d2")
        assert open(r1["checkpoint"], "rb").read() == open(r2["checkpoint"], "rb").read()
        assert (tmp_path / "d1" / "train_log.jsonl").read_text() == \
               (tmp_path / "d2" / "train_log.jsonl").read_text()

    @pytest.mark.parametrize("epochs", ["1", "2"])
    @pytest.mark.parametrize("extra", [
        {},
        {("objective", "contextual"): "true"},
        {("objective", "kind"): "classifier", ("encoder", "embed_dim"): "8"},
        {("objective", "kind"): "triplet", ("objective", "strategy"): "uniform"},
    ], ids=["isolated-multiview", "contextual-multiview", "classifier", "uniform-triplet"])
    def test_best_epoch_dev_ap_equals_eval_ap(self, corpus_dir, tmp_path, extra, epochs):
        cfg = small_cfg(corpus_dir, {("training", "epochs"): epochs, **extra})
        report = pipelines.train_embed(cfg, tmp_path / "run")
        log = [json.loads(line) for line in (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()]
        best = log[0]
        for entry in log[1:]:  # the scheduler keeps the first strictly better epoch
            if entry["metric"] > best["metric"]:
                best = entry
        ap = pipelines.eval_ap(cfg, report["checkpoint"], tmp_path / "ap.json")
        assert ap["acoustic_ap"] == best["acoustic_ap"]
        assert ap.get("cross_view_ap") == best["cross_view_ap"]

    def test_confusion_negatives_carry_the_sampled_label(self):
        from awekit import corpus as cp
        from awekit import encoders as enc
        from awekit import objectives as obj

        # labels first appear in reverse sorted order, so an index into the
        # sorted labels names a different label in order of appearance
        labels = ["e", "d", "c", "b", "a"] * 2
        rng = np.random.default_rng(0)
        fm = cp.FrameMatrix("u", rng.standard_normal((4 * len(labels), 3)))
        segments = [(fm, cp.SegmentRef("u", 4 * i, 4 * i + 4, lab)) for i, lab in enumerate(labels)]
        by_label = {}
        for idx, (_, seg) in enumerate(segments):
            by_label.setdefault(seg.label, []).append(idx)
        label_index = {w: i for i, w in enumerate(sorted(by_label))}
        # every PMF puts all its mass on "b", and the PMF of "b" on "d"
        confusion = obj.ConfusionMatrix(len(label_index))
        confusion.matrix[...] = 0.0
        confusion.matrix[:, label_index["b"]] = 1.0
        confusion.matrix[label_index["b"]] = 0.0
        confusion.matrix[label_index["b"], label_index["d"]] = 1.0
        seen = []
        confusion.update = lambda la, ld, *embs: seen.append((la, ld))
        objective = pipelines.Objective(ExperimentConfig.load(None, overrides={
            ("objective", "kind"): "triplet", ("objective", "strategy"): "confusion", ("run", "seed"): "1"}))
        f = enc.AcousticEncoder(enc.AcousticEncoderConfig(input_dim=3, layers=1, hidden=4, embed_dim=4),
                                np.random.default_rng(1))
        rngs = {"sampling": np.random.default_rng(2), "dropout": np.random.default_rng(3)}
        for _ in range(20):
            pipelines._triplet_batch_loss(objective, f, segments, list(range(len(segments))), by_label,
                                          label_index, confusion, rngs)
        assert len(seen) == 20 * len(segments)  # no anchor is skipped
        want = {label_index[w]: label_index["d" if w == "b" else "b"] for w in label_index}
        assert all(ld == want[la] for la, ld in seen)

    def test_thread_count_does_not_change_results(self, corpus_dir, tmp_path):
        cfg1 = small_cfg(corpus_dir, {("run", "threads"): "1"})
        cfg4 = small_cfg(corpus_dir, {("run", "threads"): "4"})
        r1 = pipelines.train_embed(cfg1, tmp_path / "t1")
        r4 = pipelines.train_embed(cfg4, tmp_path / "t4")
        assert open(r1["checkpoint"], "rb").read() == open(r4["checkpoint"], "rb").read()
        a1 = pipelines.eval_ap(cfg1, r1["checkpoint"], tmp_path / "ap1.json")
        a4 = pipelines.eval_ap(cfg4, r4["checkpoint"], tmp_path / "ap4.json")
        assert a1["acoustic_ap"] == a4["acoustic_ap"]


class _MeanFrameEmbedder:
    """Embeds a segment as its mean frame."""

    def embed_segments_isolated(self, frames, train, rng):
        return ad.constant(np.stack([fr.mean(axis=0) for fr in frames]))


def _triplet_loss(strategy, k, seed):
    """One triplet batch over 12 segments of 4 words; a segment's frames
    read (word id + 1, segment index + 1)."""
    words = ["a", "b", "c", "d"]
    train_segments, by_label = [], {}
    for idx in range(12):
        word = words[idx % 4]
        fm = cp.FrameMatrix(f"u{idx}", np.tile([words.index(word) + 1.0, idx + 1.0], (3, 1)))
        train_segments.append((fm, cp.SegmentRef(fm.utterance_id, 0, 3, word)))
        by_label.setdefault(word, []).append(idx)
    objective = SimpleNamespace(strategy=strategy, k=k, margin=0.4)
    rngs = {"sampling": np.random.default_rng(seed), "dropout": np.random.default_rng(0)}
    loss = pipelines._triplet_batch_loss(objective, _MeanFrameEmbedder(), train_segments, list(range(12)),
                                         by_label, {w: i for i, w in enumerate(words)}, None, rngs)
    return loss, rngs["sampling"]


class TestTripletSampling:
    def test_uniform_is_offending_with_one_draw(self):
        for seed in range(5):
            uniform, uniform_rng = _triplet_loss("uniform", 3, seed)
            offending, offending_rng = _triplet_loss("offending", 1, seed)
            assert uniform.values.tobytes() == offending.values.tobytes()
            assert uniform_rng.bit_generator.state == offending_rng.bit_generator.state

    @pytest.mark.parametrize("strategy,k", [("uniform", 3), ("offending", 3)])
    def test_negatives_are_k_other_word_segments(self, monkeypatch, strategy, k):
        # uniform scores each anchor against one negative, offending against k;
        # every negative is a segment of another word
        seen = {}
        matrix, loss = ad.cosine_distance_matrix, objectives.triplet_loss

        def record_matrix(a, b):
            seen["words"] = a.values[:, 0]  # a row's word id + 1
            return matrix(a, b)

        def record_loss(dist, anchors, positives, negatives, margin):
            seen.update(anchors=anchors, positives=positives, negatives=negatives)
            return loss(dist, anchors, positives, negatives, margin)

        monkeypatch.setattr(ad, "cosine_distance_matrix", record_matrix)
        monkeypatch.setattr(objectives, "triplet_loss", record_loss)
        _triplet_loss(strategy, k, seed=3)
        words = seen["words"]
        anchor_words = words[seen["anchors"]]
        assert len(anchor_words) == 24  # each of the 12 anchors and its mirrored triplet
        assert (words[seen["positives"]] == anchor_words).all()
        assert seen["negatives"].shape == (24, k if strategy == "offending" else 1)
        assert (words[seen["negatives"]] != anchor_words[:, None]).all()


def _nan_on_second_call(monkeypatch, owner, name):
    """Make the second call of ``owner.name`` return a NaN loss."""
    from awekit import autodiff as ad

    orig = getattr(owner, name)
    calls = []

    def patched(*args, **kwargs):
        loss = orig(*args, **kwargs)
        calls.append(1)
        return ad.scale(loss, float("nan")) if len(calls) == 2 else loss

    monkeypatch.setattr(owner, name, patched)


class TestNonFiniteLoss:
    def test_train_embed_raises_before_the_step(self, corpus_dir, tmp_path, monkeypatch):
        _nan_on_second_call(monkeypatch, pipelines.Objective, "multiview_loss")
        steps = []
        orig_step = pipelines.nn.Adam.step
        monkeypatch.setattr(pipelines.nn.Adam, "step", lambda self, params: steps.append(1) or
                            orig_step(self, params))
        with pytest.raises(FloatingPointError):
            pipelines.train_embed(small_cfg(corpus_dir), tmp_path / "run")
        assert steps == [1]
        assert (tmp_path / "run" / "train_log.jsonl").read_text() == ""
        assert not (tmp_path / "run" / "embed.cadp").exists()

    @pytest.mark.parametrize("kind", ["ctc", "segmental"])
    def test_train_asr_raises(self, corpus_dir, tmp_path, monkeypatch, kind):
        _nan_on_second_call(monkeypatch, recognition.obj, "combine_joint")
        cfg = small_cfg(corpus_dir, {("recognizer", "kind"): kind, ("recognizer", "s_max"): "24"})
        with pytest.raises(FloatingPointError):
            recognition.train_asr(cfg, tmp_path / "run")
        assert not (tmp_path / "run" / "asr.cadp").exists()


class TestEvalAndSearch:
    @pytest.fixture(scope="class")
    def trained(self, corpus_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("trained")
        cfg = small_cfg(corpus_dir, {("training", "epochs"): "2"})
        report = pipelines.train_embed(cfg, out)
        return cfg, report["checkpoint"]

    def test_eval_ap_reports(self, trained, tmp_path):
        cfg, ckpt = trained
        report = pipelines.eval_ap(cfg, ckpt, tmp_path / "ap.json")
        assert 0 <= report["acoustic_ap"] <= 1
        assert 0 <= report["cross_view_ap"] <= 1
        assert os.path.exists(tmp_path / "ap.tsv")

    def test_dtw_ap_reports_both_normalizations(self, trained, tmp_path):
        cfg, _ = trained
        report = pipelines.dtw_ap(cfg, tmp_path / "dtw.json")
        assert 0 <= report["dtw_ap"] <= 1
        assert 0 <= report["dtw_ap_path_normalized"] <= 1

    def test_index_query_roundtrip_and_self_hit(self, trained, corpus_dir, tmp_path):
        cfg, ckpt = trained
        cfg = small_cfg(corpus_dir, {
            ("search", "window_sizes"): "8,12,16,20",
            ("search", "stride"): "4",
            ("search", "bits"): "128",
            ("search", "permutations"): "4",
            ("search", "beamwidth"): "4000",
        })
        idx_path = tmp_path / "dev.cadi"
        rep = pipelines.build_search_index(cfg, ckpt, corpus_dir["dev"], idx_path)
        assert rep["num_segments"] > 0
        out = tmp_path / "query_report.json"
        qrep = pipelines.query_search_index(
            cfg, ckpt, idx_path, corpus_dir["dev"], corpus_dir["dev_align"], out,
            truth_align_path=corpus_dir["dev_align"], search_archive=corpus_dir["dev"])
        # querying the collection with its own utterances: generous scores
        assert qrep["p_at_10"] > 0
        assert "min_cnxe" in qrep and qrep["min_cnxe"] <= 1.0
        assert os.path.exists(tmp_path / "query_report_hits.tsv")

    def test_query_outputs_do_not_depend_on_threads(self, trained, corpus_dir, tmp_path):
        cfg, ckpt = trained
        base = {("search", "window_sizes"): "8,12,16,20", ("search", "stride"): "4",
                ("search", "bits"): "64", ("search", "permutations"): "2", ("search", "beamwidth"): "6"}
        idx_path = tmp_path / "i.cadi"
        pipelines.build_search_index(small_cfg(corpus_dir, base), ckpt, corpus_dir["dev"], idx_path)
        reports = []
        for threads in (1, 2):
            cfg = small_cfg(corpus_dir, {**base, ("run", "threads"): str(threads)})
            pipelines.query_search_index(cfg, ckpt, idx_path, corpus_dir["dev"], corpus_dir["dev_align"],
                                         tmp_path / f"t{threads}.json", truth_align_path=corpus_dir["dev_align"],
                                         search_archive=corpus_dir["dev"])
            report = json.loads((tmp_path / f"t{threads}.json").read_text())
            assert report["config"]["run"].pop("threads") == str(threads)
            reports.append(report)
        assert "fom" in reports[0] and "min_cnxe" in reports[0]
        assert reports[0] == reports[1]
        assert (tmp_path / "t1_hits.tsv").read_bytes() == (tmp_path / "t2_hits.tsv").read_bytes()

class TestRecognition:
    @pytest.mark.parametrize("kind", ["ctc", "segmental"])
    def test_one_epoch_asr_runs(self, corpus_dir, tmp_path, kind):
        cfg = small_cfg(corpus_dir, {("recognizer", "kind"): kind,
                                       ("recognizer", "s_max"): "24",
                                       ("training", "epochs"): "1"})
        report = recognition.train_asr(cfg, tmp_path / kind)
        assert os.path.exists(report["checkpoint"])
        assert report["history"][0]["dev_wer"] >= 0

    def test_decode_determinism_and_wer_report(self, corpus_dir, tmp_path):
        cfg = small_cfg(corpus_dir, {("training", "epochs"): "1"})
        report = recognition.train_asr(cfg, tmp_path / "asr")
        out1 = tmp_path / "dec1.json"
        out2 = tmp_path / "dec2.json"
        r1 = recognition.decode_archive(cfg, report["checkpoint"], corpus_dir["dev"], out1,
                                        align_path=corpus_dir["dev_align"])
        r2 = recognition.decode_archive(cfg, report["checkpoint"], corpus_dir["dev"], out2,
                                        align_path=corpus_dir["dev_align"])
        assert r1["wer"] == r2["wer"]
        assert open(str(out1).replace(".json", "_hyp.tsv")).read() == \
               open(str(out2).replace(".json", "_hyp.tsv")).read()

    def test_joint_training_follows_k_schedule(self, corpus_dir, tmp_path, monkeypatch):
        emb = pipelines.train_embed(small_cfg(corpus_dir, {("training", "epochs"): "0"}), tmp_path / "emb")
        ks = []
        orig = pipelines.Objective.multiview_loss
        monkeypatch.setattr(pipelines.Objective, "multiview_loss",
                            lambda self, *args: ks.append(args[5]) or orig(self, *args))
        cfg = small_cfg(corpus_dir, {
            ("recognizer", "training_mode"): "joint",
            ("recognizer", "init_checkpoint"): emb["checkpoint"],
            ("recognizer", "lambda_emb"): "0.5",
            ("objective", "k"): "6",
            ("objective", "k_end"): "3",
            ("training", "epochs"): "2",
        })
        recognition.train_asr(cfg, tmp_path / "joint")
        assert ks == [6, 5, 4, 3] + [3] * (len(ks) - 4)
        assert len(ks) == 10  # 40 utterances in batches of 8, two epochs

    def test_flat_dev_wer_decays_the_learning_rate_every_patience_epochs(self, corpus_dir, tmp_path,
                                                                          monkeypatch):
        monkeypatch.setattr(recognition, "dev_wer", lambda *args, **kwargs: 0.5)
        cfg = small_cfg(corpus_dir, {("scheduler", "patience"): "1", ("scheduler", "factor"): "0.5",
                                     ("training", "epochs"): "3"})
        report = recognition.train_asr(cfg, tmp_path / "asr")
        lr = cfg.getfloat("optimizer", "lr")
        assert [h["lr"] for h in report["history"]] == [lr, lr * 0.5, lr * 0.25]

    def test_regularizer_reaches_the_loss_on_every_batch(self, corpus_dir, tmp_path, monkeypatch):
        emb = pipelines.train_embed(small_cfg(corpus_dir, {("training", "epochs"): "0"}), tmp_path / "emb")
        reg_losses, combined = [], []
        orig_reg, orig_combine = recognition.regularizer_loss, recognition.obj.combine_joint

        def regularizer_loss(*args, **kwargs):
            reg_losses.append(orig_reg(*args, **kwargs))
            return reg_losses[-1]

        def combine_joint(asr, emb_loss, reg_loss, *args):
            combined.append(reg_loss)
            return orig_combine(asr, emb_loss, reg_loss, *args)

        monkeypatch.setattr(recognition, "regularizer_loss", regularizer_loss)
        monkeypatch.setattr(recognition.obj, "combine_joint", combine_joint)
        checkpoints = {}
        for lam in ("0.0", "0.5"):
            cfg = small_cfg(corpus_dir, {("recognizer", "training_mode"): "pretrain",
                                         ("recognizer", "init_checkpoint"): emb["checkpoint"],
                                         ("recognizer", "lambda_reg"): lam})
            report = recognition.train_asr(cfg, tmp_path / lam)
            with open(report["checkpoint"], "rb") as fh:
                checkpoints[lam] = fh.read()
        assert len(combined) == 10  # 40 utterances in batches of 8, two runs
        assert len(reg_losses) == 5 and all(r is not None for r in reg_losses)
        assert combined[:5] == [None] * 5 and all(a is b for a, b in zip(combined[5:], reg_losses))
        assert checkpoints["0.0"] != checkpoints["0.5"]

    def test_frozen_rows_unchanged_after_training(self, corpus_dir, tmp_path):
        emb_cfg = small_cfg(corpus_dir, {("training", "epochs"): "1"})
        emb = pipelines.train_embed(emb_cfg, tmp_path / "emb")
        cfg = small_cfg(corpus_dir, {
            ("training", "epochs"): "1",
            ("recognizer", "training_mode"): "pretrain",
            ("recognizer", "init_checkpoint"): emb["checkpoint"],
            ("recognizer", "freeze"): "true",
            ("recognizer", "unk"): "true",
        })
        report = recognition.train_asr(cfg, tmp_path / "frozen")
        model, meta, _ = recognition.rebuild_recognizer(report["checkpoint"])
        f2, g2, _, _ = pipelines.rebuild_embed_model(emb["checkpoint"])
        from awekit.metrics import unit_rows
        import awekit.corpus as cp

        lex = cp.load_lexicon(corpus_dir["lexicon"])
        expect = unit_rows(g2.embed_words(
            [w for w in model.vocab.labels if w != model.vocab.unk_token], lex).values)
        got = model.pl.w.values[: len(expect)]
        np.testing.assert_allclose(got, expect.astype(np.float32).astype(np.float64), atol=1e-7)

    @pytest.mark.parametrize("kind,extra", [
        ("ctc", {("recognizer", "unk"): "true"}),
        ("segmental", {("recognizer", "s_max"): "24"}),
    ], ids=["ctc-static-unk", "segmental"])
    def test_reload_rebuilds_the_trained_model(self, corpus_dir, tmp_path, monkeypatch, kind, extra):
        from awekit import nn

        built = []
        orig = recognition.build_recognizer

        def build_recognizer(*args):
            model, cfg = orig(*args)
            built.append(model)
            return model, cfg

        monkeypatch.setattr(recognition, "build_recognizer", build_recognizer)
        cfg = small_cfg(corpus_dir, {("recognizer", "kind"): kind, **extra})
        report = recognition.train_asr(cfg, tmp_path / "asr")
        model, _, _ = recognition.rebuild_recognizer(report["checkpoint"])
        layout = [(p.name, p.values.shape) for p in model.parameters()]
        assert layout == [(p.name, p.values.shape) for p in built[0].parameters()]
        saved = nn.load_checkpoint(report["checkpoint"])[1]
        assert list(saved) == [name for name, _ in layout]
        for p in model.parameters():
            np.testing.assert_array_equal(p.values, saved[p.name])

    def test_export_embeddings_header_and_rows(self, corpus_dir, tmp_path):
        emb_cfg = small_cfg(corpus_dir, {("training", "epochs"): "0"})
        emb = pipelines.train_embed(emb_cfg, tmp_path / "emb0")
        out = tmp_path / "dump.tsv"
        rep = recognition.export_embeddings(emb["checkpoint"], corpus_dir["dev"], out,
                                            align_path=corpus_dir["dev_align"])
        lines = out.read_text().strip().split("\n")
        header = lines[0].split("\t")
        assert header[:2] == ["id", "label"]
        assert len(header) - 2 == rep["dim"]
        assert len(lines) - 1 == rep["rows"]
        rep2 = recognition.export_embeddings(emb["checkpoint"], corpus_dir["dev"],
                                             tmp_path / "dump2.tsv",
                                             align_path=corpus_dir["dev_align"])
        assert out.read_text() == (tmp_path / "dump2.tsv").read_text()


    @pytest.mark.parametrize("kind", ["ctc", "segmental"])
    def test_batch_loss_is_one_tape_node_at_any_batch_size(self, corpus_dir, kind):
        """The recognizer loss adds one node per batch, not one per
        utterance: batches of 2 and of 4 utterances of the same lengths
        (so the same segment cap) record the same number of nodes."""
        cfg = small_cfg(corpus_dir, {("recognizer", "kind"): kind, ("recognizer", "s_max"): "24"})
        ds = pipelines.load_dataset(cfg)
        model, _ = recognition.build_recognizer(cfg, ds, ds.train[0].dim)
        counts = []
        for fms in (ds.train[:2], ds.train[:2] * 2):
            with ad.Tape() as tape:
                loss, _, _ = recognition.asr_batch_loss(model, fms, ds.train_align, 24, np.random.default_rng(0))
            counts.append(len(tape.nodes))
            assert tape.nodes[-1][0] is loss
        assert counts[0] == counts[1]


class TestSortedBatchInference:
    @staticmethod
    def _sorted_batches(lengths):
        order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
        return [order[i : i + pipelines.INFER_BATCH] for i in range(0, len(order), pipelines.INFER_BATCH)]

    @staticmethod
    def _train_segment_frames(corpus_dir):
        fms = cp.load_feature_archive(corpus_dir["train"])
        segments = pipelines.collect_segments(fms, cp.load_alignments(corpus_dir["train_align"]), 1, 1000)
        return [fm.frames[s.start : s.end] for fm, s in segments]

    def test_results_come_back_in_input_order_at_any_thread_count(self):
        rng = np.random.default_rng(3)
        items = [np.arange(n) for n in rng.integers(1, 30, size=45)]
        lengths = [len(x) for x in items]
        batches = []

        def fn(batch):
            batches.append([len(x) for x in batch])
            return [x * 2 for x in batch]

        one = pipelines.map_sorted_batches(fn, items, lengths, 1)
        assert [len(b) for b in batches] == [16, 16, 13]
        assert sum(batches, []) == sorted(lengths)
        two = pipelines.map_sorted_batches(fn, items, lengths, 2)
        for a, b, x in zip(one, two, items):
            assert a.tobytes() == b.tobytes() == (x * 2).tobytes()
        assert pipelines.map_sorted_batches(fn, [], [], 2) == []

    def test_embed_frames_equals_the_sorted_batches_embedded_together(self, corpus_dir, embed_checkpoint):
        f, _, _, _ = pipelines.rebuild_embed_model(embed_checkpoint)
        frames = self._train_segment_frames(corpus_dir)
        got = pipelines.embed_frames(f, frames, 1)
        assert got.tobytes() == pipelines.embed_frames(f, frames, 2).tobytes()
        batches = self._sorted_batches([len(x) for x in frames])
        assert len(batches) > 2
        for ids in batches:
            want = f.embed_segments_isolated([frames[i] for i in ids]).values
            assert got[ids].tobytes() == want.tobytes()

    def test_index_is_thread_independent_and_matches_per_utterance_encoding(
            self, corpus_dir, embed_checkpoint, tmp_path, monkeypatch):
        built = []
        orig = search.build_index

        def build_index(embs, *args, **kwargs):
            built.append(embs)
            return orig(embs, *args, **kwargs)

        monkeypatch.setattr(search, "build_index", build_index)
        files = []
        for threads in (1, 2):
            cfg = small_cfg(corpus_dir, {("run", "threads"): str(threads), ("search", "stride"): "4",
                                         ("search", "window_sizes"): "8,12,16"})
            path = tmp_path / f"{threads}.cadi"
            pipelines.build_search_index(cfg, embed_checkpoint, corpus_dir["train"], path)
            files.append(path.read_bytes())
        assert files[0] == files[1]
        assert built[0].tobytes() == built[1].tobytes()
        # a new comparison between batchings: 1-row and multi-row products
        # may round the recurrent matmuls differently
        f, _, _, _ = pipelines.rebuild_embed_model(embed_checkpoint)
        fms = cp.load_feature_archive(corpus_dir["train"])
        assert len(fms) > 2 * pipelines.INFER_BATCH
        wcfg = pipelines._window_config(cfg)
        want = []
        for fm in fms:
            spans = [(0, s, s + size) for s, size in search.generate_windows(fm.num_frames, wcfg)]
            if spans:
                out, _ = f.encode([fm.frames])
                want.append(f.span_embeddings(out, spans).values)
        np.testing.assert_allclose(built[0], np.concatenate(want), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["ctc", "segmental"])
    def test_decoded_hypotheses_are_thread_independent(self, corpus_dir, tmp_path, kind):
        settings = {("recognizer", "kind"): kind, ("recognizer", "s_max"): "24"}
        ckpt = recognition.train_asr(small_cfg(corpus_dir, settings), tmp_path / "asr")["checkpoint"]
        hyps = []
        for threads in (1, 2):
            cfg = small_cfg(corpus_dir, {**settings, ("run", "threads"): str(threads)})
            recognition.decode_archive(cfg, ckpt, corpus_dir["train"], tmp_path / f"dec{threads}.json")
            hyps.append((tmp_path / f"dec{threads}_hyp.tsv").read_bytes())
        assert hyps[0] == hyps[1]
        assert len(hyps[0].splitlines()) == 1 + len(cp.load_feature_archive(corpus_dir["train"]))


class TestCli:
    def test_make_synth_and_exit_codes(self, tmp_path):
        from awekit.cli import main

        assert main(["make-synth", "--out", str(tmp_path / "c"), "--seed", "4",
                     "--vocab", "4", "--train", "6", "--eval", "3"]) == 0
        assert os.path.exists(tmp_path / "c" / "train.cadf")
        # missing seed -> config error
        assert main(["make-synth", "--out", str(tmp_path / "d")]) == 2

    def test_cli_train_and_eval(self, corpus_dir, tmp_path):
        from awekit.cli import main

        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[data]\n"
            f"train = {corpus_dir['train']}\ntrain_align = {corpus_dir['train_align']}\n"
            f"dev = {corpus_dir['dev']}\ndev_align = {corpus_dir['dev_align']}\n"
            f"lexicon = {corpus_dir['lexicon']}\n"
            "[encoder]\nlayers = 1\nhidden = 12\nembed_dim = 8\n"
            "[written]\nhidden = 12\nsymbol_embed_dim = 6\n"
            "[training]\nepochs = 1\nbatch_size = 8\n"
        )
        out = tmp_path / "run"
        assert main(["train-embed", "--config", str(ini), "--seed", "2", "--out", str(out)]) == 0
        ckpt = out / "embed.cadp"
        assert main(["eval-ap", "--config", str(ini), "--seed", "2",
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "ap.json")]) == 0
        report = json.loads((tmp_path / "ap.json").read_text())
        assert "acoustic_ap" in report and "config" in report

    def test_truncated_checkpoint_and_index_exit_code(self, corpus_dir, tmp_path, capsys):
        from awekit.cli import main

        cfg = small_cfg(corpus_dir, {("training", "epochs"): "0"})
        ckpt = pipelines.train_embed(cfg, tmp_path / "emb")["checkpoint"]
        index = tmp_path / "dev.cadi"
        pipelines.build_search_index(cfg, ckpt, corpus_dir["dev"], index)
        common = ["--seed", "9"]
        for key in ("train", "train_align", "dev", "dev_align", "lexicon"):
            common += ["--set", f"data.{key}={corpus_dir[key]}"]
        query = ["query", *common, "--checkpoint", ckpt, "--index", str(index),
                 "--queries", corpus_dir["dev"], "--query-align", corpus_dir["dev_align"],
                 "--out", str(tmp_path / "q.json")]
        good = index.read_bytes()
        n, d = search.load_index(index).embeddings.shape
        version_1 = bytearray(good)
        version_1[4:8] = (1).to_bytes(4, "little")
        index.write_bytes(bytes(version_1))
        assert main(query) == 3
        assert "version 1; rebuild the file" in capsys.readouterr().err
        index.write_bytes(good[:-3])
        assert main(query) == 3
        assert "CRC32 mismatch" in capsys.readouterr().err
        negative_seed = bytearray(good[:-4])
        negative_seed[16:24] = (-1).to_bytes(8, "little", signed=True)
        index.write_bytes(with_crc(bytes(negative_seed)))
        assert main(query) == 3
        assert "negative hyperplane seed" in capsys.readouterr().err
        zero_entry = bytearray(good[:-4])
        first_embedding = len(zero_entry) - 4 * n * d
        zero_entry[first_embedding : first_embedding + 4 * d] = bytes(4 * d)
        index.write_bytes(with_crc(bytes(zero_entry)))
        assert main(query) == 3
        assert "zero or non-finite norm" in capsys.readouterr().err
        with open(ckpt, "r+b") as fh:
            fh.truncate(100)
        assert main(["eval-ap", *common, "--checkpoint", ckpt, "--out", str(tmp_path / "ap.json")]) == 3

    def test_index_with_nan_weight_exit_code(self, corpus_dir, tmp_path, capsys):
        # a checkpoint whose weights hold a NaN is refused before any window is embedded
        from awekit import nn
        from awekit.cli import main

        cfg = small_cfg(corpus_dir, {("training", "epochs"): "0"})
        ckpt = pipelines.train_embed(cfg, tmp_path / "emb")["checkpoint"]
        first = next(iter(nn.load_checkpoint(ckpt)[1]))

        def nan_first(arrays):
            arrays[first].flat[0] = np.nan
            return arrays

        edit_checkpoint(ckpt, ckpt, arrays=nan_first)
        args = ["--seed", "9"]
        for key in ("train", "train_align", "dev", "dev_align", "lexicon"):
            args += ["--set", f"data.{key}={corpus_dir[key]}"]
        out = tmp_path / "out"
        out.mkdir()
        assert main(["index", *args, "--checkpoint", ckpt, "--archive", corpus_dir["dev"],
                     "--out", str(out / "dev.cadi")]) == 3
        assert list(out.iterdir()) == []
        assert f"{first}: non-finite weights" in capsys.readouterr().err

    def test_eval_ap_on_an_inf_weight_exits_3(self, corpus_dir, embed_checkpoint, tmp_path, capsys):
        from awekit.cli import main

        ckpt = tmp_path / "embed.cadp"
        edit_checkpoint(embed_checkpoint, ckpt, arrays=lambda arrays: _last_weight(arrays, np.inf))
        out = tmp_path / "ap.json"
        assert main(["eval-ap", *_data_args(corpus_dir), "--checkpoint", str(ckpt), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "non-finite weights" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["query", "decode", "export-embeddings"])
    def test_inf_weight_exits_3_before_any_output(self, corpus_dir, embed_checkpoint, tmp_path, capsys, command):
        from awekit.cli import main

        cfg = small_cfg(corpus_dir, {("training", "epochs"): "0"})
        good = embed_checkpoint
        if command == "decode":
            good = recognition.train_asr(cfg, tmp_path / "asr")["checkpoint"]
        ckpt = tmp_path / "bad" / "model.cadp"
        edit_checkpoint(good, ckpt, arrays=lambda arrays: _last_weight(arrays, -np.inf))
        out = tmp_path / "out"
        if command == "query":
            index = tmp_path / "dev.cadi"
            pipelines.build_search_index(cfg, embed_checkpoint, corpus_dir["dev"], index)
            args = ["--index", str(index), "--queries", corpus_dir["dev"],
                    "--query-align", corpus_dir["dev_align"], "--out", str(out / "q.json")]
        elif command == "decode":
            args = ["--archive", corpus_dir["dev"], "--out", str(out / "dec.json")]
        else:
            args = ["--archive", corpus_dir["dev"], "--align", corpus_dir["dev_align"],
                    "--out", str(out / "embs.tsv")]
        assert main([command, *_data_args(corpus_dir), "--checkpoint", str(ckpt), *args]) == 3
        err = capsys.readouterr().err
        assert "non-finite weights" in err and "Traceback" not in err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("damage", ["renamed-row", "dynamic-era"])
    def test_recognizer_checkpoint_missing_a_parameter_exits_3_before_any_output(self, corpus_dir, tmp_path,
                                                                                 capsys, damage):
        """A CTC checkpoint whose prediction rows are missing, renamed
        (``pred.x``) or stored as the free UNK row of a layer generated by the
        written encoder (``pred.unk``, no ``pred.w``), is refused rather than
        decoded with random rows."""
        from awekit import nn
        from awekit.cli import main

        cfg = small_cfg(corpus_dir, {("training", "epochs"): "0", ("recognizer", "unk"): "true"})
        good = recognition.train_asr(cfg, tmp_path / "asr")["checkpoint"]
        embed_dim = cfg.getint("encoder", "embed_dim")

        def dynamic_era(meta):
            meta["config"]["recognizer"]["lexicon_mode"] = "dynamic"
            return meta

        def arrays(arrays):
            if damage == "renamed-row":
                return {"pred.x" if name == "pred.w" else name: values for name, values in arrays.items()}
            return {**{name: v for name, v in arrays.items() if name != "pred.w"}, "pred.unk": np.ones(embed_dim)}

        ckpt = tmp_path / "bad" / "asr.cadp"
        edit_checkpoint(good, ckpt, meta=dynamic_era if damage == "dynamic-era" else None, arrays=arrays)
        out = tmp_path / "out"
        assert main(["decode", *_data_args(corpus_dir), "--checkpoint", str(ckpt), "--archive", corpus_dir["dev"],
                     "--out", str(out / "dec.json")]) == 3
        err = capsys.readouterr().err
        assert "pred.w" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind,unk", [("ctc", "false"), ("segmental", "true")],
                             ids=["ctc-without-unk", "segmental-with-unk"])
    def test_extend_words_on_a_model_without_ctc_unk_spans_exits_2(self, corpus_dir, embed_checkpoint, tmp_path,
                                                                   kind, unk):
        """--extend-words only rescores a CTC model's UNK spans; any other
        pretrained recognizer is refused before any output, not decoded as
        if the word list were not there."""
        from awekit.cli import main

        cfg = small_cfg(corpus_dir, {("training", "epochs"): "0", ("recognizer", "kind"): kind,
                                     ("recognizer", "unk"): unk, ("recognizer", "training_mode"): "pretrain",
                                     ("recognizer", "freeze"): "true",
                                     ("recognizer", "init_checkpoint"): embed_checkpoint})
        asr = recognition.train_asr(cfg, tmp_path / "asr")["checkpoint"]
        words = tmp_path / "new_words.txt"
        words.write_text("zzz\n")
        args = ["decode", *_data_args(corpus_dir), "--checkpoint", asr, "--archive", corpus_dir["dev"]]
        out = tmp_path / "out"
        assert main([*args, "--extend-words", str(words), "--out", str(out / "dec.json")]) == 2
        assert not out.exists()
        assert main([*args, "--out", str(out / "dec.json")]) == 0

    @pytest.mark.parametrize("damage,code", [
        (lambda text: text[:50], 3), (lambda text: "{}", 3), (lambda text: "[]", 3),
        (lambda text: text.replace('"written"', '"inventory"'), 3),
        (lambda text: text.replace('"input_dim": ', '"input_dim": "x", "old_input_dim": '), 3),
        (lambda text: text.replace('"symbols": [', '"symbols": [5, '), 3),
        (lambda text: text.replace('"symbols": [', '"symbols": 5, "old_symbols": ['), 3),
        (lambda text: text.replace('"cell": "lstm"', '"cell": "foo"'), 2),
        (lambda text: text.replace('"bits": "1024"', '"bits": "1000000"'), 2),
        (lambda text: text.replace('"k_end": "0"', '"k_end": "50"'), 0),  # trainable no longer, still evaluates
    ], ids=["cut-to-50-bytes", "empty-object", "list", "no-written", "input-dim-string",
        "symbol-int", "symbols-int", "cell-foo", "bits-above-bound", "k-end-above-k"])
    def test_corrupt_checkpoint_metadata_exit_code(self, corpus_dir, embed_checkpoint, tmp_path, damage, code):
        from awekit.cli import main

        ckpt = tmp_path / "embed.cadp"

        def checked(text):
            assert damage(text) != text
            return damage(text)

        edit_checkpoint(embed_checkpoint, ckpt, text=checked)
        out = tmp_path / "ap.json"
        assert main(["eval-ap", *_data_args(corpus_dir), "--checkpoint", str(ckpt), "--out", str(out)]) == code
        assert out.exists() == (code == 0)

    def test_non_finite_loss_exit_code(self, corpus_dir, tmp_path, monkeypatch):
        from awekit.cli import main

        _nan_on_second_call(monkeypatch, pipelines.Objective, "multiview_loss")
        args = ["train-embed", "--seed", "9", "--set", "encoder.layers=1", "--set", "encoder.hidden=8",
                "--set", "training.batch_size=8", "--out", str(tmp_path / "run")]
        for key in ("train", "train_align", "dev", "dev_align", "lexicon"):
            args += ["--set", f"data.{key}={corpus_dir[key]}"]
        assert main(args) == 4
        assert not any(name.endswith(".cadp") for name in os.listdir(tmp_path / "run"))

    # each case's message names the key or the check that refuses it, so a
    # case cannot keep passing for another reason
    BAD_OBJECTIVES = [
        ("train-embed", ["objective.terms=0,5"], "[objective] terms = '0,5' must be >= 0 and <= 2"),
        ("train-embed", ["objective.terms=0,0"], "[objective] terms = '0,0' must be integers in increasing order"),
        ("train-embed", ["objective.k=0"], "[objective] k = '0' must be >= 1"),
        ("train-embed", ["objective.strategy=bogus"], "[objective] strategy = 'bogus' must be one of"),
        ("train-embed", ["objective.kind=triplet"], "[objective] strategy 'hard': the triplet loss runs"),
        ("train-embed", ["objective.kind=triplet", "objective.strategy=semi-hard"],
         "[objective] strategy 'semi-hard': the triplet loss runs"),
        ("train-embed", ["objective.strategy=offending"], "[objective] strategy 'offending': the multiview loss runs"),
        ("train-asr", ["recognizer.training_mode=joint", "objective.strategy=confusion"],
         "[objective] strategy 'confusion': the multiview loss runs"),
    ]

    @pytest.mark.parametrize("command,settings,message", BAD_OBJECTIVES,
                             ids=[f"{c}-settings{i}" for i, (c, _, _) in enumerate(BAD_OBJECTIVES)])
    def test_bad_objective_exits_with_config_error(self, corpus_dir, tmp_path, capsys, command, settings, message):
        from awekit.cli import main

        args = [command, "--seed", "9", "--out", str(tmp_path / "run")]
        if command == "train-asr":
            cfg = small_cfg(corpus_dir, {("training", "epochs"): "0"})
            emb = pipelines.train_embed(cfg, tmp_path / "emb")
            settings = [*settings, f"recognizer.init_checkpoint={emb['checkpoint']}"]
        for item in ("encoder.layers=1", "encoder.hidden=8", "training.epochs=1", *settings):
            args += ["--set", item]
        for key in ("train", "train_align", "dev", "dev_align", "lexicon"):
            args += ["--set", f"data.{key}={corpus_dir[key]}"]
        assert main(args) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    BAD_VALUES = [
        ("train-embed", ["training.min_frames=0"], "[training] min_frames = '0' must be >= 1"),
        ("train-embed", ["scheduler.factor=0"], "[scheduler] factor = '0' must be finite and > 0"),
        ("train-embed", ["encoder.cell=foo"], "[encoder] cell = 'foo' must be one of"),
        ("train-embed", ["encoder.pooling=foo"], "[encoder] pooling = 'foo' must be one of"),
        ("train-embed", ["encoder.subsample=0"], "[encoder] subsample = '0' must be >= 1"),
        ("train-embed", ["written.mode=bogus"], "[written] mode = 'bogus' must be one of"),
        ("train-embed", ["encoder.dropout=1.5", "encoder.layers=2"], "[encoder] dropout = '1.5' must be finite"),
        ("train-asr", ["recognizer.lambda_emb=2"], "[recognizer] lambda_emb = '2' must be finite"),
        ("train-asr", ["recognizer.scheme=bogus"], "[recognizer] scheme = 'bogus' must be one of"),
        ("train-asr", ["recognizer.training_mode=joint", "objective.strategy=uniform"],
         "[objective] strategy 'uniform': the multiview loss runs"),
        ("train-asr", ["recognizer.kind=bogus"], "[recognizer] kind = 'bogus' must be one of"),
        ("train-asr", ["recognizer.training_mode=bogus"], "[recognizer] training_mode = 'bogus' must be one of"),
    ]

    @pytest.mark.parametrize("command,settings,message", BAD_VALUES,
                             ids=[f"{c}-settings{i}" for i, (c, _, _) in enumerate(BAD_VALUES)])
    def test_bad_config_value_exits_with_config_error(self, corpus_dir, tmp_path, capsys, command, settings,
                                                      message):
        from awekit.cli import main

        args = [command, "--seed", "9", "--out", str(tmp_path / "run")]
        if "recognizer.training_mode=joint" in settings:
            cfg = small_cfg(corpus_dir, {("training", "epochs"): "0"})
            emb = pipelines.train_embed(cfg, tmp_path / "emb")
            settings = [*settings, f"recognizer.init_checkpoint={emb['checkpoint']}"]
        for item in ("encoder.layers=1", "encoder.hidden=8", "training.epochs=1", *settings):
            args += ["--set", item]
        for key in ("train", "train_align", "dev", "dev_align", "lexicon"):
            args += ["--set", f"data.{key}={corpus_dir[key]}"]
        assert main(args) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    def test_k_end_above_k_exits_with_config_error_before_any_data(self, corpus_dir, tmp_path, monkeypatch):
        from awekit.cli import main

        def no_data(*args, **kwargs):
            raise AssertionError("data read before the config check")

        monkeypatch.setattr(pipelines, "load_dataset", no_data)
        out = tmp_path / "run"
        args = ["train-embed", *_data_args(corpus_dir), "--out", str(out),
                "--set", "objective.k=5", "--set", "objective.k_end=50"]
        assert main(args) == 2
        assert not out.exists()

    @pytest.mark.parametrize("key,damage", [
        ("train_align", lambda text: text.replace("\t0\t", "\tx\t", 1)),
        ("train_align", lambda text: text.replace("\n", "\nu\t0\t12.5\tw\n", 2)),
        ("feature_table", lambda text: text.replace("=1", "=q", 1)),
    ], ids=["alignment-start-x", "alignment-end-12.5", "feature-value-q"])
    def test_non_integer_tsv_field_exits_with_data_error(self, corpus_dir, tmp_path, key, damage):
        from awekit.cli import main

        text = open(corpus_dir[key], encoding="utf-8").read()
        bad = tmp_path / f"bad_{key}.tsv"
        bad.write_text(damage(text), encoding="utf-8")
        assert bad.read_text(encoding="utf-8") != text
        args = ["train-embed", *_data_args(corpus_dir), "--out", str(tmp_path / "run"),
                "--set", f"data.feature_table={corpus_dir['feature_table']}", "--set", f"data.{key}={bad}"]
        assert main(args) == 3

    @pytest.mark.parametrize("command,key", [("dtw-ap", "data.dev_align"), ("train-embed", "data.train_align"),
                                             ("train-asr", "recognizer.vocab_file")])
    def test_non_utf8_text_exits_with_data_error_before_any_output(self, corpus_dir, tmp_path, capsys, command,
                                                                   key):
        from awekit.cli import main

        words = sorted(cp.load_lexicon(corpus_dir["lexicon"]).pronunciations)
        if key.startswith("data."):
            text = open(corpus_dir[key[len("data."):]], "rb").read()
        else:
            text = "\n".join(words).encode()
        bad = tmp_path / "bad.txt"
        bad.write_bytes(text.replace(b"\n", b"\xff\n", 2))  # the second line ends in a byte UTF-8 never has
        out = tmp_path / "run"
        args = [command, *_data_args(corpus_dir), "--out", str(out), "--set", f"{key}={bad}"]
        for item in ("encoder.layers=1", "encoder.hidden=8", "training.epochs=1"):
            args += ["--set", item]
        assert main(args) == 3
        assert f"data error: {bad}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    ALIGNMENT_FLAGS = [("query", "--query-align", False), ("query", "--truth-align", False),
                       ("decode", "--align", False), ("export-embeddings", "--align", False),
                       ("export-embeddings", "--align", True)]

    @pytest.mark.parametrize("command,flag,past_end", ALIGNMENT_FLAGS,
                             ids=["query-align", "truth-align", "decode-align", "export-align",
                                  "export-align-past-end"])
    def test_utterance_without_its_alignment_exits_3_before_any_output(self, corpus_dir, embed_checkpoint,
                                                                        tmp_path, capsys, command, flag, past_end):
        """An utterance missing from an alignment file, or an entry past the
        end of the utterance whose frames it slices, is a data error
        naming the utterance, found before anything is written."""
        from awekit.cli import main

        index = tmp_path / "dev.cadi"
        pipelines.build_search_index(small_cfg(corpus_dir), embed_checkpoint, corpus_dir["dev"], index)
        uid = search.load_index(index).refs[0].utterance_id  # a query, an indexed and a decoded utterance
        fm = next(fm for fm in cp.load_feature_archive(corpus_dir["dev"]) if fm.utterance_id == uid)
        align = cp.load_alignments(corpus_dir["dev_align"])
        if past_end:
            start, _, word = align[uid].entries[-1]
            align[uid] = cp.WordAlignment(uid, ((start, fm.num_frames + 5, word),))
            message = f"{uid}: alignment exceeds {fm.num_frames} frames"
        else:
            del align[uid]
            message = f"no alignment for utterance {uid!r}"
        bad = tmp_path / "bad_align.tsv"
        cp.save_alignments(bad, list(align.values()))
        out = tmp_path / "out"
        if command == "query":
            args = ["--checkpoint", embed_checkpoint, "--index", str(index), "--queries", corpus_dir["dev"],
                    "--query-align", corpus_dir["dev_align"], "--truth-align", corpus_dir["dev_align"],
                    "--out", str(out / "q.json")]
        elif command == "decode":
            cfg = small_cfg(corpus_dir, {("training", "epochs"): "0"})
            asr = recognition.train_asr(cfg, tmp_path / "asr")["checkpoint"]
            args = ["--checkpoint", asr, "--archive", corpus_dir["dev"], "--align", "", "--out", str(out / "dec.json")]
        else:
            args = ["--checkpoint", embed_checkpoint, "--archive", corpus_dir["dev"], "--align", "",
                    "--out", str(out / "embs.tsv")]
        args[args.index(flag) + 1] = str(bad)
        assert main([command, *_data_args(corpus_dir), *args]) == 3
        err = capsys.readouterr().err
        assert f"data error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_directory_given_as_an_input_file_exits_with_data_error(self, corpus_dir, tmp_path, capsys):
        from awekit.cli import main

        out = tmp_path / "dtw.json"
        assert main(["dtw-ap", *_data_args(corpus_dir), "--out", str(out), "--set", f"data.dev_align={tmp_path}"]) == 3
        assert "Is a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-embed", "train-asr"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("key", ["encoder.layers", "encoder.hidden", "encoder.embed_dim", "written.hidden",
                                     "written.symbol_embed_dim", "training.batch_size"])
    def test_non_positive_size_exits_with_config_error_before_any_output(self, corpus_dir, tmp_path,
                                                                         command, value, key):
        from awekit.cli import main

        out = tmp_path / "run"
        args = [command, "--seed", "9", "--out", str(out), "--set", f"{key}={value}"]
        for name in ("train", "train_align", "dev", "dev_align", "lexicon"):
            args += ["--set", f"data.{name}={corpus_dir[name]}"]
        assert main(args) == 2
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["uniform", "offending", "confusion"])
    def test_triplet_training_on_one_word_exits_with_data_error(self, tmp_path, strategy):
        from awekit.cli import main

        corpus = synth.generate_corpus(synth.SyntheticSpec(vocab_size=3, num_train=24, num_eval=8,
                                                           num_speakers=2, base_duration=(12, 16)), seed=4)
        word = corpus.train_alignments[0].labels()[0]
        corpus.train_alignments = [al for al in corpus.train_alignments if al.labels() == [word]]
        keep = {al.utterance_id for al in corpus.train_alignments}
        corpus.train = [fm for fm in corpus.train if fm.utterance_id in keep]
        paths = synth.write_corpus(corpus, tmp_path / "c")
        args = ["train-embed", "--seed", "9", "--out", str(tmp_path / "run")]
        for item in ("objective.kind=triplet", f"objective.strategy={strategy}", "encoder.layers=1",
                     "encoder.hidden=8", "training.epochs=1",
                     *(f"data.{key}={paths[key]}" for key in ("train", "train_align", "dev", "dev_align"))):
            args += ["--set", item]

        def give_up(signum, frame):
            raise TimeoutError("train-embed did not return")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(60)
        try:
            code = main(args)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 3

    def test_extension_word_with_unknown_symbol_exits_with_data_error(self, corpus_dir, tmp_path):
        from awekit.cli import main

        emb = pipelines.train_embed(small_cfg(corpus_dir, {("training", "epochs"): "0"}), tmp_path / "emb")
        settings = ["encoder.layers=1", "encoder.hidden=8", "training.epochs=1", "recognizer.unk=true",
                    "recognizer.training_mode=pretrain", "recognizer.freeze=true",
                    f"recognizer.init_checkpoint={emb['checkpoint']}",
                    *(f"data.{key}={corpus_dir[key]}" for key in ("train", "train_align", "dev", "dev_align",
                                                                   "lexicon"))]
        common = ["--seed", "9"]
        for item in settings:
            common += ["--set", item]
        assert main(["train-asr", *common, "--out", str(tmp_path / "asr")]) == 0
        words = tmp_path / "new_words.txt"
        words.write_text("9#9\n")
        assert main(["decode", *common, "--checkpoint", str(tmp_path / "asr" / "asr.cadp"),
                     "--archive", corpus_dir["dev"], "--extend-words", str(words),
                     "--out", str(tmp_path / "dec.json")]) == 3

    @pytest.mark.parametrize("kind", ["ctc", "segmental"])
    def test_infeasible_transcript_exit_code(self, tmp_path, kind):
        from awekit.cli import main

        corpus = tmp_path / "c"
        # three words of 10-12 frames subsampled by 16 leave 2 output frames
        assert main(["make-synth", "--seed", "3", "--vocab", "6", "--train", "16", "--eval", "8",
                     "--min-words", "3", "--max-words", "3", "--min-duration", "10",
                     "--max-duration", "12", "--out", str(corpus)]) == 0
        args = ["train-asr", "--seed", "3", "--out", str(tmp_path / kind)]
        for item in (f"data.train={corpus / 'train.cadf'}", f"data.train_align={corpus / 'train_align.tsv'}",
                     f"data.dev={corpus / 'dev.cadf'}", f"data.dev_align={corpus / 'dev_align.tsv'}",
                     f"recognizer.kind={kind}", "encoder.subsample=16", "encoder.layers=1",
                     "encoder.hidden=8", "training.epochs=1"):
            args += ["--set", item]
        assert main(args) == 3

    @pytest.fixture(scope="class")
    def distinct_dev(self, corpus_dir, tmp_path_factory):
        """corpus_dir with a dev split of several words, none of them twice."""
        fms = cp.load_feature_archive(corpus_dir["dev"])
        align = cp.load_alignments(corpus_dir["dev_align"])
        seen, keep = set(), []
        for fm in fms:
            words = align[fm.utterance_id].labels()
            if seen.isdisjoint(words) and len(set(words)) == len(words):
                seen.update(words)
                keep.append(fm)
        assert len(seen) >= 2
        out = tmp_path_factory.mktemp("distinct")
        paths = {**corpus_dir, "dev": str(out / "dev.cadf"), "dev_align": str(out / "dev_align.tsv")}
        cp.save_feature_archive(paths["dev"], keep)
        cp.save_alignments(paths["dev_align"], [align[fm.utterance_id] for fm in keep])
        return paths

    @pytest.mark.parametrize("command", ["eval-ap", "dtw-ap"])
    @pytest.mark.parametrize("settings,distinct,code", [
        (["training.max_frames=1"], False, 2),  # below the default min_frames of 2
        (["training.min_frames=50", "training.max_frames=10"], False, 2),
        (["training.max_frames=3"], False, 3),  # no dev segment is that short
        ([], True, 3),  # dev segments, but no two of one word
    ], ids=["max-below-default-min", "max-below-min", "no-segment", "no-same-word-pair"])
    def test_empty_dev_window_exits_before_any_work(self, corpus_dir, distinct_dev, embed_checkpoint,
                                                    tmp_path, monkeypatch, command, settings, distinct,
                                                    code):
        from awekit.cli import main

        def no_work(*args, **kwargs):
            raise AssertionError("DTW or encoder work before the dev window was checked")

        monkeypatch.setattr(pipelines.dtw_mod, "dtw_cost_batch", no_work)
        monkeypatch.setattr(pipelines, "dev_ap", no_work)
        args = [command, *_data_args(distinct_dev if distinct else corpus_dir), "--out", str(tmp_path / "r.json")]
        if command == "eval-ap":
            args += ["--checkpoint", embed_checkpoint]
        for item in settings:
            args += ["--set", item]
        assert main(args) == code
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["index", "query", "decode", "export-embeddings"])
    def test_output_directory_is_created(self, corpus_dir, embed_checkpoint, tmp_path, command):
        from awekit.cli import main

        new = tmp_path / "new" / "dir"
        common = _data_args(corpus_dir)
        if command == "index":
            args = ["--checkpoint", embed_checkpoint, "--archive", corpus_dir["dev"], "--out", str(new / "dev.cadi")]
            written = ["dev.cadi", "dev.cadi.report.json"]
        elif command == "query":
            index = tmp_path / "dev.cadi"
            pipelines.build_search_index(small_cfg(corpus_dir), embed_checkpoint, corpus_dir["dev"], index)
            args = ["--checkpoint", embed_checkpoint, "--index", str(index), "--queries", corpus_dir["dev"],
                    "--query-align", corpus_dir["dev_align"], "--out", str(new / "q.json")]
            written = ["q.json", "q_hits.tsv"]
        elif command == "decode":
            cfg = small_cfg(corpus_dir, {("training", "epochs"): "0"})
            asr = recognition.train_asr(cfg, tmp_path / "asr")["checkpoint"]
            args = ["--checkpoint", asr, "--archive", corpus_dir["dev"], "--out", str(new / "dec.json")]
            written = ["dec.json", "dec_hyp.tsv"]
        else:
            args = ["--checkpoint", embed_checkpoint, "--archive", corpus_dir["dev"],
                    "--align", corpus_dir["dev_align"], "--out", str(new / "embs.tsv")]
            written = ["embs.tsv"]
        assert main([command, *common, *args]) == 0
        for name in written:
            assert (new / name).is_file()

    def test_query_with_a_missing_search_archive_exits_3_before_any_output(self, corpus_dir, embed_checkpoint,
                                                                           tmp_path, capsys):
        from awekit.cli import main

        index = tmp_path / "dev.cadi"
        pipelines.build_search_index(small_cfg(corpus_dir), embed_checkpoint, corpus_dir["dev"], index)
        out = tmp_path / "out"
        assert main(["query", *_data_args(corpus_dir), "--checkpoint", embed_checkpoint, "--index", str(index),
                     "--queries", corpus_dir["dev"], "--query-align", corpus_dir["dev_align"],
                     "--truth-align", corpus_dir["dev_align"], "--search-archive", str(tmp_path / "missing.cadf"),
                     "--out", str(out / "q.json")]) == 3
        assert "missing.cadf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture(scope="class")
    def asr_checkpoint(self, corpus_dir, tmp_path_factory):
        cfg = small_cfg(corpus_dir, {("training", "epochs"): "0"})
        return recognition.train_asr(cfg, tmp_path_factory.mktemp("asr0"))["checkpoint"]

    @pytest.mark.parametrize("command", ["eval-ap", "index", "query", "export-embeddings", "decode", "train-asr"])
    def test_checkpoint_of_the_other_model_kind_exits_3_before_any_output(self, corpus_dir, embed_checkpoint,
                                                                          asr_checkpoint, tmp_path, capsys,
                                                                          command):
        """Each command names the model kind it needs: an embedding model,
        but for decode, and for train-asr's pretraining init_checkpoint."""
        from awekit.cli import main

        out = tmp_path / "out"
        wrong, found, needed = asr_checkpoint, "asr", "embed"
        if command == "eval-ap":
            args = ["--checkpoint", wrong, "--out", str(out / "ap.json")]
        elif command == "index":
            args = ["--checkpoint", wrong, "--archive", corpus_dir["dev"], "--out", str(out / "dev.cadi")]
        elif command == "query":
            index = tmp_path / "dev.cadi"
            pipelines.build_search_index(small_cfg(corpus_dir), embed_checkpoint, corpus_dir["dev"], index)
            args = ["--checkpoint", wrong, "--index", str(index), "--queries", corpus_dir["dev"],
                    "--query-align", corpus_dir["dev_align"], "--out", str(out / "q.json")]
        elif command == "export-embeddings":
            args = ["--checkpoint", wrong, "--archive", corpus_dir["dev"], "--out", str(out / "embs.tsv")]
        elif command == "decode":
            wrong, found, needed = embed_checkpoint, "embed", "asr"
            args = ["--checkpoint", wrong, "--archive", corpus_dir["dev"], "--out", str(out / "dec.json")]
        else:
            args = ["--set", "recognizer.training_mode=pretrain", "--set", f"recognizer.init_checkpoint={wrong}",
                    "--out", str(out)]
        assert main([command, *_data_args(corpus_dir), *args]) == 3
        err = capsys.readouterr().err
        assert f"{wrong} holds a {found!r} model; this command needs {needed!r}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_pretraining_from_an_embedding_without_a_written_encoder_exits_3(self, corpus_dir, tmp_path, capsys):
        from awekit.cli import main

        triplet = {("training", "epochs"): "0", ("objective", "kind"): "triplet", ("objective", "strategy"): "uniform"}
        emb = pipelines.train_embed(small_cfg(corpus_dir, triplet), tmp_path / "emb")
        out = tmp_path / "asr"
        assert main(["train-asr", *_data_args(corpus_dir), "--set", "recognizer.training_mode=pretrain",
                     "--set", f"recognizer.init_checkpoint={emb['checkpoint']}", "--out", str(out)]) == 3
        assert "triplet models have no written encoder to pretrain" in capsys.readouterr().err
        assert not out.exists()

    def test_phone_mode_checkpoint_serves_acoustic_commands_without_its_training_lexicon(self, corpus_dir,
                                                                                          tmp_path):
        """index, query and export-embeddings never run the written encoder,
        and its inventory is in the checkpoint: deleting the training
        lexicon changes none of their output bytes."""
        import shutil

        from awekit.cli import main

        lexicon = tmp_path / "train_lexicon.tsv"
        shutil.copyfile(corpus_dir["lexicon"], lexicon)
        cfg = ExperimentConfig.load(None, preset="ch5-multiview", overrides={
            **{("data", key): corpus_dir[key] for key in ("train", "train_align", "dev", "dev_align")},
            ("data", "lexicon"): str(lexicon), ("encoder", "layers"): "1", ("encoder", "hidden"): "16",
            ("encoder", "embed_dim"): "12", ("written", "hidden"): "16", ("written", "symbol_embed_dim"): "8",
            ("training", "epochs"): "1", ("training", "batch_size"): "8", ("run", "seed"): "9"})
        ckpt = pipelines.train_embed(cfg, tmp_path / "emb")["checkpoint"]

        def outputs():  # into one directory, since reports name their paths
            out = tmp_path / "out"
            common = ["--seed", "9", "--checkpoint", ckpt]
            assert main(["index", *common, "--archive", corpus_dir["dev"], "--out", str(out / "dev.cadi")]) == 0
            assert main(["query", *common, "--index", str(out / "dev.cadi"), "--queries", corpus_dir["dev"],
                         "--query-align", corpus_dir["dev_align"], "--out", str(out / "q.json")]) == 0
            assert main(["export-embeddings", *common, "--archive", corpus_dir["dev"],
                         "--align", corpus_dir["dev_align"], "--out", str(out / "embs.tsv")]) == 0
            written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            shutil.rmtree(out)
            return written

        present = outputs()
        lexicon.unlink()
        absent = outputs()
        assert list(absent) == ["dev.cadi", "dev.cadi.report.json", "dev.cadi.report.tsv", "embs.tsv",
                                "q.json", "q.tsv", "q_hits.tsv"]
        assert absent == present

    def test_char_mode_pretraining_takes_the_inventory_from_the_checkpoint(self, corpus_dir, tmp_path):
        """A recognizer vocabulary whose words use fewer letters than the
        embedding's, and no lexicon: the written encoder is rebuilt over
        the checkpoint's inventory, so the weights load and it trains."""
        from awekit import nn
        from awekit.cli import main

        emb = pipelines.train_embed(small_cfg(corpus_dir, {("training", "epochs"): "0"}), tmp_path / "emb")
        words = sorted(cp.load_lexicon(corpus_dir["lexicon"]).pronunciations)[:3]
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(words) + "\n", encoding="utf-8")
        symbols = json.loads(nn.load_checkpoint(emb["checkpoint"])[0])["written"]["symbols"]
        assert len({ch for w in words for ch in w}) < len(symbols)
        settings = [*(f"data.{key}={corpus_dir[key]}" for key in ("train", "train_align", "dev", "dev_align")),
                    "encoder.layers=1", "encoder.hidden=8", "training.epochs=1", "recognizer.unk=true",
                    "recognizer.training_mode=pretrain", f"recognizer.init_checkpoint={emb['checkpoint']}",
                    f"recognizer.vocab_file={vocab}"]
        args = ["--seed", "9"]
        for item in settings:
            args += ["--set", item]
        assert main(["train-asr", *args, "--out", str(tmp_path / "asr")]) == 0
        model, _, _ = recognition.rebuild_recognizer(str(tmp_path / "asr" / "asr.cadp"))
        assert model.vocab.labels == [*words, recognition.UNK_TOKEN]
        assert model.g.symbols == symbols

    def test_data_error_exit_code(self, tmp_path):
        from awekit.cli import main

        ini = tmp_path / "bad.ini"
        ini.write_text("[data]\ntrain = missing.cadf\n")
        rc = main(["train-embed", "--config", str(ini), "--seed", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == 2  # missing path is flagged at config validation
