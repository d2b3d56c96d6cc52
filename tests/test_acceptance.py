"""Acceptance suite.

One test per criterion; each prints an `ACCEPTANCE <n> PASS/FAIL` line
(run with `pytest tests/test_acceptance.py -s` to see them live). All
tolerances are pinned here. The end-to-end criteria build their corpora
and checkpoints once per session with fixed seeds, so every number below
is deterministic.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from awekit import autodiff as ad
from awekit import ctc as ctc_mod
from awekit import metrics as mx
from awekit import objectives as obj
from awekit import pipelines, recognition, search, segmental, synth
from awekit import corpus as cp
from awekit.autodiff import Tensor
from awekit.config import ExperimentConfig


def report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. DTW oracle equivalence


def test_criterion_1_dtw_oracle():
    from test_dtw import brute_force_cost, pair_cost  # local oracle helpers

    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        n, m = rng.integers(1, 5, size=2)
        x = rng.standard_normal((n, 3))
        y = rng.standard_normal((m, 3))
        got = pair_cost(x, y)
        want = brute_force_cost(x, y, "none")
        worst = max(worst, abs(got - want))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, ok, f"500 pairs, max |DP - enumeration| = {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. CTC oracle equivalence


def test_criterion_2_ctc_oracle():
    from test_ctc import brute_force_loss, loss_value, random_log_probs

    rng = np.random.default_rng(202)
    worst_rel = 0.0
    worst_grad = 0.0
    done = 0
    while done < 200:
        T = int(rng.integers(1, 6))
        V = int(rng.integers(1, 3))
        K = int(rng.integers(1, min(T, 3) + 1))
        labels = rng.integers(0, V, size=K)
        if T < ctc_mod.min_frames_required(labels):
            continue
        lp = random_log_probs(rng, T, V)
        got = loss_value(lp, labels)
        want = brute_force_loss(lp, labels)
        worst_rel = max(worst_rel, abs(got - want) / max(abs(want), 1e-12))
        logits = Tensor(rng.standard_normal((1, T, V + 1)))
        err = ad.grad_check(lambda: ctc_mod.ctc_loss(ad.log_softmax(logits, axis=2), [T], [labels]),
                            [logits], eps=1e-5)
        worst_grad = max(worst_grad, err)
        done += 1
    ok = worst_rel <= 1e-6 and worst_grad <= 1e-4
    report(2, ok, f"200 instances, max rel loss err {worst_rel:.2e}, max grad err {worst_grad:.2e}")


# ---------------------------------------------------------------------------
# 3. Segmental oracle equivalence


def test_criterion_3_segmental_oracle():
    from test_segmental import (enum_denominator, enum_numerator, enum_viterbi_score, loss_and_gradient,
                                loss_value, path_score, viterbi)

    rng = np.random.default_rng(303)
    worst_loss = worst_vit = worst_grad = worst_complete = 0.0
    for _ in range(200):
        T = int(rng.integers(1, 9))
        S = int(rng.integers(1, 5))
        V = int(rng.integers(1, 4))
        K_lo = -(-T // S)
        K = int(rng.integers(K_lo, T + 1))
        labels = rng.integers(0, V, size=K)
        U = rng.standard_normal((T, S, V))
        want = -np.log(enum_numerator(U, labels)) + np.log(enum_denominator(U))
        got, grad = loss_and_gradient(U, labels)
        worst_loss = max(worst_loss, abs(got - want) / max(abs(want), 1e-9))
        vit = path_score(viterbi(U), U)
        vit_want = enum_viterbi_score(U)
        worst_vit = max(worst_vit, abs(vit - vit_want) / max(abs(vit_want), 1e-9))
        # gradient vs central differences
        eps = 1e-5
        for t in range(T):
            for s in range(min(S, T - t)):
                for v in range(V):
                    up, dn = U.copy(), U.copy()
                    up[t, s, v] += eps
                    dn[t, s, v] -= eps
                    num = (loss_value(up, labels) - loss_value(dn, labels)) / (2 * eps)
                    rel = abs(grad[t, s, v] - num) / max(abs(num), abs(grad[t, s, v]), 1.0)
                    worst_grad = max(worst_grad, rel)
        # completeness: exp(-loss) over all transcripts sums to 1
        if T <= 5 and V <= 2:
            total = 0.0
            for k in range(max(1, K_lo), T + 1):
                for lab in itertools.product(range(V), repeat=k):
                    total += np.exp(-loss_value(U, list(lab)))
            worst_complete = max(worst_complete, abs(total - 1.0))
    ok = worst_loss <= 1e-6 and worst_vit <= 1e-6 and worst_grad <= 1e-4 and worst_complete <= 1e-6
    report(3, ok, f"200 tensors: loss rel {worst_loss:.2e}, viterbi rel {worst_vit:.2e}, "
                  f"grad {worst_grad:.2e}, completeness {worst_complete:.2e}")


# ---------------------------------------------------------------------------
# 4. Gradient suite over every loss


def test_criterion_4_every_loss_gradient():
    rng = np.random.default_rng(404)
    worst = {}

    logits = Tensor(rng.standard_normal((3, 5)))
    worst["classifier"] = ad.grad_check(
        lambda: obj.cross_entropy_batch(logits, [1, 4, 0]), [logits], eps=1e-5)

    E = Tensor(rng.standard_normal((3, 6)))  # anchor, positive, negative
    worst["cos-hinge"] = ad.grad_check(
        lambda: obj.triplet_loss(ad.cosine_distance_matrix(E, E), [0], [1], [[2]], 0.37), [E], eps=1e-5)

    # the same anchor and positive, then 5 candidates
    E5 = Tensor(np.vstack([E.values[:2], rng.standard_normal((5, 6))]))
    worst["most-offending"] = ad.grad_check(
        lambda: obj.triplet_loss(ad.cosine_distance_matrix(E5, E5), [0], [1], [np.arange(2, 7)], 0.43),
        [E5], eps=1e-5)

    labels = ["w0", "w1", "w0", "w2"]
    vocab = ["w0", "w1", "w2"]
    A = Tensor(rng.standard_normal((4, 5)))
    W = Tensor(rng.standard_normal((3, 5)))
    for terms, tag in [((0,), "L0"), ((1,), "L1"), ((2,), "L2"), ((0, 1, 2), "L012")]:
        worst[f"multiview-{tag}"] = ad.grad_check(
            lambda terms=terms: obj.multiview_loss(A, labels, vocab, W, 0.41, 2, terms=terms),
            [A, W], eps=1e-5)
    worst["multiview-sqrt"] = ad.grad_check(
        lambda: obj.multiview_loss(A, labels, vocab, W, 0.41, 2, terms=(0, 2), sqrt_variant=True),
        [A, W], eps=1e-5)

    P = Tensor(rng.standard_normal((3, 5)))
    G = Tensor(rng.standard_normal((3, 5)))
    worst["regularizer"] = ad.grad_check(lambda: obj.agwe_regularizer(P, G), [P, G], eps=1e-5)

    frame_logits = Tensor(rng.standard_normal((1, 6, 4)))
    def joint_fn(scheme):
        asr = ctc_mod.ctc_loss(ad.log_softmax(frame_logits, axis=2), [6], [[1, 0]])
        emb = obj.multiview_loss(A, labels, vocab, W, 0.41, 2, terms=(0, 2))
        reg = obj.agwe_regularizer(P, G)
        return obj.combine_joint(asr, emb, reg, 0.5, 0.25, scheme)
    for scheme in ("additive", "convex"):
        worst[f"joint-{scheme}"] = ad.grad_check(
            lambda scheme=scheme: joint_fn(scheme), [frame_logits, A, W, P, G], eps=1e-5)

    bad = {k: v for k, v in worst.items() if v > 1e-4}
    report(4, not bad, f"max rel errs: " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
# 5. LSH fidelity


def test_criterion_5_lsh_fidelity():
    rng = np.random.default_rng(505)
    planes = search.HyperplaneSet.create(4096, 16, seed=55)
    errs = []
    for _ in range(100):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        ang = np.arccos(np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1, 1))
        ham = np.mean(search.sign_embed(u, planes) != search.sign_embed(v, planes))
        errs.append(abs(ham - ang / np.pi))
    hamming_err = float(np.mean(errs))

    emb = rng.standard_normal((2000, 32))
    refs = [search.SegmentKey(f"u{i}", 0, 10) for i in range(2000)]
    idx = search.build_index(emb, refs, bits=1024, permutations=16, seed=56)
    unit = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    hits = 0
    queries = rng.standard_normal((200, 32))
    for q in queries:
        true_nn = int(np.argmax(unit @ (q / np.linalg.norm(q))))
        cands = {r.utterance_id for r, _ in search.query_index(q, idx, beamwidth=50)}
        hits += f"u{true_nn}" in cands
    recall = hits / 200

    exact_ok = True
    for q in queries[:10]:
        got = [r.utterance_id for r, _ in search.query_index(q, idx, beamwidth=2000)]
        cos = unit @ (q / np.linalg.norm(q))
        want = [f"u{i}" for i in np.argsort(-cos, kind="stable")]
        exact_ok = exact_ok and got == want

    ok = hamming_err <= 0.02 and recall >= 0.95 and exact_ok
    report(5, ok, f"hamming err {hamming_err:.4f} (<=0.02), NN recall {recall:.3f} (>=0.95), "
                  f"B>=N exhaustive equality: {exact_ok}")


# ---------------------------------------------------------------------------
# 6. Metric oracles


def test_criterion_6_metric_oracles():
    checks = {}
    checks["ap_hand"] = mx.average_precision([0.1, 0.4, 0.2, 0.3],
                                             [True, True, False, False]) == pytest.approx(0.75)
    w = mx.wer(["a", "b", "c"], ["a", "c"])
    checks["wer_hand"] = (w.deletions, w.substitutions, w.insertions) == (1, 0, 0) \
        and w.rate == pytest.approx(1 / 3)
    checks["wer_identity"] = mx.wer(["x", "y"], ["x", "y"]).rate == 0.0
    scores = [1.0, 0.9, 0.1, 0.0, 0.05]
    truth = [True, True, False, False, False]
    checks["max_twv_perfect"] = mx.max_twv(scores, truth) == pytest.approx(1.0)
    checks["min_cnxe_perfect"] = mx.min_cnxe(scores, truth) < 0.01

    # 3-query fixture (hand-computed in the metric unit tests)
    scores_c = np.linspace(1.0, 0.05, 20)
    truth_a = np.zeros(20, dtype=bool); truth_a[[0, 1]] = True
    truth_b = np.zeros(20, dtype=bool); truth_b[[0, 2]] = True
    truth_c = np.zeros(20, dtype=bool); truth_c[[2, 5, 9, 19]] = True
    qrs = mx.QueryResultSet([f"q{i}" for i in range(3)], [f"u{j}" for j in range(20)],
                            np.stack([scores_c] * 3), np.stack([truth_a, truth_b, truth_c]),
                            {"q0": "t0", "q1": "t1", "q2": "t2"}, 1.0)
    per_fom = mx.fom_per_query(qrs)
    checks["fom_fixture"] = (per_fom["q0"] == pytest.approx(1.0)
                             and per_fom["q1"] == pytest.approx(1.0)
                             and per_fom["q2"] == pytest.approx(0.5))
    per_otwv = mx.otwv_per_query(qrs, beta=1.0)
    # q0: both positives on top -> recall 1 at pfa 0 -> 1.0
    # q1: at thr u0: r=.5 pfa 0 -> .5; u2: r=1 pfa 1/18 -> .944
    checks["otwv_fixture"] = (per_otwv["q0"] == pytest.approx(1.0)
                              and per_otwv["q1"] == pytest.approx(1 - 1 / 18))
    p10 = mx.p_at_k_per_query(qrs, 10)
    checks["p10_fixture"] = (p10["q0"] == pytest.approx(0.2)
                             and p10["q2"] == pytest.approx(0.3))
    bad = [k for k, v in checks.items() if not v]
    report(6, not bad, "all hand cases exact" if not bad else f"failed: {bad}")


# ---------------------------------------------------------------------------
# End-to-end fixtures


SMOKE_SEED = 808
ASR_SEED = 13


@pytest.fixture(scope="session")
def smoke_corpus(tmp_path_factory):
    """The documented default smoke corpus: 30 words, 500 train / 200 eval."""
    out = tmp_path_factory.mktemp("smoke")
    spec = synth.SyntheticSpec()  # defaults: vocab 30, 500/200, tuned noise
    corpus = synth.generate_corpus(spec, seed=SMOKE_SEED)
    paths = synth.write_corpus(corpus, out)
    return paths


@pytest.fixture(scope="session")
def asr_corpus(tmp_path_factory):
    """Recognition corpus: 40 words (10 held out for extension), 1-3 words
    per utterance, plus isolated probes of the held-out words."""
    out = tmp_path_factory.mktemp("asr")
    spec = synth.SyntheticSpec(vocab_size=40, num_train=300, num_eval=60,
                               words_per_utterance=(1, 3), noise=0.3, speaker_scale=0.3)
    corpus = synth.generate_corpus(spec, seed=ASR_SEED)
    paths = synth.write_corpus(corpus, out)
    heldout = corpus.words[30:]
    vocab30 = out / "vocab30.txt"
    vocab30.write_text("\n".join(corpus.words[:30]) + "\n")
    extend10 = out / "extend10.txt"
    extend10.write_text("\n".join(heldout) + "\n")
    from dataclasses import replace

    probe_spec = replace(spec, words_per_utterance=(1, 1), num_eval=160)
    probe = synth.generate_corpus(probe_spec, seed=ASR_SEED)
    keep = [(fm, al) for fm, al in zip(probe.eval, probe.eval_alignments)
            if al.labels()[0] in heldout]
    cp.save_feature_archive(out / "probes.cadf", [fm for fm, _ in keep])
    cp.save_alignments(out / "probe_align.tsv", [al for _, al in keep])
    paths.update({"vocab30": str(vocab30), "extend10": str(extend10),
                  "probes": str(out / "probes.cadf"), "probe_align": str(out / "probe_align.tsv"),
                  "heldout": heldout, "root": str(out)})
    return paths


def _data_overrides(paths):
    return {("data", "train"): paths["train"], ("data", "train_align"): paths["train_align"],
            ("data", "dev"): paths["dev"], ("data", "dev_align"): paths["dev_align"],
            ("data", "lexicon"): paths["lexicon"]}


ASR_ARCH = {("encoder", "cell"): "lstm", ("encoder", "layers"): "2", ("encoder", "hidden"): "96",
            ("encoder", "embed_dim"): "48", ("encoder", "subsample"): "3",
            ("written", "hidden"): "96", ("written", "mode"): "char"}


@pytest.fixture(scope="session")
def multiview_checkpoints(asr_corpus, tmp_path_factory):
    """Contextual multi-view checkpoints matched to the recognizers (mean
    pooling for CTC, concat pooling for segmental)."""
    out = tmp_path_factory.mktemp("mv")
    ckpts = {}
    for pooling in ("mean", "concat"):
        o = dict(_data_overrides(asr_corpus))
        o.update(ASR_ARCH)
        o.update({("encoder", "pooling"): pooling,
                  ("objective", "kind"): "multiview", ("objective", "terms"): "0,2",
                  ("objective", "contextual"): "true", ("objective", "k"): "10",
                  ("objective", "margin"): "0.4",
                  ("training", "epochs"): "8", ("training", "batch_size"): "16",
                  ("optimizer", "kind"): "adam", ("optimizer", "lr"): "0.001",
                  ("run", "seed"): "21"})
        rep = pipelines.train_embed(ExperimentConfig.load(None, overrides=o), out / pooling)
        ckpts[pooling] = rep["checkpoint"]
    return ckpts


def _asr_cfg(paths, mode, seed, *, kind="ctc", pooling="mean", ckpt=None, extra=None):
    o = dict(_data_overrides(paths))
    o.update(ASR_ARCH)
    o.update({("encoder", "pooling"): pooling,
              ("training", "epochs"): "22", ("training", "batch_size"): "8",
              ("training", "stop_at_wer"): "0.05",
              ("optimizer", "kind"): "adam",
              ("optimizer", "lr"): "0.001" if kind == "segmental" else "0.003",
              ("scheduler", "patience"): "12", ("scheduler", "factor"): "0.5",
              ("run", "seed"): str(seed),
              ("recognizer", "kind"): kind,
              ("recognizer", "s_max"): "20",
              ("recognizer", "training_mode"): mode})
    if ckpt:
        o[("recognizer", "init_checkpoint")] = ckpt
    o.update(extra or {})
    return ExperimentConfig.load(None, overrides=o)


def _epochs_to(history, target=0.05, cap=23):
    for i, h in enumerate(history):
        if h["dev_wer"] <= target:
            return i
    return cap


# ---------------------------------------------------------------------------
# 7. End-to-end multi-view smoke


def test_criterion_7_multiview_smoke(smoke_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("c7")
    base = dict(_data_overrides(smoke_corpus))
    base[("run", "seed")] = "11"
    t0 = time.time()
    cfg = ExperimentConfig.load(None, preset="ch5-multiview",
                                overrides={**base, ("training", "epochs"): "14"})
    rep = pipelines.train_embed(cfg, out / "trained")
    ap = pipelines.eval_ap(cfg, rep["checkpoint"], out / "ap.json")
    elapsed = time.time() - t0

    cfg0 = ExperimentConfig.load(None, preset="ch5-multiview",
                                 overrides={**base, ("training", "epochs"): "0"})
    rep0 = pipelines.train_embed(cfg0, out / "untrained")
    ap0 = pipelines.eval_ap(cfg0, rep0["checkpoint"], out / "ap0.json")
    dtw_rep = pipelines.dtw_ap(cfg0, out / "dtw.json")
    dtw_best = max(dtw_rep["dtw_ap"], dtw_rep["dtw_ap_path_normalized"])

    ok = (ap["acoustic_ap"] >= 0.9 and ap["cross_view_ap"] >= 0.9
          and elapsed < 300.0
          and ap["acoustic_ap"] > ap0["acoustic_ap"]
          and ap["acoustic_ap"] > dtw_best)
    report(7, ok, f"trained acoustic {ap['acoustic_ap']:.3f} / cross-view "
                  f"{ap['cross_view_ap']:.3f} in {elapsed:.0f}s; untrained "
                  f"{ap0['acoustic_ap']:.3f}; dtw {dtw_best:.3f}")


# ---------------------------------------------------------------------------
# 8. End-to-end recognition smoke


def test_criterion_8a_wer_targets(asr_corpus, multiview_checkpoints, tmp_path_factory):
    out = tmp_path_factory.mktemp("c8a")
    t0 = time.time()
    ctc_rep = recognition.train_asr(
        _asr_cfg(asr_corpus, "pretrain", 101, kind="ctc", pooling="mean",
                 ckpt=multiview_checkpoints["mean"]), out / "ctc")
    seg_rep = recognition.train_asr(
        _asr_cfg(asr_corpus, "pretrain", 101, kind="segmental", pooling="concat",
                 ckpt=multiview_checkpoints["concat"]), out / "seg")
    elapsed = time.time() - t0
    ctc_best = min(h["dev_wer"] for h in ctc_rep["history"])
    seg_best = min(h["dev_wer"] for h in seg_rep["history"])
    ok = ctc_best <= 0.05 and seg_best <= 0.05 and elapsed < 600.0
    report(8, ok, f"[8a] CTC WER {ctc_best:.3f}, segmental WER {seg_best:.3f} "
                  f"(both <=0.05) in {elapsed:.0f}s (<600s)")


def test_criterion_8b_pretraining_direction(asr_corpus, multiview_checkpoints, tmp_path_factory):
    out = tmp_path_factory.mktemp("c8b")
    total_base = total_pre = 0
    details = []
    for seed in (101, 202, 303):
        base = recognition.train_asr(
            _asr_cfg(asr_corpus, "baseline", seed), out / f"b{seed}")
        pre = recognition.train_asr(
            _asr_cfg(asr_corpus, "pretrain", seed, ckpt=multiview_checkpoints["mean"]),
            out / f"p{seed}")
        eb = _epochs_to(base["history"])
        ep = _epochs_to(pre["history"])
        details.append(f"seed {seed}: baseline {eb} vs pretrain {ep}")
        total_base += eb
        total_pre += ep
    ok = total_pre < total_base
    report(8, ok, f"[8b] epochs to WER<=5%: {'; '.join(details)} "
                  f"(totals {total_pre} < {total_base})")


def test_criterion_8c_unk_rescoring(asr_corpus, multiview_checkpoints, tmp_path_factory):
    out = tmp_path_factory.mktemp("c8c")
    cfg = _asr_cfg(asr_corpus, "joint", 101, ckpt=multiview_checkpoints["mean"], extra={
        ("training", "epochs"): "10",
        ("training", "stop_at_wer"): "0",
        ("optimizer", "lr"): "0.003",
        ("recognizer", "freeze"): "true",
        ("recognizer", "unk"): "true",
        ("recognizer", "vocab_file"): asr_corpus["vocab30"],
        ("recognizer", "lambda_emb"): "1.0",
        ("objective", "kind"): "multiview",
        ("objective", "terms"): "0,2",
        ("objective", "k"): "10",
        ("objective", "margin"): "0.4",
    })
    rep = recognition.train_asr(cfg, out / "frozen")
    recognition.decode_archive(cfg, rep["checkpoint"], asr_corpus["probes"],
                               out / "probes.json", align_path=asr_corpus["probe_align"],
                               extend_words_path=asr_corpus["extend10"])
    hyp = {}
    for line in open(out / "probes_hyp.tsv"):
        if line.startswith("#"):
            continue
        uid, _, text = line.rstrip("\n").partition("\t")
        hyp[uid] = text.split()
    als = cp.load_alignments(asr_corpus["probe_align"])
    correct = sum(1 for uid, al in als.items() if al.labels()[0] in hyp.get(uid, []))
    acc = correct / len(als)
    ok = acc >= 0.8
    report(8, ok, f"[8c] frozen layer + 10-word extension: recovered {correct}/{len(als)} "
                  f"= {acc:.2f} (>=0.80)")


# ---------------------------------------------------------------------------
# 9. Determinism


def test_criterion_9_determinism(tmp_path_factory):
    out = tmp_path_factory.mktemp("c9")
    spec = synth.SyntheticSpec(vocab_size=8, num_train=40, num_eval=16, num_speakers=4,
                               noise=0.2, speaker_scale=0.2, words_per_utterance=(1, 2),
                               base_duration=(12, 20))
    paths_a = synth.write_corpus(synth.generate_corpus(spec, seed=99), out / "data_a")
    paths_b = synth.write_corpus(synth.generate_corpus(spec, seed=99), out / "data_b")
    data_identical = all(
        open(paths_a[k], "rb").read() == open(paths_b[k], "rb").read() for k in paths_a)

    def run(paths, tag, threads):
        o = dict(_data_overrides(paths))
        o.update({("encoder", "layers"): "1", ("encoder", "hidden"): "16",
                  ("encoder", "embed_dim"): "12", ("written", "hidden"): "16",
                  ("training", "epochs"): "2", ("training", "batch_size"): "8",
                  ("run", "seed"): "77", ("run", "threads"): str(threads)})
        cfg = ExperimentConfig.load(None, overrides=o)
        emb = pipelines.train_embed(cfg, out / tag / "emb")
        pipelines.eval_ap(cfg, emb["checkpoint"], out / tag / "ap.json")
        o.update({("training", "epochs"): "1"})
        asr_cfg = ExperimentConfig.load(None, overrides=o)
        asr = recognition.train_asr(asr_cfg, out / tag / "asr")
        recognition.decode_archive(asr_cfg, asr["checkpoint"], paths["dev"],
                                   out / tag / "dec.json", align_path=paths["dev_align"])
        return tag

    run(paths_a, "t1", 1)
    run(paths_a, "t1b", 1)  # same settings rerun
    run(paths_a, "t4", 4)

    def read(tag, rel):
        return open(out / tag / rel, "rb").read()

    rerun_identical = all(
        read("t1", rel) == read("t1b", rel)
        for rel in ("emb/embed.cadp", "asr/asr.cadp", "ap.json", "dec.json",
                    "emb/train_log.jsonl", "asr/train_log.jsonl"))
    ckpt_thread_identical = all(
        read("t1", rel) == read("t4", rel) for rel in ("emb/embed.cadp", "asr/asr.cadp"))

    def normalized_report(tag, rel):
        rep = json.loads(read(tag, rel))
        cfg = rep.get("config", {})
        if "run" in cfg:
            cfg["run"]["threads"] = "X"  # the thread count is config echo
        return json.dumps(rep, sort_keys=True)

    report_thread_identical = all(
        normalized_report("t1", rel) == normalized_report("t4", rel)
        for rel in ("ap.json", "dec.json"))
    ok = data_identical and rerun_identical and ckpt_thread_identical and report_thread_identical
    report(9, ok, f"synth bit-identical: {data_identical}; rerun bit-identical: {rerun_identical}; "
                  f"checkpoints equal across 1/4 threads: {ckpt_thread_identical}; "
                  f"reports equal modulo thread echo: {report_thread_identical}")
