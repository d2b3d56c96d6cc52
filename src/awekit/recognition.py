"""Whole-word recognizers: CTC and segmental training, decoding, and
embedding export.

Training modes: "baseline" initializes everything randomly; "pretrain"
loads an embedding checkpoint, copies the acoustic encoder, builds the
prediction layer from written-view embeddings (optionally frozen), and
can regularize rows toward the (fixed) written embeddings; "joint" adds
the contrastive embedding loss with a live written encoder. In every mode
the prediction rows are free parameters. ``train_asr`` runs the shared
loop ``pipelines.train_epochs`` with the recognizer's batch loss and its
dev WER. One batch loss, ``asr_batch_loss``, serves both recognizers: it
encodes the batch, then takes the CTC loss of its padded frame
log-probabilities or the segmental loss of its lattices, either one tape
node per batch (see ``ctc`` and ``segmental``). Decoding encodes,
scores and Viterbi-decodes length-sorted batches. Word spans for joint
training and projection rescaling are embedded through
``encoders.pool_spans``: a CTC model projects every frame and mean-pools
the span's output frames, a segmental model pools with its configured
mode and then projects.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import corpus as cp
from . import ctc as ctc_mod
from . import encoders as enc
from . import metrics as mx
from . import nn
from . import objectives as obj
from . import segmental as segm
from .autodiff import Tensor
from .config import SCHEMA_VERSION, ConfigError, ExperimentConfig, component_rng
from .pipelines import (
    DataError,
    Dataset,
    Objective,
    _dump_json,
    _frame_window,
    _write_report,
    alignments_for,
    build_acoustic_encoder,
    build_written_encoder,
    checkpoint_meta,
    embed_frames,
    load_dataset,
    load_model,
    map_sorted_batches,
    parallel_map,  # unused here; the benchmark tracer patches recognition.parallel_map
    rebuild_embed_model,
    rebuild_encoders,
    train_epochs,
    word_span_items,
)

UNK_TOKEN = "<unk>"


@dataclass
class RecognizerModel:
    """A CTC or segmental recognizer: acoustic encoder ``f``, written
    encoder ``g`` (or None), prediction layer ``pl`` and, for CTC, the
    blank row. The order of ``parameters()`` is the checkpoint layout."""

    kind: str
    f: enc.AcousticEncoder
    g: enc.WrittenEncoder | None
    pl: enc.PredictionLayer
    blank_w: nn.Parameter | None
    blank_b: nn.Parameter | None
    vocab: cp.Vocabulary

    def parameters(self):
        out = list(self.f.parameters())
        if self.g is not None:
            for p in self.g.parameters():
                if p not in out:
                    out.append(p)
        out.extend(self.pl.parameters())
        if self.blank_w is not None:
            out.extend([self.blank_w, self.blank_b])
        return out


def _merge_encoder_config(cfg: ExperimentConfig, ckpt_meta: dict) -> ExperimentConfig:
    """Weight-bearing encoder fields follow the checkpoint; pooling and
    subsampling (parameter-free) follow the recognizer config."""
    merged = {s: dict(kv) for s, kv in cfg.resolved().items()}
    ck = ckpt_meta["config"]
    for key in ("cell", "layers", "hidden", "embed_dim", "fc_layers"):
        merged["encoder"][key] = ck["encoder"][key]
    for key in ("mode", "symbol_embed_dim", "hidden"):
        merged["written"][key] = ck["written"][key]
    return ExperimentConfig(merged)


def build_recognizer(cfg: ExperimentConfig, ds: Dataset, input_dim: int):
    """(model, config) of a new recognizer. In pretrain and joint mode the
    returned config takes its weight-bearing encoder fields from the init
    checkpoint."""
    kind = cfg.get("recognizer", "kind")
    mode = cfg.get("recognizer", "training_mode")
    use_unk = cfg.getbool("recognizer", "unk")
    vocab_file = cfg.get("recognizer", "vocab_file")
    if vocab_file:
        labels = sorted(set(cp.load_words(vocab_file)))  # training words outside it map to UNK
    else:
        labels = sorted({v for al in ds.train_align.values() for v in al.labels()})
    vocab = cp.Vocabulary(labels, unk_token=UNK_TOKEN if use_unk else None)
    init_rng = component_rng(cfg.seed, "init")
    init_ckpt = cfg.get("recognizer", "init_checkpoint")
    pretrained = mode != "baseline"
    if pretrained:
        if not init_ckpt:
            raise ConfigError(f"training_mode {mode!r} needs [recognizer] init_checkpoint")
        meta, arrays = load_model(init_ckpt, "embed")
        if meta["written"] is None:
            raise nn.CheckpointError(f"{init_ckpt}: {meta['objective']} models have no written encoder to {mode}")
        cfg = _merge_encoder_config(cfg, meta)
    f = build_acoustic_encoder(cfg, input_dim, init_rng)
    g = None
    if pretrained:
        g = build_written_encoder(cfg, meta["written"], f, init_rng)
        nn.assign_from_checkpoint(f.parameters() + g.parameters(), arrays)
    model = _assemble(cfg, kind, f, g, vocab, ds.lexicon, written_rows=pretrained)
    _rescale_projection(model, ds)
    return model, cfg


def _assemble(cfg: ExperimentConfig, kind: str, f, g, vocab, lexicon, written_rows: bool):
    """The recognizer over encoders ``f`` and ``g``, for training and reload:
    its prediction layer and, for CTC, its blank row. With ``written_rows``
    (pretraining) the rows start as g's written embeddings and may be
    frozen; otherwise they are random, as a baseline starts and as a reload
    builds them before the checkpoint overwrites them."""
    unit = cfg.getbool("recognizer", "unit_normalize")
    pred_rng = component_rng(cfg.seed, "pred-init")
    if written_rows:
        pl = enc.PredictionLayer.from_written_encoder(vocab, g, lexicon, pred_rng, unit)
        if cfg.getbool("recognizer", "freeze"):
            pl.freeze()
    else:
        pl = enc.PredictionLayer(vocab, f.config.embed_dim, rng=pred_rng, unit_normalized=unit)
    blank_w = blank_b = None
    if kind == "ctc":
        d = f.config.embed_dim
        blank_w = nn.Parameter("blank.w", nn.normal_init(component_rng(cfg.seed, "blank-init"), d) / np.sqrt(d))
        blank_b = nn.Parameter("blank.b", np.zeros(1))
    return RecognizerModel(kind, f, g, pl, blank_w, blank_b, vocab)


def _rescale_projection(model, ds: Dataset):
    """Scale the encoder projection so word-segment embeddings have unit
    mean norm at initialization, measured over the training utterances in
    order until at least 64 segments are seen.

    Cosine-trained embeddings carry no scale anchor, so transferring them
    into a dot-product scorer can start in a degenerate tiny-logit regime
    (segment counts then dominate word identity in the segmental
    lattice). Rescaling the projection preserves cosine geometry and
    restores O(1) scores; prediction rows and biases are untouched.
    """
    norms = []
    for fm in ds.train:
        if len(norms) >= 64:
            break
        al = ds.train_align[fm.utterance_id]
        if not al.entries:
            continue
        out, _ = model.f.encode([fm.frames])
        embs = _span_embeddings(model, out, [(0, s, e) for s, e, _ in al.entries]).values
        norms.extend(np.linalg.norm(embs, axis=1).tolist())
    mean_norm = float(np.mean(norms)) if norms else 1.0
    if mean_norm > 0:
        model.f.proj_w.values /= mean_norm
        model.f.proj_b.values /= mean_norm


# ---------------------------------------------------------------------------
# Forward passes


def _span_embeddings(model, out: Tensor, spans) -> Tensor:
    """Embeddings of (row, start, end) input-frame spans: CTC models
    project every frame and mean-pool the span's output frames; segmental
    models pool the span with the configured mode, then project."""
    f = model.f
    if model.kind != "ctc":
        return f.span_embeddings(out, spans)
    B, T, W = out.values.shape
    proj = ad.reshape(f.project(ad.reshape(out, (B * T, W))), (B, T, -1))
    return enc.pool_spans(proj, *f.output_spans(spans), "mean")


def _ctc_frame_logits(model, out: Tensor):
    """(B*T, d) projected frames and their (B, T, V+1) log-probabilities against [rows; blank]."""
    B, T, W = out.values.shape
    proj = model.f.project(ad.reshape(out, (B * T, W)))  # (B*T, d)
    w_full = ad.concat([model.pl.w.tensor, ad.reshape(model.blank_w.tensor, (1, -1))], axis=0)
    b_full = ad.concat([model.pl.b.tensor, model.blank_b.tensor], axis=0)
    logits = ad.affine(proj, ad.transpose(w_full), b_full)
    return proj, ad.reshape(ad.log_softmax(logits, axis=1), (B, T, -1))


def _transcript_ids(model, al: cp.WordAlignment):
    try:
        return [model.vocab.index(v) for v in al.labels()]
    except KeyError as e:
        raise DataError(f"{al.utterance_id}: word {e.args[0]!r} not in the vocabulary "
                        "(enable [recognizer] unk or extend the training set)") from e


def asr_batch_loss(model, fms, alignments, s_max: int, rng):
    """(recognizer loss summed over a training batch, transcript words,
    encoder output). Either loss is one tape node for the whole batch: the
    CTC loss over the batch's padded frame log-probabilities, or the
    segmental loss over the batch's lattices with the batch's segment cap
    (at most ``s_max``)."""
    out, lengths = model.f.encode([fm.frames for fm in fms], train=True, rng=rng)
    transcripts = [_transcript_ids(model, alignments[fm.utterance_id]) for fm in fms]
    n = sum(len(ids) for ids in transcripts)
    if model.kind != "ctc":
        s_cap = segm.batch_segment_cap(lengths, [len(ids) for ids in transcripts], s_max)
        scores = segm.score_segments(model.f, out, lengths, model.pl, s_cap)
        return segm.seg_loss(scores, transcripts), n, out
    _, log_probs = _ctc_frame_logits(model, out)
    return ctc_mod.ctc_loss(log_probs, lengths, transcripts), n, out


def joint_embedding_loss(model, objective: Objective, out, fms, alignments, lexicon, window, k, sample_rng):
    """Contrastive multi-view loss with ``k`` negatives over the batch's
    word segments whose length is in ``window`` = (min, max) frames."""
    entries = [alignments[fm.utterance_id].entries for fm in fms]
    items, labels = word_span_items(entries, *window)
    if not items:
        return None
    full_vocab = [v for v in model.vocab.labels if v != model.vocab.unk_token]
    return objective.multiview_loss(_span_embeddings(model, out, items), labels, model.g, lexicon, full_vocab, k,
                                    sample_rng)


def regularizer_loss(model, fms, alignments, lexicon, live: bool):
    words = sorted({v for fm in fms for v in alignments[fm.utterance_id].labels()
                    if v in model.vocab and v != model.vocab.unk_token})
    if not words:
        return None
    idx = np.array([model.vocab.index(w) for w in words], dtype=np.intp)
    rows = ad.getitem(model.pl.w.tensor, idx)
    written = model.g.embed_words(words, lexicon)
    if not live:
        written = Tensor(written.values)
    return obj.agwe_regularizer(rows, written)


# ---------------------------------------------------------------------------
# Decoding


def decode_utterances(model, fms, s_max: int, threads: int) -> list:
    """(words, spans, frame embeddings or None) of each utterance, in input
    order, from length-sorted batches that are each encoded once."""
    def run(batch):
        out, lengths = model.f.encode([fm.frames for fm in batch])
        if model.kind != "ctc":
            paths = segm.viterbi_decode(segm.score_segments(model.f, out, lengths, model.pl, s_max))
            return [([model.vocab.label(v) for v in path.labels()],
                     [(v, t, t + s) for t, s, v in path.segments], None) for path in paths]
        proj, log_probs = _ctc_frame_logits(model, out)
        frame_embs = proj.values.reshape(*log_probs.values.shape[:2], -1)
        results = []
        for r, T in enumerate(lengths.tolist()):
            lp = log_probs.values[r, :T]
            spans = ctc_mod.ctc_greedy_decode_with_spans(lp)
            if model.vocab.unk_index is not None:
                spans = ctc_mod.widen_unk_spans(lp, spans, model.vocab.unk_index)
            results.append(([model.vocab.label(tok) for tok, _, _ in spans], spans, frame_embs[r, :T]))
        return results

    return map_sorted_batches(run, fms, [fm.num_frames for fm in fms], threads)


def _wer_totals(refs, hyps) -> dict:
    """Corpus WER and its substitutions, deletions and insertions, summed
    over utterances, against the reference words of alignments ``refs``."""
    subs = dels = ins = total = 0
    for al, words in zip(refs, hyps):
        ref = al.labels()
        r = mx.wer(ref, words)
        subs += r.substitutions
        dels += r.deletions
        ins += r.insertions
        total += len(ref)
    return {"wer": (subs + dels + ins) / total, "substitutions": subs,
            "deletions": dels, "insertions": ins, "ref_words": total}


def dev_wer(model, fms, alignments, threads: int, s_max: int) -> float:
    hyps = [words for words, _, _ in decode_utterances(model, fms, s_max, threads)]
    return _wer_totals([alignments[fm.utterance_id] for fm in fms], hyps)["wer"]


# ---------------------------------------------------------------------------
# Training


def train_asr(cfg: ExperimentConfig, outdir: str) -> dict:
    objective = Objective(cfg)
    objective.check_schedule()
    mode = cfg.get("recognizer", "training_mode")
    if mode == "joint":
        objective.check_strategy("multiview")
    window = _frame_window(cfg)
    lam_emb = cfg.getfloat("recognizer", "lambda_emb")
    lam_reg = cfg.getfloat("recognizer", "lambda_reg")
    scheme = cfg.get("recognizer", "scheme")
    ds = load_dataset(cfg)
    model, cfg = build_recognizer(cfg, ds, ds.train[0].dim)
    params = model.parameters()
    dropout_rng = component_rng(cfg.seed, "dropout")
    sample_rng = component_rng(cfg.seed, "sampling")
    s_max = cfg.getint("recognizer", "s_max")
    stop_at = cfg.getfloat("training", "stop_at_wer")

    frozen_snapshot = model.pl.w.values.copy()

    def batch_loss(batch_ids, batches_done):
        fms = [ds.train[i] for i in batch_ids]
        asr, n_tok, out = asr_batch_loss(model, fms, ds.train_align, s_max, dropout_rng)
        asr = ad.scale(asr, 1.0 / max(1, n_tok))
        emb_loss = reg_loss = None
        if mode == "joint" and lam_emb > 0:
            emb_loss = joint_embedding_loss(model, objective, out, fms, ds.train_align, ds.lexicon, window,
                                            objective.k_at(batches_done), sample_rng)
        if mode in ("pretrain", "joint") and lam_reg > 0 and not model.pl.w.frozen:
            reg_loss = regularizer_loss(model, fms, ds.train_align, ds.lexicon, live=(mode == "joint"))
        return obj.combine_joint(asr, emb_loss, reg_loss, lam_emb, lam_reg, scheme)

    def evaluate():
        wer = dev_wer(model, ds.dev, ds.dev_align, cfg.threads, s_max=s_max)
        return wer, {"dev_wer": wer}, stop_at > 0 and wer <= stop_at

    best_wer, history = train_epochs(cfg, outdir, params, [fm.num_frames for fm in ds.train],
                                     batch_loss, evaluate, "min")
    if model.pl.w.frozen:
        assert np.array_equal(model.pl.w.values, frozen_snapshot), "freeze contract violated"

    ckpt = os.path.join(outdir, "asr.cadp")
    nn.save_checkpoint(ckpt, params, checkpoint_meta("asr", cfg, model.g, kind=model.kind, input_dim=ds.train[0].dim,
                                                     vocab=model.vocab.labels, unk=model.vocab.unk_token))
    report = {"checkpoint": ckpt, "best_wer": best_wer, "epochs_run": len(history),
              "history": history, "config": cfg.resolved(), "version": SCHEMA_VERSION}
    _dump_json(os.path.join(outdir, "train_report.json"), report)
    return report


def rebuild_recognizer(checkpoint: str):
    """(model, metadata, config) of a recognizer checkpoint."""
    meta, arrays, cfg, f, g = rebuild_encoders(checkpoint, "asr", written=True)
    vocab = cp.Vocabulary([w for w in meta["vocab"] if w != meta["unk"]], unk_token=meta["unk"])
    model = _assemble(cfg, meta["kind"], f, g, vocab, None, written_rows=False)
    nn.assign_from_checkpoint(model.parameters(), arrays)
    return model, meta, cfg


def decode_archive(cfg: ExperimentConfig, checkpoint: str, archive_path: str, out_path: str,
                   align_path: str | None = None, extend_words_path: str | None = None) -> dict:
    """Decode an archive; optionally rescore a CTC model's UNK spans against
    an extended vocabulary, and report WER when reference alignments are
    given."""
    model, meta, _ = rebuild_recognizer(checkpoint)
    extended = None
    if extend_words_path:
        if model.kind != "ctc" or model.vocab.unk_index is None or model.g is None:
            raise ConfigError("--extend-words rescores UNK spans: it needs a CTC checkpoint trained "
                              "with [recognizer] unk = true and a written encoder")
        lexicon = cp.load_lexicon(cfg.data_path("lexicon")) if cfg.get("data", "lexicon") else None
        extended = enc.extend_vocabulary(model.pl, model.g, cp.load_words(extend_words_path), lexicon)
    fms = cp.load_feature_archive(archive_path)
    refs = alignments_for([fm.utterance_id for fm in fms], cp.load_alignments(align_path)) if align_path else None
    s_max = cfg.getint("recognizer", "s_max")

    hyps = []
    for words, spans, frame_emb in decode_utterances(model, fms, s_max, cfg.threads):
        if extended is not None:
            toks = ctc_mod.unk_rescore(spans, frame_emb, extended, model.vocab.unk_index)
            words = [extended.vocab.label(t) for t in toks]
        hyps.append(words)
    trans_path = os.path.splitext(out_path)[0] + "_hyp.tsv"
    with cp.open_artifact(trans_path) as fh:
        fh.write("# utterance_id\thypothesis\n")
        for fm, words in zip(fms, hyps):
            fh.write(f"{fm.utterance_id}\t{' '.join(words)}\n")
    # relative to the report, so reports of runs into different directories agree
    report = {"num_utterances": len(fms), "transcripts": os.path.basename(trans_path),
              "config": cfg.resolved(), "version": SCHEMA_VERSION}
    if align_path:
        report.update(_wer_totals(refs, hyps))
    _write_report(out_path, report)
    return report


def export_embeddings(checkpoint: str, archive_path: str, out_path: str,
                      align_path: str | None = None, threads: int = 1) -> dict:
    """Dump (id, label, vector) rows for aligned segments (or whole
    utterances when no alignment is given)."""
    f, _, _, _ = rebuild_embed_model(checkpoint, written=False)
    fms = cp.load_feature_archive(archive_path)
    if align_path is None:
        items = [(fm.utterance_id, "", fm.frames) for fm in fms]
    else:
        items = [(f"{fm.utterance_id}:{s}-{e}", lab, fm.frames[s:e])
                 for fm, al in zip(fms, alignments_for(fms, cp.load_alignments(align_path)))
                 for s, e, lab in al.entries]
    d = f.config.embed_dim
    flat = embed_frames(f, [fr for _, _, fr in items], threads)
    with cp.open_artifact(out_path) as fh:
        fh.write("id\tlabel\t" + "\t".join(f"v{i}" for i in range(d)) + "\n")
        for (uid, lab, _), row in zip(items, flat):
            fh.write(uid + "\t" + lab + "\t" + "\t".join(f"{x:.8g}" for x in row) + "\n")
    return {"rows": len(items), "dim": d, "path": out_path}
