"""End-to-end pipelines: embedding training, word-discrimination
evaluation, DTW baselines, index build / query-by-example search,
recognizer training (CTC and segmental), decoding, and embedding export.

Training and evaluation embed a split the same way. ``embed_split``
returns ``(embeddings, labels)`` for a split under any objective
(classifier posteriors, contextual spans pooled inside utterances, or
isolated segments), and ``dev_ap`` scores it: ``train_embed`` selects its
best epoch by that AP and ``eval_ap`` reports it for the checkpoint.
Isolated segments go through ``embed_frames`` (also used by
``export_embeddings`` and for queries) and spans inside utterances through
``_embed_utterance_spans`` (also used by the index build). Every encoding
without training, decoding included, goes through ``map_sorted_batches``:
inputs sorted by length, in batches of INFER_BATCH. ``Objective`` holds the
[objective] section, read once per run, with its k schedule and the
multi-view batch loss; ``train_embed`` and joint recognizer training
take their loss settings from it.

``train_epochs`` is the one training loop, run by ``train_embed`` and
``recognition.train_asr``: length-bucketed batches, the optimizer step
(a non-finite batch loss raises FloatingPointError first), the
[scheduler] rule, reset-to-best on a plateau, ``train_log.jsonl``, and
the best epoch's weights at the end. Each trainer passes in its batch
lengths, its batch loss and its per-epoch dev evaluation.

Every pipeline is deterministic given (config, seed, inputs): random
streams derive from the master seed per component, batch formation is
independent of the thread count, and parallel maps preserve order.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import corpus as cp
from . import dtw as dtw_mod
from . import encoders as enc
from . import metrics as mx
from . import nn
from . import objectives as obj
from . import search as srch
from .autodiff import Tape, Tensor
from .config import DEFAULTS, SCHEMA_VERSION, ConfigError, ExperimentConfig, component_rng


class DataError(Exception):
    pass


INFER_BATCH = 16  # items per inference batch; 64 raised the recognizers' peak memory


def parallel_map(fn, items, threads: int):
    """Order-preserving map, optionally on a thread pool."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def map_sorted_batches(fn, items, lengths, threads: int) -> list:
    """One result per item, in input order, from ``fn`` mapped over the
    length-sorted batches of up to INFER_BATCH items; ``fn`` returns one
    result per item of its batch. The batches depend only on the inputs,
    so the results do not depend on the thread count."""
    batches = _length_sorted_batches(lengths, INFER_BATCH)
    results = parallel_map(lambda ids: fn([items[i] for i in ids]), batches, threads)
    out = [None] * len(items)
    for ids, batch_results in zip(batches, results):
        for i, r in zip(ids, batch_results):
            out[i] = r
    return out


# ---------------------------------------------------------------------------
# Data assembly


@dataclass
class Dataset:
    train: list
    train_align: dict
    dev: list
    dev_align: dict
    lexicon: cp.Lexicon | None
    feature_table: cp.FeatureTable | None


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    train = cp.load_feature_archive(cfg.data_path("train"))
    train_align = cp.load_alignments(cfg.data_path("train_align"))
    dev = cp.load_feature_archive(cfg.data_path("dev"))
    dev_align = cp.load_alignments(cfg.data_path("dev_align"))
    lex_path = cfg.get("data", "lexicon")
    lexicon = cp.load_lexicon(cfg.data_path("lexicon")) if lex_path else None
    ft_path = cfg.get("data", "feature_table")
    feature_table = cp.load_feature_table(cfg.data_path("feature_table")) if ft_path else None
    for fms, als in ((train, train_align), (dev, dev_align)):
        for fm in fms:
            if fm.utterance_id not in als:
                raise DataError(f"no alignment for utterance {fm.utterance_id!r}")
            als[fm.utterance_id].check_bounds(fm)
    return Dataset(train, train_align, dev, dev_align, lexicon, feature_table)


def _frame_window(cfg: ExperimentConfig) -> tuple[int, int]:
    """The [training] segment lengths (min_frames, max_frames) in frames,
    read here by every trainer and evaluation; ConfigError when max_frames
    is below min_frames."""
    min_frames = cfg.getint("training", "min_frames")
    max_frames = cfg.getint("training", "max_frames")
    if max_frames < min_frames:
        raise ConfigError(f"[training] max_frames {max_frames} is below min_frames {min_frames}")
    return min_frames, max_frames


def collect_segments(fms, alignments, min_frames, max_frames):
    """(FrameMatrix, SegmentRef) pairs across a split, in archive order."""
    out = []
    for fm in fms:
        for seg in cp.extract_segments(fm, alignments[fm.utterance_id], min_frames, max_frames):
            out.append((fm, seg))
    return out


def dev_segments(ds: Dataset, min_frames: int, max_frames: int) -> list:
    """The dev split's (FrameMatrix, SegmentRef) pairs in the frame window.
    DataError unless two of them share a word: AP needs a same-word pair."""
    segments = collect_segments(ds.dev, ds.dev_align, min_frames, max_frames)
    labels = [s.label for _, s in segments]
    if len(set(labels)) == len(labels):
        raise DataError(f"{len(labels)} dev segments of {min_frames}-{max_frames} frames and no two "
                        "of one word; average precision needs a same-word pair")
    return segments


def _segment_frames(pairs) -> list:
    """Frame slices of (FrameMatrix, SegmentRef) pairs."""
    return [fm.frames[s.start : s.end] for fm, s in pairs]


def _length_sorted_batches(lengths, batch_size) -> list:
    """Item ids sorted by length (ties by index), cut into consecutive
    batches."""
    order = np.lexsort((np.arange(len(lengths)), np.asarray(lengths))).tolist()
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


# ---------------------------------------------------------------------------
# Model construction


def build_acoustic_encoder(cfg: ExperimentConfig, input_dim: int, rng) -> enc.AcousticEncoder:
    config = enc.AcousticEncoderConfig(
        input_dim=input_dim,
        cell=cfg.get("encoder", "cell"),
        layers=cfg.getint("encoder", "layers"),
        hidden=cfg.getint("encoder", "hidden"),
        dropout=cfg.getfloat("encoder", "dropout"),
        pooling=cfg.get("encoder", "pooling"),
        embed_dim=cfg.getint("encoder", "embed_dim"),
        subsample=cfg.getint("encoder", "subsample"),
        fc_layers=cfg.getint("encoder", "fc_layers"),
    )
    return enc.AcousticEncoder(config, rng)


def _symbol_inventory(ds: Dataset, labels) -> list:
    if ds.lexicon is not None:
        chars = {ch for w in ds.lexicon.pronunciations for ch in w}
    else:
        chars = set()
    chars.update(ch for w in labels for ch in w)
    return sorted(chars)


def build_written_encoder(cfg: ExperimentConfig, ds: Dataset, labels, f: enc.AcousticEncoder, rng):
    mode = cfg.get("written", "mode")
    wcfg = enc.WrittenEncoderConfig(
        mode=mode,
        symbol_embed_dim=cfg.getint("written", "symbol_embed_dim"),
        hidden=cfg.getint("written", "hidden"),
        embed_dim=cfg.getint("encoder", "embed_dim"),
    )
    shared = None
    if 2 * wcfg.hidden == f.frame_width and not f.fc:
        shared = (f.proj_w, f.proj_b)
    symbols = None
    feature_table = None
    if mode == "char":
        symbols = _symbol_inventory(ds, labels)
    elif mode == "phone":
        if ds.lexicon is None:
            raise ConfigError("phone mode needs [data] lexicon")
        symbols = ds.lexicon.symbols()
    else:
        if ds.feature_table is None:
            raise ConfigError("feature mode needs [data] feature_table")
        feature_table = ds.feature_table
    return enc.WrittenEncoder(wcfg, rng, symbols=symbols, feature_table=feature_table,
                              shared_projection=shared)


def build_optimizer(cfg: ExperimentConfig):
    if cfg.get("optimizer", "kind") == "adam":
        return nn.Adam(cfg.getfloat("optimizer", "lr"))
    return nn.NesterovSGD(cfg.getfloat("optimizer", "lr"), cfg.getfloat("optimizer", "momentum"))


def _snapshot(params):
    return [p.values.copy() for p in params]


def _restore(params, snap):
    for p, v in zip(params, snap):
        p.values[...] = v


def _dump_json(path, value):
    with cp.open_artifact(path) as fh:
        json.dump(value, fh, indent=1, sort_keys=True)


def save_model(path, params, meta: dict):
    nn.save_checkpoint(path, params)
    _dump_json(str(path) + ".json", meta)


# The fields a checkpoint's metadata holds, by model, and their types; a
# list holds strings.
META_FIELDS = {"embed": {"objective": str, "input_dim": int, "train_labels": list},
               "asr": {"kind": str, "input_dim": int, "vocab": list, "unk": (str, type(None)),
                       "has_written": bool}}


def _meta_type_ok(value, kind) -> bool:
    if kind is list:
        return isinstance(value, list) and all(isinstance(item, str) for item in value)
    return isinstance(value, kind)


def load_model_meta(path) -> dict:
    """A checkpoint's sidecar metadata, its echoed config reduced to the
    keys of DEFAULTS (removed keys are ignored). CheckpointError when the
    sidecar is not JSON, lacks a config key or lacks a field of the right
    type; ConfigError when a config value breaks the schema."""
    try:
        with open(str(path) + ".json", encoding="utf-8") as f:
            meta = json.load(f)
        fields = META_FIELDS[meta["model"]].items()
        bad = [field for field, kind in fields if not _meta_type_ok(meta.get(field), kind)]
        config = {s: {k: str(meta["config"][s][k]) for k in keys} for s, keys in DEFAULTS.items()}
    except (ValueError, KeyError, TypeError) as e:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise nn.CheckpointError(f"{path}.json: not checkpoint metadata, {e!r}") from e
    if bad:
        raise nn.CheckpointError(f"{path}.json: no {', '.join(bad)} of the right type")
    try:
        ExperimentConfig(config).check()
    except ConfigError as e:
        raise ConfigError(f"{path}.json: {e}") from e
    return {**meta, "config": config}


def _load_if_exists(cfg: ExperimentConfig, key: str, load):
    """``load`` the [data] file ``key`` of a checkpoint's config; None when
    it is unset or not on this machine."""
    path = cfg.get("data", key)
    return load(path) if path and os.path.exists(path) else None


def rebuild_encoders(meta: dict, written_labels):
    """(config, acoustic encoder, written encoder, lexicon) described by
    a checkpoint's metadata, before its weights are assigned. The written
    encoder is built over ``written_labels``, or is None when they are."""
    cfg = ExperimentConfig(meta["config"])
    rng = component_rng(cfg.seed, "init")
    f = build_acoustic_encoder(cfg, meta["input_dim"], rng)
    lexicon = _load_if_exists(cfg, "lexicon", cp.load_lexicon)
    g = None
    if written_labels is not None:
        ds = Dataset([], {}, [], {}, lexicon, _load_if_exists(cfg, "feature_table", cp.load_feature_table))
        g = build_written_encoder(cfg, ds, written_labels, f, rng)
    return cfg, f, g, lexicon


def rebuild_embed_model(checkpoint: str):
    """Reconstruct encoders from a checkpoint and its sidecar metadata."""
    meta = load_model_meta(checkpoint)
    written = meta["train_labels"] if meta["objective"] == "multiview" else None
    cfg, f, g, _ = rebuild_encoders(meta, written)
    params = f.parameters() + (g.parameters() if g is not None else [])
    nn.assign_from_checkpoint(params, nn.load_checkpoint(checkpoint))
    return f, g, meta, cfg


# ---------------------------------------------------------------------------
# The training objective


class Objective:
    """The [objective] section of a run, read once, with its k schedule
    and the multi-view batch loss."""

    def __init__(self, cfg: ExperimentConfig):
        self.kind = cfg.get("objective", "kind")
        self.contextual = cfg.getbool("objective", "contextual")
        self.spans = cfg.getbool("objective", "spans")
        self.margin = cfg.getfloat("objective", "margin")
        self.k = cfg.getint("objective", "k")
        self.k_end = cfg.getint("objective", "k_end")
        self.strategy = cfg.get("objective", "strategy")
        self.terms = tuple(cfg.getints("objective", "terms"))
        self.sqrt_variant = cfg.getbool("objective", "sqrt_variant")
        self.extras = cfg.getint("objective", "extras")
        self.confusion_threshold = cfg.getfloat("objective", "confusion_threshold")

    def check_schedule(self):
        """ConfigError when k_end exceeds k, which would train with k_end
        negatives from the first batch. Only training checks it, so
        checkpoints saved with such a config still evaluate."""
        if self.k_end > self.k:
            raise ConfigError(f"[objective] k_end = {self.k_end} must not exceed k = {self.k}")

    def check_strategy(self, loss: str):
        """ConfigError unless the ``loss`` ("multiview" or "triplet") runs the strategy."""
        if self.strategy not in obj.STRATEGIES[loss]:
            raise ConfigError(f"[objective] strategy {self.strategy!r}: "
                              f"the {loss} loss runs {obj.STRATEGIES[loss]}")

    def k_at(self, batches_done: int) -> int:
        """Negatives per item after ``batches_done`` batches: with k_end > 0,
        k drops by one per batch down to k_end."""
        if self.k_end <= 0:
            return self.k
        return max(self.k_end, self.k - batches_done)

    def multiview_loss(self, acoustic: Tensor, labels, g, lexicon, full_vocab, k: int, rng) -> Tensor:
        """Contrastive multi-view loss of a batch, averaged over its
        segments. The batch vocabulary adds ``extras`` words of
        ``full_vocab``; with [objective] spans, a label is a space-joined
        word sequence whose written view encodes the concatenated symbols."""
        vocab_words = obj.batch_vocabulary(labels, full_vocab, self.extras, rng)
        if self.spans:
            seqs = [sum((g.resolve(w, lexicon) for w in v.split(" ")), ()) for v in vocab_words]
            word_embs = g.embed_sequences(seqs)
        else:
            word_embs = g.embed_words(vocab_words, lexicon)
        loss = obj.multiview_loss(acoustic, labels, vocab_words, word_embs, self.margin, k, self.strategy,
                                  self.terms, self.sqrt_variant, rng)
        return ad.scale(loss, 1.0 / max(1, len(labels)))


# ---------------------------------------------------------------------------
# Embedding a split


def embed_frames(f: enc.AcousticEncoder, frames, threads: int) -> np.ndarray:
    """Embed isolated frame arrays without recording: (n, d), in input
    order, from length-sorted batches (``map_sorted_batches``)."""
    rows = map_sorted_batches(lambda batch: f.embed_segments_isolated(batch).values, frames,
                              [len(x) for x in frames], threads)
    return np.array(rows).reshape(len(frames), f.config.embed_dim)


def _embed_utterance_spans(f: enc.AcousticEncoder, jobs, threads: int) -> list:
    """For each (frames, spans) job, the (len(spans), d) embeddings of its
    (start, end) input-frame spans. A length-sorted batch of utterances is
    encoded once, and its spans pooled and projected together."""
    def run(batch):
        out, _ = f.encode([x for x, _ in batch])
        embs = f.span_embeddings(out, [(r, s, e) for r, (_, spans) in enumerate(batch) for s, e in spans])
        return np.split(embs.values, np.cumsum([len(spans) for _, spans in batch])[:-1])

    return map_sorted_batches(run, jobs, [len(x) for x, _ in jobs], threads)


def embed_split(f: enc.AcousticEncoder, objective: Objective, fms, alignments, min_frames: int,
                max_frames: int, threads: int) -> tuple[np.ndarray, list]:
    """(embeddings, labels) of every aligned word segment of a split whose
    length is in [min_frames, max_frames].

    Classifier models embed isolated segments as softmax posteriors;
    contextual models pool each segment inside its encoded utterance;
    all others encode each segment on its own."""
    if objective.contextual and objective.kind != "classifier":
        segs = [cp.extract_segments(fm, alignments[fm.utterance_id], min_frames, max_frames) for fm in fms]
        jobs = [(fm.frames, [(s.start, s.end) for s in ss]) for fm, ss in zip(fms, segs) if ss]
        embs = np.concatenate([np.zeros((0, f.config.embed_dim))] + _embed_utterance_spans(f, jobs, threads))
        return embs, [s.label for ss in segs for s in ss]
    segments = collect_segments(fms, alignments, min_frames, max_frames)
    embs = embed_frames(f, _segment_frames(segments), threads)
    if objective.kind == "classifier":
        z = embs - embs.max(axis=1, keepdims=True)
        e = np.exp(z)
        embs = e / e.sum(axis=1, keepdims=True)
    return embs, [s.label for _, s in segments]


def dev_ap(f: enc.AcousticEncoder, g, objective: Objective, ds: Dataset, min_frames: int,
           max_frames: int, threads: int) -> dict:
    """Acoustic AP of the dev split and, with a written encoder ``g``,
    cross-view AP against the written embeddings of its labels."""
    embs, labels = embed_split(f, objective, ds.dev, ds.dev_align, min_frames, max_frames, threads)
    out = {"acoustic_ap": mx.acoustic_ap(embs, labels), "num_segments": len(labels)}
    if g is not None:
        uniq = sorted(set(labels))
        wemb = g.embed_words(uniq, ds.lexicon).values
        out["cross_view_ap"] = mx.cross_view_ap(embs, labels, wemb, uniq)
    return out


# ---------------------------------------------------------------------------
# The training loop


def word_span_items(entries, min_frames: int, max_frames: int):
    """(row, start, end) spans and their labels for the (start, end, label)
    entries of each batch row whose length is in [min_frames, max_frames]."""
    items, labels = [], []
    for row, row_entries in enumerate(entries):
        for s, e, lab in row_entries:
            if min_frames <= e - s <= max_frames:
                items.append((row, s, e))
                labels.append(lab)
    return items, labels


def train_epochs(cfg: ExperimentConfig, outdir: str, params, lengths, batch_loss, evaluate,
                 mode: str) -> tuple:
    """Train ``params`` for [training] epochs and leave the best epoch's
    weights in them; returns (best dev metric or None, log entries).

    An epoch takes one optimizer step per length-bucketed batch of the
    items with ``lengths`` (batch order from the "shuffle" stream) on
    ``batch_loss(batch_ids, batches_done)``; a non-finite batch loss
    raises FloatingPointError before it reaches the weights. Then
    ``evaluate()`` returns ``(metric, fields, stop)``: the dev metric
    (higher is better with ``mode`` "max", lower with "min"), the fields
    it adds to the epoch's ``train_log.jsonl`` line, and whether to stop.
    The learning rate follows the [scheduler] rule; the first epoch with
    the best metric is kept, and a metric plateau resets to it."""
    optimizer = build_optimizer(cfg)
    factor = cfg.getfloat("scheduler", "factor")
    scheduler = nn.PlateauScheduler(optimizer.lr, cfg.getint("scheduler", "patience"), factor,
                                    cfg.getfloat("scheduler", "min_lr"), mode)
    loss_rule = nn.LossPlateauHeuristic(optimizer.lr, factor) \
        if cfg.get("scheduler", "rule") == "loss-heuristic" else None
    shuffle_rng = component_rng(cfg.seed, "shuffle")
    batch_size = cfg.getint("training", "batch_size")
    best_snap = _snapshot(params)
    best_metric = None
    batches_done = 0
    history = []
    with open(os.path.join(outdir, "train_log.jsonl"), "w", encoding="utf-8") as log_file:
        for epoch in range(cfg.getint("training", "epochs")):
            epoch_loss = 0.0
            batches = _length_sorted_batches(lengths, batch_size)
            shuffle_rng.shuffle(batches)
            for batch_ids in batches:
                nn.zero_grads(params)
                with Tape() as tape:
                    loss = batch_loss(batch_ids, batches_done)
                value = float(loss.values)
                if not np.isfinite(value):
                    raise FloatingPointError(f"training loss {value} at batch {batches_done}")
                tape.backward(loss)
                optimizer.step(params)
                epoch_loss += value
                batches_done += 1
            mean_loss = epoch_loss / max(1, len(batches))
            metric, fields, stop = evaluate()
            decision = scheduler.update(metric)
            optimizer.lr = decision.lr if loss_rule is None else loss_rule.update(mean_loss)
            if decision.improved or best_metric is None:
                best_metric = metric
                best_snap = _snapshot(params)
            elif decision.reset_to_best:
                _restore(params, best_snap)
            entry = {"epoch": epoch, "loss": mean_loss, **fields, "lr": optimizer.lr}
            history.append(entry)
            log_file.write(json.dumps(entry, sort_keys=True) + "\n")
            if decision.stop or stop:
                break
    _restore(params, best_snap)
    return best_metric, history


# ---------------------------------------------------------------------------
# Embedding training


def train_embed(cfg: ExperimentConfig, outdir: str) -> dict:
    seed = cfg.seed
    objective = Objective(cfg)
    objective.check_schedule()
    kind = objective.kind
    if kind != "classifier":
        objective.check_strategy(kind)
    min_f, max_f = _frame_window(cfg)
    os.makedirs(outdir, exist_ok=True)
    ds = load_dataset(cfg)
    use_augment = cfg.getbool("training", "spec_augment")

    train_segments = collect_segments(ds.train, ds.train_align, min_f, max_f)
    if not train_segments:
        raise DataError("no admissible segments; check the frame-length window")
    dev_segments(ds, min_f, max_f)
    train_labels = sorted({s.label for _, s in train_segments})
    if kind == "triplet" and len(train_labels) < 2:
        # a negative needs another word
        raise DataError("triplet training needs segments of at least two words")

    input_dim = ds.train[0].dim
    init_rng = component_rng(seed, "init")
    f = build_acoustic_encoder(cfg, input_dim, init_rng)
    params = f.parameters()
    g = None
    if kind == "multiview":
        g = build_written_encoder(cfg, ds, train_labels, f, init_rng)
        params = params + g.parameters()
    elif kind == "classifier" and f.config.embed_dim != len(train_labels):
        raise ConfigError(
            f"classifier objective needs [encoder] embed_dim = vocabulary size ({len(train_labels)})"
        )
    if objective.contextual and kind != "multiview":
        # contextual batches are utterances, which only the multi-view loss trains on
        raise ConfigError(f"[objective] contextual = true needs kind multiview, not {kind!r}")

    rngs = {name: component_rng(seed, name) for name in ("sampling", "dropout", "augment", "spans")}
    label_index = {w: i for i, w in enumerate(train_labels)}
    confusion = obj.ConfusionMatrix(len(train_labels), objective.confusion_threshold) \
        if (kind == "triplet" and objective.strategy == "confusion") else None
    by_label: dict = {}
    for idx, (_, s) in enumerate(train_segments):
        by_label.setdefault(s.label, []).append(idx)

    def batch_loss(batch_ids, batches_done):
        if kind == "triplet":
            return _triplet_batch_loss(objective, f, train_segments, batch_ids, by_label, label_index,
                                       confusion, rngs)
        if objective.contextual:
            fms = [ds.train[i] for i in batch_ids]
            aligns = [ds.train_align[fm.utterance_id] for fm in fms]
            if use_augment:
                fms = [cp.spec_augment(fm, al, rngs["augment"]) for fm, al in zip(fms, aligns)]
            out, _ = f.encode([fm.frames for fm in fms], train=True, rng=rngs["dropout"])
            if objective.spans:
                aligns = [cp.merge_spans(al, rngs["spans"]) for al in aligns]
            items, labels = word_span_items([al.entries for al in aligns], min_f, max_f)
            if not items:
                return ad.constant(0.0)
            acoustic = f.span_embeddings(out, items)
        else:
            frames = _segment_frames(train_segments[i] for i in batch_ids)
            acoustic = f.embed_segments_isolated(frames, train=True, rng=rngs["dropout"])
            labels = [train_segments[i][1].label for i in batch_ids]
        if kind == "classifier":
            ids = [label_index[v] for v in labels]
            return ad.scale(obj.cross_entropy_batch(acoustic, ids), 1.0 / len(batch_ids))
        return objective.multiview_loss(acoustic, labels, g, ds.lexicon, train_labels,
                                        objective.k_at(batches_done), rngs["sampling"])

    def evaluate():
        ap = dev_ap(f, g, objective, ds, min_f, max_f, cfg.threads)
        if confusion is not None:
            confusion.reset()
        acoustic, xv = ap["acoustic_ap"], ap.get("cross_view_ap")
        metric = acoustic if xv is None else xv
        return metric, {"acoustic_ap": acoustic, "cross_view_ap": xv, "metric": metric}, False

    if objective.contextual:
        lengths = [fm.num_frames for fm in ds.train]
    else:
        lengths = [s.length for _, s in train_segments]
    best_metric, history = train_epochs(cfg, outdir, params, lengths, batch_loss, evaluate, "max")

    ckpt = os.path.join(outdir, "embed.cadp")
    meta = {
        "version": SCHEMA_VERSION,
        "model": "embed",
        "objective": kind,
        "input_dim": input_dim,
        "config": cfg.resolved(),
        "train_labels": train_labels,
    }
    save_model(ckpt, params, meta)
    report = {
        "checkpoint": ckpt,
        "best_metric": best_metric,
        "epochs_run": len(history),
        "final": history[-1] if history else None,
        "config": cfg.resolved(),
        "version": SCHEMA_VERSION,
    }
    _dump_json(os.path.join(outdir, "train_report.json"), report)
    return report


def _triplet_batch_loss(objective, f, train_segments, batch_ids, by_label, label_index, confusion, rngs):
    """Siamese triplets: anchors paired with a same-word segment and a
    sampled different-word segment (uniform, confusion-PMF, or the most
    offending of k uniform candidates). Each pair also contributes its
    mirrored triplet."""
    sample_rng = rngs["sampling"]
    all_labels = list(by_label)  # in order of first appearance
    sorted_labels = list(label_index)  # the confusion matrix's label order
    triplets = []  # (anchor_idx, same_idx, [negative idxs])
    seg_ids = set()
    for i in batch_ids:
        label = train_segments[i][1].label
        pool = by_label[label]
        if len(pool) < 2:
            continue
        j = i
        while j == i:
            j = pool[int(sample_rng.integers(0, len(pool)))]
        if objective.strategy == "confusion":
            lab = sorted_labels[confusion.sample_different(label_index[label], sample_rng)]
            negs = [by_label[lab][int(sample_rng.integers(0, len(by_label[lab])))]]
        else:  # uniform: one draw; offending: k draws
            negs = []
            for _ in range(objective.k if objective.strategy == "offending" else 1):
                lab = label
                while lab == label:
                    lab = all_labels[int(sample_rng.integers(0, len(all_labels)))]
                negs.append(by_label[lab][int(sample_rng.integers(0, len(by_label[lab])))])
        triplets.append((i, j, negs))
        seg_ids.update([i, j], negs)
    if not triplets:
        return ad.constant(0.0)
    seg_ids = sorted(seg_ids)
    row = {s: r for r, s in enumerate(seg_ids)}
    frames = _segment_frames(train_segments[s] for s in seg_ids)
    embs = f.embed_segments_isolated(frames, train=True, rng=rngs["dropout"])
    margin = objective.margin
    losses = []
    for a, s, negs in triplets:
        ea = ad.getitem(embs, row[a])
        es = ad.getitem(embs, row[s])
        if len(negs) == 1:
            ed = ad.getitem(embs, row[negs[0]])
            losses.append(obj.cos_hinge_triplet(ea, es, ed, margin))
            losses.append(obj.cos_hinge_triplet(es, ea, ed, margin))
        else:
            nd = ad.getitem(embs, np.array([row[n] for n in negs], dtype=np.intp))
            losses.append(obj.most_offending_triplet(ea, es, nd, margin))
            losses.append(obj.most_offending_triplet(es, ea, nd, margin))
        if confusion is not None:
            la = label_index[train_segments[a][1].label]
            ld = label_index[train_segments[negs[0]][1].label]
            confusion.update(la, ld, embs.values[row[a]], embs.values[row[s]], embs.values[row[negs[0]]])
    total = losses[0]
    for piece in losses[1:]:
        total = ad.add(total, piece)
    return ad.scale(total, 1.0 / len(losses))


# ---------------------------------------------------------------------------
# Evaluation pipelines


def eval_ap(cfg: ExperimentConfig, checkpoint: str, out_path: str) -> dict:
    """Acoustic (and, for multi-view models, cross-view) AP on the dev set."""
    min_f, max_f = _frame_window(cfg)
    f, g, _, train_cfg = rebuild_embed_model(checkpoint)
    ds = load_dataset(cfg)
    dev_segments(ds, min_f, max_f)
    report = dev_ap(f, g, Objective(train_cfg), ds, min_f, max_f, cfg.threads)
    report.update({"config": cfg.resolved(), "version": SCHEMA_VERSION})
    _write_report(out_path, report)
    return report


def dtw_ap(cfg: ExperimentConfig, out_path: str) -> dict:
    """DTW-on-raw-features AP over the same dev pairs (both with and
    without path-length normalization, since either convention appears
    in practice)."""
    min_f, max_f = _frame_window(cfg)
    ds = load_dataset(cfg)
    segments = dev_segments(ds, min_f, max_f)
    frames = _segment_frames(segments)
    labels = np.array([s.label for _, s in segments])
    lengths = np.array([len(x) for x in frames])
    first, second = np.triu_indices(len(frames), 1)  # the pairs i < j, row-major
    same = labels[first] == labels[second]

    # chunks of pairs sorted by length pad little; results go back to pair order
    order = np.lexsort((lengths[second], lengths[first]))
    pairs = [(frames[first[p]], frames[second[p]]) for p in order]
    chunks = [pairs[i : i + 2000] for i in range(0, len(pairs), 2000)]
    # one pass gives both the raw costs and the path-length normalized ones
    out = parallel_map(dtw_mod.dtw_cost_batch, chunks, cfg.threads)
    raw, steps = np.empty(len(pairs)), np.empty(len(pairs), dtype=np.int64)
    raw[order], steps[order] = (np.concatenate(a) for a in zip(*out))
    norm = raw / steps
    report = {
        "dtw_ap": mx.average_precision(raw, same),
        "dtw_ap_path_normalized": mx.average_precision(norm, same),
        "num_pairs": len(pairs),
        "config": cfg.resolved(),
        "version": SCHEMA_VERSION,
    }
    _write_report(out_path, report)
    return report


def _write_report(out_path, report: dict):
    _dump_json(out_path, report)
    tsv = os.path.splitext(out_path)[0] + ".tsv"
    with cp.open_artifact(tsv) as fh:
        fh.write("key\tvalue\n")
        for k, v in sorted(report.items()):
            if isinstance(v, (int, float, str)) or v is None:
                fh.write(f"{k}\t{v}\n")


# ---------------------------------------------------------------------------
# Query-by-example pipelines


def _window_config(cfg: ExperimentConfig) -> srch.WindowConfig:
    return srch.WindowConfig(cfg.getints("search", "window_sizes") or srch.default_window_sizes(),
                             cfg.getint("search", "stride"))


def build_search_index(cfg: ExperimentConfig, checkpoint: str, archive_path: str, out_path: str) -> dict:
    f, _, _, _ = rebuild_embed_model(checkpoint)
    fms = cp.load_feature_archive(archive_path)
    wcfg = _window_config(cfg)
    windows = [srch.generate_windows(fm.num_frames, wcfg) for fm in fms]
    refs = [srch.SegmentKey(fm.utterance_id, start, size)
            for fm, wins in zip(fms, windows) for start, size in wins]
    if not refs:
        raise DataError("no windows generated; utterances shorter than the smallest window?")
    jobs = [(fm.frames, [(s, s + size) for s, size in wins]) for fm, wins in zip(fms, windows) if wins]
    index = srch.build_index(np.concatenate(_embed_utterance_spans(f, jobs, cfg.threads), axis=0), refs,
                             bits=cfg.getint("search", "bits"),
                             permutations=cfg.getint("search", "permutations"),
                             seed=cfg.seed)
    srch.save_index(out_path, index)
    report = {"index": str(out_path), "num_segments": len(refs),
              "num_utterances": len(fms), "config": cfg.resolved(), "version": SCHEMA_VERSION}
    _write_report(str(out_path) + ".report.json", report)
    return report


def query_search_index(cfg: ExperimentConfig, checkpoint: str, index_path: str,
                       query_archive: str, query_align_path: str, out_path: str,
                       truth_align_path: str | None = None,
                       search_archive: str | None = None) -> dict:
    """Score every query against every indexed utterance.

    Queries are embedded in batches with ``embed_frames``. Each query's
    candidate windows and their cosine scores come from beamwidth lookup
    in the permuted index (with [search] exhaustive = true the beam covers
    every window); each utterance's score is its best admissible window's
    score, -1 when it contributed none (``search.utterance_scores``). With
    ground-truth alignments for the search collection, FOM / OTWV / P@10
    and the decision metrics are reported, aggregated per query type
    (median and max)."""
    f, _, _, _ = rebuild_embed_model(checkpoint)
    index = srch.load_index(index_path)
    wcfg = _window_config(cfg)
    beam = cfg.getint("search", "beamwidth")
    exhaustive = cfg.getbool("search", "exhaustive")
    queries = cp.load_feature_archive(query_archive)
    q_align = cp.load_alignments(query_align_path)
    utt_ids = sorted({r.utterance_id for r in index.refs})
    utt_pos = {u: i for i, u in enumerate(utt_ids)}
    entry_utt = np.array([utt_pos[r.utterance_id] for r in index.refs], dtype=np.intp)
    entry_size = np.array([r.size for r in index.refs], dtype=np.intp)
    q_embs = embed_frames(f, [q.frames for q in queries], cfg.threads)
    lookup_beam = index.size if exhaustive else beam
    # each lookup is a few small numpy calls that hold the interpreter lock:
    # a thread pool would only add hand-off, so they run on this thread
    size_slots = max(entry_size.max(), wcfg.sizes[-1]) + 1  # admissibility is a table by window size
    results = []
    for q_fm, q_emb in zip(queries, q_embs):
        admissible = np.zeros(size_slots, dtype=bool)
        admissible[list(wcfg.admissible_sizes(q_fm.num_frames))] = True
        hits = srch.query_index(q_emb, index, lookup_beam)
        results.append(srch.utterance_scores(hits, entry_utt, entry_size, admissible, len(utt_ids)))
    score_matrix = np.stack([r[0] for r in results])
    q_ids = [q.utterance_id for q in queries]
    q_terms = {q.utterance_id: " ".join(v for _, _, v in q_align[q.utterance_id].entries) for q in queries}

    report = {"num_queries": len(q_ids), "num_utterances": len(utt_ids),
              "beamwidth": beam, "exhaustive": exhaustive,
              "config": cfg.resolved(), "version": SCHEMA_VERSION}
    hits_path = os.path.splitext(out_path)[0] + "_hits.tsv"
    with cp.open_artifact(hits_path) as fh:
        fh.write("query\tutterance\tscore\twindow_start\twindow_size\n")
        for qi, q in enumerate(q_ids):
            order = np.argsort(-score_matrix[qi], kind="stable")
            for pos in order[:20]:
                win = results[qi][1][pos]
                ws, wz = (index.refs[win].start, index.refs[win].size) if win >= 0 else ("", "")
                fh.write(f"{q}\t{utt_ids[pos]}\t{score_matrix[qi][pos]:.6f}\t{ws}\t{wz}\n")

    if truth_align_path:
        truth_align = cp.load_alignments(truth_align_path)
        hours = 0.0
        if search_archive:
            fms = cp.load_feature_archive(search_archive)
            hours = sum(fm.num_frames / fm.frames_per_second for fm in fms) / 3600.0
        hours = hours or 1.0
        labels = [[v for _, _, v in truth_align[u].entries] for u in utt_ids]
        # one truth row per distinct query term, shared by the term's queries
        contains = {t: [_contains_subsequence(ls, t.split(" ")) for ls in labels]
                    for t in set(q_terms.values())}
        truth = np.array([contains[q_terms[q]] for q in q_ids], dtype=bool).reshape(len(q_ids), len(utt_ids))
        qrs = mx.QueryResultSet(q_ids, utt_ids, score_matrix, truth, q_terms, hours)
        fom_q = mx.fom_per_query(qrs)
        otwv_q = mx.otwv_per_query(qrs)
        p10_q = mx.p_at_k_per_query(qrs, 10)
        report["fom"] = mx.fom(qrs, per_query=fom_q)
        report["otwv"] = mx.otwv(qrs, per_query=otwv_q)
        report["p_at_10"] = mx.p_at_k(qrs, 10, per_query=p10_q)
        report["fom_median_mean"], report["fom_max_mean"] = mx.aggregate_median_max(fom_q, qrs.query_types)
        report["otwv_median_mean"], report["otwv_max_mean"] = mx.aggregate_median_max(otwv_q, qrs.query_types)
        report["p10_median_mean"], report["p10_max_mean"] = mx.aggregate_median_max(p10_q, qrs.query_types)
        flat_scores = score_matrix.ravel()
        flat_truth = truth.ravel()
        if flat_truth.any() and not flat_truth.all():
            report["min_cnxe"] = mx.min_cnxe(flat_scores, flat_truth)
            report["max_twv"] = mx.max_twv(flat_scores, flat_truth)
    _write_report(out_path, report)
    return report


def _contains_subsequence(labels, term):
    if len(term) == 1:
        return term[0] in labels
    for i in range(len(labels) - len(term) + 1):
        if labels[i : i + len(term)] == term:
            return True
    return False
