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
plateau scheduler, reset-to-best on a plateau, ``train_log.jsonl``, and
the best epoch's weights at the end. Each trainer passes in its batch
lengths, its batch loss and its per-epoch dev evaluation. A triplet batch
embeds its segments once and scores every triplet, mirrors included,
from their one cosine distance matrix.

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
from .config import DEFAULTS, PATH, SCHEMA, SCHEMA_VERSION, ConfigError, ExperimentConfig, component_rng


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
    lexicon = cp.load_lexicon(cfg.data_path("lexicon")) if cfg.get("data", "lexicon") else None
    feature_table = cp.load_feature_table(cfg.data_path("feature_table")) if cfg.get("data", "feature_table") else None
    alignments_for(train, train_align)
    alignments_for(dev, dev_align)
    return Dataset(train, train_align, dev, dev_align, lexicon, feature_table)


def alignments_for(utterances, alignments: dict) -> list:
    """The alignment of each of ``utterances``, in order: utterance ids, or
    FrameMatrix objects, whose frames the caller slices by the entries and
    which must cover them. DataError names the first without an alignment."""
    out = []
    for u in utterances:
        uid = getattr(u, "utterance_id", u)
        if uid not in alignments:
            raise DataError(f"no alignment for utterance {uid!r}")
        if not isinstance(u, str):
            alignments[uid].check_bounds(u)
        out.append(alignments[uid])
    return out


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


def written_inventory(cfg: ExperimentConfig, lexicon, feature_table, labels) -> tuple:
    """(symbols, feature table) of a new written encoder: the letters of the
    lexicon's words and ``labels`` (char mode), its symbols (phone) or the table."""
    mode = cfg.get("written", "mode")
    if mode == "char":
        words = [*(lexicon.pronunciations if lexicon is not None else ()), *labels]
        return sorted({ch for w in words for ch in w}), None
    if mode == "phone":
        if lexicon is None:
            raise ConfigError("phone mode needs [data] lexicon")
        return sorted(lexicon.inventory), None
    if feature_table is None:
        raise ConfigError("feature mode needs [data] feature_table")
    return None, feature_table


def build_written_encoder(cfg: ExperimentConfig, inventory: tuple, f: enc.AcousticEncoder, rng):
    """The written encoder over ``inventory``, (symbols, feature table)."""
    wcfg = enc.WrittenEncoderConfig(
        mode=cfg.get("written", "mode"),
        symbol_embed_dim=cfg.getint("written", "symbol_embed_dim"),
        hidden=cfg.getint("written", "hidden"),
        embed_dim=cfg.getint("encoder", "embed_dim"),
    )
    shared = None
    if 2 * wcfg.hidden == f.frame_width and not f.fc:
        shared = (f.proj_w, f.proj_b)
    return enc.WrittenEncoder(wcfg, rng, *inventory, shared_projection=shared)


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


# ---------------------------------------------------------------------------
# Checkpoints

# Each model's metadata fields besides "model", "config" and "written", and their types (a list holds strings)
META_FIELDS = {"embed": {"objective": str, "input_dim": int},
               "asr": {"kind": str, "input_dim": int, "vocab": list, "unk": (str, type(None))}}
# Where a run's inputs were and how many threads it ran change no weight, so a
# checkpoint's config leaves these keys out, and a reload sets them to their defaults.
UNECHOED = {("run", "threads")} | {(s, k) for s, keys in SCHEMA.items() for k, (_, spec) in keys.items()
                                   if spec is PATH}


def checkpoint_meta(model: str, cfg: ExperimentConfig, g, **fields) -> str:
    """A ``model`` ("embed" or "asr") checkpoint's metadata as JSON, keys
    sorted so reruns write the same bytes: its META_FIELDS, the config but
    UNECHOED, and as "written" the written encoder ``g``'s inventory."""
    written = None
    if g is not None and g.feature_table is not None:
        ft = g.feature_table
        written = {"feature_names": list(ft.feature_names), "table": {p: v.tolist() for p, v in ft.table.items()}}
    elif g is not None:
        written = {"symbols": g.symbols}
    config = {s: {k: v for k, v in kv.items() if (s, k) not in UNECHOED} for s, kv in cfg.resolved().items()}
    meta = {"version": SCHEMA_VERSION, "model": model, "config": config, "written": written, **fields}
    return json.dumps(meta, sort_keys=True)


def _meta_type_ok(value, kind) -> bool:
    if kind is list:
        return isinstance(value, list) and all(isinstance(item, str) for item in value)
    return isinstance(value, kind)


def load_model(path, model: str) -> tuple[dict, dict]:
    """(metadata, arrays) of a ``model`` checkpoint, the config reduced to the
    keys of DEFAULTS (removed keys are ignored), "written" to (symbols, feature
    table) or None. CheckpointError when the file holds another model or a
    field is missing or mistyped; ConfigError for a config value off the schema."""
    text, arrays = nn.load_checkpoint(path)
    try:
        meta = json.loads(text)
        if meta.get("model") != model:
            raise nn.CheckpointError(f"{path} holds a {meta.get('model')!r} model; this command needs {model!r}")
        bad = [field for field, kind in META_FIELDS[model].items() if not _meta_type_ok(meta.get(field), kind)]
        config = {s: {k: DEFAULTS[s][k] if (s, k) in UNECHOED else str(meta["config"][s][k]) for k in keys}
                  for s, keys in DEFAULTS.items()}
        written = meta["written"]
        if written is not None and "table" in written:
            written = None, cp.FeatureTable.from_dict(written["feature_names"], written["table"])
        elif written is not None:
            written = written["symbols"], None
            bad += [] if _meta_type_ok(written[0], list) else ["written symbols"]
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError, cp.CorpusError) as e:
        raise nn.CheckpointError(f"{path}: not checkpoint metadata, {e!r}") from e
    if bad:
        raise nn.CheckpointError(f"{path}: no {', '.join(bad)} of the right type")
    try:
        ExperimentConfig(config).check()
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e
    return {**meta, "config": config, "written": written}, arrays


def rebuild_encoders(checkpoint: str, model: str, written: bool):
    """(metadata, arrays, config, acoustic encoder, written encoder) of a ``model``
    checkpoint, unassigned; no written encoder unless ``written`` and it has one."""
    meta, arrays = load_model(checkpoint, model)
    cfg = ExperimentConfig(meta["config"])
    rng = component_rng(cfg.seed, "init")
    f = build_acoustic_encoder(cfg, meta["input_dim"], rng)
    g = build_written_encoder(cfg, meta["written"], f, rng) if written and meta["written"] else None
    return meta, arrays, cfg, f, g


def rebuild_embed_model(checkpoint: str, written: bool = True):
    """(acoustic encoder, written encoder or None, metadata, config) of an
    embedding checkpoint; without ``written`` the g.* arrays are skipped."""
    meta, arrays, cfg, f, g = rebuild_encoders(checkpoint, "embed", written)
    params = f.parameters() + (g.parameters() if g is not None else [])
    nn.assign_from_checkpoint(params, {n: a for n, a in arrays.items() if g is not None or not n.startswith("g.")})
    return f, g, meta, cfg


# ---------------------------------------------------------------------------
# The training objective


class Objective:
    """The [objective] section of a run, read once, with its k schedule
    and the multi-view batch loss."""

    def __init__(self, cfg: ExperimentConfig):
        self.kind = cfg.get("objective", "kind")
        self.contextual = cfg.getbool("objective", "contextual")
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
        ``full_vocab``."""
        vocab_words = obj.batch_vocabulary(labels, full_vocab, self.extras, rng)
        word_embs = g.embed_words(vocab_words, lexicon)
        loss = obj.multiview_loss(acoustic, labels, vocab_words, word_embs, self.margin, k, self.strategy,
                                  self.terms, self.sqrt_variant)
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
    The learning rate follows the plateau scheduler on that metric; the
    first epoch with the best metric is kept, and a metric plateau resets
    to it."""
    optimizer = build_optimizer(cfg)
    scheduler = nn.PlateauScheduler(optimizer.lr, cfg.getint("scheduler", "patience"),
                                    cfg.getfloat("scheduler", "factor"), cfg.getfloat("scheduler", "min_lr"), mode)
    shuffle_rng = component_rng(cfg.seed, "shuffle")
    batch_size = cfg.getint("training", "batch_size")
    best_snap = _snapshot(params)
    best_metric = None
    batches_done = 0
    history = []
    os.makedirs(outdir, exist_ok=True)
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
            optimizer.lr = decision.lr
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
        g = build_written_encoder(cfg, written_inventory(cfg, ds.lexicon, ds.feature_table, train_labels), f,
                                  init_rng)
        params = params + g.parameters()
    elif kind == "classifier" and f.config.embed_dim != len(train_labels):
        raise ConfigError(
            f"classifier objective needs [encoder] embed_dim = vocabulary size ({len(train_labels)})"
        )
    if objective.contextual and kind != "multiview":
        # contextual batches are utterances, which only the multi-view loss trains on
        raise ConfigError(f"[objective] contextual = true needs kind multiview, not {kind!r}")

    rngs = {name: component_rng(seed, name) for name in ("sampling", "dropout", "augment")}
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
    nn.save_checkpoint(ckpt, params, checkpoint_meta("embed", cfg, g, objective=kind, input_dim=input_dim))
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
    seg_ids = np.array(sorted(seg_ids))
    frames = _segment_frames(train_segments[s] for s in seg_ids)
    embs = f.embed_segments_isolated(frames, train=True, rng=rngs["dropout"])
    dist = ad.cosine_distance_matrix(embs, embs)
    # segment ids to rows of embs and dist
    anchors, same = np.searchsorted(seg_ids, [(i, j) for i, j, _ in triplets]).T
    negs = np.searchsorted(seg_ids, [n for _, _, n in triplets])
    if confusion is not None:
        for (i, _, (n,)), ra, rs, rn in zip(triplets, anchors, same, negs[:, 0]):
            confusion.update(label_index[train_segments[i][1].label], label_index[train_segments[n][1].label],
                             dist.values[ra, rs], dist.values[ra, rn])
    # each triplet and its mirror, the same-word segment as anchor
    loss = obj.triplet_loss(dist, np.concatenate([anchors, same]), np.concatenate([same, anchors]),
                            np.concatenate([negs, negs]), objective.margin)
    return ad.scale(loss, 1.0 / (2 * len(triplets)))


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
    f, _, _, _ = rebuild_embed_model(checkpoint, written=False)
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
    in the permuted index (a beam at least the index size takes every
    window); each utterance's score is its best admissible window's
    score, -1 when it contributed none (``search.utterance_scores``). With
    ground-truth alignments for the search collection, FOM / OTWV / P@10
    and the decision metrics are reported, aggregated per query type
    (median and max)."""
    f, _, _, _ = rebuild_embed_model(checkpoint, written=False)
    index = srch.load_index(index_path)
    wcfg = _window_config(cfg)
    beam = cfg.getint("search", "beamwidth")
    queries = cp.load_feature_archive(query_archive)
    q_align = cp.load_alignments(query_align_path)
    utt_ids = sorted({r.utterance_id for r in index.refs})
    utt_pos = {u: i for i, u in enumerate(utt_ids)}
    entry_utt = np.array([utt_pos[r.utterance_id] for r in index.refs], dtype=np.intp)
    entry_size = np.array([r.size for r in index.refs], dtype=np.intp)
    q_embs = embed_frames(f, [q.frames for q in queries], cfg.threads)
    # each lookup is a few small numpy calls that hold the interpreter lock:
    # a thread pool would only add hand-off, so they run on this thread
    size_slots = max(entry_size.max(), wcfg.sizes[-1]) + 1  # admissibility is a table by window size
    results = []
    for q_fm, q_emb in zip(queries, q_embs):
        admissible = np.zeros(size_slots, dtype=bool)
        admissible[list(wcfg.admissible_sizes(q_fm.num_frames))] = True
        hits = srch.query_index(q_emb, index, beam)
        results.append(srch.utterance_scores(hits, entry_utt, entry_size, admissible, len(utt_ids)))
    score_matrix = np.stack([r[0] for r in results])
    q_ids = [q.utterance_id for q in queries]
    q_terms = {u: " ".join(al.labels()) for u, al in zip(q_ids, alignments_for(q_ids, q_align))}
    truth_align = alignments_for(utt_ids, cp.load_alignments(truth_align_path)) if truth_align_path else None
    hours = 0.0
    if truth_align_path and search_archive:  # reduced to its hours at once, before any output
        hours = sum(fm.num_frames / fm.frames_per_second for fm in cp.load_feature_archive(search_archive)) / 3600

    report = {"num_queries": len(q_ids), "num_utterances": len(utt_ids), "beamwidth": beam,
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
        labels = [al.labels() for al in truth_align]
        # one truth row per distinct query term, shared by the term's queries
        contains = {t: [_contains_subsequence(ls, t.split(" ")) for ls in labels]
                    for t in set(q_terms.values())}
        truth = np.array([contains[q_terms[q]] for q in q_ids], dtype=bool).reshape(len(q_ids), len(utt_ids))
        qrs = mx.QueryResultSet(q_ids, utt_ids, score_matrix, truth, q_terms, hours or 1.0)
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
