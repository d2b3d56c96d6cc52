"""The three benchmark workloads.

Each workload generates its corpus from the run's seed, trains or
evaluates through awekit's public pipeline functions, and checks every
stage's outputs. A stage call is one operation: it fails when it raises
or when a check on its outputs fails.

- ``embed-train``: ``train_embed`` with the ``ch5-multiview`` preset. The
  recurrent forward pass and tape backward do most of the work.
- ``qbe-eval``: ``eval_ap``, ``dtw_ap``, ``build_search_index`` and
  ``query_search_index`` at two threads. The encoder runs forward only,
  one utterance or query per call; DTW and the search index run only here.
- ``asr-train``: CTC and segmental ``train_asr`` plus ``decode_archive``.
  The LSTM runs over whole utterances; CTC, the segmental DP and Viterbi
  run only here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

from awekit import corpus as cp
from awekit import pipelines, recognition, search, synth
from awekit.config import ExperimentConfig

# Training stages run a fixed epoch count; the ch5-multiview scheduler
# (patience 5) cannot stop them early, and a check confirms it.
EMBED_EPOCHS = 2
SETUP_EPOCHS = 1
ASR_EPOCHS = 1
# One eval_ap call takes about half a second, too short to be steady as a
# single sample, so each round repeats it.
EVAL_AP_REPEATS = 3

# The criterion-8 recognition corpus and recognizer architecture.
ASR_SPEC = synth.SyntheticSpec(vocab_size=40, num_train=300, num_eval=60,
                               words_per_utterance=(1, 3), noise=0.3, speaker_scale=0.3)
ASR_ARCH = {("encoder", "cell"): "lstm", ("encoder", "layers"): "2", ("encoder", "hidden"): "96",
            ("encoder", "embed_dim"): "48", ("encoder", "subsample"): "3",
            ("written", "hidden"): "96", ("written", "mode"): "char",
            ("training", "batch_size"): "8", ("optimizer", "kind"): "adam",
            ("recognizer", "training_mode"): "baseline", ("recognizer", "s_max"): "20"}
ASR_KINDS = (("ctc", "mean", "0.003"), ("segmental", "concat", "0.001"))

HITS_PER_QUERY = 20


@dataclass(frozen=True)
class Sizes:
    """Corpus shapes: the full benchmark, or a tiny one for smoke tests."""

    embed: synth.SyntheticSpec = synth.SyntheticSpec()
    asr: synth.SyntheticSpec = ASR_SPEC


FULL = Sizes()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def unit_interval(**values) -> list[str]:
    return [f"{k} = {v!r} is not in [0, 1]" for k, v in values.items()
            if not (isinstance(v, (int, float)) and 0.0 <= v <= 1.0)]


def finite_losses(entries) -> list[str]:
    return [f"epoch {e['epoch']}: loss {e['loss']!r} is not finite"
            for e in entries if not math.isfinite(e["loss"])]


def read_log(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def make_corpus(spec, seed: int, out: str) -> dict:
    paths = synth.write_corpus(synth.generate_corpus(spec, seed), out)
    paths["digest"] = sha256_json({k: sha256_file(p) for k, p in sorted(paths.items())})
    return paths


def config(paths: dict, seed: int, threads: int, preset=None, **overrides) -> ExperimentConfig:
    values = {("data", k): paths[k] for k in ("train", "train_align", "dev", "dev_align", "lexicon")}
    values[("run", "seed")] = str(seed)
    values[("run", "threads")] = str(threads)
    for key, v in overrides.items():
        values[tuple(key.split("."))] = str(v)
    return ExperimentConfig.load(None, preset=preset, overrides=values)


def embed_config(paths, seed, threads, epochs):
    return config(paths, seed, threads, preset="ch5-multiview", **{"training.epochs": epochs})


def check_train_embed(rep: dict, outdir: str, epochs: int) -> list[str]:
    problems = []
    if rep["epochs_run"] != epochs:
        problems.append(f"epochs_run {rep['epochs_run']} != {epochs}")
    problems += finite_losses(read_log(os.path.join(outdir, "train_log.jsonl")))
    final = rep["final"]
    problems += unit_interval(acoustic_ap=final["acoustic_ap"], cross_view_ap=final["cross_view_ap"])
    return problems


def dev_segment_count(paths: dict, cfg: ExperimentConfig) -> int:
    lo, hi = cfg.getint("training", "min_frames"), cfg.getint("training", "max_frames")
    return sum(lo <= e - s <= hi for al in cp.load_alignments(paths["dev_align"]).values()
               for s, e, _ in al.entries)


def window_count(num_frames: int, stride: int) -> int:
    return sum((num_frames - size) // stride + 1
               for size in search.default_window_sizes() if size <= num_frames)


def index_entries(path) -> int:
    """Entry count from a CADI header: magic, then <IIIqII> whose fifth
    field is N."""
    with open(path, "rb") as fh:
        head = fh.read(4 + struct.calcsize("<IIIqII"))
    return struct.unpack_from("<IIIqII", head, 4)[4]


def hits_per_query(path) -> dict:
    rows: dict = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            q = line.split("\t", 1)[0]
            rows[q] = rows.get(q, 0) + 1
    return rows


class Workload:
    """One workload: ``setup`` builds the inputs, ``round`` runs every
    timed stage once through ``run.stage``."""

    name = ""
    threads = 1
    timings: tuple = ()  # stage-time metrics, in the order a round runs them
    qualities: tuple = ()

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def setup(self, run, seed: int, out: str) -> dict:
        raise NotImplementedError

    def round(self, run, ctx: dict, out: str):
        raise NotImplementedError


class EmbedTrain(Workload):
    name = "embed-train"
    threads = 1
    timings = ("embed_epoch_s",)
    qualities = ("acoustic_ap", "cross_view_ap")

    def setup(self, run, seed, out):
        paths = make_corpus(self.sizes.embed, seed, os.path.join(out, "corpus"))
        run.digest("setup.corpus", paths["digest"])
        return {"seed": seed, "paths": paths}

    def round(self, run, ctx, out):
        cfg = embed_config(ctx["paths"], ctx["seed"], self.threads, EMBED_EPOCHS)
        outdir = os.path.join(out, "embed")
        rep, wall = run.stage("train_embed", lambda: pipelines.train_embed(cfg, outdir),
                              lambda r: check_train_embed(r, outdir, EMBED_EPOCHS))
        if rep is None:
            return
        run.sample("embed_epoch_s", wall / rep["epochs_run"])
        run.quality("acoustic_ap", rep["final"]["acoustic_ap"])
        run.quality("cross_view_ap", rep["final"]["cross_view_ap"])
        run.digest("embed.cadp", sha256_file(rep["checkpoint"]))
        run.digest("embed.train_log", sha256_file(os.path.join(outdir, "train_log.jsonl")))


class QbeEval(Workload):
    name = "qbe-eval"
    threads = 2
    timings = ("eval_ap_s", "dtw_ap_s", "index_s", "query_s")
    qualities = ("qbe_fom",)

    def setup(self, run, seed, out):
        paths = make_corpus(self.sizes.embed, seed, os.path.join(out, "corpus"))
        run.digest("setup.corpus", paths["digest"])
        cfg = embed_config(paths, seed, 1, SETUP_EPOCHS)
        rep = pipelines.train_embed(cfg, os.path.join(out, "embed"))
        problems = check_train_embed(rep, os.path.join(out, "embed"), SETUP_EPOCHS)
        if problems:
            raise RuntimeError("setup checkpoint failed its checks: " + "; ".join(problems))
        run.digest("setup.checkpoint", sha256_file(rep["checkpoint"]))
        return {"seed": seed, "paths": paths, "checkpoint": rep["checkpoint"]}

    def round(self, run, ctx, out):
        paths, ckpt = ctx["paths"], ctx["checkpoint"]
        cfg = embed_config(paths, ctx["seed"], self.threads, SETUP_EPOCHS)

        def check_ap(r):
            return unit_interval(acoustic_ap=r["acoustic_ap"], cross_view_ap=r["cross_view_ap"])

        for _ in range(EVAL_AP_REPEATS):
            rep, wall = run.stage("eval_ap", lambda: pipelines.eval_ap(cfg, ckpt, os.path.join(out, "ap.json")),
                                  check_ap)
            if rep is not None:
                run.sample("eval_ap_s", wall)
                run.digest("eval_ap.values", sha256_json([rep["acoustic_ap"], rep["cross_view_ap"]]))

        n = dev_segment_count(paths, cfg)

        def check_dtw(r):
            problems = unit_interval(dtw_ap=r["dtw_ap"], dtw_ap_path_normalized=r["dtw_ap_path_normalized"])
            if r["num_pairs"] != n * (n - 1) // 2:
                problems.append(f"num_pairs {r['num_pairs']} != {n * (n - 1) // 2}")
            return problems

        rep, wall = run.stage("dtw_ap", lambda: pipelines.dtw_ap(cfg, os.path.join(out, "dtw.json")), check_dtw)
        if rep is not None:
            run.sample("dtw_ap_s", wall)
            run.digest("dtw_ap.values", sha256_json([rep["dtw_ap"], rep["dtw_ap_path_normalized"]]))

        index_path = os.path.join(out, "dev.cadi")
        dev = cp.load_feature_archive(paths["dev"])
        stride = cfg.getint("search", "stride")
        windows = sum(window_count(fm.num_frames, stride) for fm in dev)

        def check_index(r):
            problems = []
            if r["num_segments"] != windows:
                problems.append(f"report has {r['num_segments']} entries for {windows} windows")
            if index_entries(index_path) != windows:
                problems.append(f"index file has {index_entries(index_path)} entries for {windows} windows")
            return problems

        rep, wall = run.stage("build_search_index",
                              lambda: pipelines.build_search_index(cfg, ckpt, paths["dev"], index_path),
                              check_index)
        if rep is not None:
            run.sample("index_s", wall)

        qbe_path = os.path.join(out, "qbe.json")
        hits_path = os.path.join(out, "qbe_hits.tsv")
        per_query = min(HITS_PER_QUERY, len(dev))

        def check_query(r):
            problems = unit_interval(fom=r.get("fom"))
            rows = hits_per_query(hits_path)
            if len(rows) != len(dev):
                problems.append(f"hits for {len(rows)} queries, expected {len(dev)}")
            bad = sorted(q for q, c in rows.items() if c != per_query)
            if bad:
                problems.append(f"{len(bad)} queries without {per_query} hits, e.g. {bad[0]}")
            return problems

        rep, wall = run.stage("query_search_index",
                              lambda: pipelines.query_search_index(
                                  cfg, ckpt, index_path, paths["dev"], paths["dev_align"], qbe_path,
                                  truth_align_path=paths["dev_align"], search_archive=paths["dev"]),
                              check_query)
        if rep is not None:
            run.sample("query_s", wall)
            run.quality("qbe_fom", rep["fom"])
            run.digest("qbe_hits.tsv", sha256_file(hits_path))


class AsrTrain(Workload):
    name = "asr-train"
    threads = 1
    timings = ("ctc_epoch_s", "seg_epoch_s", "decode_s")
    qualities = ("ctc_wer", "seg_wer")

    def setup(self, run, seed, out):
        paths = make_corpus(self.sizes.asr, seed, os.path.join(out, "corpus"))
        run.digest("setup.corpus", paths["digest"])
        return {"seed": seed, "paths": paths}

    def round(self, run, ctx, out):
        paths, seed = ctx["paths"], ctx["seed"]
        n_dev = len(cp.load_alignments(paths["dev_align"]))
        decode_wall = []
        for kind, pooling, lr in ASR_KINDS:
            short = "ctc" if kind == "ctc" else "seg"
            o = {".".join(k): v for k, v in ASR_ARCH.items()}
            o.update({"encoder.pooling": pooling, "optimizer.lr": lr, "recognizer.kind": kind,
                      "training.epochs": ASR_EPOCHS})
            cfg = config(paths, seed, self.threads, **o)
            outdir = os.path.join(out, kind)

            def check_train(r):
                problems = finite_losses(r["history"])
                if r["epochs_run"] != ASR_EPOCHS:
                    problems.append(f"epochs_run {r['epochs_run']} != {ASR_EPOCHS}")
                return problems + unit_interval(**{f"epoch {h['epoch']} dev_wer": h["dev_wer"]
                                                   for h in r["history"]})

            rep, wall = run.stage(f"train_asr.{kind}", lambda: recognition.train_asr(cfg, outdir), check_train)
            if rep is None:
                continue
            run.sample(f"{short}_epoch_s", wall / rep["epochs_run"])
            run.digest(f"{kind}.cadp", sha256_file(rep["checkpoint"]))

            dec_path = os.path.join(out, f"dec_{kind}.json")
            hyp_path = os.path.join(out, f"dec_{kind}_hyp.tsv")

            def check_decode(r, hyp_path=hyp_path):
                with open(hyp_path, encoding="utf-8") as fh:
                    lines = sum(1 for line in fh if not line.startswith("#"))
                problems = unit_interval(wer=r["wer"])
                if lines != n_dev:
                    problems.append(f"{lines} hypotheses for {n_dev} utterances")
                return problems

            ckpt = rep["checkpoint"]
            rep, wall = run.stage(f"decode_archive.{kind}",
                                  lambda: recognition.decode_archive(cfg, ckpt, paths["dev"], dec_path,
                                                                     align_path=paths["dev_align"]),
                                  check_decode)
            if rep is None:
                continue
            decode_wall.append(wall)
            run.quality(f"{short}_wer", rep["wer"])
            run.digest(f"{kind}_hyp.tsv", sha256_file(hyp_path))
        if len(decode_wall) == len(ASR_KINDS):
            run.sample("decode_s", sum(decode_wall))


WORKLOADS = {w.name: w for w in (EmbedTrain, QbeEval, AsrTrain)}
