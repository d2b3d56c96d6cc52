"""Command-line frontend.

Subcommands cover the full pipeline: synthetic corpus generation,
embedding training, word-discrimination evaluation, the DTW baseline,
index build and query-by-example search, recognizer training, decoding,
and embedding export. Every command takes --seed (mandatory unless the
config file sets one), --threads, and --preset; results are deterministic
given (config, seed, inputs).

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numeric error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus as cp
from . import ctc, encoders, nn, pipelines, recognition, search, segmental, synth
from .config import ConfigError, ExperimentConfig

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", default=None, help="experiment config file (key=value INI)")
    parser.add_argument("--preset", default=None, help="named hyperparameter preset")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    parser.add_argument("--threads", type=int, default=None, help="worker threads for the DTW baseline (dtw-ap)")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override any config value")


def _load_config(args) -> ExperimentConfig:
    overrides = {}
    for item in args.set:
        key, _, value = item.partition("=")
        section, _, name = key.partition(".")
        if not (section and name and _):
            raise ConfigError(f"bad --set {item!r}; expected SECTION.KEY=VALUE")
        overrides[(section, name)] = value
    if args.seed is not None:
        overrides[("run", "seed")] = str(args.seed)
    if args.threads is not None:
        overrides[("run", "threads")] = str(args.threads)
    cfg = ExperimentConfig.load(args.config, preset=args.preset, overrides=overrides)
    cfg.seed  # force the mandatory-seed check
    return cfg


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="awekit", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make-synth", help="generate a seeded synthetic corpus")
    _common(mk)
    mk.add_argument("--out", required=True)
    mk.add_argument("--vocab", type=int, default=30)
    mk.add_argument("--dim", type=int, default=12)
    mk.add_argument("--speakers", type=int, default=10)
    mk.add_argument("--noise", type=float, default=0.65)
    mk.add_argument("--jitter", type=float, default=0.25)
    mk.add_argument("--speaker-scale", type=float, default=0.5)
    mk.add_argument("--min-duration", type=int, default=22)
    mk.add_argument("--max-duration", type=int, default=42)
    mk.add_argument("--min-words", type=int, default=1)
    mk.add_argument("--max-words", type=int, default=1)
    mk.add_argument("--train", type=int, default=500)
    mk.add_argument("--eval", type=int, default=200)

    te = sub.add_parser("train-embed", help="train embedding models")
    _common(te)
    te.add_argument("--out", required=True)

    ea = sub.add_parser("eval-ap", help="word-discrimination AP of a checkpoint")
    _common(ea)
    ea.add_argument("--checkpoint", required=True)
    ea.add_argument("--out", required=True)

    da = sub.add_parser("dtw-ap", help="DTW-on-raw-features AP baseline")
    _common(da)
    da.add_argument("--out", required=True)

    ix = sub.add_parser("index", help="build a search index over windowed segments")
    _common(ix)
    ix.add_argument("--checkpoint", required=True)
    ix.add_argument("--archive", required=True)
    ix.add_argument("--out", required=True)

    q = sub.add_parser("query", help="query an index and report search metrics")
    _common(q)
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--index", required=True)
    q.add_argument("--queries", required=True)
    q.add_argument("--query-align", required=True)
    q.add_argument("--truth-align", default=None, help="search-collection alignments for metrics")
    q.add_argument("--search-archive", default=None, help="search collection (for total hours)")
    q.add_argument("--out", required=True)

    ta = sub.add_parser("train-asr", help="train a CTC or segmental recognizer")
    _common(ta)
    ta.add_argument("--out", required=True)

    de = sub.add_parser("decode", help="decode an archive and score WER")
    _common(de)
    de.add_argument("--checkpoint", required=True)
    de.add_argument("--archive", required=True)
    de.add_argument("--align", default=None, help="reference alignments for WER")
    de.add_argument("--extend-words", default=None, help="file of words to add before UNK rescoring")
    de.add_argument("--out", required=True)

    ex = sub.add_parser("export-embeddings", help="dump segment embeddings as TSV")
    _common(ex)
    ex.add_argument("--checkpoint", required=True)
    ex.add_argument("--archive", required=True)
    ex.add_argument("--align", default=None)
    ex.add_argument("--out", required=True)
    return p


def run(args) -> dict:
    if args.command == "make-synth":
        cfg = _load_config(args)
        spec = synth.SyntheticSpec(
            vocab_size=args.vocab, dim=args.dim, num_speakers=args.speakers,
            noise=args.noise, duration_jitter=args.jitter, speaker_scale=args.speaker_scale,
            base_duration=(args.min_duration, args.max_duration),
            words_per_utterance=(args.min_words, args.max_words),
            num_train=args.train, num_eval=args.eval,
        )
        corpus = synth.generate_corpus(spec, cfg.seed)
        paths = synth.write_corpus(corpus, args.out)
        print(json.dumps(paths, indent=1, sort_keys=True))
        return paths
    cfg = _load_config(args)
    if args.command == "train-embed":
        report = pipelines.train_embed(cfg, args.out)
    elif args.command == "eval-ap":
        report = pipelines.eval_ap(cfg, args.checkpoint, args.out)
    elif args.command == "dtw-ap":
        report = pipelines.dtw_ap(cfg, args.out)
    elif args.command == "index":
        report = pipelines.build_search_index(cfg, args.checkpoint, args.archive, args.out)
    elif args.command == "query":
        report = pipelines.query_search_index(
            cfg, args.checkpoint, args.index, args.queries, args.query_align,
            args.out, truth_align_path=args.truth_align, search_archive=args.search_archive)
    elif args.command == "train-asr":
        report = recognition.train_asr(cfg, args.out)
    elif args.command == "decode":
        report = recognition.decode_archive(cfg, args.checkpoint, args.archive, args.out,
                                            align_path=args.align,
                                            extend_words_path=args.extend_words)
    else:  # export-embeddings; argparse admits no other command
        report = recognition.export_embeddings(args.checkpoint, args.archive, args.out,
                                               align_path=args.align)
    summary = {k: v for k, v in report.items() if isinstance(v, (int, float, str))}
    print(json.dumps(summary, indent=1, sort_keys=True))
    return report


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (pipelines.DataError, cp.CorpusError, nn.CheckpointError, search.SearchError,
            ctc.CtcError, segmental.SegmentalError, encoders.EncoderError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, ZeroDivisionError, OverflowError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
