"""Seeded byte-flip fuzz of the three binary formats, the three TSV
formats and checkpoint metadata.

A small CADF feature archive, CADP checkpoint, CADI index, alignment,
lexicon and feature-table TSV, and a checkpoint's JSON metadata each get
1-3 random bytes replaced, a few hundred times. Every load must either
succeed or raise the format's documented error, which the CLI maps to exit
code 3 (or, for a metadata config value outside the schema, to exit code
2); anything else would end in a traceback.
"""

import json
import shutil

import numpy as np
import pytest

from awekit import config, corpus, nn, pipelines, search
from awekit.corpus import FeatureTable, FrameMatrix, Lexicon, WordAlignment
from awekit.search import SegmentKey

TRIALS = 300


def _cadf(path):
    rng = np.random.default_rng(0)
    corpus.save_feature_archive(path, [FrameMatrix(f"u{i}", rng.standard_normal((4 + i, 3)))
                                       for i in range(3)])
    return corpus.load_feature_archive, corpus.CorpusError


def _cadp(path):
    nn.save_checkpoint(path, [nn.Parameter("enc.w", np.ones((3, 4))), nn.Parameter("b", np.zeros(4)),
                              nn.Parameter("scalar", np.float64(0.5))])
    return nn.load_checkpoint, nn.CheckpointError


def _cadi(path):
    rng = np.random.default_rng(1)
    refs = [SegmentKey(f"u{i % 3}", 5 * i, 12) for i in range(6)]
    search.save_index(path, search.build_index(rng.standard_normal((6, 4)), refs, bits=16,
                                               permutations=2, seed=1))
    return search.load_index, search.SearchError


def _alignments(path):
    corpus.save_alignments(path, [WordAlignment("u0", ((0, 3, "ab"), (5, 12, "cd"))),
                                  WordAlignment("u1", ((2, 9, "ab"),))])
    return corpus.load_alignments, corpus.CorpusError


def _lexicon(path):
    corpus.save_lexicon(path, Lexicon.from_dict({"ab": ("a", "b"), "cd": ("k", "a", "d")}))
    return corpus.load_lexicon, corpus.CorpusError


def _feature_table(path):
    corpus.save_feature_table(path, FeatureTable.from_dict(("voiced", "place=lab", "nasal"), {
        "a": (1, 0, 0), "b": (1, 1, 0), "m": (1, 1, 1)}))
    return corpus.load_feature_table, corpus.CorpusError


def _sidecar(path):
    cfg = config.ExperimentConfig.load(None, preset="ch5-multiview", overrides={("run", "seed"): "1"})
    meta = {"version": config.SCHEMA_VERSION, "model": "embed", "objective": "multiview", "input_dim": 3,
            "config": cfg.resolved(), "train_labels": ["ab", "cd"]}
    path.write_text(json.dumps(meta, indent=1, sort_keys=True), encoding="utf-8")

    def load(p):  # load_model_meta reads <checkpoint>.json
        shutil.copyfile(p, f"{p}.json")
        return pipelines.load_model_meta(p)

    return load, (nn.CheckpointError, config.ConfigError)


@pytest.mark.parametrize("write", [_cadf, _cadp, _cadi, _alignments, _lexicon, _feature_table, _sidecar],
                         ids=["cadf", "cadp", "cadi", "alignments", "lexicon", "feature-table", "sidecar"])
def test_flipped_bytes_load_or_raise_the_documented_error(tmp_path, write):
    path = tmp_path / "original"
    load, error = write(path)
    load(path)
    data = path.read_bytes()
    rng = np.random.default_rng(7)
    mutated = tmp_path / "mutated"
    for _ in range(TRIALS):
        buf = bytearray(data)
        at = rng.choice(len(buf), size=int(rng.integers(1, 4)), replace=False)
        for i in at:
            buf[i] ^= int(rng.integers(1, 256))
        mutated.write_bytes(bytes(buf))
        try:
            load(mutated)
        except error:
            pass
        except Exception as e:  # any other error would end the CLI in a traceback
            pytest.fail(f"bytes {sorted(at.tolist())} of {len(buf)} flipped: {e!r}")
