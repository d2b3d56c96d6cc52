"""Seeded byte-flip fuzz of the three binary formats, the three TSV
formats and checkpoint metadata.

A small CADF feature archive, CADP checkpoint, CADI index, alignment,
lexicon and feature-table TSV, and a checkpoint's JSON metadata block each
get 1-3 random bytes replaced, a few hundred times. Every load must either
succeed or raise the format's documented error, which the CLI maps to exit
code 3 (or, for a metadata config value outside the schema, to exit code
2); anything else would end in a traceback. A CRC32 trailer guards each
binary file whole, so a flipped binary file that still loads is a failure
too. The metadata block is sealed into a checkpoint with a matching CRC32
after its flips, so they reach the checks of ``pipelines.load_model``.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from awekit import config, corpus, nn, pipelines, search
from awekit.corpus import FeatureTable, FrameMatrix, Lexicon, WordAlignment
from awekit.search import SegmentKey
from test_nn import checkpoint_bytes

TRIALS = 300


def _cadf(path):
    rng = np.random.default_rng(0)
    corpus.save_feature_archive(path, [FrameMatrix(f"u{i}", rng.standard_normal((4 + i, 3)))
                                       for i in range(3)])
    return corpus.load_feature_archive, corpus.CorpusError


def _cadp(path):
    nn.save_checkpoint(path, [nn.Parameter("enc.w", np.ones((3, 4))), nn.Parameter("b", np.zeros(4)),
                              nn.Parameter("scalar", np.float64(0.5))], '{"model": "embed", "written": null}')
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


def _cadp_metadata(path):
    cfg = config.ExperimentConfig.load(None, preset="ch5-multiview", overrides={("run", "seed"): "1"})
    g = SimpleNamespace(feature_table=None, symbols=["a", "b", "d", "k"])  # a phone-mode written encoder
    path.write_text(pipelines.checkpoint_meta("embed", cfg, g, objective="multiview", input_dim=3), encoding="utf-8")

    def load(p):
        ckpt = p.with_suffix(".cadp")
        ckpt.write_bytes(checkpoint_bytes(p.read_bytes()))
        return pipelines.load_model(ckpt, "embed")

    return load, (nn.CheckpointError, config.ConfigError)


@pytest.mark.parametrize("write", [_cadf, _cadp, _cadi, _alignments, _lexicon, _feature_table, _cadp_metadata],
                         ids=["cadf", "cadp", "cadi", "alignments", "lexicon", "feature-table", "cadp-metadata"])
def test_flipped_bytes_load_or_raise_the_documented_error(tmp_path, write):
    path = tmp_path / "original"
    load, error = write(path)
    load(path)
    data = path.read_bytes()
    crc_guarded = data[:4] in (corpus.ARCHIVE_MAGIC, nn.CHECKPOINT_MAGIC, search.INDEX_MAGIC)
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
            continue
        except Exception as e:  # any other error would end the CLI in a traceback
            pytest.fail(f"bytes {sorted(at.tolist())} of {len(buf)} flipped: {e!r}")
        if crc_guarded:
            pytest.fail(f"bytes {sorted(at.tolist())} of {len(buf)} flipped, and the file loads")
