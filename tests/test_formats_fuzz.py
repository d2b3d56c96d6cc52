"""Seeded byte-flip fuzz of the three binary formats.

A small CADF feature archive, CADP checkpoint and CADI index each get
1-3 random bytes replaced, a few hundred times. Every load must either
succeed or raise the format's documented error, which the CLI maps to
exit code 3; anything else would end in a traceback.
"""

import numpy as np
import pytest

from awekit import corpus, nn, search
from awekit.corpus import FrameMatrix
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


@pytest.mark.parametrize("write", [_cadf, _cadp, _cadi], ids=["cadf", "cadp", "cadi"])
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
