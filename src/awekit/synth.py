"""Seeded synthetic speech-like corpora for desk-scale experiments.

Each vocabulary word gets a smooth random template trajectory; an
instance is the template linearly time-warped by a duration jitter,
passed through its speaker's affine distortion, plus Gaussian noise.
Alignments are exact by construction. Word labels are random letter
strings, so the written view has real (if arbitrary) symbol structure;
the lexicon maps each word to its letters and a random binary
feature table covers the letter inventory.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError
from .corpus import (
    FeatureTable,
    FrameMatrix,
    Lexicon,
    WordAlignment,
    save_alignments,
    save_feature_archive,
    save_feature_table,
    save_lexicon,
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a generated corpus."""

    vocab_size: int = 30
    dim: int = 12
    num_speakers: int = 10
    base_duration: tuple = (22, 42)
    duration_jitter: float = 0.25
    noise: float = 0.65
    speaker_scale: float = 0.5
    words_per_utterance: tuple = (1, 1)
    num_train: int = 500
    num_eval: int = 200
    frames_per_second: float = 100.0
    label_length: tuple = (3, 7)
    num_feature_values: int = 16

    def __post_init__(self):
        """ConfigError names the first field out of range."""
        for name, low in (("vocab_size", 2), ("dim", 1), ("num_speakers", 1), ("num_train", 0),
                          ("num_eval", 0), ("num_feature_values", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"synthetic corpus: {name} must be >= {low}, not {getattr(self, name)}")
        for name in ("base_duration", "words_per_utterance", "label_length"):
            low, high = getattr(self, name)
            if not 1 <= low <= high:
                raise ConfigError(f"synthetic corpus: {name} must be (min, max) with 1 <= min <= max, "
                                  f"not ({low}, {high})")
        for name in ("noise", "duration_jitter", "speaker_scale"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"synthetic corpus: {name} must be finite, not {getattr(self, name)}")
        if self.noise < 0:
            raise ConfigError(f"synthetic corpus: noise must be >= 0, not {self.noise}")


@dataclass
class SyntheticCorpus:
    words: list
    lexicon: Lexicon
    feature_table: FeatureTable
    train: list
    train_alignments: list
    eval: list
    eval_alignments: list


def _make_labels(spec: SyntheticSpec, rng: np.random.Generator) -> list[str]:
    letters = string.ascii_lowercase
    labels = []
    seen = set()
    while len(labels) < spec.vocab_size:
        n = int(rng.integers(spec.label_length[0], spec.label_length[1] + 1))
        w = "".join(letters[i] for i in rng.integers(0, 26, size=n))
        if w not in seen:
            seen.add(w)
            labels.append(w)
    return labels


def _make_templates(spec: SyntheticSpec, rng: np.random.Generator):
    """Smooth per-word trajectories: low-order random Fourier curves."""
    templates = {}
    for w in range(spec.vocab_size):
        dur = int(rng.integers(spec.base_duration[0], spec.base_duration[1] + 1))
        amps = rng.standard_normal((3, spec.dim)) / np.arange(1, 4)[:, None]
        phases = rng.uniform(0, 2 * np.pi, size=(3, spec.dim))
        t = np.linspace(0.0, 1.0, dur)[:, None, None]
        k = np.arange(1, 4)[None, :, None]
        curve = (amps[None] * np.sin(2 * np.pi * k * t + phases[None])).sum(axis=1)
        templates[w] = curve
    return templates


def _make_speakers(spec: SyntheticSpec, rng: np.random.Generator):
    speakers = []
    eye = np.eye(spec.dim)
    for _ in range(spec.num_speakers):
        mix = eye + spec.speaker_scale * rng.standard_normal((spec.dim, spec.dim)) / np.sqrt(spec.dim)
        bias = spec.speaker_scale * rng.standard_normal(spec.dim)
        speakers.append((mix, bias))
    return speakers


def _instance(template: np.ndarray, speaker, spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    base_len = template.shape[0]
    if spec.duration_jitter > 0:
        factor = 1.0 + spec.duration_jitter * rng.uniform(-1.0, 1.0)
        length = max(2, int(round(base_len * factor)))
    else:
        length = base_len
    src = np.linspace(0.0, 1.0, base_len)
    dst = np.linspace(0.0, 1.0, length)
    warped = np.stack([np.interp(dst, src, template[:, d]) for d in range(spec.dim)], axis=1)
    mix, bias = speaker
    out = warped @ mix.T + bias
    if spec.noise > 0:
        out = out + spec.noise * rng.standard_normal(out.shape)
    return out


def generate_corpus(spec: SyntheticSpec, seed: int) -> SyntheticCorpus:
    """Deterministic corpus from a master seed (streams are split per
    component so e.g. adding eval utterances cannot disturb training)."""
    root = np.random.SeedSequence(int(seed))
    label_rng, template_rng, speaker_rng, train_rng, eval_rng, feat_rng = (
        np.random.default_rng(s) for s in root.spawn(6)
    )
    words = _make_labels(spec, label_rng)
    templates = _make_templates(spec, template_rng)
    speakers = _make_speakers(spec, speaker_rng)

    letters = sorted({ch for w in words for ch in w})
    lexicon = Lexicon.from_dict({w: tuple(w) for w in words})
    names = tuple(f"fv{i}" for i in range(spec.num_feature_values))
    table = {}
    for ch in letters:
        vec = (feat_rng.random(spec.num_feature_values) < 0.5).astype(np.uint8)
        if vec.sum() == 0:
            vec[int(feat_rng.integers(0, spec.num_feature_values))] = 1
        table[ch] = vec
    feature_table = FeatureTable.from_dict(names, table)

    def make_split(prefix, count, rng):
        fms, als = [], []
        for i in range(count):
            uid = f"{prefix}-{i:05d}"
            speaker = speakers[int(rng.integers(0, spec.num_speakers))]
            n_words = int(rng.integers(spec.words_per_utterance[0], spec.words_per_utterance[1] + 1))
            picks = rng.integers(0, spec.vocab_size, size=n_words)
            chunks, entries, pos = [], [], 0
            for w in picks:
                inst = _instance(templates[int(w)], speaker, spec, rng)
                chunks.append(inst)
                entries.append((pos, pos + len(inst), words[int(w)]))
                pos += len(inst)
            frames = np.concatenate(chunks, axis=0)
            fms.append(FrameMatrix(uid, frames, spec.frames_per_second))
            als.append(WordAlignment(uid, tuple(entries)))
        return fms, als

    train, train_al = make_split("train", spec.num_train, train_rng)
    ev, ev_al = make_split("eval", spec.num_eval, eval_rng)
    return SyntheticCorpus(words, lexicon, feature_table, train, train_al, ev, ev_al)


def write_corpus(corpus: SyntheticCorpus, outdir):
    """Emit the archive/alignment/lexicon/feature-table files."""
    import os

    paths = {
        "train": os.path.join(outdir, "train.cadf"),
        "train_align": os.path.join(outdir, "train_align.tsv"),
        "dev": os.path.join(outdir, "dev.cadf"),
        "dev_align": os.path.join(outdir, "dev_align.tsv"),
        "lexicon": os.path.join(outdir, "lexicon.tsv"),
        "feature_table": os.path.join(outdir, "feature_table.tsv"),
    }
    save_feature_archive(paths["train"], corpus.train)
    save_alignments(paths["train_align"], corpus.train_alignments)
    save_feature_archive(paths["dev"], corpus.eval)
    save_alignments(paths["dev_align"], corpus.eval_alignments)
    save_lexicon(paths["lexicon"], corpus.lexicon)
    save_feature_table(paths["feature_table"], corpus.feature_table)
    return paths
