"""Acoustic word embeddings and their applications, on a numpy autodiff
core: contrastive multi-view training of acoustic and written-word
encoders, word-discrimination evaluation, DTW baselines, LSH-accelerated
query-by-example search, and whole-word CTC/segmental recognition."""

from . import autodiff, config, corpus, ctc, dtw, encoders, metrics, nn, objectives, search, segmental, synth

__version__ = "0.1.0"
