"""Acoustic word embeddings and their applications, on a numpy autodiff
core: contrastive multi-view training of acoustic and written-word
encoders, word-discrimination evaluation, DTW baselines, LSH-accelerated
query-by-example search, and whole-word CTC/segmental recognition."""

from . import autodiff, corpus, ctc, dtw, encoders, metrics, nn, objectives, search, segmental
from .autodiff import Tape, Tensor, grad_check
from .config import ExperimentConfig
from .corpus import (
    FeatureTable,
    FrameMatrix,
    Lexicon,
    SegmentRef,
    SpanAlignment,
    Vocabulary,
    WordAlignment,
    extract_segments,
    load_feature_archive,
    merge_spans,
    save_feature_archive,
    spec_augment,
)
from .dtw import DtwConfig, dtw_cost
from .encoders import (
    AcousticEncoder,
    AcousticEncoderConfig,
    PredictionLayer,
    WrittenEncoder,
    WrittenEncoderConfig,
    extend_vocabulary,
)
from .metrics import acoustic_ap, average_precision, cross_view_ap, wer
from .objectives import (
    ConfusionMatrix,
    MultiViewBatch,
    SamplingConfig,
    agwe_regularizer,
    combine_joint,
    cos_hinge_triplet,
    most_offending_triplet,
    multiview_loss,
)
from .search import PermutedSignatureIndex, WindowConfig, build_index, generate_windows, query_index
from .segmental import ScoreTensor, SegPath, batch_segment_cap, score_segments, seg_loss, viterbi_decode
from .synth import SyntheticSpec, generate_corpus

__version__ = "0.1.0"
