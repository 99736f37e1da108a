"""Era-aware Chinese word segmentation.

A character sequence labeler whose per-character representations are
augmented with era-specific key-value dictionary memories, gated by a
sentence-level era discriminator (hard or soft switching), decoded by a
linear-chain CRF, and trained with a joint weighted loss over segmentation
and era classification.
"""

__version__ = "0.1.0"

from .config import Config
from .corpus import (
    RawCorpus,
    RawSentence,
    Vocab,
    bmes_to_words,
    load_corpus,
    make_synthetic_corpus,
    preprocess,
    words_to_bmes,
)
from .lexicon import CandidateSlots, EraLexicon, build_lexicon, extract_candidates
from .metrics import era_accuracy, oov_recall, score_segmentation
from .trainer import Checkpoint, Segmentation, segment, split_corpus, train

__all__ = [
    "Config",
    "RawCorpus",
    "RawSentence",
    "Vocab",
    "bmes_to_words",
    "load_corpus",
    "make_synthetic_corpus",
    "preprocess",
    "words_to_bmes",
    "CandidateSlots",
    "EraLexicon",
    "build_lexicon",
    "extract_candidates",
    "era_accuracy",
    "oov_recall",
    "score_segmentation",
    "Checkpoint",
    "Segmentation",
    "segment",
    "split_corpus",
    "train",
]
