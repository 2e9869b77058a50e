"""n-gram counting and smoothing, signed smoothing decompositions, and
smoothing-derived regularizers for training small neural language models."""

from .corpus import (
    Corpus,
    CountTable,
    Vocabulary,
    corpus_from_lines,
    count_ngrams,
    load_corpus,
)
from .decompose import (
    RegularizerBundle,
    SignedDecomposition,
    build_regularizer,
    signed_decompose,
)
from .neural import (
    FeedForwardLM,
    TabularSoftmaxLM,
    TrainConfig,
    train,
)
from .ngram import (
    ConditionalLM,
    empirical_conditional,
    perplexity,
)
from .smoothers import (
    smooth,
    smooth_add_lambda,
    smooth_good_turing,
    smooth_jelinek_mercer,
    smooth_katz,
    smooth_kneser_essen_ney,
    smooth_simple_good_turing,
)
from .verify import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "ConditionalLM", "Corpus", "CountTable", "FeedForwardLM",
    "RegularizerBundle", "SignedDecomposition",
    "TabularSoftmaxLM", "TrainConfig", "VerificationReport", "Vocabulary",
    "build_regularizer",
    "corpus_from_lines", "count_ngrams",
    "empirical_conditional", "load_corpus", "perplexity", "smooth",
    "smooth_add_lambda", "smooth_good_turing", "smooth_jelinek_mercer",
    "smooth_katz", "smooth_kneser_essen_ney", "smooth_simple_good_turing",
    "signed_decompose", "train",
]
