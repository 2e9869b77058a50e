"""n-gram counting and smoothing, signed smoothing decompositions, and
smoothing-derived regularizers for training small neural language models."""

from .corpus import (
    Corpus,
    CountTable,
    Vocabulary,
    build_vocabulary,
    corpus_from_lines,
    count_ngrams,
    count_substrings,
    load_corpus,
)
from .decompose import (
    RegularizerBundle,
    SignedDecomposition,
    build_regularizer,
    regularizer_loss,
    signed_decompose,
)
from .neural import (
    FeedForwardLM,
    TabularSoftmaxLM,
    TrainConfig,
    loss_and_grad,
    train,
    train_smoothed_target,
)
from .ngram import (
    ConditionalLM,
    PrefixProbability,
    empirical_conditional,
    empirical_prefix,
    kl_divergence,
    perplexity,
    string_logprob,
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
    "PrefixProbability", "RegularizerBundle", "SignedDecomposition",
    "TabularSoftmaxLM", "TrainConfig", "VerificationReport", "Vocabulary",
    "build_regularizer", "build_vocabulary",
    "corpus_from_lines", "count_ngrams", "count_substrings",
    "empirical_conditional", "empirical_prefix",
    "kl_divergence", "load_corpus",
    "loss_and_grad", "perplexity", "regularizer_loss", "smooth",
    "smooth_add_lambda", "smooth_good_turing", "smooth_jelinek_mercer",
    "smooth_katz", "smooth_kneser_essen_ney", "smooth_simple_good_turing",
    "signed_decompose", "string_logprob", "train", "train_smoothed_target",
]
