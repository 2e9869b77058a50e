"""n-gram counting and smoothing, signed smoothing decompositions, and
smoothing-derived regularizers for training small neural language models.

Each module is imported on first use (PEP 562): `import smoothlm`, or
`import smoothlm.corpus`, loads no other smoothlm module, and reading one
of the names below imports its home module and returns that module's
attribute.
"""

import importlib

# home module -> the names the package exports from it
_EXPORTS = {
    "corpus": ["Corpus", "CountTable", "Vocabulary", "corpus_from_lines", "count_ngrams",
               "load_corpus"],
    "decompose": ["RegularizerBundle", "SignedDecomposition", "build_regularizer"],
    "neural": ["FeedForwardLM", "TabularSoftmaxLM", "TrainConfig", "train"],
    "ngram": ["ConditionalLM", "empirical_conditional", "perplexity"],
    "smoothers": ["smooth", "smooth_add_lambda", "smooth_good_turing",
                  "smooth_jelinek_mercer", "smooth_katz", "smooth_kneser_essen_ney",
                  "smooth_simple_good_turing"],
    "verify": ["VerificationReport"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    # nothing is cached here: an exported name is read off its home module
    # on every access, so a name rebound there is the one the package gives
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
