"""Metamorphic relations of the pipeline: two runs on related inputs whose
outputs must be related, checked where no oracle gives the output itself.

Line order: a corpus is a multiset of its lines, so shuffling them changes
no count.  The count file of the shuffled lines is byte-identical, though
the vocabulary it is read with, numbered in order of first appearance,
differs; with the vocabulary held fixed, every count array, LM level,
bundle and held-out perplexity of the six smoothers is bit-identical."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlm.corpus import corpus_from_lines, count_ngrams, write_count_table
from smoothlm.decompose import build_regularizer
from smoothlm.ngram import empirical_conditional, perplexity
from smoothlm.smoothers import METHODS, KatzConfigError, smooth


@st.composite
def lines_and_a_shuffle(draw):
    """Nonempty lines over 2-6 symbols, and the same lines in another order."""
    symbols = "abcdef"[:draw(st.integers(2, 6))]
    words = st.lists(st.sampled_from(symbols), min_size=1, max_size=8)
    lines = [" ".join(w) for w in draw(st.lists(words, min_size=1, max_size=10))]
    return lines, draw(st.permutations(lines))


def count_file(corpus, order: int) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "counts.tsv")
        write_count_table(count_ngrams(corpus, order), path)
        with open(path, "rb") as f:
            return f.read()


def bits(*arrays) -> list:
    """Each array's dtype, shape and bytes: equal lists are equal bits."""
    return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


def outputs(table, emp, held, method) -> list:
    """The bits of each level of `method`'s LM of `table` (its seen values,
    a and d, or its rows where it has no seen values), of its bundle and of
    its perplexity of `held`; or the message of the KatzConfigError."""
    try:
        lm = smooth(table, method)
    except KatzConfigError as e:
        return [str(e)]
    found, level = [], lm
    while level is not None:
        found += bits(level.matrix) if level.seen is None else bits(level.seen, level.a, level.d)
        level = level.backstop
    bundle = build_regularizer(emp, lm, table, 1.0, 1.0)
    return found + bits(bundle.diff, bundle.z_plus, bundle.z_minus) + \
        [perplexity(lm, held).hex()]


@settings(max_examples=50)
@given(lines_and_a_shuffle(), st.integers(1, 3))
def test_line_order_changes_no_count_level_bundle_or_perplexity(data, order):
    lines, shuffled = data
    corpus = corpus_from_lines(lines)
    assert count_file(corpus_from_lines(shuffled), order) == count_file(corpus, order)
    held = corpus_from_lines([" ".join(ln.split()[::-1]) for ln in lines], vocab=corpus.vocab)
    tables = [count_ngrams(c, order) for c in (corpus, corpus_from_lines(shuffled, corpus.vocab))]
    fields = ("ids", "codes", "hist", "out", "count", "totals", "gram_codes")
    assert bits(*(getattr(tables[0], f) for f in fields)) == \
        bits(*(getattr(tables[1], f) for f in fields))
    emps = [empirical_conditional(t) for t in tables]
    assert bits(emps[0].seen) == bits(emps[1].seen)
    for method in METHODS:
        if method == "kneser_essen_ney" and order < 2:
            continue
        got, want = (outputs(t, emp, held, method) for t, emp in zip(tables, emps))
        assert got == want, method
