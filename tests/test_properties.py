"""Hypothesis properties of the table layers and their TSV files over random
small corpora (2-8 symbols, orders 1-3), with per-cell oracles written from
gram_count."""

import os
import tempfile
from collections import Counter

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from smoothlm.corpus import Corpus, Vocabulary, count_ngrams, read_count_table, write_count_table
from smoothlm.decompose import RECON_ATOL, build_regularizer
from smoothlm.ngram import (
    PROB_ATOL,
    empirical_conditional,
    read_conditional_lm,
    write_conditional_lm,
)
from smoothlm.smoothers import (
    METHODS,
    KatzConfigError,
    smooth,
    smooth_add_lambda,
    smooth_kneser_essen_ney,
)


@st.composite
def corpora(draw):
    n_sym = draw(st.integers(2, 8))
    seqs = draw(st.lists(st.lists(st.integers(0, n_sym - 1), max_size=8),
                         min_size=1, max_size=8))
    vocab = Vocabulary(symbols=tuple("abcdefgh"[:n_sym]))
    return Corpus(vocab=vocab, sequences=tuple(tuple(s) for s in seqs))


orders = st.integers(1, 3)


def cell_count(table, h, j):
    return table.gram_count.get((h, table.vocab.id_at_out(j)), 0)


@given(corpora(), orders)
def test_arrays_hold_the_gram_dict(corpus, order):
    table = count_ngrams(corpus, order)
    a = table.arrays
    assert list(a.hists) == sorted(table.history_count)
    rebuilt = {
        (a.hists[i], table.vocab.id_at_out(j)): c
        for i, j, c in zip(a.hist.tolist(), a.out.tolist(), a.count.tolist())
    }
    assert rebuilt == table.gram_count
    assert a.totals.tolist() == [table.history_count[h] for h in a.hists]


@given(corpora(), orders)
def test_every_smoother_gives_distributions_that_decompose(corpus, order):
    table = count_ngrams(corpus, order)
    emp = empirical_conditional(table)
    for method in METHODS:
        if method == "kneser_essen_ney" and order < 2:
            continue
        try:
            lm = smooth(table, method)
        except KatzConfigError:
            continue
        assert set(lm.table) == set(table.history_count), method
        assert (lm.matrix >= 0).all(), method
        assert (np.abs(lm.matrix.sum(axis=1) - 1.0) <= PROB_ATOL).all(), method
        for i, h in enumerate(lm.hists):
            assert np.shares_memory(lm.table[h], lm.matrix)
            np.testing.assert_array_equal(lm.table[h], lm.matrix[i])
        bundle = build_regularizer(emp, lm, table, 1.0, 1.0)
        for h, dec in bundle.per_history.items():
            recon = emp.table[h] + dec.z_plus * dec.p_plus - dec.z_minus * dec.p_minus
            assert np.abs(recon - lm.table[h]).max() <= RECON_ATOL, method
            assert abs(dec.z_plus - dec.z_minus) <= RECON_ATOL, method


@given(corpora(), orders, st.floats(0.01, 4.0))
def test_empirical_and_add_lambda_cells_exact(corpus, order, lam):
    table = count_ngrams(corpus, order)
    emp = empirical_conditional(table)
    add = smooth_add_lambda(table, lam)
    out_dim = table.vocab.out_dim
    for h, tot in table.history_count.items():
        for j in range(out_dim):
            c = cell_count(table, h, j)
            assert emp.table[h][j] == c / tot
            assert add.table[h][j] == (c + lam) / (tot + out_dim * lam)


def ken_oracle(corpus, order, D):
    """Kneser-Essen-Ney rows by the defining recursion, one cell at a time."""
    vocab = corpus.vocab
    out_dim = vocab.out_dim
    bigrams = count_ngrams(corpus, 2)
    preceding = Counter(x for _, x in bigrams.gram_count)
    rows = {(): [preceding[vocab.id_at_out(j)] / len(bigrams.gram_count) for j in range(out_dim)]}
    for k in range(2, order + 1):
        tab = count_ngrams(corpus, k)
        distinct = Counter(h for h, _ in tab.gram_count)
        rows = {
            h: [(max(cell_count(tab, h, j) - D, 0.0) + D * distinct[h] * rows[h[1:]][j]) / tot
                for j in range(out_dim)]
            for h, tot in tab.history_count.items()
        }
    return rows


@given(corpora(), st.integers(2, 3), st.floats(0.05, 0.95))
def test_kneser_essen_ney_cells_exact(corpus, order, D):
    lm = smooth_kneser_essen_ney(count_ngrams(corpus, order), D)
    expected = ken_oracle(corpus, order, D)
    assert set(lm.table) == set(expected)
    for h, row in expected.items():
        assert lm.table[h].tolist() == row


def gram_strings(table):
    """gram_count keyed by rendered strings, which survive a file's new ids."""
    v = table.vocab
    return {(v.render_history(h), v.render(x)): c for (h, x), c in table.gram_count.items()}


def history_strings(table):
    return {table.vocab.render_history(h): c for h, c in table.history_count.items()}


@given(corpora(), orders)
def test_tsv_files_round_trip(corpus, order):
    table = count_ngrams(corpus, order)
    with tempfile.TemporaryDirectory() as d:
        first, second = os.path.join(d, "first.tsv"), os.path.join(d, "second.tsv")
        write_count_table(table, first)
        back = read_count_table(first)
        assert gram_strings(back) == gram_strings(table)
        assert history_strings(back) == history_strings(table)
        assert back.count_of_counts == table.count_of_counts
        assert back.total_tokens == table.total_tokens
        for method in METHODS:
            if method == "kneser_essen_ney" and order < 2:
                continue
            try:
                lm = smooth(table, method)
            except KatzConfigError:
                continue
            write_conditional_lm(lm, first)
            lm2 = read_conditional_lm(first)
            write_conditional_lm(lm2, second)
            with open(first, "rb") as f1, open(second, "rb") as f2:
                assert f1.read() == f2.read(), method
            v, v2 = lm.vocab, lm2.vocab
            cols = [v2.out_index(v2.parse(v.render(v.id_at_out(j)))) for j in range(v.out_dim)]
            for h, row in zip(lm.hists, lm.matrix):
                h2 = tuple(v2.parse(v.render(i)) for i in h)
                np.testing.assert_allclose(lm2.conditional(h2)[cols], row, rtol=1e-11, atol=0)
