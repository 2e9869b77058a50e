"""Hypothesis properties of the table layers and their TSV files over random
small corpora (2-8 symbols, orders 1-3), with the count arrays checked
against a per-position recount, per-cell oracles written from gram_count,
held-out perplexity against the per-token string_logprob, held-out cells
against held-out rows, held-out rows against a walk to each history's longest
seen suffix, and each level's check and split from its parts against its
dense rows."""

import math
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothlm.corpus import Corpus, Vocabulary, count_ngrams, read_count_table, write_count_table
from smoothlm.decompose import RECON_ATOL, build_regularizer
from smoothlm.ngram import (
    PROB_ATOL,
    ConditionalLM,
    NormalizationError,
    UnseenHistoryError,
    check_distributions,
    empirical_conditional,
    perplexity,
    read_conditional_lm,
    write_conditional_lm,
)
from smoothlm.smoothers import (
    METHODS,
    KatzConfigError,
    _parent_cells,
    smooth,
    smooth_add_lambda,
    smooth_kneser_essen_ney,
)
from smoothlm.verify import string_logprob


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


def recount(corpus, order):
    """{(history, emitted id): count}, one padded position at a time."""
    vocab = corpus.vocab
    grams = Counter()
    for seq in corpus.sequences:
        padded = (vocab.bos_id,) * (order - 1) + seq + (vocab.eos_id,)
        for t in range(len(seq) + 1):
            grams[(padded[t:t + order - 1], padded[t + order - 1])] += 1
    return grams


@given(corpora(), st.integers(1, 4))
def test_arrays_match_a_recount(corpus, order):
    table = count_ngrams(corpus, order)
    grams = recount(corpus, order)
    totals = Counter()
    for (h, _), c in grams.items():
        totals[h] += c
    # sorted by (history, emission index), each gram once
    expected = sorted((h, corpus.vocab.out_index(x), c) for (h, x), c in grams.items())
    got = zip([table.hists[i] for i in table.hist.tolist()], table.out.tolist(),
              table.count.tolist())
    assert list(got) == expected
    assert list(table.hists) == sorted(totals)
    assert table.index == {h: i for i, h in enumerate(table.hists)}
    assert table.totals.tolist() == [totals[h] for h in table.hists]
    assert table.total_tokens == corpus.total_emissions
    assert table.count_of_counts == Counter(grams.values())
    assert table.gram_count == grams
    assert table.history_count == totals


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
        for i, h in enumerate(lm.keys.hists):
            assert np.shares_memory(lm.table[h], lm.matrix)
            np.testing.assert_array_equal(lm.table[h], lm.matrix[i])
        bundle = build_regularizer(emp, lm, table, 1.0, 1.0)
        for h, dec in bundle.per_history.items():
            recon = emp.table[h] + dec.z_plus * dec.p_plus - dec.z_minus * dec.p_minus
            assert np.abs(recon - lm.table[h]).max() <= RECON_ATOL, method
            assert abs(dec.z_plus - dec.z_minus) <= RECON_ATOL, method


@given(corpora(), st.integers(1, 4))
def test_every_level_is_its_seen_cells_and_a_scaled_base_row(corpus, order):
    # Chen & Goodman's one form: the unseen cells of a history h are r(h)
    # times the cells of h's base row, its parent's row one level down, or
    # the uniform row where a level has no level of its method below it
    table = count_ngrams(corpus, order)
    uniform = np.full((1, table.vocab.out_dim), 1.0 / table.vocab.out_dim)
    for method in METHODS:
        if method == "kneser_essen_ney" and order < 2:
            continue
        try:
            level = smooth(table, method)
        except KatzConfigError:
            continue
        while level is not None and level.method == method:
            tab, lower = level.keys, level.backstop
            base = uniform if lower is None else lower.rows(tab.ids[:, tab.order - lower.order:])
            base = np.broadcast_to(base, level.matrix.shape)
            scaled = base > 0
            scaled[tab.hist, tab.out] = False
            for row, base_row, cells in zip(level.matrix, base, scaled):
                if cells.any():
                    r = row[cells] / base_row[cells]
                    assert r.max() - r.min() <= 1e-15 * r.max(), (method, level.order)
            level = lower


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
            for h, row in zip(lm.keys.hists, lm.matrix):
                h2 = tuple(v2.parse(v.render(i)) for i in h)
                np.testing.assert_allclose(lm2.conditional(h2)[cols], row, rtol=1e-11, atol=0)


@st.composite
def train_and_heldout(draw):
    """A training corpus that never uses the last symbol, and a held-out
    corpus that does: from order 2 on, a history holding it is unseen in
    training, and the held-out line of that symbol alone has one."""
    n_sym = draw(st.integers(2, 8))
    vocab = Vocabulary(symbols=tuple("abcdefgh"[:n_sym]))

    def sequences(top):
        seqs = draw(st.lists(st.lists(st.integers(0, top), max_size=8), min_size=1, max_size=8))
        return tuple(tuple(s) for s in seqs)

    held = sequences(n_sym - 1) + ((n_sym - 1,),)
    return Corpus(vocab=vocab, sequences=sequences(n_sym - 2)), Corpus(vocab=vocab, sequences=held)


@given(train_and_heldout(), orders)
def test_perplexity_matches_the_per_token_oracle(data, order):
    train, held = data
    table = count_ngrams(train, order)
    held_hists = count_ngrams(held, order).hists
    for method in METHODS:
        if method == "kneser_essen_ney" and order < 2:
            continue
        try:
            lm = smooth(table, method)
        except KatzConfigError:
            continue
        logprobs = [string_logprob(lm, seq) for seq in held.sequences]
        got = perplexity(lm, held)
        if -math.inf in logprobs:
            assert got == math.inf, method
        else:
            want = math.exp(-sum(logprobs) / held.total_emissions)
            assert got == pytest.approx(want, rel=1e-12), method
    if order > 1:
        emp = empirical_conditional(table)
        with pytest.raises(UnseenHistoryError):
            emp.rows(held_hists)
        with pytest.raises(UnseenHistoryError):
            perplexity(emp, held)


@given(train_and_heldout(), st.integers(2, 3))
def test_cells_are_the_cells_of_the_rows(data, order):
    # the held-out symbol is unseen in training, so a held-out history that
    # ends in it is unseen at every backoff depth
    train, held = data
    table = count_ngrams(train, order)
    t = count_ngrams(held, order)
    for method in METHODS:
        try:
            lm = smooth(table, method)
        except KatzConfigError:
            continue
        got, want = lm.cells(t, t.hist, t.out), lm.rows(t)[t.hist, t.out]
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=method)
    emp = empirical_conditional(table)
    with pytest.raises(UnseenHistoryError) as by_rows:
        emp.rows(t)
    with pytest.raises(UnseenHistoryError) as by_cells:
        emp.cells(t, t.hist, t.out)
    assert by_cells.value.args == by_rows.value.args


@given(train_and_heldout(), st.integers(1, 4), st.data())
def test_levels_score_check_and_split_from_their_parts(data, order, draws):
    # each level keeps its seen values, a, d and its backstop: its cells of
    # held-out histories unseen at every depth are the cells of its dense
    # rows, its check in O(grams) names the history check_distributions of
    # those rows names, and its bundle splits on the table's grams
    train, held = data
    table = count_ngrams(train, order)
    t = count_ngrams(held, order)
    emp = empirical_conditional(table)
    for method in METHODS:
        if method == "kneser_essen_ney" and order < 2:
            continue
        try:
            lm = smooth(table, method)
        except KatzConfigError:
            continue
        got, want = lm.cells(t, t.hist, t.out), lm.rows(t)[t.hist, t.out]
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=method)
        level = lm
        while level is not None and level.method == method:
            tab = level.keys
            g = draws.draw(st.integers(0, len(level.seen) - 1))
            negative_a = np.broadcast_to(level.a, len(tab.ids)).astype(float)
            negative_a[tab.hist[g]] = -1.0
            # a seen value made negative, a row's mass moved, and a row's a
            # made negative, which makes a cell negative only where its base
            # cell off the grams is positive
            parent = None if level.base is None else _parent_cells(tab, level.backstop)
            for value, a in ((-0.25, level.a), (level.seen[g] + 2 * PROB_ATOL, level.a),
                             (level.seen[g], negative_a)):
                seen = level.seen.copy()
                seen[g] = value
                bad = ConditionalLM.level(tab, seen, a, level.d, level.backstop, parent,
                                          validate=False)
                said = [raised(lambda: check_distributions(bad.matrix, tab.ids)),
                        raised(bad.check)]
                # the same history and the same fault; the sums may round apart
                assert said[0] == said[1], said
                if a is not negative_a or (bad.matrix[tab.hist[g]] < 0).any():
                    assert said[0].startswith(f"history {tab.hists[tab.hist[g]]}: ")
            level = level.backstop
        r = build_regularizer(emp, lm, table, 1.0, 1.0).rows
        for part in (r.p_plus, r.p_minus):
            sums = part.sum(axis=1)
            assert ((np.abs(sums - 1.0) <= PROB_ATOL) | (part == 0.0).all(axis=1)).all(), method
        assert (np.abs(r.z_plus - r.z_minus) <= RECON_ATOL).all(), method


def raised(check) -> str | None:
    """The message of the NormalizationError `check` raises, up to any
    row sum, or None."""
    try:
        check()
    except NormalizationError as e:
        return str(e).split(" to ")[0]
    return None


@given(train_and_heldout(), orders)
def test_unseen_histories_back_off_to_their_longest_seen_suffix(data, order):
    # each order-k level is smoothed on its own here: JM and Katz by
    # `smooth` of the order-k count table, KEN by the reference recursion
    train, held = data
    table = count_ngrams(train, order)
    held_hists = count_ngrams(held, order).hists
    uniform = np.full(train.vocab.out_dim, 1.0 / train.vocab.out_dim)

    def expected(levels):
        """Each held-out history's row at the highest order that holds its
        suffix, or the uniform row; levels[k - 1] maps order-k histories."""
        rows = []
        for h in held_hists:
            at = [lv[h[len(h) - k + 1:]] for k, lv in enumerate(levels, start=1)
                  if h[len(h) - k + 1:] in lv]
            rows.append(at[-1] if at else uniform)
        return np.array(rows)

    for method in METHODS:
        if method == "kneser_essen_ney" and order < 2:
            continue
        try:
            lm = smooth(table, method)
        except KatzConfigError:
            continue
        if method in ("jelinek_mercer", "katz"):
            levels = [smooth(count_ngrams(train, k), method).table for k in range(1, order + 1)]
        elif method == "kneser_essen_ney":
            levels = [ken_oracle(train, k, 0.75) for k in range(1, order + 1)]
        else:
            levels = [{}] * (order - 1) + [lm.table]
        np.testing.assert_array_equal(lm.rows(held_hists), expected(levels), err_msg=method)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "lm.tsv")
        write_conditional_lm(smooth(table, "kneser_essen_ney" if order > 1 else "katz"), path)
        file_lm = read_conditional_lm(path)
    v, v2 = train.vocab, file_lm.vocab
    in_file = [tuple(v2.parse(v.render(i)) for i in h) for h in held_hists]
    want = np.array([file_lm.table.get(h, np.full(v2.out_dim, 1.0 / v2.out_dim))
                     for h in in_file])
    np.testing.assert_array_equal(file_lm.rows(in_file), want)

