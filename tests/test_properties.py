"""Hypothesis properties of the table layers and their TSV files over random
small corpora (2-8 symbols, orders 1-3), with the count arrays checked
against a per-position recount, per-cell oracles written from gram_count
(add-lambda, KEN) or from the recount (Good-Turing, Katz and
Jelinek-Mercer, rows and held-out cells), held-out perplexity against
the per-token string_logprob, held-out cells against held-out rows,
held-out rows against a walk to each history's longest seen suffix, each
level's check and split from its parts against its dense rows, each
backoff chain rebuilt from its levels' parts against itself, the masses
GT, SGT and Katz sum over the grams against the sums of their dense rows,
and each bundle's split on the grams against the split of each pair of
dense rows by its definition."""

import math
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothlm.corpus import (Vocabulary, count_ngrams, read_count_table, write_count_table,
                             zero_gram_count)
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
    _katz_discounts,
    good_turing_adjusted_count,
    sgt_fit,
    smooth,
    smooth_add_lambda,
    smooth_kneser_essen_ney,
)
from smoothlm.verify import corpus_of, signed_split, string_logprob


@st.composite
def corpora(draw):
    n_sym = draw(st.integers(2, 8))
    seqs = draw(st.lists(st.lists(st.integers(0, n_sym - 1), max_size=8),
                         min_size=1, max_size=8))
    vocab = Vocabulary(symbols=tuple("abcdefgh"[:n_sym]))
    return corpus_of(vocab, seqs)


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


@given(corpora(), orders)
def test_the_split_on_the_grams_is_the_split_by_definition(corpus, order):
    # build_regularizer splits on the grams, adding the smoothed mass off
    # them to Z+; the oracle splits each pair of dense rows by the definition
    table = count_ngrams(corpus, order)
    emp = empirical_conditional(table)
    for method in METHODS:
        if method == "kneser_essen_ney" and order < 2:
            continue
        try:
            lm = smooth(table, method)
        except KatzConfigError:
            continue
        bundle = build_regularizer(emp, lm, table, 1.0, 1.0)
        rows = bundle.rows
        for i in range(len(table.ids)):
            p_plus, p_minus, z_plus, z_minus = signed_split(emp.matrix[i], lm.matrix[i])
            assert abs(bundle.z_plus[i] - z_plus) <= RECON_ATOL, (method, i)
            assert abs(bundle.z_minus[i] - z_minus) <= RECON_ATOL, (method, i)
            for got, want in ((rows.p_plus[i], p_plus), (rows.p_minus[i], p_minus)):
                np.testing.assert_allclose(got, want, rtol=0, atol=RECON_ATOL,
                                           err_msg=f"{method} row {i}")


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
    return corpus_of(vocab, sequences(n_sym - 2)), corpus_of(vocab, held)


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


# The Good-Turing and Katz oracles below count from recount's padded
# windows and encode today's formulas, zero cells and clamps included;
# ROADMAP item 13, which makes both smoothers total and positive, changes
# them in the open.


def emission_counts(grams, vocab):
    """{history: [count of each emission index]} of recount's grams, and
    {count c: N_c, the number of grams seen c times}."""
    rows = {}
    for (h, x), c in grams.items():
        rows.setdefault(h, [0] * vocab.out_dim)[vocab.out_index(x)] = c
    return rows, Counter(grams.values())


def gt_oracle(corpus, order):
    """Good-Turing rows, one cell at a time: a cell seen c times weighs
    r* = (c+1) N_{c+1} / N_c, which is 0 wherever N_{c+1} = 0, an unseen
    cell N_1 / N_0 (0 when every cell is seen), and each history's weights
    are divided by their sum, its seen cells' in emission order and then
    its unseen cells'; a row of no weight is uniform."""
    vocab = corpus.vocab
    counts, n = emission_counts(recount(corpus, order), vocab)
    n0 = len(counts) * vocab.out_dim - sum(n.values())
    unseen = n[1] / n0 if n0 > 0 else 0.0
    rows = {}
    for h, cs in counts.items():
        w = [(c + 1) * n[c + 1] / n[c] if c else unseen for c in cs]
        total = sum(wc for wc, c in zip(w, cs) if c) + unseen * cs.count(0)
        rows[h] = [wc / total for wc in w] if total > 0 else [1 / vocab.out_dim] * vocab.out_dim
    return [rows]


def katz_oracle(corpus, order, k):
    """Katz rows per order, or None where a discount is undefined.  Order
    1 is the maximum-likelihood row.  Above it, a count c <= k is discounted
    by d_c = (r*_c / c - A) / (1 - A), A = (k+1) N_{k+1} / N_1, and d_c < 0
    is clamped to 0; counts above k keep d = 1.  A history keeps d_c c / total
    on each seen cell.  When its leftover 1 - (the kept mass, summed in
    emission order) is positive and its parent row has mass on the unseen
    cells, that mass gets the leftover in proportion to the parent row.
    Otherwise a row with a leftover renormalizes its kept cells, or is its
    parent row when nothing was kept."""
    vocab = corpus.vocab
    unigram = emission_counts(recount(corpus, 1), vocab)[0][()]
    levels = [{(): [c / sum(unigram) for c in unigram]}]
    for m in range(2, order + 1):
        counts, n = emission_counts(recount(corpus, m), vocab)
        if n[k + 1] and not n[1]:
            return None
        ratio = (k + 1) * n[k + 1] / n[1] if n[k + 1] else 0.0
        if ratio >= 1.0:
            return None

        def discount(c):
            if c > k:
                return 1.0
            d = ((c + 1) * n[c + 1] / n[c] / c - ratio) / (1.0 - ratio)
            return 0.0 if d < 0.0 else d

        rows = {}
        for h, cs in counts.items():
            parent = levels[-1][h[1:]]
            kept = [discount(c) * c / sum(cs) if c else 0.0 for c in cs]
            kept_mass = sum(kc for kc, c in zip(kept, cs) if c)
            leftover = 1.0 - kept_mass
            unseen_mass = sum(p for p, c in zip(parent, cs) if not c)
            if leftover > 0.0 and unseen_mass > 0.0:
                rows[h] = [kc if c else p * leftover / unseen_mass
                           for kc, c, p in zip(kept, cs, parent)]
            elif leftover != 0.0 and kept_mass <= 0.0:
                rows[h] = parent
            else:
                scale = kept_mass if leftover != 0.0 else 1.0
                rows[h] = [kc / scale if c else 0.0 for kc, c in zip(kept, cs)]
        levels.append(rows)
    return levels


def oracle_row(levels, h):
    """The row of history h at the highest order that saw its suffix: the
    last of `levels` holds h's order, each one before it the order below;
    a history seen at none backs off to the uniform row, as GT's do."""
    for drop, rows in enumerate(reversed(levels)):
        if h[drop:] in rows:
            return rows[h[drop:]]
    n = len(next(iter(levels[0].values())))
    return [1 / n] * n


def check_against_oracle(lm, levels, held, order, rtol):
    """lm.rows of the training and held-out histories, and lm.cells of the
    held-out cells, against the oracle's rows: bit for bit with rtol 0."""
    t = count_ngrams(held, order)
    hists = sorted(set(lm.keys.hists) | set(t.hists))
    want = np.array([oracle_row(levels, h) for h in hists])
    cells = np.array([oracle_row(levels, t.hists[r])[j] for r, j in zip(t.hist, t.out)])
    for got, expected in ((lm.rows(hists), want), (lm.cells(t, t.hist, t.out), cells)):
        if rtol:
            np.testing.assert_allclose(got, expected, rtol=rtol, atol=0)
        else:
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


@given(train_and_heldout(), orders)
def test_good_turing_cells_are_the_oracles(data, order):
    # bit for bit: the oracle divides each weight by a sum in the kernel's
    # order, and a cell takes one multiply and one divide either way
    train, held = data
    lm = smooth(count_ngrams(train, order), "good_turing")
    check_against_oracle(lm, gt_oracle(train, order), held, order, rtol=0)


@given(train_and_heldout(), orders, st.integers(1, 4))
def test_katz_cells_are_the_oracles(data, order, k):
    # within 1e-12: the kernel takes a parent row's unseen mass as its mass
    # less its cells on the grams, the oracle as the sum of its unseen cells
    train, held = data
    levels = katz_oracle(train, order, k)
    table = count_ngrams(train, order)
    if levels is None:
        with pytest.raises(KatzConfigError):
            smooth(table, "katz", {"k": k})
        return
    check_against_oracle(smooth(table, "katz", {"k": k}), levels, held, order, rtol=1e-12)


def jm_oracle(corpus, order, lambdas):
    """Jelinek-Mercer rows per order, one cell at a time, by the defining
    recursion: at a history h seen at order n, p_n(x | h) = lambda_n p_ML(x
    | h) + (1 - lambda_n) p_{n-1}(x | h[1:]), where p_{n-1} is the row
    oracle_row gives h[1:] one order down and p_0 is uniform; a history
    unseen at order n takes p_{n-1} (oracle_row's backoff)."""
    vocab = corpus.vocab
    levels = []
    for n in range(1, order + 1):
        lam, rows = lambdas[n - 1], {}
        for h, cs in emission_counts(recount(corpus, n), vocab)[0].items():
            parent = oracle_row(levels, h[1:]) if levels else [1 / vocab.out_dim] * vocab.out_dim
            rows[h] = [lam * (c / sum(cs)) + (1 - lam) * p for c, p in zip(cs, parent)]
        levels.append(rows)
    return levels


@given(train_and_heldout(), st.integers(1, 4),
       st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_jelinek_mercer_cells_are_the_oracles(data, order, lambdas):
    # bit for bit: each cell is the same two products summed, and an
    # unseen cell's ML term adds an exact 0
    train, held = data
    lm = smooth(count_ngrams(train, order), "jelinek_mercer", {"lambdas": lambdas[:order]})
    check_against_oracle(lm, jm_oracle(train, order, lambdas), held, order, rtol=0)


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
            for value, a in ((-0.25, level.a), (level.seen[g] + 2 * PROB_ATOL, level.a),
                             (level.seen[g], negative_a)):
                seen = level.seen.copy()
                seen[g] = value
                bad = ConditionalLM.level(tab, seen, a, level.d, level.backstop, validate=False)
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


def dense_sums(tab, seen, fill):
    """The oracle of a level's masses: the pairwise row sums of dense rows
    holding `seen` on `tab`'s grams and `fill`, a scalar or a matrix,
    elsewhere."""
    rows = np.array(np.broadcast_to(fill, (len(tab.ids), tab.vocab.out_dim)), dtype=float)
    rows[tab.hist, tab.out] = seen
    return rows.sum(axis=1)


def katz_branches(a, d):
    """Each Katz row's branch, as its a and d show it: 0 where it spreads
    its leftover mass (a > 0 over its parent's unseen mass d), 1 where it
    renormalizes its discounted cells (a = 0, d = 1), 2 where nothing was
    left and it is its parent row (a = d = 1)."""
    return np.select([(a == 1.0) & (d == 1.0), a == 0.0], [2, 1], 0)


@given(train_and_heldout(), st.integers(1, 4))
def test_a_level_round_trips_through_its_parts(data, order):
    # a level is its table, seen values, a, d and backstop: each chain,
    # rebuilt bottom-up from those parts alone, has the masses, dense rows
    # and held-out cells of the smoother's, bit for bit; a rebuilt level
    # finds its parent rows off its table, as the smoother's did
    train, held = data
    table = count_ngrams(train, order)
    for method in METHODS:
        if method == "kneser_essen_ney" and order < 2:
            continue
        try:
            lm = smooth(table, method)
        except KatzConfigError:
            continue
        levels = []
        while lm is not None and lm.seen is not None:
            levels.append(lm)
            lm = lm.backstop
        rebuilt = lm
        for lvl in reversed(levels):
            rebuilt = ConditionalLM.level(lvl.keys, lvl.seen, lvl.a, lvl.d, rebuilt)
            t = count_ngrams(held, lvl.order)
            for got, want in ((rebuilt.mass, lvl.mass), (rebuilt.matrix, lvl.matrix),
                              (rebuilt.cells(t, t.hist, t.out), lvl.cells(t, t.hist, t.out))):
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64),
                                              err_msg=f"{method} order {lvl.order}")


@given(corpora(), st.integers(1, 4))
def test_level_masses_are_the_dense_row_sums(corpus, order):
    # GT's and SGT's d (each row's weights: its seen cells' plus the unseen
    # weight on each other cell) and Katz's a and d (1 less the discounted
    # mass of the seen cells, and the parent row's mass off the grams) are
    # summed over the grams and the level's parts; summed over the dense
    # rows instead, they agree within 1e-12, and every Katz row takes the
    # same branch
    table = count_ngrams(corpus, order)
    r, r0 = table.count_of_counts, zero_gram_count(table)
    weights = {"good_turing": (lambda c: good_turing_adjusted_count(c, r, r0),
                               good_turing_adjusted_count(0, r, r0))}
    if len(r) > 1:  # else SGT falls back to add-lambda, whose d is no sum
        fit = sgt_fit(r, table.total_tokens)
        p0 = fit.p0 if fit.p0 > 0 else math.exp(fit.intercept) / table.total_tokens
        weights["simple_good_turing"] = (lambda c: fit.seen_scale * fit.smoothed_count[c],
                                         p0 / r0 if r0 > 0 else 0.0)
    for method, (weight, unseen) in weights.items():
        d = dense_sums(table, [weight(c) for c in table.count.tolist()], unseen)
        # a row of no weight is uniform
        d[d <= 0.0] = table.vocab.out_dim
        np.testing.assert_allclose(smooth(table, method).d, d, rtol=1e-12, atol=0,
                                   err_msg=method)
    try:
        level = smooth(table, "katz")
    except KatzConfigError:
        return
    while level.backstop is not None:
        tab, lower = level.keys, level.backstop
        kept = _katz_discounts(tab, 5, tab.count) * tab.count / tab.totals[tab.hist]
        kept_mass = dense_sums(tab, kept, 0.0)
        leftover = 1.0 - kept_mass
        unseen_mass = dense_sums(tab, 0.0, lower.rows(tab.ids[:, 1:]))
        spread = (leftover > 0.0) & (unseen_mass > 0.0)
        dead = ~spread & (leftover != 0.0) & (kept_mass <= 0.0)
        a, d = np.where(spread, leftover, dead * 1.0), np.where(spread, unseen_mass, 1.0)
        got, want = katz_branches(level.a, level.d), np.select([dead, ~spread], [2, 1], 0)
        # a spread row of a = d = 1 is its parent row, and reads as 2; the
        # checks below hold its a and d by the dense sums to 1
        assert ((got == want) | (got == 2) & (want == 0)).all(), (tab.order, got, want)
        for part, oracle in ((level.a, a), (level.d, d)):
            np.testing.assert_allclose(part, oracle, rtol=1e-12, atol=0,
                                       err_msg=f"order {tab.order}")
        level = lower


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

