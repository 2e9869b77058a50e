"""Counting-layer tests against a literal enumeration oracle.

The oracle re-implements the substring count as the raw double sum over
(start, end) position pairs, with the empty substring counted once per
position, and the EOS-terminated count as a suffix scan.  The library must
agree on every query.
"""

from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlm import corpus as corpus_module
from smoothlm.corpus import (
    Corpus,
    CountTable,
    EmptyCorpusError,
    Vocabulary,
    corpus_from_lines,
    count_ngrams,
    load_corpus,
    marginalize,
    read_count_table,
    row_index,
    tables_down_to_unigram,
    write_count_table,
    zero_gram_count,
)
from smoothlm.decompose import build_regularizer
from smoothlm.neural import TabularSoftmaxLM, TrainConfig, train
from smoothlm.ngram import empirical_conditional, perplexity
from smoothlm.smoothers import METHODS, smooth
from smoothlm.verify import corpus_of, count_substrings, markov_zipf_lines


def oracle_substring_count(sequences, query):
    """Triple loop over (sequence, start, end) with x_{t:s} = x_t..x_{s-1}."""
    query = tuple(query)
    total = 0
    for seq in sequences:
        L = len(seq)
        for t in range(1, L + 2):
            for s in range(t, L + 2):
                if tuple(seq[t - 1:s - 1]) == query:
                    total += 1
    return total


def oracle_suffix_count(sequences, query):
    query = tuple(query)
    total = 0
    for seq in sequences:
        L = len(seq)
        for t in range(1, L + 2):
            if tuple(seq[t - 1:]) == query:
                total += 1
    return total


def toy_corpus():
    return corpus_from_lines(["a b", "b a"])


def assert_same_table(got: CountTable, want: CountTable) -> None:
    """Every field of the two tables equal, each array of the same dtype."""
    for f in fields(CountTable):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


def window_counts(corpus, order):
    """{(history, emitted id): count} over the windows of each BOS-padded
    sequence, one emitting position at a time."""
    v = corpus.vocab
    grams = Counter()
    for seq in corpus.sequences:
        ids = (v.bos_id,) * (order - 1) + seq + (v.eos_id,)
        for t in range(order - 1, len(ids)):
            grams[ids[t - order + 1:t], ids[t]] += 1
    return grams


def oracle_table(vocab, order, grams):
    """The CountTable of {(history, emitted id): count}, field by field:
    histories sorted, codes as Python ints spelling them in base |V|+2,
    grams sorted by (history, emission index), each gram's code spelling
    its history's ids and then its emitted id."""
    base, width = vocab.n_symbols + 2, order - 1
    hists = sorted({h for h, _ in grams})
    row = {h: i for i, h in enumerate(hists)}
    cells = sorted((row[h], vocab.out_index(x), c, x) for (h, x), c in grams.items())
    totals = Counter()
    for (h, _), c in grams.items():
        totals[h] += c

    def spelled(ids):
        return sum(i * base ** (len(ids) - 1 - j) for j, i in enumerate(ids))

    def code_array(codes, w):
        return np.array(codes, dtype=object if base ** w >= 2 ** 63 else np.int64)

    return CountTable(
        ids=np.array(hists, dtype=np.intp).reshape(len(hists), width),
        codes=code_array([spelled(h) for h in hists], width),
        base=base, code_rows=None, order=order, vocab=vocab,
        hist=np.array([r for r, _, _, _ in cells], dtype=np.intp),
        out=np.array([j for _, j, _, _ in cells], dtype=np.intp),
        count=np.array([c for _, _, c, _ in cells], dtype=np.int64),
        totals=np.array([totals[h] for h in hists], dtype=np.int64),
        gram_codes=code_array([spelled(hists[r] + (x,)) for r, _, _, x in cells], order))


# 600 symbols: (|V|+2)^7 passes 2^63, so the gram codes at orders 7 and 8
# and the history codes at order 8 are Python ints
@st.composite
def corpora_and_orders(draw):
    n_sym = draw(st.sampled_from([1, 4, 600]))
    seqs = draw(st.lists(st.lists(st.integers(0, n_sym - 1), max_size=10),
                         min_size=1, max_size=6))
    vocab = Vocabulary(symbols=tuple(f"s{i}" for i in range(n_sym)))
    return corpus_of(vocab, seqs), draw(st.integers(1, 8))


class TestVocabulary:
    def test_first_appearance_order_and_sentinels(self):
        v = corpus_from_lines(["a b", "b a"]).vocab
        assert v.symbols == ("a", "b")
        assert (v.bos_id, v.eos_id) == (2, 3)
        assert v.id_of["a"] == 0 and v.id_of["b"] == 1

    def test_singleton_and_dedup(self):
        assert corpus_from_lines(["x"]).vocab.symbols == ("x",)
        assert corpus_from_lines(["a a a"]).vocab.symbols == ("a",)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError, match="empty corpus"):
            corpus_from_lines(["", "   "]).vocab

    def test_ids_contiguous(self):
        v = corpus_from_lines(["c a b a"]).vocab
        assert [v.id_of[s] for s in v.symbols] == list(range(len(v.symbols)))

    def test_sentinel_token_collision_rejected(self):
        with pytest.raises(ValueError):
            corpus_from_lines(["a <bos> b"]).vocab

    def test_repeated_symbol_rejected(self):
        with pytest.raises(ValueError, match="^vocabulary symbols must be distinct$"):
            Vocabulary(symbols=("a", "b", "a"))

    @pytest.mark.parametrize("index", [-1, 3])
    def test_out_index_out_of_range_rejected(self, index):
        v = Vocabulary(symbols=("a", "b"))
        assert v.id_at_out(2) == v.eos_id
        with pytest.raises(ValueError, match=f"^out index {index} out of range$"):
            v.id_at_out(index)


def test_corpus_of_no_sequences_rejected():
    with pytest.raises(EmptyCorpusError, match="^empty corpus$"):
        Corpus(Vocabulary(symbols=("a",)), np.array([], dtype=np.intp),
               np.array([], dtype=np.intp))


@pytest.mark.parametrize("shape", [(3, 1), (3, 3), (2,)])
def test_history_ids_of_another_width_rejected(shape):
    with pytest.raises(ValueError, match=rf"^history ids of shape \({shape[0]},"):
        corpus_module.check_histories(Vocabulary(symbols=("a", "b")), 2,
                                      np.zeros(shape, dtype=np.intp))


@pytest.mark.parametrize("sequences, bad", [
    (((0, 1), (1, 2, 0), (3,)), 2),         # BOS's id
    (((0,), (), (1, -1, 3)), -1),
    (((1, 3), (2,)), 3),                   # EOS's id, before another bad one
])
def test_corpus_names_its_first_bad_id(sequences, bad):
    # the first id, in sequence order, that is not a symbol's
    with pytest.raises(ValueError, match=f"^id {bad} is not a non-sentinel vocabulary id$"):
        corpus_of(Vocabulary(symbols=("a", "b")), sequences)


def test_corpus_names_an_id_past_int64():
    # an unsigned id is compared before it is cast to intp, where it wraps
    ids = np.array([0, 1, 1, 2 ** 64 - 1], dtype=np.uint64)
    with pytest.raises(ValueError, match=f"^id {2 ** 64 - 1} is not a non-sentinel vocabulary"):
        Corpus(Vocabulary(symbols=("a", "b")), ids, np.array([2, 2]))


@pytest.mark.parametrize("ids, lengths, message", [
    # counting would truncate 1.5 to id 1, and read True and 1.0 as id 1
    pytest.param(np.array([1.5, 0, 1]), np.array([2, 1]),
                 "ids must be a 1-D integer array, got 1-D float64", id="float-fraction"),
    pytest.param(np.array([True]), np.array([1]),
                 "ids must be a 1-D integer array, got 1-D bool", id="bool"),
    pytest.param(np.array([1.0, 0.0]), np.array([2]),
                 "ids must be a 1-D integer array, got 1-D float64", id="float"),
    pytest.param(np.array([0, True], dtype=object), np.array([2]),
                 "ids must be a 1-D integer array, got 1-D object", id="object"),
    pytest.param([0, 1], np.array([2]),
                 "ids must be a 1-D integer array, got list", id="list"),
    pytest.param(np.array([[0, 1]]), np.array([2]),
                 "ids must be a 1-D integer array, got 2-D int64", id="2-D"),
    pytest.param(np.array([0, 1]), np.array([1.0, 1.0]),
                 "lengths must be a 1-D integer array, got 1-D float64",
                 id="float-lengths"),
    pytest.param(np.array([0, 1]), np.array([3, -1]),
                 "lengths must be nonnegative and sum to the 2 ids", id="negative-length"),
    pytest.param(np.array([0, 1]), np.array([1]),
                 "lengths must be nonnegative and sum to the 2 ids", id="short-lengths"),
    pytest.param(np.array([0, 1]), np.array([2, 1]),
                 "lengths must be nonnegative and sum to the 2 ids", id="long-lengths"),
    pytest.param(np.array([0, 1]), np.array([2 ** 64 - 1, 3], dtype=np.uint64),
                 "lengths must be nonnegative and sum to the 2 ids", id="wrapping-lengths"),
])
def test_corpus_refuses_an_id_that_is_not_an_integer(ids, lengths, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Corpus(Vocabulary(symbols=("a", "b")), ids, lengths)


def test_corpus_takes_numpy_integer_ids():
    # ids and lengths of any integer dtype, kept as intp
    for dtype in (np.int8, np.int32, np.uint16, np.uint64):
        c = Corpus(Vocabulary(symbols=("a", "b")), np.array([1, 0], dtype=dtype),
                   np.array([2], dtype=dtype))
        assert c.ids.dtype == c.lengths.dtype == np.intp
        assert count_ngrams(c, 1).gram_count == {((), 1): 1, ((), 0): 1, ((), c.vocab.eos_id): 1}


class TestCountSubstrings:
    def test_single_symbol(self):
        c = toy_corpus()
        assert count_substrings(c, [c.vocab.id_of["a"]]) == 2

    def test_bigram(self):
        c = toy_corpus()
        ids = [c.vocab.id_of["a"], c.vocab.id_of["b"]]
        assert count_substrings(c, ids) == 1

    def test_suffix(self):
        c = toy_corpus()
        assert count_substrings(c, [c.vocab.id_of["a"]], with_eos=True) == 1

    def test_empty_suffix_is_M(self):
        c = toy_corpus()
        assert count_substrings(c, [], with_eos=True) == c.M == 2

    def test_empty_query_counts_positions(self):
        c = toy_corpus()
        assert count_substrings(c, []) == 6

    def test_sentinel_query_rejected(self):
        c = toy_corpus()
        with pytest.raises(ValueError):
            count_substrings(c, [c.vocab.bos_id])

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        vocab = Vocabulary(symbols=("a", "b", "c"))
        for _ in range(25):
            m = int(rng.integers(1, 6))
            seqs = tuple(
                tuple(int(x) for x in rng.integers(0, 3, size=int(rng.integers(0, 7))))
                for _ in range(m)
            )
            corpus = corpus_of(vocab, seqs)
            for qlen in range(0, 4):
                for _ in range(5):
                    q = tuple(int(x) for x in rng.integers(0, 3, size=qlen))
                    assert count_substrings(corpus, q) == oracle_substring_count(seqs, q)
                    assert count_substrings(corpus, q, with_eos=True) == oracle_suffix_count(seqs, q)

    def test_monotone_under_extension(self):
        c = corpus_from_lines(["a b a b a", "b b a"])
        for x in range(2):
            for y in range(2):
                assert count_substrings(c, [x, y]) <= count_substrings(c, [x])


class TestCountNgrams:
    def test_bigram_hand_tally(self):
        c = toy_corpus()
        t = count_ngrams(c, 2)
        v = c.vocab
        a, b = v.id_of["a"], v.id_of["b"]
        assert t.gram_count[((v.bos_id,), a)] == 1
        assert t.gram_count[((v.bos_id,), b)] == 1
        assert t.gram_count[((a,), b)] == 1
        assert t.gram_count[((b,), a)] == 1
        assert t.gram_count[((b,), v.eos_id)] == 1
        assert t.gram_count[((a,), v.eos_id)] == 1
        assert t.history_count[(v.bos_id,)] == 2
        assert t.total_tokens == 6

    def test_unigram_total(self):
        c = toy_corpus()
        t = count_ngrams(c, 1)
        assert t.history_count[()] == 6

    def test_trigram_padding(self):
        c = corpus_from_lines(["a"])
        t = count_ngrams(c, 3)
        v = c.vocab
        a = v.id_of["a"]
        assert t.gram_count[((v.bos_id, v.bos_id), a)] == 1
        assert t.gram_count[((v.bos_id, a), v.eos_id)] == 1

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            count_ngrams(toy_corpus(), 0)

    @pytest.mark.parametrize("order", [2.0, 1.5, True, False, "2", None])
    def test_order_that_is_not_an_integer_rejected(self, order):
        # 2.0 and True used to fail with a TypeError from tuple repetition
        with pytest.raises(ValueError, match=f"order must be an integer >= 1, got {order!r}"):
            count_ngrams(toy_corpus(), order)

    @settings(max_examples=150)
    @given(corpora_and_orders())
    def test_matches_a_window_counter(self, data):
        c, order = data
        t = count_ngrams(c, order)
        assert_same_table(t, oracle_table(c.vocab, order, window_counts(c, order)))
        if c.vocab.n_symbols == 600 and order == 8:
            assert t.codes.dtype == object

    def test_numpy_integer_order_is_stored_as_int(self):
        t = count_ngrams(toy_corpus(), np.int64(2))
        assert type(t.order) is int
        assert_same_table(t, count_ngrams(toy_corpus(), 2))

    def test_history_totals_equal_emissions(self):
        rng = np.random.default_rng(3)
        vocab = Vocabulary(symbols=("a", "b"))
        for order in (1, 2, 3):
            seqs = tuple(
                tuple(int(x) for x in rng.integers(0, 2, size=int(rng.integers(0, 6))))
                for _ in range(4)
            )
            corpus = corpus_of(vocab, seqs)
            t = count_ngrams(corpus, order)
            assert sum(t.history_count.values()) == corpus.total_emissions
            row_sums = Counter()
            for (h, _), c in t.gram_count.items():
                row_sums[h] += c
            assert row_sums == t.history_count

    def test_history_row_matches_substring_counts(self):
        # for BOS-free histories at order n, the row extends #(h) over y
        c = corpus_from_lines(["a b a b", "b a a"])
        t = count_ngrams(c, 2)
        for h in t.history_count:
            if c.vocab.bos_id in h:
                continue
            assert t.history_count[h] == count_substrings(c, h)
            ext = sum(
                t.gram_count.get((h, x), 0)
                for x in list(range(c.vocab.n_symbols)) + [c.vocab.eos_id]
            )
            assert ext == count_substrings(c, h)

    def test_bos_only_contiguous_prefix(self):
        c = corpus_from_lines(["a b a", "b"])
        t = count_ngrams(c, 3)
        bos = c.vocab.bos_id
        for h in t.history_count:
            seen_sym = False
            for i in h:
                if i == bos:
                    assert not seen_sym
                else:
                    seen_sym = True


class TestCountsOfCounts:
    def test_tally(self):
        c = toy_corpus()
        t = count_ngrams(c, 2)
        assert t.count_of_counts == {1: 6}

    def test_weighted_sum_is_total_tokens(self):
        c = corpus_from_lines(["a b a b a", "b b a", "a a a a"])
        for order in (1, 2, 3):
            t = count_ngrams(c, order)
            r = t.count_of_counts
            assert sum(i * ri for i, ri in r.items()) == t.total_tokens

    def test_zero_gram_count(self):
        c = toy_corpus()
        t = count_ngrams(c, 2)
        # 3 observed histories x 3 emissions - 6 observed grams
        assert zero_gram_count(t) == 3


class TestMarginalize:
    @settings(max_examples=150)
    @given(corpora_and_orders())
    def test_matches_direct_recount(self, data):
        c, order = data
        t = count_ngrams(c, order)
        while t.order > 1:
            t = marginalize(t)
            assert_same_table(t, count_ngrams(c, t.order))


@st.composite
def corpora_and_wide_orders(draw):
    """A corpus of up to four symbols or of 600, and an order from 1 to 8 or
    from the least whose gram codes reach 2^63 to two past it, where a
    table's codes, its marginal's gram codes or its marginal's history codes
    are Python ints."""
    n_sym = draw(st.sampled_from([1, 2, 4, 600]))
    wide = next(w for w in range(1, 64) if (n_sym + 2) ** w >= 2 ** 63)
    seqs = draw(st.lists(st.lists(st.integers(0, n_sym - 1), max_size=10),
                         min_size=1, max_size=6))
    vocab = Vocabulary(symbols=tuple(f"s{i}" for i in range(n_sym)))
    order = draw(st.sampled_from([*range(1, 9), wide, wide + 1, wide + 2]))
    return corpus_of(vocab, seqs), order


@settings(max_examples=150, deadline=None)
@given(corpora_and_wide_orders())
def test_parents_are_the_suffix_rows_and_grams(data):
    # each history's parent row in the marginal holds the history less its
    # oldest symbol, and each gram's parent gram is that row's gram of the
    # same emission; an order-1 table has no marginal
    c, order = data
    t = count_ngrams(c, order)
    if order == 1:
        with pytest.raises(ValueError, match="cannot marginalize an order-1 table"):
            t.parents
    while t.order > 1:
        down = t.marginal
        rows, grams = t.parents
        np.testing.assert_array_equal(down.ids[rows], t.ids[:, 1:])
        np.testing.assert_array_equal(down.hist[grams], rows[t.hist])
        np.testing.assert_array_equal(down.out[grams], t.out)
        t = down


def test_smoothing_and_decomposing_make_no_search(monkeypatch):
    # each level's parents come from the sort that builds its marginal, so
    # reading them runs no np.searchsorted
    table = count_ngrams(corpus_from_lines(markov_zipf_lines(300, 50, 0)), 3)
    searches = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted",
                        lambda *args, **kw: searches.append(1) or searchsorted(*args, **kw))
    for t in tables_down_to_unigram(table)[1:]:
        t.parents
    assert searches == []
    # the backoff smoothers read each level's parents off the table, and a
    # bundle reads each LM's values on its own grams, so neither runs
    # sorted_search, the search of history and cell codes
    emp = empirical_conditional(table)
    calls = []
    search = corpus_module.sorted_search

    def counted(a, v):
        calls.append(len(v))
        return search(a, v)

    monkeypatch.setattr(corpus_module, "sorted_search", counted)
    lms = [smooth(table, method) for method in METHODS]
    for lm in lms:
        build_regularizer(emp, lm, table, 1.0, 1.0)
    assert calls == []
    # the six LMs score a held-out corpus through the table's one placement
    # of it: one count, and at most one search of its histories and one of
    # its grams per level of the chain
    lines = markov_zipf_lines(300, 50, 0)
    held = corpus_from_lines([" ".join(ln.split()[::-1]) for ln in lines], vocab=table.vocab)
    counts = []
    monkeypatch.setattr(corpus_module, "count_ngrams",
                        lambda *args: counts.append(1) or count_ngrams(*args))
    searches.clear()
    for lm in lms:
        perplexity(lm, held)
    assert len(counts) == 1
    assert len(searches) <= 2 * len(tables_down_to_unigram(table))


def test_small_integer_keys_are_indexed_not_sorted(monkeypatch):
    # on an order-3 table over 300 symbols, the smoothers take counts-of-
    # counts and each gram's count index from a bincount, and the codes
    # below the top level (under base^2 = 91,204) are few enough for a
    # direct-address table: placing held-out data there sorts and searches
    # nothing, and the top level searches only the grams, whose queries
    # come sorted
    lines = markov_zipf_lines(1000, 300, 0)
    table = count_ngrams(corpus_from_lines(lines), 3)
    tables = tables_down_to_unigram(table)
    held = count_ngrams(corpus_from_lines(markov_zipf_lines(1000, 300, 1), vocab=table.vocab), 3)
    calls = []

    def counted(name):
        real = getattr(np, name)

        def call(*args, **kw):
            calls.append((name, kw.get("return_inverse", False)))
            return real(*args, **kw)
        return call

    for name in ("unique", "argsort", "searchsorted"):
        monkeypatch.setattr(np, name, counted(name))
    for method in METHODS:
        smooth(table, method)
    assert ("unique", True) not in calls
    calls.clear()
    place = table.locate(held)
    for t in tables[:-1]:
        place.rows(t), place.grams(t)
    assert calls == []
    place.rows(table), place.grams(table)
    assert calls == [("searchsorted", False)]


def test_backoff_smoothers_of_one_table_share_its_marginals(monkeypatch):
    # JM, Katz and KEN each descend an order-3 table to order 1, through
    # the table's cached marginal and its marginal's
    calls = []
    monkeypatch.setattr(corpus_module, "marginalize",
                        lambda t: calls.append(t.order) or marginalize(t))
    table = count_ngrams(corpus_from_lines(["a b c a", "b b a", "c a"]), 3)
    unigrams, bigrams, _ = tables_down_to_unigram(table)
    for method in ("jelinek_mercer", "katz", "kneser_essen_ney"):
        lm = smooth(table, method)
        assert lm.backstop.keys is bigrams and lm.backstop.backstop.keys is unigrams
    assert calls == [3, 2]


class TestFromGrams:
    def test_sums_equal_keys_in_sorted_order(self):
        v = Vocabulary(symbols=("a", "b"))
        eos, bos = v.eos_id, v.bos_id
        t = CountTable.from_grams(2, v, [(1, eos), (bos, 0), (1, eos), (0, 1), (1, 0)],
                                  [2, 1, 3, 1, 4])
        assert t.hists == ((0,), (1,), (bos,))
        assert t.index == {(0,): 0, (1,): 1, (bos,): 2}
        assert t.hist.tolist() == [0, 1, 1, 2]
        assert t.out.tolist() == [1, 0, v.n_symbols, 0]
        assert t.count.tolist() == [1, 4, 5, 1]
        assert t.totals.tolist() == [1, 9, 1]
        assert t.total_tokens == 11
        assert t.count_of_counts == {1: 2, 4: 1, 5: 1}

    @pytest.mark.parametrize("key, count, message", [
        ((3, 0), 1, "history id is not a symbol or BOS"),
        ((-1, 0), 1, "history id is not a symbol or BOS"),
        ((0, 2), 1, "symbol is not an emittable id"),
        ((0, -1), 1, "symbol is not an emittable id"),
        ((0, 1), 0, "count 0 is below 1"),
        ((0, 1), -2, "count -2 is below 1"),
    ])
    def test_rejects(self, key, count, message):
        # ids: a=0, b=1, BOS=2, EOS=3
        v = Vocabulary(symbols=("a", "b"))
        with pytest.raises(ValueError, match=message):
            CountTable.from_grams(2, v, [(0, 0), key], [1, count])

    def test_rejects_bos_after_a_symbol(self):
        # BOS padding only ever puts BOS before the first symbol
        v = Vocabulary(symbols=("a", "b"))
        with pytest.raises(ValueError, match=r"BOS is not a contiguous prefix of history \(0, 2\)"):
            CountTable.from_grams(3, v, [(2, 2, 0), (0, 2, 1)], [1, 1])

    @settings(max_examples=150)
    @given(st.data())
    def test_summed_counts_match_a_counter(self, data):
        # key rows in any order, repeated, with counts of at least 1
        n_sym = data.draw(st.sampled_from([1, 3, 600]))
        order = data.draw(st.integers(1, 8))
        v = Vocabulary(symbols=tuple(f"s{i}" for i in range(n_sym)))
        bos, emit = st.just(v.bos_id), st.sampled_from([0, n_sym - 1, v.eos_id])
        # a history is a run of BOS, then symbols
        hist = st.integers(0, order - 1).flatmap(lambda k: st.tuples(
            *[bos] * k, *[st.integers(0, n_sym - 1)] * (order - 1 - k)))
        pool = data.draw(st.lists(st.tuples(hist, emit), min_size=1, max_size=6))
        rows = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 5)),
                                  min_size=1, max_size=20))
        grams = Counter()
        for g, c in rows:
            grams[g] += c
        t = CountTable.from_grams(order, v, [(*h, x) for (h, x), _ in rows],
                                  [c for _, c in rows])
        assert_same_table(t, oracle_table(v, order, grams))

    def test_rejects_keys_of_another_order(self):
        with pytest.raises(ValueError, match="gram array"):
            CountTable.from_grams(3, Vocabulary(symbols=("a",)), [(0, 0)], [1])
        with pytest.raises(ValueError, match="nonempty"):
            CountTable.from_grams(2, Vocabulary(symbols=("a",)), np.zeros((0, 2)), [])


class TestCountViews:
    def test_pipeline_builds_no_count_dict(self, tmp_path):
        lines = ["a b c", "b c a a", "c c b", "a a b c"]
        table = count_ngrams(corpus_from_lines(lines), 2)
        heldout = count_ngrams(corpus_from_lines(["c a b", "b b"], vocab=table.vocab), 2)
        emp = empirical_conditional(table)
        for method in METHODS:
            build_regularizer(emp, smooth(table, method), table, 1.0, 1.0)
        config = TrainConfig(objective="split_regularizer", method="kneser_essen_ney",
                             gamma_plus=0.5, gamma_minus=0.5, epochs=3)
        train(TabularSoftmaxLM.for_table(table), table, config, heldout=heldout)
        write_count_table(table, str(tmp_path / "counts.tsv"))
        for t in (table, heldout):
            assert "gram_count" not in vars(t) and "history_count" not in vars(t)

    def test_views_built_on_first_read(self):
        t = count_ngrams(toy_corpus(), 2)
        assert vars(t).keys() == {f.name for f in fields(CountTable)}
        grams, hists = t.gram_count, t.history_count
        assert vars(t)["gram_count"] is grams and vars(t)["history_count"] is hists


class TestCorpusIO:
    def test_skips_empty_lines(self, caplog):
        c = corpus_from_lines(["a b", "", "   ", "b"])
        assert c.M == 2
        assert c.skipped_lines == 2

    def test_one_pass_over_any_iterable(self):
        lines = ["c a", "", "a b c", "b"]
        c = corpus_from_lines(iter(lines))
        assert c.vocab.symbols == ("c", "a", "b")
        assert c.sequences == ((0, 1), (1, 2, 0), (2,)) and c.skipped_lines == 1
        again = corpus_from_lines(line for line in lines[::-1])
        assert again.vocab.symbols == ("b", "a", "c")
        with pytest.raises(ValueError, match="token 'd' not present in vocabulary"):
            corpus_from_lines(iter(["a d"]), vocab=c.vocab)
        with pytest.raises(ValueError, match="collides with a reserved sentinel"):
            corpus_from_lines(iter(["a </s>"]))

    def test_load_roundtrip(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text("a b\n\nb a\n", encoding="utf-8")
        c = load_corpus(str(p))
        assert c.M == 2
        assert c.vocab.symbols == ("a", "b")

    def test_a_line_ends_at_a_newline_only(self, tmp_path):
        # str.splitlines also breaks at these, which made one line two sequences
        p = tmp_path / "corpus.txt"
        p.write_text("a\x0cb c\nb\u2028a\n", encoding="utf-8")
        assert load_corpus(str(p)).sequences == ((0, 1, 2), (1, 0))
        p.write_text("a\x0bb\x1cc\x1dc\nb\x1ea\x85b\u2029a\n\n", encoding="utf-8")
        c = load_corpus(str(p))
        assert c.sequences == ((0, 1, 2, 2), (1, 0, 1, 0)) and c.skipped_lines == 1

    def test_tsv_roundtrip_byte_identical(self, tmp_path):
        c = corpus_from_lines(["a b a", "b a", "c"])
        t = count_ngrams(c, 2)
        p1 = tmp_path / "c1.tsv"
        p2 = tmp_path / "c2.tsv"
        write_count_table(t, str(p1))
        t2 = read_count_table(str(p1))
        write_count_table(t2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert t2.total_tokens == t.total_tokens
        assert t2.count_of_counts == t.count_of_counts


def test_array_holding_dataclasses_compare_and_hash_by_identity():
    # the generated __eq__ compared their arrays and raised, __hash__ raised,
    # and two bundles of different tables with equal gammas compared equal
    c = toy_corpus()
    tables = [count_ngrams(c, 2), count_ngrams(c, 2)]
    bundles = [build_regularizer(empirical_conditional(t), smooth(t, "add_lambda"), t, 1.0, 1.0)
               for t in tables]
    keys = [row_index(c.vocab, 1, tables[0].hists) for _ in range(2)]
    corpora = [corpus_from_lines(["a b", "b a"]), corpus_of(c.vocab, c.sequences)]
    for one, two in (tables, keys, [b.rows for b in bundles], bundles, corpora):
        assert one == one and one != two
        assert hash(one) == object.__hash__(one)
        assert len({one, two, one}) == 2
