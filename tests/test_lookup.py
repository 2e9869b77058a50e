"""Lookups against dict lookups written here: row lookup by sorted history
codes (corpus.RowKeys.find) in ConditionalLM.rows with its suffix descent,
the tabular model's forward and perplexity, and the backoff structure the
smoothers read with no search (each count table's parent map,
CountTable.parents, and each LM's values on its own grams), over random
tables and query batches.  The batches mix seen, unseen, out-of-range and
wrong-length histories, and histories whose naive code aliases a seen one.
Orders near 32 make the codes of a two- to four-symbol vocabulary pass
2^63, so that they are Python ints.  Code lookups by direct address and
count indices by bincount are checked against a dict and np.unique."""

import gc
import math
import pickle
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlm import corpus as corpus_module
from smoothlm.corpus import (DIRECT_ADDRESS_SPAN, Corpus, CountTable, Vocabulary, count_ngrams,
                             distinct_counts, sorted_index, tables_down_to_unigram)
from smoothlm.ngram import (ConditionalLM, UnseenHistoryError, empirical_conditional,
                            perplexity, table_perplexity, uniform_backstop)
from smoothlm.neural import TabularSoftmaxLM
from smoothlm.smoothers import METHODS, KatzConfigError, smooth
from smoothlm.verify import corpus_of


def wide_width(n_sym: int) -> int:
    """The least history width whose codes in base n_sym + 2 reach 2^63."""
    return next(w for w in range(1, 64) if (n_sym + 2) ** w >= 2 ** 63)


@st.composite
def cases(draw):
    """A training corpus, a held-out corpus and an order; the orders past 4
    give gram codes, or gram and history codes, of Python ints."""
    n_sym = draw(st.integers(2, 4))
    w = wide_width(n_sym)
    order = draw(st.sampled_from([1, 2, 3, 4, w, w + 1]))
    vocab = Vocabulary(symbols=tuple("abcd"[:n_sym]))

    def sequences(min_size):
        seqs = draw(st.lists(st.lists(st.integers(0, n_sym - 1), max_size=8),
                             min_size=min_size, max_size=6))
        return tuple(map(tuple, seqs))

    # "a a" makes (a, a), the history the aliasing ids below spell, seen
    train = corpus_of(vocab, ((0, 0),) + sequences(0))
    return train, corpus_of(vocab, sequences(1)), order


@st.composite
def batches(draw, table: CountTable):
    """Histories to look up: seen, drawn at random from the symbol and BOS
    ids (BOS anywhere), and at most one out-of-range or wrong-length one."""
    vocab, width = table.vocab, table.order - 1
    seen = table.ids.tolist()
    some = st.lists(st.integers(0, vocab.bos_id), min_size=width, max_size=width)
    batch = draw(st.lists(st.one_of(st.sampled_from(seen), some), min_size=1, max_size=12))
    bad = draw(st.sampled_from(["none", "none", "range", "length", "alias"]))
    if bad == "range" or (bad == "alias" and width < 2):
        h = draw(some) if width else [0]
        h[draw(st.integers(0, len(h) - 1))] = draw(st.sampled_from(
            [-1, vocab.bos_id + 1, vocab.n_symbols + 2, 2 ** 40]))
        batch.append(h)
    elif bad == "length":
        batch.append(draw(st.lists(st.integers(0, vocab.bos_id), min_size=max(width - 1, 0),
                                   max_size=width + 1).filter(lambda h: len(h) != width)))
    elif bad == "alias":
        # (h0 - 1, h1 + base, ...) spells the code of the seen (h0, h1, ...)
        h = list(draw(st.sampled_from(seen)))
        h[0] -= 1
        h[1] += vocab.n_symbols + 2
        batch.append(h)
    draw(st.randoms()).shuffle(batch)
    return [tuple(h) for h in batch]


def the_error(table: CountTable, batch):
    """The message ValueError must match for `batch`, or None if valid."""
    if any(len(h) != table.order - 1 for h in batch):
        return "length"
    if any(not 0 <= i <= table.vocab.bos_id for h in batch for i in h):
        return "not a symbol or BOS"
    return None


def rows_of(lm: ConditionalLM) -> dict:
    return {tuple(h): row for h, row in zip(lm.keys.ids.tolist(), lm.matrix)}


def expected_row(lm: ConditionalLM, h: tuple) -> np.ndarray:
    """The row at the highest level of lm's backstop chain that stores a
    suffix of h; UnseenHistoryError(h) where a level with no backstop lacks h."""
    while True:
        rows = rows_of(lm)
        if h in rows:
            return rows[h]
        if lm.backstop is None:
            raise UnseenHistoryError(h)
        h, lm = h[lm.order - lm.backstop.order:], lm.backstop


def check_rows(lm: ConditionalLM, table: CountTable, batch) -> None:
    error = the_error(table, batch)
    if error is not None:
        with pytest.raises(ValueError, match=error):
            lm.rows(batch)
        return
    try:
        want = np.array([expected_row(lm, h) for h in batch])
    except UnseenHistoryError as exc:
        with pytest.raises(UnseenHistoryError) as raised:
            lm.rows(batch)
        assert raised.value.args == exc.args
        return
    np.testing.assert_array_equal(lm.rows(batch), want)


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def expected_perplexity(order: int, row_of, corpus: Corpus) -> float:
    """exp of the mean -log q over the corpus's emissions, token by token,
    where row_of(h) is q(.|h)."""
    v, pad, nll = corpus.vocab, (corpus.vocab.bos_id,) * (order - 1), 0.0
    for seq in corpus.sequences:
        ids = pad + seq + (v.eos_id,)
        for t in range(len(pad), len(ids)):
            p = row_of(ids[t - len(pad):t])[v.out_index(ids[t])]
            if p == 0.0:
                return math.inf
            nll -= math.log(p)
    return math.exp(nll / corpus.total_emissions)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rows_match_a_dict_lookup(data):
    train, held, order = data.draw(cases())
    table = count_ngrams(train, order)
    batch = data.draw(batches(table))
    emp = empirical_conditional(table)
    # the rows of a sequence of histories, not in code order, are found
    # through the permutation row_index keeps
    perm = data.draw(st.permutations(range(len(emp.matrix))))
    shuffled = ConditionalLM(order, train.vocab,
                             ([emp.keys.hists[i] for i in perm], emp.matrix[perm]),
                             backstop=uniform_backstop(train.vocab))
    lms = [emp, shuffled]
    for method in METHODS:
        if method == "kneser_essen_ney" and order < 2:
            continue
        try:
            lms.append(smooth(table, method))
        except KatzConfigError:
            continue
    for lm in lms:
        check_rows(lm, table, batch)
        if lm is not emp:
            want = expected_perplexity(order, lambda h: expected_row(lm, h), held)
            assert perplexity(lm, held) == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_parents_match_a_dict_lookup(data):
    train, _, order = data.draw(cases())
    tables = tables_down_to_unigram(count_ngrams(train, order))
    for lower, tab in zip(tables, tables[1:]):
        assert tab.marginal is lower
        index = {tuple(h): i for i, h in enumerate(lower.ids.tolist())}
        gram = {(lower.hists[r], j): g for g, (r, j) in enumerate(zip(lower.hist, lower.out))}
        rows, grams = tab.parents
        assert rows.tolist() == [index[tuple(h[1:])] for h in tab.ids.tolist()]
        assert grams.tolist() == [gram[tab.hists[r][1:], j] for r, j in zip(tab.hist, tab.out)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gram_cells_are_the_cells_of_the_keys_grams(data):
    # every smoother's LM and each level below it, the empirical LM and an
    # LM given a dense matrix keyed by the table read their values on their
    # own grams with no search, as `cells` finds them
    train, _, order = data.draw(cases())
    table = count_ngrams(train, order)
    emp = empirical_conditional(table)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.dirichlet(np.ones(train.vocab.out_dim), size=len(table.ids))
    lms = [emp, ConditionalLM(order, train.vocab, (table, rows))]
    for method in METHODS:
        if method == "kneser_essen_ney" and order < 2:
            continue
        try:
            lm = smooth(table, method)
        except KatzConfigError:
            continue
        while lm is not None and isinstance(lm.keys, CountTable):
            lms.append(lm)
            lm = lm.backstop
    for lm in lms:
        keys = lm.keys
        want = lm.cells(keys, keys.hist, keys.out)
        np.testing.assert_array_equal(lm.gram_cells.view(np.int64), want.view(np.int64))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tabular_forward_matches_a_dict_lookup(data):
    train, held, order = data.draw(cases())
    table = count_ngrams(train, order)
    batch = data.draw(batches(table))
    seen = table.ids.tolist()
    hists = [tuple(seen[i]) for i in data.draw(st.permutations(range(len(seen))))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    for model in (TabularSoftmaxLM.for_table(table), TabularSoftmaxLM(order, train.vocab, hists)):
        model.logits[...] = rng.normal(size=model.logits.shape)
        logits = {tuple(h): z for h, z in zip(model.keys.ids.tolist(), model.logits)}
        error = the_error(table, batch)
        if error is not None:
            with pytest.raises(ValueError, match=error):
                model.lookup(batch)
            continue
        row = {h: i for i, h in enumerate(map(tuple, model.keys.ids.tolist()))}
        idx = model.lookup(batch)
        *_, q = model.forward(idx)
        assert idx.tolist() == [row.get(h, -1) for h in batch]
        z = np.array([logits.get(h, np.zeros(train.vocab.out_dim)) for h in batch])
        np.testing.assert_allclose(q, softmax(z), rtol=1e-12)

        def row_of(h):
            return softmax(logits.get(h, np.zeros(train.vocab.out_dim))[None, :])[0]

        assert perplexity(model, held) == pytest.approx(
            expected_perplexity(order, row_of, held), rel=1e-12)


def cell_by_dict(lm: ConditionalLM, h: tuple, j: int) -> float:
    """Cell j of the row at the highest level of lm's backstop chain whose
    keys' `index` holds a suffix of h."""
    while (i := lm.keys.index.get(h)) is None:
        h, lm = h[lm.order - lm.backstop.order:], lm.backstop
    return lm.matrix[i, j]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shuffled_queries_find_what_sorted_ones_do(data):
    # find and cells search their queries in sorted order and scatter the
    # answers back, so a query's answer cannot depend on its place
    train, held, order = data.draw(cases())
    table, t = count_ngrams(train, order), count_ngrams(held, order)
    width, bos = order - 1, train.vocab.bos_id
    some = st.lists(st.integers(0, bos), min_size=width, max_size=width).map(tuple)
    batch = data.draw(st.lists(st.one_of(st.sampled_from(table.hists), some), min_size=1,
                               max_size=12))
    ids = np.array(batch, dtype=np.intp).reshape(len(batch), width)
    perm = np.array(data.draw(st.permutations(range(len(batch)))))
    in_order = np.array(sorted(range(len(batch)), key=batch.__getitem__))
    # a table's keys are in code order; listed keys keep a permutation
    listed = [table.hists[i] for i in data.draw(st.permutations(range(len(table.hists))))]
    for keys in (table, ConditionalLM(order, train.vocab, (listed, np.zeros(
            (len(listed), train.vocab.out_dim))), validate=False).keys):
        got = keys.find(ids)
        assert got.tolist() == [keys.index.get(h, -1) for h in batch]
        assert keys.find(ids[perm]).tolist() == got[perm].tolist()
        assert keys.find(ids[in_order]).tolist() == got[in_order].tolist()
    grams = np.array(data.draw(st.permutations(range(len(t.count)))), dtype=np.intp)
    for method in METHODS:
        if method == "kneser_essen_ney" and order < 2:
            continue
        try:
            lm = smooth(table, method)
        except KatzConfigError:
            continue
        want = lm.cells(t, t.hist, t.out)
        got = lm.cells(t, t.hist[grams], t.out[grams])
        np.testing.assert_array_equal(got.view(np.int64), want[grams].view(np.int64))
        by_dict = [cell_by_dict(lm, t.hists[r], j) for r, j in zip(t.hist, t.out)]
        np.testing.assert_array_equal(want.view(np.int64), np.array(by_dict).view(np.int64))


def test_codes_reach_python_ints_only_past_2_to_the_63():
    # two symbols: base 4, and 4^31 = 2^62 < 2^63 <= 4^32
    corpus = corpus_of(Vocabulary(symbols=("a", "b")), ((0, 1, 1), (1,)))
    assert count_ngrams(corpus, 32).codes.dtype == np.int64
    assert count_ngrams(corpus, 33).codes.dtype == object
    lm = smooth(count_ngrams(corpus, 33), "kneser_essen_ney")
    assert lm.backstop.keys.codes.dtype == np.int64
    np.testing.assert_array_equal(lm.rows(lm.keys.hists[::-1]), lm.matrix[::-1])
    # held-out histories unseen at several depths: the placement's suffix
    # codes are cut from Python-int codes, and its cells are the rows'
    held = corpus_of(corpus.vocab, ((1, 1, 0, 1), (0, 0), (1, 0, 0, 1, 1), (0,)))
    t = count_ngrams(held, 33)
    assert t.gram_codes.dtype == object
    place, levels, level = lm.keys.locate(held), [], lm
    while level is not None:
        levels.append(place.rows(level.keys) >= 0)
        level = level.backstop
    # the depth of the first level holding each held-out history's suffix
    assert len(set(np.argmax(levels, axis=0).tolist()) - {0}) >= 2
    want = table_perplexity(lm.rows(t)[t.hist, t.out], t)
    assert perplexity(lm, held).hex() == want.hex()
    assert perplexity(lm, t).hex() == want.hex()


def test_out_of_range_ids_never_alias_a_seen_history():
    # in base 4, (-1, 4) has the code of (0, 0)
    v = Vocabulary(symbols=("a", "b"))
    corpus = corpus_of(v, ((0, 0, 0),))
    table = count_ngrams(corpus, 3)
    assert (0, 0) in table.hists
    for lookup in (smooth(table, "katz").rows, TabularSoftmaxLM.for_table(table).rows):
        with pytest.raises(ValueError, match=r"not a symbol or BOS in \(-1, 4\)"):
            lookup([(0, 0), (-1, 4)])
    with pytest.raises(ValueError, match=r"not a symbol or BOS in \(-1, 4\)"):
        CountTable.from_grams(3, v, [(0, 0, 0), (-1, 4, 0)], [1, 1])


def test_an_unseen_suffix_is_named_in_order_of_first_appearance():
    # a level with no backstop below another names the first history of the
    # batch whose suffix it lacks, not the least one
    corpus = corpus_of(Vocabulary(symbols=("a", "b", "c")), ((0, 0),))
    tables = tables_down_to_unigram(count_ngrams(corpus, 3))
    lower = empirical_conditional(tables[1])
    lm = ConditionalLM(3, corpus.vocab, (tables[2], empirical_conditional(tables[2]).matrix),
                       backstop=lower)
    with pytest.raises(UnseenHistoryError) as raised:
        lm.rows([(2, 2), (1, 1)])
    assert raised.value.args == ((2,),)


def test_keys_of_another_width_or_base_are_refused():
    # a RowKeys used to pass through as the keys unchecked: an order-3 LM
    # on an order-2 table answered rows([(a, b)]) with the row of (b,)
    v = Vocabulary(symbols=("a", "b"))
    order2 = count_ngrams(corpus_of(v, ((0, 1, 1), (1,))), 2)
    rows = np.full((len(order2.ids), v.out_dim), 1.0 / v.out_dim)
    width = "histories of width 1 in base 4 are not of length 2 over this vocabulary"
    with pytest.raises(ValueError, match=width):
        ConditionalLM(3, v, (order2, rows), backstop=uniform_backstop(v))
    with pytest.raises(ValueError, match=width):
        TabularSoftmaxLM(3, v, order2)
    # the keys of the same width in another vocabulary's base, a count
    # table's or those of histories listed by hand
    wider = Vocabulary(symbols=("a", "b", "c"))
    base = "histories of width 1 in base 4 are not of length 1 over this vocabulary"
    listed = ConditionalLM(2, v, (order2.hists, rows)).keys
    for keys in (order2, listed):
        with pytest.raises(ValueError, match=base):
            ConditionalLM(2, wider, (keys, np.full((len(rows), 4), 0.25)))
        with pytest.raises(ValueError, match=base):
            TabularSoftmaxLM(2, wider, keys)


def test_a_table_keeps_one_placement_of_its_data_while_both_live():
    # every LM of a table scores held-out data through the table's one
    # placement of it; a new table of the same corpus places the data
    # again, and the placement goes when the data goes, a corpus (whose
    # count the placement keeps) or a table (which it does not keep)
    vocab = Vocabulary(symbols=("a", "b", "c"))
    train = corpus_of(vocab, ((0, 1, 2, 0), (1, 1, 0), (2, 0)))
    table = count_ngrams(train, 3)
    for counted in (False, True):
        held = corpus_of(vocab, ((2, 1, 0), (0, 0, 1, 2)))
        held = count_ngrams(held, 3) if counted else held
        place = table.locate(held)
        for method in METHODS:
            perplexity(smooth(table, method), held)
            assert table.locate(held) is place
        assert count_ngrams(train, 3).locate(held) is not place
        assert (place.table is held) == counted
        gone = weakref.ref(held), weakref.ref(place)
        del held, place
        gc.collect()
        assert [ref() for ref in gone] == [None, None]


def test_a_table_with_placements_pickles():
    # a grid hands its tables to its workers by pickling them; a copy
    # places the data again, and scores it as the original does
    vocab = Vocabulary(symbols=("a", "b", "c"))
    table = count_ngrams(corpus_of(vocab, ((0, 1, 2, 0), (1, 1, 0), (2, 0))), 3)
    held = corpus_of(vocab, ((2, 1, 0), (0, 0, 1, 2)))
    lm = smooth(table, "kneser_essen_ney")
    want = perplexity(lm, held)
    copy_lm = pickle.loads(pickle.dumps(lm))
    assert copy_lm.keys.locate(held) is not table.locate(held)
    assert perplexity(copy_lm, held) == want


@st.composite
def codes_to_look_up(draw):
    """Sorted distinct int64 keys, with the largest on either side of
    sorted_index's size rule, and queries among them, absent from them and
    past the last of them; either may be empty."""
    bound = draw(st.sampled_from([40, 80 * DIRECT_ADDRESS_SPAN, 2 ** 62]))
    keys = sorted(draw(st.sets(st.integers(0, bound), max_size=40)))
    top = keys[-1] if keys else 10
    among = st.sampled_from(keys) if keys else st.nothing()
    queries = draw(st.lists(among | st.integers(0, min(2 * top + 2, 2 ** 63 - 1)), max_size=40))
    return np.array(keys, dtype=np.int64), np.array(queries, dtype=np.int64)


@given(codes_to_look_up())
def test_direct_address_and_search_find_the_same_index(data):
    # int64 codes within the size rule are looked up by direct address and
    # others searched; object-dtype codes, which codes past 2^63 are, are
    # always searched; each answer is a dict lookup's
    keys, queries = data
    index = {k: i for i, k in enumerate(keys.tolist())}
    want = [index.get(q, -1) for q in queries.tolist()]
    found = len(keys) > 0
    direct = found and keys[-1] <= DIRECT_ADDRESS_SPAN * (len(keys) + len(queries))
    for a, v, searched in ((keys, queries, found and not direct),
                           (keys.astype(object), queries.astype(object), found)):
        with mock.patch.object(corpus_module, "sorted_search",
                               wraps=corpus_module.sorted_search) as search:
            got = sorted_index(a, v)
        assert got.dtype == np.intp and got.tolist() == want
        assert search.called == searched


def test_the_size_rule_admits_a_largest_key_of_exactly_the_span():
    # 2 keys and 4 queries: a direct-address table of 6 spans' slots at most
    for top, searched in ((6 * DIRECT_ADDRESS_SPAN, False), (6 * DIRECT_ADDRESS_SPAN + 1, True)):
        keys, queries = np.array([0, top]), np.array([top + 1, top, 1, 0])
        with mock.patch.object(corpus_module, "sorted_search",
                               wraps=corpus_module.sorted_search) as search:
            assert sorted_index(keys, queries).tolist() == [-1, 1, -1, 0]
        assert search.called == searched


@st.composite
def counts_to_index(draw):
    """Counts, integers >= 1, whose largest lies on either side of
    distinct_counts' size rule; they may be empty."""
    bound = draw(st.sampled_from([5, 80 * DIRECT_ADDRESS_SPAN, 2 ** 40]))
    return np.array(draw(st.lists(st.integers(1, bound), max_size=40)), dtype=np.int64)


@given(counts_to_index())
def test_the_bincount_index_of_counts_is_np_unique(counts):
    values, inverse = distinct_counts(counts)
    want_values, want_inverse = np.unique(counts, return_inverse=True)
    assert values.tolist() == want_values.tolist()
    assert inverse.tolist() == want_inverse.tolist()
