"""Counting-layer tests against a literal enumeration oracle.

The oracle re-implements the substring count as the raw double sum over
(start, end) position pairs, with the empty substring counted once per
position, and the EOS-terminated count as a suffix scan.  The library must
agree on every query.
"""

from collections import Counter

import numpy as np
import pytest

from smoothlm.corpus import (
    Corpus,
    EmptyCorpusError,
    Vocabulary,
    build_vocabulary,
    corpus_from_lines,
    count_ngrams,
    count_substrings,
    load_corpus,
    marginalize,
    merge_count_tables,
    read_count_table,
    write_count_table,
    zero_gram_count,
)


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


class TestVocabulary:
    def test_first_appearance_order_and_sentinels(self):
        v = build_vocabulary(["a b", "b a"])
        assert v.symbols == ("a", "b")
        assert (v.bos_id, v.eos_id) == (2, 3)
        assert v.id_of["a"] == 0 and v.id_of["b"] == 1

    def test_singleton_and_dedup(self):
        assert build_vocabulary(["x"]).symbols == ("x",)
        assert build_vocabulary(["a a a"]).symbols == ("a",)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError, match="empty corpus"):
            build_vocabulary(["", "   "])

    def test_ids_contiguous(self):
        v = build_vocabulary(["c a b a"])
        assert [v.id_of[s] for s in v.symbols] == list(range(len(v.symbols)))

    def test_sentinel_token_collision_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary(["a <bos> b"])


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
            corpus = Corpus(vocab=vocab, sequences=seqs)
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

    def test_history_totals_equal_emissions(self):
        rng = np.random.default_rng(3)
        vocab = Vocabulary(symbols=("a", "b"))
        for order in (1, 2, 3):
            seqs = tuple(
                tuple(int(x) for x in rng.integers(0, 2, size=int(rng.integers(0, 6))))
                for _ in range(4)
            )
            corpus = Corpus(vocab=vocab, sequences=seqs)
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


class TestShardMerge:
    def test_sharded_counting_matches_whole(self):
        lines = ["a b a", "b a", "c a b", "a", "b b c"]
        whole = corpus_from_lines(lines)
        vocab = whole.vocab
        shards = [
            count_ngrams(Corpus(vocab=vocab, sequences=whole.sequences[i:i + 2]), 2)
            for i in range(0, len(lines), 2)
        ]
        merged = merge_count_tables(shards)
        full = count_ngrams(whole, 2)
        assert merged.gram_count == full.gram_count
        assert merged.history_count == full.history_count
        assert merged.count_of_counts == full.count_of_counts
        assert merged.total_tokens == full.total_tokens

    def test_merge_order_irrelevant(self):
        lines = ["a b a", "b a", "c a b", "a"]
        whole = corpus_from_lines(lines)
        vocab = whole.vocab
        shards = [
            count_ngrams(Corpus(vocab=vocab, sequences=(s,)), 2)
            for s in whole.sequences
        ]
        fwd = merge_count_tables(shards)
        rev = merge_count_tables(list(reversed(shards)))
        assert fwd.gram_count == rev.gram_count
        assert fwd.count_of_counts == rev.count_of_counts

    def test_mismatched_shards_rejected(self):
        a = count_ngrams(corpus_from_lines(["a b"]), 2)
        b = count_ngrams(corpus_from_lines(["a b"]), 3)
        with pytest.raises(ValueError, match="disagree"):
            merge_count_tables([a, b])


class TestMarginalize:
    def test_matches_direct_recount(self):
        c = corpus_from_lines(["a b a b", "b a a", "a"])
        t3 = count_ngrams(c, 3)
        t2 = marginalize(t3)
        direct = count_ngrams(c, 2)
        assert t2.gram_count == direct.gram_count
        assert t2.history_count == direct.history_count
        assert t2.count_of_counts == direct.count_of_counts
        assert t2.total_tokens == direct.total_tokens


class TestCorpusIO:
    def test_skips_empty_lines(self, caplog):
        c = corpus_from_lines(["a b", "", "   ", "b"])
        assert c.M == 2
        assert c.skipped_lines == 2

    def test_load_roundtrip(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text("a b\n\nb a\n", encoding="utf-8")
        c = load_corpus(str(p))
        assert c.M == 2
        assert c.vocab.symbols == ("a", "b")

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
