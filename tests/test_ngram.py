"""Conditional-model and evaluation tests.

Expected values are frozen from independent recomputation: hand tallies of
the toy corpora and the two-route identities via the prefix tree.
"""

import math

import numpy as np
import pytest

from smoothlm import ngram, verify
from smoothlm.cli import main
from smoothlm.corpus import Vocabulary, corpus_from_lines, count_ngrams, load_corpus
from smoothlm.ngram import (
    ConditionalLM,
    NormalizationError,
    UnseenHistoryError,
    empirical_conditional,
    perplexity,
    read_conditional_lm,
    write_conditional_lm,
)
from smoothlm.decompose import build_regularizer
from smoothlm.smoothers import METHODS, smooth, smooth_add_lambda
from smoothlm.verify import (
    corollary_sides,
    cross_entropy,
    empirical_prefix,
    entropy,
    kl_divergence,
    random_bigram_lm,
    random_corpus,
    string_logprob,
)


def toy():
    return corpus_from_lines(["a b", "b a"])


def mle(corpus, order):
    return empirical_conditional(count_ngrams(corpus, order))


class TestEmpiricalConditional:
    def test_bigram_rows(self):
        c = toy()
        lm = mle(c, 2)
        a, b = c.vocab.id_of["a"], c.vocab.id_of["b"]
        row = lm.conditional((a,))
        np.testing.assert_allclose(row, [0.0, 0.5, 0.5])  # (a, b, EOS)
        assert lm.conditional((a,))[c.vocab.out_index(b)] == 0.5
        assert lm.conditional((a,))[c.vocab.out_index(a)] == 0.0

    def test_unigram(self):
        c = corpus_from_lines(["a"])
        lm = mle(c, 1)
        np.testing.assert_allclose(lm.conditional(()), [0.5, 0.5])

    def test_degenerate_single_continuation(self):
        c = corpus_from_lines(["a", "a"])
        lm = mle(c, 2)
        np.testing.assert_allclose(lm.conditional((c.vocab.bos_id,)), [1.0, 0.0])

    def test_unseen_history_raises(self):
        c = toy()
        with pytest.raises(UnseenHistoryError):
            ConditionalLM(2, c.vocab, {}, backstop=None).conditional((0,))

    def test_rows_normalized(self):
        rng = np.random.default_rng(11)
        for t in range(10):
            corpus = random_corpus(rng, max_symbols=3, max_len=6)
            for order in (1, 2, 3):
                lm = mle(corpus, order)
                for v in lm.table.values():
                    assert abs(v.sum() - 1.0) < 1e-9


class TestValidation:
    def test_rejects_bad_sum(self):
        c = toy()
        with pytest.raises(ValueError, match="sum"):
            ConditionalLM(2, c.vocab, {(c.vocab.bos_id,): np.array([0.5, 0.2, 0.2])})

    def test_rejects_negative(self):
        c = toy()
        with pytest.raises(ValueError, match="negative"):
            ConditionalLM(2, c.vocab, {(0,): np.array([-0.1, 0.6, 0.5])})

    def test_rejects_noncontiguous_bos(self):
        c = toy()
        bad = {(0, c.vocab.bos_id): np.array([0.5, 0.25, 0.25])}
        with pytest.raises(ValueError, match="contiguous"):
            ConditionalLM(3, c.vocab, bad)

    def test_rejects_wrong_length(self):
        c = toy()
        with pytest.raises(ValueError, match="length"):
            ConditionalLM(2, c.vocab, {(0, 1): np.array([0.5, 0.25, 0.25])})

    def test_rejects_nan_row(self):
        with pytest.raises(NormalizationError, match="nan"):
            ConditionalLM(1, Vocabulary(("a",)), {(): [math.nan, 1.0]})

    def test_rejects_repeated_history(self):
        # `rows` hands out `matrix` when asked for `hists`, which is sound
        # only while each history names one row
        c = toy()
        row = np.full(c.vocab.out_dim, 1 / c.vocab.out_dim)
        with pytest.raises(ValueError, match=r"history \(0,\) is listed more than once"):
            ConditionalLM(2, c.vocab, ([(0,), (1,), (0,)], np.stack([row] * 3)))


class TestRowViews:
    def test_pipeline_builds_no_table_dict(self, tmp_path):
        table = count_ngrams(corpus_from_lines(["a b c", "b c a a", "c c b"]), 2)
        emp = empirical_conditional(table)
        for method in METHODS:
            lm = smooth(table, method)
            build_regularizer(emp, lm, table, 1.0, 1.0)
            write_conditional_lm(lm, str(tmp_path / "lm.tsv"))
            assert lm.rows(table.arrays.hists) is lm.matrix
            assert "table" not in vars(lm) and "table" not in vars(emp), method

    def test_perplexity_scores_no_token_at_a_time(self, tmp_path, monkeypatch, capsys):
        train = corpus_from_lines(["a b c", "b c a a", "c c b"])
        held = corpus_from_lines(["c b a", "a a c b", "b"], vocab=train.vocab)
        lm = smooth(count_ngrams(train, 3), "kneser_essen_ney")
        want = perplexity(lm, held)
        path = str(tmp_path / "lm.tsv")
        write_conditional_lm(lm, path)
        (tmp_path / "held.txt").write_text("c b a\na a c b\nb\n", encoding="utf-8")
        # the file's LM gives the uniform row where `lm` backs off
        file_lm = read_conditional_lm(path)
        file_want = perplexity(file_lm, load_corpus(str(tmp_path / "held.txt"), file_lm.vocab))

        def per_token(*args):
            raise AssertionError("perplexity took the per-token path")

        monkeypatch.setattr(verify, "string_logprob", per_token)
        monkeypatch.setattr(ConditionalLM, "conditional", per_token)
        assert ngram.perplexity(lm, held) == want
        assert main(["eval", "--lm", path, "--corpus", str(tmp_path / "held.txt")]) == 0
        assert capsys.readouterr().out == f"perplexity\t{file_want:.10g}\n"

    def test_perplexity_makes_no_conditional_call(self, monkeypatch):
        # held-out histories the LMs lack back off in one batched lookup
        train = corpus_from_lines(["a b c", "b c a a", "c c b"])
        held = corpus_from_lines(["c b a", "a a c b", "b", "c a c c"], vocab=train.vocab)
        table = count_ngrams(train, 3)
        lms = [smooth(table, method) for method in METHODS]
        assert any(h not in lms[0].keys.index for h in count_ngrams(held, 3).arrays.hists)
        want = [perplexity(lm, held) for lm in lms]

        def per_history(*args):
            raise AssertionError("rows looked up one history at a time")

        monkeypatch.setattr(ConditionalLM, "conditional", per_history)
        assert [perplexity(lm, held) for lm in lms] == want

    def test_lms_of_a_count_table_check_no_history(self, monkeypatch):
        # from_grams checked the table's histories once
        def recheck(*args):
            raise AssertionError("an LM re-checked its count table's histories")

        table = count_ngrams(corpus_from_lines(["a b c", "b c a a", "c c b"]), 3)
        monkeypatch.setattr(ngram, "check_histories", recheck)
        build_regularizer(empirical_conditional(table), smooth(table, "katz"), table, 1.0, 1.0)
        for method in METHODS:
            smooth(table, method)

    def test_table_is_a_view_of_matrix(self):
        lm = mle(corpus_from_lines(["a b a", "b b"]), 2)
        for i, h in enumerate(lm.keys.hists):
            assert np.shares_memory(lm.conditional(h), lm.matrix)
            np.testing.assert_array_equal(lm.table[h], lm.matrix[i])
        assert vars(lm)["table"] is lm.table

    def test_rows_in_another_order(self):
        lm = mle(corpus_from_lines(["a b a", "b b"]), 2)
        order = list(reversed(lm.keys.hists))
        np.testing.assert_array_equal(lm.rows(order), lm.matrix[::-1])
        # 5 is no id of this vocabulary, so (5,) is no history at all
        with pytest.raises(ValueError, match=r"not a symbol or BOS in \(5,\)"):
            lm.rows([(lm.vocab.id_of["a"],), (5,)])


class TestEmpiricalPrefix:
    def test_toy_values(self):
        c = toy()
        pp = empirical_prefix(c)
        a, b = c.vocab.id_of["a"], c.vocab.id_of["b"]
        assert pp.prob(()) == 1.0
        assert pp.prob((a,)) == 0.5
        assert pp.prob((b,)) == 0.5
        assert pp.prob((a, b)) == 0.5
        assert pp.prob((a, a)) == 0.0

    def test_single_sequence(self):
        c = corpus_from_lines(["a b a"])
        pp = empirical_prefix(c)
        seq = c.sequences[0]
        assert pp.prob(seq) == 1.0

    def test_tree_consistency(self):
        # pi(x) = sum_y pi(xy) + (terminal mass of x)
        rng = np.random.default_rng(5)
        for _ in range(10):
            corpus = random_corpus(rng, max_symbols=3, max_len=5)
            pp = empirical_prefix(corpus)
            for prefix in pp.prefixes():
                children = sum(
                    pp.prob(prefix + (y,)) for y in range(corpus.vocab.n_symbols)
                )
                terminal = pp.terminal.get(prefix, 0) / corpus.M
                assert abs(pp.prob(prefix) - children - terminal) < 1e-12

    def test_monotone_nonincreasing(self):
        c = corpus_from_lines(["a b a b", "a b"])
        pp = empirical_prefix(c)
        for prefix in pp.prefixes():
            for y in range(c.vocab.n_symbols):
                assert pp.prob(prefix + (y,)) <= pp.prob(prefix) + 1e-15


class TestStringLogprob:
    def test_toy_bigram(self):
        c = toy()
        lm = mle(c, 2)
        a, b = c.vocab.id_of["a"], c.vocab.id_of["b"]
        # each factor is 1/2: p(a|BOS) p(b|a) p(EOS|b)
        assert string_logprob(lm, (a, b)) == pytest.approx(math.log(1 / 8), abs=1e-12)

    def test_zero_factor_gives_minus_inf(self):
        c = toy()
        lm = mle(c, 2)
        a = c.vocab.id_of["a"]
        assert string_logprob(lm, (a, a)) == -math.inf

    def test_empty_sequence_unigram(self):
        c = corpus_from_lines(["a"])
        lm = mle(c, 1)
        assert string_logprob(lm, ()) == pytest.approx(math.log(0.5), abs=1e-12)


class TestPerplexity:
    def test_deterministic_corpus_is_one(self):
        c = corpus_from_lines(["a b"])
        lm = mle(c, 2)
        assert perplexity(lm, c) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_model(self):
        c = toy()
        k = c.vocab.out_dim
        table = {
            h: np.full(k, 1.0 / k)
            for h in [(c.vocab.bos_id,), (0,), (1,)]
        }
        lm = ConditionalLM(2, c.vocab, table)
        assert perplexity(lm, c) == pytest.approx(k, rel=1e-12)

    def test_toy_mle_value(self):
        c = toy()
        lm = mle(c, 2)
        # every factor 1/2 over 6 emissions
        assert perplexity(lm, c) == pytest.approx(2.0, rel=1e-12)

    def test_infinite_when_unsupported(self):
        c = toy()
        lm = mle(c, 2)
        held = corpus_from_lines(["a a"], vocab=c.vocab)  # q(a|a) == 0
        assert perplexity(lm, held) == math.inf

    def test_reordering_invariance(self):
        lines = ["a b a", "b b", "a"]
        c1 = corpus_from_lines(lines)
        c2 = corpus_from_lines(list(reversed(lines)), vocab=c1.vocab)
        lm = mle(c1, 2)
        assert perplexity(lm, c1) == pytest.approx(perplexity(lm, c2), rel=1e-14)

    def test_corpus_with_another_vocabulary_rejected(self):
        # loaded with its own vocabulary, the held-out corpus numbers its
        # symbols c, b, a, so scoring it by id would read other cells
        lm = smooth_add_lambda(count_ngrams(corpus_from_lines(["a b c", "b c a a", "c c b"]), 2),
                               0.5)
        lines = ["c b a", "a a c"]
        with pytest.raises(ValueError, match="different vocabularies"):
            perplexity(lm, corpus_from_lines(lines))
        assert perplexity(lm, corpus_from_lines(lines, vocab=lm.vocab)) == pytest.approx(
            4.591, abs=5e-4)


class TestDivergences:
    def test_zero_times_log_zero(self):
        assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
            math.log(2)
        )

    def test_infinite_flag(self):
        assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf
        assert cross_entropy(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0

    def test_entropy_uniform(self):
        assert entropy(np.full(4, 0.25)) == pytest.approx(math.log(4))

    def test_kl_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert kl_divergence(p, q) >= -1e-15


class TestHistoryReduction:
    """Two-route checks of the per-history form of the training objective."""

    def test_cross_entropy_identity(self):
        rng = np.random.default_rng(21)
        for t in range(20):
            corpus = random_corpus(rng, max_symbols=3, max_len=5)
            q = random_bigram_lm(rng, corpus.vocab)
            sides = corollary_sides(corpus, q)
            assert sides["ce_lhs"] == pytest.approx(sides["ce_rhs"], abs=1e-9)

    def test_kl_gap_is_q_invariant(self):
        rng = np.random.default_rng(22)
        corpus = corpus_from_lines(["a b", "b a", "a b a"])
        gaps = []
        expected = None
        for _ in range(10):
            q = random_bigram_lm(rng, corpus.vocab)
            sides = corollary_sides(corpus, q)
            gaps.append(sides["kl_lhs"] - sides["kl_rhs"])
            expected = sides["gap_expected"]
        assert max(gaps) - min(gaps) < 1e-12
        assert gaps[0] == pytest.approx(expected, abs=1e-12)

    def test_gap_zero_for_ngram_consistent_corpus(self):
        # disjoint symbols per string: the bigram factorization is exact
        corpus = corpus_from_lines(["a", "b c"])
        rng = np.random.default_rng(23)
        q = random_bigram_lm(rng, corpus.vocab)
        sides = corollary_sides(corpus, q)
        assert sides["gap_expected"] == pytest.approx(0.0, abs=1e-12)
        assert sides["kl_lhs"] == pytest.approx(sides["kl_rhs"], abs=1e-9)


class TestLmTsv:
    def test_roundtrip_byte_identical(self, tmp_path):
        c = corpus_from_lines(["a b a", "b a", "b b"])
        lm = mle(c, 2)
        lm.method = "empirical"
        p1, p2 = tmp_path / "lm1.tsv", tmp_path / "lm2.tsv"
        write_conditional_lm(lm, str(p1))
        lm2 = read_conditional_lm(str(p1))
        write_conditional_lm(lm2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert lm2.method == "empirical"

    def test_unlisted_history_gets_uniform_row(self, tmp_path):
        c = corpus_from_lines(["a b", "b a"])
        p = tmp_path / "lm.tsv"
        write_conditional_lm(mle(c, 3), str(p))
        lm = read_conditional_lm(str(p))
        a = lm.vocab.id_of["a"]
        assert (a, a) not in lm.table
        np.testing.assert_array_equal(lm.conditional((a, a)), [1 / 3] * 3)

    def test_probabilities_preserved(self, tmp_path):
        c = corpus_from_lines(["a b a b b", "b a"])
        lm = mle(c, 2)
        p = tmp_path / "lm.tsv"
        write_conditional_lm(lm, str(p))
        lm2 = read_conditional_lm(str(p))
        for h, v in lm.table.items():
            h2 = tuple(lm2.vocab.parse(lm.vocab.render(i)) for i in h)
            v2 = lm2.conditional(h2)
            for j in range(lm.vocab.out_dim):
                tok = lm.vocab.render(lm.vocab.id_at_out(j))
                j2 = lm2.vocab.out_index(lm2.vocab.parse(tok))
                assert v2[j2] == pytest.approx(v[j], rel=1e-11, abs=1e-14)
