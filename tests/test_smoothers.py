"""Smoother tests: every expected value below is derived by hand from the
defining formulas (noted inline as fractions), or asserted as a structural
property of the method."""

import logging
import math
from fractions import Fraction as F

import numpy as np
import pytest

from smoothlm.corpus import CountTable, Vocabulary, corpus_from_lines, count_ngrams
from smoothlm.ngram import empirical_conditional
from smoothlm.smoothers import (
    KatzConfigError,
    default_params,
    good_turing_adjusted_count,
    method_params,
    sgt_fit,
    smooth,
    smooth_add_lambda,
    smooth_good_turing,
    smooth_jelinek_mercer,
    smooth_katz,
    smooth_kneser_essen_ney,
    smooth_simple_good_turing,
)
from smoothlm.verify import markov_zipf_lines, synthetic_corpus


def toy():
    return corpus_from_lines(["a b", "b a"])


def make_table(vocab, order, grams):
    """Synthetic CountTable from {(history, symbol): count}."""
    return CountTable.from_grams(order, vocab, [(*h, x) for h, x in grams], list(grams.values()))


class TestDispatch:
    def test_aliases(self):
        assert method_params("addlambda") == ("add_lambda", {"lambda": 1.0})
        assert method_params("KEN") == ("kneser_essen_ney", {"D": 0.75})
        assert method_params("jelinek_mercer") == ("jelinek_mercer", {"lambdas": None})

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown smoothing method"):
            method_params("witten_bell")
        # a non-string used to escape as AttributeError
        with pytest.raises(ValueError, match="unknown smoothing method None"):
            method_params(None)

    @pytest.mark.parametrize("method, params, message", [
        ("addlambda", {"lamda": 0.1}, "add_lambda takes no parameter 'lamda'"),
        ("ken", {"k": 3}, "kneser_essen_ney takes no parameter 'k'"),
        ("gt", {"lambda": 1.0}, "it takes none"),
        ("katz", {"k": 5.5}, "'k' must be an integer"),
        ("katz", {"k": True}, "'k' must be an integer"),
        ("ken", {"D": float("nan")}, "'D' must be a finite number"),
        ("jm", {"lambdas": [0.5, "x"]}, "'lambdas' must be a list of numbers"),
        ("jm", {"lambdas": [0.5, float("inf")]}, "'lambdas' must be a list of numbers"),
        # out of range: method_params used to pass each of these
        ("addlambda", {"lambda": 0}, "lambda must be > 0, got 0.0"),
        ("katz", {"k": 0}, "k must be >= 1, got 0"),
        ("ken", {"D": 1.0}, "D must lie in .0, 1., got 1.0"),
        ("jm", {"lambdas": [0.5, -0.1]}, "interpolation weight -0.1 outside"),
    ])
    def test_bad_params_name_the_parameter(self, method, params, message):
        with pytest.raises(ValueError, match=message):
            method_params(method, params)

    def test_order_rules_need_the_order(self):
        assert method_params("jm", {"lambdas": [0.5]}) == ("jelinek_mercer", {"lambdas": [0.5]})
        with pytest.raises(ValueError, match="need 2 interpolation weights, got 1"):
            method_params("jm", {"lambdas": [0.5]}, 2)
        assert method_params("ken", None, 2) == ("kneser_essen_ney", {"D": 0.75})
        with pytest.raises(ValueError, match="Kneser-Essen-Ney needs an order >= 2 table"):
            method_params("ken", None, 1)

    def test_values_take_the_default_type(self):
        assert method_params("katz", {"k": np.int64(3)})[1] == {"k": 3}
        assert type(method_params("katz", {"k": np.int64(3)})[1]["k"]) is int
        # a float parameter still takes a JSON integer
        assert method_params("addlambda", {"lambda": 2})[1] == {"lambda": 2.0}
        assert method_params("jm", {"lambdas": (1, 0.25)})[1] == {"lambdas": [1.0, 0.25]}

    def test_smooth_calls_the_module_level_smoother(self, monkeypatch):
        # a tracer rebinds smoothers.smooth_<method>; smooth must call the
        # rebound name, not a function object it holds
        import smoothlm.smoothers as smoothers_mod

        calls = []
        monkeypatch.setattr(smoothers_mod, "smooth_add_lambda",
                            lambda table, lam: calls.append(lam) or "traced")
        assert smooth(count_ngrams(toy(), 2), "addlambda", {"lambda": 0.5}) == "traced"
        assert calls == [0.5]

    def test_dispatch_runs_all(self):
        table = count_ngrams(synthetic_corpus(0, n_sequences=100, n_symbols=14), 2)
        for m in ["addlambda", "gt", "sgt", "jm", "katz", "ken"]:
            lm = smooth(table, m)
            assert len(lm.table) == len(table.history_count)

    def test_defaults_recorded_and_null_keeps_default(self):
        table = count_ngrams(toy(), 2)
        for m, key in [("addlambda", "lambda"), ("jm", "lambdas"), ("katz", "k"), ("ken", "D")]:
            lm = smooth(table, m, {key: None})
            assert lm.params == default_params(m, 2)
            np.testing.assert_array_equal(lm.matrix, smooth(table, m).matrix)


class TestAddLambda:
    def test_counts_2_0_1(self):
        # history (a,) of "b" + "a a a": counts a:2, b:0, EOS:1, lambda=1
        c = corpus_from_lines(["a a a", "b"])
        lm = smooth_add_lambda(count_ngrams(c, 2), 1.0)
        a = c.vocab.id_of["a"]
        np.testing.assert_allclose(lm.conditional((a,)), [3 / 6, 1 / 6, 2 / 6])

    def test_unseen_history_uniform(self):
        c = toy()
        lm = smooth_add_lambda(count_ngrams(c, 3), 1.0)
        a = c.vocab.id_of["a"]
        assert (a, a) not in lm.keys.index
        np.testing.assert_allclose(lm.conditional((a, a)), [1 / 3] * 3)

    def test_unigram_counts_3_1(self):
        c = corpus_from_lines(["a a a"])
        lm = smooth_add_lambda(count_ngrams(c, 1), 1.0)
        np.testing.assert_allclose(lm.conditional(()), [4 / 6, 2 / 6])

    def test_integer_lambda(self):
        # a JSON `{"lambda": 2}` arrives as an int
        table = count_ngrams(toy(), 2)
        np.testing.assert_array_equal(smooth_add_lambda(table, 2).matrix,
                                      smooth_add_lambda(table, 2.0).matrix)

    def test_lambda_zero_rejected(self):
        with pytest.raises(ValueError):
            smooth_add_lambda(count_ngrams(toy(), 2), 0.0)

    def test_small_lambda_approaches_mle(self):
        table = count_ngrams(synthetic_corpus(1, n_sequences=40), 2)
        lm = smooth_add_lambda(table, 1e-8)
        emp = empirical_conditional(table)
        for h, v in emp.table.items():
            assert np.abs(lm.table[h] - v).max() < 1e-6


def gt_global_probs(table):
    """Pre-normalization Good-Turing probabilities, adjusted count / total
    tokens, of every observed gram; zero where r_{c+1} == 0."""
    r = table.count_of_counts
    return {key: good_turing_adjusted_count(c, r, 1) / table.total_tokens
            for key, c in table.gram_count.items()}


class TestGoodTuring:
    def vocab(self):
        return Vocabulary(symbols=("a", "b"))

    def counts_2_1_1(self):
        # grams {ab: 2, ba: 1, aa: 1}: r_1 = 2, r_2 = 1, N = 4
        v = self.vocab()
        return v, make_table(v, 2, {((0,), 1): 2, ((1,), 0): 1, ((0,), 0): 1})

    def test_adjusted_counts(self):
        v, t = self.counts_2_1_1()
        g = gt_global_probs(t)
        # c*(ba) = (1+1) r_2/r_1 = 1; probability 1/4
        assert g[((1,), 0)] == pytest.approx(F(1, 4))
        # c*(ab) = 3 r_3/r_2 = 0
        assert g[((0,), 1)] == 0.0

    def test_mass_law_prenormalization(self):
        for seed in (0, 1):
            table = count_ngrams(synthetic_corpus(seed, n_sequences=60, n_symbols=4), 2)
            g = gt_global_probs(table)
            r = table.count_of_counts
            by_count = {}
            for key, p in g.items():
                by_count.setdefault(table.gram_count[key], []).append(p)
            for i, probs in by_count.items():
                expected = (i + 1) * r.get(i + 1, 0) / table.total_tokens
                assert math.fsum(probs) == pytest.approx(expected, abs=1e-12)

    def test_unseen_mass_share(self):
        # total weight of zero-count cells before renormalization is r_1/N
        v, t = self.counts_2_1_1()
        from smoothlm.corpus import zero_gram_count

        r0 = zero_gram_count(t)
        per_item = good_turing_adjusted_count(0, t.count_of_counts, r0) / t.total_tokens
        assert r0 * per_item == pytest.approx(t.count_of_counts[1] / t.total_tokens)

    def test_rows_renormalized(self):
        table = count_ngrams(synthetic_corpus(2, n_sequences=60, n_symbols=4), 2)
        lm = smooth_good_turing(table)
        for v in lm.table.values():
            assert v.sum() == pytest.approx(1.0, abs=1e-12)
            assert (v >= 0).all()


class TestSimpleGoodTuring:
    def test_two_point_regression_slope(self):
        # r = {1: 10, 2: 5}: Z degenerates to r at both endpoints, so the fit
        # passes through (log 1, log 10), (log 2, log 5): slope exactly -1
        fit = sgt_fit({1: 10, 2: 5}, 20)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(10), abs=1e-12)

    def test_turing_used_while_significant(self):
        # huge counts-of-counts make the Turing estimate extremely precise,
        # so low counts keep the plain Good-Turing value
        fit = sgt_fit({1: 100000, 2: 30000, 3: 12000, 4: 6000, 5: 3000},
                      100000 + 60000 + 36000 + 24000 + 15000)
        assert fit.switch_at > 1
        assert fit.smoothed_count[1] == pytest.approx(2 * 30000 / 100000)

    def test_regressed_after_switch(self):
        table = count_ngrams(synthetic_corpus(3, n_sequences=80, n_symbols=5), 2)
        fit = sgt_fit(table.count_of_counts, table.total_tokens)
        for c in sorted(table.count_of_counts):
            if c >= fit.switch_at:
                expected = (c + 1) * ((c + 1) / c) ** fit.slope
                assert fit.smoothed_count[c] == pytest.approx(expected, rel=1e-12)

    def test_fallback_single_count_value(self, caplog):
        c = toy()  # every bigram occurs once: one distinct count value
        with caplog.at_level(logging.WARNING, logger="smoothlm.smoothers"):
            lm = smooth_simple_good_turing(count_ngrams(c, 2))
        assert "falling back" in caplog.text
        assert lm.params.get("fallback") == "add_lambda"
        reference = smooth_add_lambda(count_ngrams(c, 2), 1e-3)
        for h, v in reference.table.items():
            np.testing.assert_allclose(lm.table[h], v)

    def test_rows_normalized_full_support(self):
        table = count_ngrams(synthetic_corpus(4, n_sequences=100, n_symbols=5), 2)
        lm = smooth_simple_good_turing(table)
        for v in lm.table.values():
            assert v.sum() == pytest.approx(1.0, abs=1e-12)
            assert (v > 0).all()


class TestJelinekMercer:
    def test_hand_recursion(self):
        # 0.5 * MLE2(b|a) + 0.5 * (0.5 * MLE1(b) + 0.5/3) = 1/4 + 1/6 = 5/12
        c = toy()
        lm = smooth_jelinek_mercer(count_ngrams(c, 2), [0.5, 0.5])
        a, b = c.vocab.id_of["a"], c.vocab.id_of["b"]
        assert lm.conditional((a,))[c.vocab.out_index(b)] == pytest.approx(F(5, 12))

    def test_weight_zero_equals_lower(self):
        c = toy()
        t = count_ngrams(c, 2)
        lm = smooth_jelinek_mercer(t, [0.7, 0.0])
        lower = smooth_jelinek_mercer(count_ngrams(c, 1), [0.7])
        for h, v in lm.table.items():
            np.testing.assert_allclose(v, lower.conditional(()))

    def test_weight_one_equals_mle(self):
        c = toy()
        t = count_ngrams(c, 2)
        lm = smooth_jelinek_mercer(t, [0.3, 1.0])
        emp = empirical_conditional(t)
        for h, v in emp.table.items():
            np.testing.assert_allclose(lm.table[h], v)

    def test_affine_in_top_weight(self):
        t = count_ngrams(synthetic_corpus(5, n_sequences=40), 2)
        lams = [0.4]
        q0 = smooth_jelinek_mercer(t, lams + [0.0])
        q_half = smooth_jelinek_mercer(t, lams + [0.5])
        q1 = smooth_jelinek_mercer(t, lams + [1.0])
        for h in q0.table:
            np.testing.assert_allclose(
                q_half.table[h], 0.5 * q0.table[h] + 0.5 * q1.table[h], atol=1e-14
            )

    def test_unseen_history_backstop_descends(self):
        c = corpus_from_lines(["a b", "b a"])
        t = count_ngrams(c, 3)
        lm = smooth_jelinek_mercer(t, [0.5, 0.5, 0.5])
        a, b = c.vocab.id_of["a"], c.vocab.id_of["b"]
        # (a, a) never occurs as a trigram history; falls to bigram level at (a,)
        bigram = smooth_jelinek_mercer(count_ngrams(c, 2), [0.5, 0.5])
        np.testing.assert_allclose(lm.conditional((a, a)), bigram.conditional((a,)))

    def test_weight_validation(self):
        t = count_ngrams(toy(), 2)
        with pytest.raises(ValueError):
            smooth_jelinek_mercer(t, [0.5, 1.5])
        with pytest.raises(ValueError):
            smooth_jelinek_mercer(t, [0.5])


class TestKatz:
    def test_backoff_hand_computation(self):
        # corpus: "a b" x2, "b a"; history (a,): counts b:2, EOS:1
        # r = {1: 3, 2: 3}, k=5: c*(1) = 2 r_2/r_1 = 2 -> d_1 = 2
        #                        c*(2) = 3 r_3/r_2 = 0 -> d_2 = 0
        # seen: q(b|a) = d_2*2/3 = 0, q(EOS|a) = d_1*1/3 = 2/3
        # leftover 1/3 goes to the unseen 'a' (unigram backoff is MLE = 1/3)
        c = corpus_from_lines(["a b", "b a", "a b"])
        lm = smooth_katz(count_ngrams(c, 2), 5)
        a, b = c.vocab.id_of["a"], c.vocab.id_of["b"]
        np.testing.assert_allclose(lm.conditional((a,)), [1 / 3, 0.0, 2 / 3], atol=1e-15)

    def test_counts_above_k_kept_raw(self):
        v = Vocabulary(symbols=("a", "b"))
        t = make_table(v, 2, {((0,), 0): 7, ((0,), 1): 8, ((0,), 3): 9})
        lm = smooth_katz(t, 5)
        np.testing.assert_allclose(lm.conditional((0,)), [7 / 24, 8 / 24, 9 / 24])

    def test_discount_formula_with_gap(self):
        # counts {2, 2, 1}: r_1=1, r_2=2, r_3=0, k=5
        # d_1 = c*(1)/1 = 2 r_2/r_1 = 4; d_2 = (3 r_3/r_2)/2 = 0
        # history (a,): a:2, b:2, EOS:1 -> all emissions seen, leftover
        # renormalizes the surviving mass: (0, 0, 4/5) -> (0, 0, 1)
        v = Vocabulary(symbols=("a", "b"))
        t = make_table(v, 2, {((0,), 0): 2, ((0,), 1): 2, ((0,), 3): 1})
        lm = smooth_katz(t, 5)
        np.testing.assert_allclose(lm.conditional((0,)), [0.0, 0.0, 1.0])

    def test_denominator_error_names_k(self):
        # r_1 = 1, r_2 = 2, k = 1: (k+1) r_{k+1}/r_1 = 4 > 1
        v = Vocabulary(symbols=("a", "b"))
        t = make_table(v, 2, {((0,), 0): 2, ((0,), 1): 2, ((0,), 3): 1})
        with pytest.raises(KatzConfigError, match="k=1"):
            smooth_katz(t, 1)

    def test_negative_discount_clamped(self, caplog):
        # r = {1: 4, 3: 1}, k = 2: A = 3 r_3/r_1 = 3/4,
        # d_1 = (0 - 3/4)/(1/4) = -3 -> clamped to 0 with a warning
        v = Vocabulary(symbols=("a", "b", "c", "d", "e"))
        grams = {((0,), 0): 1, ((1,), 1): 1, ((2,), 2): 1, ((3,), 3): 1, ((4,), 4): 3}
        t = make_table(v, 2, grams)
        with caplog.at_level(logging.WARNING, logger="smoothlm.smoothers"):
            lm = smooth_katz(t, 2)
        assert "clamping" in caplog.text
        for val in lm.table.values():
            assert val.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rows_normalized_on_corpus(self):
        table = count_ngrams(synthetic_corpus(6, n_sequences=100, n_symbols=14), 2)
        lm = smooth_katz(table, 5)
        for v in lm.table.values():
            assert v.sum() == pytest.approx(1.0, abs=1e-9)
            assert (v >= 0).all()


class TestKneserEssenNey:
    def test_hand_computation(self):
        # h = (a,), D = 0.5: q(b|a) = (1-.5)/2 + .5*2*q1(b)/2 with q1(b) = 2/6
        c = toy()
        lm = smooth_kneser_essen_ney(count_ngrams(c, 2), 0.5)
        a, b = c.vocab.id_of["a"], c.vocab.id_of["b"]
        assert lm.conditional((a,))[c.vocab.out_index(b)] == pytest.approx(F(5, 12))
        assert lm.conditional((a,))[c.vocab.out_index(a)] == pytest.approx(F(1, 6))
        assert lm.conditional((a,))[c.vocab.out_index(c.vocab.eos_id)] == pytest.approx(F(5, 12))

    def test_small_discount_approaches_mle(self):
        t = count_ngrams(synthetic_corpus(8, n_sequences=50), 2)
        lm = smooth_kneser_essen_ney(t, 1e-9)
        emp = empirical_conditional(t)
        for h, v in emp.table.items():
            seen = v > 0
            assert np.abs(lm.table[h][seen] - v[seen]).max() < 1e-6

    def test_rows_sum_exactly(self):
        for seed in (9, 10):
            t = count_ngrams(synthetic_corpus(seed, n_sequences=70, n_symbols=4), 2)
            lm = smooth_kneser_essen_ney(t, 0.75)
            for v in lm.table.values():
                assert v.sum() == pytest.approx(1.0, abs=1e-12)
                assert (v > 0).all()

    def test_repeated_pair_demotes_continuation(self):
        # symbol f occurs 10 times but only ever after s: its type-count
        # unigram probability must fall below its frequency share
        lines = ["s f"] * 10 + ["x y", "y z", "z x", "x z"]
        c = corpus_from_lines(lines)
        t = count_ngrams(c, 2)
        lm = smooth_kneser_essen_ney(t, 0.75)
        f_id = c.vocab.id_of["f"]
        mle_unigram = count_ngrams(c, 1)
        p_freq = mle_unigram.gram_count[((), f_id)] / mle_unigram.total_tokens
        # continuation share: distinct histories before f over distinct bigrams
        p_type = sum(1 for _, x in t.gram_count if x == f_id) / len(t.gram_count)
        assert p_type < p_freq

    def test_parameter_validation(self):
        t = count_ngrams(toy(), 2)
        with pytest.raises(ValueError):
            smooth_kneser_essen_ney(t, 0.0)
        with pytest.raises(ValueError):
            smooth_kneser_essen_ney(t, 1.0)
        with pytest.raises(ValueError):
            smooth_kneser_essen_ney(count_ngrams(toy(), 1), 0.5)


class TestCrossMethodInvariants:
    def test_normalization_and_support(self):
        table = count_ngrams(synthetic_corpus(12, n_sequences=500, n_symbols=20), 2)
        full_support = {"add_lambda", "jelinek_mercer", "kneser_essen_ney",
                        "simple_good_turing"}
        for method in ["add_lambda", "good_turing", "simple_good_turing",
                       "jelinek_mercer", "katz", "kneser_essen_ney"]:
            lm = smooth(table, method)
            for h, v in lm.table.items():
                assert abs(v.sum() - 1.0) < 1e-9, method
                assert (v >= 0).all(), method
                if method in full_support:
                    assert (v > 0).all(), method

    def test_smoothing_moves_mass_to_unseen(self):
        table = count_ngrams(synthetic_corpus(13, n_sequences=60, n_symbols=5), 2)
        emp = empirical_conditional(table)
        for method in ["add_lambda", "jelinek_mercer", "kneser_essen_ney"]:
            lm = smooth(table, method)
            gained = 0.0
            for h, v in emp.table.items():
                unseen = v == 0
                gained += float(lm.table[h][unseen].sum())
            assert gained > 0.0, method


ALL_SMOOTHERS = ["add_lambda", "good_turing", "simple_good_turing",
                 "jelinek_mercer", "katz", "kneser_essen_ney"]


class TestHistoryLength:
    @pytest.mark.parametrize("method", ALL_SMOOTHERS + ["empirical"])
    def test_wrong_length_rejected_before_backstop(self, method):
        # every smoother's backstop would otherwise return a row for these,
        # by backing off to a suffix of the wrong-length history
        table = count_ngrams(synthetic_corpus(2, n_sequences=100, n_symbols=5), 3)
        lm = empirical_conditional(table) if method == "empirical" else smooth(table, method)
        assert lm.conditional((0, 1)).shape == (table.vocab.out_dim,)
        for history in [(0,), (), (0, 1, 2)]:
            with pytest.raises(ValueError, match="length"):
                lm.conditional(history)
            with pytest.raises(ValueError, match="length"):
                lm.conditional(history)[lm.vocab.out_index(0)]


class TestOneWarningPerCause:
    def test_katz_clamp_and_renormalize_logged_once(self, caplog):
        # every negative discount and every overfull history used to log a line of its own
        table = count_ngrams(corpus_from_lines(markov_zipf_lines(2000, 50, seed=0)), 3)
        with caplog.at_level(logging.WARNING, logger="smoothlm.smoothers"):
            smooth_katz(table, 6)
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        assert "clamping" in messages[0] and "736 cells" in messages[0]
        assert "renormalizing" in messages[1] and "48 of" in messages[1]

    def test_katz_rows_with_no_mass_left_are_their_parent_rows(self, caplog):
        # at k=1 the discount of a count of 1 is (2 r_2/r_1 - A)/(1 - A) = 0
        # with A = 2 r_2/r_1, so a history whose counts are all 1 keeps no
        # mass; where its parent row has none outside its seen cells either,
        # nothing is spread and the row is its order-3 parent row
        table = count_ngrams(corpus_from_lines(markov_zipf_lines(200, 30, 0)), 4)
        with caplog.at_level(logging.WARNING, logger="smoothlm.smoothers"):
            lm = smooth_katz(table, 1)
        assert [r.getMessage() for r in caplog.records] == [
            "order 4: no mass survived discounting in 9 of 1105 histories, using lower-order rows"]
        parents = lm.backstop.rows(table.ids[:, 1:])
        all_ones = np.ones(len(table.ids), dtype=bool)
        np.logical_and.at(all_ones, table.hist, table.count == 1)
        outside = parents.copy()
        outside[table.hist, table.out] = 0.0
        dead = all_ones & (outside.sum(axis=1) == 0.0)
        assert dead.sum() == 9
        np.testing.assert_array_equal(lm.matrix[dead].view(np.int64), parents[dead].view(np.int64))

    def test_good_turing_all_zero_rows_logged_once(self, caplog):
        # r = {2: 4}, every cell seen: r_3 == 0 zeroes every weight in both rows
        v = Vocabulary(symbols=("a",))
        grams = {((0,), 0): 2, ((0,), v.eos_id): 2, ((v.bos_id,), 0): 2, ((v.bos_id,), v.eos_id): 2}
        with caplog.at_level(logging.WARNING, logger="smoothlm.smoothers"):
            lm = smooth_good_turing(make_table(v, 2, grams))
        assert len(caplog.records) == 1
        assert "2 of 2 histories" in caplog.text
        for row in lm.table.values():
            np.testing.assert_array_equal(row, [0.5, 0.5])
