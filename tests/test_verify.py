"""Checker-level tests: the verification machinery itself must be
deterministic, report honest errors, and hold at tight tolerances on the
regimes the checkers sample."""

import math

import numpy as np
import pytest

from smoothlm.corpus import corpus_from_lines
from smoothlm.verify import (
    CHECKS,
    VerificationReport,
    check_ce_linearity,
    check_corollary,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    corollary_sides,
    random_bigram_lm,
    random_corpus,
    synthetic_corpus,
    theorem1_sides,
)


class TestReportFormat:
    def test_line_shape(self):
        r = VerificationReport("T2", 1, 3.1e-05, 1e-4, True, 0)
        assert r.line() == "T2 trials=1 max_err=3.1e-05 tol=1.0e-04 PASS seed=0"

    def test_fail_line(self):
        r = VerificationReport("T1", 5, 2.0, 1e-9, False, 3)
        assert r.line().endswith("FAIL seed=3")

    def test_passed_consistent(self):
        r = check_theorem1(trials=5, seed=1)
        assert r.passed == (r.max_abs_error <= r.tolerance)


class TestChainRuleIdentity:
    def test_q_equals_p_gives_zero(self):
        corpus = corpus_from_lines(["a b", "b a"])
        from smoothlm.verify import empirical_prefix

        pp = empirical_prefix(corpus)
        lhs, rhs = theorem1_sides(corpus, pp.conditional)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_uniform_q_hand_value(self):
        # p is uniform on {ab, ba}; q(x) = (1/3)^3 for both strings:
        # KL = log((1/2) * 27) = log 13.5
        corpus = corpus_from_lines(["a b", "b a"])
        k = corpus.vocab.out_dim
        lhs, rhs = theorem1_sides(corpus, lambda prefix: np.full(k, 1 / k))
        assert lhs == pytest.approx(math.log(13.5), abs=1e-12)
        assert rhs == pytest.approx(math.log(13.5), abs=1e-12)

    def test_randomized_pass(self):
        r = check_theorem1(trials=50, seed=7)
        assert r.passed
        assert r.max_abs_error < 1e-11

    def test_deterministic_given_seed(self):
        a = check_theorem1(trials=10, seed=3)
        b = check_theorem1(trials=10, seed=3)
        assert a == b


class TestHistoryReductionCheck:
    def test_randomized_pass(self):
        r = check_corollary(trials=50, seed=5)
        assert r.passed
        assert r.max_abs_error < 1e-11

    def test_single_string_corpus(self):
        corpus = corpus_from_lines(["a b"])
        rng = np.random.default_rng(0)
        q = random_bigram_lm(rng, corpus.vocab)
        sides = corollary_sides(corpus, q)
        # a single string is exactly bigram-consistent here: gap must be 0
        assert sides["gap_expected"] == pytest.approx(0.0, abs=1e-12)
        assert sides["kl_lhs"] == pytest.approx(sides["kl_rhs"], abs=1e-10)

    def test_gap_positive_when_not_ngram_consistent(self):
        corpus = corpus_from_lines(["a a b"])
        rng = np.random.default_rng(1)
        q = random_bigram_lm(rng, corpus.vocab)
        sides = corollary_sides(corpus, q)
        # p(a|a) = 1/2 under the bigram table, so the factorization loses mass
        assert sides["gap_expected"] == pytest.approx(math.log(4), abs=1e-12)


class TestLabelSmoothingFixedPoint:
    def test_default_check_passes(self):
        r = check_theorem2(seed=0)
        assert r.passed
        assert r.max_abs_error < 1e-6

    def test_large_gamma_near_uniform(self):
        r = check_theorem2(seed=0, gammas=(100.0,))
        assert r.passed
        corpus = synthetic_corpus(0)
        from smoothlm.corpus import count_ngrams
        from smoothlm.verify import fit_tabular_label_smoothing

        table = count_ngrams(corpus, 2)
        # gamma must dominate the history counts (max ~66 here) for the
        # optimum to flatten; 1e5 brings every row within 1e-3 of uniform
        fitted, _ = fit_tabular_label_smoothing(table, 1e5)
        u = 1.0 / corpus.vocab.out_dim
        assert np.abs(fitted - u).max() < 1e-3

    def test_tiny_gamma_near_mle(self):
        corpus = synthetic_corpus(0)
        from smoothlm.corpus import count_ngrams
        from smoothlm.ngram import empirical_conditional
        from smoothlm.verify import fit_tabular_label_smoothing

        table = count_ngrams(corpus, 2)
        fitted, _ = fit_tabular_label_smoothing(table, 1e-6)
        emp = empirical_conditional(table)
        assert np.abs(fitted - emp.matrix).max() < 1e-4

    def test_unit_sigma_hand_value(self):
        # single-symbol corpus with counts {a: 3, EOS: 1}, gamma = 2 means
        # lambda = 1: optimum (3+1)/(4+2), (1+1)/(4+2) = (2/3, 1/3)
        corpus = corpus_from_lines(["a a a"])
        from smoothlm.corpus import count_ngrams
        from smoothlm.verify import fit_tabular_label_smoothing

        table = count_ngrams(corpus, 1)
        fitted, _ = fit_tabular_label_smoothing(table, 2.0)
        np.testing.assert_allclose(fitted[0], [2 / 3, 1 / 3], atol=1e-7)


class TestSignedBracketChecks:
    def test_theorem3_passes(self):
        r = check_theorem3(trials=200, seed=0)
        assert r.passed
        assert r.max_abs_error < 1e-12

    def test_ce_linearity_passes(self):
        r = check_ce_linearity(trials=200, seed=0)
        assert r.passed
        assert r.max_abs_error < 1e-12

    def test_identical_pair_zero_everywhere(self):
        from smoothlm.verify import kl_divergence, signed_sides

        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(4))
        for _ in range(10):
            q = rng.dirichlet(np.ones(4))
            lhs, rhs = signed_sides(lambda v: kl_divergence(v, q), p, p)
            assert lhs - rhs == pytest.approx(0.0, abs=1e-15)


class TestGenerators:
    def test_random_corpus_within_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = random_corpus(rng, max_symbols=3, max_len=5, max_sequences=6)
            assert 1 <= c.M <= 6
            assert c.vocab.n_symbols <= 3
            assert all(len(s) <= 5 for s in c.sequences)

    def test_bigram_lm_full_support(self):
        rng = np.random.default_rng(1)
        c = random_corpus(rng)
        q = random_bigram_lm(rng, c.vocab)
        for v in q.table.values():
            assert (v > 0).all()
            assert v.sum() == pytest.approx(1.0, abs=1e-12)

    def test_every_check_passes_quick(self):
        assert list(CHECKS) == ["T1", "COR", "T2", "T3", "CE_LINEARITY"]
        for name, check in CHECKS.items():
            # T2 takes no trial count
            report = check(seed=0) if name == "T2" else check(seed=0, trials=50)
            assert (report.theorem_id, report.passed) == (name, True)
            assert report.trials == (3 if name == "T2" else 50)
