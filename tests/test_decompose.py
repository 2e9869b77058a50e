"""Signed-decomposition tests: worked scalar examples plus randomized
invariant sweeps (reconstruction, equal scales, disjoint supports, and the
cross-entropy linearity that makes the KL bracket q-invariant)."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from smoothlm.corpus import corpus_from_lines, count_ngrams, read_cells
from smoothlm.decompose import RECON_ATOL, build_regularizer, write_decomposition
from smoothlm.neural import TabularSoftmaxLM, TrainConfig
from smoothlm.ngram import ConditionalLM, NormalizationError, empirical_conditional, perplexity
from smoothlm.smoothers import METHODS, smooth
from smoothlm.verify import (
    cross_entropy,
    entropy,
    kl_divergence,
    markov_zipf_lines,
    objective_value,
    signed_sides,
    signed_split,
    synthetic_corpus,
)


class TestSignedDecompose:
    def test_worked_example(self):
        p_plus, p_minus, z_plus, z_minus = signed_split([0.5, 0.5, 0.0], [0.4, 0.4, 0.2])
        assert z_plus == pytest.approx(0.2, abs=1e-15)
        assert z_minus == pytest.approx(0.2, abs=1e-15)
        np.testing.assert_allclose(p_plus, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(p_minus, [0.5, 0.5, 0.0])

    def test_identity_case(self):
        v = np.array([0.3, 0.7])
        p_plus, p_minus, z_plus, z_minus = signed_split(v, v)
        assert z_plus == 0.0 and z_minus == 0.0
        assert not p_plus.any() and not p_minus.any()

    def test_total_variation_extreme(self):
        p_plus, p_minus, z_plus, z_minus = signed_split([1.0, 0.0], [0.0, 1.0])
        assert z_plus == 1.0 and z_minus == 1.0
        np.testing.assert_allclose(p_plus, [0.0, 1.0])
        np.testing.assert_allclose(p_minus, [1.0, 0.0])

    def test_randomized_invariants(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            dim = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(dim))
            q = rng.dirichlet(np.ones(dim))
            p_plus, p_minus, z_plus, z_minus = signed_split(p, q)
            # scales agree and equal the total-variation distance
            tv = 0.5 * float(np.abs(p - q).sum())
            assert abs(z_plus - z_minus) < 1e-12
            assert z_plus == pytest.approx(tv, abs=1e-12)
            # normalized parts
            if z_plus > 0:
                assert p_plus.sum() == pytest.approx(1.0, abs=1e-12)
                assert p_minus.sum() == pytest.approx(1.0, abs=1e-12)
            # disjoint supports
            assert float((p_plus * p_minus).sum()) == 0.0
            # reconstruction
            recon = p + z_plus * p_plus - z_minus * p_minus
            np.testing.assert_allclose(recon, q, atol=1e-12)


class TestBuildRegularizer:
    def table_and_lms(self, method="add_lambda", params=None):
        table = count_ngrams(synthetic_corpus(3, n_sequences=60, n_symbols=6), 2)
        emp = empirical_conditional(table)
        sm = smooth(table, method, params)
        return table, emp, sm

    def test_add_lambda_support_structure(self):
        # every zero-count cell gains mass; mass is only removed from
        # positive-count cells
        table, emp, sm = self.table_and_lms("add_lambda", {"lambda": 1.0})
        bundle = build_regularizer(emp, sm, table, 1.0, 1.0)
        for h, dec in bundle.per_history.items():
            p = emp.table[h]
            zero_cells = p == 0
            assert (dec.p_plus[zero_cells] > 0).all()
            assert (dec.p_minus[zero_cells] == 0).all()

    def test_weights_are_history_counts(self):
        table, emp, sm = self.table_and_lms()
        bundle = build_regularizer(emp, sm, table, 0.5, 0.5)
        assert bundle.keys is table
        assert dict(zip(bundle.keys.hists, bundle.keys.totals.tolist())) == table.history_count
        assert bundle.keys.totals.sum() == table.total_tokens

    def test_identity_smoother_all_zero(self):
        table, emp, _ = self.table_and_lms()
        bundle = build_regularizer(emp, emp, table, 1.0, 1.0)
        for dec in bundle.per_history.values():
            assert dec.z_plus == 0.0 and dec.z_minus == 0.0

    def test_empirical_model_of_another_table_rejected(self):
        table, emp, sm = self.table_and_lms()
        # another corpus over the same symbols: the same histories, other rows
        other = count_ngrams(synthetic_corpus(4, n_sequences=60, n_symbols=6), 2)
        assert other.hists == table.hists
        fewer = count_ngrams(corpus_from_lines(["a b"], vocab=table.vocab), 2)
        for data in (other, fewer):
            with pytest.raises(ValueError, match="^the empirical model's rows are not the count "
                                                 "table's histories$"):
                build_regularizer(empirical_conditional(data), sm, table, 1.0, 1.0)
        # in the smoothed position: a smoother's LM of another table, of the
        # table one order up, and the same rows keyed by history tuples
        corpus = synthetic_corpus(3, n_sequences=60, n_symbols=6)
        for lm in (smooth(other, "add_lambda"), smooth(count_ngrams(corpus, 3), "add_lambda"),
                   ConditionalLM(sm.order, sm.vocab, sm.table)):
            with pytest.raises(ValueError, match="^the smoothed model's rows are not the count "
                                                 "table's histories$"):
                build_regularizer(emp, lm, table, 1.0, 1.0)

    def test_coverage_error(self):
        # a smoothed LM missing one of the table's histories is refused
        table, emp, sm = self.table_and_lms()
        crippled = dict(sm.table)
        del crippled[next(iter(crippled))]
        with pytest.raises(ValueError, match="^the smoothed model's rows are not the count "
                                             "table's histories$"):
            build_regularizer(emp, ConditionalLM(sm.order, sm.vocab, crippled), table, 1.0, 1.0)

    def test_rows_follow_the_table(self):
        table, emp, sm = self.table_and_lms()
        bundle = build_regularizer(emp, sm, table, 1.0, 1.0)
        assert "per_history" not in vars(bundle)
        np.testing.assert_allclose(
            emp.matrix + bundle.rows.z_plus[:, None] * bundle.rows.p_plus
            - bundle.rows.z_minus[:, None] * bundle.rows.p_minus, sm.matrix, rtol=0,
            atol=RECON_ATOL)
        for i, (h, dec) in enumerate(bundle.per_history.items()):
            assert h == table.hists[i]
            assert np.shares_memory(dec.p_plus, bundle.rows.p_plus)
            assert dec.z_minus == bundle.rows.z_minus[i]

    def test_reconstruction_across_all_smoothers(self):
        table = count_ngrams(synthetic_corpus(14, n_sequences=120, n_symbols=14), 2)
        emp = empirical_conditional(table)
        for method in ["add_lambda", "good_turing", "simple_good_turing",
                       "jelinek_mercer", "katz", "kneser_essen_ney"]:
            sm = smooth(table, method)
            bundle = build_regularizer(emp, sm, table, 1.0, 1.0)
            for h, dec in bundle.per_history.items():
                recon = emp.table[h] + dec.z_plus * dec.p_plus - dec.z_minus * dec.p_minus
                assert np.abs(recon - sm.table[h]).max() < 1e-12, method

    @pytest.mark.parametrize("position", ["empirical", "smoothed"])
    @pytest.mark.parametrize("cell, message", [
        (-0.25, "negative probability"),
        (None, "probabilities sum to 1.25, not 1"),
    ])
    def test_unchecked_rows_are_checked_here(self, position, cell, message):
        # rows a caller vouched for (validate=False) are checked once, here,
        # and the error names the history and the model's position
        table, emp, sm = self.table_and_lms()
        i = 2
        lms = {"empirical": emp, "smoothed": sm}
        matrix = lms[position].matrix.copy()
        # a negative cell, or one that adds 0.25 to the row's mass
        matrix[i, 0] = cell if cell is not None else matrix[i, 0] + 0.25
        lms[position] = ConditionalLM(table.order, table.vocab, (table, matrix),
                                      validate=False)
        assert not lms[position].checked
        want = f"{position} history {table.hists[i]}: {message}"
        with pytest.raises(NormalizationError, match=f"^{re.escape(want)}$"):
            build_regularizer(lms["empirical"], lms["smoothed"], table, 1.0, 1.0)

    def test_checked_rows_are_not_checked_again(self, monkeypatch):
        table, emp, sm = self.table_and_lms()
        # unchecked copies of the empirical and the smoothed rows, keyed by
        # the table
        copies = [ConditionalLM(lm.order, lm.vocab, (table, lm.matrix), validate=False)
                  for lm in (emp, sm)]
        calls = []
        check = ConditionalLM.check
        monkeypatch.setattr(ConditionalLM, "check",
                            lambda lm, name="": calls.append(name) or check(lm, name))
        want = build_regularizer(emp, sm, table, 1.0, 1.0).rows
        assert emp.checked and sm.checked and calls == []
        # are checked once each
        got = build_regularizer(*copies, table, 1.0, 1.0).rows
        assert calls == ["empirical", "smoothed"]
        # both routes split the same cells, so Z- and p_minus keep their
        # bits; the dense copy's Z+ sums its off-gram mass from its rows,
        # the level's from a, d and its parent's mass, and p_plus is the
        # dense positive part divided by each route's own Z+
        for key in ("p_minus", "z_minus"):
            assert_same_bits(getattr(got, key), getattr(want, key))
        for r in (got, want):
            assert_same_bits(r.p_plus, dense_split(emp.matrix, sm.matrix, r.z_plus)[0])
        np.testing.assert_allclose(got.z_plus, want.z_plus, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("gammas, message", [
        ((math.nan, 1.0), "gamma_plus must be finite, got nan"),
        ((1.0, math.inf), "gamma_minus must be finite, got inf"),
        ((-math.inf, 1.0), "gamma_plus must be finite, got -inf"),
        ((-1.0, 1.0), "gamma weights must be nonnegative"),
        ((1.0, -1.0), "gamma weights must be nonnegative"),
    ])
    def test_gammas_must_be_finite_and_nonnegative(self, gammas, message):
        # the rule and the messages of TrainConfig.validate: a library
        # caller's bundle brings its own gammas into train
        table, emp, sm = self.table_and_lms()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_regularizer(emp, sm, table, *gammas)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(objective="split_regularizer", gamma_plus=gammas[0],
                        gamma_minus=gammas[1]).validate()


def dense_split(p, q, z_plus=None, z_minus=None):
    """The split of each row of q against p, written densely: the positive
    and negative parts of q - p, each divided by its row sum, or by the
    given Z (1 for a part with no mass), with the row sums."""
    parts = []
    for m, z in ((np.maximum(q - p, 0.0), z_plus), (np.maximum(p - q, 0.0), z_minus)):
        sums = m.sum(axis=1)
        z = sums if z is None else z
        parts += [m / np.where(z == 0.0, 1.0, z)[:, None], sums]
    return parts


def assert_same_bits(got, want, err_msg=""):
    # int64 views: the sign of every zero counts
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=err_msg)


@pytest.mark.parametrize("method, params, table", [
    *[(method, None, (synthetic_corpus(14, n_sequences=120, n_symbols=14), 2))
      for method in METHODS],
    *[(method, None, (corpus_from_lines(markov_zipf_lines(200, 30, 0)), 3))
      for method in METHODS],
    # Katz's renormalized rows here hold tens of thousands of exact zeros
    ("katz", {"k": 6}, (corpus_from_lines(markov_zipf_lines(2000, 50, 0)), 3)),
])
def test_bundle_rows_are_the_dense_split(method, params, table):
    table = count_ngrams(*table)
    emp = empirical_conditional(table)
    sm = smooth(table, method, params)
    if params:
        assert np.count_nonzero(sm.matrix == 0.0) > 40_000
    r = build_regularizer(emp, sm, table, 1.0, 1.0).rows
    p_plus, z_plus, p_minus, z_minus = dense_split(emp.matrix, sm.matrix, r.z_plus, r.z_minus)
    # Z+ and Z- are summed over the grams and the level's off-gram mass,
    # not over the dense rows; divided by them, the dense parts keep their bits
    for got, want in ((r.z_plus, z_plus), (r.z_minus, z_minus)):
        np.testing.assert_allclose(got, want, rtol=0, atol=RECON_ATOL, err_msg=method)
    for got, want in ((r.p_plus, p_plus), (r.p_minus, p_minus)):
        assert_same_bits(got, want, method)


def test_levels_bundles_and_perplexity_build_no_dense_rows():
    # numpy reports its buffers to tracemalloc, so one (histories x |V|+1)
    # float matrix on the way would lift the traced peak past the bound;
    # the held-out lines are the training lines reversed, whose histories
    # mostly back off
    lines = markov_zipf_lines(2000, 500, 0)
    train = corpus_from_lines(lines)
    held = corpus_from_lines([" ".join(ln.split()[::-1]) for ln in lines], train.vocab)
    table = count_ngrams(train, 3)
    bound = 8 * len(table.ids) * table.vocab.out_dim
    tracemalloc.start()
    try:
        for method in METHODS:
            lm = smooth(table, method)
            build_regularizer(empirical_conditional(table), lm, table, 1.0, 1.0)
            # a known defect: Good-Turing gives a seen cell 0 wherever
            # r_(c+1) == 0, and some held-out grams land on one, so its
            # perplexity here is inf
            assert math.isfinite(perplexity(lm, held)) or method == "good_turing", method
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def split_objective(smoothed_row, gammas, logits=(math.log(3), 0.0)):
    """objective_value of a one-symbol corpus ["a"] at order 1, whose one
    history () has p = (1/2, 1/2) over (a, EOS) and weight 1, under
    split_regularizer with a smoothed row and the tabular q = softmax(logits),
    and the mle value at the same q."""
    corpus = corpus_from_lines(["a"])
    model = TabularSoftmaxLM(1, corpus.vocab, [()])
    model.logits[0] = logits
    smoothed = ConditionalLM(1, corpus.vocab, ([()], np.array([smoothed_row])))
    config = TrainConfig(objective="split_regularizer", gamma_plus=gammas[0],
                         gamma_minus=gammas[1])
    return (objective_value(model, corpus, config, smoothed),
            objective_value(model, corpus, TrainConfig(objective="mle")))


class TestRegularizerLoss:
    """The split term of the training objective, as verify.objective_value
    evaluates it: + g+ Z+ KL(p_plus||q) - g- Z- KL(p_minus||q)."""

    def test_worked_scalar_example(self):
        # smoothed (0.8, 0.2) against p = (0.5, 0.5): Z+ = Z- = 0.3, p_plus =
        # (1, 0), p_minus = (0, 1); at q = (3/4, 1/4) the split term is
        # 1 * 0.3 log(4/3) - 0.5 * 0.3 log 4, after mle = H(p, q)
        split, mle = split_objective([0.8, 0.2], (1.0, 0.5))
        assert mle == pytest.approx(0.5 * math.log(4 / 3) + 0.5 * math.log(4), rel=1e-12)
        assert split - mle == pytest.approx(0.3 * math.log(4 / 3) - 0.15 * math.log(4),
                                            rel=1e-12)

    def test_zero_gammas_zero_loss(self):
        split, mle = split_objective([0.8, 0.2], (0.0, 0.0))
        assert split == mle

    def test_all_z_zero_any_q(self):
        split, mle = split_objective([0.5, 0.5], (3.0, 0.7), logits=(2.0, -1.0))
        assert split == mle

    def test_finite_at_smoothed(self):
        split, _ = split_objective([0.8, 0.2], (1.0, 1.0), logits=(math.log(4), 0.0))
        assert math.isfinite(split)

    def test_infinite_flag_not_exception(self):
        # q vanishes where p_plus has mass
        split, _ = split_objective([0.8, 0.2], (1.0, 0.5), logits=(-math.inf, 0.0))
        assert split == math.inf

    def test_scales_linearly_in_gammas(self):
        base, mle = split_objective([0.8, 0.2], (0.1, 0.3))
        scaled, _ = split_objective([0.8, 0.2], (3 * 0.1, 3 * 0.3))
        assert scaled - mle == pytest.approx(3 * (base - mle), rel=1e-12)


class TestBracketIdentities:
    def test_two_point_worked_example(self):
        p = np.array([0.5, 0.5, 0.0])
        pt = np.array([0.4, 0.4, 0.2])
        q1 = np.full(3, 1 / 3)
        q2 = np.array([0.2, 0.3, 0.5])
        d1 = signed_sides(lambda v: kl_divergence(v, q1), p, pt)
        d2 = signed_sides(lambda v: kl_divergence(v, q2), p, pt)
        assert d1[0] - d1[1] == pytest.approx(d2[0] - d2[1], abs=1e-12)
        h = signed_sides(entropy, p, pt)
        assert d1[0] - d1[1] == pytest.approx(h[1] - h[0], abs=1e-12)

    def test_cross_entropy_linearity_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(dim))
            pt = rng.dirichlet(np.ones(dim))
            q = rng.dirichlet(np.ones(dim))
            lhs, rhs = signed_sides(lambda v: cross_entropy(v, q), p, pt)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_identical_distributions_zero_diff(self):
        p = np.array([0.25, 0.75])
        for q in (np.array([0.5, 0.5]), np.array([0.9, 0.1])):
            lhs, rhs = signed_sides(lambda v: kl_divergence(v, q), p, p)
            assert lhs - rhs == pytest.approx(0.0, abs=1e-15)


class TestDecompositionExport:
    def test_deterministic_bytes(self, tmp_path):
        table = count_ngrams(synthetic_corpus(5, n_sequences=40, n_symbols=5), 2)
        emp = empirical_conditional(table)
        sm = smooth(table, "add_lambda", {"lambda": 0.5})
        bundle = build_regularizer(emp, sm, table, 1.0, 1.0)
        p1, p2 = tmp_path / "d1.tsv", tmp_path / "d2.tsv"
        write_decomposition(bundle, str(p1))
        write_decomposition(bundle, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "history\tsymbol\tp_plus\tp_minus\tz_plus\tz_minus"

    def test_names_the_symbols_of_the_bundles_table(self, tmp_path):
        # the vocabulary is read off the bundle's count table, so the file
        # cannot name another one's symbols in place of the table's
        table = count_ngrams(corpus_from_lines(["b a", "a a b", "c"]), 2)
        bundle = build_regularizer(empirical_conditional(table), smooth(table, "katz"),
                                   table, 1.0, 1.0)
        path = tmp_path / "dec.tsv"
        write_decomposition(bundle, str(path))
        columns = dict.fromkeys(["p_plus", "p_minus", "z_plus", "z_minus"], float)
        _, vocab, hists, _, _, _ = read_cells(str(path), columns)
        assert sorted(vocab.symbols) == sorted(bundle.keys.vocab.symbols) == ["a", "b", "c"]
        assert len(hists) == len(table.ids)
