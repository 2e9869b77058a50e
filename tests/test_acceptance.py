"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Tolerances are fixed here and must not be loosened.  Criterion 2 is asserted
in its exact form: the cross-entropy identity with constant 1/M plus
q-invariance of the KL-form gap (the naive per-history KL equality is false
whenever the corpus is not n-gram-consistent; criterion 2's final assertion
documents that gap explicitly)."""

import math
import time

import numpy as np
import pytest

from smoothlm.cli import main as cli_main
from smoothlm.corpus import corpus_from_lines, count_ngrams
from smoothlm.decompose import build_regularizer
from smoothlm.neural import (
    FeedForwardLM,
    TabularSoftmaxLM,
    TrainConfig,
    _objective_weights,
    train,
)
from smoothlm.ngram import empirical_conditional
from smoothlm.smoothers import good_turing_adjusted_count, smooth
from smoothlm.verify import (
    check_ce_linearity,
    check_corollary,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    markov_zipf_lines,
    objective_value,
    synthetic_corpus,
)

SMOOTHER_GRID = [
    ("add_lambda", {"lambda": 1.0}),
    ("good_turing", {}),
    ("simple_good_turing", {}),
    ("jelinek_mercer", {"lambdas": [0.5, 0.5]}),
    ("katz", {"k": 5}),
    ("kneser_essen_ney", {"D": 0.75}),
]


def report(name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


class TestCriterion1ChainRule:
    def test_identity_within_1e9(self):
        t0 = time.time()
        r = check_theorem1(trials=200, seed=0, tolerance=1e-9)
        elapsed = time.time() - t0
        report(
            "1 chain-rule identity",
            r.passed and elapsed < 10.0,
            f"max_err={r.max_abs_error:.2e} tol=1e-09 runtime={elapsed:.1f}s",
        )


class TestCriterion2HistoryReduction:
    def test_cross_entropy_identity_and_gap(self):
        r = check_corollary(trials=200, seed=0, tolerance=1e-9)
        report(
            "2 per-history reduction (1/M)",
            r.passed,
            f"max_err={r.max_abs_error:.2e} tol=1e-09",
        )

    def test_naive_kl_equality_gap_is_exactly_the_consistency_kl(self):
        # documents why the reduction is asserted at the cross-entropy level:
        # the plain KL forms differ by KL(empirical || own-bigram-product),
        # which is positive for any corpus that is not bigram-consistent
        from smoothlm.verify import corollary_sides, random_bigram_lm

        corpus = corpus_from_lines(["a a b", "b a"])
        rng = np.random.default_rng(0)
        q = random_bigram_lm(rng, corpus.vocab)
        sides = corollary_sides(corpus, q)
        gap = sides["kl_lhs"] - sides["kl_rhs"]
        assert gap == pytest.approx(sides["gap_expected"], abs=1e-10)
        assert gap > 0.1


class TestCriterion3LabelSmoothingFixedPoint:
    def test_three_gammas_match_add_lambda(self):
        t0 = time.time()
        r = check_theorem2(seed=0, gammas=(0.1, 1.0, 10.0), tolerance=1e-4,
                           n_sequences=50)
        elapsed = time.time() - t0
        report(
            "3 label smoothing == add-lambda",
            r.passed and elapsed < 60.0,
            f"max_dev={r.max_abs_error:.2e} tol=1e-04 runtime={elapsed:.1f}s",
        )


class TestCriterion4SignedBracket:
    def test_ce_linearity_1000_triples(self):
        r = check_ce_linearity(trials=1000, seed=0, dims=(2, 3, 5), tolerance=1e-10)
        report(
            "4a cross-entropy linearity",
            r.passed,
            f"max_err={r.max_abs_error:.2e} tol=1e-10",
        )

    def test_bracket_q_invariance_1000_triples(self):
        r = check_theorem3(trials=1000, seed=0, dims=(2, 3, 5), n_q=50, tolerance=1e-10)
        report(
            "4b KL bracket q-invariance",
            r.passed,
            f"max_var={r.max_abs_error:.2e} tol=1e-10",
        )


@pytest.fixture(scope="module")
def corpus500():
    return synthetic_corpus(12, n_sequences=500, n_symbols=20)


class TestCriterion5Reconstruction:
    def test_every_smoother_reconstructs(self, corpus500):
        table = count_ngrams(corpus500, 2)
        emp = empirical_conditional(table)
        worst_recon = 0.0
        worst_norm = 0.0
        for method, params in SMOOTHER_GRID:
            sm = smooth(table, method, params)
            bundle = build_regularizer(emp, sm, table, 1.0, 1.0)
            for h, dec in bundle.per_history.items():
                recon = emp.table[h] + dec.z_plus * dec.p_plus - dec.z_minus * dec.p_minus
                worst_recon = max(worst_recon, float(np.abs(recon - sm.table[h]).max()))
                worst_norm = max(worst_norm, abs(float(sm.table[h].sum()) - 1.0))
        report(
            "5 signed reconstruction",
            worst_recon < 1e-12 and worst_norm < 1e-9,
            f"recon={worst_recon:.2e} tol=1e-12, norm={worst_norm:.2e} tol=1e-09",
        )


class TestCriterion6GoodTuringMassLaw:
    def test_mass_by_count_class(self, corpus500):
        table = count_ngrams(corpus500, 2)
        r = table.count_of_counts
        g = {key: good_turing_adjusted_count(c, r, 1) / table.total_tokens
             for key, c in table.gram_count.items()}
        by_count: dict[int, list[float]] = {}
        for key, p in g.items():
            by_count.setdefault(table.gram_count[key], []).append(p)
        worst = 0.0
        for i, probs in by_count.items():
            expected = (i + 1) * r.get(i + 1, 0) / table.total_tokens
            worst = max(worst, abs(math.fsum(probs) - expected))
        report(
            "6 Good-Turing mass law",
            worst < 1e-12,
            f"max_err={worst:.2e} tol=1e-12 count_classes={len(by_count)}",
        )


class TestCriterion7Gradients:
    def _check(self, model, corpus, table, config, smoothed, bundle, eps=1e-5):
        """Worst mismatch of the training gradient with central differences
        of verify.objective_value, which evaluates the objective by its own
        route."""
        alpha, _ = _objective_weights(table, config, bundle)
        _, grads, _ = model.batch_loss_grads(model.lookup(table.hists), alpha)
        worst = 0.0
        for name, arr in model.param_arrays().items():
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = objective_value(model, corpus, config, smoothed)
                flat[i] = orig - eps
                down = objective_value(model, corpus, config, smoothed)
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                err = abs(numeric - gflat[i])
                if abs(gflat[i]) >= 1e-8:
                    err /= abs(gflat[i])
                worst = max(worst, err)
        return worst

    def test_all_objectives_both_architectures(self):
        corpus = synthetic_corpus(0, n_sequences=12, n_symbols=3, max_len=4)
        table = count_ngrams(corpus, 2)
        smoothed = smooth(table, "jelinek_mercer", {"lambdas": [0.6, 0.6]})
        bundle = build_regularizer(
            empirical_conditional(table), smoothed, table, 0.8, 0.6
        )
        configs = [
            TrainConfig(objective="mle"),
            TrainConfig(objective="label_smoothing", gamma_ls=0.7),
            TrainConfig(objective="smoothed_target"),
            TrainConfig(objective="split_regularizer", gamma_plus=0.8, gamma_minus=0.6),
        ]
        rng = np.random.default_rng(0)
        worst = 0.0
        for config in configs:
            tab = TabularSoftmaxLM.for_table(table)
            tab.logits[...] = 0.5 * rng.normal(size=tab.logits.shape)
            worst = max(worst, self._check(tab, corpus, table, config, smoothed, bundle))
            ff = FeedForwardLM(2, corpus.vocab, 3, 4, seed=0, init_scale=0.3)
            worst = max(worst, self._check(ff, corpus, table, config, smoothed, bundle))
        report(
            "7 gradient correctness",
            worst < 1e-5,
            f"max_rel_err={worst:.2e} tol=1e-05 (8 model/objective pairs)",
        )


@pytest.fixture(scope="module")
def markov_corpora():
    corpus = corpus_from_lines(markov_zipf_lines(2000, 50, seed=12345))
    heldout = corpus_from_lines(markov_zipf_lines(500, 50, seed=54321),
                                vocab=corpus.vocab)
    return corpus, heldout


class TestCriterion8DirectionOfEffect:
    GAMMA_GRID = [(0.05, 0.5), (0.1, 0.5), (0.05, 1.0), (0.1, 1.0)]

    def _best_heldout(self, corpus, heldout, objective, seed, **kw):
        config = TrainConfig(objective=objective, lr=0.3, epochs=6000,
                             patience=100, seed=seed, **kw)
        model = FeedForwardLM(2, corpus.vocab, 16, 32, seed=seed, init_scale=0.1)
        _, metrics = train(model, corpus, config, heldout=heldout)
        return min(metrics.heldout_ppl)

    def test_grid_beats_unregularized_baseline(self, markov_corpora):
        corpus, heldout = markov_corpora
        t0 = time.time()
        seeds = range(5)
        baseline = np.mean([self._best_heldout(corpus, heldout, "mle", s) for s in seeds])
        best_mean = math.inf
        best_cfg = None
        for gp, gm in self.GAMMA_GRID:
            mean = np.mean([
                self._best_heldout(
                    corpus, heldout, "split_regularizer", s,
                    method="jelinek_mercer", method_params={"lambdas": [0.75, 0.75]},
                    gamma_plus=gp, gamma_minus=gm,
                )
                for s in seeds
            ])
            if mean < best_mean:
                best_mean, best_cfg = mean, (gp, gm)
        elapsed = time.time() - t0
        report(
            "8a split regularizer vs baseline",
            best_mean <= baseline and elapsed < 900.0,
            f"best_grid_mean={best_mean:.4f} (gammas={best_cfg}) "
            f"baseline_mean={baseline:.4f} runtime={elapsed:.0f}s",
        )

    def test_equality_of_routes(self):
        corpus = synthetic_corpus(4, n_sequences=25, n_symbols=3, max_len=4)
        table = count_ngrams(corpus, 2)
        smoothed = smooth(table, "jelinek_mercer", {"lambdas": [0.6, 0.6]})
        bundle = build_regularizer(
            empirical_conditional(table), smoothed, table, 1.0, 1.0
        )
        m1 = TabularSoftmaxLM.for_table(table)
        m1, _ = train(m1, table, TrainConfig(objective="smoothed_target", lr=6.0, epochs=40000),
                      bundle=bundle)
        m2 = TabularSoftmaxLM.for_table(table)
        m2, _ = train(m2, corpus,
                      TrainConfig(objective="split_regularizer", lr=6.0, epochs=40000),
                      bundle=bundle)
        hists = table.hists
        worst = float(np.abs(m1.rows(hists) - m2.rows(hists)).max())
        report(
            "8b equality of training routes",
            worst < 1e-3,
            f"max_dev={worst:.2e} tol=1e-03",
        )


class TestCriterion9GridDeterminism:
    def test_byte_identical_grid_runs(self, markov_corpora, tmp_path):
        import json

        corpus, heldout = markov_corpora
        train_p = tmp_path / "train.txt"
        held_p = tmp_path / "held.txt"
        train_p.write_text(
            "\n".join(markov_zipf_lines(200, 12, seed=7)) + "\n", encoding="utf-8"
        )
        held_p.write_text(
            "\n".join(markov_zipf_lines(50, 12, seed=8)) + "\n", encoding="utf-8"
        )
        outputs = []
        for name in ("runA", "runB"):
            out_dir = tmp_path / name
            cfg = {
                "corpus_path": str(train_p),
                "heldout_path": str(held_p),
                "order": 2,
                "arch": "feedforward",
                "method": "jelinek_mercer",
                "method_params": {"lambdas": [[0.75, 0.75]]},
                "gamma_plus": [0.05, 0.1],
                "gamma_minus": [0.5, 1.0],
                "lr": 0.3,
                "epochs": 60,
                "patience": 20,
                "seed": 0,
                "embed_dim": 8,
                "hidden_dim": 12,
                "out_dir": str(out_dir),
            }
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            assert cli_main(["grid", "--config", str(cfg_path)]) == 0
            outputs.append((out_dir / "grid_results.tsv").read_bytes())
        identical = outputs[0] == outputs[1]
        report(
            "9 grid determinism",
            identical,
            f"{len(outputs[0])} bytes, byte-identical={identical}",
        )
