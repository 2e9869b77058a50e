"""Model and training-loop tests.

Gradients are checked coordinate-by-coordinate against central finite
differences; training fixed points are checked against the closed forms
they must recover (empirical conditionals for MLE, the add-lambda table for
label smoothing, the smoothed table itself for target fitting)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlm.corpus import corpus_from_lines, count_ngrams
from smoothlm.decompose import build_regularizer
from smoothlm.neural import (
    OBJECTIVES,
    FeedForwardLM,
    TabularSoftmaxLM,
    TrainConfig,
    TrainingError,
    _objective_weights,
    batch_from_corpus,
    load_model,
    loss_and_grad,
    make_bundle_for,
    model_perplexity,
    save_model,
    train,
    train_smoothed_target,
)
from smoothlm.ngram import empirical_conditional, entropy
from smoothlm.smoothers import smooth, smooth_add_lambda
from smoothlm.verify import synthetic_corpus


def toy():
    return corpus_from_lines(["a b", "b a"])


def small_setup(method="add_lambda", params=None, gammas=(0.5, 0.5)):
    corpus = synthetic_corpus(0, n_sequences=12, n_symbols=3, max_len=4)
    table = count_ngrams(corpus, 2)
    smoothed = smooth(table, method, params)
    bundle = build_regularizer(
        empirical_conditional(table), smoothed, table, gammas[0], gammas[1]
    )
    return corpus, table, bundle


def finite_difference_check(model, batch, config, bundle=None, eps=1e-5):
    """Max mismatch of analytic vs central-difference gradients; relative
    where the analytic entry is large, absolute below 1e-8."""
    _, grads = loss_and_grad(model, batch, config, bundle)
    worst = 0.0
    for name, arr in model.param_arrays().items():
        g = grads[name]
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = loss_and_grad(model, batch, config, bundle)
            flat[i] = orig - eps
            down, _ = loss_and_grad(model, batch, config, bundle)
            flat[i] = orig
            numeric = (up - down) / (2 * eps)
            err = abs(numeric - gflat[i])
            if abs(gflat[i]) >= 1e-8:
                err /= abs(gflat[i])
            worst = max(worst, err)
    return worst


class TestForward:
    def test_zero_parameters_uniform(self):
        c = toy()
        m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
        np.testing.assert_allclose(m.forward((0,)), [1 / 3] * 3)
        ff = FeedForwardLM(2, c.vocab, 4, 5, seed=0, init_scale=0.0)
        np.testing.assert_allclose(ff.forward((0,)), [1 / 3] * 3)

    def test_tabular_softmax_values(self):
        c = corpus_from_lines(["a"])
        m = TabularSoftmaxLM(1, c.vocab, [()])
        m.logits[0] = [math.log(2), 0.0]
        np.testing.assert_allclose(m.forward(()), [2 / 3, 1 / 3], atol=1e-15)

    def test_identical_embeddings_symmetric(self):
        c = toy()
        ff = FeedForwardLM(3, c.vocab, 4, 5, seed=1)
        ff.E[c.vocab.id_of["a"]] = ff.E[c.vocab.id_of["b"]]
        a, b = c.vocab.id_of["a"], c.vocab.id_of["b"]
        np.testing.assert_allclose(ff.forward((a, b)), ff.forward((b, a)))

    def test_wrong_history_length(self):
        c = toy()
        m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
        with pytest.raises(ValueError, match="length"):
            m.forward((0, 1))

    def test_eos_in_history_rejected(self):
        c = toy()
        ff = FeedForwardLM(2, c.vocab, 4, 4)
        with pytest.raises(ValueError):
            ff.forward((c.vocab.eos_id,))

    def test_rows_strictly_positive_and_normalized(self):
        c = toy()
        ff = FeedForwardLM(2, c.vocab, 8, 8, seed=3, init_scale=2.0)
        for h in [(0,), (1,), (c.vocab.bos_id,)]:
            q = ff.forward(h)
            assert (q > 0).all()
            assert q.sum() == pytest.approx(1.0, abs=1e-9)


def lines_over(symbols):
    return st.lists(st.lists(st.sampled_from(symbols), min_size=1, max_size=5).map(" ".join),
                    min_size=1, max_size=6)


@settings(max_examples=60)
@given(st.data())
def test_forward_batch_matches_forward_rows(data):
    lines = data.draw(lines_over("abcd"))
    order = data.draw(st.integers(2, 3))
    corpus = corpus_from_lines(lines)
    vocab = corpus.vocab
    ids = list(range(vocab.n_symbols)) + [vocab.bos_id]
    hists = data.draw(st.lists(st.tuples(*[st.sampled_from(ids)] * (order - 1)),
                               min_size=1, max_size=8))
    # the tabular model leaves out one observed history, so at least one
    # queried history is outside its table
    table_hists = sorted(count_ngrams(corpus, order).history_count)
    outside = table_hists[0]
    hists.append(outside)
    tab = TabularSoftmaxLM(order, vocab, table_hists[1:])
    tab.logits[...] = np.random.default_rng(len(lines)).normal(size=tab.logits.shape)
    ff = FeedForwardLM(order, vocab, 3, 4, seed=order, init_scale=1.0)
    for model in (tab, ff):
        batch = model.forward_batch(hists)
        assert batch.shape == (len(hists), vocab.out_dim)
        np.testing.assert_allclose(batch, np.stack([model.forward(h) for h in hists]),
                                   rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(tab.forward_batch([outside])[0],
                                  np.full(vocab.out_dim, 1.0 / vocab.out_dim))


@settings(max_examples=30)
@given(st.data())
def test_corpus_and_its_table_train_alike(data):
    corpus = corpus_from_lines(data.draw(lines_over("abcd")))
    heldout = corpus_from_lines(data.draw(lines_over(corpus.vocab.symbols)), vocab=corpus.vocab)
    order = data.draw(st.integers(2, 3))
    method, params = data.draw(st.sampled_from([
        ("add_lambda", {"lambda": 0.3}),
        ("jelinek_mercer", {"lambdas": [0.3] * order}),
        ("kneser_essen_ney", {"D": 0.4}),
    ]))
    config = TrainConfig(
        objective=data.draw(st.sampled_from(OBJECTIVES)), method=method, method_params=params,
        gamma_ls=0.5, gamma_plus=0.5, gamma_minus=0.25, lr=0.5, epochs=4, patience=2)
    table, held_table = count_ngrams(corpus, order), count_ngrams(heldout, order)
    b1, b2 = make_bundle_for(corpus, order, config), make_bundle_for(table, order, config)
    assert b1.hists == b2.hists and b1.weights == b2.weights
    for name in ("p_plus", "p_minus", "z_plus", "z_minus"):
        np.testing.assert_array_equal(getattr(b1.rows, name), getattr(b2.rows, name))
    for make in (lambda: TabularSoftmaxLM.for_table(table),
                 lambda: FeedForwardLM(order, corpus.vocab, 3, 4, seed=order, init_scale=0.5)):
        m1, metrics1 = train(make(), corpus, config, heldout=heldout)
        m2, metrics2 = train(make(), table, config, heldout=held_table)
        assert metrics1 == metrics2
        for name, arr in m1.param_arrays().items():
            np.testing.assert_array_equal(arr, m2.param_arrays()[name])
        assert model_perplexity(m1, heldout) == model_perplexity(m2, held_table)
        assert model_perplexity(m1, corpus) == model_perplexity(m2, table)


def test_table_at_another_order_rejected():
    c = toy()
    m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
    with pytest.raises(ValueError, match="order 3, model at order 2"):
        train(m, count_ngrams(c, 3), TrainConfig(objective="mle", epochs=1))
    with pytest.raises(ValueError, match="order 3, model at order 2"):
        model_perplexity(m, count_ngrams(c, 3))


class TestLossAndGrad:
    def test_softmax_ce_gradient_identity(self):
        c = toy()
        m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
        rng = np.random.default_rng(0)
        m.logits[...] = rng.normal(size=m.logits.shape)
        h = (c.vocab.id_of["a"],)
        target = c.vocab.id_of["b"]
        _, grads = loss_and_grad(m, [(h, target)], TrainConfig(objective="mle"))
        row = m.history_index[h]
        q = m.forward(h)
        onehot = np.zeros(3)
        onehot[c.vocab.out_index(target)] = 1.0
        np.testing.assert_allclose(grads["logits"][row], q - onehot, atol=1e-12)

    def test_degenerate_regularizers_reduce_to_mle(self):
        corpus, table, bundle0 = small_setup(gammas=(0.0, 0.0))
        batch = batch_from_corpus(corpus, 2)
        m = TabularSoftmaxLM.for_table(table)
        rng = np.random.default_rng(5)
        m.logits[...] = rng.normal(size=m.logits.shape)
        l_mle, g_mle = loss_and_grad(m, batch, TrainConfig(objective="mle"))
        l_ls, g_ls = loss_and_grad(m, batch, TrainConfig(objective="label_smoothing", gamma_ls=0.0))
        l_sp, g_sp = loss_and_grad(
            m, batch, TrainConfig(objective="split_regularizer"), bundle0
        )
        assert l_ls == pytest.approx(l_mle, abs=1e-15)
        assert l_sp == pytest.approx(l_mle, abs=1e-15)
        np.testing.assert_allclose(g_ls["logits"], g_mle["logits"], atol=1e-15)
        np.testing.assert_allclose(g_sp["logits"], g_mle["logits"], atol=1e-15)

    def test_batch_order_invariance(self):
        corpus, table, _ = small_setup()
        batch = batch_from_corpus(corpus, 2)
        m = FeedForwardLM(2, corpus.vocab, 4, 6, seed=2)
        l1, g1 = loss_and_grad(m, batch, TrainConfig(objective="mle"))
        l2, g2 = loss_and_grad(m, list(reversed(batch)), TrainConfig(objective="mle"))
        assert l1 == l2
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])

    def test_empty_batch_rejected(self):
        c = toy()
        m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
        with pytest.raises(ValueError, match="nonempty"):
            loss_and_grad(m, [], TrainConfig())

    def test_gamma_minus_above_one_rejected(self):
        corpus, table, bundle = small_setup(gammas=(1.0, 1.5))
        batch = batch_from_corpus(corpus, 2)
        m = TabularSoftmaxLM.for_table(table)
        with pytest.raises(ValueError, match="gamma_minus"):
            loss_and_grad(m, batch, TrainConfig(objective="split_regularizer"), bundle)


class TestGradientsAgainstFiniteDifferences:
    CONFIGS = [
        ("mle", {}),
        ("label_smoothing", {"gamma_ls": 0.7}),
        ("smoothed_target", {}),
        ("split_regularizer", {}),
    ]

    @pytest.mark.parametrize("objective,extra", CONFIGS)
    def test_tabular(self, objective, extra):
        corpus, table, bundle = small_setup(gammas=(0.8, 0.6))
        batch = batch_from_corpus(corpus, 2)
        m = TabularSoftmaxLM.for_table(table)
        rng = np.random.default_rng(0)
        m.logits[...] = 0.5 * rng.normal(size=m.logits.shape)
        config = TrainConfig(objective=objective, **extra)
        needs = objective in ("smoothed_target", "split_regularizer")
        worst = finite_difference_check(m, batch, config, bundle if needs else None)
        assert worst < 1e-5

    @pytest.mark.parametrize("objective,extra", CONFIGS)
    def test_feedforward(self, objective, extra):
        corpus, table, bundle = small_setup(gammas=(0.8, 0.6))
        batch = batch_from_corpus(corpus, 2)
        m = FeedForwardLM(2, corpus.vocab, 3, 4, seed=0, init_scale=0.3)
        config = TrainConfig(objective=objective, **extra)
        needs = objective in ("smoothed_target", "split_regularizer")
        worst = finite_difference_check(m, batch, config, bundle if needs else None)
        assert worst < 1e-5


class TestTraining:
    def test_tabular_mle_recovers_empirical(self):
        c = toy()
        m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
        config = TrainConfig(objective="mle", lr=4.0, epochs=8000)
        m, metrics = train(m, c, config)
        emp = empirical_conditional(count_ngrams(c, 2))
        for h, v in emp.table.items():
            assert np.abs(m.forward(h) - v).max() < 1e-4

    def test_label_smoothing_recovers_add_lambda(self):
        corpus = synthetic_corpus(1, n_sequences=25, n_symbols=3, max_len=4)
        table = count_ngrams(corpus, 2)
        gamma = 1.0
        m = TabularSoftmaxLM.for_table(table)
        config = TrainConfig(objective="label_smoothing", gamma_ls=gamma, lr=6.0, epochs=30000)
        m, _ = train(m, corpus, config)
        target = smooth_add_lambda(table, gamma / table.vocab.out_dim)
        for h in table.history_count:
            assert np.abs(m.forward(h) - target.table[h]).max() < 1e-4

    def test_lr_zero_keeps_parameters(self):
        c = toy()
        m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
        rng = np.random.default_rng(1)
        m.logits[...] = rng.normal(size=m.logits.shape)
        before = m.logits.copy()
        m, metrics = train(m, c, TrainConfig(objective="mle", lr=0.0, epochs=5))
        np.testing.assert_array_equal(m.logits, before)
        assert len(set(metrics.train_loss)) == 1

    def test_divergence_raises_training_error(self):
        c = toy()
        m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
        m.logits[0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError, match="epoch 0"):
                train(m, c, TrainConfig(objective="mle", epochs=3))

    def test_early_stopping_restores_best(self):
        corpus = synthetic_corpus(2, n_sequences=30, n_symbols=3)
        heldout = synthetic_corpus(99, n_sequences=10, n_symbols=3)
        m = FeedForwardLM(2, corpus.vocab, 4, 6, seed=0)
        config = TrainConfig(objective="mle", lr=0.3, epochs=400, patience=10)
        m, metrics = train(m, corpus, config, heldout=heldout)
        assert metrics.epochs_run <= 400
        assert metrics.best_epoch is not None
        best = min(metrics.heldout_ppl)
        assert model_perplexity(m, heldout) == pytest.approx(best, rel=1e-12)


class TestSmoothedTargetTraining:
    def test_recovers_add_lambda_table(self):
        corpus = synthetic_corpus(3, n_sequences=20, n_symbols=3, max_len=4)
        table = count_ngrams(corpus, 2)
        target = smooth_add_lambda(table, 0.7)
        m = TabularSoftmaxLM.for_table(table)
        config = TrainConfig(lr=6.0, epochs=30000)
        m = train_smoothed_target(m, target, table, config)
        for h in table.history_count:
            assert np.abs(m.forward(h) - target.table[h]).max() < 1e-4

    def test_mle_target_matches_mle_gradients(self):
        corpus, table, _ = small_setup()
        emp = empirical_conditional(table)
        bundle = build_regularizer(emp, emp, table, 1.0, 1.0)
        batch = batch_from_corpus(corpus, 2)
        m = TabularSoftmaxLM.for_table(table)
        rng = np.random.default_rng(7)
        m.logits[...] = rng.normal(size=m.logits.shape)
        _, g_mle = loss_and_grad(m, batch, TrainConfig(objective="mle"))
        _, g_tgt = loss_and_grad(m, batch, TrainConfig(objective="smoothed_target"), bundle)
        np.testing.assert_allclose(g_tgt["logits"], g_mle["logits"], atol=1e-12)

    def test_equality_of_routes(self):
        # target-fitting vs split objective at unit gammas: same optimum
        corpus = synthetic_corpus(4, n_sequences=25, n_symbols=3, max_len=4)
        table = count_ngrams(corpus, 2)
        smoothed = smooth(table, "jelinek_mercer", {"lambdas": [0.6, 0.6]})
        m1 = TabularSoftmaxLM.for_table(table)
        m1 = train_smoothed_target(m1, smoothed, table, TrainConfig(lr=6.0, epochs=40000))
        bundle = build_regularizer(empirical_conditional(table), smoothed, table, 1.0, 1.0)
        m2 = TabularSoftmaxLM.for_table(table)
        config = TrainConfig(objective="split_regularizer", lr=6.0, epochs=40000)
        m2, _ = train(m2, corpus, config, bundle=bundle)
        for h in table.history_count:
            assert np.abs(m1.forward(h) - m2.forward(h)).max() < 1e-3

    def test_split_and_target_objectives_differ_by_constant(self):
        corpus, table, bundle = small_setup("jelinek_mercer", {"lambdas": [0.5, 0.5]},
                                            gammas=(1.0, 1.0))
        batch = batch_from_corpus(corpus, 2)
        rng = np.random.default_rng(11)
        diffs = []
        for _ in range(100):
            m = TabularSoftmaxLM.for_table(table)
            m.logits[...] = rng.normal(size=m.logits.shape)
            l_tgt, _ = loss_and_grad(m, batch, TrainConfig(objective="smoothed_target"), bundle)
            l_sp, _ = loss_and_grad(m, batch, TrainConfig(objective="split_regularizer"), bundle)
            diffs.append(l_tgt - l_sp)
        assert np.var(diffs) < 1e-10


class TestSerialization:
    def test_tabular_roundtrip_bit_exact(self, tmp_path):
        c = toy()
        m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
        rng = np.random.default_rng(0)
        m.logits[...] = rng.normal(size=m.logits.shape)
        p = tmp_path / "m.json"
        save_model(m, str(p))
        m2 = load_model(str(p))
        np.testing.assert_array_equal(m.logits, m2.logits)
        assert m2.history_index == m.history_index
        p2 = tmp_path / "m2.json"
        save_model(m2, str(p2))
        assert p.read_bytes() == p2.read_bytes()

    def test_feedforward_roundtrip_bit_exact(self, tmp_path):
        c = toy()
        m = FeedForwardLM(3, c.vocab, 5, 7, seed=4, init_scale=0.2)
        p = tmp_path / "ff.json"
        save_model(m, str(p))
        m2 = load_model(str(p))
        for k, arr in m.param_arrays().items():
            np.testing.assert_array_equal(arr, m2.param_arrays()[k])
        q1, q2 = m.forward((0, 1)), m2.forward((0, 1))
        np.testing.assert_array_equal(q1, q2)


def loop_objective_weights(table, config, bundle):
    """Reference: the bundle objectives' weights one history at a time, over
    a count matrix filled from gram_count."""
    hists = sorted(table.history_count)
    row = {h: i for i, h in enumerate(hists)}
    C = np.zeros((len(hists), table.vocab.out_dim))
    for (h, x), c in table.gram_count.items():
        C[row[h], table.vocab.out_index(x)] = c
    N = C.sum()
    alpha = C / N
    const = 0.0
    for i, h in enumerate(hists):
        dec = bundle.per_history[h]
        w = bundle.weights[h] / N
        if config.objective == "smoothed_target":
            target = C[i] / C[i].sum()
            if dec.z_plus > 0:
                target = target + dec.z_plus * dec.p_plus
            if dec.z_minus > 0:
                target = target - dec.z_minus * dec.p_minus
            target = np.maximum(target, 0.0)
            alpha[i] = w * target
            const -= w * entropy(target)
        else:
            if dec.z_plus > 0:
                alpha[i] += w * bundle.gamma_plus * dec.z_plus * dec.p_plus
                const -= w * bundle.gamma_plus * dec.z_plus * entropy(dec.p_plus)
            if dec.z_minus > 0:
                alpha[i] -= w * bundle.gamma_minus * dec.z_minus * dec.p_minus
                const += w * bundle.gamma_minus * dec.z_minus * entropy(dec.p_minus)
    return alpha, const


@pytest.mark.parametrize("objective", ["smoothed_target", "split_regularizer"])
@pytest.mark.parametrize("method", ["add_lambda", "jelinek_mercer", "kneser_essen_ney"])
def test_objective_weights_match_per_history_loop(objective, method):
    # alpha keeps the loop's arithmetic; const sums in another order
    table = count_ngrams(synthetic_corpus(21, n_sequences=80, n_symbols=6), 3)
    bundle = build_regularizer(empirical_conditional(table), smooth(table, method), table, 0.3, 0.7)
    config = TrainConfig(objective=objective, method=method, gamma_plus=0.3, gamma_minus=0.7)
    alpha, const = _objective_weights(table, config, bundle)
    ref_alpha, ref_const = loop_objective_weights(table, config, bundle)
    np.testing.assert_array_equal(alpha, ref_alpha)
    assert const == pytest.approx(ref_const, rel=1e-12)
