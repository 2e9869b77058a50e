"""Model and training-loop tests.

Gradients are checked coordinate-by-coordinate against central finite
differences; training fixed points are checked against the closed forms
they must recover (empirical conditionals for MLE, the add-lambda table for
label smoothing, the smoothed table itself for target fitting)."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlm import corpus as corpus_module
from smoothlm import neural
from smoothlm.corpus import CountTable, RowKeys, corpus_from_lines, count_ngrams
from smoothlm.decompose import build_regularizer
from smoothlm.neural import (
    OBJECTIVES,
    FeedForwardLM,
    TabularSoftmaxLM,
    TrainConfig,
    TrainingError,
    TrainMetrics,
    _objective_weights,
    load_model,
    make_bundle_for,
    save_model,
    train,
)
from smoothlm.ngram import ConditionalLM, empirical_conditional, perplexity
from smoothlm.smoothers import METHODS, smooth, smooth_add_lambda
from smoothlm.verify import entropy, objective_value, synthetic_corpus


def toy():
    return corpus_from_lines(["a b", "b a"])


def small_setup(method="add_lambda", params=None, gammas=(0.5, 0.5)):
    corpus = synthetic_corpus(0, n_sequences=12, n_symbols=3, max_len=4)
    table = count_ngrams(corpus, 2)
    smoothed = smooth(table, method, params)
    bundle = build_regularizer(
        empirical_conditional(table), smoothed, table, gammas[0], gammas[1]
    )
    return corpus, table, smoothed, bundle


def objective_grads(model, table, config, bundle=None):
    """The training loss and its gradient: batch_loss_grads under the
    objective's weights, plus the objective's constant."""
    alpha, const = _objective_weights(table, config, bundle)
    loss, grads, _ = model.batch_loss_grads(model.lookup(table.hists), alpha)
    return loss + const, grads


def finite_difference_check(model, corpus, table, config, smoothed=None, bundle=None,
                            eps=1e-5):
    """Max mismatch of the training gradient with central differences of
    verify.objective_value; relative where the analytic entry is large,
    absolute below 1e-8."""
    _, grads = objective_grads(model, table, config, bundle)
    worst = 0.0
    for name, arr in model.param_arrays().items():
        g = grads[name]
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
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


class TestForward:
    """`rows`, the one lookup, over each model's batched forward."""

    def test_zero_parameters_uniform(self):
        c = toy()
        m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
        np.testing.assert_allclose(m.rows([(0,)])[0], [1 / 3] * 3)
        ff = FeedForwardLM(2, c.vocab, 4, 5, seed=0, init_scale=0.0)
        np.testing.assert_allclose(ff.rows([(0,)])[0], [1 / 3] * 3)

    def test_tabular_softmax_values(self):
        c = corpus_from_lines(["a"])
        m = TabularSoftmaxLM(1, c.vocab, [()])
        m.logits[0] = [math.log(2), 0.0]
        np.testing.assert_allclose(m.rows([()])[0], [2 / 3, 1 / 3], atol=1e-15)

    def test_identical_embeddings_symmetric(self):
        c = toy()
        ff = FeedForwardLM(3, c.vocab, 4, 5, seed=1)
        ff.E[c.vocab.id_of["a"]] = ff.E[c.vocab.id_of["b"]]
        a, b = c.vocab.id_of["a"], c.vocab.id_of["b"]
        q = ff.rows([(a, b), (b, a)])
        np.testing.assert_allclose(q[0], q[1])

    def test_tabular_model_without_rows_is_uniform(self):
        c = toy()
        m = TabularSoftmaxLM(2, c.vocab, [])
        q = m.rows([(0,), (c.vocab.bos_id,)])
        np.testing.assert_array_equal(q, np.full((2, c.vocab.out_dim), 1.0 / c.vocab.out_dim))

    def test_wrong_history_length(self):
        c = toy()
        m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
        with pytest.raises(ValueError, match="length"):
            m.rows([(0, 1)])

    def test_eos_in_history_rejected(self):
        c = toy()
        ff = FeedForwardLM(2, c.vocab, 4, 4)
        with pytest.raises(ValueError, match="not a symbol or BOS"):
            ff.rows([(c.vocab.eos_id,)])

    def test_rows_strictly_positive_and_normalized(self):
        c = toy()
        ff = FeedForwardLM(2, c.vocab, 8, 8, seed=3, init_scale=2.0)
        for q in ff.rows([(0,), (1,), (c.vocab.bos_id,)]):
            assert (q > 0).all()
            assert q.sum() == pytest.approx(1.0, abs=1e-9)


def lines_over(symbols):
    return st.lists(st.lists(st.sampled_from(symbols), min_size=1, max_size=5).map(" ".join),
                    min_size=1, max_size=6)


@pytest.mark.parametrize("kind", ["smoothed_lm", "tabular", "feedforward"])
@settings(max_examples=40)
@given(data=st.data())
def test_rows_of_a_batch_match_row_by_row(kind, data):
    # every conditional model answers `rows` and is scored by `perplexity`
    lines = data.draw(lines_over("abcd"))
    order = data.draw(st.integers(2, 3))
    corpus = corpus_from_lines(lines)
    vocab = corpus.vocab
    table = count_ngrams(corpus, order)
    ids = list(range(vocab.n_symbols)) + [vocab.bos_id]
    hists = data.draw(st.lists(st.tuples(*[st.sampled_from(ids)] * (order - 1)),
                               min_size=1, max_size=8))
    outside = table.hists[0]
    hists.append(outside)
    if kind == "smoothed_lm":
        # a backoff LM: unseen histories take their suffix's row a level down
        model = smooth(table, "kneser_essen_ney")
    elif kind == "tabular":
        # the model leaves out one observed history, so at least one queried
        # history is outside its table
        model = TabularSoftmaxLM(order, vocab, table.hists[1:])
        model.logits[...] = np.random.default_rng(len(lines)).normal(size=model.logits.shape)
        np.testing.assert_array_equal(model.rows([outside])[0],
                                      np.full(vocab.out_dim, 1.0 / vocab.out_dim))
    else:
        model = FeedForwardLM(order, vocab, 3, 4, seed=order, init_scale=1.0)
    batch = model.rows(hists)
    assert batch.shape == (len(hists), vocab.out_dim)
    np.testing.assert_allclose(batch, np.stack([model.rows((h,))[0] for h in hists]),
                               rtol=1e-12, atol=1e-15)
    assert perplexity(model, corpus) == perplexity(model, table)
    # a history of EOS, of ids outside the vocabulary, or of the wrong length
    bad = data.draw(st.sampled_from([(vocab.eos_id,) * (order - 1), (-1,) * (order - 1),
                                     (99,) * (order - 1), (0,) * order]))
    with pytest.raises(ValueError, match="not a symbol or BOS|length"):
        model.rows([*hists, bad])


def step_case(arch, data):
    """A model with random parameters, the training histories of one of its
    steps, random coefficients alpha over them, held-out `extra` histories
    and the count table the histories come from; a tabular model leaves
    out one table history, which leads `extra`."""
    lines = data.draw(lines_over("abcd"))
    order = data.draw(st.integers(2, 3))
    corpus = corpus_from_lines(lines)
    vocab = corpus.vocab
    table = count_ngrams(corpus, order)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    ids = list(range(vocab.n_symbols)) + [vocab.bos_id]
    extra = data.draw(st.lists(st.tuples(*[st.sampled_from(ids)] * (order - 1)), max_size=5))
    if arch == "tabular":
        model = TabularSoftmaxLM(order, vocab, table.hists[1:])
        hists = model.keys.hists
        extra.insert(0, table.hists[0])
    else:
        model = FeedForwardLM(order, vocab, 3, 4, seed=order)
        hists = table.hists
    for arr in model.param_arrays().values():
        arr[...] = rng.normal(size=arr.shape)
    alpha = rng.normal(size=(len(hists), vocab.out_dim)) * (rng.random(len(hists)) < 0.8)[:, None]
    return model, hists, alpha, extra, table


def unfused_log_softmax(z):
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    return (z - m) - np.log(s), e / s


@pytest.mark.parametrize("arch", ["tabular", "feedforward"])
@settings(max_examples=40)
@given(data=st.data())
def test_step_has_the_bits_of_the_unfused_expressions(arch, data):
    # the forward stops at the shifted logits z' and log s, and the step's
    # loss and delta share one array; q, log q = z' - log s, the delta and
    # every gradient keep the bits of the expressions that allocate one
    # array each.  The fused loss sum A log s - sum alpha . z' moves in its
    # last bits, relative to the size of the terms it sums
    model, hists, alpha, extra, _ = step_case(arch, data)
    batch, n = [*hists, *extra], len(hists)
    p = {k: v.copy() for k, v in model.param_arrays().items()}
    if arch == "tabular":
        idx = np.array([model.keys.index.get(h, -1) for h in batch], dtype=np.intp)
        z = np.zeros((len(batch), model.vocab.out_dim))
        z[idx >= 0] = p["logits"][idx[idx >= 0]]
    else:
        idx = np.asarray(batch, dtype=int).reshape(len(batch), model.order - 1)
        e = p["E"][idx].reshape(len(batch), -1)
        a = np.tanh(e @ p["W1"] + p["b1"])
        z = a @ p["W2"] + p["b2"]
    logq, q = unfused_log_softmax(z)
    delta = alpha.sum(1, keepdims=True) * q[:n] - alpha
    if arch == "tabular":
        g = np.zeros_like(p["logits"])
        g[idx[:n]] = delta
        ref = {"logits": g}
    else:
        dz1 = (delta @ p["W2"].T) * (1.0 - a[:n] * a[:n])
        de = dz1 @ p["W1"].T
        gE = np.zeros_like(p["E"])
        d = model.embed_dim
        for j in range(model.order - 1):
            np.add.at(gE, idx[:n, j], de[:, j * d:(j + 1) * d])
        ref = {"E": gE, "W1": e[:n].T @ dz1, "b1": dz1.sum(axis=0), "W2": a[:n].T @ delta,
               "b2": delta.sum(axis=0)}
    looked_up = model.lookup(batch)
    np.testing.assert_array_equal(looked_up, idx)
    *_, fwd_z, fwd_log_s, fwd_q = model.forward(looked_up)
    np.testing.assert_array_equal(fwd_z - fwd_log_s, logq)
    np.testing.assert_array_equal(fwd_q, q)
    np.testing.assert_array_equal(model.rows(batch), q)
    loss, grads, step_q = model.batch_loss_grads(looked_up, alpha)
    sums = alpha.sum(axis=1, keepdims=True)
    terms = np.abs(sums * fwd_log_s[:n]).sum() + np.abs(alpha * fwd_z[:n]).sum()
    assert abs(loss - float(-(alpha * logq[:n]).sum())) <= 1e-13 * terms
    np.testing.assert_array_equal(step_q, q)
    assert grads.keys() == ref.keys()
    for name, g in ref.items():
        np.testing.assert_array_equal(grads[name], g)


@pytest.mark.parametrize("arch", ["tabular", "feedforward"])
@settings(max_examples=40)
@given(data=st.data())
def test_passes_leave_parameters_and_alpha_alone(arch, data):
    # each forward writes into its own logits, never a parameter (the
    # tabular logits above all), the q a pass returns is its own array, and
    # a lookup, which training reuses every epoch, is left as it was
    model, hists, alpha, extra, table = step_case(arch, data)
    batch = [*hists, *extra]
    params = model.param_arrays()
    before = {k: v.copy() for k, v in params.items()}
    alpha_before = alpha.copy()
    first = model.rows(batch)
    lookups = [model.lookup(batch), model.lookup(hists)]
    lookups_before = [idx.copy() for idx in lookups]
    outs = [first, *lookups, *model.forward(lookups[0]), model.rows(hists),
            *model.forward(lookups[1])]
    for idx in lookups:
        _, grads, q = model.batch_loss_grads(idx, alpha)
        outs += [q, *grads.values()]
    again = model.rows(batch)
    np.testing.assert_array_equal(first, again)
    np.testing.assert_array_equal(alpha, alpha_before)
    for idx, idx_before in zip(lookups, lookups_before):
        np.testing.assert_array_equal(idx, idx_before)
    for name, arr in params.items():
        np.testing.assert_array_equal(arr, before[name])
    for out in [*outs, again]:
        for arr in [*params.values(), alpha]:
            assert not np.shares_memory(out, arr)
    # nothing `rows`, `cells` or `train` returns is held in a workspace that
    # passes and a run wrote into (`perplexity` returns a float): a run
    # restores its best checkpoint by copying
    ws = neural.Workspace()
    for idx in lookups:
        model.batch_loss_grads(idx, alpha, ws)
    config = TrainConfig(objective="split_regularizer", method="add_lambda", gamma_plus=0.5,
                         gamma_minus=0.5, epochs=4, patience=1)
    trained = TabularSoftmaxLM.for_table(table) if arch == "tabular" else \
        FeedForwardLM(model.order, model.vocab, 3, 4, seed=1)
    train(trained, table, config, heldout=table, workspace=ws)
    assert {"alpha", "delta", "q"} <= ws.buffers.keys()
    escaped = [model.rows(batch), model.cells(table, table.hist, table.out),
               trained.rows(batch), *trained.param_arrays().values()]
    for out in escaped:
        for buf in ws.buffers.values():
            assert not np.shares_memory(out, buf)


@pytest.mark.parametrize("arch", ["tabular", "feedforward"])
@settings(max_examples=15)
@given(data=st.data())
def test_a_shared_workspace_changes_no_bit(arch, data):
    # runs that write into one workspace, as a grid's cells do, interleaved
    # across orders 2 and 3, with and without held-out data and over batches
    # of other sizes, so that its buffers change shape between runs, give
    # the metrics, parameters and gradients of runs with workspaces of
    # their own.  A run reads no buffer before writing it, so NaN left in
    # every buffer changes nothing; a tabular model also has rows for the
    # held-out histories, which the step leaves without a gradient
    ws = neural.Workspace()
    for _ in range(data.draw(st.integers(2, 4))):
        for buf in ws.buffers.values():
            buf.fill(np.nan)
        corpus = corpus_from_lines(data.draw(lines_over("abcd")))
        heldout = data.draw(st.none() | lines_over(corpus.vocab.symbols).map(
            lambda lines: corpus_from_lines(lines, vocab=corpus.vocab)))
        order = data.draw(st.integers(2, 3))
        table = count_ngrams(corpus, order)
        config = TrainConfig(
            objective=data.draw(st.sampled_from(OBJECTIVES)), method="add_lambda",
            gamma_ls=0.5, gamma_plus=0.5, gamma_minus=0.25, lr=0.5, epochs=4, patience=2)
        bundle = make_bundle_for(table, order, config)

        def make():
            if arch == "tabular":
                held = [] if heldout is None else count_ngrams(heldout, order).hists
                return TabularSoftmaxLM(order, corpus.vocab, sorted({*table.hists, *held}))
            return FeedForwardLM(order, corpus.vocab, 3, 4, seed=order, init_scale=0.5)

        shared, shared_metrics = train(make(), table, config, bundle, heldout, workspace=ws)
        own, own_metrics = train(make(), table, config, bundle, heldout)
        assert shared_metrics == own_metrics
        for buf in ws.buffers.values():
            buf.fill(np.nan)
        alpha, _ = _objective_weights(table, config, bundle, ws)
        idx = own.lookup(table)
        steps = [shared.batch_loss_grads(idx, alpha, ws), own.batch_loss_grads(idx, alpha)]
        for name, arr in own.param_arrays().items():
            np.testing.assert_array_equal(shared.param_arrays()[name], arr)
            np.testing.assert_array_equal(steps[0][1][name], steps[1][1][name])
        assert steps[0][0] == steps[1][0]
        np.testing.assert_array_equal(steps[0][2], steps[1][2])


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
    assert b1.keys.hists == b2.keys.hists and np.array_equal(b1.keys.totals, b2.keys.totals)
    for name in ("p_plus", "p_minus", "z_plus", "z_minus"):
        np.testing.assert_array_equal(getattr(b1.rows, name), getattr(b2.rows, name))
    for make in (lambda: TabularSoftmaxLM.for_table(table),
                 lambda: FeedForwardLM(order, corpus.vocab, 3, 4, seed=order, init_scale=0.5)):
        m1, metrics1 = train(make(), corpus, config, heldout=heldout)
        m2, metrics2 = train(make(), table, config, heldout=held_table)
        assert metrics1 == metrics2
        for name, arr in m1.param_arrays().items():
            np.testing.assert_array_equal(arr, m2.param_arrays()[name])
        assert perplexity(m1, heldout) == perplexity(m2, held_table)
        assert perplexity(m1, corpus) == perplexity(m2, table)


def test_table_at_another_order_rejected():
    c = toy()
    m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
    with pytest.raises(ValueError, match="order 3, model at order 2"):
        train(m, count_ngrams(c, 3), TrainConfig(objective="mle", epochs=1))
    with pytest.raises(ValueError, match="order 3, model at order 2"):
        perplexity(m, count_ngrams(c, 3))


def test_tabular_training_history_outside_table_rejected():
    c = corpus_from_lines(["a b c", "b a"])
    hists = sorted(count_ngrams(c, 2).history_count)
    m = TabularSoftmaxLM(2, c.vocab, hists[1:])
    with pytest.raises(ValueError, match=rf"no row for history \({hists[0][0]},\)"):
        train(m, c, TrainConfig(objective="mle", epochs=1))


def test_tabular_step_gives_rows_outside_the_table_no_gradient():
    # a loss row -1 is the zero logit row, which has no parameters: its
    # delta reaches no logit row, the last one above all
    c = corpus_from_lines(["a b c", "b a", "c c"])
    hists = count_ngrams(c, 2).hists
    m = TabularSoftmaxLM(2, c.vocab, hists[1:])
    rng = np.random.default_rng(0)
    m.logits[...] = rng.normal(size=m.logits.shape)
    # the row outside comes last, so that nothing scattered after it hides it
    idx = m.lookup(hists[1:] + hists[:1])
    assert idx[-1] == -1
    alpha = rng.random((len(idx), c.vocab.out_dim))
    _, grads, _ = m.batch_loss_grads(idx, alpha)
    _, want, _ = m.batch_loss_grads(idx[:-1], alpha[:-1])
    np.testing.assert_array_equal(grads["logits"], want["logits"])


def test_training_looks_histories_up_once_per_run(monkeypatch):
    # a tabular model of another count of the corpus, trained on a recount,
    # looks its training and held-out histories up before the first epoch,
    # and no epoch looks them up again
    corpus = corpus_from_lines(["a b c", "b c a a", "c c b"])
    heldout = corpus_from_lines(["c b a", "a a c b"], vocab=corpus.vocab)
    find = RowKeys.find
    calls = []

    def counted(self, ids):
        calls.append(len(ids))
        return find(self, ids)

    monkeypatch.setattr(RowKeys, "find", counted)
    finds = []
    for epochs in (10, 100):
        model = TabularSoftmaxLM.for_table(count_ngrams(corpus, 2))
        calls.clear()
        config = TrainConfig(objective="mle", epochs=epochs, patience=epochs)
        _, metrics = train(model, corpus, config, heldout=heldout)
        assert metrics.epochs_run == epochs
        finds.append(len(calls))
    assert finds[0] > 0 and finds[0] == finds[1]


def test_runs_on_one_table_share_its_placement_of_the_held_out_table(monkeypatch):
    # training places the held-out histories with the top level of the
    # table's placement of the held-out table: a second run looks up none,
    # and an mle run builds no marginal, which it does not read
    corpus = corpus_from_lines(["a b c", "b c a a", "c c b"])
    table = count_ngrams(corpus, 3)
    heldout = count_ngrams(corpus_from_lines(["c b a", "a a c b"], vocab=corpus.vocab), 3)
    lookup = corpus_module.sorted_index
    searches = []
    monkeypatch.setattr(corpus_module, "sorted_index",
                        lambda a, v: searches.append(a is table.codes) or lookup(a, v))
    config = TrainConfig(objective="mle", epochs=3)
    for _ in range(2):
        train(FeedForwardLM(3, corpus.vocab, 4, 4, seed=0), table, config, heldout=heldout)
    assert searches == [True]
    assert "marginal" not in vars(table)


@pytest.mark.parametrize("key, value", [("patience", 0), ("patience", -3), ("seed", -1),
                                        ("epochs", 0)])
def test_out_of_range_train_config_rejected(key, value):
    # patience 0 and below used to run as patience 1 outside the CLI
    c = toy()
    config = dataclasses.replace(TrainConfig(objective="mle", epochs=1), **{key: value})
    low = 0 if key == "seed" else 1
    with pytest.raises(ValueError, match=rf"^{key} must be >= {low}, got {value}$"):
        train(TabularSoftmaxLM.for_table(count_ngrams(c, 2)), c, config)


@pytest.mark.parametrize("values, message", [
    ({"objective": "mse"}, "unknown objective 'mse'"),
    ({"lr": -0.1}, "lr must be >= 0"),
    ({"objective": "label_smoothing", "gamma_ls": -0.1}, "gamma_ls must be >= 0"),
])
def test_bad_train_config_value_rejected(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TrainConfig(**values).validate()


def test_feedforward_model_of_order_one_rejected():
    with pytest.raises(ValueError, match=r"^feedforward model needs order >= 2"):
        FeedForwardLM(1, toy().vocab, 4, 5)


def test_data_with_another_vocabulary_rejected():
    # a held-out corpus loaded with its own vocabulary numbers its symbols
    # in another order, so its ids would name other cells of the model
    corpus = corpus_from_lines(["a b c", "b a"])
    own = corpus_from_lines(["c b a"])
    m = TabularSoftmaxLM.for_table(count_ngrams(corpus, 2))
    config = TrainConfig(objective="mle", epochs=1)
    for data in (own, count_ngrams(own, 2)):
        with pytest.raises(ValueError, match="different vocabularies"):
            perplexity(m, data)
        with pytest.raises(ValueError, match="different vocabularies"):
            train(m, corpus, config, heldout=data)
        with pytest.raises(ValueError, match="different vocabularies"):
            train(m, data, config)
    # the same symbols in the same order pass, whichever corpus built them
    same = corpus_from_lines(["a b c"])
    assert perplexity(m, same) == perplexity(
        m, corpus_from_lines(["a b c"], vocab=corpus.vocab))


def test_bundle_of_another_table_rejected():
    # the larger corpus's bundle covers every training history, but its
    # rows and weights belong to other counts
    corpus, table, _, _ = small_setup()
    larger = corpus_from_lines(
        [" ".join(corpus.vocab.symbols[i] for i in seq) for seq in corpus.sequences] + ["a b c"],
        vocab=corpus.vocab)
    config = TrainConfig(objective="split_regularizer", method="add_lambda",
                         gamma_plus=0.5, gamma_minus=0.5, epochs=1)
    bundle = make_bundle_for(larger, 2, config)
    with pytest.raises(ValueError, match="another count table"):
        train(TabularSoftmaxLM.for_table(table), table, config, bundle)
    # the same histories, each of total 2, over other grams
    table = count_ngrams(corpus_from_lines(["a b", "b a"]), 2)
    other = count_ngrams(corpus_from_lines(["a a", "b b"]), 2)
    assert np.array_equal(table.codes, other.codes)
    assert np.array_equal(table.totals, other.totals)
    bundle = make_bundle_for(other, 2, config)
    with pytest.raises(ValueError, match="another count table"):
        train(TabularSoftmaxLM.for_table(table), table, config, bundle)
    # a table equal to the bundle's, counted again, passes
    again = count_ngrams(corpus_from_lines(["a a", "b b"]), 2)
    train(TabularSoftmaxLM.for_table(again), again, config, bundle)


@pytest.mark.parametrize("objective", ["smoothed_target", "split_regularizer"])
def test_training_reads_bundle_matrices_only(objective):
    corpus, table, _, _ = small_setup()
    config = TrainConfig(objective=objective, method="add_lambda", gamma_plus=0.5,
                         gamma_minus=0.5, epochs=3)
    bundle = make_bundle_for(table, 2, config)
    assert bundle.keys is table
    # training reads the split on the grams and the smoothed rows, writes
    # to neither, and builds no dense decomposition
    before = {k: getattr(bundle, k).copy() for k in ("diff", "z_plus", "z_minus")}
    matrix = bundle.lm.matrix.copy()
    train(TabularSoftmaxLM.for_table(table), table, config, bundle, heldout=corpus)
    assert "per_history" not in vars(bundle) and "rows" not in vars(bundle)
    for k, v in before.items():
        np.testing.assert_array_equal(getattr(bundle, k), v)
    np.testing.assert_array_equal(bundle.lm.matrix, matrix)


@settings(max_examples=40)
@given(st.data())
def test_model_perplexity_sums_the_dense_masked_cells(data):
    # the order of summation is that of the dense count matrix's seen cells
    corpus = corpus_from_lines(data.draw(lines_over("abcd")))
    order = data.draw(st.integers(2, 3))
    table = count_ngrams(corpus, order)
    for model in (TabularSoftmaxLM.for_table(table),
                  FeedForwardLM(order, corpus.vocab, 3, 4, seed=order, init_scale=1.0)):
        for arr in model.param_arrays().values():
            arr[...] = np.random.default_rng(order).normal(size=arr.shape)
        q = model.rows(table.hists)
        C = table.dense_counts()
        mask = C > 0
        assert perplexity(model, corpus) == math.exp(
            -float(np.dot(C[mask], np.log(q[mask]))) / C.sum())


def two_forward_train(model, table, config, bundle, heldout):
    """Reference loop: each epoch steps with one forward over the training
    histories, then measures held-out perplexity with a second forward at
    the parameters the step reached."""
    alpha, const = _objective_weights(table, config, bundle)
    params = model.param_arrays()
    metrics = TrainMetrics()
    best_ppl, best_params, stale = math.inf, None, 0
    for epoch in range(config.epochs):
        loss, grads, _ = model.batch_loss_grads(model.lookup(table.hists), alpha)
        for name, arr in params.items():
            arr -= config.lr * grads[name]
        metrics.train_loss.append(loss + const)
        metrics.epochs_run = epoch + 1
        ppl = perplexity(model, heldout)
        metrics.heldout_ppl.append(ppl)
        if ppl < best_ppl:
            best_ppl, stale, metrics.best_epoch = ppl, 0, epoch
            best_params = {k: v.copy() for k, v in params.items()}
        else:
            stale += 1
            if stale >= config.patience:
                break
    for name, arr in params.items():
        arr[...] = best_params[name]
    return model, metrics


ORACLE_CASES = [
    # (architecture, objective, lr, patience, stops early)
    ("tabular", "mle", 8.0, 2, True),
    ("tabular", "split_regularizer", 8.0, 2, True),
    ("tabular", "split_regularizer", 8.0, 50, False),
    ("feedforward", "mle", 1.0, 2, True),
    ("feedforward", "split_regularizer", 1.0, 2, True),
    ("feedforward", "mle", 1.0, 50, False),
]


def oracle_setup(arch, objective, lr, patience):
    corpus = synthetic_corpus(5, n_sequences=15, n_symbols=4)
    heldout = synthetic_corpus(6, n_sequences=15, n_symbols=4)
    table, held = count_ngrams(corpus, 3), count_ngrams(heldout, 3)
    config = TrainConfig(objective=objective, method="kneser_essen_ney", gamma_plus=0.5,
                         gamma_minus=0.5, lr=lr, epochs=30, patience=patience)
    bundle = make_bundle_for(table, 3, config) if objective == "split_regularizer" else None

    def make():
        if arch == "tabular":
            return TabularSoftmaxLM.for_table(table)
        return FeedForwardLM(3, corpus.vocab, 3, 5, seed=1, init_scale=0.5)

    return table, held, config, bundle, make


@pytest.mark.parametrize("arch,objective,lr,patience,stops", ORACLE_CASES)
def test_train_matches_two_forward_loop(arch, objective, lr, patience, stops):
    table, held, config, bundle, make = oracle_setup(arch, objective, lr, patience)
    assert set(held.history_count) - set(table.history_count)
    ref_model, ref = two_forward_train(make(), table, config, bundle, held)
    model, metrics = train(make(), table, config, bundle, held)
    assert (metrics.epochs_run < config.epochs) == stops
    assert metrics == ref
    for name, arr in model.param_arrays().items():
        np.testing.assert_array_equal(arr, ref_model.param_arrays()[name])


@pytest.mark.parametrize("arch,objective,lr,patience,stops", ORACLE_CASES)
def test_one_forward_per_epoch(monkeypatch, arch, objective, lr, patience, stops):
    # each forward of either model ends in one softmax pass; a run of k
    # epochs needs the forwards at theta_0 .. theta_k
    table, held, config, bundle, make = oracle_setup(arch, objective, lr, patience)
    model = make()
    passes = []
    softmax = neural._log_softmax
    monkeypatch.setattr(neural, "_log_softmax",
                        lambda z, ws: passes.append(len(z)) or softmax(z, ws))
    _, metrics = train(model, table, config, bundle, held)
    assert (metrics.epochs_run < config.epochs) == stops
    assert len(passes) == metrics.epochs_run + 1


class TestLossAndGrad:
    def test_softmax_ce_gradient_identity(self):
        c = toy()
        m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
        rng = np.random.default_rng(0)
        m.logits[...] = rng.normal(size=m.logits.shape)
        h = (c.vocab.id_of["a"],)
        target = c.vocab.id_of["b"]
        one_gram = CountTable.from_grams(2, c.vocab, [(*h, target)], [1])
        _, grads = objective_grads(m, one_gram, TrainConfig(objective="mle"))
        row = m.keys.index[h]
        q = m.rows([h])[0]
        onehot = np.zeros(3)
        onehot[c.vocab.out_index(target)] = 1.0
        np.testing.assert_allclose(grads["logits"][row], q - onehot, atol=1e-12)

    def test_degenerate_regularizers_reduce_to_mle(self):
        corpus, table, _, bundle0 = small_setup(gammas=(0.0, 0.0))
        m = TabularSoftmaxLM.for_table(table)
        rng = np.random.default_rng(5)
        m.logits[...] = rng.normal(size=m.logits.shape)
        l_mle, g_mle = objective_grads(m, table, TrainConfig(objective="mle"))
        l_ls, g_ls = objective_grads(m, table,
                                     TrainConfig(objective="label_smoothing", gamma_ls=0.0))
        l_sp, g_sp = objective_grads(m, table, TrainConfig(objective="split_regularizer"),
                                     bundle0)
        assert l_ls == pytest.approx(l_mle, abs=1e-15)
        assert l_sp == pytest.approx(l_mle, abs=1e-15)
        np.testing.assert_allclose(g_ls["logits"], g_mle["logits"], atol=1e-15)
        np.testing.assert_allclose(g_sp["logits"], g_mle["logits"], atol=1e-15)

    def test_gamma_minus_above_one_rejected(self):
        corpus, table, _, bundle = small_setup(gammas=(1.0, 1.5))
        m = TabularSoftmaxLM.for_table(table)
        with pytest.raises(ValueError, match="gamma_minus"):
            objective_grads(m, table, TrainConfig(objective="split_regularizer"), bundle)


class TestGradientsAgainstFiniteDifferences:
    CONFIGS = [
        ("mle", {}),
        ("label_smoothing", {"gamma_ls": 0.7}),
        ("smoothed_target", {}),
        ("split_regularizer", {"gamma_plus": 0.8, "gamma_minus": 0.6}),
    ]

    @pytest.mark.parametrize("objective,extra", CONFIGS)
    def test_tabular(self, objective, extra):
        corpus, table, smoothed, bundle = small_setup(gammas=(0.8, 0.6))
        m = TabularSoftmaxLM.for_table(table)
        rng = np.random.default_rng(0)
        m.logits[...] = 0.5 * rng.normal(size=m.logits.shape)
        config = TrainConfig(objective=objective, **extra)
        assert finite_difference_check(m, corpus, table, config, smoothed, bundle) < 1e-5

    @pytest.mark.parametrize("objective,extra", CONFIGS)
    def test_feedforward(self, objective, extra):
        corpus, table, smoothed, bundle = small_setup(gammas=(0.8, 0.6))
        m = FeedForwardLM(2, corpus.vocab, 3, 4, seed=0, init_scale=0.3)
        config = TrainConfig(objective=objective, **extra)
        assert finite_difference_check(m, corpus, table, config, smoothed, bundle) < 1e-5


class TestTraining:
    def test_tabular_mle_recovers_empirical(self):
        c = toy()
        m = TabularSoftmaxLM.for_table(count_ngrams(c, 2))
        config = TrainConfig(objective="mle", lr=4.0, epochs=8000)
        m, metrics = train(m, c, config)
        emp = empirical_conditional(count_ngrams(c, 2))
        np.testing.assert_array_less(np.abs(m.rows(emp.keys.hists) - emp.matrix), 1e-4)

    def test_label_smoothing_recovers_add_lambda(self):
        corpus = synthetic_corpus(1, n_sequences=25, n_symbols=3, max_len=4)
        table = count_ngrams(corpus, 2)
        gamma = 1.0
        m = TabularSoftmaxLM.for_table(table)
        config = TrainConfig(objective="label_smoothing", gamma_ls=gamma, lr=6.0, epochs=30000)
        m, _ = train(m, corpus, config)
        target = smooth_add_lambda(table, gamma / table.vocab.out_dim)
        np.testing.assert_array_less(np.abs(m.rows(target.keys.hists) - target.matrix), 1e-4)

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
        assert perplexity(m, heldout) == pytest.approx(best, rel=1e-12)


class TestSmoothedTargetTraining:
    def test_recovers_add_lambda_table(self):
        corpus = synthetic_corpus(3, n_sequences=20, n_symbols=3, max_len=4)
        table = count_ngrams(corpus, 2)
        target = smooth_add_lambda(table, 0.7)
        bundle = build_regularizer(empirical_conditional(table), target, table, 1.0, 1.0)
        m = TabularSoftmaxLM.for_table(table)
        config = TrainConfig(objective="smoothed_target", lr=6.0, epochs=30000)
        m, _ = train(m, table, config, bundle=bundle)
        np.testing.assert_array_less(np.abs(m.rows(target.keys.hists) - target.matrix), 1e-4)

    def test_mle_target_matches_mle_gradients(self):
        corpus, table, _, _ = small_setup()
        emp = empirical_conditional(table)
        bundle = build_regularizer(emp, emp, table, 1.0, 1.0)
        m = TabularSoftmaxLM.for_table(table)
        rng = np.random.default_rng(7)
        m.logits[...] = rng.normal(size=m.logits.shape)
        _, g_mle = objective_grads(m, table, TrainConfig(objective="mle"))
        _, g_tgt = objective_grads(m, table, TrainConfig(objective="smoothed_target"), bundle)
        np.testing.assert_allclose(g_tgt["logits"], g_mle["logits"], atol=1e-12)

    def test_equality_of_routes(self):
        # target-fitting vs split objective at unit gammas: same optimum
        corpus = synthetic_corpus(4, n_sequences=25, n_symbols=3, max_len=4)
        table = count_ngrams(corpus, 2)
        smoothed = smooth(table, "jelinek_mercer", {"lambdas": [0.6, 0.6]})
        bundle = build_regularizer(empirical_conditional(table), smoothed, table, 1.0, 1.0)
        m1 = TabularSoftmaxLM.for_table(table)
        m1, _ = train(m1, table, TrainConfig(objective="smoothed_target", lr=6.0, epochs=40000),
                      bundle=bundle)
        m2 = TabularSoftmaxLM.for_table(table)
        config = TrainConfig(objective="split_regularizer", lr=6.0, epochs=40000)
        m2, _ = train(m2, corpus, config, bundle=bundle)
        hists = table.hists
        np.testing.assert_array_less(np.abs(m1.rows(hists) - m2.rows(hists)), 1e-3)

    def test_split_and_target_objectives_differ_by_constant(self):
        corpus, table, _, bundle = small_setup("jelinek_mercer", {"lambdas": [0.5, 0.5]},
                                               gammas=(1.0, 1.0))
        rng = np.random.default_rng(11)
        diffs = []
        for _ in range(100):
            m = TabularSoftmaxLM.for_table(table)
            m.logits[...] = rng.normal(size=m.logits.shape)
            l_tgt, _ = objective_grads(m, table, TrainConfig(objective="smoothed_target"), bundle)
            l_sp, _ = objective_grads(m, table, TrainConfig(objective="split_regularizer"), bundle)
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
        assert m2.keys.hists == m.keys.hists and m2.keys.index == m.keys.index
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
        q1, q2 = m.rows([(0, 1)]), m2.rows([(0, 1)])
        np.testing.assert_array_equal(q1, q2)


def loop_objective_weights(table, config, bundle):
    """Reference: the bundle objectives' weights one history at a time, from
    the smoothed row s = smoothed.conditional(h) and the row c of counts
    recounted from gram_count, with N = sum c, w = #(h)/N and e = c/#(h).
    smoothed_target takes alpha = w s and the constant -w H(s); the split
    objective takes alpha = c/N + w (g+ (s - e)+ - g- (s - e)-), the mle
    weights plus the split's parts, and each part of mass Z adds
    -+ g w Z H(part / Z) to the constant."""
    hists = sorted(table.history_count)
    row = {h: i for i, h in enumerate(hists)}
    C = np.zeros((len(hists), table.vocab.out_dim))
    for (h, x), c in table.gram_count.items():
        C[row[h], table.vocab.out_index(x)] = c
    N = C.sum()
    alpha = np.empty_like(C)
    const = 0.0
    for i, h in enumerate(hists):
        s = bundle.lm.conditional(h)
        w = C[i].sum() / N
        if config.objective == "smoothed_target":
            alpha[i] = w * s
            const -= w * entropy(s)
            continue
        diff = s - C[i] / C[i].sum()
        up, down = np.maximum(diff, 0.0), np.maximum(-diff, 0.0)
        alpha[i] = C[i] / N + w * (bundle.gamma_plus * up - bundle.gamma_minus * down)
        for sign, gamma, part in ((-1.0, bundle.gamma_plus, up),
                                  (1.0, bundle.gamma_minus, down)):
            z = part.sum()
            if z > 0:
                const += sign * gamma * w * z * entropy(part / z)
    return alpha, const


GAMMA_PAIRS = [(0.3, 0.7), (1.0, 1.0), (2.0, 0.0), (0.0, 0.5)]


@pytest.mark.parametrize("objective", ["smoothed_target", "split_regularizer"])
@pytest.mark.parametrize("method", list(METHODS))
def test_objective_weights_match_per_history_loop(objective, method):
    # alpha keeps the loop's arithmetic; const sums in another order.  Katz
    # builds on this corpus at every order
    corpus = synthetic_corpus(21, n_sequences=100, n_symbols=14)
    for order in (1, 2, 3):
        if method == "kneser_essen_ney" and order == 1:
            continue   # KEN needs a lower order
        table = count_ngrams(corpus, order)
        smoothed = smooth(table, method)
        for gp, gm in GAMMA_PAIRS:
            bundle = build_regularizer(empirical_conditional(table), smoothed, table, gp, gm)
            config = TrainConfig(objective=objective, method=method, gamma_plus=gp,
                                 gamma_minus=gm)
            alpha, const = _objective_weights(table, config, bundle)
            ref_alpha, ref_const = loop_objective_weights(table, config, bundle)
            np.testing.assert_array_equal(alpha, ref_alpha, err_msg=f"{order} {gp} {gm}")
            assert const == pytest.approx(ref_const, rel=1e-12), (order, gp, gm)


def test_grid_cells_share_their_lms_entropy(monkeypatch):
    # grid cells take `dataclasses.replace` copies of one bundle with other
    # gammas, so they share its smoothed LM, whose row entropies are then
    # computed once for them all; independent bundles give the same bits,
    # and training never builds a bundle's dense rows
    table = count_ngrams(synthetic_corpus(21, n_sequences=80, n_symbols=6), 3)
    calls = []
    entropy_of = ConditionalLM.entropy.func
    counted = functools.cached_property(lambda lm: calls.append(lm) or entropy_of(lm))
    counted.__set_name__(ConditionalLM, "entropy")
    monkeypatch.setattr(ConditionalLM, "entropy", counted)
    base = build_regularizer(empirical_conditional(table), smooth(table, "kneser_essen_ney"),
                             table, 1.0, 1.0)
    configs = [TrainConfig(objective="split_regularizer", method="kneser_essen_ney",
                           gamma_plus=gp, gamma_minus=gm, epochs=2) for gp, gm in GAMMA_PAIRS]
    copies = [dataclasses.replace(base, gamma_plus=c.gamma_plus, gamma_minus=c.gamma_minus)
              for c in configs]
    shared = [_objective_weights(table, c, b) for c, b in zip(configs, copies)]
    assert calls == [base.lm]
    for config, (alpha, const) in zip(configs, shared):
        own = build_regularizer(empirical_conditional(table),
                                smooth(table, "kneser_essen_ney"), table,
                                config.gamma_plus, config.gamma_minus)
        own_alpha, own_const = _objective_weights(table, config, own)
        assert own.lm is not base.lm
        np.testing.assert_array_equal(alpha, own_alpha)
        assert const == own_const
    assert len(calls) == 1 + len(configs)
    for config, bundle in zip(configs, copies):
        train(TabularSoftmaxLM.for_table(table), table, config, bundle)
        assert "rows" not in vars(bundle)
    assert "rows" not in vars(base)
