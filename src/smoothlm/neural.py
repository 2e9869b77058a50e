"""Differentiable conditional models and a manual-gradient training loop.

Two architectures: a tabular softmax model (one logit row per history) and a
small fixed-context feedforward net.  Training is full-batch gradient
descent with hand-derived gradients, under one of four objectives:

  mle               mean over emissions of -log q(x | h)
  label_smoothing   mle + gamma_ls/N * sum over occupied histories of
                    KL(uniform || q(.|h))
  smoothed_target   sum_h #(h)/N * KL(p~(.|h) || q(.|h)) for a smoothed p~
  split_regularizer mle + sum_h #(h)/N * [ g+ Z+ KL(p_plus || q(.|h))
                                          - g- Z- KL(p_minus || q(.|h)) ]

The split objective carries the minus sign on the p_minus term so that at
g+ = g- = 1 it equals the smoothed-target objective up to an additive
constant; with g- <= 1 every -log q coefficient stays nonnegative, keeping
the loss bounded below.

Epoch e steps from theta_e to theta_{e+1}, and its held-out perplexity
ppl_e, scored by ngram.table_perplexity as for n-gram LMs, is measured at
theta_{e+1}, where epoch e+1 starts.  So each epoch runs one batched forward
over the training histories followed by the held-out histories training
lacks: its training rows give the loss and gradient at theta_e, its held-out
rows ppl_{e-1}.  Early stopping is decided before the step, and one last
forward after the final epoch scores it, so k epochs take k + 1 forwards.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .corpus import (Corpus, CountTable, History, Vocabulary, check_histories,
                     check_same_vocabulary, count_ngrams)
from .decompose import RegularizerBundle, build_regularizer
from .ngram import empirical_conditional, padded_history, table_perplexity

OBJECTIVES = ("mle", "label_smoothing", "smoothed_target", "split_regularizer")
BUNDLE_OBJECTIVES = ("smoothed_target", "split_regularizer")


class TrainingError(RuntimeError):
    """Non-finite loss encountered during training."""


@dataclass
class TrainConfig:
    objective: str = "mle"
    method: str | None = None          # smoother behind smoothed_target / split
    method_params: dict | None = None
    gamma_ls: float = 0.0
    gamma_plus: float = 0.0
    gamma_minus: float = 0.0
    lr: float = 0.5
    epochs: int = 200
    patience: int = 20
    seed: int = 0
    init_scale: float = 0.1

    def validate(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        # the field annotations are strings (postponed evaluation)
        types = {"str | None": (str, type(None)), "float": numbers.Real, "int": numbers.Integral}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type in types and (isinstance(v, bool) or not isinstance(v, types[f.type])):
                raise ValueError(f"{f.name} must be of type {f.type}, got {v!r}")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.objective == "label_smoothing" and self.gamma_ls < 0:
            raise ValueError("gamma_ls must be >= 0")
        if self.objective in BUNDLE_OBJECTIVES and min(self.gamma_plus, self.gamma_minus) < 0:
            raise ValueError("gamma weights must be nonnegative")


@dataclass
class TrainMetrics:
    train_loss: list[float] = field(default_factory=list)
    heldout_ppl: list[float] = field(default_factory=list)
    best_epoch: int | None = None
    epochs_run: int = 0


def _log_softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (log q, q) with max subtraction."""
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)
    return (z - m) - np.log(s), e / s


class TabularSoftmaxLM:
    """One unconstrained logit row per known history; q(.|h) = softmax(row).

    Histories outside the table get the uniform distribution (the logits of
    a never-updated row).
    """

    architecture = "tabular"

    def __init__(self, order: int, vocab: Vocabulary, histories: Sequence[History]):
        self.order = order
        self.vocab = vocab
        histories = [tuple(h) for h in histories]
        check_histories(vocab, order - 1, histories, bos_prefix=False)
        self.history_index = dict(zip(histories, range(len(histories))))
        self.logits = np.zeros((len(self.history_index), vocab.out_dim))

    @classmethod
    def for_table(cls, table: CountTable) -> "TabularSoftmaxLM":
        return cls(table.order, table.vocab, table.arrays.hists)

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {"logits": self.logits}

    def forward(self, history: Sequence[int]) -> np.ndarray:
        h = tuple(history)
        check_histories(self.vocab, self.order - 1, [h], bos_prefix=False)
        return self.forward_batch([h])[0]

    def forward_batch(self, hists: Sequence[History]) -> np.ndarray:
        """q(.|h) for each history, one row each; histories outside the
        table get the uniform row."""
        return self._softmax_rows(self._index(hists))[1]

    def _index(self, hists: Sequence[History]) -> np.ndarray:
        """The table row of each history, -1 outside the table."""
        return np.fromiter((self.history_index.get(h, -1) for h in hists),
                           dtype=np.intp, count=len(hists))

    def _softmax_rows(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log q, q) of the table rows idx; row -1 is a zero logit row,
        whose softmax is the uniform row."""
        z = np.zeros((len(idx), self.vocab.out_dim))
        known = idx >= 0
        z[known] = self.logits[idx[known]]
        return _log_softmax(z)

    def batch_loss_grads(self, hists, alpha, extra=()):
        """Loss sum_h alpha_h . -log q(.|h) over the distinct table histories
        `hists`, its gradient, and q of `hists` followed by `extra`, all
        from one softmax."""
        n = len(hists)
        idx = self._index(hists)
        if (idx < 0).any():
            h = hists[int(np.argmin(idx))]
            raise ValueError(f"tabular model has no row for history {h}")
        if extra:
            idx = np.concatenate([idx, self._index(extra)])
        logq, q = self._softmax_rows(idx)
        loss = float(-(alpha * logq[:n]).sum())
        delta = alpha.sum(axis=1, keepdims=True) * q[:n] - alpha
        g = np.zeros_like(self.logits)
        g[idx[:n]] = delta
        return loss, {"logits": g}, q


class FeedForwardLM:
    """Fixed-context feedforward LM.

    forward(h) = softmax(tanh(concat(E[h]) @ W1 + b1) @ W2 + b2).  The
    embedding table has one row per vocabulary id including BOS (the EOS row
    exists but is never indexed, since EOS cannot occur in a history).
    """

    architecture = "feedforward"

    def __init__(
        self,
        order: int,
        vocab: Vocabulary,
        embed_dim: int,
        hidden_dim: int,
        seed: int = 0,
        init_scale: float = 0.1,
    ):
        if order < 2:
            raise ValueError("feedforward model needs order >= 2 (nonempty context)")
        self.order = order
        self.vocab = vocab
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        rng = np.random.default_rng(seed)
        d_in = (order - 1) * embed_dim

        def init(*shape):
            return rng.uniform(-init_scale, init_scale, size=shape)

        self.E = init(vocab.n_symbols + 2, embed_dim)
        self.W1 = init(d_in, hidden_dim)
        self.b1 = init(hidden_dim)
        self.W2 = init(hidden_dim, vocab.out_dim)
        self.b2 = init(vocab.out_dim)

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {"E": self.E, "W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}

    def _embed(self, idx: np.ndarray) -> np.ndarray:
        n = idx.shape[0]
        return self.E[idx].reshape(n, (self.order - 1) * self.embed_dim)

    def _activations(self, hists: Sequence[History]):
        """(history ids, embeddings, hidden layer, log q, q) of a batch."""
        idx = np.asarray(hists, dtype=int).reshape(len(hists), self.order - 1)
        e = self._embed(idx)
        a = np.tanh(e @ self.W1 + self.b1)
        logq, q = _log_softmax(a @ self.W2 + self.b2)
        return idx, e, a, logq, q

    def forward(self, history: Sequence[int]) -> np.ndarray:
        h = tuple(history)
        check_histories(self.vocab, self.order - 1, [h], bos_prefix=False)
        return self.forward_batch([h])[0]

    def forward_batch(self, hists: Sequence[History]) -> np.ndarray:
        """q(.|h) for each history, one row each."""
        return self._activations(hists)[-1]

    def batch_loss_grads(self, hists, alpha, extra=()):
        """Loss sum_h alpha_h . -log q(.|h) over `hists`, its gradient, and
        q of `hists` followed by `extra`, all from one forward."""
        n = len(hists)
        idx, e, a, logq, q = self._activations([*hists, *extra])
        idx, e, a, logq = idx[:n], e[:n], a[:n], logq[:n]
        loss = float(-(alpha * logq).sum())
        delta2 = alpha.sum(axis=1, keepdims=True) * q[:n] - alpha
        gW2 = a.T @ delta2
        gb2 = delta2.sum(axis=0)
        dz1 = (delta2 @ self.W2.T) * (1.0 - a * a)
        gW1 = e.T @ dz1
        gb1 = dz1.sum(axis=0)
        de = dz1 @ self.W1.T
        gE = np.zeros_like(self.E)
        d = self.embed_dim
        for j in range(self.order - 1):
            np.add.at(gE, idx[:, j], de[:, j * d:(j + 1) * d])
        return loss, {"E": gE, "W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}, q


# ---------------------------------------------------------------------------
# objectives


def batch_from_corpus(corpus: Corpus, order: int) -> list[tuple[History, int]]:
    """All (padded history, emitted symbol id) pairs of the corpus."""
    out = []
    for seq in corpus.sequences:
        for t in range(len(seq) + 1):
            h = padded_history(corpus.vocab, order, seq[:t])
            x = seq[t] if t < len(seq) else corpus.vocab.eos_id
            out.append((h, x))
    return out


def _table(
    data: Corpus | CountTable, order: int, vocab: Vocabulary | None = None
) -> CountTable:
    """The count table of a corpus at `order`; a table passes through.  With
    `vocab` (a model's), the data must use the same symbols."""
    if vocab is not None:
        check_same_vocabulary(data.vocab, vocab)
    if isinstance(data, CountTable):
        if data.order != order:
            raise ValueError(f"counts are at order {data.order}, model at order {order}")
        return data
    return count_ngrams(data, order)


def _objective_weights(
    table: CountTable, config: TrainConfig, bundle: RegularizerBundle | None
) -> tuple[np.ndarray, float]:
    """Per-history coefficient vectors alpha, one row per history of
    `table.arrays`, and the theta-independent constant such that
    loss = sum_h alpha_h . (-log q(.|h)) + const."""
    hists = table.arrays.hists
    C = table.dense_counts()
    out_dim = table.vocab.out_dim
    N = C.sum()
    alpha = C / N
    const = 0.0
    if config.objective == "mle":
        return alpha, const
    if config.objective == "label_smoothing":
        g = config.gamma_ls
        alpha = alpha + g / (N * out_dim)
        const = -len(hists) * (g / N) * math.log(out_dim)
        return alpha, const
    if bundle is None:
        raise ValueError(f"objective {config.objective} needs a regularizer bundle")
    if config.objective == "split_regularizer" and bundle.gamma_minus > 1.0:
        raise ValueError(
            "gamma_minus > 1 makes the split objective unbounded below "
            "(the -log q coefficient of an overrepresented symbol turns negative)"
        )
    if bundle.hists != hists or not np.array_equal(bundle.weights, table.arrays.totals):
        raise ValueError("the bundle was built from another count table")
    w = table.arrays.totals / N
    r = bundle.rows
    # grid cells share the bundle's matrices (they replace only the gammas),
    # so no product is taken in place
    if config.objective == "smoothed_target":
        target = C / C.sum(axis=1, keepdims=True)
        part = r.p_plus * r.z_plus[:, None]
        target += part
        np.multiply(r.p_minus, r.z_minus[:, None], out=part)
        target -= part
        np.maximum(target, 0.0, out=target)
        const = -float(np.dot(w, _row_entropies(target)))
        target *= w[:, None]
        return target, const
    coef = w * bundle.gamma_plus * r.z_plus
    const -= float(np.dot(coef, _row_entropies(r.p_plus)))
    part = r.p_plus * coef[:, None]
    alpha += part
    coef = w * bundle.gamma_minus * r.z_minus
    const += float(np.dot(coef, _row_entropies(r.p_minus)))
    np.multiply(r.p_minus, coef[:, None], out=part)
    alpha -= part
    return alpha, const


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """Entropy of each row, summed over its positive cells."""
    i, j = np.nonzero(rows > 0.0)
    p = rows[i, j]
    return -np.bincount(i, weights=p * np.log(p), minlength=len(rows))


def loss_and_grad(
    model,
    batch: list[tuple[Sequence[int], int]],
    config: TrainConfig,
    bundle: RegularizerBundle | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Objective value and exact analytic gradients on one (full) batch."""
    if not batch:
        raise ValueError("batch must be nonempty")
    config.validate()
    keys = [(*h, x) for h, x in batch]
    table = CountTable.from_grams(model.order, model.vocab, keys, np.ones(len(keys), np.int64))
    alpha, const = _objective_weights(table, config, bundle)
    loss, grads, _ = model.batch_loss_grads(table.arrays.hists, alpha)
    return loss + const, grads


def model_perplexity(model, data: Corpus | CountTable) -> float:
    """Perplexity of a differentiable model on a corpus or its count table at
    the model's order, from one batched forward pass (finite unless a
    softmax cell underflows to 0)."""
    table = _table(data, model.order, model.vocab)
    return table_perplexity(model.forward_batch(table.arrays.hists), table.arrays.hist, table)


def make_bundle_for(
    data: Corpus | CountTable, order: int, config: TrainConfig
) -> RegularizerBundle:
    """The regularizer bundle a config's objective asks for, built from a
    corpus or its count table at `order`."""
    if config.method is None:
        raise ValueError(f"objective {config.objective} needs a smoothing method")
    from .smoothers import smooth  # local import to avoid a cycle

    table = _table(data, order)
    smoothed = smooth(table, config.method, config.method_params)
    return build_regularizer(
        empirical_conditional(table), smoothed, table,
        config.gamma_plus, config.gamma_minus,
    )


def train(
    model,
    data: Corpus | CountTable,
    config: TrainConfig,
    bundle: RegularizerBundle | None = None,
    heldout: Corpus | CountTable | None = None,
) -> tuple[object, TrainMetrics]:
    """Full-batch gradient descent; returns the best-held-out checkpoint.

    Without a held-out corpus all `epochs` steps run and the final state is
    returned.  With one, training stops once held-out perplexity has not
    improved for `patience` consecutive epochs, and the parameters of the
    best epoch are restored.  Either corpus may be given as its count table
    at the model's order; only a corpus is counted here.  A bundle the
    objective needs is built from the training counts unless one is given,
    so callers training many models on the same data pass the tables and
    a shared bundle.
    """
    config.validate()
    table = _table(data, model.order, model.vocab)
    if config.objective in BUNDLE_OBJECTIVES and bundle is None:
        bundle = make_bundle_for(table, model.order, config)
    if heldout is not None:
        heldout = _table(heldout, model.order, model.vocab)
    return _train_counts(model, table, config, bundle, heldout)


def train_smoothed_target(model, smoothed_lm, table: CountTable, config: TrainConfig):
    """Fit the model to a smoothed conditional table by gradient descent."""
    cfg = TrainConfig(**{**config.__dict__, "objective": "smoothed_target"})
    bundle = build_regularizer(empirical_conditional(table), smoothed_lm, table, 1.0, 1.0)
    model, _ = _train_counts(model, table, cfg, bundle, None)
    return model


def _train_counts(model, table, config, bundle, heldout):
    # the objective weights do not depend on the parameters: build them once
    alpha, const = _objective_weights(table, config, bundle)
    hists = table.arrays.hists
    extra = []
    if heldout is not None:
        # each epoch's forward runs over `hists + extra`, where `extra` holds
        # the held-out histories training lacks; held-out row i is row
        # place[i] of that forward
        place = []
        for h in heldout.arrays.hists:
            i = table.arrays.index.get(h)
            if i is None:
                i = len(hists) + len(extra)
                extra.append(h)
            place.append(i)
        rows = np.asarray(place, dtype=np.intp)[heldout.arrays.hist]
    metrics = TrainMetrics()
    params = model.param_arrays()
    best_ppl = math.inf
    best_params = None
    stale = 0

    def patience_ran_out(ppl: float) -> bool:
        """Record the held-out perplexity of the current parameters, those
        after the last step taken."""
        nonlocal best_ppl, best_params, stale
        metrics.heldout_ppl.append(ppl)
        if ppl < best_ppl:
            best_ppl = ppl
            best_params = {k: v.copy() for k, v in params.items()}
            metrics.best_epoch = len(metrics.heldout_ppl) - 1
            stale = 0
            return False
        stale += 1
        return stale >= config.patience

    for epoch in range(config.epochs):
        # one forward at theta_epoch: its held-out rows give the perplexity
        # of the previous epoch, its training rows this epoch's step
        loss, grads, q = model.batch_loss_grads(hists, alpha, extra)
        if epoch and heldout is not None and patience_ran_out(table_perplexity(q, rows, heldout)):
            break
        loss += const
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite loss {loss!r} at epoch {epoch}")
        for name, arr in params.items():
            arr -= config.lr * grads[name]
        metrics.train_loss.append(loss)
        metrics.epochs_run = epoch + 1
    else:
        # every epoch ran: the last one's perplexity takes one more forward
        if heldout is not None:
            patience_ran_out(model_perplexity(model, heldout))
    if best_params is not None:
        for name, arr in params.items():
            arr[...] = best_params[name]
    return model, metrics


# ---------------------------------------------------------------------------
# serialization


def save_model(model, path: str) -> None:
    """JSON snapshot; floats round-trip exactly (shortest-repr encoding)."""
    doc = {
        "format_version": 1,
        "architecture": model.architecture,
        "order": model.order,
        "vocab": list(model.vocab.symbols),
        "params": {k: v.tolist() for k, v in model.param_arrays().items()},
    }
    if model.architecture == "tabular":
        doc["dims"] = {"histories": len(model.history_index), "out": model.vocab.out_dim}
        doc["histories"] = [
            model.vocab.render_history(h)
            for h, _ in sorted(model.history_index.items(), key=lambda kv: kv[1])
        ]
    else:
        doc["dims"] = {"embed": model.embed_dim, "hidden": model.hidden_dim}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_model(path: str):
    """Load a save_model file; a malformed document raises ValueError
    naming `path`."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    try:
        return _model_of(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: {exc.args[0]!r} not found") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _model_of(doc):
    if not isinstance(doc, dict):
        raise ValueError(f"a model file must be a JSON object, got {type(doc).__name__}")
    if doc.get("format_version") != 1:
        raise ValueError(f"unsupported model format {doc.get('format_version')!r}")
    order, dims = doc["order"], doc["dims"]
    if (type(order) is not int or not isinstance(dims, dict)
            or any(type(v) is not int for v in dims.values())):
        raise ValueError(f"order and dims values must be ints, got {order!r} and {dims!r}")
    vocab = Vocabulary(symbols=tuple(doc["vocab"]))
    if doc["architecture"] == "tabular":
        hists = [
            tuple(vocab.parse(t) for t in (s.split(" ") if s else []))
            for s in doc["histories"]
        ]
        model = TabularSoftmaxLM(order, vocab, hists)
        model.logits[...] = np.asarray(doc["params"]["logits"], dtype=float)
        return model
    if doc["architecture"] == "feedforward":
        model = FeedForwardLM(order, vocab, dims["embed"], dims["hidden"], seed=0)
        for k, arr in model.param_arrays().items():
            arr[...] = np.asarray(doc["params"][k], dtype=float)
        return model
    raise ValueError(f"unknown architecture {doc['architecture']!r}")
