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
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Corpus, CountTable, History, Vocabulary, _count_table, count_ngrams
from .decompose import RegularizerBundle, build_regularizer
from .ngram import empirical_conditional, padded_history

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


def _check_history(vocab: Vocabulary, order: int, history: Sequence[int]) -> History:
    h = tuple(history)
    if len(h) != order - 1:
        raise ValueError(f"history length {len(h)}, expected {order - 1}")
    for i in h:
        if not (0 <= i < vocab.n_symbols or i == vocab.bos_id):
            raise ValueError(f"id {i} is not a symbol or BOS")
    return h


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
        self.history_index = {
            _check_history(vocab, order, h): i for i, h in enumerate(histories)
        }
        self.logits = np.zeros((len(self.history_index), vocab.out_dim))

    @classmethod
    def for_table(cls, table: CountTable) -> "TabularSoftmaxLM":
        return cls(table.order, table.vocab, table.arrays.hists)

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {"logits": self.logits}

    def forward(self, history: Sequence[int]) -> np.ndarray:
        return self.forward_batch([_check_history(self.vocab, self.order, history)])[0]

    def forward_batch(self, hists: Sequence[History]) -> np.ndarray:
        """q(.|h) for each history, one row each; histories outside the
        table get the uniform row."""
        idx = np.fromiter((self.history_index.get(h, -1) for h in hists),
                          dtype=int, count=len(hists))
        known = idx >= 0
        q = np.full((len(idx), self.vocab.out_dim), 1.0 / self.vocab.out_dim)
        q[known] = _log_softmax(self.logits[idx[known]])[1]
        return q

    def _rows_for(self, hists: list[History]) -> np.ndarray:
        idx = []
        for h in hists:
            i = self.history_index.get(h)
            if i is None:
                raise ValueError(f"tabular model has no row for history {h}")
            idx.append(i)
        return np.asarray(idx, dtype=int)

    def batch_loss_grads(self, hists, alpha):
        idx = self._rows_for(hists)
        logq, q = _log_softmax(self.logits[idx])
        loss = float(-(alpha * logq).sum())
        delta = alpha.sum(axis=1, keepdims=True) * q - alpha
        g = np.zeros_like(self.logits)
        np.add.at(g, idx, delta)
        return loss, {"logits": g}


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
        return self.forward_batch([_check_history(self.vocab, self.order, history)])[0]

    def forward_batch(self, hists: Sequence[History]) -> np.ndarray:
        """q(.|h) for each history, one row each."""
        return self._activations(hists)[-1]

    def batch_loss_grads(self, hists, alpha):
        idx, e, a, logq, q = self._activations(hists)
        loss = float(-(alpha * logq).sum())
        delta2 = alpha.sum(axis=1, keepdims=True) * q - alpha
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
        return loss, {"E": gE, "W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}


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


def _table(data: Corpus | CountTable, order: int) -> CountTable:
    """The count table of a corpus at `order`; a table passes through."""
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
    index = {h: i for i, h in enumerate(bundle.hists)}
    try:
        # the bundle's rows in the order of `hists`
        idx = np.fromiter((index[h] for h in hists), dtype=np.intp, count=len(hists))
    except KeyError as exc:
        raise ValueError(f"bundle does not cover history {exc.args[0]}") from None
    w = np.fromiter((bundle.weights[h] for h in hists), dtype=float, count=len(hists)) / N
    zp = bundle.rows.z_plus[idx]
    zm = bundle.rows.z_minus[idx]
    part = bundle.rows.p_plus[idx]
    if config.objective == "smoothed_target":
        target = C / C.sum(axis=1, keepdims=True)
        part *= zp[:, None]
        target += part
        np.take(bundle.rows.p_minus, idx, axis=0, out=part, mode="clip")
        part *= zm[:, None]
        target -= part
        np.maximum(target, 0.0, out=target)
        const = -float(np.dot(w, _row_entropies(target)))
        target *= w[:, None]
        return target, const
    gp, gm = bundle.gamma_plus, bundle.gamma_minus
    alpha = alpha.copy()
    coef = w * gp * zp
    const -= float(np.dot(coef, _row_entropies(part)))
    part *= coef[:, None]
    alpha += part
    np.take(bundle.rows.p_minus, idx, axis=0, out=part, mode="clip")
    coef = w * gm * zm
    const += float(np.dot(coef, _row_entropies(part)))
    part *= coef[:, None]
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
    pairs = [(tuple(h), x) for h, x in batch]
    table = _count_table(model.order, model.vocab, Counter(pairs),
                         Counter(h for h, _ in pairs), len(pairs))
    alpha, const = _objective_weights(table, config, bundle)
    loss, grads = model.batch_loss_grads(table.arrays.hists, alpha)
    return loss + const, grads


def model_perplexity(model, data: Corpus | CountTable) -> float:
    """Perplexity of a differentiable model on a corpus or its count table at
    the model's order, from one batched forward pass (softmax rows are
    strictly positive, so this is always finite barring overflow)."""
    table = _table(data, model.order)
    return _perplexity(model, table.arrays.hists, table.dense_counts())


def _perplexity(model, hists: Sequence[History], C: np.ndarray) -> float:
    """Perplexity over the count matrix C, whose row i counts hists[i]."""
    q = model.forward_batch(hists)
    mask = C > 0
    nll = -float(np.dot(C[mask], np.log(q[mask])))
    return math.exp(nll / C.sum())


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
    table = _table(data, model.order)
    if config.objective in BUNDLE_OBJECTIVES and bundle is None:
        bundle = make_bundle_for(table, model.order, config)
    if heldout is not None:
        heldout = _table(heldout, model.order)
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
    if heldout is not None:
        heldout = (heldout.arrays.hists, heldout.dense_counts())
    metrics = TrainMetrics()
    params = model.param_arrays()
    best_ppl = math.inf
    best_params = None
    stale = 0
    for epoch in range(config.epochs):
        loss, grads = model.batch_loss_grads(table.arrays.hists, alpha)
        loss += const
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite loss {loss!r} at epoch {epoch}")
        for name, arr in params.items():
            arr -= config.lr * grads[name]
        metrics.train_loss.append(loss)
        metrics.epochs_run = epoch + 1
        if heldout is not None:
            ppl = _perplexity(model, *heldout)
            metrics.heldout_ppl.append(ppl)
            if ppl < best_ppl:
                best_ppl = ppl
                best_params = {k: v.copy() for k, v in params.items()}
                metrics.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
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
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("format_version") != 1:
        raise ValueError(f"{path}: unsupported model format {doc.get('format_version')!r}")
    vocab = Vocabulary(symbols=tuple(doc["vocab"]))
    order = doc["order"]
    if doc["architecture"] == "tabular":
        hists = [
            tuple(vocab.parse(t) for t in (s.split(" ") if s else []))
            for s in doc["histories"]
        ]
        model = TabularSoftmaxLM(order, vocab, hists)
        model.logits[...] = np.asarray(doc["params"]["logits"], dtype=float)
        return model
    if doc["architecture"] == "feedforward":
        model = FeedForwardLM(
            order, vocab, doc["dims"]["embed"], doc["dims"]["hidden"], seed=0
        )
        for k, arr in model.param_arrays().items():
            arr[...] = np.asarray(doc["params"][k], dtype=float)
        return model
    raise ValueError(f"{path}: unknown architecture {doc['architecture']!r}")
