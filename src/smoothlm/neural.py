"""Differentiable conditional models and a manual-gradient training loop.

Two architectures: a tabular softmax model (one logit row per history) and a
small fixed-context feedforward net.  Each is a conditional q(.|h) with the
lookup of ngram.ConditionalLM, `rows(hists)` and `cells(keys, hist, out)`,
so ngram.perplexity scores both; `rows`, `cells` and the training step run
the same batched `forward`, over what the model's `lookup` makes of a batch
of histories.  Training looks its batch up once, before the first epoch.
Training is full-batch gradient descent with hand-derived gradients, under
one of four objectives:

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
forward, ngram.perplexity's, after the final epoch scores it, so k epochs
take k + 1 forwards.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .corpus import (Corpus, CountTable, History, RowKeys, Vocabulary, history_ids, row_index,
                     table_at)
from .decompose import RegularizerBundle, build_regularizer, row_entropies
from .ngram import empirical_conditional, perplexity, table_perplexity
from .smoothers import method_params, smooth

OBJECTIVES = ("mle", "label_smoothing", "smoothed_target", "split_regularizer")
BUNDLE_OBJECTIVES = ("smoothed_target", "split_regularizer")


class TrainingError(RuntimeError):
    """Non-finite loss encountered during training."""


# the classes each config field annotation admits; the annotations are
# strings (postponed evaluation)
_FIELD_TYPES = {
    "int": numbers.Integral, "float": numbers.Real, "float | None": (numbers.Real, type(None)),
    "str": str, "str | None": (str, type(None)), "dict | None": (dict, type(None)),
}


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
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type in _FIELD_TYPES and (isinstance(v, bool)
                                           or not isinstance(v, _FIELD_TYPES[f.type])):
                what = "a JSON object" if f.type == "dict | None" else f"of type {f.type}"
                raise ValueError(f"{f.name} must be {what}, got {v!r}")
            if f.type.startswith("float") and v is not None and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v!r}")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        for key, low in (("epochs", 1), ("patience", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)!r}")
        if self.objective == "label_smoothing" and self.gamma_ls < 0:
            raise ValueError("gamma_ls must be >= 0")
        if self.objective in BUNDLE_OBJECTIVES and self.method is not None:
            method_params(self.method, self.method_params)  # None: the caller brings a bundle
        if self.objective in BUNDLE_OBJECTIVES and min(self.gamma_plus, self.gamma_minus) < 0:
            raise ValueError("gamma weights must be nonnegative")
        if self.objective == "split_regularizer" and self.gamma_minus > 1:
            raise ValueError(f"gamma_minus must be <= 1, got {self.gamma_minus!r}: above 1 "
                             "the split objective is unbounded below")


@dataclass
class TrainMetrics:
    train_loss: list[float] = field(default_factory=list)
    heldout_ppl: list[float] = field(default_factory=list)
    best_epoch: int | None = None
    epochs_run: int = 0


def _log_softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (log q, q) with max subtraction.  Writes log q over `z`, a
    fresh logits array, and returns it; q is the one new array."""
    z -= z.max(axis=1, keepdims=True)
    q = np.exp(z)
    s = q.sum(axis=1, keepdims=True)
    z -= np.log(s)
    q /= s
    return z, q


def _loss_delta(alpha: np.ndarray, logq: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray]:
    """The loss sum alpha . -log q and its gradient in the logits,
    alpha.sum(1) q - alpha, which takes over the loss's scratch array."""
    t = alpha * logq
    loss = float(-t.sum())
    np.multiply(alpha.sum(axis=1, keepdims=True), q, out=t)
    t -= alpha
    return loss, t


class _Model:
    """The conditional-model interface both architectures share with
    ngram.ConditionalLM: `order`, `vocab`, `rows` and `cells`.  Each
    architecture's `lookup` checks a batch of histories once and returns
    what its `forward` reads; `forward` is the one batched pass that
    `rows`, `cells` and `batch_loss_grads` run, and its last value is q."""

    def rows(self, hists: RowKeys | np.ndarray | Sequence[History]) -> np.ndarray:
        """q(.|h) for each of `hists` (history tuples, an id array or a count
        table), one row each; ValueError for a history that is not order-1
        symbol or BOS ids."""
        return self.forward(self.lookup(hists))[-1]

    def cells(self, keys: RowKeys | np.ndarray | Sequence[History], hist: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        """q(out[g] | keys[hist[g]]) for each g, from the rows of `keys`,
        since the softmax needs the whole row anyway."""
        return self.forward(self.lookup(keys))[-1][hist, out]


class TabularSoftmaxLM(_Model):
    """One unconstrained logit row per known history; q(.|h) = softmax(row).

    The histories are given as a count table, which the model keeps as its
    RowKeys `keys`, or as a sequence.  Histories outside them get the
    uniform distribution (the logits of a never-updated row).
    """

    architecture = "tabular"

    def __init__(self, order: int, vocab: Vocabulary, hists: RowKeys | Sequence[History]):
        self.order = order
        self.vocab = vocab
        self.keys = row_index(vocab, order - 1, hists)
        self.logits = np.zeros((len(self.keys.ids), vocab.out_dim))

    @classmethod
    def for_table(cls, table: CountTable) -> "TabularSoftmaxLM":
        return cls(table.order, table.vocab, table)

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {"logits": self.logits}

    def lookup(self, hists) -> np.ndarray:
        """The row of each of `hists`, -1 outside the table."""
        if hists is self.keys:
            return np.arange(len(self.logits))
        return self.keys.find(history_ids(self.vocab, self.order - 1, hists))

    def forward(self, idx):
        """(log q, q) of the rows `idx` of a lookup.  Row -1 is a zero logit
        row, whose softmax is the uniform row."""
        z = self.logits[idx] if len(self.logits) else np.zeros((len(idx), self.vocab.out_dim))
        z[idx < 0] = 0.0
        return _log_softmax(z)

    def batch_loss_grads(self, idx, alpha):
        """Loss sum_i alpha_i . -log q(.|h_i) over the first len(alpha) rows
        of a lookup `idx`, its gradient, and q of all of `idx`, from one
        forward.  A row -1 has no parameters, so its delta goes to a spare
        row past the logits that the gradient leaves out."""
        logq, q = self.forward(idx)
        n = len(alpha)
        loss, delta = _loss_delta(alpha, logq[:n], q[:n])
        g = np.zeros((len(self.logits) + 1, self.vocab.out_dim))
        g[idx[:n]] = delta
        return loss, {"logits": g[:-1]}, q


class FeedForwardLM(_Model):
    """Fixed-context feedforward LM.

    q(.|h) = softmax(tanh(concat(E[h]) @ W1 + b1) @ W2 + b2).  The embedding
    table has one row per vocabulary id including BOS (the EOS row exists
    but is never indexed, since `rows` rejects EOS in a history).
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
        for name, shape in self.shapes(order, vocab, embed_dim, hidden_dim).items():
            setattr(self, name, rng.uniform(-init_scale, init_scale, size=shape))

    @staticmethod
    def shapes(order: int, vocab: Vocabulary, embed_dim: int, hidden_dim: int) -> dict:
        """The shape of each parameter, in the order they are drawn."""
        return {"E": (vocab.n_symbols + 2, embed_dim), "W1": ((order - 1) * embed_dim, hidden_dim),
                "b1": (hidden_dim,), "W2": (hidden_dim, vocab.out_dim), "b2": (vocab.out_dim,)}

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {"E": self.E, "W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}

    def lookup(self, hists) -> np.ndarray:
        """The ids of each of `hists`, one row each."""
        return history_ids(self.vocab, self.order - 1, hists)

    def forward(self, idx):
        """(embeddings, hidden layer, log q, q) of the histories `idx` of a
        lookup."""
        e = self.E[idx].reshape(len(idx), (self.order - 1) * self.embed_dim)
        a = np.tanh(e @ self.W1 + self.b1)
        logq, q = _log_softmax(a @ self.W2 + self.b2)
        return e, a, logq, q

    def batch_loss_grads(self, idx, alpha):
        """Loss sum_i alpha_i . -log q(.|h_i) over the first len(alpha)
        histories of a lookup `idx`, its gradient, and q of all of `idx`,
        from one forward."""
        e, a, logq, q = self.forward(idx)
        n = len(alpha)
        idx, e, a, logq = idx[:n], e[:n], a[:n], logq[:n]
        loss, delta2 = _loss_delta(alpha, logq, q[:n])
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


def _objective_weights(
    table: CountTable, config: TrainConfig, bundle: RegularizerBundle | None
) -> tuple[np.ndarray, float]:
    """Per-history coefficient vectors alpha, one row per history of `table`,
    and the theta-independent constant such that
    loss = sum_h alpha_h . (-log q(.|h)) + const."""
    C = table.dense_counts()
    out_dim = table.vocab.out_dim
    N = table.total_tokens
    alpha = C / N
    const = 0.0
    if config.objective == "mle":
        return alpha, const
    if config.objective == "label_smoothing":
        g = config.gamma_ls
        alpha = alpha + g / (N * out_dim)
        const = -len(C) * (g / N) * math.log(out_dim)
        return alpha, const
    if bundle is None:
        raise ValueError(f"objective {config.objective} needs a regularizer bundle")
    if config.objective == "split_regularizer" and bundle.gamma_minus > 1.0:
        raise ValueError(
            "gamma_minus > 1 makes the split objective unbounded below "
            "(the -log q coefficient of an overrepresented symbol turns negative)"
        )
    if (not np.array_equal(bundle.keys.codes, table.codes)
            or not np.array_equal(bundle.keys.totals, table.totals)):
        raise ValueError("the bundle was built from another count table")
    w = table.totals / N
    r = bundle.rows
    # grid cells share the bundle's matrices and their entropies (they
    # replace only the gammas), so no product is taken in place
    if config.objective == "smoothed_target":
        target = C / table.totals[:, None]
        part = r.p_plus * r.z_plus[:, None]
        target += part
        np.multiply(r.p_minus, r.z_minus[:, None], out=part)
        target -= part
        np.maximum(target, 0.0, out=target)
        const = -float(np.dot(w, row_entropies(target)))
        target *= w[:, None]
        return target, const
    h_plus, h_minus = r.entropies
    coef = w * bundle.gamma_plus * r.z_plus
    const -= float(np.dot(coef, h_plus))
    part = r.p_plus * coef[:, None]
    alpha += part
    coef = w * bundle.gamma_minus * r.z_minus
    const += float(np.dot(coef, h_minus))
    np.multiply(r.p_minus, coef[:, None], out=part)
    alpha -= part
    return alpha, const


def make_bundle_for(
    data: Corpus | CountTable, order: int, config: TrainConfig
) -> RegularizerBundle:
    """The regularizer bundle a config's objective asks for, built from a
    corpus or its count table at `order`."""
    table = table_at(data, order)
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
    table = table_at(data, model.order, model.vocab)
    if config.objective in BUNDLE_OBJECTIVES and bundle is None:
        bundle = make_bundle_for(table, model.order, config)
    if heldout is not None:
        heldout = table_at(heldout, model.order, model.vocab)
    return _train_counts(model, table, config, bundle, heldout)


def _train_counts(model, table, config, bundle, heldout):
    # the objective weights and the batch do not depend on the parameters:
    # build them once
    alpha, const = _objective_weights(table, config, bundle)
    idx = model.lookup(table)
    if (idx < 0).any():
        # a tabular model's row -1: a training history outside its table
        h = tuple(table.ids[int(np.argmax(idx < 0))].tolist())
        raise ValueError(f"tabular model has no row for history {h}")
    if heldout is not None:
        # each epoch's forward runs over the table's histories and then the
        # held-out histories training lacks; held-out row i is row place[i]
        # of that forward, so held-out gram g is cell (place[hist[g]], out[g])
        # of its q
        place = table.find(heldout.ids)
        lacking = place < 0
        place[lacking] = len(idx) + np.arange(np.count_nonzero(lacking))
        idx = np.concatenate([idx, model.lookup(heldout.ids[lacking])])
        cells = place[heldout.hist], heldout.out
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

    # a diverging run overflows on its way to a non-finite loss, which the
    # loop reports as a TrainingError; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            # one forward at theta_epoch: its held-out rows give the
            # perplexity of the previous epoch, its training rows this
            # epoch's step
            loss, grads, q = model.batch_loss_grads(idx, alpha)
            if epoch and heldout is not None and \
                    patience_ran_out(table_perplexity(q[cells], heldout)):
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
                patience_ran_out(perplexity(model, heldout))
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
        ids = model.keys.ids.tolist()
        doc["dims"] = {"histories": len(ids), "out": model.vocab.out_dim}
        doc["histories"] = [model.vocab.render_history(h) for h in ids]
    else:
        doc["dims"] = {"embed": model.embed_dim, "hidden": model.hidden_dim}
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_model(path: str):
    """Load a save_model file; a malformed document raises ValueError
    naming `path`."""
    try:
        with open(path, encoding="utf-8") as f:
            return _model_of(json.load(f))
    except KeyError as exc:
        raise ValueError(f"{path}: {exc.args[0]!r} not found") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _model_of(doc):
    """The model a save_model document describes; every value is checked
    for its type before use."""
    if not isinstance(doc, dict):
        raise ValueError(f"a model file must be a JSON object, got {type(doc).__name__}")
    if doc.get("format_version") != 1:
        raise ValueError(f"unsupported model format {doc.get('format_version')!r}")
    order, dims, symbols, params = doc["order"], doc["dims"], doc["vocab"], doc["params"]
    if (type(order) is not int or not isinstance(dims, dict)
            or any(type(v) is not int for v in dims.values())):
        raise ValueError(f"order and dims values must be ints, got {order!r} and {dims!r}")
    if not isinstance(symbols, list) or not all(isinstance(t, str) for t in symbols):
        raise ValueError("vocab must be a list of strings")
    if not isinstance(params, dict):
        raise ValueError("params must be a JSON object")
    vocab = Vocabulary(symbols=tuple(symbols))
    arch = doc["architecture"]
    if arch == "tabular":
        rendered = doc["histories"]
        if not isinstance(rendered, list) or not all(isinstance(s, str) for s in rendered):
            raise ValueError("histories must be a list of strings")
        model = TabularSoftmaxLM(order, vocab, [
            tuple(vocab.parse(t) for t in (s.split(" ") if s else [])) for s in rendered])
        shapes = {"logits": model.logits.shape}
    elif arch == "feedforward":
        shapes = FeedForwardLM.shapes(order, vocab, dims["embed"], dims["hidden"])
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    # the saved arrays are checked before a feedforward model allocates its
    # own, so dims that the file does not hold are refused first
    saved = {name: _saved_array(params[name], shape, name) for name, shape in shapes.items()}
    if arch == "feedforward":
        model = FeedForwardLM(order, vocab, dims["embed"], dims["hidden"])
    for name, arr in model.param_arrays().items():
        arr[...] = saved[name]
    return model


def _saved_array(value, shape: tuple, name: str) -> np.ndarray:
    """A saved parameter as a finite float array of `shape`."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.shape != shape or not np.isfinite(arr).all():
        raise ValueError(f"params {name!r} must be a finite array of shape {shape}")
    return arr
