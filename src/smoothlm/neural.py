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
the loss bounded below.  As Z+ p_plus - Z- p_minus is p~ - p, training
reads the smoothed LM and the bundle's split, not p_plus or p_minus.

Epoch e steps from theta_e to theta_{e+1}, and its held-out perplexity
ppl_e, scored by ngram.table_perplexity as for n-gram LMs, is measured at
theta_{e+1}, where epoch e+1 starts.  So each epoch runs one batched forward
over the training histories followed by the held-out histories training
lacks: its training rows give the loss and gradient at theta_e, its held-out
rows ppl_{e-1}.  Early stopping is decided before the step, and one last
forward over the same rows after the final epoch scores it, so k epochs
take k + 1 forwards.

An epoch allocates no (rows x |V|+1) array.  The forward, the loss, the
gradient, alpha and the best checkpoint live in a Workspace that every
epoch of a run reuses, and that a grid hands from cell to cell.  The
forward stops at the shifted logits z', log s and q, and the loss is
sum_h A_h log s_h - sum alpha . z' with A = alpha.sum(1), computed once per
run, so log q is never written out.  q, the delta and every gradient and
parameter keep the bits of the unfused expressions; the loss moves in its
last bits.  `rows`, `cells` and `perplexity` run the same forward in a
fresh Workspace, so what they return is their own.
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
from .decompose import RegularizerBundle, build_regularizer
from .ngram import _xlogx, empirical_conditional, table_perplexity
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


class Workspace:
    """Named float buffers that a pass writes into: `get` hands back the
    buffer of a name, allocated again only when the shape asked for is
    another.  Its contents are whatever the last pass left.  Training keeps
    one for every epoch of a run, and a grid for every cell, so that an
    epoch allocates no (rows x |V|+1) array and no cell faults in the pages
    the previous one freed."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple) -> np.ndarray:
        buf = self.buffers.get(name)
        if buf is None or buf.shape != shape:
            buf = self.buffers[name] = np.empty(shape)
        return buf


def _log_softmax(z: np.ndarray, ws: Workspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise softmax with max subtraction: the shifted logits z', written
    over `z`, each row's log s = log sum exp z', and q = exp z' / s, in
    `ws`.  log q is z' - log s, which no pass writes out."""
    z -= z.max(axis=1, keepdims=True)
    q = np.exp(z, out=ws.get("q", z.shape))
    s = q.sum(axis=1, keepdims=True)
    q /= s
    return z, np.log(s), q


def _loss_delta(alpha, alpha_sums, z, log_s, q, ws) -> tuple[float, np.ndarray]:
    """The loss sum alpha . -log q = sum_h A_h log s_h - sum alpha . z', with
    A = alpha.sum(1) with its dims kept (`alpha_sums`, computed here unless
    given), and its gradient in the logits, A q - alpha, which takes over
    the loss's scratch array in `ws`."""
    if alpha_sums is None:
        alpha_sums = alpha.sum(axis=1, keepdims=True)
    t = np.multiply(alpha, z, out=ws.get("delta", alpha.shape))
    loss = float((alpha_sums * log_s).sum() - t.sum())
    np.multiply(alpha_sums, q, out=t)
    t -= alpha
    return loss, t


class _Model:
    """The conditional-model interface both architectures share with
    ngram.ConditionalLM: `order`, `vocab`, `rows` and `cells`.  Each
    architecture's `lookup` checks a batch of histories once and returns
    what its `forward` reads; `forward` is the one batched pass that
    `rows`, `cells` and `batch_loss_grads` run, and its last value is q.
    A pass writes into the Workspace it is given; without one it gets a
    fresh one, so what `rows` and `cells` return is their own."""

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

    def forward(self, idx, ws: Workspace | None = None):
        """(z', log s, q) of the rows `idx` of a lookup, as `_log_softmax`
        gives them.  Row -1 is a zero logit row, whose softmax is the
        uniform row."""
        ws = ws or Workspace()
        z = ws.get("z", (len(idx), self.vocab.out_dim))
        if len(self.logits):
            # mode="clip" takes the rows unbuffered; a row -1 is zeroed below
            np.take(self.logits, idx, axis=0, out=z, mode="clip")
        else:
            z.fill(0.0)
        z[idx < 0] = 0.0
        return _log_softmax(z, ws)

    def batch_loss_grads(self, idx, alpha, ws: Workspace | None = None, alpha_sums=None):
        """Loss sum_i alpha_i . -log q(.|h_i) over the first len(alpha) rows
        of a lookup `idx`, its gradient, and q of all of `idx`, from one
        forward, with `alpha_sums` as `_loss_delta` takes it.  A row -1 has
        no parameters, so its delta goes to a spare row past the logits that
        the gradient leaves out."""
        ws = ws or Workspace()
        z, log_s, q = self.forward(idx, ws)
        n = len(alpha)
        loss, delta = _loss_delta(alpha, alpha_sums, z[:n], log_s[:n], q[:n], ws)
        g = ws.get("g", (len(self.logits) + 1, self.vocab.out_dim))
        g.fill(0.0)
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

    def forward(self, idx, ws: Workspace | None = None):
        """(embeddings, hidden layer, z', log s, q) of the histories `idx`
        of a lookup, the last three as `_log_softmax` gives them."""
        ws = ws or Workspace()
        n, k = len(idx), self.order - 1
        # the lookup checked every id, so mode="clip" clips none; it takes
        # the rows unbuffered
        e = np.take(self.E, idx, axis=0, out=ws.get("e", (n, k, self.embed_dim)), mode="clip")
        e = e.reshape(n, k * self.embed_dim)
        a = np.matmul(e, self.W1, out=ws.get("a", (n, self.hidden_dim)))
        a += self.b1
        np.tanh(a, out=a)
        z = np.matmul(a, self.W2, out=ws.get("z", (n, self.vocab.out_dim)))
        z += self.b2
        return e, a, *_log_softmax(z, ws)

    def batch_loss_grads(self, idx, alpha, ws: Workspace | None = None, alpha_sums=None):
        """Loss sum_i alpha_i . -log q(.|h_i) over the first len(alpha)
        histories of a lookup `idx`, its gradient, and q of all of `idx`,
        from one forward, with `alpha_sums` as `_loss_delta` takes it."""
        ws = ws or Workspace()
        e, a, z, log_s, q = self.forward(idx, ws)
        n = len(alpha)
        idx, e, a = idx[:n], e[:n], a[:n]
        loss, delta2 = _loss_delta(alpha, alpha_sums, z[:n], log_s[:n], q[:n], ws)
        gW2 = np.matmul(a.T, delta2, out=ws.get("gW2", self.W2.shape))
        gb2 = delta2.sum(axis=0)
        dz1 = np.matmul(delta2, self.W2.T, out=ws.get("dz1", a.shape))
        slope = np.multiply(a, a, out=ws.get("slope", a.shape))
        np.subtract(1.0, slope, out=slope)
        dz1 *= slope
        gW1 = np.matmul(e.T, dz1, out=ws.get("gW1", self.W1.shape))
        gb1 = dz1.sum(axis=0)
        de = np.matmul(dz1, self.W1.T, out=ws.get("de", e.shape))
        gE = ws.get("gE", self.E.shape)
        gE.fill(0.0)
        d = self.embed_dim
        for j in range(self.order - 1):
            np.add.at(gE, idx[:, j], de[:, j * d:(j + 1) * d])
        return loss, {"E": gE, "W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}, q


# ---------------------------------------------------------------------------
# objectives


def _objective_weights(
    table: CountTable, config: TrainConfig, bundle: RegularizerBundle | None,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, float]:
    """Per-history coefficient vectors alpha, one row per history of `table`,
    and the theta-independent constant such that
    loss = sum_h alpha_h . (-log q(.|h)) + const.

    With w_h = #(h)/N, the smoothed rows s and the empirical rows e,
    smoothed_target takes alpha_h = w_h s_h and the constant
    -sum_h w_h H(s_h); split_regularizer takes alpha_h = #(h, .)/N +
    w_h (g+ (s_h - e_h)+ - g- (s_h - e_h)-), (s_h g+) w_h off the grams, and
    each part x of mass Z adds -+ g w_h (Z log Z - sum x log x).  A bundle
    objective writes alpha into `ws`."""
    N = table.total_tokens
    if config.objective in ("mle", "label_smoothing"):
        alpha = table.dense_counts() / N
        if config.objective == "mle":
            return alpha, 0.0
        g, out_dim = config.gamma_ls, table.vocab.out_dim
        alpha += g / (N * out_dim)
        return alpha, -len(alpha) * (g / N) * math.log(out_dim)
    if bundle is None:
        raise ValueError(f"objective {config.objective} needs a regularizer bundle")
    if config.objective == "split_regularizer" and bundle.gamma_minus > 1.0:
        raise ValueError(
            "gamma_minus > 1 makes the split objective unbounded below "
            "(the -log q coefficient of an overrepresented symbol turns negative)"
        )
    if bundle.keys is not table and not all(
            np.array_equal(getattr(bundle.keys, k), getattr(table, k))
            for k in ("codes", "totals", "hist", "out", "count")):
        raise ValueError("the bundle was built from another count table")
    w = table.totals / N
    lm = bundle.lm
    alpha = (ws or Workspace()).get("alpha", lm.matrix.shape)
    if config.objective == "smoothed_target":
        return np.multiply(lm.matrix, w[:, None], out=alpha), -float(np.dot(w, lm.entropy))
    gp, gm = bundle.gamma_plus, bundle.gamma_minus
    np.multiply(lm.matrix, gp, out=alpha)
    alpha *= w[:, None]
    hist, n = table.hist, len(w)
    up, down = np.maximum(bundle.diff, 0.0), np.maximum(np.negative(bundle.diff), 0.0)
    alpha[hist, table.out] = table.count / N + w[hist] * (gp * up - gm * down)
    # sum x log x of each part: the positive one is s off the grams
    plus = np.bincount(hist, _xlogx(up) - _xlogx(lm.gram_cells), n) - lm.entropy
    minus = np.bincount(hist, _xlogx(down), n)
    return alpha, (gm * float(np.dot(w, _xlogx(bundle.z_minus) - minus))
                   - gp * float(np.dot(w, _xlogx(bundle.z_plus) - plus)))


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
    *,
    workspace: Workspace | None = None,
) -> tuple[object, TrainMetrics]:
    """Full-batch gradient descent; returns the best-held-out checkpoint.

    Without a held-out corpus all `epochs` steps run and the final state is
    returned.  With one, training stops once held-out perplexity has not
    improved for `patience` consecutive epochs, and the parameters of the
    best epoch are restored.  Either corpus may be given as its count table
    at the model's order; only a corpus is counted here.  A bundle the
    objective needs is built from the training counts unless one is given,
    so callers training many models on the same data pass the tables and
    a shared bundle.  Every epoch writes its arrays into `workspace`, or
    into one of the run's own if none is given; callers training many
    models pass one, which changes no result.
    """
    config.validate()
    table = table_at(data, model.order, model.vocab)
    if config.objective in BUNDLE_OBJECTIVES and bundle is None:
        bundle = make_bundle_for(table, model.order, config)
    if heldout is not None:
        heldout = table_at(heldout, model.order, model.vocab)
    return _train_counts(model, table, config, bundle, heldout, workspace or Workspace())


def _train_counts(model, table, config, bundle, heldout, ws):
    # the objective weights, their row sums and the batch do not depend on
    # the parameters: build them once
    alpha, const = _objective_weights(table, config, bundle, ws)
    alpha_sums = alpha.sum(axis=1, keepdims=True)
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
            if best_params is None:
                best_params = {k: ws.get("best " + k, v.shape) for k, v in params.items()}
            for k, v in params.items():
                np.copyto(best_params[k], v)
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
            loss, grads, q = model.batch_loss_grads(idx, alpha, ws, alpha_sums)
            if epoch and heldout is not None and \
                    patience_ran_out(table_perplexity(q[cells], heldout)):
                break
            loss += const
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss!r} at epoch {epoch}")
            for name, arr in params.items():
                # the step lr * g, written over the gradient
                arr -= np.multiply(grads[name], config.lr, out=grads[name])
            metrics.train_loss.append(loss)
            metrics.epochs_run = epoch + 1
        else:
            # every epoch ran: the last one's perplexity takes one more forward
            if heldout is not None:
                patience_ran_out(table_perplexity(model.forward(idx, ws)[-1][cells], heldout))
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
