"""Span tracing of smoothlm's public functions, installed from outside the package.

A `Tracer` replaces each traced function at every module attribute bound to
it (so `cli.load_corpus` and `corpus.load_corpus` both record) and each
traced model method on its class.  While `tracer.on` is true a call records
one span (name, start, end, parent, failed) in memory; otherwise the wrapper
calls straight through.  `after` hooks run once the span has closed, so the
bookkeeping they do is not charged to the span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# public function -> span name, per module
FUNCTIONS = {
    "corpus": ["load_corpus", "count_ngrams", "read_count_table", "write_count_table"],
    "ngram": ["empirical_conditional", "perplexity", "write_conditional_lm",
              "read_conditional_lm"],
    "decompose": ["build_regularizer", "write_decomposition"],
    "neural": ["train", "make_bundle_for"],
}
SMOOTHER_FUNCTIONS = {
    "add_lambda": "smooth_add_lambda",
    "good_turing": "smooth_good_turing",
    "simple_good_turing": "smooth_simple_good_turing",
    "jelinek_mercer": "smooth_jelinek_mercer",
    "katz": "smooth_katz",
    "kneser_essen_ney": "smooth_kneser_essen_ney",
}
CLI_COMMANDS = ["count", "smooth", "decompose", "eval", "grid"]
MODEL_METHODS = ["batch_loss_grads", "forward"]
RATIOS = {"dense_fill", "bundle_reuse", "heldout_unseen_share", "self_share"}


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "overhead_s"):
        return "s"
    if last == "bytes":
        return "bytes"
    return "ratio" if last in RATIOS else "count"


class Span:
    __slots__ = ("name", "start", "end", "parent", "failed")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.failed = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.bundle_params: set[str] = set()
        self.table_shape: tuple[int, int, int] | None = None
        self.on = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = Span(name, tracer._stack[-1] if tracer._stack else -1)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _rebind(self, original, wrapper, modules) -> None:
        """Point every module attribute bound to `original` at `wrapper`."""
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def install(self) -> None:
        import smoothlm
        from smoothlm import cli, neural, smoothers

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "smoothlm" or n.startswith("smoothlm."))]
        hooks = {
            "count_ngrams": self._after_table,
            "read_count_table": self._after_table,
            "write_conditional_lm": self._after_write("ngram.write_conditional_lm"),
            "write_decomposition": self._after_write("decompose.write_decomposition"),
            "train": self._after_train,
            "make_bundle_for": self._after_make_bundle,
        }
        for layer, names in FUNCTIONS.items():
            mod = getattr(smoothlm, layer)
            for fname in names:
                fn = getattr(mod, fname)
                self._rebind(fn, self._wrap(fn, f"{layer}.{fname}", hooks.get(fname)), modules)
        for method, fname in SMOOTHER_FUNCTIONS.items():
            fn = getattr(smoothers, fname)
            self._rebind(fn, self._wrap(fn, f"smoothers.{method}"), modules)
        for command in CLI_COMMANDS:
            fn = getattr(cli, f"cmd_{command}")
            self._rebind(fn, self._wrap(fn, f"cli.{command}"), modules)
        main = cli.main
        self._rebind(main, self._wrap(main, "cli.main", self._after_main), modules)
        for cls in (neural.FeedForwardLM, neural.TabularSoftmaxLM):
            for mname in MODEL_METHODS:
                fn = cls.__dict__[mname]
                setattr(cls, mname, self._wrap(fn, f"neural.{mname}"))
                self._undo.append((cls, mname, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- counters recorded where the work happens -----------------------

    def _after_table(self, args, kwargs, table) -> None:
        self.table_shape = (len(table.history_count), len(table.gram_count),
                            table.vocab.out_dim)

    def _after_write(self, name):
        def after(args, kwargs, result) -> None:
            path = args[-1] if len(args) > 1 else kwargs["path"]
            self.counts[f"{name}.bytes"] += os.path.getsize(path)
        return after

    def _after_train(self, args, kwargs, result) -> None:
        self.counts["neural.epochs"] += result[1].epochs_run

    def _after_make_bundle(self, args, kwargs, result) -> None:
        config = args[2] if len(args) > 2 else kwargs["config"]
        self.bundle_params.add(json.dumps(config.method_params, sort_keys=True))

    def _after_main(self, args, kwargs, code) -> None:
        if code != 0:
            self.counts["cli.exit_nonzero"] += 1

    # -- derived metrics ------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump([[s.name, s.start, s.end, s.parent, s.failed] for s in self.spans], f)

    def layer_metrics(self, intervals: list[tuple[float, float]]) -> dict[str, float]:
        """Per-layer sums.  `trace.self_share` is the share of the timed
        intervals that the self times of the reported spans inside them
        account for; `cli.main` is no metric, so its own time (argument
        parsing, config loading, dispatch) counts as unexplained."""
        total = defaultdict(float)
        calls: Counter[str] = Counter()
        failed: Counter[str] = Counter()
        for s in self.spans:
            total[s.name] += s.end - s.start
            calls[s.name] += 1
            failed[s.name] += s.failed
        own = self.self_times()
        train_self = sum(t for s, t in zip(self.spans, own) if s.name == "neural.train")
        timed = sum(hi - lo for lo, hi in intervals)
        covered = sum(t for s, t in zip(self.spans, own) if s.name != "cli.main"
                      and any(lo <= s.start and s.end <= hi for lo, hi in intervals))
        histories, grams, out_dim = self.table_shape or (0, 0, 1)
        n_bundles = calls["neural.make_bundle_for"]

        m: dict[str, float] = {}
        for name in ([f"{layer}.{f}" for layer, names in FUNCTIONS.items() for f in names]
                     + [f"neural.{method}" for method in MODEL_METHODS]):
            m[f"{name}.s"] = total[name]
        for name in ["corpus.load_corpus", "neural.make_bundle_for",
                     "neural.batch_loss_grads", "neural.forward"]:
            m[f"{name}.calls"] = calls[name]
        m["corpus.histories"] = histories
        m["corpus.grams"] = grams
        m["corpus.dense_fill"] = grams / (histories * out_dim) if histories else 0.0
        for method in SMOOTHER_FUNCTIONS:
            m[f"smoothers.{method}.s"] = total[f"smoothers.{method}"]
            m[f"smoothers.{method}.failed"] = failed[f"smoothers.{method}"]
        m["ngram.write_conditional_lm.bytes"] = self.counts["ngram.write_conditional_lm.bytes"]
        m["decompose.write_decomposition.bytes"] = self.counts["decompose.write_decomposition.bytes"]
        m["neural.train.self_s"] = train_self
        m["neural.bundle_reuse"] = len(self.bundle_params) / n_bundles if n_bundles else 0.0
        m["neural.epochs"] = self.counts["neural.epochs"]
        for command in CLI_COMMANDS:
            m[f"cli.{command}.s"] = total[f"cli.{command}"]
        m["cli.exit_nonzero"] = self.counts["cli.exit_nonzero"]
        m["trace.self_share"] = covered / timed if timed > 0 else 0.0
        return m
