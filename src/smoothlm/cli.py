"""Command-line pipeline: count, smooth, decompose, train, eval, grid, verify.

Counts, LMs and decompositions share the one TSV format of
corpus.write_cells.  Runs are deterministic for a fixed seed, and rerunning
any command with identical inputs, on a fixed BLAS build and thread count,
rewrites byte-identical outputs.  Exit
codes: 0 ok, 1 verification failure, 2 usage/input error (a training run
that diverges, and a run out of memory, included), 3 internal invariant
breach.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import itertools
import json
import math
import os
import sys

from . import decompose as dec
from . import neural, verify
from .corpus import count_ngrams, load_corpus, read_count_table, write_count_table
from .ngram import (
    NormalizationError,
    empirical_conditional,
    perplexity,
    read_conditional_lm,
    write_conditional_lm,
)
from .smoothers import METHODS, method_params, smooth

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def cmd_count(args) -> int:
    table = count_ngrams(load_corpus(args.corpus), args.order)
    write_count_table(table, args.out)
    print(f"wrote {len(table.count)} gram rows to {args.out}")
    return EXIT_OK


def _smoothed_lm(args):
    if args.counts and args.order is not None:
        raise ValueError("--order goes with --corpus; a count file fixes its own order")
    order = None if args.counts else 2 if args.order is None else args.order
    method_params(args.method, args.params, order)  # refuse bad parameters before reading input
    if args.counts:
        table = read_count_table(args.counts)
    else:
        table = count_ngrams(load_corpus(args.corpus), order)
    return table, smooth(table, args.method, args.params)


def cmd_smooth(args) -> int:
    _, lm = _smoothed_lm(args)
    write_conditional_lm(lm, args.out)
    print(f"wrote {len(lm.keys.ids)} histories to {args.out}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    table, lm = _smoothed_lm(args)
    bundle = dec.build_regularizer(empirical_conditional(table), lm, table, 1.0, 1.0)
    dec.write_decomposition(bundle, args.out)
    print(f"wrote {len(table.ids)} history decompositions to {args.out}")
    return EXIT_OK


ARCHS = ("tabular", "feedforward")


@dataclasses.dataclass
class RunConfig(neural.TrainConfig):
    """The options of one `train` run, or of each `grid` cell: TrainConfig's
    fields plus the model's and the paths.  Its fields are the config-file
    keys and the flags of both commands, and their defaults are the only
    defaults; an lr left out or null resolves to 0.5 for the tabular model
    and 0.05 for the feedforward one."""

    lr: float | None = None
    order: int = 2
    arch: str = "feedforward"
    embed_dim: int = 16
    hidden_dim: int = 32
    corpus_path: str | None = None   # null means none given
    heldout_path: str | None = None
    out_dir: str | None = None

    def __post_init__(self):
        if self.lr is None:
            self.lr = 0.5 if self.arch == "tabular" else 0.05

    def validate(self) -> None:
        super().validate()
        if self.arch not in ARCHS:
            raise ValueError(f"unknown architecture {self.arch!r}")
        for key, low in (("order", 2 if self.arch == "feedforward" else 1), ("embed_dim", 1),
                         ("hidden_dim", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)!r}")
        if self.objective in neural.BUNDLE_OBJECTIVES:
            if self.method is None:
                raise ValueError(f"objective {self.objective} needs a smoothing method")
            method_params(self.method, self.method_params, self.order)


# the flag type of each RunConfig annotation; any other is read as a string
_FLAG_TYPES = {"int": int, "float": float, "float | None": float, "dict | None": json.loads}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    for f in dataclasses.fields(RunConfig):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                       type=_FLAG_TYPES.get(f.type, str))


def _run_config(args, **defaults) -> RunConfig:
    """`defaults`, overridden by the keys of the `--config` file, overridden
    by the flags given."""
    values = dict(defaults)
    if args.config is not None:
        with open(args.config, encoding="utf-8") as f:
            try:
                cfg = json.load(f)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ValueError(f"{args.config}: a run config must be a JSON object, got {cfg!r}")
        unknown = sorted(set(cfg) - {f.name for f in dataclasses.fields(RunConfig)})
        if unknown:
            raise ValueError(
                f"{args.config}: unknown config key(s) {', '.join(map(repr, unknown))}")
        values.update(cfg)
    for f in dataclasses.fields(RunConfig):
        if getattr(args, f.name) is not None:
            values[f.name] = getattr(args, f.name)
    return RunConfig(**values)


def _model_for(config: RunConfig, table):
    if config.arch == "tabular":
        return neural.TabularSoftmaxLM.for_table(table)
    return neural.FeedForwardLM(config.order, table.vocab, config.embed_dim, config.hidden_dim,
                                seed=config.seed, init_scale=config.init_scale)


class _TrainingData:
    """What every model trained on one run config shares, built once: the
    count tables of the training and held-out corpora, and one regularizer
    bundle per method_params value, of which each model takes a copy with
    its own gammas (the decomposition does not depend on them; the copies
    share the smoothed LM, and the bundles the table's cached marginals),
    and one training workspace, which every model's epochs write into.
    A grid call keeps one of these for its cells and drops it when it ends,
    so a later call sees rewritten input files."""

    def __init__(self, config: RunConfig):
        corpus = load_corpus(config.corpus_path)
        self.table = count_ngrams(corpus, config.order)
        self.heldout = None
        if config.heldout_path:
            heldout = load_corpus(config.heldout_path, vocab=corpus.vocab)
            self.heldout = count_ngrams(heldout, config.order)
        self._bundles = {}
        self.workspace = neural.Workspace()

    def _bundle(self, config):
        key = json.dumps(config.method_params, sort_keys=True)
        if key not in self._bundles:
            self._bundles[key] = neural.make_bundle_for(self.table, self.table.order, config)
        return dataclasses.replace(self._bundles[key], gamma_plus=config.gamma_plus,
                                   gamma_minus=config.gamma_minus)

    def train(self, config: RunConfig):
        bundle = self._bundle(config) if config.objective in neural.BUNDLE_OBJECTIVES else None
        return neural.train(_model_for(config, self.table), self.table, config, bundle,
                            self.heldout, workspace=self.workspace)


def _write_metrics(metrics, path):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("epoch\ttrain_loss\theldout_ppl\n")
        for i, loss in enumerate(metrics.train_loss):
            ppl = f"{metrics.heldout_ppl[i]:.10g}" if i < len(metrics.heldout_ppl) else ""
            f.write(f"{i}\t{loss:.10g}\t{ppl}\n")


def cmd_train(args) -> int:
    config = _run_config(args)
    config.validate()
    if not config.corpus_path:
        raise ValueError("need corpus_path (flag --corpus-path or config key)")
    if not config.out_dir:
        raise ValueError("need out_dir (flag --out-dir or config key)")
    os.makedirs(config.out_dir, exist_ok=True)
    model, metrics = _TrainingData(config).train(config)
    neural.save_model(model, os.path.join(config.out_dir, "model.json"))
    _write_metrics(metrics, os.path.join(config.out_dir, "metrics.tsv"))
    if metrics.heldout_ppl:
        best = min(metrics.heldout_ppl)
        print(f"best heldout perplexity {best:.10g} (epochs run {metrics.epochs_run})")
    else:
        print(f"final train loss {metrics.train_loss[-1]:.10g}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = neural.load_model(args.model) if args.model else read_conditional_lm(args.lm)
    ppl = perplexity(model, load_corpus(args.corpus, vocab=model.vocab))
    print(f"perplexity\t{ppl:.10g}")
    return EXIT_OK


def _grid_cells(base: RunConfig, cap: int) -> list[RunConfig]:
    """One config per cell of the Cartesian product over gamma_plus,
    gamma_minus and each method_params entry, where a list holds a key's
    candidates and any other value is its one candidate."""
    params = {} if base.method_params is None else base.method_params
    if not isinstance(params, dict):
        raise ValueError(f"method_params must be a JSON object, got {params!r}")
    keys = sorted(params)
    axes = {"gamma_plus": base.gamma_plus, "gamma_minus": base.gamma_minus,
            **{f"method_params[{k!r}]": params[k] for k in keys}}
    candidates = [v if isinstance(v, list) else [v] for v in axes.values()]
    for name, values in zip(axes, candidates):
        if not values:
            raise ValueError(f"{name} has no candidate values")
    size = math.prod(map(len, candidates))
    if size > cap:
        raise ValueError(f"grid size {size} exceeds cap {cap}; rerun with --cap {size}")
    return [dataclasses.replace(base, gamma_plus=g_plus, gamma_minus=g_minus,
                                method_params=dict(zip(keys, values)))
            for g_plus, g_minus, *values in itertools.product(*candidates)]


def _grid_cell(data: _TrainingData, config: RunConfig):
    _, metrics = data.train(config)
    best = min(metrics.heldout_ppl) if metrics.heldout_ppl else float("inf")
    return (
        json.dumps(config.method_params, sort_keys=True, separators=(",", ":")),
        config.gamma_plus, config.gamma_minus,
        metrics.train_loss[-1], best, metrics.epochs_run,
    )


# the grid data of a worker process, set by the pool's initializer; it
# lives only as long as the pool of one grid call
_worker_data: _TrainingData | None = None


def _init_grid_worker(data: _TrainingData) -> None:
    global _worker_data
    _worker_data = data


def _run_grid_cell(config: RunConfig):
    """One grid cell in a worker process; module-level so it unpickles."""
    return _grid_cell(_worker_data, config)


def cmd_grid(args) -> int:
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    # a grid sweeps the regularizer's weights, so it defaults to that objective
    base = _run_config(args, objective="split_regularizer")
    cells = _grid_cells(base, args.cap)
    for config in cells:
        config.validate()
    if not base.corpus_path or not base.heldout_path:
        raise ValueError("grid needs corpus_path and heldout_path")
    if not base.out_dir:
        raise ValueError("need out_dir")
    os.makedirs(base.out_dir, exist_ok=True)
    # loaded here, not in the workers, so that bad input fails with its own
    # message; each worker gets one copy and builds the bundles it needs
    data = _TrainingData(base)
    if args.workers > 1:
        # results are gathered in submission order, so completion order
        # cannot affect the output file
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers, initializer=_init_grid_worker,
                                 initargs=(data,)) as pool:
            rows = list(pool.map(_run_grid_cell, cells))
    else:
        rows = [_grid_cell(data, config) for config in cells]
    rows.sort(key=lambda r: (r[4], r[0], r[1], r[2]))
    out_path = os.path.join(base.out_dir, "grid_results.tsv")
    with open(out_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("method_params\tgamma_plus\tgamma_minus\tfinal_train_loss\tbest_heldout_ppl\tepochs_run\n")
        for params_json, g_plus, g_minus, loss, best, epochs in rows:
            f.write(f"{params_json}\t{g_plus:.10g}\t{g_minus:.10g}\t"
                    f"{loss:.10g}\t{best:.10g}\t{epochs}\n")
    print(f"wrote {len(rows)} rows to {out_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = [args.theorem.upper()] if args.theorem else list(verify.CHECKS)
    if names[0] not in verify.CHECKS:
        raise ValueError(f"unknown theorem id {args.theorem!r}; choose from {sorted(verify.CHECKS)}")
    if args.trials is not None and args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    # a NaN tolerance fails every check and an infinite one passes any
    if args.tolerance is not None and not 0 <= args.tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {args.tolerance}")
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    given = {"trials": args.trials, "tolerance": args.tolerance}
    ok = True
    for name in names:
        check = verify.CHECKS[name]
        # a check without a trial count (T2) ignores --trials
        accepted = inspect.signature(check).parameters
        report = check(seed=args.seed, **{key: val for key, val in given.items()
                                          if val is not None and key in accepted})
        print(report.line())
        ok = ok and report.passed
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="smoothlm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="count n-grams of a corpus into a TSV")
    c.add_argument("--corpus", required=True)
    c.add_argument("--order", type=int, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_count)

    for name, fn, text in (("smooth", cmd_smooth, "build a smoothed conditional LM"),
                           ("decompose", cmd_decompose, "signed decomposition of a smoother")):
        s = sub.add_parser(name, help=text)
        source = s.add_mutually_exclusive_group(required=True)
        source.add_argument("--counts", help="count TSV from `count`")
        source.add_argument("--corpus", help="a corpus file, counted at --order")
        s.add_argument("--order", type=int, help="with --corpus (default 2)")
        s.add_argument("--method", required=True, help="|".join(
            alias for alias, _ in METHODS.values()) + " (or canonical names)")
        s.add_argument("--params", type=json.loads, help='JSON map, e.g. \'{"lambda":0.1}\'')
        s.add_argument("--out", required=True)
        s.set_defaults(fn=fn)

    t = sub.add_parser("train", help="train a neural conditional model")
    t.add_argument("--config", help="JSON run config; flags override its keys")
    _add_run_flags(t)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="perplexity of a saved model or LM TSV")
    model = e.add_mutually_exclusive_group(required=True)
    model.add_argument("--model", help="model.json from `train`")
    model.add_argument("--lm", help="LM TSV from `smooth`")
    e.add_argument("--corpus", required=True)
    e.set_defaults(fn=cmd_eval)

    g = sub.add_parser("grid", help="hyperparameter grid over gamma pairs")
    g.add_argument("--config", required=True, help="JSON run config; flags override its keys")
    g.add_argument("--cap", type=int, default=100)
    g.add_argument("--workers", type=int, default=1,
                   help="process-pool size; output order is combination order either way")
    _add_run_flags(g)
    g.set_defaults(fn=cmd_grid)

    v = sub.add_parser("verify", help="run the numerical identity checks")
    which = v.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="run every check (default)")
    which.add_argument("--theorem", help="one of T1, COR, T2, T3, CE_LINEARITY")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int)
    v.add_argument("--tolerance", type=float, help="override pass tolerance")
    v.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's own exit: 2 for a usage error, 0 for --help
        return exc.code
    try:
        return args.fn(args)
    except NormalizationError as exc:
        # a model's rows that are negative or do not sum to 1 are a bug in
        # smoothlm, whichever command built them; a file's bad rows are a
        # plain ValueError naming the file
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError, KeyError, neural.TrainingError) as exc:
        # a diverging run (TrainingError) comes of the learning rate or
        # init scale the user gave
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # an input too large for this machine, such as a vocabulary whose
        # dense rows do not fit: exit 2, not a traceback that exits 1
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
