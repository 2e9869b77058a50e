"""Command-line pipeline: count, smooth, decompose, train, eval, grid, verify.

Counts, LMs and decompositions share the one TSV format of
corpus.write_cells.  Runs are deterministic for a fixed seed, and rerunning
any command with identical inputs rewrites byte-identical outputs.  Exit
codes: 0 ok, 1 verification failure, 2 usage/input error, 3 internal
invariant breach.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
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
from .smoothers import smooth

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class InternalInvariantError(RuntimeError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: a run config must be a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(_TRAIN_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown config key(s) {', '.join(map(repr, unknown))}")
    for key in ("order", "embed_dim", "hidden_dim"):  # the int keys TrainConfig lacks
        if type(cfg.get(key, 0)) is not int:
            raise ValueError(f"{path}: config key {key!r} must be of type int, got {cfg[key]!r}")
    for key in ("corpus_path", "heldout_path", "out_dir"):  # null means none given
        if not isinstance(cfg.get(key, ""), (str, type(None))):
            raise ValueError(f"{path}: config key {key!r} must be of type str, got {cfg[key]!r}")
    return cfg


def _merged(config: dict, args: argparse.Namespace, keys: list[str]) -> dict:
    """Config-file values overridden by any explicitly passed flags."""
    out = dict(config)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


def _parse_params(raw):
    if raw is None:
        return {}
    if isinstance(raw, str):
        return json.loads(raw)
    return raw


def cmd_count(args) -> int:
    table = count_ngrams(load_corpus(args.corpus), args.order)
    write_count_table(table, args.out)
    print(f"wrote {len(table.arrays.count)} gram rows to {args.out}")
    return EXIT_OK


def _smoothed_lm(args):
    if args.counts:
        table = read_count_table(args.counts)
    else:
        if not args.corpus:
            raise ValueError("need --counts or --corpus")
        table = count_ngrams(load_corpus(args.corpus), args.order)
    try:
        lm = smooth(table, args.method, _parse_params(args.params))
    except NormalizationError as exc:
        # a smoother emitting an unnormalized or negative row is our bug,
        # not a usage error
        raise InternalInvariantError(str(exc)) from exc
    return table, lm


def cmd_smooth(args) -> int:
    _, lm = _smoothed_lm(args)
    write_conditional_lm(lm, args.out)
    print(f"wrote {len(lm.hists)} histories to {args.out}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    table, lm = _smoothed_lm(args)
    bundle = dec.build_regularizer(
        empirical_conditional(table), lm, table, args.gamma_plus, args.gamma_minus
    )
    dec.write_decomposition(bundle, table.vocab, args.out)
    print(f"wrote {len(bundle.hists)} history decompositions to {args.out}")
    return EXIT_OK


_TRAIN_KEYS = [
    "corpus_path", "heldout_path", "order", "arch", "objective", "method",
    "method_params", "gamma_plus", "gamma_minus", "gamma_ls", "lr", "epochs",
    "patience", "seed", "init_scale", "embed_dim", "hidden_dim", "out_dir",
]

_TRAIN_DEFAULTS = {
    "order": 2, "arch": "feedforward", "objective": "mle",
    "method": None, "method_params": {},
    "gamma_plus": 0.0, "gamma_minus": 0.0, "gamma_ls": 0.0,
    "lr": None,  # default depends on architecture, see _default_lr
    "epochs": 200, "patience": 20, "seed": 0, "init_scale": 0.1,
    "embed_dim": 16, "hidden_dim": 32,
}


def _default_lr(cfg) -> float:
    if cfg["lr"] is not None:
        return cfg["lr"]
    return 0.5 if cfg["arch"] == "tabular" else 0.05


def _train_config(cfg) -> neural.TrainConfig:
    return neural.TrainConfig(
        objective=cfg["objective"],
        method=cfg["method"],
        method_params=_parse_params(cfg.get("method_params")),
        gamma_ls=cfg["gamma_ls"],
        gamma_plus=cfg["gamma_plus"],
        gamma_minus=cfg["gamma_minus"],
        lr=_default_lr(cfg),
        epochs=cfg["epochs"],
        patience=cfg["patience"],
        seed=cfg["seed"],
        init_scale=cfg["init_scale"],
    )


def _model_for(cfg, table):
    if cfg["arch"] == "tabular":
        return neural.TabularSoftmaxLM.for_table(table)
    if cfg["arch"] == "feedforward":
        return neural.FeedForwardLM(
            cfg["order"], table.vocab, cfg["embed_dim"], cfg["hidden_dim"],
            seed=cfg["seed"], init_scale=cfg["init_scale"],
        )
    raise ValueError(f"unknown architecture {cfg['arch']!r}")


class _TrainingData:
    """What every model trained on one run config shares, built once: the
    count tables of the training and held-out corpora, and one regularizer
    bundle per method_params value (the decomposition does not depend on
    the gammas).  A grid call keeps one of these for its cells and drops it
    when it ends, so a later call sees rewritten input files."""

    def __init__(self, cfg):
        corpus = load_corpus(cfg["corpus_path"])
        self.table = count_ngrams(corpus, cfg["order"])
        self.heldout = None
        if cfg.get("heldout_path"):
            heldout = load_corpus(cfg["heldout_path"], vocab=corpus.vocab)
            self.heldout = count_ngrams(heldout, cfg["order"])
        self._bundles = {}

    def _bundle(self, config):
        key = json.dumps(config.method_params, sort_keys=True)
        if key not in self._bundles:
            self._bundles[key] = neural.make_bundle_for(self.table, self.table.order, config)
        return dataclasses.replace(
            self._bundles[key], gamma_plus=config.gamma_plus, gamma_minus=config.gamma_minus
        )

    def train(self, cfg):
        config = _train_config(cfg)
        config.validate()
        bundle = self._bundle(config) if config.objective in neural.BUNDLE_OBJECTIVES else None
        model = _model_for(cfg, self.table)
        return neural.train(model, self.table, config, bundle, self.heldout)


def _write_metrics(metrics, path):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("epoch\ttrain_loss\theldout_ppl\n")
        for i, loss in enumerate(metrics.train_loss):
            ppl = f"{metrics.heldout_ppl[i]:.10g}" if i < len(metrics.heldout_ppl) else ""
            f.write(f"{i}\t{loss:.10g}\t{ppl}\n")


def cmd_train(args) -> int:
    cfg = {**_TRAIN_DEFAULTS, **_merged(_load_config(args.config), args, _TRAIN_KEYS)}
    if not cfg.get("corpus_path"):
        raise ValueError("need corpus_path (flag --corpus-path or config key)")
    if not cfg.get("out_dir"):
        raise ValueError("need out_dir (flag --out-dir or config key)")
    os.makedirs(cfg["out_dir"], exist_ok=True)
    model, metrics = _TrainingData(cfg).train(cfg)
    neural.save_model(model, os.path.join(cfg["out_dir"], "model.json"))
    _write_metrics(metrics, os.path.join(cfg["out_dir"], "metrics.tsv"))
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


def _grid_values(cfg) -> tuple[list[str], list[tuple]]:
    """Cartesian product over gamma_plus, gamma_minus (0.0 unless given, as
    in `train`), and any method_params whose value is a list of candidates."""
    mp = cfg.get("method_params")
    if mp is None:
        mp = {}
    if not isinstance(mp, dict):
        raise ValueError(f"method_params must be a JSON object, got {mp!r}")
    keys = sorted(mp)
    values = [cfg["gamma_plus"], cfg["gamma_minus"], *(mp[k] for k in keys)]
    return keys, list(itertools.product(*(v if isinstance(v, list) else [v] for v in values)))


def _grid_cell(data: _TrainingData, cfg, param_keys, combo):
    g_plus, g_minus = combo[0], combo[1]
    params = dict(zip(param_keys, combo[2:]))
    cell = {**cfg, "method_params": params, "gamma_plus": g_plus, "gamma_minus": g_minus}
    _, metrics = data.train(cell)
    best = min(metrics.heldout_ppl) if metrics.heldout_ppl else float("inf")
    return (
        json.dumps(params, sort_keys=True, separators=(",", ":")),
        g_plus, g_minus,
        metrics.train_loss[-1], best, metrics.epochs_run,
    )


# the grid data of a worker process, set by the pool's initializer; it
# lives only as long as the pool of one grid call
_worker_data: _TrainingData | None = None


def _init_grid_worker(data: _TrainingData) -> None:
    global _worker_data
    _worker_data = data


def _run_grid_cell(task):
    """One grid cell in a worker process; module-level so it unpickles."""
    return _grid_cell(_worker_data, *task)


def cmd_grid(args) -> int:
    cfg = {**_TRAIN_DEFAULTS, "objective": "split_regularizer",
           **_merged(_load_config(args.config), args, _TRAIN_KEYS)}
    if not cfg.get("corpus_path") or not cfg.get("heldout_path"):
        raise ValueError("grid needs corpus_path and heldout_path")
    if not cfg.get("out_dir"):
        raise ValueError("need out_dir")
    param_keys, combos = _grid_values(cfg)
    if len(combos) > args.cap:
        raise ValueError(
            f"grid size {len(combos)} exceeds cap {args.cap}; rerun with --cap {len(combos)}"
        )
    os.makedirs(cfg["out_dir"], exist_ok=True)
    # loaded here, not in the workers, so that bad input fails with its own
    # message; each worker gets one copy and builds the bundles it needs
    data = _TrainingData(cfg)
    tasks = [(cfg, param_keys, combo) for combo in combos]
    if args.workers > 1:
        # results are gathered in submission order, so completion order
        # cannot affect the output file
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers, initializer=_init_grid_worker,
                                 initargs=(data,)) as pool:
            rows = list(pool.map(_run_grid_cell, tasks))
    else:
        rows = [_grid_cell(data, *t) for t in tasks]
    rows.sort(key=lambda r: (r[4], r[0], r[1], r[2]))
    out_path = os.path.join(cfg["out_dir"], "grid_results.tsv")
    with open(out_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("method_params\tgamma_plus\tgamma_minus\tfinal_train_loss\tbest_heldout_ppl\tepochs_run\n")
        for params_json, g_plus, g_minus, loss, best, epochs in rows:
            f.write(f"{params_json}\t{g_plus:.10g}\t{g_minus:.10g}\t"
                    f"{loss:.10g}\t{best:.10g}\t{epochs}\n")
    print(f"wrote {len(rows)} rows to {out_path}")
    return EXIT_OK


_CHECKS = {
    "T1": lambda seed, trials: verify.check_theorem1(trials=trials or 200, seed=seed),
    "COR": lambda seed, trials: verify.check_corollary(trials=trials or 200, seed=seed),
    "T2": lambda seed, trials: verify.check_theorem2(seed=seed),
    "T3": lambda seed, trials: verify.check_theorem3(trials=trials or 1000, seed=seed),
    "CE_LINEARITY": lambda seed, trials: verify.check_ce_linearity(trials=trials or 1000, seed=seed),
}


def cmd_verify(args) -> int:
    if args.theorem:
        names = [args.theorem.upper()]
        if names[0] not in _CHECKS:
            raise ValueError(f"unknown theorem id {args.theorem!r}; choose from {sorted(_CHECKS)}")
    else:
        names = list(_CHECKS)
    ok = True
    for name in names:
        report = _CHECKS[name](args.seed, args.trials)
        if args.tolerance is not None:
            report = verify.VerificationReport(
                theorem_id=report.theorem_id,
                trials=report.trials,
                max_abs_error=report.max_abs_error,
                tolerance=args.tolerance,
                passed=report.max_abs_error <= args.tolerance,
                seed=report.seed,
            )
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

    s = sub.add_parser("smooth", help="build a smoothed conditional LM")
    s.add_argument("--counts", help="count TSV from `count`")
    s.add_argument("--corpus", help="alternatively, a corpus file")
    s.add_argument("--order", type=int, default=2)
    s.add_argument("--method", required=True,
                   help="addlambda|gt|sgt|jm|katz|ken (or canonical names)")
    s.add_argument("--params", help='JSON map, e.g. \'{"lambda":0.1}\'')
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_smooth)

    d = sub.add_parser("decompose", help="signed decomposition of a smoother")
    d.add_argument("--counts")
    d.add_argument("--corpus")
    d.add_argument("--order", type=int, default=2)
    d.add_argument("--method", required=True)
    d.add_argument("--params")
    d.add_argument("--gamma-plus", type=float, default=1.0)
    d.add_argument("--gamma-minus", type=float, default=1.0)
    d.add_argument("--out", required=True)
    d.set_defaults(fn=cmd_decompose)

    t = sub.add_parser("train", help="train a neural conditional model")
    t.add_argument("--config", help="JSON run config; flags override its keys")
    t.add_argument("--corpus-path", dest="corpus_path")
    t.add_argument("--heldout-path", dest="heldout_path")
    t.add_argument("--order", type=int)
    t.add_argument("--arch", choices=["tabular", "feedforward"])
    t.add_argument("--objective", choices=list(neural.OBJECTIVES))
    t.add_argument("--method")
    t.add_argument("--method-params", dest="method_params")
    t.add_argument("--gamma-plus", dest="gamma_plus", type=float)
    t.add_argument("--gamma-minus", dest="gamma_minus", type=float)
    t.add_argument("--gamma-ls", dest="gamma_ls", type=float)
    t.add_argument("--lr", type=float)
    t.add_argument("--epochs", type=int)
    t.add_argument("--patience", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--init-scale", dest="init_scale", type=float)
    t.add_argument("--embed-dim", dest="embed_dim", type=int)
    t.add_argument("--hidden-dim", dest="hidden_dim", type=int)
    t.add_argument("--out-dir", dest="out_dir")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="perplexity of a saved model or LM TSV")
    model = e.add_mutually_exclusive_group(required=True)
    model.add_argument("--model", help="model.json from `train`")
    model.add_argument("--lm", help="LM TSV from `smooth`")
    e.add_argument("--corpus", required=True)
    e.set_defaults(fn=cmd_eval)

    g = sub.add_parser("grid", help="hyperparameter grid over gamma pairs")
    g.add_argument("--config", required=True)
    g.add_argument("--cap", type=int, default=100)
    g.add_argument("--workers", type=int, default=1,
                   help="process-pool size; output order is combination order either way")
    for name in ["--corpus-path", "--heldout-path", "--out-dir", "--method"]:
        g.add_argument(name, dest=name.lstrip("-").replace("-", "_"))
    g.add_argument("--seed", type=int)
    g.add_argument("--epochs", type=int)
    g.set_defaults(fn=cmd_grid)

    v = sub.add_parser("verify", help="run the numerical identity checks")
    v.add_argument("--all", action="store_true", help="run every check (default)")
    v.add_argument("--theorem", help="one of T1, COR, T2, T3, CE_LINEARITY")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int)
    v.add_argument("--tolerance", type=float, help="override pass tolerance")
    v.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
