"""The oracles of smoothlm.verify: the training loss against the objective
evaluated by its own route, and the source checks that keep the oracles
independent of the code they check.

A test that compares a kernel with itself cannot fail when the kernel is
wrong, so each oracle recounts or re-sums by its own loop.  The source
checks read the package with `ast` and fail when an oracle names a
pipeline kernel, when a pipeline module imports `verify`, when package
code reads the dict views kept only for `perfbench/` and the tests, or
when a source file needs a grammar newer than Python 3.10's."""

import ast
from pathlib import Path

import numpy as np
import pytest

from smoothlm.corpus import count_ngrams
from smoothlm.decompose import build_regularizer
from smoothlm.neural import (
    OBJECTIVES,
    FeedForwardLM,
    TabularSoftmaxLM,
    TrainConfig,
    _objective_weights,
)
from smoothlm.ngram import empirical_conditional
from smoothlm.smoothers import smooth
from smoothlm.verify import objective_value, synthetic_corpus

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "smoothlm"

ORACLES = ("count_substrings", "string_logprob", "PrefixProbability", "empirical_prefix",
           "cross_entropy", "entropy", "kl_divergence", "objective_value")
# the pipeline code the oracles check, and any smooth_<method>
KERNELS = {"_objective_weights", "batch_loss_grads", "signed_decompose", "_split_difference",
           "build_regularizer", "smooth", "table_perplexity", "perplexity", "count_ngrams",
           "dense_counts"}
# each dict view, and the module that defines it
VIEWS = {"table": "ngram", "gram_count": "corpus", "history_count": "corpus",
         "per_history": "decompose"}
# the views of a RowKeys, and the nodes that loop
ROW_VIEWS = {"hists", "index"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("arch", ["tabular", "feedforward"])
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_training_loss_is_the_objective(objective, arch, order):
    # training's loss is batch_loss_grads under _objective_weights plus its
    # constant; a wrong weight or constant shows here, not in a gradient
    rng = np.random.default_rng(order)
    for seed, method in enumerate(["add_lambda", "jelinek_mercer", "kneser_essen_ney"]):
        corpus = synthetic_corpus(seed, n_sequences=30, n_symbols=4)
        table = count_ngrams(corpus, order)
        config = TrainConfig(objective=objective, method=method, gamma_ls=0.7,
                             gamma_plus=0.8, gamma_minus=0.6)
        smoothed = smooth(table, method)
        bundle = build_regularizer(empirical_conditional(table), smoothed, table,
                                   config.gamma_plus, config.gamma_minus)
        if arch == "tabular":
            model = TabularSoftmaxLM.for_table(table)
            model.logits[...] = rng.normal(size=model.logits.shape)
        else:
            model = FeedForwardLM(order, corpus.vocab, 3, 4, seed=seed, init_scale=1.0)
        alpha, const = _objective_weights(table, config, bundle)
        loss, _, _ = model.batch_loss_grads(model.lookup(table.hists), alpha)
        want = objective_value(model, corpus, config, smoothed)
        assert loss + const == pytest.approx(want, rel=1e-12, abs=0), method


def parsed(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, by their own names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[-1] for a in node.names
                         if a.name.startswith("smoothlm."))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base.split(".")[0] != "smoothlm":
                continue
            if base in ("", "smoothlm"):   # from . import verify
                found.update(a.name for a in node.names)
            else:                           # from .verify import x
                found.add(base.split(".")[-1])
    return found


def names_in(node: ast.AST):
    """Every name, attribute and import that a definition refers to."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1]


def test_only_the_cli_imports_verify():
    # the package's __init__ imports `verify` only when `VerificationReport`
    # is first read, by name through importlib, so no import statement names it
    importers = {p.stem for p in SRC.glob("*.py") if "verify" in package_imports(parsed(p.stem))}
    assert importers <= {"cli"}


@pytest.mark.parametrize("oracle", ORACLES)
def test_oracle_names_no_kernel(oracle):
    # an oracle's body and those of the verify functions it calls, in turn
    defs = {n.name: n for n in parsed("verify").body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    seen, todo, named = set(), [oracle], set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            used = set(names_in(defs[name]))
            named |= used
            todo += used & defs.keys()
    assert not {n for n in named if n in KERNELS or n.startswith("smooth_")}


def is_self(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id == "self"


def test_dict_views_are_read_only_where_defined():
    # `self.table` is an object's own attribute (the CLI's training data)
    for path in SRC.glob("*.py"):
        for node in ast.walk(parsed(path.stem)):
            if isinstance(node, ast.Attribute) and node.attr in VIEWS and not is_self(node):
                assert path.stem == VIEWS[node.attr], f"{path.name}:{node.lineno} .{node.attr}"
    # nor does a pipeline module read the `hists` or `index` view of a table
    # or a model in a loop: histories are looked up by code, all at once
    for path in SRC.glob("*.py"):
        if path.stem == "verify":
            continue
        for loop in ast.walk(parsed(path.stem)):
            if isinstance(loop, LOOPS):
                for node in ast.walk(loop):
                    assert not (isinstance(node, ast.Attribute) and node.attr in ROW_VIEWS
                                and not is_self(node)), f"{path.name}:{node.lineno} .{node.attr}"


def test_lms_are_built_from_rows_outside_ngram():
    # a ConditionalLM built outside ngram gets (histories, matrix), not a
    # mapping of rows; a level (`ConditionalLM.level`) gets a count table
    for path in SRC.glob("*.py"):
        if path.stem == "ngram":
            continue
        for node in ast.walk(parsed(path.stem)):
            if isinstance(node, ast.Call) and list(names_in(node.func))[:1] == ["ConditionalLM"]:
                rows = node.args[2] if len(node.args) > 2 else next(
                    k.value for k in node.keywords if k.arg == "table")
                assert isinstance(rows, ast.Tuple), f"{path.name}:{node.lineno}"


def test_every_source_parses_under_the_python_3_10_grammar():
    # pyproject.toml claims Python >= 3.10, so no file may use grammar that
    # came later, such as `except*`; perfbench/ is only read
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
