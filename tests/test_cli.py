"""End-to-end CLI tests: exit codes, file formats, idempotence."""

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlm import neural, smoothers, verify
from smoothlm.cli import RunConfig, build_parser, main
from smoothlm.corpus import corpus_from_lines, count_ngrams, load_corpus
from smoothlm.ngram import NormalizationError
from smoothlm.verify import markov_zipf_lines

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example_run.json"


@pytest.fixture
def tiny(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text("a b\nb a\n", encoding="utf-8")
    return p


@pytest.fixture
def zipf(tmp_path):
    train = tmp_path / "train.txt"
    held = tmp_path / "held.txt"
    train.write_text("\n".join(markov_zipf_lines(80, 8, seed=1)) + "\n", encoding="utf-8")
    held.write_text("\n".join(markov_zipf_lines(20, 8, seed=2)) + "\n", encoding="utf-8")
    return train, held


class TestCount:
    def test_writes_six_rows(self, tiny, tmp_path, capsys):
        out = tmp_path / "c.tsv"
        assert main(["count", "--corpus", str(tiny), "--order", "2", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "history\tsymbol\tcount"
        assert len(rows) == 1 + 6

    def test_order_zero_exit_2(self, tiny, tmp_path, capsys):
        out = tmp_path / "c.tsv"
        code = main(["count", "--corpus", str(tiny), "--order", "0", "--out", str(out)])
        assert code == 2

    def test_missing_file_exit_2_names_path(self, tmp_path, capsys):
        out = tmp_path / "c.tsv"
        code = main(["count", "--corpus", str(tmp_path / "nope.txt"), "--order", "2",
                     "--out", str(out)])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_idempotent(self, tiny, tmp_path):
        o1, o2 = tmp_path / "c1.tsv", tmp_path / "c2.tsv"
        main(["count", "--corpus", str(tiny), "--order", "2", "--out", str(o1)])
        main(["count", "--corpus", str(tiny), "--order", "2", "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()


class TestSmooth:
    def test_addlambda_values(self, tiny, tmp_path):
        out = tmp_path / "lm.tsv"
        code = main(["smooth", "--corpus", str(tiny), "--order", "2",
                     "--method", "addlambda", "--params", '{"lambda":1.0}',
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith('# method=add_lambda params={"lambda":1.0}\n')
        # history 'a' has counts (a:0, b:1, EOS:1): (1/5, 2/5, 2/5)
        rows = {
            (ln.split("\t")[0], ln.split("\t")[1]): float(ln.split("\t")[2])
            for ln in text.splitlines()[2:]
        }
        assert rows[("a", "a")] == pytest.approx(0.2)
        assert rows[("a", "b")] == pytest.approx(0.4)
        assert rows[("a", "</s>")] == pytest.approx(0.4)

    def test_jm_matches_hand_recursion(self, tiny, tmp_path):
        out = tmp_path / "lm.tsv"
        main(["smooth", "--corpus", str(tiny), "--order", "2", "--method", "jm",
              "--params", '{"lambdas":[0.5,0.5]}', "--out", str(out)])
        rows = {
            (ln.split("\t")[0], ln.split("\t")[1]): float(ln.split("\t")[2])
            for ln in out.read_text().splitlines()[2:]
        }
        assert rows[("a", "b")] == pytest.approx(5 / 12)

    def test_ken_default_recorded(self, tiny, tmp_path):
        out = tmp_path / "lm.tsv"
        main(["smooth", "--corpus", str(tiny), "--order", "2", "--method", "ken",
              "--out", str(out)])
        assert '"D":0.75' in out.read_text().splitlines()[0]

    def test_sgt_fallback_recorded(self, tmp_path):
        # every bigram occurs once, so the SGT regression is undefined and
        # the rows are add-lambda 1e-3; the header must say so
        corpus = tmp_path / "flat.txt"
        corpus.write_text("a b\nc d\n", encoding="utf-8")
        out = tmp_path / "lm.tsv"
        assert main(["smooth", "--corpus", str(corpus), "--order", "2", "--method", "sgt",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == (
            '# method=simple_good_turing params={"fallback":"add_lambda","lambda":0.001}')

    def test_unknown_method_exit_2(self, tiny, tmp_path, capsys):
        code = main(["smooth", "--corpus", str(tiny), "--order", "2",
                     "--method", "mystery", "--out", str(tmp_path / "x.tsv")])
        assert code == 2

    @pytest.mark.parametrize("command", ["smooth", "decompose", "train", "grid"])
    def test_normalization_breach_exit_3(self, tiny, tmp_path, capsys, monkeypatch, command):
        # a smoother's bad rows are a bug whichever command smooths; `train`
        # and `grid` smooth in neural.make_bundle_for, and used to exit 2;
        # `smooth` and `decompose` reach smoothers.smooth when they run
        def broken_smooth(table, method, params=None):
            raise NormalizationError("history a: probabilities sum to 0.7, not 1")

        monkeypatch.setattr(smoothers, "smooth", broken_smooth)
        monkeypatch.setattr(neural, "smooth", broken_smooth)
        out = tmp_path / "out"
        if command in ("smooth", "decompose"):
            argv = [command, "--corpus", str(tiny), "--order", "2", "--method", "addlambda",
                    "--out", str(out)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({
                "corpus_path": str(tiny), "heldout_path": str(tiny), "arch": "tabular",
                "objective": "split_regularizer", "method": "add_lambda", "epochs": 1,
                "out_dir": str(out)}), encoding="utf-8")
            argv = [command, "--config", str(config)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "internal error: history a: probabilities sum to 0.7, not 1\n")

    def test_plain_value_error_naming_a_sum_exit_2(self, tiny, tmp_path, capsys, monkeypatch):
        # only the typed error is an invariant breach, whatever a message says
        def bad_params(table, method, params=None):
            raise ValueError("weights must sum to 1")

        monkeypatch.setattr(smoothers, "smooth", bad_params)
        code = main(["smooth", "--corpus", str(tiny), "--order", "2",
                     "--method", "addlambda", "--out", str(tmp_path / "x.tsv")])
        assert code == 2
        assert "internal error" not in capsys.readouterr().err

    def test_out_of_memory_exit_2_one_line(self, tiny, tmp_path, capsys, monkeypatch):
        # a vocabulary whose dense rows do not fit used to end in a
        # traceback and exit 1, the code of a failed verification
        import smoothlm.cli as cli_mod

        def too_large(lm, path):
            raise MemoryError("Unable to allocate 26.8 GiB for an array with shape "
                              "(60002, 60002) and data type float64")

        monkeypatch.setattr(cli_mod, "write_conditional_lm", too_large)
        code = main(["smooth", "--corpus", str(tiny), "--order", "2",
                     "--method", "addlambda", "--out", str(tmp_path / "x.tsv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: out of memory: Unable to allocate 26.8 GiB for an array with shape "
            "(60002, 60002) and data type float64"]

    def test_from_counts_file(self, tiny, tmp_path):
        counts = tmp_path / "c.tsv"
        main(["count", "--corpus", str(tiny), "--order", "2", "--out", str(counts)])
        out = tmp_path / "lm.tsv"
        code = main(["smooth", "--counts", str(counts), "--method", "addlambda",
                     "--out", str(out)])
        assert code == 0


BAD_PARAMS = [
    ("addlambda", '{"lambda":"x"}', "'lambda' must be a finite number"),
    ("addlambda", "[1]", "params must be a JSON object"),
    ("jm", '{"lambdas":0.5}', "'lambdas' must be a list of numbers"),
    # each of these used to exit 0: the key was dropped, or 5.5 ran as 5
    ("addlambda", '{"lamda":0.1}', "add_lambda takes no parameter 'lamda'"),
    ("ken", '{"k":3}', "kneser_essen_ney takes no parameter 'k'"),
    ("katz", '{"k":5.5}', "'k' must be an integer"),
]


@pytest.mark.parametrize("method,params,message", BAD_PARAMS)
@pytest.mark.parametrize("command", ["smooth", "decompose"])
def test_badly_typed_params_exit_2(tiny, tmp_path, capsys, command, method, params, message):
    code = main([command, "--corpus", str(tiny), "--order", "2", "--method", method,
                 "--params", params, "--out", str(tmp_path / "x.tsv")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["smooth", "decompose"])
def test_bad_params_exit_2_before_reading_input(tmp_path, capsys, command):
    # the parameters are checked before the (here missing) corpus is read
    code = main([command, "--corpus", str(tmp_path / "nope.txt"), "--method", "katz",
                 "--params", '{"k":5.5}', "--out", str(tmp_path / "x.tsv")])
    assert code == 2
    assert "'k' must be an integer" in capsys.readouterr().err


OUT_OF_RANGE = [
    ("ken", {"D": 1.5}, 2, "D must lie in (0, 1), got 1.5"),
    ("addlambda", {"lambda": -1}, 2, "lambda must be > 0, got -1.0"),
    ("katz", {"k": 0}, 2, "k must be >= 1, got 0"),
    ("jm", {"lambdas": [0.5]}, 2, "need 2 interpolation weights, got 1"),
    ("jm", {"lambdas": [0.5, 1.5]}, 2, "interpolation weight 1.5 outside [0, 1]"),
    ("ken", {}, 1, "Kneser-Essen-Ney needs an order >= 2 table"),
]


@pytest.mark.parametrize("method, params, order, message", OUT_OF_RANGE)
@pytest.mark.parametrize("command", ["train", "grid", "smooth", "decompose"])
def test_out_of_range_params_exit_2_before_reading_input(tmp_path, capsys, command, method,
                                                         params, order, message):
    # each used to pass validation and fail only once the corpus was read
    # and out_dir made; here the corpus does not exist
    missing, out = str(tmp_path / "nope.txt"), tmp_path / "out"
    if command in ("smooth", "decompose"):
        argv = [command, "--corpus", missing, "--order", str(order), "--method", method,
                "--params", json.dumps(params), "--out", str(out)]
    else:
        # a grid reads each method_params list as the key's candidates
        grid_params = {key: [value] for key, value in params.items()}
        cfg = {"corpus_path": missing, "heldout_path": missing, "arch": "tabular",
               "order": order, "objective": "split_regularizer", "method": method,
               "method_params": grid_params if command == "grid" else params,
               "epochs": 1, "out_dir": str(out)}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = [command, "--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "No such file" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["smooth", "decompose"])
@pytest.mark.parametrize("source", [
    ["--counts", "COUNTS", "--corpus", "CORPUS"],
    # a count file fixes the order: --order 2 used to write its order-3 LM
    ["--counts", "COUNTS", "--order", "2"],
    [],
], ids=["counts-and-corpus", "counts-and-order", "neither"])
def test_exactly_one_input_exit_2(tiny, tmp_path, capsys, command, source):
    counts = tmp_path / "c3.tsv"
    assert main(["count", "--corpus", str(tiny), "--order", "3", "--out", str(counts)]) == 0
    argv = [{"COUNTS": str(counts), "CORPUS": str(tiny)}.get(a, a) for a in source]
    out = tmp_path / "x.tsv"
    assert main([command, *argv, "--method", "addlambda", "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("method,params,message", BAD_PARAMS)
def test_badly_typed_method_params_exit_2_in_train(tiny, tmp_path, capsys, method, params,
                                                   message):
    code = main(["train", "--corpus-path", str(tiny), "--arch", "tabular",
                 "--objective", "split_regularizer", "--method", method,
                 "--method-params", params, "--epochs", "1", "--out-dir", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, values, message", [
    ("train", {"lr": "x"}, "lr must be of type float"),
    ("train", {"epochs": 2.5}, "epochs must be of type int"),
    ("train", {"order": "2"}, "order must be of type int"),
    ("grid", {"gamma_plus": ["x"]}, "gamma_plus must be of type float"),
    ("train", ["lr", 0.5], "a run config must be a JSON object"),
    ("train", {"objective": "split_regularizer", "method": 5}, "method must be of type str"),
    ("train", {"objective": "split_regularizer", "method_params": 5},
     "params must be a JSON object"),
    ("train", {"corpus_path": 3}, "corpus_path must be of type str | None"),
    ("train", {"heldout_path": ["held.txt"]}, "heldout_path must be of type str | None"),
    ("train", {"out_dir": 5}, "out_dir must be of type str | None"),
    ("grid", {"heldout_path": 4}, "heldout_path must be of type str | None"),
    # each of these used to be refused only after the corpora were read
    # and out_dir made, or (a misspelt key) not at all
    ("train", {"objective": "split_regularizer", "method": None}, "needs a smoothing method"),
    ("grid", {"method": None}, "objective split_regularizer needs a smoothing method"),
    ("train", {"objective": "smoothed_target", "method": "witten_bell"},
     "unknown smoothing method 'witten_bell'"),
    ("grid", {"method_params": {"lamda": 0.1}}, "add_lambda takes no parameter 'lamda'"),
    ("train", {"objective": "split_regularizer", "method": "katz", "method_params": {"k": 5.5}},
     "'k' must be an integer"),
    ("grid", {"gamma_minus": 1.5}, "gamma_minus must be <= 1, got 1.5"),
    # a non-finite float used to fail training with a traceback and exit 1,
    # after out_dir was made; a tuple holds flags given over a valid config
    ("train", ("--lr", "nan"), "lr must be finite, got nan"),
    ("train", ("--lr", "inf"), "lr must be finite, got inf"),
    ("train", ("--gamma-ls", "inf"), "gamma_ls must be finite, got inf"),
    ("train", ("--gamma-plus", "nan"), "gamma_plus must be finite, got nan"),
    ("train", ("--arch", "feedforward", "--init-scale", "nan"), "init_scale must be finite"),
    ("grid", ("--gamma-minus", "nan"), "gamma_minus must be finite, got nan"),
    ("grid", ("--lr=-inf",), "lr must be finite, got -inf"),
    ("train", {"gamma_minus": math.nan}, "gamma_minus must be finite, got nan"),
    ("train", {"init_scale": -math.inf}, "init_scale must be finite, got -inf"),
    ("grid", {"gamma_plus": [0.1, math.nan]}, "gamma_plus must be finite, got nan"),
    ("grid", {"gamma_ls": math.inf}, "gamma_ls must be finite, got inf"),
    ("train", {"arch": "rnn"}, "error: unknown architecture 'rnn'"),
    ("grid", ("--arch", "rnn"), "error: unknown architecture 'rnn'"),
    # a path given as null, which is how a path left out reads
    ("train", {"corpus_path": None}, "need corpus_path (flag --corpus-path or config key)"),
    ("train", {"out_dir": None}, "need out_dir (flag --out-dir or config key)"),
    ("grid", {"corpus_path": None}, "grid needs corpus_path and heldout_path"),
    ("grid", {"heldout_path": None}, "grid needs corpus_path and heldout_path"),
    ("grid", {"out_dir": None}, "error: need out_dir\n"),
])
def test_badly_typed_config_exit_2(zipf, tmp_path, capsys, command, values, message):
    train, held = zipf
    cfg, flags = values, ()
    if isinstance(values, tuple):
        cfg, flags = {}, values
    if isinstance(cfg, dict):
        cfg = {"corpus_path": str(train), "heldout_path": str(held), "arch": "tabular",
               "method": "addlambda", "epochs": 1, "out_dir": str(tmp_path / "run"), **cfg}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main([command, "--config", str(path), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [
    ("embed_dim", 0), ("embed_dim", -1), ("hidden_dim", 0), ("seed", -1), ("patience", 0),
    # the feedforward model used to refuse order 1 only after the corpus
    # was read and out_dir made
    ("order", 1), ("order", 0),
])
@pytest.mark.parametrize("command", ["train", "grid"])
def test_out_of_range_config_exit_2(zipf, tmp_path, capsys, command, key, value):
    # embed_dim 0 used to train a model blind to its history, and patience 0
    # to run as patience 1
    train, held = zipf
    cfg = {"corpus_path": str(train), "heldout_path": str(held), "method": "addlambda",
           "epochs": 1, "out_dir": str(tmp_path / "run"), key: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main([command, "--config", str(path)]) == 2
    assert f"{key} must be >= " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


RUN_FLAGS = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("command, own_flags", [
    ("train", {"--config"}), ("grid", {"--config", "--cap", "--workers"}),
])
def test_run_flags_are_the_config_fields(command, own_flags):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for action in sub.choices[command]._actions for opt in action.option_strings}
    assert flags == {"-h", "--help", *own_flags, *RUN_FLAGS}
    assert len(RUN_FLAGS) == 18


def test_example_config_keys_are_the_config_fields():
    keys = json.loads(EXAMPLE_CONFIG.read_text(encoding="utf-8"))
    assert set(keys) == {f.name for f in dataclasses.fields(RunConfig)}


def test_malformed_config_file_exit_2_names_it(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"epochs": 1, ', encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 2
    assert f"{path}: Expecting" in capsys.readouterr().err


def test_help_returns_0(capsys):
    assert main(["train", "--help"]) == 0
    assert "--embed-dim" in capsys.readouterr().out


@pytest.mark.parametrize("command, values, message", [
    # a misspelt key used to be dropped, so this ran 200 epochs of mle
    ("train", {"epoch": 1, "objectve": "label_smoothing"},
     "unknown config key(s) 'epoch', 'objectve'"),
    ("grid", {"gamma": [0.1]}, "unknown config key(s) 'gamma'"),
])
def test_unknown_config_key_exit_2(zipf, tmp_path, capsys, command, values, message):
    train, held = zipf
    cfg = {"corpus_path": str(train), "heldout_path": str(held), "arch": "tabular",
           "out_dir": str(tmp_path / "run"), **values}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {message}" in err
    assert not (tmp_path / "run").exists()


class TestDecompose:
    def test_writes_rows(self, tiny, tmp_path):
        out = tmp_path / "dec.tsv"
        code = main(["decompose", "--corpus", str(tiny), "--order", "2",
                     "--method", "addlambda", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("history\tsymbol\tp_plus")
        assert len(rows) == 1 + 3 * 3  # 3 histories x 3 emissions

    @pytest.mark.parametrize("flag", ["--gamma-plus", "--gamma-minus"])
    def test_gamma_flags_are_gone(self, tiny, tmp_path, flag):
        # they never reached the file, which has no gamma column
        out = tmp_path / "dec.tsv"
        assert main(["decompose", "--corpus", str(tiny), "--method", "addlambda",
                     flag, "0.3", "--out", str(out)]) == 2
        assert not out.exists()


class TestTrainEval:
    def test_train_writes_model_and_metrics(self, zipf, tmp_path, capsys):
        train, held = zipf
        out_dir = tmp_path / "run"
        code = main(["train", "--corpus-path", str(train), "--heldout-path", str(held),
                     "--arch", "feedforward", "--objective", "mle",
                     "--epochs", "30", "--lr", "0.3", "--embed-dim", "4",
                     "--hidden-dim", "6", "--out-dir", str(out_dir)])
        assert code == 0
        doc = json.loads((out_dir / "model.json").read_text())
        assert doc["architecture"] == "feedforward"
        lines = (out_dir / "metrics.tsv").read_text().splitlines()
        assert lines[0] == "epoch\ttrain_loss\theldout_ppl"
        assert len(lines) >= 2

    def test_train_deterministic_model(self, zipf, tmp_path):
        train, held = zipf
        argsets = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            main(["train", "--corpus-path", str(train), "--arch", "tabular",
                  "--objective", "mle", "--epochs", "20", "--lr", "1.0",
                  "--out-dir", str(out_dir)])
            argsets.append((out_dir / "model.json").read_bytes())
        assert argsets[0] == argsets[1]

    def test_eval_model(self, zipf, tmp_path, capsys):
        train, held = zipf
        out_dir = tmp_path / "run"
        main(["train", "--corpus-path", str(train), "--arch", "tabular",
              "--objective", "mle", "--epochs", "20", "--lr", "1.0",
              "--out-dir", str(out_dir)])
        capsys.readouterr()
        code = main(["eval", "--model", str(out_dir / "model.json"),
                     "--corpus", str(held)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("perplexity\t")
        assert float(out.split("\t")[1]) > 1.0

    @pytest.mark.parametrize("arch", ["tabular", "feedforward"])
    @pytest.mark.parametrize("change, message", [
        pytest.param(lambda doc: [doc], "a model file must be a JSON object, got list",
                     id="list"),
        pytest.param(lambda doc: {**doc, "order": "2"},
                     "order and dims values must be ints, got '2'", id="string order"),
        pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "params"},
                     "'params' not found", id="no params"),
        pytest.param(lambda doc: {**doc, "dims": {k: 4.0 for k in doc["dims"]}},
                     "order and dims values must be ints", id="float dims"),
    ])
    def test_malformed_model_file_exit_2(self, tiny, tmp_path, capsys, arch, change, message):
        main(["train", "--corpus-path", str(tiny), "--arch", arch, "--epochs", "1",
              "--embed-dim", "2", "--hidden-dim", "2", "--out-dir", str(tmp_path)])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(change(json.loads(path.read_text()))), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "--model", str(path), "--corpus", str(tiny)]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("arch, key, value, message", [
        ("tabular", "params", [1], "params must be a JSON object"),
        ("feedforward", "params", [1], "params must be a JSON object"),
        ("tabular", "vocab", 5, "vocab must be a list of strings"),
        ("feedforward", "vocab", 5, "vocab must be a list of strings"),
        ("tabular", "histories", [1, 2], "histories must be a list of strings"),
        ("feedforward", "params", {"E": "x"}, "params 'E' must be a finite array of shape"),
    ])
    def test_badly_typed_model_value_exit_2(self, tiny, tmp_path, capsys, arch, key, value,
                                            message):
        main(["train", "--corpus-path", str(tiny), "--arch", arch, "--epochs", "1",
              "--embed-dim", "2", "--hidden-dim", "2", "--out-dir", str(tmp_path)])
        path = tmp_path / "model.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, key: value}), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "--model", str(path), "--corpus", str(tiny)]) == 2
        assert f"error: {path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--model", "model.json", "--lm", "lm.tsv"]],
                             ids=["neither", "both"])
    def test_eval_takes_exactly_one_model(self, tiny, capsys, flags):
        # with both, one of them would be ignored; main returns argparse's
        # exit code rather than raising SystemExit
        assert main(["eval", *flags, "--corpus", str(tiny)]) == 2
        assert "--model" in capsys.readouterr().err

    def test_eval_lm_tsv(self, tiny, tmp_path, capsys):
        lm = tmp_path / "lm.tsv"
        main(["smooth", "--corpus", str(tiny), "--order", "2",
              "--method", "addlambda", "--out", str(lm)])
        capsys.readouterr()
        code = main(["eval", "--lm", str(lm), "--corpus", str(tiny)])
        assert code == 0
        assert capsys.readouterr().out.startswith("perplexity\t")


    def test_eval_lm_with_nan_exit_2(self, tiny, tmp_path, capsys):
        lm = tmp_path / "lm.tsv"
        main(["smooth", "--corpus", str(tiny), "--order", "2",
              "--method", "addlambda", "--out", str(lm)])
        lines = lm.read_text().splitlines()
        h, x, _ = lines[2].split("\t")
        lines[2] = f"{h}\t{x}\tnan"
        lm.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["eval", "--lm", str(lm), "--corpus", str(tiny)]) == 2
        assert "nan" in capsys.readouterr().err


class TestGrid:
    def make_config(self, tmp_path, train, held, out_dir, seed=0, gamma_minus=(0.5,),
                    arch="feedforward"):
        cfg = {
            "corpus_path": str(train),
            "heldout_path": str(held),
            "order": 2,
            "arch": arch,
            "method": "jelinek_mercer",
            "method_params": {"lambdas": [[0.5, 0.5], [0.75, 0.75]]},
            "gamma_plus": [0.5, 1.0],
            "gamma_minus": list(gamma_minus),
            "lr": 0.3,
            "epochs": 25,
            "patience": 10,
            "seed": seed,
            "embed_dim": 4,
            "hidden_dim": 6,
            "out_dir": str(out_dir),
        }
        p = tmp_path / f"grid_{out_dir.name}.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        return p

    def test_row_count_and_sorting(self, zipf, tmp_path):
        train, held = zipf
        out_dir = tmp_path / "g1"
        cfg = self.make_config(tmp_path, train, held, out_dir)
        assert main(["grid", "--config", str(cfg)]) == 0
        lines = (out_dir / "grid_results.tsv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 1 * 2  # gammas x lambda candidates
        ppls = [float(ln.split("\t")[4]) for ln in lines[1:]]
        assert ppls == sorted(ppls)

    def test_determinism_byte_identical(self, zipf, tmp_path):
        train, held = zipf
        d1, d2 = tmp_path / "g1", tmp_path / "g2"
        c1 = self.make_config(tmp_path, train, held, d1, seed=3)
        c2 = self.make_config(tmp_path, train, held, d2, seed=3)
        main(["grid", "--config", str(c1)])
        main(["grid", "--config", str(c2)])
        assert (d1 / "grid_results.tsv").read_bytes() == (d2 / "grid_results.tsv").read_bytes()

    def test_cap_exceeded_exit_2(self, zipf, tmp_path, capsys):
        train, held = zipf
        out_dir = tmp_path / "g3"
        cfg = self.make_config(tmp_path, train, held, out_dir)
        code = main(["grid", "--config", str(cfg), "--cap", "2"])
        assert code == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [[1], "D", 0.5])
    def test_method_params_not_an_object_exit_2(self, zipf, tmp_path, capsys, params):
        train, held = zipf
        out_dir = tmp_path / "g"
        path = self.make_config(tmp_path, train, held, out_dir)
        cfg = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**cfg, "method_params": params}), encoding="utf-8")
        assert main(["grid", "--config", str(path)]) == 2
        assert "method_params must be a JSON object" in capsys.readouterr().err
        assert not (out_dir / "grid_results.tsv").exists()

    @pytest.mark.parametrize("change, message", [
        # an empty list used to write a header-only file and exit 0
        ({"gamma_plus": []}, "gamma_plus has no candidate values"),
        ({"method_params": {"lambdas": []}}, "method_params['lambdas'] has no candidate values"),
        # a bad candidate used to fail only after the cells before it trained
        ({"gamma_plus": [0.1, "x"]}, "gamma_plus must be of type float, got 'x'"),
        ({"gamma_minus": [0.5], "embed_dim": [4, 8]}, "embed_dim must be of type int"),
        # these used to train the cells before the bad one, or every cell
        # under the default while labelling its row with the misspelt key
        ({"gamma_minus": [0.5, 1.5]}, "gamma_minus must be <= 1, got 1.5"),
        ({"method": "ken", "method_params": {"d": [0.5, 0.75]}},
         "kneser_essen_ney takes no parameter 'd'"),
        ({"method_params": {"lambdas": [0.5, 0.5]}}, "'lambdas' must be a list of numbers"),
        ({"method": "katz", "method_params": {"k": [5, 5.5]}}, "'k' must be an integer"),
        ({"method": "ken", "method_params": {"D": [0.5, 1.5]}}, "D must lie in (0, 1), got 1.5"),
    ])
    def test_bad_candidates_exit_2_before_any_work(self, zipf, tmp_path, capsys, monkeypatch,
                                                   change, message):
        import smoothlm.cli as cli_mod

        loaded = []
        monkeypatch.setattr(cli_mod, "load_corpus", lambda *a, **k: loaded.append(a))
        train, held = zipf
        out_dir = tmp_path / "g"
        path = self.make_config(tmp_path, train, held, out_dir)
        cfg = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**cfg, **change}), encoding="utf-8")
        assert main(["grid", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert loaded == []
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2_before_any_input(self, tmp_path, capsys, workers):
        # these used to run the grid serially; the config file, here
        # missing, is not read either
        missing = tmp_path / "nope.json"
        assert main(["grid", "--config", str(missing), f"--workers={workers}"]) == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err

    def test_run_flags_override_the_config(self, zipf, tmp_path):
        train, held = zipf
        expected_dir, out_dir = tmp_path / "expected", tmp_path / "g"
        path = self.make_config(tmp_path, train, held, out_dir)
        cfg = json.loads(path.read_text(encoding="utf-8"))
        expected = tmp_path / "expected.json"
        expected.write_text(json.dumps({**cfg, "lr": 0.1, "hidden_dim": 5,
                                        "out_dir": str(expected_dir)}), encoding="utf-8")
        assert main(["grid", "--config", str(expected)]) == 0
        # `grid` used to take 6 of `train`'s 18 flags, and --lr was not one
        assert main(["grid", "--config", str(path), "--lr", "0.1", "--hidden-dim", "5"]) == 0
        assert ((out_dir / "grid_results.tsv").read_bytes()
                == (expected_dir / "grid_results.tsv").read_bytes())

    def test_worker_pool_matches_sequential(self, zipf, tmp_path):
        train, held = zipf
        d1, d2 = tmp_path / "seq", tmp_path / "par"
        c1 = self.make_config(tmp_path, train, held, d1, seed=1)
        c2 = self.make_config(tmp_path, train, held, d2, seed=1)
        main(["grid", "--config", str(c1)])
        main(["grid", "--config", str(c2), "--workers", "2"])
        assert (d1 / "grid_results.tsv").read_bytes() == (d2 / "grid_results.tsv").read_bytes()

    @staticmethod
    def read_rows(out_dir):
        lines = (out_dir / "grid_results.tsv").read_text().splitlines()[1:]
        return {tuple(ln.split("\t")[:3]): ln.split("\t")[3:] for ln in lines}

    def test_cell_matches_library_training(self, zipf, tmp_path):
        # the grid trains every cell on the bundle of its method_params
        # candidate, built for the first of them, and into the one workspace
        # of all the cells; each row is its cell trained alone, with a
        # bundle and a workspace of its own, so no cell leaves state behind
        train, held = zipf
        corpus = load_corpus(str(train))
        heldout = load_corpus(str(held), vocab=corpus.vocab)
        for arch in ("tabular", "feedforward"):
            out_dir = tmp_path / arch
            assert main(["grid", "--config", str(self.make_config(
                tmp_path, train, held, out_dir, seed=2, gamma_minus=(0.1, 0.5),
                arch=arch))]) == 0
            rows = self.read_rows(out_dir)
            assert len(rows) == 8
            for lam, gp, gm in itertools.product((0.5, 0.75), (0.5, 1.0), (0.1, 0.5)):
                config = neural.TrainConfig(
                    objective="split_regularizer", method="jelinek_mercer",
                    method_params={"lambdas": [lam, lam]}, gamma_plus=gp, gamma_minus=gm,
                    lr=0.3, epochs=25, patience=10, seed=2)
                if arch == "tabular":
                    model = neural.TabularSoftmaxLM.for_table(count_ngrams(corpus, 2))
                else:
                    model = neural.FeedForwardLM(2, corpus.vocab, 4, 6, seed=2, init_scale=0.1)
                _, m = neural.train(model, corpus, config, heldout=heldout)
                row = rows[(json.dumps({"lambdas": [lam, lam]}, separators=(",", ":")),
                            f"{gp:.10g}", f"{gm:.10g}")]
                assert row == [f"{m.train_loss[-1]:.10g}", f"{min(m.heldout_ppl):.10g}",
                               str(m.epochs_run)], (arch, lam, gp, gm)

    def test_checked_in_example_config_runs(self, tmp_path, capsys):
        # the README's run-config schema example: a key that drifts from the
        # train options exits 2, and a drifted grid expansion writes another
        # number of rows
        train, held = tmp_path / "train.txt", tmp_path / "held.txt"
        train.write_text("\n".join(markov_zipf_lines(60, 8, seed=1)) + "\n", encoding="utf-8")
        held.write_text("\n".join(markov_zipf_lines(20, 8, seed=2)) + "\n", encoding="utf-8")
        out_dir = tmp_path / "grid_out"
        assert main(["grid", "--config", str(EXAMPLE_CONFIG), "--corpus-path", str(train),
                     "--heldout-path", str(held), "--out-dir", str(out_dir),
                     "--epochs", "1"]) == 0
        rows = self.read_rows(out_dir)
        assert len(rows) == 2 * 3 * 3  # lambdas candidates x gamma_plus x gamma_minus
        assert {key[0] for key in rows} == {'{"lambdas":[0.5,0.5]}', '{"lambdas":[0.75,0.75]}'}

    def test_corpora_and_bundles_built_once(self, zipf, tmp_path, monkeypatch):
        import smoothlm.cli as cli_mod
        import smoothlm.corpus as corpus_mod

        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli_mod, "load_corpus", counted("load_corpus", load_corpus))
        monkeypatch.setattr(neural, "make_bundle_for",
                            counted("make_bundle_for", neural.make_bundle_for))
        # every module that counts a corpus (neural counts through
        # corpus.table_at): the grid counts each corpus once, and the
        # bundles are built from the training table
        count_ngrams = counted("count_ngrams", corpus_mod.count_ngrams)
        for mod in (cli_mod, corpus_mod):
            monkeypatch.setattr(mod, "count_ngrams", count_ngrams)
        train, held = zipf
        out_dir = tmp_path / "g"
        cfg = self.make_config(tmp_path, train, held, out_dir, gamma_minus=(0.25, 0.5))
        assert main(["grid", "--config", str(cfg)]) == 0
        assert len(self.read_rows(out_dir)) == 2 * 4  # lambda candidates x gamma pairs
        assert calls == {"load_corpus": 2, "make_bundle_for": 2, "count_ngrams": 2}

    def test_second_call_reads_rewritten_corpus(self, zipf, tmp_path):
        train, held = zipf
        other = tmp_path / "other.txt"
        other.write_text("\n".join(markov_zipf_lines(80, 8, seed=5)) + "\n", encoding="utf-8")
        expected_dir = tmp_path / "expected"
        assert main(["grid", "--config",
                     str(self.make_config(tmp_path, other, held, expected_dir))]) == 0
        out_dir = tmp_path / "g"
        cfg = self.make_config(tmp_path, train, held, out_dir)
        assert main(["grid", "--config", str(cfg)]) == 0
        first = (out_dir / "grid_results.tsv").read_bytes()
        train.write_text(other.read_text(encoding="utf-8"), encoding="utf-8")
        assert main(["grid", "--config", str(cfg)]) == 0
        second = (out_dir / "grid_results.tsv").read_bytes()
        assert second != first
        assert second == (expected_dir / "grid_results.tsv").read_bytes()


@pytest.mark.parametrize("command", ["train", "grid"])
def test_diverging_run_exit_2(zipf, tmp_path, capsys, command):
    # a learning rate this large overflows the first step's parameters, so
    # the second epoch's loss is not finite: the user's setting, not our bug
    train, held = zipf
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"corpus_path": str(train), "heldout_path": str(held),
                               "arch": "feedforward", "method": "ken",
                               "out_dir": str(tmp_path / "run")}), encoding="utf-8")
    args = [command, "--config", str(cfg)]
    # the overflow on the way there raises no numpy warning, which this
    # suite's filterwarnings setting would turn into an error
    code = main(args + ["--lr", "1e308", "--epochs", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss") and "Traceback" not in err


def test_diverging_run_writes_one_stderr_line(zipf, tmp_path, capfd):
    # a process of its own writes numpy's warnings, if any, to the stderr
    # that capfd reads, as the console script's would be
    train, held = zipf
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = subprocess.run(
        [sys.executable, "-c", "import sys; from smoothlm.cli import main; sys.exit(main())",
         "train", "--corpus-path", str(train), "--heldout-path", str(held),
         "--arch", "feedforward", "--method", "ken", "--lr", "1e308", "--epochs", "5",
         "--out-dir", str(tmp_path / "run")], env=env).returncode
    assert code == 2
    assert re.fullmatch(r"error: non-finite loss nan at epoch \d+\n", capfd.readouterr().err)


class TestVerifyCommand:
    def test_all_five_lines_exit_0(self, capsys):
        code = main(["verify", "--all", "--seed", "0", "--trials", "20"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert [ln.split()[0] for ln in lines] == ["T1", "COR", "T2", "T3", "CE_LINEARITY"]
        assert all("PASS" in ln for ln in lines)

    def test_forced_failure_tolerance_zero(self, capsys):
        code = main(["verify", "--theorem", "T1", "--trials", "5", "--tolerance", "0"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_single_theorem_one_line(self, capsys):
        code = main(["verify", "--theorem", "T3", "--trials", "50"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("T3 trials=50")

    def test_unknown_theorem_exit_2(self, capsys):
        assert main(["verify", "--theorem", "T9"]) == 2

    def test_zero_trials_exit_2(self, capsys):
        # a check of no trials would pass vacuously
        assert main(["verify", "--theorem", "T3", "--trials", "0"]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        *[pytest.param([f"--tolerance={value}"], "tolerance must be finite and >= 0", id=value)
          for value in ["nan", "-1", "inf", "-inf"]],
        # numpy refused a negative seed with an error that named no flag
        pytest.param(["--seed=-1"], "seed must be >= 0", id="seed=-1"),
        # --all --theorem T3 ran T3 alone
        pytest.param(["--all", "--theorem", "T3"], "not allowed with argument",
                     id="all-and-theorem"),
    ])
    def test_bad_tolerance_exit_2_before_any_check(self, capsys, monkeypatch, flags, message):
        # NaN and -1 used to print FAIL and exit 1, and inf passed every check
        def check(**kwargs):
            raise AssertionError("a check ran")

        for name in verify.CHECKS:
            monkeypatch.setitem(verify.CHECKS, name, check)
        assert main(["verify", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize("flags, kwargs", [
        (["--theorem", "T1", "--trials", "5", "--tolerance", "0"],
         {"T1": {"trials": 5, "tolerance": 0.0}}),
        # T2 takes no trial count, so --trials does not reach it
        (["--theorem", "t2", "--trials", "5"], {"T2": {}}),
        (["--seed", "3", "--trials", "5", "--tolerance", "1"],
         {name: {"tolerance": 1.0, **({} if name == "T2" else {"trials": 5})}
          for name in verify.CHECKS}),
    ])
    def test_flags_reach_the_check(self, capsys, flags, kwargs):
        code = main(["verify", *flags])
        reports = [verify.CHECKS[name](seed=3 if "--seed" in flags else 0, **kw)
                   for name, kw in kwargs.items()]
        assert capsys.readouterr().out == "".join(r.line() + "\n" for r in reports)
        assert code == (0 if all(r.passed for r in reports) else 1)


@lru_cache(maxsize=None)
def saved_model(arch: str) -> str:
    """The text of a saved model of `arch` over the vocabulary (a, b)."""
    corpus = corpus_from_lines(["a b", "b a"])
    if arch == "tabular":
        model = neural.TabularSoftmaxLM.for_table(count_ngrams(corpus, 2))
        model.logits[...] = np.random.default_rng(0).normal(size=model.logits.shape)
    else:
        model = neural.FeedForwardLM(2, corpus.vocab, 2, 3, seed=0)
    with tempfile.TemporaryDirectory() as d:
        neural.save_model(model, os.path.join(d, "model.json"))
        with open(os.path.join(d, "model.json"), encoding="utf-8") as f:
            return f.read()


# JSON values; integers stay small, so a corrupted order or dim cannot ask
# for a large allocation before the file's arrays refuse it
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)


@pytest.mark.parametrize("token", ["", "a b", "c\td"])
@pytest.mark.parametrize("arch", ["tabular", "feedforward"])
def test_model_file_token_with_whitespace_exit_2(tmp_path, capsys, arch, token):
    # a corpus line split on whitespace cannot hold such a token
    doc = json.loads(saved_model(arch))
    doc["vocab"][1] = token
    path, text = tmp_path / "model.json", tmp_path / "held.txt"
    path.write_text(json.dumps(doc), encoding="utf-8")
    text.write_text("a b\n", encoding="utf-8")
    with pytest.raises(ValueError, match="is empty or contains whitespace"):
        neural.load_model(str(path))
    assert main(["eval", "--model", str(path), "--corpus", str(text)]) == 2
    assert f"error: {path}: token {token!r} is empty" in capsys.readouterr().err


@settings(max_examples=150, deadline=None)
@given(arch=st.sampled_from(["tabular", "feedforward"]), data=st.data())
def test_corrupted_model_file_loads_or_names_itself(arch, data):
    # one key of the document, of its dims or of its params, removed or
    # given another value
    doc = json.loads(saved_model(arch))
    where = data.draw(st.sampled_from(["doc", "dims", "params"]))
    part = doc if where == "doc" else doc[where]
    key = data.draw(st.sampled_from(sorted(part)))
    if data.draw(st.booleans()):
        del part[key]
    else:
        part[key] = data.draw(JSON_VALUES)
    with tempfile.TemporaryDirectory() as d:
        path, text = os.path.join(d, "model.json"), os.path.join(d, "held.txt")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        with open(text, "w", encoding="utf-8") as f:
            f.write("a b\nb a\n")
        try:
            neural.load_model(path)
            loaded = True
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
            loaded = False
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["eval", "--model", path, "--corpus", text])
    # a model that loads may still not fit the corpus, a usage error too
    assert code in ((0, 2) if loaded else (2,))
    if not loaded:
        assert f"error: {path}: " in err.getvalue()
