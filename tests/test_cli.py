"""End-to-end CLI tests: exit codes, file formats, idempotence."""

import json
from collections import Counter

import pytest

from smoothlm import neural
from smoothlm.cli import main
from smoothlm.corpus import load_corpus
from smoothlm.ngram import NormalizationError
from smoothlm.verify import zipf_lines


@pytest.fixture
def tiny(tmp_path):
    p = tmp_path / "tiny.txt"
    p.write_text("a b\nb a\n", encoding="utf-8")
    return p


@pytest.fixture
def zipf(tmp_path):
    train = tmp_path / "train.txt"
    held = tmp_path / "held.txt"
    train.write_text("\n".join(zipf_lines(80, 8, seed=1)) + "\n", encoding="utf-8")
    held.write_text("\n".join(zipf_lines(20, 8, seed=2)) + "\n", encoding="utf-8")
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

    def test_normalization_breach_exit_3(self, tiny, tmp_path, capsys, monkeypatch):
        import smoothlm.cli as cli_mod

        def broken_smooth(table, method, params=None):
            raise NormalizationError("history a: probabilities sum to 0.7, not 1")

        monkeypatch.setattr(cli_mod, "smooth", broken_smooth)
        code = main(["smooth", "--corpus", str(tiny), "--order", "2",
                     "--method", "addlambda", "--out", str(tmp_path / "x.tsv")])
        assert code == 3
        assert "internal error" in capsys.readouterr().err

    def test_plain_value_error_naming_a_sum_exit_2(self, tiny, tmp_path, capsys, monkeypatch):
        # only the typed error is an invariant breach, whatever a message says
        import smoothlm.cli as cli_mod

        def bad_params(table, method, params=None):
            raise ValueError("weights must sum to 1")

        monkeypatch.setattr(cli_mod, "smooth", bad_params)
        code = main(["smooth", "--corpus", str(tiny), "--order", "2",
                     "--method", "addlambda", "--out", str(tmp_path / "x.tsv")])
        assert code == 2
        assert "internal error" not in capsys.readouterr().err

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
]


@pytest.mark.parametrize("method,params,message", BAD_PARAMS)
@pytest.mark.parametrize("command", ["smooth", "decompose"])
def test_badly_typed_params_exit_2(tiny, tmp_path, capsys, command, method, params, message):
    code = main([command, "--corpus", str(tiny), "--order", "2", "--method", method,
                 "--params", params, "--out", str(tmp_path / "x.tsv")])
    assert code == 2
    assert message in capsys.readouterr().err


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
    ("train", {"order": "2"}, "config key 'order' must be of type int"),
    ("grid", {"gamma_plus": ["x"]}, "gamma_plus must be of type float"),
    ("train", ["lr", 0.5], "a run config must be a JSON object"),
    ("train", {"objective": "split_regularizer", "method": 5}, "method must be of type str"),
    ("train", {"objective": "split_regularizer", "method_params": 5},
     "params must be a JSON object"),
    ("train", {"corpus_path": 3}, "config key 'corpus_path' must be of type str"),
    ("train", {"heldout_path": ["held.txt"]}, "config key 'heldout_path' must be of type str"),
    ("train", {"out_dir": 5}, "config key 'out_dir' must be of type str"),
    ("grid", {"heldout_path": 4}, "config key 'heldout_path' must be of type str"),
])
def test_badly_typed_config_exit_2(zipf, tmp_path, capsys, command, values, message):
    train, held = zipf
    cfg = values
    if isinstance(values, dict):
        cfg = {"corpus_path": str(train), "heldout_path": str(held), "arch": "tabular",
               "method": "addlambda", "epochs": 1, "out_dir": str(tmp_path / "run"), **values}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main([command, "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


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
    def make_config(self, tmp_path, train, held, out_dir, seed=0, gamma_minus=(0.5,)):
        cfg = {
            "corpus_path": str(train),
            "heldout_path": str(held),
            "order": 2,
            "arch": "feedforward",
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
        train, held = zipf
        out_dir = tmp_path / "g"
        assert main(["grid", "--config", str(self.make_config(tmp_path, train, held, out_dir,
                                                              seed=2))]) == 0
        corpus = load_corpus(str(train))
        heldout = load_corpus(str(held), vocab=corpus.vocab)
        # the second gamma pair of a method_params candidate, so the grid
        # trains it on a bundle it built for another cell
        config = neural.TrainConfig(
            objective="split_regularizer", method="jelinek_mercer",
            method_params={"lambdas": [0.5, 0.5]}, gamma_plus=1.0, gamma_minus=0.5,
            lr=0.3, epochs=25, patience=10, seed=2)
        model = neural.FeedForwardLM(2, corpus.vocab, 4, 6, seed=2, init_scale=0.1)
        _, m = neural.train(model, corpus, config, heldout=heldout)
        row = self.read_rows(out_dir)[('{"lambdas":[0.5,0.5]}', "1", "0.5")]
        assert row == [f"{m.train_loss[-1]:.10g}", f"{min(m.heldout_ppl):.10g}",
                       str(m.epochs_run)]

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
        # every module that counts a corpus: the grid counts each corpus
        # once, and the bundles are built from the training table
        count_ngrams = counted("count_ngrams", corpus_mod.count_ngrams)
        for mod in (cli_mod, neural, corpus_mod):
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
        other.write_text("\n".join(zipf_lines(80, 8, seed=5)) + "\n", encoding="utf-8")
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
