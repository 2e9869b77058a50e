"""The TSV files of counts, smoothed LMs and decompositions: exact bytes, and
the errors a malformed file gives through the CLI.

The toy corpus meets its symbols in the order b, a, c, so a file sorted by
symbol id would differ from one sorted by rendered string; "<bos>" and "</s>"
sort before the letters."""

import pytest

from smoothlm.cli import main
from smoothlm.corpus import corpus_from_lines, count_ngrams, read_count_table, write_count_table
from smoothlm.decompose import build_regularizer, write_decomposition
from smoothlm.ngram import empirical_conditional, write_conditional_lm
from smoothlm.smoothers import smooth_add_lambda

COUNTS = {
    2: """\
history\tsymbol\tcount
<bos>\ta\t1
<bos>\tb\t1
a\t</s>\t1
a\tc\t1
b\ta\t1
c\t</s>\t1
""",
    3: """\
history\tsymbol\tcount
<bos> <bos>\ta\t1
<bos> <bos>\tb\t1
<bos> a\tc\t1
<bos> b\ta\t1
a c\t</s>\t1
b a\t</s>\t1
""",
}

# add-lambda 1: (count + 1) / (history total + 4)
LM = {
    2: """\
# method=add_lambda params={"lambda":1.0}
history\tsymbol\tprobability
<bos>\t</s>\t0.166666666667
<bos>\ta\t0.333333333333
<bos>\tb\t0.333333333333
<bos>\tc\t0.166666666667
a\t</s>\t0.333333333333
a\ta\t0.166666666667
a\tb\t0.166666666667
a\tc\t0.333333333333
b\t</s>\t0.2
b\ta\t0.4
b\tb\t0.2
b\tc\t0.2
c\t</s>\t0.4
c\ta\t0.2
c\tb\t0.2
c\tc\t0.2
""",
    3: """\
# method=add_lambda params={"lambda":1.0}
history\tsymbol\tprobability
<bos> <bos>\t</s>\t0.166666666667
<bos> <bos>\ta\t0.333333333333
<bos> <bos>\tb\t0.333333333333
<bos> <bos>\tc\t0.166666666667
<bos> a\t</s>\t0.2
<bos> a\ta\t0.2
<bos> a\tb\t0.2
<bos> a\tc\t0.4
<bos> b\t</s>\t0.2
<bos> b\ta\t0.4
<bos> b\tb\t0.2
<bos> b\tc\t0.2
a c\t</s>\t0.4
a c\ta\t0.2
a c\tb\t0.2
a c\tc\t0.2
b a\t</s>\t0.4
b a\ta\t0.2
b a\tb\t0.2
b a\tc\t0.2
""",
}

# add-lambda 1 against the count ratios: Z = 1/3 where the history total
# is 2, Z = 3/5 where it is 1
DECOMPOSITION = {
    2: """\
history\tsymbol\tp_plus\tp_minus\tz_plus\tz_minus
<bos>\t</s>\t0.5\t0\t0.333333333333\t0.333333333333
<bos>\ta\t0\t0.5\t0.333333333333\t0.333333333333
<bos>\tb\t0\t0.5\t0.333333333333\t0.333333333333
<bos>\tc\t0.5\t0\t0.333333333333\t0.333333333333
a\t</s>\t0\t0.5\t0.333333333333\t0.333333333333
a\ta\t0.5\t0\t0.333333333333\t0.333333333333
a\tb\t0.5\t0\t0.333333333333\t0.333333333333
a\tc\t0\t0.5\t0.333333333333\t0.333333333333
b\t</s>\t0.333333333333\t0\t0.6\t0.6
b\ta\t0\t1\t0.6\t0.6
b\tb\t0.333333333333\t0\t0.6\t0.6
b\tc\t0.333333333333\t0\t0.6\t0.6
c\t</s>\t0\t1\t0.6\t0.6
c\ta\t0.333333333333\t0\t0.6\t0.6
c\tb\t0.333333333333\t0\t0.6\t0.6
c\tc\t0.333333333333\t0\t0.6\t0.6
""",
    3: """\
history\tsymbol\tp_plus\tp_minus\tz_plus\tz_minus
<bos> <bos>\t</s>\t0.5\t0\t0.333333333333\t0.333333333333
<bos> <bos>\ta\t0\t0.5\t0.333333333333\t0.333333333333
<bos> <bos>\tb\t0\t0.5\t0.333333333333\t0.333333333333
<bos> <bos>\tc\t0.5\t0\t0.333333333333\t0.333333333333
<bos> a\t</s>\t0.333333333333\t0\t0.6\t0.6
<bos> a\ta\t0.333333333333\t0\t0.6\t0.6
<bos> a\tb\t0.333333333333\t0\t0.6\t0.6
<bos> a\tc\t0\t1\t0.6\t0.6
<bos> b\t</s>\t0.333333333333\t0\t0.6\t0.6
<bos> b\ta\t0\t1\t0.6\t0.6
<bos> b\tb\t0.333333333333\t0\t0.6\t0.6
<bos> b\tc\t0.333333333333\t0\t0.6\t0.6
a c\t</s>\t0\t1\t0.6\t0.6
a c\ta\t0.333333333333\t0\t0.6\t0.6
a c\tb\t0.333333333333\t0\t0.6\t0.6
a c\tc\t0.333333333333\t0\t0.6\t0.6
b a\t</s>\t0\t1\t0.6\t0.6
b a\ta\t0.333333333333\t0\t0.6\t0.6
b a\tb\t0.333333333333\t0\t0.6\t0.6
b a\tc\t0.333333333333\t0\t0.6\t0.6
""",
}


def toy_table(order):
    corpus = corpus_from_lines(["b a", "a c"])
    assert corpus.vocab.symbols == ("b", "a", "c")
    return count_ngrams(corpus, order)


@pytest.mark.parametrize("order", [2, 3])
class TestGoldenBytes:
    def test_count_table(self, order, tmp_path):
        path = tmp_path / "counts.tsv"
        write_count_table(toy_table(order), str(path))
        assert path.read_bytes() == COUNTS[order].encode()

    def test_conditional_lm(self, order, tmp_path):
        path = tmp_path / "lm.tsv"
        write_conditional_lm(smooth_add_lambda(toy_table(order), 1.0), str(path))
        assert path.read_bytes() == LM[order].encode()

    def test_decomposition(self, order, tmp_path):
        table = toy_table(order)
        bundle = build_regularizer(empirical_conditional(table), smooth_add_lambda(table, 1.0),
                                   table, 1.0, 1.0)
        path = tmp_path / "dec.tsv"
        write_decomposition(bundle, table.vocab, str(path))
        assert path.read_bytes() == DECOMPOSITION[order].encode()


def test_reader_vocabulary_in_order_of_first_appearance(tmp_path):
    # history tokens count too, before the line's symbol
    path = tmp_path / "counts.tsv"
    path.write_text("history\tsymbol\tcount\nc b\ta\t1\nb a\td\t2\n", encoding="utf-8")
    table = read_count_table(str(path))
    assert table.vocab.symbols == ("c", "b", "a", "d")
    assert table.history_count == {(0, 1): 1, (1, 2): 2}


def replace_line(text, i, new):
    lines = text.splitlines()
    lines[i] = new
    return "\n".join(lines) + "\n"


CORPUS = "b a\na c\n"

# (file kind, file text, message); counts files go through
# `smooth --counts`, LM files through `eval --lm`
MALFORMED = {
    "count bad header": ("counts", replace_line(COUNTS[2], 0, "history\tsymbol\tcounts"),
                         "bad column header"),
    "LM bad header": ("lm", replace_line(LM[2], 1, "history\tsymbol\tprob"),
                      "bad column header"),
    "LM no method line": ("lm", LM[2].split("\n", 1)[1], "missing method header"),
    "LM comment without method": ("lm", replace_line(LM[2], 0, "# params={}"),
                                  "missing method header"),
    "count history lengths": ("counts", COUNTS[2] + "a b\tc\t1\n",
                              "inconsistent history lengths"),
    "LM history lengths": ("lm", LM[2] + "a b\tc\t0\n", "inconsistent history lengths"),
    "count too few columns": ("counts", COUNTS[2] + "a\tb\n", "expected 3 columns"),
    "LM too many columns": ("lm", replace_line(LM[2], 2, "<bos>\t</s>\t0.1\t0.1"),
                            "expected 3 columns"),
    "count no rows": ("counts", "history\tsymbol\tcount\n", "no data rows"),
    "LM no rows": ("lm", LM[2].split("\n")[0] + "\nhistory\tsymbol\tprobability\n",
                   "no data rows"),
    "count zero": ("counts", replace_line(COUNTS[2], 3, "a\t</s>\t0"), "count 0 is below 1"),
    "count negative": ("counts", replace_line(COUNTS[2], 3, "a\t</s>\t-5"),
                       "count -5 is below 1"),
    "count duplicate": ("counts", COUNTS[2] + "c\t</s>\t1\n", "duplicate gram row"),
    "LM duplicate": ("lm", LM[2] + "c\tc\t0.2\n", "duplicate gram row"),
    "count history holds BOS after a symbol": ("counts", COUNTS[3] + "a <bos>\tb\t1\n",
                                               "BOS is not a contiguous prefix of history"),
    "LM history holds </s>": ("lm", LM[2] + "".join(f"</s>\t{x}\t0.25\n" for x in ("</s>", *"abc")),
                              "id is not a symbol or BOS"),
    # whitespace splitting of a corpus line yields none of these tokens
    "count empty symbol": ("counts", COUNTS[2] + "a\t\t2\n",
                           "token '' is empty or contains whitespace"),
    "count doubled space in history": ("counts", COUNTS[3] + "a  c\ta\t1\n",
                                       "token '' is empty or contains whitespace"),
    "LM symbol holds a space": ("lm", LM[2] + "a\tb c\t0.1\n",
                                "token 'b c' is empty or contains whitespace"),
}


def run_on(kind, text, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    path = tmp_path / f"{kind}.tsv"
    path.write_text(text, encoding="utf-8")
    if kind == "counts":
        return path, main(["smooth", "--counts", str(path), "--method", "addlambda",
                           "--out", str(tmp_path / "out.tsv")])
    return path, main(["eval", "--lm", str(path), "--corpus", str(corpus)])


@pytest.mark.parametrize("kind, text", [("counts", COUNTS[2]), ("lm", LM[2])])
def test_wellformed_file_exit_0(kind, text, tmp_path):
    # the files the malformed cases start from are accepted as they are
    assert run_on(kind, text, tmp_path)[1] == 0


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_file_exit_2(case, tmp_path, capsys):
    kind, text, message = MALFORMED[case]
    path, code = run_on(kind, text, tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert str(path) in err
