"""The TSV files of counts, smoothed LMs and decompositions: exact bytes, the
errors a malformed file gives through the CLI, and write_cells and
read_cells against per-line reference implementations.

The toy corpus meets its symbols in the order b, a, c, so a file sorted by
symbol id would differ from one sorted by rendered string; "<bos>" and "</s>"
sort before the letters."""

import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothlm import corpus
from smoothlm.cli import main
from smoothlm.corpus import (
    BOS_TOKEN,
    EOS_TOKEN,
    Vocabulary,
    corpus_from_lines,
    count_ngrams,
    read_cells,
    read_count_table,
    write_cells,
    write_count_table,
)
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
        write_decomposition(bundle, str(path))
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
    "LM symbol is <bos>": ("lm", LM[2] + "a\t<bos>\t0.1\n", "id 3 is not an emittable symbol"),
    "count not an integer": ("counts", replace_line(COUNTS[2], 2, "<bos>\tb\t1.5"),
                             "invalid literal for int() with base 10: '1.5' in "
                             "'<bos>\\tb\\t1.5\\n'"),
    "LM probability not a number": ("lm", replace_line(LM[2], 3, "<bos>\ta\tfoo"),
                                    "could not convert string to float: 'foo' in "
                                    "'<bos>\\ta\\tfoo\\n'"),
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


# ---------------------------------------------------------------------------
# write_cells and read_cells against per-line references, with the chunk and
# block sizes made small so that a few cells span several of them

def reference_write(path, vocab, hists, columns, cells=None, comment=None):
    """One `line.format` per cell, in the documented order."""
    shape = (len(hists), vocab.out_dim)
    if cells is None:
        cells = np.divmod(np.arange(shape[0] * shape[1]), shape[1])
    hist, out = cells
    values = [(v if np.ndim(v) == 1 else np.broadcast_to(v, shape)[hist, out]).tolist()
              for v, _ in columns.values()]
    h_str = [vocab.render_history(h) for h in hists]
    x_str = [vocab.render(vocab.id_at_out(j)) for j in range(shape[1])]
    line = "{}\t{}" + "".join(f"\t{{:{spec}}}" for _, spec in columns.values()) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        f.write("\t".join(["history", "symbol", *columns]) + "\n")
        for c in sorted(range(len(hist)), key=lambda c: (h_str[hist[c]], x_str[out[c]])):
            f.write(line.format(h_str[hist[c]], x_str[out[c]], *(v[c] for v in values)))


def reference_read(path, columns):
    """One line at a time, each history or symbol numbered when first met."""
    hist_ids, sym_ids, tokens = {}, {}, {}
    hist, sym, values = [], [], [[] for _ in columns]
    with open(path, encoding="utf-8") as f:
        comment, header = None, f.readline().rstrip("\n")
        if header.startswith("# "):
            comment, header = header[2:], f.readline().rstrip("\n")
        assert header == "\t".join(["history", "symbol", *columns])
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if fields == [""]:
                continue
            h, x = fields[0], fields[1]
            if h not in hist_ids:
                hist_ids[h] = len(hist_ids)
                tokens.update(dict.fromkeys(h.split(" ") if h else ()))
            if x not in sym_ids:
                sym_ids[x] = len(sym_ids)
                tokens.setdefault(x)
            hist.append(hist_ids[h])
            sym.append(sym_ids[x])
            for col, parse, v in zip(values, columns.values(), fields[2:]):
                col.append(parse(v))
    vocab = Vocabulary(symbols=tuple(t for t in tokens if t not in (BOS_TOKEN, EOS_TOKEN)))
    hists = [tuple(map(vocab.parse, h.split(" "))) if h else () for h in hist_ids]
    out = [vocab.out_index(vocab.parse(x)) for x in sym_ids]
    return (comment, vocab, hists, np.array(hist, dtype=np.int64),
            np.array([out[s] for s in sym], dtype=np.int64),
            [np.array(col, dtype=np.int64 if parse is int else np.float64)
             for col, parse in zip(values, columns.values())])


TWELVE_DIGITS = 0.1 + 2 ** -56   # prints as 0.1 at 12 digits, but is not 0.1
FLOATS = st.one_of(st.sampled_from([0.0, -0.0, math.nan, 0.1, TWELVE_DIGITS, 1.0, math.inf]),
                   st.floats())
INTS = st.one_of(st.sampled_from([0, 1, -1, 7]), st.integers(-2 ** 63, 2 ** 63 - 1))


@st.composite
def cell_files(draw):
    """write_cells' arguments: a few histories, the cells (all of them when
    `cells` is None) and one to three columns of ints or floats, each one
    value per cell, per history or per (history, emission)."""
    vocab = Vocabulary(symbols=tuple("bac"[:draw(st.integers(1, 3))]))
    length = draw(st.integers(0, 2))
    ids = st.integers(0, vocab.bos_id)
    hists = draw(st.lists(st.tuples(*[ids] * length), min_size=1, max_size=4, unique=True))
    shape = (len(hists), vocab.out_dim)
    cells = draw(st.none() | st.lists(st.tuples(st.integers(0, shape[0] - 1),
                                                st.integers(0, shape[1] - 1)),
                                      max_size=shape[0] * shape[1], unique=True))
    if cells is not None:
        cells = tuple(np.array(cells, dtype=np.int64).reshape(-1, 2).T)
    columns = {}
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["history", "matrix"] + ["cell"] * (cells is not None)))
        size = cells[0].shape if kind == "cell" else {"history": (shape[0], 1), "matrix": shape}[kind]
        values, spec = draw(st.sampled_from([(FLOATS, ".12g"), (INTS, "d")]))
        columns[f"c{k}"] = (np.array(draw(st.lists(values, min_size=math.prod(size),
                                                    max_size=math.prod(size)))).reshape(size),
                            spec)
    return vocab, hists, columns, cells, draw(st.none() | st.sampled_from(["", "method=x"]))


@given(cell_files(), st.integers(1, 5))
def test_write_cells_matches_per_line_writer(args, chunk):
    vocab, hists, columns, cells, comment = args
    with tempfile.TemporaryDirectory() as d, mock.patch.object(corpus, "WRITE_CHUNK", chunk):
        write_cells(os.path.join(d, "new.tsv"), vocab, hists, columns, cells, comment)
        reference_write(os.path.join(d, "ref.tsv"), vocab, hists, columns, cells, comment)
        with open(os.path.join(d, "new.tsv"), "rb") as new, \
                open(os.path.join(d, "ref.tsv"), "rb") as ref:
            assert new.read() == ref.read()


TOKENS = ["b", "a", "c", BOS_TOKEN]


@st.composite
def tsv_texts(draw):
    """A write_cells file with distinct (history, symbol) cells in any
    order, blank lines anywhere and maybe no final newline, and its parsers."""
    length = draw(st.integers(0, 2))
    hists = st.tuples(*[st.sampled_from(TOKENS)] * length).map(" ".join)
    cells = draw(st.lists(st.tuples(hists, st.sampled_from(["c", "a", EOS_TOKEN, "b"])),
                          min_size=1, max_size=25, unique=True))
    parsers = draw(st.lists(st.sampled_from([int, float]), min_size=1, max_size=2))
    texts = {int: INTS.map(str), float: FLOATS.map(repr) | FLOATS.map("{:.12g}".format)}
    lines = ["\t".join([h, x, *(draw(texts[p]) for p in parsers)]) + "\n" for h, x in cells]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), "\n")
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.removesuffix("\n")
    header = "\t".join(["history", "symbol", *(f"c{k}" for k in range(len(parsers)))]) + "\n"
    comment = draw(st.sampled_from(["", "# method=x\n"]))
    return comment + header + text, {f"c{k}": p for k, p in enumerate(parsers)}


def assert_same_cells(a, b):
    """Two read_cells results are equal, arrays and dtypes included."""
    assert a[:3] == b[:3]
    for x, y in zip([*a[3:5], *a[5]], [*b[3:5], *b[5]]):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


@given(tsv_texts(), st.integers(1, 40))
def test_read_cells_matches_per_line_reader(args, block):
    text, columns = args
    with tempfile.TemporaryDirectory() as d, mock.patch.object(corpus, "READ_BLOCK", block):
        path = os.path.join(d, "cells.tsv")
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        new, ref = read_cells(path, columns), reference_read(path, columns)
    assert_same_cells(new, ref)


def late_defect(tmp_path, monkeypatch, bad_line):
    """read_cells' error for a well-formed count file of 200 lines read in
    small blocks, with `bad_line` appended after them."""
    monkeypatch.setattr(corpus, "READ_BLOCK", 64)
    path = tmp_path / "counts.tsv"
    rows = [f"s{i}\t{x}\t1\n" for i in range(50) for x in ("</s>", "s0", "s1", "s2")]
    path.write_text("history\tsymbol\tcount\n" + "".join(rows) + bad_line, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_cells(str(path), {"count": int})
    assert str(exc.value).startswith(f"{path}: ")
    return str(exc.value)


def test_wrong_column_count_in_a_later_block(tmp_path, monkeypatch):
    assert late_defect(tmp_path, monkeypatch, "c\ta\n").endswith("expected 3 columns in 'c\\ta\\n'")


def test_duplicate_cell_in_a_later_block(tmp_path, monkeypatch):
    assert late_defect(tmp_path, monkeypatch, "s0\t</s>\t3\n").endswith("duplicate gram row")


def test_bad_value_in_a_later_block(tmp_path, monkeypatch):
    # a block is split into lines only to name the one it cannot read
    assert late_defect(tmp_path, monkeypatch, "s0\t</s>\tx\n") == (
        f"{tmp_path / 'counts.tsv'}: invalid literal for int() with base 10: 'x' in "
        "'s0\\t</s>\\tx\\n'")


@pytest.mark.parametrize("block", [*range(1, 17), 64, corpus.READ_BLOCK])
def test_first_defect_in_file_order_at_any_block_size(block, tmp_path, monkeypatch):
    # a bad value on data line 1 and an extra column on line 2: the message
    # names line 1 wherever the blocks end
    monkeypatch.setattr(corpus, "READ_BLOCK", block)
    path = tmp_path / "lm.tsv"
    path.write_text("history\tsymbol\tprob\na\tb\tx\na\tc\t0.5\textra\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_cells(str(path), {"prob": float})
    assert str(exc.value) == f"{path}: could not convert string to float: 'x' in 'a\\tb\\tx\\n'"


def test_blank_line_runs_longer_than_a_block(tmp_path, monkeypatch):
    # blocks that hold nothing but blank lines, before, between and after
    # the data lines, are skipped
    monkeypatch.setattr(corpus, "READ_BLOCK", 4)
    header, *lines = COUNTS[3].splitlines(keepends=True)
    blank = "\n" * 11
    padded, compact = tmp_path / "padded.tsv", tmp_path / "compact.tsv"
    padded.write_text(header + blank + "".join(lines[:3]) + blank + "".join(lines[3:]) + blank,
                      encoding="utf-8")
    compact.write_text(COUNTS[3], encoding="utf-8")
    assert_same_cells(read_cells(str(padded), {"count": int}),
                      read_cells(str(compact), {"count": int}))


def test_only_blank_lines_after_the_header(tmp_path, monkeypatch):
    monkeypatch.setattr(corpus, "READ_BLOCK", 4)
    path = tmp_path / "counts.tsv"
    path.write_text("history\tsymbol\tcount\n" + "\n" * 11, encoding="utf-8")
    with pytest.raises(ValueError, match="no data rows"):
        read_cells(str(path), {"count": int})


@pytest.mark.parametrize("block", [1, 4, corpus.READ_BLOCK])
def test_crlf_files_read_like_their_lf_twins(block, tmp_path, monkeypatch, capsys):
    # text mode reads each "\r\n" as "\n", also where a block ends
    # between the two
    monkeypatch.setattr(corpus, "READ_BLOCK", block)
    (tmp_path / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    results = []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        counts, lm = tmp_path / f"counts_{name}.tsv", tmp_path / f"lm_{name}.tsv"
        counts.write_text(COUNTS[3], encoding="utf-8", newline=newline)
        lm.write_text(LM[3], encoding="utf-8", newline=newline)
        assert counts.read_bytes().count(b"\r\n") == (name == "crlf") * COUNTS[3].count("\n")
        smoothed = tmp_path / f"smoothed_{name}.tsv"
        assert main(["smooth", "--counts", str(counts), "--method", "addlambda",
                     "--out", str(smoothed)]) == 0
        capsys.readouterr()
        assert main(["eval", "--lm", str(lm), "--corpus", str(tmp_path / "corpus.txt")]) == 0
        results.append((read_cells(str(counts), {"count": int}),
                        read_cells(str(lm), {"probability": float}),
                        smoothed.read_bytes(), capsys.readouterr().out))
    (lf_counts, lf_lm, *lf_rest), (crlf_counts, crlf_lm, *crlf_rest) = results
    assert_same_cells(lf_counts, crlf_counts)
    assert_same_cells(lf_lm, crlf_lm)
    assert lf_rest == crlf_rest
    assert lf_rest[0] == LM[3].encode()
