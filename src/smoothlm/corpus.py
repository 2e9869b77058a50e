"""Corpus loading, vocabulary construction, and substring / n-gram counting.

A corpus is a list of token-id sequences.  Sentinels (BOS, EOS) are never
stored inside sequences: BOS enters only as logical padding when histories
are formed, EOS only as the terminal event of each sequence.  All counting
conventions downstream (conditional distributions, smoothing, training
weights) are defined in terms of the tables built here.

A CountTable stores only sorted gram arrays, which CountTable.from_grams
builds by one sort from every source: a corpus, a higher-order table, a
count file or a training batch.  Its count dicts are views for the oracles.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

log = logging.getLogger(__name__)

BOS_TOKEN = "<bos>"
EOS_TOKEN = "</s>"

History = tuple[int, ...]


class EmptyCorpusError(ValueError):
    """Raised when a corpus contains no usable (nonempty) lines."""


@dataclass(frozen=True)
class Vocabulary:
    """Symbol <-> integer-id map with reserved BOS and EOS sentinels.

    Symbol ids are contiguous from 0 in first-appearance order; the two
    sentinel ids follow (bos_id == n_symbols, eos_id == n_symbols + 1) and
    are never mapped to a corpus token.
    """

    symbols: tuple[str, ...]
    id_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for tok in self.symbols:
            if tok in (BOS_TOKEN, EOS_TOKEN):
                raise ValueError(f"token {tok!r} collides with a reserved sentinel rendering")
        mapping = {tok: i for i, tok in enumerate(self.symbols)}
        if len(mapping) != len(self.symbols):
            raise ValueError("vocabulary symbols must be distinct")
        object.__setattr__(self, "id_of", mapping)

    @property
    def n_symbols(self) -> int:
        return len(self.symbols)

    @property
    def bos_id(self) -> int:
        return len(self.symbols)

    @property
    def eos_id(self) -> int:
        return len(self.symbols) + 1

    @property
    def out_dim(self) -> int:
        """Size of the emission alphabet (symbols plus EOS, which is last)."""
        return len(self.symbols) + 1

    def out_index(self, symbol_id: int) -> int:
        """Map a symbol/EOS id to its index in emission-probability vectors."""
        if 0 <= symbol_id < self.n_symbols:
            return symbol_id
        if symbol_id == self.eos_id:
            return self.n_symbols
        raise ValueError(f"id {symbol_id} is not an emittable symbol")

    def id_at_out(self, out_index: int) -> int:
        if 0 <= out_index < self.n_symbols:
            return out_index
        if out_index == self.n_symbols:
            return self.eos_id
        raise ValueError(f"out index {out_index} out of range")

    def render(self, symbol_id: int) -> str:
        if symbol_id == self.bos_id:
            return BOS_TOKEN
        if symbol_id == self.eos_id:
            return EOS_TOKEN
        return self.symbols[symbol_id]

    def render_history(self, history: Sequence[int]) -> str:
        return " ".join(self.render(i) for i in history)

    def parse(self, token: str) -> int:
        if token == BOS_TOKEN:
            return self.bos_id
        if token == EOS_TOKEN:
            return self.eos_id
        return self.id_of[token]


def check_same_vocabulary(data: Vocabulary, model: Vocabulary) -> None:
    """Data scored or trained on by a model must use the model's symbols,
    since a history or emission is read by its id."""
    if data.symbols != model.symbols:
        raise ValueError("data and model use different vocabularies; "
                         "load the corpus with the model's vocabulary")


@dataclass(frozen=True)
class Corpus:
    """Tokenized corpus: M sequences of non-sentinel token ids."""

    vocab: Vocabulary
    sequences: tuple[History, ...]
    skipped_lines: int = 0

    def __post_init__(self) -> None:
        if not self.sequences:
            raise EmptyCorpusError("empty corpus")
        n = self.vocab.n_symbols
        for seq in self.sequences:
            for i in seq:
                if not 0 <= i < n:
                    raise ValueError(f"id {i} is not a non-sentinel vocabulary id")

    @property
    def M(self) -> int:
        return len(self.sequences)

    @property
    def total_emissions(self) -> int:
        """Number of emission events: every token plus one EOS per sequence."""
        return sum(len(s) + 1 for s in self.sequences)


@dataclass(frozen=True)
class GramArrays:
    """The grams of a CountTable.  Row i is history hists[i] (index maps it
    back to i), with row total totals[i]; gram g adds count[g] at row
    hist[g], emission index out[g].  Invariant, set by from_grams: the
    histories pass check_histories, are sorted and each has a gram; the grams are sorted by (row,
    emission index), each once, with a count of at least 1.  As BOS and
    EOS's emission index are both n_symbols, this is the order of sorting
    the (history, emitted id) pairs, and `hists` is sorted(history_count)."""

    hists: tuple[History, ...]
    index: dict[History, int]
    hist: np.ndarray
    out: np.ndarray
    count: np.ndarray
    totals: np.ndarray


@dataclass(frozen=True)
class CountTable:
    """Counts of (history, symbol) pairs at order n: gram (h, x) counts the
    positions whose length-(n-1) padded history is h and whose emitted id
    (a symbol or EOS) is x.  `arrays` stores them; the rest is derived."""

    order: int
    vocab: Vocabulary
    arrays: GramArrays

    @classmethod
    def from_grams(cls, order: int, vocab: Vocabulary, keys, counts) -> CountTable:
        """The table of the (N, order) ids `keys`, each row a history and
        then its emitted id, occurring counts[g] times; equal rows are summed."""
        keys, counts = np.asarray(keys, dtype=np.intp), np.asarray(counts, dtype=np.int64)
        if order < 1 or not len(counts) or keys.shape != (len(counts), order):
            raise ValueError(f"need one count per row of a nonempty (N, {order}) gram array")
        n, ids = vocab.n_symbols, keys[:, -1]
        if ((ids < 0) | ((ids >= n) & (ids != vocab.eos_id))).any():
            raise ValueError("gram symbol is not an emittable id")
        if (counts < 1).any():
            raise ValueError(f"gram count {counts.min()} is below 1")
        sort = np.lexsort(keys.T[::-1])
        keys, counts = keys[sort], counts[sort]
        first = np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]
        keys, count = keys[first], np.add.reduceat(counts, np.flatnonzero(first))
        new_hist = np.r_[True, (keys[1:, :-1] != keys[:-1, :-1]).any(axis=1)]
        hist_ids = keys[new_hist, :-1]
        check_histories(vocab, order - 1, hist_ids)
        hists = tuple(map(tuple, hist_ids.tolist()))
        return cls(order, vocab, GramArrays(
            hists=hists, index=dict(zip(hists, range(len(hists)))),
            hist=np.cumsum(new_hist) - 1, out=np.minimum(keys[:, -1], n),  # EOS's index is n
            count=count, totals=np.add.reduceat(count, np.flatnonzero(new_hist))))

    @property
    def total_tokens(self) -> int:
        return int(self.arrays.count.sum())

    @cached_property
    def count_of_counts(self) -> dict[int, int]:
        """{i: number of grams occurring exactly i times}."""
        values, freq = np.unique(self.arrays.count, return_counts=True)
        return dict(zip(values.tolist(), freq.tolist()))

    @cached_property
    def gram_count(self) -> dict[tuple[History, int], int]:
        """{(history, emitted id): count}, a view built on first read."""
        a = self.arrays
        keys = _gram_keys(self.vocab, self.order, a.hists, a.hist, a.out).tolist()
        return {(tuple(k[:-1]), k[-1]): c for k, c in zip(keys, a.count.tolist())}

    @cached_property
    def history_count(self) -> dict[History, int]:
        """{history: row total}, a view built on first read."""
        return dict(zip(self.arrays.hists, self.arrays.totals.tolist()))

    def dense_counts(self) -> np.ndarray:
        """The counts as one (histories x emissions) matrix in `arrays` row order."""
        a = self.arrays
        counts = np.zeros((len(a.hists), self.vocab.out_dim))
        counts[a.hist, a.out] = a.count
        return counts


def check_histories(vocab: Vocabulary, length: int, hists, bos_prefix: bool = True) -> None:
    """Raise ValueError naming the first of `hists`, history tuples or an
    (N, length) id array, that is not `length` ids of symbols or BOS, or,
    with `bos_prefix`, has a BOS after a symbol, which BOS padding never
    forms."""
    if not isinstance(hists, np.ndarray):
        lengths = np.fromiter(map(len, hists), dtype=np.intp, count=len(hists))
        if (lengths != length).any():
            h = tuple(hists[int(np.argmax(lengths != length))])
            raise ValueError(f"history {h} has length {len(h)}, expected {length}")
        hists = np.array(hists, dtype=np.intp).reshape(len(hists), length)
    bad = ((hists < 0) | (hists > vocab.bos_id)).any(axis=1)
    if bad.any():
        raise ValueError(f"history id is not a symbol or BOS in {_first(hists, bad)}")
    if bos_prefix:
        is_bos = hists == vocab.bos_id
        bad = (is_bos[:, 1:] & ~is_bos[:, :-1]).any(axis=1)
        if bad.any():
            raise ValueError(f"BOS is not a contiguous prefix of history {_first(hists, bad)}")


def _first(hists: np.ndarray, bad: np.ndarray) -> History:
    return tuple(hists[int(np.argmax(bad))].tolist())


def _gram_keys(vocab: Vocabulary, order: int, hists, hist, out) -> np.ndarray:
    """The ids CountTable.from_grams takes for the grams at rows `hist` of
    `hists` and emission indices `out`."""
    hist_ids = np.array(hists, dtype=np.intp).reshape(len(hists), order - 1)
    return np.column_stack([hist_ids[hist], np.where(out == vocab.n_symbols, vocab.eos_id, out)])


def build_vocabulary(lines: Iterable[str]) -> Vocabulary:
    """Build a vocabulary from raw text lines, tokens in first-appearance order."""
    seen: dict[str, None] = {}
    any_content = False
    for line in lines:
        toks = line.split()
        if toks:
            any_content = True
        for tok in toks:
            seen.setdefault(tok, None)
    if not any_content:
        raise EmptyCorpusError("empty corpus")
    return Vocabulary(symbols=tuple(seen.keys()))


def corpus_from_lines(lines: Iterable[str], vocab: Vocabulary | None = None) -> Corpus:
    """Tokenize lines (whitespace split) into a Corpus.

    Empty/whitespace-only lines are skipped and counted in `skipped_lines`.
    When `vocab` is given, every token must already be known to it.
    """
    lines = list(lines)
    if vocab is None:
        vocab = build_vocabulary(lines)
    sequences = []
    skipped = 0
    for line in lines:
        toks = line.split()
        if not toks:
            skipped += 1
            continue
        try:
            sequences.append(tuple(vocab.id_of[t] for t in toks))
        except KeyError as exc:
            raise ValueError(f"token {exc.args[0]!r} not present in vocabulary") from exc
    if skipped:
        log.warning("skipped %d empty line(s)", skipped)
    if not sequences:
        raise EmptyCorpusError("empty corpus")
    return Corpus(vocab=vocab, sequences=tuple(sequences), skipped_lines=skipped)


def load_corpus(path: str, vocab: Vocabulary | None = None) -> Corpus:
    """Load a UTF-8, one-sequence-per-line corpus file."""
    with open(path, encoding="utf-8") as f:
        # splitlines drops the terminal newline without creating a phantom
        # empty line; interior blank lines still reach the skip counter
        return corpus_from_lines(f.read().splitlines(), vocab=vocab)


def _check_query(corpus: Corpus, query: Sequence[int]) -> History:
    q = tuple(query)
    for i in q:
        if not 0 <= i < corpus.vocab.n_symbols:
            raise ValueError("query must not contain sentinel or out-of-range ids")
    return q


def count_substrings(corpus: Corpus, query: Sequence[int], with_eos: bool = False) -> int:
    """Occurrence count of `query` across the corpus.

    with_eos=False: number of times the query appears as a contiguous
    substring, summed over sequences; the empty query is counted once per
    position, i.e. len(seq)+1 times per sequence.  with_eos=True: number of
    sequences having the query as a suffix (the EOS-terminated count); the
    empty query then counts every sequence once.
    """
    q = _check_query(corpus, query)
    if with_eos:
        return sum(
            1 for seq in corpus.sequences
            if len(q) <= len(seq) and seq[len(seq) - len(q):] == q
        )
    if not q:
        return corpus.total_emissions
    k = len(q)
    total = 0
    for seq in corpus.sequences:
        total += sum(1 for t in range(len(seq) - k + 1) if seq[t:t + k] == q)
    return total


def count_ngrams(corpus: Corpus, order: int) -> CountTable:
    """Tally (history, symbol) pairs of the BOS-padded corpus at `order`.

    Each sequence is padded with order-1 leading BOS; every position emits
    its token, and one final position per sequence emits EOS.  Histories
    therefore contain BOS only as a contiguous prefix.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    vocab = corpus.vocab
    pad, eos = (vocab.bos_id,) * (order - 1), (vocab.eos_id,)
    padded = np.fromiter(chain.from_iterable(pad + seq + eos for seq in corpus.sequences),
                         dtype=np.intp)
    # every position but the padding emits, after the order-1 positions before it
    emits = np.flatnonzero(padded != vocab.bos_id)
    keys = sliding_window_view(padded, order)[emits - (order - 1)]
    return CountTable.from_grams(order, vocab, keys, np.ones(len(emits), dtype=np.int64))


def zero_gram_count(table: CountTable) -> int:
    """r_0: unseen (history, symbol) cells over the observed histories."""
    return len(table.arrays.hists) * table.vocab.out_dim - len(table.arrays.count)


def marginalize(table: CountTable) -> CountTable:
    """Project an order-n table to order n-1 by dropping the oldest context symbol.

    Equivalent to recounting the corpus at order n-1, because BOS padding
    gives every position a full-length history at every order.
    """
    if table.order < 2:
        raise ValueError("cannot marginalize an order-1 table")
    a = table.arrays
    keys = _gram_keys(table.vocab, table.order, a.hists, a.hist, a.out)
    return CountTable.from_grams(table.order - 1, table.vocab, keys[:, 1:], a.count)


def tables_down_to_unigram(table: CountTable) -> list[CountTable]:
    """All orders table.order, ..., 1, index k-1 holding the order-k table."""
    tables = [table]
    while tables[-1].order > 1:
        tables.append(marginalize(tables[-1]))
    return tables[::-1]


def write_count_table(table: CountTable, path: str) -> None:
    """Export as TSV `history<TAB>symbol<TAB>count`, one line per gram."""
    a = table.arrays
    write_cells(path, table.vocab, a.hists, {"count": (a.count, "d")}, cells=(a.hist, a.out))


def read_count_table(path: str) -> CountTable:
    """Load a count TSV, rebuilding a vocabulary in file order."""
    _, vocab, hists, hist, out, (counts,) = read_cells(path, {"count": int})
    order = len(hists[0]) + 1
    try:
        return CountTable.from_grams(order, vocab, _gram_keys(vocab, order, hists, hist, out),
                                     counts)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# The one TSV format of count tables, smoothed LMs and decompositions


def write_cells(path: str, vocab: Vocabulary, hists: Sequence[History], columns: dict,
                cells: tuple[np.ndarray, np.ndarray] | None = None,
                comment: str | None = None) -> None:
    """Write an optional `# comment` line, the column header and one line per
    cell, sorted by rendered history, then rendered symbol.  `columns` maps
    names to (values, format spec), one value per cell of `cells` = (history
    rows, emission indices); without `cells`, every cell of the values
    broadcast to (histories x emissions) is written."""
    shape = (len(hists), vocab.out_dim)
    if cells is None:
        cells = np.divmod(np.arange(shape[0] * shape[1]), shape[1])
        columns = {name: (np.broadcast_to(v, shape)[cells], spec)
                   for name, (v, spec) in columns.items()}
    hist, out = cells
    h_str = np.array([vocab.render_history(h) for h in hists], dtype=object)
    x_str = np.array([vocab.render(vocab.id_at_out(j)) for j in range(shape[1])], dtype=object)
    # a string's rank among the sorted strings orders the cells
    h_rank = np.unique(h_str, return_inverse=True)[1]
    x_rank = np.unique(x_str, return_inverse=True)[1]
    order = np.argsort(h_rank[hist] * shape[1] + x_rank[out], kind="stable")
    line = "{}\t{}" + "".join(f"\t{{:{spec}}}" for _, spec in columns.values()) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        f.write("\t".join(["history", "symbol", *columns]) + "\n")
        for part in np.array_split(order, len(order) // 65536 + 1):
            f.writelines(map(line.format, h_str[hist[part]], x_str[out[part]],
                             *(v[part].tolist() for v, _ in columns.values())))


def read_cells(path: str, columns: dict) -> tuple:
    """Read a write_cells file; `columns` maps names to parsers (int, float).
    Returns the comment or None, the vocabulary in order of first appearance,
    the histories, and per cell its history row, emission index and values."""
    hist_ids: dict[str, int] = {}
    sym_ids: dict[str, int] = {}
    tokens: dict[str, None] = {}
    hist, sym = array("q"), array("q")
    values = [(array("q" if parse is int else "d"), parse) for parse in columns.values()]
    with open(path, encoding="utf-8") as f:
        comment, header = None, f.readline().rstrip("\n")
        if header.startswith("# "):
            comment, header = header[2:], f.readline().rstrip("\n")
        if header != "\t".join(["history", "symbol", *columns]):
            raise ValueError(f"{path}: bad column header")
        for line in f:
            fields = line.rstrip("\n").split("\t")
            if fields == [""]:
                continue
            if len(fields) != len(columns) + 2:
                raise ValueError(f"{path}: expected {len(columns) + 2} columns in {line!r}")
            h, x = fields[0], fields[1]
            if h not in hist_ids:
                hist_ids[h] = len(hist_ids)
                tokens.update(dict.fromkeys(h.split(" ") if h else ()))
            if x not in sym_ids:
                sym_ids[x] = len(sym_ids)
                tokens.setdefault(x)
            hist.append(hist_ids[h])
            sym.append(sym_ids[x])
            for (col, parse), v in zip(values, fields[2:]):
                col.append(parse(v))
    if not hist_ids:
        raise ValueError(f"{path}: no data rows")
    vocab = Vocabulary(symbols=tuple(t for t in tokens if t not in (BOS_TOKEN, EOS_TOKEN)))
    hists = [tuple(map(vocab.parse, h.split(" "))) if h else () for h in hist_ids]
    if len({len(h) for h in hists}) > 1:
        raise ValueError(f"{path}: inconsistent history lengths")
    hist = np.frombuffer(hist, dtype=np.int64)
    out_of_sym = np.array([vocab.out_index(vocab.parse(x)) for x in sym_ids])
    out = out_of_sym[np.frombuffer(sym, dtype=np.int64)]
    if len(np.unique(hist * vocab.out_dim + out)) < len(out):
        raise ValueError(f"{path}: duplicate gram row")
    return comment, vocab, hists, hist, out, [np.frombuffer(c, c.typecode) for c, _ in values]
