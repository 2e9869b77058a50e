"""Corpus loading, vocabulary construction, and n-gram counting.

A corpus is two integer arrays, its sequences' token ids in turn and
their lengths, with no sentinel: BOS enters only as logical padding when
histories are formed, EOS only as the terminal event of each sequence.
All counting conventions downstream (conditional distributions, smoothing,
training weights) are defined in terms of the tables built here.

A CountTable is its sorted gram arrays, which CountTable.from_codes builds
by the one sort of integer gram codes from every source, and keeps those
codes: a corpus's padded id stream (its windows' history_codes), a
higher-order table's kept codes less their leading digit, and a count
file's cells (through from_grams, which checks them first).  A
model's rows are named by a RowKeys, whose `find` looks histories up by
their codes (sorted_index): by direct address where the codes are small
integers, as below the top level of a chain over a few hundred symbols,
else by searching them in sorted order (sorted_search); a CountTable
is the RowKeys of its own histories, and keeps the backoff structure the
smoothers read without a search: its `marginal` and, from the same sort,
its `parents` there.  A table places held-out data in the levels of that
chain once (`locate`, a Placement: each held-out history's row and each
held-out gram's index at every level), and keeps the placement for every
LM built on it.  Small integer keys are indexed, not sorted, throughout:
distinct_counts gives the smoothers counts-of-counts from one bincount,
and check_histories ORs a history's few id columns.  A corpus's
sequences, the history tuples and the table's count dicts are views for
`perfbench/`, the tests and the oracles.
"""

from __future__ import annotations

import logging
import numbers
import re
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

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
            # a token is what whitespace splitting of a line can produce
            if tok.split() != [tok]:
                raise ValueError(f"token {tok!r} is empty or contains whitespace")
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


@dataclass(frozen=True, eq=False)
class Corpus:
    """Tokenized corpus: M sequences of non-sentinel token ids, as 1-D intp
    arrays, `ids` (every sequence's in turn) and `lengths`; the tuples
    `sequences` are a view built on first read for the oracles and tests."""

    vocab: Vocabulary
    ids: np.ndarray
    lengths: np.ndarray
    skipped_lines: int = 0

    def __post_init__(self) -> None:
        # a bool or float id would count as the id it equals or truncates to
        for name in ("ids", "lengths"):
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iu"):
                got = f"{a.ndim}-D {a.dtype}" if isinstance(a, np.ndarray) else type(a).__name__
                raise ValueError(f"{name} must be a 1-D integer array, got {got}")
        lengths = self.lengths.astype(np.intp, copy=False)
        if not len(lengths):
            raise EmptyCorpusError("empty corpus")
        if (lengths < 0).any() or lengths.sum() != len(self.ids):
            raise ValueError(f"lengths must be nonnegative and sum to the {len(self.ids)} ids")
        bad = (self.ids < 0) | (self.ids >= self.vocab.n_symbols)
        if bad.any():
            raise ValueError(f"id {self.ids[bad.argmax()]} is not a non-sentinel vocabulary id")
        vars(self).update(ids=self.ids.astype(np.intp, copy=False), lengths=lengths)

    @property
    def M(self) -> int:
        return len(self.lengths)

    @property
    def total_emissions(self) -> int:
        """Number of emission events: every token plus one EOS per sequence."""
        return len(self.ids) + len(self.lengths)

    @cached_property
    def sequences(self) -> tuple[History, ...]:
        """Each sequence's ids as a tuple, a view built on first read."""
        return tuple(tuple(s.tolist()) for s in np.split(self.ids, np.cumsum(self.lengths)[:-1]))


@dataclass(frozen=True, eq=False)
class RowKeys:
    """The histories naming the rows of a matrix: row i is history ids[i].
    Each history is kept as its code, the mixed-radix number its ids spell
    in base `base` (|V|+2, above every id; see history_codes); `codes` holds
    them sorted, each once, and `code_rows` the row of each, or None when
    the rows are in code order.  `find` looks histories up by their
    codes (sorted_index: by direct address or binary search).  The tuple
    `hists` and the dict `index`, mapping each history to its row, are
    views built on first read for `perfbench/`, the tests and the oracles;
    no pipeline code reads them per history.  Keys compare and hash by
    identity, as the pipeline compares them with `is`."""

    ids: np.ndarray
    codes: np.ndarray
    base: int
    code_rows: np.ndarray | None

    @cached_property
    def hists(self) -> tuple[History, ...]:
        return tuple(map(tuple, self.ids.tolist()))

    @cached_property
    def index(self) -> dict[History, int]:
        return dict(zip(self.hists, range(len(self.hists))))

    def find(self, ids: np.ndarray) -> np.ndarray:
        """The row of each history of `ids`, an (N, width) array of ids
        that history_ids has checked, or -1 where it names no row."""
        return self.rows_of(history_codes(ids, self.base))

    def rows_of(self, codes: np.ndarray) -> np.ndarray:
        """The row of each history code of `codes`, or -1 where it names no
        row."""
        at = sorted_index(self.codes, codes)
        if self.code_rows is None:
            return at
        return np.where(at < 0, -1, self.code_rows[at])


@dataclass(frozen=True, eq=False)
class CountTable(RowKeys):
    """Counts of (history, symbol) pairs at order n: gram (h, x) counts the
    positions whose length-(n-1) padded history is h and whose emitted id
    (a symbol or EOS) is x.  The table is its grams, and its histories are
    its RowKeys, in code order: row i is history ids[i], with row total
    totals[i]; gram g adds count[g] at row hist[g], emission index out[g],
    and its code, the history's ids then the emitted id (EOS's own id, not
    its index) in base `base`, is gram_codes[g].  Invariant, set by
    from_codes, the one sort: the histories pass check_histories, are
    sorted and each has a gram; the grams are sorted by (row, emission
    index), each once, with a count of at least 1.  As
    BOS and EOS's emission index are both n_symbols, this is the order of
    sorting the (history, emitted id) pairs, and `hists` is
    sorted(history_count).  Above order 1 a table has a backoff structure,
    built on first read and kept: `marginal`, and `parents`, which maps
    each history and each gram to its parent there (Chen & Goodman 1998,
    section 2.8), as KenLM's context pointers do."""

    order: int
    vocab: Vocabulary
    hist: np.ndarray
    out: np.ndarray
    count: np.ndarray
    totals: np.ndarray
    gram_codes: np.ndarray

    @classmethod
    def from_codes(cls, order: int, vocab: Vocabulary, codes: np.ndarray,
                   counts: np.ndarray | None = None, return_inverse: bool = False
                   ) -> CountTable | tuple[CountTable, np.ndarray]:
        """The table of the grams whose codes (see history_codes: a
        history's ids, then the emitted id, in base |V|+2) are `codes`, each
        occurring once, or counts[g] times; equal codes are summed.  This is
        the one sort of every table: np.sort and run lengths without
        `counts`, else argsort and add.reduceat, which with `return_inverse`
        also gives each code's gram, as np.unique does.  The distinct codes are
        kept, sorted, as `gram_codes`.  The history ids are read back off
        the codes' digits with // and %, which act on Python-int codes too,
        and check_histories runs once on the distinct histories; the caller
        vouches that every digit is in range and that the last is an
        emittable id."""
        base = vocab.n_symbols + 2
        codes = codes.astype(_code_dtype(base, order), copy=False)
        sort = None if counts is None else np.argsort(codes)
        codes = np.sort(codes) if sort is None else codes[sort]
        new_gram = np.concatenate(([True], codes[1:] != codes[:-1]))
        first = np.flatnonzero(new_gram)
        count = np.diff(first, append=len(codes)) if sort is None else \
            np.add.reduceat(counts[sort], first)
        codes = codes[first]
        # a gram's code is its history's code, then one more digit
        hist_codes = codes // base
        new_hist = np.concatenate(([True], hist_codes[1:] != hist_codes[:-1]))
        hist_codes = hist_codes[new_hist].astype(_code_dtype(base, order - 1), copy=False)
        hist_ids = np.empty((len(hist_codes), order - 1), dtype=np.intp)
        rest = hist_codes
        for j in reversed(range(order - 1)):
            hist_ids[:, j] = rest % base
            rest = rest // base
        check_histories(vocab, order - 1, hist_ids)
        out = (codes % base).astype(np.intp, copy=False)
        table = cls(
            ids=hist_ids, codes=hist_codes, base=base, code_rows=None, order=order,
            vocab=vocab, hist=np.cumsum(new_hist) - 1,
            out=np.minimum(out, vocab.n_symbols),  # EOS's index is n_symbols
            count=count, totals=np.add.reduceat(count, np.flatnonzero(new_hist)),
            gram_codes=codes)
        if not return_inverse:
            return table
        inverse = np.empty(len(sort), dtype=np.intp)
        inverse[sort] = np.cumsum(new_gram) - 1
        return table, inverse

    @classmethod
    def from_grams(cls, order: int, vocab: Vocabulary, keys, counts) -> CountTable:
        """The table of the (N, order) ids `keys`, each row a history and
        then its emitted id, occurring counts[g] times; equal rows are
        summed.  The rows are checked to be in range, since the code of an
        out-of-range id can be that of another history, and then counted
        by from_codes."""
        keys, counts = np.asarray(keys, dtype=np.intp), np.asarray(counts, dtype=np.int64)
        if order < 1 or not len(counts) or keys.shape != (len(counts), order):
            raise ValueError(f"need one count per row of a nonempty (N, {order}) gram array")
        n, ids = vocab.n_symbols, keys[:, -1]
        if ((ids < 0) | ((ids >= n) & (ids != vocab.eos_id))).any():
            raise ValueError("gram symbol is not an emittable id")
        if (counts < 1).any():
            raise ValueError(f"gram count {counts.min()} is below 1")
        hist_ids = keys[:, :-1]
        bad = _any_in_row((hist_ids < 0) | (hist_ids > vocab.bos_id))
        if bad.any():
            # name the first bad history in sorted order
            check_histories(vocab, order - 1, np.unique(hist_ids[bad], axis=0))
        return cls.from_codes(order, vocab, history_codes(keys, n + 2), counts)

    @property
    def total_tokens(self) -> int:
        return int(self.count.sum())

    @cached_property
    def count_of_counts(self) -> dict[int, int]:
        """{i: number of grams occurring exactly i times}."""
        values, inverse = distinct_counts(self.count)
        return dict(zip(values.tolist(), np.bincount(inverse, minlength=len(values)).tolist()))

    @cached_property
    def marginal(self) -> CountTable:
        """The table one order down (see marginalize), built on first read,
        so the backoff smoothers of one table share one chain of tables."""
        return marginalize(self)

    @cached_property
    def parents(self) -> tuple[np.ndarray, np.ndarray]:
        """The row in `marginal` of each history's parent (the history
        without its oldest symbol), and the index there of each gram's
        parent gram (the same emission), kept by marginalize from its sort."""
        self.marginal
        return vars(self)["parents"]

    @cached_property
    def gram_count(self) -> dict[tuple[History, int], int]:
        """{(history, emitted id): count}, a view built on first read."""
        keys = _gram_keys(self.vocab, self.order, self.ids, self.hist, self.out).tolist()
        return {(tuple(k[:-1]), k[-1]): c for k, c in zip(keys, self.count.tolist())}

    @cached_property
    def history_count(self) -> dict[History, int]:
        """{history: row total}, a view built on first read."""
        return dict(zip(self.hists, self.totals.tolist()))

    def dense_counts(self) -> np.ndarray:
        """The counts as one (histories x emissions) matrix in row order."""
        counts = np.zeros((len(self.ids), self.vocab.out_dim))
        counts[self.hist, self.out] = self.count
        return counts

    def locate(self, data: Corpus | CountTable) -> Placement:
        """The Placement of held-out data, a corpus or its table at this
        order, in the levels of this table's backoff chain (the keys of the
        LMs built on it).  Its top-level queries, the held-out table's
        history and gram codes, come sorted, so a search there takes no
        argsort (see sorted_search).  It is kept, keyed by the identity of
        `data`, for as long as both live, so every LM of this table scores
        the data through one count and one lookup of its histories and one
        of its grams per level; a new table places the data again.  The
        placement keeps a table it counted, not `data`, which can then be
        let go."""
        placements = vars(self).setdefault("_placements", weakref.WeakKeyDictionary())
        place = placements.get(data)
        if place is None:
            held = table_at(data, self.order, self.vocab)
            place = placements[data] = Placement(held.ids, held.codes, held.hist, held.out,
                                                 self.base, held.gram_codes)
            place._table = held if held is not data else weakref.ref(held)
        return place

    def __getstate__(self) -> dict:
        # placements are weakly keyed, so they do not pickle; a copy places
        # its data again
        state = dict(vars(self))
        state.pop("_placements", None)
        return state


class Placement:
    """Queries placed in the levels of a backoff chain: histories, by their
    ids and codes (see history_codes) in base `base`, and cells (hist[g],
    out[g]) of them, whose gram codes are their histories' codes with the
    emitted id as one more digit.  For the keys of a level, histories of
    width k - 1 no wider than the queries', `rows(keys)` gives the row there
    of each query history's length-(k-1) suffix, its code less the leading
    digits, and `grams(table)`, for a count table of order k, the index in
    its `gram_codes` of each cell's length-k suffix gram; each is -1 where
    there is none, and each is looked up once per keys (sorted_index: by
    direct address where the level's codes are small, as every level
    below an order-3 top over a few hundred symbols has them, else by a
    search), on first read, and kept while the keys live, as are the
    gathers `level` makes of them for scoring the cells.  The cells' gram
    codes are worked out unless given.  CountTable.locate gives a
    held-out table's, with the table as `table`; ConditionalLM.cells makes
    one of any queries."""

    def __init__(self, ids: np.ndarray, codes: np.ndarray, hist: np.ndarray, out: np.ndarray,
                 base: int, gram_codes: np.ndarray | None = None):
        self.ids, self.codes, self.hist, self.out, self.base = ids, codes, hist, out, base
        self._gram_codes = gram_codes
        self._table = None
        self._rows = weakref.WeakKeyDictionary()
        self._grams = weakref.WeakKeyDictionary()
        self._levels = weakref.WeakKeyDictionary()

    @property
    def table(self) -> CountTable | None:
        """The held-out table of a placement made by CountTable.locate."""
        table = self._table
        return table() if isinstance(table, weakref.ref) else table

    def rows(self, keys: RowKeys) -> np.ndarray:
        """The row in `keys` of each query history's suffix, -1 where unseen."""
        rows = self._rows.get(keys)
        if rows is None:
            width = keys.ids.shape[1]
            if width == 0:
                # every history's suffix is (), the one history a width-0
                # RowKeys can hold
                rows = np.full(len(self.codes), 0 if len(keys.codes) else -1, dtype=np.intp)
            else:
                rows = keys.rows_of(self._suffixes(self.codes, self.ids.shape[1], width))
            self._rows[keys] = rows
        return rows

    def grams(self, table: CountTable) -> np.ndarray:
        """The index in `table`'s gram_codes of each cell's suffix gram, -1
        where the table has none."""
        grams = self._grams.get(table)
        if grams is None:
            width = self.ids.shape[1] + 1
            if self._gram_codes is None:
                codes = self.codes.astype(_code_dtype(self.base, width), copy=False)[self.hist]
                # the emitted id: EOS's index, base - 2, is its id less 1
                self._gram_codes = codes * self.base + np.where(
                    self.out == self.base - 2, self.base - 1, self.out)
            grams = self._grams[table] = sorted_index(
                table.gram_codes, self._suffixes(self._gram_codes, width, table.order))
        return grams

    def level(self, keys: RowKeys, on_grams: bool) -> tuple:
        """The cells as a level of `keys` sees them: the indices of the
        cells whose history's suffix has a row there and that are not on
        its grams, those rows and the cells' emission indices, and, with
        `on_grams` (`keys` a count table with seen values on its grams),
        the indices of the cells on its grams and their gram index there,
        else two None.  Every LM of one keys' level reads the same ones."""
        kept = self._levels.setdefault(keys, {})
        if on_grams not in kept:
            rows = self.rows(keys)[self.hist]
            off, on, grams = rows >= 0, None, None
            if on_grams:
                grams = self.grams(keys)
                on = np.flatnonzero(grams >= 0)
                grams = grams[on]
                off[on] = False
            off = np.flatnonzero(off)
            kept[on_grams] = off, rows[off], self.out[off], on, grams
        return kept[on_grams]

    def _suffixes(self, codes: np.ndarray, width: int, suffix: int) -> np.ndarray:
        """The codes of the last `suffix` digits of `width`-digit codes."""
        if suffix == width:
            return codes
        return (codes % self.base ** suffix).astype(_code_dtype(self.base, suffix), copy=False)


def check_histories(vocab: Vocabulary, length: int, hists, bos_prefix: bool = True
                    ) -> np.ndarray:
    """Raise ValueError naming the first of `hists`, history tuples or an
    (N, length) id array, that is not `length` ids of symbols or BOS, or,
    with `bos_prefix`, has a BOS after a symbol, which BOS padding never
    forms.  Returns the histories as an (N, length) id array."""
    if not isinstance(hists, np.ndarray):
        lengths = np.fromiter(map(len, hists), dtype=np.intp, count=len(hists))
        if (lengths != length).any():
            h = tuple(hists[int(np.argmax(lengths != length))])
            raise ValueError(f"history {h} has length {len(h)}, expected {length}")
        hists = np.fromiter(chain.from_iterable(hists), dtype=np.intp,
                            count=length * len(hists)).reshape(len(hists), length)
    elif hists.ndim != 2 or hists.shape[1] != length:
        raise ValueError(f"history ids of shape {hists.shape} are not (N, {length})")
    bad = _any_in_row((hists < 0) | (hists > vocab.bos_id))
    if bad.any():
        raise ValueError(f"history id is not a symbol or BOS in {_first(hists, bad)}")
    if bos_prefix:
        is_bos = hists == vocab.bos_id
        bad = _any_in_row(is_bos[:, 1:] & ~is_bos[:, :-1])
        if bad.any():
            raise ValueError(f"BOS is not a contiguous prefix of history {_first(hists, bad)}")
    return hists


def _any_in_row(mask: np.ndarray) -> np.ndarray:
    """mask.any(axis=1) of an (N, w) bool array, by OR-ing its w columns:
    histories are a few ids wide, and a reduction along such short rows
    runs one short inner loop per row."""
    found = np.zeros(len(mask), dtype=bool)
    for col in mask.T:
        found |= col
    return found


def history_ids(vocab: Vocabulary, length: int, hists: RowKeys | np.ndarray | Sequence[History]
                ) -> np.ndarray:
    """The (N, length) id array of `hists`: a RowKeys' own ids, or those of
    history tuples or an id array once check_histories (without the BOS
    rule) has passed them, so every id is below the code base."""
    if isinstance(hists, RowKeys):
        if hists.base != vocab.n_symbols + 2 or hists.ids.shape[1] != length:
            raise ValueError(f"histories of width {hists.ids.shape[1]} in base {hists.base} "
                             f"are not of length {length} over this vocabulary")
        return hists.ids
    return check_histories(vocab, length, hists, bos_prefix=False)


def history_codes(ids: np.ndarray, base: int) -> np.ndarray:
    """The code of each row of an (N, w) array of ids in [0, base): the
    number sum_j ids[:, j] base^(w-1-j), so codes sort as their rows do.
    They are int64, or Python ints (an object array) where base^w reaches
    2^63, so that no code overflows."""
    dtype = _code_dtype(base, ids.shape[1])
    codes = np.zeros(len(ids), dtype=dtype)
    for col in ids.T:
        codes *= base
        codes += col.astype(dtype, copy=False)
    return codes


# sorted_index looks codes up by direct address while its table has at most
# this many slots per key and query, and distinct_counts counts by bincount
# while its bins are as few per count.  Measured on int64 codes, 300-50,000
# keys and 500-50,000 queries (numpy 2.4, one core of a 2-vCPU Xeon VM):
# at 16 slots the direct lookup is 1.1-1.9x as fast as sorted_search with
# the queries in order and 2-5x with them shuffled, and from 24-32 slots on
# it can be the slower; its table holds at most 128 bytes per key and query
DIRECT_ADDRESS_SPAN = 16


def sorted_search(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.searchsorted(a, v), by one search of the queries `v` in sorted
    order, whose positions are scattered back: each query's search starts
    where the one before it ended, and reads memory in order.  Queries
    already in order take no argsort."""
    if (v[1:] >= v[:-1]).all():
        return np.searchsorted(a, v)
    sort = np.argsort(v)
    at = np.empty(len(v), dtype=np.intp)
    at[sort] = np.searchsorted(a, v[sort])
    return at


def sorted_index(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The index in the sorted, distinct, nonnegative codes `a` of each of
    the codes `v`, or -1 where it is absent.  Integer codes whose largest
    key is at most DIRECT_ADDRESS_SPAN times len(a) + len(v) are looked up
    by direct address, as KenLM's PROBING structure looks up an n-gram by
    one index: each key's index is scattered into a table of one slot per
    code up to the largest key, then one -1 slot, and each query gathers
    its slot, a query past the last key clipped to the -1 slot.  Other
    codes, object-dtype ones past 2^63 among them, take one
    sorted_search."""
    if not len(a):
        return np.full(len(v), -1, dtype=np.intp)
    if a.dtype.kind == v.dtype.kind == "i" and a[-1] <= DIRECT_ADDRESS_SPAN * (len(a) + len(v)):
        slot = np.full(a[-1] + 2, -1, dtype=np.intp)
        slot[a] = np.arange(len(a))
        return np.take(slot, v, mode="clip")
    at = sorted_search(a, v)
    np.minimum(at, len(a) - 1, out=at)
    at[a[at] != v] = -1
    return at


def distinct_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(counts, return_inverse=True) of counts, integers >= 1: the
    distinct counts in increasing order and the index among them of each.
    Counts whose largest is at most DIRECT_ADDRESS_SPAN times their number
    are indexed by one np.bincount, whose nonzero bins are the distinct
    counts and whose running number of them gives each count's index;
    larger ones are sorted."""
    if not len(counts) or counts.max() > DIRECT_ADDRESS_SPAN * len(counts):
        return np.unique(counts, return_inverse=True)
    present = np.bincount(counts) > 0
    return np.flatnonzero(present), (np.cumsum(present) - 1)[counts]


def _code_dtype(base: int, width: int):
    return object if base ** width >= 2 ** 63 else np.int64


def row_index(vocab: Vocabulary, length: int, hists: RowKeys | Sequence[History]) -> RowKeys:
    """The RowKeys of a model's rows, named by history tuples, an id array
    or a RowKeys (a count table), admitted as history_ids admits a lookup's
    histories; a RowKeys then passes through.  ValueError for a history
    listed twice, which would name two rows."""
    ids = history_ids(vocab, length, hists)
    if isinstance(hists, RowKeys):
        return hists
    base = vocab.n_symbols + 2
    codes = history_codes(ids, base)
    sort = np.argsort(codes)
    codes = codes[sort]
    twice = codes[1:] == codes[:-1]
    if twice.any():
        # the first listed of the histories listed more than once
        i = sort[np.r_[twice, False] | np.r_[False, twice]].min()
        raise ValueError(f"history {tuple(ids[i].tolist())} is listed more than once")
    return RowKeys(ids, codes, base, None if (sort == np.arange(len(sort))).all() else sort)


def _first(hists: np.ndarray, bad: np.ndarray) -> History:
    return tuple(hists[int(np.argmax(bad))].tolist())


def _gram_keys(vocab: Vocabulary, order: int, hists, hist, out) -> np.ndarray:
    """The ids CountTable.from_grams takes for the grams at rows `hist` of
    `hists`, history tuples or an id array, and emission indices `out`."""
    hist_ids = np.asarray(hists, dtype=np.intp).reshape(len(hists), order - 1)
    return np.column_stack([hist_ids[hist], np.where(out == vocab.n_symbols, vocab.eos_id, out)])


def corpus_from_lines(lines: Iterable[str], vocab: Vocabulary | None = None) -> Corpus:
    """Tokenize lines (whitespace split) into a Corpus, in one pass.

    Empty/whitespace-only lines are skipped and counted in `skipped_lines`.
    When `vocab` is given, every token must already be known to it;
    otherwise the vocabulary is built as the lines are read, its tokens in
    first-appearance order.
    """
    if vocab is None:
        id_of = defaultdict()
        id_of.default_factory = id_of.__len__   # a new token takes the next id
    else:
        id_of = vocab.id_of
    toks = list(map(str.split, lines))
    lengths = np.fromiter(map(len, toks), dtype=np.intp, count=len(toks))
    try:
        ids = np.fromiter(map(id_of.__getitem__, chain.from_iterable(toks)), dtype=np.intp,
                          count=lengths.sum())
    except KeyError as exc:
        raise ValueError(f"token {exc.args[0]!r} not present in vocabulary") from exc
    skipped = len(lengths) - np.count_nonzero(lengths)
    if vocab is None:
        if not len(ids):
            raise EmptyCorpusError("empty corpus")
        vocab = Vocabulary(symbols=tuple(id_of))
    if skipped:
        log.warning("skipped %d empty line(s)", skipped)
    return Corpus(vocab, ids, lengths[lengths > 0], skipped_lines=skipped)


def load_corpus(path: str, vocab: Vocabulary | None = None) -> Corpus:
    """Load a UTF-8, one-sequence-per-line corpus file.  A line ends at a
    newline only (text mode reads CRLF and a lone CR as one): a form feed,
    a vertical tab or U+2028 within a line parts two tokens."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    # the newline ending the last line leaves an empty piece, not a line;
    # interior blank lines still reach the skip counter
    return corpus_from_lines(lines[:-1] if not lines[-1] else lines, vocab=vocab)


def count_ngrams(corpus: Corpus, order: int) -> CountTable:
    """Tally (history, symbol) pairs of the BOS-padded corpus at `order`.

    Each sequence is padded with order-1 leading BOS; every position emits
    its token, and one final position per sequence emits EOS.  Histories
    therefore contain BOS only as a contiguous prefix.
    """
    if not isinstance(order, numbers.Integral) or isinstance(order, bool) or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    order, vocab, lengths = int(order), corpus.vocab, corpus.lengths
    # the padded id stream: each sequence's block is order-1 BOS, its
    # tokens, then EOS, so token i of the stream, in sequence k, follows
    # k + 1 blocks' BOS and k EOS
    ends = np.cumsum(lengths + order)
    padded = np.full(ends[-1], vocab.bos_id, dtype=np.intp)
    padded[ends - 1] = vocab.eos_id
    k = np.repeat(np.arange(len(lengths)), lengths)
    padded[np.arange(len(corpus.ids)) + order * (k + 1) - 1] = corpus.ids
    # the code of the window ending at each position; every position but
    # the padding emits
    codes = history_codes(np.lib.stride_tricks.sliding_window_view(padded, order),
                          vocab.n_symbols + 2)
    return CountTable.from_codes(order, vocab, codes[padded[order - 1:] != vocab.bos_id])


def table_at(data: Corpus | CountTable, order: int, vocab: Vocabulary | None = None
             ) -> CountTable:
    """The count table of a corpus at `order`; a table at `order` passes
    through.  With `vocab` (a model's), the data must use its symbols in the
    same order, since a history or emission is read by its id."""
    if vocab is not None and data.vocab.symbols != vocab.symbols:
        raise ValueError("data and model use different vocabularies; "
                         "load the corpus with the model's vocabulary")
    if isinstance(data, CountTable):
        if data.order != order:
            raise ValueError(f"counts are at order {data.order}, model at order {order}")
        return data
    return count_ngrams(data, order)


def zero_gram_count(table: CountTable) -> int:
    """r_0: unseen (history, symbol) cells over the observed histories."""
    return len(table.ids) * table.vocab.out_dim - len(table.count)


def marginalize(table: CountTable) -> CountTable:
    """Project an order-n table to order n-1 by dropping the oldest context
    symbol: the leading digit of each of its gram codes.  The sort that sums
    them also gives the table's `parents`, which are kept on it.

    Equivalent to recounting the corpus at order n-1, because BOS padding
    gives every position a full-length history at every order.
    """
    if table.order < 2:
        raise ValueError("cannot marginalize an order-1 table")
    order = table.order - 1
    down, grams = CountTable.from_codes(order, table.vocab, table.gram_codes % table.base ** order,
                                        table.count, return_inverse=True)
    rows = np.empty(len(table.ids), dtype=np.intp)
    rows[table.hist] = down.hist[grams]
    vars(table)["parents"] = rows, grams
    return down


def tables_down_to_unigram(table: CountTable) -> list[CountTable]:
    """All orders table.order, ..., 1, index k-1 holding the order-k table:
    each table's cached `marginal`, so the chain is built once per table."""
    tables = [table]
    while tables[-1].order > 1:
        tables.append(tables[-1].marginal)
    return tables[::-1]


def write_count_table(table: CountTable, path: str) -> None:
    """Export as TSV `history<TAB>symbol<TAB>count`, one line per gram."""
    write_cells(path, table.vocab, table.ids.tolist(), {"count": (table.count, "d")},
                cells=(table.hist, table.out))


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

# lines formatted per write, and characters of text read per block: bounded
# so that a large table is never held as text or Python objects at once
WRITE_CHUNK = 65536
READ_BLOCK = 1 << 19


def write_cells(path: str, vocab: Vocabulary, hists: Sequence[History], columns: dict,
                cells: tuple[np.ndarray, np.ndarray] | None = None,
                comment: str | None = None) -> None:
    """Write an optional `# comment` line, the column header and one line per
    cell, sorted by rendered history, then rendered symbol.  `columns` maps
    names to (values, format spec).  The cells are `cells` = (history rows,
    emission indices), or else every cell of (histories x emissions).  A
    1-D column given with `cells` holds one value per cell, and one of shape
    (histories x 1) one value per history; any other is broadcast to
    (histories x emissions) and read at each cell.

    A line is written as at most 2 + len(columns) texts, each ending in its
    tab or newline: the history's and the symbol's, each built once; one
    per column of cell values, each distinct bit pattern in a chunk of
    WRITE_CHUNK lines formatted once; and one per run of adjacent
    per-history columns, formatted once per history."""
    shape = (len(hists), vocab.out_dim)
    h_str = np.array([vocab.render_history(h) for h in hists], dtype=object)
    x_str = np.array([vocab.render(vocab.id_at_out(j)) for j in range(shape[1])], dtype=object)
    # a string's rank among the sorted strings orders the cells
    h_rank = np.unique(h_str, return_inverse=True)[1]
    x_rank = np.unique(x_str, return_inverse=True)[1]
    if cells is None:
        # every cell, by flat index: the histories in sorted order, each
        # with its symbols in sorted order
        order = (np.argsort(h_rank)[:, None] * shape[1] + np.argsort(x_rank)).ravel()
    else:
        hist, out = cells
        order = np.argsort(h_rank[hist] * shape[1] + x_rank[out], kind="stable")
    # a line's texts after its symbol's: an object array of one text per
    # history, or (values per cell or per (history, emission), spec, end)
    pieces = []
    for k, (v, spec) in enumerate(columns.values()):
        end = "\n" if k == len(columns) - 1 else "\t"
        if cells is not None and np.ndim(v) == 1:
            pieces.append((v, spec, end))
        elif np.shape(v) == (shape[0], 1):
            text = np.array([format(x, spec) + end for x in np.ravel(v).tolist()], dtype=object)
            if pieces and not isinstance(pieces[-1], tuple):
                text = pieces.pop() + text
            pieces.append(text)
        else:
            pieces.append((np.broadcast_to(v, shape), spec, end))
    h_str += "\t"
    x_str += "\t"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        f.write("\t".join(["history", "symbol", *columns]) + "\n")
        lines = np.empty((min(len(order), WRITE_CHUNK), 2 + len(pieces)), dtype=object)
        for start in range(0, len(order), WRITE_CHUNK):
            part = order[start:start + WRITE_CHUNK]
            h, x = np.divmod(part, shape[1]) if cells is None else (hist[part], out[part])
            texts = lines[:len(part)]
            texts[:, 0], texts[:, 1] = h_str[h], x_str[x]
            for j, piece in enumerate(pieces, 2):
                if isinstance(piece, tuple):
                    v, spec, end = piece
                    texts[:, j] = _formatted(v[part] if v.ndim == 1 else v[h, x], spec, end)
                else:
                    texts[:, j] = piece[h]
            f.write("".join(texts.ravel().tolist()))


def _formatted(values: np.ndarray, spec: str, end: str) -> np.ndarray:
    """`format(value, spec) + end` of each value, as an object array; each
    distinct bit pattern is formatted once, so -0.0 and a NaN keep their own
    text."""
    bits, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    text = [format(v, spec) + end for v in bits.view(values.dtype).tolist()]
    return np.array(text, dtype=object)[inverse]


def read_cells(path: str, columns: dict) -> tuple:
    """Read a write_cells file; `columns` maps names to parsers (int, float).
    Returns the comment or None, the vocabulary in order of first appearance,
    the histories, and per cell its history row, emission index and values.

    The lines are read in blocks of READ_BLOCK characters, each completed to
    its line's end and split into fields at once; blank lines are skipped.
    A block is split into lines only when it cannot be read, to name its
    first line, in file order, with a wrong column count or value."""
    width = len(columns) + 2
    step = width + 1   # a line's fields and its "\n" below
    # each distinct history and symbol string -> the row it first appears on
    hist_row: dict[str, int] = {}
    sym_row: dict[str, int] = {}
    hist, sym = [], []
    values = [[] for _ in columns]
    n = 0
    with open(path, encoding="utf-8") as f:
        comment, header = None, f.readline().rstrip("\n")
        if header.startswith("# "):
            comment, header = header[2:], f.readline().rstrip("\n")
        if header != "\t".join(["history", "symbol", *columns]):
            raise ValueError(f"{path}: bad column header")
        while text := f.read(READ_BLOCK):
            if text[-1] != "\n":
                text += f.readline()
            if "\n\n" in text or text[0] == "\n":
                # a blank line is a "\n" at the block's start or after another
                text = re.sub("\n\n+", "\n", text).lstrip("\n")
                if not text:
                    continue
            # a line's fields, then "\n" in place of its newline
            fields = text.replace("\n", "\t\n\t").split("\t")
            if text[-1] != "\n":
                fields += ["\n", ""]
            rows = range(n, n + (len(fields) - 1) // step)
            if len(fields) != len(rows) * step + 1 or \
                    fields[width::step].count("\n") != len(rows):
                raise _first_defect(path, columns, text)
            hist.append(np.fromiter(map(hist_row.setdefault, fields[0:-1:step], rows),
                                    np.int64, len(rows)))
            sym.append(np.fromiter(map(sym_row.setdefault, fields[1:-1:step], rows),
                                   np.int64, len(rows)))
            try:
                for j, (col, parse) in enumerate(zip(values, columns.values())):
                    col.append(np.fromiter(map(parse, fields[j + 2:-1:step]), _dtype(parse),
                                           len(rows)))
            except (ValueError, OverflowError):
                raise _first_defect(path, columns, text) from None
            n = rows.stop
            del text, fields
    if not n:
        raise ValueError(f"{path}: no data rows")
    # vocabulary in order of first appearance, a history's tokens before its
    # line's symbol
    firsts = [(r, 0, h.split(" ") if h else ()) for h, r in hist_row.items()]
    firsts += [(r, 1, (x,)) for x, r in sym_row.items()]
    tokens = dict.fromkeys(chain.from_iterable(t for *_, t in sorted(firsts, key=lambda e: e[:2])))
    try:
        vocab = Vocabulary(symbols=tuple(t for t in tokens if t not in (BOS_TOKEN, EOS_TOKEN)))
        out_of_sym = np.array([vocab.out_index(vocab.parse(x)) for x in sym_row], dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    hists = [tuple(map(vocab.parse, h.split(" "))) if h else () for h in hist_row]
    if len({len(h) for h in hists}) > 1:
        raise ValueError(f"{path}: inconsistent history lengths")
    # a string's first row -> its number among the strings, by one gather;
    # each list of blocks is joined and let go before its gather
    number = np.empty(n, dtype=np.int64)
    number[np.fromiter(hist_row.values(), np.int64)] = np.arange(len(hist_row))
    hist = np.concatenate(hist)
    hist = number[hist]
    number[np.fromiter(sym_row.values(), np.int64)] = out_of_sym
    sym = np.concatenate(sym)
    out = number[sym]
    del number, sym
    keys = hist * vocab.out_dim
    keys += out
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise ValueError(f"{path}: duplicate gram row")
    return comment, vocab, hists, hist, out, [np.concatenate(col) for col in values]


def _dtype(parse) -> type:
    """The array dtype of a column `parse` reads: int64 for int, else float64."""
    return np.int64 if parse is int else np.float64


def _first_defect(path: str, columns: dict, block: str) -> ValueError:
    """The error naming `path` and the first line of `block`, in file order,
    that has the wrong number of columns or a value its parser refuses."""
    # each line with its "\n", but for an unended last one
    for line in re.findall(r"[^\n]*\n|[^\n]+\Z", block):
        texts = line.rstrip("\n").split("\t")
        if len(texts) != len(columns) + 2:
            return ValueError(f"{path}: expected {len(columns) + 2} columns in {line!r}")
        for parse, text in zip(columns.values(), texts[2:]):
            try:
                np.array(parse(text), _dtype(parse))
            except (ValueError, OverflowError) as exc:
                return ValueError(f"{path}: {exc} in {line!r}")
    raise AssertionError(f"{path}: a block failed to read but none of its lines did")
