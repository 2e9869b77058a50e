"""Corpus loading, vocabulary construction, and n-gram counting.

A corpus is two integer arrays, its sequences' token ids in turn and
their lengths, with no sentinel: BOS enters only as logical padding when
histories are formed, EOS only as the terminal event of each sequence.
All counting conventions downstream (conditional distributions, smoothing,
training weights) are defined in terms of the tables built here.

A CountTable is its sorted gram arrays, standing on its marginal, the
table one order down, and so on to order 1: the backoff chain the
smoothers read.  Each history and gram of the chain is one int64 code,
its oldest id and its suffix's index one level down (Pauls & Klein 2011,
section 3), so codes sort as their id tuples do at every order, and a
table's `parents` are their remainders.  CountTable.build makes every
chain bottom-up, from a corpus's padded windows or, through from_grams,
which checks them first, a count file's cells.  A model's rows are named
by a RowKeys, whose `find`, like a table's placement of held-out data
(`locate`, kept for every LM of the table), walks the queries up the
levels, looking each up by code (sorted_index): by direct address where
the codes are small integers, as below the top of an order-3 chain over a
few hundred symbols, else by a search in sorted order (sorted_search).
Small integer keys are indexed, not sorted, throughout: distinct gives
the smoothers counts-of-counts, and `build` each window's gram below the
top, from one bincount, and check_histories ORs a history's few id
columns.  A corpus's sequences, the history tuples and the table's count
dicts are views for `perfbench/`, the tests and the oracles.
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
    """The histories naming the rows of a matrix: row i is history ids[i],
    ids of `vocab`.  Keys of width w > 0 stand on `below`, the keys one id
    narrower holding each history's parent (the history without its
    oldest id), in code order, and so on to width 0, whose one history ()
    has the code 0.  A history's code is its oldest id times
    len(below.codes) plus its parent's row there, so codes sort as the id
    tuples do and are int64 at any width.  `codes` holds them sorted, each
    once, and `code_rows` the row of each, or None when the rows are in
    code order.  The tuple `hists` and the dict `index`, mapping each
    history to its row, are views built on first read for `perfbench/`,
    the tests and the oracles; no pipeline code reads them per history.
    Keys compare and hash by identity, as the pipeline compares them with
    `is`."""

    ids: np.ndarray
    codes: np.ndarray
    code_rows: np.ndarray | None
    below: RowKeys | None
    vocab: Vocabulary

    @cached_property
    def hists(self) -> tuple[History, ...]:
        return tuple(map(tuple, self.ids.tolist()))

    @cached_property
    def index(self) -> dict[History, int]:
        return dict(zip(self.hists, range(len(self.hists))))

    def find(self, ids: np.ndarray) -> np.ndarray:
        """The row of each history of `ids`, an (N, width) array of ids
        that history_ids has checked, or -1 where it names no row."""
        return Placement(ids).rows(self)


@dataclass(frozen=True, eq=False)
class CountTable(RowKeys):
    """Counts of (history, symbol) pairs at order n: gram (h, x) counts the
    positions whose length-(n-1) padded history is h and whose emitted id
    (a symbol or EOS) is x.  The table is its grams, and its histories are
    its RowKeys, in code order: row i is history ids[i], with row total
    totals[i]; gram g adds count[g] at row hist[g], emission index out[g].
    Invariant, set by `build`: the histories are sorted and each has a
    gram; the grams are sorted by (row, emission index), each once, with a
    count of at least 1; and the histories pass check_histories, as
    count_ngrams forms only such histories and from_grams checks them.  As
    BOS and EOS's emission index are both n_symbols, this is the order of
    sorting the (history, emitted id) pairs, and `hists` is
    sorted(history_count).

    Above order 1 a table stands on its `marginal` (its `below`), built
    with it.  A gram's code, in `gram_codes`, is its emission index at
    order 1, and above it its oldest id times the number of grams one order
    down plus the index there of its parent gram (the gram without that
    id), so `parents` (Chen & Goodman 1998, section 2.8) are remainders."""

    order: int
    hist: np.ndarray
    out: np.ndarray
    count: np.ndarray
    totals: np.ndarray
    gram_codes: np.ndarray

    @classmethod
    def build(cls, vocab: Vocabulary, windows: Sequence[np.ndarray],
              counts: np.ndarray | None = None) -> CountTable:
        """The table of the windows of ids whose `order` columns, oldest
        first, are `windows`, each a history's ids and then its emitted id,
        occurring once, or counts[i] times; equal windows are summed.  Their
        grams are coded from order 1 up (see _suffix_codes), the top order by
        np.sort and run lengths, or argsort and add.reduceat with `counts`,
        and each order's table is read off its distinct gram codes and the
        table below.  The caller vouches that every id is in range."""
        levels, codes = _suffix_codes([*windows[:-1], np.minimum(windows[-1], vocab.n_symbols)])
        grams = []
        for level, index in levels:
            if counts is None:
                count = np.bincount(index, minlength=len(level))
            else:
                count = np.zeros(len(level), dtype=np.int64)
                np.add.at(count, index, counts)
            grams.append((level, count))
        sort = None if counts is None else np.argsort(codes)
        codes = np.sort(codes) if sort is None else codes[sort]
        first = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
        count = np.diff(first, append=len(codes)) if sort is None else \
            np.add.reduceat(counts[sort], first)
        grams.append((codes[first], count))
        table = None
        for order, (gram_codes, count) in enumerate(grams, 1):
            if table is None:
                # order 1: the one history (), and each gram's code its emission index
                out, hist_codes = gram_codes.astype(np.intp), np.zeros(len(gram_codes), np.int64)
            else:
                # a gram's history is its oldest id and its parent gram's history
                oldest, parent = np.divmod(gram_codes, len(table.gram_codes))
                out, parent_rows = table.out[parent], table.hist[parent]
                hist_codes = oldest * len(table.codes) + parent_rows
            new_hist = np.concatenate(([True], hist_codes[1:] != hist_codes[:-1]))
            first = np.flatnonzero(new_hist)
            ids = np.empty((1, 0), dtype=np.intp) if table is None else \
                np.column_stack([oldest[first], table.ids[parent_rows[first]]])
            table = cls(ids=ids, codes=hist_codes[first], code_rows=None, below=table,
                        vocab=vocab, order=order, hist=np.cumsum(new_hist) - 1, out=out,
                        count=count, totals=np.add.reduceat(count, first), gram_codes=gram_codes)
        return table

    @classmethod
    def from_grams(cls, order: int, vocab: Vocabulary, keys, counts) -> CountTable:
        """The table of the (N, order) ids `keys`, each row a history and
        then its emitted id, occurring counts[g] times; equal rows are
        summed.  The rows are checked to be in range before `build` counts
        them, and the histories, the BOS rule too, after."""
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
        table = cls.build(vocab, keys.T, counts)
        check_histories(vocab, order - 1, table.ids)
        return table

    @property
    def total_tokens(self) -> int:
        return int(self.count.sum())

    @cached_property
    def count_of_counts(self) -> dict[int, int]:
        """{i: number of grams occurring exactly i times}."""
        values, inverse = distinct(self.count)
        return dict(zip(values.tolist(), np.bincount(inverse, minlength=len(values)).tolist()))

    @property
    def marginal(self) -> CountTable:
        """The table one order down, `below`, the recount at order n-1 (BOS
        padding gives every position a full-length history at every order)."""
        if self.below is None:
            raise ValueError("cannot marginalize an order-1 table")
        return self.below

    @cached_property
    def parents(self) -> tuple[np.ndarray, np.ndarray]:
        """The row in `marginal` of each history's parent (the history
        without its oldest id), and the index there of each gram's parent
        gram (the same emission): the remainders of `codes` and
        `gram_codes`."""
        below = self.marginal
        return self.codes % len(below.codes), self.gram_codes % len(below.gram_codes)

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
        histories and grams, come sorted, so a search there takes no
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
            place = placements[data] = Placement(held.ids, held.hist, held.out)
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
    (N, width) ids, and cells (hist[g], out[g]) of them.  For the keys of
    a level, histories of width k - 1 no wider than the queries',
    `rows(keys)` gives the row there of each query history's length-(k-1)
    suffix, and `grams(table)`, for a count table of order k, the index
    among its grams of each cell's length-k suffix gram; each is -1 where
    there is none.  Both walk up the levels from width 0 as codes are made,
    a suffix whose parent is missing being missing, and look each level up
    once per keys (sorted_index), on first read, kept while the keys live,
    as are the gathers `level` makes of them for scoring the cells.
    CountTable.locate gives a held-out table's, with the table as `table`;
    RowKeys.find and ConditionalLM.cells make one of any queries."""

    def __init__(self, ids: np.ndarray, hist: np.ndarray | None = None,
                 out: np.ndarray | None = None):
        self.ids, self.hist, self.out = ids, hist, out
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
            if keys.below is None:
                # width 0: every history's suffix is (), the one key there can be
                rows = np.full(len(self.ids), 0 if len(keys.codes) else -1, dtype=np.intp)
            else:
                oldest = self.ids[:, self.ids.shape[1] - keys.ids.shape[1]]
                rows = _index_above(keys.codes, len(keys.below.codes), oldest,
                                    self.rows(keys.below))
                if keys.code_rows is not None:
                    rows = np.where(rows < 0, -1, keys.code_rows[rows])
            self._rows[keys] = rows
        return rows

    def grams(self, table: CountTable) -> np.ndarray:
        """The index in `table`'s gram_codes of each cell's suffix gram, -1
        where the table has none."""
        grams = self._grams.get(table)
        if grams is None:
            if table.below is None:
                # order 1: a gram's code is its emission index
                grams = sorted_index(table.gram_codes, self.out)
            else:
                oldest = self.ids[self.hist, self.ids.shape[1] + 1 - table.order]
                grams = _index_above(table.gram_codes, len(table.below.gram_codes), oldest,
                                     self.grams(table.below))
            self._grams[table] = grams
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
    """The (N, length) id array of `hists`: a RowKeys' own ids, if they are
    `length` ids of this vocabulary, or those of history tuples or an id
    array once check_histories (without the BOS rule) has passed them."""
    if isinstance(hists, RowKeys):
        if hists.vocab != vocab or hists.ids.shape[1] != length:
            raise ValueError(f"histories of width {hists.ids.shape[1]} over "
                             f"{hists.vocab.n_symbols} symbols are not of length {length} "
                             "over this vocabulary")
        return hists.ids
    return check_histories(vocab, length, hists, bos_prefix=False)


# sorted_index looks codes up by direct address while its table has at most
# this many slots per key and query.  Measured on int64 codes, 300-50,000
# keys and 500-50,000 queries (numpy 2.4, one core of a 2-vCPU Xeon VM):
# at 16 slots the direct lookup is 1.1-1.9x as fast as sorted_search with
# the queries in order and 2-5x with them shuffled, and from 24-32 slots on
# it can be the slower; its table holds at most 128 bytes per key and query
DIRECT_ADDRESS_SPAN = 16
# distinct finds values by bincount, not by sorting them, while its bins are
# at most this many per value.  On uniform int64 values, 8,500 and 100,000
# of them (same VM), np.sort and its runs took 1.6x a bincount's time at 1
# bin per value, 0.7-1.2x at 2, 0.5x at 4 and 0.2-0.3x at 16
DISTINCT_SPAN = 2


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
    """The index in the sorted, distinct, nonnegative integer codes `a` of
    each of the nonnegative codes `v`, or -1 where it is absent.  Codes
    whose largest key is at most DIRECT_ADDRESS_SPAN times len(a) + len(v)
    are looked up by direct address, as KenLM's PROBING structure looks up
    an n-gram by one index: each key's index is scattered into a table of
    one slot per code up to the largest key, then one -1 slot, and each
    query gathers its slot, a query past the last key clipped to the -1
    slot.  Others take one sorted_search."""
    if not len(a):
        return np.full(len(v), -1, dtype=np.intp)
    if a[-1] <= DIRECT_ADDRESS_SPAN * (len(a) + len(v)):
        slot = np.full(a[-1] + 2, -1, dtype=np.intp)
        slot[a] = np.arange(len(a))
        return np.take(slot, v, mode="clip")
    at = sorted_search(a, v)
    np.minimum(at, len(a) - 1, out=at)
    at[a[at] != v] = -1
    return at


def distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_inverse=True) of nonnegative integers, such
    as counts or codes.  While the largest is at most DIRECT_ADDRESS_SPAN
    times their number, the distinct values (the nonzero bins of one
    np.bincount while it is at most DISTINCT_SPAN times, else np.sort's
    runs) are indexed by a table of one slot per value, as sorted_index
    looks codes up; larger values take np.unique."""
    top = values.max() if len(values) else 0
    if top > DIRECT_ADDRESS_SPAN * len(values) or not len(values):
        return np.unique(values, return_inverse=True)
    if top <= DISTINCT_SPAN * len(values):
        found = np.flatnonzero(np.bincount(values))
    else:
        found = np.sort(values)
        found = found[np.concatenate(([True], found[1:] != found[:-1]))]
    slot = np.empty(top + 1, dtype=np.intp)
    slot[found] = np.arange(len(found))
    return found, slot[values]


def row_index(vocab: Vocabulary, length: int, hists: RowKeys | Sequence[History]) -> RowKeys:
    """The RowKeys of a model's rows, named by history tuples, an id array
    or a RowKeys (a count table), admitted as history_ids admits a lookup's
    histories; a RowKeys then passes through.  The keys stand on the
    distinct suffixes of the histories, in code order, one level per
    width.  ValueError for a history listed twice, which would name two
    rows."""
    ids = history_ids(vocab, length, hists)
    if isinstance(hists, RowKeys):
        return hists
    below, codes = None, np.zeros(len(ids), dtype=np.int64)
    if length:
        levels, codes = _suffix_codes(list(ids.T))
        below = RowKeys(np.empty((1, 0), dtype=np.intp), np.zeros(1, dtype=np.int64), None, None,
                        vocab)
        for level, _ in levels:
            oldest, parent = np.divmod(level, len(below.codes))
            ids_below = np.column_stack([oldest, below.ids[parent]])
            below = RowKeys(ids_below, level, None, below, vocab)
    sort = np.argsort(codes)
    codes = codes[sort]
    twice = codes[1:] == codes[:-1]
    if twice.any():
        # the first listed of the histories listed more than once
        i = sort[np.r_[twice, False] | np.r_[False, twice]].min()
        raise ValueError(f"history {tuple(ids[i].tolist())} is listed more than once")
    code_rows = None if (sort == np.arange(len(sort))).all() else sort
    return RowKeys(ids, codes, code_rows, below, vocab)


def _suffix_codes(cols: list[np.ndarray]) -> tuple[list, np.ndarray]:
    """The codes of the rows whose ids, oldest first, are the columns
    `cols`, after, for each narrower width k = 1, ..., len(cols) - 1, the
    sorted distinct codes of the rows' width-k suffixes and each row's
    index among them (see distinct).  A code is the oldest id times the
    number of distinct suffixes one id narrower (1 at width 0) plus its own
    suffix's index there, so codes sort as the suffixes do."""
    levels, n, index = [], 1, 0
    for col in cols[:0:-1]:
        level, index = distinct(col * n + index)
        levels.append((level, index))
        n = len(level)
    return levels, cols[0] * n + index


def _index_above(codes: np.ndarray, n_below: int, oldest: np.ndarray, below: np.ndarray
                 ) -> np.ndarray:
    """The index in the sorted codes `codes` of the key whose oldest id is
    oldest[i] and whose own suffix has the index below[i] among the n_below
    keys one id narrower, or -1 where below[i] is -1 or there is no such
    key."""
    at = np.full(len(below), -1, dtype=np.intp)
    hit = np.flatnonzero(below >= 0)
    at[hit] = sorted_index(codes, oldest[hit] * n_below + below[hit])
    return at


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
    # the window ending at each position that emits, every one but the
    # padding's, one column at a time
    start = np.flatnonzero(padded[order - 1:] != vocab.bos_id)
    return CountTable.build(vocab, [padded[start + j] for j in range(order)])


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


def tables_down_to_unigram(table: CountTable) -> list[CountTable]:
    """All orders table.order, ..., 1, index k-1 holding the order-k table:
    the table's chain of marginals."""
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
