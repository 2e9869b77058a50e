"""Conditional n-gram language models and their evaluation.

Hosts the empirical conditional (count-ratio) model, perplexity (one path,
`table_perplexity`) and the LM TSV reader and writer.  Natural log
throughout.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .corpus import (Corpus, CountTable, History, RowKeys, Vocabulary, check_histories,
                     history_ids, read_cells, row_index, sorted_search, table_at,
                     write_cells)

PROB_ATOL = 1e-9


class UnseenHistoryError(KeyError):
    """Lookup of a history with no stored distribution and no backstop."""


class NormalizationError(ValueError):
    """A conditional row is negative somewhere or does not sum to 1."""


def uniform_backstop(vocab: Vocabulary) -> ConditionalLM:
    """The order-1 LM whose one row is uniform."""
    return ConditionalLM(1, vocab, ([()], np.full((1, vocab.out_dim), 1.0 / vocab.out_dim)),
                         validate=False)


class ConditionalLM:
    """Map from each length-(n-1) history to a probability vector over
    the emission alphabet (symbols in id order, EOS last).

    An LM is one backoff level in the form of Chen & Goodman (1998,
    section 2.8): its cells on the grams of a count table hold their own
    `seen` values, and any other cell of history h is base(h) * a(h) / d(h),
    where `a` and `d` are scalars or one value per history and the base
    row is h's parent row (h without its oldest symbols) in the backstop,
    or a row of ones.  `level` builds one, as every smoother and
    `empirical_conditional` do; it keeps only the seen values, a, d, the
    backstop and, on a parent base, each history's parent row and each
    gram's parent cell, and checks its rows in O(grams).  `gram_cells`
    gives an LM's values on its own keys' grams with no search: a level's
    seen values, or a gather from a given matrix.  An LM given a
    dense matrix keeps that matrix as its rows, the base of a level with
    a = d = 1 and no seen cells: `table` is then a mapping history ->
    vector (stacked into one matrix), or a pair (histories, matrix) whose
    row i belongs to histories[i].

    `keys` holds the histories of the rows, each once (the RowKeys of
    row_index, or the count table itself).  `matrix`, the dense rows, is a
    view built on first read (by `fresh_rows`) for the readers that ask:
    `rows` of other keys, `conditional`, the dict `table` (history -> view
    of its row, for `perfbench/`) and the writers.  `cells` never builds a
    row.

    `backstop` decides what an unseen history gets: None raises
    UnseenHistoryError (the maximum-likelihood convention, where the
    conditional is 0/0), otherwise it is a ConditionalLM of lower order (or
    of order 1), which gives the history the row of its suffix there.  The
    levels of a backoff smoother back off to one another this way.

    With `validate` (the default) the constructor checks the histories,
    the matrix's shape and that every row is a distribution (`check`), and
    `checked` records that it did, so a consumer (build_regularizer) need
    not check them again.  `validate=False` means the caller vouches for
    the rows: `uniform_backstop` builds its uniform row, and a copy of an
    LM that was checked keeps that LM's rows; `checked` is then False, and
    a consumer that relies on the rows checks them itself.
    """

    def __init__(
        self,
        order: int,
        vocab: Vocabulary,
        table: Mapping[History, np.ndarray] | tuple[Sequence[History] | RowKeys, np.ndarray],
        backstop: ConditionalLM | None = None,
        method: str = "",
        params: dict | None = None,
        validate: bool = True,
    ) -> None:
        if isinstance(table, tuple):
            hists, matrix = table
        else:
            hists, matrix = tuple(table), _stack_rows(table, vocab.out_dim)
        self._setup(order, vocab, row_index(vocab, order - 1, hists), backstop, method, params,
                    None, 1.0, 1.0, matrix)
        self.checked = validate
        if validate:
            ids = self.keys.ids
            if not isinstance(hists, CountTable):
                check_histories(vocab, order - 1, ids)
            if matrix.shape != (len(ids), vocab.out_dim):
                raise ValueError(f"row matrix has shape {matrix.shape}, expected "
                                 f"{(len(ids), vocab.out_dim)}")
            self.check()

    @classmethod
    def level(cls, table: CountTable, seen: np.ndarray, a=0.0, d=1.0,
              backstop: ConditionalLM | None = None,
              parent: tuple[np.ndarray, np.ndarray] | None = None, method: str = "",
              params: dict | None = None, validate: bool = True) -> ConditionalLM:
        """The level of `table`'s histories whose cells on the table's grams
        hold `seen` and whose other cells are base * a / d.  The base row is
        each history's parent row in `backstop` with `parent`, the pair
        (the row of each history's parent there and each gram's cell in its
        parent row, read off the table's `parents` and the backstop's
        `gram_cells`), else a row of ones.  With `validate`, `check` runs,
        in O(grams)."""
        lm = cls.__new__(cls)
        lm._setup(table.order, table.vocab, table, backstop, method, params,
                  np.asarray(seen, dtype=float), a, d, None if parent is None else backstop)
        if parent is not None:
            lm._parents, lm._grams_base = parent
        lm.checked = validate
        if validate:
            lm.check()
        return lm

    def _setup(self, order, vocab, keys, backstop, method, params, seen, a, d, base) -> None:
        self.order = order
        self.vocab = vocab
        self.keys = keys
        self.backstop = backstop
        self.method = method
        self.params = dict(params) if params else {}
        # the level: seen values on keys' grams (None: no seen cells), a and
        # d, and the base: None (ones), a matrix (the rows as given) or the
        # backstop (each history's parent row there)
        self.seen = seen
        self.a = a
        self.d = d
        self.base = base

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense rows, built on first read by `fresh_rows`; a given
        matrix is its own rows."""
        return self.base if self.seen is None else self.fresh_rows()

    def fresh_rows(self) -> np.ndarray:
        """A new matrix of the dense rows: the base rows times a, divided
        by d, then the seen cells."""
        a, d = (np.reshape(x, (-1, 1)) if np.ndim(x) else x for x in (self.a, self.d))
        if self.base is None:
            # 1 * a / d, bit for bit
            rows = np.divide(a, d, out=np.empty((len(self.keys.ids), self.vocab.out_dim)))
        else:
            rows = self._base_rows(np.arange(len(self.keys.ids)))
            if np.ndim(a) or a != 1.0:  # x * 1.0 is x, and x / 1.0 too
                rows *= a
            if np.ndim(d) or d != 1.0:
                rows /= d
        if self.seen is not None:
            rows[self.keys.hist, self.keys.out] = self.seen
        return rows

    @cached_property
    def table(self) -> dict[History, np.ndarray]:
        """History -> view of its row of `matrix`."""
        return dict(zip(self.keys.hists, self.matrix))

    def _base_rows(self, rows: np.ndarray) -> np.ndarray:
        """A fresh matrix of the base rows of the histories in `rows`."""
        if self.base is None:
            return np.ones((len(rows), self.vocab.out_dim))
        if isinstance(self.base, np.ndarray):
            return self.base[rows]
        return np.take(self.backstop.matrix, self._parents[rows], axis=0)

    def _base_cells(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A fresh array of the base cells (rows[g], out[g])."""
        if self.base is None:
            return np.ones(len(rows))
        if isinstance(self.base, np.ndarray):
            return self.base[rows, out]
        return self.backstop.cells(self.backstop.keys, self._parents[rows], out)

    @property
    def gram_cells(self) -> np.ndarray:
        """The cells on the grams of the keys, a count table, with no
        search: cells(keys, keys.hist, keys.out), bit for bit.  A level's
        are its `seen` values, and an LM given a matrix gathers them from
        it.  The array may be the level's own; a caller does not write to
        it."""
        if self.seen is not None:
            return self.seen
        return self.base[self.keys.hist, self.keys.out]

    @cached_property
    def _grams_base(self) -> np.ndarray:
        """The base cells on the grams of the keys, a count table; a level
        with a parent row is given them."""
        return self._base_cells(self.keys.hist, self.keys.out)

    def _cells(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The cells (rows[g], out[g]) of this level's own rows, as `matrix`
        holds them: a gram's seen value, else its base cell times a, divided
        by d, in that order."""
        p = np.empty(len(rows))
        off = np.ones(len(rows), dtype=bool)
        if self.seen is not None:
            # the grams' flat cell indices are sorted
            grams = self.keys.hist * self.vocab.out_dim + self.keys.out
            cell = rows * self.vocab.out_dim + out
            g = np.minimum(sorted_search(grams, cell), len(grams) - 1)
            on = grams[g] == cell
            p[on] = self.seen[g[on]]
            off = ~on
        rows, out = rows[off], out[off]
        q = self._base_cells(rows, out)
        q *= self.a[rows] if np.ndim(self.a) else self.a
        q /= self.d[rows] if np.ndim(self.d) else self.d
        p[off] = q
        return p

    @cached_property
    def mass(self) -> np.ndarray:
        """Each row's sum, from the level's parts: the sum of its seen
        values plus `off_mass`; a given matrix's row sums."""
        if self.seen is None:
            return self.base.sum(axis=1)
        return np.bincount(self.keys.hist, self.seen, len(self.keys.ids)) + self.off_mass

    @cached_property
    def off_mass(self) -> np.ndarray:
        """Each row's mass off the grams of its keys, a count table:
        a / d * (base row mass - the sum of the base cells on the grams)."""
        t, n = self.keys, len(self.keys.ids)
        if self.base is None:
            base_mass = np.full(n, float(self.vocab.out_dim))
        elif isinstance(self.base, np.ndarray):
            base_mass = self.base.sum(axis=1)
        else:
            base_mass = self.backstop.mass[self._parents]
        base_mass -= np.bincount(t.hist, self._grams_base, n)
        return np.divide(self.a, self.d) * base_mass

    def check(self, name: str = "") -> None:
        """Raise NormalizationError, as check_distributions of `matrix`
        would, for the first row that has a negative cell or does not sum
        to 1 within PROB_ATOL, the message naming its history after `name`.
        A level is checked in O(grams): a row is negative where a seen value
        is, or where a / d is and a base cell off the grams is positive, and
        its sum is `mass`."""
        if self.seen is None:
            return check_distributions(self.base, self.keys.ids, name)
        t, n = self.keys, len(self.keys.ids)
        negative = np.bincount(t.hist, self.seen < 0, n) > 0
        flips = np.broadcast_to(np.divide(self.a, self.d) < 0, n)
        if flips.any():
            # the base rows of those histories, off the grams
            rows = np.flatnonzero(flips)
            positive = self._base_rows(rows) > 0
            on = flips[t.hist]
            positive[np.searchsorted(rows, t.hist[on]), t.out[on]] = False
            negative[rows] |= positive.any(axis=1)
        _first_bad(negative, self.mass, t.ids, name)

    def rows(self, hists: RowKeys | np.ndarray | Sequence[History]) -> np.ndarray:
        """Row matrix of `hists` (history tuples, an id array or a count
        table) in that order: `matrix` itself when they are its histories.
        Otherwise `keys.find` looks them all up at once, and the unseen
        ones get their suffixes' rows from the backstop, or raise
        UnseenHistoryError.  ValueError for a history that is not
        order-1 symbol or BOS ids."""
        if hists is self.keys:
            return self.matrix
        ids, found, unseen = self._find(hists)
        if not unseen.any():
            return self.matrix if np.array_equal(found, np.arange(len(self.keys.ids))) \
                else self.matrix[found]
        q = np.empty((len(ids), self.vocab.out_dim))
        q[unseen] = self.backstop.rows(ids[unseen, self.order - self.backstop.order:])
        q[~unseen] = self.matrix[found[~unseen]]
        return q

    def cells(self, keys: RowKeys | np.ndarray | Sequence[History], hist: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        """The probability of emission index out[g] after history
        keys[hist[g]], for each g: rows(keys)[hist, out], bit for bit,
        without a row.  One `keys.find`; a seen cell is its stored value, an
        unseen cell of a seen history its base cell times a, divided by d
        (a parent cell comes from the backstop's `cells`), and the cells of
        unseen histories come from one backstop `cells` call over the
        suffixes of the distinct unseen histories."""
        if keys is self.keys:
            return self._cells(hist, out)
        ids, found, unseen = self._find(keys)
        if not unseen.any():
            return self._cells(found[hist], out)
        # the unseen histories, renumbered in order, are the backstop's keys
        at = np.cumsum(unseen) - 1
        backs_off = unseen[hist]
        p = np.empty(len(hist))
        p[backs_off] = self.backstop.cells(ids[unseen, self.order - self.backstop.order:],
                                           at[hist[backs_off]], out[backs_off])
        stays = ~backs_off
        p[stays] = self._cells(found[hist[stays]], out[stays])
        return p

    def _find(self, hists) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ids of `hists`, the row of each (-1 where unseen) and the
        unseen mask, after one `keys.find`; with no backstop, an unseen
        history raises UnseenHistoryError naming the first."""
        ids = history_ids(self.vocab, self.order - 1, hists)
        found = self.keys.find(ids)
        unseen = found < 0
        if self.backstop is None and unseen.any():
            raise UnseenHistoryError(tuple(ids[np.argmax(unseen)].tolist()))
        return ids, found, unseen

    def conditional(self, history: Sequence[int]) -> np.ndarray:
        """The row of one history, a view of the row of the level that
        answers: the history is found in the keys' `index` view (a dict,
        for callers that ask one history at a time, the oracles of
        `verify`), or else checked and its suffix handed to the backstop's
        `conditional`; with no backstop, UnseenHistoryError."""
        h = tuple(history)
        i = self.keys.index.get(h)
        if i is not None:
            return self.matrix[i]
        ids = check_histories(self.vocab, self.order - 1, [h], bos_prefix=False)
        if self.backstop is None:
            raise UnseenHistoryError(tuple(ids[0].tolist()))
        return self.backstop.conditional(h[self.order - self.backstop.order:])


def check_distributions(rows: np.ndarray, hists: Sequence[History] | None = None,
                        name: str = "") -> None:
    """Raise NormalizationError for the first row of `rows` that has a
    negative entry or does not sum to 1 within PROB_ATOL.  The message names
    the row's history from `hists` (tuples or an id array), or its index,
    after `name`."""
    _first_bad(rows.min(axis=1) < 0, rows.sum(axis=1), hists, name)


def _first_bad(negative: np.ndarray, sums: np.ndarray, hists, name: str) -> None:
    """check_distributions of the rows with these negative flags and sums."""
    # a NaN compares false, so a row holding one fails the closeness test
    bad = negative | ~(np.abs(sums - 1.0) <= PROB_ATOL)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    where = f"history {_history(hists[i])}" if hists is not None else f"row {i}"
    where = f"{name} {where}" if name else where
    if negative[i]:
        raise NormalizationError(f"{where}: negative probability")
    raise NormalizationError(f"{where}: probabilities sum to {float(sums[i])!r}, not 1")


def _history(h) -> History:
    return tuple(h.tolist()) if isinstance(h, np.ndarray) else h


def _stack_rows(table: Mapping[History, np.ndarray], out_dim: int) -> np.ndarray:
    matrix = np.empty((len(table), out_dim))
    for i, (h, v) in enumerate(table.items()):
        v = np.asarray(v, dtype=float)
        if v.shape != (out_dim,):
            raise ValueError(f"history {h}: wrong vector length {v.shape}")
        matrix[i] = v
    return matrix


def empirical_conditional(table: CountTable) -> ConditionalLM:
    """Count-ratio conditional model, the level whose seen cells are the
    count ratios and a = 0; unseen histories are left undefined."""
    return ConditionalLM.level(table, table.count / table.totals[table.hist], method="empirical")


def perplexity(model, data: Corpus | CountTable) -> float:
    """exp of per-emission negative log-likelihood (one EOS per sequence) of
    a conditional model, an LM or a neural model, on a corpus or its count
    table at the model's order: `model.cells` of the table's grams, scored
    by table_perplexity.  The data must use the model's vocabulary."""
    t = table_at(data, model.order, model.vocab)
    return table_perplexity(model.cells(t, t.hist, t.out), t)


def table_perplexity(p: np.ndarray, table: CountTable) -> float:
    """exp(-sum count log p / sum count) over a count table's grams g, where
    p[g] is the model's probability of g; inf if a p[g] is 0."""
    if not p.all():
        return math.inf
    nll = -float(np.dot(table.count, np.log(p)))
    return math.exp(nll / table.count.sum())


def write_conditional_lm(lm: ConditionalLM, path: str) -> None:
    """TSV export of every row, after a `# method=... params=...` line."""
    params_json = json.dumps(lm.params, sort_keys=True, separators=(",", ":"))
    write_cells(path, lm.vocab, lm.keys.ids.tolist(), {"probability": (lm.matrix, ".12g")},
                comment=f"method={lm.method or 'unknown'} params={params_json}")


def read_conditional_lm(path: str) -> ConditionalLM:
    """Load an LM TSV; a history it does not list gets the uniform row."""
    comment, vocab, hists, hist, out, (probs,) = read_cells(path, {"probability": float})
    if not (comment or "").startswith("method="):
        raise ValueError(f"{path}: missing method header")
    method, _, params = comment.removeprefix("method=").partition(" params=")
    matrix = np.zeros((len(hists), vocab.out_dim))
    matrix[hist, out] = probs
    try:
        return ConditionalLM(len(hists[0]) + 1, vocab, (hists, matrix),
                             backstop=uniform_backstop(vocab), method=method,
                             params=json.loads(params) if params else {})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
