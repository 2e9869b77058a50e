"""Conditional n-gram language models and their evaluation.

Hosts the empirical conditional (count-ratio) model, perplexity (one path,
`table_perplexity`) and the LM TSV reader and writer.  An LM scores cells
in one descent of its backstop chain, bottom up, by gathers over a
corpus.Placement of the queries; an LM built on a count table scores
held-out data through the placement the table keeps of it.  Natural log
throughout.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .corpus import (Corpus, CountTable, History, Placement, RowKeys, Vocabulary,
                     check_histories, history_ids, read_cells, row_index,
                     table_at, write_cells)

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
    row is h's parent row (h without its oldest symbol) in the backstop,
    when that is the LM of the table's `marginal`, or a row of ones.
    `level` builds one, as every smoother and `empirical_conditional` do;
    it keeps only the seen values, a, d and the backstop, reads each
    history's parent row and each gram's parent cell off the table's
    `parents`, and checks its rows in O(grams).  `gram_cells`
    gives an LM's values on its own keys' grams with no search: a level's
    seen values, or a gather from a given matrix.  An LM given a
    dense matrix keeps that matrix as its rows, the base of a level with
    a = d = 1 and no seen cells: `table` is then a mapping history ->
    vector (stacked into one matrix), or a pair (histories, matrix) whose
    row i belongs to histories[i].

    `keys` holds the histories of the rows, each once (the RowKeys of
    row_index, or the count table itself).  `matrix`, the dense rows, is a
    view built on first read (by `fresh_rows`) for the readers that ask:
    `rows` of other keys, `conditional`, training's bundle objectives, the
    dict `table` (history -> view of its row, for `perfbench/`) and the
    writers.  `cells` never builds a row, and a level's `mass`, `off_mass`
    and `xlogx` (so its `entropy`) come from its parts.

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
              backstop: ConditionalLM | None = None, method: str = "",
              params: dict | None = None, validate: bool = True) -> ConditionalLM:
        """The level of `table`'s histories whose cells on the table's grams
        hold `seen` and whose other cells are base * a / d.  A backstop keyed
        by a count table must be the LM of `table.marginal`, else ValueError;
        the base row is then each history's parent row there, found by the
        table's `parents`.  Any other backstop, or none, gives a row of ones.
        With `validate`, `check` runs, in O(grams)."""
        on_parent = backstop is not None and isinstance(backstop.keys, CountTable)
        if on_parent and backstop.keys is not table.marginal:
            raise ValueError("a backstop keyed by a count table must be the LM of the "
                             "table's marginal")
        lm = cls.__new__(cls)
        lm._setup(table.order, table.vocab, table, backstop, method, params,
                  np.asarray(seen, dtype=float), a, d, backstop if on_parent else None)
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
    def entropy(self) -> np.ndarray:
        """Each row's entropy, -`xlogx`."""
        return -self.xlogx

    @cached_property
    def xlogx(self) -> np.ndarray:
        """Each row's sum of s log s over its positive cells.  A level's
        comes from its parts, as `mass` does, in O(grams): with c = a / d,
        the seen values' terms plus c log c times the base mass off the
        grams, plus c times the base row's own sum (the level below's
        `xlogx` of the parent row, 0 for a row of ones) less the base
        cells' terms on the grams.  A given matrix sums its positive
        cells."""
        if self.seen is None:
            i, j = np.nonzero(self.base > 0.0)
            p = self.base[i, j]
            return np.bincount(i, p * np.log(p), len(self.base))
        t, n = self.keys, len(self.keys.ids)
        c = np.broadcast_to(np.divide(self.a, self.d), n)
        if self.base is None:
            base = 0.0
        else:
            rows, grams = t.parents
            base = self.backstop.xlogx[rows] - np.bincount(
                t.hist, _xlogx(self.backstop.gram_cells[grams]), n)
        log_c = np.log(c, out=np.zeros(n), where=c > 0.0)
        return np.bincount(t.hist, _xlogx(self.seen), n) + log_c * self.off_mass + c * base

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
        return np.take(self.backstop.matrix, self.keys.parents[0][rows], axis=0)

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
            base_mass, on = np.full(n, float(self.vocab.out_dim)), np.ones(len(t.hist))
        elif isinstance(self.base, np.ndarray):
            base_mass, on = self.base.sum(axis=1), self.base[t.hist, t.out]
        else:
            rows, grams = t.parents
            base_mass, on = self.backstop.mass[rows], self.backstop.gram_cells[grams]
        base_mass -= np.bincount(t.hist, on, n)
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
        without a row.  The keys' histories and the cells are placed in
        each level of the backstop chain (a Placement: one lookup of the
        histories and, on a level of a count table, one of the cells), and
        `placed_cells` gathers them."""
        return self.placed_cells(Placement(history_ids(self.vocab, self.order - 1, keys),
                                           hist, out))

    def placed_cells(self, place: Placement) -> np.ndarray:
        """The cells of `place`, queries of this LM's order: each cell's
        value at the highest level of the backstop chain that holds its
        history's suffix.  With no backstop below a level, a history
        unseen there and at every level above raises UnseenHistoryError,
        naming the suffix of the first.  The levels are then scored bottom
        up, by gathers: a cell on a level's grams takes its seen value,
        another cell of a seen history its base cell times a, divided by
        d (the base cell is 1, the given matrix's cell or, on the
        backstop, the value of the level below), and a cell of an unseen
        history the value of the level below."""
        levels, lm, reach = [], self, None
        while lm is not None:
            rows = place.rows(lm.keys)
            unseen = rows < 0 if reach is None else reach & (rows < 0)
            if lm.backstop is None and unseen.any():
                first = place.ids[np.argmax(unseen), self.order - lm.order:]
                raise UnseenHistoryError(tuple(first.tolist()))
            levels.append(lm)
            lm, reach = lm.backstop, unseen
        p = np.empty(len(place.hist))
        for lm in reversed(levels):
            off, rows, out, on, grams = place.level(lm.keys, lm.seen is not None)
            if lm.base is None:
                q = np.ones(len(rows))
            elif isinstance(lm.base, np.ndarray):
                q = lm.base[rows, out]
            else:
                q = p[off]
            q *= lm.a[rows] if np.ndim(lm.a) else lm.a
            q /= lm.d[rows] if np.ndim(lm.d) else lm.d
            if on is not None:
                p[on] = lm.seen[grams]
            p[off] = q
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


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x log x of each entry of a nonnegative vector, with 0 log 0 = 0."""
    return x * np.log(x, out=np.zeros(len(x)), where=x > 0.0)


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
    where = f"history {tuple(np.asarray(hists[i]).tolist())}" if hists is not None else f"row {i}"
    where = f"{name} {where}" if name else where
    if negative[i]:
        raise NormalizationError(f"{where}: negative probability")
    raise NormalizationError(f"{where}: probabilities sum to {float(sums[i])!r}, not 1")


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
    table at the model's order: the model's cells of the table's grams,
    scored by table_perplexity.  An LM built on a count table scores the
    table's placement of the data (CountTable.locate), which counts a
    corpus once for every LM of the table; any other model scores
    `model.cells`.  The data must use the model's vocabulary."""
    if isinstance(model, ConditionalLM) and isinstance(model.keys, CountTable):
        place = model.keys.locate(data)
        return table_perplexity(model.placed_cells(place), place.table)
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
