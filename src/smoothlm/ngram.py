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
                     history_ids, read_cells, row_index, table_at, write_cells)

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

    `table` is a mapping history -> vector, or a pair (histories, matrix)
    whose row i belongs to histories[i]; a matrix is kept as given, a
    mapping is stacked into one.  Either way `matrix` holds the rows and
    `keys`, the RowKeys of row_index, their histories, each listed once.
    Given a count table as the histories, the LM keeps the table itself as
    its keys and checks only the matrix.  The dict `table`, mapping each
    history to a view of its row, is built on first read for `perfbench/`;
    no pipeline code reads it.

    `backstop` decides what an unseen history gets: None raises
    UnseenHistoryError (the maximum-likelihood convention, where the
    conditional is 0/0), otherwise it is a ConditionalLM of lower order (or
    of order 1), which gives the history the row of its suffix there.  The
    levels of a backoff smoother back off to one another this way.

    With `validate` (the default) the constructor checks the matrix's
    shape and that every row is a distribution, and `checked` records that
    it did, so a consumer of the rows (build_regularizer) need not check
    them again.  `validate=False` means the caller vouches for the rows:
    `uniform_backstop` builds its uniform row, and a copy of an LM that
    was checked keeps that LM's rows; `checked` is then False, and a
    consumer that relies on the rows checks them itself.
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
        self.order = order
        self.vocab = vocab
        if isinstance(table, tuple):
            hists, self.matrix = table
        else:
            hists, self.matrix = tuple(table), _stack_rows(table, vocab.out_dim)
        self.keys = row_index(vocab, order - 1, hists)
        self.backstop = backstop
        self.method = method
        self.params = dict(params) if params else {}
        self.checked = validate
        if validate:
            self._validate(checked=isinstance(hists, CountTable))

    @cached_property
    def table(self) -> dict[History, np.ndarray]:
        """History -> view of its row of `matrix`."""
        return dict(zip(self.keys.hists, self.matrix))

    def _validate(self, checked: bool) -> None:
        """Check every row at once, and the histories unless a count table
        has `checked` them; an error names the first bad history."""
        ids = self.keys.ids
        if not checked:
            check_histories(self.vocab, self.order - 1, ids)
        if self.matrix.shape != (len(ids), self.vocab.out_dim):
            raise ValueError(f"row matrix has shape {self.matrix.shape}, expected "
                             f"{(len(ids), self.vocab.out_dim)}")
        check_distributions(self.matrix, ids)

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
            return self.matrix if np.array_equal(found, np.arange(len(self.matrix))) \
                else self.matrix[found]
        q = np.empty((len(ids), self.vocab.out_dim))
        q[unseen] = self.backstop.rows(ids[unseen, self.order - self.backstop.order:])
        q[~unseen] = self.matrix[found[~unseen]]
        return q

    def cells(self, keys: RowKeys | np.ndarray | Sequence[History], hist: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        """The probability of emission index out[g] after history
        keys[hist[g]], for each g: rows(keys)[hist, out] without the rows.
        One `keys.find`; the cells of unseen histories come from one
        backstop `cells` call over the suffixes of the distinct unseen
        histories."""
        if keys is self.keys:
            return self.matrix[hist, out]
        ids, found, unseen = self._find(keys)
        if not unseen.any():
            return self.matrix[found[hist], out]
        # the unseen histories, renumbered in order, are the backstop's keys
        at = np.cumsum(unseen) - 1
        backs_off = unseen[hist]
        p = np.empty(len(hist))
        p[backs_off] = self.backstop.cells(ids[unseen, self.order - self.backstop.order:],
                                           at[hist[backs_off]], out[backs_off])
        stays = ~backs_off
        p[stays] = self.matrix[found[hist[stays]], out[stays]]
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
    negative = rows.min(axis=1) < 0
    sums = rows.sum(axis=1)
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


def empirical_rows(table: CountTable) -> np.ndarray:
    """Count ratios, one row per history of `table`."""
    rows = table.dense_counts()
    rows /= table.totals[:, None]
    return rows


def empirical_conditional(table: CountTable) -> ConditionalLM:
    """Count-ratio conditional model; unseen histories are left undefined."""
    return ConditionalLM(
        table.order, table.vocab, (table, empirical_rows(table)),
        backstop=None, method="empirical",
    )


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
