"""Conditional n-gram language models and their evaluation.

Hosts the empirical conditional (count-ratio) model, prefix statistics,
perplexity (one path, `table_perplexity`, checked by the per-token
`string_logprob`), KL/cross-entropy helpers for the decomposition and
verification code, and the LM TSV reader and writer.  Natural log throughout.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .corpus import (Corpus, CountTable, GramArrays, History, Vocabulary, check_histories,
                     check_same_vocabulary, count_ngrams, read_cells, write_cells)

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
    mapping is stacked into one.  Either way `matrix` holds the rows,
    `hists` (a tuple) their histories, each listed once, and `index` maps
    each history to its row.  Given a count table's `GramArrays` as the
    histories, the LM takes `hists` and `index` from them and checks only
    the matrix.  The dict `table`, mapping each history to a view of its
    row, is built on first read; only `perfbench/` and the oracles read it.

    `backstop` decides what an unseen history gets: None raises
    UnseenHistoryError (the maximum-likelihood convention, where the
    conditional is 0/0), otherwise it is a ConditionalLM of lower order (or
    of order 1), which gives the history the row of its suffix there.  The
    levels of a backoff smoother back off to one another this way.
    """

    def __init__(
        self,
        order: int,
        vocab: Vocabulary,
        table: Mapping[History, np.ndarray] | tuple[Sequence[History] | GramArrays, np.ndarray],
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
        if isinstance(hists, GramArrays):
            self.hists, self.index = hists.hists, hists.index
        else:
            self.hists = tuple(hists)
            self.index = dict(zip(self.hists, range(len(self.hists))))
        self.backstop = backstop
        self.method = method
        self.params = dict(params) if params else {}
        if validate:
            self._validate(checked=isinstance(hists, GramArrays))

    @cached_property
    def table(self) -> dict[History, np.ndarray]:
        """History -> view of its row of `matrix`."""
        return dict(zip(self.hists, self.matrix))

    def _validate(self, checked: bool) -> None:
        """Check every row at once, and the histories unless a count table
        has `checked` them; an error names the first bad history."""
        if not checked:
            check_histories(self.vocab, self.order - 1, self.hists)
            if len(self.index) < len(self.hists):
                h = next(h for i, h in enumerate(self.hists) if self.index[h] != i)
                raise ValueError(f"history {h} is listed more than once")
        if self.matrix.shape != (len(self.hists), self.vocab.out_dim):
            raise ValueError(f"row matrix has shape {self.matrix.shape}, expected "
                             f"{(len(self.hists), self.vocab.out_dim)}")
        check_distributions(self.matrix, self.hists)

    def rows(self, hists: Sequence[History]) -> np.ndarray:
        """Row matrix of `hists` in that order: `matrix` itself when they are
        its histories.  Otherwise each is looked up in `index`, and an unseen
        one gets its backstop row, looked up once per distinct suffix, or
        raises UnseenHistoryError; one gather builds the result."""
        hists = tuple(hists)
        if hists == self.hists:
            return self.matrix
        found = np.fromiter((self.index.get(h, -1) for h in hists), dtype=np.intp,
                            count=len(hists))
        unseen = found < 0
        if not unseen.any():
            return self.matrix[found]
        # a stored history has the right length; check the others
        n, at = self.order - 1, np.flatnonzero(unseen).tolist()
        bad = next((hists[i] for i in at if len(hists[i]) != n), None)
        if bad is not None:
            raise ValueError(f"history {bad} has length {len(bad)}, expected {n}")
        if self.backstop is None:
            raise UnseenHistoryError(hists[at[0]])
        # each distinct suffix is looked up once, below the rows found here
        cut, suffixes = n - (self.backstop.order - 1), {}
        backed = [suffixes.setdefault(hists[i][cut:], len(suffixes)) for i in at]
        kept = found[~unseen]
        stack = np.concatenate([self.matrix[kept], self.backstop.rows(tuple(suffixes))])
        found[~unseen] = np.arange(len(kept))
        found[unseen] = np.add(backed, len(kept))
        return stack[found]

    def conditional(self, history: Sequence[int]) -> np.ndarray:
        h = tuple(history)
        i = self.index.get(h)
        return self.rows((h,))[0] if i is None else self.matrix[i]

    def prob(self, history: Sequence[int], symbol_id: int) -> float:
        return float(self.conditional(history)[self.vocab.out_index(symbol_id)])


def check_distributions(rows: np.ndarray, hists: Sequence[History] | None = None,
                        name: str = "") -> None:
    """Raise NormalizationError for the first row of `rows` that has a
    negative entry or does not sum to 1 within PROB_ATOL.  The message names
    the row's history from `hists`, or its index, after `name`."""
    negative = rows.min(axis=1) < 0
    sums = rows.sum(axis=1)
    # a NaN compares false, so a row holding one fails the closeness test
    bad = negative | ~(np.abs(sums - 1.0) <= PROB_ATOL)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    where = f"history {hists[i]}" if hists is not None else f"row {i}"
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


def padded_history(vocab: Vocabulary, order: int, prefix: Sequence[int]) -> History:
    """The length-(order-1) BOS-padded history preceding the next position."""
    if order == 1:
        return ()
    padded = (vocab.bos_id,) * (order - 1) + tuple(prefix)
    return padded[-(order - 1):]


def empirical_rows(table: CountTable) -> np.ndarray:
    """Count ratios, one row per history of `table.arrays`."""
    rows = table.dense_counts()
    rows /= table.arrays.totals[:, None]
    return rows


def empirical_conditional(table: CountTable) -> ConditionalLM:
    """Count-ratio conditional model; unseen histories are left undefined."""
    return ConditionalLM(
        table.order, table.vocab, (table.arrays, empirical_rows(table)),
        backstop=None, method="empirical",
    )


@dataclass(frozen=True)
class PrefixProbability:
    """Prefix-start counts of a corpus: numerator[x] sequences start with x.

    prob(x) = numerator[x] / M.  `terminal[x]` counts sequences exactly equal
    to x, which yields the EOS entry of the prefix-conditional distribution.
    """

    vocab: Vocabulary
    M: int
    numerator: dict[History, int]
    terminal: dict[History, int] = field(repr=False)

    def prob(self, prefix: Sequence[int]) -> float:
        return self.numerator.get(tuple(prefix), 0) / self.M

    def prefixes(self) -> list[History]:
        return list(self.numerator.keys())

    def conditional(self, prefix: Sequence[int]) -> np.ndarray:
        """Next-emission distribution among sequences that start with `prefix`."""
        p = tuple(prefix)
        starts = self.numerator.get(p, 0)
        if starts == 0:
            raise UnseenHistoryError(p)
        v = np.zeros(self.vocab.out_dim)
        for j in range(self.vocab.n_symbols):
            ext = self.numerator.get(p + (j,), 0)
            if ext:
                v[j] = ext / starts
        v[self.vocab.n_symbols] = self.terminal.get(p, 0) / starts
        return v


def empirical_prefix(corpus: Corpus) -> PrefixProbability:
    starts: Counter[History] = Counter()
    terminal: Counter[History] = Counter()
    for seq in corpus.sequences:
        for t in range(len(seq) + 1):
            starts[seq[:t]] += 1
        terminal[seq] += 1
    return PrefixProbability(
        vocab=corpus.vocab, M=corpus.M, numerator=dict(starts), terminal=dict(terminal)
    )


def string_logprob(lm: ConditionalLM, sequence: Sequence[int]) -> float:
    """Natural-log probability of a sequence (its tokens then EOS); -inf if
    any factor vanishes."""
    seq = tuple(sequence)
    vocab = lm.vocab
    total = 0.0
    for t in range(len(seq) + 1):
        h = padded_history(vocab, lm.order, seq[:t])
        x = seq[t] if t < len(seq) else vocab.eos_id
        p = lm.prob(h, x)
        if p <= 0.0:
            return -math.inf
        total += math.log(p)
    return total


def perplexity(lm: ConditionalLM, corpus: Corpus) -> float:
    """exp of per-emission negative log-likelihood (one EOS per sequence) on
    the corpus's count table.  The corpus must use the LM's vocabulary."""
    check_same_vocabulary(corpus.vocab, lm.vocab)
    table = count_ngrams(corpus, lm.order)
    return table_perplexity(lm.rows(table.arrays.hists), table.arrays.hist, table)


def table_perplexity(q: np.ndarray, rows: np.ndarray, table: CountTable) -> float:
    """exp(-sum count log q / sum count) over a count table's grams g, where
    q[rows[g]] is the model's row for g's history; inf if a scored q is 0."""
    a = table.arrays
    p = q[rows, a.out]
    if not p.all():
        return math.inf
    nll = -float(np.dot(a.count, np.log(p)))
    return math.exp(nll / a.count.sum())


def cross_entropy(p: np.ndarray, q: np.ndarray) -> float:
    """H(p, q) = -sum p log q with 0 log 0 := 0; +inf when q vanishes on p's support."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {q.shape}")
    mask = p > 0.0
    if np.any(q[mask] <= 0.0):
        return math.inf
    return float(-np.dot(p[mask], np.log(q[mask])))


def entropy(p: np.ndarray) -> float:
    return cross_entropy(p, p)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    ce = cross_entropy(p, q)
    if ce == math.inf:
        return math.inf
    return ce - entropy(p)


def write_conditional_lm(lm: ConditionalLM, path: str) -> None:
    """TSV export of every row, after a `# method=... params=...` line."""
    params_json = json.dumps(lm.params, sort_keys=True, separators=(",", ":"))
    write_cells(path, lm.vocab, lm.hists, {"probability": (lm.matrix, ".12g")},
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
