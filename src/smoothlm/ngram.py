"""Conditional n-gram language models and their evaluation.

Hosts the empirical conditional (count-ratio) model, prefix statistics,
log-likelihood/perplexity evaluation, KL/cross-entropy helpers shared by the
decomposition and verification code, and the LM TSV reader and writer.
Natural log throughout.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, CountTable, History, Vocabulary, read_cells, write_cells

PROB_ATOL = 1e-9


class UnseenHistoryError(KeyError):
    """Lookup of a history with no stored distribution and no backstop rule."""


class NormalizationError(ValueError):
    """A conditional row is negative somewhere or does not sum to 1."""


def uniform_backstop(vocab: Vocabulary) -> Callable[[History], np.ndarray]:
    u = np.full(vocab.out_dim, 1.0 / vocab.out_dim)
    return lambda history: u


class ConditionalLM:
    """Map from each length-(n-1) history to a probability vector over
    the emission alphabet (symbols in id order, EOS last).

    `table` is a mapping history -> vector, or a pair (histories, matrix)
    whose row i belongs to histories[i]; a matrix is kept as given, a
    mapping is stacked into one.  Either way `matrix` holds the rows, `hists`
    their histories, and `table` maps each history to a view of its row.
    Lookups go through `table`.

    `backstop` decides what an unseen history gets: None raises
    UnseenHistoryError (the maximum-likelihood convention, where the
    conditional is 0/0), otherwise it is a callable history -> vector.
    """

    def __init__(
        self,
        order: int,
        vocab: Vocabulary,
        table: Mapping[History, np.ndarray] | tuple[Sequence[History], np.ndarray],
        backstop: Callable[[History], np.ndarray] | None = None,
        method: str = "",
        params: dict | None = None,
        validate: bool = True,
    ) -> None:
        self.order = order
        self.vocab = vocab
        if isinstance(table, tuple):
            hists, matrix = table
            self.hists = list(hists)
            self.matrix = matrix
        else:
            self.hists = list(table)
            self.matrix = _stack_rows(table, vocab.out_dim)
        self.table = dict(zip(self.hists, self.matrix))
        self.backstop = backstop
        self.method = method
        self.params = dict(params) if params else {}
        if validate:
            self._validate()

    def _validate(self) -> None:
        """Check every row at once; an error names the first bad history."""
        n = self.order - 1
        for h in self.hists:
            if len(h) != n:
                raise ValueError(f"history {h} has length {len(h)}, expected {n}")
        if self.matrix.shape != (len(self.hists), self.vocab.out_dim):
            raise ValueError(f"row matrix has shape {self.matrix.shape}, expected "
                             f"{(len(self.hists), self.vocab.out_dim)}")
        if not self.hists:
            return
        is_bos = np.array(self.hists, dtype=np.int64).reshape(len(self.hists), n) == self.vocab.bos_id
        # BOS may only form a contiguous prefix: no BOS right after a non-BOS
        bad_bos = (is_bos[:, 1:] & ~is_bos[:, :-1]).any(axis=1)
        negative = self.matrix.min(axis=1) < 0
        sums = self.matrix.sum(axis=1)
        # a NaN compares false, so a row holding one fails the closeness test
        bad = bad_bos | negative | ~(np.abs(sums - 1.0) <= PROB_ATOL)
        if not bad.any():
            return
        i = int(np.argmax(bad))
        h = self.hists[i]
        if bad_bos[i]:
            raise ValueError(f"history {h}: BOS must form a contiguous prefix")
        if negative[i]:
            raise NormalizationError(f"history {h}: negative probability")
        raise NormalizationError(f"history {h}: probabilities sum to {float(sums[i])!r}, not 1")

    def rows(self, hists: Sequence[History]) -> np.ndarray:
        """Row matrix of `hists` in that order: `matrix` itself when they are
        its histories, otherwise a stacked copy of the `table` rows."""
        if len(self.table) == len(self.hists) and list(hists) == self.hists:
            return self.matrix
        return _stack_rows({h: self.table[h] for h in hists}, self.vocab.out_dim)

    def conditional(self, history: Sequence[int]) -> np.ndarray:
        h = tuple(history)
        if len(h) != self.order - 1:
            raise ValueError(f"history {h} has length {len(h)}, expected {self.order - 1}")
        v = self.table.get(h)
        if v is not None:
            return v
        if self.backstop is None:
            raise UnseenHistoryError(h)
        return self.backstop(h)

    def prob(self, history: Sequence[int], symbol_id: int) -> float:
        return float(self.conditional(history)[self.vocab.out_index(symbol_id)])


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
        table.order, table.vocab, (table.arrays.hists, empirical_rows(table)),
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
    """exp of per-emission negative log-likelihood (one EOS per sequence)."""
    total = 0.0
    for seq in corpus.sequences:
        lp = string_logprob(lm, seq)
        if lp == -math.inf:
            return math.inf
        total += lp
    return math.exp(-total / corpus.total_emissions)


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
    hists = list(lm.table)
    params_json = json.dumps(lm.params, sort_keys=True, separators=(",", ":"))
    write_cells(path, lm.vocab, hists, {"probability": (lm.rows(hists), ".12g")},
                comment=f"method={lm.method or 'unknown'} params={params_json}")


def read_conditional_lm(path: str) -> ConditionalLM:
    """Load an LM TSV; a history it does not list gets the uniform row."""
    comment, vocab, hists, hist, out, (probs,) = read_cells(path, {"probability": float})
    if not (comment or "").startswith("method="):
        raise ValueError(f"{path}: missing method header")
    method, _, params = comment.removeprefix("method=").partition(" params=")
    matrix = np.zeros((len(hists), vocab.out_dim))
    matrix[hist, out] = probs
    return ConditionalLM(len(hists[0]) + 1, vocab, (hists, matrix),
                         backstop=uniform_backstop(vocab), method=method,
                         params=json.loads(params) if params else {})
