"""Numerical identity checks and independent brute-force oracles: every
piece of code that exists only to check the pipeline.

The oracles (`count_substrings`, `empirical_prefix`, `string_logprob`, the
KL and cross-entropy helpers, `objective_value`, the loss of each
training objective, and `signed_split`, the signed split of one pair of
vectors by its definition) recount the corpus or re-sum by their own loops
and call no pipeline kernel, so that a test comparing a kernel with one of
them can fail when the kernel is wrong.  No pipeline module imports this
one, and this one imports nothing from `decompose`: the T3 and
CE_LINEARITY checks split by `signed_split`, not by the code they check.

Each checker draws seeded random instances, evaluates both sides of an
identity by routes that share no code with the operation under test, and
reports the worst absolute error.  Per-trial randomness is derived as
seed + trial_index so trials are reproducible in isolation.

The chain-rule identity (T1) and the per-history reduction (COR) are
checked on empirical string distributions, where every sum is finite and
exact.  The reduction is asserted in its cross-entropy form,

    H(p_D, q) == (1/M) * sum_h #(h) H(p_D(.|h), q(.|h)),

which holds exactly for every n-gram q, together with q-invariance of the
KL-form gap; the gap equals the KL divergence between the empirical string
distribution and autoregressive products of its own n-gram conditionals,
and vanishes only when the corpus is n-gram-consistent.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import Corpus, CountTable, History, Vocabulary, count_ngrams
from .ngram import ConditionalLM, UnseenHistoryError, empirical_conditional
from .smoothers import smooth_add_lambda

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class VerificationReport:
    theorem_id: str
    trials: int
    max_abs_error: float
    tolerance: float
    passed: bool
    seed: int

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.theorem_id} trials={self.trials} max_err={self.max_abs_error:.1e} "
            f"tol={self.tolerance:.1e} {status} seed={self.seed}"
        )


def _report(theorem_id, trials, max_err, tol, seed) -> VerificationReport:
    return VerificationReport(
        theorem_id=theorem_id,
        trials=trials,
        max_abs_error=max_err,
        tolerance=tol,
        passed=max_err <= tol,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# random instances


def corpus_of(vocab: Vocabulary, sequences: Sequence[Sequence[int]]) -> Corpus:
    """The Corpus of token-id sequences, for the generators here and the tests."""
    return Corpus(vocab, np.array([i for s in sequences for i in s], dtype=np.intp),
                  np.array([len(s) for s in sequences], dtype=np.intp))


def random_corpus(
    rng: np.random.Generator,
    max_symbols: int = 3,
    max_len: int = 5,
    max_sequences: int = 6,
) -> Corpus:
    n_sym = int(rng.integers(1, max_symbols + 1))
    vocab = Vocabulary(symbols=tuple(_LETTERS[:n_sym]))
    m = int(rng.integers(1, max_sequences + 1))
    return corpus_of(vocab, [rng.integers(0, n_sym, size=int(rng.integers(0, max_len + 1)))
                             for _ in range(m)])


def random_bigram_lm(
    rng: np.random.Generator, vocab: Vocabulary, scale: float = 1.5
) -> ConditionalLM:
    """Full-support bigram conditionals with independent random logits."""
    hists = [(vocab.bos_id,)] + [(s,) for s in range(vocab.n_symbols)]
    matrix = np.empty((len(hists), vocab.out_dim))
    for row in matrix:
        z = rng.normal(0.0, scale, vocab.out_dim)
        e = np.exp(z - z.max())
        row[:] = e / e.sum()
    return ConditionalLM(2, vocab, (hists, matrix), method="random")


def synthetic_corpus(
    seed: int,
    n_sequences: int = 50,
    n_symbols: int = 3,
    max_len: int = 6,
) -> Corpus:
    """Skewed-frequency corpus for convergence and smoothing checks."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(symbols=tuple(_LETTERS[:n_symbols]))
    w = 1.0 / (1.0 + np.arange(n_symbols))
    w /= w.sum()
    return corpus_of(vocab, [rng.choice(n_symbols, size=int(rng.integers(1, max_len + 1)), p=w)
                             for _ in range(n_sequences)])


def markov_zipf_lines(
    n_sequences: int,
    vocab_size: int,
    seed: int,
) -> list[str]:
    """Lines of 3 to 12 tokens from a planted Markov chain with Zipfian
    transition rows.

    Every context gets a Zipf(1) distribution over a random
    permutation of the vocabulary, so the data has genuine bigram structure
    with a long tail of rare transitions (the regime where count smoothing
    earns its keep)."""
    rng = np.random.default_rng(seed)
    tokens = [f"w{i:02d}" for i in range(vocab_size)]
    ranks = 1.0 / (1.0 + np.arange(vocab_size))
    rows = []
    for _ in range(vocab_size + 1):  # one row per context symbol plus a start row
        perm = rng.permutation(vocab_size)
        w = np.empty(vocab_size)
        w[perm] = ranks
        rows.append(w / w.sum())
    lines = []
    for _ in range(n_sequences):
        length = int(rng.integers(3, 13))
        seq = [int(rng.choice(vocab_size, p=rows[vocab_size]))]
        for _ in range(length - 1):
            seq.append(int(rng.choice(vocab_size, p=rows[seq[-1]])))
        lines.append(" ".join(tokens[i] for i in seq))
    return lines


# ---------------------------------------------------------------------------
# independent oracles: each recounts the corpus or re-sums by its own loop,
# calls no pipeline kernel (tests/test_oracles.py keeps it so), and is kept
# slow and plain on purpose


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


def padded_history(vocab: Vocabulary, order: int, prefix: Sequence[int]) -> History:
    """The length-(order-1) BOS-padded history preceding the next position."""
    if order == 1:
        return ()
    padded = (vocab.bos_id,) * (order - 1) + tuple(prefix)
    return padded[-(order - 1):]


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


def _string_logq(vocab: Vocabulary, cond_fn, seq) -> float:
    """log q(seq) of the next-emission distributions `cond_fn(prefix)`, its
    tokens then EOS; -inf if any factor vanishes."""
    total = 0.0
    for t in range(len(seq) + 1):
        v = cond_fn(seq[:t])
        x = seq[t] if t < len(seq) else vocab.eos_id
        q = float(v[vocab.out_index(x)])
        if q <= 0.0:
            return -math.inf
        total += math.log(q)
    return total


def bigram_cond_fn(lm: ConditionalLM):
    vocab = lm.vocab
    return lambda prefix: lm.conditional(padded_history(vocab, lm.order, prefix))


def string_logprob(lm: ConditionalLM, sequence: Sequence[int]) -> float:
    """Natural-log probability of a sequence (its tokens then EOS); -inf if
    any factor vanishes."""
    return _string_logq(lm.vocab, bigram_cond_fn(lm), tuple(sequence))


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


def objective_value(model, corpus: Corpus, config, smoothed: ConditionalLM | None = None
                    ) -> float:
    """The loss of `config.objective` (a TrainConfig's) at the model's
    parameters, as the README writes it, with w(h) = #(h)/N over the N
    emissions of the corpus:

      mle               sum_h w(h) H(p(.|h), q(.|h))
      label_smoothing   mle + gamma_ls/N * sum_h KL(uniform || q(.|h))
      smoothed_target   sum_h w(h) KL(smoothed(.|h) || q(.|h))
      split_regularizer mle + sum_h w(h) [g+ Z+ KL(p_plus || q(.|h))
                                          - g- Z- KL(p_minus || q(.|h))]

    p(.|h) is recounted here position by position, q is read only through
    `model.rows`, and smoothed(.|h) - p(.|h) is split here history by
    history; the gammas are the config's."""
    vocab, order = corpus.vocab, model.order
    counts: dict[History, np.ndarray] = {}
    for seq in corpus.sequences:
        for t in range(len(seq) + 1):
            h = padded_history(vocab, order, seq[:t])
            x = seq[t] if t < len(seq) else vocab.eos_id
            counts.setdefault(h, np.zeros(vocab.out_dim))[vocab.out_index(x)] += 1
    n = corpus.total_emissions
    uniform = np.full(vocab.out_dim, 1.0 / vocab.out_dim)
    total = 0.0
    for (h, c), q in zip(counts.items(), model.rows(list(counts))):
        w, p = c.sum() / n, c / c.sum()
        if config.objective == "smoothed_target":
            total += w * kl_divergence(smoothed.conditional(h), q)
            continue
        total += w * cross_entropy(p, q)
        if config.objective == "label_smoothing":
            total += config.gamma_ls / n * kl_divergence(uniform, q)
        elif config.objective == "split_regularizer":
            diff = smoothed.conditional(h) - p
            for sign, gamma, part in ((1.0, config.gamma_plus, np.maximum(diff, 0.0)),
                                      (-1.0, config.gamma_minus, np.maximum(-diff, 0.0))):
                z = part.sum()
                if z > 0.0:
                    total += sign * w * gamma * z * kl_divergence(part / z, q)
    return total


def signed_split(empirical, smoothed) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(p_plus, p_minus, Z+, Z-) of one pair of distribution vectors, by
    the definition: the positive and negative parts of smoothed - empirical
    and their sums, each part divided by its sum (all zeros when it is 0)."""
    diff = np.asarray(smoothed, float) - np.asarray(empirical, float)
    parts = np.maximum(diff, 0.0), np.maximum(-diff, 0.0)
    z_plus, z_minus = (float(part.sum()) for part in parts)
    p_plus, p_minus = (part / z if z > 0.0 else np.zeros_like(part)
                       for part, z in zip(parts, (z_plus, z_minus)))
    return p_plus, p_minus, z_plus, z_minus


def signed_sides(f: Callable[[np.ndarray], float], empirical, smoothed) -> tuple[float, float]:
    """(f(p~), f(p) + Z+ f(p_plus) - Z- f(p_minus)) for one distribution pair.
    `f` may return an array, such as its values for several q; the sides are
    then arrays too.

    With f = H(., q) the two sides are equal, since cross-entropy is linear
    in the split.  With f = KL(. || q) their difference lhs - rhs does not
    depend on q; it is rhs - lhs of the sides with f = entropy.
    """
    p_plus, p_minus, z_plus, z_minus = signed_split(empirical, smoothed)
    lhs = f(np.asarray(smoothed, float))
    rhs = f(np.asarray(empirical, float))
    if z_plus > 0:
        rhs += z_plus * f(p_plus)
    if z_minus > 0:
        rhs -= z_minus * f(p_minus)
    return lhs, rhs


# ---------------------------------------------------------------------------
# T1: string-level KL == prefix-probability-weighted sum of local KLs


def theorem1_sides(corpus: Corpus, cond_fn) -> tuple[float, float]:
    """(direct KL over p's support, prefix-tree weighted sum of local KLs).

    `cond_fn(prefix)` must return the model's next-emission distribution
    after that (unpadded) prefix, strictly positive on p's support.
    """
    mult = Counter(corpus.sequences)
    lhs = 0.0
    for seq, m in mult.items():
        p = m / corpus.M
        lhs += p * (math.log(p) - _string_logq(corpus.vocab, cond_fn, seq))
    pp = empirical_prefix(corpus)
    rhs = 0.0
    for prefix in pp.prefixes():
        rhs += pp.prob(prefix) * kl_divergence(pp.conditional(prefix), cond_fn(prefix))
    return lhs, rhs


def check_theorem1(
    trials: int = 200,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> VerificationReport:
    max_err = 0.0
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        corpus = random_corpus(rng)
        q = random_bigram_lm(rng, corpus.vocab)
        lhs, rhs = theorem1_sides(corpus, bigram_cond_fn(q))
        max_err = max(max_err, abs(lhs - rhs))
    return _report("T1", trials, max_err, tolerance, seed)


# ---------------------------------------------------------------------------
# COR: reduction of the string-level objective to counted histories


def corollary_sides(corpus: Corpus, q: ConditionalLM) -> dict[str, float]:
    """Two-route values for the per-history reduction at q.order.

    Keys: ce_lhs/ce_rhs (exactly equal), kl_lhs/kl_rhs (differ by a
    q-independent gap), gap_expected (the empirical-vs-own-n-gram KL).
    """
    mult = Counter(corpus.sequences)
    order = q.order
    ce_lhs = 0.0
    h_p = 0.0
    gap_expected = 0.0
    table = count_ngrams(corpus, order)
    emp = empirical_conditional(table)
    for seq, m in mult.items():
        p = m / corpus.M
        ce_lhs += p * (-_string_logq(corpus.vocab, bigram_cond_fn(q), seq))
        h_p += p * (-math.log(p))
        gap_expected += p * (math.log(p) - _string_logq(corpus.vocab, bigram_cond_fn(emp), seq))
    ce_rhs = 0.0
    kl_rhs = 0.0
    for h, c in zip(table.hists, table.totals.tolist()):
        p_vec = emp.conditional(h)
        q_vec = q.conditional(h)
        ce_rhs += c * cross_entropy(p_vec, q_vec)
        kl_rhs += c * kl_divergence(p_vec, q_vec)
    ce_rhs /= corpus.M
    kl_rhs /= corpus.M
    return {
        "ce_lhs": ce_lhs,
        "ce_rhs": ce_rhs,
        "kl_lhs": ce_lhs - h_p,
        "kl_rhs": kl_rhs,
        "gap_expected": gap_expected,
    }


def check_corollary(
    trials: int = 200,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Cross-entropy identity with constant 1/M, plus q-invariance of the
    KL-form gap (which must equal the corpus's own n-gram-consistency KL),
    at three random q per corpus."""
    max_err = 0.0
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        corpus = random_corpus(rng)
        for _ in range(3):
            q = random_bigram_lm(rng, corpus.vocab)
            sides = corollary_sides(corpus, q)
            max_err = max(max_err, abs(sides["ce_lhs"] - sides["ce_rhs"]))
            gap = sides["kl_lhs"] - sides["kl_rhs"]
            max_err = max(max_err, abs(gap - sides["gap_expected"]))
    return _report("COR", trials, max_err, tolerance, seed)


# ---------------------------------------------------------------------------
# T2: label smoothing of a tabular model lands on the add-lambda table


def fit_tabular_label_smoothing(
    table: CountTable,
    gamma: float,
) -> tuple[dict, int]:
    """Gradient descent on the label-smoothing objective until the gradient
    is below 1e-11, for at most 400000 steps.  Returns (the fitted rows,
    one per history of `table` in its order, steps used)."""
    vocab = table.vocab
    C = np.zeros((len(table.hists), vocab.out_dim))
    C[table.hist, table.out] = table.count
    n = C.sum()
    alpha = C / n + gamma / (n * vocab.out_dim)
    w = alpha.sum(axis=1, keepdims=True)
    lr = 1.5 / float(w.max())
    z = np.zeros_like(C)
    steps = 400_000
    for step in range(steps):
        m = z.max(axis=1, keepdims=True)
        e = np.exp(z - m)
        q = e / e.sum(axis=1, keepdims=True)
        g = w * q - alpha
        z -= lr * g
        if step % 200 == 0 and float(np.abs(g).max()) < 1e-11:
            steps = step
            break
    return q, steps


def check_theorem2(
    seed: int = 0,
    gammas: tuple[float, ...] = (0.1, 1.0, 10.0),
    tolerance: float = 1e-4,
    n_sequences: int = 50,
) -> VerificationReport:
    corpus = synthetic_corpus(seed, n_sequences=n_sequences)
    table = count_ngrams(corpus, 2)
    max_err = 0.0
    for gamma in gammas:
        fitted, _ = fit_tabular_label_smoothing(table, gamma)
        target = smooth_add_lambda(table, gamma / table.vocab.out_dim)
        max_err = max(max_err, float(np.abs(fitted - target.rows(table.hists)).max()))
    return _report("T2", len(gammas), max_err, tolerance, seed)


# ---------------------------------------------------------------------------
# T3 and cross-entropy linearity on random simplex triples


def _random_simplex(rng: np.random.Generator, dim: int, allow_zeros: bool) -> np.ndarray:
    v = rng.dirichlet(np.ones(dim))
    if allow_zeros and dim > 1 and rng.random() < 0.5:
        kill = rng.integers(1, dim)
        idx = rng.permutation(dim)[:kill]
        v[idx] = 0.0
        s = v.sum()
        if s <= 0.0:
            return _random_simplex(rng, dim, allow_zeros)
        v /= s
    return v


def sample_triples(seed: int, trials: int, dims: tuple[int, ...]):
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        dim = dims[t % len(dims)]
        p = _random_simplex(rng, dim, allow_zeros=True)
        p_tilde = _random_simplex(rng, dim, allow_zeros=True)
        yield rng, p, p_tilde


def check_theorem3(
    trials: int = 1000,
    seed: int = 0,
    dims: tuple[int, ...] = (2, 3, 5),
    n_q: int = 50,
    tolerance: float = 1e-10,
) -> VerificationReport:
    """q-invariance of KL(p~||q) - [KL(p||q) + Z+ KL(p+||q) - Z- KL(p-||q)]:
    across n_q random full-support q the bracketed difference has variance
    below tolerance and matches its entropy-form closed value."""
    max_err = 0.0
    for rng, p, p_tilde in sample_triples(seed, trials, dims):
        qs = [rng.dirichlet(np.ones(len(p))) for _ in range(n_q)]
        lhs, rhs = signed_sides(lambda v: np.array([kl_divergence(v, q) for q in qs]),
                                p, p_tilde)
        diffs = lhs - rhs
        max_err = max(max_err, float(diffs.var()))
        lhs, rhs = signed_sides(entropy, p, p_tilde)
        max_err = max(max_err, float(np.abs(diffs - (rhs - lhs)).max()))
    return _report("T3", trials, max_err, tolerance, seed)


def check_ce_linearity(
    trials: int = 1000,
    seed: int = 0,
    dims: tuple[int, ...] = (2, 3, 5),
    tolerance: float = 1e-10,
) -> VerificationReport:
    """H(p~, q) == H(p, q) + Z+ H(p+, q) - Z- H(p-, q) exactly."""
    max_err = 0.0
    for rng, p, p_tilde in sample_triples(seed, trials, dims):
        q = rng.dirichlet(np.ones(len(p)))
        lhs, rhs = signed_sides(lambda v: cross_entropy(v, q), p, p_tilde)
        max_err = max(max_err, abs(lhs - rhs))
        p_plus, p_minus, z_plus, z_minus = signed_split(p, p_tilde)
        recon = p + z_plus * p_plus - z_minus * p_minus
        max_err = max(max_err, float(np.abs(recon - p_tilde).max()))
    return _report("CE_LINEARITY", trials, max_err, tolerance, seed)


# ---------------------------------------------------------------------------


CHECKS = {
    "T1": check_theorem1,
    "COR": check_corollary,
    "T2": check_theorem2,
    "T3": check_theorem3,
    "CE_LINEARITY": check_ce_linearity,
}
