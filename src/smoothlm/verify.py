"""Numerical identity checks with independent brute-force oracles.

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
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, CountTable, Vocabulary, count_ngrams
from .decompose import signed_decompose, signed_sides
from .ngram import (
    ConditionalLM,
    cross_entropy,
    empirical_conditional,
    empirical_prefix,
    entropy,
    kl_divergence,
    padded_history,
)
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


def random_corpus(
    rng: np.random.Generator,
    max_symbols: int = 3,
    max_len: int = 5,
    max_sequences: int = 6,
) -> Corpus:
    n_sym = int(rng.integers(1, max_symbols + 1))
    vocab = Vocabulary(symbols=tuple(_LETTERS[:n_sym]))
    m = int(rng.integers(1, max_sequences + 1))
    seqs = tuple(
        tuple(int(s) for s in rng.integers(0, n_sym, size=int(rng.integers(0, max_len + 1))))
        for _ in range(m)
    )
    return Corpus(vocab=vocab, sequences=seqs)


def random_bigram_lm(
    rng: np.random.Generator, vocab: Vocabulary, scale: float = 1.5
) -> ConditionalLM:
    """Full-support bigram conditionals with independent random logits."""
    table = {}
    for h in [(vocab.bos_id,)] + [(s,) for s in range(vocab.n_symbols)]:
        z = rng.normal(0.0, scale, vocab.out_dim)
        e = np.exp(z - z.max())
        table[h] = e / e.sum()
    return ConditionalLM(2, vocab, table, method="random")


def synthetic_corpus(
    seed: int,
    n_sequences: int = 50,
    n_symbols: int = 3,
    min_len: int = 1,
    max_len: int = 6,
) -> Corpus:
    """Skewed-frequency corpus for convergence and smoothing checks."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(symbols=tuple(_LETTERS[:n_symbols]))
    w = 1.0 / (1.0 + np.arange(n_symbols))
    w /= w.sum()
    seqs = []
    for _ in range(n_sequences):
        length = int(rng.integers(min_len, max_len + 1))
        seqs.append(tuple(int(s) for s in rng.choice(n_symbols, size=length, p=w)))
    return Corpus(vocab=vocab, sequences=tuple(seqs))


def zipf_lines(
    n_sequences: int,
    vocab_size: int,
    seed: int,
    min_len: int = 3,
    max_len: int = 12,
) -> list[str]:
    """Zipf-distributed token lines (rank-r token has weight 1/r), tokens iid."""
    rng = np.random.default_rng(seed)
    tokens = [f"w{i:02d}" for i in range(vocab_size)]
    w = 1.0 / (1.0 + np.arange(vocab_size))
    w /= w.sum()
    lines = []
    for _ in range(n_sequences):
        length = int(rng.integers(min_len, max_len + 1))
        lines.append(" ".join(tokens[i] for i in rng.choice(vocab_size, size=length, p=w)))
    return lines


def markov_zipf_lines(
    n_sequences: int,
    vocab_size: int,
    seed: int,
    min_len: int = 3,
    max_len: int = 12,
    exponent: float = 1.0,
) -> list[str]:
    """Token lines from a planted Markov chain with Zipfian transition rows.

    Every context gets a Zipf(`exponent`) distribution over a random
    permutation of the vocabulary, so the data has genuine bigram structure
    with a long tail of rare transitions (the regime where count smoothing
    earns its keep)."""
    rng = np.random.default_rng(seed)
    tokens = [f"w{i:02d}" for i in range(vocab_size)]
    ranks = 1.0 / (1.0 + np.arange(vocab_size)) ** exponent
    rows = []
    for _ in range(vocab_size + 1):  # one row per context symbol plus a start row
        perm = rng.permutation(vocab_size)
        w = np.empty(vocab_size)
        w[perm] = ranks
        rows.append(w / w.sum())
    lines = []
    for _ in range(n_sequences):
        length = int(rng.integers(min_len, max_len + 1))
        seq = [int(rng.choice(vocab_size, p=rows[vocab_size]))]
        for _ in range(length - 1):
            seq.append(int(rng.choice(vocab_size, p=rows[seq[-1]])))
        lines.append(" ".join(tokens[i] for i in seq))
    return lines


# ---------------------------------------------------------------------------
# T1: string-level KL == prefix-probability-weighted sum of local KLs


def _string_logq(corpus: Corpus, cond_fn, seq) -> float:
    vocab = corpus.vocab
    total = 0.0
    for t in range(len(seq) + 1):
        v = cond_fn(seq[:t])
        x = seq[t] if t < len(seq) else vocab.eos_id
        q = float(v[vocab.out_index(x)])
        if q <= 0.0:
            return -math.inf
        total += math.log(q)
    return total


def theorem1_sides(corpus: Corpus, cond_fn) -> tuple[float, float]:
    """(direct KL over p's support, prefix-tree weighted sum of local KLs).

    `cond_fn(prefix)` must return the model's next-emission distribution
    after that (unpadded) prefix, strictly positive on p's support.
    """
    mult = Counter(corpus.sequences)
    lhs = 0.0
    for seq, m in mult.items():
        p = m / corpus.M
        lhs += p * (math.log(p) - _string_logq(corpus, cond_fn, seq))
    pp = empirical_prefix(corpus)
    rhs = 0.0
    for prefix in pp.prefixes():
        rhs += pp.prob(prefix) * kl_divergence(pp.conditional(prefix), cond_fn(prefix))
    return lhs, rhs


def bigram_cond_fn(lm: ConditionalLM):
    vocab = lm.vocab
    return lambda prefix: lm.conditional(padded_history(vocab, lm.order, prefix))


def check_theorem1(
    trials: int = 200,
    seed: int = 0,
    tolerance: float = 1e-9,
    max_symbols: int = 3,
    max_len: int = 5,
) -> VerificationReport:
    max_err = 0.0
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        corpus = random_corpus(rng, max_symbols=max_symbols, max_len=max_len)
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
        ce_lhs += p * (-_string_logq(corpus, bigram_cond_fn(q), seq))
        h_p += p * (-math.log(p))
        gap_expected += p * (math.log(p) - _string_logq(corpus, bigram_cond_fn(emp), seq))
    ce_rhs = 0.0
    kl_rhs = 0.0
    for h, c in table.history_count.items():
        p_vec = emp.table[h]
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
    max_symbols: int = 3,
    max_len: int = 5,
    q_per_corpus: int = 3,
) -> VerificationReport:
    """Cross-entropy identity with constant 1/M, plus q-invariance of the
    KL-form gap (which must equal the corpus's own n-gram-consistency KL)."""
    max_err = 0.0
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        corpus = random_corpus(rng, max_symbols=max_symbols, max_len=max_len)
        for _ in range(q_per_corpus):
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
    max_steps: int = 400_000,
    grad_tol: float = 1e-11,
) -> tuple[dict, int]:
    """Gradient descent on the label-smoothing objective until the gradient
    is negligible.  Returns (history -> fitted distribution, steps used)."""
    vocab = table.vocab
    hists = sorted(table.history_count)
    pos = {h: i for i, h in enumerate(hists)}
    C = np.zeros((len(hists), vocab.out_dim))
    for (h, x), c in table.gram_count.items():
        C[pos[h], vocab.out_index(x)] = c
    n = C.sum()
    alpha = C / n + gamma / (n * vocab.out_dim)
    w = alpha.sum(axis=1, keepdims=True)
    lr = 1.5 / float(w.max())
    z = np.zeros_like(C)
    steps = max_steps
    for step in range(max_steps):
        m = z.max(axis=1, keepdims=True)
        e = np.exp(z - m)
        q = e / e.sum(axis=1, keepdims=True)
        g = w * q - alpha
        z -= lr * g
        if step % 200 == 0 and float(np.abs(g).max()) < grad_tol:
            steps = step
            break
    return {h: q[i] for i, h in enumerate(hists)}, steps


def check_theorem2(
    seed: int = 0,
    gammas: tuple[float, ...] = (0.1, 1.0, 10.0),
    tolerance: float = 1e-4,
    n_sequences: int = 50,
    n_symbols: int = 3,
) -> VerificationReport:
    corpus = synthetic_corpus(seed, n_sequences=n_sequences, n_symbols=n_symbols)
    table = count_ngrams(corpus, 2)
    max_err = 0.0
    for gamma in gammas:
        fitted, _ = fit_tabular_label_smoothing(table, gamma)
        target = smooth_add_lambda(table, gamma / table.vocab.out_dim)
        for h, qv in fitted.items():
            max_err = max(max_err, float(np.abs(qv - target.table[h]).max()))
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
        dec = signed_decompose(p, p_tilde)
        recon = p + dec.z_plus * dec.p_plus - dec.z_minus * dec.p_minus
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
