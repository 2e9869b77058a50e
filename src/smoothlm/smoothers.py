"""Count smoothing: add-lambda, Good-Turing, Simple Good-Turing (Gale-Sampson),
Jelinek-Mercer interpolation, Katz backoff, and Kneser-Essen-Ney.

Every smoother maps a CountTable to a ConditionalLM whose rows are the
table's histories.  Add-lambda, Good-Turing and Simple Good-Turing back off
to the uniform order-1 LM.  Jelinek-Mercer, Katz and Kneser-Essen-Ney build
one ConditionalLM per order, from order 1 up, each backing off to the one
below, so an unseen history gets the row of its longest seen suffix.
Per-history vectors are normalized to sum to 1; methods whose native
normalization is global (Good-Turing) expose the pre-normalization form
separately for bookkeeping checks.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .corpus import CountTable, History, tables_down_to_unigram, zero_gram_count
from .ngram import ConditionalLM, empirical_rows, uniform_backstop

log = logging.getLogger(__name__)

METHODS = (
    "add_lambda",
    "good_turing",
    "simple_good_turing",
    "jelinek_mercer",
    "katz",
    "kneser_essen_ney",
)

# CLI spellings accepted in addition to the canonical names.
METHOD_ALIASES = {
    "addlambda": "add_lambda",
    "gt": "good_turing",
    "sgt": "simple_good_turing",
    "jm": "jelinek_mercer",
    "ken": "kneser_essen_ney",
}


class KatzConfigError(ValueError):
    """The Katz discount denominator is non-positive for the chosen k."""


def canonical_method(name: str) -> str:
    name = name.strip().lower()
    name = METHOD_ALIASES.get(name, name)
    if name not in METHODS:
        raise ValueError(f"unknown smoothing method {name!r}")
    return name


def smooth(table: CountTable, method: str, params: dict | None = None) -> ConditionalLM:
    """Dispatch by method name; `params` overrides default_params' keys, and
    a None value (a JSON null) keeps the default.  A value of the wrong type
    raises ValueError naming its parameter."""
    method = canonical_method(method)
    if not isinstance(params, (dict, type(None))):
        raise ValueError(f"smoother params must be a JSON object, got {params!r}")
    given = {key: val for key, val in (params or {}).items() if val is not None}
    params = {**default_params(method, table.order), **given}
    if method == "add_lambda":
        return smooth_add_lambda(table, _number("lambda", params["lambda"]))
    if method == "good_turing":
        return smooth_good_turing(table)
    if method == "simple_good_turing":
        return smooth_simple_good_turing(table)
    if method == "jelinek_mercer":
        lambdas = params["lambdas"]
        if not isinstance(lambdas, (list, tuple)):
            raise ValueError(f"parameter 'lambdas' must be a list of numbers, got {lambdas!r}")
        return smooth_jelinek_mercer(table, [_number("lambdas", lam) for lam in lambdas])
    if method == "katz":
        return smooth_katz(table, int(_number("k", params["k"])))
    return smooth_kneser_essen_ney(table, float(_number("D", params["D"])))


def _number(name: str, value):
    """`value` if it is a finite real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"parameter {name!r} must be a finite number, got {value!r}")
    return value


def default_params(method: str, table_order: int) -> dict:
    method = canonical_method(method)
    if method == "add_lambda":
        return {"lambda": 1.0}
    if method == "jelinek_mercer":
        return {"lambdas": [0.5] * table_order}
    if method == "katz":
        return {"k": 5}
    if method == "kneser_essen_ney":
        return {"D": 0.75}
    return {}


# ---------------------------------------------------------------------------
# add-lambda


def smooth_add_lambda(table: CountTable, lam: float) -> ConditionalLM:
    """(count + lam) / (total + (|Sigma|+1) lam) per history; unseen histories
    get the uniform limit."""
    if lam <= 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    vocab = table.vocab
    a = table.arrays
    rows = np.full((len(a.hists), vocab.out_dim), lam, dtype=float)
    rows[a.hist, a.out] += a.count
    rows /= (a.totals + vocab.out_dim * lam)[:, None]
    return ConditionalLM(
        table.order, vocab, (a, rows),
        backstop=uniform_backstop(vocab),
        method="add_lambda", params={"lambda": lam},
    )


# ---------------------------------------------------------------------------
# Good-Turing


def good_turing_adjusted_count(count: int, r: dict[int, int], r0: int) -> float:
    """Adjusted count (c+1) * r_{c+1} / r_c; zero-count cells use r_1 / r_0."""
    if count == 0:
        if r0 <= 0:
            return 0.0
        return r.get(1, 0) / r0
    rc = r.get(count, 0)
    if rc == 0:
        raise RuntimeError(f"count {count} observed but r_{count} == 0 (corrupt table)")
    return (count + 1) * r.get(count + 1, 0) / rc


def good_turing_global(table: CountTable) -> dict[tuple[History, int], float]:
    """Pre-normalization Good-Turing probabilities adjusted_count / total_tokens
    for every observed gram.  Grams whose successor count-of-counts is zero
    get probability zero (the classical defect)."""
    r = table.count_of_counts
    n = table.total_tokens
    return {
        key: good_turing_adjusted_count(c, r, 1) / n
        for key, c in table.gram_count.items()
    }


def _renormalized_rows(table: CountTable, weight_of_count, unseen_weight: float) -> np.ndarray:
    """Build per-history rows from a count -> weight map plus an unseen-cell
    weight, renormalizing each history; an all-zero row falls back to uniform."""
    out_dim = table.vocab.out_dim
    a = table.arrays
    rows = np.full((len(a.hists), out_dim), unseen_weight)
    counts, inverse = np.unique(a.count, return_inverse=True)
    weights = np.array([weight_of_count(int(c)) for c in counts], dtype=float)
    rows[a.hist, a.out] = weights[inverse]
    sums = rows.sum(axis=1)
    empty = sums <= 0.0
    if empty.any():
        log.warning("%d of %d histories have all adjusted weights zero, using uniform",
                    int(empty.sum()), len(a.hists))
        rows[empty] = 1.0 / out_dim
        sums[empty] = 1.0
    rows /= sums[:, None]
    return rows


def smooth_good_turing(table: CountTable) -> ConditionalLM:
    """Per-history renormalized Good-Turing conditionals.

    The globally normalized form (see good_turing_global) is not a proper
    per-history distribution, so each history's adjusted counts are rescaled
    to sum to 1.  Zeros survive wherever r_{c+1} == 0.
    """
    r = table.count_of_counts
    r0 = zero_gram_count(table)
    rows = _renormalized_rows(
        table,
        lambda c: good_turing_adjusted_count(c, r, r0),
        good_turing_adjusted_count(0, r, r0),
    )
    return ConditionalLM(
        table.order, table.vocab, (table.arrays, rows),
        backstop=uniform_backstop(table.vocab),
        method="good_turing", params={},
    )


# ---------------------------------------------------------------------------
# Simple Good-Turing (Gale & Sampson)


@dataclass(frozen=True)
class SgtFit:
    """Diagnostics of the Gale-Sampson procedure."""

    intercept: float          # a in log r-hat = a + b log c
    slope: float              # b
    switch_at: int            # smallest count using the regressed estimate
    smoothed_count: dict[int, float]
    p0: float                 # total unseen probability r_1 / N
    seen_scale: float         # (1 - p0) / sum(r_c * c*_c), probability per count unit


def sgt_fit(r: dict[int, int], n: int) -> SgtFit:
    """Run the Gale-Sampson procedure on counts-of-counts r ({count: number
    of grams with that count}) of n tokens.

    Z-transform r_c by averaging over neighbor gaps, fit log Z = a + b log c
    by least squares, then walk counts upward using the Turing estimate while
    it differs from the regressed one by more than 1.65 standard errors,
    switching permanently to the regressed estimate afterwards (or as soon as
    the Turing estimate is undefined).
    """
    cs = sorted(r)
    if len(cs) < 2:
        raise ValueError("need at least two distinct count values")
    logs_c = []
    logs_z = []
    for idx, c in enumerate(cs):
        lo = cs[idx - 1] if idx > 0 else 0
        hi = cs[idx + 1] if idx + 1 < len(cs) else 2 * c - lo
        logs_c.append(math.log(c))
        logs_z.append(math.log(r[c] / (0.5 * (hi - lo))))
    slope, intercept = np.polyfit(logs_c, logs_z, 1)
    slope = float(slope)
    intercept = float(intercept)
    if slope > -1.0:
        log.warning("SGT regression slope %.4f > -1; estimates may be unreliable", slope)

    def regressed(c: int) -> float:
        return (c + 1) * ((c + 1) / c) ** slope

    smoothed: dict[int, float] = {}
    switch_at = cs[-1] + 1
    use_turing = True
    for c in cs:
        lgt = regressed(c)
        if use_turing and (c + 1) in r:
            turing = (c + 1) * r[c + 1] / r[c]
            sd = (c + 1) / r[c] * math.sqrt(r[c + 1] * (1 + r[c + 1] / r[c]))
            if abs(turing - lgt) > 1.65 * sd:
                smoothed[c] = turing
                continue
        if use_turing:
            use_turing = False
            switch_at = c
        smoothed[c] = lgt

    p0 = r.get(1, 0) / n
    seen_mass = sum(r[c] * smoothed[c] for c in cs)
    seen_scale = (1.0 - p0) / seen_mass if seen_mass > 0 else 0.0
    return SgtFit(intercept, slope, switch_at, smoothed, p0, seen_scale)


def smooth_simple_good_turing(table: CountTable) -> ConditionalLM:
    """Gale-Sampson smoothed conditionals, renormalized per history.

    Falls back to add-lambda (lambda = 1e-3) with a warning when the table
    has fewer than two distinct count values, where the regression is
    undefined.
    """
    try:
        fit = sgt_fit(table.count_of_counts, table.total_tokens)
    except ValueError:
        log.warning("SGT needs >= 2 distinct count values; falling back to add-lambda 1e-3")
        lm = smooth_add_lambda(table, 1e-3)
        lm.method = "simple_good_turing"
        lm.params = {"fallback": "add_lambda", "lambda": 1e-3}
        return lm
    r0 = zero_gram_count(table)
    if r0 > 0:
        if fit.p0 > 0:
            unseen = fit.p0 / r0
        else:
            # no singleton grams: estimate the unseen weight from the regression
            unseen = math.exp(fit.intercept) / table.total_tokens / r0
    else:
        unseen = 0.0
    rows = _renormalized_rows(
        table,
        lambda c: fit.seen_scale * fit.smoothed_count[c],
        unseen,
    )
    return ConditionalLM(
        table.order, table.vocab, (table.arrays, rows),
        backstop=uniform_backstop(table.vocab),
        method="simple_good_turing", params={},
    )


# ---------------------------------------------------------------------------
# Jelinek-Mercer


def smooth_jelinek_mercer(table: CountTable, lambdas: list[float]) -> ConditionalLM:
    """Recursive interpolation q~_k = lam_k * MLE_k + (1 - lam_k) * q~_{k-1},
    grounded at the uniform distribution over the emission alphabet.

    `lambdas[k-1]` weights the order-k maximum-likelihood term.  At a history
    unseen at level k the MLE term is undefined and its weight passes down,
    i.e. the level contributes its lower-order distribution unchanged.
    """
    if len(lambdas) != table.order:
        raise ValueError(f"need {table.order} interpolation weights, got {len(lambdas)}")
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"interpolation weight {lam} outside [0, 1]")
    vocab = table.vocab
    lm = None
    for tab in tables_down_to_unigram(table):
        lam = lambdas[tab.order - 1]
        a = tab.arrays
        if lm is not None:
            rows = _lower_rows(tab, lm)
            rows *= 1.0 - lam
        else:
            rows = np.full((len(a.hists), vocab.out_dim), (1.0 - lam) * (1.0 / vocab.out_dim))
        rows[a.hist, a.out] += lam * (a.count / a.totals[a.hist])
        lm = _level(tab, rows, lm, "jelinek_mercer", {"lambdas": list(lambdas)})
    return lm


# ---------------------------------------------------------------------------
# Katz


def smooth_katz(table: CountTable, k: int) -> ConditionalLM:
    """Katz backoff: counts above k trusted, counts in (0, k] discounted with
    Good-Turing-derived factors, freed mass routed to unseen continuations in
    proportion to the next-lower-order Katz distribution.

    The recursion grounds at the order-1 maximum-likelihood distribution:
    every emittable symbol occurs in the corpus, so the unigram level has no
    zero-count event to receive redistributed mass and discounting there
    would be vacuous.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    chain = tables_down_to_unigram(table)
    lm = _level(chain[0], empirical_rows(chain[0]), None, "katz", {"k": k})
    for tab in chain[1:]:
        lm = _level(tab, _katz_rows(tab, k, lm), lm, "katz", {"k": k})
    return lm


def _katz_discounts(tab: CountTable, k: int, counts: np.ndarray) -> np.ndarray:
    """The Katz discount of each count in `counts` at one order."""
    r = tab.count_of_counts
    r1 = r.get(1, 0)
    ratio = 0.0
    if r.get(k + 1, 0):
        if r1 == 0:
            raise KatzConfigError(f"k={k}: r_1 == 0 at order {tab.order}, discounts undefined")
        ratio = (k + 1) * r[k + 1] / r1
    if ratio >= 1.0:
        raise KatzConfigError(
            f"k={k}: discount denominator 1 - (k+1) r_(k+1)/r_1 = {1 - ratio:.4g} <= 0"
        )
    values, inverse = np.unique(counts, return_inverse=True)
    d = np.ones(len(values))
    for i, c in enumerate(values.tolist()):
        if c <= k:
            d[i] = (good_turing_adjusted_count(c, r, 1) / c - ratio) / (1.0 - ratio)
    negative = d < 0.0
    if negative.any():
        log.warning("order %d: discounts for counts %s are negative, clamping to 0 (%d cells)",
                    tab.order, values[negative].tolist(), int(negative[inverse].sum()))
        d[negative] = 0.0
    return d[inverse]


def _katz_rows(tab: CountTable, k: int, lower: ConditionalLM) -> np.ndarray:
    """One Katz level: discounted seen cells, the freed mass spread over the
    unseen cells in proportion to the lower-order row."""
    a = tab.arrays
    kept = _katz_discounts(tab, k, a.count) * a.count / a.totals[a.hist]
    # summing the dense rows adds in the same order as summing each row
    # alone, so `leftover`, and the branch each row takes, stay exact
    rows = np.zeros((len(a.hists), tab.vocab.out_dim))
    rows[a.hist, a.out] = kept
    kept_mass = rows.sum(axis=1)
    leftover = 1.0 - kept_mass
    _lower_rows(tab, lower, out=rows)
    rows[a.hist, a.out] = 0.0
    unseen_mass = rows.sum(axis=1)
    spread = (leftover > 0.0) & (unseen_mass > 0.0)
    rows *= np.where(spread, leftover, 0.0)[:, None]
    rows /= np.where(spread, unseen_mass, 1.0)[:, None]
    rows[a.hist, a.out] = kept
    # rows with nothing to spread keep only their discounted cells, renormalized
    renorm = ~spread & (leftover != 0.0)
    if renorm.any():
        over = renorm & (leftover < -1e-12)
        if over.any():
            log.warning("order %d: discounted mass exceeds 1 in %d of %d histories, "
                        "renormalizing", tab.order, int(over.sum()), len(a.hists))
        dead = renorm & (kept_mass <= 0.0)
        if dead.any():
            log.warning("order %d: no mass survived discounting in %d of %d histories, "
                        "using lower-order rows", tab.order, int(dead.sum()), len(a.hists))
            rows[dead] = lower.matrix[_parents(tab, lower)[dead]]
        live = renorm & ~dead
        rows[live] /= kept_mass[live, None]
    return rows


# ---------------------------------------------------------------------------
# Kneser-Essen-Ney


def smooth_kneser_essen_ney(table: CountTable, D: float = 0.75) -> ConditionalLM:
    """Absolute discounting with type-count continuation probabilities.

    The unigram level is built from bigram type counts (how many distinct
    histories precede each symbol) rather than raw frequencies; higher
    orders discount observed counts by D and add the freed mass times the
    lower-order distribution, which makes every row sum to 1 exactly.
    """
    if not 0.0 < D < 1.0:
        raise ValueError(f"D must lie in (0, 1), got {D}")
    if table.order < 2:
        raise ValueError("Kneser-Essen-Ney needs an order >= 2 table")
    vocab = table.vocab
    chain = tables_down_to_unigram(table)

    # unigram level: how many distinct histories precede each emission
    bigrams = chain[1].arrays
    q1 = np.bincount(bigrams.out, minlength=vocab.out_dim) / len(bigrams.out)
    lm = _level(chain[0], q1[None, :], None, "kneser_essen_ney", {"D": D})
    for tab in chain[1:]:
        a = tab.arrays
        distinct = np.bincount(a.hist, minlength=len(a.hists))
        rows = _lower_rows(tab, lm)
        rows *= (D * distinct)[:, None]
        rows[a.hist, a.out] += np.maximum(a.count - D, 0.0)
        rows /= a.totals[:, None]
        lm = _level(tab, rows, lm, "kneser_essen_ney", {"D": D})
    return lm


# ---------------------------------------------------------------------------
# backoff levels


def _level(tab: CountTable, rows: np.ndarray, lower: ConditionalLM | None, method: str,
           params: dict) -> ConditionalLM:
    """The LM of one order: `rows` follow `tab`'s histories, and an unseen
    history backs off to `lower`, the level one order below."""
    return ConditionalLM(tab.order, tab.vocab, (tab.arrays, rows), backstop=lower,
                         method=method, params=params)


def _parents(tab: CountTable, lower: ConditionalLM) -> np.ndarray:
    """Row of each history's parent (the history minus its oldest symbol)
    in the next-lower-order level."""
    hists = tab.arrays.hists
    return np.fromiter((lower.index[h[1:]] for h in hists), dtype=np.intp, count=len(hists))


def _lower_rows(tab: CountTable, lower: ConditionalLM, out=None) -> np.ndarray:
    """Each history's parent row of the lower level, gathered into one new
    matrix or into `out`."""
    # mode="clip" writes straight into `out` (the default mode buffers)
    return np.take(lower.matrix, _parents(tab, lower), axis=0, out=out, mode="clip")
