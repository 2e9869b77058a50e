"""Count smoothing: add-lambda, Good-Turing, Simple Good-Turing (Gale-Sampson),
Jelinek-Mercer interpolation, Katz backoff, and Kneser-Essen-Ney.

Every smoother maps a CountTable to a ConditionalLM whose rows are the
table's histories.  Add-lambda, Good-Turing and Simple Good-Turing back off
to the uniform order-1 LM.  Jelinek-Mercer, Katz and Kneser-Essen-Ney build
one ConditionalLM per order, from order 1 up, each backing off to the one
below, so an unseen history gets the row of its longest seen suffix.
Per-history vectors are normalized to sum to 1, Good-Turing's too, whose
native normalization is global.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .corpus import CountTable, tables_down_to_unigram, zero_gram_count
from .ngram import ConditionalLM, empirical_rows, uniform_backstop

log = logging.getLogger(__name__)

# Each method's CLI alias and the defaults of its parameters, in the order
# smooth_<method> takes them.  A parameter takes values of its default's
# type (a float also takes an integer) in the range _check_ranges gives it;
# JM's `lambdas` takes a list of floats, and its None default means
# _JM_WEIGHT per order.
METHODS = {
    "add_lambda": ("addlambda", {"lambda": 1.0}),
    "good_turing": ("gt", {}),
    "simple_good_turing": ("sgt", {}),
    "jelinek_mercer": ("jm", {"lambdas": None}),
    "katz": ("katz", {"k": 5}),
    "kneser_essen_ney": ("ken", {"D": 0.75}),
}
_JM_WEIGHT = 0.5


class KatzConfigError(ValueError):
    """The Katz discount denominator is non-positive for the chosen k."""


def method_params(method, params: dict | None = None,
                  order: int | None = None) -> tuple[str, dict]:
    """The canonical name of `method` (a name or an alias) and its
    parameters: the defaults, overridden by each non-null value of `params`.
    ValueError for an unknown method, a key the method does not take, or a
    value of the wrong type or out of its range; the range rules that
    depend on the table's order run when `order` is given."""
    name = method.strip().lower() if isinstance(method, str) else None
    canonical = next((m for m, (alias, _) in METHODS.items() if name in (m, alias)), None)
    if canonical is None:
        raise ValueError(f"unknown smoothing method {method!r}")
    if not isinstance(params, (dict, type(None))):
        raise ValueError(f"smoother params must be a JSON object, got {params!r}")
    defaults = METHODS[canonical][1]
    resolved = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            takes = ", ".join(map(repr, defaults)) or "none"
            raise ValueError(f"{canonical} takes no parameter {key!r} (it takes {takes})")
        if value is not None:
            resolved[key] = _checked(key, value, defaults[key])
    _check_ranges(canonical, resolved, order)
    return canonical, resolved


def _check_ranges(method: str, params: dict, order: int | None) -> None:
    """ValueError unless `params`, the resolved parameters of the canonical
    `method` (each method takes at most one), lie in their ranges, and (when
    `order` is given) the method takes a table of that order."""
    value = next(iter(params.values()), None)
    if method == "add_lambda" and not value > 0:
        raise ValueError(f"lambda must be > 0, got {value}")
    if method == "katz" and not value >= 1:
        raise ValueError(f"k must be >= 1, got {value}")
    if method == "kneser_essen_ney":
        if not 0.0 < value < 1.0:
            raise ValueError(f"D must lie in (0, 1), got {value}")
        if order is not None and order < 2:
            raise ValueError("Kneser-Essen-Ney needs an order >= 2 table")
    if method == "jelinek_mercer" and value is not None:
        if order is not None and len(value) != order:
            raise ValueError(f"need {order} interpolation weights, got {len(value)}")
        for lam in value:
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"interpolation weight {lam} outside [0, 1]")


def _checked(key: str, value, default):
    """`value` as a value of `default`'s type, or ValueError naming `key`."""
    if default is None:  # a list of floats
        if isinstance(value, (list, tuple)) and all(map(_is_real, value)):
            return [float(v) for v in value]
        raise ValueError(f"parameter {key!r} must be a list of numbers, got {value!r}")
    if isinstance(default, int):
        if isinstance(value, numbers.Integral) and not isinstance(value, bool):
            return int(value)
        raise ValueError(f"parameter {key!r} must be an integer, got {value!r}")
    if _is_real(value):
        return float(value)
    raise ValueError(f"parameter {key!r} must be a finite number, got {value!r}")


def _is_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def smooth(table: CountTable, method: str, params: dict | None = None) -> ConditionalLM:
    """The LM of `method_params(method, params)`, built by smooth_<method>.
    The smoother is looked up by its module-level name on each call, so a
    rebound name (a tracer's wrapper) is the one called."""
    method, params = method_params(method, params)
    return globals()[f"smooth_{method}"](table, *params.values())


def default_params(method: str, table_order: int) -> dict:
    """The parameters `smooth` uses for `method` on a table of `table_order`
    when none are given."""
    _, params = method_params(method)
    return {key: [_JM_WEIGHT] * table_order if value is None else value
            for key, value in params.items()}


# ---------------------------------------------------------------------------
# add-lambda


def smooth_add_lambda(table: CountTable, lam: float) -> ConditionalLM:
    """(count + lam) / (total + (|Sigma|+1) lam) per history; unseen histories
    get the uniform limit."""
    _check_ranges("add_lambda", {"lambda": lam}, table.order)
    vocab = table.vocab
    a = table.arrays
    rows = np.full((len(a.ids), vocab.out_dim), lam, dtype=float)
    rows[a.hist, a.out] += a.count
    rows /= (a.totals + vocab.out_dim * lam)[:, None]
    return _level(table, rows, uniform_backstop(vocab), "add_lambda", {"lambda": lam})


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


def _renormalized_rows(table: CountTable, weight_of_count, unseen_weight: float) -> np.ndarray:
    """Build per-history rows from a count -> weight map plus an unseen-cell
    weight, renormalizing each history; an all-zero row falls back to uniform."""
    out_dim = table.vocab.out_dim
    a = table.arrays
    rows = np.full((len(a.ids), out_dim), unseen_weight)
    counts, inverse = np.unique(a.count, return_inverse=True)
    weights = np.array([weight_of_count(int(c)) for c in counts], dtype=float)
    rows[a.hist, a.out] = weights[inverse]
    sums = rows.sum(axis=1)
    empty = sums <= 0.0
    if empty.any():
        log.warning("%d of %d histories have all adjusted weights zero, using uniform",
                    int(empty.sum()), len(a.ids))
        rows[empty] = 1.0 / out_dim
        sums[empty] = 1.0
    rows /= sums[:, None]
    return rows


def smooth_good_turing(table: CountTable) -> ConditionalLM:
    """Per-history renormalized Good-Turing conditionals.

    The globally normalized form, adjusted count / total tokens, is not a
    proper per-history distribution, so each history's adjusted counts are
    rescaled to sum to 1.  Zeros survive wherever r_{c+1} == 0.
    """
    r = table.count_of_counts
    r0 = zero_gram_count(table)
    rows = _renormalized_rows(
        table,
        lambda c: good_turing_adjusted_count(c, r, r0),
        good_turing_adjusted_count(0, r, r0),
    )
    return _level(table, rows, uniform_backstop(table.vocab), "good_turing", {})


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
        return _level(table, smooth_add_lambda(table, 1e-3).matrix,
                      uniform_backstop(table.vocab), "simple_good_turing",
                      {"fallback": "add_lambda", "lambda": 1e-3})
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
    return _level(table, rows, uniform_backstop(table.vocab), "simple_good_turing", {})


# ---------------------------------------------------------------------------
# Jelinek-Mercer


def smooth_jelinek_mercer(table: CountTable, lambdas: list[float] | None) -> ConditionalLM:
    """Recursive interpolation q~_k = lam_k * MLE_k + (1 - lam_k) * q~_{k-1},
    grounded at the uniform distribution over the emission alphabet.

    `lambdas[k-1]` weights the order-k maximum-likelihood term (0.5 for
    every order when None).  At a history unseen at level k the MLE term is
    undefined and its weight passes down, i.e. the level contributes its
    lower-order distribution unchanged.
    """
    if lambdas is None:
        lambdas = [_JM_WEIGHT] * table.order
    _check_ranges("jelinek_mercer", {"lambdas": lambdas}, table.order)
    vocab = table.vocab
    lm = None
    for tab in tables_down_to_unigram(table):
        lam = lambdas[tab.order - 1]
        a = tab.arrays
        if lm is not None:
            rows = _lower_rows(tab, lm)
            rows *= 1.0 - lam
        else:
            rows = np.full((len(a.ids), vocab.out_dim), (1.0 - lam) * (1.0 / vocab.out_dim))
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
    _check_ranges("katz", {"k": k}, table.order)
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
    rows = np.zeros((len(a.ids), tab.vocab.out_dim))
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
                        "renormalizing", tab.order, int(over.sum()), len(a.ids))
        dead = renorm & (kept_mass <= 0.0)
        if dead.any():
            log.warning("order %d: no mass survived discounting in %d of %d histories, "
                        "using lower-order rows", tab.order, int(dead.sum()), len(a.ids))
            rows[dead] = lower.matrix[_parents(tab, lower)[dead]]
        live = renorm & ~dead
        rows[live] /= kept_mass[live, None]
    return rows


# ---------------------------------------------------------------------------
# Kneser-Essen-Ney


def smooth_kneser_essen_ney(table: CountTable, D: float) -> ConditionalLM:
    """Absolute discounting with type-count continuation probabilities.

    The unigram level is built from bigram type counts (how many distinct
    histories precede each symbol) rather than raw frequencies; higher
    orders discount observed counts by D and add the freed mass times the
    lower-order distribution, which makes every row sum to 1 exactly.
    """
    _check_ranges("kneser_essen_ney", {"D": D}, table.order)
    vocab = table.vocab
    chain = tables_down_to_unigram(table)

    # unigram level: how many distinct histories precede each emission
    bigrams = chain[1].arrays
    q1 = np.bincount(bigrams.out, minlength=vocab.out_dim) / len(bigrams.out)
    lm = _level(chain[0], q1[None, :], None, "kneser_essen_ney", {"D": D})
    for tab in chain[1:]:
        a = tab.arrays
        distinct = np.bincount(a.hist, minlength=len(a.ids))
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
    """The LM of one order, which every smoother returns and each level of
    a backoff chain is: `rows` follow `tab`'s histories, and an unseen
    history backs off to `lower`: the level one order below, the uniform
    backstop, or none at a chain's order-1 level."""
    return ConditionalLM(tab.order, tab.vocab, (tab.arrays, rows), backstop=lower,
                         method=method, params=params)


def _parents(tab: CountTable, lower: ConditionalLM) -> np.ndarray:
    """Row of each history's parent (the history minus its oldest symbol)
    in the next-lower-order level, whose table marginalizes `tab`'s, so
    every parent has a row."""
    return lower.keys.find(tab.arrays.ids[:, 1:])


def _lower_rows(tab: CountTable, lower: ConditionalLM, out=None) -> np.ndarray:
    """Each history's parent row of the lower level, gathered into one new
    matrix or into `out`."""
    # mode="clip" writes straight into `out` (the default mode buffers)
    return np.take(lower.matrix, _parents(tab, lower), axis=0, out=out, mode="clip")
