"""Count smoothing: add-lambda, Good-Turing, Simple Good-Turing (Gale-Sampson),
Jelinek-Mercer interpolation, Katz backoff, and Kneser-Essen-Ney.

Each level of every smoother has one shape (Chen & Goodman 1998, section
2.8): a seen cell, a gram of the level's table, has its own value, and an
unseen cell of history h is a(h) / d(h) times that cell of a base row.
Jelinek-Mercer, Katz and Kneser-Essen-Ney build one level per order, each
backing off to the one below, where h's parent (h without its oldest
symbol) has h's base row; their order-1 level, like the one level of
add-lambda, Good-Turing and Simple Good-Turing, has a base row of ones.
Those three back off to the uniform order-1 LM; an order-1 LM has no
backstop, as its one history is always seen.  A level keeps only its seen
values, a, d and backstop (`ConditionalLM.level`); its dense rows are built
when a reader asks, and no smoother builds one: every mass a level divides
by is summed over the table's grams and the level below's parts, as
`ConditionalLM.mass` and `off_mass` are.  Rows sum to 1, Good-Turing's too,
whose native normalization is global.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .corpus import CountTable, tables_down_to_unigram, zero_gram_count
from .ngram import ConditionalLM, uniform_backstop

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
    return _level("add_lambda", {"lambda": lam}, table, None, *_add_lambda(table, lam))


def _add_lambda(tab: CountTable, lam: float) -> tuple:
    """The seen cells, a and d of add-lambda's level."""
    d = tab.totals + tab.vocab.out_dim * lam
    return (lam + tab.count) / d[tab.hist], lam, d


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


def _renormalized(tab: CountTable, weight_of_count, unseen_weight: float) -> tuple:
    """The seen cells, a and d of a level whose seen cells weigh
    weight_of_count(count) and unseen ones `unseen_weight`, each history
    renormalized; an all-zero row falls back to uniform."""
    counts, inverse = np.unique(tab.count, return_inverse=True)
    weights = np.array([weight_of_count(int(c)) for c in counts], dtype=float)[inverse]
    n = len(tab.ids)
    sums = np.bincount(tab.hist, weights, n) \
        + unseen_weight * (tab.vocab.out_dim - np.bincount(tab.hist, minlength=n))
    empty = sums <= 0.0
    if empty.any():
        log.warning("%d of %d histories have all adjusted weights zero, using uniform",
                    int(empty.sum()), n)
        # every cell weighs 1 of the row's |V|
        weights[empty[tab.hist]] = 1.0
        sums[empty] = tab.vocab.out_dim
        unseen_weight = np.where(empty, 1.0, unseen_weight)
    return weights / sums[tab.hist], unseen_weight, sums


def smooth_good_turing(table: CountTable) -> ConditionalLM:
    """Per-history renormalized Good-Turing conditionals.

    The globally normalized form, adjusted count / total tokens, is not a
    proper per-history distribution, so each history's adjusted counts are
    rescaled to sum to 1.  Zeros survive wherever r_{c+1} == 0.
    """
    r = table.count_of_counts
    r0 = zero_gram_count(table)
    return _level("good_turing", {}, table, None, *_renormalized(
        table, lambda c: good_turing_adjusted_count(c, r, r0), good_turing_adjusted_count(0, r, r0)))


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
        return _level("simple_good_turing", {"fallback": "add_lambda", "lambda": 1e-3},
                      table, None, *_add_lambda(table, 1e-3))
    r0 = zero_gram_count(table)
    # with no singleton grams, the regression estimates the unseen mass
    p0 = fit.p0 if fit.p0 > 0 else math.exp(fit.intercept) / table.total_tokens
    unseen = p0 / r0 if r0 > 0 else 0.0
    return _level("simple_good_turing", {}, table, None, *_renormalized(
        table, lambda c: fit.seen_scale * fit.smoothed_count[c], unseen))


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
    lm = None
    for tab in tables_down_to_unigram(table):
        lam = lambdas[tab.order - 1]
        if lm is None:
            # the order-1 level's parent row is uniform, on a base of ones
            parents, parent = None, 1.0 / tab.vocab.out_dim
            a = (1.0 - lam) * parent
        else:
            parents = _parent_cells(tab, lm)
            parent, a = parents[1], 1.0 - lam
        seen = parent * (1.0 - lam) + lam * (tab.count / tab.totals[tab.hist])
        lm = _level("jelinek_mercer", {"lambdas": list(lambdas)}, tab, lm, seen, a,
                    parent=parents)
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
    unigrams, *chain = tables_down_to_unigram(table)
    lm = _level("katz", {"k": k}, unigrams, None,
                unigrams.count / unigrams.totals[unigrams.hist])
    for tab in chain:
        lm = _katz_level(tab, k, lm)
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


def _katz_level(tab: CountTable, k: int, lower: ConditionalLM) -> ConditionalLM:
    """One Katz level: discounted seen cells, the freed mass spread over the
    unseen cells in proportion to the lower-order row."""
    n = len(tab.ids)
    kept = _katz_discounts(tab, k, tab.count) * tab.count / tab.totals[tab.hist]
    kept_mass = np.bincount(tab.hist, kept, n)
    leftover = 1.0 - kept_mass
    parents, parent = _parent_cells(tab, lower)
    # the parent row's mass off the grams, as `ConditionalLM.off_mass` sums it
    unseen_mass = lower.mass[parents] - np.bincount(tab.hist, parent, n)
    spread = (leftover > 0.0) & (unseen_mass > 0.0)
    # rows with nothing to spread keep only their discounted cells, renormalized
    renorm = ~spread & (leftover != 0.0)
    over = renorm & (leftover < -1e-12)
    if over.any():
        log.warning("order %d: discounted mass exceeds 1 in %d of %d histories, "
                    "renormalizing", tab.order, int(over.sum()), n)
    dead = renorm & (kept_mass <= 0.0)
    seen = kept / np.where(renorm & ~dead, kept_mass, 1.0)[tab.hist]
    if dead.any():
        log.warning("order %d: no mass survived discounting in %d of %d histories, "
                    "using lower-order rows", tab.order, int(dead.sum()), n)
        cells = dead[tab.hist]
        seen[cells] = parent[cells]
    # a dead row is its parent row: factor 1 / 1
    return _level("katz", {"k": k}, tab, lower, seen, np.where(spread, leftover, dead * 1.0),
                  np.where(spread, unseen_mass, 1.0), (parents, parent))


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
    unigrams, *chain = tables_down_to_unigram(table)

    # unigram level: how many distinct histories precede each emission
    bigram_out = chain[0].out
    q1 = np.bincount(bigram_out, minlength=table.vocab.out_dim) / len(bigram_out)
    lm = _level("kneser_essen_ney", {"D": D}, unigrams, None, q1[unigrams.out])
    for tab in chain:
        a = D * np.bincount(tab.hist, minlength=len(tab.ids))
        parents = _parent_cells(tab, lm)
        seen = parents[1] * a[tab.hist] + np.maximum(tab.count - D, 0.0)
        lm = _level("kneser_essen_ney", {"D": D}, tab, lm, seen / tab.totals[tab.hist], a,
                    tab.totals, parents)
    return lm


# ---------------------------------------------------------------------------
# backoff levels


def _level(method: str, params: dict, tab: CountTable, lower: ConditionalLM | None,
           seen: np.ndarray, a=0.0, d=1.0,
           parent: tuple[np.ndarray, np.ndarray] | None = None) -> ConditionalLM:
    """The LM of one order, every smoother's LM and every level of a backoff
    chain: the cells of `tab`'s grams hold `seen`, and any other cell of
    history h is base(h) * a(h) / d(h), `a` and `d` being scalars or one
    value per history.  The base row is h's parent row in `lower`, whose
    place there and cells on the grams `parent` holds (`_parent_cells`), or
    a row of ones with no `lower`.  The backstop is `lower`, else the
    uniform LM above order 1; an order-1 LM has none, as its one history is
    always seen."""
    backstop = lower if lower is not None else \
        uniform_backstop(tab.vocab) if tab.order > 1 else None
    return ConditionalLM.level(tab, seen, a, d, backstop, parent, method=method, params=params)


def _parent_cells(tab: CountTable, lower: ConditionalLM) -> tuple[np.ndarray, np.ndarray]:
    """The row in `lower`, the LM of tab.marginal (as in every chain of
    tables_down_to_unigram), of each history's parent (the history minus
    its oldest symbol), and the cell of each of `tab`'s grams in that row:
    `lower`'s value on the gram's parent gram.  Both come off the table's
    `parents`, with no search."""
    rows, grams = tab.parents
    return rows, lower.gram_cells[grams]

