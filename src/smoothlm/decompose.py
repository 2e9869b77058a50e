"""Signed decomposition of a smoothed distribution against an empirical one.

Any smoothed conditional p~ relates to its empirical counterpart p through

    p~ = p + Z+ * p_plus - Z- * p_minus,

where p_plus carries the added mass (normalized), p_minus the removed mass,
and Z+ == Z- is their common scale (the total-variation distance between p
and p~).  `_split_difference` splits one row or a table's rows at once, into
one SignedDecomposition; `signed_decompose`, its entry point on raw arrays,
checks both inputs first.  Aggregating one decomposition per observed
history, weighted by that history's occurrence count, yields an additive
regularizer that can be attached to any differentiable conditional model.
A RegularizerBundle keeps the count table and the SignedDecomposition of
its rows, whose matrices follow the table's sorted histories; the table's
row totals are the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import CountTable, History, write_cells
from .ngram import ConditionalLM, check_distributions

RECON_ATOL = 1e-12


class CoverageError(ValueError):
    """The smoothed model is missing histories present in the empirical one."""


@dataclass(frozen=True, eq=False)
class SignedDecomposition:
    """Difference parts of (empirical, smoothed) with disjoint supports, of
    one row (vectors p_plus, p_minus and float scales) or of many (row i of
    the p_plus and p_minus matrices and entry i of the z_plus and z_minus
    vectors belong to row i of the inputs).

    z_plus == z_minus up to float rounding; both are half the L1 distance
    between the inputs.  When a scale is zero, both of its row's parts are
    zero.
    """

    p_plus: np.ndarray
    p_minus: np.ndarray
    z_plus: float | np.ndarray
    z_minus: float | np.ndarray

    @cached_property
    def entropies(self) -> tuple[np.ndarray, np.ndarray]:
        """The entropy of each row of p_plus and of p_minus, of a
        decomposition of many rows.  Computed on first read: the grid
        cells of one bundle share its rows and differ only in gammas."""
        return row_entropies(self.p_plus), row_entropies(self.p_minus)


def row_entropies(rows: np.ndarray) -> np.ndarray:
    """Entropy of each row, summed over its positive cells."""
    i, j = np.nonzero(rows > 0.0)
    p = rows[i, j]
    return -np.bincount(i, weights=p * np.log(p), minlength=len(rows))


def signed_decompose(empirical, smoothed, hists=None, support=None) -> SignedDecomposition:
    """Split smoothed - empirical into normalized positive and negative
    parts along the last axis, for a pair of vectors or a pair of
    (rows x emissions) matrices: the public entry point on raw arrays,
    which checks that both inputs are distributions, row by row, and then
    splits them as `_split_difference` does.  `hists` names the rows in
    input errors; `support` is _split_difference's."""
    p, q = _pair(empirical, smoothed)
    check_distributions(p.reshape(-1, p.shape[-1]), hists, "empirical")
    check_distributions(q.reshape(-1, q.shape[-1]), hists, "smoothed")
    return _split_difference(p, q, support)


def _pair(empirical, smoothed) -> tuple[np.ndarray, np.ndarray]:
    """The two inputs as float arrays of one shape, vectors or matrices."""
    p = np.asarray(empirical, dtype=float)
    q = np.asarray(smoothed, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    if p.ndim not in (1, 2):
        raise ValueError(f"need a vector or a matrix, got shape {p.shape}")
    return p, q


def _split_difference(p: np.ndarray, q: np.ndarray, support=None) -> SignedDecomposition:
    """The split of q - p, two float arrays of one shape whose rows the
    caller has checked to be distributions.  `support` lists, as flat cell
    indices, every cell where p may be nonzero (np.flatnonzero(p) when not
    given).  Off it p is 0, so q - p is q itself, nonnegative: p_plus
    starts as a copy of q, p_minus as zeros, and only the support is
    split.  Builds the two output arrays and no other input-sized array."""
    if support is None:
        support = np.flatnonzero(p)
    # + 0.0 makes a -0.0 the +0.0 that max(q - 0.0, 0.0) gives
    pos = q + 0.0
    neg = np.zeros(pos.shape)
    diff = q.reshape(-1)[support] - p.reshape(-1)[support]
    pos.reshape(-1)[support] = np.maximum(diff, 0.0)
    neg.reshape(-1)[support] = np.maximum(np.negative(diff), 0.0)
    parts = []
    for m in (pos, neg):
        z = m.sum(axis=-1)
        zero = z == 0.0
        # a part with no mass is +0.0 throughout
        m[zero] = 0.0
        scale = np.where(zero, 1.0, z)
        if m is pos:
            m /= scale[..., None]
        else:
            # p_minus is zero off the support
            m.reshape(-1)[support] /= scale.reshape(-1)[support // p.shape[-1]]
        parts.append(z)
    return SignedDecomposition(pos, neg, *parts)


@dataclass(frozen=True, eq=False)
class RegularizerBundle:
    """Signed decompositions of a count table's histories, whose occurrence
    counts, the table's row totals, are their weights.

    `keys` is the count table itself and `rows` the SignedDecomposition of
    its rows: row i of its matrices belongs to the table's history i, of
    weight keys.totals[i].  `per_history`, mapping each history to a
    SignedDecomposition of views into `rows`, is built on first read for
    `perfbench/` and the tests."""

    keys: CountTable = field(repr=False)
    rows: SignedDecomposition = field(repr=False)
    gamma_plus: float
    gamma_minus: float

    @cached_property
    def per_history(self) -> dict[History, SignedDecomposition]:
        r = self.rows
        zp = r.z_plus.tolist()
        zm = r.z_minus.tolist()
        hists = self.keys.hists
        return {h: SignedDecomposition(r.p_plus[i], r.p_minus[i], zp[i], zm[i])
                for i, h in enumerate(hists)}


def build_regularizer(
    empirical_lm: ConditionalLM,
    smoothed_lm: ConditionalLM,
    table: CountTable,
    gamma_plus: float,
    gamma_minus: float,
) -> RegularizerBundle:
    """Decompose smoothed against empirical on every history of `table`;
    the empirical model must be `empirical_conditional(table)`, whose rows
    are keyed by the table itself and are nonzero on the table's gram cells
    only, the split's support.  The gammas must be finite and nonnegative.

    Each matrix is checked to hold distributions once: an LM built with
    `validate=True` (`lm.checked`) has checked its own rows, so they are
    split as they are.  This function checks the rows of an LM built
    unchecked, and the smoothed rows whenever the smoothed LM is not keyed
    by `table` itself, as those rows are gathered through `rows(table)`
    and may come from its backstop."""
    if empirical_lm.order != smoothed_lm.order:
        raise ValueError("order mismatch between empirical and smoothed models")
    for name, gamma in (("gamma_plus", gamma_plus), ("gamma_minus", gamma_minus)):
        if not math.isfinite(gamma):
            raise ValueError(f"{name} must be finite, got {gamma!r}")
    if gamma_plus < 0 or gamma_minus < 0:
        raise ValueError("gamma weights must be nonnegative")
    if empirical_lm.keys is not table:
        raise ValueError("the empirical model's rows are not the count table's histories")
    if smoothed_lm.keys is not table:
        missing = table.ids[smoothed_lm.keys.find(table.ids) < 0].tolist()
        if missing:
            rendered = ", ".join(table.vocab.render_history(h) for h in missing[:5])
            raise CoverageError(f"smoothed model missing {len(missing)} histories: {rendered}")
    p, q = _pair(empirical_lm.matrix, smoothed_lm.rows(table))
    if not empirical_lm.checked:
        check_distributions(p, table.ids, "empirical")
    if not smoothed_lm.checked or smoothed_lm.keys is not table:
        check_distributions(q, table.ids, "smoothed")
    return RegularizerBundle(
        keys=table,
        rows=_split_difference(p, q, table.hist * table.vocab.out_dim + table.out),
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
    )


def write_decomposition(bundle: RegularizerBundle, path: str) -> None:
    """TSV export: history, symbol, p_plus, p_minus, z_plus, z_minus per
    line, in the symbols of the bundle's count table."""
    r = bundle.rows
    write_cells(path, bundle.keys.vocab, bundle.keys.ids.tolist(), {
        "p_plus": (r.p_plus, ".12g"), "p_minus": (r.p_minus, ".12g"),
        "z_plus": (r.z_plus[:, None], ".12g"), "z_minus": (r.z_minus[:, None], ".12g"),
    })
