"""Signed decomposition of a smoothed distribution against an empirical one.

Any smoothed conditional p~ relates to its empirical counterpart p through

    p~ = p + Z+ * p_plus - Z- * p_minus,

where p_plus carries the added mass (normalized), p_minus the removed mass,
and Z+ == Z- is their common scale (the total-variation distance between p
and p~).  `signed_decompose` splits one row or a table's rows at once, into
one SignedDecomposition.  Aggregating one decomposition per observed
history, weighted by that history's occurrence count, yields an additive
regularizer that can be attached to any differentiable conditional model.
A RegularizerBundle keeps the SignedDecomposition of the count table's rows,
whose matrices follow the table's sorted histories, and takes its weights
from the table's row totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import CountTable, GramArrays, History, write_cells
from .ngram import ConditionalLM, check_distributions

RECON_ATOL = 1e-12


class CoverageError(ValueError):
    """The smoothed model is missing histories present in the empirical one."""


@dataclass(frozen=True)
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


def signed_decompose(empirical, smoothed, hists=None) -> SignedDecomposition:
    """Split smoothed - empirical into normalized positive and negative
    parts along the last axis, for a pair of vectors or a pair of
    (rows x emissions) matrices.  Builds the two output arrays and no other
    input-sized array; `hists` names the rows in input errors."""
    p = np.asarray(empirical, dtype=float)
    q = np.asarray(smoothed, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    if p.ndim not in (1, 2):
        raise ValueError(f"need a vector or a matrix, got shape {p.shape}")
    check_distributions(p.reshape(-1, p.shape[-1]), hists, "empirical")
    check_distributions(q.reshape(-1, q.shape[-1]), hists, "smoothed")
    pos = np.subtract(q, p)
    neg = np.negative(pos)
    np.maximum(pos, 0.0, out=pos)
    np.maximum(neg, 0.0, out=neg)
    parts = []
    for m in (pos, neg):
        z = m.sum(axis=-1)
        zero = z == 0.0
        # max(-0.0, 0.0) keeps -0.0; a part with no mass is +0.0 throughout
        m[zero] = 0.0
        m /= np.where(zero, 1.0, z)[..., None]
        parts.append(z)
    return SignedDecomposition(pos, neg, *parts)


@dataclass(frozen=True)
class RegularizerBundle:
    """Signed decompositions of a count table's histories, with their
    occurrence counts as weights.

    `rows` is the SignedDecomposition of the table's rows: row i of its
    matrices and entry i of `weights` belong to the table's history i.
    `build_regularizer` passes the table's `arrays` and `arrays.totals`
    themselves, so the rows follow the table's row order.  `per_history`,
    mapping each history to a SignedDecomposition of views into `rows`, is
    built on first read for `perfbench/` and the tests."""

    order: int
    arrays: GramArrays = field(repr=False, compare=False)
    rows: SignedDecomposition = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)
    gamma_plus: float
    gamma_minus: float

    @cached_property
    def per_history(self) -> dict[History, SignedDecomposition]:
        r = self.rows
        zp = r.z_plus.tolist()
        zm = r.z_minus.tolist()
        hists = self.arrays.hists
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
    are keyed by the table's `arrays` themselves."""
    if empirical_lm.order != smoothed_lm.order:
        raise ValueError("order mismatch between empirical and smoothed models")
    if gamma_plus < 0 or gamma_minus < 0:
        raise ValueError("gamma weights must be nonnegative")
    a = table.arrays
    if empirical_lm.keys is not a:
        raise ValueError("the empirical model's rows are not the count table's histories")
    if smoothed_lm.keys is not a:
        missing = a.ids[smoothed_lm.keys.find(a.ids) < 0].tolist()
        if missing:
            rendered = ", ".join(table.vocab.render_history(h) for h in missing[:5])
            raise CoverageError(f"smoothed model missing {len(missing)} histories: {rendered}")
    return RegularizerBundle(
        order=empirical_lm.order,
        arrays=a,
        rows=signed_decompose(empirical_lm.matrix, smoothed_lm.rows(a), a.ids),
        weights=a.totals,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
    )


def write_decomposition(bundle: RegularizerBundle, vocab, path: str) -> None:
    """TSV export: history, symbol, p_plus, p_minus, z_plus, z_minus per line."""
    r = bundle.rows
    write_cells(path, vocab, bundle.arrays.ids.tolist(), {
        "p_plus": (r.p_plus, ".12g"), "p_minus": (r.p_minus, ".12g"),
        "z_plus": (r.z_plus[:, None], ".12g"), "z_minus": (r.z_minus[:, None], ".12g"),
    })
