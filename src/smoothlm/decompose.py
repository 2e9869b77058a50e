"""Signed decomposition of a smoothed distribution against an empirical one.

Any smoothed conditional p~ relates to its empirical counterpart p through

    p~ = p + Z+ * p_plus - Z- * p_minus,

where p_plus carries the added mass (normalized), p_minus the removed mass,
and Z+ == Z- is their common scale (the total-variation distance between p
and p~).  Aggregating one decomposition per observed history, weighted by
that history's occurrence count, yields an additive regularizer that can be
attached to any differentiable conditional model.  A RegularizerBundle keeps
those decompositions as matrices whose rows follow the count table's sorted
histories, and takes its weights from the table's row totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .corpus import CountTable, History, write_cells
from .ngram import ConditionalLM, check_distributions, cross_entropy, entropy, kl_divergence

RECON_ATOL = 1e-12


class CoverageError(ValueError):
    """The smoothed model is missing histories present in the empirical one."""


@dataclass(frozen=True)
class SignedDecomposition:
    """Difference parts of (empirical, smoothed) with disjoint supports.

    z_plus == z_minus up to float rounding; both are half the L1 distance
    between the inputs.  When the scale is zero, both vectors are zero.
    """

    p_plus: np.ndarray
    p_minus: np.ndarray
    z_plus: float
    z_minus: float


def signed_decompose(empirical: np.ndarray, smoothed: np.ndarray) -> SignedDecomposition:
    """Split smoothed - empirical into normalized positive and negative parts."""
    p = np.asarray(empirical, dtype=float)
    q = np.asarray(smoothed, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    rows = _split_rows(p.reshape(1, -1), q.reshape(1, -1))
    return SignedDecomposition(
        rows.p_plus[0], rows.p_minus[0], float(rows.z_plus[0]), float(rows.z_minus[0])
    )


@dataclass(frozen=True)
class DecompositionRows:
    """Signed decompositions of many rows at once: row i of the matrices
    p_plus and p_minus, and entry i of z_plus and z_minus, belong to row i
    of the inputs."""

    p_plus: np.ndarray
    p_minus: np.ndarray
    z_plus: np.ndarray
    z_minus: np.ndarray


def _split_rows(empirical: np.ndarray, smoothed: np.ndarray, hists=None) -> DecompositionRows:
    """Decompose every row pair of two (rows x emissions) matrices.  Builds
    the two output matrices and no other matrix-sized array; `hists` names
    the rows in input errors."""
    if empirical.shape != smoothed.shape:
        raise ValueError(f"shape mismatch: {empirical.shape} vs {smoothed.shape}")
    check_distributions(empirical, hists, "empirical")
    check_distributions(smoothed, hists, "smoothed")
    pos = np.subtract(smoothed, empirical)
    neg = np.negative(pos)
    np.maximum(pos, 0.0, out=pos)
    np.maximum(neg, 0.0, out=neg)
    parts = []
    for m in (pos, neg):
        z = m.sum(axis=1)
        zero = z == 0.0
        # max(-0.0, 0.0) keeps -0.0; a part with no mass is +0.0 throughout
        m[zero] = 0.0
        m /= np.where(zero, 1.0, z)[:, None]
        parts.append(z)
    return DecompositionRows(pos, neg, parts[0], parts[1])


@dataclass(frozen=True)
class RegularizerBundle:
    """Signed decompositions of a count table's histories, with their
    occurrence counts as weights.

    Row i of the `rows` matrices and entry i of `weights` belong to history
    `hists[i]`.  `build_regularizer` passes the table's `arrays.hists` and
    `arrays.totals` themselves, so the rows follow the table's row order.
    `per_history`, mapping each history to a
    SignedDecomposition of views into `rows`, is built on first read."""

    order: int
    hists: tuple[History, ...] = field(repr=False)
    rows: DecompositionRows = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)
    gamma_plus: float
    gamma_minus: float

    @cached_property
    def per_history(self) -> dict[History, SignedDecomposition]:
        r = self.rows
        zp = r.z_plus.tolist()
        zm = r.z_minus.tolist()
        return {h: SignedDecomposition(r.p_plus[i], r.p_minus[i], zp[i], zm[i])
                for i, h in enumerate(self.hists)}

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum())


def build_regularizer(
    empirical_lm: ConditionalLM,
    smoothed_lm: ConditionalLM,
    table: CountTable,
    gamma_plus: float,
    gamma_minus: float,
) -> RegularizerBundle:
    """Decompose smoothed against empirical on every history of `table`;
    the empirical model must be `empirical_conditional(table)`, whose rows
    are the table's `arrays.hists` themselves."""
    if empirical_lm.order != smoothed_lm.order:
        raise ValueError("order mismatch between empirical and smoothed models")
    if gamma_plus < 0 or gamma_minus < 0:
        raise ValueError("gamma weights must be nonnegative")
    hists = table.arrays.hists
    if empirical_lm.hists is not hists:
        raise ValueError("the empirical model's rows are not the count table's histories")
    if smoothed_lm.hists != hists:
        missing = [h for h in hists if h not in smoothed_lm.index]
        if missing:
            rendered = ", ".join(table.vocab.render_history(h) for h in missing[:5])
            raise CoverageError(f"smoothed model missing {len(missing)} histories: {rendered}")
    return RegularizerBundle(
        order=empirical_lm.order,
        hists=hists,
        rows=_split_rows(empirical_lm.matrix, smoothed_lm.rows(hists), hists),
        weights=table.arrays.totals,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
    )


def _resolve(q, history: History) -> np.ndarray:
    if callable(q):
        return np.asarray(q(history), dtype=float)
    return np.asarray(q[history], dtype=float)


def regularizer_loss(
    bundle: RegularizerBundle,
    q: Mapping[History, np.ndarray] | Callable[[History], np.ndarray],
) -> float:
    """Weighted additive regularizer value

        sum_h w(h)/W * [g+ Z+(h) KL(p_plus || q(.|h)) + g- Z-(h) KL(p_minus || q(.|h))]

    Returns inf (no exception) when q vanishes where a difference part has mass.
    """
    total = 0.0
    W = bundle.total_weight
    for (h, dec), weight in zip(bundle.per_history.items(), bundle.weights.tolist()):
        if dec.z_plus == 0.0 and dec.z_minus == 0.0:
            continue
        qv = _resolve(q, h)
        term = 0.0
        if bundle.gamma_plus and dec.z_plus > 0:
            term += bundle.gamma_plus * dec.z_plus * kl_divergence(dec.p_plus, qv)
        if bundle.gamma_minus and dec.z_minus > 0:
            term += bundle.gamma_minus * dec.z_minus * kl_divergence(dec.p_minus, qv)
        if math.isinf(term):
            return math.inf
        total += weight / W * term
    return total


def exact_bracket(
    empirical: np.ndarray, smoothed: np.ndarray, q: np.ndarray
) -> tuple[float, float]:
    """Both sides of the q-invariance identity for one distribution triple.

    Returns (KL(p~ || q), KL(p || q) + Z+ KL(p_plus || q) - Z- KL(p_minus || q)).
    The difference of the two is independent of q; their q-dependent parts
    agree exactly by linearity of cross-entropy:

        H(p~, q) == H(p, q) + Z+ H(p_plus, q) - Z- H(p_minus, q).
    """
    dec = signed_decompose(empirical, smoothed)
    lhs = kl_divergence(np.asarray(smoothed, float), q)
    rhs = kl_divergence(np.asarray(empirical, float), q)
    if dec.z_plus > 0:
        rhs += dec.z_plus * kl_divergence(dec.p_plus, q)
    if dec.z_minus > 0:
        rhs -= dec.z_minus * kl_divergence(dec.p_minus, q)
    return lhs, rhs


def cross_entropy_sides(
    empirical: np.ndarray, smoothed: np.ndarray, q: np.ndarray
) -> tuple[float, float]:
    """(H(p~, q), H(p, q) + Z+ H(p_plus, q) - Z- H(p_minus, q)); equal exactly."""
    dec = signed_decompose(empirical, smoothed)
    lhs = cross_entropy(np.asarray(smoothed, float), q)
    rhs = cross_entropy(np.asarray(empirical, float), q)
    if dec.z_plus > 0:
        rhs += dec.z_plus * cross_entropy(dec.p_plus, q)
    if dec.z_minus > 0:
        rhs -= dec.z_minus * cross_entropy(dec.p_minus, q)
    return lhs, rhs


def bracket_constant(empirical: np.ndarray, smoothed: np.ndarray) -> float:
    """The q-independent value of KL(p~||q) minus the signed KL bracket:
    H(p) + Z+ H(p_plus) - Z- H(p_minus) - H(p~)."""
    dec = signed_decompose(empirical, smoothed)
    c = entropy(np.asarray(empirical, float)) - entropy(np.asarray(smoothed, float))
    if dec.z_plus > 0:
        c += dec.z_plus * entropy(dec.p_plus)
    if dec.z_minus > 0:
        c -= dec.z_minus * entropy(dec.p_minus)
    return c


def write_decomposition(bundle: RegularizerBundle, vocab, path: str) -> None:
    """TSV export: history, symbol, p_plus, p_minus, z_plus, z_minus per line."""
    r = bundle.rows
    write_cells(path, vocab, bundle.hists, {
        "p_plus": (r.p_plus, ".12g"), "p_minus": (r.p_minus, ".12g"),
        "z_plus": (r.z_plus[:, None], ".12g"), "z_minus": (r.z_minus[:, None], ".12g"),
    })
