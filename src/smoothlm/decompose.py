"""Signed decomposition of a smoothed distribution against an empirical one.

Any smoothed conditional p~ relates to its empirical counterpart p through

    p~ = p + Z+ * p_plus - Z- * p_minus,

where p_plus carries the added mass (normalized), p_minus the removed mass,
and Z+ == Z- is their common scale (the total-variation distance between p
and p~).  `_split_difference`, the one split, works on the cells where p
may be nonzero, since q - p is q itself elsewhere; `signed_decompose`, its
entry point on raw arrays, checks both inputs first.  Aggregating one
decomposition per observed history, weighted by that history's occurrence
count, yields an additive regularizer that can be attached to any
differentiable conditional model.  `build_regularizer` takes an empirical
and a smoothed LM keyed by one count table and splits them on its grams, in
O(grams).  A RegularizerBundle keeps the count table, the smoothed LM and
that split; the dense SignedDecomposition of its rows, whose matrices follow
the table's sorted histories, is built on first read, and the table's row
totals are the weights.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import CountTable, History, write_cells
from .ngram import ConditionalLM, check_distributions

RECON_ATOL = 1e-12


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


def signed_decompose(empirical, smoothed) -> SignedDecomposition:
    """Split smoothed - empirical into normalized positive and negative
    parts along the last axis, for a pair of vectors or a pair of
    (rows x emissions) matrices: the public entry point on raw arrays,
    which checks that both inputs are distributions, row by row, and then
    splits them with `_split_difference` on the empirical input's nonzero
    cells."""
    p, q = _pair(empirical, smoothed)
    vector, dim = p.ndim == 1, p.shape[-1]
    p, q = p.reshape(-1, dim), q.reshape(-1, dim)
    check_distributions(p, name="empirical")
    check_distributions(q, name="smoothed")
    support = np.flatnonzero(p)
    pos = q + 0.0
    pos.reshape(-1)[support] = 0.0
    row = support // dim
    dec = _dense_split(pos, support, row, *_split_difference(
        p.reshape(-1)[support], q.reshape(-1)[support], row, pos.sum(axis=1)))
    if vector:
        return SignedDecomposition(dec.p_plus[0], dec.p_minus[0], float(dec.z_plus[0]),
                                   float(dec.z_minus[0]))
    return dec


def _pair(empirical, smoothed) -> tuple[np.ndarray, np.ndarray]:
    """The two inputs as float arrays of one shape, vectors or matrices."""
    p = np.asarray(empirical, dtype=float)
    q = np.asarray(smoothed, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    if p.ndim not in (1, 2):
        raise ValueError(f"need a vector or a matrix, got shape {p.shape}")
    return p, q


def _split_difference(p: np.ndarray, q: np.ndarray, row: np.ndarray, rest: np.ndarray) -> tuple:
    """The split of q - p over the cells where p may be nonzero, whose
    values p and q hold, `row` naming the row of each: q - p on those
    cells, and Z+ and Z- per row, the sums of its positive and negative
    parts.  Off the cells p is 0, so q - p is q itself, nonnegative, and
    `rest`, each row's mass of q there, adds to Z+ only.  The caller has
    checked both inputs' rows to be distributions."""
    diff = q - p
    n = len(rest)
    return (diff, np.bincount(row, np.maximum(diff, 0.0), n) + rest,
            np.bincount(row, np.maximum(np.negative(diff), 0.0), n))


def _dense_split(pos: np.ndarray, support: np.ndarray, row: np.ndarray, diff: np.ndarray,
                 z_plus: np.ndarray, z_minus: np.ndarray) -> SignedDecomposition:
    """The dense SignedDecomposition of a split on the `support` cells:
    `pos`, a fresh matrix of the smoothed rows plus 0.0 (which makes a -0.0
    the +0.0 that max(q - 0.0, 0.0) gives), takes the positive part of
    `diff` on them, and p_minus holds its negative part there and zeros
    elsewhere, each row divided by its Z (a part with Z zero is +0.0
    throughout)."""
    pos.reshape(-1)[support] = np.maximum(diff, 0.0)
    neg = np.zeros(pos.shape)
    neg.reshape(-1)[support] = np.maximum(np.negative(diff), 0.0)
    scales = []
    for m, z in ((pos, z_plus), (neg, z_minus)):
        zero = z == 0.0
        m[zero] = 0.0
        scales.append(np.where(zero, 1.0, z))
    pos /= scales[0][:, None]
    # p_minus is zero off the support
    neg.reshape(-1)[support] /= scales[1][row]
    return SignedDecomposition(pos, neg, z_plus, z_minus)


@dataclass(frozen=True, eq=False)
class RegularizerBundle:
    """Signed decompositions of a count table's histories, whose occurrence
    counts, the table's row totals, are their weights.

    `keys` is the count table itself and `lm` the smoothed LM, keyed by it.
    The split lives on the table's grams: `diff` holds smoothed - empirical
    there, and `z_plus` and `z_minus` the sums of its positive and negative
    parts per history, where Z+ also counts the smoothed mass off the grams
    (`lm.off_mass`).  `rows`, the dense SignedDecomposition that training
    and `write_decomposition` read, has row i of its matrices belong to the
    table's history i, of weight keys.totals[i]; it is built on first read
    and shared by the copies `with_gammas` makes, as a grid's cells do (a
    copy `dataclasses.replace` makes builds its own).  `per_history`,
    mapping each history to a SignedDecomposition of views into `rows`, is
    built on first read for `perfbench/` and the tests."""

    keys: CountTable = field(repr=False)
    lm: ConditionalLM = field(repr=False)
    diff: np.ndarray = field(repr=False)
    z_plus: np.ndarray = field(repr=False)
    z_minus: np.ndarray = field(repr=False)
    gamma_plus: float
    gamma_minus: float
    _views: dict = field(default_factory=dict, init=False, repr=False)

    def with_gammas(self, gamma_plus: float, gamma_minus: float) -> RegularizerBundle:
        """A copy with other gammas, which shares this bundle's dense rows."""
        copy = dataclasses.replace(self, gamma_plus=gamma_plus, gamma_minus=gamma_minus)
        object.__setattr__(copy, "_views", self._views)
        return copy

    @property
    def rows(self) -> SignedDecomposition:
        if "rows" not in self._views:
            t = self.keys
            # a copy of the LM's rows: of its dense view when a reader built
            # it, else fresh rows, so that the bundle does not keep both
            if "matrix" in vars(self.lm):
                pos = self.lm.matrix + 0.0
            else:
                pos = self.lm.fresh_rows()
                pos += 0.0
            self._views["rows"] = _dense_split(pos, t.hist * t.vocab.out_dim + t.out, t.hist,
                                               self.diff, self.z_plus, self.z_minus)
        return self._views["rows"]

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
    """Decompose smoothed against empirical on every history of `table`, in
    O(grams).  Both models must be keyed by the table itself: the empirical
    one is `empirical_conditional(table)`, nonzero on the table's gram cells
    only, where the split happens, and the smoothed one a smoother's LM of
    the table.  The gammas must be finite and nonnegative.

    Each LM is checked to hold distributions once: an LM built with
    `validate=True` (`lm.checked`) has checked its own rows, and this
    function checks an LM built unchecked."""
    for name, gamma in (("gamma_plus", gamma_plus), ("gamma_minus", gamma_minus)):
        if not math.isfinite(gamma):
            raise ValueError(f"{name} must be finite, got {gamma!r}")
    if gamma_plus < 0 or gamma_minus < 0:
        raise ValueError("gamma weights must be nonnegative")
    for name, lm in (("empirical", empirical_lm), ("smoothed", smoothed_lm)):
        if lm.keys is not table:
            raise ValueError(f"the {name} model's rows are not the count table's histories")
        if not lm.checked:
            lm.check(name)
    return RegularizerBundle(
        table, smoothed_lm,
        *_split_difference(empirical_lm.gram_cells, smoothed_lm.gram_cells, table.hist,
                           smoothed_lm.off_mass),
        gamma_plus=gamma_plus, gamma_minus=gamma_minus,
    )


def write_decomposition(bundle: RegularizerBundle, path: str) -> None:
    """TSV export: history, symbol, p_plus, p_minus, z_plus, z_minus per
    line, in the symbols of the bundle's count table."""
    r = bundle.rows
    write_cells(path, bundle.keys.vocab, bundle.keys.ids.tolist(), {
        "p_plus": (r.p_plus, ".12g"), "p_minus": (r.p_minus, ".12g"),
        "z_plus": (r.z_plus[:, None], ".12g"), "z_minus": (r.z_minus[:, None], ".12g"),
    })
