"""Signed decomposition of a smoothed distribution against an empirical one.

Any smoothed conditional p~ relates to its empirical counterpart p through

    p~ = p + Z+ * p_plus - Z- * p_minus,

where p_plus carries the added mass (normalized), p_minus the removed mass,
and Z+ == Z- is their common scale (the total-variation distance between p
and p~).  Aggregating one decomposition per observed history, weighted by
that history's occurrence count, yields an additive regularizer that can be
attached to any differentiable conditional model.  `build_regularizer`, the
one split, takes an empirical and a smoothed LM keyed by one count table and
splits them on its grams, in O(grams): off the grams p is 0, so p~ - p is
p~ itself there, and its mass adds to Z+ only.  A RegularizerBundle keeps
the count table, the smoothed LM and that split, and the table's row totals
are the weights; the dense SignedDecomposition of its rows, whose matrices
follow the table's sorted histories, is built on first read, for
`write_decomposition` only.  The identity checks in `verify` split a pair
of vectors by their own code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import CountTable, History, write_cells
from .ngram import ConditionalLM

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


@dataclass(frozen=True, eq=False)
class RegularizerBundle:
    """Signed decompositions of a count table's histories, whose occurrence
    counts, the table's row totals, are their weights.

    `keys` is the count table itself and `lm` the smoothed LM, keyed by it.
    The split lives on the table's grams: `diff` holds smoothed - empirical
    there, and `z_plus` and `z_minus` the sums of its positive and negative
    parts per history, where Z+ also counts the smoothed mass off the grams
    (`lm.off_mass`).  Training reads these, `lm` and the gammas; a grid's
    cells are `dataclasses.replace` copies, which share `lm` and `derived`,
    a dict where training keeps what it works out of the split alone, once
    for every copy.  `rows`, the dense SignedDecomposition that
    `write_decomposition` reads, has row i of its matrices belong to the
    table's history i, of weight keys.totals[i].  It, and `per_history`,
    mapping each history to a
    SignedDecomposition of views into `rows` for `perfbench/` and the
    tests, are built on first read."""

    keys: CountTable = field(repr=False)
    lm: ConditionalLM = field(repr=False)
    diff: np.ndarray = field(repr=False)
    z_plus: np.ndarray = field(repr=False)
    z_minus: np.ndarray = field(repr=False)
    gamma_plus: float
    gamma_minus: float
    derived: dict = field(default_factory=dict, repr=False)

    @cached_property
    def rows(self) -> SignedDecomposition:
        """The dense split: p_plus is the smoothed rows plus 0.0 (which
        makes a -0.0 the +0.0 that max(q - 0.0, 0.0) gives) with the
        positive part of `diff` on the grams, and p_minus the negative part
        of `diff` on the grams and zeros elsewhere, each row divided by its
        Z (a part with Z zero is +0.0 throughout)."""
        t = self.keys
        cells = t.hist * t.vocab.out_dim + t.out
        pos = self.lm.fresh_rows()
        pos += 0.0
        pos.reshape(-1)[cells] = np.maximum(self.diff, 0.0)
        neg = np.zeros(pos.shape)
        neg.reshape(-1)[cells] = np.maximum(np.negative(self.diff), 0.0)
        scales = []
        for m, z in ((pos, self.z_plus), (neg, self.z_minus)):
            zero = z == 0.0
            m[zero] = 0.0
            scales.append(np.where(zero, 1.0, z))
        pos /= scales[0][:, None]
        # p_minus is zero off the grams
        neg.reshape(-1)[cells] /= scales[1][t.hist]
        return SignedDecomposition(pos, neg, self.z_plus, self.z_minus)

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
    diff = smoothed_lm.gram_cells - empirical_lm.gram_cells
    rest = smoothed_lm.off_mass
    return RegularizerBundle(
        table, smoothed_lm, diff,
        np.bincount(table.hist, np.maximum(diff, 0.0), len(rest)) + rest,
        np.bincount(table.hist, np.maximum(np.negative(diff), 0.0), len(rest)),
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
