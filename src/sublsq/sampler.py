"""Subsample draws and subsample least-squares estimates.

``draw`` samples row indices i.i.d. with replacement from a probability
vector using the alias method (one O(n) table build, O(1) per draw). The
table is built from prefix sums in vectorized numpy, and it is the table
Vose's stack loop builds, so draws equal those of the loop. The one
exception is exactly tied probabilities that put a cell boundary within
rounding error, where the two constructions can split that boundary
differently; either table has the law ``probs``.
``subsample_estimate`` then fits either a plain OLS on the drawn rows or
a weighted LS with weights equal to the reciprocal drawn probabilities,
which is the correction that keeps non-uniform schemes asymptotically
unbiased for the full-sample estimator.

Draws are a pure function of (probabilities, r, seed): the same triple is
bit-identical no matter where or when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, EstimateResult, ols_fit, weighted_ls_fit
from .errors import ValidationError
from .probs import ProbabilityVector
from .rng import SeedLike, derive_rng

__all__ = ["SubsampleDraw", "alias_table", "draw", "subsample_estimate"]

MODES = ("plain", "weighted")


@dataclass(frozen=True)
class SubsampleDraw:
    """An ordered with-replacement draw of row indices.

    ``draw_probs[k]`` is the sampling probability of ``indices[k]`` under
    the vector the draw came from; it is what the weighted estimator
    inverts.
    """

    indices: np.ndarray
    draw_probs: np.ndarray
    seed: SeedLike

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.intp)
        dp = np.ascontiguousarray(self.draw_probs, dtype=np.float64)
        if idx.ndim != 1 or dp.ndim != 1 or idx.shape != dp.shape:
            raise ValidationError("indices and draw_probs must be matching vectors")
        if idx.size < 1:
            raise ValidationError("a draw must contain at least one index")
        if np.any(idx < 0):
            raise ValidationError("indices must be nonnegative")
        if np.any(dp <= 0) or np.any(dp > 1):
            raise ValidationError("draw_probs must lie in (0, 1]")
        idx.flags.writeable = False
        dp.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "draw_probs", dp)

    @property
    def r(self) -> int:
        return self.indices.shape[0]


def alias_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table: (acceptance probabilities, alias targets).

    The table Vose's loop builds when it pops small (``n p_i < 1``) and
    large cells in descending index order, computed from prefix sums. The
    loop fills one large cell at a time: small cell k goes to the first
    large cell whose cumulative excess covers the deficit of the small
    cells before it, and a large cell is spent, and aliases the next large
    cell, once the cumulative deficit passes its cumulative excess. The
    prefix sums round differently from the loop's running subtraction, by
    O(n eps) in the acceptance probabilities. Zero-probability entries are
    valid; their cells always redirect, so those indices are never produced.
    """
    p = np.asarray(probs, dtype=np.float64)
    n = p.shape[0]
    scaled = p * n
    # Cells the loop leaves over are full up to rounding: accept 1, no alias.
    accept = np.ones(n)
    alias = np.arange(n, dtype=np.intp)
    below = scaled < 1.0
    small = np.flatnonzero(below)[::-1]
    large = np.flatnonzero(~below)[::-1]
    deficit = np.cumsum(1.0 - scaled[small])
    excess = np.cumsum(scaled[large] - 1.0)

    owner = np.searchsorted(excess, np.concatenate(([0.0], deficit))[:-1], side="left")
    filled = owner < large.size
    cells = small[filled]
    accept[cells] = scaled[cells]
    alias[cells] = large[owner[filled]]

    # The last large cell is never spent: the loop stops when it runs out.
    spent_by = np.searchsorted(deficit, excess[:-1], side="right")
    spent = np.flatnonzero(spent_by < small.size)
    accept[large[spent]] = 1.0 + excess[spent] - deficit[spent_by[spent]]
    alias[large[spent]] = large[spent + 1]
    return accept, alias


def draw(probs: ProbabilityVector, r: int, seed: SeedLike) -> SubsampleDraw:
    """Draw ``r`` indices i.i.d. with replacement from ``probs``.

    Identical (probs, r, seed) triples yield bit-identical draws.
    """
    if r < 1:
        raise ValidationError(f"subsample size must be at least 1, got {r}")
    accept, alias = alias_table(probs.probs)
    rng = derive_rng(seed)
    cells = rng.integers(0, probs.n, size=r)
    u = rng.random(r)
    indices = np.where(u < accept[cells], cells, alias[cells])
    return SubsampleDraw(
        indices=indices,
        draw_probs=probs.probs[indices],
        seed=seed,
    )


def subsample_estimate(data: Dataset, draw: SubsampleDraw, mode: str) -> EstimateResult:
    """Least-squares estimate from a subsample draw.

    ``plain`` fits ordinary least squares on the drawn rows; ``weighted``
    fits weighted least squares with weights 1/draw_probs. A rank-deficient
    subsample design falls back to the minimum-norm solution, flagged by
    ``rank < p`` on the result.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    if int(draw.indices.max()) >= data.n:
        raise ValidationError("draw indices out of range for this dataset")
    sub = data.take_rows(draw.indices)
    if mode == "plain":
        return ols_fit(sub)
    return weighted_ls_fit(sub, 1.0 / draw.draw_probs)
