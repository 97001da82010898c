"""Subsample draws and subsample least-squares estimates.

``draw`` samples row indices i.i.d. with replacement from a probability
vector by the alias method: one O(n) table build, then O(1) per index.
``alias_table_of`` keeps a vector's table on it, for callers that draw
many times from one vector; ``draw`` reads a kept table but keeps none
itself, since a kept vector would hold it, 16 bytes per row, for life.
``alias_table`` builds the table Vose's stack loop builds, up to rounding
at exact ties. ``draw`` skips the index checks of ``SubsampleDraw``,
which its alias cells meet by construction, and keeps the check that
drawn probabilities lie in (0, 1]; that changes no draw. ``subsample_estimate`` then fits either a
plain OLS on the drawn rows or a weighted LS with weights equal to the
reciprocal drawn probabilities, which is the correction that keeps
non-uniform schemes asymptotically unbiased for the full-sample estimator.

Draws are a pure function of (probabilities, r, seed): the same triple is
bit-identical no matter where or when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, EstimateResult, cached_on, ols_fit, one_of, row_indices, subset_size, weighted_ls_fit
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
        idx = row_indices(np.array(self.indices))
        dp = np.array(self.draw_probs, dtype=np.float64, order="C")
        if idx.shape != dp.shape:
            raise ValidationError("indices and draw_probs must be matching vectors")
        _set_draw_arrays(self, idx, dp)

    @property
    def r(self) -> int:
        return self.indices.shape[0]


def _set_draw_arrays(target: SubsampleDraw, idx: np.ndarray, dp: np.ndarray) -> None:
    """Check that ``dp`` lies in (0, 1], then freeze both arrays into ``target``."""
    if not (dp.min() > 0 and dp.max() <= 1):
        raise ValidationError("draw_probs must lie in (0, 1]")
    idx.flags.writeable = False
    dp.flags.writeable = False
    object.__setattr__(target, "indices", idx)
    object.__setattr__(target, "draw_probs", dp)


def alias_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table: (acceptance probabilities, alias targets).

    The table Vose's loop builds when it pops small (``n p_i < 1``) and
    large cells in descending index order, computed from prefix sums. The
    loop fills one large cell at a time: small cell k goes to the first
    large cell whose cumulative excess covers the deficit of the small
    cells before it, and a large cell is spent, and aliases the next large
    cell, once the cumulative deficit passes its cumulative excess. One
    ``searchsorted`` of the cumulative excesses in the cumulative deficits
    answers both: it counts the small cells each large cell covers, and a
    ``bincount`` plus ``cumsum`` of those counts gives every small cell's
    large cell. The prefix sums round differently from the loop's running
    subtraction, by O(n eps) in the acceptance probabilities.
    Zero-probability entries are valid; their cells always redirect, so
    those indices are never produced. A constant vector gets ``(1, i)``.
    """
    p = np.asarray(probs, dtype=np.float64)
    n = p.shape[0]
    if n and np.all(p == p[0]):
        return np.ones(n), np.arange(n, dtype=np.intp)
    scaled = p * n
    below = scaled < 1.0
    small = np.flatnonzero(below)[::-1]
    large = np.flatnonzero(~below)[::-1]
    deficit = np.cumsum(1.0 - scaled[small])
    excess = np.cumsum(scaled[large] - 1.0)

    # covered[j]: the number of small cells whose cumulative deficit large
    # cell j's cumulative excess covers. Both prefix sums never decrease, so
    # excess[j] < deficit[k - 1] exactly when covered[j] < k, and covered,
    # owner and the runs of cells they fill are monotone.
    covered = np.searchsorted(deficit, excess, side="right")
    # The large cells that leave some small cell uncovered; only they count.
    short = int(np.searchsorted(covered, small.size))
    # Small cell k goes to the first large cell whose excess covers the cells
    # before it: its index is the number of large cells covering fewer than k.
    owner = np.cumsum(np.bincount(covered[:short] + 1, minlength=small.size)[: small.size])
    filled = int(np.searchsorted(owner, large.size))
    # A small cell accepts its own mass, a large one 1 until it is spent.
    # Cells the loop leaves over are full up to rounding: accept 1, no alias.
    accept = np.minimum(scaled, 1.0)
    accept[small[filled:]] = 1.0
    alias = np.arange(n, dtype=np.intp)
    alias[small[:filled]] = large[owner[:filled]]

    # Large cell j is spent, and aliases cell j + 1, once the deficits pass
    # its excess; the last large cell never is: the loop stops when it runs out.
    spent = min(short, max(large.size - 1, 0))
    accept[large[:spent]] = 1.0 + excess[:spent] - deficit[covered[:spent]]
    alias[large[:spent]] = large[1 : spent + 1]
    return accept, alias


def alias_table_of(probs: ProbabilityVector) -> tuple[np.ndarray, np.ndarray]:
    """``alias_table(probs.probs)``, built at the first call and kept on ``probs`` for ``draw``."""
    return cached_on(probs, "_alias_table", lambda: alias_table(probs.probs))


def draw(probs: ProbabilityVector, r: int, seed: SeedLike) -> SubsampleDraw:
    """Draw ``r`` indices i.i.d. with replacement from ``probs``.

    Identical (probs, r, seed) triples yield bit-identical draws.
    """
    subset_size(r, 1)
    accept, alias = probs.__dict__.get("_alias_table") or alias_table(probs.probs)
    rng = derive_rng(seed)
    cells = rng.integers(0, probs.n, size=r)
    u = rng.random(r)
    indices = np.where(u < accept[cells], cells, alias[cells])
    out = object.__new__(SubsampleDraw)
    object.__setattr__(out, "seed", seed)
    _set_draw_arrays(out, indices, probs.probs[indices])
    return out


def subsample_estimate(data: Dataset, draw: SubsampleDraw, mode: str) -> EstimateResult:
    """Least-squares estimate from a subsample draw.

    ``plain`` fits ordinary least squares on the drawn rows; ``weighted``
    fits weighted least squares with weights 1/draw_probs. A rank-deficient
    subsample design falls back to the minimum-norm solution, flagged by
    ``rank < p`` on the result.
    """
    one_of(mode, MODES, "mode")
    sub = data.take_rows(draw.indices)
    if mode == "plain":
        return ols_fit(sub)
    return weighted_ls_fit(sub, 1.0 / draw.draw_probs)
