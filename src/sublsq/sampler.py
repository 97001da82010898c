"""Subsample draws and subsample least-squares estimates.

``draw`` samples row indices i.i.d. with replacement from a probability
vector using the alias method (one O(n) table build, O(1) per draw). The
table is built in vectorized numpy from prefix sums and one sorted search
of them, and it is the table Vose's stack loop builds, so draws equal
those of the loop. The one exception is exactly tied probabilities that
put a cell boundary within rounding error, where the two constructions
can split that boundary differently; either table has the law ``probs``.
A constant vector, such as RAND's, gets the table ``(1, i)`` at once,
the one the general path builds there. ``draw`` skips the shape, size
and sign checks of ``SubsampleDraw``, which its alias cells meet by
construction, and keeps the check that drawn probabilities lie in
(0, 1]. Neither shortcut changes a draw. ``draw`` builds the table and
hands it to ``_draw_from_table``, the one draw path; the bootstrap
benchmark builds each table once and draws every subsample size from it.
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


def draw(probs: ProbabilityVector, r: int, seed: SeedLike) -> SubsampleDraw:
    """Draw ``r`` indices i.i.d. with replacement from ``probs``.

    Identical (probs, r, seed) triples yield bit-identical draws.
    """
    if r < 1:
        raise ValidationError(f"subsample size must be at least 1, got {r}")
    return _draw_from_table(probs, alias_table(probs.probs), r, seed)


def _draw_from_table(
    probs: ProbabilityVector, table: tuple[np.ndarray, np.ndarray], r: int, seed: SeedLike
) -> SubsampleDraw:
    """``draw`` from the alias table of ``probs`` already built; r >= 1."""
    accept, alias = table
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
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    sub = data.take_rows(draw.indices)
    if mode == "plain":
        return ols_fit(sub)
    return weighted_ls_fit(sub, 1.0 / draw.draw_probs)
