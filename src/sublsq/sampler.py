"""Subsample draws and subsample least-squares estimates.

``draw`` samples row indices i.i.d. with replacement from a probability
vector by the alias method. ``alias_table`` builds the table Vose's stack
loop builds, up to rounding at exact ties, from two prefix sums; a draw of
r cells needs the prefix sums but only r of the table's n entries, which
``_alias_cells`` finds by binary searches of them. ``alias_table_of``
keeps a vector's table on it, for callers that draw many times from one
vector; ``draw`` reads a kept table but keeps none itself, since a kept
vector would hold it, 16 bytes per row, for life. ``draw`` builds its
record by ``core.trusted``, without the index checks of ``SubsampleDraw``,
which its alias cells meet by construction, and shares the constructor's
check that drawn probabilities lie in (0, 1]. ``subsample_estimate`` then
fits either a plain OLS on the drawn rows or a weighted LS with weights
equal to the reciprocal drawn probabilities, which is the correction that
keeps non-uniform schemes asymptotically unbiased for the full-sample
estimator.

Draws are a pure function of (probabilities, r, seed): the same triple is
bit-identical no matter where or when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset, EstimateResult, as_array, cached_on, of_type, ols_fit, one_of, row_indices, set_fields, subset_size,
    trusted, weighted_ls_fit
)
from .errors import ValidationError
from .probs import ProbabilityVector
from .rng import SeedLike, derive_rng

__all__ = ["SubsampleDraw", "alias_table", "draw", "subsample_estimate"]

MODES = ("plain", "weighted")
# Without a kept table, ``draw`` looks up its r cells alone, by binary
# searches of the prefix sums, where n is at least CELL_LOOKUP_MIN_ROWS and
# more than CELL_LOOKUP_MIN_ROWS_PER_DRAW times r; elsewhere the O(n)
# completion of the whole table costs less (see README, "Scale notes").
CELL_LOOKUP_MIN_ROWS = 4_096
CELL_LOOKUP_MIN_ROWS_PER_DRAW = 16


@dataclass(frozen=True, eq=False)
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
        idx = row_indices(self.indices)
        dp = as_array(self.draw_probs, "draw_probs")
        if idx.shape != dp.shape:
            raise ValidationError("indices and draw_probs must be matching vectors")
        set_fields(self, indices=idx, draw_probs=_drawn(dp))

    @property
    def r(self) -> int:
        return self.indices.shape[0]


def _drawn(dp: np.ndarray) -> np.ndarray:
    """``dp``, once it lies in (0, 1]; ValidationError otherwise."""
    if not (dp.min() > 0 and dp.max() <= 1):
        raise ValidationError("draw_probs must lie in (0, 1]")
    return dp


def _small_threshold(n: int) -> float:
    """The smallest double t with ``t * n >= 1.0`` in floating point.

    ``fl(c n)`` never decreases in c, so ``p < t`` holds exactly where
    ``p * n < 1.0``: a cell is small by the same test as Vose's loop, with
    no n-length product. ``1.0 / n`` is at most a few steps from t.
    """
    t = 1.0 / n
    while t * n < 1.0:
        t = math.nextafter(t, math.inf)
    while math.nextafter(t, 0.0) * n >= 1.0:
        t = math.nextafter(t, 0.0)
    return t


def _prefix_sums(p: np.ndarray):
    """The O(n) step that the whole alias table and the per-cell lookup share.

    Vose's loop pops small (``n p_i < 1``) and large cells in descending
    index order and fills one large cell at a time: small cell k goes to
    the first large cell whose cumulative excess covers the deficit of the
    small cells before it, and a large cell is spent, and aliases the next
    large cell, once the cumulative deficit passes its cumulative excess.
    So everything follows from ``deficit`` and ``excess``, the prefix sums
    in popping order of ``1 - n p_i`` over the small cells and of
    ``n p_i - 1`` over the large ones. ``small`` and ``large`` hold the
    cells in ascending order: popping position k is ``size - 1 - k``.
    Both prefix sums never decrease, so for a small cell k >= 1 and a large
    cell j, ``excess[j] < deficit[k - 1]`` exactly when ``covered[j] =
    searchsorted(deficit, excess[j], "right") < k``, and the cells below
    are prefixes in popping order:

    * ``short``: the large cells that leave some small cell uncovered;
    * ``filled``: the small cells the loop fills; the rest are left over,
      full up to rounding;
    * ``spent``: the large cells the loop spends; the last large cell
      never is, since the loop stops when it runs out.

    No n-length ``n p`` is formed: the small cells are those below
    ``_small_threshold(n)``, one byte a row, and each prefix sum scales its
    own gather of p by n in place, the same product bit for bit. The
    allocations come to 17 bytes a row: the mask, the two index vectors and
    the two sums.
    """
    n = p.shape[0]
    mask = p < _small_threshold(n)
    small = np.flatnonzero(mask)
    large = np.flatnonzero(np.logical_not(mask, out=mask))
    # in place, so each prefix sum takes one allocation, not three
    deficit = p[small[::-1]]
    deficit *= n
    np.cumsum(np.subtract(1.0, deficit, out=deficit), out=deficit)
    excess = p[large[::-1]]
    excess *= n
    np.cumsum(np.subtract(excess, 1.0, out=excess), out=excess)
    short = int(np.searchsorted(excess, deficit[-1])) if small.size else 0
    if short < large.size:
        filled = small.size
    elif large.size:
        # every large cell is spent but the last, which covers the small
        # cells up to its cumulative excess and the one after them
        filled = int(np.searchsorted(deficit, excess[-1], side="right")) + 1
    else:
        filled = 0
    spent = min(short, max(large.size - 1, 0))
    return small, large, deficit, excess, short, filled, spent


def _is_constant(p: np.ndarray) -> bool:
    return bool(p.shape[0]) and bool(np.all(p == p[0]))


def alias_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table: (acceptance probabilities, alias targets).

    The table Vose's loop builds, completed from ``_prefix_sums``: one
    ``searchsorted`` of the cumulative excesses in the cumulative deficits
    counts the small cells each large cell covers, and a ``bincount`` plus
    ``cumsum`` of those counts gives every small cell's large cell. The
    prefix sums round differently from the loop's running subtraction, by
    O(n eps) in the acceptance probabilities. Zero-probability entries are
    valid; their cells always redirect, so those indices are never
    produced. A constant vector gets ``(1, i)``.
    """
    p = np.asarray(probs, dtype=np.float64)
    n = p.shape[0]
    if _is_constant(p):
        return np.ones(n), np.arange(n, dtype=np.intp)
    small, large, deficit, excess, short, filled, spent = _prefix_sums(p)
    small, large = small[::-1], large[::-1]

    covered = np.searchsorted(deficit, excess[:short], side="right")
    # Small cell k goes to the first large cell whose excess covers the cells
    # before it: its index is the number of large cells covering fewer than k.
    owner = np.cumsum(np.bincount(covered + 1, minlength=small.size)[: small.size])
    # A small cell accepts its own mass, a large one 1 until it is spent.
    # Cells the loop leaves over are full up to rounding: accept 1, no alias.
    accept = np.multiply(p, n)
    np.minimum(accept, 1.0, out=accept)
    accept[small[filled:]] = 1.0
    alias = np.arange(n, dtype=np.intp)
    alias[small[:filled]] = large[owner[:filled]]

    # Large cell j is spent, and aliases cell j + 1, once the deficits pass its excess.
    accept[large[:spent]] = 1.0 + excess[:spent] - deficit[covered[:spent]]
    alias[large[:spent]] = large[1 : spent + 1]
    return accept, alias


def _alias_cells(probs: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``alias_table(probs)`` at ``cells`` alone: ``(accept[cells], alias[cells])``.

    The same arithmetic on the same prefix sums, bit for bit, but with two
    binary searches per distinct cell in place of the O(n) completion of
    the table. A small cell k in popping order goes to large cell
    ``owner = min(short, searchsorted(excess, deficit[k - 1]))`` (0 for
    k = 0), and a spent large cell j takes ``covered[j]`` from its own
    search. A constant vector gets ``(1, cells)``.
    """
    p = np.asarray(probs, dtype=np.float64)
    if _is_constant(p):
        return np.ones(cells.shape[0]), cells
    small, large, deficit, excess, short, filled, spent = _prefix_sums(p)
    # binary searches for sorted keys reuse the last bound: about 3x faster
    cells, inverse = np.unique(cells, return_inverse=True)
    accept = np.ones(cells.shape[0])
    alias = cells.copy()
    scaled = p[cells] * p.shape[0]
    is_small = scaled < 1.0

    at = np.flatnonzero(is_small)
    k = small.size - 1 - np.searchsorted(small, cells[at])
    at, k = at[k < filled], k[k < filled]
    owner = np.minimum(short, np.searchsorted(excess, deficit[k - 1]))
    owner[k == 0] = 0
    accept[at] = scaled[at]
    alias[at] = large[large.size - 1 - owner]

    at = np.flatnonzero(~is_small)
    j = large.size - 1 - np.searchsorted(large, cells[at])
    at, j = at[j < spent], j[j < spent]
    accept[at] = 1.0 + excess[j] - deficit[np.searchsorted(deficit, excess[j], side="right")]
    alias[at] = large[large.size - 2 - j]
    return accept[inverse], alias[inverse]


def alias_table_of(probs: ProbabilityVector) -> tuple[np.ndarray, np.ndarray]:
    """``alias_table(probs.probs)``, built at the first call and kept on ``probs`` for ``draw``."""
    return cached_on(probs, "_alias_table", lambda: alias_table(probs.probs))


def draw(probs: ProbabilityVector, r: int, seed: SeedLike) -> SubsampleDraw:
    """Draw ``r`` indices i.i.d. with replacement from ``probs``.

    Reads a kept table; without one, looks up the drawn cells alone where
    n is large against r (``CELL_LOOKUP_MIN_ROWS``,
    ``CELL_LOOKUP_MIN_ROWS_PER_DRAW``), and builds the whole table
    elsewhere. Both give the same entries, so the draw is the same.
    Identical (probs, r, seed) triples yield bit-identical draws.
    """
    r = subset_size(r, 1)
    n = of_type(probs, ProbabilityVector, "probs").n
    rng = derive_rng(seed)
    cells = rng.integers(0, n, size=r)
    u = rng.random(r)
    table = probs.__dict__.get("_alias_table")
    if table is None and n >= CELL_LOOKUP_MIN_ROWS and n > CELL_LOOKUP_MIN_ROWS_PER_DRAW * r:
        accept, alias = _alias_cells(probs.probs, cells)
    else:
        accept, alias = table or alias_table(probs.probs)
        accept, alias = accept[cells], alias[cells]
    indices = np.where(u < accept, cells, alias)
    return trusted(SubsampleDraw, indices=indices, draw_probs=_drawn(probs.probs[indices]), seed=seed)


def subsample_estimate(data: Dataset, draw: SubsampleDraw, mode: str) -> EstimateResult:
    """Least-squares estimate from a subsample draw.

    ``plain`` fits ordinary least squares on the drawn rows; ``weighted``
    fits weighted least squares with weights 1/draw_probs. A rank-deficient
    subsample design falls back to the minimum-norm solution, flagged by
    ``rank < p`` on the result.
    """
    one_of(mode, MODES, "mode")
    sub = of_type(data, Dataset, "data").take_rows(of_type(draw, SubsampleDraw, "draw").indices)
    if mode == "plain":
        return ols_fit(sub)
    return weighted_ls_fit(sub, 1.0 / draw.draw_probs)
