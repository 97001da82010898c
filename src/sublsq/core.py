"""Dense least-squares kernels: OLS, weighted LS, and leverage scores.

Everything else in the package builds on these three operations. Fits are
computed from a rank-revealing SVD solve and always return the minimum-norm
solution, so rank-deficient designs degrade gracefully instead of raising;
a fit whose coefficients or residual sum of squares overflow raises
NumericalError. Each ``Dataset`` is factored once: ``dataset_svd`` keeps
the first ``thin_svd`` of its design on the object for every later
consumer, so an n x p ``U`` stays resident while the ``Dataset`` lives;
``full_rank_svd`` reads it for consumers that need a full-column-rank
design, and raises RankError otherwise. All functions are pure and
thread-safe; returned arrays are frozen.

``Dataset`` checks its arrays once, at construction. ``take_rows`` checks
only the row indices (``row_indices``): rows of checked arrays need no
second check, so it freezes their fancy-indexed copies, bit for bit
``Dataset(design[idx], response[idx])``, and they have no factors yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistributionError, NumericalError, RankError, ValidationError

__all__ = [
    "Dataset",
    "EstimateResult",
    "ols_fit",
    "weighted_ls_fit",
    "leverage_scores",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def cached_on(obj, name: str, build):
    """``obj.__dict__[name]``, set to ``build()`` at the first call; a race builds it twice."""
    if name not in obj.__dict__:
        obj.__dict__[name] = build()
    return obj.__dict__[name]


def row_indices(indices, n: float = np.inf, distinct: bool = False) -> np.ndarray:
    """A nonempty vector of integers (not floats or bools) in [0, n), distinct
    where asked, as contiguous intp; ValidationError otherwise."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu":
        raise ValidationError("row indices must be a nonempty vector of integers")
    idx = np.ascontiguousarray(idx, dtype=np.intp)  # uint64 beyond intp wraps negative
    if idx.min() < 0 or idx.max() >= n:
        raise ValidationError(f"row indices must lie in [0, {n})")
    if distinct and np.unique(idx).size != idx.size:
        raise ValidationError("row indices must be distinct")
    return idx


def _as_finite_array(values, name: str, ndim: int) -> np.ndarray:
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return a


@dataclass(frozen=True)
class Dataset:
    """An n x p design matrix paired with an n-vector of responses.

    Rows are observations, columns are predictors. Entries must be finite.
    No intercept column is added implicitly; include one explicitly if the
    model calls for it.
    """

    design: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        design = _as_finite_array(self.design, "design", ndim=2)
        response = _as_finite_array(self.response, "response", ndim=1)
        n, p = design.shape
        if n < 1 or p < 1:
            raise ValidationError(f"design must be at least 1x1, got {n}x{p}")
        if response.shape[0] != n:
            raise ValidationError(
                f"response length {response.shape[0]} does not match {n} design rows"
            )
        object.__setattr__(self, "design", _freeze(design))
        object.__setattr__(self, "response", _freeze(response))

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]

    def take_rows(self, indices) -> "Dataset":
        """Dataset restricted to the given rows (repeats allowed): a nonempty
        vector of integers in [0, n), ValidationError otherwise."""
        idx = row_indices(indices, self.n)
        sub = object.__new__(Dataset)
        object.__setattr__(sub, "design", _freeze(self.design[idx]))
        object.__setattr__(sub, "response", _freeze(self.response[idx]))
        return sub


@dataclass(frozen=True)
class EstimateResult:
    """A fitted coefficient vector with fit diagnostics.

    ``rank`` is the effective rank of the design actually used; a value
    below p flags that the fit fell back to the minimum-norm solution.
    """

    beta: np.ndarray
    rank: int
    residual_ss: float

    def __post_init__(self):
        beta = _as_finite_array(self.beta, "beta", ndim=1)
        object.__setattr__(self, "beta", _freeze(beta))
        if self.residual_ss < 0:
            raise ValidationError("residual_ss must be nonnegative")


def _rank_tolerance(s: np.ndarray, n: int, p: int) -> float:
    # Standard numerical-rank convention: cutoff relative to largest
    # singular value, scaled by the bigger matrix dimension.
    if s.size == 0:
        return 0.0
    return max(n, p) * np.finfo(np.float64).eps * float(s[0])


# Below these sizes LAPACK's SVD is faster than the Cholesky QR path; the
# measured crossover is in README "Scale notes".
CHOLQR_MIN_ASPECT = 4
CHOLQR_MIN_ENTRIES = 16_384
# Beyond this condition number one Cholesky pass leaves Q too far from
# orthogonal for the second pass to repair reliably.
CHOLQR_MAX_COND = 1e5


def _cholesky_qr2_svd(design: np.ndarray):
    """Thin SVD (U, s, Vt) by CholeskyQR2, or None where that path declines.

    CholeskyQR2 (Fukaya, Nakatsukasa, Yanagisawa and Yamamoto, 2014):
    ``R1 = chol(X'X)``, ``Q1 = X R1^{-1}``, ``R2 = chol(Q1'Q1)``, then the
    SVD of the p x p matrix ``R2 R1``; ``Q1 R2^{-1}`` is orthonormal to
    machine precision. The path declines designs below the size gate, a
    Gram matrix that overflowed, a Cholesky that fails (as on a Gram matrix
    that underflowed to singular), and cond(R1) above ``CHOLQR_MAX_COND``.
    """
    n, p = design.shape
    if n < CHOLQR_MIN_ASPECT * p or n * p < CHOLQR_MIN_ENTRIES:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        gram = design.T @ design
    if not np.all(np.isfinite(gram)):
        return None
    try:
        r1 = np.linalg.cholesky(gram).T
        if np.linalg.cond(r1) > CHOLQR_MAX_COND:
            return None
        q1 = design @ np.linalg.inv(r1)
        r2 = np.linalg.cholesky(q1.T @ q1).T
    except np.linalg.LinAlgError:
        return None
    ur, s, Vt = np.linalg.svd(r2 @ r1)
    # Q1 (R2^{-1} Ur) spares one more pass over the rows than (Q1 R2^{-1}) Ur.
    return q1 @ (np.linalg.inv(r2) @ ur), s, Vt


def thin_svd(design: np.ndarray):
    """Thin SVD plus numerical rank: returns (U, s, Vt, rank).

    Tall, well-conditioned designs are factored by CholeskyQR2, in BLAS-3
    products over the rows; every other design goes to LAPACK's SVD.
    """
    svd = _cholesky_qr2_svd(design)
    U, s, Vt = svd if svd is not None else np.linalg.svd(design, full_matrices=False)
    n, p = design.shape
    rank = int(np.count_nonzero(s > _rank_tolerance(s, n, p)))
    return _freeze(U), _freeze(s), _freeze(Vt), rank


def dataset_svd(data: Dataset):
    """``thin_svd(data.design)``, computed at the first call, then kept on ``data``."""
    return cached_on(data, "_thin_svd", lambda: thin_svd(data.design))


def full_rank_svd(data: Dataset, what: str):
    """Thin SVD (U, s, Vt) of a full-column-rank design; RankError naming ``what`` otherwise."""
    U, s, Vt, rank = dataset_svd(data)
    if rank < data.p:
        raise RankError(f"{what} requires a full-column-rank design (rank {rank} < p={data.p})")
    return U, s, Vt


def _fit(data: Dataset, svd, rhs: np.ndarray, weights=None) -> EstimateResult:
    """Minimum-norm least-squares fit of ``rhs`` on the design whose ``thin_svd`` is ``svd``.

    That design and ``rhs`` are those of ``data``, scaled by the square
    roots of ``weights`` where given; ``rank`` is the numerical rank used,
    and ``residual_ss`` the (weighted) residual sum of squares on ``data``.
    NumericalError where the coefficients or that sum are not finite;
    numpy's overflow warnings are silenced, since that raises.
    """
    U, s, Vt, rank = svd
    with np.errstate(over="ignore", invalid="ignore"):
        # rank 0 (an all-zero design) gives the zero vector
        beta = Vt[:rank].T @ ((U[:, :rank].T @ rhs) / s[:rank])
        if not np.all(np.isfinite(beta)):
            raise NumericalError("the least-squares coefficients overflow at this scale")
        resid = data.response - data.design @ beta
        rss = float(resid @ resid if weights is None else weights @ (resid * resid))
    if not np.isfinite(rss):
        raise NumericalError("the residual sum of squares overflows at this scale")
    return EstimateResult(beta=beta, rank=rank, residual_ss=rss)


def ols_fit(data: Dataset) -> EstimateResult:
    """Ordinary least squares.

    Returns the minimum-norm solution of ``min ||y - X b||^2``. For a
    full-column-rank design this equals the usual normal-equations
    solution; on singular designs the pseudo-inverse solution is used.
    Raises NumericalError where the coefficients or the residual sum of
    squares overflow.
    """
    return _fit(data, dataset_svd(data), data.response)


def weighted_ls_fit(data: Dataset, weights) -> EstimateResult:
    """Weighted least squares: ``min (y - X b)' diag(w) (y - X b)``.

    Realized by rescaling each row with the square root of its weight and
    solving the resulting ordinary problem, which is numerically stabler
    than forming the weight matrix. All weights must be strictly positive
    and finite. ``residual_ss`` is the minimized weighted objective;
    NumericalError where it or the coefficients overflow.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.shape[0] != data.n:
        raise ValidationError(f"weights length {w.shape[0]} does not match n={data.n}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    if np.any(w <= 0):
        raise ValidationError("weights must be strictly positive")
    sw = np.sqrt(w)
    return _fit(data, thin_svd(data.design * sw[:, None]), data.response * sw, w)


def leverage_scores(data: Dataset) -> np.ndarray:
    """Leverage score of every row, as a frozen vector: the squared row
    norms of the orthonormal column-space basis from the thin SVD.

    Scores lie in [0, 1] and sum to the design rank. For a full-rank
    design this equals ``x_i' (X'X)^{-1} x_i`` and the scores sum to p.
    """
    U, _, _, rank = dataset_svd(data)
    scores = _squared_row_norms(U[:, :rank])
    # Projection diagonals live in [0, 1]; shave off rounding overshoot.
    np.clip(scores, 0.0, 1.0, out=scores)
    return _freeze(scores)


def _squared_row_norms(U: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", U, U)


def full_rank_leverage(data: Dataset, what: str) -> np.ndarray:
    """Leverage of every row, unclipped, of a full-column-rank design with no
    all-zero row; RankError or DegenerateDistributionError naming ``what`` otherwise."""
    U, s, _ = full_rank_svd(data, what)
    lev = _squared_row_norms(U)
    reject_zero_rows(data.design, lev, s, what)
    return lev


def reject_zero_rows(design: np.ndarray, lev: np.ndarray, s: np.ndarray, what: str) -> None:
    """DegenerateDistributionError naming ``what`` if ``design`` has an all-zero row.

    ``lev`` is each row's leverage, or less, from the thin SVD of the
    full-rank ``design`` with singular values ``s``. Only rows at or below
    ``(n p eps cond)^2`` are scanned: a zero row's leverage is 0, except
    for rounding noise where LAPACK pivots on it (one of the first p rows),
    measured up to 7e-9 at cond 1e12 and always below 1/150 of the bound.
    """
    n, p = design.shape
    bound = (n * p * np.finfo(np.float64).eps * float(s[0] / s[-1])) ** 2
    suspects = np.flatnonzero(lev <= bound)
    if suspects.size and not design[suspects].any(axis=1).all():
        raise DegenerateDistributionError(f"{what} is undefined for all-zero design rows")
