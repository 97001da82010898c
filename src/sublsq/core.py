"""Dense least-squares kernels: OLS, weighted LS, and leverage scores.

Everything else in the package builds on these three operations. Fits are
computed from a rank-revealing SVD solve and always return the minimum-norm
solution, so rank-deficient designs degrade gracefully instead of raising;
a fit whose coefficients or residual sum of squares overflow raises
NumericalError. Each ``Dataset`` is factored once: ``factors`` keeps the
first ``thin_svd`` of its design, a frozen ``Factorization``, on the
object; where CholeskyQR2 factors it, the record holds the design and p x p
maps that form U from it, not U. The record keeps every shared pass over
U: the leverage (8 bytes a row), which consumers copy before they write,
and each probability vector's ``U' diag(1/pi) U``; ``full_rank`` is the
one rank check, and ``full_rank_leverage`` the one check for full rank
and all-zero rows.
All functions are pure and thread-safe; returned arrays are frozen.

Every frozen record of the package is filled by ``set_fields``. Its
checked constructors copy and check what a caller gives them, once, so
no caller's array is frozen or shared with it; ``trusted`` builds a
record without them, from values the package computed that meet those
checks by construction. So ``take_rows`` checks only the row indices
(``row_indices``): rows of checked arrays need no second check, and
their fancy-indexed copies are, bit for bit, ``Dataset(design[idx],
response[idx])``, with no factors yet. A fit's ``EstimateResult`` holds
the ``beta`` it has just checked.
"""

from __future__ import annotations

import functools
import math
import weakref
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


_ROW_BLOCK = 4096  # rows per block of _times_spans with no map: IC and PL norms, U' Omega U
_SPAN = 2048  # least rows per span of a product with the design: U, Q1 (see _times_spans)
_RESIDUAL_ROWS = 1 << 16  # rows per block of a fit's residual where U is formed from the design
_GEMV_ENTRIES = 8192  # entries of a gemv OpenBLAS runs on one thread: below 2304 * GEMM_MULTITHREAD_THRESHOLD
_GEMM_MADDS = 1 << 18  # m n k of a gemm OpenBLAS runs on one thread: 65,536 * GEMM_MULTITHREAD_THRESHOLD
_FLOAT_BLOCK = 1 << 20  # floats per blocked temporary of exchange and volume sampling, 8 MB


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def set_fields(record, **fields):
    """``record``, a frozen dataclass, with each field set and each array frozen."""
    for name, value in fields.items():
        object.__setattr__(record, name, _freeze(value) if isinstance(value, np.ndarray) else value)
    return record


def trusted(cls, **fields):
    """A ``cls`` record of every field given, without the constructor's copy
    and checks: only for values the package computed that meet those checks
    by construction, never for a caller's array."""
    return set_fields(object.__new__(cls), **fields)


def cached_on(obj, name: str, build):
    """``obj.__dict__[name]``, set to ``build()`` at the first call; a race builds it twice."""
    if name not in obj.__dict__:
        obj.__dict__[name] = build()
    return obj.__dict__[name]


def one_of(value, choices: tuple, what: str, upper: bool = False):
    """``value``, upper-cased where ``upper`` is set, if it is a string among
    ``choices``; ValidationError naming ``what`` otherwise."""
    if upper and isinstance(value, str):
        value = value.upper()
    if not isinstance(value, str) or value not in choices:
        raise ValidationError(f"{what} must be one of {choices}, got {value!r}")
    return value


def of_type(value, cls: type, what: str):
    """``value`` if it is a ``cls``; ValidationError naming ``what`` otherwise:
    the one type check of a record argument."""
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def subset_size(r, low: int, high: float = np.inf, what: str = "subset size r") -> int:
    """``r`` as an int where it is an integer (not a float or a bool) and
    ``low <= r <= high`` (``high`` the rows to pick from, if r may not
    exceed them); ValidationError naming ``what`` otherwise. The one rule
    for every count: r, and a draw's ``size``, ``reps`` and ``workers``."""
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {r!r}")
    if r < low:
        raise ValidationError(f"{what}={r} must be at least {low}")
    if r > high:
        raise ValidationError(f"{what}={r} exceeds n={high}")
    return int(r)


def _real(value) -> bool:
    """Whether ``value`` is an int or a float, numpy's included, and not a bool:
    the one rule for every real-number argument."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def pow2_exponent(a: np.ndarray) -> int:
    """The exponent e that puts ``max|a| * 2^-e`` in [0.5, 1); 0 where ``a`` is all zero.

    Taken over the blocks of ``_times_spans(a)``, so that a tall ``a`` is read
    from memory once: the min of a block reads it from cache after its max.
    """
    hi = lo = 0.0
    for _, block in _times_spans(a):
        hi, lo = max(hi, float(block.max())), min(lo, float(block.min()))
    return math.frexp(max(hi, -lo))[1]


def as_array(values, name: str, dtype=np.float64) -> np.ndarray:
    """A C-contiguous ``dtype`` copy of ``values``; ValidationError naming
    ``name`` where numpy cannot convert them: the one conversion of a
    caller's array."""
    try:
        return np.array(values, dtype=dtype, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be numeric: {exc}") from None


def row_indices(indices, n: float = np.inf, distinct: bool = False) -> np.ndarray:
    """A nonempty vector of integers (not floats or bools) in [0, n), distinct
    where asked, as contiguous intp; ValidationError otherwise."""
    idx = as_array(indices, "row indices", None)
    if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu":
        raise ValidationError("row indices must be a nonempty vector of integers")
    idx = np.ascontiguousarray(idx, dtype=np.intp)  # uint64 beyond intp wraps negative
    if idx.min() < 0 or idx.max() >= n:
        raise ValidationError(f"row indices must lie in [0, {n})")
    if distinct and np.unique(idx).size != idx.size:
        raise ValidationError("row indices must be distinct")
    return idx


def _as_finite_array(values, name: str, ndim: int) -> np.ndarray:
    """A float64 ``as_array`` of ``values``, checked for ``ndim`` and finiteness."""
    a = as_array(values, name)
    if a.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return a


@dataclass(frozen=True, eq=False)
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
        set_fields(self, design=design, response=response)

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
        return trusted(Dataset, design=self.design[idx], response=self.response[idx])


@dataclass(frozen=True, eq=False)
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
        rank = subset_size(self.rank, 0, what="rank")
        if rank > beta.size:
            raise ValidationError(f"rank={rank} exceeds len(beta)={beta.size}")
        if not _real(self.residual_ss):
            raise ValidationError(f"residual_ss must be a real number, got {self.residual_ss!r}")
        if self.residual_ss < 0:
            raise ValidationError("residual_ss must be nonnegative")
        if not np.isfinite(self.residual_ss):
            raise ValidationError("residual_ss must be finite")
        set_fields(self, beta=beta, rank=rank)


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
# Up to this condition number U = X W for one p x p map W, which costs U
# about cond eps of orthogonality and a Gram of X mapped by W about cond^2 eps,
# at most 1e-10; beyond it U = Q1 T, one more product a row (_cholesky_qr2_svd).
_ONE_MAP_MAX_COND = 1e3


def _times_spans(a: np.ndarray, *maps: np.ndarray):
    """``(lo, a[lo:hi] @ maps[0] @ ...)`` over the rows of ``a``: the one walk
    over a kept array's rows. With no maps, views of ``_ROW_BLOCK`` rows, the
    last shorter. With maps, spans, the longer first, of lengths that differ
    by at most one and are at least ``_SPAN`` unless n is shorter: a shorter
    product can take another BLAS kernel with other bits (gemv, OpenBLAS's
    small-matrix path). Each product is written into a reused buffer of its
    own: read each before the next."""
    n = a.shape[0]
    k = max(1, n // _SPAN)
    q, r = divmod(n, k)
    bounds = [i * q + min(i, r) for i in range(k + 1)] if maps else [*range(0, n, _ROW_BLOCK), n]
    buffers = [np.empty((bounds[1], m.shape[1])) for m in maps]
    for lo, hi in zip(bounds, bounds[1:]):
        block = a[lo:hi]
        for buffer, m in zip(buffers, maps):
            block = np.matmul(block, m, out=buffer[: hi - lo])
        yield lo, block


def _cholesky_qr2_svd(design: np.ndarray):
    """The maps that form U from X, s and Vt of a thin SVD by CholeskyQR2, or
    None where that path declines.

    CholeskyQR2 (Fukaya, Nakatsukasa, Yanagisawa and Yamamoto, 2014):
    ``R1 = chol(X'X)``, ``Q1 = X R1^{-1}``, ``R2 = chol(Q1'Q1)``, then the
    SVD ``Ur diag(s) Vt`` of ``R2 R1``; ``U = Q1 T`` with ``T = R2^{-1} Ur``.
    Q1 is formed a span at a time. The maps are ``(R1^{-1} T,)`` up to
    ``_ONE_MAP_MAX_COND`` and ``(R1^{-1}, T)`` beyond, where only the Q1 that
    R2 was taken from gives a U orthonormal to machine precision. The path
    declines designs below the size gate, a Gram matrix that overflowed, a
    Cholesky that fails (as on a Gram matrix that underflowed to singular),
    and cond(R1) above ``CHOLQR_MAX_COND``.
    """
    n, p = design.shape
    if n < CHOLQR_MIN_ASPECT * p or n * p < CHOLQR_MIN_ENTRIES:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _row_products(design, design)
    if not np.all(np.isfinite(gram)):
        return None
    try:
        r1 = np.linalg.cholesky(gram).T
        cond = np.linalg.cond(r1)
        if cond > CHOLQR_MAX_COND:
            return None
        r1_inv = np.linalg.inv(r1)
        r2 = np.linalg.cholesky(sum(_row_products(q1, q1) for _, q1 in _times_spans(design, r1_inv))).T
    except np.linalg.LinAlgError:
        return None
    ur, s, Vt = np.linalg.svd(r2 @ r1)
    t = np.linalg.inv(r2) @ ur
    maps = (r1_inv @ t,) if cond <= _ONE_MAP_MAX_COND else (r1_inv, t)
    return tuple(_freeze(m) for m in maps), s, Vt


@dataclass(frozen=True, eq=False)
class Factorization:
    """A thin SVD ``X = U diag(s) Vt`` with its numerical rank, frozen.

    Only this record knows how it holds U: ``basis`` is LAPACK's U, with no
    ``maps``, or the design X itself, with the p x p maps whose product with
    X is U, so nothing n long is kept beside the design. U is then formed a
    span of rows at a time (``blocks``), or only at the rows asked for
    (``take``); projections on U's rows, a fit's ``U'y`` and
    ``weighted_gram`` read X.

    It owns every pass over the rows of U that its consumers share, each
    computed at the first read and kept on the record: ``leverage`` and,
    per probability vector, ``weighted_gram``. ``full_rank`` is the one
    rank check of every consumer that needs a full-column-rank design.
    """

    basis: np.ndarray
    maps: tuple
    s: np.ndarray
    Vt: np.ndarray
    rank: int

    def blocks(self, cols: int):
        """``_times_spans`` of U's first ``cols`` columns: views of a kept U,
        or spans formed from X, which a reader may scale in place, but must
        read before the next."""
        if not self.maps:
            return _times_spans(self.basis[:, :cols])
        return _times_spans(self.basis, *self.maps[:-1], self.maps[-1][:, :cols])

    @property
    def U(self) -> np.ndarray:
        """U whole and frozen, formed at each read where X is kept: nothing
        in the package reads it."""
        return _freeze(self.take(slice(None)))

    def take(self, indices) -> np.ndarray:
        """U's rows at an integer array of row indices, of any shape, or a slice."""
        return functools.reduce(np.matmul, self.maps, self.basis[indices])

    def project(self, b: np.ndarray) -> np.ndarray:
        """``b U'`` for an (m, p) ``b``: ``(b S^{-1} Vt) X'`` where X is kept,
        since U = X V S^{-1}; each p x p operand is C-ordered, as a product
        with an F-ordered one can take a threaded OpenBLAS kernel."""
        return ((b / self.s) @ self.Vt) @ self.basis.T if self.maps else b @ self.basis.T

    def row_norms(self, scale=None) -> np.ndarray:
        """``_squared_row_norms`` of the first ``rank`` columns of U, times
        ``scale``. Where the leverage is not yet kept, it is kept too, from
        the same blocks."""
        if scale is None or "_leverage" in self.__dict__:
            return _squared_row_norms(self, scale)
        leverage = np.empty(self.basis.shape[0])
        out = _squared_row_norms(self, scale, leverage)
        cached_on(self, "_leverage", lambda: _freeze(leverage))
        return out

    @property
    def leverage(self) -> np.ndarray:
        """Squared row norms of the first ``rank`` columns of U, unclipped and frozen."""
        return cached_on(self, "_leverage", lambda: _freeze(self.row_norms()))

    def full_rank(self, what: str) -> "Factorization":
        """This record, if its design has full column rank; RankError naming ``what`` otherwise."""
        p = self.Vt.shape[1]
        if self.rank < p:
            raise RankError(f"{what} requires a full-column-rank design (rank {self.rank} < p={p})")
        return self

    def weighted_gram(self, probs) -> np.ndarray:
        """The frozen p x p matrix ``U' diag(1/pi) U`` for the ProbabilityVector ``probs``.

        ``Y' diag(1/pi) Y`` summed over the blocks of ``_times_spans``, then
        ``t' (. t)`` for ``U = Y t``: Y is a kept U, the design X (``t`` its
        one map), or else Q1 (``t = T``). Computed at the first call, then
        kept per vector in a ``WeakKeyDictionary``, made at first use, so an
        entry goes with its vector; a race sums twice. Callers check the
        rank, the length of pi and that pi > 0 first.
        """
        grams = cached_on(self, "_grams", weakref.WeakKeyDictionary)
        gram = grams.get(probs)
        if gram is None:
            pi = probs.probs[:, None]
            blocks = _times_spans(self.basis, *self.maps[:-1])
            with np.errstate(over="ignore", invalid="ignore"):  # the callers check their results
                gram = sum(_row_products(Y, Y / pi[lo : lo + Y.shape[0]]) for lo, Y in blocks)
                if self.maps:  # t' (gram t), each a sum in one order
                    gram = _row_products(self.maps[-1], _row_products(gram.T, self.maps[-1]))
            grams[probs] = gram = _freeze(gram)
        return gram


def thin_svd(design: np.ndarray) -> Factorization:
    """Thin SVD plus numerical rank, as a ``Factorization``.

    Tall, well-conditioned designs are factored by CholeskyQR2, and the
    record keeps a read-only view of ``design``, which must not change while
    it lives; every other design goes to LAPACK's SVD.
    """
    svd = _cholesky_qr2_svd(design)
    if svd is None:
        maps, (basis, s, Vt) = (), np.linalg.svd(design, full_matrices=False)
    else:
        (maps, s, Vt), basis = svd, design.view()
    n, p = design.shape
    rank = int(np.count_nonzero(s > _rank_tolerance(s, n, p)))
    return trusted(Factorization, basis=basis, maps=maps, s=s, Vt=Vt, rank=rank)


def factors(data: Dataset) -> Factorization:
    """``thin_svd(data.design)``, computed at the first call, then kept on ``data``."""
    return cached_on(data, "_factors", lambda: thin_svd(data.design))


def _row_products(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A' B`` (``B`` an n-vector or n x q), summed over the rows in one
    order at any BLAS thread count: OpenBLAS splits a product along its sum
    unless it is a ``gemv`` of under ``_GEMV_ENTRIES`` entries or a ``gemm``
    of at most ``_GEMM_MADDS`` multiply-adds (its default build). So the rows
    go in blocks of ``_GEMV_ENTRIES // p``, and B in tiles of as many columns
    as keep one block's product within ``_GEMM_MADDS``; per tile, one product
    a block in a batched ``matmul``, over groups of blocks whose products hold
    at most ``_FLOAT_BLOCK`` floats, the group sums added in order to the
    remainder's. ``einsum`` calls no BLAS, but took twice the time.
    """
    n, p = A.shape
    q, rows = B.size // n, max(1, _GEMV_ENTRIES // p)
    cols = max(1, _GEMM_MADDS // (p * rows))
    if q > cols:
        return np.concatenate([_row_products(A, B[:, j : j + cols]) for j in range(0, q, cols)], axis=1)
    whole, group = n - n % rows, max(1, _FLOAT_BLOCK // (p * q))
    out = A[whole:].T @ B[whole:]
    if whole:
        blocks = A[:whole].reshape(-1, rows, p).transpose(0, 2, 1)
        rhs = B[:whole].reshape(-1, rows, q)
        for lo in range(0, blocks.shape[0], group):
            out += np.add.reduce(blocks[lo : lo + group] @ rhs[lo : lo + group], axis=0).reshape(out.shape)
    return out


def _fit(svd: Factorization, rhs: np.ndarray) -> EstimateResult:
    """Minimum-norm least-squares fit of ``rhs`` on the design whose ``thin_svd`` is ``svd``.

    ``rank`` is the numerical rank used; ``residual_ss`` the squared norm of
    ``rhs`` less ``U_r (U_r' rhs)`` where U is kept, or less ``X beta`` where
    X is, in blocks of ``_RESIDUAL_ROWS`` rows written into one buffer. Every
    sum over the n rows runs in one order at any BLAS thread count:
    ``_row_products``, each entry of the projection over at most p terms,
    each block's residual sum by ``einsum``. NumericalError where the
    coefficients or that sum are not finite; numpy's overflow warnings are
    silenced, since that raises.
    """
    rank, B = svd.rank, svd.basis
    with np.errstate(over="ignore", invalid="ignore"):
        coef = _row_products(B, rhs)
        # where X is kept, U_r' rhs = W_r' (X' rhs) = S_r^{-1} Vt_r (X' rhs)
        coef = (svd.Vt[:rank] @ coef) / svd.s[:rank] if svd.maps else coef[:rank]
        # rank 0 (an all-zero design) gives the zero vector
        beta = svd.Vt[:rank].T @ (coef / svd.s[:rank])
        if not np.all(np.isfinite(beta)):
            raise NumericalError("the least-squares coefficients overflow at this scale")
        # a kept U is p n-vectors already: one block keeps the bits of one product
        B, terms, rows = (B, beta, _RESIDUAL_ROWS) if svd.maps else (B[:, :rank], coef, B.shape[0])
        resid, rss = np.empty(min(rows, B.shape[0])), 0.0
        for lo in range(0, B.shape[0], rows):
            y = rhs[lo : lo + rows]
            block = np.matmul(B[lo : lo + rows], terms, out=resid[: y.size])
            rss += float(np.einsum("i,i->", np.subtract(y, block, out=block), block))
    if not np.isfinite(rss):
        raise NumericalError("the residual sum of squares overflows at this scale")
    return trusted(EstimateResult, beta=beta, rank=rank, residual_ss=rss)


def ols_fit(data: Dataset) -> EstimateResult:
    """Ordinary least squares.

    Returns the minimum-norm solution of ``min ||y - X b||^2``. For a
    full-column-rank design this equals the usual normal-equations
    solution; on singular designs the pseudo-inverse solution is used.
    Raises NumericalError where the coefficients or the residual sum of
    squares overflow.
    """
    return _fit(factors(of_type(data, Dataset, "data")), data.response)


def weighted_ls_fit(data: Dataset, weights) -> EstimateResult:
    """Weighted least squares: ``min (y - X b)' diag(w) (y - X b)``.

    Realized by rescaling each row with the square root of its weight and
    solving the resulting ordinary problem, which is numerically stabler
    than forming the weight matrix. All weights must be strictly positive
    and finite. ``residual_ss`` is the minimized weighted objective;
    NumericalError where it, the coefficients or the rescaled design overflow.
    """
    of_type(data, Dataset, "data")
    w = as_array(weights, "weights").reshape(-1)
    if w.shape[0] != data.n:
        raise ValidationError(f"weights length {w.shape[0]} does not match n={data.n}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    if np.any(w <= 0):
        raise ValidationError("weights must be strictly positive")
    sw = np.sqrt(w)
    with np.errstate(over="ignore"):  # an overflow raises below, or in _fit
        design, rhs = data.design * sw[:, None], data.response * sw
    if not np.isfinite(design).all():
        raise NumericalError("the weighted design overflows at this scale")
    return _fit(thin_svd(design), rhs)


def leverage_scores(data: Dataset) -> np.ndarray:
    """Leverage score of every row, as a frozen vector: the squared row
    norms of the orthonormal column-space basis from the thin SVD.

    Scores lie in [0, 1] and sum to the design rank. For a full-rank
    design this equals ``x_i' (X'X)^{-1} x_i`` and the scores sum to p.
    """
    # Projection diagonals live in [0, 1]; shave off rounding overshoot, in a copy.
    return _freeze(np.clip(factors(of_type(data, Dataset, "data")).leverage, 0.0, 1.0))


def _squared_row_norms(rows, scale=None, unscaled=None) -> np.ndarray:
    """``einsum("ij,ij->i", S, S)``: the squared row norms of ``S = rows``, or
    of ``S = rows * scale``, with ``scale`` one factor per column or one for
    all. ``rows`` is an n x k array, read in the blocks of
    ``_times_spans(rows)``, or a ``Factorization``, for U's first rank
    columns, read in the blocks of its ``blocks``: views of a kept U, or
    spans formed from X. An n-vector ``unscaled`` takes the squared norms of
    each block before it is scaled.

    Each block is scaled as one flat product: in place where a map formed it
    into the package's own buffer, into one reused buffer otherwise, so no
    caller's or kept array is written. Per column factors are tiled to the
    first block's length, about 4x faster at p = 10 than the broadcast
    product, and the same products. Each entry is scaled alone and einsum
    reduces each row alone, so every norm has the bits of one unblocked
    call, and no temporary is larger than one block.
    """
    if isinstance(rows, Factorization):
        n, blocks, formed = rows.basis.shape[0], rows.blocks(rows.rank), bool(rows.maps)
    else:
        n, blocks, formed = rows.shape[0], _times_spans(rows), False
    out, factors = np.empty(n), None
    for lo, block in blocks:
        if unscaled is not None:
            np.einsum("ij,ij->i", block, block, out=unscaled[lo : lo + block.shape[0]])
        if scale is not None:
            flat = block.reshape(-1)
            if factors is None:  # a single factor is kept as one entry, which broadcasts
                factors = np.tile(scale, len(block)) if isinstance(scale, np.ndarray) else np.array([scale])
                buffer = None if formed else np.empty(flat.size)
            target = flat if formed else buffer[: flat.size]
            block = np.multiply(flat, factors[: flat.size], out=target).reshape(block.shape)
        np.einsum("ij,ij->i", block, block, out=out[lo : lo + block.shape[0]])
    return out


def full_rank_leverage(data: Dataset, what: str) -> np.ndarray:
    """Leverage of every row, unclipped, of a full-column-rank design with no
    all-zero row, as the frozen vector kept with its factors; RankError or
    DegenerateDistributionError naming ``what`` otherwise.

    Only rows at or below ``(n p eps cond)^2`` are scanned for zeros: a zero
    row's leverage is 0, except for rounding noise where LAPACK pivots on
    it (one of the first p rows), measured up to 7e-9 at cond 1e12 and
    always below 1/150 of the bound.
    """
    svd = factors(data).full_rank(what)
    lev, s = svd.leverage, svd.s
    bound = (data.n * data.p * np.finfo(np.float64).eps * float(s[0] / s[-1])) ** 2
    suspects = np.flatnonzero(lev <= bound)
    if suspects.size and not data.design[suspects].any(axis=1).all():
        raise DegenerateDistributionError(f"{what} is undefined for all-zero design rows")
    return lev
