"""Asymptotic variance of weighted subsample estimators and related tools.

For a weighted subsample least-squares estimator drawn with probabilities
``pi`` and subsample size ``r``, the asymptotic variance is

    sigma^2 (X'X)^{-1} + sigma^2 (X'X)^{-1} X' Omega X (X'X)^{-1},

with ``Omega = diag(1 / (r pi_i))``: the first part is the full-sample OLS
variance, the second the price of subsampling. Over the thin SVD X = U S V'
it is ``sigma^2 A (I + U' Omega U) A'`` with ``A = V S^{-1}``, and
``trace_amse`` is ``sigma^2 sum_k s_k^e (1 + sum_i U_ik^2 Omega_ii)`` with
e = -2, 0, 2 for the coefficients (the trace above), the fitted line and
the moment vector. Each target's second term is minimized by the
probability vector proportional to the corresponding per-row norm (IC, RL,
PL respectively), which is the property the tests pin down. Both read
one p x p matrix, ``G = U' diag(1/pi) U = r U' Omega U``, which the
dataset's ``Factorization`` sums once per probability vector and keeps
(``weighted_gram``), so a sweep over r or over the targets reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, _real, as_array, factors, of_type, ols_fit, one_of, set_fields, subset_size
from .errors import NumericalError, ValidationError
from .probs import ProbabilityVector

# Power of the singular values that weighs each direction in trace_amse.
_TARGET_EXPONENTS = {"beta": -2, "Xbeta": 0, "XtXbeta": 2}
TARGETS = tuple(_TARGET_EXPONENTS)

__all__ = [
    "TARGETS",
    "AsymptoticVariance",
    "RegularityDiagnostics",
    "avar_matrix",
    "trace_amse",
    "sigma2_estimate",
    "regularity_diagnostics",
]


@dataclass(frozen=True, eq=False)
class AsymptoticVariance:
    """A p x p asymptotic covariance matrix with its inputs."""

    matrix: np.ndarray
    sigma2: float
    r: int

    def __post_init__(self):
        m = as_array(self.matrix, "matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("matrix must be square")
        if not np.isfinite(m).all():
            raise ValidationError("matrix must be finite")
        # Both tolerances are relative to the largest entry, at any scale.
        scale = float(np.max(np.abs(m), initial=0.0))
        if float(np.max(np.abs(m - m.T), initial=0.0)) > 1e-10 * scale:
            raise ValidationError("matrix must be symmetric within 1e-10")
        if float(np.min(np.linalg.eigvalsh(m))) < -1e-10 * scale:
            raise ValidationError("matrix must be positive semi-definite")
        if not _real(self.sigma2) or not 0 <= self.sigma2 < np.inf:
            raise ValidationError(f"sigma2 must be a finite nonnegative real, got {self.sigma2!r}")
        set_fields(self, matrix=m, sigma2=float(self.sigma2), r=subset_size(self.r, 1, what="r"))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


@dataclass(frozen=True)
class RegularityDiagnostics:
    """Finite-sample quantities behind the estimator's regularity conditions.

    Reported, never enforced: the conditions themselves are asymptotic
    order statements with no finite-sample pass/fail reading.
    """

    lambda_min: float
    lambda_max: float
    pi_min: float
    condition_ratio: float


def _paired(data: Dataset, probs: ProbabilityVector, r: int) -> tuple[np.ndarray, int]:
    """``probs.probs`` and r as an int, once both records, r >= 1 and the
    length of pi are checked."""
    n = of_type(data, Dataset, "data").n
    r = subset_size(r, 1)
    if of_type(probs, ProbabilityVector, "probs").n != n:
        raise ValidationError("probability vector length does not match the dataset")
    return probs.probs, r


def _checked_r(data: Dataset, probs: ProbabilityVector, r: int, sigma2: float) -> int:
    """r as an int, once ``_paired``'s checks, sigma2 and pi > 0, the inputs
    of Omega = diag(1 / (r pi)), are checked."""
    pi, r = _paired(data, probs, r)
    if not _real(sigma2) or not 0 < sigma2 < np.inf:
        raise ValidationError(f"sigma2 must be a positive real, got {sigma2}")
    if np.any(pi <= 0):
        raise ValidationError(
            "every sampling probability must be strictly positive here; "
            "zero-probability rows make the weight matrix undefined"
        )
    return r


def avar_matrix(
    data: Dataset, probs: ProbabilityVector, r: int, sigma2: float
) -> AsymptoticVariance:
    """Asymptotic covariance of the weighted subsample estimator, from
    ``U' Omega U = G / r`` with the kept ``G = U' diag(1/pi) U``."""
    r = _checked_r(data, probs, r, sigma2)
    svd = factors(data).full_rank("the asymptotic variance")
    A = svd.Vt.T / svd.s
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        inner = np.eye(data.p) + svd.weighted_gram(probs) / r
        m = sigma2 * (A @ inner @ A.T)
        m = 0.5 * (m + m.T)
    if not np.isfinite(m).all():
        raise NumericalError("the asymptotic variance over- or underflows at this column scale")
    return AsymptoticVariance(matrix=m, sigma2=float(sigma2), r=r)


def trace_amse(
    data: Dataset, probs: ProbabilityVector, r: int, sigma2: float, target: str
) -> float:
    """Scalar asymptotic MSE of the subsample estimator for one target.

    target = 'beta'    : coefficients; per-row norm ||(X'X)^{-1} x_i||^2
    target = 'Xbeta'   : fitted line;  per-row norm is the leverage h_ii
    target = 'XtXbeta' : moment vector; per-row norm ||x_i||^2

    In every case the value is sigma^2 * trace(fixed covariance of the
    target's full-sample estimator) plus (sigma^2/r) * sum_i norm_i/pi_i.
    The diagonal of ``U' Omega U`` is that of the kept
    ``G = U' diag(1/pi) U`` over r, so a first call sums all of G.
    """
    one_of(target, TARGETS, "target")
    r = _checked_r(data, probs, r, sigma2)
    svd = factors(data).full_rank("the asymptotic MSE")
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        per_direction = 1.0 + np.diag(svd.weighted_gram(probs)) / r
        value = sigma2 * float(svd.s ** _TARGET_EXPONENTS[target] @ per_direction)
    # positive by construction: zero means it underflowed
    if not 0.0 < value < np.inf:
        raise NumericalError("the asymptotic MSE over- or underflows at this column scale")
    return value


def sigma2_estimate(data: Dataset) -> float:
    """Residual noise variance from the full-sample OLS fit."""
    if of_type(data, Dataset, "data").n <= data.p:
        raise ValidationError(f"noise estimation needs n > p, got n={data.n}, p={data.p}")
    factors(data).full_rank("noise estimation")
    return ols_fit(data).residual_ss / (data.n - data.p)


def regularity_diagnostics(
    data: Dataset, probs: ProbabilityVector, r: int
) -> RegularityDiagnostics:
    """Eigen-extremes of X'X/n and the smallest sampling probability.

    ``condition_ratio`` equals the squared condition number of the design.
    """
    pi, _ = _paired(data, probs, r)
    s = factors(data).s
    # From s, not from s*s/n, which underflows long before s[0]/s[-1] does.
    ratio = (s[0] / s[-1]) ** 2 if s[-1] > 0 else np.inf
    return RegularityDiagnostics(
        lambda_min=float(s[-1] * s[-1] / data.n),
        lambda_max=float(s[0] * s[0] / data.n),
        pi_min=float(np.min(pi)),
        condition_ratio=float(ratio),
    )
