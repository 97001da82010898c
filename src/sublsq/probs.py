"""Per-row sampling probabilities for the randomized subsampling schemes.

Supported schemes:

======  ==============================================================
RAND    uniform 1/n
BLEV    proportional to leverage scores
SLEV    convex mix of BLEV and uniform, mixing weight alpha
IC      proportional to ||(X'X)^{-1} x_i||  (best for the coefficients)
RL      proportional to sqrt(leverage)      (best for the fitted line)
PL      proportional to the row norm ||x_i|| (best for X'X beta)
======  ==============================================================

Each raw weight vector is normalized by its sum exactly once. SLEV mixes
two already-normalized vectors and is not renormalized again, which keeps
its (1 - alpha)/n entrywise lower bound exact in floating point.

The IC and PL weights are row norms, taken by ``np.linalg.norm(..., axis=1)``
over blocks of ``_ROW_BLOCK`` rows: each row gets the bits of one call over
all rows, and no n x p temporary is allocated. PL takes them on the design
times the power of two that puts max|X| in [0.5, 1), so at any scale of
the design no square overflows, and only rows below about 1e-154 max|X|
underflow; the rescale is exact on a normal-scale design, so there the
probabilities keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, full_rank_leverage, full_rank_svd, reject_zero_rows
from .errors import DegenerateDistributionError, ValidationError

SCHEMES = ("RAND", "BLEV", "SLEV", "IC", "RL", "PL")
DEFAULT_SLEV_ALPHA = 0.9

__all__ = ["SCHEMES", "DEFAULT_SLEV_ALPHA", "ProbabilityVector", "compute_probabilities"]

_ROW_BLOCK = 4096  # rows per block of the IC and PL row norms


@dataclass(frozen=True)
class ProbabilityVector:
    """A vector on the probability simplex tagged with its scheme.

    ``alpha`` is set only for SLEV.
    """

    probs: np.ndarray
    scheme: str
    alpha: float | None = None

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValidationError("probs must be a vector")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise ValidationError("probabilities must be finite and nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-10:
            raise ValidationError("probabilities must sum to 1 within 1e-10")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return self.probs.shape[0]


def _row_norms(rows: np.ndarray, scaled) -> np.ndarray:
    """``np.linalg.norm(scaled(rows), axis=1)``, computed ``_ROW_BLOCK`` rows at a time.

    ``scaled`` maps a block of rows to the rows whose norms are taken; it
    acts on each entry alone, so every norm has the bits of the unblocked
    call, and no temporary is larger than one block.
    """
    norms = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _ROW_BLOCK):
        stop = start + _ROW_BLOCK
        norms[start:stop] = np.linalg.norm(scaled(rows[start:stop]), axis=1)
    return norms


def _normalized(raw: np.ndarray, what: str) -> np.ndarray:
    total = float(raw.sum())
    if total <= 0:
        raise DegenerateDistributionError(f"all {what} weights are zero")
    return raw / total


def slev_alpha(alpha: float | None) -> float:
    """The SLEV mixing weight: ``DEFAULT_SLEV_ALPHA`` for None, else in [0, 1]."""
    alpha = DEFAULT_SLEV_ALPHA if alpha is None else float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def compute_probabilities(
    data: Dataset, scheme: str, alpha: float | None = None
) -> ProbabilityVector:
    """Sampling probabilities for one scheme on the given dataset.

    BLEV, SLEV, IC, and RL require a full-column-rank design. ``alpha``
    may only be supplied for SLEV and defaults to 0.9 there. Zero rows
    are rejected for the leverage-based schemes rather than smoothed;
    choose SLEV when a lower bound on the probabilities is needed.
    """
    scheme = scheme.upper()
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if scheme != "SLEV" and alpha is not None:
        raise ValidationError("alpha is only meaningful for SLEV")
    if scheme == "SLEV":
        alpha = slev_alpha(alpha)

    n = data.n

    if scheme == "RAND":
        return ProbabilityVector(np.full(n, 1.0 / n), "RAND")

    if scheme == "PL":
        X = data.design
        _, exponent = math.frexp(max(float(X.max()), -float(X.min())))
        norms = _row_norms(X, lambda block: np.ldexp(block, -exponent))
        return ProbabilityVector(_normalized(norms, "row-norm"), "PL")

    if scheme == "IC":
        U, s, _ = full_rank_svd(data, "scheme IC")
        # Rows of X (X'X)^{-1} are the rows of U diag(1/s) V', and V' is
        # orthogonal, so the norms come straight from the scaled U rows. Scaling
        # by s[-1] / s <= 1 instead of 1 / s keeps them finite at any column
        # scale, and keeps each squared norm at most the row's leverage.
        ratio = s[-1] / s
        ic_raw = _row_norms(U, lambda block: block * ratio)
        # all-zero rows would break the weighting later on
        reject_zero_rows(data.design, np.square(ic_raw), s, "scheme IC")
        return ProbabilityVector(_normalized(ic_raw, "inverse-covariance"), "IC")

    lev = full_rank_leverage(data, f"scheme {scheme}")
    if scheme in ("BLEV", "SLEV"):
        blev = _normalized(lev, "leverage")
        if scheme == "BLEV":
            return ProbabilityVector(blev, "BLEV")
        probs = alpha * blev + (1.0 - alpha) / n
        return ProbabilityVector(probs, "SLEV", alpha=alpha)

    return ProbabilityVector(_normalized(np.sqrt(lev), "root-leverage"), "RL")
