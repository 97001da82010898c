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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, thin_svd
from .errors import DegenerateDistributionError, RankError, ValidationError

SCHEMES = ("RAND", "BLEV", "SLEV", "IC", "RL", "PL")
DEFAULT_SLEV_ALPHA = 0.9

__all__ = ["SCHEMES", "DEFAULT_SLEV_ALPHA", "ProbabilityVector", "compute_probabilities"]


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


def _normalized(raw: np.ndarray, what: str) -> np.ndarray:
    total = float(raw.sum())
    if total <= 0:
        raise DegenerateDistributionError(f"all {what} weights are zero")
    return raw / total


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
        alpha = DEFAULT_SLEV_ALPHA if alpha is None else float(alpha)
        if not 0.0 <= alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")

    n, p = data.n, data.p

    if scheme == "RAND":
        return ProbabilityVector(np.full(n, 1.0 / n), "RAND")

    if scheme == "PL":
        norms = np.linalg.norm(data.design, axis=1)
        return ProbabilityVector(_normalized(norms, "row-norm"), "PL")

    U, s, _, rank = thin_svd(data.design)
    if rank < p:
        raise RankError(
            f"scheme {scheme} requires a full-column-rank design (rank {rank} < p={p})"
        )
    # On a full-rank design a leverage score vanishes exactly when the row
    # is all zeros, and such rows would break the weighting later on.
    if np.any(~data.design.any(axis=1)):
        raise DegenerateDistributionError(
            f"scheme {scheme} is undefined for all-zero design rows"
        )

    lev = np.einsum("ij,ij->i", U, U)

    if scheme in ("BLEV", "SLEV"):
        blev = _normalized(lev, "leverage")
        if scheme == "BLEV":
            return ProbabilityVector(blev, "BLEV")
        probs = alpha * blev + (1.0 - alpha) / n
        return ProbabilityVector(probs, "SLEV", alpha=alpha)

    if scheme == "RL":
        return ProbabilityVector(_normalized(np.sqrt(lev), "root-leverage"), "RL")

    # IC: rows of X (X'X)^{-1} are the rows of U diag(1/s) V', and V' is
    # orthogonal, so the norms come straight from the scaled U rows. Scaling
    # by s[-1] / s <= 1 instead of 1 / s keeps them finite at any column scale.
    ic_raw = np.linalg.norm(U * (s[-1] / s), axis=1)
    return ProbabilityVector(_normalized(ic_raw, "inverse-covariance"), "IC")
