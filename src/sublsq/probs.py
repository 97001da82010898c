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

BLEV, SLEV, RL and IC's all-zero-row check read the leverage kept with the
dataset's factorization, one pass over the rows of U. IC's first pass keeps
it from the blocks its own norms are taken from, whether the record keeps
LAPACK's U or forms U from the design a span at a time, so U is read once.
The IC and PL weights are row norms of rows scaled column by column (U by
``s[-1] / s`` for IC, X by ``2^-e`` for PL), the square roots of one
``einsum`` per block of the one row walker, ``core._times_spans``, each
block scaled as one flat product: each row gets the bits of one call over
all rows, and no n x p temporary is allocated.
Each vector is normalized in its own memory, never in the kept leverage,
and built by ``core.trusted``, without the constructor's copy and checks,
which it meets by construction. PL's ``2^-e`` puts max|X| in [0.5, 1), so
at any scale of the design no square overflows, and only rows below about
1e-154 max|X| underflow; the product by a power of two is ``ldexp``'s,
and exact on a normal-scale design, so there the probabilities keep their
bits. Where ``2^-e`` is no double (e < -1023, a design of subnormal
scale), PL rescales the whole design by ``ldexp``, an n x p temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset, _real, _squared_row_norms, as_array, factors, full_rank_leverage, of_type, one_of, pow2_exponent,
    set_fields, trusted
)
from .errors import DegenerateDistributionError, ValidationError

SCHEMES = ("RAND", "BLEV", "SLEV", "IC", "RL", "PL")
DEFAULT_SLEV_ALPHA = 0.9

__all__ = ["SCHEMES", "DEFAULT_SLEV_ALPHA", "ProbabilityVector", "compute_probabilities"]


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A vector on the probability simplex tagged with its scheme.

    ``alpha`` is set only for SLEV. ``probs`` is a frozen copy of the
    vector given.
    """

    probs: np.ndarray
    scheme: str
    alpha: float | None = None

    def __post_init__(self):
        probs = as_array(self.probs, "probs")
        if probs.ndim != 1:
            raise ValidationError("probs must be a vector")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise ValidationError("probabilities must be finite and nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-10:
            raise ValidationError("probabilities must sum to 1 within 1e-10")
        set_fields(self, probs=probs)

    @property
    def n(self) -> int:
        return self.probs.shape[0]


def _normalized(raw: np.ndarray, what: str, out=None) -> np.ndarray:
    """``raw / raw.sum()``, into ``out`` where given; DegenerateDistributionError
    naming ``what`` where every weight is zero."""
    total = float(raw.sum())
    if total <= 0:
        raise DegenerateDistributionError(f"all {what} weights are zero")
    return np.divide(raw, total, out=out)


def slev_alpha(alpha: float | None) -> float:
    """The SLEV mixing weight: ``DEFAULT_SLEV_ALPHA`` for None, else in [0, 1]."""
    if alpha is not None and not _real(alpha):
        raise ValidationError(f"alpha must be a real number, got {alpha!r}")
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
    scheme = one_of(scheme, SCHEMES, "scheme", upper=True)
    if scheme != "SLEV" and alpha is not None:
        raise ValidationError("alpha is only meaningful for SLEV")
    if scheme == "SLEV":
        alpha = slev_alpha(alpha)

    n = of_type(data, Dataset, "data").n
    if scheme == "RAND":
        vector = np.full(n, 1.0 / n)
    elif scheme == "PL":
        exponent = pow2_exponent(data.design)
        if exponent >= -1023:
            squares = _squared_row_norms(data.design, 2.0**-exponent)
        else:
            # 2^-e overflows: a subnormal-scale design
            squares = _squared_row_norms(np.ldexp(data.design, -exponent))
        norms = np.sqrt(squares, out=squares)
        vector = _normalized(norms, "row-norm", out=norms)
    elif scheme == "IC":
        svd = factors(data).full_rank("scheme IC")
        # Rows of X (X'X)^{-1} are the rows of U diag(1/s) V', and V' is
        # orthogonal, so the norms come straight from the scaled U rows. Scaling
        # by s[-1] / s <= 1 instead of 1 / s keeps them finite at any column
        # scale, and keeps each squared norm at most the row's leverage, so
        # the leverage's zero-row verdict is theirs. Where U is formed, the
        # leverage is kept from the same spans.
        squares = svd.row_norms(svd.s[-1] / svd.s)
        full_rank_leverage(data, "scheme IC")  # all-zero rows would break the weighting later on
        ic_raw = np.sqrt(squares, out=squares)
        vector = _normalized(ic_raw, "inverse-covariance", out=ic_raw)
    elif scheme == "RL":
        root = np.sqrt(full_rank_leverage(data, "scheme RL"))  # the kept leverage is never written
        vector = _normalized(root, "root-leverage", out=root)
    else:
        vector = _normalized(full_rank_leverage(data, f"scheme {scheme}"), "leverage")
        if scheme == "SLEV":
            vector *= alpha
            vector += (1.0 - alpha) / n
    # alpha is None but for SLEV
    return trusted(ProbabilityVector, probs=vector, scheme=scheme, alpha=alpha)
