"""Determinant-proportional (volume) subset sampling, exact at desk scale.

Two variants:

* standard - a distribution over size-r subsets S of the rows with
  ``Pr(S) = det(X_S' X_S) / (C(n-p, r-p) det(X'X))``. Sampled by
  enumerating every subset, so n is capped at 20.
* leveraged - a distribution over ordered index sequences tau of length r
  with ``Pr(tau) proportional to det(sum_i x_i x_i'/q_i) prod_i q_i`` where
  ``q_i`` is leverage/p. Enumerated when ``n^r`` is small enough, otherwise
  drawn exactly by rejection sampling from the i.i.d. proposal q.

Both samplers are seeded and reproducible, and agree with the enumerated
distributions (that is the test surface).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import Dataset, full_rank_leverage, full_rank_svd
from .errors import (
    CapacityError,
    DegenerateDistributionError,
    SamplingError,
    ValidationError,
)
from .rng import SeedLike, derive_rng

__all__ = [
    "SubsetDistribution",
    "standard_volume_distribution",
    "leveraged_volume_distribution",
    "volume_sample",
]

ENUMERATION_MAX_N = 20
LEVERAGED_ENUMERATION_LIMIT = 2_000_000
_DET_CHUNK = 65_536
_REJECTION_BATCH = 8_192
_REJECTION_PROPOSAL_BUDGET = 5_000_000


@dataclass(frozen=True)
class SubsetDistribution:
    """An explicit distribution over index subsets (or sequences).

    ``subsets`` is an (m, r) integer array, one candidate per row;
    ``masses`` the matching probabilities.
    """

    subsets: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        subsets = np.ascontiguousarray(self.subsets, dtype=np.intp)
        masses = np.ascontiguousarray(self.masses, dtype=np.float64)
        if subsets.ndim != 2 or masses.ndim != 1 or subsets.shape[0] != masses.shape[0]:
            raise ValidationError("subsets and masses must have matching leading length")
        if np.any(masses < 0):
            raise ValidationError("masses must be nonnegative")
        if abs(float(masses.sum()) - 1.0) > 1e-10:
            raise ValidationError("masses must sum to 1 within 1e-10")
        subsets.flags.writeable = False
        masses.flags.writeable = False
        object.__setattr__(self, "subsets", subsets)
        object.__setattr__(self, "masses", masses)


def _information(design: np.ndarray, index_rows: np.ndarray, scale: np.ndarray | None) -> np.ndarray:
    """The p x p information matrix of each index row, stacked."""
    rows = design[index_rows]  # (m, r, p)
    if scale is None:
        return np.einsum("mri,mrj->mij", rows, rows)
    return np.einsum("mri,mrj,mr->mij", rows, rows, scale[index_rows])


def _gram_logdets(design: np.ndarray, index_rows: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """log det of the p x p information matrix of each index row, chunked.

    Determinants of PSD matrices: a sign <= 0 is rounding noise at zero,
    so those entries get -inf (mass 0).
    """
    m = index_rows.shape[0]
    out = np.empty(m)
    for lo in range(0, m, _DET_CHUNK):
        hi = min(lo + _DET_CHUNK, m)
        sign, logdet = np.linalg.slogdet(_information(design, index_rows[lo:hi], scale))
        out[lo:hi] = np.where(sign > 0, logdet, -np.inf)
    return out


def _leveraged_proposal(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The i.i.d. proposal ``q = leverage/p`` of leveraged volume sampling, and ``1/q``.

    A nonzero row far smaller than the others (1e-180 times, say) can have
    a leverage that underflows. Where ``1/q`` would not be finite, ``q``
    and ``1/q`` are set to 0: the row is never proposed, and its target
    mass, of the order of its true ``q`` (below 1e-308), is dropped.
    """
    q = full_rank_leverage(data, "leveraged volume sampling") / data.p
    live = q > 1.0 / np.finfo(np.float64).max
    return np.where(live, q, 0.0), np.divide(1.0, q, out=np.zeros_like(q), where=live)


def check_enumerable(n: int) -> None:
    """CapacityError unless the subsets of n rows are few enough to enumerate."""
    if n > ENUMERATION_MAX_N:
        raise CapacityError(
            f"subset enumeration is capped at n={ENUMERATION_MAX_N}, got n={n}"
        )


def standard_volume_distribution(data: Dataset, r: int) -> SubsetDistribution:
    """Enumerate the exact subset distribution with determinant masses.

    Requires p <= r <= n <= 20 and a full-rank design. The closed-form
    normalizer ``C(n-p, r-p) det(X'X)`` makes the masses sum to one
    without numerical renormalization; masses are formed from
    log-determinants, so no row scale over- or underflows them.
    """
    n, p = data.n, data.p
    check_enumerable(n)
    if r < p:
        raise ValidationError(f"subset size r={r} must be at least p={p}")
    if r > n:
        raise ValidationError(f"subset size r={r} exceeds n={n}")
    full_rank_svd(data, "standard volume sampling")

    subsets = np.array(list(combinations(range(n), r)), dtype=np.intp)
    logdets = _gram_logdets(data.design, subsets)
    sign, log_full = np.linalg.slogdet(data.design.T @ data.design)
    if sign <= 0:
        raise DegenerateDistributionError("full-design determinant is not positive")
    log_denom = math.log(math.comb(n - p, r - p)) + float(log_full)
    return SubsetDistribution(subsets=subsets, masses=np.exp(logdets - log_denom))


def leveraged_volume_distribution(data: Dataset, r: int) -> SubsetDistribution:
    """Enumerate the exact leveraged-volume distribution over sequences.

    Mass of a sequence tau is proportional to
    ``det(sum_i x_{tau_i} x_{tau_i}' / q_{tau_i}) * prod_i q_{tau_i}`` with
    ``q = leverage/p``; the constant is fixed numerically, in log space
    relative to the largest weight. Bounded by ``n^r`` enumerated states.
    """
    n, p = data.n, data.p
    if r < p:
        raise ValidationError(f"sequence length r={r} must be at least p={p}")
    if n**r > LEVERAGED_ENUMERATION_LIMIT:
        raise CapacityError(
            f"sequence enumeration needs n^r <= {LEVERAGED_ENUMERATION_LIMIT}"
        )
    q, inv_q = _leveraged_proposal(data)

    m = n**r
    grid = np.unravel_index(np.arange(m), (n,) * r)
    sequences = np.stack(grid, axis=1).astype(np.intp)
    log_weights = _gram_logdets(data.design, sequences, scale=inv_q)
    log_weights += np.log(q, out=np.full_like(q, -np.inf), where=q > 0)[sequences].sum(axis=1)
    top = float(log_weights.max())
    if top == -math.inf:
        raise DegenerateDistributionError("all sequence determinants vanish")
    weights = np.exp(log_weights - top)
    return SubsetDistribution(subsets=sequences, masses=weights / weights.sum())


def _inverse_cdf(weights: np.ndarray):
    """Sampler mapping uniforms in [0, 1) to indices drawn proportionally to ``weights``."""
    cum = np.cumsum(weights / weights.sum())
    # so that no u < 1 lands past the last positive weight
    cum[np.flatnonzero(weights)[-1] :] = 1.0
    return lambda u: np.searchsorted(cum, u, side="right")


def _sample_rows(dist: SubsetDistribution, rng: np.random.Generator, size: int) -> np.ndarray:
    return dist.subsets[_inverse_cdf(dist.masses)(rng.random(size))]


def _warn_if_small_r(r: int, p: int) -> None:
    if r <= 4 * p * p:
        warnings.warn(
            f"leveraged volume sampling is tuned for r > 4 p^2 (= {4 * p * p}); "
            f"got r={r}, proceeding anyway",
            UserWarning,
            stacklevel=3,
        )


def _leveraged_rejection(
    data: Dataset, r: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Exact leveraged-volume draws via rejection from the i.i.d. proposal.

    The acceptance ratio is det(information matrix of tau) over the AM-GM
    bound ``(r * max_i ||x_i||^2 / q_i / p)^p``, which dominates every
    determinant, so accepted sequences follow the target exactly. The test
    runs in log space, so neither the bound nor a determinant over- or
    underflows at extreme row scales. The bound needs to cover only rows
    that can be proposed, those with ``q > 0``.
    """
    q, inv_q = _leveraged_proposal(data)
    row_sq = np.einsum("ij,ij->i", data.design, data.design)
    ratio = np.divide(row_sq, q, out=np.zeros_like(q), where=q > 0)
    log_bound = data.p * math.log(r * float(np.max(ratio)) / data.p)

    propose = _inverse_cdf(q)
    collected: list[np.ndarray] = []
    used = 0
    got = 0
    while got < size:
        batch = min(_REJECTION_BATCH, _REJECTION_PROPOSAL_BUDGET - used)
        if batch <= 0:
            raise SamplingError(
                f"rejection sampler accepted {got}/{size} draws within "
                f"{_REJECTION_PROPOSAL_BUDGET} proposals; the determinant bound "
                "is too loose for this design"
            )
        proposals = propose(rng.random((batch, r))).astype(np.intp)
        sign, logdet = np.linalg.slogdet(_information(data.design, proposals, inv_q))
        keep = (sign > 0) & (np.log(rng.random(batch)) <= logdet - log_bound)
        used += batch
        if np.any(keep):
            accepted = proposals[keep]
            collected.append(accepted)
            got += accepted.shape[0]
    return np.concatenate(collected, axis=0)[:size]


def volume_sample(
    data: Dataset,
    r: int,
    variant: str,
    seed: SeedLike,
    size: int | None = None,
    enumeration_limit: int = LEVERAGED_ENUMERATION_LIMIT,
):
    """Draw from one of the two volume-sampling distributions.

    ``standard`` returns a sorted array of r distinct row indices;
    ``leveraged`` returns an ordered length-r sequence that may repeat
    indices. Pass ``size`` to get a (size, r) array of independent draws
    from one seeded stream. ``enumeration_limit`` controls when the
    leveraged variant switches from enumeration to rejection sampling.
    """
    if variant not in ("standard", "leveraged"):
        raise ValidationError(f"variant must be 'standard' or 'leveraged', got {variant!r}")
    rng = derive_rng(seed)
    one = size is None
    count = 1 if one else int(size)
    if count < 1:
        raise ValidationError("size must be positive")

    if variant == "standard":
        dist = standard_volume_distribution(data, r)
        rows = _sample_rows(dist, rng, count)
    else:
        if r < data.p:
            raise ValidationError(f"sequence length r={r} must be at least p={data.p}")
        _warn_if_small_r(r, data.p)
        if data.n**r <= enumeration_limit:
            dist = leveraged_volume_distribution(data, r)
            rows = _sample_rows(dist, rng, count)
        else:
            rows = _leveraged_rejection(data, r, rng, count)
    return rows[0] if one else rows
