"""Determinant-proportional (volume) subset sampling.

Two variants:

* standard - a distribution over size-r subsets S of the rows with
  ``Pr(S) = det(X_S' X_S) / (C(n-p, r-p) det(X'X))``. Over the thin SVD
  X = U S V' that is ``det(U_S' U_S) / C(n-p, r-p)``, so the masses are
  taken on the rows of the dataset's one factorization. By Cauchy-Binet
  a draw is a size-p volume sample, the projection DPP with kernel U U'
  (Derezinski and Warmuth, 2017), plus r - p rows drawn uniformly from the
  rest; it is drawn so, exactly, at any n, in O(n p^2) a draw. The masses
  are enumerated only for tests, at n <= 20.
* leveraged (Derezinski, Warmuth and Hsu, 2018) - a distribution over
  ordered index sequences tau of length r with ``Pr(tau) proportional to
  det(sum_i x_i x_i'/q_i) prod_i q_i`` where ``q_i`` is leverage/p. Drawn
  exactly, at any n, by one rejection sampler from the i.i.d. proposal q.
  Over the thin SVD X = U S V' the determinant is ``det(S)^2`` times that
  of the whitened rows ``u_i / sqrt(q_i)``, each of squared norm exactly p,
  so by AM-GM it is at most ``r^p det(X'X)``. That bound is the exact
  maximum, reached where the whitened information matrix is r times the
  identity; it reads the dataset's one factorization, is invariant under
  any rescaling of the columns, and by Cauchy-Binet a proposal is accepted
  with probability exactly ``prod_{j<p} (1 - j/r)`` on every design; each
  batch proposes what that rate expects for the draws still missing.

Work is sized from the inputs: determinants are taken in blocks of about
``_BLOCK`` gathered floats (8 MB), the most a rejection batch proposes,
and standard draws in chunks whose (draws, n) temporaries hold at most
``_BLOCK`` floats. Both samplers are seeded and reproducible, and agree
with the enumerated distributions (that is the test surface).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import _FLOAT_BLOCK as _BLOCK  # index-gathered floats per block
from .core import (
    Dataset, Factorization, as_array, factors, full_rank_leverage, of_type, one_of, set_fields, subset_size
)
from .errors import CapacityError, DegenerateDistributionError, SamplingError, ValidationError
from .rng import SeedLike, derive_rng

__all__ = [
    "SubsetDistribution",
    "standard_volume_distribution",
    "leveraged_volume_distribution",
    "volume_sample",
]

VARIANTS = ("standard", "leveraged")
ENUMERATION_MAX_N = 20
LEVERAGED_ENUMERATION_LIMIT = 2_000_000
_REJECTION_PROPOSAL_BUDGET = 5_000_000
_RESIDUAL_RTOL = 2.0**-40  # a residual leverage at most this share of the row's leverage is rounding


@dataclass(frozen=True, eq=False)
class SubsetDistribution:
    """An explicit distribution over index subsets (or sequences).

    ``subsets`` is an (m, r) integer array, one candidate per row;
    ``masses`` the matching probabilities.
    """

    subsets: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        subsets = as_array(self.subsets, "subsets", np.intp)
        masses = as_array(self.masses, "masses")
        if subsets.ndim != 2 or masses.ndim != 1 or subsets.shape[0] != masses.shape[0]:
            raise ValidationError("subsets and masses must have matching leading length")
        if np.any(masses < 0):
            raise ValidationError("masses must be nonnegative")
        if abs(float(masses.sum()) - 1.0) > 1e-10:
            raise ValidationError("masses must sum to 1 within 1e-10")
        if not np.all(np.isfinite(masses)):
            raise ValidationError("masses must be finite")
        set_fields(self, subsets=subsets, masses=masses)


def _gram_logdets(source, index_rows: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """log det of the p x p information matrix of each index row, on the
    rows of ``source``, an n x p design or a ``Factorization``, for its U, in
    blocks of ``max(1, _BLOCK // (r p))`` index rows, half that where
    ``scale`` weights the rows, so that the scaled copy fits the block too.

    Determinants of PSD matrices: a sign <= 0 is rounding noise at zero,
    so those entries get -inf (mass 0).
    """
    m, r = index_rows.shape
    take = source.take if isinstance(source, Factorization) else source.__getitem__
    p = source.Vt.shape[1] if isinstance(source, Factorization) else source.shape[1]
    copies = 1 if scale is None else 2  # the gathered rows, and their scaled copy
    step = max(1, _BLOCK // (copies * r * p))
    out = np.empty(m)
    for lo in range(0, m, step):
        idx = index_rows[lo : lo + step]
        rows = take(idx)  # (step, r, p)
        scaled = rows if scale is None else rows * scale[idx][..., None]
        sign, logdet = np.linalg.slogdet(scaled.transpose(0, 2, 1) @ rows)
        out[lo : lo + step] = np.where(sign > 0, logdet, -np.inf)
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


def standard_volume_distribution(data: Dataset, r: int) -> SubsetDistribution:
    """Enumerate the exact subset distribution with determinant masses.

    Requires p <= r <= n <= 20 and a full-rank design. Masses are
    ``det(U_S' U_S) / C(n-p, r-p)`` on the rows of U from X = U S V'
    (``det(S)^2`` cancels), so by Cauchy-Binet the closed-form normalizer
    makes them sum to one without numerical renormalization; they are
    formed from log-determinants, and no scale of the design reaches them.
    """
    n, p = of_type(data, Dataset, "data").n, data.p
    if n > ENUMERATION_MAX_N:
        raise CapacityError(f"subset enumeration is capped at n={ENUMERATION_MAX_N}, got n={n}")
    r = subset_size(r, p, n)
    svd = factors(data).full_rank("standard volume sampling")

    subsets = np.array(list(combinations(range(n), r)), dtype=np.intp)
    log_denom = math.log(math.comb(n - p, r - p))
    return SubsetDistribution(subsets=subsets, masses=np.exp(_gram_logdets(svd, subsets) - log_denom))


def leveraged_volume_distribution(data: Dataset, r: int) -> SubsetDistribution:
    """Enumerate the exact leveraged-volume distribution over sequences.

    Mass of a sequence tau is proportional to
    ``det(sum_i x_{tau_i} x_{tau_i}' / q_{tau_i}) * prod_i q_{tau_i}`` with
    ``q = leverage/p``; the constant is fixed numerically, in log space
    relative to the largest weight. Bounded by ``n^r`` enumerated states.
    """
    n, p = of_type(data, Dataset, "data").n, data.p
    r = subset_size(r, p)
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
    """Sampler mapping uniforms in [0, 1) to indices drawn proportionally to ``weights``.

    A 2-D ``weights`` holds one weight row per draw: its sampler maps one
    uniform per row to an index into that row. No uniform below 1 lands
    past the last positive weight of its row, though the cumulative sum
    may round below 1 there.
    """
    cum = np.cumsum(weights / weights.sum(axis=-1, keepdims=True), axis=-1)
    if weights.ndim == 1:
        cum[np.flatnonzero(weights)[-1] :] = 1.0
        return lambda u: np.searchsorted(cum, u, side="right")
    last = weights.shape[1] - 1 - np.argmax(weights[:, ::-1] > 0, axis=1)
    return lambda u: np.minimum(np.count_nonzero(cum <= u[:, None], axis=1), last)


def _standard_draws(data: Dataset, r: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` exact standard volume draws, each a sorted row of r distinct indices.

    By Cauchy-Binet ``det(U_S' U_S) = sum_{T in S, |T| = p} det(U_T)^2``, so
    a draw is a size-p volume sample T plus r - p rows drawn uniformly from
    the other n - p: ``Pr(S) = sum_{T in S} det(U_T)^2 / C(n-p, r-p)``.
    T is the projection DPP with kernel U U', drawn by the chain rule: each
    of p picks takes a row with probability proportional to its residual
    leverage, the squared norm of its u_i off the directions picked so far,
    then adds that row's direction, orthonormalized by Gram-Schmidt twice.
    A residual below 0, or at rounding level, such as that of a duplicate
    of a picked row, is set to 0. The rest are the r - p smallest of n
    uniform keys over the rows not picked.

    Draws are taken ``max(1, _BLOCK // n)`` at a time, so each (draws, n)
    temporary holds at most ``_BLOCK`` floats; the cost is O(n p^2) a draw.
    """
    svd = factors(data).full_rank("standard volume sampling")
    lev, (n, p) = svd.leverage, data.design.shape
    floor = _RESIDUAL_RTOL * lev
    step = max(1, _BLOCK // n)
    out = np.empty((size, r), dtype=np.intp)
    for lo in range(0, size, step):
        picks = out[lo : lo + step]
        m = picks.shape[0]
        draws = np.arange(m)
        residual = np.tile(lev, (m, 1))
        basis = np.empty((m, p, p))
        for k in range(p):
            j = _inverse_cdf(residual)(rng.random(m))
            picks[:, k] = j
            v = svd.take(j)
            for _ in range(2):
                v -= np.einsum("mkp,mk->mp", basis[:, :k], np.einsum("mkp,mp->mk", basis[:, :k], v))
            basis[:, k] = v / np.linalg.norm(v, axis=1, keepdims=True)
            if k < p - 1:
                projection = svd.project(basis[:, k])
                residual -= np.square(projection, out=projection)
                residual[draws, j] = 0.0
                np.copyto(residual, 0.0, where=residual <= floor)
        if r > p:
            keys = rng.random((m, n))
            keys[draws[:, None], picks[:, :p]] = np.inf
            picks[:, p:] = np.argpartition(keys, r - p - 1, axis=1)[:, : r - p]
        picks.sort(axis=1)
    return out


def _leveraged_log_ratios(data: Dataset, inv_q: np.ndarray, proposals: np.ndarray) -> np.ndarray:
    """log of each proposal's acceptance probability: ``det(sum_k x_k x_k'/q_k)``
    over its exact bound ``r^p det(X'X)``, that is the log det minus
    ``log_bound = p log r + 2 sum log s``, with r = ``proposals.shape[1]``.

    Over X = U S V' that log det is ``2 sum log s`` plus the log det over
    the rows of U, so the ratio is taken there: ``2 sum log s`` cancels
    exactly, and the whitened information matrix is as well conditioned as
    the proposal allows, at any column scale. At most 0 up to rounding;
    -inf where the determinant vanishes.
    """
    return _gram_logdets(factors(data), proposals, inv_q) - data.p * math.log(proposals.shape[1])


def _leveraged_rejection(
    data: Dataset, r: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Exact leveraged-volume draws via rejection from the i.i.d. proposal q.

    A proposal is accepted with probability ``_leveraged_log_ratios``
    exponentiated, so accepted sequences follow the target exactly; the
    bound is the determinant's maximum, and the acceptance rate is
    ``prod_{j<p} (1 - j/r)`` on every design. Each batch proposes the
    sequences that rate expects for the draws still missing, at most one
    block of ``_BLOCK`` gathered floats and what is left of the budget.
    Only rows with ``q > 0`` are proposed.
    """
    q, inv_q = _leveraged_proposal(data)
    propose = _inverse_cdf(q)
    rate = math.prod(1.0 - j / r for j in range(data.p))
    step = max(1, _BLOCK // (r * data.p))
    collected: list[np.ndarray] = []
    used = got = 0
    while got < size:
        batch = min(step, _REJECTION_PROPOSAL_BUDGET - used)
        if size - got < batch * rate:  # so a rate that underflows to 0 is never divided by
            batch = math.ceil((size - got) / rate)
        if batch <= 0:
            raise SamplingError(
                f"rejection sampler accepted {got}/{size} draws within "
                f"{_REJECTION_PROPOSAL_BUDGET} proposals; at r={r}, p={data.p} a "
                f"proposal is accepted with probability {rate:.3g}"
            )
        proposals = propose(rng.random((batch, r))).astype(np.intp)
        keep = rng.random(batch) < np.exp(_leveraged_log_ratios(data, inv_q, proposals))
        collected.append(proposals[keep])
        used += batch
        got += collected[-1].shape[0]
    return np.concatenate(collected, axis=0)[:size]


def volume_sample(data: Dataset, r: int, variant: str, seed: SeedLike, size: int | None = None):
    """Draw from one of the two volume-sampling distributions.

    ``standard`` returns a sorted array of r distinct row indices, drawn
    as p chain-rule picks on the rows of U plus r - p rows uniformly from
    the rest; ``leveraged`` returns an ordered length-r sequence that may
    repeat indices, drawn by rejection. Both run at any n. Pass ``size``
    to get a (size, r) array of independent draws from one seeded stream.
    """
    one_of(variant, VARIANTS, "variant")
    rng = derive_rng(seed)
    one = size is None
    count = 1 if one else subset_size(size, 1, what="size")
    of_type(data, Dataset, "data")
    if variant == "standard":
        rows = _standard_draws(data, subset_size(r, data.p, data.n), rng, count)
    else:
        r = subset_size(r, data.p)
        if r <= 4 * data.p**2:
            warnings.warn(
                f"leveraged volume sampling is tuned for r > 4 p^2 (= {4 * data.p**2}); "
                f"got r={r}, proceeding anyway",
                UserWarning,
                stacklevel=2,
            )
        rows = _leveraged_rejection(data, r, rng, count)
    return rows[0] if one else rows
