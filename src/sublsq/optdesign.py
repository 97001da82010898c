"""Deterministic subset selection driven by design-optimality criteria.

The three classical criteria score a candidate subset by a summary of the
inverse information matrix ``(X*'X*)^{-1}``: A = trace, D = determinant,
E = largest eigenvalue. Smaller is better for all three.

Selection strategies:

* ``iboss_select`` - per-column extremes: for each column in order, take
  the still-unselected rows with the smallest and largest values.
* ``greedy_select`` - grow a subset one row at a time. Until the subset
  spans all p directions, add the row with the largest component
  orthogonal to the current span (equivalently, the largest gain in the
  determinant of the growing Gram matrix); afterwards add the row that
  best improves the criterion.
* ``exchange_improve`` - repeat the best single in/out row swap while it
  improves the criterion by more than a relative 1e-10.

Candidates are scored in closed form from the current subset Gram matrix
G, factored once per step as G^{-1} = F F' (F from the eigendecomposition
of G), so a step costs O(n p^2) instead of one p x p eigendecomposition
per candidate. A greedy step adds a row x with d = x'G^{-1}x: the matrix
determinant lemma gives the D key log det G^{-1} - log(1 + d), and
Sherman-Morrison gives the A key, summed from positive terms so that no
digits cancel. An exchange swap is a rank-two update scored by Fedorov's
delta: with C = X_S G^{-1} X_out' for all (inside, outside) pairs, the
determinant ratio is (1 - d_out)(1 + d_in) + C^2, and for A the 2 x 2
Woodbury identity gives the new trace. Swaps are scored in blocks of
outgoing rows, about 2^20 keys at a time (at least one outgoing row's),
not all r (n - r) at once. E has no closed form, so E, and any step
whose G is singular by the rule the keys use or whose closed-form keys
are not finite, score every candidate Gram by its eigenvalues. For A and
D both routines first multiply the design by the power of two that puts
max|X| in [0.5, 1): this is exact, so picks are the same as on X, and
G^{-1} stays in range at any column scale.

All ties are broken toward the lowest row index (for a swap, the lowest
outgoing, then the lowest incoming row), so every routine is
deterministic. Candidates are ranked by the logarithm of their criterion,
so picks do not depend on the column scale while X'X stays in the normal
floating-point range; a subset whose Gram matrix X'X (of the design as
given) is singular or over- or underflows raises SingularSubsetError.
The reported value can under- or overflow at extreme scales while the
picks are right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, row_indices
from .errors import SingularSubsetError, ValidationError

CRITERIA = ("A", "D", "E")

__all__ = [
    "CRITERIA",
    "SubsetSelection",
    "criterion_value",
    "iboss_select",
    "greedy_select",
    "exchange_improve",
]

_EPS = float(np.finfo(np.float64).eps)
_SWAP_BLOCK = 1 << 20  # closed-form swap keys scored at once, 8 MB per temporary


@dataclass(frozen=True)
class SubsetSelection:
    """A set of distinct row indices with the criterion value it achieves."""

    indices: np.ndarray
    criterion: str
    value: float

    def __post_init__(self):
        idx = np.sort(row_indices(self.indices, distinct=True))
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)


def _eigen_keys(evals: np.ndarray, criterion: str) -> np.ndarray:
    """Log of the criterion of the inverse, from ascending eigenvalues.

    With eigenvalues l_1 <= ... <= l_p the keys are
    ``-log l_1 + log sum_i exp(log l_1 - log l_i)`` for A, ``-sum log l_i``
    for D and ``-log l_1`` for E, which neither under- nor overflow at any
    column scale. It is inf where the matrix is singular, that is unless
    l_1 > p eps max(l_p, 0), which NaN eigenvalues fail too.
    """
    singular = ~(evals[..., 0] > evals.shape[-1] * _EPS * np.maximum(evals[..., -1], 0.0))
    logs = np.log(np.where(singular[..., None], 1.0, evals))
    if criterion == "A":
        keys = -logs[..., 0] + np.log(np.sum(np.exp(logs[..., :1] - logs), axis=-1))
    elif criterion == "D":
        keys = -np.sum(logs, axis=-1)
    else:
        keys = -logs[..., 0]
    return np.where(singular, np.inf, keys)


def _batched_criterion(grams: np.ndarray, criterion: str) -> np.ndarray:
    """Log of the criterion of the inverse of each (p x p) matrix, by _eigen_keys.

    A matrix with a non-finite entry is zeroed, so scored inf (LAPACK may
    not converge on it).
    """
    finite = np.isfinite(grams).all(axis=(-2, -1))
    return _eigen_keys(np.linalg.eigvalsh(np.where(finite[..., None, None], grams, 0.0)), criterion)


def _subset_key(gram: np.ndarray, criterion: str) -> float:
    """The key of one subset's Gram matrix, or SingularSubsetError."""
    key = float(_batched_criterion(gram, criterion))
    if key == np.inf:
        raise SingularSubsetError(
            f"subset Gram matrix is singular or over- or underflows; criterion {criterion} is infinite"
        )
    return key


def _criterion_from_key(key: float) -> float:
    """The reported criterion value; it under- or overflows at extreme scales."""
    with np.errstate(over="ignore"):
        return float(np.exp(key))


def _gram(rows: np.ndarray) -> np.ndarray:
    """rows'rows without numpy's warnings: where it over- or underflows, _subset_key raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        return rows.T @ rows


def _closed_form_design(data: Dataset, criterion: str) -> np.ndarray:
    """The design that greedy and exchange score, for A and D rescaled by
    the power of two that puts max|X| in [0.5, 1).

    The rescale is exact except for entries so much smaller than max|X|
    that they become subnormal, and it keeps G^{-1} in range for the
    closed forms. E has none and keeps X: its eigenvalue keys tie exactly
    on integer designs, and a rescale can break those ties differently.
    """
    if criterion == "E":
        return data.design
    _, exponent = math.frexp(float(np.max(np.abs(data.design), initial=0.0)))
    return np.ldexp(data.design, -exponent)


def _plus_outer(gram: np.ndarray, x: np.ndarray) -> np.ndarray:
    """gram + x x' for a row x, stacked for every row of a matrix x.

    Where this over- or underflows, _batched_criterion scores the result
    inf and _subset_key raises, so numpy's warnings are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return gram + x[..., :, None] * x[..., None, :]


def _inverse_factor(gram: np.ndarray, criterion: str):
    """gram's key and, for A and D where it is finite, ``(mu, F)`` with
    gram^{-1} = F F' and mu the eigenvalues of gram^{-1}, else None.

    Both come from one eigendecomposition, so the closed forms are used
    exactly where _eigen_keys calls gram nonsingular. Row x then has
    x'gram^{-1}x = sum_j z_j^2 with z = x F, and x'gram^{-2}x = sum_j mu_j z_j^2.
    """
    finite = bool(np.isfinite(gram).all())
    lam, vecs = np.linalg.eigh(gram if finite else np.zeros_like(gram))
    key = float(_eigen_keys(lam, criterion))
    if criterion == "E" or key == np.inf:
        return key, None
    # 1/lam overflows where lam is subnormal; _swap_keys then finds non-finite keys
    with np.errstate(over="ignore"):
        return key, (1.0 / lam, vecs / np.sqrt(lam))


def _grown_keys(gram: np.ndarray, rows: np.ndarray, criterion: str) -> np.ndarray:
    """The key of gram + x x' for every row x of rows.

    D by the matrix determinant lemma, A by Sherman-Morrison; E, or a
    singular gram, by the eigenvalues of every enlarged Gram matrix. In
    greedy_select gram holds the largest rescaled row, of norm at least
    1/2, so where it is nonsingular mu stays below about 1e16, the closed
    forms are finite, and gram + x x' has at most twice gram's condition
    number, so the eigenvalue rule can call it singular only within that
    factor of its threshold.
    """
    key, inverse = _inverse_factor(gram, criterion)
    if inverse is None:
        return _batched_criterion(_plus_outer(gram, rows), criterion)
    mu, factor = inverse
    z2 = np.square(rows @ factor)
    d = z2.sum(axis=1)
    if criterion == "D":
        return key - np.log1p(d)
    # (1 + d) tr (G + xx')^{-1} = tr G^{-1} + sum_j z_j^2 sum_{k != j} mu_k, a sum
    # of positive terms, where tr G^{-1} - x'G^{-2}x / (1 + d) would cancel
    return np.log(mu.sum() + z2 @ ((1.0 - np.eye(mu.size)) @ mu)) - np.log1p(d)


def _swap_keys(key: float, mu: np.ndarray, zu: np.ndarray, zx: np.ndarray, criterion: str):
    """The key of G - u u' + x x' for every inside row u (result rows) and
    outside row x (result columns), given as zu = u F and zx = x F with G's
    key, mu and F from _inverse_factor; None where a ratio or an A
    numerator is not finite.

    D by Fedorov's determinant ratio (1 - d_u)(1 + d_x) + (u'G^{-1}x)^2, A
    by the 2 x 2 Woodbury identity. A swap whose ratio is not positive
    leaves a singular Gram matrix and gets key inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        c = zu @ zx.T
        du, dx = np.square(zu).sum(axis=1)[:, None], np.square(zx).sum(axis=1)
        ratio = (1.0 - du) * (1.0 + dx) + c * c
        finite = np.isfinite(ratio).all()
        ok = ratio > 0
        if criterion == "D":
            keys = key - np.log(np.where(ok, ratio, 1.0))
        else:
            qu, qx = (np.square(zu) @ mu)[:, None], np.square(zx) @ mu
            quc = (zu * mu) @ zx.T
            numerator = (du - 1.0) * qx - 2.0 * c * quc + (1.0 + dx) * qu
            finite &= np.isfinite(numerator).all()
            trace = mu.sum() + numerator / np.where(ok, ratio, 1.0)
            ok &= trace > 0
            keys = np.log(np.where(ok, trace, 1.0))
    return np.where(ok, keys, np.inf) if finite else None


def _best_swap(
    gram: np.ndarray, key: float, inverse, inside: np.ndarray, outside: np.ndarray, criterion: str
):
    """The lowest key of gram - u u' + x x' over the rows u of inside and x
    of outside, with the positions of u and x; ties go to the lowest u,
    then the lowest x. ``key`` and ``inverse`` are gram's, from _inverse_factor.

    Blocks of inside rows are scored by _swap_keys, about _SWAP_BLOCK keys
    at a time so that an exchange round's memory stays bounded. E, a block
    without finite closed forms, and every block when the best swap leaves
    a Gram matrix that _eigen_keys calls singular, by the eigenvalues of
    every swapped Gram matrix.
    """
    m = outside.shape[0]
    step = max(1, _SWAP_BLOCK // m)
    if inverse is not None:
        mu, factor = inverse
        with np.errstate(over="ignore", invalid="ignore"):  # _swap_keys checks the keys
            zu, zx = inside @ factor, outside @ factor
    best = (np.inf, 0, 0)
    for start in range(0, inside.shape[0], step):
        block = slice(start, start + step)
        keys = None if inverse is None else _swap_keys(key, mu, zu[block], zx, criterion)
        if keys is None:
            grams = (_plus_outer(gram - np.outer(u, u), outside) for u in inside[block])
            keys = np.array([_batched_criterion(g, criterion) for g in grams])
        k = int(np.argmin(keys))  # row-major: the first of equal keys
        if keys.flat[k] < best[0]:
            best = (float(keys.flat[k]), start + k // m, k % m)
    if inverse is not None and best[0] < np.inf:
        u, x = inside[best[1]], outside[best[2]]
        if _batched_criterion(_plus_outer(gram - np.outer(u, u), x), criterion) == np.inf:
            return _best_swap(gram, key, None, inside, outside, criterion)
    return best


def _check_indices(data: Dataset, indices) -> np.ndarray:
    idx = row_indices(indices, data.n, distinct=True)
    if idx.size < data.p:
        raise ValidationError(f"need at least p={data.p} rows, got {idx.size}")
    return idx


def criterion_value(data: Dataset, indices, criterion: str) -> float:
    """Evaluate one optimality criterion on the subset design.

    Raises SingularSubsetError when the subset's Gram matrix is singular
    or over- or underflows.
    """
    if criterion not in CRITERIA:
        raise ValidationError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    idx = _check_indices(data, indices)
    return _criterion_from_key(_subset_key(_gram(data.design[idx]), criterion))


def iboss_quota(r: int, p: int) -> int:
    """Rows IBOSS takes from each end of each of p columns, r/(2p);
    ValidationError unless r is a positive multiple of 2p."""
    if r < 2 * p or r % (2 * p) != 0:
        raise ValidationError(f"r must be a positive multiple of 2p={2 * p}, got {r}")
    return r // (2 * p)


def iboss_select(data: Dataset, r: int) -> SubsetSelection:
    """Select the per-column extreme rows, a fixed quota per column.

    Columns are processed left to right; each takes the r/(2p) smallest
    and r/(2p) largest not-yet-selected values, ties toward the lowest
    row index. Reported ``value`` is the D-criterion of the result.
    """
    n, p = data.n, data.p
    if r > n:
        raise ValidationError(f"r={r} exceeds n={n}")
    quota = iboss_quota(r, p)

    selected = np.zeros(n, dtype=bool)
    for j in range(p):
        for sign in (1.0, -1.0):
            pool = np.flatnonzero(~selected)
            vals = sign * data.design[pool, j]
            # stable sort on an index-ordered pool = lowest-index tie-break
            take = pool[np.argsort(vals, kind="stable")[:quota]]
            selected[take] = True
    idx = np.flatnonzero(selected)
    value = _criterion_from_key(_subset_key(_gram(data.design[idx]), "D"))
    return SubsetSelection(indices=idx, criterion="IBOSS", value=value)


def greedy_select(data: Dataset, r: int, criterion: str) -> SubsetSelection:
    """Grow a subset row by row, deterministically.

    The first p picks maximize the component orthogonal to the span of the
    rows chosen so far (starting from the largest-norm row), which also
    maximizes the determinant of the growing Gram matrix; every later pick
    minimizes the criterion of the enlarged subset.
    """
    if criterion not in CRITERIA:
        raise ValidationError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    n, p = data.n, data.p
    if r < p:
        raise ValidationError(f"r={r} must be at least p={p}")
    if r > n:
        raise ValidationError(f"r={r} exceeds n={n}")

    X = _closed_form_design(data, criterion)
    chosen: list[int] = []
    available = np.ones(n, dtype=bool)
    basis = np.zeros((p, 0))
    gram = np.zeros((p, p))
    residual_tol = max(n, p) * _EPS * float(np.max(np.einsum("ij,ij->i", X, X), initial=0.0))

    while len(chosen) < r:
        if basis.shape[1] < p:
            resid = X - (X @ basis) @ basis.T
            scores = np.einsum("ij,ij->i", resid, resid)
            scores[~available] = -np.inf
            best = int(np.argmax(scores))
            if scores[best] > residual_tol:
                direction = resid[best] / np.linalg.norm(resid[best])
                basis = np.column_stack([basis, direction])
        else:
            pool = np.flatnonzero(available)
            keys = _grown_keys(gram, X[pool], criterion)
            best = int(pool[np.argmin(keys)])
        chosen.append(best)
        available[best] = False
        gram = _plus_outer(gram, X[best])

    gram = np.zeros((p, p))
    for x in data.design[chosen]:
        gram = _plus_outer(gram, x)
    value = _criterion_from_key(_subset_key(gram, criterion))
    return SubsetSelection(indices=np.array(chosen), criterion=criterion, value=value)


def exchange_improve(data: Dataset, selection: SubsetSelection) -> SubsetSelection:
    """Refine a selection by repeated best single-row swaps.

    Each round scans every (inside, outside) pair, applies the swap with
    the lowest resulting criterion if it improves on the current value by
    relative 1e-10, and stops otherwise. Monotone descent over a finite
    set, so termination is guaranteed; the result never scores worse than
    the input, up to rounding where the subset Gram matrix is nearly
    singular.
    """
    if selection.criterion not in CRITERIA:
        raise ValidationError(
            f"exchange needs an A/D/E selection, got criterion {selection.criterion!r}"
        )
    idx = _check_indices(data, selection.indices)
    criterion = selection.criterion
    gram = _gram(data.design[idx])
    _subset_key(gram, criterion)
    X = _closed_form_design(data, criterion)
    inside = np.zeros(data.n, dtype=bool)
    inside[idx] = True

    accepted = np.inf
    while not inside.all():
        members, others = np.flatnonzero(inside), np.flatnonzero(~inside)
        current = X[members].T @ X[members]
        key, inverse = _inverse_factor(current, criterion)
        best, out_k, in_k = _best_swap(current, key, inverse, X[members], X[others], criterion)
        # a relative 1e-10 improvement of the criterion, on its log, over the
        # lower of the current key and the last accepted one: where rounding
        # makes the two disagree, keys still fall strictly, so the loop ends
        if best >= min(key, accepted) + math.log1p(-1e-10):
            break
        accepted = best
        out_i, in_i = members[out_k], others[in_k]
        inside[out_i], inside[in_i] = False, True
        u, x = data.design[out_i], data.design[in_i]
        with np.errstate(over="ignore", invalid="ignore"):  # _subset_key raises on these
            gram = gram - np.outer(u, u) + np.outer(x, x)

    return SubsetSelection(
        indices=np.flatnonzero(inside),
        criterion=criterion,
        value=_criterion_from_key(_subset_key(gram, criterion)),
    )
