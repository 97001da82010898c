"""Deterministic subset selection driven by design-optimality criteria.

The three classical criteria score a candidate subset by a summary of the
inverse information matrix ``(X*'X*)^{-1}``: A = trace, D = determinant,
E = largest eigenvalue. Smaller is better for all three.

Selection strategies:

* ``iboss_select`` - per-column extremes: for each column in order, take
  the still-unselected rows with the smallest and largest values, by one
  O(n) partition per column and sign, O(np) in all (Wang, Yang and
  Stufken, JASA 2019).
* ``greedy_select`` - grow a subset one row at a time. Until the subset
  spans all p directions, add the row with the largest component
  orthogonal to the current span (equivalently, the largest gain in the
  determinant of the growing Gram matrix); afterwards add the row that
  best improves the criterion.
* ``exchange_improve`` - repeat the best single in/out row swap while it
  improves the criterion by more than a relative 1e-10.

Candidates are scored in closed form from the current subset Gram matrix
G, factored as G^{-1} = F F' (F from the eigendecomposition of G), not by
one p x p eigendecomposition per candidate. A greedy step adds a row x
with d = x'G^{-1}x: the matrix determinant lemma gives the D key
log det G^{-1} - log(1 + d), and Sherman-Morrison gives the A key, summed
from positive terms so that no digits cancel, which needs G's eigenbasis:
an A pick factors G afresh and costs O(n p^2). D keeps d for every row,
and G^{-1}, formed from F where the closed forms start and then updated
by Sherman-Morrison after each pick (Fedorov 1972; Wynn 1970): a D pick
costs one product of the design with a p-vector, O(np), and a p x p
eigendecomposition of G for the rule below. An exchange swap is a
rank-two update scored by Fedorov's delta: with C = X_S G^{-1} X_out' for
all (inside, outside) pairs, the determinant ratio is
(1 - d_out)(1 + d_in) + C^2, and for A the 2 x 2 Woodbury identity gives
the new trace. Swaps are scored in blocks of outgoing rows, about 2^20
keys at a time (at least one outgoing row's), not all r (n - r) at once,
in buffers kept across rounds. E has no closed form, so E, and any step
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
Every routine reports the value that ``criterion_value`` gives for its
subset, bit for bit; it can under- or overflow at extreme scales while
the picks are right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _FLOAT_BLOCK as _SWAP_BLOCK  # closed-form swap keys scored at once
from .core import Dataset, of_type, one_of, pow2_exponent, row_indices, set_fields, subset_size
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


@dataclass(frozen=True, eq=False)
class SubsetSelection:
    """A set of distinct row indices with the criterion value it achieves."""

    indices: np.ndarray
    criterion: str
    value: float

    def __post_init__(self):
        set_fields(self, indices=np.sort(row_indices(self.indices, distinct=True)))


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


def _subset_value(data: Dataset, idx: np.ndarray, criterion: str) -> float:
    """The reported criterion value of the rows ``idx``, taken in sorted order,
    so every routine reports the same bits for the same subset; it under- or
    overflows at extreme scales, and SingularSubsetError where _subset_key raises."""
    rows = data.design[np.sort(idx)]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows.T @ rows
    key = _subset_key(gram, criterion)
    with np.errstate(over="ignore"):
        return float(np.exp(key))


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
    return np.ldexp(data.design, -pow2_exponent(data.design))


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


def _d_pick(X: np.ndarray, gram: np.ndarray, taken: np.ndarray, kept):
    """greedy_select's D pick after the span phase, the row not taken with
    the lowest key of gram + x x' (the first of equal keys), and the state
    for the next pick.

    ``kept`` is None or ``(inverse, d, work)``: gram^{-1} and d_i =
    x_i'gram^{-1}x_i for every row of X, formed as F F' and ||x_i F||^2 from
    _inverse_factor's F, then kept by Sherman-Morrison: adding row b with
    v = gram^{-1}x_b takes (X v)^2 / (1 + d_b) from d and v v' / (1 + d_b)
    from gram^{-1}, one product with X a pick; ``work`` is an n-vector to
    work in. Each pick still factors gram, a p x p eigendecomposition, so
    that the eigenvalue rule decides as in _grown_keys where gram is
    singular. There, or where a kept key is not finite, the pick is
    _grown_keys', and the state is formed afresh at the next pick whose
    gram is nonsingular.
    """
    key, inverse = _inverse_factor(gram, "D")
    if inverse is not None:
        if kept is None:
            factor = inverse[1]
            d = np.square(X @ factor).sum(axis=1)
            kept = factor @ factor.T, d, np.empty_like(d)
        ginv, d, keys = kept
        with np.errstate(over="ignore", invalid="ignore"):  # a key not finite is caught below
            np.subtract(key, np.log1p(d, out=keys), out=keys)
            keys[taken] = np.inf
            best = int(np.argmin(keys))  # the first of equal keys, or the first NaN
            if np.isfinite(keys[best]):
                v = ginv @ X[best]
                scale = 1.0 + d[best]
                projected = np.square(np.matmul(X, v, out=keys), out=keys)
                d -= np.divide(projected, scale, out=projected)
                ginv -= np.outer(v, v) / scale
                return best, kept
    pool = np.flatnonzero(~taken)
    return int(pool[np.argmin(_grown_keys(gram, X[pool], "D"))]), None


class _Buffers:
    """Arrays kept across an exchange's rounds, one per name, each handed
    out as a view of the shape asked for. A round's swap-key temporaries are
    r (n - r) floats a block, beyond glibc's mmap threshold at the sizes
    exchange meets, so fresh ones would be mapped and faulted in each round."""

    def __init__(self):
        self._kept = {}

    def __call__(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        kept = self._kept.get(name)
        if kept is None or kept.size < size:
            kept = self._kept[name] = np.empty(size, dtype)
        return kept[:size].reshape(shape)


def _swap_keys(key: float, mu: np.ndarray, zu: np.ndarray, zx: np.ndarray, criterion: str, buffers):
    """The key of G - u u' + x x' for every inside row u (result rows) and
    outside row x (result columns), given as zu = u F and zx = x F with G's
    key, mu and F from _inverse_factor; None where a ratio or an A
    numerator is not finite. Every (rows, columns) temporary is a view of
    ``buffers``, a _Buffers, and so is the result.

    D by Fedorov's determinant ratio (1 - d_u)(1 + d_x) + (u'G^{-1}x)^2, A
    by the 2 x 2 Woodbury identity. A swap whose ratio is not positive
    leaves a singular Gram matrix and gets key inf.
    """
    shape = (zu.shape[0], zx.shape[0])
    check, ok = buffers("check", shape, bool), buffers("ok", shape, bool)
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.matmul(zu, zx.T, out=buffers("c", shape))
        du, dx = np.square(zu).sum(axis=1)[:, None], np.square(zx).sum(axis=1)
        ratio = np.multiply(1.0 - du, 1.0 + dx, out=buffers("ratio", shape))
        # D reads c no more; A forms quc next in the buffer of c^2
        ratio += np.multiply(c, c, out=c if criterion == "D" else buffers("quc", shape))
        finite = np.isfinite(ratio, out=check).all()
        np.greater(ratio, 0, out=ok)
        np.copyto(ratio, 1.0, where=np.logical_not(ok, out=check))  # where(ok, ratio, 1)
        if criterion == "D":
            keys = np.subtract(key, np.log(ratio, out=ratio), out=ratio)
        else:
            qu, qx = (np.square(zu) @ mu)[:, None], np.square(zx) @ mu
            quc = np.matmul(zu * mu, zx.T, out=buffers("quc", shape))
            # (du - 1) qx - 2 c quc + (1 + dx) qu, one operation at a time
            numerator = np.multiply(du - 1.0, qx, out=buffers("numerator", shape))
            numerator -= np.multiply(np.multiply(2.0, c, out=c), quc, out=c)
            numerator += np.multiply(1.0 + dx, qu, out=c)
            finite &= np.isfinite(numerator, out=check).all()
            trace = np.add(mu.sum(), np.divide(numerator, ratio, out=numerator), out=numerator)
            ok &= np.greater(trace, 0, out=check)
            np.copyto(trace, 1.0, where=np.logical_not(ok, out=check))
            keys = np.log(trace, out=trace)
    if not finite:
        return None
    np.copyto(keys, np.inf, where=np.logical_not(ok, out=check))
    return keys


def _best_swap(
    gram: np.ndarray, key: float, inverse, inside: np.ndarray, outside: np.ndarray, criterion: str, buffers
):
    """The lowest key of gram - u u' + x x' over the rows u of inside and x
    of outside, with the positions of u and x; ties go to the lowest u,
    then the lowest x. ``key`` and ``inverse`` are gram's, from _inverse_factor;
    ``buffers`` is passed to _swap_keys.

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
        keys = None if inverse is None else _swap_keys(key, mu, zu[block], zx, criterion, buffers)
        if keys is None:
            grams = (_plus_outer(gram - np.outer(u, u), outside) for u in inside[block])
            keys = np.array([_batched_criterion(g, criterion) for g in grams])
        k = int(np.argmin(keys))  # row-major: the first of equal keys
        if keys.flat[k] < best[0]:
            best = (float(keys.flat[k]), start + k // m, k % m)
    if inverse is not None and best[0] < np.inf:
        u, x = inside[best[1]], outside[best[2]]
        if _batched_criterion(_plus_outer(gram - np.outer(u, u), x), criterion) == np.inf:
            return _best_swap(gram, key, None, inside, outside, criterion, buffers)
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
    of_type(data, Dataset, "data")
    one_of(criterion, CRITERIA, "criterion")
    return _subset_value(data, _check_indices(data, indices), criterion)


def iboss_select(data: Dataset, r: int) -> SubsetSelection:
    """Select the per-column extreme rows, a fixed quota per column.

    Columns are processed left to right; each takes the r/(2p) smallest
    and r/(2p) largest not-yet-selected values, ties toward the lowest
    row index (``-0.0 == 0.0``). Each (column, sign) step is one O(n)
    ``np.partition`` for the quota-th value, so the whole costs O(np).
    Reported ``value`` is the D-criterion of the result.
    ValidationError unless r <= n and r is a positive multiple of 2p.
    """
    of_type(data, Dataset, "data")
    n, p = data.n, data.p
    r = subset_size(r, 1, n)
    if r % (2 * p) != 0:
        raise ValidationError(f"r must be a positive multiple of 2p={2 * p}, got {r}")
    quota = r // (2 * p)

    taken = np.empty(0, dtype=np.intp)
    column, work, scratch = np.empty(n), np.empty(n), np.empty(n)
    for j in range(p):
        np.copyto(column, data.design[:, j])  # one strided read per column, not per sign
        for sign in (1.0, -1.0):
            np.multiply(column, sign, out=work)
            # at least quota rows are still finite, so no taken row reaches the cut
            work[taken] = np.inf
            np.copyto(scratch, work)
            scratch.partition(quota - 1)
            cut = scratch[quota - 1]
            # every row below the cut, then the lowest-index ties: a stable sort's first quota
            below = np.flatnonzero(work < cut)
            ties = np.flatnonzero(work == cut)[: quota - below.size]
            taken = np.concatenate([taken, below, ties])
    return SubsetSelection(indices=taken, criterion="IBOSS", value=_subset_value(data, taken, "D"))


def greedy_select(data: Dataset, r: int, criterion: str) -> SubsetSelection:
    """Grow a subset row by row, deterministically.

    The first p picks maximize the component orthogonal to the span of the
    rows chosen so far (starting from the largest-norm row), which also
    maximizes the determinant of the growing Gram matrix; every later pick
    minimizes the criterion of the enlarged subset.
    """
    of_type(data, Dataset, "data")
    one_of(criterion, CRITERIA, "criterion")
    n, p = data.n, data.p
    r = subset_size(r, p, n)

    X = _closed_form_design(data, criterion)
    chosen: list[int] = []
    taken = np.zeros(n, dtype=bool)
    basis = np.zeros((p, 0))
    gram = np.zeros((p, p))
    residual_tol = max(n, p) * _EPS * float(np.max(np.einsum("ij,ij->i", X, X), initial=0.0))
    kept = None  # _d_pick's state

    while len(chosen) < r:
        if basis.shape[1] < p:
            resid = X - (X @ basis) @ basis.T
            scores = np.einsum("ij,ij->i", resid, resid)
            scores[taken] = -np.inf
            best = int(np.argmax(scores))
            if scores[best] > residual_tol:
                direction = resid[best] / np.linalg.norm(resid[best])
                basis = np.column_stack([basis, direction])
        elif criterion == "D":
            best, kept = _d_pick(X, gram, taken, kept)
        else:
            pool = np.flatnonzero(~taken)
            keys = _grown_keys(gram, X[pool], criterion)
            best = int(pool[np.argmin(keys)])
        chosen.append(best)
        taken[best] = True
        gram = _plus_outer(gram, X[best])

    idx = np.array(chosen)
    return SubsetSelection(indices=idx, criterion=criterion, value=_subset_value(data, idx, criterion))


def exchange_improve(data: Dataset, selection: SubsetSelection) -> SubsetSelection:
    """Refine a selection by repeated best single-row swaps.

    Each round scans every (inside, outside) pair, applies the swap with
    the lowest resulting criterion if it improves on the current value by
    relative 1e-10, and stops otherwise. Monotone descent over a finite
    set, so termination is guaranteed; the result never scores worse than
    the input, up to rounding where the subset Gram matrix is nearly
    singular.
    """
    of_type(data, Dataset, "data")
    of_type(selection, SubsetSelection, "selection")
    criterion = one_of(selection.criterion, CRITERIA, "the criterion of an exchanged selection")
    idx = _check_indices(data, selection.indices)
    _subset_value(data, idx, criterion)
    X = _closed_form_design(data, criterion)
    inside = np.zeros(data.n, dtype=bool)
    inside[idx] = True

    accepted, buffers = np.inf, _Buffers()
    while not inside.all():
        members, others = np.flatnonzero(inside), np.flatnonzero(~inside)
        current = X[members].T @ X[members]
        key, inverse = _inverse_factor(current, criterion)
        best, out_k, in_k = _best_swap(current, key, inverse, X[members], X[others], criterion, buffers)
        # a relative 1e-10 improvement of the criterion, on its log, over the
        # lower of the current key and the last accepted one: where rounding
        # makes the two disagree, keys still fall strictly, so the loop ends
        if best >= min(key, accepted) + math.log1p(-1e-10):
            break
        accepted = best
        out_i, in_i = members[out_k], others[in_k]
        inside[out_i], inside[in_i] = False, True

    idx = np.flatnonzero(inside)
    return SubsetSelection(indices=idx, criterion=criterion, value=_subset_value(data, idx, criterion))
