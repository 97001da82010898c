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

All ties are broken toward the lowest row index, so every routine is
deterministic. Candidates are ranked by the logarithm of the D-criterion,
so selections do not depend on the column scale; the reported D value
itself can still under- or overflow at extreme scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset
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


@dataclass(frozen=True)
class SubsetSelection:
    """A set of distinct row indices with the criterion value it achieves."""

    indices: np.ndarray
    criterion: str
    value: float

    def __post_init__(self):
        idx = np.sort(np.ascontiguousarray(self.indices, dtype=np.intp))
        if idx.ndim != 1 or idx.size < 1:
            raise ValidationError("indices must be a nonempty vector")
        if np.any(idx < 0) or len(set(idx.tolist())) != idx.size:
            raise ValidationError("indices must be distinct and nonnegative")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @property
    def r(self) -> int:
        return self.indices.shape[0]


def _batched_criterion(grams: np.ndarray, criterion: str, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranking key of the inverse of each (p x p) matrix, and which are singular.

    The key is the criterion itself for A and E and its logarithm
    ``-sum log(eigenvalue)`` for D, which neither under- nor overflows
    at any column scale; it is inf where the matrix is singular.
    """
    evals = np.linalg.eigvalsh(grams)
    max_ev = evals[..., -1]
    min_ev = evals[..., 0]
    singular = min_ev <= p * _EPS * np.maximum(max_ev, 0.0)
    safe = np.where(singular[..., None], 1.0, evals)
    if criterion == "A":
        keys = np.sum(1.0 / safe, axis=-1)
    elif criterion == "D":
        keys = -np.sum(np.log(safe), axis=-1)
    else:
        keys = 1.0 / safe[..., 0]
    return np.where(singular, np.inf, keys), singular


def _criterion_from_key(key: float, criterion: str) -> float:
    """The reported criterion value; for D it under- or overflows at extreme scales."""
    if criterion != "D":
        return key
    with np.errstate(over="ignore"):
        return float(np.exp(key))


def _check_indices(data: Dataset, indices) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    if idx.size == 0:
        raise ValidationError("indices must be nonempty")
    if np.any(idx < 0) or np.any(idx >= data.n):
        raise ValidationError("indices out of range")
    if len(set(idx.tolist())) != idx.size:
        raise ValidationError("indices must be distinct")
    return idx


def criterion_value(data: Dataset, indices, criterion: str) -> float:
    """Evaluate one optimality criterion on the subset design.

    Raises SingularSubsetError when the subset is rank deficient (the
    criterion is infinite there, which is not a numeric overflow).
    """
    if criterion not in CRITERIA:
        raise ValidationError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    idx = _check_indices(data, indices)
    if idx.size < data.p:
        raise ValidationError(f"need at least p={data.p} rows, got {idx.size}")
    rows = data.design[idx]
    key, singular = _batched_criterion(rows.T @ rows, criterion, data.p)
    if singular:
        raise SingularSubsetError(
            f"subset of size {idx.size} is rank deficient; criterion {criterion} is infinite"
        )
    return _criterion_from_key(float(key), criterion)


def iboss_select(data: Dataset, r: int) -> SubsetSelection:
    """Select the per-column extreme rows, a fixed quota per column.

    Columns are processed left to right; each takes the r/(2p) smallest
    and r/(2p) largest not-yet-selected values, ties toward the lowest
    row index. Reported ``value`` is the D-criterion of the result.
    """
    n, p = data.n, data.p
    if r > n:
        raise ValidationError(f"r={r} exceeds n={n}")
    if r < 2 * p or r % (2 * p) != 0:
        raise ValidationError(f"r must be a positive multiple of 2p={2 * p}, got {r}")
    quota = r // (2 * p)

    selected = np.zeros(n, dtype=bool)
    for j in range(p):
        for sign in (1.0, -1.0):
            pool = np.flatnonzero(~selected)
            vals = sign * data.design[pool, j]
            # stable sort on an index-ordered pool = lowest-index tie-break
            take = pool[np.argsort(vals, kind="stable")[:quota]]
            selected[take] = True
    idx = np.flatnonzero(selected)
    rows = data.design[idx]
    key, _ = _batched_criterion(rows.T @ rows, "D", p)
    return SubsetSelection(indices=idx, criterion="IBOSS", value=_criterion_from_key(float(key), "D"))


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

    X = data.design
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
            cand = X[pool]
            grams = gram[None, :, :] + cand[:, :, None] * cand[:, None, :]
            keys, _ = _batched_criterion(grams, criterion, p)
            best = int(pool[np.argmin(keys)])
        chosen.append(best)
        available[best] = False
        gram = gram + np.outer(X[best], X[best])

    key, _ = _batched_criterion(gram, criterion, p)
    return SubsetSelection(
        indices=np.array(chosen), criterion=criterion, value=_criterion_from_key(float(key), criterion)
    )


def exchange_improve(data: Dataset, selection: SubsetSelection) -> SubsetSelection:
    """Refine a selection by repeated best single-row swaps.

    Each round scans every (inside, outside) pair, applies the swap with
    the lowest resulting criterion if it improves on the current value by
    relative 1e-10, and stops otherwise. Monotone descent over a finite
    set, so termination is guaranteed; the result never scores worse than
    the input.
    """
    if selection.criterion not in CRITERIA:
        raise ValidationError(
            f"exchange needs an A/D/E selection, got criterion {selection.criterion!r}"
        )
    idx = _check_indices(data, selection.indices)
    if idx.size < data.p:
        raise ValidationError(f"need at least p={data.p} rows")
    X = data.design
    p = data.p
    criterion = selection.criterion
    current = set(idx.tolist())
    gram = X[idx].T @ X[idx]
    key, singular = _batched_criterion(gram, criterion, p)
    if singular:
        raise SingularSubsetError("exchange requires a full-rank starting subset")
    key = float(key)

    while True:
        outside = np.array(sorted(set(range(data.n)) - current), dtype=np.intp)
        if outside.size == 0:
            break
        cand = X[outside]
        best_key = key
        best_swap: tuple[int, int] | None = None
        for out_i in sorted(current):
            base = gram - np.outer(X[out_i], X[out_i])
            grams = base[None, :, :] + cand[:, :, None] * cand[:, None, :]
            keys, _ = _batched_criterion(grams, criterion, p)
            k = int(np.argmin(keys))
            if keys[k] < best_key:
                best_key = float(keys[k])
                best_swap = (out_i, int(outside[k]))
        # a relative 1e-10 improvement of the criterion, on its key
        if criterion == "D":
            threshold = key + math.log1p(-1e-10)
        else:
            threshold = key * (1.0 - 1e-10)
        if best_swap is None or best_key >= threshold:
            break
        out_i, in_i = best_swap
        current.remove(out_i)
        current.add(in_i)
        gram = gram - np.outer(X[out_i], X[out_i]) + np.outer(X[in_i], X[in_i])
        key = best_key

    return SubsetSelection(
        indices=np.array(sorted(current)),
        criterion=criterion,
        value=_criterion_from_key(key, criterion),
    )
