import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublsq import (
    Dataset,
    SingularSubsetError,
    SubsetSelection,
    ValidationError,
    criterion_value,
    exchange_improve,
    greedy_select,
    iboss_select,
)
from sublsq.cli import main
from sublsq import optdesign
from sublsq.optdesign import (
    _batched_criterion,
    _best_swap,
    _grown_keys,
    _inverse_factor,
    _subset_key,
    _swap_keys,
)


def _design(rows):
    X = np.asarray(rows, dtype=float)
    return Dataset(design=X, response=np.zeros(len(X)))


def _direct_value(X, idx, criterion):
    """Oracle: literally invert the information matrix."""
    M_inv = np.linalg.inv(X[list(idx)].T @ X[list(idx)])
    if criterion == "A":
        return float(np.trace(M_inv))
    if criterion == "D":
        return float(np.linalg.det(M_inv))
    return float(np.max(np.linalg.eigvalsh(M_inv)))


def _brute_force_best(data, r, criterion):
    best_val, best_set = np.inf, None
    for S in combinations(range(data.n), r):
        try:
            v = criterion_value(data, S, criterion)
        except SingularSubsetError:
            continue
        if v < best_val:
            best_val, best_set = v, S
    return best_val, best_set


def test_criterion_identity_and_diag_examples():
    ident = _design(np.eye(2))
    assert criterion_value(ident, [0, 1], "A") == pytest.approx(2.0)
    assert criterion_value(ident, [0, 1], "D") == pytest.approx(1.0)
    assert criterion_value(ident, [0, 1], "E") == pytest.approx(1.0)
    diag = _design([[2.0, 0.0], [0.0, 1.0]])
    assert criterion_value(diag, [0, 1], "A") == pytest.approx(1.25)
    assert criterion_value(diag, [0, 1], "D") == pytest.approx(0.25)
    assert criterion_value(diag, [0, 1], "E") == pytest.approx(1.0)


def test_criterion_scaling_homogeneity():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 2))
    d1, dc = _design(X), _design(3.0 * X)
    idx = [0, 2, 5]
    c = 3.0
    assert criterion_value(dc, idx, "A") == pytest.approx(criterion_value(d1, idx, "A") / c**2)
    assert criterion_value(dc, idx, "E") == pytest.approx(criterion_value(d1, idx, "E") / c**2)
    assert criterion_value(dc, idx, "D") == pytest.approx(criterion_value(d1, idx, "D") / c**4)


def test_criterion_matches_direct_inverse():
    rng = np.random.default_rng(4)
    for _ in range(30):
        X = rng.standard_normal((8, 3))
        d = _design(X)
        idx = rng.choice(8, size=5, replace=False)
        for crit in "ADE":
            assert criterion_value(d, idx, crit) == pytest.approx(
                _direct_value(X, idx, crit), rel=1e-10
            )


def test_singular_subset_raises_distinct_error():
    d = _design([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularSubsetError):
        criterion_value(d, [0, 1], "D")  # two collinear rows
    with pytest.raises(ValidationError):
        criterion_value(d, [0, 0], "D")  # repeated index
    with pytest.raises(ValidationError):
        criterion_value(d, [0], "D")  # fewer than p rows


def test_iboss_univariate_example():
    d = _design([[3.0], [1.0], [4.0], [1.0], [5.0], [9.0], [2.0], [6.0]])
    sel = iboss_select(d, 2)
    assert sel.indices.tolist() == [1, 5]
    assert sel.criterion == "IBOSS"


def test_iboss_full_selection():
    d = _design([[3.0], [1.0], [4.0], [1.0]])
    assert iboss_select(d, 4).indices.tolist() == [0, 1, 2, 3]


def _iboss_oracle(X, r):
    """Literal restatement: per column, take the quota of smallest then
    largest not-yet-selected values, lowest index on ties."""
    n, p = X.shape
    quota = r // (2 * p)
    selected: list[int] = []
    for j in range(p):
        pool = [i for i in range(n) if i not in selected]
        for i in sorted(pool, key=lambda i: (X[i, j], i))[:quota]:
            selected.append(i)
        pool = [i for i in range(n) if i not in selected]
        for i in sorted(pool, key=lambda i: (-X[i, j], i))[:quota]:
            selected.append(i)
    return sorted(selected)


def test_iboss_matches_literal_oracle_with_ties():
    rng = np.random.default_rng(21)
    for trial in range(60):
        n = int(rng.integers(6, 30))
        p = int(rng.integers(1, 4))
        r = 2 * p * int(rng.integers(1, max(2, n // (2 * p)) + 1))
        r = min(r, (n // (2 * p)) * 2 * p)
        if r < 2 * p:
            continue
        # integer-valued designs make ties common
        X = rng.integers(-3, 4, size=(n, p)).astype(float)
        d = Dataset(design=X, response=np.zeros(n))
        assert iboss_select(d, r).indices.tolist() == _iboss_oracle(X, r)


def test_iboss_ignores_interior_rows():
    X = np.array([[9.0], [1.0], [5.0], [4.9], [5.1]])
    d = _design(X)
    base = iboss_select(d, 2).indices.tolist()
    augmented = _design(np.vstack([X, [[5.0]], [[4.8]]]))
    assert iboss_select(augmented, 2).indices.tolist() == base


def test_iboss_validation():
    d = _design([[1.0], [2.0], [3.0]])
    with pytest.raises(ValidationError):
        iboss_select(d, 4)  # r > n
    with pytest.raises(ValidationError):
        iboss_select(d, 3)  # not a multiple of 2p
    with pytest.raises(ValidationError):
        iboss_select(d, 1)


def test_greedy_univariate_example():
    d = _design([[1.0], [2.0], [3.0]])
    sel = greedy_select(d, 2, "D")
    assert sel.indices.tolist() == [1, 2]
    assert sel.value == pytest.approx(1 / 13)
    best_val, best_set = _brute_force_best(d, 2, "D")
    assert set(sel.indices.tolist()) == set(best_set)


def test_greedy_full_selection_equals_full_design():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((7, 2))
    d = _design(X)
    sel = greedy_select(d, 7, "A")
    assert sel.indices.tolist() == list(range(7))
    assert sel.value == pytest.approx(criterion_value(d, range(7), "A"), rel=1e-12)


def test_greedy_never_beats_bruteforce():
    rng = np.random.default_rng(13)
    for _ in range(25):
        X = rng.standard_normal((8, 2))
        d = _design(X)
        best_val, _ = _brute_force_best(d, 3, "D")
        sel = greedy_select(d, 3, "D")
        assert sel.value >= best_val * (1 - 1e-9)


def test_exchange_fixed_point_unchanged():
    d = _design([[1.0], [2.0], [3.0]])
    start = SubsetSelection(indices=np.array([1, 2]), criterion="D",
                            value=criterion_value(d, [1, 2], "D"))
    out = exchange_improve(d, start)
    assert out.indices.tolist() == [1, 2]
    assert out.value == pytest.approx(start.value)


def test_exchange_reaches_bruteforce_optimum():
    d = _design([[1.0], [2.0], [3.0]])
    start = SubsetSelection(indices=np.array([0, 1]), criterion="D",
                            value=criterion_value(d, [0, 1], "D"))
    out = exchange_improve(d, start)
    assert out.indices.tolist() == [1, 2]


def test_exchange_monotone_on_random_instances():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(5, 12))
        X = rng.standard_normal((n, 2))
        d = _design(X)
        r = int(rng.integers(2, n))
        idx = rng.choice(n, size=r, replace=False)
        try:
            v0 = criterion_value(d, idx, "A")
        except SingularSubsetError:
            continue
        out = exchange_improve(d, SubsetSelection(indices=idx, criterion="A", value=v0))
        assert out.value <= v0 * (1 + 1e-12)


def test_exchange_rejects_iboss_label():
    d = _design([[1.0], [2.0], [3.0]])
    sel = iboss_select(d, 2)
    with pytest.raises(ValidationError):
        exchange_improve(d, sel)


def test_greedy_exchange_match_rate_light():
    # small-scale version of the enumeration regression guard
    rng = np.random.default_rng(41)
    matched = 0
    total = 60
    for t in range(total):
        n = int(rng.integers(6, 11))
        p = int(rng.integers(1, 3))
        X = rng.standard_normal((n, p))
        d = _design(X)
        r = int(rng.integers(p, min(4, n) + 1))
        crit = "ADE"[t % 3]
        best_val, _ = _brute_force_best(d, r, crit)
        sel = exchange_improve(d, greedy_select(d, r, crit))
        assert sel.value >= best_val * (1 - 1e-9)
        if sel.value <= best_val * (1 + 1e-9):
            matched += 1
    assert matched / total >= 0.6


def test_scaling_leaves_argmin_unchanged():
    rng = np.random.default_rng(55)
    X = rng.standard_normal((7, 2))
    for crit in "ADE":
        _, s1 = _brute_force_best(_design(X), 3, crit)
        _, s2 = _brute_force_best(_design(4.2 * X), 3, crit)
        assert s1 == s2


@pytest.mark.parametrize("criterion", list("ADE"))
@pytest.mark.parametrize("scale", [1e-155, 1e-40, 1e40])
def test_selection_is_scale_invariant(scale, criterion):
    # every criterion is ranked by its logarithm: at these scales the
    # criterion itself over- or underflows (1/lambda overflows at 1e-155),
    # which once tied or reordered the candidates
    X = np.random.default_rng(2).standard_normal((100, 8))
    base = greedy_select(_design(X), 24, criterion)
    scaled = greedy_select(_design(scale * X), 24, criterion)
    assert np.array_equal(scaled.indices, base.indices)
    improved = exchange_improve(_design(X), base)
    assert improved.indices.tolist() != base.indices.tolist()
    assert np.array_equal(exchange_improve(_design(scale * X), scaled).indices, improved.indices)


_X12 = np.random.default_rng(3).standard_normal((12, 2))
SINGULAR_GRAM_DESIGNS = {
    "duplicate_column": np.column_stack([_X12[:, 0], _X12[:, 0]]),
    # LAPACK does not converge on this X'X, whose entries overflow
    "overflowing_gram": 1e160 * np.random.default_rng(3).standard_normal((24, 4)),
    "tiny": np.array([[1e-300, 2e-300], [3e-310, 1e-320], [5e-300, 1e-300], [1e-305, 4e-301]]),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(SINGULAR_GRAM_DESIGNS))
def test_singular_or_overflowing_gram_raises(name, tmp_path, capsys):
    # these once returned an "inf" or "nan" value with arbitrary rows
    X = SINGULAR_GRAM_DESIGNS[name]
    d = _design(X)
    r = 2 * d.p
    with pytest.raises(SingularSubsetError):
        iboss_select(d, r)
    for crit in "ADE":
        with pytest.raises(SingularSubsetError):
            criterion_value(d, range(r), crit)
        with pytest.raises(SingularSubsetError):
            greedy_select(d, r, crit)
        start = SubsetSelection(indices=np.arange(r), criterion=crit, value=1.0)
        with pytest.raises(SingularSubsetError):
            exchange_improve(d, start)

    path = tmp_path / f"{name}.csv"
    header = ",".join(f"x{j}" for j in range(d.p)) + ",y"
    rows = [",".join(repr(float(v)) for v in row) + ",1" for row in X]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    for method in ("iboss", "greedy", "exchange"):
        for crit in "ADE":
            code = main(["select", "--input", str(path), "--response", "y", "--method", method,
                         "--criterion", crit, "--r", str(r)])
            out = capsys.readouterr()
            assert code == 2 and out.out == "", (method, crit)
            assert "numerical failure" in out.err


def _reference_greedy(X, r, criterion):
    """greedy_select as it was before the closed forms: after the span phase,
    every enlarged Gram matrix of the unscaled design scored by its eigenvalues."""
    n, p = X.shape
    chosen = []
    available = np.ones(n, dtype=bool)
    basis = np.zeros((p, 0))
    gram = np.zeros((p, p))
    residual_tol = max(n, p) * np.finfo(float).eps * float(np.max(np.einsum("ij,ij->i", X, X)))
    while len(chosen) < r:
        if basis.shape[1] < p:
            resid = X - (X @ basis) @ basis.T
            scores = np.einsum("ij,ij->i", resid, resid)
            scores[~available] = -np.inf
            best = int(np.argmax(scores))
            if scores[best] > residual_tol:
                basis = np.column_stack([basis, resid[best] / np.linalg.norm(resid[best])])
        else:
            pool = np.flatnonzero(available)
            cand = X[pool]
            grams = gram[None, :, :] + cand[:, :, None] * cand[:, None, :]
            keys = _batched_criterion(grams, criterion)
            best = int(pool[np.argmin(keys)])
        chosen.append(best)
        available[best] = False
        gram = gram + np.outer(X[best], X[best])
    return sorted(chosen), math.exp(_subset_key(gram, criterion))


def _reference_exchange(X, indices, criterion):
    """exchange_improve as it was before the closed forms: every swapped Gram
    matrix scored by its eigenvalues, one outgoing row at a time."""
    current = set(indices)
    gram = X[indices].T @ X[indices]
    key = _subset_key(gram, criterion)
    while True:
        outside = np.array(sorted(set(range(len(X))) - current), dtype=np.intp)
        if outside.size == 0:
            break
        cand = X[outside]
        best_key, best_swap = key, None
        for out_i in sorted(current):
            base = gram - np.outer(X[out_i], X[out_i])
            grams = base[None, :, :] + cand[:, :, None] * cand[:, None, :]
            keys = _batched_criterion(grams, criterion)
            k = int(np.argmin(keys))
            if keys[k] < best_key:
                best_key, best_swap = float(keys[k]), (out_i, int(outside[k]))
        if best_swap is None or best_key >= key + math.log1p(-1e-10):
            break
        out_i, in_i = best_swap
        current.remove(out_i)
        current.add(in_i)
        gram = gram - np.outer(X[out_i], X[out_i]) + np.outer(X[in_i], X[in_i])
        key = best_key
    with np.errstate(over="ignore"):
        return sorted(current), float(np.exp(key))


@pytest.mark.parametrize("criterion", list("ADE"))
@pytest.mark.parametrize("n, p, r", [
    (n, p, r) for n in (30, 300, 2000) for p in (2, 5, 10) for r in (p + 1, 5 * p) if r <= n
])
def test_closed_form_scoring_matches_the_eigenvalue_reference(n, p, r, criterion):
    rng = np.random.default_rng(1000 * n + 10 * p + r)
    X = rng.standard_t(5, size=(n, p)) * rng.uniform(0.1, 10, size=p)
    d = _design(X)
    greedy = greedy_select(d, r, criterion)
    indices, value = _reference_greedy(X, r, criterion)
    assert greedy.indices.tolist() == indices
    assert greedy.value == pytest.approx(value, rel=1e-12)
    exchanged = exchange_improve(d, greedy)
    indices, value = _reference_exchange(X, greedy.indices, criterion)
    assert exchanged.indices.tolist() == indices
    assert exchanged.value == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("criterion", list("ADE"))
@pytest.mark.parametrize("p", [1, 3, 8])
def test_closed_form_keys_match_the_updated_grams(p, criterion):
    rng = np.random.default_rng(p)
    inside, outside = rng.standard_normal((3 * p, p)), rng.standard_normal((40, p))
    gram = inside.T @ inside
    key, inverse = _inverse_factor(gram, criterion)
    assert key == pytest.approx(float(_batched_criterion(gram, criterion)), rel=1e-12)
    assert (inverse is None) == (criterion == "E")
    grown = [_batched_criterion(gram + np.outer(x, x), criterion) for x in outside]
    np.testing.assert_allclose(_grown_keys(gram, outside, criterion), grown, rtol=1e-12, atol=1e-12)
    swapped = np.array([
        [_batched_criterion(gram - np.outer(u, u) + np.outer(x, x), criterion) for x in outside]
        for u in inside
    ])
    if inverse is not None:
        mu, factor = inverse
        keys = _swap_keys(key, mu, inside @ factor, outside @ factor, criterion)
        np.testing.assert_allclose(keys, swapped, rtol=1e-12, atol=1e-12)
    best, out_k, in_k = _best_swap(gram, key, inverse, inside, outside, criterion)
    assert best == pytest.approx(swapped.min(), rel=1e-12)
    assert swapped[out_k, in_k] == pytest.approx(swapped.min(), rel=1e-12)


@pytest.mark.parametrize("block", [1, optdesign._SWAP_BLOCK])
@pytest.mark.parametrize("criterion", list("ADE"))
def test_swap_ties_go_to_the_lowest_rows_in_every_block(criterion, block, monkeypatch):
    # rows 2k and 2k + 1 are equal, so swaps tie exactly on both sides;
    # with one outgoing row per block the first block's minimum must win
    monkeypatch.setattr(optdesign, "_SWAP_BLOCK", block)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 4))
        X = np.repeat(rng.standard_normal((15, p)), 2, axis=0)
        start = SubsetSelection(indices=np.arange(2 * p + 2), criterion=criterion, value=0.0)
        indices, value = _reference_exchange(X, start.indices, criterion)
        exchanged = exchange_improve(_design(X), start)
        assert exchanged.indices.tolist() == indices, seed
        assert exchanged.value == pytest.approx(value, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("criterion", ["A", "D"])
def test_selection_ends_without_warnings_at_the_singular_threshold(criterion):
    # two columns about 1e-8 apart put cond(G) near 1 / (p eps), where the
    # keys predicted for a swap and those of the rebuilt Gram matrix can
    # disagree on singularity; exchange must still stop, and without NaN keys
    for seed in range(40):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 5))
        X = rng.standard_normal((40, p))
        X[:, 1] = X[:, 0] + 10.0 ** rng.uniform(-8.5, -7.0) * rng.standard_normal(40)
        try:
            exchange_improve(_design(X), greedy_select(_design(X), p + 3, criterion))
        except SingularSubsetError:
            pass


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-150, 1e-154])
@pytest.mark.parametrize("criterion", ["A", "D"])
def test_exchange_matches_the_reference_where_the_closed_forms_fail(criterion, scale):
    # rows 0-15 far below the others, the start among them: closed-form keys
    # overflow for the large rows (A's at 1e-150, D's too at 1e-154), and at
    # 1e-150 D's best swap leaves a Gram matrix the eigenvalue rule calls singular
    rng = np.random.default_rng(0)
    X = np.vstack([scale * rng.standard_normal((16, 3)), rng.standard_normal((20, 3))])
    start = SubsetSelection(indices=np.arange(6), criterion=criterion, value=0.0)
    indices, _ = _reference_exchange(X, start.indices, criterion)
    assert exchange_improve(_design(X), start).indices.tolist() == indices


@settings(max_examples=40, deadline=None)
@given(
    criterion_p=st.sampled_from("ADE").flatmap(
        lambda c: st.tuples(st.just(c), st.integers(1, 20 if c == "E" else 60))
    ),
    exponent=st.integers(-100, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_selection_picks_are_invariant_under_any_column_scale(criterion_p, exponent, seed):
    criterion, p = criterion_p
    X = np.random.default_rng(seed).standard_normal((2 * p + 8, p))
    r = p + 1 + p // 2
    base, scaled = _design(X), _design(10.0**exponent * X)
    greedy = greedy_select(base, r, criterion)
    greedy_scaled = greedy_select(scaled, r, criterion)
    assert np.array_equal(greedy_scaled.indices, greedy.indices)
    assert np.array_equal(
        exchange_improve(scaled, greedy_scaled).indices, exchange_improve(base, greedy).indices
    )


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 60),
    quota=st.integers(1, 3),
    exponent=st.integers(-100, 100),
    seed=st.integers(0, 2**32 - 1),
)
def test_iboss_picks_are_invariant_under_any_column_scale(p, quota, exponent, seed):
    r = 2 * p * quota
    X = np.random.default_rng(seed).standard_normal((r + p + 8, p))
    picks = iboss_select(_design(X), r).indices
    assert np.array_equal(iboss_select(_design(10.0**exponent * X), r).indices, picks)
