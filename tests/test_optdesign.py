from itertools import combinations

import numpy as np
import pytest

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
