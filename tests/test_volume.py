import time
import tracemalloc
import warnings
from collections import Counter
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublsq import (
    CapacityError,
    Dataset,
    NumericalError,
    SamplingError,
    ValidationError,
    leveraged_volume_distribution,
    standard_volume_distribution,
    volume_sample,
)
from sublsq import volume
from sublsq.volume import LEVERAGED_ENUMERATION_LIMIT, _inverse_cdf


def _column_dataset(values):
    v = np.asarray(values, dtype=float)
    return Dataset(design=v[:, None], response=np.zeros(len(v)))


def _standard_oracle(X, r):
    """Brute force with explicit loops, no shared code with the library."""
    n, p = X.shape
    denom = comb(n - p, r - p) * np.linalg.det(X.T @ X)
    masses = {}
    for S in combinations(range(n), r):
        XS = X[list(S)]
        masses[S] = np.linalg.det(XS.T @ XS) / denom
    return masses


def _leveraged_oracle(X, r):
    n, p = X.shape
    G_inv = np.linalg.inv(X.T @ X)
    q = np.einsum("ij,jk,ik->i", X, G_inv, X) / p
    raw = {}
    for tau in product(range(n), repeat=r):
        A = np.zeros((p, p))
        w = 1.0
        for i in tau:
            A += np.outer(X[i], X[i]) / q[i]
            w *= q[i]
        raw[tau] = max(np.linalg.det(A), 0.0) * w
    total = sum(raw.values())
    return {k: v / total for k, v in raw.items()}


def _tv(draws, exact):
    counts = Counter(tuple(row) for row in np.atleast_2d(draws))
    m = sum(counts.values())
    keys = set(counts) | set(exact)
    return 0.5 * sum(abs(counts.get(k, 0) / m - exact.get(k, 0.0)) for k in keys)


def test_standard_column_example():
    d = _column_dataset([1.0, 2.0, 3.0])
    dist = standard_volume_distribution(d, 1)
    np.testing.assert_allclose(dist.masses, [1 / 14, 4 / 14, 9 / 14], atol=1e-12)


def test_standard_full_subset():
    d = _column_dataset([1.0, 2.0, 3.0])
    dist = standard_volume_distribution(d, 3)
    assert dist.subsets.shape == (1, 3)
    np.testing.assert_allclose(dist.masses, [1.0], atol=1e-12)
    idx = volume_sample(d, 3, "standard", 0)
    assert np.array_equal(idx, [0, 1, 2])


def test_standard_normalization_sweep():
    # the closed-form constant already normalizes: no renormalization happens
    rng = np.random.default_rng(17)
    for p in (1, 2, 3):
        for n in range(p + 1, 11):
            for r in range(p, n + 1):
                X = rng.standard_normal((n, p))
                d = Dataset(design=X, response=np.zeros(n))
                dist = standard_volume_distribution(d, r)
                assert abs(dist.masses.sum() - 1.0) <= 1e-10


def test_standard_matches_bruteforce_oracle():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 2))
    d = Dataset(design=X, response=np.zeros(6))
    dist = standard_volume_distribution(d, 3)
    oracle = _standard_oracle(X, 3)
    for subset, mass in zip(dist.subsets, dist.masses):
        assert abs(mass - oracle[tuple(subset)]) < 1e-12


def test_standard_sampler_tv_against_enumeration():
    d = _column_dataset([1.0, 2.0, 3.0])
    draws = volume_sample(d, 1, "standard", 11, size=100_000)
    exact = {(0,): 1 / 14, (1,): 4 / 14, (2,): 9 / 14}
    assert _tv(draws, exact) <= 0.02


def _standard_cases():
    rng = np.random.default_rng(47)
    zero_row = rng.standard_normal((9, 2))
    zero_row[4] = 0.0
    base = rng.standard_normal((6, 2))
    return {
        "p=1": (rng.standard_normal((8, 1)), 3),
        "r=p": (rng.standard_normal((7, 3)), 3),
        "r=n": (rng.standard_normal((7, 2)), 7),
        "zero_row": (zero_row, 4),
        "duplicated_rows": (base[[0, 1, 2, 3, 4, 5, 1, 3, 3]], 4),
        "columns_1_to_1e4": (rng.standard_normal((10, 3)) * [1, 1e2, 1e4], 5),
    }


@pytest.mark.parametrize("name", sorted(_standard_cases()))
def test_standard_sampler_matches_enumerated_masses(name):
    # Bound stated up front: over N = 200,000 draws the total variation from
    # the enumerated masses is at most 1.5 times the expected sampling TV of
    # an exact sampler, which is at most 0.5 * sqrt(2 / (pi * N)) * sum(sqrt(mass))
    # (0.0009 to 0.013 on these cases), plus 1e-12 of rounding in the masses.
    X, r = _standard_cases()[name]
    d = Dataset(design=X, response=np.zeros(X.shape[0]))
    dist = standard_volume_distribution(d, r)
    size = 200_000
    bound = 1.5 * 0.5 * np.sqrt(2 / (np.pi * size)) * np.sqrt(dist.masses).sum() + 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        draws = volume_sample(d, r, "standard", 53, size=size)
    exact = {tuple(s): m for s, m in zip(dist.subsets, dist.masses)}
    assert _tv(draws, exact) <= bound


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 4),
    extra=st.integers(0, 40),
    duplicates=st.integers(0, 20),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 30),
    r_share=st.floats(0, 1),
)
def test_standard_draws_are_sorted_distinct_full_rank_rows(p, extra, duplicates, data_seed, seed, size, r_share):
    rng = np.random.default_rng(data_seed)
    base = rng.standard_normal((p + extra, p)) * rng.choice([1.0, 1e-3, 1e4], size=p)
    X = np.vstack([base, base[rng.integers(0, base.shape[0], duplicates)]])
    n = X.shape[0]
    r = p + round(r_share * (n - p))
    draws = volume_sample(Dataset(design=X, response=np.zeros(n)), r, "standard", seed, size=size)
    assert draws.shape == (size, r)
    assert np.all(np.diff(draws, axis=1) > 0)
    assert draws.min() >= 0 and draws.max() < n
    # a rank-deficient subset has mass 0
    assert all(np.linalg.matrix_rank(X[rows]) == p for rows in draws)


def test_chunked_standard_draws_fill_every_row(monkeypatch):
    # chunks of 3 draws, the last one short: every row of the output is drawn
    X = np.random.default_rng(19).standard_normal((40, 3))
    monkeypatch.setattr(volume, "_BLOCK", 3 * 40)
    draws = volume_sample(Dataset(design=X, response=np.zeros(40)), 7, "standard", 2, size=10)
    assert draws.shape == (10, 7)
    assert np.all(np.diff(draws, axis=1) > 0) and draws.min() >= 0 and draws.max() < 40
    assert len({tuple(row) for row in draws}) == 10


def test_standard_subsample_estimate_is_unbiased():
    # Derezinski and Warmuth (2017): under volume sampling of any r >= p rows,
    # the least-squares fit on the subset is an unbiased estimate of the full
    # fit. Tolerance fixed up front: over N = 20,000 draws at n = 1,000,
    # p = 3, r = 2p, each coefficient's mean is within 5 standard errors
    # (its sample standard deviation over sqrt(N)) of the full fit.
    rng = np.random.default_rng(59)
    n, p, size = 1_000, 3, 20_000
    X = rng.standard_t(5, (n, p))
    y = X @ np.ones(p) + rng.standard_t(5, n)
    full = np.linalg.lstsq(X, y, rcond=None)[0]
    draws = volume_sample(Dataset(design=X, response=y), 2 * p, "standard", 61, size=size)
    XS, yS = X[draws], y[draws]
    betas = np.linalg.solve(XS.transpose(0, 2, 1) @ XS, (XS.transpose(0, 2, 1) @ yS[..., None]))[..., 0]
    stderr = betas.std(axis=0, ddof=1) / np.sqrt(size)
    assert np.all(np.abs(betas.mean(axis=0) - full) <= 5 * stderr)


def test_one_standard_draw_at_20000_by_10_is_quick_and_small():
    # subset enumeration once capped the standard variant at n = 20
    X = np.random.default_rng(0).standard_t(5, size=(20_000, 10))
    d = Dataset(design=X, response=np.zeros(20_000))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        draw = volume_sample(d, 1_000, "standard", 3)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draw.shape == (1_000,) and np.all(np.diff(draw) > 0)
    assert elapsed < 1.0
    assert peak < 64 * 2**20


def test_leveraged_enumeration_matches_oracle():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 2))
    d = Dataset(design=X, response=np.zeros(3))
    dist = leveraged_volume_distribution(d, 2)
    oracle = _leveraged_oracle(X, 2)
    for seq, mass in zip(dist.subsets, dist.masses):
        assert abs(mass - oracle[tuple(seq)]) < 1e-12


def test_leveraged_sampler_tv_against_enumeration():
    d = _column_dataset([1.0, 2.0, 3.0])
    oracle = _leveraged_oracle(d.design, 2)
    with pytest.warns(UserWarning):
        draws = volume_sample(d, 2, "leveraged", 23, size=100_000)
    assert _tv(draws, oracle) <= 0.02


def test_leveraged_rejection_path_tv():
    # the rejection sampler at desk scale, against enumeration
    rng = np.random.default_rng(6)
    X = rng.standard_normal((3, 2))
    d = Dataset(design=X, response=np.zeros(3))
    oracle = _leveraged_oracle(X, 2)
    with pytest.warns(UserWarning):
        draws = volume_sample(d, 2, "leveraged", 29, size=100_000)
    assert _tv(draws, oracle) <= 0.02


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_leveraged_rejection_is_scale_invariant(scale):
    # the target distribution does not depend on a global row scale, and
    # the log-space acceptance test neither overflows nor underflows
    X = np.random.default_rng(3).standard_normal((200, 2))
    base = volume_sample(Dataset(design=X, response=np.zeros(200)), 20, "leveraged", 5, size=30)
    scaled = volume_sample(
        Dataset(design=scale * X, response=np.zeros(200)), 20, "leveraged", 5, size=30
    )
    assert np.array_equal(scaled, base)


# One nonzero row far smaller than the others, in a full-rank design with
# no all-zero row: at 1e-156 its leverage is subnormal, so 1/q overflows;
# at 1e-180 it underflows to 0.
@pytest.mark.parametrize("row_scale", [1e-156, 1e-180])
def test_leveraged_rejection_with_underflowed_leverage_is_quick_and_quiet(row_scale):
    X = np.random.default_rng(0).standard_normal((200, 2))
    X[7] *= row_scale
    d = Dataset(design=X, response=np.zeros(200))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        t0 = time.perf_counter()
        draws = volume_sample(d, 20, "leveraged", 1, size=5)
        elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert draws.shape == (5, 20)
    assert not np.any(draws == 7)  # zero proposal mass, never proposed


@pytest.mark.parametrize(
    "row_scale, col_scale",
    [(1.0, 1.0), (1e-156, 1.0), (1e-180, 1.0), (1.0, 1e4)],
    ids=["1.0", "1e-156", "1e-180", "columns-1e4"],
)
def test_leveraged_rejection_matches_enumerated_masses(row_scale, col_scale):
    # n^r = 125 sequences, few enough to enumerate. Bound stated up front:
    # total variation <= 0.03 over 100,000 draws, against an expected
    # sampling TV of about 0.5 * sqrt(2 / (pi * N)) * sum(sqrt(mass)) <= 0.012.
    n, r = 5, 3
    assert n**r <= LEVERAGED_ENUMERATION_LIMIT
    X = np.random.default_rng(31).standard_normal((n, 2))
    X[2] *= row_scale
    X[:, 1] *= col_scale
    d = Dataset(design=X, response=np.zeros(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dist = leveraged_volume_distribution(d, r)
        with pytest.warns(UserWarning, match="r > 4 p"):
            draws = volume_sample(d, r, "leveraged", 37, size=100_000)
    exact = {tuple(s): m for s, m in zip(dist.subsets, dist.masses)}
    if row_scale != 1.0:
        # row 2's leverage underflows: it has no mass and is never drawn
        assert all(m == 0.0 for s, m in exact.items() if 2 in s)
        assert not np.any(draws == 2)
    assert _tv(draws, exact) <= 0.03


def _bound_designs():
    rng = np.random.default_rng(41)
    x = rng.standard_normal(300)
    tiny = rng.standard_normal((200, 2))
    tiny[7] *= 1e-156
    return {
        "gaussian": (rng.standard_normal((500, 3)), 40),
        "column_scaled": (rng.standard_t(5, (2000, 5)) * [1, 10, 100, 1e3, 1e4], 50),
        "nearly_collinear": (
            np.column_stack([x, x + 1e-3 * rng.standard_normal(300), rng.standard_normal(300)]),
            30,
        ),
        "tiny_row": (tiny, 20),
    }


@pytest.mark.parametrize("name", sorted(_bound_designs()))
def test_leveraged_rejection_bound_is_the_exact_maximum(name):
    # Bounds stated up front. (1) Every proposal's log det, computed directly
    # on the rows of X, is at most log_bound = p log r + 2 sum log s plus
    # 1e-8 of rounding (the nearly collinear X has cond 2e3, so its raw
    # information matrices lose about cond^2 eps), and the sampler's own log
    # ratio, taken on the whitened rows, is at most 1e-12. (2) The mean acceptance
    # probability over 20,000 proposals is within 0.02 of prod_{j<p} (1 - j/r)
    # (its standard error is at most 0.5 / sqrt(20,000) = 0.0036).
    X, r = _bound_designs()[name]
    n, p = X.shape
    data = Dataset(design=X, response=np.zeros(n))
    q, inv_q = volume._leveraged_proposal(data)
    proposals = _inverse_cdf(q)(np.random.default_rng(43).random((20_000, r)))
    log_ratios = volume._leveraged_log_ratios(data, inv_q, proposals)
    rows = X[proposals]
    _, logdet = np.linalg.slogdet(np.einsum("mri,mrj,mr->mij", rows, rows, inv_q[proposals]))
    log_bound = p * np.log(r) + 2 * np.sum(np.log(np.linalg.svd(X, compute_uv=False)))
    assert np.max(logdet - log_bound) <= 1e-8
    assert np.max(log_ratios) <= 1e-12
    expected = np.prod([1 - j / r for j in range(p)])
    assert abs(float(np.mean(np.exp(log_ratios))) - expected) <= 0.02


def test_column_scaled_leveraged_draw_is_quick_and_quiet():
    # columns 1e4 apart once drove the acceptance rate to about 0, and the
    # draw raised SamplingError after 5,000,000 proposals (about 40 s)
    X = np.random.default_rng(0).standard_normal((500, 3)) * [1, 1e2, 1e4]
    d = Dataset(design=X, response=np.zeros(500))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        t0 = time.perf_counter()
        draws = volume_sample(d, 40, "leveraged", 1, size=5)
        elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert draws.shape == (5, 40)


def test_one_leveraged_draw_at_20000_by_10_is_quick_and_small():
    # r = 1,000 > 4 p^2: the regime the sampler is tuned for. A fixed batch
    # of 8,192 proposals, gathered 65,536 at a time, once took 4.8 s and
    # raised peak RSS by 750 MB for this one draw.
    X = np.random.default_rng(0).standard_t(5, size=(20_000, 10))
    d = Dataset(design=X, response=np.zeros(20_000))
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        draw = volume_sample(d, 1_000, "leveraged", 3)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draw.shape == (1_000,)
    assert elapsed < 1.0
    assert peak < 64 * 2**20


def _scored_batches(monkeypatch):
    """The proposal count of every batch that ``_leveraged_log_ratios`` scores."""
    batches = []
    score = volume._leveraged_log_ratios

    def counting(data, inv_q, proposals):
        batches.append(proposals.shape[0])
        return score(data, inv_q, proposals)

    monkeypatch.setattr(volume, "_leveraged_log_ratios", counting)
    return batches


@pytest.mark.parametrize("block", [None, 400])
def test_rejection_batches_follow_the_acceptance_rate(monkeypatch, block):
    # at p = 2, r = 20 a proposal is accepted with probability 0.95, so a
    # single draw needs about one; a fixed batch once scored 8,192
    if block is not None:
        monkeypatch.setattr(volume, "_BLOCK", block)
    batches = _scored_batches(monkeypatch)
    X = np.random.default_rng(3).standard_normal((200, 2))
    d = Dataset(design=X, response=np.zeros(200))
    rows = max(1, volume._BLOCK // (20 * 2))
    one = volume_sample(d, 20, "leveraged", 5)
    assert one.shape == (20,)
    assert sum(batches) < 64
    batches.clear()
    many = volume_sample(d, 20, "leveraged", 5, size=200)
    assert many.shape == (200, 20)
    assert max(batches) <= rows
    assert sum(batches) < 300


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("block", [1, 6 * 3, 7 * 6 * 3 + 5])
def test_blocked_gram_logdets_have_the_bits_of_one_call(monkeypatch, block, scaled):
    # every C(16, 6) subset, in blocks of 1, 1 and 7 index rows
    X = np.random.default_rng(12).standard_t(4, size=(16, 3))
    scale = np.linspace(0.5, 3.0, 16) if scaled else None
    subsets = np.array(list(combinations(range(16), 6)), dtype=np.intp)
    monkeypatch.setattr(volume, "_BLOCK", subsets.size * 3)
    whole = volume._gram_logdets(X, subsets, scale)
    monkeypatch.setattr(volume, "_BLOCK", block)
    np.testing.assert_array_equal(volume._gram_logdets(X, subsets, scale), whole)


def test_exhausted_budget_states_the_acceptance_rate(monkeypatch):
    # at r = p = 10 a proposal is accepted with probability 10! / 10^10
    monkeypatch.setattr(volume, "_REJECTION_PROPOSAL_BUDGET", 8_192)
    X = np.random.default_rng(2).standard_normal((60, 10))
    d = Dataset(design=X, response=np.zeros(60))
    with pytest.raises(SamplingError, match=r"at r=10, p=10 a proposal is accepted with probability 0\.000363"):
        with pytest.warns(UserWarning):
            volume_sample(d, 10, "leveraged", 0, size=100)


def test_inverse_cdf_never_returns_a_trailing_zero_weight():
    # cumsum of ten tenths rounds to 1 - 2^-53, below the top uniform
    weights = np.array([0.1] * 10 + [0.0])
    sample = _inverse_cdf(weights)
    top = np.nextafter(1.0, 0.0)
    assert sample(np.array([0.0, 0.5, top])).tolist() == [0, 5, 9]


def test_two_dimensional_inverse_cdf_never_returns_a_trailing_zero_weight():
    # one weight row per draw, each with its own trailing zeros; the top
    # uniform lands on the last positive weight of its row
    weights = np.array([
        [0.1] * 10 + [0.0, 0.0],
        [0.0, 0.1] + [0.1] * 8 + [0.1, 0.0],
        [0.0, 0.0] + [0.1] * 10,
        [0.0, 3.0, 0.0, 1.0] + [0.0] * 8,
    ])
    sample = _inverse_cdf(weights)
    top = np.nextafter(1.0, 0.0)
    assert sample(np.full(4, top)).tolist() == [9, 10, 11, 3]
    assert sample(np.zeros(4)).tolist() == [0, 1, 2, 1]
    rows = np.random.default_rng(67).random((4, 12)) * (weights > 0)
    u = np.random.default_rng(71).random((1000, 4))
    for k in range(4):
        # the same index as the one-row sampler, row by row
        assert np.array_equal(
            np.array([_inverse_cdf(rows)(v)[k] for v in u]), _inverse_cdf(rows[k])(u[:, k])
        )


def test_permutation_equivariance():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((6, 2))
    perm = np.array([3, 0, 5, 1, 4, 2])
    d1 = Dataset(design=X, response=np.zeros(6))
    d2 = Dataset(design=X[perm], response=np.zeros(6))
    m1 = {tuple(s): v for s, v in zip(*[standard_volume_distribution(d1, 3).subsets,
                                        standard_volume_distribution(d1, 3).masses])}
    inv = np.empty(6, dtype=int)
    inv[perm] = np.arange(6)
    dist2 = standard_volume_distribution(d2, 3)
    for subset, mass in zip(dist2.subsets, dist2.masses):
        original = tuple(sorted(perm[i] for i in subset))
        assert abs(mass - m1[original]) < 1e-12


def test_small_r_warns_but_proceeds():
    d = _column_dataset([1.0, 2.0, 3.0])
    with pytest.warns(UserWarning, match="r > 4 p"):
        volume_sample(d, 2, "leveraged", 0)


def test_capacity_and_validation_errors():
    rng = np.random.default_rng(1)
    big = Dataset(design=rng.standard_normal((25, 2)), response=np.zeros(25))
    with pytest.raises(CapacityError):
        standard_volume_distribution(big, 5)
    d = _column_dataset([1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        standard_volume_distribution(Dataset(design=np.ones((3, 2)) + np.arange(3)[:, None],
                                             response=np.zeros(3)), 1)  # r < p
    with pytest.raises(ValidationError):
        volume_sample(d, 1, "systematic", 0)


def test_rank_deficient_rejected():
    X = np.ones((4, 2))
    d = Dataset(design=X, response=np.zeros(4))
    with pytest.raises(NumericalError):
        standard_volume_distribution(d, 2)
    with pytest.raises(NumericalError):
        with pytest.warns(UserWarning):
            volume_sample(d, 2, "leveraged", 0)


def test_seeded_reproducibility():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((8, 2))
    d = Dataset(design=X, response=np.zeros(8))
    a = volume_sample(d, 3, "standard", 71, size=20)
    b = volume_sample(d, 3, "standard", 71, size=20)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_enumerated_masses_are_scale_invariant(scale):
    # masses come from log-determinants, so neither det(X'X) nor a
    # subset determinant over- or underflows
    X = np.random.default_rng(5).standard_normal((8, 2))
    for distribution in (standard_volume_distribution, leveraged_volume_distribution):
        base = distribution(Dataset(design=X, response=np.zeros(8)), 3).masses
        scaled = distribution(Dataset(design=scale * X, response=np.zeros(8)), 3).masses
        np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-10)
        assert abs(float(scaled.sum()) - 1.0) <= 1e-10


# Both variants' laws are invariant under X -> 10^e X. Scaling by 10^e is
# not exact in floating point, so the scaled design's numbers may differ in
# the last bits; at e in [-100, 100] the worst relative gaps seen were
# 1.6e-13 (masses), 8e-15 (q) and 2.4e-12 (log ratios), well inside this.
SCALE_RTOL = 1e-10
_SCALE_X = np.random.default_rng(5).standard_normal((8, 2))
_SCALE_XL = np.random.default_rng(3).standard_normal((200, 2))
_SCALE_PROPOSALS = np.random.default_rng(4).integers(0, 200, size=(64, 20))


def _leveraged_law_parts(X):
    d = Dataset(design=X, response=np.zeros(X.shape[0]))
    q, inv_q = volume._leveraged_proposal(d)
    return q, volume._leveraged_log_ratios(d, inv_q, _SCALE_PROPOSALS)


@settings(max_examples=40, deadline=None)
@given(exponent=st.floats(min_value=-100, max_value=100))
def test_both_volume_variants_are_scale_invariant(exponent):
    c = 10.0**exponent
    base = standard_volume_distribution(Dataset(design=_SCALE_X, response=np.zeros(8)), 3)
    scaled = standard_volume_distribution(Dataset(design=c * _SCALE_X, response=np.zeros(8)), 3)
    assert np.array_equal(scaled.subsets, base.subsets)
    np.testing.assert_allclose(scaled.masses, base.masses, rtol=SCALE_RTOL, atol=0)
    base_q, base_ratios = _leveraged_law_parts(_SCALE_XL)
    q, ratios = _leveraged_law_parts(c * _SCALE_XL)
    np.testing.assert_allclose(q, base_q, rtol=SCALE_RTOL, atol=0)
    assert np.all(np.isfinite(base_ratios)) and np.all(base_ratios <= 0)
    np.testing.assert_allclose(ratios, base_ratios, rtol=SCALE_RTOL, atol=0)
