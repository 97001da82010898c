import copy
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sublsq import (
    Dataset,
    DegenerateDistributionError,
    NumericalError,
    RankError,
    ValidationError,
    avar_matrix,
    compute_probabilities,
    core,
    draw,
    greedy_select,
    iboss_select,
    leverage_scores,
    leveraged_volume_distribution,
    ols_fit,
    run_emse,
    standard_volume_distribution,
    trace_amse,
    volume_sample,
    weighted_ls_fit,
)
from sublsq.asymptotics import TARGETS, AsymptoticVariance, regularity_diagnostics, sigma2_estimate
from sublsq.optdesign import SubsetSelection, criterion_value
from sublsq.probs import ProbabilityVector
from sublsq.sampler import SubsampleDraw, alias_table_of
from sublsq.volume import SubsetDistribution
from sublsq.bench import SyntheticSpec, generate_synthetic
from sublsq.core import _ROW_BLOCK, EstimateResult, pow2_exponent, trusted

from conftest import gaussian_dataset


def test_ols_identity_design():
    d = Dataset(design=np.eye(2), response=np.array([3.0, 4.0]))
    fit = ols_fit(d)
    np.testing.assert_allclose(fit.beta, [3.0, 4.0], atol=1e-12)
    assert fit.rank == 2


def test_ols_exact_line(line_dataset):
    # y = 1 + x holds exactly at every point, so the residual must vanish
    fit = ols_fit(line_dataset)
    np.testing.assert_allclose(fit.beta, [1.0, 1.0], atol=1e-10)
    assert fit.residual_ss < 1e-20


def test_ols_rank_deficient_minimum_norm():
    # Rank-1 system: solutions are b1 + b2 = 2; the shortest one is (1, 1)
    d = Dataset(design=np.array([[1.0, 1.0], [1.0, 1.0]]), response=np.array([2.0, 2.0]))
    fit = ols_fit(d)
    np.testing.assert_allclose(fit.beta, [1.0, 1.0], atol=1e-12)
    assert fit.rank == 1


def test_ols_rejects_nonfinite():
    with pytest.raises(ValidationError):
        Dataset(design=np.array([[1.0], [np.nan]]), response=np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        Dataset(design=np.array([[1.0], [2.0]]), response=np.array([0.0, np.inf]))


def test_ols_minimizes_objective():
    rng = np.random.default_rng(31)
    d = gaussian_dataset(7, 60, 4)
    beta = ols_fit(d).beta
    base = np.sum((d.response - d.design @ beta) ** 2)
    for _ in range(50):
        delta = rng.standard_normal(4)
        delta *= 1e-3 / np.linalg.norm(delta)
        perturbed = np.sum((d.response - d.design @ (beta + delta)) ** 2)
        assert perturbed >= base


def test_weighted_uniform_equals_ols():
    for seed in range(20):
        d = gaussian_dataset(seed, 40, 3)
        b_ols = ols_fit(d).beta
        b_w = weighted_ls_fit(d, np.ones(d.n)).beta
        np.testing.assert_allclose(b_w, b_ols, rtol=1e-10)


def test_weighted_constant_weights_invariance():
    d = gaussian_dataset(5, 30, 3)
    b1 = weighted_ls_fit(d, np.ones(d.n)).beta
    b2 = weighted_ls_fit(d, np.full(d.n, 7.5)).beta
    np.testing.assert_allclose(b1, b2, rtol=1e-10)


def test_weighted_two_point_example():
    # minimize 2 b^2 + (3 - b)^2  =>  6b = 6  =>  b = 1
    d = Dataset(design=np.array([[1.0], [1.0]]), response=np.array([0.0, 3.0]))
    fit = weighted_ls_fit(d, np.array([2.0, 1.0]))
    np.testing.assert_allclose(fit.beta, [1.0], atol=1e-12)


@pytest.mark.parametrize("bad", [[0.0, 1.0], [-1.0, 1.0], [np.nan, 1.0], [np.inf, 1.0]])
def test_weighted_rejects_bad_weights(bad):
    d = Dataset(design=np.array([[1.0], [2.0]]), response=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        weighted_ls_fit(d, np.array(bad))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fits_raise_where_the_residual_sum_of_squares_overflows():
    # the fits once returned residual_ss = inf after an overflow warning
    X = np.column_stack([np.ones(4), [1.0, 2.0, 3.0, 4.0]])
    d = Dataset(design=X, response=np.array([1e200, -1e200, 1e200, -1e200]))
    with pytest.raises(NumericalError, match="residual sum of squares"):
        ols_fit(d)
    with pytest.raises(NumericalError, match="residual sum of squares"):
        weighted_ls_fit(d, np.ones(4))
    # a weight that overflows the rescaled design once gave beta = 0 and rank 0
    d = Dataset(design=[[1e200, 1], [1, 2], [3, 1]], response=[1, 2, 3])
    with pytest.raises(NumericalError, match="^the weighted design overflows at this scale$"):
        weighted_ls_fit(d, [1e300, 1, 1])


def test_leverage_line_example(line_dataset):
    # oracle: the diagonal of X (X'X)^{-1} X' formed explicitly
    X = line_dataset.design
    H = X @ np.linalg.inv(X.T @ X) @ X.T
    scores = leverage_scores(line_dataset)
    np.testing.assert_allclose(scores, np.diag(H), atol=1e-12)
    np.testing.assert_allclose(scores, [5 / 6, 1 / 3, 5 / 6], atol=1e-12)


def test_leverage_univariate_formula():
    # simple-regression oracle: h_i = 1/n + (x_i - xbar)^2 / sum (x_j - xbar)^2
    rng = np.random.default_rng(11)
    x = rng.standard_normal(25)
    d = Dataset(design=np.column_stack([np.ones(25), x]), response=np.zeros(25))
    expect = 1 / 25 + (x - x.mean()) ** 2 / np.sum((x - x.mean()) ** 2)
    np.testing.assert_allclose(leverage_scores(d), expect, atol=1e-12)


def test_leverage_sum_and_range():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 120))
        p = int(rng.integers(1, min(n, 8)))
        d = gaussian_dataset(seed + 1000, n, p)
        scores = leverage_scores(d)
        assert abs(scores.sum() - p) <= 1e-8
        assert np.all(scores > 0) and np.all(scores < 1)


def test_leverage_orthonormal_rows_equal():
    # orthonormal columns with equal-norm rows: every score is p/n
    n, p = 8, 2
    blocks = np.vstack([np.eye(p)] * (n // p)) / np.sqrt(n // p)
    d = Dataset(design=blocks, response=np.zeros(n))
    np.testing.assert_allclose(leverage_scores(d), np.full(n, p / n), atol=1e-12)


def test_residual_variance_identity_monte_carlo():
    # residuals e = (I - H) eps, so var(e_i) = (1 - h_ii) sigma^2;
    # checked against an explicitly formed hat matrix over 40000 draws
    rng = np.random.default_rng(2)
    n, p, sigma = 25, 3, 1.3
    X = rng.standard_normal((n, p))
    d = Dataset(design=X, response=np.zeros(n))
    h = leverage_scores(d)
    H = X @ np.linalg.inv(X.T @ X) @ X.T
    eps = sigma * rng.standard_normal((40_000, n))
    resid = eps - eps @ H.T
    emp = resid.var(axis=0, ddof=1)
    np.testing.assert_allclose(emp, (1 - h) * sigma**2, rtol=0.05)


def test_dataset_shape_validation():
    with pytest.raises(ValidationError):
        Dataset(design=np.ones((3, 2)), response=np.ones(4))
    with pytest.raises(ValidationError):
        Dataset(design=np.ones((0, 2)), response=np.ones(0))


def test_results_are_frozen(line_dataset):
    fit = ols_fit(line_dataset)
    with pytest.raises(ValueError):
        fit.beta[0] = 99.0
    with pytest.raises(ValueError):
        line_dataset.design[0, 0] = 99.0


def test_array_holding_results_compare_and_hash_by_identity(line_dataset):
    # a generated __eq__ once compared their arrays, raising numpy's ValueError,
    # and a generated __hash__ raised TypeError
    data = line_dataset
    pv = compute_probabilities(data, "BLEV")
    results = (
        data,
        ols_fit(data),
        pv,
        draw(pv, 3, 0),
        greedy_select(data, 2, "D"),
        standard_volume_distribution(data, 2),
        avar_matrix(data, pv, 3, 1.0),
    )
    assert Dataset(data.design, data.response) != data
    for obj in results:
        assert obj == obj and obj in [obj]
        assert obj not in [copy.copy(obj)]
        assert hash(obj) == hash(obj)


def _student_t(seed, n, p):
    return np.random.default_rng(seed).standard_t(5, size=(n, p))


def _designed_condition(n, p, cond, seed=0):
    rng = np.random.default_rng(seed)
    A, _ = np.linalg.qr(rng.standard_normal((n, p)))
    B, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return (A * np.logspace(0, -np.log10(cond), p)) @ B


CHOLESKY_PATH_DESIGNS = {
    "student_t_p2": lambda: _student_t(2, 10_000, 2),
    "student_t_p10": lambda: _student_t(10, 5_000, 10),
    "student_t_p50": lambda: _student_t(50, 2_000, 50),
    # one Cholesky pass leaves Q about 1e-8 from orthogonal here; two must not
    "condition_1e4": lambda: _designed_condition(5_000, 10, 1e4),
}


@pytest.mark.parametrize("name", sorted(CHOLESKY_PATH_DESIGNS))
def test_cholesky_path_matches_lapack_svd(name):
    X = CHOLESKY_PATH_DESIGNS[name]()
    p = X.shape[1]
    assert core._cholesky_qr2_svd(X) is not None
    svd = core.thin_svd(X)
    U, s, Vt, rank = svd.U, svd.s, svd.Vt, svd.rank
    U0, s0, _ = np.linalg.svd(X, full_matrices=False)
    assert rank == p
    lev, lev0 = np.einsum("ij,ij->i", U, U), np.einsum("ij,ij->i", U0, U0)
    np.testing.assert_allclose(lev, lev0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(s, s0, rtol=1e-13, atol=0)
    np.testing.assert_allclose(U.T @ U, np.eye(p), rtol=0, atol=1e-13)
    np.testing.assert_allclose((U * s) @ Vt, X, rtol=0, atol=1e-12 * np.abs(X).max())


# The first four pass the size gate, so a guard must decline them.
FALLBACK_DESIGNS = {
    "duplicated_column": lambda: _student_t(1, 5_000, 4)[:, [0, 1, 2, 3, 3]],
    "condition_1e8": lambda: _designed_condition(5_000, 5, 1e8),
    "scale_1e200": lambda: _student_t(2, 5_000, 5) * 1e200,
    "scale_1e-200": lambda: _student_t(3, 5_000, 5) * 1e-200,
    "below_size_gate_1000x2": lambda: _student_t(4, 1_000, 2),
    "below_size_gate_8191x2": lambda: _student_t(4, 8_191, 2),
    "too_wide_500x200": lambda: _student_t(4, 500, 200),
}


@pytest.mark.parametrize("name", sorted(FALLBACK_DESIGNS))
def test_declined_designs_get_lapack_svd_bits(name):
    X = FALLBACK_DESIGNS[name]()
    assert core._cholesky_qr2_svd(X) is None
    svd = core.thin_svd(X)
    U, s, Vt = svd.U, svd.s, svd.Vt
    U0, s0, Vt0 = np.linalg.svd(X, full_matrices=False)
    assert np.array_equal(U, U0) and np.array_equal(s, s0) and np.array_equal(Vt, Vt0)


# (n, p, q): a remainder alone, whole blocks alone, both, B in two column
# tiles (32 + 18), and at p = 1,000 more blocks (37 of 8 rows) than one
# group of products holds (32), in two tiles
@pytest.mark.parametrize("n, p, q", [(5, 3, 1), (1638, 10, 0), (1639, 10, 10), (4097, 50, 50), (300, 1000, 40)])
def test_row_products_equal_the_unblocked_product(n, p, q):
    A = _student_t(n + p, n, p)
    B = _student_t(q, n, q) if q else A[:, 0] + 1.0  # q = 0: an n-vector
    np.testing.assert_allclose(core._row_products(A, B), A.T @ B, rtol=1e-12, atol=1e-12 * n)


@pytest.mark.parametrize("p", [2, 10, 50])
@pytest.mark.parametrize("n", [4095, 4096, 4097, 12289])
def test_cholesky_path_forms_u_with_the_bits_of_one_product(monkeypatch, n, p):
    # The record keeps the design, not U: U is formed from it a span of rows
    # at a time, in spans of as near equal lengths as can be (one below
    # n = 4096), and every row has the bits of one whole product of X and the
    # record's map. Both Grams are summed by the one kernel of every product
    # over the rows, Q1'Q1 over the spans of Q1, and the leverage is read off
    # the spans of U.
    monkeypatch.setattr(core, "CHOLQR_MIN_ENTRIES", 0)  # so the p = 2 designs take the path too
    X = _student_t(n + p, n, p)
    r1 = np.linalg.cholesky(core._row_products(X, X)).T
    q1 = X @ np.linalg.inv(r1)
    k = max(1, n // core._SPAN)  # spans of as near equal lengths as can be
    bounds = [i * (n // k) + min(i, n % k) for i in range(k + 1)]
    r2 = np.linalg.cholesky(sum(core._row_products(q1[a:b], q1[a:b]) for a, b in zip(bounds, bounds[1:]))).T
    ur, _, _ = np.linalg.svd(r2 @ r1)
    svd = core.thin_svd(X)
    assert svd.basis.base is X
    (W,) = svd.maps  # well conditioned: one map, W = R1^-1 R2^-1 Ur
    assert np.array_equal(W, np.linalg.inv(r1) @ (np.linalg.inv(r2) @ ur))
    U = X @ W
    assert np.array_equal(svd.U, U) and not svd.U.flags.writeable
    assert np.array_equal(svd.leverage, np.einsum("ij,ij->i", U, U))


def test_thin_svd_of_a_tall_design_holds_one_n_by_p_array():
    # that array is the design itself: the record keeps p x p maps beside
    # it, and forms U and Q1 a span of rows at a time, each in one reused
    # buffer, so thin_svd and then the leverage (8 bytes a row) make no
    # temporary longer than a span, and little beside it
    X = _student_t(16, 200_000, 10)
    assert core._cholesky_qr2_svd(X) is not None
    n, p = X.shape
    span = -(-n // (n // core._SPAN)) * p * X.itemsize  # the longest span's buffer
    tracemalloc.start()
    try:
        svd = core.thin_svd(X)
        factored = tracemalloc.get_traced_memory()[1]
        lev = svd.leverage
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svd.basis.base is X
    assert factored < 2 * span
    assert peak < lev.nbytes + 2 * span


def test_tall_design_is_factored_fit_and_scored_in_a_quarter_of_its_bytes():
    # U was once kept whole beside the design, as many bytes again
    data = generate_synthetic(
        SyntheticSpec(n=200_000, p=10, design_family="student_t", beta0=(1.0,) * 10, noise_sd=1.0, df=5.0), 3
    )
    assert core._cholesky_qr2_svd(data.design) is not None
    tracemalloc.start()
    try:
        svd = core.factors(data)
        svd.leverage
        ols_fit(data)
        probs = compute_probabilities(data, "IC")
        svd.weighted_gram(probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * data.design.nbytes


@pytest.mark.parametrize("cond, maps", [(5e2, 1), (1e4, 2)])
def test_design_read_fits_and_amse_keep_their_accuracy(cond, maps):
    # U is formed from the design, and the fit's U'y reads X through
    # W = V S^-1, at a cost of the order of cond(X)^2 eps; so does the
    # weighted Gram up to cond 1e3, where U is X times one map, and it reads
    # Q1 = X R1^-1 beyond, where U is Q1 times a second
    X = _designed_condition(5_000, 10, cond)
    n, p = X.shape
    y = X @ np.arange(1.0, p + 1) + np.random.default_rng(4).standard_normal(n)
    data = Dataset(design=X, response=y)
    assert len(core.factors(data).maps) == maps
    want = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.linalg.norm(ols_fit(data).beta - want) <= 1e-10 * np.linalg.norm(want)
    probs = compute_probabilities(data, "IC")
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    sigma2 = sigma2_estimate(data)
    restated = sigma2 * np.sum(s**-2.0 * (1.0 + np.einsum("ik,i->k", U * U, 1.0 / probs.probs) / 500))
    assert trace_amse(data, probs, 500, sigma2, "beta") == pytest.approx(restated, rel=1e-8, abs=0)


WEIGHTED_GRAM_DESIGNS = {
    # cond 1e6 is past the Cholesky path: LAPACK's U is kept
    "kept_u": (lambda: _designed_condition(10_000, 4, 1e6), 0),
    "one_map": (lambda: _student_t(21, 10_000, 4), 1),
    "two_maps": (lambda: _designed_condition(10_000, 4, 1e4), 2),
}


@pytest.mark.parametrize("name", sorted(WEIGHTED_GRAM_DESIGNS))
def test_weighted_gram_has_the_bits_of_its_blocked_restatement(name):
    # Y' diag(1/pi) Y summed by the one row kernel over 4,096-row views of a
    # kept U or of X, or over the spans of Q1 past cond 1e3, then t' (G t)
    build, maps = WEIGHTED_GRAM_DESIGNS[name]
    X = build()
    data = Dataset(design=X, response=np.zeros(len(X)))
    svd = core.factors(data)
    assert len(svd.maps) == maps
    probs = compute_probabilities(data, "BLEV")
    pi = probs.probs[:, None]
    n = len(X)
    if maps == 2:
        k = n // core._SPAN
        bounds = [i * (n // k) + min(i, n % k) for i in range(k + 1)]
        blocks = [(a, X[a:b] @ svd.maps[0]) for a, b in zip(bounds, bounds[1:])]
    else:
        blocks = [(a, svd.basis[a : a + _ROW_BLOCK]) for a in range(0, n, _ROW_BLOCK)]
    assert len(blocks) > 2
    gram = sum(core._row_products(Y, Y / pi[a : a + len(Y)]) for a, Y in blocks)
    if maps:
        t = svd.maps[-1]
        gram = core._row_products(t, core._row_products(gram.T, t))
    assert np.array_equal(svd.weighted_gram(probs), gram)


def test_blev_draws_on_cholesky_path_are_pinned():
    # recorded before the Cholesky path existed, when gesdd factored this design
    spec = SyntheticSpec(
        n=20_000, p=5, design_family="student_t", beta0=(1.0,) * 5, noise_sd=1.0, df=5.0
    )
    data = generate_synthetic(spec, 11)
    assert core._cholesky_qr2_svd(data.design) is not None
    expected = [
        4830, 13512, 1846, 4286, 6352, 6183, 18173, 15989, 18306, 19875, 1570, 2709, 17623,
        1315, 3319, 3616, 18385, 7177, 5276, 3392, 9316, 11775, 16089, 12336, 19720, 1908,
        9865, 11314, 13751, 92, 4051, 9302, 1116, 19512, 12830, 15988, 10310, 11936, 6902,
        6506, 2371, 4018, 15335, 8854, 16520, 5560, 14418, 17499, 16591, 4263,
    ]
    assert draw(compute_probabilities(data, "BLEV"), 50, 2024).indices.tolist() == expected


# recorded before the IC and PL row norms were taken in row blocks
CHOLESKY_PATH_DRAWS = {
    "IC": [
        4830, 13516, 1846, 4286, 6352, 6189, 18173, 15988, 18306, 19916, 1569, 2802, 17538,
        1574, 3319, 3616, 18276, 7266, 5276, 3392, 9354, 11775, 16003, 12336, 19720, 2107,
        9752, 11314, 13751, 92, 4051, 9302, 1324, 19512, 12829, 15987, 10310, 11936, 6902,
        6506, 2591, 4126, 15335, 8854, 16520, 5560, 14418, 17499, 16591, 4256,
    ],
    "PL": [
        4830, 13512, 1846, 4286, 6352, 6189, 18173, 15988, 18306, 19916, 1570, 2802, 17538,
        1418, 3319, 3616, 18276, 7260, 5276, 3392, 9354, 11775, 16003, 12336, 19720, 2107,
        9752, 11314, 13751, 92, 4051, 9302, 1324, 19512, 12830, 15988, 10310, 11936, 6902,
        6506, 2591, 4126, 15335, 8854, 16520, 5560, 14418, 17499, 16591, 4263,
    ],
}


@pytest.mark.parametrize("scheme", sorted(CHOLESKY_PATH_DRAWS))
def test_ic_and_pl_draws_on_cholesky_path_are_pinned(scheme):
    spec = SyntheticSpec(
        n=20_000, p=5, design_family="student_t", beta0=(1.0,) * 5, noise_sd=1.0, df=5.0
    )
    data = generate_synthetic(spec, 11)
    assert core._cholesky_qr2_svd(data.design) is not None
    drawn = draw(compute_probabilities(data, scheme), 50, 2024).indices.tolist()
    assert drawn == CHOLESKY_PATH_DRAWS[scheme]


def test_leverage_scores_is_a_frozen_vector(line_dataset):
    scores = leverage_scores(line_dataset)
    assert isinstance(scores, np.ndarray) and scores.shape == (3,)
    assert not scores.flags.writeable


def test_leverage_is_computed_once_per_dataset_and_kept_frozen(monkeypatch):
    calls = []
    kernel = core._squared_row_norms

    def counted(rows, scaled=None):
        calls.append(scaled)
        return kernel(rows, scaled)

    monkeypatch.setattr(core, "_squared_row_norms", counted)
    n = 20_000
    data = Dataset(design=_student_t(17, n, 5), response=np.zeros(n))
    got = {scheme: compute_probabilities(data, scheme).probs for scheme in ("BLEV", "SLEV", "RL")}
    scores = leverage_scores(data)
    volume_sample(data, 400, "leveraged", 0)
    assert calls == [None]
    kept = core.factors(data).leverage
    U = core.factors(data).U
    lev = np.einsum("ij,ij->i", U, U)
    # no consumer wrote into the kept vector, and leverage_scores clipped a copy
    assert not kept.flags.writeable and np.array_equal(kept, lev)
    assert not np.shares_memory(scores, kept)
    # the formulas of the unkept leverage, bit for bit
    blev = lev / lev.sum()
    assert np.array_equal(got["BLEV"], blev)
    assert np.array_equal(got["SLEV"], 0.9 * blev + (1.0 - 0.9) / n)
    assert np.array_equal(got["RL"], np.sqrt(lev) / np.sqrt(lev).sum())


def _uniform(data):
    return compute_probabilities(data, "RAND")


# Every consumer that needs a full-column-rank design, each through
# Factorization.full_rank, with what its RankError names.
FULL_RANK_CONSUMERS = {
    "avar_matrix": lambda d: avar_matrix(d, _uniform(d), 4, 1.0),
    "sigma2_estimate": sigma2_estimate,
    "standard_volume_distribution": lambda d: standard_volume_distribution(d, 2),
    "leveraged_volume_distribution": lambda d: leveraged_volume_distribution(d, 2),
    "volume_sample_rejection": lambda d: volume_sample(d, 2, "leveraged", 0),
    "volume_sample_standard": lambda d: volume_sample(d, 3, "standard", 0),
}
FULL_RANK_WHAT = {
    "avar_matrix": "the asymptotic variance",
    "sigma2_estimate": "noise estimation",
    "standard_volume_distribution": "standard volume sampling",
    "leveraged_volume_distribution": "leveraged volume sampling",
    "volume_sample_rejection": "leveraged volume sampling",
    "volume_sample_standard": "standard volume sampling",
}
for _s in ("BLEV", "SLEV", "IC", "RL"):
    FULL_RANK_CONSUMERS[f"probs_{_s}"] = lambda d, s=_s: compute_probabilities(d, s)
    FULL_RANK_WHAT[f"probs_{_s}"] = f"scheme {_s}"
for _t in TARGETS:
    FULL_RANK_CONSUMERS[f"trace_amse_{_t}"] = lambda d, t=_t: trace_amse(d, _uniform(d), 4, 1.0, t)
    FULL_RANK_WHAT[f"trace_amse_{_t}"] = "the asymptotic MSE"


@pytest.mark.filterwarnings("ignore:leveraged volume sampling is tuned")
@pytest.mark.parametrize("name", sorted(FULL_RANK_CONSUMERS))
def test_full_rank_consumers_reject_a_duplicated_column(name):
    x = np.random.default_rng(5).standard_normal(8)
    data = Dataset(design=np.column_stack([x, x]), response=np.zeros(8))
    message = f"{FULL_RANK_WHAT[name]} requires a full-column-rank design (rank 1 < p=2)"
    # the second call reads the stored factorization, and must raise as well
    for _ in range(2):
        with pytest.raises(RankError) as caught:
            FULL_RANK_CONSUMERS[name](data)
        assert str(caught.value) == message


@pytest.mark.parametrize("scheme", ["BLEV", "SLEV", "IC", "RL"])
def test_leverage_schemes_name_themselves_for_an_all_zero_row(scheme):
    # IC once ran its own zero-row check on its squared norms; every scheme
    # now goes through full_rank_leverage, with the message unchanged
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    data = Dataset(design=X, response=np.zeros(4))
    for _ in range(2):
        with pytest.raises(DegenerateDistributionError) as caught:
            compute_probabilities(data, scheme)
        assert str(caught.value) == f"scheme {scheme} is undefined for all-zero design rows"


@pytest.mark.parametrize(
    "indices",
    [[2], [0, 0, 0], [4, 1, 3, 1], np.arange(7)[::-1], np.array([6, 2], dtype=np.uint8)],
)
def test_take_rows_equals_the_checked_constructor(indices):
    data = gaussian_dataset(3, 7, 3)
    sub = data.take_rows(indices)
    idx = np.asarray(indices)
    ref = Dataset(data.design[idx], data.response[idx])
    for got, want in ((sub.design, ref.design), (sub.response, ref.response)):
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got.flags.c_contiguous and not got.flags.writeable
    assert sub.n == len(idx) and sub.p == 3


@pytest.mark.parametrize(
    "indices",
    [[3], [-1], [0.5], [0, 1.0], [True, False, True], [], [[0, 1]], 0, np.array([2**63], dtype=np.uint64)],
)
def test_take_rows_rejects_bad_indices(indices):
    # out-of-range rows once leaked IndexError, -1 wrapped round to the last
    # row, and 0.5 became row 0
    data = gaussian_dataset(4, 3, 2)
    with pytest.raises(ValidationError, match="row indices"):
        data.take_rows(indices)


SUBSET_SIZE_CALLERS = {
    "draw": lambda d, pv, r: draw(pv, r, 0),
    "volume_standard": lambda d, pv, r: volume_sample(d, r, "standard", 0),
    "volume_leveraged": lambda d, pv, r: volume_sample(d, r, "leveraged", 0),
    "avar_matrix": lambda d, pv, r: avar_matrix(d, pv, r, 1.0),
    "trace_amse": lambda d, pv, r: trace_amse(d, pv, r, 1.0, "beta"),
    "regularity_diagnostics": lambda d, pv, r: regularity_diagnostics(d, pv, r),
    "iboss_select": lambda d, pv, r: iboss_select(d, r),
    "greedy_select": lambda d, pv, r: greedy_select(d, r, "D"),
    "run_emse": lambda d, pv, r: run_emse(d, ["RAND"], [r], reps=1, seed=0),
}


@pytest.mark.parametrize("r", [5.5, True, np.float64(4.0), "4", None], ids=repr)
@pytest.mark.parametrize("caller", sorted(SUBSET_SIZE_CALLERS))
def test_subset_size_must_be_an_integer(caller, r):
    # a non-integer r once gave a silent wrong answer (avar_matrix built
    # Omega from 5.5 and reported r = 5), a selection, or a TypeError
    d = gaussian_dataset(8, 12, 2)
    pv = compute_probabilities(d, "BLEV")
    with pytest.raises(ValidationError, match="subset size r must be an integer"):
        SUBSET_SIZE_CALLERS[caller](d, pv, r)


COUNT_CALLERS = {
    "size": lambda d, n: volume_sample(d, 4, "standard", 0, size=n),
    "reps": lambda d, n: run_emse(d, ["RAND"], [4], reps=n, seed=0),
    "workers": lambda d, n: run_emse(d, ["RAND"], [4], reps=1, seed=0, workers=n),
}


@pytest.mark.parametrize("count", [2.5, "3", True, np.float64(2.0), 0], ids=repr)
@pytest.mark.parametrize("what", sorted(COUNT_CALLERS))
def test_counts_take_integers_at_least_one(what, count):
    # volume_sample(size=2.5) once gave 2 draws; run_emse(reps=2.5) leaked a
    # TypeError, reps=True reported reps: True, and workers=2.5 was taken
    d = gaussian_dataset(8, 12, 2)
    with pytest.raises(ValidationError, match=f"^{what}"):
        COUNT_CALLERS[what](d, count)


@pytest.mark.parametrize("r", [4, np.int64(4), np.uint8(4)], ids=repr)
def test_subset_size_takes_python_and_numpy_integers(r):
    d = gaussian_dataset(8, 12, 2)
    pv = compute_probabilities(d, "BLEV")
    assert core.subset_size(r, 1) == 4 and type(core.subset_size(r, 1)) is int
    assert avar_matrix(d, pv, r, 1.0).r == 4
    assert draw(pv, r, 0).r == 4
    assert iboss_select(d, r).indices.size == 4


def _counting_thin_svd(monkeypatch):
    """Replace core.thin_svd by a wrapper that counts its calls; the count list."""
    calls = []
    original = core.thin_svd

    def counted(design):
        calls.append(design.shape)
        return original(design)

    monkeypatch.setattr(core, "thin_svd", counted)
    return calls


# Every consumer of a dataset's factorization, each called on the dataset itself.
FACTORIZATION_CONSUMERS = dict(
    FULL_RANK_CONSUMERS,
    regularity_diagnostics=lambda d: regularity_diagnostics(d, _uniform(d), 4),
    leverage_scores=leverage_scores,
    ols_fit=ols_fit,
    volume_sample_leveraged=lambda d: volume_sample(d, 3, "leveraged", 0),
)


@pytest.mark.filterwarnings("ignore:leveraged volume sampling is tuned")
def test_every_consumer_shares_one_factorization(monkeypatch):
    calls = _counting_thin_svd(monkeypatch)
    data = gaussian_dataset(9, 12, 2)
    for consume in FACTORIZATION_CONSUMERS.values():
        consume(data)
    assert calls == [(12, 2)]


def test_stored_factorization_is_bit_equal_to_a_fresh_one():
    data = gaussian_dataset(10, 40, 3)
    ols_fit(data)
    stored, fresh = core.factors(data), core.thin_svd(data.design)
    assert stored.rank == fresh.rank == 3
    for got, want in ((stored.U, fresh.U), (stored.s, fresh.s), (stored.Vt, fresh.Vt)):
        assert np.array_equal(got, want) and not got.flags.writeable


def test_take_rows_does_not_inherit_the_factorization(monkeypatch):
    calls = _counting_thin_svd(monkeypatch)
    data = gaussian_dataset(11, 30, 3)
    leverage_scores(data)
    sub = data.take_rows(np.arange(20))
    kept = core.factors(sub)
    assert calls == [(30, 3), (20, 3)]
    fresh = core.thin_svd(sub.design)
    assert kept.U.shape == (20, 3) and np.array_equal(kept.U, fresh.U) and np.array_equal(kept.s, fresh.s)


@pytest.mark.parametrize(
    "call",
    [
        lambda d: criterion_value(d, [0.5, 1.7, 2.9], "D"),
        lambda d: criterion_value(d, [True, False, True], "D"),
        lambda d: SubsetSelection(indices=[0.5, 3.2], criterion="D", value=1.0),
        lambda d: SubsetSelection(indices=[True, False], criterion="D", value=1.0),
        lambda d: SubsampleDraw(indices=[1.5, 2.2], draw_probs=[0.5, 0.5], seed=0),
        lambda d: SubsampleDraw(indices=[True, False], draw_probs=[0.5, 0.5], seed=0),
        lambda d: d.take_rows([1.0, 2.0]),
    ],
    ids=["criterion_float", "criterion_bool", "selection_float", "selection_bool",
         "draw_float", "draw_bool", "take_rows_float"],
)
def test_row_indices_must_be_integers(call):
    # non-integer indices were once truncated (0.5 -> row 0) or, for bools,
    # reached "indices must be distinct" by accident
    with pytest.raises(ValidationError, match="row indices must be a nonempty vector of integers"):
        call(gaussian_dataset(12, 6, 2))


def test_threads_racing_on_one_dataset_read_equal_factors():
    # No lock guards the stored factorization: threads that race on it only
    # compute it twice, and every consumer still sees correct factors.
    data = gaussian_dataset(13, 5_000, 4)
    consumers = {
        "factors": lambda d: (core.factors(d).s, np.square(core.factors(d).U).sum(axis=1)),
        "ols": lambda d: (ols_fit(d).beta,),
        "leverage": lambda d: (leverage_scores(d),),
        "blev": lambda d: (compute_probabilities(d, "BLEV").probs,),
    }
    want = {name: read(Dataset(data.design, data.response)) for name, read in consumers.items()}
    names = list(consumers) * 16
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(consumers[name], data) for name in names]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for name, arrays in zip(names, got):
        for a, b in zip(arrays, want[name]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
    assert core.factors(data) is core.factors(data)


def test_value_types_own_their_arrays():
    # Dataset and ProbabilityVector once froze the caller's own C-contiguous
    # float64 array; a caller that made it writable again and edited it left
    # stale stored factors and a stale alias table behind
    rng = np.random.default_rng(14)
    X, y = rng.standard_normal((30, 3)), rng.standard_normal(30)
    probs = np.full(30, 1.0 / 30)
    data = Dataset(design=X, response=y)
    pv = ProbabilityVector(probs, "RAND")
    beta, picked = ols_fit(data).beta, draw(pv, 8, 5).indices
    alias_table_of(pv)
    assert X.flags.writeable and y.flags.writeable and probs.flags.writeable
    X *= 2.0
    y[:] = 0.0
    probs[:] = 0.0
    probs[0] = 1.0
    assert np.array_equal(ols_fit(data).beta, beta)
    assert np.array_equal(draw(pv, 8, 5).indices, picked)


@pytest.mark.parametrize("row", [0, _ROW_BLOCK - 1, _ROW_BLOCK, 2 * _ROW_BLOCK + 5])
@pytest.mark.parametrize("extreme", [-3.0, 3.0])
def test_pow2_exponent_finds_the_extreme_in_any_block(row, extreme):
    X = np.full((2 * _ROW_BLOCK + 7, 3), 0.25)
    X[::2] = -0.0
    X[row, 1] = extreme
    assert pow2_exponent(X) == 2 == math.frexp(np.abs(X).max())[1]
    assert pow2_exponent(np.zeros((5, 2))) == pow2_exponent(np.full((5, 2), -0.0)) == 0


def test_set_fields_freezes_each_array_and_trusted_keeps_it():
    beta = np.array([1.0, 2.0])
    fit = trusted(EstimateResult, beta=beta, rank=2, residual_ss=0.5)
    assert fit.beta is beta and not beta.flags.writeable
    assert (fit.rank, fit.residual_ss) == (2, 0.5)
    with pytest.raises(AttributeError):
        fit.rank = 1
    # the checked constructors fill their copies through set_fields
    data = gaussian_dataset(1, 6, 2)
    records = (
        data,
        ols_fit(data),
        ProbabilityVector([0.5, 0.5], "RAND"),
        SubsampleDraw([1, 0], [0.5, 0.5], 3),
        SubsetSelection([3, 1], "D", 0.0),
        AsymptoticVariance(np.eye(2), 1.0, 5),
        SubsetDistribution([[0], [1]], [0.5, 0.5]),
    )
    for record in records:
        arrays = [value for value in vars(record).values() if isinstance(value, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("scheme", ["RAND", "BLEV", "SLEV", "IC", "RL", "PL"])
def test_trusted_records_equal_the_checked_constructors(scheme):
    # compute_probabilities, draw and the fits build their records without the
    # constructors' copy and checks: each must be what the constructor builds
    data = gaussian_dataset(4, 300, 3)
    pv = compute_probabilities(data, scheme)
    dr = draw(pv, 40, 9)
    fit = weighted_ls_fit(data.take_rows(dr.indices), 1.0 / dr.draw_probs)
    checked = (
        ProbabilityVector(pv.probs, pv.scheme, pv.alpha),
        SubsampleDraw(dr.indices, dr.draw_probs, dr.seed),
        EstimateResult(fit.beta, fit.rank, fit.residual_ss),
    )
    for got, want in zip((pv, dr, fit), checked):
        assert type(got) is type(want)
        for name, value in vars(want).items():
            kept = vars(got)[name]
            if isinstance(value, np.ndarray):
                assert kept.dtype == value.dtype and kept.flags.c_contiguous and not kept.flags.writeable
                assert np.array_equal(kept, value)
            else:
                assert kept == value


def test_estimate_result_rejects_a_residual_sum_that_is_not_finite():
    # NaN passed the sign check, and so did inf
    for rss in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="^residual_ss must be finite$"):
            EstimateResult(beta=[1.0], rank=1, residual_ss=rss)
    with pytest.raises(ValidationError, match="^residual_ss must be nonnegative$"):
        EstimateResult(beta=[1.0], rank=1, residual_ss=-math.inf)
    # a string leaked a TypeError, and any rank was accepted
    with pytest.raises(ValidationError, match="^residual_ss must be a real number, got 'x'$"):
        EstimateResult(beta=[1.0], rank=1, residual_ss="x")
    for rank, message in (("x", "rank must be an integer, got 'x'"), (-3, "rank=-3 must be at least 0"),
                          (2, r"rank=2 exceeds len\(beta\)=1")):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            EstimateResult(beta=[1.0], rank=rank, residual_ss=0.0)


def test_subset_distribution_rejects_masses_that_are_not_finite():
    # a NaN mass passed the sign and sum checks
    with pytest.raises(ValidationError, match="^masses must be finite$"):
        SubsetDistribution(subsets=[[0]], masses=[math.nan])
    with pytest.raises(ValidationError, match="^masses must sum to 1 within 1e-10$"):
        SubsetDistribution(subsets=[[0]], masses=[math.inf])
