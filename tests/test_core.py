import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sublsq import (
    Dataset,
    NumericalError,
    RankError,
    ValidationError,
    avar_matrix,
    compute_probabilities,
    core,
    draw,
    leverage_scores,
    leveraged_volume_distribution,
    ols_fit,
    standard_volume_distribution,
    trace_amse,
    volume_sample,
    weighted_ls_fit,
)
from sublsq.asymptotics import TARGETS, regularity_diagnostics, sigma2_estimate
from sublsq.optdesign import SubsetSelection, criterion_value
from sublsq.sampler import SubsampleDraw
from sublsq.bench import SyntheticSpec, generate_synthetic

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
    U, s, Vt, rank = core.thin_svd(X)
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
    U, s, Vt, _ = core.thin_svd(X)
    U0, s0, Vt0 = np.linalg.svd(X, full_matrices=False)
    assert np.array_equal(U, U0) and np.array_equal(s, s0) and np.array_equal(Vt, Vt0)


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


def _uniform(data):
    return compute_probabilities(data, "RAND")


# Every consumer that needs a full-column-rank design, each through core.full_rank_svd.
FULL_RANK_CONSUMERS = {
    "avar_matrix": lambda d: avar_matrix(d, _uniform(d), 4, 1.0),
    "standard_volume_distribution": lambda d: standard_volume_distribution(d, 2),
    "leveraged_volume_distribution": lambda d: leveraged_volume_distribution(d, 2),
    "volume_sample_rejection": lambda d: volume_sample(d, 2, "leveraged", 0, enumeration_limit=1),
}
for _s in ("BLEV", "SLEV", "IC", "RL"):
    FULL_RANK_CONSUMERS[f"probs_{_s}"] = lambda d, s=_s: compute_probabilities(d, s)
for _t in TARGETS:
    FULL_RANK_CONSUMERS[f"trace_amse_{_t}"] = lambda d, t=_t: trace_amse(d, _uniform(d), 4, 1.0, t)


@pytest.mark.filterwarnings("ignore:leveraged volume sampling is tuned")
@pytest.mark.parametrize("name", sorted(FULL_RANK_CONSUMERS))
def test_full_rank_consumers_reject_a_duplicated_column(name):
    x = np.random.default_rng(5).standard_normal(8)
    data = Dataset(design=np.column_stack([x, x]), response=np.zeros(8))
    # the second call reads the stored factorization, and must raise as well
    for _ in range(2):
        with pytest.raises(RankError, match=r"full-column-rank design \(rank 1 < p=2\)"):
            FULL_RANK_CONSUMERS[name](data)


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
    sigma2_estimate=sigma2_estimate,
    regularity_diagnostics=lambda d: regularity_diagnostics(d, _uniform(d), 4),
    leverage_scores=leverage_scores,
    ols_fit=ols_fit,
    volume_sample_standard=lambda d: volume_sample(d, 3, "standard", 0),
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
    stored, fresh = core.dataset_svd(data), core.thin_svd(data.design)
    assert stored[3] == fresh[3] == 3
    for got, want in zip(stored[:3], fresh[:3]):
        assert np.array_equal(got, want) and not got.flags.writeable


def test_take_rows_does_not_inherit_the_factorization(monkeypatch):
    calls = _counting_thin_svd(monkeypatch)
    data = gaussian_dataset(11, 30, 3)
    leverage_scores(data)
    sub = data.take_rows(np.arange(20))
    U, s, Vt, rank = core.dataset_svd(sub)
    assert calls == [(30, 3), (20, 3)]
    fresh = core.thin_svd(sub.design)
    assert U.shape == (20, 3) and np.array_equal(U, fresh[0]) and np.array_equal(s, fresh[1])


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
        "factors": lambda d: (core.dataset_svd(d)[1], np.square(core.dataset_svd(d)[0]).sum(axis=1)),
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
    assert core.dataset_svd(data) is core.dataset_svd(data)
