import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublsq import (
    AsymptoticVariance,
    Dataset,
    NumericalError,
    ProbabilityVector,
    RankError,
    ValidationError,
    avar_matrix,
    compute_probabilities,
    draw,
    ols_fit,
    regularity_diagnostics,
    sigma2_estimate,
    subsample_estimate,
    trace_amse,
)
from sublsq.asymptotics import TARGETS
from sublsq.probs import SCHEMES
from sublsq.rng import derive_rng

from conftest import gaussian_dataset


def test_uniform_probs_collapse_exactly():
    d = gaussian_dataset(0, 50, 3)
    pv = compute_probabilities(d, "RAND")
    av = avar_matrix(d, pv, 10, 2.0)
    expect = 2.0 * (1 + 50 / 10) * np.linalg.inv(d.design.T @ d.design)
    np.testing.assert_allclose(av.matrix, expect, rtol=1e-10)


def test_large_r_limit_is_ols_variance():
    d = gaussian_dataset(1, 50, 3)
    pv = compute_probabilities(d, "RAND")
    av = avar_matrix(d, pv, 10**9, 2.0)
    expect = 2.0 * np.linalg.inv(d.design.T @ d.design)
    np.testing.assert_allclose(av.matrix, expect, rtol=1e-6)


def test_avar_is_symmetric_psd_and_monotone_in_r():
    d = gaussian_dataset(2, 80, 4)
    pv = compute_probabilities(d, "BLEV")
    traces = [avar_matrix(d, pv, r, 1.0).trace for r in (10, 20, 40, 80, 160)]
    assert all(a >= b for a, b in zip(traces, traces[1:]))
    m = avar_matrix(d, pv, 20, 1.0).matrix
    np.testing.assert_allclose(m, m.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(m)) >= -1e-12


@pytest.mark.parametrize("scheme", SCHEMES)
def test_trace_amse_beta_is_the_avar_trace(scheme):
    d = gaussian_dataset(3, 60, 3)
    pv = compute_probabilities(d, scheme)
    assert trace_amse(d, pv, 12, 1.7, "beta") == pytest.approx(
        avar_matrix(d, pv, 12, 1.7).trace, rel=1e-13
    )


def _design_with_condition(seed, n, p, cond):
    # known orthonormal bases on both sides, so the singular values are exact inputs
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    W, _ = np.linalg.qr(rng.standard_normal((p, p)))
    X = (Q * np.geomspace(1.0, 1.0 / cond, p)) @ W.T
    return Dataset(design=X, response=rng.standard_normal(n))


def _per_row_trace_amse(d, pv, r, sigma2, target):
    # each target's fixed trace plus (sigma2/r) * sum_i norm_i / pi_i
    U, s, _ = np.linalg.svd(d.design, full_matrices=False)
    if target == "beta":
        row_sq, leading = np.sum((U / s) ** 2, axis=1), np.sum(1.0 / s**2)
    elif target == "Xbeta":
        row_sq, leading = np.sum(U**2, axis=1), d.p
    else:
        row_sq, leading = np.sum(d.design**2, axis=1), np.sum(s**2)
    return sigma2 * leading + (sigma2 / r) * np.sum(row_sq / pv.probs)


@pytest.mark.parametrize("cond", [1.0, 1e4, 1e6])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("target", TARGETS)
def test_trace_amse_matches_per_row_formulas(target, scheme, cond):
    d = _design_with_condition(21, 200, 4, cond)
    pv = compute_probabilities(d, scheme)
    assert trace_amse(d, pv, 30, 1.3, target) == pytest.approx(
        _per_row_trace_amse(d, pv, 30, 1.3, target), rel=1e-13
    )


@settings(max_examples=40, deadline=None)
@given(exponent=st.floats(min_value=-100, max_value=100))
def test_amse_is_scale_covariant(exponent):
    c = 10.0**exponent
    d = gaussian_dataset(22, 50, 3)
    scaled = Dataset(design=c * d.design, response=d.response)
    pv = compute_probabilities(d, "IC")
    for target, power in (("beta", -2), ("Xbeta", 0), ("XtXbeta", 2)):
        assert trace_amse(scaled, pv, 10, 1.5, target) == pytest.approx(
            c**power * trace_amse(d, pv, 10, 1.5, target), rel=1e-12
        )
    m = avar_matrix(d, pv, 10, 1.5).matrix
    m_scaled = avar_matrix(scaled, pv, 10, 1.5).matrix
    np.testing.assert_allclose(c**2 * m_scaled, m, rtol=0, atol=1e-12 * np.abs(m).max())


def _random_simplex(rng, n):
    v = rng.dirichlet(np.ones(n))
    return np.maximum(v, 1e-12) / np.maximum(v, 1e-12).sum()


@pytest.mark.parametrize(
    "scheme,target",
    [("IC", "beta"), ("RL", "Xbeta"), ("PL", "XtXbeta")],
)
def test_matched_scheme_minimizes_trace_amse(scheme, target):
    d = gaussian_dataset(4, 100, 3)
    rng = np.random.default_rng(17)
    opt = trace_amse(d, compute_probabilities(d, scheme), 20, 1.0, target)
    for _ in range(200):
        pv = ProbabilityVector(_random_simplex(rng, d.n), "RAND")
        assert opt <= trace_amse(d, pv, 20, 1.0, target) + 1e-12


def test_ic_amse_closed_form():
    # at the matched optimum the per-row sum telescopes to a squared sum:
    # sum_i a_i / (sqrt(a_i)/sum_j sqrt(a_j)) = (sum_i sqrt(a_i))^2
    d = gaussian_dataset(14, 80, 3)
    G_inv = np.linalg.inv(d.design.T @ d.design)
    norms = np.linalg.norm(d.design @ G_inv, axis=1)
    r, sigma2 = 16, 1.3
    closed = sigma2 * np.trace(G_inv) + (sigma2 / r) * norms.sum() ** 2
    value = trace_amse(d, compute_probabilities(d, "IC"), r, sigma2, "beta")
    assert value == pytest.approx(closed, rel=1e-10)


def test_mismatched_scheme_is_suboptimal():
    # sanity that the optimality really is scheme-specific
    d = gaussian_dataset(5, 100, 3)
    pl = compute_probabilities(d, "PL")
    ic = compute_probabilities(d, "IC")
    assert trace_amse(d, ic, 20, 1.0, "beta") < trace_amse(d, pl, 20, 1.0, "beta")


def test_sigma2_zero_on_exact_data(line_dataset):
    assert sigma2_estimate(line_dataset) == pytest.approx(0.0, abs=1e-20)


def test_sigma2_monte_carlo():
    rng = derive_rng(100)
    n, p = 10_000, 3
    X = rng.standard_normal((n, p))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(0.0, 2.0, n)
    est = sigma2_estimate(Dataset(design=X, response=y))
    assert abs(est - 4.0) / 4.0 < 0.10


def test_sigma2_stable_under_duplicated_row():
    d = gaussian_dataset(6, 50, 3)
    beta = ols_fit(d).beta
    extra_x = d.design[0]
    extra_y = float(extra_x @ beta)  # consistent with the fit
    d2 = Dataset(
        design=np.vstack([d.design, extra_x]),
        response=np.append(d.response, extra_y),
    )
    s1, s2 = sigma2_estimate(d), sigma2_estimate(d2)
    assert abs(s1 - s2) < 0.2 * s1


def test_sigma2_validation():
    d = gaussian_dataset(7, 3, 3)
    with pytest.raises(ValidationError):
        sigma2_estimate(d)


def test_diagnostics_orthonormal_scaled():
    n, p = 40, 4
    rng = np.random.default_rng(8)
    Q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    d = Dataset(design=np.sqrt(n) * Q, response=np.zeros(n))
    diag = regularity_diagnostics(d, compute_probabilities(d, "RAND"), 10)
    assert diag.lambda_min == pytest.approx(1.0, rel=1e-10)
    assert diag.lambda_max == pytest.approx(1.0, rel=1e-10)
    assert diag.condition_ratio == pytest.approx(1.0, rel=1e-8)


def test_diagnostics_flag_dominant_leverage_row():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((200, 2))
    X[0] = [500.0, -500.0]  # one far outlier dominates the leverage
    d = Dataset(design=X, response=np.zeros(200))
    diag = regularity_diagnostics(d, compute_probabilities(d, "BLEV"), 10)
    assert diag.pi_min < 1e-3


def test_condition_ratio_is_squared_condition_number():
    d = gaussian_dataset(10, 60, 4)
    diag = regularity_diagnostics(d, compute_probabilities(d, "RAND"), 5)
    s = np.linalg.svd(d.design, compute_uv=False)
    assert diag.condition_ratio == pytest.approx((s[0] / s[-1]) ** 2, rel=1e-8)


def test_avar_rejects_zero_probability():
    d = gaussian_dataset(11, 20, 2)
    pi = np.zeros(20)
    pi[0] = 1.0
    pv = ProbabilityVector(pi, "RAND")
    with pytest.raises(ValidationError):
        avar_matrix(d, pv, 5, 1.0)
    with pytest.raises(ValidationError):
        trace_amse(d, pv, 5, 1.0, "beta")


def test_avar_validation():
    d = gaussian_dataset(12, 20, 2)
    pv = compute_probabilities(d, "RAND")
    with pytest.raises(ValidationError):
        avar_matrix(d, pv, 0, 1.0)
    with pytest.raises(ValidationError):
        avar_matrix(d, pv, 5, -1.0)
    singular = Dataset(design=np.ones((6, 2)), response=np.zeros(6))
    with pytest.raises(RankError):
        avar_matrix(singular, ProbabilityVector(np.full(6, 1 / 6), "RAND"), 5, 1.0)


def test_avar_rejects_non_finite_matrices():
    with pytest.raises(ValidationError, match="finite"):
        AsymptoticVariance(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0, 1)
    with pytest.raises(ValidationError, match="finite"):
        AsymptoticVariance(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1.0, 1)
    # X'X underflows to the subnormal range, so (X'X)^{-1} overflows
    tiny = Dataset(
        design=np.array([[1e-300, 2e-300], [3e-310, 1e-320], [5e-300, 1e-300], [1e-305, 4e-301]]),
        response=np.array([1.0, 2.0, 3.0, 1.0]),
    )
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="over- or underflows"):
        avar_matrix(tiny, compute_probabilities(tiny, "IC"), 4, 1.0)


def _tiny_and_rescaled():
    # X'X underflows to the subnormal range; the same design scaled by 1e300 does not
    X = np.array([[1e-300, 2e-300], [3e-310, 1e-320], [5e-300, 1e-300], [1e-305, 4e-301]])
    y = np.array([1.0, 2.0, 3.0, 1.0])
    return Dataset(design=X, response=y), Dataset(design=1e300 * X, response=y)


def test_trace_amse_raises_where_it_overflows_and_is_scale_free_for_the_line():
    tiny, rescaled = _tiny_and_rescaled()
    pv = compute_probabilities(rescaled, "IC")
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="over- or underflows"):
        trace_amse(tiny, pv, 4, 1.0, "beta")
    assert trace_amse(tiny, pv, 4, 1.0, "Xbeta") == pytest.approx(
        trace_amse(rescaled, pv, 4, 1.0, "Xbeta"), rel=1e-12
    )


def test_trace_amse_raises_where_it_underflows():
    # the moment-vector AMSE is about 1e-600 here; it once came back as 0.0
    tiny, rescaled = _tiny_and_rescaled()
    pv = compute_probabilities(rescaled, "IC")
    assert trace_amse(rescaled, pv, 4, 1.0, "XtXbeta") > 0
    with pytest.raises(NumericalError, match="over- or underflows"):
        trace_amse(tiny, pv, 4, 1.0, "XtXbeta")


def test_condition_ratio_survives_an_underflowing_gram():
    tiny, rescaled = _tiny_and_rescaled()
    pv = compute_probabilities(rescaled, "RAND")
    ratio = regularity_diagnostics(tiny, pv, 4).condition_ratio
    assert np.isfinite(ratio)
    assert ratio == pytest.approx(regularity_diagnostics(rescaled, pv, 4).condition_ratio, rel=1e-12)


def test_uniform_scheme_monte_carlo_agreement():
    # fresh noise and a fresh uniform draw per replicate: the spread of the
    # weighted estimator matches the analytic covariance trace
    rng = derive_rng(2024, "design-rand")
    n, p, r, reps = 1000, 3, 100, 5000
    X = rng.standard_normal((n, p))
    beta0 = np.array([1.0, -0.5, 2.0])
    base = Dataset(design=X, response=X @ beta0)
    pv = compute_probabilities(base, "RAND")
    analytic = avar_matrix(base, pv, r, 1.0).trace
    betas = np.empty((reps, p))
    for i in range(reps):
        y = X @ beta0 + derive_rng(2024, "noise-rand", i).standard_normal(n)
        d = Dataset(design=X, response=y)
        betas[i] = subsample_estimate(d, draw(pv, r, (2024, "draw-rand", i)), "weighted").beta
    empirical = float(np.trace(np.cov(betas.T)))
    assert abs(empirical - analytic) / analytic <= 0.15
