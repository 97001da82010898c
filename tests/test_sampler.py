import numpy as np
import pytest

import sublsq.sampler as sampler_mod
from sublsq import (
    Dataset,
    ProbabilityVector,
    SyntheticSpec,
    ValidationError,
    compute_probabilities,
    draw,
    t5_line_spec,
    generate_synthetic,
    ols_fit,
    subsample_estimate,
)
from sublsq.sampler import SubsampleDraw, alias_table

from conftest import gaussian_dataset


def test_degenerate_distribution_draws_single_index():
    pv = ProbabilityVector(np.array([1.0, 0.0, 0.0]), "RAND")
    for seed in (0, 1, 99):
        d = draw(pv, 5, seed)
        assert np.all(d.indices == 0)
        assert np.all(d.draw_probs == 1.0)


def test_uniform_law_of_large_numbers():
    pv = ProbabilityVector(np.full(4, 0.25), "RAND")
    d = draw(pv, 100_000, 42)
    freq = np.bincount(d.indices, minlength=4) / d.r
    assert np.all(np.abs(freq - 0.25) < 0.01)


def _vose_loop(probs):
    """Reference: the stack-based Vose loop, popping cells in descending index order."""
    p = np.asarray(probs, dtype=np.float64)
    n = p.shape[0]
    accept = np.zeros(n)
    alias = np.zeros(n, dtype=np.intp)
    scaled = p * n
    small = np.flatnonzero(scaled < 1.0).tolist()
    large = np.flatnonzero(scaled >= 1.0).tolist()
    while small and large:
        s = small.pop()
        big = large.pop()
        accept[s] = scaled[s]
        alias[s] = big
        scaled[big] -= 1.0 - scaled[s]
        (small if scaled[big] < 1.0 else large).append(big)
    for i in small + large:
        accept[i] = 1.0
        alias[i] = i
    return accept, alias


def _weights(kind, n, rng):
    if kind == "uniform":
        return np.ones(n)
    if kind == "dirichlet":
        return rng.dirichlet(np.full(n, 0.5))
    if kind == "t2_squared":
        return rng.standard_t(2, n) ** 2
    if kind == "zeros":
        w = rng.random(n)
        w[rng.random(n) < 0.3] = 0.0
        w[0] = 1.0
        return w
    return rng.integers(0, 5, n).astype(float) + (np.arange(n) == 0)  # integer-tied


KINDS = ("uniform", "dirichlet", "t2_squared", "zeros", "tied")


@pytest.mark.parametrize("kind,n", [(kind, 1000) for kind in KINDS] + [("uniform", 1)])
def test_alias_table_law_matches_probabilities(kind, n):
    # each cell's total mass, rebuilt from the table itself, is p
    w = _weights(kind, n, np.random.default_rng(n))
    p = w / w.sum()
    accept, alias = alias_table(p)
    assert np.all((accept >= 0) & (accept <= 1))
    mass = accept / n
    np.add.at(mass, alias, (1.0 - accept) / n)
    np.testing.assert_allclose(mass, p, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", KINDS[:4])
def test_alias_table_matches_vose_loop(kind, seed):
    rng = np.random.default_rng(seed)
    w = _weights(kind, int(rng.integers(1, 2000)), rng)
    p = w / w.sum()
    accept, alias = alias_table(p)
    ref_accept, ref_alias = _vose_loop(p)
    assert np.array_equal(alias, ref_alias)
    np.testing.assert_allclose(accept, ref_accept, rtol=0, atol=1e-10)


def _two_search_alias_table(probs):
    """Reference: the prefix-sum table as first built, with two searches."""
    p = np.asarray(probs, dtype=np.float64)
    n = p.shape[0]
    scaled = p * n
    accept = np.ones(n)
    alias = np.arange(n, dtype=np.intp)
    below = scaled < 1.0
    small = np.flatnonzero(below)[::-1]
    large = np.flatnonzero(~below)[::-1]
    deficit = np.cumsum(1.0 - scaled[small])
    excess = np.cumsum(scaled[large] - 1.0)

    owner = np.searchsorted(excess, np.concatenate(([0.0], deficit))[:-1], side="left")
    filled = owner < large.size
    cells = small[filled]
    accept[cells] = scaled[cells]
    alias[cells] = large[owner[filled]]

    spent_by = np.searchsorted(deficit, excess[:-1], side="right")
    spent = np.flatnonzero(spent_by < small.size)
    accept[large[spent]] = 1.0 + excess[spent] - deficit[spent_by[spent]]
    alias[large[spent]] = large[spent + 1]
    return accept, alias


def _assert_same_table(p):
    accept, alias = alias_table(p)
    ref_accept, ref_alias = _two_search_alias_table(p)
    assert np.array_equal(accept, ref_accept)
    assert np.array_equal(alias, ref_alias)


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 500_000])
@pytest.mark.parametrize("kind", KINDS)
def test_alias_table_equals_the_two_search_table(kind, n):
    w = _weights(kind, n, np.random.default_rng(n))
    _assert_same_table(w / w.sum())


@pytest.mark.parametrize("n", [4, 1024, 2**19])
@pytest.mark.parametrize("kind", ["dyadic", "mass_0.5", "mass_1.5"])
def test_alias_table_equals_the_two_search_table_at_ties_and_leftover_cells(kind, n):
    rng = np.random.default_rng(n)
    if kind == "dyadic":
        # exact cells, so the prefix sums of excess and deficit tie exactly
        half = rng.choice([0.25, 0.5, 1.0], size=n // 2)
        w = np.concatenate([half, 2.0 - half])
        rng.shuffle(w)
        p = w / n
    else:
        # a total below or above 1 leaves small or large cells over at the end
        w = rng.random(n)
        p = w / w.sum() * float(kind[len("mass_"):])
    _assert_same_table(p)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 99991])
@pytest.mark.parametrize("mass", [1.0, 0.0, 0.5, 2.0])
def test_alias_table_of_a_constant_vector_is_the_identity(mass, n):
    # the shortcut table: accept every cell, alias none
    p = np.full(n, mass / n)
    accept, alias = alias_table(p)
    assert np.array_equal(accept, np.ones(n)) and np.array_equal(alias, np.arange(n))
    assert accept.dtype == np.float64 and alias.dtype == np.intp
    _assert_same_table(p)


def test_draw_arrays_are_frozen_and_checked():
    d = gaussian_dataset(2, 50, 2)
    dr = draw(compute_probabilities(d, "BLEV"), 20, 3)
    assert dr.indices.dtype == np.intp and dr.draw_probs.dtype == np.float64
    assert not dr.indices.flags.writeable and not dr.draw_probs.flags.writeable
    # a probability vector may exceed 1 by rounding; such a draw is still refused
    over = ProbabilityVector(np.array([1.0 + 5e-11, 0.0]), "RAND")
    with pytest.raises(ValidationError, match="draw_probs"):
        draw(over, 3, 0)
    with pytest.raises(ValidationError, match="draw_probs"):
        SubsampleDraw(indices=np.array([0]), draw_probs=np.array([np.nan]), seed=0)


@pytest.fixture(scope="module")
def tall_student_t():
    spec = SyntheticSpec(
        n=500_000, p=10, design_family="student_t", beta0=(1.0,) * 10, noise_sd=1.0, df=5.0
    )
    return generate_synthetic(spec, 3)


@pytest.mark.parametrize("scheme", ["BLEV", "IC", "PL"])
def test_alias_table_equals_the_two_search_table_on_tall_schemes(tall_student_t, scheme):
    _assert_same_table(compute_probabilities(tall_student_t, scheme).probs)


def test_blev_draw_stream_is_pinned():
    # the table's construction changed, the draws did not
    data = generate_synthetic(t5_line_spec(1000), 5)
    pv = compute_probabilities(data, "BLEV")
    expected = [
        241, 671, 92, 214, 317, 309, 908, 735, 915, 982, 78, 142, 866, 70, 165, 180, 913,
        391, 263, 169, 405, 588, 742, 616, 986, 119, 487, 565, 687, 4, 234, 465, 66, 975,
        641, 799, 515, 596, 344, 325, 129, 206, 766, 442, 826, 278, 720, 874, 829, 213,
    ]
    assert draw(pv, 50, 2024).indices.tolist() == expected


def test_draw_determinism():
    d = gaussian_dataset(3, 200, 3)
    pv = compute_probabilities(d, "BLEV")
    d1 = draw(pv, 50, (12, 34))
    d2 = draw(pv, 50, (12, 34))
    assert np.array_equal(d1.indices, d2.indices)
    assert np.array_equal(d1.draw_probs, d2.draw_probs)
    assert not np.array_equal(d1.indices, draw(pv, 50, (12, 35)).indices)


def test_weighted_equals_plain_under_uniform_probs():
    d = gaussian_dataset(5, 300, 4)
    pv = compute_probabilities(d, "RAND")
    dr = draw(pv, 60, 7)
    plain = subsample_estimate(d, dr, "plain").beta
    weighted = subsample_estimate(d, dr, "weighted").beta
    np.testing.assert_allclose(weighted, plain, rtol=1e-10)


def test_full_sample_draw_recovers_ols():
    d = gaussian_dataset(6, 40, 3)
    dr = SubsampleDraw(
        indices=np.arange(d.n),
        draw_probs=np.full(d.n, 1.0 / d.n),
        seed=0,
    )
    np.testing.assert_allclose(
        subsample_estimate(d, dr, "plain").beta, ols_fit(d).beta, rtol=1e-12
    )


def test_small_r_mse_blowup_heavy_tails():
    # fixed heavy-tailed data: tiny subsamples must be far noisier than
    # moderate ones (MSE scales roughly like n/r)
    data = generate_synthetic(t5_line_spec(1000), 5)
    pv = compute_probabilities(data, "RAND")
    truth = np.array([1.0, 1.0])

    def mse(r, tag):
        total = 0.0
        for i in range(500):
            b = subsample_estimate(data, draw(pv, r, (99, tag, i)), "plain").beta
            total += float(np.sum((b - truth) ** 2))
        return total / 500

    assert mse(10, 1) >= 5.0 * mse(200, 2)


def test_conditional_unbiasedness_monte_carlo():
    # mean of the weighted estimator over many draws sits on the full-sample
    # fit, within Monte Carlo error
    d = gaussian_dataset(77, 1000, 5)
    beta_ols = ols_fit(d).beta
    pv = compute_probabilities(d, "BLEV")
    reps, r = 5000, 100
    betas = np.empty((reps, 5))
    for i in range(reps):
        betas[i] = subsample_estimate(d, draw(pv, r, (77, i)), "weighted").beta
    se = betas.std(axis=0, ddof=1) / np.sqrt(reps)
    assert np.all(np.abs(betas.mean(axis=0) - beta_ols) <= 4.0 * se)


def test_variance_scales_inversely_with_r():
    d = gaussian_dataset(78, 1000, 5)
    pv = compute_probabilities(d, "RAND")

    def trace_cov(r, tag, reps=3000):
        B = np.empty((reps, 5))
        for i in range(reps):
            B[i] = subsample_estimate(d, draw(pv, r, (88, tag, i)), "plain").beta
        return float(np.trace(np.cov(B.T)))

    ratio = trace_cov(100, 1) / trace_cov(400, 2)
    assert 0.8 * 4.0 <= ratio <= 1.2 * 4.0


def test_rank_deficient_subsample_flagged_not_raised():
    # all rows identical: every subsample design has rank 1 < p
    X = np.tile(np.array([[1.0, 2.0]]), (10, 1))
    d = Dataset(design=X, response=np.ones(10))
    pv = compute_probabilities(d, "RAND")
    est = subsample_estimate(d, draw(pv, 4, 0), "plain")
    assert est.rank == 1


def test_draw_validation():
    pv = ProbabilityVector(np.full(4, 0.25), "RAND")
    with pytest.raises(ValidationError):
        draw(pv, 0, 1)
    d = gaussian_dataset(1, 5, 2)
    dr = draw(compute_probabilities(d, "RAND"), 3, 0)
    with pytest.raises(ValidationError):
        subsample_estimate(d, dr, "median")
    big = SubsampleDraw(indices=np.array([7]), draw_probs=np.array([0.5]), seed=0)
    with pytest.raises(ValidationError):
        subsample_estimate(d, big, "plain")


def test_pipeline_is_pure_function_of_inputs():
    d = gaussian_dataset(9, 150, 3)
    def run():
        pv = compute_probabilities(d, "SLEV", 0.9)
        est = subsample_estimate(d, draw(pv, 30, (4, 2)), "weighted")
        return est.beta
    assert np.array_equal(run(), run())


def test_alias_table_of_keeps_the_table_that_draw_reads(monkeypatch):
    built = []
    real = sampler_mod.alias_table
    monkeypatch.setattr(sampler_mod, "alias_table", lambda p: built.append(p.size) or real(p))
    pv = compute_probabilities(gaussian_dataset(3, 50, 2), "IC")
    first = draw(pv, 20, 1)
    # draw alone builds a table and keeps none
    assert built == [50] and "_alias_table" not in vars(pv)
    accept, alias = sampler_mod.alias_table_of(pv)
    again = draw(pv, 20, 1)
    draw(pv, 30, 2)
    assert built == [50, 50]
    assert np.array_equal(first.indices, again.indices)
    ref_accept, ref_alias = real(pv.probs)
    assert np.array_equal(accept, ref_accept) and np.array_equal(alias, ref_alias)
