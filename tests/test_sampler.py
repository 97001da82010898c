import math
import tracemalloc

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
from sublsq.sampler import (
    CELL_LOOKUP_MIN_ROWS,
    CELL_LOOKUP_MIN_ROWS_PER_DRAW,
    SubsampleDraw,
    _alias_cells,
    _prefix_sums,
    _small_threshold,
    alias_table,
)

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
    _assert_cells_match_the_table(p)


def _assert_cells_match_the_table(p):
    # the per-cell lookup at every cell, and at a draw-like sample with repeats
    accept, alias = alias_table(p)
    for cells in (np.arange(p.size), np.random.default_rng(p.size).integers(0, p.size, size=3 * p.size)):
        got_accept, got_alias = _alias_cells(p, cells)
        assert np.array_equal(got_accept, accept[cells]) and np.array_equal(got_alias, alias[cells])


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


@pytest.mark.parametrize(
    "probs",
    [
        [0.5 - 1e-11, 0.5 - 2e-11],  # every n p_i < 1: no large cell
        [0.5 + 1e-11, 0.5 + 2e-11],  # every n p_i >= 1: no small cell
        [0.25 - 1e-11, 0.25 - 2e-11, 0.25 - 1e-11, 0.25 - 3e-11],
        [0.25 + 1e-11, 0.25, 0.25 + 2e-11, 0.25],
    ],
)
def test_alias_cells_without_small_or_large_cells(probs):
    # the 1e-10 sum tolerance admits non-constant vectors on one side of 1/n
    p = np.array(probs)
    ProbabilityVector(p, "RAND")
    _assert_cells_match_the_table(p)


def _neighbours(c):
    return (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf))


@pytest.mark.parametrize("n", [1, 3, 7, 4096, 99991, 500_000, 2**20, 3 * 10**6])
def test_small_threshold_splits_cells_as_the_scaled_vector_does(n):
    t = _small_threshold(n)
    # the smallest double whose product with n reaches 1
    assert t * n >= 1.0 and math.nextafter(t, 0.0) * n < 1.0
    c = np.array(_neighbours(t) + _neighbours(1.0 / n))
    assert np.array_equal(c < t, c * n < 1.0)


def _scaled_prefix_sums(p):
    """Reference: the prefix sums as first built, from the scaled vector ``p * n``."""
    scaled = p * p.shape[0]
    below = scaled < 1.0
    small, large = np.flatnonzero(below), np.flatnonzero(~below)
    deficit = np.cumsum(1.0 - scaled[small[::-1]])
    excess = np.cumsum(scaled[large[::-1]] - 1.0)
    short = int(np.searchsorted(excess, deficit[-1])) if small.size else 0
    if short < large.size:
        filled = small.size
    elif large.size:
        filled = int(np.searchsorted(deficit, excess[-1], side="right")) + 1
    else:
        filled = 0
    return small, large, deficit, excess, short, filled, min(short, max(large.size - 1, 0))


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 99991])
@pytest.mark.parametrize("kind", KINDS)
def test_prefix_sums_equal_those_of_the_scaled_vector(kind, n):
    w = _weights(kind, n, np.random.default_rng(n))
    p = w / w.sum()
    assert np.array_equal(p < _small_threshold(n), p * n < 1.0)
    for got, ref in zip(_prefix_sums(p), _scaled_prefix_sums(p), strict=True):
        assert np.array_equal(got, ref)


def test_cell_lookup_allocates_under_18_bytes_a_row():
    # the mask (1 byte a row), the small and large cells and the two prefix
    # sums (8 bytes a row each pair), and nothing n long beside them
    n, r = 200_000, 1_000
    rng = np.random.default_rng(11)
    w = _weights("dirichlet", n, rng)
    p = w / w.sum()
    cells = rng.integers(0, n, size=r)
    tracemalloc.start()
    try:
        _alias_cells(p, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * n


def _table_draw(pv, r, seed):
    """``draw`` from a copy of ``pv`` that keeps its whole table."""
    kept = ProbabilityVector(pv.probs, pv.scheme)
    sampler_mod.alias_table_of(kept)
    return draw(kept, r, seed)


def test_alias_cells_never_draw_a_zero_probability_cell():
    w = _weights("zeros", 100_000, np.random.default_rng(4))
    p = w / w.sum()
    accept, alias = _alias_cells(p, np.arange(p.size))
    zero = p == 0
    assert zero.sum() > 20_000
    # a zero cell always redirects, and never to another zero cell
    assert np.all(accept[zero] == 0) and np.all(p[alias[zero]] > 0)
    d = draw(ProbabilityVector(p, "RAND"), 5_000, 8)
    assert np.all(p[d.indices] > 0)


@pytest.mark.parametrize("n", [CELL_LOOKUP_MIN_ROWS - 1, 2 * CELL_LOOKUP_MIN_ROWS])
@pytest.mark.parametrize("kind", ["uniform", "dirichlet", "zeros"])
def test_draw_is_the_same_on_either_side_of_the_lookup_gate(kind, n, monkeypatch):
    w = _weights(kind, n, np.random.default_rng(6))
    pv = ProbabilityVector(w / w.sum(), "RAND")
    gate = n // CELL_LOOKUP_MIN_ROWS_PER_DRAW
    built = []
    real = sampler_mod.alias_table
    monkeypatch.setattr(sampler_mod, "alias_table", lambda p: built.append(p.size) or real(p))
    for r in (1, 10, gate - 1, gate, gate + 1, 5 * n):
        before = len(built)
        d = draw(pv, r, (9, r))
        # a whole table only where n is small, or not large against r
        lookup = n >= CELL_LOOKUP_MIN_ROWS and n > CELL_LOOKUP_MIN_ROWS_PER_DRAW * r
        assert len(built) - before == (not lookup)
        kept = _table_draw(pv, r, (9, r))
        assert np.array_equal(d.indices, kept.indices)
        assert np.array_equal(d.draw_probs, kept.draw_probs)
    assert "_alias_table" not in vars(pv)


def test_constant_vector_draws_its_cells_without_a_table(monkeypatch):
    monkeypatch.setattr(sampler_mod, "alias_table", lambda p: pytest.fail("built a whole table"))
    pv = ProbabilityVector(np.full(50_000, 1 / 50_000), "RAND")
    d = draw(pv, 100, 3)
    rng = sampler_mod.derive_rng(3)
    assert np.array_equal(d.indices, rng.integers(0, 50_000, size=100))


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


@pytest.mark.parametrize("scheme", ["BLEV", "IC", "PL", "RAND"])
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
