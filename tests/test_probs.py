import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublsq import (
    Dataset,
    DegenerateDistributionError,
    ProbabilityVector,
    RankError,
    ValidationError,
    compute_probabilities,
    core,
    probs,
    volume,
)

from conftest import gaussian_dataset

ALL_SCHEMES = ("RAND", "BLEV", "SLEV", "IC", "RL", "PL")


def _hand_oracle(X, scheme):
    """Direct textbook formulas, independent of the SVD route."""
    G_inv = np.linalg.inv(X.T @ X)
    if scheme == "BLEV":
        h = np.einsum("ij,jk,ik->i", X, G_inv, X)
        return h / h.sum()
    if scheme == "IC":
        raw = np.linalg.norm(X @ G_inv, axis=1)
        return raw / raw.sum()
    if scheme == "RL":
        raw = np.sqrt(np.einsum("ij,jk,ik->i", X, G_inv, X))
        return raw / raw.sum()
    raw = np.linalg.norm(X, axis=1)
    return raw / raw.sum()


def test_blev_line_example(line_dataset):
    pv = compute_probabilities(line_dataset, "BLEV")
    np.testing.assert_allclose(pv.probs, [5 / 12, 1 / 6, 5 / 12], atol=1e-12)


def test_ic_rl_pl_line_example(line_dataset):
    X = line_dataset.design
    for scheme, rounded in (
        ("IC", (0.5304, 0.1819, 0.2877)),
        ("RL", (0.3799, 0.2403, 0.3799)),
        ("PL", (0.2150, 0.3041, 0.4808)),
    ):
        pv = compute_probabilities(line_dataset, scheme)
        np.testing.assert_allclose(pv.probs, _hand_oracle(X, scheme), atol=1e-12)
        np.testing.assert_allclose(pv.probs, rounded, atol=5e-4)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_simplex_property(scheme):
    for seed in range(10):
        d = gaussian_dataset(seed, 50, 4)
        pv = compute_probabilities(d, scheme, 0.7 if scheme == "SLEV" else None)
        assert abs(pv.probs.sum() - 1.0) <= 1e-10
        assert np.all(pv.probs >= 0)


def test_slev_defaults_and_lower_bound():
    d = gaussian_dataset(3, 80, 3)
    pv = compute_probabilities(d, "SLEV")
    assert pv.alpha == 0.9
    # entrywise lower bound must hold exactly, not just within a tolerance
    assert np.all(pv.probs >= (1 - 0.9) / d.n)
    for alpha in (0.2, 0.5, 0.8, 0.99):
        pv = compute_probabilities(d, "SLEV", alpha)
        assert np.all(pv.probs >= (1 - alpha) / d.n)


def test_slev_endpoints_bit_exact():
    d = gaussian_dataset(4, 60, 3)
    blev = compute_probabilities(d, "BLEV").probs
    rand = compute_probabilities(d, "RAND").probs
    assert np.array_equal(compute_probabilities(d, "SLEV", 1.0).probs, blev)
    assert np.array_equal(compute_probabilities(d, "SLEV", 0.0).probs, rand)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_scale_invariance(scheme):
    d = gaussian_dataset(9, 40, 3)
    scaled = Dataset(design=17.3 * d.design, response=d.response)
    alpha = 0.85 if scheme == "SLEV" else None
    p1 = compute_probabilities(d, scheme, alpha).probs
    p2 = compute_probabilities(scaled, scheme, alpha).probs
    np.testing.assert_allclose(p1, p2, rtol=1e-9)


# One design per factorization path: tall enough for the Cholesky QR path,
# below its size gate, and too wide for it (n < 4p).
SCALE_DESIGN_SHAPES = {
    "cholesky_path": (4096, 4),
    "below_size_gate": (300, 3),
    "too_wide": (300, 80),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(SCALE_DESIGN_SHAPES)),
    exponent=st.floats(min_value=-100, max_value=100),
    seed=st.integers(0, 2**32 - 1),
)
def test_leverage_schemes_are_scale_invariant(kind, exponent, seed):
    n, p = SCALE_DESIGN_SHAPES[kind]
    X = np.random.default_rng(seed).standard_t(5, size=(n, p))
    assert (core._cholesky_qr2_svd(X) is not None) == (kind == "cholesky_path")
    c = 10.0**exponent
    for scheme in ("BLEV", "SLEV", "IC", "RL"):
        p1 = compute_probabilities(Dataset(design=X, response=np.zeros(n)), scheme).probs
        p2 = compute_probabilities(Dataset(design=c * X, response=np.zeros(n)), scheme).probs
        np.testing.assert_allclose(p2, p1, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(SCALE_DESIGN_SHAPES)),
    exponent=st.floats(min_value=-100, max_value=100),
    seed=st.integers(0, 2**32 - 1),
)
def test_pl_is_scale_invariant(kind, exponent, seed):
    n, p = SCALE_DESIGN_SHAPES[kind]
    X = np.random.default_rng(seed).standard_t(5, size=(n, p))
    p1 = compute_probabilities(Dataset(design=X, response=np.zeros(n)), "PL").probs
    p2 = compute_probabilities(Dataset(design=10.0**exponent * X, response=np.zeros(n)), "PL").probs
    np.testing.assert_allclose(p2, p1, rtol=1e-12, atol=0)


@pytest.mark.parametrize("power", [-900, 900])
def test_pl_keeps_its_bits_where_squared_rows_over_or_underflow(power):
    # the squares once overflowed to inf, or underflowed to all-zero weights
    X = np.random.default_rng(5).standard_t(5, size=(300, 3))
    base = compute_probabilities(Dataset(design=X, response=np.zeros(300)), "PL").probs
    scaled = Dataset(design=np.ldexp(X, power), response=np.zeros(300))
    assert np.array_equal(compute_probabilities(scaled, "PL").probs, base)


def _root_squared_row_norms(S):
    return np.sqrt(np.einsum("ij,ij->i", S, S))


def _ic_reference(data):
    svd = core.factors(data).full_rank("IC")
    raw = _root_squared_row_norms(svd.U * (svd.s[-1] / svd.s))
    return raw / raw.sum()


def _pl_reference(data):
    raw = _root_squared_row_norms(data.design)
    return raw / raw.sum()


@pytest.mark.parametrize("p", [1, 2, 10, 50])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_blocked_row_norms_have_the_bits_of_one_norm_call(offset, p):
    # the bits of one unblocked einsum of the scaled rows
    n = core._ROW_BLOCK + offset
    X = np.random.default_rng(p).standard_t(5, size=(n, p))
    scale = np.linspace(0.5, 2.0, p)
    np.testing.assert_array_equal(
        core._squared_row_norms(X, scale),
        np.einsum("ij,ij->i", X * scale, X * scale),
    )
    data = Dataset(design=X, response=np.zeros(n))
    np.testing.assert_array_equal(compute_probabilities(data, "IC").probs, _ic_reference(data))
    np.testing.assert_array_equal(compute_probabilities(data, "PL").probs, _pl_reference(data))


@pytest.mark.parametrize("power", [-1060, 1020])
def test_pl_at_the_scale_extremes_has_the_bits_of_the_ldexp_rescaled_rows(power):
    # at 2^-1060 the rescale 2^-e is no double, so the design is rescaled by
    # ldexp; at 2^1020 it is the subnormal 2^-1024, a product like any other
    base = np.random.default_rng(13).standard_t(5, size=(core._ROW_BLOCK + 1, 4))
    X = np.ldexp(base / np.abs(base).max() * 8.0, power)
    e = core.pow2_exponent(X)
    assert e == power + 4
    rescaled = Dataset(design=np.ldexp(X, -e), response=np.zeros(X.shape[0]))
    got = compute_probabilities(Dataset(design=X, response=np.zeros(X.shape[0])), "PL").probs
    np.testing.assert_array_equal(got, _pl_reference(rescaled))


def _traced_peak(data, scheme):
    tracemalloc.start()
    try:
        compute_probabilities(data, scheme)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ic_and_pl_weights_allocate_no_n_by_p_temporary():
    n, p = 100_000, 10
    X = np.random.default_rng(8).standard_t(5, size=(n, p))

    def fresh():
        # a Dataset keeps its factorization, so each peak needs its own
        return Dataset(design=X, response=np.zeros(n))

    # IC needs the same factorization as BLEV and nothing larger than one n-vector more
    assert _traced_peak(fresh(), "IC") <= _traced_peak(fresh(), "BLEV") + 8 * n
    assert _traced_peak(fresh(), "PL") < X.nbytes / 2


@pytest.mark.parametrize("scale, maps", [(1.0, 1), (1e4, 2), (1.0, 0)])
def test_ic_forms_the_spans_of_u_once_and_keeps_the_leverage_from_them(scale, maps, monkeypatch):
    # one map up to cond 1e3, two beyond, and LAPACK's kept U below the size
    # gate; IC's norms and the leverage its zero-row check reads come from
    # one pass, with the bits of two
    n = 2_000 if maps == 0 else 20_000
    X = np.random.default_rng(9).standard_t(5, (n, 5)) * np.array([1.0, 1.0, 1.0, 1.0, scale])
    fresh, reference = (Dataset(design=X, response=np.zeros(len(X))) for _ in range(2))
    assert len(core.factors(fresh).maps) == len(core.factors(reference).maps) == maps
    leverage = core.factors(reference).leverage  # kept first, so IC forms U again
    ic = compute_probabilities(reference, "IC").probs
    spans, times_spans = [], core._times_spans
    monkeypatch.setattr(core, "_times_spans", lambda *args: spans.append(args) or times_spans(*args))
    assert np.array_equal(compute_probabilities(fresh, "IC").probs, ic)
    assert len(spans) == 1
    assert np.array_equal(core.factors(fresh).leverage, leverage)
    blev = compute_probabilities(fresh, "BLEV").probs  # reads the kept leverage
    assert np.array_equal(blev, compute_probabilities(reference, "BLEV").probs)
    assert len(spans) == 1


def test_orthonormal_coincidence():
    rng = np.random.default_rng(12)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 4)))
    d = Dataset(design=Q, response=np.zeros(30))
    ic = compute_probabilities(d, "IC").probs
    rl = compute_probabilities(d, "RL").probs
    pl = compute_probabilities(d, "PL").probs
    np.testing.assert_allclose(ic, rl, atol=1e-12)
    np.testing.assert_allclose(rl, pl, atol=1e-12)


@pytest.mark.parametrize("scheme", ["BLEV", "SLEV", "IC", "RL"])
def test_rank_deficient_rejected(scheme):
    X = np.ones((5, 2))  # duplicated column, rank 1
    d = Dataset(design=X, response=np.zeros(5))
    with pytest.raises(RankError):
        compute_probabilities(d, scheme, 0.5 if scheme == "SLEV" else None)


@pytest.mark.parametrize("scheme", ["BLEV", "SLEV", "IC", "RL"])
def test_zero_row_rejected(scheme):
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # full rank, one zero row
    d = Dataset(design=X, response=np.zeros(3))
    with pytest.raises(DegenerateDistributionError):
        compute_probabilities(d, scheme, 0.5 if scheme == "SLEV" else None)


def test_pl_all_zero_degenerate():
    d = Dataset(design=np.zeros((3, 1)), response=np.zeros(3))
    with pytest.raises(DegenerateDistributionError):
        compute_probabilities(d, "PL")


def test_alpha_validation():
    d = gaussian_dataset(1, 20, 2)
    with pytest.raises(ValidationError):
        compute_probabilities(d, "SLEV", 1.5)
    with pytest.raises(ValidationError, match="^alpha must be a real number, got 'x'$"):
        compute_probabilities(d, "SLEV", "x")  # numpy's ValueError once leaked
    with pytest.raises(ValidationError):
        compute_probabilities(d, "BLEV", 0.5)
    with pytest.raises(ValidationError):
        compute_probabilities(d, "nope")


@pytest.mark.parametrize("scheme", [None, 1])
def test_a_scheme_that_is_no_string_is_a_validation_error(scheme):
    # scheme.upper() once leaked an AttributeError
    with pytest.raises(ValidationError, match=rf"^scheme must be one of \(.*\), got {scheme}$"):
        compute_probabilities(gaussian_dataset(1, 20, 2), scheme)


def test_probability_vector_validation():
    with pytest.raises(ValidationError):
        ProbabilityVector(np.array([0.5, 0.4]), "RAND")  # does not sum to 1
    with pytest.raises(ValidationError):
        ProbabilityVector(np.array([1.5, -0.5]), "RAND")


@settings(max_examples=60, deadline=None)
@given(
    cholqr=st.booleans(),
    p=st.integers(min_value=1, max_value=6),
    n_zero=st.integers(min_value=0, max_value=2),
    zero_pivot=st.booleans(),
    n_tiny=st.integers(min_value=0, max_value=2),
    log_cond=st.floats(min_value=0, max_value=9),
    exponent=st.integers(min_value=-120, max_value=150),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_zero_rows_rejected_exactly_when_present(
    cholqr, p, n_zero, zero_pivot, n_tiny, log_cond, exponent, seed
):
    # The zero-row check reads the computed leverage, which is rounding noise
    # on a zero row among LAPACK's first p (pivot) rows, and 0 on a nonzero
    # row 1e-180 times the others; neither may change the verdict.
    rng = np.random.default_rng(seed)
    n = core.CHOLQR_MIN_ENTRIES // p + 50 if cholqr else int(rng.integers(p + 6, 200))
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    mix = (Q * np.geomspace(1.0, 10.0**-log_cond, p)) @ Q.T
    X = rng.standard_t(5, size=(n, p)) @ mix
    rows = rng.permutation(n)
    if zero_pivot:
        first_pivot = np.flatnonzero(rows < p)[0]
        rows[[0, first_pivot]] = rows[[first_pivot, 0]]
    X[rows[:n_zero]] = 0.0
    tiny = rows[n_zero : n_zero + n_tiny]
    X[tiny] *= 1e-180
    X *= 10.0**exponent
    data = Dataset(design=X, response=np.zeros(n))
    has_zero = not X.any(axis=1).all()
    assert has_zero == (n_zero > 0)
    assert (core._cholesky_qr2_svd(X) is not None) <= cholqr
    for scheme in ("BLEV", "SLEV", "IC", "RL"):
        if has_zero:
            with pytest.raises(DegenerateDistributionError):
                compute_probabilities(data, scheme)
        else:
            pv = compute_probabilities(data, scheme)
            # outside the pivot rows a tiny row's leverage underflows
            assert scheme == "SLEV" or np.all(pv.probs[tiny[tiny >= p]] == 0)
    if has_zero:
        with pytest.raises(DegenerateDistributionError):
            volume._leveraged_proposal(data)
    else:
        volume._leveraged_proposal(data)
