import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import sublsq.bench as bench_mod
import sublsq.sampler as sampler_mod
from sublsq import (
    Dataset,
    SubLsqError,
    SyntheticSpec,
    ValidationError,
    compute_probabilities,
    default_r_grid,
    draw,
    exchange_improve,
    t5_line_spec,
    generate_synthetic,
    greedy_select,
    iboss_select,
    ols_fit,
    run_emse,
    subsample_estimate,
    volume_sample,
    weighted_ls_fit,
)
from sublsq.bench import DEFAULT_REPS, REGISTERED_METHODS, dataset_fingerprint
from sublsq.core import factors
from sublsq.rng import derive_rng


def _records_by_key(report):
    return {(rec.method, rec.r): rec for rec in report.records}


def heavy_tailed_spec(n=400):
    return SyntheticSpec(
        n=n, p=2, design_family="student_t", beta0=(1.0, 1.0), noise_sd=1.0, df=5.0
    )


def test_synthetic_spec_validation():
    with pytest.raises(ValidationError):
        SyntheticSpec(n=10, p=2, design_family="cauchy", beta0=(1, 1), noise_sd=1)
    with pytest.raises(ValidationError):
        SyntheticSpec(n=10, p=2, design_family="student_t", beta0=(1, 1), noise_sd=1, df=2)
    for df in (math.inf, math.nan):  # standard_t(inf) draws NaN
        with pytest.raises(ValidationError, match="finite df > 2"):
            SyntheticSpec(n=10, p=2, design_family="student_t", beta0=(1, 1), noise_sd=1, df=df)
    with pytest.raises(ValidationError):
        SyntheticSpec(n=10, p=2, design_family="gaussian", beta0=(1, 1), noise_sd=1, df=5)
    with pytest.raises(ValidationError):
        SyntheticSpec(n=10, p=3, design_family="t5_line", beta0=(1, 1, 1), noise_sd=1)
    with pytest.raises(ValidationError):
        SyntheticSpec(n=10, p=2, design_family="gaussian", beta0=(1,), noise_sd=1)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n", 10.5, "n must be an integer, got 10.5"),
        ("n", True, "n must be an integer, got True"),
        ("n", 0, "n=0 must be at least 1"),
        ("p", 2.0, "p must be an integer, got 2.0"),
        ("p", 0, "p=0 must be at least 1"),
        ("noise_sd", math.inf, "noise_sd must be finite and nonnegative, got inf"),
        ("noise_sd", math.nan, "noise_sd must be finite and nonnegative, got nan"),
        ("noise_sd", -1.0, "noise_sd must be finite and nonnegative, got -1.0"),
        ("beta0", (1.0, math.inf), "beta0 must be finite, got (1.0, inf)"),
        ("beta0", (math.nan, 1.0), "beta0 must be finite, got (nan, 1.0)"),
        ("beta0", ("a", "b"), "beta0 must be a vector of real numbers, got ('a', 'b')"),
        ("beta0", 1.0, "beta0 must be a vector of real numbers, got 1.0"),
        ("noise_sd", "1", "noise_sd must be a real number, got '1'"),
        ("df", "5", "df must be a real number, got '5'"),
    ],
)
def test_synthetic_spec_names_each_bad_field(field, value, message):
    # a float or bool n or p once passed, and generate_synthetic leaked
    # numpy's TypeError; a non-finite noise_sd or beta0 was reported as a
    # non-finite response; a beta0, noise_sd or df of the wrong type leaked
    # a TypeError from len(), isfinite or a comparison
    fields = dict(n=10, p=2, design_family="gaussian", beta0=(1.0, 1.0), noise_sd=1.0)
    fields[field] = value
    with pytest.raises(ValidationError) as caught:
        SyntheticSpec(**fields)
    assert str(caught.value) == message


def test_finite_coefficients_that_overflow_the_response_are_a_dataset_error():
    spec = SyntheticSpec(n=10, p=2, design_family="gaussian", beta0=(1e308, 1e308), noise_sd=1.0)
    with pytest.raises(ValidationError, match="^response contains NaN or Inf entries$"):
        generate_synthetic(spec, 0)


def test_generate_synthetic_keeps_its_fresh_arrays():
    # the Dataset constructor once copied the design, as many bytes again
    spec = SyntheticSpec(n=200_000, p=10, design_family="student_t", beta0=(1.0,) * 10, noise_sd=1.0, df=5.0)
    tracemalloc.start()
    try:
        data = generate_synthetic(spec, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * (data.design.nbytes + data.response.nbytes)
    assert not data.design.flags.writeable and not data.response.flags.writeable


def test_noiseless_data_identifies_coefficients():
    spec = SyntheticSpec(
        n=200, p=3, design_family="gaussian", beta0=(2.0, -1.0, 0.5), noise_sd=0.0
    )
    data = generate_synthetic(spec, 4)
    np.testing.assert_allclose(ols_fit(data).beta, [2.0, -1.0, 0.5], atol=1e-8)


def test_t5_line_family_shape_and_centering():
    data = generate_synthetic(t5_line_spec(1000), 123)
    assert data.p == 2
    np.testing.assert_allclose(data.design[:, 0], 1.0)
    assert abs(data.design[:, 1].mean()) < 0.2


def test_generation_is_deterministic():
    spec = heavy_tailed_spec()
    a = generate_synthetic(spec, 9)
    b = generate_synthetic(spec, 9)
    assert a.design.tobytes() == b.design.tobytes()
    assert a.response.tobytes() == b.response.tobytes()
    assert dataset_fingerprint(a) == dataset_fingerprint(b)


def test_default_grid_and_reps():
    assert default_r_grid(3) == (15, 30, 45, 60)
    assert DEFAULT_REPS == 100


def _stats(report):
    # everything except wall-clock timing, which can never be bit-stable
    return [
        (r.method, r.r, r.emse, r.emse_sd, r.n_ok, r.n_failed, r.failed)
        for r in report.records
    ]


def test_report_reproducible_bit_exactly():
    data = generate_synthetic(heavy_tailed_spec(), 1)
    a = run_emse(data, ["RAND", "BLEV"], [10], reps=1, seed=5)
    b = run_emse(data, ["RAND", "BLEV"], [10], reps=1, seed=5)
    assert _stats(a) == _stats(b)
    assert a.dataset_fingerprint == b.dataset_fingerprint


def test_report_independent_of_worker_count():
    data = generate_synthetic(heavy_tailed_spec(), 2)
    serial = run_emse(data, ["RAND", "SLEV"], [10, 20], reps=12, seed=3, workers=1)
    threaded = run_emse(data, ["RAND", "SLEV"], [10, 20], reps=12, seed=3, workers=4)
    for key, rec in _records_by_key(serial).items():
        other = _records_by_key(threaded)[key]
        assert rec.emse == other.emse and rec.emse_sd == other.emse_sd


def test_report_independent_of_method_order():
    data = generate_synthetic(heavy_tailed_spec(), 3)
    fwd = _records_by_key(run_emse(data, ["RAND", "BLEV", "PL"], [10], reps=10, seed=4))
    rev = _records_by_key(run_emse(data, ["PL", "BLEV", "RAND"], [10], reps=10, seed=4))
    for key in fwd:
        assert fwd[key].emse == rev[key].emse


def test_full_ols_control_beats_every_subsample_method():
    data = generate_synthetic(heavy_tailed_spec(), 6)
    report = run_emse(data, ["OLS", "RAND", "BLEV", "IC", "RL", "PL"], [20], reps=50, seed=7)
    recs = _records_by_key(report)
    control = recs[("OLS", 20)].emse
    for method in ("RAND", "BLEV", "IC", "RL", "PL"):
        assert control < recs[(method, 20)].emse


def test_failing_method_marked_not_fatal():
    data = generate_synthetic(heavy_tailed_spec(), 8)
    # a repeated column: BLEV needs full rank and fails on every bootstrap
    # sample, while RAND falls back to the minimum-norm fit
    x = data.design[:, 1]
    data = Dataset(np.column_stack([x, x]), data.response)
    report = run_emse(data, ["RAND", "BLEV"], [10], reps=6, seed=9)
    recs = _records_by_key(report)
    assert recs[("BLEV", 10)].failed
    assert recs[("BLEV", 10)].n_failed == 6
    assert np.isnan(recs[("BLEV", 10)].emse)
    assert not recs[("RAND", 10)].failed


def test_methods_whose_rule_fails_every_replicate_are_rejected_up_front():
    data = generate_synthetic(heavy_tailed_spec(50), 8)
    # r=6 is not a multiple of 2p=4; it once counted as a failed replicate
    # of every cell. VOL, once capped at n=20 by subset enumeration, runs
    with pytest.raises(ValidationError, match="method IBOSS cannot run at r=6: .*multiple of 2p=4"):
        run_emse(data, ["RAND", "IBOSS"], [8, 6], reps=2, seed=9)
    rec = _records_by_key(run_emse(data, ["VOL"], [8], reps=2, seed=9))[("VOL", 8)]
    assert rec.n_failed == 0 and np.isfinite(rec.emse)


def test_volume_methods_run_beyond_desk_scale():
    # the standard variant was once drawn by enumerating every subset, so
    # VOL raised CapacityError on any bootstrap sample of more than 20 rows
    for n in (50, 400):
        data = generate_synthetic(heavy_tailed_spec(n), 10)
        recs = _records_by_key(run_emse(data, ["VOL"], [4, 40], reps=4, seed=11))
        for rec in recs.values():
            assert rec.n_failed == 0 and not rec.failed
            assert np.isfinite(rec.emse) and rec.emse >= 0


def test_deterministic_selectors_in_harness():
    data = generate_synthetic(heavy_tailed_spec(60), 15)
    report = run_emse(data, ["IBOSS", "GREEDY", "EXCHANGE"], [8], reps=5, seed=16)
    for rec in report.records:
        assert not rec.failed
        assert rec.emse >= 0


def test_heavy_tail_directional_advantage_light():
    # reduced-scale version of the frozen acceptance comparison
    wins = 0
    for seed in range(10):
        data = generate_synthetic(heavy_tailed_spec(1000), (1000, seed))
        recs = _records_by_key(run_emse(data, ["RAND", "BLEV"], [20], reps=100, seed=seed))
        wins += recs[("BLEV", 20)].emse < recs[("RAND", 20)].emse
    assert wins >= 8


def test_t5_line_advantage_at_smallest_grid_size():
    # with an intercept column the leverage edge only shows at the bottom
    # of the size grid, where uniform draws often miss the tails entirely
    emse = {"RAND": [], "BLEV": []}
    for seed in range(10):
        data = generate_synthetic(t5_line_spec(1000), (77, seed))
        recs = _records_by_key(run_emse(data, ["RAND", "BLEV"], [10], reps=100, seed=seed))
        for m in emse:
            emse[m].append(recs[(m, 10)].emse)
    assert np.mean(emse["BLEV"]) < np.mean(emse["RAND"])


def test_t5_line_emse_records_are_pinned():
    # The validation shortcuts on the draw and fit path changed no record.
    # Values are hashed at 12 significant digits, so a BLAS that rounds
    # its SVD differently in the last bit does not move the hash.
    data = generate_synthetic(t5_line_spec(1000), 2024)
    report = run_emse(data, ["RAND", "BLEV", "SLEV", "IC", "RL", "PL"], [10, 20, 30, 40], reps=20, seed=7)
    h = hashlib.sha256()
    for rec in report.records:
        h.update(f"{rec.method} {rec.r} {rec.emse:.12e} {rec.emse_sd:.12e} {rec.n_ok} {rec.n_failed}\n".encode())
    assert h.hexdigest() == "adaa9adef9521e359e9be6990432eda8ace35eb26deda99c554cabf85d714f56"


def test_run_emse_rejects_a_method_that_is_no_string():
    # None.upper() once leaked an AttributeError
    data = generate_synthetic(t5_line_spec(50), 0)
    with pytest.raises(ValidationError, match=r"^method must be one of \(.*\), got None$"):
        run_emse(data, [None], [10], reps=2)


def test_run_emse_validation():
    data = generate_synthetic(heavy_tailed_spec(50), 17)
    with pytest.raises(ValidationError):
        run_emse(data, ["NOPE"], [10], reps=2, seed=0)
    with pytest.raises(ValidationError):
        run_emse(data, ["RAND"], [1], reps=2, seed=0)
    with pytest.raises(ValidationError):
        run_emse(data, ["RAND"], [10], reps=0, seed=0)
    # rejected up front, not counted as a failed replicate of every cell
    with pytest.raises(ValidationError, match="alpha"):
        run_emse(data, ["SLEV"], [4], reps=2, seed=0, alpha=-1)
    with pytest.raises(ValidationError, match="^alpha must be a real number, got 'x'$"):
        run_emse(data, ["SLEV"], [4], reps=2, seed=0, alpha="x")
    with pytest.raises(ValidationError, match="criterion"):
        run_emse(data, ["GREEDY"], [4], reps=2, seed=0, criterion="T")


@pytest.mark.parametrize("methods, r_values, name", [((), [10], "methods"), (["RAND"], [], "r_values")])
def test_run_emse_rejects_an_empty_method_or_size_list(methods, r_values, name):
    # once returned a report with no records
    data = generate_synthetic(heavy_tailed_spec(50), 17)
    with pytest.raises(ValidationError, match=f"^{name} must not be empty"):
        run_emse(data, methods, r_values, reps=2, seed=0)


@pytest.mark.parametrize("methods, r_values, name", [
    (["RAND", "rand"], [10], "methods"), (["RAND"], [10, np.int64(10)], "r_values"),
])
def test_run_emse_rejects_a_repeated_method_or_size(methods, r_values, name):
    # once ran the repeat again and reported it twice
    data = generate_synthetic(heavy_tailed_spec(50), 17)
    with pytest.raises(ValidationError, match=f"^{name} must not repeat"):
        run_emse(data, methods, r_values, reps=2, seed=0)


@pytest.mark.parametrize("method", ["GREEDY", "EXCHANGE"])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_method_input_error_stops_the_run_naming_method_and_r(method, workers):
    # r above n once counted as a failed replicate of every cell
    data = generate_synthetic(heavy_tailed_spec(50), 8)
    r = data.n + 10
    match = f"^method {method} cannot run at r={r}: subset size r={r} exceeds n={data.n}$"
    with pytest.raises(ValidationError, match=match):
        run_emse(data, [method, "RAND"], [8, r], reps=3, seed=9, workers=workers)


def test_registered_methods_keep_their_names_and_order():
    assert REGISTERED_METHODS == (
        "OLS", "RAND", "BLEV", "SLEV", "IC", "RL", "PL",
        "IBOSS", "GREEDY", "EXCHANGE", "VOL", "LEVVOL",
    )


def _restated_records(data, methods, r_values, reps, seed, alpha=0.9):
    """run_emse's records by a literal per-cell loop: for every (rep, method,
    r), probabilities, then draw, then estimate, or the full fit, or the
    selection and its fit, with nothing shared."""
    beta_full = ols_fit(data).beta
    out = {}
    for method in methods:
        for r in r_values:
            ok = []
            for rep in range(reps):
                sample = data.take_rows(derive_rng(seed, "bootstrap", rep).integers(0, data.n, size=data.n))
                try:
                    if method == "OLS":
                        beta = ols_fit(sample).beta
                    elif method == "IBOSS":
                        beta = ols_fit(sample.take_rows(iboss_select(sample, r).indices)).beta
                    elif method == "GREEDY":
                        beta = ols_fit(sample.take_rows(greedy_select(sample, r, "D").indices)).beta
                    elif method == "EXCHANGE":
                        picked = exchange_improve(sample, greedy_select(sample, r, "D"))
                        beta = ols_fit(sample.take_rows(picked.indices)).beta
                    elif method == "LEVVOL":
                        rows = volume_sample(sample, r, "leveraged", (seed, "method", "LEVVOL", rep, r))
                        weights = sample.p / factors(sample).leverage[rows]
                        beta = weighted_ls_fit(sample.take_rows(rows), weights).beta
                    else:
                        pv = compute_probabilities(sample, method, alpha if method == "SLEV" else None)
                        d = draw(pv, r, (seed, "method", method, rep, r))
                        mode = "plain" if method == "RAND" else "weighted"
                        beta = subsample_estimate(sample, d, mode).beta
                except SubLsqError:
                    continue
                diff = beta - beta_full
                ok.append(float(diff @ diff))
            n_failed = reps - len(ok)
            failed = 2 * n_failed > reps
            emse = float("nan") if failed else float(np.mean(ok))
            sd = float("nan") if failed else (float(np.std(ok, ddof=1)) if len(ok) > 1 else 0.0)
            out[(method, r)] = (emse, sd, len(ok), n_failed, failed)
    return out


def test_leveraged_volume_estimate_is_unbiased_for_the_full_fit():
    # LEVVOL was once fit by plain OLS on its rows, which sat more than 50
    # standard errors from the full fit here; its unbiased estimator weights
    # each drawn row by 1/q, q = leverage/p (Derezinski, Warmuth and Hsu, 2018).
    # A curved mean, so the linear model is wrong and only that weighting is
    # unbiased. Design, N and seeds are fixed here, the bound is 5 standard errors.
    rng = np.random.default_rng(5)
    x = rng.standard_t(3, size=200)
    data = Dataset(np.column_stack([np.ones(200), x]), 1 + x + 0.5 * x**2 + rng.standard_normal(200))
    pick = bench_mod._prepared("LEVVOL", data, None, "D", None, 1)
    betas = np.array([pick(20, ("levvol", i))[1]().beta for i in range(2000)])
    se = betas.std(axis=0, ddof=1) / np.sqrt(len(betas))
    assert np.all(np.abs(betas.mean(axis=0) - ols_fit(data).beta) < 5 * se)


def _spiked_design():
    # the third column is nonzero in one row only, so a bootstrap sample that
    # misses that row (about 37% of them) is rank deficient
    base = generate_synthetic(t5_line_spec(60), 41)
    spike = np.zeros(60)
    spike[17] = 2.5
    design = np.column_stack([base.design, spike])
    return Dataset(design=design, response=base.response + spike)


HOIST_CASES = {
    "t5_line": (lambda: generate_synthetic(t5_line_spec(300), 40), (8, 12, 20), 6),
    "student_t_p10": (
        lambda: generate_synthetic(
            SyntheticSpec(n=400, p=10, design_family="student_t", beta0=(1.0,) * 10, noise_sd=1.0, df=3.0), 42
        ),
        (20, 40),
        5,
    ),
    "rank_deficient_samples": (_spiked_design, (6, 12, 18), 10),
}


@pytest.mark.filterwarnings("ignore:leveraged volume sampling is tuned")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(HOIST_CASES))
def test_records_match_a_literal_per_cell_restatement(case, workers):
    # probabilities and alias tables (or the full fit) are built once per
    # (replicate, method) and shared by every r; the records keep every bit
    # of the per-cell loop
    make, r_values, reps = HOIST_CASES[case]
    data = make()
    methods = ("OLS", "RAND", "BLEV", "SLEV", "IC", "RL", "PL", "IBOSS", "GREEDY", "EXCHANGE", "LEVVOL")
    report = run_emse(data, methods, r_values, reps=reps, seed=11, workers=workers)
    expected = _restated_records(data, methods, r_values, reps, 11)
    got = {
        (rec.method, rec.r): (rec.emse, rec.emse_sd, rec.n_ok, rec.n_failed, rec.failed)
        for rec in report.records
    }
    assert got.keys() == expected.keys()
    for key, want in expected.items():
        have = got[key]
        assert have[2:] == want[2:], key
        for a, b in zip(have[:2], want[:2]):
            assert a == b or (np.isnan(a) and np.isnan(b)), key
    if case == "rank_deficient_samples":
        # the failure path ran: a scheme's probabilities raised on some
        # replicates, and then every r of that replicate failed
        for method in ("BLEV", "SLEV", "IC", "RL"):
            failures = {got[(method, r)][3] for r in r_values}
            assert len(failures) == 1 and 0 < failures.pop() < reps


def _fake_clock(monkeypatch):
    """Freeze run_emse's clock; the returned function advances it by seconds."""
    now = [0.0]
    monkeypatch.setattr(bench_mod, "time", SimpleNamespace(perf_counter=lambda: now[0]))

    def advance(seconds):
        now[0] += seconds

    return advance


def test_mean_time_is_shared_build_plus_own_draw_and_fit_over_successes(monkeypatch):
    advance = _fake_clock(monkeypatch)
    real_probs, real_estimate = bench_mod.compute_probabilities, bench_mod.subsample_estimate

    def probs(*args):
        out = real_probs(*args)
        advance(1.0)
        return out

    def estimate(sample, d, mode):
        advance(d.r / 1000)
        return real_estimate(sample, d, mode)

    monkeypatch.setattr(bench_mod, "compute_probabilities", probs)
    monkeypatch.setattr(bench_mod, "subsample_estimate", estimate)
    report = run_emse(_spiked_design(), ["BLEV"], [6, 12], reps=10, seed=11)
    for rec in report.records:
        # some replicates failed; they are left out of the mean, not counted as 0 ms
        assert 0 < rec.n_failed < 10
        assert rec.mean_time_ms == pytest.approx(1000.0 + rec.r)


def test_mean_time_is_nan_when_every_replicate_fails():
    data = generate_synthetic(heavy_tailed_spec(), 8)
    x = data.design[:, 1]
    data = Dataset(np.column_stack([x, x]), data.response)
    recs = _records_by_key(run_emse(data, ["RAND", "BLEV"], [10], reps=4, seed=9))
    assert recs[("BLEV", 10)].n_ok == 0 and np.isnan(recs[("BLEV", 10)].mean_time_ms)
    assert recs[("RAND", 10)].mean_time_ms > 0


def test_emse_job_builds_one_alias_table_per_replicate_and_scheme(monkeypatch):
    # and draws every r through the public draw
    tables, draws = [], []
    real_table, real_draw = sampler_mod.alias_table, bench_mod.draw

    def table(probs):
        tables.append(probs.shape)
        return real_table(probs)

    def counted_draw(pv, r, key):
        draws.append(r)
        return real_draw(pv, r, key)

    monkeypatch.setattr(sampler_mod, "alias_table", table)
    monkeypatch.setattr(bench_mod, "draw", counted_draw)
    data = generate_synthetic(t5_line_spec(n=100), 4)
    run_emse(data, ["BLEV", "IC"], [10, 20, 30], reps=3, seed=5)
    assert len(tables) == 3 * 2
    assert sorted(draws) == [10] * 6 + [20] * 6 + [30] * 6
