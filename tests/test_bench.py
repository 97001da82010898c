import numpy as np
import pytest

from sublsq import (
    SyntheticSpec,
    ValidationError,
    default_r_grid,
    t5_line_spec,
    generate_synthetic,
    ols_fit,
    run_emse,
)
from sublsq.bench import DEFAULT_REPS, REGISTERED_METHODS, dataset_fingerprint


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
    with pytest.raises(ValidationError):
        SyntheticSpec(n=10, p=2, design_family="gaussian", beta0=(1, 1), noise_sd=1, df=5)
    with pytest.raises(ValidationError):
        SyntheticSpec(n=10, p=3, design_family="t5_line", beta0=(1, 1, 1), noise_sd=1)
    with pytest.raises(ValidationError):
        SyntheticSpec(n=10, p=2, design_family="gaussian", beta0=(1,), noise_sd=1)


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
    # r=10 is not a multiple of 2p=4, so the quota rule rejects every replicate
    report = run_emse(data, ["RAND", "IBOSS"], [10], reps=6, seed=9)
    recs = _records_by_key(report)
    assert recs[("IBOSS", 10)].failed
    assert recs[("IBOSS", 10)].n_failed == 6
    assert np.isnan(recs[("IBOSS", 10)].emse)
    assert not recs[("RAND", 10)].failed


def test_volume_methods_fail_beyond_desk_scale_but_run_small():
    big = generate_synthetic(heavy_tailed_spec(400), 10)
    report = run_emse(big, ["VOL"], [4], reps=4, seed=11)
    assert _records_by_key(report)[("VOL", 4)].failed
    small = generate_synthetic(
        SyntheticSpec(n=12, p=2, design_family="gaussian", beta0=(1.0, 1.0), noise_sd=0.5),
        13,
    )
    report = run_emse(small, ["VOL"], [4], reps=6, seed=14)
    rec = _records_by_key(report)[("VOL", 4)]
    assert not rec.failed and rec.emse >= 0


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
    with pytest.raises(ValidationError, match="criterion"):
        run_emse(data, ["GREEDY"], [4], reps=2, seed=0, criterion="T")


def test_registered_methods_keep_their_names_and_order():
    assert REGISTERED_METHODS == (
        "OLS", "RAND", "BLEV", "SLEV", "IC", "RL", "PL",
        "IBOSS", "GREEDY", "EXCHANGE", "VOL", "LEVVOL",
    )
