"""Acceptance suite: one test per release criterion, each printing a
pass line and holding the stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from sublsq import (
    Dataset,
    ProbabilityVector,
    SyntheticSpec,
    avar_matrix,
    compute_probabilities,
    criterion_value,
    draw,
    exchange_improve,
    generate_synthetic,
    greedy_select,
    iboss_select,
    leverage_scores,
    leveraged_volume_distribution,
    ols_fit,
    run_emse,
    standard_volume_distribution,
    subsample_estimate,
    trace_amse,
    volume_sample,
    weighted_ls_fit,
)
from sublsq.cli import main as cli_main
from sublsq.errors import SingularSubsetError
from sublsq.rng import derive_rng


class _Budget:
    def __init__(self, number, name, seconds):
        self.number, self.name, self.seconds = number, name, seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            status = "PASS" if elapsed <= self.seconds else "FAIL (over budget)"
            print(f"[acceptance] criterion {self.number} ({self.name}): "
                  f"{status} in {elapsed:.1f}s (budget {self.seconds:.0f}s)")
            assert elapsed <= self.seconds, f"criterion {self.number} exceeded runtime budget"
        else:
            print(f"[acceptance] criterion {self.number} ({self.name}): FAIL")


def test_criterion_1_leverage_trace_identity():
    with _Budget(1, "leverage trace identity", 5):
        rng = derive_rng(101)
        for _ in range(200):
            n = int(rng.integers(12, 501))
            p = int(rng.integers(1, 11))
            X = rng.standard_normal((n, p))
            scores = leverage_scores(Dataset(design=X, response=np.zeros(n)))
            assert abs(scores.sum() - p) <= 1e-8
            assert np.all(scores > 0) and np.all(scores < 1)


def test_criterion_2_weighted_plain_equivalence():
    with _Budget(2, "uniform-weight equivalence", 5):
        rng = derive_rng(102)
        for _ in range(100):
            n = int(rng.integers(10, 200))
            p = int(rng.integers(1, 8))
            X = rng.standard_normal((n, p))
            y = rng.standard_normal(n)
            d = Dataset(design=X, response=y)
            plain = ols_fit(d).beta
            weighted = weighted_ls_fit(d, np.full(n, 1.0)).beta
            np.testing.assert_allclose(weighted, plain, rtol=1e-10)


def test_criterion_3_asymptotic_variance():
    with _Budget(3, "asymptotic variance formula", 120):
        # exact algebraic collapse under uniform probabilities
        rng = derive_rng(103)
        X0 = rng.standard_normal((60, 3))
        d0 = Dataset(design=X0, response=np.zeros(60))
        pv0 = compute_probabilities(d0, "RAND")
        collapsed = avar_matrix(d0, pv0, 12, 1.9).matrix
        expect = 1.9 * (1 + 60 / 12) * np.linalg.inv(X0.T @ X0)
        np.testing.assert_allclose(collapsed, expect, rtol=1e-10)

        # Monte Carlo agreement per scheme: fresh noise + fresh draw
        n, p, r, reps = 1000, 3, 100, 5000
        X = derive_rng(2024, "design").standard_normal((n, p))
        beta0 = np.array([1.0, -0.5, 2.0])
        base = Dataset(design=X, response=X @ beta0)
        for scheme in ("BLEV", "SLEV", "IC", "RL", "PL"):
            alpha = 0.9 if scheme == "SLEV" else None
            pv = compute_probabilities(base, scheme, alpha)
            analytic = avar_matrix(base, pv, r, 1.0).trace
            betas = np.empty((reps, p))
            for i in range(reps):
                y = X @ beta0 + derive_rng(2024, "noise", i).standard_normal(n)
                betas[i] = subsample_estimate(
                    Dataset(design=X, response=y), draw(pv, r, (2024, "draw", i)), "weighted"
                ).beta
            empirical = float(np.trace(np.cov(betas.T)))
            assert abs(empirical - analytic) / analytic <= 0.15, (scheme, empirical, analytic)


def test_criterion_4_optimal_probability_vectors():
    with _Budget(4, "AMSE-optimal probabilities", 30):
        d = Dataset(
            design=derive_rng(104).standard_normal((200, 3)),
            response=np.zeros(200),
        )
        rng = derive_rng(105)
        for scheme, target in (("IC", "beta"), ("RL", "Xbeta"), ("PL", "XtXbeta")):
            opt = trace_amse(d, compute_probabilities(d, scheme), 25, 1.0, target)
            for _ in range(1000):
                v = rng.dirichlet(np.ones(d.n))
                v = np.maximum(v, 1e-12)
                pv = ProbabilityVector(v / v.sum(), "RAND")
                assert opt <= trace_amse(d, pv, 25, 1.0, target) + 1e-12


def test_criterion_5_orthonormal_coincidence():
    with _Budget(5, "orthonormal-design coincidence", 1):
        for seed in (0, 1, 2):
            Q, _ = np.linalg.qr(derive_rng(106, seed).standard_normal((40, 4)))
            d = Dataset(design=Q, response=np.zeros(40))
            ic = compute_probabilities(d, "IC").probs
            rl = compute_probabilities(d, "RL").probs
            pl = compute_probabilities(d, "PL").probs
            assert np.max(np.abs(ic - rl)) <= 1e-12
            assert np.max(np.abs(rl - pl)) <= 1e-12


def _tv(draws, masses_by_key):
    counts = Counter(tuple(row) for row in draws)
    m = draws.shape[0]
    keys = set(counts) | set(masses_by_key)
    return 0.5 * sum(abs(counts.get(k, 0) / m - masses_by_key.get(k, 0.0)) for k in keys)


def test_criterion_6_volume_sampling_exactness():
    with _Budget(6, "volume sampling exactness", 120):
        rng = derive_rng(107)
        for p in (1, 2, 3):
            for n in range(p, 11):
                for r in range(p, n + 1):
                    X = rng.standard_normal((n, p))
                    dist = standard_volume_distribution(
                        Dataset(design=X, response=np.zeros(n)), r
                    )
                    assert abs(dist.masses.sum() - 1.0) <= 1e-10

        # sampler vs enumeration, standard variant
        col = Dataset(design=np.array([[1.0], [2.0], [3.0]]), response=np.zeros(3))
        dist = standard_volume_distribution(col, 1)
        exact = {tuple(s): m for s, m in zip(dist.subsets, dist.masses)}
        draws = volume_sample(col, 1, "standard", 1006, size=100_000)
        assert _tv(draws, exact) <= 0.02

        X6 = derive_rng(108).standard_normal((6, 2))
        d6 = Dataset(design=X6, response=np.zeros(6))
        dist6 = standard_volume_distribution(d6, 3)
        exact6 = {tuple(s): m for s, m in zip(dist6.subsets, dist6.masses)}
        draws6 = volume_sample(d6, 3, "standard", 1007, size=100_000)
        assert _tv(draws6, exact6) <= 0.02

        # sampler vs enumeration, leveraged variant (enumeration path and
        # the forced rejection path must both land on the same masses)
        ldist = leveraged_volume_distribution(col, 2)
        lexact = {tuple(s): m for s, m in zip(ldist.subsets, ldist.masses)}
        with pytest.warns(UserWarning):
            ldraws = volume_sample(col, 2, "leveraged", 1008, size=100_000)
        assert _tv(ldraws, lexact) <= 0.02
        X32 = derive_rng(109).standard_normal((3, 2))
        d32 = Dataset(design=X32, response=np.zeros(3))
        ldist2 = leveraged_volume_distribution(d32, 2)
        lexact2 = {tuple(s): m for s, m in zip(ldist2.subsets, ldist2.masses)}
        with pytest.warns(UserWarning):
            rdraws = volume_sample(
                d32, 2, "leveraged", 1009, size=100_000, enumeration_limit=1
            )
        assert _tv(rdraws, lexact2) <= 0.02


def test_criterion_7_optimality_criteria_oracle():
    with _Budget(7, "optimality-criterion oracle", 60):
        rng = derive_rng(110)
        # values against direct inverse computation
        for _ in range(200):
            n = int(rng.integers(6, 11))
            p = int(rng.integers(1, 3))
            X = rng.standard_normal((n, p))
            d = Dataset(design=X, response=np.zeros(n))
            idx = rng.choice(n, size=int(rng.integers(p + 2, n + 1)), replace=False)
            M_inv = np.linalg.inv(X[idx].T @ X[idx])
            assert criterion_value(d, idx, "A") == pytest.approx(np.trace(M_inv), rel=1e-10)
            assert criterion_value(d, idx, "D") == pytest.approx(np.linalg.det(M_inv), rel=1e-10)
            assert criterion_value(d, idx, "E") == pytest.approx(
                np.max(np.linalg.eigvalsh(M_inv)), rel=1e-10
            )

        # greedy + exchange vs exhaustive enumeration
        matched = 0
        total = 200
        for t in range(total):
            n = int(rng.integers(5, 11))
            p = int(rng.integers(1, 3))
            X = rng.standard_normal((n, p))
            d = Dataset(design=X, response=np.zeros(n))
            r = int(rng.integers(p, min(4, n) + 1))
            crit = "ADE"[t % 3]
            best = np.inf
            for S in combinations(range(n), r):
                try:
                    best = min(best, criterion_value(d, S, crit))
                except SingularSubsetError:
                    continue
            sel = exchange_improve(d, greedy_select(d, r, crit))
            assert sel.value >= best * (1 - 1e-9), "heuristic beat exhaustive search"
            if sel.value <= best * (1 + 1e-9):
                matched += 1
        assert matched >= 0.60 * total, f"only {matched}/{total} matched the optimum"


def _iboss_literal(X, r):
    n, p = X.shape
    quota = r // (2 * p)
    chosen: list[int] = []
    for j in range(p):
        pool = [i for i in range(n) if i not in chosen]
        chosen += sorted(pool, key=lambda i: (X[i, j], i))[:quota]
        pool = [i for i in range(n) if i not in chosen]
        chosen += sorted(pool, key=lambda i: (-X[i, j], i))[:quota]
    return sorted(chosen)


def test_criterion_8_iboss_determinism():
    with _Budget(8, "extreme-row selection oracle", 5):
        rng = derive_rng(111)
        done = 0
        while done < 100:
            n = int(rng.integers(6, 40))
            p = int(rng.integers(1, 5))
            max_quota = n // (2 * p)
            if max_quota < 1:
                continue
            r = 2 * p * int(rng.integers(1, max_quota + 1))
            # small integer grids force plenty of ties
            X = rng.integers(-4, 5, size=(n, p)).astype(float)
            d = Dataset(design=X, response=np.zeros(n))
            assert iboss_select(d, r).indices.tolist() == _iboss_literal(X, r)
            done += 1


def test_criterion_9_directional_emse():
    with _Budget(9, "directional EMSE reproduction", 180):
        spec = SyntheticSpec(
            n=1000, p=2, design_family="student_t", beta0=(1.0, 1.0), noise_sd=1.0, df=5.0
        )
        wins = 0
        for seed in range(100):
            data = generate_synthetic(spec, (1000, seed))
            report = run_emse(data, ["RAND", "BLEV"], [20], reps=100, seed=seed)
            emse = {rec.method: rec.emse for rec in report.records}
            wins += emse["BLEV"] < emse["RAND"]
        assert wins >= 90, f"leverage sampling won only {wins}/100 seeds"

        methods = ["RAND", "BLEV", "SLEV", "IC", "RL", "PL"]
        sums = {m: {10: 0.0, 40: 0.0} for m in methods}
        for seed in range(20):
            data = generate_synthetic(spec, (2000, seed))
            report = run_emse(data, methods, [10, 40], reps=100, seed=seed)
            for rec in report.records:
                sums[rec.method][rec.r] += rec.emse
        for m in methods:
            assert sums[m][40] < sums[m][10], f"{m} EMSE not decreasing in r"


def test_criterion_10_cli_reproducibility(tmp_path):
    with _Budget(10, "end-to-end reproducibility", 30):
        sim = tmp_path / "sim.csv"
        assert cli_main([
            "simulate", "--family", "gaussian", "--n", "60", "--p", "2",
            "--beta0", "1,1", "--noise-sd", "0.5", "--seed", "2", "--output", str(sim),
        ]) == 0

        commands = {
            "fit": ["fit", "--input", str(sim), "--response", "y"],
            "probs": ["probs", "--input", str(sim), "--predictors", "x1,x2", "--scheme", "slev"],
            "subsample": ["subsample", "--input", str(sim), "--response", "y",
                          "--scheme", "ic", "--r", "10", "--seed", "4"],
            "select": ["select", "--input", str(sim), "--predictors", "x1,x2",
                       "--method", "greedy", "--criterion", "A", "--r", "5"],
            "amse": ["amse", "--input", str(sim), "--response", "y",
                     "--scheme", "rl", "--r", "10"],
            "bench": ["bench", "--synthetic", "t5_line", "--n", "100",
                      "--methods", "RAND,BLEV", "--r", "8", "--reps", "5", "--seed", "6"],
        }
        for name, argv in commands.items():
            out1, out2 = tmp_path / f"{name}1.json", tmp_path / f"{name}2.json"
            assert cli_main(argv + ["--output", str(out1)]) == 0
            assert cli_main(argv + ["--output", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes(), f"{name} output not byte-stable"

        # simulate writes its data to --output; rerunning must reproduce it
        sim2 = tmp_path / "sim2.csv"
        assert cli_main([
            "simulate", "--family", "gaussian", "--n", "60", "--p", "2",
            "--beta0", "1,1", "--noise-sd", "0.5", "--seed", "2", "--output", str(sim2),
        ]) == 0
        assert sim.read_bytes() == sim2.read_bytes()

        # thread count must not change any result content
        w1, w4 = tmp_path / "w1.json", tmp_path / "w4.json"
        base = commands["bench"]
        assert cli_main(base + ["--workers", "1", "--output", str(w1)]) == 0
        assert cli_main(base + ["--workers", "4", "--output", str(w4)]) == 0
        r1 = json.loads(w1.read_text())["results"]
        r4 = json.loads(w4.read_text())["results"]
        assert r1 == r4
