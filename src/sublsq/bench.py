"""Empirical MSE benchmark: bootstrap replicates of every subsampling method.

Protocol: fit OLS once on the input data; then, per replicate, bootstrap
n rows with replacement, run each method on the bootstrap sample at each
subsample size r, and accumulate the squared distance between the
method's coefficients and the full-data OLS fit. EMSE is the mean over
replicates (default 100) on the default size grid r = 5p, 10p, 15p, 20p.

Every replicate's randomness is keyed by (master seed, replicate index,
method name), so reports are bit-identical no matter how many worker
threads run the replicates or in which order methods are listed.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, ols_fit
from .errors import SubLsqError, ValidationError
from .optdesign import CRITERIA, exchange_improve, greedy_select, iboss_quota, iboss_select
from .probs import DEFAULT_SLEV_ALPHA, SCHEMES, compute_probabilities, slev_alpha
from .rng import SeedLike, derive_rng
from .sampler import alias_table_of, draw, subsample_estimate
from .volume import check_enumerable, volume_sample

DESIGN_FAMILIES = ("gaussian", "student_t", "t5_line")

# Subset selection methods: name -> (data, r, seed, criterion) -> a SubsetSelection,
# or for volume sampling an index array. Entries look their function up at call
# time, so wrappers installed on this module see the calls.
SELECTIONS = {
    "IBOSS": lambda data, r, seed, criterion: iboss_select(data, r),
    "GREEDY": lambda data, r, seed, criterion: greedy_select(data, r, criterion),
    "EXCHANGE": lambda data, r, seed, criterion: exchange_improve(
        data, greedy_select(data, r, criterion)
    ),
    "VOL": lambda data, r, seed, criterion: volume_sample(data, r, "standard", seed),
    "LEVVOL": lambda data, r, seed, criterion: volume_sample(data, r, "leveraged", seed),
}
REGISTERED_METHODS = ("OLS",) + SCHEMES + tuple(SELECTIONS)

# Rules a method breaks on every replicate alike, since bootstrap samples keep
# the input's n and p: (n, p, r) -> None, or the method's ValidationError.
_UP_FRONT_RULES = {
    "IBOSS": lambda n, p, r: iboss_quota(r, p),
    "VOL": lambda n, p, r: check_enumerable(n),
}

# What fails one estimate on its bootstrap sample, not the whole run.
_FAILURES = (SubLsqError, np.linalg.LinAlgError)

DEFAULT_REPS = 100
DEFAULT_R_MULTIPLES = (5, 10, 15, 20)

__all__ = [
    "DESIGN_FAMILIES",
    "REGISTERED_METHODS",
    "SELECTIONS",
    "DEFAULT_REPS",
    "DEFAULT_R_MULTIPLES",
    "SyntheticSpec",
    "t5_line_spec",
    "generate_synthetic",
    "BenchRecord",
    "BenchmarkReport",
    "default_r_grid",
    "run_emse",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic regression dataset.

    ``t5_line`` is the heavy-tailed toy model: an intercept column plus one
    t(5) column with coefficients (1, 1), the setting where uniform
    subsampling visibly falls apart at small r.
    """

    n: int
    p: int
    design_family: str
    beta0: tuple[float, ...]
    noise_sd: float
    df: float | None = None

    def __post_init__(self):
        if self.design_family not in DESIGN_FAMILIES:
            raise ValidationError(
                f"design_family must be one of {DESIGN_FAMILIES}, got {self.design_family!r}"
            )
        if self.n < 1 or self.p < 1:
            raise ValidationError("n and p must be positive")
        if len(self.beta0) != self.p:
            raise ValidationError(f"beta0 must have length p={self.p}")
        if not self.noise_sd >= 0:
            raise ValidationError("noise_sd must be nonnegative")
        if self.design_family == "student_t":
            if self.df is None or not self.df > 2:
                raise ValidationError("student_t needs df > 2")
        elif self.df is not None:
            raise ValidationError(f"df is only meaningful for student_t, got {self.df}")
        if self.design_family == "t5_line" and self.p != 2:
            raise ValidationError("the t5_line family is intercept + one column, so p=2")


def t5_line_spec(n: int = 1000, noise_sd: float = 1.0) -> SyntheticSpec:
    """The canonical heavy-tailed benchmark spec: y = 1 + x + noise, x ~ t(5)."""
    return SyntheticSpec(n=n, p=2, design_family="t5_line", beta0=(1.0, 1.0), noise_sd=noise_sd)


def generate_synthetic(spec: SyntheticSpec, seed: SeedLike) -> Dataset:
    """Draw a dataset from the spec; identical (spec, seed) pairs are
    byte-identical."""
    rng = derive_rng(seed, "synthetic")
    if spec.design_family == "gaussian":
        design = rng.standard_normal((spec.n, spec.p))
    elif spec.design_family == "student_t":
        design = rng.standard_t(spec.df, size=(spec.n, spec.p))
    else:
        design = np.column_stack([np.ones(spec.n), rng.standard_t(5.0, size=spec.n)])
    response = design @ np.asarray(spec.beta0, dtype=np.float64)
    if spec.noise_sd > 0:
        response = response + spec.noise_sd * rng.standard_normal(spec.n)
    return Dataset(design=design, response=response)


@dataclass(frozen=True)
class BenchRecord:
    """EMSE of one (method, r) cell.

    ``failed`` is set when the method errored on more than half of the
    replicates; the EMSE statistics then refer to no replicates and are
    NaN. Otherwise they summarize the successful replicates only.

    ``mean_time_ms`` is the mean over the successful replicates (NaN if
    none succeeded) of the time of one estimate from scratch: what the
    method builds once per bootstrap sample for every r (a scheme's
    probabilities and alias table, the full fit) plus this r's own draw
    and fit, or its selection and fit.
    """

    method: str
    r: int
    emse: float
    emse_sd: float
    mean_time_ms: float
    n_ok: int
    n_failed: int
    failed: bool


@dataclass(frozen=True)
class BenchmarkReport:
    records: tuple[BenchRecord, ...]
    reps: int
    seed: SeedLike
    dataset_fingerprint: str
    r_values: tuple[int, ...] = field(default=())
    methods: tuple[str, ...] = field(default=())


def default_r_grid(p: int) -> tuple[int, ...]:
    return tuple(m * p for m in DEFAULT_R_MULTIPLES)


def dataset_fingerprint(data: Dataset) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(data.design.shape, dtype=np.int64).tobytes())
    h.update(data.design.tobytes())
    h.update(data.response.tobytes())
    return h.hexdigest()


def _method_cells(
    method: str,
    sample: Dataset,
    beta_full: np.ndarray,
    r_values: tuple[int, ...],
    seed_key: tuple,
    alpha: float,
    criterion: str,
) -> list:
    """One method on one bootstrap sample at every r: per r, (squared error
    against ``beta_full``, milliseconds), or None where the estimate failed.

    What depends on the sample alone (a scheme's probabilities and alias
    table, or the full fit) is built once for every r; if that raises,
    every r fails. Its time is added to each r's own draw and fit, so a
    cell's time is that of one estimate from scratch. The draw at r is
    keyed by ``seed_key + (r,)``.
    """
    t0 = time.perf_counter()
    try:
        if method == "OLS":
            beta = ols_fit(sample).beta

            def estimate(r, key):
                return beta

        elif method in SCHEMES:
            pv = compute_probabilities(sample, method, alpha if method == "SLEV" else None)
            alias_table_of(pv)  # built here, once for every r
            mode = "plain" if method == "RAND" else "weighted"

            def estimate(r, key):
                return subsample_estimate(sample, draw(pv, r, key), mode).beta

        else:

            def estimate(r, key):
                picked = SELECTIONS[method](sample, r, key, criterion)
                return ols_fit(sample.take_rows(getattr(picked, "indices", picked))).beta

    except _FAILURES:
        return [None] * len(r_values)
    shared = time.perf_counter() - t0

    cells = []
    for r in r_values:
        t0 = time.perf_counter()
        try:
            diff = estimate(r, seed_key + (r,)) - beta_full
            with np.errstate(over="ignore", invalid="ignore"):
                sq = float(diff @ diff)
        except _FAILURES:
            sq = math.nan
        # an overflowing squared error fails the replicate, as a raise does
        ms = (shared + time.perf_counter() - t0) * 1e3
        cells.append((sq, ms) if math.isfinite(sq) else None)
    return cells


def run_emse(
    data: Dataset,
    methods,
    r_values,
    reps: int = DEFAULT_REPS,
    seed: SeedLike = 0,
    alpha: float | None = DEFAULT_SLEV_ALPHA,
    criterion: str = "D",
    workers: int = 1,
) -> BenchmarkReport:
    """Bootstrap-replicate EMSE of each method at each subsample size.

    Per replicate, each method builds what depends on the bootstrap
    sample alone once, and draws every r from it (see ``_method_cells``).
    Replicates are embarrassingly parallel; pass ``workers > 1`` to spread
    them over threads. The report is identical for any worker count.
    A method and r that break a rule every replicate would break (IBOSS
    at an r that 2p does not divide, VOL beyond the enumeration cap) raise
    before any replicate runs, instead of failing every replicate.
    """
    methods = tuple(m.upper() for m in methods)
    for m in methods:
        if m not in REGISTERED_METHODS:
            raise ValidationError(f"unknown method {m!r}; registered: {REGISTERED_METHODS}")
    r_values = tuple(int(r) for r in r_values)
    for r in r_values:
        if r < data.p:
            raise ValidationError(f"subsample size r={r} must be at least p={data.p}")
    if reps < 1:
        raise ValidationError("reps must be at least 1")
    if workers < 1:
        raise ValidationError("workers must be at least 1")
    alpha = slev_alpha(alpha)
    if criterion not in CRITERIA:
        raise ValidationError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    for method in (m for m in methods if m in _UP_FRONT_RULES):
        for r in r_values:
            try:
                _UP_FRONT_RULES[method](data.n, data.p, r)
            except ValidationError as exc:
                raise type(exc)(f"method {method} cannot run at r={r}: {exc}") from None

    beta_full = ols_fit(data).beta
    n = data.n

    def one_replicate(rep: int) -> dict:
        boot_rng = derive_rng(seed, "bootstrap", rep)
        sample = data.take_rows(boot_rng.integers(0, n, size=n))
        cell: dict = {}
        for method in methods:
            results = _method_cells(
                method, sample, beta_full, r_values, (seed, "method", method, rep), alpha, criterion
            )
            cell.update(((method, r), res) for r, res in zip(r_values, results))
        return cell

    if workers == 1:
        cells = [one_replicate(i) for i in range(reps)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(one_replicate, range(reps)))

    records = []
    for method in methods:
        for r in r_values:
            ok = [c[(method, r)] for c in cells if c[(method, r)] is not None]
            n_failed = reps - len(ok)
            failed = 2 * n_failed > reps
            if failed:
                emse, sd = float("nan"), float("nan")
            else:
                sq = [v for v, _ in ok]
                emse = float(np.mean(sq))
                sd = float(np.std(sq, ddof=1)) if len(sq) > 1 else 0.0
            mean_ms = float(np.mean([ms for _, ms in ok])) if ok else float("nan")
            records.append(
                BenchRecord(
                    method=method,
                    r=r,
                    emse=emse,
                    emse_sd=sd,
                    mean_time_ms=mean_ms,
                    n_ok=len(ok),
                    n_failed=n_failed,
                    failed=failed,
                )
            )
    return BenchmarkReport(
        records=tuple(records),
        reps=reps,
        seed=seed,
        dataset_fingerprint=dataset_fingerprint(data),
        r_values=r_values,
        methods=methods,
    )
