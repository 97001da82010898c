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

from .core import Dataset, ols_fit, one_of, subset_size
from .errors import NumericalError, ValidationError
from .optdesign import CRITERIA, exchange_improve, greedy_select, iboss_select
from .probs import DEFAULT_SLEV_ALPHA, SCHEMES, compute_probabilities, slev_alpha
from .rng import SeedLike, derive_rng
from .sampler import alias_table_of, draw, subsample_estimate
from .volume import volume_sample

DESIGN_FAMILIES = ("gaussian", "student_t", "t5_line")


def _fields(picked, *names) -> dict:
    return {name: getattr(picked, name) for name in ("indices", "value", *names)}


# Subset selection methods: name -> (data, r, seed, criterion) -> output fields: the
# rows under "indices", then a SubsetSelection's value (and criterion). Entries look
# their function up at call time, so wrappers installed on this module see the calls.
SELECTIONS = {
    "IBOSS": lambda data, r, seed, criterion: _fields(iboss_select(data, r)),
    "GREEDY": lambda data, r, seed, criterion: _fields(greedy_select(data, r, criterion), "criterion"),
    "EXCHANGE": lambda data, r, seed, criterion: _fields(
        exchange_improve(data, greedy_select(data, r, criterion)), "criterion"
    ),
    "VOL": lambda data, r, seed, criterion: {"indices": volume_sample(data, r, "standard", seed)},
    "LEVVOL": lambda data, r, seed, criterion: {"indices": volume_sample(data, r, "leveraged", seed)},
}
REGISTERED_METHODS = ("OLS",) + SCHEMES + tuple(SELECTIONS)

# What fails one estimate on its bootstrap sample, not the whole run.
_FAILURES = (NumericalError, np.linalg.LinAlgError)

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
        one_of(self.design_family, DESIGN_FAMILIES, "design_family")
        if self.n < 1 or self.p < 1:
            raise ValidationError("n and p must be positive")
        if len(self.beta0) != self.p:
            raise ValidationError(f"beta0 must have length p={self.p}")
        if not self.noise_sd >= 0:
            raise ValidationError("noise_sd must be nonnegative")
        if self.design_family == "student_t":
            if self.df is None or not 2 < self.df < np.inf:
                raise ValidationError(f"student_t needs a finite df > 2, got {self.df}")
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
    # an overflow here leaves an inf that the Dataset rejects as an input error
    with np.errstate(over="ignore", invalid="ignore"):
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
    probabilities and, for several r, alias table; the full fit) plus this
    r's own draw and fit, or its selection and fit.
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


def _prepared(method: str, data: Dataset, alpha, criterion, mode, draws: int):
    """Builds what ``method`` needs of ``data`` alone once: a scheme's probabilities
    (and alias table, kept where ``draws > 1``) or the full OLS fit. Returns
    ``pick(r, key) -> (fields, fit)``: the output fields at r, rows under
    ``"indices"``, and a no-argument fit of them. A scheme draws with ``key``
    and fits in ``mode`` (None: plain on RAND, else weighted); a selection is
    seeded with ``key`` and fit by OLS on its rows.
    """
    if method == "OLS":
        fit = ols_fit(data)
        return lambda r, key: ({}, lambda: fit)
    if method in SELECTIONS:
        def pick(r, key):
            fields = SELECTIONS[method](data, r, key, criterion)
            return fields, lambda: ols_fit(data.take_rows(fields["indices"]))

        return pick
    pv = compute_probabilities(data, method, alpha)
    if draws > 1:
        alias_table_of(pv)
    mode = mode or ("plain" if pv.scheme == "RAND" else "weighted")

    def pick(r, key):
        d = draw(pv, r, key)
        fields = {"scheme": pv.scheme, "mode": mode, "indices": d.indices, "draw_probs": d.draw_probs}
        return fields, lambda: subsample_estimate(data, d, mode)

    return pick


def _method_cells(
    method: str,
    sample: Dataset,
    beta_full: np.ndarray,
    r_values: tuple[int, ...],
    seed_key: tuple,
    alpha: float,
    criterion: str,
) -> list:
    """One method on one bootstrap sample at every r: per r, (squared error against
    ``beta_full``, milliseconds), or None where the estimate failed.

    ``_prepared`` builds what depends on the sample alone, once for every r; if that
    raises, every r fails. Its time is added to each r's own pick and fit, keyed by
    ``seed_key + (r,)``, so a cell's time is that of one estimate from scratch. A
    ValidationError at one r is raised again naming the method and r.
    """
    t0 = time.perf_counter()
    try:
        pick = _prepared(method, sample, alpha if method == "SLEV" else None, criterion, None, len(r_values))
    except _FAILURES:
        return [None] * len(r_values)
    shared = time.perf_counter() - t0

    cells = []
    for r in r_values:
        t0 = time.perf_counter()
        try:
            diff = pick(r, seed_key + (r,))[1]().beta - beta_full
            with np.errstate(over="ignore", invalid="ignore"):
                sq = float(diff @ diff)
        except ValidationError as exc:
            raise type(exc)(f"method {method} cannot run at r={r}: {exc}") from None
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

    Per replicate, each method's ``_prepared`` entry builds what depends
    on the bootstrap sample alone once, and every r picks and fits from it.
    Replicates are embarrassingly parallel; pass ``workers > 1`` to spread
    them over threads. The report is identical for any worker count.
    Only numerical failures count per replicate: an input error a method
    raises at one r (IBOSS at an r that 2p does not divide, VOL beyond the
    enumeration cap, r above n) stops the run, naming the method and r, as
    every bootstrap sample keeps the input's n and p. Empty or repeated
    ``methods`` or ``r_values`` raise before any replicate runs.
    """
    methods = tuple(one_of(m.upper(), REGISTERED_METHODS, "method") for m in methods)
    r_values = tuple(subset_size(r, data.p) for r in r_values)
    for what, values in (("methods", methods), ("r_values", r_values)):
        if not values:
            raise ValidationError(f"{what} must not be empty")
        if len(set(values)) < len(values):
            raise ValidationError(f"{what} must not repeat, got {', '.join(map(str, values))}")
    reps = subset_size(reps, 1, what="reps")
    workers = subset_size(workers, 1, what="workers")
    alpha = slev_alpha(alpha)
    one_of(criterion, CRITERIA, "criterion")

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
