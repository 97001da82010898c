"""The four operation families the benchmark drives, and their output checks.

A family owns its inputs, yields its operations cycle by cycle, checks
every output, and turns per-kind timing samples into its end-to-end
metrics. Each workload runs one family as its "home" family; the other
three run as "light" families between its cycles, so that every workload
reports every end-to-end metric (see README). Light and home inputs are
the same, except that the light tall and CLI families run on fewer rows
and that light inputs come from a fixed seed, not from ``--seed``.

Checks never pin draw indices or EMSE values, so a change of the random
stream cannot fail them: deterministic outputs are compared with
independent numpy references, stochastic ones only with bounds that hold
for any valid stream.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Package functions are called as attributes of ``sublsq`` so that the
# tracer's wrappers, installed in the package namespaces, see the calls.
import sublsq
from sublsq import Dataset
from sublsq.bench import SyntheticSpec, dataset_fingerprint, default_r_grid

HERE = os.path.dirname(os.path.abspath(__file__))
# Pinned here rather than imported, so the workloads stay the same when the
# package's own lists change.
SCHEMES = ("RAND", "BLEV", "SLEV", "IC", "RL", "PL")
TARGETS = ("beta", "Xbeta", "XtXbeta")
REL_TOL = 1e-8
# Light families draw their inputs from this seed, whatever ``--seed`` is: a
# light kind gets a handful of samples in a run, and the cost of some
# operations depends on the data (exchange rounds, rejection draws), so with
# inputs that changed per seed a light metric would move with the inputs.
LIGHT_SEED = 0


class CheckFailed(Exception):
    """An operation returned an output that fails its check."""


@dataclass
class Context:
    """What every family needs from the run: seed, scratch space, tracing."""

    seed: int
    workdir: str
    src: str
    tracer: Any = None  # a tracer.Tracer while a traced cycle runs

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [self.src, env.get("PYTHONPATH")]))
        return env


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(value, reference, what: str, rel: float = REL_TOL) -> None:
    value = np.asarray(value, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    _require(value.shape == reference.shape, f"{what}: shape {value.shape} != {reference.shape}")
    scale = float(np.max(np.abs(reference), initial=0.0))
    err = float(np.max(np.abs(value - reference), initial=0.0))
    _require(np.all(np.isfinite(value)) and err <= rel * scale, f"{what}: off by {err:.3g} (scale {scale:.3g})")


def _mean_of_medians(samples: dict, prefix: str) -> float:
    """Mean over the kinds under ``prefix`` of each kind's median.

    Used where one metric covers several kinds of operation of different
    cost, so that a cycle cut short by the deadline cannot move it.
    """
    return statistics.fmean(statistics.median(v) for k, v in samples.items() if k.startswith(prefix) and v)


class QRReference:
    """Least-squares and leverage references from a chunked (TSQR) QR.

    Independent of the package's SVD path. It keeps only ``R^{-1}``, the
    singular values and a few sums, and recomputes reference probabilities
    chunk by chunk when a check asks for them, so the benchmark holds no
    n-length reference array that would add to ``peak_rss_mb``. With a
    response, the QR is of ``[X y]``: the least-squares fit comes from
    ``np.linalg.lstsq`` on the reduced triangle and the residual sum of
    squares from its last diagonal entry.
    """

    CHUNK = 65_536

    def __init__(self, design: np.ndarray, response: np.ndarray | None = None):
        self.design = design
        n, p = design.shape
        blocks = []
        for rows in self._chunks(n):
            block = design[rows] if response is None else np.column_stack([design[rows], response[rows]])
            blocks.append(np.linalg.qr(block, mode="r"))
        R = np.linalg.qr(np.vstack(blocks), mode="r")
        if response is not None:
            self.beta = np.linalg.lstsq(R[:p, :p], R[:p, p], rcond=None)[0]
            self.rss = float(R[p, p] ** 2)
            R = R[:p, :p]
        self.r_inv = np.linalg.inv(R)
        self.sing = np.linalg.svd(R, compute_uv=False)
        self.sums = {"lev": 0.0, "sqrt_lev": 0.0, "ic": 0.0, "row_norm": 0.0}
        for rows in self._chunks(n):
            for name, values in self._row_stats(rows).items():
                self.sums[name] += float(values.sum())

    def _chunks(self, n: int):
        return (slice(i, min(i + self.CHUNK, n)) for i in range(0, n, self.CHUNK))

    def _row_stats(self, rows: slice) -> dict:
        x = self.design[rows]
        q = x @ self.r_inv  # rows of Q, since X = QR
        lev = np.einsum("ij,ij->i", q, q)
        qi = q @ self.r_inv.T  # (X'X)^{-1} x_i = R^{-1} q_i
        return {
            "lev": lev,
            "sqrt_lev": np.sqrt(lev),
            "ic": np.sqrt(np.einsum("ij,ij->i", qi, qi)),
            "row_norm": np.linalg.norm(x, axis=1),
        }

    def check_probs(self, probs, scheme: str, what: str) -> None:
        """Compare a scheme's probability vector with the QR reference, chunk by chunk."""
        probs = np.asarray(probs, dtype=np.float64)
        n = self.design.shape[0]
        _require(probs.shape == (n,), f"{what}: shape {probs.shape}")
        for rows in self._chunks(n):
            if scheme == "RAND":
                ref = np.full(rows.stop - rows.start, 1.0 / n)
            else:
                stats = self._row_stats(rows)
                stat = {"BLEV": "lev", "SLEV": "lev", "RL": "sqrt_lev", "IC": "ic", "PL": "row_norm"}[scheme]
                ref = stats[stat] / self.sums[stat]
                if scheme == "SLEV":
                    ref = 0.9 * ref + 0.1 / n
            _close(probs[rows], ref, what)


def _d_criterion(design: np.ndarray, indices) -> float:
    rows = design[np.asarray(indices)]
    return float(np.linalg.det(np.linalg.inv(rows.T @ rows)))


class Family:
    """One operation family; see the module docstring."""

    name = ""
    light_cycles = 1  # cycles per light visit (see run.ROUND)

    def __init__(self, ctx: Context, light: bool):
        self.ctx = ctx
        self.light = light

    @property
    def seed(self) -> int:
        """The run's seed for the home family, ``LIGHT_SEED`` for a light one."""
        return LIGHT_SEED if self.light else self.ctx.seed

    def key(self, *parts) -> tuple:
        """Seed key for this family's inputs, distinct for home and light."""
        return (self.seed, self.name, "light" if self.light else "home", *parts)

    def setup(self) -> None:
        """Generate inputs and warm up (timed as set-up)."""

    def prepare_checks(self) -> None:
        """Compute check references (untimed, once per run)."""

    def cycle(self, k: int) -> list[Op]:
        raise NotImplementedError

    def metrics(self, samples: dict) -> dict:
        raise NotImplementedError


class TallSubsample(Family):
    """Subsample estimates, AMSE analyses and full fits on a tall design."""

    name = "tall_subsample"
    p = 10
    r = 1000
    # The light family runs on 5,000 rows: at 500,000 one cycle takes about
    # 5 s and a 40 MB design, which would crowd the other workloads' own
    # operations out of the run and set their peak_rss_mb.
    LIGHT_N = 5_000
    # A light cycle takes about 50 ms, so four per visit give the light
    # metrics more samples at little cost.
    light_cycles = 4

    def setup(self):
        n = self.LIGHT_N if self.light else 500_000
        spec = SyntheticSpec(
            n=n, p=self.p, design_family="student_t", beta0=(1.0,) * self.p, noise_sd=1.0, df=5.0
        )
        self.data = sublsq.generate_synthetic(spec, self.key("data"))
        self.pv = None  # probabilities of the scheme whose AMSE the current cycle analyses
        warm = self.data.take_rows(np.arange(2000))
        sublsq.subsample_estimate(warm, sublsq.draw(sublsq.compute_probabilities(warm, "BLEV"), 100, 0), "weighted")

    def prepare_checks(self):
        self.ref = QRReference(self.data.design, self.data.response)

    def _estimate(self, k: int, i: int, scheme: str, keep: bool) -> Op:
        mode = "plain" if scheme == "RAND" else "weighted"

        def run():
            pv = sublsq.compute_probabilities(self.data, scheme)
            d = sublsq.draw(pv, self.r, self.key("draw", k, i))
            if keep:
                self.pv = pv
            return pv, d, sublsq.subsample_estimate(self.data, d, mode)

        def check(out):
            pv, d, est = out
            self.ref.check_probs(pv.probs, scheme, f"{scheme} probabilities vs QR leverage")
            idx = d.indices
            _require(idx.shape == (self.r,), "draw size")
            _require(int(idx.min()) >= 0 and int(idx.max()) < self.data.n, "draw indices out of range")
            _require(np.array_equal(d.draw_probs, pv.probs[idx]), "draw_probs != probs[indices]")
            _require(bool(np.all(np.isfinite(est.beta))) and est.rank == self.p, "subsample fit not finite / full rank")

        return Op(f"estimate:{scheme}", run, check)

    def _amse(self) -> Op:
        data, r = self.data, self.r

        def run():
            pv = self.pv
            s2 = sublsq.sigma2_estimate(data)
            av = sublsq.avar_matrix(data, pv, r, s2)
            traces = {t: sublsq.trace_amse(data, pv, r, s2, t) for t in TARGETS}
            return pv, s2, av, traces, sublsq.regularity_diagnostics(data, pv, r)

        def check(out):
            pv, s2, av, traces, diag = out
            _close(s2, self.ref.rss / (data.n - data.p), "sigma2 vs QR residuals")
            _close(av.trace, traces["beta"], "avar trace vs trace_amse(beta)")
            _require(all(np.isfinite(v) and v > 0 for v in traces.values()), "trace_amse not positive")
            lam = self.ref.sing**2 / data.n
            _close([diag.lambda_max, diag.lambda_min], [lam[0], lam[-1]], "X'X/n eigen-extremes vs QR")
            _require(diag.pi_min == float(pv.probs.min()), "pi_min")

        return Op("amse", run, check)

    def _full_fit(self) -> Op:
        def check(fit):
            _close(fit.beta, self.ref.beta, "OLS vs np.linalg.lstsq on the QR")
            _require(fit.rank == self.p, "full fit rank")

        return Op("full_fit", lambda: sublsq.ols_fit(self.data), check)

    def cycle(self, k):
        # A full fit after every second estimate rather than once per cycle:
        # with one sample per cycle, full_fit_s moved by a quarter between
        # seeds on a noisy 2-core host.
        amse_scheme = SCHEMES[k % len(SCHEMES)]
        ops = []
        for i, scheme in enumerate(SCHEMES):
            ops.append(self._estimate(k, i, scheme, keep=scheme == amse_scheme))
            if i % 2 == 1:
                ops.append(self._full_fit())
        return ops + [self._amse()]

    def metrics(self, samples):
        return {
            "estimate_s": _mean_of_medians(samples, "estimate:"),
            "amse_s": statistics.median(samples["amse"]),
            "full_fit_s": statistics.median(samples["full_fit"]),
        }


class EmseBootstrap(Family):
    """Whole bootstrap EMSE jobs, as ``sublsq bench --synthetic t5_line`` runs them."""

    name = "emse_bootstrap"
    reps = 20

    def setup(self):
        self.data = sublsq.generate_synthetic(sublsq.t5_line_spec(n=1000), self.key("data"))
        self.r_values = default_r_grid(self.data.p)
        sublsq.run_emse(self.data, ("BLEV",), self.r_values[:1], reps=1, seed=self.key("warm"))

    def prepare_checks(self):
        self.fingerprint = dataset_fingerprint(self.data)

    def cycle(self, k):
        def run():
            report = sublsq.run_emse(self.data, SCHEMES, self.r_values, reps=self.reps, seed=self.key("job", k), workers=1)
            if self.ctx.tracer is not None:
                self.ctx.tracer.extra["bench.failed_cells"] += sum(rec.n_failed for rec in report.records)
            return report

        def check(report):
            _require(len(report.records) == len(SCHEMES) * len(self.r_values), "record count")
            _require(report.dataset_fingerprint == self.fingerprint, "dataset fingerprint")
            for rec in report.records:
                _require(rec.n_failed == 0 and not rec.failed, f"{rec.method} r={rec.r}: {rec.n_failed} failed replicates")
                _require(np.isfinite(rec.emse) and rec.emse > 0, f"{rec.method} r={rec.r}: EMSE {rec.emse}")

        return [Op("emse_job", run, check)]

    def metrics(self, samples):
        return {"emse_job_s": statistics.median(samples["emse_job"])}


class DesignSelect(Family):
    """IBOSS, greedy, exchange and both volume samplers; no large SVD or alias table."""

    name = "design_select"
    r = 50
    std_r = 6
    lev_r = 20
    draws = 200

    def _inputs(self, k: int) -> tuple[Dataset, Dataset, Dataset]:
        """Fresh inputs for cycle k: the exchange rounds and the rejection
        sampler's acceptance rate depend on the data, and a median over many
        draws of the data moves far less from seed to seed than one over a
        single draw."""

        def spec(n, p, family, df=None):
            return SyntheticSpec(n=n, p=p, design_family=family, beta0=(1.0,) * p, noise_sd=1.0, df=df)

        return (
            sublsq.generate_synthetic(spec(2000, 5, "student_t", 5.0), self.key("select", k)),
            sublsq.generate_synthetic(spec(16, 3, "gaussian"), self.key("standard", k)),
            sublsq.generate_synthetic(spec(200, 2, "gaussian"), self.key("leveraged", k)),
        )

    def setup(self):
        sublsq.iboss_select(self._inputs(0)[0], self.r)

    def _check_selection(self, sel, data: Dataset, what: str) -> None:
        idx = sel.indices
        _require(idx.shape == (self.r,) and len(set(idx.tolist())) == self.r, f"{what}: {idx.size} distinct rows")
        _require(int(idx.min()) >= 0 and int(idx.max()) < data.n, f"{what}: indices out of range")
        _close(sel.value, _d_criterion(data.design, idx), f"{what}: D value vs direct inverse")

    def _check_volume(self, rows, data: Dataset, r: int, what: str) -> None:
        _require(rows.shape == (self.draws, r), f"{what}: shape {rows.shape}")
        _require(int(rows.min()) >= 0 and int(rows.max()) < data.n, f"{what}: indices out of range")
        sub = data.design[rows]
        dets = np.linalg.det(np.einsum("mri,mrj->mij", sub, sub))
        _require(bool(np.all(dets > 0)), f"{what}: a drawn subset is rank deficient")

    def cycle(self, k):
        sel_data, std_data, lev_data = self._inputs(k)
        state = {}

        def greedy():
            state["greedy"] = sublsq.greedy_select(sel_data, self.r, "D")
            return state["greedy"]

        def check_exchange(sel):
            self._check_selection(sel, sel_data, "exchange")
            _require(sel.value <= state["greedy"].value * (1 + 1e-12), "exchange scores worse than greedy")

        def check_standard(rows):
            self._check_volume(rows, std_data, self.std_r, "standard volume")
            _require(bool(np.all(np.diff(rows, axis=1) > 0)), "standard volume rows not sorted and distinct")

        return [
            Op(
                "iboss",
                lambda: sublsq.iboss_select(sel_data, self.r),
                lambda sel: self._check_selection(sel, sel_data, "iboss"),
            ),
            Op("greedy", greedy, lambda sel: self._check_selection(sel, sel_data, "greedy")),
            Op("exchange", lambda: sublsq.exchange_improve(sel_data, state["greedy"]), check_exchange),
            Op(
                "volume:standard",
                lambda: sublsq.volume_sample(std_data, self.std_r, "standard", self.key("standard", k), size=self.draws),
                check_standard,
            ),
            Op(
                "volume:leveraged",
                lambda: sublsq.volume_sample(lev_data, self.lev_r, "leveraged", self.key("leveraged", k), size=self.draws),
                lambda rows: self._check_volume(rows, lev_data, self.lev_r, "leveraged volume"),
            ),
        ]

    def metrics(self, samples):
        return {
            "iboss_s": statistics.median(samples["iboss"]),
            "greedy_s": statistics.median(samples["greedy"]),
            "exchange_s": statistics.median(samples["exchange"]),
            "volume_s": _mean_of_medians(samples, "volume:"),
        }


class CliCsv(Family):
    """``sublsq`` commands as a user runs them: one child process each."""

    name = "cli_csv"
    p = 5
    # The light family reads a 2,000-row CSV: at 100,000 rows one cycle of
    # five commands takes about 6 s, which would crowd the other workloads'
    # own operations out of the run. At 2,000 rows a command is mostly
    # interpreter start, import and argument handling.
    LIGHT_N = 2_000

    def setup(self):
        self.n = self.LIGHT_N if self.light else 100_000
        tag = "light" if self.light else "home"
        self.csv = os.path.join(self.ctx.workdir, f"cli-{tag}.csv")
        self.out_json = os.path.join(self.ctx.workdir, f"cli-{tag}.json")
        self.sim_csv = os.path.join(self.ctx.workdir, f"cli-{tag}-simulated.csv")
        self.data_seed = self.seed
        # Writing the input CSV through the CLI also warms the interpreter's caches.
        self._simulate(self.data_seed, self.csv)

    def _spec(self) -> SyntheticSpec:
        return SyntheticSpec(
            n=self.n, p=self.p, design_family="student_t", beta0=(1.0,) * self.p, noise_sd=1.0, df=5.0
        )

    def _sublsq(self, args: list[str]) -> subprocess.CompletedProcess:
        """Run one command in a fresh interpreter, traced when the run is."""
        tracer = self.ctx.tracer
        if tracer is None:
            cmd = [sys.executable, "-m", "sublsq.cli", *args]
        else:
            trace_out = os.path.join(self.ctx.workdir, "child-trace.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_out, "--", *args]
        started = time.monotonic()
        proc = subprocess.run(cmd, env=self.ctx.child_env(), capture_output=True, timeout=150)
        if tracer is not None and proc.returncode == 0:
            with open(trace_out, encoding="utf-8") as fh:
                child = json.load(fh)
            tracer.merge(child["trace"])
            tracer.extra["cli.startup_s"] += child["imported_at"] - started
        if proc.returncode != 0:
            raise CheckFailed(f"sublsq {args[0]} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return proc

    def _simulate(self, seed: int, path: str) -> dict:
        proc = self._sublsq(
            ["simulate", "--family", "student_t", "--df", "5", "--n", str(self.n), "--p", str(self.p),
             "--seed", str(seed), "--output", path]
        )
        if self.ctx.tracer is not None:
            self.ctx.tracer.extra["cli.csv_bytes"] += os.path.getsize(path)
            self.ctx.tracer.extra["cli.json_bytes"] += len(proc.stdout)
        return json.loads(proc.stdout)["results"]

    def prepare_checks(self):
        data = sublsq.generate_synthetic(self._spec(), self.data_seed)
        self.ref = QRReference(data.design)
        with_intercept = np.column_stack([np.ones(data.n), data.design])
        self.fit_beta = sublsq.ols_fit(Dataset(with_intercept, data.response)).beta

    def _read(self, command: str, extra: list[str], check: Callable[[dict], None]) -> Op:
        def run():
            self._sublsq([command, *extra, "--input", self.csv, "--response", "y", "--output", self.out_json])
            if self.ctx.tracer is not None:
                self.ctx.tracer.extra["cli.csv_bytes"] += os.path.getsize(self.csv)
                self.ctx.tracer.extra["cli.json_bytes"] += os.path.getsize(self.out_json)

        def load_and_check(_):
            with open(self.out_json, encoding="utf-8") as fh:
                check(json.load(fh)["results"])

        return Op(f"command:{command}", run, load_and_check)

    def cycle(self, k):
        n, p = self.n, self.p

        def check_fit(res):
            _close(res["beta"], self.fit_beta, "cli fit vs in-memory fit", rel=1e-10)
            _require(res["rank"] == p + 1 and res["n"] == n, "cli fit rank / n")

        def check_subsample(res):
            idx = np.asarray(res["indices"])
            _require(idx.shape == (500,) and idx.min() >= 0 and idx.max() < n, "cli subsample indices")
            _require(len(res["beta"]) == p and np.all(np.isfinite(res["beta"])) and res["rank"] == p, "cli subsample fit")

        def check_amse(res):
            _close(res["avar_trace"], res["trace_amse"]["beta"], "cli avar trace vs trace_amse(beta)")

        def check_probs(res):
            self.ref.check_probs(res["probs"], "BLEV", "cli BLEV probabilities vs QR leverage")

        def simulate(seed: int) -> Op:
            def check(res):
                expected = dataset_fingerprint(sublsq.generate_synthetic(self._spec(), seed))
                _require(res["fingerprint"] == expected, "simulate fingerprint vs generate_synthetic")
                _require(res["n"] == n and res["p"] == p, "simulate shape")

            return Op("simulate", lambda: self._simulate(seed, self.sim_csv), check)

        reads = [
            self._read("fit", ["--intercept"], check_fit),
            self._read("subsample", ["--scheme", "slev", "--r", "500", "--seed", str(self.data_seed)], check_subsample),
            self._read("amse", ["--scheme", "ic", "--r", "500"], check_amse),
            self._read("probs", ["--scheme", "blev"], check_probs),
        ]
        if self.light:
            # One read command in turn and one simulate: a visit with all
            # four reads took as long as the other light visits together.
            return [reads[k % len(reads)], simulate(self.data_seed + 1 + k)]
        # Two simulates: with one, at about 1.7 s, a run held three samples.
        return reads + [simulate(self.data_seed + 1 + 2 * k), simulate(self.data_seed + 2 + 2 * k)]

    def metrics(self, samples):
        return {
            # One median over all read commands: they cost about the same,
            # and the pool gives the median four times the samples.
            "command_s": statistics.median(v for k, vs in samples.items() if k.startswith("command:") for v in vs),
            "simulate_s": statistics.median(samples["simulate"]),
        }


FAMILIES = {f.name: f for f in (TallSubsample, EmseBootstrap, DesignSelect, CliCsv)}
