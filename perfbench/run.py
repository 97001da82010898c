"""sublsq benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``). Every input is generated from ``--seed``. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it is a JSON record of the machine, the sample counts and percentiles,
the set-up repetitions and, for a traced run, the tracing overhead.
README.md in this directory defines the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict

WORKLOADS = ("tall_subsample", "emse_bootstrap", "design_select", "cli_csv")
SETUP_REPS = 3
# An untraced run goes in rounds. A round is a number of cycles of the home
# family and a number of visits to each light family (a visit is
# ``light_cycles`` cycles of it), with every family's operations spread
# evenly over the round. The make-up gives every kind of operation enough
# samples in a run for a steady median: where a home cycle takes seconds,
# three visits per home cycle; where it is short, one visit per two home
# cycles (README, "Light families").
ROUND = {
    "tall_subsample": (1, 3),
    "emse_bootstrap": (2, 1),
    "design_select": (2, 1),
    "cli_csv": (1, 3),
}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "estimate_s": "s",
    "amse_s": "s",
    "full_fit_s": "s",
    "emse_job_s": "s",
    "iboss_s": "s",
    "greedy_s": "s",
    "exchange_s": "s",
    "volume_s": "s",
    "command_s": "s",
    "simulate_s": "s",
}

PER_LAYER = {
    "core.thin_svd.calls": "count",
    "core.thin_svd.rows": "count",
    "core.thin_svd.s": "s",
    "core.ols_fit.s": "s",
    "core.weighted_ls_fit.s": "s",
    "core.take_rows.calls": "count",
    "core.take_rows.s": "s",
    "core.self_s": "s",
    "core.errors": "count",
    "probs.compute_probabilities.calls": "count",
    "probs.compute_probabilities.s": "s",
    "probs.self_s": "s",
    "sampler.alias_table.calls": "count",
    "sampler.alias_table.s": "s",
    "sampler.draw.s": "s",
    "sampler.subsample_estimate.s": "s",
    "sampler.self_s": "s",
    "asymptotics.sigma2_estimate.s": "s",
    "asymptotics.avar_matrix.s": "s",
    "asymptotics.trace_amse.s": "s",
    "asymptotics.regularity_diagnostics.s": "s",
    "asymptotics.self_s": "s",
    "optdesign.iboss_select.s": "s",
    "optdesign.greedy_select.s": "s",
    "optdesign.exchange_improve.s": "s",
    "optdesign.self_s": "s",
    "optdesign.errors": "count",
    "volume.standard_volume_distribution.s": "s",
    "volume.volume_sample.s": "s",
    "volume.self_s": "s",
    "volume.errors": "count",
    "bench.run_emse.s": "s",
    "bench.self_s": "s",
    "bench.failed_cells": "count",
    "cli.startup_s": "s",
    "cli.parse_csv.s": "s",
    "cli.csv_bytes": "bytes",
    "cli.json_bytes": "bytes",
    "cli.self_s": "s",
    "host.calib_s": "s",
}


# Per-layer metrics the benchmark records itself (in ``Tracer.extra``).
RECORDED_BY_BENCHMARK = {"bench.failed_cells", "cli.startup_s", "cli.csv_bytes", "cli.json_bytes"}


class HostClock:
    """A fixed kernel timed before, during and after the measured phase.

    It exercises nothing of the package, so a change in it between runs is
    a change of the host, not of the code. Besides a tight loop and a small
    matmul it sorts and indexes Python floats, because the host's slow
    phases slow cache-missing, allocating work far more than tight loops.
    The list is small so that the kernel does not raise ``peak_rss_mb``.
    The kernel is timed every ``EVERY`` seconds of the measured phase,
    between operations, and every timing sample is scaled by the host speed
    it ran at (``scale``; README, "Host-normalized timings").
    """

    EVERY = 0.5
    # A sample is scaled by REF_S over the kernel's median within NEAR_S
    # seconds of the operation. REF_S is the kernel's typical time on the
    # 2-core VM of README, "Steadiness and run budget".
    REF_S = 0.030
    NEAR_S = 1.0

    def __init__(self):
        import numpy as np

        self._matrix = np.random.default_rng(0).standard_normal((100, 100))
        self._floats = np.random.default_rng(1).standard_normal(20_000).tolist()
        self.during: list[tuple[float, float]] = []  # (start, duration)
        self._next = 0.0

    def once(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        for _ in range(5):
            sorted(self._floats)
            {i: v for i, v in enumerate(self._floats)}
        self._matrix @ self._matrix
        return time.perf_counter() - t0

    def snapshot(self, reps: int = 3) -> float:
        return statistics.median(self.once() for _ in range(reps))

    def tick(self) -> None:
        """Time the kernel if ``EVERY`` seconds have passed since the last time."""
        now = time.perf_counter()
        if now >= self._next:
            self.during.append((now, self.once()))
            self._next = now + self.EVERY

    def during_median(self) -> float:
        return statistics.median(d for _, d in self.during)

    def scale(self, start: float, elapsed: float) -> float:
        """``REF_S`` over the kernel's median near an operation run from ``start`` for ``elapsed`` s.

        ``tick`` runs before every operation, so a reading starts at most
        ``EVERY`` seconds plus one kernel before it; the nearest earlier
        reading stands in if none is within ``NEAR_S``.
        """
        starts = [t for t, _ in self.during]
        lo = bisect.bisect_left(starts, start - self.NEAR_S)
        hi = bisect.bisect_right(starts, start + elapsed + self.NEAR_S)
        near = [d for _, d in self.during[lo:hi]] or [self.during[max(bisect.bisect_right(starts, start) - 1, 0)][1]]
        return self.REF_S / statistics.median(near)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def sample_summary(samples: list[float], raw: list[float]) -> dict:
    """Count, minimum, median, the highest percentile with at least ten
    samples beyond it, and the median of the unscaled times."""
    out = {"n": len(samples), "min": min(samples), "median": statistics.median(samples), "raw_median": statistics.median(raw)}
    if len(samples) > 10:
        q = int(100 * (1 - 10 / len(samples)))
        if q > 50:
            out[f"p{q}"] = statistics.quantiles(samples, n=100)[q - 1]
    return out


def spread(streams: list[list]) -> list:
    """Merge operation lists so that each is spread evenly over the result.

    Each list keeps its own order, since an operation may use the output of
    an earlier one of its cycle. Spreading the light operations over the
    round, rather than running a light family's visit in one burst, samples
    each light kind at several points of the round: the host's speed
    changes within seconds, and samples taken back to back move together.
    """
    keyed = [((i + 0.5) / len(ops), s, i) for s, ops in enumerate(streams) for i in range(len(ops))]
    return [streams[s][i] for _, s, i in sorted(keyed)]


class Runner:
    """One run of one workload: set-up, references, the measured loop, results."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: str, src: str):
        import workloads

        self.wl = workloads
        self.ctx = workloads.Context(seed=seed, workdir=workdir, src=src)
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failures: list[str] = []
        self.clock = HostClock()

    def build(self) -> list:
        """Home family first, then (untraced runs only) the light families."""
        names = [self.workload] + ([] if self.trace else [w for w in WORKLOADS if w != self.workload])
        families = [self.wl.FAMILIES[name](self.ctx, light=(name != self.workload)) for name in names]
        for fam in families:
            fam.setup()
        return families

    def run_op(self, op, samples: dict, tracer=None) -> None:
        """Time one operation (tracing it if a tracer is given), then check it."""
        self.attempted += 1
        self.ctx.tracer = tracer
        error = None
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, and the run goes on
                error = exc
            elapsed = time.perf_counter() - t0
        self.ctx.tracer = None
        if error is not None:
            self.failures.append(f"{op.kind}: {type(error).__name__}: {error}")
            return
        samples[op.kind].append((t0, elapsed))
        try:
            op.check(out)
        except Exception as exc:
            self.failures.append(f"{op.kind}: check failed: {type(exc).__name__}: {exc}")

    def untraced(self, families: list, deadline: float) -> dict:
        """Closed loop in rounds (see ROUND) until the deadline.

        No operation starts after the deadline, except in the first round,
        so every metric has at least one sample.
        """
        samples: dict = defaultdict(list)
        home, lights = families[0], families[1:]
        home_cycles, visits = ROUND[home.name]
        k = 0
        while True:
            streams = [[op for j in range(home_cycles) for op in home.cycle(k * home_cycles + j)]]
            for fam in lights:
                n = visits * fam.light_cycles
                streams.append([op for j in range(n) for op in fam.cycle(k * n + j)])
            for op in spread(streams):
                if k > 0 and time.perf_counter() >= deadline:
                    return samples
                self.clock.tick()
                self.run_op(op, samples)
            k += 1

    def traced(self, home, deadline: float):
        """Whole cycles, each run traced and then untraced, while at least
        half of the next one is expected to fit before the deadline (at
        least one cycle), so the run ends within half a cycle of it.

        Both runs of a cycle get the same inputs and seeds, so the traced
        and untraced medians differ only by the tracing overhead.
        """
        import tracer as tracing

        tracer = tracing.Tracer()
        samples = {True: defaultdict(list), False: defaultdict(list)}
        k = 0
        last = 0.0  # duration of the last traced and untraced pair
        while k < 1 or time.perf_counter() + last / 2 < deadline:
            started = time.perf_counter()
            for on in (True, False):
                for op in home.cycle(k):
                    self.clock.tick()
                    self.run_op(op, samples[on], tracer if on else None)
            last = time.perf_counter() - started
            k += 1
        return tracer, k, samples

    def normalized(self, samples: dict) -> dict:
        """Each kind's (start, elapsed) samples as host-normalized seconds."""
        return {kind: [e * self.clock.scale(t0, e) for t0, e in v] for kind, v in samples.items()}

    def run(self) -> tuple[dict, dict]:
        clock = self.clock
        calib_start = clock.snapshot()
        setup_times, setup_scaled = [], []
        for _ in range(SETUP_REPS):
            families = None
            calib = clock.snapshot()
            t0 = time.perf_counter()
            families = self.build()
            setup_times.append(time.perf_counter() - t0)
            setup_scaled.append(setup_times[-1] * clock.REF_S / calib)
        for fam in families:
            fam.prepare_checks()
        # Lets a reader tell whether the peak came before the measured phase.
        detail_rss = {"peak_rss_mb_before_measuring": self.peak_rss_mb()}
        deadline = time.perf_counter() + self.seconds
        detail: dict = {"workload": self.workload, "seconds": self.seconds, "setup_s": setup_scaled, "setup_raw_s": setup_times, **detail_rss}
        if self.trace:
            tracer, traced_cycles, samples = self.traced(families[0], deadline)
            calib_end = clock.snapshot()
            metrics = self.per_layer(tracer, traced_cycles, clock.during_median())
            on, off = (families[0].metrics(self.normalized(samples[flag])) for flag in (True, False))
            detail["tracing_overhead_s"] = {m: {"traced": on[m], "untraced": off[m], "overhead": on[m] - off[m]} for m in on}
            detail["traced_cycles"] = traced_cycles
            detail["wrapped"] = tracer.wrapped
            samples = samples[False]
        else:
            samples = self.untraced(families, deadline)
            calib_end = clock.snapshot()
            metrics = {"setup_s": statistics.median(setup_scaled), "peak_rss_mb": self.peak_rss_mb()}
            for fam in families:
                metrics.update(fam.metrics(self.normalized(samples)))
            metrics = {name: metrics[name] for name in END_TO_END}
        detail["calib_s"] = {
            "start": calib_start,
            "during_median": clock.during_median(),
            "during_n": len(clock.during),
            "end": calib_end,
        }
        scaled = self.normalized(samples)
        detail["samples"] = {kind: sample_summary(scaled[kind], [e for _, e in v]) for kind, v in sorted(samples.items())}
        detail["failures"] = self.failures[:20]
        units = PER_LAYER if self.trace else END_TO_END
        result = {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        return detail, result

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.workload == "cli_csv" else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024.0

    @staticmethod
    def per_layer(tracer, cycles: int, calib_s: float) -> dict:
        """Per-layer metrics per traced cycle of the home family."""
        by_stat = {
            "calls": tracer.calls,
            "rows": tracer.rows,
            "s": tracer.seconds,
            "self_s": tracer.self_s,
            "errors": tracer.errors,
        }
        out = {}
        for name in PER_LAYER:
            prefix, _, stat = name.rpartition(".")
            if name == "host.calib_s":
                out[name] = calib_s
            elif name in RECORDED_BY_BENCHMARK:
                out[name] = tracer.extra.get(name, 0.0) / cycles
            else:
                out[name] = by_stat[stat].get(prefix, 0) / cycles
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sublsq", "__init__.py")):
        print(f"perfbench: no sublsq sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    runner = None
    try:
        runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace), workdir, src)
        detail, result = runner.run()
        detail["machine"] = machine_record(args.seed)
    except Exception:
        traceback.print_exc()
        for failure in getattr(runner, "failures", [])[:20]:
            print(f"perfbench: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    for failure in detail["failures"]:
        print(f"perfbench: {failure}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
