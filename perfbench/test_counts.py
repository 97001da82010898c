"""Checks on the benchmark itself: exact counts repeat and match the pinned values.

Run from the repository root: python3 -m pytest perfbench -q
(about ten seconds; kept out of the package's own test suite).
"""

import json
import os
import shutil
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import sublsq  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FAMILIES, TARGETS, Context, TallSubsample  # noqa: E402


def exact(metrics: dict) -> dict:
    """The per-layer metrics that are counts, not times."""
    return {
        name: value
        for name, value in metrics.items()
        if name.endswith(".calls") or name in ("core.thin_svd.rows", "bench.failed_cells")
    }


@pytest.fixture
def workdir():
    """Scratch directory inside the checkout, as the benchmark itself uses."""
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=scratch)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(scratch)
    except OSError:  # another run still uses it
        pass


def traced_counts(workload: str, seed: int, workdir: str) -> tuple[dict, dict]:
    """One traced run of a single cycle; its per-layer metrics and record."""
    runner = run.Runner(workload, seed, 1e-3, True, workdir, os.path.join(ROOT, "src"))
    detail, result = runner.run()
    assert result["correct"], detail["failures"]
    assert detail["traced_cycles"] == 1
    return {name: m["value"] for name, m in result["metrics"].items()}, detail


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def traced_cycles(workload: str, light: bool, cycles: int, seed: int, workdir: str) -> dict:
    """Exact counts of traced cycles of a family, checked as the benchmark checks it."""
    ctx = Context(seed=seed, workdir=workdir, src=os.path.join(ROOT, "src"))
    family = FAMILIES[workload](ctx, light=light)
    family.setup()
    family.prepare_checks()
    tracer = Tracer()
    for op in (op for k in range(cycles) for op in family.cycle(k)):
        ctx.tracer = tracer
        with tracer.installed():
            out = op.run()
        ctx.tracer = None
        op.check(out)
    return exact(run.Runner.per_layer(tracer, cycles, 0.0))


# The tall and CLI families run on their light inputs to keep the test
# short: a light tall cycle has the same operations as its own cycle, and
# four light CLI cycles run each read command once.
@pytest.mark.parametrize(
    "workload, light, cycles",
    [("tall_subsample", True, 1), ("emse_bootstrap", False, 1), ("design_select", False, 1), ("cli_csv", True, 4)],
)
def test_exact_counts_repeat_for_the_same_seed(workload, light, cycles, workdir):
    first = traced_cycles(workload, light, cycles, 7, workdir)
    second = traced_cycles(workload, light, cycles, 7, workdir)
    assert first == second
    if workload == "tall_subsample":
        # 10 from the estimates (RAND and PL have no SVD), 3 full fits, 5 from the AMSE analysis.
        assert first["core.thin_svd.calls"] == 18


def test_emse_job_counts_at_the_seed_commit(workdir):
    metrics, detail = traced_counts("emse_bootstrap", 3, workdir)
    # 20 replicates x 4 sizes x (RAND 1 + BLEV/SLEV/IC/RL 2 each + PL 1) + the full fit.
    assert metrics["core.thin_svd.calls"] == 801
    # One alias table per draw: 20 replicates x 6 methods x 4 sizes.
    if "sampler.alias_table" in detail["wrapped"]:
        assert metrics["sampler.alias_table.calls"] == 480
    assert metrics["bench.failed_cells"] == 0


def test_amse_analysis_factorizes_five_times(workdir):
    family = TallSubsample(Context(seed=1, workdir=workdir, src=""), light=True)
    family.setup()
    data, r = family.data, family.r
    pv = sublsq.compute_probabilities(data, "IC")
    tracer = Tracer()
    with tracer.installed():
        s2 = sublsq.sigma2_estimate(data)
        sublsq.avar_matrix(data, pv, r, s2)
        for target in TARGETS:
            sublsq.trace_amse(data, pv, r, s2, target)
        sublsq.regularity_diagnostics(data, pv, r)
    assert tracer.calls["core.thin_svd"] == 5
    assert tracer.rows["core.thin_svd"] == 5 * data.n


def test_tracer_restores_every_name():
    before = {(mod, name): getattr(sys.modules[mod], name, None) for mod in ("sublsq", "sublsq.core", "sublsq.probs") for name in ("thin_svd", "compute_probabilities")}
    take_rows = sublsq.Dataset.take_rows
    with Tracer().installed():
        assert sublsq.Dataset.take_rows is not take_rows
    after = {(mod, name): getattr(sys.modules[mod], name, None) for mod, name in before}
    assert after == before and sublsq.Dataset.take_rows is take_rows
