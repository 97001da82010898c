import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sublsq
import sublsq.bench as bench_mod
import sublsq.sampler as sampler_mod
from sublsq.bench import (
    DESIGN_FAMILIES,
    SyntheticSpec,
    dataset_fingerprint,
    generate_synthetic,
    t5_line_spec,
)
from sublsq.cli import RunConfig, main, parse_csv
from sublsq.errors import ValidationError
from sublsq.probs import SCHEMES


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


@pytest.fixture
def line_csv(tmp_path):
    return _write(tmp_path / "line.csv", "x,y\n0,1\n1,2\n2,3\n")


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_csv_basic(tmp_path):
    path = _write(tmp_path / "d.csv", "x,y\n1,2\n3,4\n5,6\n")
    data = parse_csv(path, RunConfig(response_column="y"))
    assert data.n == 3 and data.p == 1
    np.testing.assert_allclose(data.response, [2.0, 4.0, 6.0])


def test_parse_csv_quoted_fields_and_indices(tmp_path):
    path = _write(tmp_path / "d.csv", '"a","b"\n"1",2\n3,"4"\n')
    data = parse_csv(path, RunConfig(response_column="1"))
    np.testing.assert_allclose(data.design[:, 0], [1.0, 3.0])
    np.testing.assert_allclose(data.response, [2.0, 4.0])


def test_parse_csv_drop_head_rows(tmp_path):
    path = _write(tmp_path / "d.csv", "x,y\n9,9\n9,9\n1,2\n3,4\n5,6\n")
    data = parse_csv(path, RunConfig(response_column="y", drop_head_rows=2))
    assert data.n == 3


def test_parse_csv_log_transform(tmp_path):
    path = _write(tmp_path / "d.csv", "x,y\n1,1\n2.718281828459045,1\n")
    data = parse_csv(path, RunConfig(response_column="y", log_columns=("x",)))
    np.testing.assert_allclose(data.design[:, 0], [0.0, 1.0], atol=1e-12)


def test_parse_csv_log_of_zero_names_location(tmp_path):
    path = _write(tmp_path / "d.csv", "x,y\n1,1\n0,1\n")
    with pytest.raises(ValidationError, match="line 3.*'x'"):
        parse_csv(path, RunConfig(response_column="y", log_columns=("x",)))


def test_parse_csv_non_numeric_names_location(tmp_path):
    path = _write(tmp_path / "d.csv", "x,y\n1,1\nbanana,1\n")
    with pytest.raises(ValidationError, match="line 3.*'x'.*banana"):
        parse_csv(path, RunConfig(response_column="y"))


def test_parse_csv_missing_column(tmp_path):
    path = _write(tmp_path / "d.csv", "x,y\n1,1\n")
    with pytest.raises(ValidationError, match="'z' not found"):
        parse_csv(path, RunConfig(response_column="z"))


def test_fit_exact_line_with_intercept(capsys, line_csv):
    code, out, _ = _run(capsys, ["fit", "--input", line_csv, "--response", "y", "--intercept"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    np.testing.assert_allclose(doc["results"]["beta"], [1.0, 1.0], atol=1e-10)
    assert doc["config"]["intercept"] is True


def test_probs_blev_line_design(capsys, tmp_path):
    path = _write(tmp_path / "design.csv", "x0,x1\n1,0\n1,1\n1,2\n")
    code, out, _ = _run(capsys, ["probs", "--input", path, "--scheme", "blev"])
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["results"]["probs"], [5 / 12, 1 / 6, 5 / 12], atol=1e-9)
    assert doc["results"]["scheme"] == "BLEV"


def test_probs_ic_at_tiny_column_scale(capsys, tmp_path):
    rows = ("1.5,2,-0.5", "3,-1,2.5", "-2,4,1", "0.5,1,3")
    probs = {}
    for suffix in ("", "e-300"):
        text = "a,b,c\n" + "".join(
            ",".join(v + suffix for v in row.split(",")) + "\n" for row in rows
        )
        path = _write(tmp_path / f"design{suffix}.csv", text)
        code, out, err = _run(capsys, ["probs", "--input", path, "--scheme", "IC"])
        assert code == 0, err
        probs[suffix] = json.loads(out)["results"]["probs"]
    np.testing.assert_allclose(probs["e-300"], probs[""], rtol=1e-12, atol=0)


def test_exit_codes(capsys, tmp_path, line_csv):
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 1
    # rank-deficient design under a leverage scheme is a numerical failure
    path = _write(tmp_path / "flat.csv", "a,b\n1,1\n1,1\n1,1\n")
    code, _, err = _run(capsys, ["probs", "--input", path, "--scheme", "blev"])
    assert code == 2
    assert "numerical" in err
    code, _, err = _run(capsys, ["fit", "--input", str(tmp_path / "missing.csv"), "--response", "y"])
    assert code == 1
    code, _, err = _run(capsys, ["fit", "--input", line_csv])
    assert code == 1  # --response required


def test_subsample_rerun_is_byte_identical(tmp_path, capsys, line_csv):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "subsample", "--input", line_csv, "--response", "y", "--intercept",
        "--scheme", "slev", "--alpha", "0.9", "--r", "3", "--seed", "7",
    ]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["config"]["seed"] == 7
    assert len(doc["results"]["indices"]) == 3


def test_bench_rerun_and_workers_byte_identical(tmp_path, capsys):
    files = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / f"{name}.json"
        argv = [
            "bench", "--synthetic", "t5_line", "--n", "120", "--methods", "RAND,BLEV",
            "--r", "8", "--reps", "5", "--seed", "3", "--workers", workers,
            "--output", str(out),
        ]
        assert main(argv) == 0
        files.append(out.read_bytes())
    capsys.readouterr()
    assert files[0] == files[1]
    # the worker count is echoed in config, but must not leak into results
    assert json.loads(files[0])["results"] == json.loads(files[2])["results"]
    doc = json.loads(files[0])
    assert doc["timings_ms"] is None
    assert all(rec["mean_time_ms"] is None for rec in doc["results"]["records"])


def test_bench_timings_flag_populates(capsys, tmp_path):
    out = tmp_path / "t.json"
    argv = [
        "bench", "--synthetic", "t5_line", "--n", "100", "--methods", "RAND",
        "--r", "8", "--reps", "2", "--seed", "1", "--timings", "--output", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["timings_ms"] > 0
    assert all(rec["mean_time_ms"] > 0 for rec in doc["results"]["records"])


def test_bench_table_rendering(capsys):
    code, out, _ = _run(capsys, [
        "bench", "--synthetic", "t5_line", "--n", "100", "--methods", "RAND,BLEV",
        "--r", "8,12", "--reps", "3", "--seed", "2", "--table",
    ])
    assert code == 0
    assert "Method" in out and "r=8" in out and "RAND" in out
    # the JSON document still precedes the table on stdout
    assert out.lstrip().startswith("{")


def test_select_subcommands(capsys, tmp_path):
    path = _write(tmp_path / "d.csv", "a\n3\n1\n4\n1\n5\n9\n2\n6\n")
    code, out, _ = _run(capsys, ["select", "--input", path, "--method", "iboss", "--r", "2"])
    assert code == 0
    assert json.loads(out)["results"]["indices"] == [1, 5]
    code, out, _ = _run(capsys, [
        "select", "--input", path, "--method", "exchange", "--criterion", "D", "--r", "2",
    ])
    assert code == 0
    assert json.loads(out)["results"]["value"] > 0
    code, out, _ = _run(capsys, [
        "select", "--input", path, "--method", "volume-standard", "--r", "2", "--seed", "5",
    ])
    assert code == 0
    assert len(json.loads(out)["results"]["indices"]) == 2


SELECT_CSVS = {
    "small": ["--family", "gaussian", "--n", "12", "--p", "2", "--seed", "7"],
    "mid": ["--family", "student_t", "--df", "4", "--n", "300", "--p", "3", "--seed", "9"],
}
_WITH_CRITERION = ["criterion", "indices", "method", "value"]
# `select` results recorded before the CLI ran its methods through the bench
# selection table: (csv, --method, --criterion, --r) -> (result keys, indices).
SELECT_PINS = {
    ("mid", "iboss", "D", 12): (
        ["indices", "method", "value"], [33, 71, 86, 88, 119, 129, 140, 163, 182, 219, 240, 289]
    ),
    ("mid", "greedy", "A", 12): (
        _WITH_CRITERION, [80, 119, 129, 140, 163, 176, 182, 187, 198, 219, 240, 289]
    ),
    ("mid", "greedy", "D", 12): (
        _WITH_CRITERION, [88, 119, 129, 140, 163, 176, 182, 187, 198, 219, 240, 289]
    ),
    ("mid", "greedy", "E", 12): (
        _WITH_CRITERION, [30, 61, 63, 119, 140, 147, 160, 182, 198, 219, 225, 240]
    ),
    ("mid", "exchange", "A", 12): (
        _WITH_CRITERION, [80, 119, 129, 140, 163, 176, 182, 187, 198, 219, 240, 289]
    ),
    ("mid", "exchange", "D", 12): (
        _WITH_CRITERION, [88, 119, 129, 140, 163, 176, 182, 187, 198, 219, 240, 289]
    ),
    ("mid", "exchange", "E", 12): (
        _WITH_CRITERION, [30, 88, 117, 119, 140, 176, 182, 187, 198, 219, 240, 289]
    ),
    # drawn as a size-p projection DPP on U plus a uniform remainder
    ("small", "volume-standard", "D", 4): (["indices", "method"], [1, 3, 4, 9]),
    # drawn by the rejection sampler bounded by the determinant's exact maximum
    ("small", "volume-leveraged", "D", 4): (["indices", "method"], [3, 8, 9, 1]),
}


@pytest.fixture(scope="module")
def select_csvs(tmp_path_factory):
    root = tmp_path_factory.mktemp("select")
    paths = {}
    for name, flags in SELECT_CSVS.items():
        paths[name] = str(root / f"{name}.csv")
        assert main(["simulate", *flags, "--output", paths[name]]) == 0
    return paths


@pytest.mark.filterwarnings("ignore:leveraged volume sampling is tuned")
@pytest.mark.parametrize("key", sorted(SELECT_PINS))
def test_select_results_are_pinned(capsys, select_csvs, key):
    name, method, criterion, r = key
    code, out, _ = _run(capsys, [
        "select", "--input", select_csvs[name], "--response", "y", "--method", method,
        "--criterion", criterion, "--r", str(r), "--seed", "11",
    ])
    assert code == 0
    results = json.loads(out)["results"]
    keys, indices = SELECT_PINS[key]
    assert sorted(results) == keys
    assert results["indices"] == indices
    assert results["method"] == method
    if "criterion" in keys:
        assert results["criterion"] == criterion


# `subsample` results recorded before the CLI drew through the bench's method
# entry, on the "mid" CSV at r = 12, seed 11: (--scheme, --mode) -> (indices,
# sha256 of beta, draw_probs and residual_ss at 12 significant digits).
SUBSAMPLE_PINS = {
    ("RAND", "plain"): (
        [40, 38, 239, 149, 177, 180, 213, 8, 145, 44, 120, 278],
        "d55399eb722e12ebab8f493e7337367e264a382cae36f7f1b309fc28068e5514",
    ),
    ("RAND", "weighted"): (
        [40, 38, 239, 149, 177, 180, 213, 8, 145, 44, 120, 278],
        "3f5a2296b0ac72803420d9a3b7ac3045868d82c098f2ac6560c8fd95218e0836",
    ),
    ("BLEV", "plain"): (
        [40, 38, 219, 162, 177, 180, 212, 36, 145, 44, 140, 270],
        "65bbdf5cbef900db43dc401ba7c63d0b85556325f8bb4d65467b7d8d29b9421a",
    ),
    ("BLEV", "weighted"): (
        [40, 38, 219, 162, 177, 180, 212, 36, 145, 44, 140, 270],
        "6520602dcb8754d31d7b1dd9a2695c93c65beaf14ddaff8406e35487675b6c3f",
    ),
    ("SLEV", "plain"): (
        [40, 38, 219, 162, 177, 180, 212, 36, 145, 44, 140, 278],
        "e71b66b087db10cb226ce01b5c693fb83fab73a67713db34c4fe8649e3e50cc1",
    ),
    ("SLEV", "weighted"): (
        [40, 38, 219, 162, 177, 180, 212, 36, 145, 44, 140, 278],
        "2c43d9bf696a55ffdd1b7d3ddcb5110aabb78cc2687ca7f69b382c42f468b689",
    ),
    ("IC", "plain"): (
        [40, 38, 225, 160, 177, 176, 212, 8, 145, 44, 140, 278],
        "b2284cd1dd09a30aca109317ea73e0e594d14e03e5d26ed754aa70e3dcdbb071",
    ),
    ("IC", "weighted"): (
        [40, 38, 225, 160, 177, 176, 212, 8, 145, 44, 140, 278],
        "57d27a977a4b3b3dd767304c09f05747a81f1754130a8a1b64cc2075c6f5a436",
    ),
    ("RL", "plain"): (
        [40, 38, 239, 160, 177, 176, 212, 8, 145, 44, 140, 278],
        "7b320ad6cee8214ecc8975f03e06ea9bbb6ec53993e54350547689ccb4cd1069",
    ),
    ("RL", "weighted"): (
        [40, 38, 239, 160, 177, 176, 212, 8, 145, 44, 140, 278],
        "74fc129eb77eaa5d44bf53505d3420d882657089b6f96b87ba817def3bc3bf3f",
    ),
    ("PL", "plain"): (
        [40, 38, 239, 159, 177, 180, 212, 8, 145, 44, 140, 278],
        "b605533c97971ea30fd810ae2a1724d28d57892a4e89a1459ed115d5c6a370f5",
    ),
    ("PL", "weighted"): (
        [40, 38, 239, 159, 177, 180, 212, 8, 145, 44, 140, 278],
        "e5543475fea8b886a02a1e39fc0af240a6c8586e71347d458f2ba61edd621519",
    ),
}


@pytest.mark.parametrize("key", sorted(SUBSAMPLE_PINS))
def test_subsample_results_are_pinned(capsys, select_csvs, key):
    scheme, mode = key
    code, out, _ = _run(capsys, [
        "subsample", "--input", select_csvs["mid"], "--response", "y", "--scheme", scheme,
        "--mode", mode, "--r", "12", "--seed", "11",
    ])
    assert code == 0
    results = json.loads(out)["results"]
    indices, digest = SUBSAMPLE_PINS[key]
    assert sorted(results) == ["beta", "draw_probs", "indices", "mode", "rank", "residual_ss", "scheme"]
    assert (results["scheme"], results["mode"], results["indices"]) == (scheme, mode, indices)
    h = hashlib.sha256()
    for name in ("beta", "draw_probs"):
        h.update(" ".join(f"{v:.11e}" for v in results[name]).encode() + b"\n")
    h.update(f"{results['residual_ss']:.11e}\n".encode())
    assert h.hexdigest() == digest


def test_subsample_draws_without_an_alias_table(capsys, tmp_path, monkeypatch):
    # one draw looks up its cells alone: a whole table costs O(n) per command
    path = str(tmp_path / "tall.csv")
    assert _run(capsys, ["simulate", "--family", "gaussian", "--n", "5000", "--p", "3", "--seed", "4", "--output", path])[0] == 0
    tables = []
    real_table = sampler_mod.alias_table
    monkeypatch.setattr(sampler_mod, "alias_table", lambda probs: tables.append(probs.shape) or real_table(probs))
    for scheme in SCHEMES:
        code, out, _ = _run(capsys, [
            "subsample", "--input", path, "--response", "y", "--scheme", scheme, "--r", "100",
        ])
        assert code == 0 and len(json.loads(out)["results"]["indices"]) == 100
    assert tables == []


def test_a_warning_is_one_plain_line(capsys, select_csvs):
    # once a UserWarning naming a line of package source, then that line
    code, out, err = _run(capsys, [
        "select", "--input", select_csvs["small"], "--response", "y", "--method", "volume-leveraged",
        "--r", "4", "--seed", "11",
    ])
    assert code == 0 and json.loads(out)["results"]["indices"] == [3, 8, 9, 1]
    assert err == "sublsq: warning: leveraged volume sampling is tuned for r > 4 p^2 (= 16); got r=4, proceeding anyway\n"


def test_warnings_precede_the_error_line_once_each(capsys):
    code, _, err = _run(capsys, [
        "bench", "--synthetic", "t5_line", "--n", "20", "--reps", "3", "--methods", "LEVVOL,IBOSS",
        "--r", "4,6", "--workers", "2",
    ])
    assert code == 1
    assert err.splitlines() == [
        "sublsq: warning: leveraged volume sampling is tuned for r > 4 p^2 (= 16); got r=4, proceeding anyway",
        "sublsq: warning: leveraged volume sampling is tuned for r > 4 p^2 (= 16); got r=6, proceeding anyway",
        "sublsq: input error: method IBOSS cannot run at r=6: r must be a positive multiple of 2p=4, got 6",
    ]


def test_a_runtime_warning_passes_on_unchanged(capsys, monkeypatch, recwarn, select_csvs):
    # test_hostile_csv_raises_no_runtime_warning reads numpy's warnings through recwarn
    def overflowing(data, r, seed, criterion):
        np.float64(1e308) * 10.0
        return {"indices": np.arange(r)}

    monkeypatch.setitem(bench_mod.SELECTIONS, "IBOSS", overflowing)
    code, _, err = _run(capsys, ["select", "--input", select_csvs["small"], "--method", "iboss", "--r", "4"])
    assert code == 0 and err == ""
    assert [w.category for w in recwarn] == [RuntimeWarning]


@pytest.mark.parametrize("argv, flag", [
    (["bench", "--synthetic", "t5_line", "--r", "abc"], "--r"),
    (["simulate", "--family", "gaussian", "--p", "2", "--beta0", "1,x"], "--beta0"),
])
def test_bad_list_flag_is_an_input_error(capsys, tmp_path, argv, flag):
    code, _, err = _run(capsys, [*argv, "--output", str(tmp_path / "out")])
    assert code == 1
    assert f"input error: {flag}" in err and "Traceback" not in err


def test_bench_rejects_bad_alpha_before_running(capsys):
    code, out, err = _run(capsys, [
        "bench", "--synthetic", "t5_line", "--n", "50", "--reps", "2", "--r", "4",
        "--methods", "SLEV", "--alpha", "2",
    ])
    assert code == 1 and out == ""
    assert "input error: alpha must lie in [0, 1]" in err


def test_amse_subcommand(capsys, tmp_path):
    rng = np.random.default_rng(0)
    rows = "\n".join(f"{a},{b},{a + b + c}" for a, b, c in rng.standard_normal((50, 3)))
    path = _write(tmp_path / "d.csv", "u,v,y\n" + rows + "\n")
    code, out, _ = _run(capsys, [
        "amse", "--input", path, "--response", "y", "--scheme", "ic", "--r", "10",
    ])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["sigma2"] > 0
    assert set(res["trace_amse"]) == {"beta", "Xbeta", "XtXbeta"}
    assert res["avar_trace"] == pytest.approx(res["trace_amse"]["beta"], rel=1e-6)
    assert res["diagnostics"]["condition_ratio"] >= 1.0


def test_simulate_roundtrip(tmp_path, capsys):
    csv_path = tmp_path / "sim.csv"
    argv = [
        "simulate", "--family", "gaussian", "--n", "500", "--p", "3",
        "--beta0", "2,-1,0.5", "--noise-sd", "0.1", "--seed", "8",
        "--output", str(csv_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    first = csv_path.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert csv_path.read_bytes() == first

    code, out, _ = _run(capsys, [
        "fit", "--input", str(csv_path), "--response", "y",
    ])
    assert code == 0
    beta = json.loads(out)["results"]["beta"]
    np.testing.assert_allclose(beta, [2.0, -1.0, 0.5], atol=0.05)


def _csv_writer_reference(data) -> bytes:
    """The row-at-a-time csv.writer loop that simulate used to write with."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{j + 1}" for j in range(data.p)] + ["y"])
    for i in range(data.n):
        writer.writerow(
            [repr(float(v)) for v in data.design[i]] + [repr(float(data.response[i]))]
        )
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("family", DESIGN_FAMILIES)
def test_simulate_writes_csv_writer_bytes(tmp_path, capsys, family):
    # more rows than one write block, and a partial last block
    n = 20_001
    csv_path = tmp_path / "sim.csv"
    argv = ["simulate", "--family", family, "--n", str(n), "--seed", "4",
            "--output", str(csv_path)]
    if family != "t5_line":
        argv += ["--p", "3"]
    if family == "student_t":
        argv += ["--df", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    if family == "t5_line":
        spec = t5_line_spec(n=n)
    else:
        spec = SyntheticSpec(n=n, p=3, design_family=family, beta0=(1.0,) * 3, noise_sd=1.0,
                             df=3.0 if family == "student_t" else None)
    assert csv_path.read_bytes() == _csv_writer_reference(generate_synthetic(spec, 4))


def test_unwritable_output_is_an_input_error(capsys, tmp_path, line_csv):
    missing = str(tmp_path / "no-such-dir" / "out")
    for argv in (
        ["simulate", "--n", "10", "--output", missing],
        ["fit", "--input", line_csv, "--response", "y", "--output", missing],
    ):
        code, _, err = _run(capsys, argv)
        assert code == 1
        assert "input error: cannot write" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["subsample", "--scheme", "BLEV", "--r", str(10**17)],
    ["subsample", "--scheme", "RAND", "--mode", "plain", "--r", str(10**17)],
    ["simulate", "--n", str(10**17)],
], ids=["subsample-weighted", "subsample-plain", "simulate"])
def test_a_size_too_large_to_allocate_is_an_input_error(capsys, tmp_path, argv):
    # 10^17 elements exceed any address space, so the allocation fails at once
    path = _write(tmp_path / "d.csv", "x,y\n1,2\n2,3\n4,4\n")
    argv = argv + (["--output", str(tmp_path / "sim.csv")] if argv[0] == "simulate"
                   else ["--input", path, "--response", "y"])
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert err.startswith("sublsq: input error: Unable to allocate") and err.count("\n") == 1


def test_json_is_sorted_and_finite(capsys, line_csv):
    code, out, _ = _run(capsys, ["fit", "--input", line_csv, "--response", "y", "--intercept"])
    doc = json.loads(out)
    assert list(doc) == sorted(doc)
    assert math.isfinite(doc["results"]["residual_ss"])


HOSTILE_CSVS = {
    "huge": b"a,b,y\n1e300,2,1\n-1e308,3,2\n1e307,1e-300,3\n5,7,1e308\n2,2,2\n",
    "tiny": b"a,b,y\n1e-300,2e-300,1\n3e-310,1e-320,2\n5e-300,1e-300,3\n1e-305,4e-301,1\n",
    "constant_column": b"a,b,y\n1,1,1\n1,2,2\n1,3,3\n1,4,4\n1,5,5\n",
    "duplicate_columns": b"a,b,y\n1,1,1\n2,2,2\n3,3,3\n4,4,5\n",
    "zero_rows": b"a,b,y\n0,0,0\n1,2,3\n0,0,1\n2,1,1\n3,5,2\n",
    "all_zero": b"a,b,y\n0,0,0\n0,0,0\n0,0,0\n0,0,0\n",
    "one_row": b"a,b,y\n1,2,3\n",
    "mixed_scales": b"a,b,y\n1e200,1e-200,1\n1,1,1e200\n0,0,0\n-1e200,1e-200,1\n1,1,1\n",
    "invalid_utf8": b"a,b,y\n1,2,3\n\xff,1,1\n",
    "oversized_cell": b"a,b,y\n1,2,3\n" + b"1" * 200_000 + b",1,1\n",
}
HOSTILE_COMMANDS = (
    [["fit"], ["fit", "--intercept"]]
    + [["probs", "--scheme", s] for s in ("RAND", "BLEV", "SLEV", "IC", "RL", "PL")]
    + [["subsample", "--scheme", s, "--r", "4"] for s in ("BLEV", "IC", "PL")]
    + [["select", "--method", m, "--r", "4", "--criterion", c]
       for m in ("iboss", "greedy", "exchange", "volume-standard", "volume-leveraged")
       for c in "ADE"]
    + [["amse", "--scheme", s, "--r", "4"] for s in ("BLEV", "IC", "RL")]
    + [["bench", "--reps", "3", "--r", "4"]]
)


@pytest.mark.parametrize("name", sorted(HOSTILE_CSVS))
def test_hostile_csv_never_crashes(capsys, tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(HOSTILE_CSVS[name])
    for argv in HOSTILE_COMMANDS:
        code, _, err = _run(capsys, [*argv, "--input", str(path), "--response", "y"])
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(HOSTILE_CSVS))
def test_hostile_csv_raises_no_runtime_warning(capsys, tmp_path, recwarn, name):
    # numpy once printed overflow warnings, with a source line each, before the error message
    path = tmp_path / f"{name}.csv"
    path.write_bytes(HOSTILE_CSVS[name])
    for argv in HOSTILE_COMMANDS:
        if argv[0] in ("fit", "probs", "subsample", "amse") or argv[0] == "select" and argv[2] in (
            "iboss", "greedy", "exchange"
        ):
            _run(capsys, [*argv, "--input", str(path), "--response", "y"])
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["duplicate_columns", "huge", "mixed_scales", "tiny"])
def test_select_on_a_singular_or_overflowing_gram_exits_2(capsys, tmp_path, name):
    # these once exited 0 with an "inf" or "nan" value and arbitrary rows
    path = tmp_path / f"{name}.csv"
    path.write_bytes(HOSTILE_CSVS[name])
    for method in ("iboss", "greedy", "exchange"):
        for criterion in "ADE":
            code, out, err = _run(capsys, [
                "select", "--input", str(path), "--response", "y", "--method", method,
                "--criterion", criterion, "--r", "4",
            ])
            assert code == 2 and out == "", (method, criterion)
            assert "numerical failure" in err


@pytest.mark.parametrize("name", ["huge", "mixed_scales"])
def test_fit_whose_residuals_overflow_exits_2(capsys, tmp_path, name):
    # these once exited 0 with "residual_ss": "inf"
    path = tmp_path / f"{name}.csv"
    path.write_bytes(HOSTILE_CSVS[name])
    for extra in ([], ["--intercept"]):
        code, out, err = _run(capsys, ["fit", "--input", str(path), "--response", "y", *extra])
        assert code == 2 and out == ""
        assert "numerical failure: the residual sum of squares overflows" in err


def test_fit_whose_coefficients_overflow_exits_2(capsys, tmp_path, recwarn):
    # (U'y)/s once overflowed with a RuntimeWarning, and the fit then failed
    # on the residual sum of squares instead
    path = _write(tmp_path / "steep.csv", "x,y\n1e-300,1e10\n2e-300,3e10\n4e-300,2e10\n")
    code, out, err = _run(capsys, ["fit", "--input", path, "--response", "y"])
    assert code == 2 and out == ""
    assert "numerical failure: the least-squares coefficients overflow" in err
    tiny = tmp_path / "tiny.csv"
    tiny.write_bytes(HOSTILE_CSVS["tiny"])
    _run(capsys, ["bench", "--input", str(tiny), "--response", "y", "--reps", "3", "--r", "4"])
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


def test_bench_rejects_a_method_that_fails_every_replicate(capsys):
    # IBOSS at an r that 2p does not divide once exited 0 with every cell
    # "failed"; VOL, once stopped beyond n=20 by subset enumeration, runs
    argv = ["bench", "--synthetic", "t5_line", "--n", "50", "--reps", "2", "--r", "6"]
    code, out, err = _run(capsys, [*argv, "--methods", "IBOSS,VOL"])
    assert code == 1 and out == ""
    assert "method IBOSS cannot run at r=6: r must be a positive multiple of 2p=4" in err
    code, out, _ = _run(capsys, [*argv, "--methods", "RAND,VOL"])
    assert code == 0
    records = json.loads(out)["results"]["records"]
    assert [rec["method"] for rec in records] == ["RAND", "VOL"]
    assert all(rec["n_ok"] == 2 and not rec["failed"] for rec in records)


@pytest.mark.parametrize("name", ["huge", "mixed_scales", "tiny"])
def test_pl_probabilities_at_any_row_scale(capsys, tmp_path, name):
    # PL once failed here: its squared row norms overflowed or all underflowed
    path = tmp_path / f"{name}.csv"
    path.write_bytes(HOSTILE_CSVS[name])
    code, out, _ = _run(capsys, ["probs", "--input", str(path), "--response", "y", "--scheme", "PL"])
    assert code == 0
    pl = np.array(json.loads(out)["results"]["probs"])
    assert np.all(pl >= 0) and abs(pl.sum() - 1.0) <= 1e-10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bench_counts_overflowing_squared_errors_as_failed(capsys, tmp_path):
    # coefficients near 1e300 on the tiny design square to inf; such replicates once counted as ok
    path = tmp_path / "tiny.csv"
    path.write_bytes(HOSTILE_CSVS["tiny"])
    code, out, _ = _run(capsys, [
        "bench", "--input", str(path), "--response", "y", "--reps", "3", "--r", "4",
    ])
    assert code == 0
    records = json.loads(out)["results"]["records"]
    assert [rec["method"] for rec in records] == ["RAND", "BLEV", "SLEV", "IC", "RL", "PL"]
    assert all(rec["n_ok"] == 0 and rec["failed"] for rec in records)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_amse_on_tiny_values_exits_2(capsys, tmp_path):
    # the asymptotic variance overflows here; it was once printed with NaN entries
    path = tmp_path / "tiny.csv"
    path.write_bytes(HOSTILE_CSVS["tiny"])
    code, out, err = _run(capsys, [
        "amse", "--input", str(path), "--scheme", "IC", "--r", "4", "--response", "y",
    ])
    assert code == 2 and out == ""
    assert "numerical failure: the asymptotic variance over- or underflows" in err


def test_invalid_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x,y\n1,2\n\xe9,3\n")
    code, _, err = _run(capsys, ["fit", "--input", str(path), "--response", "y"])
    assert code == 1
    assert "not valid UTF-8" in err


COMMANDS = ("fit", "probs", "subsample", "select", "amse", "bench", "simulate")


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_prints_help(capsys, command):
    code, out, _ = _run(capsys, [command, "--help"])
    assert code == 0 and f"usage: sublsq {command}" in out


DATA_KEYS = {"input", "response", "predictors", "log_columns", "drop_head_rows", "intercept"}
CONFIG_KEYS = {
    "fit": DATA_KEYS,
    "probs": DATA_KEYS | {"scheme", "alpha"},
    "subsample": DATA_KEYS | {"scheme", "alpha", "r", "mode", "seed"},
    "select": DATA_KEYS | {"method", "criterion", "r", "seed"},
    "amse": DATA_KEYS | {"scheme", "alpha", "r", "sigma2"},
    "bench": DATA_KEYS | {"synthetic", "n", "methods", "r", "reps", "alpha", "criterion", "seed",
                          "workers", "table", "timings"},
    "simulate": {"family", "n", "p", "df", "beta0", "noise_sd", "seed"},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_echoed_config_keys_are_pinned(capsys, tmp_path, command):
    path = _write(tmp_path / "d.csv", "u,v,y\n" + "".join(
        f"{a},{b},{a + 2 * b + c}\n" for a, b, c in np.random.default_rng(1).standard_normal((40, 3))
    ))
    data = ["--input", path, "--response", "y"]
    argv = {
        "fit": data,
        "probs": [*data, "--scheme", "blev"],
        "subsample": [*data, "--scheme", "blev", "--r", "10"],
        "select": [*data, "--method", "greedy", "--r", "8"],
        "amse": [*data, "--scheme", "ic", "--r", "10"],
        "bench": ["--synthetic", "t5_line", "--n", "50", "--methods", "RAND", "--r", "8", "--reps", "2"],
        "simulate": ["--n", "10", "--output", str(tmp_path / "sim.csv")],
    }[command]
    code, out, err = _run(capsys, [command, *argv])
    assert code == 0, err
    assert set(json.loads(out)["config"]) == CONFIG_KEYS[command]


@pytest.mark.parametrize("flag", [["--p", "5"], ["--df", "5"]])
def test_simulate_t5_line_rejects_flags_it_cannot_honor(capsys, tmp_path, flag):
    # both were once dropped while the config echoed them
    csv_path = tmp_path / "sim.csv"
    code, out, err = _run(capsys, ["simulate", "--family", "t5_line", *flag, "--output", str(csv_path)])
    assert code == 1 and out == "" and "input error" in err
    assert not csv_path.exists()


def test_simulate_t5_line_honors_beta0(capsys, tmp_path):
    code, out, _ = _run(capsys, [
        "simulate", "--family", "t5_line", "--n", "300", "--beta0", "2,3", "--seed", "6",
        "--output", str(tmp_path / "sim.csv"),
    ])
    assert code == 0
    expected = generate_synthetic(SyntheticSpec(300, 2, "t5_line", (2.0, 3.0), 1.0), 6)
    assert json.loads(out)["results"]["fingerprint"] == dataset_fingerprint(expected)


@pytest.mark.parametrize("flags", [
    ["--input", "/nonexistent.csv"], ["--response", "y"], ["--predictors", "x1"],
    ["--log-columns", "x1"], ["--drop-head-rows", "3"], ["--intercept"],
    # an empty value is still a given flag
    ["--input", ""], ["--response", ""], ["--predictors", ""], ["--log-columns", ""],
])
def test_bench_synthetic_rejects_data_flags(capsys, flags):
    # once ignored, while the config echoed them
    code, out, err = _run(capsys, [
        "bench", "--synthetic", "t5_line", "--n", "50", "--methods", "RAND", "--r", "8",
        "--reps", "2", *flags,
    ])
    assert code == 1 and out == ""
    assert f"input error: --synthetic takes no data flags, got {flags[0]}" in err


def test_bench_from_a_csv_rejects_the_synthetic_sample_size(capsys, tmp_path):
    # --n was once ignored, while the config echoed it
    path = str(tmp_path / "sim.csv")
    assert _run(capsys, ["simulate", "--n", "300", "--output", path])[0] == 0
    argv = ["bench", "--input", path, "--response", "y", "--reps", "2", "--methods", "RAND", "--r", "10"]
    code, out, err = _run(capsys, [*argv, "--n", "5"])
    assert code == 1 and out == ""
    assert "input error: --n needs --synthetic" in err
    code, out, _ = _run(capsys, argv)
    assert code == 0 and json.loads(out)["config"]["n"] == 1000


@pytest.mark.parametrize("predictors", ["", ","])
def test_fit_with_an_empty_predictor_list_is_an_input_error(capsys, line_csv, predictors):
    # once fit every column but the response while echoing "predictors": ""
    code, out, err = _run(capsys, ["fit", "--input", line_csv, "--response", "y", "--predictors", predictors])
    assert code == 1 and out == ""
    assert "input error: --predictors must name at least one column" in err


def test_bench_with_no_methods_is_an_input_error(capsys):
    code, out, err = _run(capsys, ["bench", "--synthetic", "t5_line", "--methods", ""])
    assert code == 1 and out == ""
    assert "input error: methods must not be empty" in err



def test_bench_with_an_empty_r_list_is_an_input_error(capsys):
    # once ran the default grid 10, 20, 30, 40 while echoing "r": ""
    code, out, err = _run(capsys, [
        "bench", "--synthetic", "t5_line", "--n", "50", "--reps", "2", "--methods", "RAND", "--r", "",
    ])
    assert code == 1 and out == ""
    assert "input error: r_values must not be empty" in err


def test_simulate_with_an_empty_beta0_is_an_input_error(capsys, tmp_path):
    # once wrote all-ones coefficients while echoing "beta0": ""
    csv_path = tmp_path / "sim.csv"
    code, out, err = _run(capsys, [
        "simulate", "--family", "gaussian", "--n", "20", "--p", "3", "--beta0", "", "--output", str(csv_path),
    ])
    assert code == 1 and out == ""
    assert "input error: beta0 must have length p=3" in err
    assert not csv_path.exists()


@pytest.mark.parametrize("df", ["inf", "nan"])
def test_simulate_student_t_with_a_non_finite_df_names_the_df(capsys, tmp_path, df):
    # standard_t(inf) draws NaN, which was once reported as a NaN design
    csv_path = tmp_path / "sim.csv"
    code, out, err = _run(capsys, [
        "simulate", "--family", "student_t", "--df", df, "--n", "20", "--p", "2", "--output", str(csv_path),
    ])
    assert code == 1 and out == ""
    assert f"input error: student_t needs a finite df > 2, got {df}" in err
    assert not csv_path.exists()


@pytest.mark.parametrize(
    "flags, line",
    [
        (["--noise-sd", "inf"], "noise_sd must be finite and nonnegative, got inf"),
        (["--noise-sd", "nan"], "noise_sd must be finite and nonnegative, got nan"),
        (["--beta0", "1,inf"], "beta0 must be finite, got (1.0, inf)"),
    ],
)
def test_simulate_with_a_non_finite_input_names_the_field(capsys, tmp_path, flags, line):
    # once reported as "response contains NaN or Inf entries"
    csv_path = tmp_path / "sim.csv"
    code, out, err = _run(capsys, [
        "simulate", "--family", "gaussian", "--n", "20", "--p", "2", *flags, "--output", str(csv_path),
    ])
    assert code == 1 and out == ""
    assert err == f"sublsq: input error: {line}\n"
    assert not csv_path.exists()


@pytest.mark.parametrize("flags", [["--beta0", "1e308,1e308"], ["--noise-sd", "1e308"]])
def test_simulate_overflow_raises_no_runtime_warning(capsys, tmp_path, recwarn, flags):
    # numpy once printed an overflow warning, with a source line, before the error message
    csv_path = tmp_path / "sim.csv"
    code, out, err = _run(capsys, [
        "simulate", "--family", "gaussian", "--n", "100", "--p", "2", *flags, "--output", str(csv_path),
    ])
    assert code == 1 and out == ""
    assert "input error: response contains NaN or Inf entries" in err
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


# Runs each (CSV, command) pair of argv[1:] in one process, whose BLAS
# threads are fixed when numpy loads.
_THREAD_CHILD = """
import sys
from sublsq.cli import main
for csv_path, command in zip(sys.argv[1::2], sys.argv[2::2]):
    main(command.split() + ["--input", csv_path, "--response", "y"])
"""


def test_output_is_the_same_at_any_blas_thread_count(capsys, tmp_path):
    # a fit's sums over n once went through gemv and ddot, which split them
    # between threads: fit and amse printed other bytes at 1 and 2 threads.
    # At p = 50 and 100 the Grams of the factorization and of amse did too.
    wide = ["fit", "probs --scheme ic", "amse --scheme ic --r 500"]
    inputs = {
        (100_000, 10): [
            "fit",
            "fit --intercept",
            "amse --scheme ic --r 500",
            "subsample --scheme blev --r 500",
            "probs --scheme ic",
            "select --method iboss --r 500",
            "bench --methods OLS,BLEV,IC --reps 2 --r 100",
        ],
        (20_000, 50): wide,
        (20_000, 100): wide,
    }
    pairs = []
    for (n, p), commands in inputs.items():
        csv_path = tmp_path / f"tall-{p}.csv"
        argv = ["simulate", "--family", "student_t", "--df", "3", "--n", str(n), "--p", str(p)]
        assert main(argv + ["--output", str(csv_path)]) == 0
        pairs += [arg for command in commands for arg in (str(csv_path), command)]
    capsys.readouterr()
    src = str(Path(sublsq.__file__).resolve().parents[1])
    children = []
    for threads in ("1", "2", "4"):  # run side by side, each with its own BLAS threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = [sys.executable, "-c", _THREAD_CHILD, *pairs]
        children.append(subprocess.Popen(child, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    outputs = []
    try:
        for proc in children:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
            outputs.append(out)
    finally:
        for proc in children:
            proc.kill()  # no-op once a child has exited
            proc.wait()
    assert outputs[0].count(b'"schema_version"') == len(pairs) // 2
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
