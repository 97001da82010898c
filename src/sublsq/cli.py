"""Command-line interface: CSV in, JSON out.

Subcommands: fit, probs, subsample, select, amse, bench, simulate. Every
run writes a single JSON document {schema_version, command, config,
results, timings_ms} to --output or stdout, echoing the fully resolved
configuration (including the seed, which defaults to a fixed constant so
runs are reproducible by default). Exit codes: 0 success, 1 input error,
2 numerical failure.

Timing is only reported under --timings: wall-clock values would break
the guarantee that rerunning a command with its echoed config yields
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bench as bench_mod
from .asymptotics import (
    TARGETS,
    avar_matrix,
    regularity_diagnostics,
    sigma2_estimate,
    trace_amse,
)
from .core import Dataset, ols_fit, one_of
from .errors import NumericalError, ValidationError
from .optdesign import CRITERIA
from .probs import SCHEMES, compute_probabilities
from .sampler import MODES

SCHEMA_VERSION = "1"
DEFAULT_SEED = 12345
_CSV_BLOCK_ROWS = 8192
# `select --method` value -> its entry in the bench selection table.
_SELECT_METHODS = {
    "iboss": "IBOSS",
    "greedy": "GREEDY",
    "exchange": "EXCHANGE",
    "volume-standard": "VOL",
    "volume-leveraged": "LEVVOL",
}

__all__ = ["RunConfig", "parse_csv", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Column selection and preprocessing for CSV ingestion."""

    response_column: str | None = None
    predictor_columns: tuple[str, ...] | None = None
    log_columns: tuple[str, ...] = field(default=())
    drop_head_rows: int = 0


def _resolve_column(header: list[str], spec: str) -> int:
    if spec in header:
        return header.index(spec)
    try:
        idx = int(spec)
    except ValueError:
        raise ValidationError(
            f"column {spec!r} not found in header {header}"
        ) from None
    if not 0 <= idx < len(header):
        raise ValidationError(f"column index {idx} out of range for {len(header)} columns")
    return idx


def parse_csv(path: str, config: RunConfig) -> Dataset:
    """Read a headered CSV into a Dataset.

    Order of operations: drop leading data rows, log-transform the
    configured columns, then select predictors and response. Every bad
    cell is reported with its file line and column name; a missing
    response column yields an all-zero response (the probability and
    selection subcommands never look at it).

    A plain numeric file is read in one ``np.loadtxt`` pass. Anything
    that pass rejects or doubts (quoted cells, ``1_000``-style numbers,
    ragged or bad rows, values the log transform or the finiteness check
    refuse) is re-read by ``_parse_rows``, so results and error messages
    are those of the row-by-row reader.
    """
    bulk = _parse_bulk(path, config)
    if bulk is None:
        return _parse_rows(path, config)
    return _select(*bulk, config)


def _parse_bulk(path: str, config: RunConfig) -> tuple[list[str], np.ndarray] | None:
    """Header and preprocessed values of a clean file, else None."""
    if config.drop_head_rows < 0:
        return None
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            header = [h.strip() for h in next(csv.reader(fh))]
            with warnings.catch_warnings():
                # "input contained no data" becomes an exception: hand off
                warnings.simplefilter("error", UserWarning)
                values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
    except (OSError, StopIteration, ValueError, UserWarning, csv.Error):
        return None
    values = values[config.drop_head_rows :]
    if values.shape[1] != len(header) or values.shape[0] == 0:
        return None
    for name in config.log_columns:
        j = _resolve_column(header, name)
        if np.any(values[:, j] <= 0):
            return None
        values[:, j] = np.log(values[:, j])
    if not np.all(np.isfinite(values)):
        return None
    return header, values


def _parse_rows(path: str, config: RunConfig) -> Dataset:
    """Row-by-row reader: ``float()`` per cell, errors named by line and column."""
    try:
        fh = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path} is empty; a header row is required")
            header = [h.strip() for h in header]
            raw_rows: list[tuple[int, list[str]]] = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValidationError(
                        f"{path} line {lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                raw_rows.append((lineno, row))
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not valid UTF-8: {exc}") from None
        except csv.Error as exc:
            raise ValidationError(f"{path} line {reader.line_num}: {exc}") from None

    if config.drop_head_rows < 0:
        raise ValidationError("drop_head_rows must be nonnegative")
    raw_rows = raw_rows[config.drop_head_rows :]
    if not raw_rows:
        raise ValidationError(f"{path}: no data rows left after drop_head_rows")

    values = np.empty((len(raw_rows), len(header)))
    for i, (lineno, row) in enumerate(raw_rows):
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path} line {lineno}, column {header[j]!r}: "
                    f"non-numeric value {cell.strip()!r}"
                ) from None

    for name in config.log_columns:
        j = _resolve_column(header, name)
        bad = np.flatnonzero(values[:, j] <= 0)
        if bad.size:
            lineno = raw_rows[int(bad[0])][0]
            raise ValidationError(
                f"{path} line {lineno}, column {header[j]!r}: "
                f"log transform needs positive values, got {values[int(bad[0]), j]}"
            )
        values[:, j] = np.log(values[:, j])

    if not np.all(np.isfinite(values)):
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise ValidationError(
            f"{path} line {raw_rows[int(i)][0]}, column {header[int(j)]!r}: non-finite value"
        )
    return _select(header, values, config)


def _select(header: list[str], values: np.ndarray, config: RunConfig) -> Dataset:
    """Split parsed values into the configured response and predictors."""
    if config.response_column is not None:
        resp_idx = _resolve_column(header, config.response_column)
        response = values[:, resp_idx]
    else:
        resp_idx = None
        response = np.zeros(values.shape[0])

    if config.predictor_columns is not None:
        pred_idx = [_resolve_column(header, c) for c in config.predictor_columns]
    else:
        pred_idx = [j for j in range(len(header)) if j != resp_idx]
    if not pred_idx:
        raise ValidationError("no predictor columns selected")
    return Dataset(design=values[:, pred_idx], response=response)


def _split_list(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _number_list(text: str, flag: str, kind: type) -> tuple:
    """Comma-separated numbers of one flag; a bad item is an input error."""
    try:
        return tuple(kind(item) for item in _split_list(text))
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def _load_dataset(args, need_response: bool) -> Dataset:
    if args.input is None:
        raise ValidationError("--input is required for this subcommand")
    if need_response and args.response is None:
        raise ValidationError("--response is required for this subcommand")
    predictors = None if args.predictors is None else _split_list(args.predictors)
    if predictors == ():
        raise ValidationError("--predictors must name at least one column")
    config = RunConfig(
        response_column=args.response,
        predictor_columns=predictors,
        log_columns=_split_list(args.log_columns),
        drop_head_rows=args.drop_head_rows,
    )
    data = parse_csv(args.input, config)
    if args.intercept:
        data = Dataset(
            design=np.column_stack([np.ones(data.n), data.design]),
            response=data.response,
        )
    return data


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        # Python ints and finite floats encode the same either way; only
        # non-finite floats need the walk that spells them as strings.
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _data_flags() -> argparse.ArgumentParser:
    """The flags of `_load_dataset`, as a parent parser; `bench --synthetic` reads none of them."""
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--input", help="CSV file with a header row")
    data.add_argument("--response", help="response column name or index")
    data.add_argument("--predictors", help="comma-separated predictor columns (default: all others)")
    data.add_argument("--log-columns", dest="log_columns", help="columns to log-transform")
    data.add_argument("--drop-head-rows", dest="drop_head_rows", type=int, default=0)
    data.add_argument("--intercept", action="store_true", help="prepend a column of ones")
    return data


def _synthetic_flags() -> argparse.ArgumentParser:
    """The flags `bench --synthetic` reads in place of the data flags, as a parent parser."""
    synthetic = argparse.ArgumentParser(add_help=False)
    synthetic.add_argument("--synthetic", choices=("t5_line",), help="use built-in synthetic data instead of --input")
    synthetic.add_argument("--n", type=int, default=1000, help="synthetic sample size")
    return synthetic


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublsq",
        description="Subsampling estimators for large-scale least squares",
    )
    # Flag groups, each declared once and shared as a parent parser.
    common, scheme, size, seed, criterion = (
        argparse.ArgumentParser(add_help=False) for _ in range(5)
    )
    data = _data_flags()
    common.add_argument("--output", help="write the JSON document (CSV for simulate) here")
    scheme.add_argument("--scheme", required=True, help=f"one of {', '.join(SCHEMES)}")
    scheme.add_argument("--alpha", type=float, default=None, help="SLEV mixing weight")
    size.add_argument("--r", type=int, required=True, help="subsample size")
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED)
    criterion.add_argument("--criterion", choices=CRITERIA, default="D")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, *groups):
        sp = sub.add_parser(name, parents=[common, *groups], help=summary)
        sp.set_defaults(run=run)
        return sp

    command("fit", _run_fit, "full ordinary least squares", data)
    command("probs", _run_probs, "per-row sampling probabilities", data, scheme)
    sp = command("subsample", _run_subsample, "one draw plus its estimate", data, scheme, size, seed)
    sp.add_argument("--mode", choices=MODES, default="weighted")
    sp = command("select", _run_select, "deterministic or volume subset selection", data, criterion, size, seed)
    sp.add_argument("--method", required=True, choices=tuple(_SELECT_METHODS))
    sp = command("amse", _run_amse, "asymptotic variance and trace-AMSE", data, scheme, size)
    sp.add_argument("--sigma2", type=float, default=None, help="noise variance (default: estimated)")

    sp = command("bench", _run_bench, "bootstrap EMSE benchmark", data, seed, criterion, _synthetic_flags())
    sp.add_argument("--methods", default=",".join(SCHEMES))
    sp.add_argument("--r", help="comma-separated subsample sizes (default 5p,10p,15p,20p)")
    sp.add_argument("--reps", type=int, default=bench_mod.DEFAULT_REPS)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--table", action="store_true", help="also print an aligned text table")
    sp.add_argument("--timings", action="store_true", help="include wall-clock timings (breaks byte-identical reruns)")

    sp = command("simulate", _run_simulate, "write synthetic data to CSV", seed)
    sp.add_argument("--family", choices=bench_mod.DESIGN_FAMILIES, default="t5_line")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--df", type=float, default=None)
    sp.add_argument("--beta0", help="comma-separated coefficients (default: all ones)")
    sp.add_argument("--noise-sd", dest="noise_sd", type=float, default=1.0)
    return parser


def _config_echo(args) -> dict:
    skip = {"command", "output", "run"}
    return {k: _jsonable(v) for k, v in sorted(vars(args).items()) if k not in skip}


def _run_fit(args):
    data = _load_dataset(args, need_response=True)
    fit = ols_fit(data)
    return {
        "beta": fit.beta,
        "rank": fit.rank,
        "residual_ss": fit.residual_ss,
        "n": data.n,
        "p": data.p,
    }, None


def _run_probs(args):
    data = _load_dataset(args, need_response=False)
    pv = compute_probabilities(data, args.scheme, args.alpha)
    out = {"scheme": pv.scheme, "probs": pv.probs}
    if pv.alpha is not None:
        out["alpha"] = pv.alpha
    return out, None


def _run_subsample(args):
    data = _load_dataset(args, need_response=True)
    scheme = one_of(args.scheme.upper(), SCHEMES, "scheme")
    fields, fit = bench_mod._prepared(scheme, data, args.alpha, None, args.mode, 1)(args.r, args.seed)
    est = fit()
    return {**fields, "beta": est.beta, "rank": est.rank, "residual_ss": est.residual_ss}, None


def _run_select(args):
    data = _load_dataset(args, need_response=False)
    select = bench_mod.SELECTIONS[_SELECT_METHODS[args.method]]
    return {"method": args.method, **select(data, args.r, args.seed, args.criterion)}, None


def _run_amse(args):
    data = _load_dataset(args, need_response=True)
    pv = compute_probabilities(data, args.scheme, args.alpha)
    sigma2 = args.sigma2 if args.sigma2 is not None else sigma2_estimate(data)
    av = avar_matrix(data, pv, args.r, sigma2)
    diag = regularity_diagnostics(data, pv, args.r)
    return {
        "scheme": pv.scheme,
        "r": args.r,
        "sigma2": sigma2,
        "avar_trace": av.trace,
        "avar_matrix": av.matrix,
        "trace_amse": {t: trace_amse(data, pv, args.r, sigma2, t) for t in TARGETS},
        "diagnostics": asdict(diag),
    }, None


def _render_table(report) -> str:
    r_values = report.r_values
    rows = [["Method"] + [f"r={r}" for r in r_values]]
    for method in report.methods:
        line = [method]
        for r in r_values:
            rec = next(x for x in report.records if x.method == method and x.r == r)
            line.append("failed" if rec.failed else f"{rec.emse:.4g}({rec.emse_sd:.2g})")
        rows.append(line)
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)) for row in rows
    )


def _run_bench(args):
    # a flag is given wherever it is off its default, even at an empty value
    unread = vars((_data_flags() if args.synthetic else _synthetic_flags()).parse_args([]))
    stray = ", ".join(f"--{dest.replace('_', '-')}" for dest, value in unread.items() if getattr(args, dest) != value)
    if args.synthetic:
        if stray:
            raise ValidationError(f"--synthetic takes no data flags, got {stray}")
        data = bench_mod.generate_synthetic(bench_mod.t5_line_spec(n=args.n), args.seed)
    else:
        if stray:
            raise ValidationError(f"{stray} needs --synthetic")
        data = _load_dataset(args, need_response=True)
    methods = _split_list(args.methods)
    r_values = _number_list(args.r, "--r", int) if args.r is not None else bench_mod.default_r_grid(data.p)
    report = bench_mod.run_emse(
        data,
        methods,
        r_values,
        reps=args.reps,
        seed=args.seed,
        alpha=args.alpha,
        criterion=args.criterion,
        workers=args.workers,
    )
    results = {
        "records": [
            dict(asdict(rec), mean_time_ms=rec.mean_time_ms if args.timings else None)
            for rec in report.records
        ],
        "reps": report.reps,
        "seed": report.seed,
        "dataset_fingerprint": report.dataset_fingerprint,
    }
    table = _render_table(report) if args.table else None
    return results, table


def _run_simulate(args):
    beta0 = _number_list(args.beta0, "--beta0", float) if args.beta0 is not None else (1.0,) * args.p
    spec = bench_mod.SyntheticSpec(
        n=args.n,
        p=args.p,
        design_family=args.family,
        beta0=beta0,
        noise_sd=args.noise_sd,
        df=args.df,
    )
    data = bench_mod.generate_synthetic(spec, args.seed)
    if args.output is None:
        raise ValidationError("simulate requires --output for the CSV destination")
    # repr of a float never contains a comma, quote or newline, so joined rows
    # are the bytes csv.writer would write, without its per-cell calls. Blocks
    # of rows keep the Python floats and text of the whole file out of memory.
    try:
        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join([f"x{j + 1}" for j in range(data.p)] + ["y"]) + "\n")
            for start in range(0, data.n, _CSV_BLOCK_ROWS):
                block = slice(start, start + _CSV_BLOCK_ROWS)
                rows = np.column_stack([data.design[block], data.response[block]]).tolist()
                fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))
    except OSError as exc:
        raise ValidationError(f"cannot write {args.output}: {exc}") from exc
    return {
        "path": args.output,
        "n": data.n,
        "p": data.p,
        "family": spec.design_family,
        "fingerprint": bench_mod.dataset_fingerprint(data),
    }, None


def _run_noting_warnings(args):
    """``args.run(args)``, then each distinct message of the package's own
    warnings (UserWarning) on stderr once, as one plain line, before any
    error line. Other warnings, such as numpy's, pass on unchanged."""
    notes: dict[str, None] = {}
    with warnings.catch_warnings():
        pass_on = warnings.showwarning

        def note(message, category, *where):
            if issubclass(category, UserWarning):
                notes.setdefault(str(message))
            else:
                pass_on(message, category, *where)

        warnings.showwarning = note
        try:
            return args.run(args)
        finally:
            for message in notes:
                print(f"sublsq: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract here is exit 1
        return 0 if exc.code in (0, None) else 1

    t0 = time.perf_counter()
    try:
        results, table = _run_noting_warnings(args)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "config": _config_echo(args),
            "results": _jsonable(results),
            "timings_ms": elapsed_ms if getattr(args, "timings", False) else None,
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"

        if args.command == "simulate" or args.output is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValidationError(f"cannot write {args.output}: {exc}") from exc
    except ValidationError as exc:
        print(f"sublsq: input error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"sublsq: numerical failure: {exc}", file=sys.stderr)
        return 2

    if table is not None:
        sys.stdout.write(table + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
