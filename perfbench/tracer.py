"""Span tracing of the package's public functions, installed from outside.

``Tracer.installed()`` replaces each public function listed in ``LAYERS``
with a timing wrapper in every ``sublsq`` module namespace that binds it
(``from .core import thin_svd`` makes a separate name in each importing
module), wraps ``Dataset.take_rows`` on the class, and restores every
original on exit. Names the package no longer defines are skipped and left
out of ``wrapped``, so the benchmark keeps working when a function is
deleted; its counts then read 0.

A layer is a module. Per function the tracer keeps the call count and the
inclusive time; per layer it keeps the self time (each span's duration
minus the durations of its direct child spans) and the number of
exceptions that left the layer. ``core.thin_svd`` also counts the design
rows it factorized. The tracer is single-threaded: the benchmark calls
``run_emse`` with one worker.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = {
    "core": ("thin_svd", "ols_fit", "weighted_ls_fit", "Dataset.take_rows"),
    "probs": ("compute_probabilities",),
    "sampler": ("alias_table", "draw", "subsample_estimate"),
    "asymptotics": ("sigma2_estimate", "avar_matrix", "trace_amse", "regularity_diagnostics"),
    "optdesign": ("iboss_select", "greedy_select", "exchange_improve"),
    "volume": ("standard_volume_distribution", "volume_sample"),
    "bench": ("run_emse",),
    "cli": ("parse_csv", "main"),
}

MODULES = ("sublsq",) + tuple(f"sublsq.{layer}" for layer in LAYERS)

# Functions whose first argument's leading dimension is counted as rows.
ROW_COUNTED = {"core.thin_svd"}


_FIELDS = ("calls", "seconds", "rows", "self_s", "errors", "extra")


def metric_key(layer: str, name: str) -> str:
    """Metric prefix of a listed function: ``core.take_rows`` for ``Dataset.take_rows``."""
    return f"{layer}.{name.split('.')[-1]}"


class Tracer:
    """Aggregated spans of the wrapped functions (see module docstring)."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.rows: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        # Metrics recorded by the benchmark itself rather than by a wrapper,
        # keyed by their per-layer metric name (e.g. "cli.json_bytes").
        self.extra: defaultdict = defaultdict(float)
        self.wrapped: list[str] = []
        self._stack: list[list] = []  # [layer, time covered by child spans]

    def _wrapper(self, layer: str, key: str, fn):
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if len(self._stack) < 2 or self._stack[-2][0] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.calls[key] += 1
                self.seconds[key] += dt
                self.self_s[layer] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
                if key in ROW_COUNTED:
                    self.rows[key] += args[0].shape[0]

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        """Wrap every listed function while the block runs, then restore."""
        modules = [importlib.import_module(m) for m in MODULES]
        restore: list[tuple[object, str, object]] = []
        wrapped = []
        try:
            for layer, names in LAYERS.items():
                home = importlib.import_module(f"sublsq.{layer}")
                for name in names:
                    key = metric_key(layer, name)
                    if "." in name:
                        cls_name, meth = name.split(".")
                        cls = getattr(home, cls_name, None)
                        original = getattr(cls, meth, None) if cls is not None else None
                        if original is None:
                            continue
                        restore.append((cls, meth, original))
                        setattr(cls, meth, self._wrapper(layer, key, original))
                        wrapped.append(key)
                        continue
                    original = getattr(home, name, None)
                    if original is None:
                        continue
                    wrapper = self._wrapper(layer, key, original)
                    for mod in modules:
                        if getattr(mod, name, None) is original:
                            restore.append((mod, name, original))
                            setattr(mod, name, wrapper)
                    wrapped.append(key)
            self.wrapped = wrapped
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

    def merge(self, other: dict) -> None:
        """Add an exported trace (``export()`` of another process) to this one."""
        for field in _FIELDS:
            mine = getattr(self, field)
            for key, value in other[field].items():
                mine[key] += value

    def export(self) -> dict:
        out = {field: dict(getattr(self, field)) for field in _FIELDS}
        out["wrapped"] = list(self.wrapped)
        return out
