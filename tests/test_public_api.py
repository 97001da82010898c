"""Only ``SubLsqError`` leaves the public API.

Every callable in ``sublsq.__all__`` gets one valid call. Each argument of it
is then replaced, one at a time, by each value of a fixed pool of wrong
values, and the call must either return or raise from the ``SubLsqError``
hierarchy: never numpy's ``ValueError``, an ``AttributeError`` or a
``TypeError``.
"""

import math

import numpy as np
import pytest

import sublsq
from sublsq import SubLsqError

from conftest import gaussian_dataset

POOL = {
    "None": None,
    "str": "x",
    "nan": math.nan,
    "ndarray": np.ones((3, 3)),
    "object": object(),
    "negative": -4,
    "fraction": 1.5,
    "ragged": [[0], [0, 1]],
}


def _calls():
    """Name -> (callable, its arguments): one valid call per exported callable,
    on a 12 x 2 design, every parameter given."""
    data = gaussian_dataset(0, 12, 2)
    probs = sublsq.compute_probabilities(data, "BLEV")
    drawn = sublsq.draw(probs, 4, 0)
    selection = sublsq.greedy_select(data, 4, "D")
    record = sublsq.BenchRecord("RAND", 4, 1.0, 0.1, 1.0, 2, 0, False)
    calls = {
        "AsymptoticVariance": (np.eye(2), 1.0, 4),
        "BenchRecord": ("RAND", 4, 1.0, 0.1, 1.0, 2, 0, False),
        "BenchmarkReport": ((record,), 2, 0, "0123abcd", (4,), ("RAND",)),
        "Dataset": (data.design, data.response),
        "EstimateResult": (np.zeros(2), 2, 0.0),
        "ProbabilityVector": (np.full(12, 1 / 12), "RAND", None),
        "RegularityDiagnostics": (1.0, 2.0, 0.01, 2.0),
        "SubsampleDraw": (np.arange(4), np.full(4, 1 / 12), 0),
        "SubsetDistribution": (np.array([[0, 1], [0, 2]]), np.array([0.5, 0.5])),
        "SubsetSelection": (np.arange(4), "D", 1.0),
        "SyntheticSpec": (20, 2, "student_t", (1.0, 1.0), 1.0, 5.0),
        "avar_matrix": (data, probs, 4, 1.0),
        "compute_probabilities": (data, "SLEV", 0.5),
        "criterion_value": (data, np.arange(4), "D"),
        "default_r_grid": (2,),
        "draw": (probs, 4, 0),
        "exchange_improve": (data, selection),
        "t5_line_spec": (20, 1.0),
        "generate_synthetic": (sublsq.t5_line_spec(20), 0),
        "greedy_select": (data, 4, "D"),
        "iboss_select": (data, 4),
        "leverage_scores": (data,),
        "leveraged_volume_distribution": (data, 3),
        "ols_fit": (data,),
        "regularity_diagnostics": (data, probs, 4),
        "run_emse": (data, ("RAND", "BLEV"), (4,), 2, 0, 0.9, "D", 1),
        "sigma2_estimate": (data,),
        "standard_volume_distribution": (data, 3),
        "subsample_estimate": (data, drawn, "weighted"),
        "trace_amse": (data, probs, 4, 1.0, "beta"),
        "volume_sample": (data, 3, "standard", 0, 2),
        "weighted_ls_fit": (data, np.ones(12)),
    }
    errors = [name for name in sublsq.__all__ if isinstance(getattr(sublsq, name), type)
              and issubclass(getattr(sublsq, name), BaseException)]
    calls.update((name, ("message",)) for name in errors)
    return {name: (getattr(sublsq, name), args) for name, args in calls.items()}


CALLS = _calls()


def test_the_table_holds_every_exported_callable():
    assert set(CALLS) == {name for name in sublsq.__all__ if callable(getattr(sublsq, name))}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_each_valid_call_returns(name):
    function, args = CALLS[name]
    function(*args)


@pytest.mark.parametrize("value", list(POOL.values()), ids=list(POOL))
@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_wrong_argument_returns_or_raises_a_package_error(name, value):
    function, args = CALLS[name]
    leaks = []
    for slot in range(len(args)):
        try:
            function(*args[:slot], value, *args[slot + 1 :])
        except SubLsqError:
            pass
        except Exception as exc:  # any other type is the failure under test
            leaks.append(f"argument {slot}: {type(exc).__name__}: {exc}")
    assert not leaks, leaks
