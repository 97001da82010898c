import numpy as np
import pytest

from sublsq import ValidationError
from sublsq.rng import derive_rng, seed_entropy

KEYS = [
    (0,),
    (7,),
    (2**64 + 5,),
    (2**200 - 1, 3),
    ("bootstrap",),
    (1, "method", "BLEV", 4, 20),
    ((1, ("nested", 2)), "x", [3, (4, "y")]),
    (np.int64(9), np.uint32(11)),
]


@pytest.mark.parametrize("keys", KEYS)
def test_derive_rng_is_the_default_rng_stream(keys):
    ours = derive_rng(*keys)
    reference = np.random.default_rng(seed_entropy(*keys))
    assert isinstance(ours.bit_generator, np.random.PCG64)
    assert np.array_equal(ours.integers(0, 2**62, size=64), reference.integers(0, 2**62, size=64))
    assert np.array_equal(ours.random(64), reference.random(64))
    assert np.array_equal(ours.standard_normal(64), reference.standard_normal(64))


def test_nested_keys_flatten_to_the_same_stream():
    assert seed_entropy(1, (2, ("a", 3))) == seed_entropy(1, 2, "a", 3)
    assert np.array_equal(derive_rng(1, (2, ("a", 3))).random(8), derive_rng(1, 2, "a", 3).random(8))


def test_distinct_keys_give_distinct_streams():
    firsts = {derive_rng(*keys).integers(0, 2**62) for keys in KEYS}
    assert len(firsts) == len(KEYS)


@pytest.mark.parametrize("bad", [-1, 1.5, None])
def test_bad_seed_components_are_rejected(bad):
    with pytest.raises(ValidationError):
        derive_rng(1, bad)
