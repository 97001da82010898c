"""Deterministic random-number streams.

All randomness in the package flows through ``derive_rng``: every stream is
keyed by an explicit tuple of integers and strings, so a draw is a pure
function of its key and never depends on call order, thread scheduling, or
global state. Strings are folded to integers with CRC-32, which is stable
across platforms and Python versions (unlike ``hash``).
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ValidationError

SeedLike = int | tuple | list

__all__ = ["SeedLike", "derive_rng", "seed_entropy"]


def seed_entropy(*keys) -> tuple[int, ...]:
    """Flatten seed keys into a tuple of nonnegative ints for SeedSequence."""
    out: list[int] = []
    for k in keys:
        if isinstance(k, (tuple, list)):
            out.extend(seed_entropy(*k))
        elif isinstance(k, str):
            out.append(zlib.crc32(k.encode("utf-8")))
        elif isinstance(k, (int, np.integer)):
            if k < 0:
                raise ValidationError(f"seed components must be nonnegative, got {k}")
            out.append(int(k))
        else:
            raise ValidationError(f"unsupported seed component {k!r}")
    return tuple(out)


def derive_rng(*keys) -> np.random.Generator:
    """Build a PCG64 generator keyed by the given components.

    Identical keys give bit-identical streams; distinct keys give streams
    that are independent for practical purposes (SeedSequence hashing).
    The stream is ``np.random.default_rng``'s for the same entropy; building
    the generator directly skips that function's dispatch on its argument.
    """
    return np.random.Generator(np.random.PCG64(seed_entropy(*keys)))
