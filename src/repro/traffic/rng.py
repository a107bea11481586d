"""Deterministic random-number helpers for traffic generation.

Every traffic model takes an explicit seed so simulations are reproducible;
this module centralises the creation of the underlying generators and a few
distributions the models share.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Sequence, TypeVar

T = TypeVar("T")


def make_rng(seed: Optional[int]) -> random.Random:
    """A private ``random.Random`` instance for one traffic model."""
    return random.Random(seed if seed is not None else 0xC0FFEE)


def derive_seed(base_seed: int, *components: object) -> int:
    """Deterministically derive an independent child seed.

    Hashes ``base_seed`` together with the string form of every component
    (e.g. an architecture name, a load point, a replica index) so that every
    simulation task of a parallel experiment gets its own stable stream:
    the same ``(base_seed, components)`` always yields the same child seed,
    regardless of process, platform or execution order, while any change to
    a component decorrelates the stream.
    """
    text = "\x1f".join([str(int(base_seed))] + [str(c) for c in components])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def bernoulli(rng: random.Random, probability: float) -> bool:
    """One biased coin flip."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")
    if probability == 0.0:
        return False
    if probability == 1.0:
        return True
    return rng.random() < probability

def choose_other(rng: random.Random, options: Sequence[T], excluded: T) -> T:
    """Uniformly choose an element different from ``excluded``."""
    if not options:
        raise ValueError("options must not be empty")
    candidates = [o for o in options if o != excluded]
    if not candidates:
        raise ValueError("no candidate other than the excluded element")
    return rng.choice(candidates)
