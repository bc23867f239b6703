"""Deterministic random-number handling.

Every stochastic component in :mod:`repro` accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` and normalizes it through
:func:`as_generator`.  Experiments that need several independent streams (e.g.
one per device in the crowd-sourcing fleet) use :func:`spawn_generators` which
derives child generators reproducibly from a parent seed.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

#: Anything accepted where a source of randomness is required.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: RandomState = None) -> np.random.Generator:
    """Normalize ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: RandomState, n: int) -> List[np.random.Generator]:
    """Derive ``n`` statistically independent generators from ``seed``.

    The derivation is deterministic: the same ``seed`` always yields the same
    list of child generators, regardless of how many random numbers have been
    drawn from other generators.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    if isinstance(seed, np.random.Generator):
        # Spawn through the generator's bit generator seed sequence when
        # available; fall back to drawing child seeds from the generator.
        seq = getattr(seed.bit_generator, "seed_seq", None)
        if seq is not None:
            return [np.random.default_rng(child) for child in seq.spawn(n)]
        child_seeds = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in child_seeds]
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def derive_seed(seed: RandomState, *labels: Union[int, str]) -> int:
    """Derive a stable integer seed from ``seed`` and a sequence of labels.

    Used to give named sub-components (e.g. ``"runtime-forest"``) their own
    deterministic stream without threading generator objects everywhere.
    """
    base = 0 if seed is None else seed
    if isinstance(base, np.random.Generator):  # pragma: no cover - convenience path
        base = int(base.integers(0, 2**31 - 1))
    if isinstance(base, np.random.SeedSequence):
        base = int(base.generate_state(1)[0])
    acc = np.uint64(int(base) & 0xFFFFFFFFFFFFFFFF)
    for label in labels:
        if isinstance(label, str):
            h = np.uint64(2166136261)
            for ch in label.encode("utf8"):
                h = np.uint64((int(h) ^ ch) * 16777619 & 0xFFFFFFFFFFFFFFFF)
            value = h
        else:
            value = np.uint64(int(label) & 0xFFFFFFFFFFFFFFFF)
        acc = np.uint64((int(acc) * 6364136223846793005 + int(value) + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF)
    return int(acc % np.uint64(2**31 - 1))


def check_probability(p: float, name: str = "probability") -> float:
    """Validate that ``p`` is a probability in ``[0, 1]`` and return it."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {p}")
    return float(p)


def choice_without_replacement(
    rng: np.random.Generator, n: int, k: int
) -> np.ndarray:
    """Sample ``k`` distinct indices from ``range(n)`` (``k`` capped at ``n``)."""
    k = min(k, n)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    return rng.choice(n, size=k, replace=False)


__all__ = [
    "RandomState",
    "as_generator",
    "spawn_generators",
    "derive_seed",
    "check_probability",
    "choice_without_replacement",
]
