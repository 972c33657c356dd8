"""Random number generator helpers.

All stochastic components of the library (topology generators, session
placement, randomized rounding, online arrival orders) accept either a
seed or a :class:`numpy.random.Generator`.  Centralising the coercion
logic keeps experiments reproducible: the same seed always yields the
same topology, sessions, and rounding decisions.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent generators from one seed.

    Used by experiments that repeat a randomized procedure (e.g. the
    100-trial averages for the randomized-rounding and online experiments
    in the paper) so each trial has its own independent stream while the
    whole experiment stays reproducible from a single seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive child seeds from the generator itself.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(count)]


def spawn_child_sequence(seed: SeedLike, *indices: int) -> np.random.SeedSequence:
    """Walk a ``SeedSequence`` spawn tree to the child at ``indices``.

    The documented mapping (reproducibility contract): one level down,
    child ``i`` is ``SeedSequence(seed).spawn(i + 1)[i]`` — i.e. the
    spawn child with ``spawn_key == (i,)`` — and deeper levels repeat
    the rule on the child.  Unlike additive ``seed + i`` derivations,
    spawn children never collide across nearby indices or across tree
    levels, which is exactly the defect this replaces in the experiment
    runner's online-cell seeding.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    for index in indices:
        index = int(index)
        if index < 0:
            raise ValueError(f"spawn indices must be non-negative, got {index}")
        # Construct the spawn child directly (numpy defines child i as
        # entropy=parent.entropy, spawn_key=parent.spawn_key + (i,)) —
        # bit-identical to ss.spawn(index + 1)[index] without allocating
        # the index intermediate children.
        ss = np.random.SeedSequence(
            entropy=ss.entropy, spawn_key=ss.spawn_key + (index,)
        )
    return ss


def spawn_child_seed(seed: SeedLike, *indices: int) -> int:
    """Integer child seed at ``indices`` of the spawn tree (JSON-friendly).

    ``spawn_child_sequence(...)`` reduced to one ``uint64`` word
    (``generate_state(1, np.uint64)[0]``) so it can ride in a
    declarative spec — e.g. :class:`repro.api.specs.ArrivalSpec.seed` —
    while keeping the spawn-tree derivation documented and collision
    resistant.
    """
    return int(spawn_child_sequence(seed, *indices).generate_state(1, np.uint64)[0])
