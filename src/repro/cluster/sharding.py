"""Deterministic canonical-key sharding.

A :attr:`~repro.api.specs.ScenarioSpec.canonical_key` is a SHA-256 hex
digest — already uniformly distributed — so shard assignment is a plain
modulus over its leading bits.  The assignment is stable across
processes, hosts and Python versions (no ``hash()`` randomisation), which
is what lets independent workers agree on ownership with no coordinator.
"""

from __future__ import annotations

from repro.util.errors import ConfigurationError

# 60 bits of the digest: plenty for uniformity, still a cheap int.
_SHARD_HEX_DIGITS = 15


def shard_of(canonical_key: str, num_shards: int) -> int:
    """The shard (``0 <= shard < num_shards``) owning a canonical key."""
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    try:
        prefix = int(canonical_key[:_SHARD_HEX_DIGITS], 16)
    except ValueError:
        raise ConfigurationError(
            f"canonical key must be a hex digest, got {canonical_key!r}"
        ) from None
    return prefix % num_shards

