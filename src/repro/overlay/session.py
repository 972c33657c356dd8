"""Overlay multicast sessions.

A session ``S_i`` in the paper is a set of overlay vertices (end systems)
with one source and ``|S_i| - 1`` receivers, and a demand ``dem(i)``.
The commodity associated with a session is the data stream disseminated
from the source to every receiver; a session's *rate* multiplied by its
receiver count is its contribution to the overall throughput objective of
problem M1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.topology.network import PhysicalNetwork, node_id
from repro.util.errors import InvalidSessionError
from repro.util.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class Session:
    """An overlay multicast session.

    Attributes
    ----------
    members:
        Overlay vertices participating in the session (source included).
        Order is preserved; the first member is the source by convention
        unless ``source`` says otherwise.
    demand:
        Desired rate ``dem(i)`` used by the concurrent-flow objective.
    source:
        The data source.  Defaults to the first member.  The flow model is
        agnostic to which member is the source (any spanning tree
        disseminates from any root), but examples and reports use it.
    name:
        Optional human-readable label used in reports.
    """

    members: Tuple[int, ...]
    demand: float = 1.0
    source: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        members = tuple(node_id(m, InvalidSessionError) for m in self.members)
        object.__setattr__(self, "members", members)
        if len(members) < 2:
            raise InvalidSessionError(
                f"a session needs at least 2 members, got {len(members)}"
            )
        if len(set(members)) != len(members):
            raise InvalidSessionError(f"duplicate members in session: {members}")
        if not 0 < self.demand < math.inf:
            raise InvalidSessionError(
                f"demand must be positive and finite, got {self.demand}"
            )
        src = (
            members[0]
            if self.source is None
            else node_id(self.source, InvalidSessionError)
        )
        if src not in members:
            raise InvalidSessionError(
                f"source {src} is not a member of the session {members}"
            )
        object.__setattr__(self, "source", src)

    @property
    def size(self) -> int:
        """Number of session members ``|S_i|``."""
        return len(self.members)

    @property
    def num_receivers(self) -> int:
        """Number of receivers ``|S_i| - 1``."""
        return len(self.members) - 1

    @property
    def receivers(self) -> Tuple[int, ...]:
        """All members except the source."""
        return tuple(m for m in self.members if m != self.source)

    def validate_against(self, network: PhysicalNetwork) -> None:
        """Check that every member is a vertex of ``network``."""
        for m in self.members:
            if not (0 <= m < network.num_nodes):
                raise InvalidSessionError(
                    f"session member {m} is not a node of the network "
                    f"(num_nodes={network.num_nodes})"
                )

    def replicate(self, copies: int, demand: Optional[float] = None) -> List["Session"]:
        """Return ``copies`` sessions with the same member set.

        The online-algorithm experiments of the paper replicate each
        session ``n - 1`` times so that each copy is routed on a single
        tree; this helper produces those copies with distinguishable
        names.
        """
        if copies < 1:
            raise InvalidSessionError(f"copies must be >= 1, got {copies}")
        d = self.demand if demand is None else demand
        base = self.name or "session"
        return [
            Session(self.members, demand=d, source=self.source, name=f"{base}#{i}")
            for i in range(copies)
        ]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "session"
        return f"{label}(|S|={self.size}, dem={self.demand})"


def random_session(
    network: PhysicalNetwork,
    size: int,
    demand: float = 1.0,
    seed: SeedLike = None,
    name: str = "",
    spread_across_levels: bool = True,
) -> Session:
    """Draw a random session of ``size`` members from ``network``.

    When the network carries hierarchy labels (two-level topologies) and
    ``spread_across_levels`` is true, members are spread across ASes in a
    round-robin fashion, matching the paper's assumption that session
    members are distributed across different ASes.
    """
    if size < 2:
        raise InvalidSessionError(f"session size must be >= 2, got {size}")
    if size > network.num_nodes:
        raise InvalidSessionError(
            f"session size {size} exceeds the number of nodes {network.num_nodes}"
        )
    rng = ensure_rng(seed)
    levels = network.node_levels
    if spread_across_levels and levels is not None and len(np.unique(levels)) > 1:
        members: List[int] = []
        unique_levels = [int(lvl) for lvl in rng.permutation(np.unique(levels))]
        pools = {
            lvl: list(rng.permutation(np.flatnonzero(levels == lvl))) for lvl in unique_levels
        }
        level_cycle = 0
        while len(members) < size:
            lvl = unique_levels[level_cycle % len(unique_levels)]
            if pools[lvl]:
                members.append(int(pools[lvl].pop()))
            level_cycle += 1
            if all(not p for p in pools.values()):
                break
        if len(members) < size:
            raise InvalidSessionError(
                f"could not draw {size} distinct members from the network"
            )
    else:
        members = [int(m) for m in rng.choice(network.num_nodes, size=size, replace=False)]
    return Session(tuple(members), demand=demand, name=name)
