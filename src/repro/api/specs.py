"""Declarative, JSON-round-trippable problem specifications.

A :class:`ScenarioSpec` names a complete problem — topology, workload,
routing model, solver and solver parameters — without constructing any of
them.  Specs are plain frozen dataclasses built from primitives, so they

* serialize to JSON (``to_jsonable`` / ``to_json``) and come back
  (``from_jsonable`` / ``from_json``) bit-identically,
* have a :attr:`ScenarioSpec.canonical_key` — a stable digest suitable
  for caching, queueing and deduplication, and
* can be shipped across process (or machine) boundaries and rebuilt into
  live objects through the :mod:`repro.api.registry`.

Construction is deterministic: the same spec always builds the same
network, the same sessions and the same routing model, which is what
makes the ``canonical_key`` a cache key rather than just a label.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.overlay.session import Session, random_session
from repro.topology.network import PhysicalNetwork, node_id
from repro.util.errors import ConfigurationError, InvalidSessionError
from repro.util.rng import ensure_rng
from repro.util.serialization import canonical_json as _canonical_json
from repro.util.serialization import from_jsonable, to_jsonable


class _SpecBase:
    """Shared JSON plumbing for the spec dataclasses."""

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-JSON representation (dicts/lists/primitives only)."""
        return to_jsonable(self)

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON string representation."""
        if indent is None:
            return _canonical_json(self.to_jsonable())
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=indent)

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]):
        """Rebuild a spec from :meth:`to_jsonable` output."""
        return from_jsonable(cls, data)

    @classmethod
    def from_json(cls, text: str):
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_jsonable(json.loads(text))

    @property
    def canonical_key(self) -> str:
        """Stable content digest of this spec (cache/queue/dedupe key).

        Memoized on first access (specs are frozen): the store, queue
        and batch-dedup hot paths all re-read it many times per spec.
        The cache slot is not a dataclass field, so it never enters
        serialization or equality.
        """
        cached = self.__dict__.get("_canonical_key_cache")
        if cached is None:
            cached = hashlib.sha256(
                _canonical_json(self.to_jsonable()).encode("utf-8")
            ).hexdigest()
            object.__setattr__(self, "_canonical_key_cache", cached)
        return cached

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash trips over dict-typed
        # fields (params/solver_params/demand_distribution); hash the
        # content digest instead so specs work in sets and as dict keys.
        # Consistent with the field-based __eq__: equal specs serialize
        # identically, hence share a canonical key.
        return hash(self.canonical_key)


@dataclass(frozen=True)
class TopologySpec(_SpecBase):
    """A named topology generator plus its parameters and seed.

    Attributes
    ----------
    generator:
        Registry name of the generator (``"paper_flat"``, ``"waxman"``,
        ``"paper_two_level"``, ``"grid"``, ...).
    params:
        Keyword arguments forwarded to the generator.
    seed:
        Seed forwarded as ``seed=`` when not ``None``.  Deterministic
        generators (grid/ring/complete) take no seed; leave it ``None``.
    """

    generator: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.generator:
            raise ConfigurationError("topology generator name must be non-empty")
        object.__setattr__(self, "params", dict(self.params))

    def build(self) -> PhysicalNetwork:
        """Construct the physical network this spec describes."""
        from repro.api.registry import default_registry

        generator = default_registry().topology(self.generator)
        kwargs = dict(self.params)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return generator(**kwargs)


@dataclass(frozen=True)
class SessionSpec(_SpecBase):
    """An explicitly-placed overlay session (mirrors :class:`Session`)."""

    members: Tuple[int, ...]
    demand: float = 1.0
    source: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        members = tuple(node_id(m, InvalidSessionError) for m in self.members)
        object.__setattr__(self, "members", members)
        if self.source is not None:
            object.__setattr__(
                self, "source", node_id(self.source, InvalidSessionError)
            )

    def build(self) -> Session:
        """Construct the live :class:`Session`."""
        return Session(
            self.members, demand=self.demand, source=self.source, name=self.name
        )

    @classmethod
    def of(cls, session: Session) -> "SessionSpec":
        """The spec describing an existing session."""
        return cls(
            members=session.members,
            demand=session.demand,
            source=session.source,
            name=session.name,
        )


def _integer(value: Any, name: str) -> int:
    """``value`` as an integer, or a :class:`ConfigurationError` naming it.

    Python and NumPy integers pass (through ``operator.index``); a float
    raises, even an integral one, where ``int()`` would quietly truncate
    2.7 to 2 and give the spec the integer spec's canonical key.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


def _positive_finite(value: Any) -> bool:
    """Whether ``value`` is a real number (not a bool) in ``(0, inf)``."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


@dataclass(frozen=True)
class ArrivalSpec(_SpecBase):
    """The online arrival process: how sessions become an arrival sequence.

    The online algorithm (paper Table VI) routes sessions one at a time
    in arrival order, so the *order* is part of the problem statement.
    Before this spec existed the experiment harness built orderings
    procedurally, which kept online scenarios out of the report store;
    an ``ArrivalSpec`` on a :class:`ScenarioSpec` makes the run fully
    spec-determined — replication, demand override and ordering included
    — so online cells cache, queue and re-run like every offline cell.

    Applied to a workload's session list as:

    1. every session is replicated ``replication`` times (the paper's
       tree-limit experiments route each copy on a single tree), each
       copy carrying ``demand`` when set (else the session's own demand);
    2. the flat replica list (session-major: all copies of session 1,
       then session 2, ...) is permuted by ``order`` when given,
       else by a seeded ``numpy`` permutation when ``seed`` is set,
       else left in place.

    Attributes
    ----------
    replication:
        Copies per logical session (>= 1).  Copies are named
        ``<name>#<i>`` (see :meth:`Session.replicate`) and grouped back
        per member set by the online solver's ``group_by_members``.
    seed:
        Permutation seed for the arrival order.  ``None`` with an empty
        ``order`` means sessions arrive in replication order.
    demand:
        Per-copy demand override; ``None`` keeps each session's demand.
    order:
        Explicit-order escape hatch: a permutation of
        ``range(num_sessions * replication)`` listing replica indices in
        arrival order.  Mutually exclusive with ``seed``.  Two specs
        differing only in ``order`` have different canonical keys — the
        ordering *is* part of the problem.
    """

    replication: int = 1
    seed: Optional[int] = None
    demand: Optional[float] = None
    order: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        replication = _integer(self.replication, "replication")
        if replication < 1:
            raise ConfigurationError(f"replication must be >= 1, got {replication}")
        object.__setattr__(self, "replication", replication)
        object.__setattr__(
            self, "order", tuple(_integer(i, "order entry") for i in self.order)
        )
        if self.order and self.seed is not None:
            raise ConfigurationError(
                "seed and order are mutually exclusive: an explicit order "
                "leaves nothing for the permutation seed to decide"
            )
        if self.order:
            if min(self.order) < 0:
                raise ConfigurationError("order entries must be non-negative")
            if len(set(self.order)) != len(self.order):
                raise ConfigurationError("order must not repeat an index")
        if self.demand is not None and not _positive_finite(self.demand):
            raise ConfigurationError(
                f"demand override must be a positive finite number, got {self.demand!r}"
            )

    def apply(self, sessions: List[Session]) -> List[Session]:
        """Turn a workload's session list into the arrival sequence."""
        arrivals: List[Session] = []
        for session in sessions:
            arrivals.extend(session.replicate(self.replication, demand=self.demand))
        if self.order:
            if sorted(self.order) != list(range(len(arrivals))):
                raise ConfigurationError(
                    f"order must be a permutation of range({len(arrivals)}) "
                    f"({len(sessions)} sessions x {self.replication} copies), "
                    f"got {len(self.order)} entries"
                )
            return [arrivals[i] for i in self.order]
        if self.seed is not None:
            permutation = ensure_rng(self.seed).permutation(len(arrivals))
            return [arrivals[i] for i in permutation]
        return arrivals


#: Demand-distribution kinds and their required parameters.
_DEMAND_DISTRIBUTIONS: Dict[str, Tuple[str, ...]] = {
    "constant": ("value",),
    "uniform": ("low", "high"),
    "exponential": ("mean",),
}


@dataclass(frozen=True)
class WorkloadSpec(_SpecBase):
    """The sessions placed on a topology.

    Two mutually exclusive modes:

    * **random** — ``sizes`` lists the member count of each session;
      members are drawn from the topology with ``seed`` (one shared RNG
      stream, so the draw order is part of the contract), demands are
      uniform, and sessions are named ``session-1..n``.  This reproduces
      the paper experiments' session construction exactly.
    * **explicit** — ``sessions`` lists fully specified
      :class:`SessionSpec` entries (members, demand, source, name).

    ``demand_distribution`` (random mode only) replaces the uniform
    ``demand`` with one per-session draw from a named distribution::

        {"kind": "uniform", "low": 50.0, "high": 150.0}
        {"kind": "exponential", "mean": 100.0}
        {"kind": "constant", "value": 100.0}

    Demands are drawn from the continuation of the member-placement RNG
    stream *after* all members are placed, so a spec with a distribution
    places exactly the same members as the same spec without one.  The
    default (``None``) is omitted from the JSON form, keeping the
    ``canonical_key`` of every pre-existing spec unchanged.
    """

    sizes: Tuple[int, ...] = ()
    demand: float = 1.0
    seed: Optional[int] = None
    spread_across_levels: bool = True
    sessions: Tuple[SessionSpec, ...] = ()
    demand_distribution: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sizes", tuple(_integer(size, "sizes entry") for size in self.sizes)
        )
        object.__setattr__(self, "sessions", tuple(self.sessions))
        if bool(self.sizes) == bool(self.sessions):
            raise ConfigurationError(
                "exactly one of sizes (random mode) / sessions (explicit mode) "
                "must be non-empty"
            )
        # Checked here rather than when sessions are built, so a bad spec
        # is refused before it is keyed, queued and failed by every worker.
        if not _positive_finite(self.demand):
            raise ConfigurationError(
                f"demand must be a positive finite number, got {self.demand!r}"
            )
        if self.demand_distribution is not None:
            if self.sessions:
                raise ConfigurationError(
                    "demand_distribution applies to random mode only; explicit "
                    "sessions carry their own demands"
                )
            if self.demand != 1.0:
                # The flat demand is unused under a distribution, but it
                # would still enter the canonical key — identical
                # workloads must not get distinct digests.
                raise ConfigurationError(
                    "demand is unused when demand_distribution is set; "
                    "leave it at its default"
                )
            dist = dict(self.demand_distribution)
            kind = dist.get("kind")
            if kind not in _DEMAND_DISTRIBUTIONS:
                raise ConfigurationError(
                    f"unknown demand distribution kind {kind!r}; "
                    f"use one of {sorted(_DEMAND_DISTRIBUTIONS)}"
                )
            expected = {"kind", *_DEMAND_DISTRIBUTIONS[kind]}
            if set(dist) != expected:
                raise ConfigurationError(
                    f"demand distribution {kind!r} takes exactly the fields "
                    f"{sorted(expected)}, got {sorted(dist)}"
                )
            # Validate values here, not at build() time: a bad spec must
            # fail at construction, before it is serialized, queued and
            # dead-lettered by every worker that touches it.
            for field_name in _DEMAND_DISTRIBUTIONS[kind]:
                value = dist[field_name]
                if (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not math.isfinite(value)
                ):
                    # Non-finite values would also poison the canonical
                    # JSON encoding (Infinity/NaN are not standard JSON).
                    raise ConfigurationError(
                        f"demand distribution field {field_name!r} must be a "
                        f"finite number, got {value!r}"
                    )
                dist[field_name] = float(value)
            if kind == "uniform" and not 0 < dist["low"] <= dist["high"]:
                raise ConfigurationError(
                    f"uniform demand distribution needs 0 < low <= high "
                    f"(demands must be positive), got [{dist['low']}, {dist['high']}]"
                )
            if kind == "exponential" and dist["mean"] <= 0:
                raise ConfigurationError(
                    f"exponential demand distribution needs a positive mean, "
                    f"got {dist['mean']}"
                )
            if kind == "constant" and dist["value"] <= 0:
                raise ConfigurationError(
                    f"constant demand distribution needs a positive value, "
                    f"got {dist['value']}"
                )
            object.__setattr__(self, "demand_distribution", dist)

    def __jsonable__(self) -> Dict[str, Any]:
        """JSON shape hook: the default ``demand_distribution`` is
        omitted so pre-existing specs — standalone *or* nested inside a
        :class:`ScenarioSpec` — keep their canonical keys."""
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if self.demand_distribution is None:
            del data["demand_distribution"]
        return data

    def _draw_demands(self, rng, count: int) -> List[float]:
        dist = self.demand_distribution or {}
        kind = dist["kind"]  # values were validated in __post_init__
        if kind == "constant":
            return [dist["value"]] * count
        if kind == "uniform":
            return [float(d) for d in rng.uniform(dist["low"], dist["high"], size=count)]
        return [float(d) for d in rng.exponential(dist["mean"], size=count)]

    def build(self, network: PhysicalNetwork) -> List[Session]:
        """Construct the live sessions over ``network``."""
        if self.sessions:
            return [s.build() for s in self.sessions]
        rng = ensure_rng(self.seed)
        sessions = [
            random_session(
                network,
                size,
                demand=self.demand,
                seed=rng,
                name=f"session-{index + 1}",
                spread_across_levels=self.spread_across_levels,
            )
            for index, size in enumerate(self.sizes)
        ]
        if self.demand_distribution is not None:
            demands = self._draw_demands(rng, len(sessions))
            sessions = [
                Session(
                    session.members,
                    demand=demand,
                    source=session.source,
                    name=session.name,
                )
                for session, demand in zip(sessions, demands)
            ]
        return sessions


@dataclass(frozen=True)
class ScenarioSpec(_SpecBase):
    """A complete, serializable problem statement.

    ``solve(spec)`` builds the topology, workload and routing model named
    here, dispatches to the registered solver, and returns a
    :class:`repro.api.service.SolveReport`.

    Attributes
    ----------
    topology:
        What network to build.
    workload:
        What sessions to place on it.
    routing:
        Registry name of the routing model (``"ip"`` or ``"dynamic"``),
        in any case: it is stored lower-cased, so specs that differ
        only in its case share a canonical key.
    solver:
        Registry name of the solver (``"max_flow"``,
        ``"max_concurrent_flow"``, ``"online"``, ``"randomized_rounding"``,
        or any plugin-registered name).
    solver_params:
        Keyword arguments forwarded to the solver function.
    arrivals:
        Optional :class:`ArrivalSpec` turning the workload's sessions
        into an explicit arrival sequence before the solver runs (the
        online algorithm's input).  ``None`` — the default, omitted from
        the JSON form so pre-existing specs keep their canonical keys —
        passes the workload's sessions through unchanged.
    """

    topology: TopologySpec
    workload: WorkloadSpec
    routing: str = "ip"
    solver: str = "max_flow"
    solver_params: Dict[str, Any] = field(default_factory=dict)
    arrivals: Optional[ArrivalSpec] = None

    def __post_init__(self) -> None:
        if not self.routing:
            raise ConfigurationError("routing name must be non-empty")
        object.__setattr__(self, "routing", self.routing.lower())
        if not self.solver:
            raise ConfigurationError("solver name must be non-empty")
        object.__setattr__(self, "solver_params", dict(self.solver_params))

    def __jsonable__(self) -> Dict[str, Any]:
        """JSON shape hook: the default ``arrivals`` is omitted so every
        pre-existing (arrival-free) scenario keeps its canonical key."""
        data = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        if self.arrivals is None:
            del data["arrivals"]
        return data

    def with_solver(self, solver: str, **solver_params: Any) -> "ScenarioSpec":
        """Copy of this scenario with a different solver (shared instance)."""
        return dataclasses.replace(
            self, solver=solver, solver_params=dict(solver_params)
        )

    @property
    def instance_key(self) -> str:
        """Digest of the problem *instance* (topology+workload+routing only).

        Two scenarios that run different solvers over the same instance
        share this key; the batch service uses it to share built networks
        and routing models between them.  ``arrivals`` is deliberately
        excluded: arrival ordering is applied on top of the cached
        instance at solve time, so a sweep over orderings (or tree
        limits) rebuilds nothing.
        """
        data = {
            "topology": self.topology.to_jsonable(),
            "workload": self.workload.to_jsonable(),
            "routing": self.routing,
        }
        return hashlib.sha256(_canonical_json(data).encode("utf-8")).hexdigest()


# frozen dataclasses generate their own __hash__, shadowing the
# digest-based one on _SpecBase — restore it explicitly.
for _spec_cls in (TopologySpec, SessionSpec, WorkloadSpec, ArrivalSpec, ScenarioSpec):
    _spec_cls.__hash__ = _SpecBase.__hash__  # type: ignore[method-assign]
del _spec_cls


def load_scenario_specs(path: Union[str, Path]) -> List[ScenarioSpec]:
    """Load a spec file: one scenario object, or a list of them (a batch).

    The shared loader behind every CLI that consumes spec files
    (``python -m repro.api run``, ``python -m repro.cluster
    submit``/``drain``), so they accept and reject files identically.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ConfigurationError(
            f"{path}: a spec file must hold a scenario object or a list of them"
        )
    return [ScenarioSpec.from_jsonable(item) for item in data]
