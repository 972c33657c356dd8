"""Deterministic fault injection at named points.

The crash-safety story of the persistent layers — atomic renames in the
store, claim/lease/complete transitions in the work queue, append-only
relay channels in the serve layer — is proven by *injecting* failures at
the exact instruction boundaries where a process can die, not by
asserting it from the code's shape.  This module is the injection
mechanism; the seams themselves live in the hardened modules
(:mod:`repro.store.report_store`, :mod:`repro.cluster.queue`,
:mod:`repro.serve.relay`, ...) as calls to :func:`point` and
:func:`mangle` under stable dotted names (``store.put.rename``,
``queue.claim.lease``, ``relay.append``).

Design constraints, in order:

* **Zero overhead when disabled.**  :func:`point` is one module-global
  load plus an ``is None`` test when no plan is installed — safe to
  leave in hot I/O paths permanently.  The bench-smoke suite pins this.
* **Deterministic.**  A rule fires on exact hit counts only (``@N`` =
  the Nth time the point is reached, 1-based), so a test can say "crash
  the *second* store put" and get the same failure every run.
* **Spec-driven.**  Plans come from the ``REPRO_FAULTS`` environment
  variable (read at import, so subprocess workers inherit faults from
  their parent's environment) or :func:`configure_faults`.

Grammar — comma-separated rules, each ``point:action`` plus optional
modifiers (in this order)::

    <point>:<action>[=PARAM][@AT][xTIMES|x*]

    store.put.rename:crash@2        crash the process at the 2nd hit
    store.get.read:raisex2          raise InjectedFault on hits 1 and 2
    queue.claim.rename:delay=0.05x* sleep 50ms at every hit
    store.put.write:truncate=0.5    halve the bytes written (once)

Actions:

``raise``
    Raise :class:`InjectedFault` (an ``OSError``) — the transient-error
    simulation retry policies must absorb.
``crash``
    ``os._exit(CRASH_EXIT_CODE)`` — an un-catchable process death, the
    kill-at-this-exact-point primitive.  Only meaningful in expendable
    subprocesses (workers, spawned servers).
``delay``
    ``time.sleep(PARAM)`` — races and lease-expiry windows.
``truncate``
    Only acts at :func:`mangle` seams: the write's payload is cut to
    ``int(len * PARAM)`` bytes (default 0.5) — the torn/partial-write
    simulation.  Ignored by plain :func:`point` calls.
"""

from __future__ import annotations

import os
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.obs import metrics as obs_metrics
from repro.util.errors import ConfigurationError

FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Exit status of a ``crash`` action — distinctive, so tests can tell an
#: injected death from an ordinary worker failure.
CRASH_EXIT_CODE = 70

_ACTIONS = ("raise", "crash", "delay", "truncate")

_RULE_RE = re.compile(
    r"^(?P<action>raise|crash|delay|truncate)"
    r"(?:=(?P<param>[0-9]*\.?[0-9]+))?"
    r"(?:@(?P<at>[0-9]+))?"
    r"(?:x(?P<times>[0-9]+|\*))?$"
)


class InjectedFault(OSError):
    """The error an armed ``raise`` rule throws at its fault point."""


@dataclass
class FaultRule:
    """One armed behaviour at one named point (see module grammar)."""

    point: str
    action: str
    param: Optional[float] = None
    at: int = 1
    times: Optional[int] = 1  # None = every eligible hit ("x*")
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r} (one of {_ACTIONS})"
            )
        if self.at < 1:
            raise ConfigurationError(f"fault '@at' must be >= 1, got {self.at}")
        if self.times is not None and self.times < 1:
            raise ConfigurationError(f"fault 'xtimes' must be >= 1, got {self.times}")

    def wants(self, hit: int) -> bool:
        """Whether this rule fires on the ``hit``-th arrival (1-based)."""
        if hit < self.at:
            return False
        return self.times is None or self.fired < self.times


def parse_fault_spec(spec: str) -> List[FaultRule]:
    """Parse a ``REPRO_FAULTS`` string into rules (see module grammar)."""
    rules: List[FaultRule] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigurationError(
                f"fault rule {chunk!r} must look like 'point:action[...]'"
            )
        point_name, behaviour = chunk.split(":", 1)
        point_name = point_name.strip()
        if not point_name:
            raise ConfigurationError(f"fault rule {chunk!r} names no point")
        match = _RULE_RE.match(behaviour.strip())
        if match is None:
            raise ConfigurationError(
                f"cannot parse fault behaviour {behaviour!r} "
                "(expected action[=PARAM][@AT][xTIMES|x*])"
            )
        times_text = match.group("times")
        rules.append(
            FaultRule(
                point=point_name,
                action=match.group("action"),
                param=(
                    float(match.group("param"))
                    if match.group("param") is not None
                    else None
                ),
                at=int(match.group("at") or 1),
                times=(
                    None
                    if times_text == "*"
                    else int(times_text)
                    if times_text is not None
                    else 1
                ),
            )
        )
    return rules


class FaultPlan:
    """The active set of rules plus per-point hit accounting.

    Thread-safe: serve worker threads, queue pollers and HTTP handlers
    may all cross armed points concurrently.
    """

    def __init__(self, rules: Iterable[FaultRule]) -> None:
        self._rules: Dict[str, List[FaultRule]] = {}
        for rule in rules:
            self._rules.setdefault(rule.point, []).append(rule)
        self.hits: Dict[str, int] = {}
        self._lock = threading.Lock()

    def describe(self) -> Dict[str, List[str]]:
        """Point → list of armed actions (introspection/debugging)."""
        return {
            name: [rule.action for rule in rules]
            for name, rules in sorted(self._rules.items())
        }

    def trigger(
        self, name: str, data: Optional[bytes] = None
    ) -> Optional[bytes]:
        """Record a hit at ``name`` and run any rule that fires.

        Returns ``data`` (possibly truncated) for :func:`mangle` seams;
        plain :func:`point` calls pass ``data=None`` and truncate rules
        are skipped.  ``raise``/``crash``/``delay`` act from here.
        """
        with self._lock:
            hit = self.hits.get(name, 0) + 1
            self.hits[name] = hit
            firing: List[FaultRule] = []
            for rule in self._rules.get(name, ()):
                if rule.wants(hit):
                    rule.fired += 1
                    firing.append(rule)
        obs_metrics.registry().counter(
            "repro_fault_point_hits_total",
            "Armed fault-point crossings (only counted while a plan is active)",
            labels={"point": name},
        ).inc()
        for rule in firing:
            obs_metrics.registry().counter(
                "repro_fault_injections_total",
                "Faults actually injected, by point and action",
                labels={"point": name, "action": rule.action},
            ).inc()
            if rule.action == "delay":
                time.sleep(rule.param if rule.param is not None else 0.01)
            elif rule.action == "truncate":
                if data is not None:
                    fraction = rule.param if rule.param is not None else 0.5
                    data = data[: int(len(data) * fraction)]
            elif rule.action == "raise":
                raise InjectedFault(f"injected fault at {name} (hit {hit})")
            elif rule.action == "crash":
                print(
                    f"repro.faults: injected crash at {name} (hit {hit})",
                    file=sys.stderr,
                    flush=True,
                )
                os._exit(CRASH_EXIT_CODE)
        return data


PlanLike = Union[None, str, FaultPlan, Sequence[FaultRule]]

#: ``None`` means *disabled*: :func:`point` returns after one comparison.
_PLAN: Optional[FaultPlan] = None

# ----------------------------------------------------------------------
# the hot-path entry points
# ----------------------------------------------------------------------


def point(name: str) -> None:
    """Cross the named fault point (no-op unless a plan arms it)."""
    plan = _PLAN
    if plan is None:
        return
    plan.trigger(name)


def mangle(name: str, data: bytes) -> bytes:
    """Cross a data seam: returns ``data``, truncated if a rule says so."""
    plan = _PLAN
    if plan is None:
        return data
    out = plan.trigger(name, data)
    return data if out is None else out


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, or ``None`` when injection is disabled."""
    return _PLAN


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def configure_faults(plan: PlanLike) -> Optional[FaultPlan]:
    """Install (or clear) the process-wide fault plan.

    Accepts a spec string (the ``REPRO_FAULTS`` grammar), a prebuilt
    :class:`FaultPlan`, a sequence of :class:`FaultRule`, or
    ``None``/``""`` to disable injection.  Returns the installed plan.
    """
    global _PLAN
    if plan is None or plan == "":
        _PLAN = None
        return None
    if isinstance(plan, FaultPlan):
        _PLAN = plan
    elif isinstance(plan, str):
        _PLAN = FaultPlan(parse_fault_spec(plan))
    else:
        _PLAN = FaultPlan(plan)
    return _PLAN


class fault_scope:
    """Context manager: install a plan, restore the previous one on exit.

    The test-suite idiom — faults injected inside the block can never
    leak into the next test::

        with fault_scope("store.get.read:raisex2"):
            assert store.get(key) is not None   # retried through
    """

    def __init__(self, plan: PlanLike) -> None:
        self._plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> Optional[FaultPlan]:
        global _PLAN
        self._previous = _PLAN
        return configure_faults(self._plan)

    def __exit__(self, exc_type, exc, tb) -> None:
        global _PLAN
        _PLAN = self._previous


# ----------------------------------------------------------------------
# the point catalogue
# ----------------------------------------------------------------------

_DECLARED: Dict[str, str] = {}


def declare_point(name: str, description: str = "") -> str:
    """Register a fault-point name in the process-wide catalogue.

    Modules declare their seams at import time, so test sweeps can
    enumerate *every* registered point (``declared_points()``) instead
    of hand-maintaining a list that silently rots as seams are added.
    Returns ``name`` so declarations double as constants::

        PUT_RENAME = faults.declare_point("store.put.rename", "...")
    """
    _DECLARED[name] = description
    return name


def declared_points(prefix: str = "") -> List[str]:
    """All declared fault points (optionally filtered by dotted prefix)."""
    return sorted(name for name in _DECLARED if name.startswith(prefix))


# Arm from the environment at import: worker subprocesses spawned with
# REPRO_FAULTS in their env inherit the plan with no code changes.
_env_spec = os.environ.get(FAULTS_ENV_VAR)
if _env_spec:
    configure_faults(_env_spec)
