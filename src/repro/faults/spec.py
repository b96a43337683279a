"""The ``REPRO_FAULTS`` spec grammar and its deterministic firing plan.

A spec is a comma-separated list of clauses, each arming one *injection
point* with an *action*::

    spec     ::= clause ("," clause)*
    clause   ::= point ["=" action [":" arg]] modifier*
    modifier ::= "@" N     skip the first N matches of this point
               | "*" N     then fire on at most N matches

Examples::

    cc=timeout*1                  first cc invocation hangs (times out)
    cc=timeout@2*1                skip the two probe builds, hang the
                                  first kernel build
    dlopen=fail*2                 first two dlopens raise OSError
    store.get=corrupt*1           scribble the first entry read
    store.put=enospc              every put fails with ENOSPC
    exec.omp=fail*1,exec.c=fail*1 drive the full degradation ladder

Firing is deterministic: rules match in spec order, every match of a
point advances every rule armed on it, and the first eligible rule fires.
Thread-safe — concurrent pollers observe a single global schedule.

Point and action names are validated at parse time (a typo'd spec fails
loudly instead of silently injecting nothing).
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec that does not parse or names an unknown
    injection point/action."""


class FaultError(RuntimeError):
    """An injected failure, raised by sites with no native exception to
    forge (e.g. a simulated kernel-execution crash)."""

    def __init__(self, fault: "Fault"):
        super().__init__(
            "injected fault: %s=%s%s"
            % (fault.point, fault.action, ":%s" % fault.arg if fault.arg else "")
        )
        self.fault = fault


#: every injection point and the actions it accepts; the first action is
#: the default when a clause omits ``=action``.
POINT_ACTIONS: Dict[str, tuple] = {
    # the cc subprocess inside the toolchain
    "cc": ("fail", "timeout", "crash", "slow"),
    # ctypes.CDLL of a compiled kernel
    "dlopen": ("fail",),
    # a C kernel execution (any thread count)
    "exec.c": ("fail",),
    # a C kernel execution with threads > 1 only (the OpenMP tier)
    "exec.omp": ("fail",),
    # a C kernel runtime allocation failure (forges the nonzero status
    # the kernel returns when a workspace or per-thread buffer
    # allocation fails; surfaces as BackendError)
    "exec.alloc": ("fail",),
    # disk-store entry reads
    "store.get": ("corrupt", "truncate-so", "fail"),
    # disk-store entry writes
    "store.put": ("enospc", "eacces", "partial", "fail"),
    # in-memory LRU lookups (simulates eviction races)
    "cache.get": ("miss",),
    # the service's cold-compile stage
    "service.compile": ("fail", "slow"),
    # the daemon's unix-socket accept path (connection dropped at accept)
    "wire.accept": ("fail",),
    # reading a wire frame (either end: daemon request read, client
    # reply read) — "fail" forges a reset connection, "slow" stalls
    "wire.read": ("fail", "slow"),
    # writing a wire frame (either end)
    "wire.write": ("fail", "slow"),
    # the daemon's request handler, before dispatching the operation
    "serve.handler": ("fail", "slow"),
}

_CLAUSE = re.compile(
    r"^(?P<point>[a-z][a-z0-9_.-]*)"
    r"(?:=(?P<action>[a-z][a-z0-9-]*)(?::(?P<arg>[^@*]+))?)?"
    r"(?P<mods>(?:[@*]\d+)*)$"
)
_MOD = re.compile(r"([@*])(\d+)")


@dataclass(frozen=True)
class Fault:
    """One armed fault, handed to the injection site when it fires."""

    point: str
    action: str
    arg: Optional[str] = None

    def arg_float(self, default: float) -> float:
        """The clause's ``:arg`` as a float (for slow/hold durations)."""
        if self.arg is None:
            return default
        try:
            return float(self.arg)
        except ValueError:
            return default


class _Rule:
    """One clause's firing state: seen/fired counts against skip/times."""

    __slots__ = ("fault", "skip", "times", "seen", "fired")

    def __init__(self, fault: Fault, skip: int, times: Optional[int]):
        self.fault = fault
        self.skip = skip
        self.times = times
        self.seen = 0
        self.fired = 0

    def eligible(self) -> bool:
        return self.seen > self.skip and (
            self.times is None or self.fired < self.times
        )


class FaultPlan:
    """A parsed spec: rules grouped by point, polled atomically."""

    def __init__(self, rules: List[_Rule], text: str):
        self.text = text
        self._lock = threading.Lock()
        self._rules: Dict[str, List[_Rule]] = {}
        for rule in rules:
            self._rules.setdefault(rule.fault.point, []).append(rule)

    def poll(self, point: str) -> Optional[Fault]:
        """Advance every rule armed on *point*; fire the first eligible."""
        rules = self._rules.get(point)
        if not rules:
            return None
        with self._lock:
            for rule in rules:
                rule.seen += 1
            for rule in rules:
                if rule.eligible():
                    rule.fired += 1
                    return rule.fault
        return None

    def fired(self) -> Dict[str, int]:
        """Total fired count per point (for tests and ``repro doctor``)."""
        with self._lock:
            out: Dict[str, int] = {}
            for point, rules in self._rules.items():
                count = sum(rule.fired for rule in rules)
                if count:
                    out[point] = count
            return out


def parse_spec(text: Optional[str]) -> Optional[FaultPlan]:
    """Parse a ``REPRO_FAULTS`` spec; ``None``/empty means no plan."""
    if not text or not text.strip():
        return None
    rules: List[_Rule] = []
    for raw in text.split(","):
        clause = raw.strip()
        if not clause:
            continue
        match = _CLAUSE.match(clause)
        if match is None:
            raise FaultSpecError(
                "malformed REPRO_FAULTS clause %r (grammar: "
                "point[=action[:arg]][@skip][*times])" % clause
            )
        point = match.group("point")
        actions = POINT_ACTIONS.get(point)
        if actions is None:
            raise FaultSpecError(
                "unknown injection point %r (have: %s)"
                % (point, ", ".join(sorted(POINT_ACTIONS)))
            )
        action = match.group("action") or actions[0]
        if action not in actions:
            raise FaultSpecError(
                "point %r does not support action %r (have: %s)"
                % (point, action, ", ".join(actions))
            )
        skip, times = 0, None
        for mod, value in _MOD.findall(match.group("mods")):
            if mod == "@":
                skip = int(value)
            else:
                times = int(value)
        rules.append(_Rule(Fault(point, action, match.group("arg")), skip, times))
    if not rules:
        return None
    return FaultPlan(rules, text)
