"""Per-process backend health: the degradation ladder.

The execution tiers, fastest first::

    c@omp   — the C backend's OpenMP-parallel bodies (threads > 1)
    c       — the same compiled kernels, serial branch
    python  — the interpreted backend (always works)

A *runtime* failure in a tier — the OpenMP runtime breaking mid-session,
a shared object that stops dlopening, the toolchain disappearing — marks
that tier unhealthy for the rest of the process: the error is recorded,
the ``backend.degraded`` / ``service.errors.<tier>`` metrics counters are
bumped, and callers transparently re-serve work from the next tier down.
Results stay bit-identical by construction (every tier runs the same
lowered loop structure; see the differential fuzzer).

Health is deliberately per-process and sticky (until :func:`reset`): a
tier that failed once mid-session is assumed broken — flapping between a
broken tier and its fallback would pay the failure cost on every call.
Per-kernel *compile* errors (a source that never builds) are not tier
failures; those are memoized by the toolchain's permanent-failure memo.

``REPRO_NO_DEGRADE=1`` disables degradation at the call sites (failures
then propagate raw); this module still records what failed.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.obs import metrics as obs_metrics

#: ladder order, fastest tier first.  ``python`` is the floor and is
#: never marked unhealthy.
TIERS = ("c@omp", "c", "python")

#: recorded errors kept per tier (the first failure matters most).
_MAX_ERRORS = 8

#: a tier cannot be healthier than what it runs on: the OpenMP tier
#: executes the same compiled object the serial C tier does.
_DEPENDS = {"c@omp": ("c",)}


class BackendHealth:
    """Thread-safe per-tier failure record."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._errors: Dict[str, List[str]] = {}
        self._counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def ok(self, tier: str) -> bool:
        """Is *tier* still healthy (itself and every tier it rides on)?"""
        if tier in self._counts:
            return False
        return all(dep not in self._counts for dep in _DEPENDS.get(tier, ()))

    def mark(self, tier: str, error: BaseException) -> bool:
        """Record a runtime failure in *tier*; returns True on the first
        failure of that tier (the moment the ladder actually degrades)."""
        if tier not in TIERS or tier == "python":
            raise ValueError("cannot mark tier %r" % (tier,))
        message = "%s: %s" % (type(error).__name__, error)
        with self._lock:
            first = tier not in self._counts
            self._counts[tier] = self._counts.get(tier, 0) + 1
            errors = self._errors.setdefault(tier, [])
            if len(errors) < _MAX_ERRORS:
                errors.append(message[:500])
        obs_metrics.inc("service.errors.%s" % tier)
        if first:
            obs_metrics.inc("backend.degraded")
        return first

    def active_ladder(self) -> List[str]:
        """The tiers still in service, fastest first."""
        return [t for t in TIERS if self.ok(t)]

    def degraded(self) -> bool:
        return bool(self._counts)

    def first_error(self, tier: str) -> Optional[str]:
        errors = self._errors.get(tier)
        return errors[0] if errors else None

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready health state (``ServiceStats.to_dict`` / doctor)."""
        with self._lock:
            return {
                "degraded": bool(self._counts),
                "ladder": [t for t in TIERS if self.ok(t)],
                "tiers": {
                    tier: {
                        "healthy": self.ok(tier),
                        "failures": self._counts.get(tier, 0),
                        "errors": list(self._errors.get(tier, ())),
                    }
                    for tier in TIERS
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._errors.clear()
            self._counts.clear()


#: the process-wide health record.
HEALTH = BackendHealth()


def ok(tier: str) -> bool:
    return HEALTH.ok(tier)


def mark(tier: str, error: BaseException) -> bool:
    return HEALTH.mark(tier, error)


def active_ladder() -> List[str]:
    return HEALTH.active_ladder()


def degraded() -> bool:
    return HEALTH.degraded()


def first_error(tier: str) -> Optional[str]:
    return HEALTH.first_error(tier)


def snapshot() -> dict:
    return HEALTH.snapshot()


def reset() -> None:
    HEALTH.reset()
