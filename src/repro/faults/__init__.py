"""Deterministic fault injection for the toolchain, store and service.

The failure paths this package exists to exercise — a hung ``cc``, a
corrupt store entry, a shared object that no longer dlopens, ENOSPC in
the artifact cache — are exactly the ones ordinary test suites never
reach.  Named *injection points* are threaded through the production
code; arming them makes the real handling code (retry, backoff, the
rebuild of an object that does not load, the compile-time fallback,
store self-healing) run for real.

Two ways to arm faults:

* ``REPRO_FAULTS=<spec>`` — read once at import, active process-wide
  (the CI fault-injection leg runs the whole suite this way);
* :func:`injecting` — a context manager that *replaces* the active plan
  for the dynamic extent of a block (tests use this; an env-armed plan
  is suspended inside the block and restored after).

The spec grammar lives in :mod:`repro.faults.spec` (``point=action[:arg]
[@skip][*times]``, comma-separated).  Sites call :func:`poll`, which is
engineered to be zero-overhead while no plan is active: one module-global
load and an is-``None`` test — the same contract as :mod:`repro.obs`.

Every fired fault increments the ``faults.fired.<point>`` metrics counter
(when ``REPRO_METRICS`` is live) and is visible via :func:`fired`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.core.config import knob
from repro.faults.spec import (
    Fault,
    FaultError,
    FaultPlan,
    FaultSpecError,
    POINT_ACTIONS,
    parse_spec,
)
from repro.obs import metrics as obs_metrics

__all__ = [
    "Fault",
    "FaultError",
    "FaultPlan",
    "FaultSpecError",
    "POINT_ACTIONS",
    "enabled",
    "fired",
    "injecting",
    "parse_spec",
    "poll",
    "spec_text",
]

#: the active plan; ``None`` (the production state) makes every
#: :func:`poll` a global load + is-None check.
_plan: Optional[FaultPlan] = parse_spec(knob("REPRO_FAULTS"))


def enabled() -> bool:
    """Is a fault plan active?  (Sites may use this to skip setup work.)"""
    return _plan is not None


def spec_text() -> Optional[str]:
    """The active plan's spec string (``repro doctor`` reporting)."""
    plan = _plan
    return plan.text if plan is not None else None


def poll(point: str) -> Optional[Fault]:
    """Consume one firing of *point*, or ``None`` (the hot-path check).

    Zero-overhead while no plan is active; when a fault fires, the
    ``faults.fired.<point>`` counter is bumped (metrics permitting).
    """
    plan = _plan
    if plan is None:
        return None
    fault = plan.poll(point)
    if fault is not None:
        obs_metrics.inc("faults.fired.%s" % point)
    return fault


def fired() -> Dict[str, int]:
    """Fired counts per point for the active plan (empty when none)."""
    plan = _plan
    return plan.fired() if plan is not None else {}


@contextmanager
def injecting(spec: Optional[str]) -> Iterator[Optional[FaultPlan]]:
    """Arm *spec* for the duration of a block, then restore what was
    active before (including an env-armed plan)."""
    global _plan
    previous = _plan
    _plan = parse_spec(spec)
    try:
        yield _plan
    finally:
        _plan = previous
