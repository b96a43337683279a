"""Persistent autotuning: measured variant selection at plan-bind time.

The package follows :mod:`repro.obs`'s zero-overhead discipline: nothing
is loaded and nothing is consulted unless ``REPRO_TUNED`` names a tuning
database — the hot path costs one module-global check when tuning is
off, and unsetting the variable *is* the off switch.  With a database
active, two integration points consult :func:`active`'s oracle:

* :meth:`repro.codegen.executor.BoundKernel.resolve_run_threads` asks it
  for a measured thread count when ``threads`` is ``"auto"`` (falling
  back to the work-estimate cost model on any miss) — a runtime lookup,
  per run, and
* :meth:`repro.codegen.backends.base.CodegenConfig.resolve` asks it for a
  measured pass set / tile size / OMP strategy — once per compile
  request; the resolved value then travels with the request, so the cache
  key, the store entry and the rendered source all describe the same
  answer.  Explicit environment pins win there, axis by axis
  (``REPRO_PASSES``, ``REPRO_OMP_STRATEGY``).

The tuner itself (:mod:`repro.tune.measure`) builds every variant under
an explicit configuration value and never touches the environment.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import knob

_UNSET = object()
#: the process-wide oracle: ``_UNSET`` until first consulted, then a
#: ``TuningOracle`` or ``None`` — the is-None check is the entire cost
#: of a lookup when tuning is off.
_oracle = _UNSET


def active():
    """The process-wide :class:`~repro.tune.oracle.TuningOracle`, or
    ``None`` when tuning is off / the database is absent or unreadable."""
    global _oracle
    if _oracle is _UNSET:
        configure(knob("REPRO_TUNED"))
    return _oracle


def reset() -> None:
    """Forget the cached oracle; the next lookup re-reads the env/db."""
    global _oracle
    _oracle = _UNSET


def configure(path: Optional[str]) -> None:
    """Point the process at a database explicitly (``None`` turns tuning
    off); primarily for tests and the daemon's startup wiring."""
    global _oracle
    if path is None:
        _oracle = None
        return
    from repro.tune.oracle import load_oracle

    _oracle = load_oracle(path)


def stats_dict() -> Dict[str, object]:
    """Counters for ``repro stats`` — meaningful even when tuning is off."""
    oracle = active()
    if oracle is None:
        return {"configured": False, "enabled": bool(knob("REPRO_TUNED"))}
    out: Dict[str, object] = {"configured": True, "enabled": True}
    out.update(oracle.stats_dict())
    return out
