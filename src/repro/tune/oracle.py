"""Plan-bind-time lookups against the tuning database.

A :class:`TuningOracle` wraps one loaded ``TUNED.json`` document and
answers two questions on the compile/bind path:

* ``threads_for`` — the measured thread count for this kernel at this
  shape class (consulted by
  :meth:`repro.codegen.executor.BoundKernel.resolve_run_threads` when the
  setting is ``"auto"``), and
* ``compile_for`` — the measured pass set / tile size / OMP strategy for
  this kernel (consulted once per compile request, by
  :meth:`repro.codegen.backends.base.CodegenConfig.resolve`, which owns
  precedence against the environment and validates the entry).

Machine matching degrades gracefully: exact
:func:`~repro.bench.harness.fingerprint_class` first, then the nearest
class sharing OS + ISA (closest log2 cpu count), then a miss — and every
miss falls through to the existing cost model, so an absent or foreign
database can only ever cost one dict probe.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.obs import trace as obs_trace
from repro.tune.db import (
    kernel_id,
    load_db,
    log2_bucket,
    parse_machine_class,
    shape_class,
)


class TuningOracle:
    """Read-only view of one tuning database for one machine."""

    def __init__(
        self,
        doc: Mapping[str, object],
        path: Optional[str] = None,
        machine_class: Optional[str] = None,
    ):
        self.doc = doc
        self.path = path
        if machine_class is None:
            from repro.bench.harness import fingerprint_class

            machine_class = fingerprint_class()
        self.machine_class = machine_class
        self._kernels = self._resolve_machine()
        #: resolved-lookup memo — ``threads_for`` sits on the per-run
        #: dispatch path, so repeated binds of one (kernel, shape) pay a
        #: dict probe instead of re-deriving the shape class each call.
        self._memo: Dict[Tuple, Optional[int]] = {}
        #: lookup counters (mirrored into ``ServiceStats``/``repro stats``).
        self.lookups = 0
        self.hits = 0
        self.fallbacks = 0
        self.compile_hits = 0

    # ------------------------------------------------------------------
    def _resolve_machine(self) -> Dict[str, dict]:
        """The kernel table for this machine: exact class, else nearest."""
        machines = self.doc.get("machines")
        if not isinstance(machines, dict) or not machines:
            self.matched_class = None
            return {}
        section = machines.get(self.machine_class)
        if isinstance(section, dict):
            self.matched_class = self.machine_class
            return dict(section.get("kernels") or {})
        mine = parse_machine_class(self.machine_class)
        if mine is None:
            self.matched_class = None
            return {}
        os_isa, cpus = mine
        best = None
        for cls, candidate in machines.items():
            parsed = parse_machine_class(cls)
            if parsed is None or parsed[0] != os_isa:
                continue
            distance = abs(log2_bucket(parsed[1]) - log2_bucket(cpus))
            if best is None or distance < best[0]:
                best = (distance, cls, candidate)
        if best is None:
            self.matched_class = None
            return {}
        self.matched_class = best[1]
        return dict(best[2].get("kernels") or {})

    @property
    def exact_machine(self) -> bool:
        return self.matched_class == self.machine_class

    def kernel_entry(self, einsum: str, dtype: str) -> Optional[dict]:
        entry = self._kernels.get(kernel_id(einsum, str(dtype)))
        return entry if isinstance(entry, dict) else None

    # ------------------------------------------------------------------
    def threads_for(
        self,
        einsum: str,
        dtype: str,
        extents,
        work,
        cpu: int,
    ) -> Optional[int]:
        """The measured thread count for this run, or ``None`` (miss ->
        caller falls back to the cost model).  Emits a ``tune:lookup``
        span tagged with the resolution origin, so tuned plan binds are
        visible in ``repro trace`` exactly like service cache origins.
        With tracing off, repeated lookups of one (kernel, shape) are
        served from a memo — counters still advance per lookup.
        """
        self.lookups += 1
        memo_key = (einsum, str(dtype), tuple(extents), work, int(cpu))
        if not obs_trace.enabled() and memo_key in self._memo:
            tuned = self._memo[memo_key]
            if tuned is None:
                self.fallbacks += 1
            else:
                self.hits += 1
            return tuned
        shape_key = shape_class(extents, work)
        with obs_trace.span(
            "tune:lookup", kernel=einsum, shape=shape_key
        ) as sp:
            entry = self.kernel_entry(einsum, dtype)
            tuned = None
            if entry is not None:
                shaped = (entry.get("shapes") or {}).get(shape_key)
                if isinstance(shaped, dict) and "threads" in shaped:
                    try:
                        tuned = max(1, min(int(cpu), int(shaped["threads"])))
                    except (TypeError, ValueError):
                        tuned = None
            if tuned is None:
                self.fallbacks += 1
                sp.add(origin="costmodel")
            else:
                self.hits += 1
                sp.add(origin="tuned", threads=tuned)
        self._memo[memo_key] = tuned
        return tuned

    def compile_for(self, einsum: str, dtype: str) -> Optional[dict]:
        """The kernel's measured compile-level variant (``passes`` name
        list, ``tile_rows``, ``omp_strategy``), or ``None``."""
        entry = self.kernel_entry(einsum, dtype)
        if entry is None:
            return None
        compile_entry = entry.get("compile")
        if not isinstance(compile_entry, dict):
            return None
        self.compile_hits += 1
        return compile_entry

    # ------------------------------------------------------------------
    def stats_dict(self) -> Dict[str, object]:
        return {
            "db": self.path,
            "machine_class": self.machine_class,
            "matched_class": self.matched_class,
            "kernels": len(self._kernels),
            "lookups": self.lookups,
            "tuned": self.hits,
            "fallbacks": self.fallbacks,
            "compile_overrides": self.compile_hits,
        }

    def describe(self) -> str:
        if self.matched_class is None:
            match = "no matching machine class (cost-model fallback)"
        elif self.exact_machine:
            match = "machine class %s" % self.matched_class
        else:
            match = "nearest machine class %s (this is %s)" % (
                self.matched_class,
                self.machine_class,
            )
        return "tuned: %d kernels from %s, %s" % (
            len(self._kernels),
            self.path or "<memory>",
            match,
        )


def load_oracle(
    path: str, machine_class: Optional[str] = None
) -> Optional[TuningOracle]:
    """Build an oracle from the database at *path* (``None`` when the
    file is absent, unreadable or the wrong schema version)."""
    doc = load_db(path)
    if doc is None:
        return None
    return TuningOracle(doc, path=path, machine_class=machine_class)
