"""The persistent tuning database (``TUNED.json``).

Layout mirrors the perf-trajectory conventions of
``BENCH_backends.json`` (:mod:`repro.bench.harness`): one merged,
diffable JSON document, atomic rewrites, and a
version field that retires stale schemas instead of misreading them.
Writers additionally serialize through the repo's advisory PID lock
(:class:`repro.core.flock.InterProcessLock`), so concurrent
``repro tune`` runs merge instead of clobbering each other.

The document is keyed three levels deep::

    machines.<fingerprint_class>.kernels."<einsum>|<dtype>"
        .compile            # best compile-level variant (passes/tile/omp)
        .shapes.<shape_class>   # best runtime variant per shape bucket

``<fingerprint_class>`` is :func:`repro.bench.harness.fingerprint_class`
(OS + ISA + cpu count); ``<shape_class>`` buckets a run's dimension
extents and work estimate by rounded log2, so nearby problem sizes share
one tuned entry while the serial->parallel crossover sizes stay distinct.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Dict, Iterable, Mapping, Optional

from repro.core.flock import InterProcessLock, atomic_write

#: bump when the tuning-db schema changes shape.
TUNED_VERSION = 1

#: conventional database filename (written at the repo root).
TUNED_FILENAME = "TUNED.json"

#: seconds a writer waits on a concurrent tuner's lock before failing.
LOCK_TIMEOUT = 10.0


def log2_bucket(value) -> int:
    """Rounded log2 of a positive quantity (values < 1 clamp to bucket 0)."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        return 0
    if v != v or v <= 1.0:
        return 0
    return int(round(math.log2(v)))


def shape_class(extents: Iterable[int], work=None) -> str:
    """Bucket one run's shape onto its tuning key.

    ``extents`` are the kernel's dimension arguments in lowering order;
    ``work`` is the executable's parallel scalar-update estimate (nnz
    proportional for sparse kernels, the natural "how big is this run"
    scalar).  Both are coarsened to rounded log2 — ``"e11x11/w17"`` —
    so a tuned entry measured at n=2000 serves n=2400 but not n=8000.
    """
    parts = "x".join(str(log2_bucket(e)) for e in extents)
    suffix = "-" if work is None else str(log2_bucket(work))
    return "e%s/w%s" % (parts or "-", suffix)


def kernel_id(einsum: str, dtype: str) -> str:
    """The per-kernel db key: the einsum is the kernel's semantic identity
    (shared with the service cache and persisted states), the dtype its
    numeric identity."""
    return "%s|%s" % (einsum, dtype)


def parse_machine_class(cls: str):
    """Split ``"linux-x86_64-c4"`` into ``(os_isa, cpus)`` for
    nearest-match comparisons; ``None`` when the string has no ``-cN``
    tail (foreign or hand-edited keys never match approximately)."""
    head, sep, tail = cls.rpartition("-c")
    if not sep or not head:
        return None
    try:
        cpus = int(tail)
    except ValueError:
        return None
    return head, max(1, cpus)


def load_db(path: str) -> Optional[Dict[str, object]]:
    """The tuning document at *path*, or ``None`` when absent/unreadable/
    wrong-versioned (a stale schema must not be misread as tuned truth)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != TUNED_VERSION:
        return None
    if not isinstance(doc.get("machines"), dict):
        return None
    return doc


def record_tuning(
    path: str,
    machine_class: str,
    fingerprint: Mapping[str, object],
    kernel_key: str,
    kernel_name: Optional[str],
    shape_key: str,
    shape_entry: Mapping[str, object],
    compile_entry: Optional[Mapping[str, object]] = None,
    lock_timeout: float = LOCK_TIMEOUT,
) -> Dict[str, object]:
    """Merge one tuning result into the database at *path*.

    Read-merge-rewrite runs under the advisory lock; the rewrite itself
    is an :func:`atomic_write` so readers never see a torn document.
    Existing machines/kernels/shapes survive untouched, the re-tuned
    shape (and the kernel's compile recommendation, when given) is
    overwritten.  Returns the merged document.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    lock = InterProcessLock(path + ".lock")
    if not lock.acquire(lock_timeout):
        raise TimeoutError(
            "another tuner holds %s.lock (waited %.0fs)" % (path, lock_timeout)
        )
    try:
        doc = load_db(path) or {"version": TUNED_VERSION, "machines": {}}
        doc["version"] = TUNED_VERSION
        doc["updated"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        machines = doc.setdefault("machines", {})
        section = machines.setdefault(machine_class, {})
        section["fingerprint"] = dict(fingerprint)
        kernels = section.setdefault("kernels", {})
        kernel = kernels.setdefault(kernel_key, {})
        if kernel_name:
            kernel["name"] = kernel_name
        if compile_entry is not None:
            kernel["compile"] = dict(compile_entry)
        shapes = kernel.setdefault("shapes", {})
        shapes[shape_key] = dict(shape_entry)
        kernel["shapes"] = {key: shapes[key] for key in sorted(shapes)}
        section["kernels"] = {key: kernels[key] for key in sorted(kernels)}
        doc["machines"] = {key: machines[key] for key in sorted(machines)}
        text = json.dumps(doc, indent=2, sort_keys=False) + "\n"
        atomic_write(path, text.encode("utf-8"))
        return doc
    finally:
        lock.release()
