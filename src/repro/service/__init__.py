"""repro.service — content-addressed compile cache.

The paper's driver recompiles every einsum from scratch; this subsystem
is what turns the reproduction into something that can serve traffic:

* :mod:`repro.service.keys` — canonicalize a compile request and hash it
  into a stable content-address;
* :mod:`repro.service.cache` — an in-memory LRU of compiled kernels with
  hit/miss/eviction counters;
* :mod:`repro.service.store` — an on-disk store of persisted kernel
  states, rehydrated without re-running the pass pipeline;
* :mod:`repro.service.engine` — the :class:`KernelService` facade
  (``get_or_compile`` / ``warmup`` / ``stats`` / ``invalidate``).

Quickstart::

    from repro.service import KernelService

    service = KernelService(capacity=64, store=".repro-cache")
    ssymv = service.get_or_compile(
        "y[i] += A[i, j] * x[j]", symmetric={"A": True}, loop_order=("j", "i")
    )
    y = ssymv(A=A, x=x)          # identical result to compile_kernel(...)
    plan = ssymv.execution_plan(A=A, x=x)   # hold it: each call runs
    y = ssymv.finalize(plan())              # the loops and nothing else
    print(service.stats().describe())
"""

from repro.service.cache import CacheStats, LRUKernelCache
from repro.service.engine import KernelService, ServiceStats, WarmupReport
from repro.service.keys import CompileRequest, cache_key, canonicalize
from repro.service.store import DiskStore, StoreEntry

__all__ = [
    "CacheStats",
    "CompileRequest",
    "DiskStore",
    "KernelService",
    "LRUKernelCache",
    "ServiceStats",
    "StoreEntry",
    "WarmupReport",
    "cache_key",
    "canonicalize",
]
