"""repro — a Python reproduction of SySTeC, the symmetric sparse tensor
compiler (Patel, Ahrens, Amarasinghe; CGO 2025).

Quickstart::

    import numpy as np
    from repro import compile_kernel, Tensor

    ssymv = compile_kernel("y[i] += A[i, j] * x[j]", symmetric={"A": True},
                           loop_order=("j", "i"))
    A = np.random.rand(100, 100)
    A = A + A.T                      # symmetric
    y = ssymv(A=A, x=np.random.rand(100))

See :mod:`repro.kernels` for the paper's kernel library, :mod:`repro.data`
for the evaluation's datasets and :mod:`repro.bench` for the paper's
figure drivers.

For repeated compilation the :class:`KernelService` facade caches compiled
kernels by content address (in memory and optionally on disk) and executes
request batches with amortized preparation::

    from repro import KernelService

    service = KernelService(capacity=64, store=".repro-cache")
    ssymv = service.get_or_compile("y[i] += A[i, j] * x[j]",
                                   symmetric={"A": True})
"""

from repro.codegen.executor import ExecutionPlan
from repro.core.analysis import analyze_plan, describe_cost
from repro.core.compiler import (
    CompiledKernel,
    compile_kernel,
    naive_plan,
    optimize,
)
from repro.core.config import CompilerOptions, DEFAULT, NAIVE
from repro.core.printer import finch_syntax
from repro.core.symmetrize import symmetrize
from repro.core.verify import verify_plan_coverage
from repro.frontend.einsum import Access, Assignment, Literal
from repro.frontend.parser import parse_assignment
from repro.service import (
    BatchRequest,
    BatchResult,
    DiskStore,
    KernelService,
    LRUKernelCache,
    cache_key,
)
from repro.symmetry.partitions import Partition
from repro.tensor.coo import COO
from repro.tensor.symmetric_view import SymmetricView
from repro.tensor.tensor import Tensor

__version__ = "1.0.0"

__all__ = [
    "Access",
    "Assignment",
    "BatchRequest",
    "BatchResult",
    "COO",
    "CompiledKernel",
    "ExecutionPlan",
    "CompilerOptions",
    "DEFAULT",
    "DiskStore",
    "KernelService",
    "LRUKernelCache",
    "Literal",
    "NAIVE",
    "Partition",
    "SymmetricView",
    "Tensor",
    "analyze_plan",
    "cache_key",
    "compile_kernel",
    "describe_cost",
    "finch_syntax",
    "naive_plan",
    "optimize",
    "parse_assignment",
    "symmetrize",
    "verify_plan_coverage",
]
