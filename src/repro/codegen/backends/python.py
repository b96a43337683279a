"""The Python execution backend: ``exec`` the generated source.

This is the original execution path, refactored behind the
:class:`~repro.codegen.backends.base.Backend` interface.  It is always
available and is what ``backend="auto"`` degrades to when no C toolchain
can be found.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro.codegen.backends.base import Backend, Executable
from repro.codegen.lower import LoweredKernel


def exec_kernel_source(lowered: LoweredKernel, label: Optional[str] = None):
    """Exec the generated module and return the kernel function.

    ``label`` distinguishes kernels in tracebacks — the service layer
    passes a cache-key prefix so a failure inside one of many resident
    kernels names the kernel that produced it.
    """
    filename = "<systec-kernel>" if label is None else "<systec-kernel %s>" % label
    namespace: Dict[str, object] = {"np": np}
    code = compile(lowered.source, filename, "exec")
    exec(code, namespace)
    return namespace["kernel"]


class PythonExecutable(Executable):
    """Wraps the exec'd ``kernel`` function."""

    def __init__(self, lowered: LoweredKernel, label: Optional[str] = None):
        self.fn = exec_kernel_source(lowered, label)
        self.source = lowered.source

    def __call__(self, out: np.ndarray, threads: int = 1, **arrays) -> None:
        # the interpreted loops are inherently single-threaded; the
        # thread count is accepted (and ignored) so callers can drive
        # every backend through one signature
        self.fn(out, **arrays)

    def bind(
        self, out: np.ndarray, arrays: Mapping[str, object]
    ) -> Callable[[int], None]:
        """The keyword set is merged once; repeat calls skip the dict walk."""
        call = functools.partial(self.fn, out, **arrays)

        def run(threads: int) -> None:
            call()

        return run

    def describe(self) -> str:
        return "python (interpreted numpy loops)"


class PythonBackend(Backend):
    name = "python"

    def is_available(self) -> bool:
        return True

    def compile(
        self,
        lowered: LoweredKernel,
        label: Optional[str] = None,
        artifact: Optional[str] = None,
        einsum: Optional[str] = None,
        threaded: bool = False,
    ) -> PythonExecutable:
        return PythonExecutable(lowered, label)

    def describe(self) -> str:
        return "python: interpreted numpy loops (always available)"
