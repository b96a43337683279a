"""Pluggable execution backends.

Lowering fixes the loop structure of a kernel; a *backend* decides how
those loops execute:

* ``python`` — ``exec`` the generated source (always available);
* ``c`` — render the same loop structure to C, compile it with the system
  toolchain and bind it through ctypes (orders of magnitude faster);
* ``auto`` — ``c`` when a working compiler is found, else ``python``.

``CompilerOptions.backend`` selects one; the ``$REPRO_BACKEND``
environment variable sets the process-wide default.
"""

from __future__ import annotations

from typing import Dict

from repro.codegen.backends.base import (
    Backend,
    BackendError,
    BackendUnavailableError,
    Executable,
)
from repro.codegen.backends.c import CRenderError, render_c
from repro.codegen.backends.cexec import CBackend
from repro.codegen.backends.python import PythonBackend
from repro.core.config import BACKEND_CHOICES

_REGISTRY: Dict[str, Backend] = {
    "python": PythonBackend(),
    "c": CBackend(),
}

#: concrete backend names (``auto`` — accepted by ``CompilerOptions`` and
#: resolved by :func:`resolve_backend_name` — is not a registry entry).
BACKEND_NAMES = tuple(_REGISTRY)

# the option validator (core.config, which cannot import this package at
# module level) and the registry must name the same backends
assert set(BACKEND_CHOICES) == set(BACKEND_NAMES) | {"auto"}


def get_backend(name: str) -> Backend:
    """The backend singleton registered under *name*."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown backend %r (have: %s)" % (name, ", ".join(BACKEND_NAMES))
        )


def resolve_backend_name(name: str) -> str:
    """Collapse ``auto`` onto a concrete backend (probing the toolchain
    once per process); validate everything else."""
    if name == "auto":
        return "c" if get_backend("c").is_available() else "python"
    if name not in _REGISTRY:
        raise ValueError(
            "unknown backend %r (have: %s)"
            % (name, ", ".join(BACKEND_CHOICES))
        )
    return name


__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_NAMES",
    "Backend",
    "BackendError",
    "BackendUnavailableError",
    "CBackend",
    "CRenderError",
    "Executable",
    "PythonBackend",
    "get_backend",
    "render_c",
    "resolve_backend_name",
]
