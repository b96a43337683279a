"""Compiler options and the ``REPRO_*`` knob table.

The ``naive=`` argument of :func:`repro.core.compiler.compile_kernel`
picks which of the paper's two kernels is built, SySTeC or the baseline.
:class:`CompilerOptions` holds the rest: the element dtype, the
execution backend and the C backend's *runtime* thread count.  That
count is deliberately not compile configuration: it crosses into the
compiled kernel as a plain argument, so it is excluded from cache keys
and persisted state (:data:`RUNTIME_FIELDS`) — one compiled artifact
serves every count.

:data:`KNOBS` declares every ``REPRO_*`` environment variable, one frozen
:class:`Knob` row each, and :func:`knob` is the only code in the package
that reads one (CI greps for ``os.environ`` outside this file).  Values
are read live on every call — tests monkeypatch the environment — and
the *environment is outside the program*: a bad value gets a
once-per-``(name, value)`` diagnostic and the default, never a traceback.
``repro --help``, ``repro doctor`` and the README's knob table print the
same rows.  No knob shapes generated code: the C source of a request
depends on its lowered program alone.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Tuple

#: values :attr:`CompilerOptions.backend` accepts.  ``auto`` is collapsed
#: onto a concrete backend by :func:`repro.core.compiler.resolve_request`.
#: This is the single source of truth — :mod:`repro.codegen.backends`
#: (which this module cannot import without a cycle) asserts its registry
#: matches at import time.
BACKEND_CHOICES = ("python", "c", "auto")

#: element dtypes the pipeline supports end to end (tensor payloads,
#: workspaces, generated C value types, ctypes signatures).  The names are
#: numpy dtype names; :func:`repro.codegen.runtime.np_dtype` maps them to
#: concrete numpy dtypes.  float64 is the paper's (and the historical)
#: default; float32 halves the memory traffic of the bandwidth-bound
#: symmetric kernels.
DTYPE_CHOICES = ("float64", "float32")


@dataclass(frozen=True)
class Knob:
    """One ``REPRO_*`` environment variable.

    ``kind`` is ``flag`` (unset, empty and ``"0"`` are off, anything else
    on), ``int`` / ``float`` (``>= minimum``, or ``> minimum`` when
    ``exclusive`` — for knobs where zero is meaningless rather than a
    documented off switch; ``zero_is_none`` turns a parsed 0 into ``None``,
    "no bound"), ``choice`` (one of ``choices``), or ``text`` /
    ``path`` (returned verbatim).  Unset and empty always mean ``default``.
    """

    name: str
    kind: str
    default: object = None
    minimum: float = 0
    exclusive: bool = False
    zero_is_none: bool = False
    choices: Tuple[str, ...] = ()
    doc: str = ""

    def expected(self) -> str:
        """What a valid value looks like (the diagnostic's wording)."""
        forms = [repr(choice) for choice in self.choices]
        if self.kind in ("int", "float"):
            noun = "an integer" if self.kind == "int" else "a number"
            forms.append("%s %s %g" % (
                noun, ">" if self.exclusive else ">=", self.minimum))
        return " or ".join(forms)


#: every knob the package reads, by name, in documentation order.
KNOBS: Dict[str, Knob] = {row.name: row for row in (
    # what gets compiled, and how it runs
    Knob("REPRO_BACKEND", "choice", "python", choices=BACKEND_CHOICES,
         doc="default execution backend"),
    Knob("REPRO_DTYPE", "choice", "float64", choices=DTYPE_CHOICES,
         doc="default element dtype"),
    # the conservative default is 1: parallel execution is opt-in, so
    # single-threaded timings — the paper's methodology — stay the baseline
    Knob("REPRO_THREADS", "int", 1, minimum=1,
         doc="default C-backend thread count"),
    Knob("REPRO_TRACE", "flag",
         doc="record spans from process start (export: `repro trace`)"),
    Knob("REPRO_METRICS", "flag",
         doc="collect counters and latency histograms (`repro stats --json`)"),
    # the C toolchain
    Knob("REPRO_CC", "path", doc="C compiler to probe instead of cc, gcc, clang"),
    Knob("REPRO_C_CACHE", "path",
         doc="persistent object cache, verified on every lookup (unset = per-process temp dir)"),
    Knob("REPRO_NO_CC", "flag",
         doc="pretend no C compiler exists (auto degrades to python)"),
    # a hung compiler must never stall a caller forever; 60s is an order
    # of magnitude above the slowest observed kernel build
    Knob("REPRO_CC_TIMEOUT", "float", 60.0, zero_is_none=True,
         doc="seconds before a hung cc is killed and retried (0 = no bound)"),
    Knob("REPRO_CC_RETRIES", "int", 2,
         doc="retries after a transient cc failure (timeout or signal kill)"),
    # zero is rejected, not an off switch: a zero wait turns every
    # contended key into a duplicate private compile, which a long-lived
    # daemon amplifies from waste into sustained double load
    Knob("REPRO_LOCK_TIMEOUT", "float", 120.0, exclusive=True,
         doc="seconds to wait on a compile lock before building privately"),
    # failure handling
    Knob("REPRO_FAULTS", "text",
         doc="fault-injection spec, e.g. cc=timeout@2*1,dlopen=fail*1"),
    # the kernel-service daemon and its client
    Knob("REPRO_SERVE_MAX_FRAME", "int", 64 << 20, minimum=1024,
         doc="wire frame size bound in bytes (tensors ride in frames)"),
    Knob("REPRO_STORE_MAX_BYTES", "int", zero_is_none=True,
         doc="disk-store bytes before a put evicts LRU entries (0 = no bound)"),
)}

#: bad env values already seen, so each (name, value) pair is diagnosed
#: exactly once per process.  Knobs like ``REPRO_CC_RETRIES`` are
#: consulted on every compile and ``REPRO_BACKEND`` on every
#: ``CompilerOptions()``; without this memo a daemon with a typo'd
#: variable would emit the same warning on every request (and
#: warnings-filter configuration should not decide whether operators see
#: the diagnostic at all).
_warned_values: set = set()


def warn_env_once(name: str, value, expected: str, fallback) -> None:
    if (name, value) in _warned_values:
        return
    _warned_values.add((name, value))
    warnings.warn(
        "ignoring %s=%r (expected %s); using %s"
        % (name, value, expected, fallback),
        RuntimeWarning,
        stacklevel=3,
    )


def knob(name: str):
    """The current value of the ``REPRO_*`` variable *name* (live read)."""
    row = KNOBS[name]
    value = os.environ.get(name)
    if row.kind == "flag":
        # no warn-and-fallback: every non-empty value but "0" is a valid
        # way of saying "enable"
        return value is not None and value not in ("", "0")
    if value is None or value == "":
        return row.default
    if row.kind in ("text", "path") or value in row.choices:
        return value
    if row.kind != "choice":
        try:
            parsed = int(value) if row.kind == "int" else float(value)
            if parsed < row.minimum or (row.exclusive and parsed == row.minimum):
                raise ValueError(value)
            return None if row.zero_is_none and parsed == 0 else parsed
        except ValueError:
            pass
    warn_env_once(name, value, row.expected(), repr(row.default))
    return row.default


def knobs_set() -> Dict[str, object]:
    """Knobs the environment names -> resolved values (``repro doctor``)."""
    return {name: knob(name) for name in KNOBS if os.environ.get(name)}


def unknown_knobs() -> List[str]:
    """``REPRO_*`` names in the environment that :data:`KNOBS` does not
    declare — a removed or misspelt knob, which nothing reads."""
    return sorted(
        name for name in os.environ
        if name.startswith("REPRO_") and name not in KNOBS
    )


#: fields of :class:`CompilerOptions` that configure *runtime* behaviour
#: rather than what gets compiled — excluded from cache-key material and
#: from persisted kernel state.
RUNTIME_FIELDS = frozenset({"threads"})

_cpu_count_cache = None


def cpu_count() -> int:
    """Visible CPUs (CPU affinity respected where the OS exposes it)."""
    global _cpu_count_cache
    if _cpu_count_cache is None:
        try:
            _cpu_count_cache = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            _cpu_count_cache = os.cpu_count() or 1
    return _cpu_count_cache


def resolve_threads(value) -> int:
    """Check a ``threads`` setting: a positive integer-like value."""
    try:
        count = int(value)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise ValueError("thread count must be a positive int, got %r" % (value,))
    return count


@dataclass(frozen=True)
class CompilerOptions:
    """What a request builds beyond the SySTeC/naive choice."""

    # element dtype: float64 | float32 (tensor payloads, workspaces, the
    # output buffer and the C value type all follow it)
    dtype: str = field(default_factory=lambda: knob("REPRO_DTYPE"))

    # execution backend: python | c | auto
    backend: str = field(default_factory=lambda: knob("REPRO_BACKEND"))

    # runtime thread count for the C backend: a positive int
    # (excluded from cache keys / persistence — see RUNTIME_FIELDS)
    threads: int = field(default_factory=lambda: knob("REPRO_THREADS"))

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                "unknown backend %r (choices: %s)"
                % (self.backend, ", ".join(BACKEND_CHOICES))
            )
        if self.dtype not in DTYPE_CHOICES:
            raise ValueError(
                "unknown dtype %r (choices: %s)"
                % (self.dtype, ", ".join(DTYPE_CHOICES))
            )
        if not isinstance(self.threads, int) or self.threads < 1:
            raise ValueError(
                "threads must be a positive int, got %r"
                % (self.threads,)
            )

    def but(self, **kwargs) -> "CompilerOptions":
        """A copy with some fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """One-line summary, ``name=value`` per field, e.g.
        ``dtype=float64 backend=c threads=1``.

        Used by :meth:`CompiledKernel.explain` and the ``repro cache`` CLI so
        a cached kernel's configuration reads at a glance.
        """
        return " ".join(
            "%s=%s" % (f.name, getattr(self, f.name)) for f in fields(self)
        )

    def to_dict(self) -> dict:
        """Field name -> value, in declaration order (stable key material).

        Runtime-only fields (:data:`RUNTIME_FIELDS` — currently just
        ``threads``) are excluded: they do not change what gets compiled,
        so two requests differing only there must share a cache key and a
        persisted kernel must not pin the thread count it was built with.
        """
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in RUNTIME_FIELDS
        }

    @classmethod
    def from_dict(cls, data) -> "CompilerOptions":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                "unknown CompilerOptions fields: %s" % sorted(unknown)
            )
        return cls(**data)


DEFAULT = CompilerOptions()
