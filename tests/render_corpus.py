"""The rendering corpus behind ``tests/golden/render_digests.json``.

Every library and extension kernel x both dtypes, as SySTeC builds it
(by default and in the lookup-table form) and as the naive baseline,
plus a handful of user einsums that reach the statement forms no
library kernel emits (the ``break`` triangle guard, ``np.copyto`` row
reductions, explicit triangle conditions over a dense symmetric input,
a dense-only vectorized nest): 100 lowerings.  Each is rendered to C
under both profile settings in :data:`C_CONFIGS` (every loop phase
always runs, so nothing else changes the C).

:func:`corpus` lowers and renders it once; ``conftest.py`` holds that as
the session-scoped ``corpus`` fixture, which the digest freeze in
``test_cpasses.py``, the persistence round-trip in ``test_loopir.py``
and the phase-level checks in ``test_parallelize.py`` read.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.codegen.backends.c import render_c_full
from repro.core.compiler import CompiledKernel, compile_kernel
from repro.core.config import DEFAULT
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import KERNELS

DTYPES = ("float64", "float32")

#: name -> CompilerOptions overrides of a SySTeC lowering (the opt-in
#: lookup table is the only road to a LUT definition); the naive
#: baseline and the extras are lowered under ``default`` alone.
VARIANTS = {
    "default": {},
    "+lut": {"lookup_table": True},
}

#: user einsums outside the library:
#: (einsum, symmetric, loop_order, formats[, sparse_levels])
EXTRAS = {
    "single_operand_scale": (
        "y[] += A[i, j]", {"A": True}, ("j", "i"), {"A": "sparse"},
    ),
    "dense_prefix_slot": (
        "y[i] += T[i, j, k] * x[j] * x[k]", {"T": True}, ("k", "j", "i"),
        {"T": "sparse"}, {"T": ("dense", "dense", "sparse")},
    ),
    "all_sparse_levels": (
        "y[i] += A[i, j] * x[j]", {"A": True}, ("j", "i"), {"A": "sparse"},
        {"A": ("sparse", "sparse")},
    ),
    "literal_operand": (
        "y[i] += 2 * A[i, j] * x[j]", {"A": True}, ("j", "i"), {"A": "sparse"},
    ),
    "break_guard": (
        "C[i, j] += A[i, k] * A[j, k]", {}, ("j", "k", "i"), {"A": "sparse"},
    ),
    "break_guard_min": (
        "C[i, j] min= A[i, k] + A[j, k]", {}, ("i", "k", "j"), {"A": "sparse"},
    ),
    "row_min": (
        "C[i, j] min= A[i, k] + B[k, j]", {"A": True}, ("k", "i", "j"),
        {"A": "sparse"},
    ),
    "row_min_ws": (
        "C[i, j, l] min= A[k, j, l] + B[k, i]", {"A": True},
        ("l", "k", "j", "i"), {"A": "sparse"},
    ),
    "dense_symmetric": (
        "y[i] += A[i, j] * x[j]", {"A": True}, ("j", "i"), {},
    ),
    "dense_vector": (
        "y[j] += M[i, j] * x[i]", {}, ("i", "j"), {},
    ),
    "merge_outer": (
        "C[i, j] += A[i, k] * A[j, k]", {}, ("i", "j", "k"), {"A": "sparse"},
    ),
}

#: every C rendering of one lowering, in manifest order: profile off, on.
C_CONFIGS: Tuple[bool, ...] = (False, True)


def lowerings() -> Iterator[Tuple[str, object]]:
    """``(key, CompiledKernel)`` for the whole corpus (python backend)."""
    for name, spec in sorted({**KERNELS, **EXTENSIONS}.items()):
        for dtype in DTYPES:
            for naive in (False, True):
                for variant, overrides in VARIANTS.items():
                    if naive and overrides:
                        continue
                    options = DEFAULT.but(
                        backend="python", dtype=dtype, **overrides
                    )
                    key = "%s|%s|%s|%s" % (
                        name, "naive" if naive else "systec", dtype, variant
                    )
                    yield key, spec.compile(naive=naive, options=options)
    for name, (einsum, symmetric, loop_order, formats, *levels) in sorted(
        EXTRAS.items()
    ):
        for dtype in DTYPES:
            key = "extra:%s|systec|%s|default" % (name, dtype)
            yield key, compile_kernel(
                einsum,
                symmetric=symmetric,
                loop_order=loop_order,
                formats=formats,
                options=DEFAULT.but(backend="python", dtype=dtype),
                sparse_levels=levels[0] if levels else None,
            )


def c_renderings(lowered) -> List[str]:
    """The C translation unit under every :data:`C_CONFIGS` entry."""
    return [
        render_c_full(lowered, "digest", profile).source
        for profile in C_CONFIGS
    ]


@dataclass(frozen=True)
class Lowering:
    """One corpus entry: its manifest key, the compiled (python backend)
    kernel and its C under each :data:`C_CONFIGS` entry."""

    key: str
    kernel: CompiledKernel
    c: Tuple[str, ...]


def corpus() -> List[Lowering]:
    """The whole corpus, lowered and rendered, in manifest key order."""
    return sorted(
        (
            Lowering(key, kernel, tuple(c_renderings(kernel.lowered)))
            for key, kernel in lowerings()
        ),
        key=lambda entry: entry.key,
    )


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_entry(entry: Lowering) -> Dict[str, object]:
    """One manifest entry: full digest of the Python source, a 16-hex
    sha256 prefix per C configuration (in :data:`C_CONFIGS` order)."""
    return {
        "py": sha(entry.kernel.source),
        "c": [sha(src)[:16] for src in entry.c],
    }
