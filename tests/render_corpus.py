"""The rendering corpus behind ``tests/golden/render_digests.json``.

Every library and extension kernel (SySTeC and naive) x both dtypes x
the lowering-option ablations, plus a handful of user einsums that reach
the statement forms no library kernel emits (the ``break`` triangle
guard, ``np.minimum`` row reductions, explicit triangle conditions over
a dense symmetric input, a dense-only vectorized nest).  Each lowering
is rendered to C under every pass set x parallel mode x profile flag in
:data:`C_CONFIGS`.

Shared by the digest freeze in ``test_cpasses.py`` and the persistence
round-trip in ``test_loopir.py``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Tuple

from repro.codegen.backends.base import CodegenConfig
from repro.codegen.backends.c import render_c_full
from repro.codegen.passes import DEFAULT_ON, PASS_ORDER, PassConfig
from repro.core.compiler import compile_kernel
from repro.core.config import DEFAULT
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import KERNELS

DTYPES = ("float64", "float32")

#: name -> CompilerOptions overrides (the loop-level transforms of 4.2,
#: plus the opt-in lookup table: the only road to a LUT definition).
ABLATIONS = {
    "default": {},
    "-cse": {"cse": False},
    "-workspace": {"workspace": False},
    "-vectorize": {"vectorize_innermost": False},
    "-concordize": {"concordize": False},
    "+lut": {"lookup_table": True},
}

#: naive plans ignore every switch but these (see ``plan_kernel``).
NAIVE_ABLATIONS = ("default", "-vectorize")

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

PASS_SETS = {
    "none": PassConfig(enabled=()),
    "default": PassConfig(enabled=DEFAULT_ON),
    "all": PassConfig(enabled=PASS_ORDER),
    "tile@64": PassConfig(enabled=("tile",), tile_rows=64),
}
PARALLEL = ("auto", "serial", "atomic")

#: every C rendering of one lowering, in manifest order.
C_CONFIGS: Tuple[Tuple[str, str, bool], ...] = tuple(
    (passes, parallel, profile)
    for passes in PASS_SETS
    for parallel in PARALLEL
    for profile in (False, True)
)

#: the same 24 points as the values the renderer is handed.
CODEGEN_CONFIGS: Tuple[CodegenConfig, ...] = tuple(
    CodegenConfig(parallel, profile, PASS_SETS[passes])
    for passes, parallel, profile in C_CONFIGS
)


def lowerings() -> Iterator[Tuple[str, object]]:
    """``(key, CompiledKernel)`` for the whole corpus (python backend)."""
    for name, spec in sorted({**KERNELS, **EXTENSIONS}.items()):
        for dtype in DTYPES:
            for naive in (False, True):
                for ablation, overrides in ABLATIONS.items():
                    if naive and ablation not in NAIVE_ABLATIONS:
                        continue
                    options = DEFAULT.but(
                        backend="python", dtype=dtype, **overrides
                    )
                    key = "%s|%s|%s|%s" % (
                        name, "naive" if naive else "systec", dtype, ablation
                    )
                    yield key, spec.compile(naive=naive, options=options)
    for name, (einsum, symmetric, loop_order, formats, *levels) in sorted(
        EXTRAS.items()
    ):
        for dtype in DTYPES:
            for ablation in ("default", "-cse", "-workspace"):
                options = DEFAULT.but(
                    backend="python", dtype=dtype, **ABLATIONS[ablation]
                )
                key = "extra:%s|systec|%s|%s" % (name, dtype, ablation)
                yield key, compile_kernel(
                    einsum,
                    symmetric=symmetric,
                    loop_order=loop_order,
                    formats=formats,
                    options=options,
                    sparse_levels=levels[0] if levels else None,
                )


def c_renderings(lowered) -> List[str]:
    """The C translation unit under every :data:`C_CONFIGS` entry."""
    return [
        render_c_full(lowered, "digest", config).source
        for config in CODEGEN_CONFIGS
    ]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_entry(kernel) -> Dict[str, object]:
    """One manifest entry: full digest of the Python source, a 16-hex
    sha256 prefix per C configuration (in :data:`C_CONFIGS` order)."""
    return {
        "py": sha(kernel.source),
        "c": [sha(src)[:16] for src in c_renderings(kernel.lowered)],
    }
