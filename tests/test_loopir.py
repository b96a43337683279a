"""The typed loop IR: verification, persistence, and the one-representation
guards (nothing parses generated text back; a C kernel prints no Python).
"""

from __future__ import annotations

import ast
import json

import numpy as np
import pytest

from repro.codegen import loopir as ir
from repro.codegen.backends import ctoolchain, get_backend
from repro.codegen.backends import python as python_backend
from repro.codegen.lower import LoweredKernel, LoweringError
from repro.codegen.passes import PIPELINE
from repro.core.compiler import compile_kernel
from repro.core.config import DEFAULT
from repro.kernels.library import KERNELS, get_kernel
from repro.obs import trace
from repro.service.store import DiskStore
from tests import render_corpus
from tests.conftest import replace_node
from tests.test_codegen_kernels import build_inputs

HAVE_CC = get_backend("c").is_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")
BACKENDS = ["python"] + ["c"] * HAVE_CC


# ----------------------------------------------------------------------
# generated names vs user names: a compile-time error on every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "index, symmetric",
    [
        ("t0", {"A": True}),
        ("t1", {"A": True}),
        ("ws0", {"A": True}),
        ("q0_1", {"A": True}),
        ("t0", {}),  # dense A: no position variables, still a temp
    ],
)
def test_index_named_like_a_lowerer_temporary_is_rejected(index, symmetric, backend):
    """These used to compile and die at run time (``t0 = A_vals[q]``
    overwrote the loop index); the non-symmetric C request was silently
    served by Python."""
    einsum = "y[i] += A[i, %s] * x[%s]" % (index, index)
    with pytest.raises(LoweringError, match=repr(index)):
        compile_kernel(
            einsum, symmetric=symmetric, options=DEFAULT.but(backend=backend)
        )


def test_index_named_like_a_prefix_product_is_rejected():
    # 2 * x[w0] is hoisted into the temporary w0
    with pytest.raises(LoweringError, match="'w0'"):
        compile_kernel(
            "y[i] += 2 * A[i, w0] * x[w0]",
            symmetric={"A": True},
            options=DEFAULT.but(backend="python"),
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("loop_order", [("q0_1", "i"), ("i", "q0_1")])
def test_index_named_like_a_position_variable_is_rejected(loop_order, backend):
    """Both are ``int64_t``, so no type clash: Python raised IndexError
    and the compiled kernel never returned (the position loop and the
    index loop were one variable)."""
    with pytest.raises(LoweringError, match="'q0_1'"):
        compile_kernel(
            "y[i] += A[i, q0_1] * x[q0_1]",
            symmetric={"A": True},
            loop_order=loop_order,
            options=DEFAULT.but(backend=backend),
        )


@pytest.mark.parametrize("tensor", ["n_j", "out", "np"])
def test_tensor_named_like_a_kernel_argument_is_rejected(tensor):
    """``n_j`` used to escape as a raw ``SyntaxError: duplicate argument``
    out of ``exec``."""
    with pytest.raises(LoweringError, match=repr(tensor)):
        compile_kernel(
            "y[i] += A[i, j] * %s[j]" % tensor,
            symmetric={"A": True},
            options=DEFAULT.but(backend="python"),
        )


def test_sibling_nests_may_reuse_names():
    # ssymv's two nests both bind j, q0_1, i — reuse across siblings is
    # the normal case and must keep verifying
    program = get_kernel("ssymv").compile().lowered.program
    ir.verify(program)
    assert ir.local_types(program)["q0_1"] == ir.INT


# ----------------------------------------------------------------------
# persistence: IR -> JSON -> IR
# ----------------------------------------------------------------------
def test_round_trip_is_exact_for_the_whole_corpus(corpus):
    """A rehydrated kernel is the same program, so it prints the same
    Python and (program in, text out) the same C as a fresh one."""
    for entry in corpus:
        lowered = entry.kernel.lowered
        again = LoweredKernel.from_dict(json.loads(json.dumps(lowered.to_dict())))
        assert again == lowered, entry.key
        assert again.source == lowered.source, entry.key
        assert render_corpus.c_renderings(again)[0] == entry.c[0], entry.key


def _ssymv_dict() -> list:
    return json.loads(json.dumps(get_kernel("ssymv").compile().lowered.to_dict()))


@pytest.mark.parametrize(
    "old, new",
    [
        (["Var", "t0", "elem"], ["Var", "x; import os", "elem"]),  # not a name
        (["Var", "t0", "elem"], ["Var", "lambda", "elem"]),  # a keyword
        (["Var", "t0", "elem"], ["Var", "t0", "object"]),  # unknown type tag
        (["Var", "t0", "elem"], ["Exec", "t0", "elem"]),  # unknown node tag
        (["Var", "t0", "elem"], ["Var", "t0"]),  # missing field
        (["Var", "t0", "elem"], ["Var", 0, "elem"]),  # wrong field type
        (["Dim", "n_j"], ["Dim", "n_j)\n    import os\n    ("]),
        (["Array", "x", "dense", 1], ["Array", "x", "dense", "1"]),
        (["Array", "x", "dense", 1], ["Array", "x", "socket", 1]),
        (["Const", 0.0], ["Const", "__import__('os')"]),
        ("strict", "strict; DROP"),
        ("float64", "float16"),
    ],
)
def test_from_dict_rejects_forged_programs(old, new):
    data = _ssymv_dict()
    assert LoweredKernel.from_dict(data).source  # the baseline decodes
    forged = replace_node(data, old, new)
    assert forged != data
    with pytest.raises(ValueError, match="persisted kernel"):
        LoweredKernel.from_dict(forged)


def test_from_dict_rejects_a_colliding_program():
    # well-formed nodes, but t0 now names both an int and an elem local
    forged = replace_node(_ssymv_dict(), ["Var", "j", "int"], ["Var", "t0", "int"])
    forged = replace_node(forged, "j", "t0")
    with pytest.raises(ValueError, match="persisted kernel.*'t0'"):
        LoweredKernel.from_dict(forged)


# ----------------------------------------------------------------------
# one representation: no text is parsed back, no Python printed for C
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_objects(monkeypatch, tmp_path):
    objects = tmp_path / "objects"
    objects.mkdir()
    monkeypatch.setattr(ctoolchain, "_build_dir", str(objects))


@needs_cc
def test_c_pipeline_never_parses_source(monkeypatch, tmp_path, rng, fresh_objects):
    """Compile, run, persist, rehydrate and run threaded every library
    kernel with ``ast.parse`` booby-trapped."""
    parsed = []
    store = DiskStore(tmp_path / "store")
    results = {}
    inputs = {name: build_inputs(rng, spec) for name, spec in KERNELS.items()}
    # the trap only records (pytest itself parses source to report a
    # failure) and is lifted before anything is asserted
    with monkeypatch.context() as patch:
        patch.setattr(ast, "parse", lambda *a, **k: parsed.append(a) or ast.Module())
        for name, spec in sorted(KERNELS.items()):
            kernel = spec.compile(options=DEFAULT.but(backend="c", threads=1))
            fresh = np.asarray(kernel(**inputs[name]))
            key = "%064x" % len(results)
            store.put(key, kernel)
            again = store.get(key)
            rehydrated = np.asarray(again(**inputs[name]))
            prepared, shape = again.prepare(**inputs[name])
            threaded = again.finalize(again.run(prepared, shape, threads=2))
            results[name] = (
                kernel.backend, again.backend, fresh, rehydrated, np.asarray(threaded)
            )
    assert parsed == []
    assert store.errors == 0 and store.hits == len(KERNELS)
    for name, (backend, again, fresh, rehydrated, threaded) in results.items():
        assert backend == again == "c", name
        assert np.array_equal(fresh, rehydrated), name
        assert np.array_equal(fresh, threaded), name


@needs_cc
def test_c_kernel_prints_python_only_on_demand(monkeypatch, rng, fresh_objects):
    printed = []
    real = python_backend.print_python

    def counting(program, dtype):
        printed.append(dtype)
        return real(program, dtype)

    spec = get_kernel("ssymv")
    inputs = build_inputs(rng, spec)
    monkeypatch.setattr(python_backend, "print_python", counting)
    kernel = spec.compile(options=DEFAULT.but(backend="c"))
    kernel(**inputs)
    assert printed == []  # compiled and ran without a Python source
    assert "def kernel(" in kernel.source
    assert kernel.source is kernel.source and len(printed) == 1  # cached


@needs_cc
def test_compiler_span_names_are_stable(fresh_objects):
    """``benchmarks/e2e`` attributes cold-compile time by these names."""
    with trace.tracing() as rec:
        get_kernel("mttkrp3d").compile(options=DEFAULT.but(backend="c", threads=1))
    names = {e.name for e in rec.events}
    phases = {"cpass:%s" % p.name for p in PIPELINE}
    assert {"lower", "render_c", "cc", "dlopen"} | phases <= names
