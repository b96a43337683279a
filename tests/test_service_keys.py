"""Cache-key canonicalization: equivalent specs collide, different specs
don't."""

from dataclasses import fields, replace

import pytest

from repro import DEFAULT, NAIVE, cache_key
from repro.codegen.backends.base import CodegenConfig
from repro.core.config import RUNTIME_FIELDS, CompilerOptions
from repro.frontend.parser import parse_assignment
from repro.service.keys import KEY_VERSION, canonicalize

SSYMV = "y[i] += A[i, j] * x[j]"


def test_key_is_sha256_hex():
    key = cache_key(SSYMV, symmetric={"A": True})
    assert len(key) == 64
    assert set(key) <= set("0123456789abcdef")


def test_string_and_parsed_assignment_share_a_key():
    assert cache_key(SSYMV, symmetric={"A": True}) == cache_key(
        parse_assignment(SSYMV), symmetric={"A": True}
    )


def test_symmetry_spec_forms_share_a_key():
    keys = {
        cache_key(SSYMV, symmetric={"A": True}),
        cache_key(SSYMV, symmetric={"A": [[0, 1]]}),
        cache_key(SSYMV, symmetric={"A": "{0,1}"}),
    }
    assert len(keys) == 1


def test_default_loop_order_explicit_or_omitted_share_a_key():
    a = parse_assignment(SSYMV)
    inferred = tuple(reversed(a.free_indices))
    assert cache_key(SSYMV, symmetric={"A": True}) == cache_key(
        SSYMV, symmetric={"A": True}, loop_order=inferred
    )


def test_default_formats_explicit_or_omitted_share_a_key():
    keys = {
        cache_key(SSYMV, symmetric={"A": True}),
        cache_key(SSYMV, symmetric={"A": True}, formats={"A": "sparse"}),
        cache_key(
            SSYMV,
            symmetric={"A": True},
            formats={"x": "dense", "A": "sparse", "y": "dense"},
        ),
    }
    assert len(keys) == 1


def test_distinct_specs_get_distinct_keys():
    base = cache_key(SSYMV, symmetric={"A": True})
    assert base != cache_key(SSYMV)  # no symmetry declared
    assert base != cache_key(SSYMV, symmetric={"A": True}, loop_order=("i", "j"))
    assert base != cache_key(SSYMV, symmetric={"A": True}, formats={"A": "dense"})
    assert base != cache_key(
        SSYMV, symmetric={"A": True}, options=DEFAULT.but(cse=False)
    )
    assert base != cache_key(SSYMV, symmetric={"A": True}, naive=True)
    assert base != cache_key(
        SSYMV,
        symmetric={"A": True},
        sparse_levels={"A": ("dense", "sparse")},
    )
    assert base != cache_key("z[i] += A[i, j] * x[j]", symmetric={"A": True})


def test_naive_collapses_plan_options_into_one_key():
    """The naive path forces the NAIVE switch set, so plan-level option
    differences are irrelevant — only vectorization survives."""
    a = cache_key(SSYMV, symmetric={"A": True}, naive=True)
    b = cache_key(
        SSYMV, symmetric={"A": True}, naive=True, options=DEFAULT.but(cse=False)
    )
    c = cache_key(
        SSYMV,
        symmetric={"A": True},
        naive=True,
        options=DEFAULT.but(vectorize_innermost=False),
    )
    assert a == b
    assert a != c


def test_key_material_carries_version_salt():
    request = canonicalize(SSYMV, symmetric={"A": True})
    assert request.key_material().startswith("v%d|" % KEY_VERSION)


def test_canonicalize_rejects_unknown_format_names():
    with pytest.raises(ValueError, match="Z"):
        canonicalize(SSYMV, symmetric={"A": True}, formats={"Z": "sparse"})


def test_request_compiles_to_a_working_kernel(rng):
    import numpy as np

    from tests.conftest import make_symmetric_matrix

    request = canonicalize(SSYMV, symmetric={"A": True}, loop_order=("j", "i"))
    kernel = request.compile()
    A = make_symmetric_matrix(rng, 9, 0.6)
    x = rng.random(9)
    np.testing.assert_allclose(kernel(A=A, x=x), A @ x, rtol=1e-12)


def test_naive_request_uses_naive_options():
    request = canonicalize(SSYMV, symmetric={"A": True}, naive=True)
    # the pass switches collapse onto NAIVE; the backend is resolved
    # independently (canonical requests never carry "auto")
    assert request.options == NAIVE.but(backend=request.options.backend)
    assert request.options.backend != "auto"
    assert request.compile().plan.history == ("naive",)


def test_canonicalize_defaults_match_compiled_kernel():
    """Keys and compiler share one defaulting code path (resolve_request):
    what the key says must be what the compiled kernel carries."""
    from repro import compile_kernel

    request = canonicalize(SSYMV, symmetric={"A": True})
    kernel = compile_kernel(SSYMV, symmetric={"A": True})
    assert request.loop_order == kernel.plan.loop_order
    assert dict(request.formats) == kernel.formats
    assert request.options == kernel.options


# ----------------------------------------------------------------------
# the configuration half of the key is derived, not listed
# ----------------------------------------------------------------------
def _flipped(value):
    """Some other valid value of the same field."""
    if isinstance(value, bool):
        return not value
    return {
        "float64": "float32", "c": "python", 1: 2,
    }[value]


def _c_request():
    # every environment-backed value is pinned by hand, so no knob a CI
    # leg sets can move the reference point
    request = canonicalize(SSYMV, symmetric={"A": True})
    return replace(
        request,
        options=request.options.but(backend="c", dtype="float64", threads=1),
        codegen=CodegenConfig(),
    )


@pytest.mark.parametrize("name", [f.name for f in fields(CompilerOptions)])
def test_every_option_field_is_keyed_unless_runtime_only(name):
    request = _c_request()
    value = getattr(request.options, name)
    flipped = replace(request, options=request.options.but(**{name: _flipped(value)}))
    assert (flipped.key == request.key) is (name in RUNTIME_FIELDS)


@pytest.mark.parametrize("name", [f.name for f in fields(CodegenConfig)])
def test_every_codegen_field_is_keyed(name):
    """No codegen field is runtime-only: each changes the generated C."""
    request = _c_request()
    value = getattr(request.codegen, name)
    config = replace(request.codegen, **{name: _flipped(value)})
    assert replace(request, codegen=config).key != request.key


def test_python_requests_ignore_every_codegen_knob(monkeypatch):
    options = DEFAULT.but(backend="python")
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    plain = canonicalize(SSYMV, symmetric={"A": True}, options=options)
    monkeypatch.setenv("REPRO_PROFILE", "1")
    knobbed = canonicalize(SSYMV, symmetric={"A": True}, options=options)
    assert plain.codegen is None and knobbed.codegen is None
    assert plain.key == knobbed.key
    # and a codegen handed to a python request is dropped, not keyed
    forced = canonicalize(
        SSYMV, symmetric={"A": True}, options=options, codegen=CodegenConfig()
    )
    assert forced.codegen is None and forced.key == plain.key
