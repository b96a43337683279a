"""Cache-key canonicalization: equivalent specs collide, different specs
don't."""

from dataclasses import fields, replace

import pytest

from repro import DEFAULT, cache_key
from repro.core.config import RUNTIME_FIELDS, CompilerOptions
from repro.frontend import parser
from repro.frontend.parser import ParseError, parse_assignment
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


def test_an_einsum_text_is_tokenized_once_and_a_bad_one_raises_every_time(monkeypatch):
    texts = []
    real = parser._tokenize
    monkeypatch.setattr(parser, "_tokenize", lambda text: texts.append(text) or real(text))
    text = "z[k] += B[k, l] * w[l]"  # a text no other test canonicalizes
    first, second = (canonicalize(text, symmetric={"B": True}) for _ in range(2))
    assert texts == [text] and first.assignment is second.assignment
    for _ in range(2):
        with pytest.raises(ParseError):
            canonicalize("z[k] += B[k, l] ? w[l]")
    assert texts[1:] == ["z[k] += B[k, l] ? w[l]"] * 2


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
        SSYMV, symmetric={"A": True}, options=DEFAULT.but(dtype="float32")
    )
    naive = cache_key(SSYMV, symmetric={"A": True}, naive=True)
    assert base != naive
    assert naive != cache_key(
        SSYMV,
        symmetric={"A": True},
        naive=True,
        options=DEFAULT.but(dtype="float32"),
    )
    assert base != cache_key(
        SSYMV,
        symmetric={"A": True},
        sparse_levels={"A": ("dense", "sparse")},
    )
    assert base != cache_key("z[i] += A[i, j] * x[j]", symmetric={"A": True})


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
    # the lookup table is dropped; the backend is resolved independently
    # (canonical requests never carry "auto")
    assert request.options == DEFAULT.but(backend=request.options.backend)
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
    )


@pytest.mark.parametrize("name", [f.name for f in fields(CompilerOptions)])
def test_every_option_field_is_keyed_unless_runtime_only(name):
    request = _c_request()
    value = getattr(request.options, name)
    flipped = replace(request, options=request.options.but(**{name: _flipped(value)}))
    assert (flipped.key == request.key) is (name in RUNTIME_FIELDS)
