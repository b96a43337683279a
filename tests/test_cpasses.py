"""The composable C-renderer pass pipeline.

Covers the ``$REPRO_PASSES`` grammar, the cache-key signature, golden
C-source snapshots per pass (regenerate with ``REPRO_UPDATE_GOLDEN=1``),
per-pass bit-identity against the Python backend, pass-set cache keying,
and the satellite regressions that rode along with the pipeline: the
OpenMP-strategy warn-once and kernel allocation failure surfacing as a recoverable status.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.codegen.backends import ctoolchain, get_backend, render_c
from dataclasses import replace

from repro.codegen.backends.base import CodegenConfig
from repro.codegen.passes import (
    PASS_ORDER,
    PIPELINE,
    PassConfig,
    describe_passes,
    parse_passes,
)
from repro.core.config import DEFAULT
from repro.kernels.library import get_kernel
from repro.service.keys import cache_key, canonicalize

HAVE_CC = get_backend("c").is_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")

GOLDEN_DIR = Path(__file__).parent / "golden" / "cpasses"
DIGESTS = Path(__file__).parent / "golden" / "render_digests.json"


def _lowered(name):
    return get_kernel(name).compile().lowered


# ----------------------------------------------------------------------
# the $REPRO_PASSES grammar
# ----------------------------------------------------------------------
def test_default_set_is_the_bit_exact_never_regressing_passes():
    assert parse_passes("") == PASS_ORDER == ("fuse", "tile", "simd")


def test_none_all_default_reset_the_working_set():
    assert parse_passes("none") == ()
    # every pass is on by default, so "all" is "default"
    assert parse_passes("all") == parse_passes("default") == PASS_ORDER
    assert parse_passes("none,default") == parse_passes("-tile,all") == PASS_ORDER
    # tokens apply left to right
    assert parse_passes("all,none") == ()
    assert parse_passes("none,tile") == ("tile",)


def test_plus_minus_bang_prefixes():
    assert parse_passes("none,+fuse") == ("fuse",)
    assert parse_passes("-fuse") == ("tile", "simd")
    assert parse_passes("!simd,-fuse") == ("tile",)
    assert parse_passes("-tile") == ("fuse", "simd")


def test_result_is_always_in_pipeline_order():
    assert parse_passes("none,simd,tile,fuse") == ("fuse", "tile", "simd")


def test_unknown_tokens_warn_once_and_are_ignored():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parse_passes("vectorize,tile,none,tile") == ("tile",)
        assert parse_passes("vectorize") == PASS_ORDER
    ours = [w for w in caught if "REPRO_PASSES" in str(w.message)]
    assert len(ours) == 1
    assert "vectorize" in str(ours[0].message)


def test_strict_parse_names_the_unknown_token():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # raised, never warned
        with pytest.raises(ValueError, match="'bogus'.*fuse, tile, simd"):
            parse_passes("none,bogus,tile", strict=True)
        assert parse_passes("none,-simd,+tile", strict=True) == ("tile",)


def test_env_config_reads_passes(monkeypatch):
    monkeypatch.setenv("REPRO_PASSES", "none,tile")
    config = CodegenConfig.resolve().passes
    assert config.enabled == ("tile",)
    assert config.tile_rows == 0  # only an explicit PassConfig pins the block size


def test_signature_is_canonical():
    assert PassConfig(enabled=()).signature() == "none"
    assert PassConfig(enabled=("simd", "fuse")).signature() == "fuse+simd"
    assert PassConfig(enabled=("tile",)).signature() == "tile@auto"
    assert PassConfig(enabled=("tile",), tile_rows=64).signature() == "tile@64"
    assert (
        PassConfig(enabled=PASS_ORDER, tile_rows=8).signature()
        == "fuse+tile@8+simd"
    )
    # the default signature, which every default cache key contains
    assert CodegenConfig().passes.signature() == "fuse+tile@auto+simd"


def test_pipeline_metadata_is_complete():
    # the REPRO_PASSES tokens, then the one phase a CodegenConfig field
    # switches instead (never a token, never in a signature)
    assert [p.name for p in PIPELINE] == ["fuse", "tile", "simd", "parallelize"]
    assert tuple(p.name for p in PIPELINE if p.token) == PASS_ORDER
    off = CodegenConfig("serial", False, PassConfig(enabled=()))
    for name, enabled, description in describe_passes(off):
        assert name in PASS_ORDER + ("parallelize",)
        assert not enabled
        assert description  # every pass documents itself
    assert describe_passes(replace(off, omp_strategy="auto"))[-1][:2] == (
        "parallelize",
        True,
    )


def test_active_config_honors_env(monkeypatch):
    monkeypatch.setenv("REPRO_PASSES", "none")
    assert CodegenConfig.resolve().passes.signature() == "none"
    monkeypatch.setenv("REPRO_PASSES", "none,fuse")
    assert CodegenConfig.resolve().passes.signature() == "fuse"
    # an explicit spec (repro compile --passes) takes the variable's place
    assert CodegenConfig.resolve(passes="none,simd").passes.signature() == "simd"


def test_resolving_a_config_runs_no_toolchain(monkeypatch):
    """Resolution reads the environment only: with every probe build
    failing loudly and nothing memoized, ``all`` still resolves."""

    def no_cc(*args):
        raise AssertionError("CodegenConfig.resolve ran the toolchain")

    monkeypatch.setattr(ctoolchain, "_probed", {})
    monkeypatch.setattr(ctoolchain, "_probe_build_runs", no_cc)
    monkeypatch.setenv("REPRO_PASSES", "all")
    assert CodegenConfig.resolve().passes == CodegenConfig().passes


# ----------------------------------------------------------------------
# golden C-source snapshots (one kernel per pass; on/off diffs)
#
# Rendering is machine-independent: an explicit PassConfig is rendered
# verbatim, and the env knobs that change emission are cleared.
# Regenerate after an intentional renderer change with
#     REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_cpasses.py
# ----------------------------------------------------------------------
GOLDEN_CASES = {
    "ssymv_none": ("ssymv", PassConfig(enabled=())),
    "mttkrp3d_none": ("mttkrp3d", PassConfig(enabled=())),
    "mttkrp3d_fuse": ("mttkrp3d", PassConfig(enabled=("fuse",))),
    "ssyrk_tile": ("ssyrk", PassConfig(enabled=("tile",))),
    "mttkrp3d_simd": ("mttkrp3d", PassConfig(enabled=("simd",))),
}


@pytest.fixture
def _clean_render_env(monkeypatch):
    for name in ("REPRO_OMP_STRATEGY", "REPRO_PROFILE", "REPRO_PASSES"):
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_snapshot(case, _clean_render_env):
    kernel, config = GOLDEN_CASES[case]
    src = render_c(_lowered(kernel), label=kernel, passes=config)
    path = GOLDEN_DIR / ("%s.c" % case)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src)
    golden = path.read_text()
    assert src == golden, (
        "generated C for %s drifted from tests/golden/cpasses/%s.c — "
        "review the diff and regenerate with REPRO_UPDATE_GOLDEN=1" % (kernel, case)
    )


def test_render_digests(_clean_render_env):
    """Every generated Python and C source of the corpus, frozen by digest.

    ``tests/render_corpus.py`` spans the library and extension kernels
    (SySTeC and naive) x dtypes x lowering ablations, each rendered to C
    under every pass set x parallel mode x profile flag.  A codegen
    refactor must keep this green without regenerating; an intentional
    output change regenerates with ``REPRO_UPDATE_GOLDEN=1`` and shows
    up in review as a manifest diff.
    """
    from tests import render_corpus

    configs = ["%s|%s|%s" % (p, par, "profile" if prof else "plain")
               for p, par, prof in render_corpus.C_CONFIGS]
    current = {
        "configs": configs,
        "kernels": {
            key: render_corpus.digest_entry(kernel)
            for key, kernel in render_corpus.lowerings()
        },
    }
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        DIGESTS.write_text(json.dumps(current, indent=0, sort_keys=True) + "\n")
    golden = json.loads(DIGESTS.read_text())
    assert golden["configs"] == configs
    assert sorted(golden["kernels"]) == sorted(current["kernels"])
    drift = []
    for key, entry in current["kernels"].items():
        want = golden["kernels"][key]
        if entry["py"] != want["py"]:
            drift.append("%s: python source" % key)
        drift.extend(
            "%s: C under %s" % (key, config)
            for config, got, exp in zip(configs, entry["c"], want["c"])
            if got != exp
        )
    assert not drift, (
        "%d generated sources drifted from tests/golden/render_digests.json "
        "(first: %s) — review and regenerate with REPRO_UPDATE_GOLDEN=1"
        % (len(drift), "; ".join(drift[:8]))
    )


def test_each_pass_changes_only_its_marker(_clean_render_env):
    """The on/off diff of each pass shows its transformation and nothing
    else's (passes compose but do not leak into one another)."""
    base = render_c(_lowered("ssymv"), passes=PassConfig(enabled=()))
    assert "#pragma omp simd" not in base and "rp_tile" not in base

    mttkrp = _lowered("mttkrp3d")
    plain = render_c(mttkrp, passes=PassConfig(enabled=()))
    fused = render_c(mttkrp, passes=PassConfig(enabled=("fuse",)))
    assert fused.count("for (_v = 0") < plain.count("for (_v = 0")

    simd = render_c(mttkrp, passes=PassConfig(enabled=("simd",)))
    assert "#pragma omp simd" in simd and "#pragma omp simd" not in plain

    ssyrk = _lowered("ssyrk")
    tiled = render_c(ssyrk, passes=PassConfig(enabled=("tile",)))
    assert "rp_tile" in tiled and "rp_thi" in tiled
    assert "rp_tile" not in render_c(ssyrk, passes=PassConfig(enabled=()))


def test_explicit_tile_rows_are_emitted(_clean_render_env):
    src = render_c(
        _lowered("ssyrk"), passes=PassConfig(enabled=("tile",), tile_rows=32)
    )
    assert "int64_t rp_tile = 32;" in src
    auto = render_c(_lowered("ssyrk"), passes=PassConfig(enabled=("tile",)))
    assert "sizeof" in auto and "rp_tile" in auto


def test_rendering_under_passes_is_deterministic(_clean_render_env):
    lowered = _lowered("ssyrk")
    config = PassConfig(enabled=PASS_ORDER)
    assert render_c(lowered, passes=config) == render_c(lowered, passes=config)


# ----------------------------------------------------------------------
# pass-set cache keying
# ----------------------------------------------------------------------
def test_pass_set_keys_c_requests(monkeypatch):
    spec = get_kernel("ssymv")
    opts = DEFAULT.but(backend="c")
    kwargs = dict(symmetric={"A": True}, options=opts)
    monkeypatch.setenv("REPRO_PASSES", "none")
    none_key = cache_key(spec.einsum, **kwargs)
    monkeypatch.setenv("REPRO_PASSES", "none,tile")
    tiled = canonicalize(spec.einsum, **kwargs)
    assert none_key != tiled.key
    pinned = replace(tiled.codegen, passes=PassConfig(("tile",), tile_rows=64))
    assert replace(tiled, codegen=pinned).key != tiled.key
    monkeypatch.setenv("REPRO_PASSES", "none")
    assert cache_key(spec.einsum, **kwargs) == none_key


def test_pass_set_does_not_key_python_requests(monkeypatch):
    spec = get_kernel("ssymv")
    kwargs = dict(symmetric={"A": True}, options=DEFAULT.but(backend="python"))
    monkeypatch.setenv("REPRO_PASSES", "none")
    first = cache_key(spec.einsum, **kwargs)
    monkeypatch.setenv("REPRO_PASSES", "all")
    assert cache_key(spec.einsum, **kwargs) == first


@pytest.mark.parametrize(
    "leftover, token, same_as",
    [
        # bare tokens add to the default set, so this is the default
        ("fission,tile", "fission", "tile"),
        ("none,fission,tile", "fission", "none,tile"),
        ("denormals", "denormals", ""),
    ],
)
def test_a_deleted_pass_token_warns_once_and_keys_as_the_rest(
    leftover, token, same_as, monkeypatch
):
    """``fission`` and ``denormals`` are gone: a leftover token takes the
    unknown-token path and the request keys as if it were not there."""
    kwargs = dict(symmetric={"A": True}, options=DEFAULT.but(backend="c"))
    einsum = get_kernel("ssymv").einsum
    monkeypatch.setenv("REPRO_PASSES", same_as)
    expected = cache_key(einsum, **kwargs)
    monkeypatch.setenv("REPRO_PASSES", leftover)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache_key(einsum, **kwargs) == expected
        assert cache_key(einsum, **kwargs) == expected
    ours = [str(w.message) for w in caught if "REPRO_PASSES" in str(w.message)]
    assert len(ours) == 1 and repr(token) in ours[0]


# ----------------------------------------------------------------------
# per-pass bit-identity against the Python backend
# ----------------------------------------------------------------------
@needs_cc
@pytest.mark.parametrize("passes", ["none", "fuse", "tile", "simd", "all"])
@pytest.mark.parametrize("name", ["ssymv", "ssyrk"])
def test_pass_output_bit_identical_to_python(name, passes, monkeypatch):
    monkeypatch.setenv("REPRO_PASSES", "none,%s" % passes)
    spec = get_kernel(name)
    rng = np.random.default_rng(7)
    n = 24
    A = np.zeros((n, n))
    mask = rng.random((n, n)) < 0.3
    A[mask] = rng.standard_normal(mask.sum())
    A = A + A.T
    inputs = {"A": A}
    if name == "ssymv":
        inputs["x"] = rng.standard_normal(n)
    else:
        inputs["B"] = rng.standard_normal((n, 8))

    ref_kernel = spec.compile(options=DEFAULT.but(backend="python"))
    prepared, shape = ref_kernel.prepare(**inputs)
    ref = ref_kernel.finalize(ref_kernel.run(prepared, shape))

    c_kernel = spec.compile(options=DEFAULT.but(backend="c"))
    prepared, shape = c_kernel.prepare(**inputs)
    serial = c_kernel.finalize(c_kernel.run(prepared, shape, threads=1))
    assert np.asarray(serial).tobytes() == np.asarray(ref).tobytes()
    threaded = c_kernel.finalize(c_kernel.run(prepared, shape, threads=3))
    assert np.asarray(threaded).tobytes() == np.asarray(ref).tobytes()


@needs_cc
def test_default_tiling_over_several_blocks_is_bit_identical(monkeypatch):
    """The run-time block count exceeds one only past 1 MiB of output:
    512 rows of 4 KiB make two blocks (the density cap allows six)."""
    rng = np.random.default_rng(11)
    A = rng.standard_normal((512, 64)) * (rng.random((512, 64)) < 0.05)
    spec = get_kernel("ssyrk")
    results = {}
    for passes, backend in (("", "python"), ("", "c"), ("-tile", "c")):
        monkeypatch.setenv("REPRO_PASSES", passes)
        kernel = spec.compile(options=DEFAULT.but(backend=backend, threads=1))
        results[passes, backend] = np.asarray(kernel(A=A)).tobytes()
    assert len(set(results.values())) == 1


# ----------------------------------------------------------------------
# satellite regressions
# ----------------------------------------------------------------------
def test_omp_strategy_warns_once_per_value(monkeypatch):
    monkeypatch.setenv("REPRO_OMP_STRATEGY", "bogus-strategy")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert CodegenConfig.resolve().omp_strategy == "auto"
        assert CodegenConfig.resolve().omp_strategy == "auto"
    ours = [w for w in caught if "REPRO_OMP_STRATEGY" in str(w.message)]
    assert len(ours) == 1


@needs_cc
def test_kernel_status_abi_reports_clean_zero():
    """Every generated kernel now returns an allocation status; the happy
    path must come back 0 through the ctypes boundary."""
    spec = get_kernel("ssymv")
    kernel = spec.compile(options=DEFAULT.but(backend="c"))
    assert "int64_t kernel(" in kernel.backend_source
    assert "return rp_status;" in kernel.backend_source
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    out = kernel(A=A, x=np.array([1.0, 2.0]))
    assert np.allclose(out, A @ np.array([1.0, 2.0]))
