"""The loop-phase pipeline behind the C renderer.

Covers the pipeline's declaration, golden C-source snapshots of its
prefixes (regenerate with ``REPRO_UPDATE_GOLDEN=1``), the render-digest
freeze of the whole corpus, per-phase bit-identity against the Python
backend, and the satellite regressions that rode along with the
pipeline: kernel allocation failure surfacing as a recoverable status.
"""

from __future__ import annotations

import inspect
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.codegen.backends import get_backend, render_c
from repro.codegen.backends.c import render_c_full
from repro.codegen.loopir import Blocked, walk
from repro.codegen.passes import PIPELINE, Pass, base as passes_base, run_pipeline
from repro.core.config import DEFAULT
from repro.kernels.library import get_kernel
from repro.service.keys import cache_key

HAVE_CC = get_backend("c").is_available()
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no working C toolchain")

GOLDEN_DIR = Path(__file__).parent / "golden" / "cpasses"
DIGESTS = Path(__file__).parent / "golden" / "render_digests.json"

PHASES = [p.name for p in PIPELINE]


def _lowered(name):
    return get_kernel(name).compile().lowered


def _through(phase):
    """The pipeline prefix ending with *phase* (``none``: no phase at all;
    ``all``: the whole pipeline)."""
    if phase == "all":
        return PIPELINE
    return PIPELINE[: PHASES.index(phase) + 1 if phase != "none" else 0]


def _render(monkeypatch, lowered, phases, label=None):
    """*lowered*'s C with only *phases* run over it, in their order."""
    with monkeypatch.context() as patch:
        patch.setattr(passes_base, "PIPELINE", tuple(phases))
        return render_c_full(lowered, label).source


# ----------------------------------------------------------------------
# the pipeline: one fixed phase sequence, nothing selects a subset
# ----------------------------------------------------------------------
def test_pipeline_metadata_is_complete():
    # the loop restructurings, then vectorization hints, then the
    # parallelisation decision over what they left behind
    assert PHASES == ["fuse", "tile", "regblock", "simd", "parallelize"]
    for phase in PIPELINE:
        assert phase.describe()  # every phase documents itself
    # a phase takes the loop IR and nothing else; the pipeline and the
    # printer take no configuration, their one other input the profile
    # flag repro.obs.profile_kernel passes (a profiled build stages each
    # blocked nest on its own)
    assert list(inspect.signature(Pass.run).parameters) == ["self", "ir"]
    assert list(inspect.signature(run_pipeline).parameters) == [
        "lowered", "label", "profile"
    ]
    assert list(inspect.signature(render_c_full).parameters) == [
        "lowered", "label", "profile"
    ]


# ----------------------------------------------------------------------
# golden C-source snapshots, one per pipeline prefix: ``<kernel>_<phase>``
# is the C of the pipeline up to and including <phase> (``none``: the
# lowered program as printed), so the diff between two goldens of one
# kernel is what the phases between them did.  ``bellmanford_parallelize``
# is the whole pipeline, what a compile prints.
#
# Rendering is machine-independent: nothing but the program shapes it.
# Regenerate after an intentional renderer change with
#     REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_cpasses.py
# ----------------------------------------------------------------------
GOLDEN_CASES = {
    "ssymv_none": "ssymv",
    "mttkrp3d_none": "mttkrp3d",
    "mttkrp3d_fuse": "mttkrp3d",
    "ssyrk_tile": "ssyrk",
    "mttkrp3d_regblock": "mttkrp3d",
    "mttkrp3d_simd": "mttkrp3d",
    "bellmanford_parallelize": "bellmanford",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_snapshot(case, monkeypatch):
    kernel = GOLDEN_CASES[case]
    phases = _through(case[len(kernel) + 1:])
    src = _render(monkeypatch, _lowered(kernel), phases, label=kernel)
    path = GOLDEN_DIR / ("%s.c" % case)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src)
    golden = path.read_text()
    assert src == golden, (
        "generated C for %s drifted from tests/golden/cpasses/%s.c — "
        "review the diff and regenerate with REPRO_UPDATE_GOLDEN=1" % (kernel, case)
    )


def test_render_digests(corpus):
    """Every generated Python and C source of the corpus, frozen by digest.

    ``tests/render_corpus.py`` spans the library and extension kernels
    (SySTeC and naive) x dtypes, plus user einsums, each rendered to C
    with profiling off and on.  A codegen refactor must keep this green
    without regenerating; an intentional output change regenerates with
    ``REPRO_UPDATE_GOLDEN=1`` and shows up in review as a manifest diff.
    """
    from tests import render_corpus

    configs = ["profile" if profile else "plain" for profile in render_corpus.C_CONFIGS]
    current = {
        "configs": configs,
        "kernels": {entry.key: render_corpus.digest_entry(entry) for entry in corpus},
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


def test_a_leftover_pass_selection_changes_nothing(corpus, monkeypatch, capsys):
    """The variables that used to select loop phases, to pretend the
    compiler lacks OpenMP and to compile per-nest timing in are read by
    nothing: with them set, every corpus lowering renders the C it renders
    without them, a C request keys the same, and ``repro doctor`` names
    each as a variable that is not a knob."""
    from repro.cli import main

    leftover = "REPRO_PASSES"
    also_leftover = "REPRO_NO_OPENMP"
    profile_leftover = "REPRO_PROFILE"
    kwargs = dict(symmetric={"A": True}, options=DEFAULT.but(backend="c"))
    einsum = get_kernel("ssymv").einsum
    key = cache_key(einsum, **kwargs)
    monkeypatch.setenv(leftover, "none")
    monkeypatch.setenv(also_leftover, "1")
    monkeypatch.setenv(profile_leftover, "1")
    for entry in corpus:
        assert render_c(entry.kernel.lowered, "digest") == entry.c[0], entry.key
    assert cache_key(einsum, **kwargs) == key
    main(["doctor"])
    report = capsys.readouterr().out
    for name in (leftover, also_leftover, profile_leftover):
        assert "%s is not a knob" % name in report


#: the C digests of the whole corpus as printed when every ``pos``/``idx``
#: pointer was ``int64_t`` (before the ``rp_index`` declaration), folded
#: into one: sha256 of the ``key:digest,digest`` lines of that manifest
#: (profile off, on), in key order.  That renderer still printed OpenMP
#: bodies for ``+`` scatter nests; the digests are of its output with
#: them switched off for the lowerings that had one, and with the
#: kernel's header comment, includes, min/max helpers and register-blocked
#: nests as they read now (one padded nest per vector extent).  The fold
#: is over today's 74 lowerings.  Each line is the one the earlier
#: 274-lowering corpus folded for that key, or, for a SySTeC kernel, for
#: its lookup-table form (an option then, every SySTeC plan's form now);
#: the ``dense_prefix_slot`` extra, which that corpus lowered only without
#: the table, folds today's render with the substitution below.
INT64_POINTER_DIGEST = "4c66543a7433a5bb7a8997af826e96c6163b6f94c56053d5f58a87020bb291f2"


def test_the_index_type_is_the_only_textual_change(corpus):
    """Take the output clear and the finish entry point (a second
    function after ``kernel``) out of the program, spell ``rp_index`` as
    ``int64_t`` and drop its declaration, and every C source of the 74
    corpus lowerings is byte for byte what the renderer printed with
    64-bit index pointers: the index type and the clear moved every C
    digest of the manifest and changed nothing else — without the clear
    a register-blocked run copies the output in and back whole, as it
    did when the executor filled the buffer."""
    import hashlib
    from dataclasses import replace

    from repro.codegen.backends.c import INDEX_DECLARATION
    from repro.codegen.loopir import ClearOut
    from tests import render_corpus

    declaration = "\n" + "\n".join(INDEX_DECLARATION)
    lines = []
    for entry in corpus:
        lowered = entry.kernel.lowered
        clear, *nests = lowered.program.body
        assert isinstance(clear, ClearOut), entry.key
        program = replace(lowered.program, body=tuple(nests), finish=())
        digests = []
        for src in render_corpus.c_renderings(replace(lowered, program=program)):
            assert src.count(declaration) == 1, entry.key
            old = src.replace(declaration, "").replace("rp_index", "int64_t")
            digests.append(render_corpus.sha(old)[:16])
        lines.append("%s:%s" % (entry.key, ",".join(digests)))
    assert len(lines) == 74
    folded = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert folded == INT64_POINTER_DIGEST


def test_regblock_moves_only_the_lowerings_it_blocks(corpus, monkeypatch):
    """Register blocking changes generated C only where it wraps a nest.

    Every lowering of the corpus renders, with the phase taken out of the
    pipeline, to the C it renders with it exactly when no nest of it is
    blocked — so SSYMV, SYPRD, SSYRK and every kernel whose vector nests
    are all ``If``-guarded print what they printed before the phase
    existed — and a lowering with a blocked nest prints new C under both
    profile settings.
    """
    from tests import render_corpus

    blocked = {
        entry.key: any(
            isinstance(s, Blocked) for s in walk(run_pipeline(entry.kernel.lowered).body)
        )
        for entry in corpus
    }
    monkeypatch.setattr(
        passes_base, "PIPELINE", tuple(p for p in PIPELINE if p.name != "regblock")
    )
    moved = set()
    for entry in corpus:
        before = render_corpus.c_renderings(entry.kernel.lowered)
        changed = [now != then for now, then in zip(entry.c, before)]
        assert changed == [blocked[entry.key]] * len(changed), entry.key
        if blocked[entry.key]:
            moved.add(entry.key)
    assert {key.split("|")[0] for key in moved} == BLOCKED_KERNELS
    assert len(moved) == BLOCKED_LOWERINGS


#: the corpus kernels with a nest the regblock phase wraps (SySTeC and
#: naive plans alike), and how many of the 74 corpus lowerings have one
BLOCKED_KERNELS = {
    "mttkrp3d", "mttkrp4d", "mttkrp5d", "ttm", "ttm4d",
    "extra:row_min", "extra:row_min_ws",
}
BLOCKED_LOWERINGS = 24


def test_each_pass_changes_only_its_marker(monkeypatch):
    """Each phase's step along the pipeline shows its transformation and
    nothing else's (phases compose but do not leak into one another)."""

    def through(lowered, phase):
        return _render(monkeypatch, lowered, _through(phase))

    base = through(_lowered("ssymv"), "none")
    assert "#pragma omp simd" not in base and "rp_tile" not in base

    mttkrp = _lowered("mttkrp3d")
    plain = through(mttkrp, "none")
    fused = through(mttkrp, "fuse")
    assert fused.count("for (_v = 0") < plain.count("for (_v = 0")
    assert through(mttkrp, "tile") == fused  # no SSYRK-shaped nest

    blocked = through(mttkrp, "regblock")
    assert "rp_vb" in blocked and "rp_vb" not in fused

    simd = through(mttkrp, "simd")
    assert "#pragma omp simd" in simd and "#pragma omp simd" not in blocked
    unhinted = "\n".join(
        line for line in simd.split("\n") if line.strip() != "#pragma omp simd"
    )
    assert unhinted == blocked
    # a + scatter gets no team body: the last phase prints nothing new
    assert through(mttkrp, "parallelize") == simd

    ssyrk = _lowered("ssyrk")
    tiled = through(ssyrk, "tile")
    assert "rp_tile" in tiled and "rp_thi" in tiled
    assert "rp_tile" not in through(ssyrk, "fuse")


def test_rendering_under_passes_is_deterministic():
    lowered = _lowered("ssyrk")
    assert render_c(lowered) == render_c(lowered)


# ----------------------------------------------------------------------
# per-phase bit-identity against the Python backend: the pipeline's
# prefixes, each compiled on its own (distinct sources never share an
# object: the object cache names them by content)
# ----------------------------------------------------------------------
@needs_cc
@pytest.mark.parametrize("passes", ["none", "fuse", "tile", "simd", "all"])
@pytest.mark.parametrize("name", ["ssymv", "ssyrk"])
def test_pass_output_bit_identical_to_python(name, passes, monkeypatch):
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

    monkeypatch.setattr(passes_base, "PIPELINE", _through(passes))
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
    untiled = tuple(p for p in PIPELINE if p.name != "tile")
    results = {}
    for phases, backend in ((PIPELINE, "python"), (PIPELINE, "c"), (untiled, "c")):
        monkeypatch.setattr(passes_base, "PIPELINE", phases)
        kernel = spec.compile(options=DEFAULT.but(backend=backend, threads=1))
        assert ("rp_tile" in kernel.backend_source) is (backend == "c" and phases == PIPELINE)
        results[len(phases), backend] = np.asarray(kernel(A=A)).tobytes()
    assert len(results) == 3 and len(set(results.values())) == 1


# ----------------------------------------------------------------------
# satellite regressions
# ----------------------------------------------------------------------
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
