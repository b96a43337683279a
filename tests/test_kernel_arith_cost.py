"""What the generated loops may cost, as counts (never timings).

Hierarchical workspaces: the innermost loop of an MTTKRP's strict nest
holds two accumulations of one multiply each, whatever the tensor order,
in the one register-blocked nest the C printer emits; kernels with
nothing to factor lower exactly as before; the naive lowering factors
nothing.  Register blocking: a blocked nest reads and writes only
block-local workspaces, the diagonal nests — orbit-guarded, or driven by
a lookup table — are blocked too, and no kernel with a vector index
prints an element loop whose trip count is known only at run time (what
makes ``cc`` slow on MTTKRP).
Row tiling: the run-time block count is about 1 MiB of output rows per
block, capped at a quarter of the mean fiber length — checked on the C
the renderer prints, compiled on its own.  The output clear: every
generated source resets its output once, a symmetric output's only up
to the row index, no executor fill runs per call, profiling sees the
same nests, and the clear pulls no libc symbol into the objects that
had none.  On an AVX-512 host the blocked row updates compute in 512-bit
registers.
"""

import ctypes
import hashlib
import inspect
import re
import shutil
import subprocess
from dataclasses import replace

import numpy as np
import pytest

from repro.codegen import loopir as ir
from repro.codegen.backends import ctoolchain, get_backend, render_c
from repro.codegen.backends.python import print_python
from repro.codegen.executor import ExecutionPlan
from repro.codegen.lower import lower_plan
from repro.codegen.passes import run_pipeline
from repro.codegen.passes.regblock import WIDTH
from repro.codegen.passes.tile import auto_tile_rows
from repro.core.config import DEFAULT
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import KERNELS, get_kernel

needs_cc = pytest.mark.skipif(
    not get_backend("c").is_available(), reason="no working C toolchain"
)

PYTHON = DEFAULT.but(backend="python")


def _program(name):
    spec = {**KERNELS, **EXTENSIONS}[name]
    return spec.compile(options=PYTHON).lowered.program


def _nests(name):
    """The program's loop nests: its body after the output clear."""
    clear, *nests = _program(name).body
    assert isinstance(clear, ir.ClearOut)
    return nests


def _multiplies(expr) -> int:
    if isinstance(expr, ir.BinOp):
        own = len(expr.args) - 1 if expr.op == "*" else 0
        return own + sum(_multiplies(a) for a in expr.args)
    return 0


def _innermost_fiber(nest):
    loops = [s for s in ir.walk([nest]) if isinstance(s, ir.FiberLoop)]
    (inner,) = [
        f for f in loops if not any(isinstance(s, ir.Loop) for s in f.body)
    ]
    return inner


def _serial_c(name) -> str:
    spec = {**KERNELS, **EXTENSIONS}[name]
    lowered = spec.compile(options=PYTHON).lowered
    return render_c(lowered)


def _strict_block(source):
    """The source lines of the first register-blocked nest (the strict
    one): the body of its ``rp_vb`` loop."""
    lines = source.splitlines()
    start = next(n for n, line in enumerate(lines) if "for (rp_vb = 0;" in line)
    indent = lines[start][: len(lines[start]) - len(lines[start].lstrip())]
    return lines[start + 1 : lines.index(indent + "}", start)]


def _element_updates(lines):
    """``(target, multiplies in value)`` per statement of every element
    loop (``target += value;`` or, for an ``Init``, ``target = value;``)."""
    found = []
    for line in lines:
        if "for (_v = 0;" in line:
            body = line.split("{", 1)[1].rsplit("}", 1)[0]
            for stmt in body.split(";")[:-1]:
                target, _, value = stmt.strip().partition("= ")
                found.append((target.rstrip(" +"), value.count("*")))
    return found


def _innermost_body(lines):
    """The lines of the deepest fiber loop (``for (q0_<depth>``) of a nest."""
    depth = max(int(m) for m in re.findall(r"for \(q0_(\d+) =", "\n".join(lines)))
    head = next(n for n, line in enumerate(lines) if "for (q0_%d =" % depth in line)
    indent = lines[head][: len(lines[head]) - len(lines[head].lstrip())]
    return lines[head + 1 : lines.index(indent + "}", head)]


# ----------------------------------------------------------------------
# (a) hierarchical workspaces, counted on the IR and in the printed
# strict nest
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["mttkrp3d", "mttkrp4d", "mttkrp5d"])
def test_mttkrp_strict_inner_loop_is_two_multiplies_at_any_order(name):
    strict = _nests(name)[0]
    inner = _innermost_fiber(strict)
    assert inner.tensor_filter == "strict"
    updates = [s for s in inner.body if isinstance(s, ir.Reduce)]
    assert len(updates) == 2
    assert [_multiplies(s.value) for s in updates] == [1, 1]
    # the scatter onto the innermost coordinate and the one shared sum
    assert isinstance(updates[0].target, ir.Out)
    assert isinstance(updates[1].target, ir.Var)
    # nothing else in that loop computes: the rest are the hoisted reads
    others = [s for s in inner.body if not isinstance(s, ir.Reduce)]
    assert all(isinstance(s, ir.Let) and not _multiplies(s.expr) for s in others)
    # ... and the nest the C printer emits does exactly that per nonzero
    printed = _element_updates(_innermost_body(_strict_block(_serial_c(name))))
    assert [n for _, n in printed] == [1, 1]
    assert printed[0][0].startswith("rp_out[") and printed[1][0] == "ws0[_v]"


@pytest.mark.parametrize("name", ["mttkrp3d", "mttkrp4d", "mttkrp5d"])
def test_mttkrp_strict_nest_multiplies_grow_with_depth_not_per_nonzero(name):
    """Each loop level adds one prefix step, one flush and one fold."""
    order = int(name[6])
    strict = _nests(name)[0]
    stmts = [s for s in ir.walk([strict]) if isinstance(s, (ir.Reduce, ir.Init, ir.Let))]
    total = sum(
        _multiplies(s.expr if isinstance(s, ir.Let) else s.value) for s in stmts
    )
    # inner 2; per outer level: prefix step 1, flush 1, fold 1 (the
    # outermost level has no fold)
    expected = 2 + 3 * (order - 1) - 1
    assert total == expected
    assert sum(n for _, n in _element_updates(_strict_block(_serial_c(name)))) == expected


# ----------------------------------------------------------------------
# (b) register blocking of the vector index
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["mttkrp3d", "mttkrp4d", "ttm"])
def test_the_blocked_branch_names_no_malloced_workspace(name):
    """Each blocked nest keeps its workspaces in block-local arrays; the
    heap holds only the padded copies its staging allocates."""
    spec = {**KERNELS, **EXTENSIONS}[name]
    lowered = spec.compile(options=PYTHON).lowered
    source = render_c(lowered)
    assert not re.search(r"= \(\w+ \*\) malloc", source)
    assert re.findall(r"(\w+) = \(\w+ \*\) calloc", source) == ["rp_out", "rp_B"]
    # every workspace is a block-local array, declared once, where its
    # Init is, and every element loop is one block wide
    ws = {n for n, tag in ir.local_types(lowered.program).items() if tag == ir.WS}
    local = re.findall(r"^\s*(?:double|float) (\w+)\[%d\];$" % WIDTH, source, re.M)
    assert ws and sorted(local) == sorted(ws)
    loops = re.findall(r"for \(_v = 0; _v < (\w+);", source)
    assert loops and set(loops) == {str(WIDTH)}


def _blocked_run(name):
    """The one ``Blocked`` run of *name*'s pipeline output: its strict and
    diagonal nests."""
    spec = {**KERNELS, **EXTENSIONS}[name]
    [run] = run_pipeline(spec.compile(options=PYTHON).lowered).body
    assert isinstance(run, ir.Blocked) and len(run.nests) == 2
    return run.nests


def _guarded(nest):
    return any(isinstance(s, ir.If) for s in ir.walk([nest]))


def _reads_a_lookup_table(nest):
    return any(
        isinstance(s, ir.Let) and isinstance(s.expr, ir.Load) and s.expr.array.kind == ir.LUT
        for s in ir.walk([nest])
    )


def _one_staging_two_blocked_nests(name):
    source = _serial_c(name)
    # one staging around both, one rp_vb loop each
    assert source.count("rp_vb += %d) {" % WIDTH) == 2
    assert source.count("calloc(") - source.count("void *calloc(") == 2


@pytest.mark.parametrize("name", ["ttm", "ttm4d"])
def test_the_orbit_guarded_diagonal_nest_is_blocked(name):
    """TTM has no uniform factor table: the strict nest is blocked, and so
    is the orbit-guarded diagonal nest after it, whose guards test only
    its own loop indices."""
    strict, diagonal = _blocked_run(name)
    assert not _guarded(strict)
    assert _guarded(diagonal) and not _reads_a_lookup_table(diagonal)
    _one_staging_two_blocked_nests(name)


@pytest.mark.parametrize("name", ["mttkrp3d", "mttkrp4d", "mttkrp5d"])
def test_the_table_driven_diagonal_nest_is_blocked(name):
    """MTTKRP's diagonal blocks merge into one unguarded block scaled by
    a factor from its lookup table (paper §4.2.5): both nests are
    blocked, under one staging."""
    strict, diagonal = _blocked_run(name)
    assert not _guarded(strict) and not _reads_a_lookup_table(strict)
    assert not _guarded(diagonal) and _reads_a_lookup_table(diagonal)
    _one_staging_two_blocked_nests(name)


def test_exactly_the_kernels_with_a_uniform_table_read_one():
    """Every SySTeC plan runs the lookup-table pass; it changes only the
    plans whose diagonal blocks share one factor table."""
    with_table = {
        name
        for name, spec in {**KERNELS, **EXTENSIONS}.items()
        if "_lut0" in render_c(spec.compile(options=PYTHON).lowered)
    }
    assert with_table == {"mttkrp3d", "mttkrp4d", "mttkrp5d"}


@pytest.mark.parametrize("name", sorted({**KERNELS, **EXTENSIONS}))
def test_no_vector_loop_has_a_run_time_trip_count(name):
    """A compile-cost guard, as counts: ``gcc -O3`` spends about three
    times as long on an element loop of trip count ``n_j`` as on a
    fixed-width one, so a kernel with a vector index prints neither one
    nor a branch on the extent, and one ``rp_vb`` loop per blocked nest."""
    lowered = {**KERNELS, **EXTENSIONS}[name].compile(options=PYTHON).lowered
    source = render_c(lowered)
    blocked = [
        nest for s in ir.walk(run_pipeline(lowered).body) if isinstance(s, ir.Blocked)
        for nest in s.nests
    ]
    if lowered.vector_index is None:
        assert not blocked and not re.search(r"\b_v\b|rp_vb", source)
        return
    assert "for (_v = 0; _v < n_" not in source
    assert "%% %d == 0" % WIDTH not in source
    assert blocked
    assert source.count("for (rp_vb = 0; rp_vb < rp_w; rp_vb += %d)" % WIDTH) == len(blocked)


@pytest.mark.parametrize("name", ["ssymv", "syprd", "ssyrk", "bellmanford"])
def test_kernels_without_a_vector_index_are_not_blocked(name):
    spec = {**KERNELS, **EXTENSIONS}[name]
    body = run_pipeline(spec.compile(options=PYTHON).lowered).body
    assert not any(isinstance(s, ir.Blocked) for s in ir.walk(body))


#: sha256 of the Python source at the parent of the factoring change
#: (tests/golden/render_digests.json, float64 default), printed without
#: the output clear that leads every program now and the ``finish`` entry
#: point that follows ``kernel`` (its text is unchanged): these kernels have
#: nothing to factor, or only where an iteration may sum nothing.
UNCHANGED = {
    "ssymv": "e737cbda2d1691d7f7dc8b591631f80e217ccf07a0940f248d9e78d6f945e99f",
    "ssyrk": "241f8e64b1110c2d3f5d79a64dddfd925002d49eebcb91a2758c4c0d92a62746",
    "ttm": "0d87ea23ceda824dc41fd6c84e5c9814fd74ac095dfdc6db2fe84fa82ad7289f",
    "syprd": "0a33f9e172633ca165ad5cb6b278b89795108e0284a783783779ff9522e0f73e",
}


@pytest.mark.parametrize("name", sorted(UNCHANGED))
def test_kernels_with_nothing_to_factor_lower_as_before(name):
    lowered = get_kernel(name).compile(options=PYTHON).lowered
    program = replace(lowered.program, body=tuple(_nests(name)), finish=())
    source = print_python(program, lowered.dtype)
    assert hashlib.sha256(source.encode("utf-8")).hexdigest() == UNCHANGED[name]


@pytest.mark.parametrize("name", sorted({**KERNELS, **EXTENSIONS}))
def test_without_workspaces_nothing_is_factored(name):
    """The SySTeC plan, lowered as the naive baseline is lowered."""
    kernel = {**KERNELS, **EXTENSIONS}[name].compile(options=PYTHON)
    program = lower_plan(kernel.plan, kernel.formats, PYTHON, naive=True).program
    assert not program.preamble or all(
        isinstance(s, ir.LutDef) for s in program.preamble
    )
    assert not [s for s in ir.walk(program.body) if isinstance(s, ir.Init)]
    # no prefix-product temporaries either: every Let is a hoisted read
    for s in ir.walk(program.body):
        if isinstance(s, ir.Let):
            assert not _multiplies(s.expr)


def test_an_operand_stays_inside_where_an_iteration_may_sum_nothing():
    """SYPRD's ``x[j]`` is bound by a dense loop whose column may be
    empty: folding it outside would add ``x[j] * 0`` for that column, and
    a NaN there would reach the output from a row nothing references."""
    inner = _innermost_fiber(_nests("syprd")[1])
    (update,) = [s for s in inner.body if isinstance(s, ir.Reduce)]
    assert _multiplies(update.value) == 3  # 2.0 * (A * x[j] * x[i])


def test_conditional_blocks_keep_the_flat_accumulation():
    """Each update under one of TTM's orbit guards multiplies every
    operand of the einsum: nothing is factored out of a guard."""
    operands = len(get_kernel("ttm").compile(options=PYTHON).plan.original.accesses)
    inner = _innermost_fiber(_nests("ttm")[1])
    guarded = [s for s in inner.body if isinstance(s, ir.If)]
    assert guarded and all(
        _multiplies(u.value) == operands - 1 for g in guarded for u in g.body
    )


# ----------------------------------------------------------------------
# (c) the block-count rule of the tile pass
# ----------------------------------------------------------------------
#: (output rows, output columns, stored entries, fibers walked) -> blocks
BLOCK_RULE = [
    ((1200, 1200, 48_000, 1200), 10),  # kernel_steady's SSYRK
    ((1200, 1200, 12_000, 1200), 2),
    ((3000, 3000, 60_000, 3000), 5),
    ((3000, 3000, 300_000, 3000), 25),
    ((600, 600, 12_000, 600), 3),  # fresh_requests: the 1 MiB rule decides
    ((192, 192, 2_000, 192), 1),  # daemon_roundtrip
    # degenerate: no fibers, no entries, fibers shorter than four, no rows
    ((1200, 1200, 0, 0), 1),
    ((1200, 1200, 0, 1200), 1),
    ((1200, 1200, 4_799, 1200), 1),
    ((0, 1200, 48_000, 1200), 1),
]


@pytest.fixture(scope="module")
def tile_rows_probe():
    """``auto_tile_rows`` — the statements the renderer prints — compiled
    as a function of their three inputs."""
    source = "\n".join(
        ["#include <stdint.h>",
         "int64_t kernel(const int64_t *out_dims, const int64_t *pos, int64_t n)",
         "{"]
        + ["    " + line for line in auto_tile_rows("double", "pos", "n")]
        + ["    return rp_tile;", "}", ""]
    )
    fn = ctypes.CDLL(ctoolchain.compile_shared(source)).kernel
    fn.restype = ctypes.c_int64
    fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64)

    def rows(n_rows, n_cols, nnz, fibers):
        out_dims = np.array([n_rows, n_cols], dtype=np.int64)
        pos = np.zeros(fibers + 1, dtype=np.int64)
        pos[fibers] = nnz
        return fn(out_dims.ctypes.data, pos.ctypes.data, fibers)

    return rows


@needs_cc
@pytest.mark.parametrize("shape, blocks", BLOCK_RULE)
def test_auto_block_count(tile_rows_probe, shape, blocks):
    rows = tile_rows_probe(*shape)
    assert rows >= 1
    assert -(-shape[0] // rows) == (blocks if shape[0] else 0)
    assert rows == max(1, -(-shape[0] // blocks))


def test_the_kernel_sizes_its_blocks_with_those_statements():
    lowered = get_kernel("ssyrk").compile(options=PYTHON).lowered
    source = render_c(lowered)
    for line in auto_tile_rows("double", "A__full_p10_pos1", "n_k"):
        assert "        " + line + "\n" in source


# ----------------------------------------------------------------------
# (d) the output clear: in the program, once, never in the executor
# ----------------------------------------------------------------------
#: a call of the C output clear
CLEAR_CALL = re.compile(r"^\s*rp_clear\(", re.M)
#: a clear run bounded by the loop index right above it, plus one
ROW_BOUNDED = re.compile(
    r"for \((\w+) = [^;]+; [^;]+; \+\+\1\) \{\n\s*rp_clear\([^,]+, \(\1 \+ 1\)"
)


def test_every_generated_source_clears_its_output_once(corpus):
    for entry in corpus:
        clears = [s for s in ir.walk(entry.kernel.lowered.program.body) if isinstance(s, ir.ClearOut)]
        assert len(clears) == 1 and entry.kernel.lowered.program.body[0] == clears[0]
        state = run_pipeline(entry.kernel.lowered)
        assert sum(isinstance(s, ir.ClearOut) for s in ir.walk(state.body)) == 1
        written = re.findall(
            r'^\s*out\[[^]]*\] = (?:0\.0|float\("-?inf"\))$', entry.kernel.source, re.M
        )
        assert len(written) == 1, entry.key
        for source in entry.c:
            assert len(CLEAR_CALL.findall(source)) == 1, entry.key


def test_a_replicated_output_is_cleared_up_to_the_row_index(corpus):
    """A symmetric output clears ``row + 1`` entries (times the trailing
    extents) per row, in Python and in C; any other clears whole rows."""
    for entry in corpus:
        lowered = entry.kernel.lowered
        replicated = bool(lowered.output.replication_parts)
        clear = lowered.program.body[0]
        assert (clear.span is not None) is replicated, entry.key
        if replicated:
            row = ir.Var(clear.coords[-1], ir.INT)
            assert clear.span == ir.BinOp("+", (row, ir.Const(1))), entry.key
            assert ":%s + 1] = " % row.name in entry.kernel.source
        for source in entry.c:
            assert bool(ROW_BOUNDED.search(source)) is replicated, entry.key


def test_a_plan_call_fills_nothing():
    assert not [name for name in ExecutionPlan.__slots__ if "fill" in name]
    assert ".fill" not in inspect.getsource(ExecutionPlan.__call__)


#: top-level nests ``profile_kernel`` reported for each paper kernel
#: before the clear moved into the program: the clear is not a nest
PROFILED_NESTS = {"ssymv": 2, "syprd": 2, "ssyrk": 1, "ttm": 2, "mttkrp3d": 2, "mttkrp4d": 2}


@needs_cc
@pytest.mark.parametrize("name", sorted(PROFILED_NESTS))
def test_profiling_reports_the_nests_and_not_the_clear(name):
    from repro import obs
    from tests.test_differential import fuzz_inputs

    kernel = get_kernel(name).compile(options=DEFAULT.but(backend="c"))
    reports = obs.profile_kernel(kernel, fuzz_inputs(KERNELS[name], 0, "float64"), repeats=1)
    assert len(reports) == len(kernel.bound.executable.strategies) == PROFILED_NESTS[name]


@needs_cc
@pytest.mark.skipif(shutil.which("nm") is None, reason="no binutils nm")
@pytest.mark.parametrize("name", ["ssymv", "syprd", "ssyrk"])
def test_a_clear_links_no_libc_symbol(name):
    """These objects reference nothing outside themselves (the weak
    ``w`` entries of the startup files aside): a zeroing loop ``gcc``
    turned into ``memset`` would be a libc call the lean link
    (``ctoolchain.LEAN_LINK``) leaves for ``dlopen`` to resolve from the
    process (``rp_clear`` stores through a ``volatile`` pointer)."""
    kernel = get_kernel(name).compile(options=DEFAULT.but(backend="c"))
    listing = subprocess.run(
        ["nm", "-D", "--undefined-only", kernel.bound.executable.so_path],
        capture_output=True, text=True, check=True,
    ).stdout
    assert [line for line in listing.splitlines() if line.split()[0] != "w"] == []


def _has_avx512() -> bool:
    try:
        with open("/proc/cpuinfo") as handle:
            return "avx512f" in handle.read().split()
    except OSError:
        return False


@needs_cc
@pytest.mark.skipif(shutil.which("objdump") is None, reason="no binutils objdump")
@pytest.mark.skipif(not _has_avx512(), reason="the host has no AVX-512")
def test_a_blocked_row_update_computes_in_512_bit_registers():
    """``ctoolchain.VECTOR_WIDTH`` reaches the object: on an AVX-512 host
    the serial MTTKRP-3D object multiplies and adds 16-double rows as two
    ``%zmm`` operations, not four ``%ymm`` ones (gcc's tuning for recent
    x86 cores stops at 256 bits without the flag)."""
    flags = ctoolchain.probe().flags
    if ctoolchain.VECTOR_WIDTH not in flags or "-march=native" not in flags:
        pytest.skip("the probe dropped -march=native or the vector width")
    kernel = get_kernel("mttkrp3d").compile(options=DEFAULT.but(backend="c", threads=1))
    assert kernel.bound.executable.kind == "serial"
    listing = subprocess.run(
        ["objdump", "-d", kernel.bound.executable.so_path],
        capture_output=True, text=True, check=True,
    ).stdout
    arithmetic = re.findall(r"\bv(?:mul|add)pd\s+(\S+)", listing)
    assert [ops for ops in arithmetic if "%zmm" in ops]
    assert [ops for ops in arithmetic if "%ymm" in ops] == []
