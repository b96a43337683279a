"""What the generated loops may cost, as counts (never timings).

Hierarchical workspaces: the innermost loop of an MTTKRP's strict nest
holds two accumulations of one multiply each, whatever the tensor order,
in both branches the register-blocking phase prints; kernels with
nothing to factor lower exactly as before; the naive lowering factors
nothing.  Register blocking: the blocked branch of a strict nest reads
and writes only block-local workspaces, and guarded (diagonal) nests are
left alone.  Row tiling: the run-time block count is about 1 MiB of
output rows per block, capped at a quarter of the mean fiber length —
checked on the C the renderer prints, compiled on its own.
"""

import ctypes
import hashlib
import re

import numpy as np
import pytest

from repro.codegen import loopir as ir
from repro.codegen.backends import ctoolchain, get_backend, render_c
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


def _strict_branches(source):
    """The two branches the C printer emits for the first register-blocked
    nest: ``(blocked, unblocked)`` source lines."""
    lines = source.splitlines()
    start = next(n for n, line in enumerate(lines) if "%% %d == 0) {" % WIDTH in line)
    indent = lines[start][: len(lines[start]) - len(lines[start].lstrip())]
    middle = lines.index(indent + "} else {", start)
    end = lines.index(indent + "}", middle)
    return lines[start + 1 : middle], lines[middle + 1 : end]


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
    """The lines of the deepest fiber loop (``for (q0_<depth>``) of a branch."""
    depth = max(int(m) for m in re.findall(r"for \(q0_(\d+) =", "\n".join(lines)))
    head = next(n for n, line in enumerate(lines) if "for (q0_%d =" % depth in line)
    indent = lines[head][: len(lines[head]) - len(lines[head].lstrip())]
    return lines[head + 1 : lines.index(indent + "}", head)]


# ----------------------------------------------------------------------
# (a) hierarchical workspaces, counted on the IR and in both printed
# branches of the strict nest
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["mttkrp3d", "mttkrp4d", "mttkrp5d"])
def test_mttkrp_strict_inner_loop_is_two_multiplies_at_any_order(name):
    strict = _program(name).body[0]
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
    # ... and each branch the C printer emits does exactly that per nonzero
    for branch in _strict_branches(_serial_c(name)):
        printed = _element_updates(_innermost_body(branch))
        assert [n for _, n in printed] == [1, 1]
        assert printed[0][0].startswith("out[") and printed[1][0] == "ws0[_v]"


@pytest.mark.parametrize("name", ["mttkrp3d", "mttkrp4d", "mttkrp5d"])
def test_mttkrp_strict_nest_multiplies_grow_with_depth_not_per_nonzero(name):
    """Each loop level adds one prefix step, one flush and one fold."""
    order = int(name[6])
    strict = _program(name).body[0]
    stmts = [s for s in ir.walk([strict]) if isinstance(s, (ir.Reduce, ir.Init, ir.Let))]
    total = sum(
        _multiplies(s.expr if isinstance(s, ir.Let) else s.value) for s in stmts
    )
    # inner 2; per outer level: prefix step 1, flush 1, fold 1 (the
    # outermost level has no fold)
    expected = 2 + 3 * (order - 1) - 1
    assert total == expected
    for branch in _strict_branches(_serial_c(name)):
        assert sum(n for _, n in _element_updates(branch)) == expected


# ----------------------------------------------------------------------
# (b) register blocking of the vector index
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["mttkrp3d", "mttkrp4d", "ttm"])
def test_the_blocked_branch_names_no_malloced_workspace(name):
    source = _serial_c(name)
    malloced = set(re.findall(r"(\w+) = \(\w+ \*\) malloc", source))
    assert malloced
    blocked, unblocked = _strict_branches(source)
    text = "\n".join(blocked)
    local = re.findall(r"^\s*(?:double|float) (\w+)\[%d\];$" % WIDTH, text, re.M)
    used = {name for name in malloced if re.search(r"\b%s\[" % name, text)}
    # every workspace the block touches is its block-local array, each
    # declared once, and every element loop there is one block wide
    assert used and used == set(local) and len(local) == len(used)
    loops = re.findall(r"for \(_v = 0; _v < (\w+);", text)
    assert loops and set(loops) == {str(WIDTH)}
    # the other branch is the unblocked nest: run-time extent, heap rows
    assert set(re.findall(r"for \(_v = 0; _v < (\w+);", "\n".join(unblocked))) != {
        str(WIDTH)
    }
    assert not re.search(r"\[%d\];" % WIDTH, "\n".join(unblocked))


@pytest.mark.parametrize("name", ["mttkrp3d", "mttkrp4d", "mttkrp5d", "ttm", "ttm4d"])
def test_only_the_unguarded_strict_nest_is_blocked(name):
    spec = {**KERNELS, **EXTENSIONS}[name]
    lowered = spec.compile(options=PYTHON).lowered
    body = run_pipeline(lowered).body
    # the strict nest first, the orbit-guarded diagonal nest after it
    assert [type(s) for s in body] == [ir.Blocked, ir.DenseLoop]
    assert not any(isinstance(s, ir.If) for s in ir.walk([body[0]]))
    assert any(isinstance(s, ir.If) for s in ir.walk([body[1]]))
    assert _serial_c(name).count("%% %d == 0" % WIDTH) == 1


@pytest.mark.parametrize("name", ["ssymv", "syprd", "ssyrk", "bellmanford"])
def test_kernels_without_a_vector_index_are_not_blocked(name):
    spec = {**KERNELS, **EXTENSIONS}[name]
    body = run_pipeline(spec.compile(options=PYTHON).lowered).body
    assert not any(isinstance(s, ir.Blocked) for s in ir.walk(body))


#: sha256 of the Python source at the parent of the factoring change
#: (tests/golden/render_digests.json, float64 default): these kernels
#: have nothing to factor, or only where an iteration may sum nothing.
UNCHANGED = {
    "ssymv": "e737cbda2d1691d7f7dc8b591631f80e217ccf07a0940f248d9e78d6f945e99f",
    "ssyrk": "241f8e64b1110c2d3f5d79a64dddfd925002d49eebcb91a2758c4c0d92a62746",
    "ttm": "0d87ea23ceda824dc41fd6c84e5c9814fd74ac095dfdc6db2fe84fa82ad7289f",
    "syprd": "0a33f9e172633ca165ad5cb6b278b89795108e0284a783783779ff9522e0f73e",
}


@pytest.mark.parametrize("name", sorted(UNCHANGED))
def test_kernels_with_nothing_to_factor_lower_as_before(name):
    source = get_kernel(name).compile(options=PYTHON).source
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
    program = _program("syprd")
    inner = _innermost_fiber(program.body[1])
    (update,) = [s for s in inner.body if isinstance(s, ir.Reduce)]
    assert _multiplies(update.value) == 3  # 2.0 * (A * x[j] * x[i])


def test_conditional_blocks_keep_the_flat_accumulation():
    diagonal = _program("mttkrp3d").body[1]
    inner = _innermost_fiber(diagonal)
    guarded = [s for s in inner.body if isinstance(s, ir.If)]
    assert guarded and all(
        _multiplies(u.value) >= 2 for g in guarded for u in g.body
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
