"""The phase pipeline on loop IR, without a compiler.

The parallelisation phase's strategy table asserted on its product (the
``Parallel`` annotations and per-nest ``NestWork`` strategies) instead of by
grepping C text for ``pv_all`` as ``test_parallel.py`` does, and
``loopir.verify`` between every two phases.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.codegen import loopir as ir
from repro.codegen.backends import c as c_printer
from repro.codegen.passes import base as passes_base, run_pipeline
from repro.codegen.passes.parallelize import ParallelizePass
from repro.codegen.passes.regblock import blockable
from repro.core.compiler import compile_kernel
from repro.core.config import DEFAULT
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import KERNELS


def _strategies(spec):
    """Per top-level ``for`` nest of *spec*, the strategy the phase chose."""
    lowered = spec.compile(options=DEFAULT.but(backend="python")).lowered
    state = run_pipeline(lowered)
    tags = [s.strategy for s in state.body if isinstance(s, ir.Parallel)]
    # the estimates say the same thing, one per nest, in body order
    assert [w.strategy for w in state.work if w.strategy is not None] == tags
    return [w.strategy for w in state.work]


@pytest.mark.parametrize(
    "name, expected",
    [
        # + scatter through the canonical triangle: serial, every nest
        ("ssymv", [None, None]),
        ("ssyrk", [None]),
        ("syprd", [None, None]),
        ("mttkrp3d", [None, None]),
        ("ttm", [None, None]),
        # min scatter (the Bellman-Ford relaxation): private outputs
        ("bellmanford", ["privatized", "privatized"]),
        # every write leads with the outer loop variable: disjoint
        ("bilinear_partial", ["for", "for"]),
    ],
)
def test_strategy_table(name, expected):
    spec = {**KERNELS, **EXTENSIONS}[name]
    assert _strategies(spec) == expected


# ----------------------------------------------------------------------
# what the analysis cannot prove safe stays bare — on hand-built nests,
# since no library kernel lowers to these shapes at top level
# ----------------------------------------------------------------------
X = ir.Array("x", "dense", 1)
I = ir.Var("i", ir.INT)
ACC = ir.Var("acc", ir.ELEM)


def _out(coord, op="+", value=ir.Const(1.0)):
    return ir.Reduce(ir.Out((coord,), False), op, value)


def _fiber(body, guard=None):
    return ir.FiberLoop("q", "j", "A", "full", 1, I, None, guard, tuple(body))


def _rows(body):
    return ir.DenseLoop("i", ir.Dim("n_i"), tuple(body))


def _annotate(body):
    lowered = SimpleNamespace(
        program=ir.Kernel((ir.Dim("n_i"), X), (), tuple(body)),
        output=SimpleNamespace(ndim=1, reduce_op="+"),
        vector_index=None,
    )
    state = ir.LoopIR(list(body), lowered)
    return ParallelizePass().run(state)


def _tags(state):
    return [s.strategy if isinstance(s, ir.Parallel) else None for s in state.body]


def test_top_level_intersect_is_not_a_nest():
    merge = ir.Intersect(
        (ir.Binder("A", 1, "qa", ir.Const(0)), ir.Binder("B", 1, "qb", ir.Const(0))),
        "i", 0, None, (_out("i"),),
    )
    state = _annotate([merge])
    assert _tags(state) == [None]
    assert state.work == []  # not a nest: it gets no profile slot


def test_guarded_outer_fiber_loop_stays_serial():
    """The triangle guard is a ``break``: it may not leave a worksharing loop."""
    walk = ir.FiberLoop("q", "j", "A", "full", 1, ir.Const(0), None, None, (_out("j"),))
    assert _tags(_annotate([walk])) == ["for"]
    assert _tags(_annotate([replace(walk, guard="n_i")])) == [None]


def test_read_of_a_carried_accumulator_stays_serial():
    """An accumulator updated in the nest but initialised before it is
    one value every thread would update: read or not, the nest is serial."""
    init = ir.Init(ACC, ir.Const(0.0))
    bump = ir.Reduce(ACC, "+", ir.Load(X, (I,)))
    state = _annotate([init, _rows([bump])])
    assert _tags(state) == [None, None]
    assert [w.strategy for w in state.work] == [None]
    assert _tags(_annotate([init, _rows([bump, _out("i", value=ACC)])])) == [None, None]
    assert _tags(_annotate([_rows([bump])])) == [None]
    # initialised inside the nest, it is thread-private: disjoint writes
    assert _tags(_annotate([_rows([init, bump, _out("i", value=ACC)])])) == ["for"]


def test_mixed_reduction_operators_stay_serial():
    assert _tags(_annotate([_rows([_out("i"), _out("i")])])) == ["for"]
    assert _tags(_annotate([_rows([_out("i"), _out("i", "min")])])) == [None]


def test_a_sum_scatter_stays_serial():
    """A ``+`` scatter has no bit-exact team body worth printing."""
    assert _tags(_annotate([_rows([_fiber([_out("j")])])])) == [None]
    assert _tags(_annotate([_rows([_out("i")])])) == ["for"]


# ----------------------------------------------------------------------
# verify between phases
# ----------------------------------------------------------------------
class _RebindOuter(passes_base.Pass):
    """Deliberately broken: nests the first loop inside a copy of itself."""

    name = "rebind-outer"

    def run(self, state):
        pos = next(n for n, s in enumerate(state.body) if isinstance(s, ir.DenseLoop))
        nest = state.body[pos]
        state.body[pos] = replace(nest, body=(nest,))
        return state


def test_a_phase_that_rebinds_a_loop_variable_fails_by_name(monkeypatch):
    pipeline = passes_base.PIPELINE
    monkeypatch.setattr(
        passes_base, "PIPELINE", pipeline[:2] + (_RebindOuter(),) + pipeline[2:]
    )

    def printed(self, state):
        raise AssertionError("the printer ran on an unverified tree")

    monkeypatch.setattr(c_printer._Renderer, "render", printed)
    lowered = KERNELS["ssymv"].compile(options=DEFAULT.but(backend="python")).lowered
    with pytest.raises(ir.LoweringError, match="after phase 'rebind-outer'.*'j'"):
        c_printer.render_c_full(lowered, "broken")


def test_verify_accepts_every_pass_product_of_the_corpus(corpus):
    """``run_pipeline`` verifies after each phase, so not raising over the
    whole rendering corpus is the claim; the counts show all four
    products were among what it accepted."""
    seen = Counter()
    for entry in corpus:
        state = run_pipeline(entry.kernel.lowered)
        seen.update(type(s) for s in ir.walk(state.body))
    assert seen[ir.Fused] and seen[ir.Tiled] and seen[ir.Blocked] and seen[ir.Parallel]


# ----------------------------------------------------------------------
# a register-blocked nest: blocked in the serial fallback only
# ----------------------------------------------------------------------
#: the OpenMP body of every annotated top-level nest
_TEAM = re.compile(
    r"^    #if defined\(_OPENMP\)\n    if \(repro_nthreads > 1\) \{\n(.*?)^    \} else\n",
    re.S | re.M,
)


def _renders(lowered, monkeypatch, profile=False):
    """*lowered*'s C from the whole pipeline, then from the pipeline
    without its regblock phase (what it printed before the phase existed)."""
    blocked = c_printer.render_c_full(lowered, "m", profile=profile).source
    monkeypatch.setattr(
        passes_base,
        "PIPELINE",
        tuple(p for p in passes_base.PIPELINE if p.name != "regblock"),
    )
    return blocked, c_printer.render_c_full(lowered, "m", profile=profile).source


def _mttkrp3d_renders(monkeypatch, profile=False):
    lowered = KERNELS["mttkrp3d"].compile(options=DEFAULT.but(backend="python")).lowered
    return _renders(lowered, monkeypatch, profile)


def test_a_blocked_nest_keeps_its_team_body_unblocked(monkeypatch):
    """SpMM's one nest writes disjoint output rows: a ``for`` team around
    a register-blocked nest."""
    lowered = compile_kernel(
        "C[i, l] += A[i, j] * B[j, l]", loop_order=("i", "j", "l"),
        formats={"A": "sparse"}, options=DEFAULT.but(backend="python"),
    ).lowered
    state = run_pipeline(lowered)
    # the team body clears nothing, so the clear stays ahead of the nest
    clear, nest = state.body
    assert isinstance(clear, ir.ClearOut)
    assert isinstance(nest, ir.Parallel) and isinstance(nest.nest, ir.Blocked)
    assert nest.nest.clear is None
    assert [w.strategy for w in state.work] == ["for"]
    blocked, plain = _renders(lowered, monkeypatch)
    teams = _TEAM.findall(blocked)
    assert len(teams) == 1 and teams == _TEAM.findall(plain)
    assert "rp_vb" not in "".join(teams)
    # the serial fallback is where the blocks are
    assert "rp_vb" in blocked and "rp_vb" not in plain


def test_a_blocked_nest_is_profiled_as_one_nest(monkeypatch):
    for source in _mttkrp3d_renders(monkeypatch, profile=True):
        assert "int64_t repro_profile_nests(void) { return 2; }" in source
        assert source.count("repro_nest_sec[0] +=") == 1


# ----------------------------------------------------------------------
# what the regblock phase matches, on hand-built nests
# ----------------------------------------------------------------------
WS_ROW = ir.Var("ws", ir.ROW)
WS_INIT = ir.Init(WS_ROW, ir.Const(0.0))
WS_ACC = ir.Reduce(WS_ROW, "+", ir.Load(ir.Array("B", "dense", 2), (I,)))
WS_FLUSH = ir.Reduce(ir.Out(("i",), True), "+", WS_ROW)


def test_regblock_matches_row_nests_whose_workspaces_are_scoped():
    assert blockable(_rows([WS_INIT, WS_ACC, WS_FLUSH]), [], {"ws"})
    assert blockable(_rows([WS_INIT, _fiber([WS_ACC]), WS_FLUSH]), [], {"ws"})
    # a read ahead of the Init sees the previous iteration's row
    assert not blockable(_rows([WS_FLUSH, WS_INIT, WS_ACC]), [], {"ws"})
    # initialised again while in scope
    assert not blockable(_rows([WS_INIT, _fiber([WS_INIT, WS_ACC]), WS_FLUSH]), [], {"ws"})
    # initialised inside a loop, read after it
    assert not blockable(_rows([_fiber([WS_INIT, WS_ACC]), WS_FLUSH]), [], {"ws"})
    # another top-level statement reads the workspace
    assert not blockable(_rows([WS_INIT, WS_ACC, WS_FLUSH]), [_rows([WS_FLUSH])], {"ws"})


def test_regblock_leaves_scalar_updates_and_guards_alone():
    """A guard runs once per block: one on the nest's own loop indices
    takes the same branch in every block, anything else is left alone."""
    # a scalar update would be repeated once per block
    assert not blockable(_rows([WS_INIT, WS_ACC, WS_FLUSH, _out("i")]), [], {"ws"})
    # nothing row-valued: nothing to block
    assert not blockable(_rows([_out("i")]), [], set())
    # an extent is not a loop index
    bounded = ir.If(ir.Cmp("<", I, ir.Dim("n_i")), (WS_ACC,))
    assert not blockable(_rows([WS_INIT, bounded, WS_FLUSH]), [], {"ws"})


J = ir.Var("j", ir.INT)


def test_regblock_blocks_guards_on_loop_indices_only():
    # the orbit guards of a diagonal nest: indices of the nest's own loops
    orbit = ir.If(
        ir.BoolOp("and", (ir.Cmp("<", J, I), ir.Cmp("==", I, I))), (WS_ACC,)
    )
    assert blockable(_rows([WS_INIT, _fiber([orbit]), WS_FLUSH]), [], {"ws"})
    row_guard = ir.If(ir.Cmp("==", J, I), (WS_FLUSH,))
    assert blockable(_rows([_fiber([row_guard])]), [], set())
    # a value: the stored entry the fiber walk read
    value = ir.Var("t0", ir.ELEM)
    valued = ir.If(ir.Cmp("<", value, ir.Const(0.0)), (WS_ACC,))
    read = ir.Let(value, ir.Load(ir.Array("A_vals", "vals"), (ir.Var("q", ir.INT),)))
    assert blockable(_rows([WS_INIT, _fiber([read, WS_ACC]), WS_FLUSH]), [], {"ws"})
    assert not blockable(_rows([WS_INIT, _fiber([read, valued]), WS_FLUSH]), [], {"ws"})
    # a scalar workspace another top-level statement accumulates
    acc = ir.If(ir.Cmp("<", ACC, ir.Const(1.0)), (WS_ACC,))
    others = [ir.Init(ACC, ir.Const(0.0))]
    assert blockable(_rows([WS_INIT, WS_ACC, WS_FLUSH]), others, {"ws", "acc"})
    assert not blockable(_rows([WS_INIT, acc, WS_FLUSH]), others, {"ws", "acc"})


def test_regblock_leaves_rows_bound_outside_the_nest_alone():
    """A padded block reads its rows through staged copies: a row pointer
    bound by another top-level statement would bypass them."""
    row = ir.Var("t1", ir.ROW)
    bound = ir.Let(row, ir.Load(ir.Array("B", "dense", 2), (I,)))
    use = ir.Reduce(ir.Out(("i",), True), "+", row)
    assert blockable(_rows([bound, use]), [], set())
    assert not blockable(_rows([use]), [bound], set())
