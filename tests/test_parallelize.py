"""The phase pipeline on loop IR, without a compiler.

The parallelisation phase's strategy table asserted on its product (the
``Parallel`` annotations and per-nest ``NestWork`` strategies) instead of by
grepping C text for ``rp_logs`` / ``pv_all`` as ``test_parallel.py``
does, and ``loopir.verify`` between every two phases.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.codegen import loopir as ir
from repro.codegen.backends import c as c_printer
from repro.codegen.backends.base import CodegenConfig
from repro.codegen.passes import PassConfig, base as passes_base, run_pipeline
from repro.codegen.passes.parallelize import ParallelizePass
from repro.core.config import DEFAULT
from repro.kernels.extensions import EXTENSIONS
from repro.kernels.library import KERNELS
from tests import render_corpus

NO_PASSES = PassConfig(enabled=())


def _strategies(spec, omp_strategy="auto"):
    """Per top-level ``for`` nest of *spec*, the strategy the phase chose."""
    lowered = spec.compile(options=DEFAULT.but(backend="python")).lowered
    state = run_pipeline(lowered, CodegenConfig(omp_strategy, False, NO_PASSES))
    tags = [s.strategy for s in state.body if isinstance(s, ir.Parallel)]
    # the estimates say the same thing, one per nest, in body order
    assert [w.strategy for w in state.work if w.strategy is not None] == tags
    return [w.strategy for w in state.work]


@pytest.mark.parametrize(
    "name, omp_strategy, expected",
    [
        # + scatter through the canonical triangle: the ordered log
        ("ssymv", "auto", ["replay", "replay"]),
        ("ssyrk", "auto", ["replay"]),
        ("syprd", "auto", ["replay", "replay"]),
        ("mttkrp3d", "auto", ["replay", "replay"]),
        ("ttm", "auto", ["replay", "replay"]),
        # min scatter (the Bellman-Ford relaxation): private outputs
        ("bellmanford", "auto", ["privatized", "privatized"]),
        # every write leads with the outer loop variable: disjoint
        ("bilinear_partial", "auto", ["for", "for"]),
        # the atomic fallback covers scalar updates only; rows keep the log
        ("ssymv", "atomic", ["atomic", "atomic"]),
        ("mttkrp3d", "atomic", ["replay", "replay"]),
        ("bellmanford", "atomic", ["privatized", "privatized"]),
        # serial switches the phase off: nothing annotated, nothing recorded
        ("ssymv", "serial", []),
    ],
)
def test_strategy_table(name, omp_strategy, expected):
    spec = {**KERNELS, **EXTENSIONS}[name]
    assert _strategies(spec, omp_strategy) == expected


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


def _annotate(body, omp_strategy="auto"):
    lowered = SimpleNamespace(
        program=ir.Kernel((ir.Dim("n_i"), X), (), tuple(body)),
        output=SimpleNamespace(ndim=1, reduce_op="+"),
        vector_index=None,
    )
    state = ir.LoopIR(list(body), lowered)
    codegen = CodegenConfig(omp_strategy, False, NO_PASSES)
    return ParallelizePass().run(state, codegen)


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
    init = ir.Init(ACC, ir.Const(0.0))
    bump = ir.Reduce(ACC, "+", ir.Load(X, (I,)))
    state = _annotate([init, _rows([bump])])
    assert _tags(state) == [None, "replay"]
    assert state.body[1].carried == ("acc",)
    # a read would observe a partially replayed value
    state = _annotate([init, _rows([bump, _out("i", value=ACC)])])
    assert _tags(state) == [None, None]
    assert [w.strategy for w in state.work] == [None]
    # ... and an accumulator nothing initialised before the nest is not carried
    assert _tags(_annotate([_rows([bump])])) == [None]


def test_mixed_reduction_operators_stay_serial():
    assert _tags(_annotate([_rows([_fiber([_out("j")])])])) == ["replay"]
    assert _tags(_annotate([_rows([_fiber([_out("j"), _out("j", "min")])])])) == [None]


def test_unknown_strategy_is_rejected_by_the_phase():
    with pytest.raises(ValueError, match="sideways"):
        _annotate([_rows([_out("i")])], omp_strategy="sideways")


# ----------------------------------------------------------------------
# verify between phases
# ----------------------------------------------------------------------
class _RebindOuter(passes_base.Pass):
    """Deliberately broken: nests the first loop inside a copy of itself."""

    name = "rebind-outer"

    def enabled(self, codegen):
        return True

    def run(self, state, codegen):
        nest = state.body[0]
        state.body[0] = replace(nest, body=(nest,))
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
        c_printer.render_c_full(lowered, "broken", CodegenConfig())


def test_verify_accepts_every_pass_product_of_the_corpus():
    """``run_pipeline`` verifies after each phase, so not raising over the
    whole rendering corpus is the claim; the counts show all three
    products were among what it accepted."""
    seen = Counter()
    for _key, kernel in render_corpus.lowerings():
        for passes in render_corpus.PASS_SETS.values():
            for omp_strategy in ("auto", "atomic"):
                state = run_pipeline(
                    kernel.lowered, CodegenConfig(omp_strategy, False, passes)
                )
                seen.update(type(s) for s in ir.walk(state.body))
    assert seen[ir.Fused] and seen[ir.Tiled] and seen[ir.Parallel]
