"""The four workloads.

Each is a closed loop of identical operations over one real request path.
An operation is written once; with ``ctx.spans`` set (the traced pass) the
same calls are made through the layers' public functions one by one, so a
span can be opened around each.
"""

from __future__ import annotations

import contextlib
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from benchmarks.e2e import harness, inputs, sizes


@dataclass
class Context:
    """What one run hands to its workload."""

    seed: int
    seconds: float
    dir: Path
    store: Path
    children: harness.Children
    smoke: bool = False
    spans: Optional[harness.Spans] = None
    #: the layer probes' result, measured once per run (``layers.run_probes``)
    probes: Optional[tuple] = None
    _inputs: Dict[str, dict] = field(default_factory=dict)
    _dirs: int = 0

    def span(self, name: str):
        return self.spans.span(name) if self.spans is not None else contextlib.nullcontext()

    def inputs(self, label: str, table: Dict[str, Dict[str, int]]) -> dict:
        """Generated once per run and label (probes reuse a workload's set)."""
        if label not in self._inputs:
            table = sizes.smoke(table) if self.smoke and label != "twin" else table
            self._inputs[label] = inputs.generate(table, self.seed, label)
        return self._inputs[label]

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        return self.dir / ("%s-%d" % (prefix, self._dirs))

    def count(self, workload: str, traced: bool = False) -> int:
        count = sizes.operation_count(workload, self.seconds, traced)
        return max(2, count // 50) if self.smoke else count

    def repeats(self, n: int) -> int:
        return 1 if self.smoke else n


def sparse_tensor(kernel: str, arrays: dict, full: bool = False):
    """A new ``Tensor`` over one kernel's ``A``: the canonical triangle, or
    (``full``) both triangles as a non-canonical payload the program has to
    pack itself."""
    from repro import COO, Tensor

    shape = tuple(int(s) for s in arrays["shape"])
    if kernel == "ssyrk":
        return Tensor(COO(arrays["coords"], arrays["vals"], shape, sum_duplicates=False))
    modes = (tuple(range(len(shape))),)
    if full:
        coords, vals = inputs.full_payload(kernel, arrays)
        return Tensor(COO(coords, vals, shape, sum_duplicates=False), modes)
    coo = COO(arrays["coords"], arrays["vals"], shape, sum_duplicates=False)
    return Tensor(coo, modes, canonical=True)


class Workload:
    """Set-up, one operation, and the checks, for one request path."""

    name = ""
    kernels: tuple = ()
    size_table: Dict[str, Dict[str, int]] = {}

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.arrays: Dict[str, dict] = {}
        self.twins: Dict[str, dict] = {}
        self.compiled: Dict[str, object] = {}
        self.extra_rss_mb = 0.0

    # -- untimed -------------------------------------------------------
    def canary(self) -> harness.Canary:
        """The reference work this workload's times are scaled by."""
        return harness.Canary()

    def generate(self) -> None:
        table = {k: self.size_table[k] for k in self.kernels}
        self.arrays = self.ctx.inputs(self.name, table)
        self.twins = self.ctx.inputs("twin", sizes.TWIN_SIZES)

    def check(self) -> int:
        """Every kernel against its dense numpy reference on a small twin;
        returns the number of mismatches."""
        from repro.kernels.library import KERNELS

        wrong = 0
        for k in self.kernels:
            twin = self.twins[k]
            dense = inputs.dense_operands(twin)
            got = self.compiled[k](A=sparse_tensor(k, twin), **dense)
            want = KERNELS[k].reference(inputs.dense_A(k, twin), *dense.values())
            wrong += not np.allclose(got, want, rtol=1e-9, atol=1e-12)
        return wrong

    # -- timed ---------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def unsetup(self) -> None:
        """Drop what ``setup`` built, so a repeat starts from the same state."""
        self.compiled = {}

    def between(self) -> None:
        """Untimed work before each operation."""

    def op(self) -> List[np.ndarray]:
        raise NotImplementedError

    def close(self) -> None:
        self.unsetup()

    def _service(self):
        from repro import KernelService

        return KernelService(store=str(self.ctx.store))


class KernelSteady(Workload):
    """Run time of the generated C: bound plans of the six paper kernels and
    nothing else on the path."""

    name = "kernel_steady"
    kernels = sizes.STEADY_KERNELS
    size_table = sizes.STEADY_SIZES

    def setup(self) -> None:
        service = self._service()
        tensors: Dict[int, object] = {}
        self.plans = {}
        for k in self.kernels:
            arrays = self.arrays[k]
            self.compiled[k] = service.get_or_compile(**harness.compile_spec(k))
            if id(arrays) not in tensors:
                tensors[id(arrays)] = sparse_tensor(k, arrays)
            self.plans[k] = self.compiled[k].execution_plan(
                A=tensors[id(arrays)], **inputs.dense_operands(arrays)
            )
        for _ in range(2):
            self.op()

    def unsetup(self) -> None:
        super().unsetup()
        self.plans = {}

    def op(self):
        span = self.ctx.span
        for _ in range(sizes.SWEEPS[self.name]):
            for k, plan in self.plans.items():
                with span("generated_code:" + k):
                    plan()
        return [plan.out for plan in self.plans.values()]


class FreshRequests(Workload):
    """A caller with new data: a cache hit, then the whole preparation of a
    full payload (pack, split, permute, fibertree) on every request."""

    name = "fresh_requests"
    kernels = sizes.FRESH_KERNELS
    size_table = sizes.FRESH_SIZES

    def generate(self) -> None:
        super().generate()
        self.payloads = {}
        made: Dict[int, object] = {}
        for k in self.kernels:
            arrays = self.arrays[k]
            if id(arrays) not in made:
                made[id(arrays)] = sparse_tensor(k, arrays, full=True)
            # the shared payload: every request wraps it in a new Tensor
            self.payloads[k] = made[id(arrays)]
        self.specs = {k: harness.compile_spec(k) for k in self.kernels}

    def setup(self) -> None:
        self.service = self._service()
        for k in self.kernels:
            self.compiled[k] = self.service.get_or_compile(**self.specs[k])
        for _ in range(2):
            self.op()

    def op(self):
        from repro import Tensor

        traced = self.ctx.spans is not None
        span = self.ctx.span
        results = []
        for k in self.kernels:
            with span("service:get_or_compile"):
                kernel = self.service.get_or_compile(**self.specs[k])
            shared = self.payloads[k]
            A = Tensor(shared.coo, shared.symmetric_modes)
            dense = inputs.dense_operands(self.arrays[k])
            if not traced:
                results.append(kernel(A=A, **dense))
                continue
            # kernel(**tensors), taken apart at its layer boundaries
            with span("tensor:view"):
                for view in kernel.lowered.sparse_views:
                    A.view(view.mode_order, view.levels, view.tensor_filter)
            with span("executor:prepare"):
                prepared, shape = kernel.prepare(A=A, **dense)
            with span("generated_code:" + k):
                out = kernel.run(prepared, shape)
            with span("executor:finalize"):
                results.append(kernel.finalize(out))
        return results


class ColdCompile(Workload):
    """Time to first result: every cache tier misses, the whole compiler and
    ``cc`` run, the store publishes."""

    name = "cold_compile"
    kernels = sizes.COLD_KERNELS
    size_table = sizes.TWIN_SIZES

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        if ctx.smoke:  # one cc per operation keeps the smoke test short
            self.kernels = self.kernels[:1]

    def canary(self) -> harness.Canary:
        return harness.CompilerCanary(self.ctx.dir)

    def generate(self) -> None:
        self.twins = self.ctx.inputs("twin", sizes.TWIN_SIZES)
        self.arrays = self.twins
        self.specs = {k: harness.compile_spec(k) for k in self.kernels}
        self.args = {
            k: dict(A=sparse_tensor(k, self.twins[k]), **inputs.dense_operands(self.twins[k]))
            for k in self.kernels
        }

    def setup(self) -> None:
        from repro.codegen.backends import ctoolchain

        ctoolchain.reset_probe_cache()
        if ctoolchain.probe() is None:
            raise RuntimeError("no working C compiler")
        self.between()
        self.op()

    def between(self) -> None:
        # every tier must miss: empty the C object cache and the disk store
        for name in ("cc", "cold-store"):
            path = self.ctx.dir / name
            shutil.rmtree(path, ignore_errors=True)
            path.mkdir()

    def op(self):
        from repro import KernelService

        results = []
        with self.ctx.span("service:compile_all"):
            service = KernelService(store=str(self.ctx.dir / "cold-store"))
            for k in self.kernels:
                self.compiled[k] = service.get_or_compile(**self.specs[k])
        for k in self.kernels:
            with self.ctx.span("generated_code:" + k):
                results.append(self.compiled[k](**self.args[k]))
        self.service = service
        return results


class DaemonRoundtrip(Workload):
    """The unix-socket path: dense tensors as base64 in JSON through a
    ``repro serve`` child; the kernels themselves run in microseconds."""

    name = "daemon_roundtrip"
    kernels = sizes.DAEMON_KERNELS
    size_table = sizes.DAEMON_SIZES
    #: the traced pass turns the daemon's metrics on to read server-side time
    metrics = False

    def generate(self) -> None:
        from repro.service.keys import canonicalize

        super().generate()
        self.daemon = None
        self.requests = {k: canonicalize(**harness.compile_spec(k)) for k in self.kernels}
        self.tensors = {
            k: dict(A=inputs.dense_A(k, self.arrays[k]), **inputs.dense_operands(self.arrays[k]))
            for k in self.kernels
        }

    def setup(self) -> None:
        self.daemon = self.ctx.children.spawn(
            self.ctx.fresh_dir("daemon"), self.ctx.store, warm=True, metrics=self.metrics
        )
        self.client = self.daemon.wait_ready()
        self.first = {k: self.client.execute(self.requests[k], self.tensors[k])[0] for k in self.kernels}

    def unsetup(self) -> None:
        super().unsetup()
        if self.daemon is not None:
            self.extra_rss_mb = max(self.extra_rss_mb, self.daemon.rss_mb())
            self.ctx.children.stop(self.daemon)
            self.daemon = None

    def check(self) -> int:
        service = self._service()
        self.compiled = {k: service.get_or_compile(**harness.compile_spec(k)) for k in self.kernels}
        wrong = super().check()
        for k in self.kernels:  # remote results must be the in-process bits
            local = self.compiled[k](**self.tensors[k])
            wrong += not np.array_equal(np.asarray(local), self.first[k])
        return wrong

    def op(self):
        from repro.serve import protocol

        traced = self.ctx.spans is not None
        span = self.ctx.span
        results = []
        for _ in range(sizes.SWEEPS[self.name]):
            for k in self.kernels:
                if not traced:
                    results.append(self.client.execute(self.requests[k], self.tensors[k])[0])
                    continue
                # client.execute, taken apart at its layer boundaries
                with span("serve:encode"):
                    payload = {
                        "spec": protocol.spec_from_request(self.requests[k]),
                        "tensors": protocol.encode_tensors(self.tensors[k]),
                    }
                with span("serve:call"):
                    reply = self.client.call("execute", payload)
                with span("serve:decode"):
                    results.append(protocol.decode_tensor(reply["result"]))
        return results


WORKLOADS = {w.name: w for w in (KernelSteady, FreshRequests, ColdCompile, DaemonRoundtrip)}
