"""Shared test fixtures and generators."""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pytest


def make_symmetric_matrix(rng, n, density=0.5):
    """A dense symmetric matrix with a random sparsity pattern."""
    A = rng.random((n, n)) * (rng.random((n, n)) < density)
    return np.triu(A) + np.triu(A, 1).T


def make_symmetric_tensor(rng, n, order, density=0.3):
    """A dense fully symmetric tensor with a sparse pattern."""
    T = rng.random((n,) * order) * (rng.random((n,) * order) < density)
    S = np.zeros_like(T)
    for p in itertools.permutations(range(order)):
        S = np.maximum(S, np.transpose(T, p))
    return S


def replace_node(tree, old, new):
    """A JSON tree (nested lists) with every subtree equal to *old*
    swapped for *new* — how tests forge a persisted loop program."""
    if tree == old:
        return new
    if isinstance(tree, list):
        return [replace_node(t, old, new) for t in tree]
    return tree


def store_objects(directory, key):
    """The compiled objects a disk store holds for *key*, as paths."""
    from pathlib import Path

    return sorted(Path(directory).glob("%s.*.so" % key))


def damage(path, blob):
    """Replace *path*'s bytes through a new inode, as a cut-short restore
    would — truncating a shared object some process has mapped in place
    SIGBUSes that process, which proves nothing about the cache."""
    import os

    tmp = "%s.damaged" % path
    with open(tmp, "wb") as handle:
        handle.write(blob)
    os.replace(tmp, str(path))


_KERNEL_CHILD = r"""
import json, sys
import numpy as np
from repro import DEFAULT, KernelService
from repro.codegen.backends import ctoolchain
from repro.obs import trace

store, run_threads = sys.argv[1] or None, int(sys.argv[2])
with trace.tracing() as rec:
    service = KernelService(store=store)
    kernel = service.get_or_compile(
        "y[i] min= A[i, j] + x[j]", symmetric={"A": True}, loop_order=("j", "i"),
        options=DEFAULT.but(backend="c"),
    )
    exe = kernel.bound.executable
    loaded = getattr(exe, "kind", None)
    A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 4.0]])
    prepared, shape = kernel.prepare(A=A, x=np.array([1.0, 2.0, 3.0]))
    out = kernel.finalize(kernel.run(prepared, shape, threads=run_threads or None))
names = [e.name for e in rec.events]
print(json.dumps({
    "backend": kernel.backend, "loaded": loaded, "kind": getattr(exe, "kind", None),
    "so_path": getattr(exe, "so_path", None), "compiles": service.stats().compiles,
    "cc": names.count("cc"), "dlopen": names.count("dlopen"),
    "upgrades": names.count("backend:upgrade"), "out": [float(v) for v in out],
    "omp_probed": "openmp" in ctoolchain._probed,
}))
"""

#: what the child's relaxation answers
KERNEL_CHILD_RESULT = [3.0, 2.0, 2.5]


def kernel_child(store=None, run_threads=0, **env):
    """One fresh process serving a min-plus relaxation over a symmetric
    matrix (Bellman-Ford's shape: its nests are privatized, so the kernel
    has an OpenMP object to upgrade to) through the C backend
    (``KernelService(store=store)``, then one run, at ``run_threads`` when
    given), under exactly the ``REPRO_*`` variables in *env* — the ambient
    ones (a CI leg's backend, passes, fault storm) are scrubbed, the
    compiler choice apart.  Returns ``(returncode, report)``: what it
    loaded and ran, as counted from its own trace."""
    import json
    import os
    import subprocess
    import sys

    base = {
        k: v for k, v in os.environ.items() if not k.startswith("REPRO_") or k == "REPRO_CC"
    }
    base["PYTHONPATH"] = os.pathsep.join(sys.path)
    base.update({k: str(v) for k, v in env.items()})
    done = subprocess.run(
        [sys.executable, "-c", _KERNEL_CHILD, str(store or ""), str(run_threads)],
        env=base, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else {"stderr": done.stderr})


@contextlib.contextmanager
def running_daemon(tmp_path, **kwargs):
    """A live KernelServer on a background thread with its own loop;
    yields ``(server, socket_path)`` once a connection has been accepted
    and served to its end.  The socket file exists from ``bind()``, before
    ``listen()`` — waiting for the path alone lets the first client be
    refused — and a probe the daemon has not finished with would take a
    ``wire.accept`` fault the test arms next."""
    import asyncio
    import socket
    import threading
    import time

    from repro.serve.daemon import KernelServer

    sock = str(tmp_path / "daemon.sock")
    server = KernelServer(sock, **kwargs)
    loop = asyncio.new_event_loop()

    def body():
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.run())
        finally:
            loop.close()

    def served() -> bool:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(10.0)
        try:
            probe.connect(sock)
            probe.shutdown(socket.SHUT_WR)  # a clean EOF: counts nothing
            return probe.recv(1) == b""  # the daemon closed its end
        except OSError:
            return False
        finally:
            probe.close()

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10.0
    while not served():
        if time.monotonic() > deadline or not thread.is_alive():
            raise RuntimeError("daemon failed to start")
        time.sleep(0.01)
    try:
        yield server, sock
    finally:
        if thread.is_alive():
            loop.call_soon_threadsafe(server.begin_drain, "test teardown")
            thread.join(timeout=10.0)
        assert not thread.is_alive(), "daemon thread failed to stop"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def corpus():
    """The rendering corpus (``tests/render_corpus.py``), lowered and
    rendered once per session: every whole-corpus test reads this."""
    from tests import render_corpus

    return render_corpus.corpus()


@pytest.fixture(autouse=True)
def fresh_warn_memo():
    """Bad-knob diagnostics are once per (name, value) per *process*; a
    test that expects one must not depend on which tests ran before it."""
    from repro.core import config

    config._warned_values.clear()
    yield
    config._warned_values.clear()
