"""Cross-process stress: N processes race one cold key on a shared store.

Each child process runs a real ``KernelService`` against the same disk
store and the same persistent ``REPRO_C_CACHE`` build directory, with a
logging ``cc`` wrapper so the test can count actual compiler invocations.
The advisory-lock single-flight (toolchain + engine) must produce exactly
one kernel ``cc`` run, every child must answer bit-identically, and no
lock or temp files may survive.  The same store is how a process shares
what a ``repro serve`` daemon compiled: opened on the daemon's ``--dir``,
a ``KernelService`` finds the daemon's build without compiling.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import faults
from repro.codegen.backends import ctoolchain, get_backend
from repro.codegen.backends import health
from repro.core.config import DEFAULT
from repro.obs import trace
from repro.serve.client import ServiceClient
from repro.serve.daemon import probe_socket
from repro.service import KernelService
from repro.service.keys import canonicalize

pytestmark = pytest.mark.skipif(
    not get_backend("c").is_available(), reason="no working C toolchain"
)

N_PROCS = 4

_CHILD = r"""
import json, os, sys, time

go = sys.argv[1]
store_dir = sys.argv[2]
deadline = time.time() + 60
while not os.path.exists(go):
    if time.time() > deadline:
        raise SystemExit("no go signal")
    time.sleep(0.005)

import numpy as np
from repro.core.config import DEFAULT
from repro.service import KernelService

svc = KernelService(store=store_dir)
kernel = svc.get_or_compile(
    "y[i] += A[i, j] * x[j]",
    symmetric={"A": True},
    loop_order=("j", "i"),
    options=DEFAULT.but(backend="c"),
)
A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 4.0]])
x = np.array([1.0, 2.0, 3.0])
out = kernel(A=A, x=x)
print(json.dumps({
    "pid": os.getpid(),
    "backend": kernel.backend,
    "compiles": svc.stats().compiles,
    "origin_bytes": out.tobytes().hex(),
}))
"""


def test_cold_key_race_compiles_exactly_once(tmp_path):
    real_cc = shutil.which(os.environ.get("REPRO_CC", "") or "cc") or shutil.which(
        "gcc"
    )
    if real_cc is None:
        pytest.skip("no cc on PATH")

    store_dir = tmp_path / "store"
    build_dir = tmp_path / "build"
    build_dir.mkdir()
    cc_log = tmp_path / "cc.log"
    wrapper = tmp_path / "loggingcc"
    wrapper.write_text(
        '#!/bin/sh\necho "$@" >> %s\nexec %s "$@"\n' % (cc_log, real_cc)
    )
    wrapper.chmod(0o755)

    child_script = tmp_path / "child.py"
    child_script.write_text(_CHILD)
    go = tmp_path / "go"

    env = dict(os.environ)
    env["REPRO_CC"] = str(wrapper)
    env["REPRO_C_CACHE"] = str(build_dir)
    env.pop("REPRO_NO_CC", None)
    # this test asserts the *fault-free* exactly-once property; an
    # ambient fault schedule (the CI fault-injection leg) would make
    # retries/rebuilds legitimately compile more than once
    env.pop("REPRO_FAULTS", None)
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

    procs = [
        subprocess.Popen(
            [sys.executable, str(child_script), str(go), str(store_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for _ in range(N_PROCS)
    ]
    time.sleep(0.2)  # let every child reach the spin-wait
    go.write_text("go")

    results = []
    for proc in procs:
        out, err = proc.communicate(timeout=180)
        assert proc.returncode == 0, "child failed:\n%s\n%s" % (out, err)
        results.append(json.loads(out.strip().splitlines()[-1]))

    # every child answered, bit-identically, from the C backend
    blobs = {r["origin_bytes"] for r in results}
    assert len(blobs) == 1
    assert all(r["backend"] == "c" for r in results)

    # exactly one *kernel* compile across all processes (probe builds are
    # process-local and excluded by name)
    kernel_ccs = [
        line
        for line in cc_log.read_text().splitlines()
        if "ck_" in line and ".probe." not in line
    ]
    assert len(kernel_ccs) == 1, "expected 1 kernel cc run, saw:\n%s" % (
        "\n".join(kernel_ccs)
    )
    # the service pipeline also ran once: one leader compiled, the rest
    # rehydrated the published entry
    assert sum(r["compiles"] for r in results) == 1

    # the store holds a healthy entry and no litter survived
    entries = sorted(p.name for p in store_dir.iterdir())
    assert any(name.endswith(".json") for name in entries)
    assert not [n for n in entries if n.endswith(".lock") or ".tmp" in n], entries
    build_litter = [
        p.name
        for p in build_dir.iterdir()
        if p.name.endswith(".lock") or p.name.endswith(".tmp.so") or p.name.endswith(".tmp")
    ]
    assert not build_litter, build_litter


def test_shared_build_cache_race_is_single_compile(tmp_path):
    """The toolchain-level lock alone (no disk store): concurrent
    compile_shared of one source in separate processes runs cc once."""
    real_cc = shutil.which("cc") or shutil.which("gcc")
    if real_cc is None:
        pytest.skip("no cc on PATH")
    build_dir = tmp_path / "build"
    build_dir.mkdir()
    cc_log = tmp_path / "cc.log"
    wrapper = tmp_path / "loggingcc"
    wrapper.write_text(
        '#!/bin/sh\necho "$@" >> %s\nexec %s "$@"\n' % (cc_log, real_cc)
    )
    wrapper.chmod(0o755)

    script = tmp_path / "child.py"
    script.write_text(
        r"""
import os, sys, time
go = sys.argv[1]
deadline = time.time() + 60
while not os.path.exists(go):
    if time.time() > deadline:
        raise SystemExit("no go signal")
    time.sleep(0.005)
from repro.codegen.backends import ctoolchain
so = ctoolchain.compile_shared(
    "double repro_mp(double v) { return v * 3.0; }\n"
)
print(so)
"""
    )
    go = tmp_path / "go"
    env = dict(os.environ)
    env["REPRO_CC"] = str(wrapper)
    env["REPRO_C_CACHE"] = str(build_dir)
    env.pop("REPRO_NO_CC", None)
    # this test asserts the *fault-free* exactly-once property; an
    # ambient fault schedule (the CI fault-injection leg) would make
    # retries/rebuilds legitimately compile more than once
    env.pop("REPRO_FAULTS", None)
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

    procs = [
        subprocess.Popen(
            [sys.executable, str(script), str(go)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for _ in range(N_PROCS)
    ]
    time.sleep(0.2)
    go.write_text("go")
    paths = set()
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        paths.add(out.strip())
    assert len(paths) == 1  # content-addressed: everyone got the same .so
    kernel_ccs = [
        line
        for line in cc_log.read_text().splitlines()
        if "ck_" in line and ".probe." not in line
    ]
    assert len(kernel_ccs) == 1
    litter = [
        p.name
        for p in build_dir.iterdir()
        if p.name.endswith(".lock") or p.name.endswith(".tmp.so") or p.name.endswith(".tmp")
    ]
    assert not litter, litter


def test_a_daemon_compile_is_served_from_its_store_in_another_process(
    tmp_path, monkeypatch
):
    """A cold ``execute`` compiles inside the daemon, which publishes to its
    store; this process, opening that directory, rehydrates the kernel —
    origin ``disk``, no compile, no ``cc`` — and answers bit-identically."""
    store_dir = tmp_path / "store"
    sock = str(tmp_path / "daemon.sock")
    env = {
        k: v for k, v in os.environ.items() if not k.startswith("REPRO_") or k == "REPRO_CC"
    }
    env["REPRO_C_CACHE"] = str(tmp_path / "daemon-build")
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock, "--dir", str(store_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    request = canonicalize(
        "y[i] += A[i, j] * x[j]",
        symmetric={"A": True},
        loop_order=("j", "i"),
        options=DEFAULT.but(backend="c"),
    )
    tensors = {
        "A": np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 4.0]]),
        "x": np.array([1.0, 2.0, 3.0]),
    }
    try:
        deadline = time.monotonic() + 60.0
        while not probe_socket(sock):
            assert proc.poll() is None, proc.stdout.read().decode()
            assert time.monotonic() < deadline, "daemon never served"
            time.sleep(0.05)
        client = ServiceClient(sock)
        result, reply = client.execute(request, tensors)
        assert (reply["origin"], reply["backend"]) == ("compiled", "c")
        client.shutdown()
        client.close()
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    # an empty process object cache and a clean ladder: the object can only
    # come from the store, and nothing ambient may rebuild it — nor upgrade
    # it: the daemon's scrubbed environment built the serial object
    build_dir = tmp_path / "our-build"
    build_dir.mkdir()
    monkeypatch.setattr(ctoolchain, "_build_dir", str(build_dir))
    monkeypatch.delenv("REPRO_THREADS", raising=False)
    health.reset()
    try:
        with faults.injecting(None), trace.tracing() as rec:
            service = KernelService(store=store_dir)
            kernel, origin = service.get_with_origin(request)
            out = kernel(**tensors)
    finally:
        health.reset()
    assert origin == "disk" and service.stats().compiles == 0
    assert kernel.backend == "c"
    assert not [e for e in rec.events if e.name == "cc"]
    assert np.array_equal(out, result)
