"""Committed problem sizes and operation counts.

Calibrated once on the recording host (2 vCPUs, cc -O3 -march=native) and
never at run time: both sides of a comparison must do identical work, so a
faster program shows as shorter operations, not as more of them.
"""

from __future__ import annotations

from typing import Dict

#: the six paper kernels of ``kernel_steady`` (SySTeC variants timed; the
#: naive variants only in the traced pass).
STEADY_KERNELS = ("ssymv", "syprd", "ssyrk", "ttm", "mttkrp3d", "mttkrp4d")
#: one in-process request per kernel makes a ``fresh_requests`` operation.
FRESH_KERNELS = ("ssymv", "syprd", "ssyrk", "mttkrp3d")
#: compiled from nothing by every ``cold_compile`` operation.
COLD_KERNELS = ("ssymv", "ssyrk", "mttkrp3d")
#: executed over the socket by every ``daemon_roundtrip`` sweep.
DAEMON_KERNELS = ("ssymv", "ssyrk", "mttkrp3d")

#: ``n`` = side length, ``nnz`` = canonical (stored-triangle) nonzeros,
#: ``rank`` = columns of the dense factor, ``cols`` = columns of the
#: (non-symmetric) SSYRK operand.  kernel_steady: ~5 ms per plan call each,
#: working set above the 4 MiB L2.
STEADY_SIZES: Dict[str, Dict[str, int]] = {
    "ssymv": {"n": 150_000, "nnz": 900_000},
    "syprd": {"n": 150_000, "nnz": 900_000},
    "ssyrk": {"n": 1_200, "cols": 1_200, "nnz": 48_000},
    "ttm": {"n": 200, "nnz": 220_000, "rank": 16},
    "mttkrp3d": {"n": 350, "nnz": 400_000, "rank": 16},
    "mttkrp4d": {"n": 110, "nnz": 200_000, "rank": 16},
}
#: fresh_requests: preparation of a full (both-triangles) payload dominates.
FRESH_SIZES: Dict[str, Dict[str, int]] = {
    "ssymv": {"n": 30_000, "nnz": 200_000},
    "syprd": {"n": 30_000, "nnz": 200_000},
    "ssyrk": {"n": 600, "cols": 600, "nnz": 12_000},
    "mttkrp3d": {"n": 200, "nnz": 60_000, "rank": 8},
}
#: daemon_roundtrip ships dense tensors (base64 in JSON): ``n`` is the side,
#: ``nnz`` the canonical nonzeros scattered into the dense array.
DAEMON_SIZES: Dict[str, Dict[str, int]] = {
    "ssymv": {"n": 384, "nnz": 4_000},
    "ssyrk": {"n": 192, "cols": 192, "nnz": 2_000},
    "mttkrp3d": {"n": 40, "nnz": 1_500, "rank": 8},
}
#: the small twins every kernel is checked on against its dense reference,
#: and the n=32 twins of the dispatch-floor probe.
TWIN_SIZES: Dict[str, Dict[str, int]] = {
    "ssymv": {"n": 32, "nnz": 120},
    "syprd": {"n": 32, "nnz": 120},
    "ssyrk": {"n": 32, "cols": 24, "nnz": 150},
    "ttm": {"n": 14, "nnz": 120, "rank": 5},
    "mttkrp3d": {"n": 14, "nnz": 120, "rank": 5},
    "mttkrp4d": {"n": 10, "nnz": 150, "rank": 4},
}

#: sweeps over every kernel of the workload that make one operation (the
#: other two workloads make one pass).
SWEEPS = {"kernel_steady": 5, "daemon_roundtrip": 4}
#: calibrated duration of one operation plus the canary that follows it
#: (~10 ms; ~50 ms of ``cc`` on ``cold_compile``), used only to turn
#: ``--seconds`` into an operation count (count = seconds / OP_SECONDS): the
#: count is fixed by the command line, not by how fast this build happens to be.
OP_SECONDS = {
    "kernel_steady": 0.160,
    "fresh_requests": 0.200,
    "cold_compile": 0.870,
    "daemon_roundtrip": 0.180,
}
#: what a run may take beyond ``--seconds`` in the recording host's slow half
#: hours: its loop stretched to LOOP_BUDGET (5 s) and everything outside the
#: loop (interpreter start, input generation, imports, set-ups, checks,
#: tear-down: 4-9 s by workload).  ``run_seconds`` of ``BENCHMARK.json`` is
#: what is left of the gating harness's time per run (3420 s / 92 runs = 37 s).
RUN_OVERHEAD_SECONDS = 14
#: untimed operations before the timed ones, per workload.
WARMUP_OPS = {"kernel_steady": 3, "fresh_requests": 3, "cold_compile": 1, "daemon_roundtrip": 3}
#: how many times set-up is repeated in a run (``setup_s`` is their median).
SETUP_REPEATS = 3
#: a loop stops after this many times ``--seconds``, whatever its count: the
#: gating harness's time limit holds in the host's slow half hours too.
LOOP_BUDGET = 1.25
#: the traced pass runs this share of the operation count.
TRACED_SHARE = 0.1

def operation_count(workload: str, seconds: float, traced: bool = False) -> int:
    """Timed operations for a run of *seconds*: a committed function of the
    command line only."""
    count = seconds / OP_SECONDS[workload]
    if traced:
        count *= TRACED_SHARE
    return max(4, int(round(count)))


def smoke(sizes: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Tiny stand-ins for ``--smoke``: every size becomes its small twin."""
    return {name: TWIN_SIZES[name] for name in sizes}
