"""A/A noise: ``--aa K`` runs the whole benchmark K times on the same code
(a new seed each time, as the harness that gates on these numbers does) and
prints, per workload and end-to-end metric, how far apart the runs landed:
the full range and the inter-quartile distance, both as a share of the
median.  A metric is *inside* when its range fits the bound committed in
``BENCHMARK.json``; the last column is the bound the range asks for,
max(5 %, 2 x range).  The exit code is nonzero when a metric is outside or an
operation failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(args) -> int:
    from benchmarks.e2e.run import run_one

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}  # (workload, metric) -> [value per run]
    failed = 0
    for i in range(args.aa):
        for workload in (w["name"] for w in spec["workloads"]):
            code, result = run_one(workload, args.seed + i, args.seconds, trace=0)
            if code:
                raise SystemExit("run %d of %s exited with %d" % (i + 1, workload, code))
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
            print("run %d/%d %s done" % (i + 1, args.aa, workload), file=sys.stderr, flush=True)

    print("| workload | metric | median | range / median | IQR / median | bound | inside | max(5 %, 2 x range) |")
    print("|---|---|---|---|---|---|---|---|")
    status = 0
    for (workload, name), runs in values.items():
        mid = statistics.median(runs)
        q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (mid, mid, mid)
        spread = (max(runs) - min(runs)) / mid
        inside = spread <= bounds[name]
        status |= not inside
        print("| %s | %s | %.4g | %.1f %% | %.1f %% | %.4g %% | %s | %.0f %% |" % (
            workload, name, mid, 100 * spread, 100 * (q3 - q1) / mid,
            100 * bounds[name], "yes" if inside else "NO", 100 * max(0.05, 2 * spread)))
    print("\nfailed operations over all runs: %d" % failed)
    return status or int(failed > 0)
