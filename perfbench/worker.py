"""One workload in one process: run passes of its request mix, check them.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and an address-space cap on this process only.  Prints one JSON
object as its last line of standard output.

Every mix is sized so one pass takes about ``PASS_SECONDS`` on the machine
the baseline was recorded on.  An untraced run makes ``--seconds /
PASS_SECONDS`` passes (pass i draws its inputs from ``[seed, i]``), so both
sides of a comparison do the same work whatever their speed.  A traced run
makes pass 0 three times: a warm-up, traced, untraced.  The difference of
the last two is the tracing overhead, and every count repeats exactly for a
given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from remest import solver_a  # noqa: E402

PASS_SECONDS = 8.0


def run_pass(ps: workloads.Pass, tracer=None) -> dict:
    """Execute every request in order, then evaluate the checks untimed."""
    latencies = []
    probes = [probe.sample()]  # probes[j] and probes[j + 1] bracket request j
    failures = []
    failed_keys = set()
    for req in ps.requests:
        if tracer is not None:
            tracer.request_id = req.key
        t0 = time.perf_counter()
        try:
            ps.outputs[req.key] = req.call()
        except Exception as exc:  # every request failure is counted, the run goes on
            failed_keys.add(req.key)
            failures.append({"request": req.key, "label": req.label, "kind": "error",
                             "error": type(exc).__name__, "detail": str(exc)[:300]})
        latencies.append(time.perf_counter() - t0)
        probes.append(probe.sample())
    if tracer is not None:
        tracer.request_id = None

    wrong = 0
    checked = 0
    for chk in ps.checks:
        if any(k in failed_keys for k in chk.keys):
            continue
        checked += 1
        try:
            ok, detail = chk.fn(*(ps.outputs[k] for k in chk.keys))
        except Exception:
            ok, detail = False, traceback.format_exc(limit=2)[-300:]
        if not ok:
            wrong += 1
            failures.append({"request": ",".join(chk.keys), "kind": "wrong answer",
                             "detail": detail})
            failed_keys.update(k for k in chk.keys)
    return {"latencies": latencies, "probes": probes, "failed": len(failed_keys),
            "wrong": wrong, "checks": checked, "failures": failures}


def scaled_wall(result: dict) -> float:
    """Summed latency of a pass at the probe's reference speed."""
    ps = result["probes"]
    return sum(t * probe.local_factor(ps[j], ps[j + 1])
               for j, t in enumerate(result["latencies"]))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--known-failures", type=int, default=0)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args()
    known = bool(args.known_failures)
    began = time.perf_counter()
    passes = []
    result: dict = {}

    if args.trace:
        # warm-up pass, then the traced pass and an untraced one on equal footing
        run_pass(workloads.build_pass(args.workload, args.seed, 0, known))
        ps = workloads.build_pass(args.workload, args.seed, 0, known)
        tracer = spans.Tracer()
        # the (D, N) cache is read through lru_cache's own counters
        cache_info = getattr(getattr(solver_a, "_dn_at", None), "cache_info", None)
        cache0 = cache_info() if cache_info else None
        tracer.install()
        try:
            traced = run_pass(ps, tracer)
        finally:
            tracer.uninstall()
        cache1 = cache_info() if cache_info else None
        passes.append(traced)
        passes.append(run_pass(workloads.build_pass(args.workload, args.seed, 0, known)))
        layers = spans.layer_metrics(tracer)
        # span times are scaled like the latencies, by the traced pass's speed
        speed = probe.speed_factor(traced["probes"])
        for name in layers:
            if name.endswith(("_s", "ns_per_rep_step")):
                layers[name] *= speed
        absent = list(tracer.missing)
        if cache_info:
            layers["solver_a.dn_cache_hits"] = cache1.hits - cache0.hits
            layers["solver_a.dn_cache_misses"] = cache1.misses - cache0.misses
        else:
            absent += ["solver_a.dn_cache_hits", "solver_a.dn_cache_misses"]
        layers["trace.overhead_s"] = scaled_wall(traced) - scaled_wall(passes[1])
        layers["trace.spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
        result["layers"] = layers
        result["absent"] = absent
    else:
        for index in range(max(1, round(args.seconds / PASS_SECONDS))):
            ps = workloads.build_pass(args.workload, args.seed, index, known)
            passes.append(run_pass(ps))

    result.update({
        "pass_latencies": [p["latencies"] for p in passes],
        "pass_probes": [p["probes"] for p in passes],
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "wrong": sum(p["wrong"] for p in passes),
        "checks": sum(p["checks"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:50],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "elapsed_s": time.perf_counter() - began,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
