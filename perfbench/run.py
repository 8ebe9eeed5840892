"""Benchmark entry point for remest.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The program is used straight from the
checkout's ``src`` directory; nothing is installed.  Each run:

1. times ``setup_s``: five fresh interpreters, each importing ``remest.cli``
   (median);
2. starts the workload in its own child process (``worker.py``), with one
   BLAS/OpenMP thread and an address-space limit set on that child only
   (``MEM_CAP_MB``);
3. prints every metric with its unit, the provenance of the run and any
   failures, and as its last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
   with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Full results (and, for traced runs, the raw spans) go to ``.perfbench/``.
Exit status: 0 when every answer checked out, 4 when a request returned a
wrong answer, 2 or 3 when the run itself could not complete (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# One client runs in one process, so BLAS gets one thread (within the cap of
# nproc).  Two BLAS threads on a two-core machine spin against anything else
# running there: one Model-B costly solve took 62 s instead of 3 s that way.
# Set before NumPy loads, for the speed probes this process runs too.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_VARS, str(BLAS_THREADS)))

import probe  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("continuous-solve", "integer-exact", "monte-carlo-long", "monte-carlo-wide")
# Seed kept out of every run made while a change is written; a claimed gain
# must also hold on it.
HELD_OUT_SEED = 90001
SETUP_SAMPLES = 5
# Address-space cap of the workload process.  Time to failure of a request
# that runs out of memory depends on it, so it stays fixed.
MEM_CAP_MB = 1200
WORKER_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("request_p50_s", "s"),
    ("request_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics printed in the final line of a traced run.  Times whose
# layer is idle on some workload stay in the printed report only (see
# perfbench/README.md); the counts are exact for a given seed.
PER_LAYER = (
    ("solver_b.fredholm_calls", "count"),
    ("solver_b.performance_calls", "count"),
    ("solver_b.price_map_evals", "count"),
    ("solver_b.algorithm_calls", "count"),
    ("solver_b.grid_calls", "count"),
    ("solver_b.order_sum", "count"),
    ("solver_b.order_max", "count"),
    ("solver_b.lu_factor_calls", "count"),
    ("solver_b.lu_flops", "flop"),
    ("model.density_calls", "count"),
    ("model.density_points", "count"),
    ("solver_a.build_calls", "count"),
    ("solver_a.silent_states", "count"),
    ("solver_a.solve_lm_calls", "count"),
    ("solver_a.lu_flops", "flop"),
    ("solver_a.corner_calls", "count"),
    ("solver_a.performance_calls", "count"),
    ("solver_a.dn_cache_hits", "count"),
    ("solver_a.dn_cache_misses", "count"),
    ("dp.value_iterate_calls", "count"),
    ("dp.vi_iterations", "count"),
    ("simulate.calls", "count"),
    ("simulate.rep_steps", "count"),
    ("simulate.rng_streams", "count"),
    ("model.sampler_draws", "count"),
    ("cli.requests", "count"),
    ("validation.checks", "count"),
    ("cli.self_s", "s"),
    ("cli.render_s", "s"),
    ("model.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Fresh interpreter to ``import remest.cli`` done, several times;
    returns the raw samples and the same samples at reference speed."""
    raw, scaled = [], []
    before = probe.sample()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import remest.cli"], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import remest.cli: {proc.stderr.strip()[-500:]}")
        after = probe.sample()
        scaled.append(raw[-1] * probe.local_factor(before, after))
        before = after
    return raw, scaled


def run_worker(workload: str, args, env: dict) -> dict:
    cap = MEM_CAP_MB * 1024 * 1024

    def limit():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--known-failures", str(args.known_failures)]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{workload}-s{args.seed}.json")]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            preexec_fn=limit, text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload {workload} exceeded {WORKER_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def provenance(args, versions: dict) -> dict:
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "remest"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        **versions,
        "blas_threads": BLAS_THREADS,
        "mem_cap_mb": MEM_CAP_MB,
        "workload_seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "known_failures": args.known_failures,
    }


def _timings(setup: list[float], res: dict) -> dict:
    """Timing metrics from per-pass latencies (raw, or already scaled)."""
    lat = sorted(t for ts in res for t in ts)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(ts) for ts in res),
        "request_p50_s": statistics.median(lat),
        "request_p90_s": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0],
    }


def _scaled(res: dict) -> list[list[float]]:
    """Each latency at reference speed, from the probe readings around it."""
    return [[t * probe.local_factor(ps[j], ps[j + 1]) for j, t in enumerate(ts)]
            for ts, ps in zip(res["pass_latencies"], res["pass_probes"])]


def report_workload(workload: str, args, setup: tuple[list[float], list[float]],
                    res: dict) -> tuple[dict, dict]:
    """Print the human-readable report of one workload; return its metrics,
    scaled and raw."""
    e2e = _timings(setup[1], _scaled(res))
    raw = _timings(setup[0], res["pass_latencies"])
    e2e["failed_frac"] = res["failed"] / res["attempted"]
    e2e["peak_rss_mb"] = res["peak_rss_mb"]
    n = res["attempted"]
    factors = [probe.speed_factor(p) for p in res["pass_probes"]]
    print(f"== {workload}: {n} requests in {len(res['pass_latencies'])} pass(es), "
          f"{res['checks']} checks, {res['elapsed_s']:.2f} s in the workload process; "
          f"median speed factor per pass {', '.join(f'{f:.3f}' for f in factors)}")
    notes = {
        "setup_s": f"median of {len(setup[0])} fresh interpreters",
        "wall_s": f"median over {len(res['pass_latencies'])} pass(es) of the mix's summed latency",
        "request_p50_s": f"n={n}",
        "request_p90_s": f"n={n}, {round(0.1 * n)} above",
        "failed_frac": f"{res['failed']}/{n}",
        "peak_rss_mb": f"ru_maxrss of the workload process, cap {MEM_CAP_MB} MB",
    }
    units = dict(END_TO_END, failed_frac="ratio")
    for name in ("setup_s", "wall_s", "request_p50_s", "request_p90_s", "failed_frac",
                 "peak_rss_mb"):
        measured = f"raw {raw[name]:.6g}; " if name in raw else ""
        print(f"  {name:<16} {e2e[name]:.6g} {units[name]:<6} ({measured}{notes[name]})")
    for f in res["failures"]:
        print(f"  FAILED {f.get('kind')}: {f.get('request')} {f.get('label', '')} "
              f"{f.get('error', '')} {f.get('detail', '')}".rstrip())
    layers = res.get("layers")
    if layers is not None:
        print(f"  -- per layer (traced pass 0; spans in .perfbench/spans-{workload}-s{args.seed}.json)")
        for name, value in layers.items():
            idle = "  (layer idle on this workload)" if value == 0 else ""
            print(f"  {name:<46} {value:.6g}{idle}")
        for name in res["absent"]:
            print(f"  {name:<46} absent: the program has no such entry point")
        grid, fred = layers.get("solver_b.grid_s", 0.0), layers.get("solver_b.fredholm_s", 0.0)
        if fred > 0:
            print(f"  trace sanity: solver_b.grid_s / solver_b.fredholm_s = {grid / fred:.3f}")
    return e2e, raw


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--known-failures", type=int, choices=(0, 1), default=0,
                    help="add the documented failing requests (Model-B --distortion abs)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "remest", "cli.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        setup = measure_setup(env)
        results = {w: run_worker(w, args, env) for w in names}
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    prov = provenance(args, next(iter(results.values()))["versions"])
    print("provenance " + json.dumps(prov, sort_keys=True))
    metrics: dict = {}
    for w, res in results.items():
        e2e, raw = report_workload(w, args, setup, res)
        prefix = "" if len(names) == 1 else f"{w}."
        if args.trace:
            layers = res["layers"]
            chosen = {f"{prefix}{k}": (layers.get(k, 0), u) for k, u in PER_LAYER}
        else:
            chosen = {f"{prefix}{k}": (e2e[k], u) for k, u in END_TO_END}
        metrics.update({k: {"value": v, "unit": u} for k, (v, u) in chosen.items()})
        with open(os.path.join(OUT_DIR, f"{w}-s{args.seed}-t{args.trace}.json"), "w") as fh:
            json.dump({"provenance": prov, "end_to_end": e2e, "raw": raw, "result": res}, fh)

    wrong = sum(r["wrong"] for r in results.values())
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if wrong == 0 else 4


if __name__ == "__main__":
    sys.exit(main())
