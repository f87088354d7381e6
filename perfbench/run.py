"""chevlab time-to-verdict benchmark.

    python3 perfbench/run.py --workload {symbolic,finite,decompose,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every pass is a fresh Python process
(perfbench/worker.py) that imports chevlab from ``src/`` and drives
``chevlab.cli.dispatch`` with ``--output json-lines --no-timing``.

--trace 0: five set-up-only processes, then passes until the next one would
end after S seconds (at least one).  Reports the end-to-end metrics:
setup_s, wall_s and peak_rss_mb, as medians.
--trace 1: one untraced pass, then one pass with every layer wrapped.
Reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  A record
with the environment, the job order and every pass goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracer     # noqa: E402
import workloads  # noqa: E402
from refclock import clock  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170          # every process of one run ends within this

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def spawn(workload, seed, deadline, *extra) -> dict:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    started = clock()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--spawned", repr(started), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - clock()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker passed the {RUN_LIMIT_S} s limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:"
                         f" {proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    if not os.path.abspath(result["chevlab"]).startswith(SRC + os.sep):
        raise BenchError(f"chevlab came from {result['chevlab']}, not {SRC}")
    result["process_s"] = clock() - started
    return result


def environment(workload, seed) -> dict:
    jobs = workloads.jobs(workload, seed)
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(),
            "seed": seed,
            "workload": workload,
            "job_count": len(jobs),
            "job_order": [job["label"] for job in jobs]}


def measure(workload, seed, seconds, deadline) -> dict:
    setups = [spawn(workload, seed, deadline, "--setup-only")
              for _ in range(SETUP_PROBES)]
    passes = []
    begin = clock()
    while True:
        passes.append(spawn(workload, seed, deadline))
        elapsed = clock() - begin
        next_end = elapsed + passes[-1]["process_s"]
        if next_end > seconds or begin + next_end > deadline:
            break
    setup_samples = [r["setup_s"] for r in setups + passes]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    return {"metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()},
            "passes": passes, "setups": setups}


def measure_traced(workload, seed, deadline) -> dict:
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    base = spawn(workload, seed, deadline)
    traced = spawn(workload, seed, deadline, "--trace", spans)
    metrics = {name: {"value": value, "unit": tracer.METRICS[name][0]}
               for name, value in traced["layers"].items()}
    metrics["trace.overhead_s"] = {
        "value": traced["wall_s"] - base["wall_s"], "unit": "s"}
    return {"metrics": metrics, "passes": [base, traced], "spans": spans}


def run_workload(workload, seed, seconds, trace, deadline) -> dict:
    if trace:
        out = measure_traced(workload, seed, deadline)
    else:
        out = measure(workload, seed, seconds, deadline)
    passes = out["passes"]
    out["attempted"] = sum(r["attempted"] for r in passes)
    out["failed"] = sum(r["failed"] for r in passes)
    out["environment"] = environment(workload, seed)
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(record, "w") as f:
        json.dump(out, f, indent=1)
    report(workload, out, record)
    return out


def report(workload, out, record):
    env = out["environment"]
    passes = out["passes"]
    print(f"== {workload}  seed {env['seed']}  {len(passes)} pass(es) of"
          f" {env['job_count']} jobs  python {env['python']}"
          f"  numpy {env['numpy']}  nproc {env['nproc']}")
    print("   job order: " + " | ".join(env["job_order"][:8])
          + (" | ..." if env["job_count"] > 8 else ""))
    for name, m in out["metrics"].items():
        print(f"   {name:44s} {m['value']:14.6g} {m['unit']}")
    if "wall_s" in out["metrics"]:
        raw = statistics.median(r["wall_raw_s"] for r in passes)
        print(f"   {'(wall_s read straight off the clock)':44s}"
              f" {raw:14.6g} s")
    share = out["failed"] / out["attempted"]
    print(f"   {'failed_share':44s} {share:14.6g} share"
          f"   ({out['failed']} of {out['attempted']} jobs)")
    for r in passes:
        for failure in r["failures"]:
            print(f"   FAILED {failure['job']}: {failure['problems']}")
    print(f"   record: {os.path.relpath(record, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chevlab", "__init__.py")):
        print(f"error: no chevlab sources under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = clock() + RUN_LIMIT_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{w}.{k}": m for w, r in results.items()
                   for k, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
