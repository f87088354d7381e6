"""One fresh benchmark process: set up chevlab, run one pass, check it.

    python3 perfbench/worker.py --workload W --seed N --spawned T [--setup-only]
                                [--trace SPANS_PATH]

T is the parent's ``refclock.clock()`` just before it started this process,
so set-up time counts interpreter start.  The last line of standard output is
a JSON object with the pass's measurements and its known-answer problems.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback

import known
import workloads
from refclock import SpeedSampler, clock

COMMON_FLAGS = ["--output", "json-lines", "--no-timing"]


def dispatch(cli, argv):
    """Run one CLI call in-process, as a user's call would run it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.dispatch(argv + COMMON_FLAGS)
    return rc, out.getvalue(), err.getvalue()


def eval_entries(cli, system, p, word):
    rc, out, err = dispatch(cli, ["eval", "--system", system,
                                  "--prime", str(p), word])
    if rc != 0:
        raise ValueError(f"eval exited {rc}: {err.strip()}")
    return [[int(x) for x in row] for row in json.loads(out)["entries"]]


def verify_decomposition(cli, job, out) -> list:
    """Evaluate the target and the returned factorization and compare."""
    system, p = job["system"], job["prime"]
    try:
        fact = json.loads(out)["factorization"]
        target = eval_entries(cli, system, p, job["word"])
        claim = eval_entries(cli, system, p, fact)
    except (ValueError, KeyError) as exc:
        return [f"factorization not checkable: {exc}"]
    if not known.same_element(system, p, target, claim):
        return [f"factorization {fact!r} does not evaluate to the target"]
    return []


def run_pass(sampler, jobs, systems, spawned, trace_path=None) -> dict:
    """Set up, run ``jobs`` once, then check every output."""
    import chevlab
    from chevlab import chevgroup, cli
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(chevlab)
    for system in systems:
        chevgroup.build_basis(system)
    ready = clock()

    results = []
    times = []
    start = clock()
    for index, job in enumerate(jobs):
        if tracer:
            tracer.job = index
        t0 = clock()
        try:
            rc, out, err = dispatch(cli, job["argv"])
        except Exception:  # a crash is a failed job, not a lost pass
            rc, out, err = -1, "", traceback.format_exc(limit=-3)
        times.append(clock() - t0)
        results.append((rc, out, err))
        if tracer:
            tracer.end_job()
    end = clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    failures = []
    for job, (rc, out, err) in zip(jobs, results):
        problems = known.check(job, rc, out)
        if not problems and job["argv"][0] == "decompose":
            problems = verify_decomposition(cli, job, out)
        if err.strip():
            problems.append(f"stderr: {err.strip()[-300:]}")
        if problems:
            failures.append({"job": job["label"], "problems": problems[:5]})

    result = {
        "chevlab": chevlab.__file__,
        "setup_s": sampler.ref_seconds(spawned, ready),
        "setup_raw_s": ready - spawned,
        "wall_s": sampler.ref_seconds(start, end),
        "wall_raw_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "job_raw_s": times,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        tracer.write_spans(trace_path)
    return result


def run_setup(sampler, systems, spawned) -> dict:
    import chevlab
    from chevlab import chevgroup, cli  # noqa: F401  (a CLI call imports cli)
    for system in systems:
        chevgroup.build_basis(system)
    ready = clock()
    return {"chevlab": chevlab.__file__,
            "setup_s": sampler.ref_seconds(spawned, ready),
            "setup_raw_s": ready - spawned}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    # chevlab is imported only after the sampler starts, so the core speed
    # during set-up is known too.
    sampler = SpeedSampler()
    sampler.start()
    systems = workloads.SYSTEMS[args.workload]
    if args.setup_only:
        result = run_setup(sampler, systems, args.spawned)
    else:
        jobs = workloads.jobs(args.workload, args.seed)
        result = run_pass(sampler, jobs, systems, args.spawned, args.trace)
    sampler.stop()
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
