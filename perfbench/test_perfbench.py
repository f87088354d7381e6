"""Tests of the benchmark itself: inputs, known answers and tracing.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import known       # noqa: E402
import refclock    # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402
import worker      # noqa: E402
from chevlab import cli, exactring, prooflab  # noqa: E402


def run(argv):
    return worker.dispatch(cli, argv)


# --- inputs ---------------------------------------------------------------

def test_same_seed_gives_same_jobs():
    for name in workloads.WORKLOADS:
        assert workloads.jobs(name, 7) == workloads.jobs(name, 7)
    orders = {tuple(j["label"] for j in workloads.jobs("symbolic", s))
              for s in range(5)}
    assert len(orders) > 1


def test_decompose_cells_are_fixed_and_words_vary():
    for seed in (1, 2):
        jobs = workloads.jobs("decompose", seed)
        for system, schedule in workloads.CELL_SCHEDULE.items():
            cells = sorted(tuple(j["cell"]) for j in jobs
                           if j["system"] == system)
            assert cells == sorted(c for c, n in schedule for _ in range(n))
            assert len(cells) == 12
        for job in jobs:
            assert len(re.findall(r"x\(", job["word"])) == 8
    words = [{j["word"] for j in workloads.jobs("decompose", s)}
             for s in (1, 2)]
    assert words[0] != words[1]


# --- known answers ----------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["prooflab", "--system", "A1", "--mutants"],
    ["prooflab", "--system", "B2", "--mutants"],
    ["centralizer"],
    ["centralizer", "--system", "A2", "--prime", "3"],
    ["relations"],
    ["sha", "--system", "A1", "--prime", "5"],
])
def test_known_answers_accept_correct_output(argv):
    job = {"label": " ".join(argv), "argv": argv}
    rc, out, _ = run(argv)
    assert known.check(job, rc, out) == []


def test_wrong_expected_group_order_is_a_failure(monkeypatch):
    job = {"label": "sha", "argv": ["sha", "--system", "A1", "--prime", "5"]}
    rc, out, _ = run(job["argv"])
    assert known.check(job, rc, out) == []
    monkeypatch.setattr(known, "group_order", lambda system, p: 61)
    problems = known.check(job, rc, out)
    assert any("group_order" in p for p in problems)


def test_passing_mutant_is_a_failure():
    job = {"label": "A1", "argv": ["prooflab", "--system", "A1", "--mutants"]}
    rc, out, _ = run(job["argv"])
    lines = out.splitlines()
    k = next(i for i, line in enumerate(lines) if "-mutant" in line)
    obj = json.loads(lines[k])
    obj["detail"] = "mutant verdict PASS"
    lines[k] = json.dumps(obj)
    assert known.check(job, rc, "\n".join(lines))


def test_nonzero_exit_is_a_failure():
    job = {"label": "c", "argv": ["centralizer"]}
    rc, out, _ = run(job["argv"])
    assert known.check(job, 2, out) == ["exit code 2"]


def _decompose_job(system, p, cell, seed):
    word = workloads.bruhat_target(random.Random(seed), system, p, cell)
    return {"label": word, "system": system, "prime": p, "word": word,
            "cell": list(cell),
            "argv": ["decompose", "--system", system, "--prime", str(p),
                     "--bruhat", word]}


def _bump_first_letter(fact, p):
    """Add 1 (mod p) to the parameter of the first x letter."""
    def bump(m):
        return f"x({m.group(1)}, {(int(m.group(2)) + 1) % p})"
    return re.sub(r"x\(([^,]+), (\d+)\)", bump, fact, count=1)


@pytest.mark.parametrize("system,p,cell", [("A2", 3, (0,)),
                                           ("B2", 2, (1, 0))])
def test_bumped_bruhat_factorization_is_a_failure(system, p, cell):
    job = _decompose_job(system, p, cell, seed=3)
    rc, out, _ = run(job["argv"])
    assert known.check(job, rc, out) == []
    assert worker.verify_decomposition(cli, job, out) == []
    obj = json.loads(out)
    bumped = _bump_first_letter(obj["factorization"], p)
    assert bumped != obj["factorization"]
    obj["factorization"] = bumped
    assert worker.verify_decomposition(cli, job, json.dumps(obj))


def test_wrong_weyl_cell_is_a_failure():
    job = _decompose_job("B2", 2, (1, 0), seed=4)
    rc, out, _ = run(job["argv"])
    assert known.check(job, rc, out) == []
    job["cell"] = [0, 1]
    assert known.check(job, rc, out)


def test_weyl_matrix_is_the_coxeter_group():
    for system, m in (("A2", 3), ("B2", 4)):
        one = known.weyl_matrix(system, [])
        assert known.weyl_matrix(system, [0, 0]) == one
        assert known.weyl_matrix(system, [0, 1] * m) == one
        assert known.weyl_matrix(system, [0, 1] * (m - 1)) != one
    assert (known.weyl_matrix("A2", [0, 1, 0])
            == known.weyl_matrix("A2", [1, 0, 1]))


def test_same_element_up_to_scalar_only_for_pgl3():
    a = [[1, 2, 0], [0, 1, 0], [0, 0, 1]]
    b = [[2 * x % 3 for x in row] for row in a]
    assert known.same_element("A2", 3, a, b)
    assert not known.same_element("B2", 3, a, b)
    assert known.same_element("B2", 3, a, a)
    assert not known.same_element("A2", 3, a, [[1, 1, 0], [0, 1, 0],
                                               [0, 0, 1]])


# --- reference-speed seconds -----------------------------------------------

def test_ref_seconds_rescales_by_probe_speed_and_drops_samples():
    sampler = refclock.SpeedSampler()
    for k in range(1, 11):              # probes twice as slow as reference
        sampler.ends.append(float(k))
        sampler.durations.append(2 * refclock.REF_PROBE_S)
        sampler.spent.append(0.1)
    assert sampler.ref_seconds(0.0, 10.0) == pytest.approx((10 - 1.0) / 2)
    assert sampler.ref_seconds(10.0, 12.0) == pytest.approx(1.0)
    assert sampler.ref_seconds(2.5, 2.75) == pytest.approx(0.125)


# --- tracing --------------------------------------------------------------

def test_wrappers_reach_every_namespace_and_come_off():
    original = exactring.mul_terms
    assert prooflab.mul_terms is original
    t = tracer.Tracer()
    t.install(sys.modules["chevlab"])
    try:
        assert exactring.mul_terms is not original
        assert prooflab.mul_terms is exactring.mul_terms
        assert prooflab.build_basis is cli.build_basis
        prooflab.reduce_terms({(2,): exactring.Fraction(1)},
                              [exactring.RewriteRule((1,), {})])
    finally:
        t.uninstall()
    assert exactring.mul_terms is original and prooflab.mul_terms is original
    assert t.stats["exactring.reduce_terms"].calls == 1
    assert t.rewrites == t.stats["exactring.mul_terms"].calls >= 1


TRACED_JOBS = [
    ["sha", "--system", "A1", "--prime", "5"],
    ["centralizer", "--system", "A2", "--prime", "3"],
    ["prooflab", "--system", "A2", "--mutants"],
]

TRACED_SCRIPT = """
import json, sys
sys.path.insert(0, {here!r})
import refclock, worker
jobs = json.loads(sys.argv[1])
sampler = refclock.SpeedSampler()
sampler.start()
result = worker.run_pass(sampler, jobs, ("A1", "A2", "B2"),
                         refclock.clock(), sys.argv[2])
sampler.stop()
print(json.dumps(result))
"""

COUNTERS = re.compile(r"\.(calls|rewrites|products|distinct)$|group_order$")


def test_two_traced_runs_give_identical_counters(tmp_path):
    jobs = [{"label": " ".join(a), "argv": a} for a in TRACED_JOBS]
    jobs += [_decompose_job("B2", 2, (0, 1), seed=5),
             _decompose_job("A2", 3, (1,), seed=6)]
    script = TRACED_SCRIPT.format(here=HERE)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    results = []
    for k in range(2):
        spans = tmp_path / f"spans{k}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(jobs), str(spans)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["failed"] == 0, result["failures"]
        names = {json.loads(line)["name"] for line in open(spans)}
        assert {"cli.dispatch", "shacheck.generate_group",
                "decomp.bruhat_bruteforce",
                "prooflab.run_identity"} <= names
        results.append(result["layers"])
    counters = {k: v for k, v in results[0].items() if COUNTERS.search(k)}
    assert counters == {k: results[1][k] for k in counters}
    assert set(results[0]) == set(tracer.METRICS)
    for name in ("shacheck.mul.calls", "shacheck.mul.distinct",
                 "shacheck.group_order", "decomp.bruhat.products",
                 "prooflab.run_identity.calls", "chevgroup.matmul.calls",
                 "exactring.ring_op.calls", "cli.dispatch.calls"):
        assert counters[name] > 0, name
    assert counters["shacheck.group_order"] == 60 + 5616


# --- the command ------------------------------------------------------------

def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
