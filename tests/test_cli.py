import argparse
import fnmatch
import json
import os
import subprocess
import sys
import time

import pytest

import chevlab
from chevlab import prooflab, shacheck
from chevlab.cli import _parser, dispatch
from chevlab.rootsys import SYSTEMS, positive_roots


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_relations_g2(capsys):
    code, out, _ = run(capsys, "relations", "--system", "G2")
    assert code == 0
    assert "[x(a,t), x(b,u)] = x(a+b, t*u)" in out
    assert "x(2a+3b, t^2*u^3)" in out
    assert "x(a+3b, -3*t*u)" in out


def test_prooflab_b2(capsys):
    code, out, _ = run(capsys, "prooflab", "--system", "B2")
    assert code == 0
    assert "B2-cent-final" in out and "FAIL" not in out


def test_prooflab_filter_and_json(capsys):
    code, out, _ = run(capsys, "prooflab", "--system", "A1",
                       "--filter", "A1-trace", "--output", "json-lines",
                       "--no-timing")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert lines == [{"name": "A1-trace", "verdict": "PASS", "residual": ""}]


@pytest.mark.parametrize("argv", [["--filter", "zzz"],
                                  ["--system", "A1", "--filter", "B2-*"]])
def test_prooflab_filter_matching_nothing_is_an_error(capsys, argv):
    code, out, err = run(capsys, "prooflab", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: --filter {argv[-1]!r} matches no record\n"


def test_json_output_deterministic(capsys):
    args = ("prooflab", "--system", "A2", "--output", "json-lines",
            "--no-timing")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--system", "A1", "--vars", "t",
                       "x(a,t)")
    assert code == 0
    assert "t^2" in out

    code, _, err = run(capsys, "eval", "--system", "A1", "x(zz,1)")
    assert code == 2 and "error" in err


def test_malformed_word_exit_2(capsys):
    code, _, err = run(capsys, "eval", "--system", "A1", "x(a,1")
    assert code == 2


def test_sha(capsys):
    code, out, _ = run(capsys, "sha", "--system", "A1", "--prime", "3",
                       "--output", "json-lines", "--no-timing")
    assert code == 0
    rep = json.loads(out.strip())
    assert rep["verdict"] == "PASS" and rep["group_order"] == 12


def test_sha_names_the_prime_that_violates_the_hypothesis(capsys,
                                                         monkeypatch):
    def report(system, p, cap):
        return {"system": system, "p": p, "group_order": 1,
                "class_count": 1, "cp_endo_count": 1, "inner_count": 1,
                "verdict": "PASS", "hypothesis_violated": True}

    monkeypatch.setattr(shacheck, "sha_report", report)
    code, out, _ = run(capsys, "sha", "--system", "G2", "--prime", "3")
    assert code == 0
    assert out.startswith("PASS (HYPOTHESIS-VIOLATED: p=3) sha G2/F_3")


def test_memory_error_exits_2_with_one_line(capsys, monkeypatch):
    # exit 1 is a FAIL verdict; running out of memory refutes nothing
    def exhausted(system, p, cap):
        raise MemoryError

    monkeypatch.setattr(shacheck, "generate_group", exhausted)
    code, out, err = run(capsys, "sha", "--system", "B2", "--prime", "5",
                         "--cap", "5000000")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: out of memory in sha (system B2, prime 5, cap 5000000)"]
    assert "Traceback" not in err


BOUNDED_SHA = """
import os, resource, sys
from chevlab.cli import dispatch
# the address space in use once the interpreter, numpy and chevlab are in,
# plus 256 MiB: far less than the closure of |PSL3(7)| = 1,876,896 elements
in_use = int(open("/proc/self/statm").read().split()[0]) * os.sysconf(
    "SC_PAGE_SIZE")
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (in_use + 2 ** 28, hard))
sys.exit(dispatch(["sha", "--system", "A2", "--prime", "7",
                   "--cap", "2000000"]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS and /proc/self/statm are Linux's")
def test_address_space_limit_exits_2_with_one_line():
    # a real allocation failure, in a child with its own limit, exits as
    # the patched MemoryError above does
    src = os.path.dirname(os.path.dirname(os.path.abspath(chevlab.__file__)))
    proc = subprocess.run([sys.executable, "-c", BOUNDED_SHA],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: out of memory in sha (system A2, prime 7, cap 2000000)"]
    assert "Traceback" not in proc.stderr


def test_decompose_gauss(capsys):
    code, out, _ = run(capsys, "decompose", "--system", "A1", "--prime", "5",
                       "x(a,2) x(-a,3)")
    assert code == 0 and "t1(" in out


def test_decompose_bruhat(capsys):
    code, out, _ = run(capsys, "decompose", "--system", "A2", "--prime", "2",
                       "--bruhat", "x(a1,1) x(-a2,1)")
    assert code == 0 and "weyl" in out


def test_chain(capsys):
    code, out, _ = run(capsys, "chain")
    assert code == 0
    assert "G2-chain-final-2b" in out and "FAIL" not in out


def test_centralizer(capsys):
    # B2 over F_3 has order 25920, above the default cap
    code, out, _ = run(capsys, "centralizer", "--system", "B2", "--prime",
                       "3", "--cap", "30000")
    assert code == 0
    assert "B2-centralizer-family" in out
    assert "bruteforce" in out
    # a group over the cap is a usage error, not a FAIL
    code, out, err = run(capsys, "centralizer", "--system", "B2", "--prime",
                         "3")
    assert code == 2 and "cap" in err


def test_failure_exit_code(capsys):
    # a FAIL report must produce exit code 1: feed the runner a mutant by
    # filtering to a record and mutating through the mutants flag
    code, out, _ = run(capsys, "prooflab", "--system", "A1", "--mutants",
                       "--filter", "A1-trace")
    # mutants are reported as PASS when they fail, so exit stays 0
    assert code == 0 and "mutant verdict" in out


@pytest.mark.parametrize("argv,names", [
    # a realization of another system
    (["eval", "--system", "A2", "--realization", "a1std", "x(a1,1)"],
     "realization"),
    # a power with no exponent
    (["eval", "--system", "A1", "x(a,1)^"], "exponent"),
    (["eval", "--system", "A1", "x(a,1)^-"], "exponent"),
    # the Gauss decomposition divides by 2
    (["decompose", "--system", "A1", "--prime", "2", "x(a,1)"],
     "Gauss decomposition"),
    # the B2 and G2 families divide by 2, and the G2 family by 3; the
    # groups are over the cap, so the check comes before the closure
    (["centralizer", "--system", "B2", "--prime", "2"], "invertible"),
    (["centralizer", "--system", "G2", "--prime", "3"], "invertible"),
    # order 25920 is over the default cap
    (["centralizer", "--system", "B2", "--prime", "3"], "cap"),
    # |U| = 7^6 = 117649 and 19^4 = 130321 are over the Bruhat bound, so
    # the search stops before it enumerates U
    (["decompose", "--bruhat", "--system", "G2", "--prime", "7", "x(a,1)"],
     "Bruhat search bound"),
    (["decompose", "--bruhat", "--system", "B2", "--prime", "19",
      "x(a,1)"], "Bruhat search bound"),
    # a root may not end in a sign or split a symbol
    (["eval", "--system", "B2", "--vars", "t", "x(a+, t)"],
     "expected a name at ', t)'"),
    (["eval", "--system", "A2", "--vars", "t", "x(a1 + a 2, t)"],
     "unknown root symbol 'a'"),
    (["eval", "--system", "A1", "--vars", "t", "x(a,1/0)"],
     "zero is not a unit"),
    # an unterminated parameter fails inside the expression
    (["eval", "--system", "A1", "--vars", "t", "t1("],
     "expected a name at the end of 't1('"),
], ids=["realization", "caret", "caret-minus", "gauss-f2",
        "centralizer-b2-f2", "centralizer-g2-f3", "centralizer-cap",
        "bruhat-g2-f7", "bruhat-b2-f19", "root-trailing-sign",
        "root-split-symbol", "divide-by-zero", "unterminated-parameter"])
def test_bad_input_exit_2_one_line(capsys, argv, names):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err


@pytest.mark.parametrize("system,realization,word", [
    ("A2", "pgl3", "t1(0)"), ("A2", "adjoint", "t1(0)"),
    ("A2", "pgl3", "t2(3)"), ("A2", "pgl3", "h(a1,0)"),
    ("A1", "a1std", "t1(0)"), ("G2", "adjoint", "x(a,1) w(b,0)")])
def test_torus_and_weyl_letters_need_a_unit(capsys, system, realization,
                                            word):
    # pgl3's t1 scales by u and never by 1/u, so only the unit check that
    # every realization makes refuses u = 0 there
    code, out, err = run(capsys, "eval", "--system", system, "--prime", "3",
                         "--realization", realization, word)
    assert (code, out, err) == (2, "", "error: 0 is not a unit mod 3\n")


@pytest.mark.parametrize("argv", [
    ["sha", "--system", "A1", "--prime", "4"],
    ["sha", "--system", "A1", "--prime", "9"],
    ["centralizer", "--system", "A1", "--prime", "1"],
    ["decompose", "--system", "A1", "--prime", "4", "x(a,1)"],
    ["eval", "--system", "A1", "--prime", "6", "x(a,1)"],
    ["eval", "--system", "A1", "--prime", "seven", "x(a,1)"],
    # beyond the bound where primality is decided exactly, prime or not
    ["sha", "--system", "A1", "--prime", "3317044064679887385961981"],
    ["eval", "--system", "A1", "--prime", str(2 ** 89 - 1), "x(a,1)"],
])
def test_prime_must_be_prime(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "--prime" in err


def test_prime_power_ring(capsys):
    # Z/p^k stays available through decompose --power
    code, out, _ = run(capsys, "decompose", "--system", "A1", "--prime",
                       "3", "--power", "2", "--output", "json-lines",
                       "x(a,4) x(-a,3)")
    assert code == 0 and "factorization" in json.loads(out)


@pytest.mark.parametrize("args,factors", [
    (["--prime", "3", "--power", "16", "x(a,1) x(-a,2)"],
     "t1(1) x(alpha, 1) x(-alpha, 2) x(alpha, 0)"),
    (["--prime", "100000007", "h(a,50000000) x(a,1)"],
     "t1(25000014) x(alpha, 1) x(-alpha, 0) x(alpha, 0)"),
    (["--prime", "1000000000000000003", "h(a,2) x(a,1)"],
     "t1(4) x(alpha, 1) x(-alpha, 0) x(alpha, 0)"),
], ids=["p3-power16", "p100000007", "p1000000000000000003"])
def test_gauss_decompose_at_a_high_power(capsys, args, factors):
    # square roots mod 3^16 are lifted from a root mod 3, not found by a
    # scan of Z/3^16, the root mod a large prime comes from Tonelli-Shanks,
    # not a scan of its residues, and neither --prime nor the modulus is
    # factored by trial division
    start = time.perf_counter()
    code, out, _ = run(capsys, "decompose", "--system", "A1", *args)
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, f"PASS         {args[-1]} = {factors}\n")


def test_option_counts(capsys):
    # the settings each subcommand accepts, -h aside
    sub = next(a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    counts = {name: sum(not isinstance(a, argparse._HelpAction)
                        for a in p._actions)
              for name, p in sub.choices.items()}
    assert counts == {"relations": 3, "prooflab": 5, "chain": 2,
                      "centralizer": 5, "sha": 5, "decompose": 7, "eval": 7}
    # options no command reads are refused, not ignored
    assert run(capsys, "chain", "--system", "A1")[0] == 2
    assert run(capsys, "relations", "--cap", "5")[0] == 2


@pytest.mark.parametrize("option,argv", [
    ("--cap", ["sha", "--system", "A1", "--prime", "3", "--cap", "0"]),
    ("--cap", ["centralizer", "--system", "A1", "--prime", "3", "--cap",
               "-5"]),
    ("--power", ["decompose", "--system", "A1", "--prime", "3", "--power",
                 "0", "x(a,1)"]),
    ("--power", ["decompose", "--system", "A1", "--prime", "3", "--power",
                 "-1", "x(a,1)"]),
])
def test_cap_and_power_must_be_positive(capsys, option, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {option}: " in err and "not a positive integer" in err


def test_one_parser_per_process():
    assert _parser() is _parser()


BRUHAT_ARGV = ["decompose", "--system", "B2", "--prime", "2", "--bruhat",
               "x(-a,1) x(-b,1) x(a+b,1) x(-a,1) x(-b,1)"]


def test_repeated_dispatch_gives_the_same_output(capsys):
    # the parser is shared between calls, so no call leaves state in it
    for argv in (BRUHAT_ARGV + ["--output", "json-lines"],
                 ["sha", "--system", "A1", "--prime", "3", "--no-timing"],
                 ["eval", "--system", "A2", "--prime", "3", "t1(2) x(a1,1)"]):
        first = run(capsys, *argv)
        assert first[0] == 0 and first == run(capsys, *argv)
        bad = run(capsys, argv[0], "--system", "A1", "--bogus")
        assert bad[0] == 2 and bad[1] == ""
        assert run(capsys, *argv) == first


def test_decompose_bruhat_evaluates_no_whole_word(capsys, monkeypatch):
    # the target is multiplied from the context's letter arrays; a letter
    # the context has not seen yet is evaluated alone
    from chevlab import cli, decomp
    decomp._bruhat_context("B2", 2)
    lengths = []
    evaluate_word = decomp.evaluate_word

    def counting(word, *args, **kwargs):
        lengths.append(len(word.letters))
        return evaluate_word(word, *args, **kwargs)

    monkeypatch.setattr(decomp, "evaluate_word", counting)
    monkeypatch.setattr(cli, "evaluate_word", counting)
    first = run(capsys, *BRUHAT_ARGV)
    assert first[0] == 0 and max(lengths, default=0) <= 1
    lengths.clear()
    assert run(capsys, *BRUHAT_ARGV) == first and lengths == []


def test_bruhat_needs_a_field(capsys):
    code, out, err = run(capsys, "decompose", "--system", "A2", "--prime",
                         "3", "--power", "2", "--bruhat", "x(a1,1)")
    assert (code, out) == (2, "")
    assert err == "error: Bruhat decomposition works over a field\n"


@pytest.mark.parametrize("system,word", [("B2", "h(a,0)"),
                                         ("G2", "x(a,1) w(b,2)")])
def test_gauss_checks_the_system_before_evaluating(capsys, monkeypatch,
                                                    system, word):
    from chevlab import cli
    calls = []
    monkeypatch.setattr(cli, "evaluate_word",
                        lambda *args, **kwargs: calls.append(args))
    assert run(capsys, "decompose", "--system", system, "--prime", "3",
               word) == (2, "", "error: constructive Gauss decomposition"
                                " is A1-only\n")
    assert calls == []


def _fan_out_jobs(argv):
    """How many jobs ``prooflab`` or ``relations`` deals for ``argv``."""
    args = _parser().parse_args(argv)
    systems = [args.system] if args.system else list(SYSTEMS)
    if args.command == "relations":
        return sum(len(positive_roots(s)) * (len(positive_roots(s)) - 1)
                   for s in systems)
    return sum(not args.filter or fnmatch.fnmatch(rec.name, args.filter)
               for s in systems for rec in prooflab.builtin_catalog(s))


@pytest.mark.parametrize("argv", [
    ["prooflab", *system, *mutants]
    for system in ([], *(["--system", s] for s in SYSTEMS))
    for mutants in ([], ["--mutants"])] + [
    ["prooflab", "--filter", "B2-cent-final", "--mutants"],
    ["relations"], ["relations", "--system", "A1"]], ids=" ".join)
def test_output_is_the_same_on_any_cpu_count(capsys, monkeypatch, argv):
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    jobs = _fan_out_jobs(argv)
    if "--filter" in argv:
        assert jobs == 1
    outputs = {}
    for cpus in (1, 2, 8):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        for output in ("text", "json-lines"):
            forks.clear()
            outputs.setdefault(output, []).append(
                run(capsys, *argv, "--output", output, "--no-timing"))
            assert len(forks) == max(min(cpus, 4, jobs) - 1, 0)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
    for runs in outputs.values():
        assert runs[0][0] == 0 and runs[0][1] and not runs[0][2]
        assert runs[0] == runs[1] == runs[2]
