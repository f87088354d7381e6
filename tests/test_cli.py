import argparse
import json

import pytest

from chevlab.cli import _parser, dispatch


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
    code, out, _ = run(capsys, "centralizer", "--system", "B2", "--prime",
                       "3")
    assert code == 1 and "cap" in out


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
], ids=["realization", "caret", "caret-minus", "gauss-f2"])
def test_bad_input_exit_2_one_line(capsys, argv, names):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err


@pytest.mark.parametrize("argv", [
    ["sha", "--system", "A1", "--prime", "4"],
    ["sha", "--system", "A1", "--prime", "9"],
    ["centralizer", "--system", "A1", "--prime", "1"],
    ["decompose", "--system", "A1", "--prime", "4", "x(a,1)"],
    ["eval", "--system", "A1", "--prime", "6", "x(a,1)"],
    ["eval", "--system", "A1", "--prime", "seven", "x(a,1)"],
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
