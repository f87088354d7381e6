"""Byte-for-byte ``--no-timing`` json-lines output of every command, under
``python`` and under ``python -O``.

The ``sha`` and ``decompose --bruhat`` lines were produced by the exhaustive
implementations that the generator-image ``sha`` search and the Bruhat
lookup replaced; the other lines by the code before the duplicate paths,
dead helpers and unread options were deleted.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import chevlab
from chevlab.cli import dispatch

SRC = os.path.dirname(os.path.dirname(os.path.abspath(chevlab.__file__)))
FLAGS = ["--output", "json-lines", "--no-timing"]

GOLDEN = [
    (["sha", "--system", "A1", "--prime", "13"],
     '{"class_count": 9, "cp_endo_count": 1092, "group_order": 1092,'
     ' "hypothesis_violated": false, "inner_count": 1092, "p": 13,'
     ' "system": "A1", "verdict": "PASS"}\n'),
    (["sha", "--system", "B2", "--prime", "2"],
     '{"class_count": 11, "cp_endo_count": 720, "group_order": 720,'
     ' "hypothesis_violated": true, "inner_count": 720, "p": 2,'
     ' "system": "B2", "verdict": "PASS"}\n'),
    (["decompose", "--system", "A1", "--prime", "3", "--bruhat",
      "x(a,1) x(-a,2) x(a,2)"],
     '{"factorization": "w(alpha, 1) x(alpha, 1)", "weyl_word": [0]}\n'),
    (["decompose", "--system", "A2", "--prime", "3", "--bruhat",
      "x(a1,2) x(-a1,1) x(-a2,2) x(a1+a2,1) x(-a1,1)"],
     '{"factorization": "h(a1+a2, 2) x(a2, 2) x(a1+a2, 1) w(a1, 1)'
     ' w(a2, 1) w(a1, 1) x(a1, 1) x(a1+a2, 2)", "weyl_word": [0, 1, 0]}\n'),
    (["decompose", "--system", "B2", "--prime", "2", "--bruhat",
      "x(-a,1) x(-b,1) x(a+b,1) x(-a,1) x(-b,1)"],
     '{"factorization": "x(a, 1) x(a+b, 1) w(a, 1) w(b, 1) w(a, 1)'
     ' w(b, 1) x(a, 1) x(b, 1) x(a+2b, 1)", "weyl_word": [0, 1, 0, 1]}\n'),
    (["relations"],
     '{"long_root_trace": "t^2*s^2 + 4*t*s + 3", "system": "A1"}\n'
     '{"d": [0, 1], "factors": [[1, 1, [1, 1], 1]], "g": [1, 0], '
     '"system": "A2"}\n'
     '{"d": [1, 0], "factors": [[1, 1, [1, 1], -1]], "g": [0, 1], '
     '"system": "A2"}\n'
     '{"long_root_trace": "t^2*s^2 + 6*t*s + 8", "system": "A2"}\n'
     '{"d": [0, 1], "factors": [[1, 1, [1, 1], -1], [1, 2, [1, 2], '
     '-1]], "g": [1, 0], "system": "B2"}\n'
     '{"d": [1, 0], "factors": [[1, 1, [1, 1], 1], [2, 1, [1, 2], 1]], '
     '"g": [0, 1], "system": "B2"}\n'
     '{"d": [1, 1], "factors": [[1, 1, [1, 2], 2]], "g": [0, 1], '
     '"system": "B2"}\n'
     '{"d": [0, 1], "factors": [[1, 1, [1, 2], -2]], "g": [1, 1], '
     '"system": "B2"}\n'
     '{"long_root_trace": "t^2*s^2 + 6*t*s + 10", "system": "B2"}\n'
     '{"d": [0, 1], "factors": [[1, 1, [1, 1], 1], [1, 2, [1, 2], -1], '
     '[2, 3, [2, 3], 1], [1, 3, [1, 3], -1]], "g": [1, 0], '
     '"system": "G2"}\n'
     '{"d": [1, 3], "factors": [[1, 1, [2, 3], 1]], "g": [1, 0], '
     '"system": "G2"}\n'
     '{"d": [1, 0], "factors": [[1, 1, [1, 1], -1], [2, 1, [1, 2], 1], '
     '[3, 2, [2, 3], 2], [3, 1, [1, 3], 1]], "g": [0, 1], '
     '"system": "G2"}\n'
     '{"d": [1, 1], "factors": [[1, 2, [2, 3], -3], [1, 1, [1, 2], -2], '
     '[2, 1, [1, 3], -3]], "g": [0, 1], "system": "G2"}\n'
     '{"d": [1, 2], "factors": [[1, 1, [1, 3], 3]], "g": [0, 1], '
     '"system": "G2"}\n'
     '{"d": [0, 1], "factors": [[2, 1, [2, 3], 3], [1, 1, [1, 2], 2], '
     '[1, 2, [1, 3], 3]], "g": [1, 1], "system": "G2"}\n'
     '{"d": [1, 2], "factors": [[1, 1, [2, 3], 3]], "g": [1, 1], '
     '"system": "G2"}\n'
     '{"d": [0, 1], "factors": [[1, 1, [1, 3], -3]], "g": [1, 2], '
     '"system": "G2"}\n'
     '{"d": [1, 1], "factors": [[1, 1, [2, 3], -3]], "g": [1, 2], '
     '"system": "G2"}\n'
     '{"d": [1, 0], "factors": [[1, 1, [2, 3], -1]], "g": [1, 3], '
     '"system": "G2"}\n'
     '{"long_root_trace": "t^2*s^2 + 8*t*s + 14", "system": "G2"}\n'),
    (["prooflab", "--system", "A1", "--mutants"],
     '{"name": "A1-gauss-entry-residuals", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"name": "A1-neg-centralizer-family", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"name": "A1-quad-involution", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A1-rankone", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A1-step6-factorization", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"name": "A1-trace", "residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "A1-trace-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A1-quad-involution-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A1-step6-factorization-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A1-neg-centralizer-family-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A1-gauss-entry-residuals-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "A1-rankone-mutant", '
     '"residual": "", "verdict": "PASS"}\n'),
    (["prooflab", "--system", "A2", "--mutants"],
     '{"name": "A2-X0inv-xa1", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-X2-consistency", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-X2inv-from-X0-X1", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-additivity--a1", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-additivity--a1-a2", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"name": "A2-additivity--a2", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-additivity-a1", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-additivity-a1_a2", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-additivity-a2", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-comm-a1-a2", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-comm-a1-negg", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-comm-a2-negg", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-comm-g-nega1", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-comm-g-nega2", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-conj-displacement", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"name": "A2-f7-char7-word", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-f7-htilde", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-first-constraint", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-involution-conj", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-nilpotent-rankone", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"name": "A2-reorder-a2-a1", "residual": "", "verdict": "PASS"}\n'
     '{"detail": "the case analysis locating the involution images H_1, '
     'H_12 is quantified over the unknown endomorphism", '
     '"name": "A2-skip-H1-case-analysis", "residual": "", '
     '"verdict": "SKIPPED"}\n'
     '{"name": "A2-w-square-1", "residual": "", "verdict": "PASS"}\n'
     '{"name": "A2-w-square-2", "residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-additivity-a1-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-additivity-a2-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-additivity-a1_a2-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-additivity--a1-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-additivity--a2-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-additivity--a1-a2-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "A2-comm-a1-a2-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-comm-a1-negg-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-comm-a2-negg-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-comm-g-nega1-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-comm-g-nega2-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-reorder-a2-a1-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "A2-w-square-1-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "A2-w-square-2-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict INCONCLUSIVE", '
     '"name": "A2-nilpotent-rankone-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "A2-X0inv-xa1-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-first-constraint-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-X2inv-from-X0-X1-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-X2-consistency-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-involution-conj-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-conj-displacement-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "A2-f7-htilde-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "A2-f7-char7-word-mutant", "residual": "", '
     '"verdict": "PASS"}\n'),
    (["prooflab", "--system", "B2", "--mutants"],
     '{"name": "B2-X1-comm", "residual": "", "verdict": "PASS"}\n'
     '{"name": "B2-X3-comm", "residual": "", "verdict": "PASS"}\n'
     '{"name": "B2-cent-final", "residual": "", "verdict": "PASS"}\n'
     '{"name": "B2-comm-a-b", "residual": "", "verdict": "PASS"}\n'
     '{"name": "B2-comm-ab-b", "residual": "", "verdict": "PASS"}\n'
     '{"name": "B2-rankone-a2b", "residual": "", "verdict": "PASS"}\n'
     '{"name": "B2-short-root-comm", "residual": "", "verdict": "PASS"}\n'
     '{"name": "B2-torus-compare-weights", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "B2-comm-a-b-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "B2-comm-ab-b-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "B2-cent-final-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "B2-X3-comm-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "B2-X1-comm-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "B2-torus-compare-weights-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "B2-rankone-a2b-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "B2-short-root-comm-mutant", "residual": "", '
     '"verdict": "PASS"}\n'),
    (["prooflab", "--system", "G2", "--mutants"],
     '{"name": "G2-X1-nilpotent-cubed", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"name": "G2-X2-nilpotent-fourth", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"name": "G2-X5-family-comm", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-comm-a-a3b", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-comm-a-b", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-comm-a2b-b", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-comm-ab-a2b", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-comm-ab-b", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-f7-wtilde", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-fact-X1-X0", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-fact-X1-X5", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-fact-X3-X0", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-fact-X3-X4", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-fact-X4-X0", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-fact-X5-X0", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-normalizer-X1", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-normalizer-X2", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-normalizer-X3", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-normalizer-X4", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-normalizer-X5", "residual": "", "verdict": "PASS"}\n'
     '{"name": "G2-normalizer-X6", "residual": "", "verdict": "PASS"}\n'
     '{"detail": "the torus-part elimination for W_2 is quantified over'
     ' the unknown endomorphism", '
     '"name": "G2-skip-W2-torus-elimination", "residual": "", '
     '"verdict": "SKIPPED"}\n'
     '{"detail": "the Bruhat-form elimination for X_5 over a field is'
     ' quantified over the unknown endomorphism", '
     '"name": "G2-skip-X5-bruhat-elimination", "residual": "", '
     '"verdict": "SKIPPED"}\n'
     '{"detail": "mutant verdict FAIL", "name": "G2-comm-a-b-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "G2-comm-ab-b-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "G2-comm-a-a3b-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "G2-comm-a2b-b-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "G2-comm-ab-a2b-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "G2-fact-X5-X0-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "G2-fact-X4-X0-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "G2-fact-X3-X4-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "G2-fact-X3-X0-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "G2-fact-X1-X5-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "G2-fact-X1-X0-mutant", '
     '"residual": "", "verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "G2-normalizer-X1-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "G2-normalizer-X2-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "G2-normalizer-X3-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "G2-normalizer-X4-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "G2-normalizer-X5-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "G2-normalizer-X6-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "G2-X1-nilpotent-cubed-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "G2-X2-nilpotent-fourth-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", '
     '"name": "G2-X5-family-comm-mutant", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "mutant verdict FAIL", "name": "G2-f7-wtilde-mutant", '
     '"residual": "", "verdict": "PASS"}\n'),
    (["centralizer"],
     '{"name": "A1-centralizer-family", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"name": "A2-centralizer-family", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"name": "B2-centralizer-family", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"name": "G2-centralizer-family", "residual": "", '
     '"verdict": "PASS"}\n'),
    (["centralizer", "--system", "A2", "--prime", "3"],
     '{"name": "A2-centralizer-family", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "count 9", "name": "A2-centralizer-bruteforce-p3", '
     '"residual": "", "verdict": "PASS"}\n'),
    (["chain"],
     '{"detail": "entry (0,1) = unit * claim, unit scalar -1/4", '
     '"name": "G2-chain-b2c4", "residual": "", "verdict": "PASS"}\n'
     '{"detail": "entry (0,0) = unit * claim, unit scalar -1", '
     '"name": "G2-chain-ac5", "residual": "", "verdict": "PASS"}\n'
     '{"detail": "entry (0,5) = unit * claim, unit scalar 1", '
     '"name": "G2-chain-c3cube", "residual": "", "verdict": "PASS"}\n'
     '{"detail": "claim * a^0 d^0 lies in the span of the residual entries", '
     '"name": "G2-chain-b-ac2sq", "residual": "", "verdict": "PASS"}\n'
     '{"detail": "claim * a^0 d^1 lies in the span of the residual entries", '
     '"name": "G2-chain-c4-c2sq", "residual": "", "verdict": "PASS"}\n'
     '{"detail": "claim * a^0 d^1 lies in the span of the residual entries", '
     '"name": "G2-chain-c3sq-plus-c2cube", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "claim * a^0 d^1 lies in the span of the residual entries", '
     '"name": "G2-chain-c2quad", "residual": "", "verdict": "PASS"}\n'
     '{"detail": "entry (1,0) = unit * claim, unit scalar -1", '
     '"name": "G2-chain-bc1", "residual": "", "verdict": "PASS"}\n'
     '{"detail": "entry (1,7) = unit * claim, '
     'unit scalar -1; with 2 invertible, b rewrites to 0", '
     '"name": "G2-chain-final-2b", "residual": "", "verdict": "PASS"}\n'),
    (["eval", "--system", "A2", "--vars", "t,s",
      "x(a1,t) x(-a2,s) h(a1+a2,-1)"],
     '{"entries": [["-1", "t", "0"], ["0", "1", "0"], ["0", "s", "-1"]]}\n'),

]
IDS = [" ".join(argv[:3]) + (" bruhat" if "--bruhat" in argv else "")
       for argv, _ in GOLDEN]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=IDS)
def test_golden_output(argv, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert dispatch(argv + FLAGS) == 0
    assert out.getvalue() == expected


def test_golden_output_optimized():
    script = (
        "import contextlib, io, json, sys\n"
        "from chevlab.cli import dispatch\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = dispatch(argv)\n"
        "    print(json.dumps([code, out.getvalue()]))\n")
    jobs = [argv + FLAGS for argv, _ in GOLDEN]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", script,
                           json.dumps(jobs)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert results == [[0, expected] for _, expected in GOLDEN]
