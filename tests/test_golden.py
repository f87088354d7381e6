"""Byte-for-byte ``--no-timing`` json-lines output of every command, under
``python`` and under ``python -O``.

The ``sha`` and ``decompose --bruhat`` lines were produced by the exhaustive
implementations that the generator-image ``sha`` search and the Bruhat
lookup replaced, except the A2/F_3 ``sha`` line, which the full
generator-image search produced before the search was restricted to the
maps fixing the first generator; the other lines by the code before the
duplicate paths, dead helpers and unread options were deleted.  The A2/F_5,
B2/F_3 and G2/F_2 ``decompose --bruhat`` lines and the A1/F_5 and A2/F_2
``centralizer --prime`` lines were produced by the ``AdjointMatrix`` search
and family evaluation that integer arrays replaced.  The A2/F_7
``decompose --bruhat`` line pins the projective scaling of the pgl3 keys:
7 = 1 mod 3, so 2I is a scalar of SL3(7), and keys without the scaling
give the torus factor ``h(a1, 2) h(a1+a2, 6)`` instead.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import chevlab
from chevlab import chevgroup
from chevlab.cli import dispatch
from chevlab.exactring import RING_KINDS

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
    (["sha", "--system", "A2", "--prime", "3"],
     '{"class_count": 12, "cp_endo_count": 5616, "group_order": 5616,'
     ' "hypothesis_violated": false, "inner_count": 5616, "p": 3,'
     ' "system": "A2", "verdict": "PASS"}\n'),
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
    (["decompose", "--system", "A2", "--prime", "5", "--bruhat",
      "h(a1,2) x(-a1,3) x(-a2,1) x(a1+a2,4)"],
     '{"factorization": "h(a1+a2, 4) x(a1, 2) x(a1+a2, 1) w(a1, 1)'
     ' w(a2, 1) x(a1, 2) x(a2, 1) x(a1+a2, 2)", "weyl_word": [0, 1]}\n'),
    (["decompose", "--system", "A2", "--prime", "7", "--bruhat",
      "x(a1,3) x(-a2,5) x(a2,2) x(-a1,4) x(a1+a2,6)"],
     '{"factorization": "h(a1+a2, 3) x(a2, 1) x(a1+a2, 4) w(a2, 1)'
     ' w(a1, 1) x(a1, 2) x(a2, 6) x(a1+a2, 4)", "weyl_word": [1, 0]}\n'),
    (["decompose", "--system", "B2", "--prime", "3", "--bruhat",
      "h(a,2) x(-a,1) x(-b,2) x(a+b,1)"],
     '{"factorization": "x(a, 1) x(a+b, 1) w(a, 1) w(b, 1) x(a, 1)'
     ' x(b, 2) x(a+2b, 2)", "weyl_word": [0, 1]}\n'),
    (["decompose", "--system", "G2", "--prime", "2", "--bruhat",
      "x(-a,1) x(-b,1) x(-a,1) x(a+2b,1)"],
     '{"factorization": "x(a, 1) x(a+b, 1) w(a, 1) w(b, 1) w(a, 1)'
     ' x(a, 1) x(a+b, 1) x(a+2b, 1)", "weyl_word": [0, 1, 0]}\n'),
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
    (["centralizer", "--system", "A1", "--prime", "5"],
     '{"name": "A1-centralizer-family", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "count 5", "name": "A1-centralizer-bruteforce-p5", '
     '"residual": "", "verdict": "PASS"}\n'),
    (["centralizer", "--system", "A2", "--prime", "2"],
     '{"name": "A2-centralizer-family", "residual": "", '
     '"verdict": "PASS"}\n'
     '{"detail": "count 4", "name": "A2-centralizer-bruteforce-p2", '
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


def _ids():
    # a second target of the same command and system is told apart by p
    ids = []
    for argv, _ in GOLDEN:
        name = " ".join(argv[:3]) + (" bruhat" if "--bruhat" in argv else "")
        if name in ids:
            name += " p" + argv[argv.index("--prime") + 1]
        ids.append(name)
    return ids


IDS = _ids()


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=IDS)
def test_golden_output(argv, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert dispatch(argv + FLAGS) == 0
    assert out.getvalue() == expected


# Gauss factorizations of A1 words, one per way the factors are read off:
# D a unit; D in the radical with the lift from A^2 and from B^2, over F_5
# and with D = 3 over Z/9; and t1(2), outside the image of SL2 over F_5.
# Each entry: the decompose arguments, the exit code, then the json-lines
# and the text output (stderr when the code is 2).
GAUSS = [
    (["--prime", "5", "x(a,2) x(-a,3) x(a,1) x(-a,5)"], 0,
     '{"factorization": "t1(1) x(alpha, 1) x(-alpha, 2) x(alpha, 0)"}\n',
     "PASS         x(a,2) x(-a,3) x(a,1) x(-a,5) = t1(1) x(alpha, 1)"
     " x(-alpha, 2) x(alpha, 0)\n"),
    (["--prime", "5", "x(a,1) w(a,1)"], 0,
     '{"factorization": "t1(1) x(alpha, 0) x(-alpha, 1) x(alpha, 4)"}\n',
     "PASS         x(a,1) w(a,1) = t1(1) x(alpha, 0) x(-alpha, 1)"
     " x(alpha, 4)\n"),
    (["--prime", "5", "w(a,1)"], 0,
     '{"factorization": "t1(1) x(alpha, 1) x(-alpha, 4) x(alpha, 1)"}\n',
     "PASS         w(a,1) = t1(1) x(alpha, 1) x(-alpha, 4) x(alpha, 1)\n"),
    (["--prime", "3", "--power", "2", "x(-a,1) x(a,2)"], 0,
     '{"factorization": "t1(1) x(alpha, 0) x(-alpha, 1) x(alpha, 2)"}\n',
     "PASS         x(-a,1) x(a,2) = t1(1) x(alpha, 0) x(-alpha, 1)"
     " x(alpha, 2)\n"),
    (["--prime", "5", "t1(2)"], 2,
     "error: matrix is not in the image of SL2\n",
     "error: matrix is not in the image of SL2\n"),
]
GAUSS_IDS = ["unit-d", "radical-a", "radical-b", "radical-z9", "refusal"]


def _gauss_jobs():
    """(argv, exit code, output) for each Gauss entry, json-lines first."""
    for args, code, json_out, text_out in GAUSS:
        argv = ["decompose", "--system", "A1"] + args
        yield argv + FLAGS, code, json_out
        yield argv + ["--no-timing"], code, text_out


def _dispatch(argv):
    """The exit code of ``argv`` and its stdout and stderr together."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = dispatch(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("job", _gauss_jobs(), ids=[
    f"{name} {fmt}" for name in GAUSS_IDS for fmt in ("json", "text")])
def test_gauss_golden_output(job):
    argv, code, expected = job
    assert _dispatch(argv) == (code, expected)


def test_golden_output_optimized():
    script = (
        "import contextlib, io, json, sys\n"
        "from chevlab.cli import dispatch\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out),"
        " contextlib.redirect_stderr(out):\n"
        "        code = dispatch(argv)\n"
        "    print(json.dumps([code, out.getvalue()]))\n")
    gauss = list(_gauss_jobs())
    jobs = [argv + FLAGS for argv, _ in GOLDEN] + [argv for argv, _, _ in
                                                   gauss]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", script,
                           json.dumps(jobs)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert results == ([[0, expected] for _, expected in GOLDEN]
                       + [[code, expected] for _, code, expected in gauss])


def _src_nodes():
    """(module file name, node) for every ast node of src/chevlab."""
    pkg = os.path.join(SRC, "chevlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                yield name, node


def test_no_assert_in_src():
    # python -O strips assert statements, so no check may rest on one
    found = [f"{name}:{node.lineno}" for name, node in _src_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def _keys_an_element(node) -> bool:
    """Does ``node`` name ``_canonicalize`` or ``np.void``, or call
    ``.tobytes()``, ``.astype(np.uint8)`` or a ``.view`` as void bytes?"""
    if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
        return not {"_canonicalize", "void"}.isdisjoint(
            getattr(node, field, None) for field in ("id", "attr", "name"))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "tobytes":
            return True
        if node.func.attr == "view":
            # np.dtype("V9"), "V9", "|V9" or f"V{n}" spell a void dtype too
            return any(isinstance(part, ast.Constant)
                       and isinstance(part.value, str)
                       and "V" in part.value
                       for arg in node.args for part in ast.walk(arg))
        return node.func.attr == "astype" and any(
            "uint8" in ast.unparse(arg) for arg in node.args)
    return False


def test_only_shacheck_keys_group_elements():
    # E(system, F_p) is stored and keyed by shacheck alone: no other module
    # canonicalizes an integer matrix or turns one into a byte key
    found = [f"{name}:{node.lineno}" for name, node in _src_nodes()
             if name != "shacheck.py" and _keys_an_element(node)]
    assert found == []
    # the scan sees how shacheck itself keys (the canonical form and the
    # void view) and the other spellings of a byte key
    spelled = {ast.unparse(node) for name, node in _src_nodes()
               if name == "shacheck.py" and _keys_an_element(node)}
    assert {"_canonicalize", "np.void"} <= spelled
    for text in ("m.view(np.void)", "m.view('V9')", "m.view(f'|V{n}')",
                 "m.view(np.dtype((np.void, 9)))", "m.tobytes()",
                 "m.astype(np.uint8)"):
        assert any(map(_keys_an_element, ast.walk(ast.parse(text)))), text


def test_only_exactring_knows_the_packed_layout():
    # packed monomials go through exactring.MonomialPacking alone: no other
    # module names the slot width or shifts bits itself
    slot_width = [f"{name}:{node.lineno}" for name, node in _src_nodes()
                  if name != "exactring.py"
                  and "SLOT_BITS" in (getattr(node, field, None)
                                      for field in ("id", "attr", "name"))]
    shifts = [f"{name}:{node.lineno}" for name, node in _src_nodes()
              if name == "chevgroup.py"
              and isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, (ast.LShift, ast.RShift))]
    assert slot_width == [] and shifts == []


def test_one_cursor_for_words_roots_and_expressions():
    # the word parser reads each root and parameter in place on the
    # expression parser's cursor: only exactring skips whitespace or peeks,
    # and no _WordParser method hands a slice of its text to parse_expr
    cursors = sorted((name, node.name) for name, node in _src_nodes()
                     if isinstance(node, ast.FunctionDef)
                     and node.name in ("skip_ws", "peek"))
    assert cursors == [("exactring.py", "peek"), ("exactring.py", "skip_ws")]
    word_parser, = [node for name, node in _src_nodes()
                    if name == "chevgroup.py"
                    and isinstance(node, ast.ClassDef)
                    and node.name == "_WordParser"]
    reparses = [node.lineno for node in ast.walk(word_parser)
                if isinstance(node, ast.Name) and node.id == "parse_expr"]
    assert reparses == []


def test_every_ring_kind_has_one_product_kernel():
    # each kind RingSpec accepts has a product kernel, and chevgroup reads
    # _KERNELS only by subscript: no .get, no fallback when a kind is missing
    assert sorted(chevgroup._KERNELS) == sorted(RING_KINDS)
    nodes = [node for name, node in _src_nodes() if name == "chevgroup.py"]
    subscripted = {id(node.value) for node in nodes
                   if isinstance(node, ast.Subscript)}
    fallbacks = [node.lineno for node in nodes
                 if isinstance(node, ast.Name) and node.id == "_KERNELS"
                 and isinstance(node.ctx, ast.Load)
                 and id(node) not in subscripted]
    assert fallbacks == []


def test_every_import_is_used():
    # a module reads every name it imports; prooflab keeps reduce_terms,
    # which perfbench's tracer test reads there
    imported, read = {}, set()
    for name, node in _src_nodes():
        if isinstance(node, ast.Name):
            read.add((name, node.id))
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imported[(name, bound)] = f"{name}:{node.lineno} {bound}"
    unused = [where for key, where in imported.items()
              if key not in read and key != ("prooflab.py", "reduce_terms")]
    assert unused == []


def test_every_definition_is_read():
    # each module-level function, class and constant of src/chevlab is read,
    # as a name or an attribute, in src/chevlab or the tests; an import is
    # no read, and dunders are read by Python itself
    here = os.path.dirname(os.path.abspath(__file__))
    src, tests = list(_src_nodes()), []
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name)) as fh:
                tests += ast.walk(ast.parse(fh.read(), name))
    defined = {}
    for name, module in src:
        if not isinstance(module, ast.Module):
            continue
        for stmt in module.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = [n.id for n in ast.walk(stmt)
                           if isinstance(n, ast.Name)
                           and isinstance(n.ctx, ast.Store)]
            else:
                continue
            for t in targets:
                defined[t] = f"{name}:{stmt.lineno} {t}"
    read = {getattr(node, "id", None) or node.attr
            for node in [node for _, node in src] + tests
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    dead = [where for t, where in defined.items()
            if t not in read and not (t.startswith("__") and t.endswith("__"))]
    assert dead == []
