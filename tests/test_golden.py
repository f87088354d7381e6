"""Byte-for-byte ``--no-timing`` json-lines output of ``sha`` and
``decompose --bruhat``, under ``python`` and under ``python -O``.

The expected lines were produced by the exhaustive implementations that
the generator-image ``sha`` search and the Bruhat lookup replaced.
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
