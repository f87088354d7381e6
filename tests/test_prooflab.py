import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import chevlab
from chevlab import prooflab
from chevlab.chevgroup import (build_basis, identity_matrix,
                               matrix_from_entries, root_element)
from chevlab.exactring import (RewriteRule, RingError, RingSpec, deglex_key,
                               mul_terms, reduce_terms, sub_terms)


def test_catalog_sizes():
    assert len(prooflab.builtin_catalog("A1")) >= 5
    assert len(prooflab.builtin_catalog("A2")) >= 15
    assert len(prooflab.builtin_catalog("B2")) >= 6
    assert len(prooflab.builtin_catalog("G2")) >= 15
    # names are disjoint across systems
    seen = set()
    for tag in ("A1", "A2", "B2", "G2"):
        for rec in prooflab.builtin_catalog(tag):
            assert rec.name not in seen
            seen.add(rec.name)


@pytest.mark.parametrize("system", ["A1", "A2", "B2", "G2"])
def test_catalog_passes(system):
    for report in prooflab.run_catalog(system):
        assert report.verdict in ("PASS", "SKIPPED"), \
            (report.name, report.verdict, report.residual)


@pytest.mark.parametrize("system", ["A1", "A2", "B2", "G2"])
def test_catalog_mutation_sensitivity(system):
    for rec in prooflab.builtin_catalog(system):
        mutant = rec.mutate()
        report = prooflab.run_identity(mutant)
        assert report.verdict != "PASS", mutant.name


def test_mutation_site_hint():
    rec = prooflab.IdentityRecord(
        "A2-hint", "A2", "pgl3", RingSpec("poly", ("t",)),
        ["x(a1,t) h(a2,2)"], ["x(a1,t) h(a2,2)"],
        mutation_site=("lhs", 0, 1))
    assert rec.mutate().lhs == ["x(a1, t) h(a2, 3)"]
    # -1 + 1 = 0 is not a unit: a hint that cannot be bumped raises instead
    # of falling back to another site
    rec.lhs = ["x(a1,t) h(a2,-1)"]
    with pytest.raises(RuntimeError, match="no mutable coefficient"):
        rec.mutate()


def test_run_identity_fail_witness():
    rec = prooflab.IdentityRecord(
        "B2-X3-comm-wrong", "B2", "adjoint", RingSpec("poly", ()),
        ["x(a+b,1) x(a,1) x(b,1) x(a+b,-1) (x(a,1) x(b,1))^-1"],
        ["x(a+2b, 2)"])
    report = prooflab.run_identity(rec)
    assert report.verdict == "FAIL" and report.residual


def test_inconclusive_in_quotient_ring():
    from chevlab.exactring import RewriteRule
    q = RingSpec("quotient", ("u",), rules=[RewriteRule((3,), {})])
    rec = prooflab.IdentityRecord(
        "A2-nilpotent-wrong-ring", "A2", "pgl3", q,
        ["x(-a1, u) x(a1, 1)"], ["h(a1, 1-u) x(a1, 1+u) x(-a1, u)"])
    report = prooflab.run_identity(rec)
    # u^2 does not rewrite to zero here, so the runner must not claim falsity
    assert report.verdict == "INCONCLUSIVE"


def test_skipped_notes_have_anchors():
    reports = prooflab.run_catalog("G2")
    skipped = [r for r in reports if r.verdict == "SKIPPED"]
    assert skipped and all(r.detail for r in skipped)


def test_centralizer_families():
    for tag in ("A1", "A2", "B2", "G2"):
        assert prooflab.centralizer_check(
            prooflab.standard_family(tag)).verdict == "PASS"


def test_centralizer_family_perturbation():
    fam = prooflab.standard_family("G2")
    fam.constraints["q4"] = "-1/3*b^3 + 1/2*b^2 + 1/6*b"
    assert prooflab.centralizer_check(fam).verdict == "FAIL"
    fam2 = prooflab.standard_family("B2")
    fam2.constraints["q3"] = "(b^2+b)/2"
    assert prooflab.centralizer_check(fam2).verdict == "FAIL"


@pytest.mark.parametrize("system,p,count", [
    ("A1", 3, 3), ("A1", 5, 5), ("A2", 3, 9), ("B2", 3, 9)])
def test_centralizer_bruteforce(system, p, count):
    got, _ = prooflab.centralizer_bruteforce(system, p, cap=50000)
    assert got == count


def test_matrix_centralizer_a1():
    basis = build_basis("A1")
    spec = RingSpec("poly", ())
    x = root_element(basis, basis.root("a"), spec.one(), "a1std")
    sol = prooflab.matrix_centralizer_a1(x)
    assert len(sol) == 3
    # the solution space is spanned by I, E_12 and 2E_13 + E_32
    expected = [
        [1, 0, 0, 0, 1, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 2, 0, 0, 0, 0, 1, 0],
    ]
    assert _same_span(sol, expected)

    xn = root_element(basis, basis.root("-a"), spec.const(-1), "a1std")
    soln = prooflab.matrix_centralizer_a1(xn)
    expected_n = [
        [1, 0, 0, 0, 1, 0, 0, 0, 1],
        [0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 2, 1, 0, 0],
    ]
    assert _same_span(soln, expected_n)

    ident = identity_matrix(spec, 3, "a1std")
    assert len(prooflab.matrix_centralizer_a1(ident)) == 9


def _same_span(a, b):
    def rref(rows):
        mat = [[Fraction(x) for x in row] for row in rows]
        out = []
        for row in mat:
            for prow in out:
                lead = next(i for i, v in enumerate(prow) if v)
                if row[lead]:
                    f = row[lead]
                    row = [x - f * y for x, y in zip(row, prow)]
            if any(row):
                lead = next(i for i, v in enumerate(row) if v)
                inv = Fraction(1) / row[lead]
                out.append([x * inv for x in row])
        return sorted(out)
    return rref(a) == rref(b)


def test_entry_chain_all_stages():
    reports = prooflab.entry_chain_g2()
    assert [r.name for r in reports] == [
        "G2-chain-b2c4", "G2-chain-ac5", "G2-chain-c3cube",
        "G2-chain-b-ac2sq", "G2-chain-c4-c2sq", "G2-chain-c3sq-plus-c2cube",
        "G2-chain-c2quad", "G2-chain-bc1", "G2-chain-final-2b"]
    assert all(r.verdict == "PASS" for r in reports), \
        [(r.name, r.verdict) for r in reports]
    assert reports[-1].name.endswith("final-2b")
    assert "b rewrites to 0" in reports[-1].detail


def test_entry_chain_single_stage():
    reports = [r for r in prooflab.entry_chain_g2()
               if r.name == "G2-chain-b2c4"]
    assert len(reports) == 1 and reports[0].verdict == "PASS"
    assert "unit" in reports[0].detail or "span" in reports[0].detail


def test_entry_chain_fabricated_claim_fails():
    # absence witness: b^3 c5 never occurs as a unit multiple of an entry
    report = prooflab.entry_chain_probe("b^3*c5")
    assert report.verdict == "FAIL" and "absent" in report.residual
    # while a genuine first-stage claim does
    assert prooflab.entry_chain_probe("b^2*c4").verdict == "PASS"


class _FractionEchelon:
    """The rational echelon form the chain used before fraction-free
    elimination on packed monomials: pivots normalized to leading
    coefficient 1, tuple exponents ordered by deglex_key."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        row = dict(row)
        out = {}
        while row:
            lead = max(row, key=deglex_key)
            piv = self.pivots.get(lead)
            if piv is None:
                out[lead] = row.pop(lead)
            else:
                row = sub_terms(row, mul_terms({(0,) * 8: row[lead]}, piv))
        return out

    def insert(self, row):
        row = self.reduce(row)
        if row:
            lead = max(row, key=deglex_key)
            c = row[lead]
            self.pivots[lead] = {m: x / c for m, x in row.items()}


def _proportional(a, b):
    """a = q * b for a nonzero rational q (both dicts nonzero)."""
    if a.keys() != b.keys():
        return False
    m0 = next(iter(a))
    return all(a[m] * b[m0] == b[m] * a[m0] for m in a)


def _rules_before(stage):
    rules = ()
    for name, _, rule_texts in prooflab._CHAIN_STAGES:
        if name == stage:
            return rules
        rules += tuple(prooflab._parse_rule(t) for t in rule_texts)
    raise KeyError(stage)


def test_packed_chain_stage_matches_fraction_path():
    # the c2quad stage has the most rules; its rows and its nine T-vector
    # remainders are compared with the tuple-keyed Fraction computation
    rules = _rules_before("c2quad")
    prules = prooflab._pack_rules(rules)
    pk = prooflab._CHAIN_PACKING
    mults = [pk.unpack(m) for m in prooflab._CHAIN_MULTS]
    old_rows = []
    for _, terms in prooflab._chain_residual_entries():
        tr = reduce_terms(terms, rules)
        assert pk.reduce(pk.pack_terms(terms), prules) == pk.pack_terms(tr)
        if not tr:
            continue
        for m in mults:
            r = reduce_terms(mul_terms({m: Fraction(1)}, tr), rules)
            packed = pk.reduce(pk.shift(pk.pack_terms(tr), pk.pack(m)), prules)
            assert packed == pk.pack_terms(r)
            if r:
                old_rows.append(r)
    old_rows.sort(key=lambda r: (len(r), deglex_key(max(r, key=deglex_key))))
    new_rows = prooflab._chain_rows(prules)
    assert len(new_rows) == len(old_rows)
    assert all(_proportional(new, pk.pack_terms(old))
               for new, old in zip(new_rows, old_rows))

    old_ech = _FractionEchelon()
    for r in old_rows:
        old_ech.insert(r)
    new_ech = prooflab._chain_echelon(prules)
    assert len(new_ech.pivots) == len(old_ech.pivots)
    for lead in old_ech.pivots:
        p, tail = new_ech.pivots[pk.pack(lead)]
        assert p > 0 and math.gcd(p, *(x for _, x in tail)) == 1

    claim = reduce_terms(prooflab.parse_expr(
        "c2^4", prooflab._chain_spec()).terms, rules)
    claim_row = prooflab._integer_row(pk.pack_terms(claim))
    empty = 0
    for i in range(3):
        for j in range(3):
            mono = (i, 0, 0, 0, 0, 0, 0, j)
            old = old_ech.reduce(
                reduce_terms(mul_terms({mono: Fraction(1)}, claim), rules))
            new = new_ech.reduce(
                pk.reduce(pk.shift(claim_row, pk.pack(mono)), prules))
            if not old:
                assert not new
                empty += 1
            else:
                assert _proportional(pk.unpack_terms(new), old)
    assert empty > 0          # the stage passes with d^1


def test_chain_rules_need_integer_rhs():
    rule = RewriteRule((1, 0, 0, 0, 0, 0, 0, 0), {(0,) * 8: Fraction(1, 2)})
    with pytest.raises(RingError):
        prooflab._pack_rules([rule])


def test_transvection_criterion():
    spec = RingSpec("poly", ("u1", "u2", "u3"))
    assert not prooflab.transvection_criterion(
        spec.var("u1"), spec.var("u2"), spec.var("u3"))
    assert prooflab.transvection_criterion(
        spec.zero(), spec.var("u2"), spec.var("u3"))
    q = RingSpec("poly", ())
    assert not prooflab.transvection_criterion(q.one(), q.one(), q.zero())


Y_ENTRIES = [[0, 1, 2], [0, 1, 1], [-1, 0, 0]]
YP_ENTRIES = [[0, 0, -1], [1, 2, 0], [1, 1, 0]]


def test_scalar_conjugacy_obstruction():
    spec = RingSpec("poly", ())
    Y = matrix_from_entries(spec, Y_ENTRIES, "pgl3")
    Yp = matrix_from_entries(spec, YP_ENTRIES, "pgl3")
    verdict, witness = prooflab.scalar_conjugacy_obstruction(Y, Yp)
    assert verdict == "IMPOSSIBLE"
    for p in (2, 3, 5, 11, 13):
        sp = RingSpec("modular", modulus=p)
        v, _ = prooflab.scalar_conjugacy_obstruction(
            matrix_from_entries(sp, Y_ENTRIES, "pgl3"),
            matrix_from_entries(sp, YP_ENTRIES, "pgl3"))
        assert v == "IMPOSSIBLE", p
    sp7 = RingSpec("modular", modulus=7)
    v, lam = prooflab.scalar_conjugacy_obstruction(
        matrix_from_entries(sp7, Y_ENTRIES, "pgl3"),
        matrix_from_entries(sp7, YP_ENTRIES, "pgl3"))
    assert v == "POSSIBLE" and lam == sp7.const(4)   # lambda = 1/2 = 4, 4^3 = 1
    A = matrix_from_entries(sp7, [[3, 3, 0], [2, 3, 0], [0, 0, 5]], "pgl3")
    B = matrix_from_entries(sp7, [[3, 0, 0], [0, 1, 1], [0, 3, 1]], "pgl3")
    v, _ = prooflab.scalar_conjugacy_obstruction(A, B)
    assert v == "IMPOSSIBLE"
    v, lam = prooflab.scalar_conjugacy_obstruction(A, A)
    assert v == "POSSIBLE" and lam.is_one()


def test_obstruction_conjugation_invariance():
    import random
    rng = random.Random(17)
    sp = RingSpec("modular", modulus=11)
    Y = matrix_from_entries(sp, Y_ENTRIES, "pgl3")
    Yp = matrix_from_entries(sp, YP_ENTRIES, "pgl3")
    base = prooflab.scalar_conjugacy_obstruction(Y, Yp)[0]
    for _ in range(20):
        while True:
            g = matrix_from_entries(
                sp, [[rng.randrange(11) for _ in range(3)] for _ in range(3)],
                "pgl3")
            if not prooflab._det3(g).is_zero():
                break
        gi = prooflab._inv3(g)
        got = prooflab.scalar_conjugacy_obstruction(g * Y * gi, g * Yp * gi)
        assert got[0] == base


def test_symmetric_difference():
    spec = RingSpec("poly", ("t",))
    t = spec.var("t")
    assert prooflab.symmetric_difference(t * t - 6 * t + 8) == 4 * t + 2
    assert prooflab.symmetric_difference(t * t - 6 * t + 10) == 4 * t + 2
    assert prooflab.symmetric_difference(spec.const(9)).is_zero()


def test_symmetric_difference_linearity_and_quartics():
    import random
    spec = RingSpec("poly", ("t",))
    t = spec.var("t")
    rng = random.Random(4)
    from chevlab.exactring import substitute
    for _ in range(30):
        F = sum((spec.const(rng.randint(-5, 5)) * t ** k for k in range(5)),
                spec.zero())
        G = sum((spec.const(rng.randint(-5, 5)) * t ** k for k in range(5)),
                spec.zero())
        dF = prooflab.symmetric_difference(F)
        dG = prooflab.symmetric_difference(G)
        assert prooflab.symmetric_difference(F + G) == dF + dG
        # against direct expansion
        direct = (substitute(F, {"t": t + 1}) + substitute(F, {"t": -t - 1})
                  - substitute(F, {"t": t}) - substitute(F, {"t": -t}))
        assert dF == direct


def test_short_root_squares():
    assert prooflab.short_root_squares("B2").verdict == "PASS"
    rep = prooflab.short_root_squares("G2")
    assert rep.verdict == "PASS" and "-s^3" in rep.detail


WRONG_A2_FAMILY = """
import sys
from chevlab import cli, prooflab

right = prooflab.standard_family


def wrong(system):
    fam = right(system)
    if fam.system.tag == "A2":
        # x(a1, a) x(a2, b) x(a1+a2, b) does not commute with x0 for a != b
        fam.letters = [("a1", "a"), ("a2", "b"), ("a1+a2", "b")]
    return fam


prooflab.standard_family = wrong
if sys.argv[1] == "function":
    prooflab.centralizer_bruteforce("A2", 3)
else:
    sys.exit(cli.dispatch(["centralizer", "--system", "A2", "--prime", "3",
                           "--output", "json-lines", "--no-timing"]))
"""


@pytest.mark.parametrize("entry", ["function", "cli"])
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_wrong_centralizer_family_fails(entry, flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(chevlab.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", WRONG_A2_FAMILY, entry],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=300)
    if entry == "function":
        assert proc.returncode != 0
        assert "CentralizerMismatch" in proc.stderr
    else:
        assert proc.returncode == 1, proc.stderr
        verdicts = {line["name"]: line["verdict"]
                    for line in map(json.loads, proc.stdout.splitlines())}
        assert verdicts["A2-centralizer-bruteforce-p3"] == "FAIL"
