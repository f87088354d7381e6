import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import chevlab
from chevlab import exactring, prooflab
from chevlab.chevgroup import matrix_from_entries
from chevlab.exactring import (RewriteRule, RingError, RingSpec, deglex_key,
                               invert, mul_terms, reduce_terms, sub_terms)


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


def test_entries_record_needs_a_fraction_field():
    # entry (1,3) of x(a,p) - 1 is 2p, a unit multiple of p only once the
    # field of fractions says what a unit is
    rec = prooflab.IdentityRecord(
        "A1-entries-over-poly", "A1", "a1std", RingSpec("poly", ("p",)),
        ["x(a,p)"], [], expected=("entries", [("(1,3)", 0, 2, "p")]))
    report = prooflab.run_identity(rec)
    assert report.verdict == "FAIL"
    assert report.residual == ("error: entries records need a fraction"
                               " field, not a poly ring")


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


def _set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _count_forks(monkeypatch):
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _report_fields(reports):
    return [(r.name, r.verdict, r.residual, r.detail) for r in reports]


def test_entry_chain_fabricated_claim_fails(monkeypatch):
    # stage 4 claims a, which no residual entry certifies: it fails through
    # the real chain, and no later stage may pass on its rule a c2^2 -> b
    stages = list(prooflab._CHAIN_STAGES)
    name, _, rule_texts = stages[3]
    stages[3] = (name, "a", rule_texts)
    monkeypatch.setattr(prooflab, "_CHAIN_STAGES", stages)
    runs = []
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        reports = prooflab.entry_chain_g2()
        assert [r.verdict for r in reports] == ["PASS"] * 3 + ["FAIL"] + \
            ["INCONCLUSIVE"] * 5
        assert reports[3].residual == "claim not certified"
        assert all(r.residual == "rests on the failed stage G2-chain-b-ac2sq"
                   and not r.detail for r in reports[4:])
        runs.append(_report_fields(reports))
        _no_child_left()
    assert runs[0] == runs[1]


def test_chain_reports_match_on_one_two_and_four_shares(monkeypatch):
    forks = _count_forks(monkeypatch)
    runs = []
    for cpus, children in [(1, 0), (2, 1), (8, 3)]:
        _set_cpus(monkeypatch, cpus)
        forks.clear()
        runs.append(_report_fields(prooflab.entry_chain_g2()))
        assert len(forks) == children
        _no_child_left()
    assert runs[0] == runs[1] == runs[2]
    assert all(verdict == "PASS" for _, verdict, _, _ in runs[0])
    monkeypatch.delattr(os, "fork")
    assert prooflab._share_count() == 1


class _StageError(Exception):
    pass


def test_chain_stage_error_in_child_reaches_caller(monkeypatch):
    parent = os.getpid()
    chain_rows = prooflab._chain_rows

    def failing(entries, rules):
        if os.getpid() != parent:
            raise _StageError("rows failed in the child")
        return chain_rows(entries, rules)

    monkeypatch.setattr(prooflab, "_chain_rows", failing)
    _set_cpus(monkeypatch, 2)
    with pytest.raises(_StageError, match="in the child"):
        prooflab.entry_chain_g2()
    _no_child_left()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fan_out_keeps_job_order(n):
    out = prooflab._fan_out(lambda x, y: (x * y, os.getpid()),
                            [(k, k + 1) for k in range(9)], n)
    assert [v for v, _ in out] == [k * (k + 1) for k in range(9)]
    pids = [pid for _, pid in out]
    assert pids[0::n] == [os.getpid()] * len(pids[0::n])
    # each share ran in one process of its own
    assert len(set(pids)) == n
    assert all(len(set(pids[k::n])) == 1 for k in range(n))
    _no_child_left()


def test_fan_out_unpicklable_child_error_becomes_runtime_error():
    class LocalError(Exception):        # a local class does not pickle
        pass

    def job(k):
        if k == 1:
            raise LocalError("in share one")
        return k

    with pytest.raises(RuntimeError, match="LocalError: in share one"):
        prooflab._fan_out(job, [(0,), (1,)], 2)
    _no_child_left()
    with pytest.raises(LocalError):     # the parent's own share raises as is
        prooflab._fan_out(job, [(1,), (0,)], 2)
    _no_child_left()


@pytest.mark.parametrize("jobs,n,children", [
    (0, 2, 0), (1, 4, 0), (2, 1, 0), (2, 4, 1), (3, 8, 2), (9, 4, 3)])
def test_fan_out_forks_one_child_per_share_beyond_the_first(monkeypatch, jobs,
                                                            n, children):
    forks = _count_forks(monkeypatch)
    out = prooflab._fan_out(lambda k: (k, os.getpid()),
                            [(k,) for k in range(jobs)], n)
    assert [k for k, _ in out] == list(range(jobs))
    assert len(forks) == children
    # no share is empty: every child ran at least one job
    assert len({pid for _, pid in out}) == children + (jobs > 0)
    _no_child_left()


@pytest.mark.parametrize("system,calls", [
    ("A1", 11), ("A2", 67), ("B2", 22), ("G2", 61)])
def test_mutants_reuse_the_sides_they_leave_unchanged(monkeypatch, system,
                                                      calls):
    # 16, 90, 30 and 80 evaluations when every mutant evaluated both sides
    evaluate = prooflab.evaluate_word
    count = []

    def counted(*args, **kwargs):
        count.append(1)
        return evaluate(*args, **kwargs)

    prooflab.build_basis(system)
    monkeypatch.setattr(prooflab, "evaluate_word", counted)
    _set_cpus(monkeypatch, 1)
    reports = prooflab.run_catalog(system, mutants=True)
    assert len(count) == calls
    assert all(r.verdict in ("PASS", "SKIPPED") for r in reports), reports


def test_catalog_error_in_child_reaches_caller_as_inline(monkeypatch):
    # the second record lies in the first child's share on two or more CPUs
    target = prooflab.builtin_catalog("A2")[1].name
    run_identity = prooflab.run_identity
    raised_here = []

    def failing(rec, sides=None):
        if rec.name == target:
            raised_here.append(1)       # a child's append stays in the child
            raise _StageError(f"no verdict on {rec.name}")
        return run_identity(rec, sides)

    monkeypatch.setattr(prooflab, "run_identity", failing)
    for cpus in (1, 2, 8):
        _set_cpus(monkeypatch, cpus)
        raised_here.clear()
        with pytest.raises(_StageError) as info:
            prooflab.run_catalog("A2", mutants=True)
        assert info.value.args == (f"no verdict on {target}",)
        assert len(raised_here) == (cpus == 1)
        _no_child_left()


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


def _tuple_rules(rules):
    """The packed chain rules as tuple-keyed RewriteRules."""
    pk = prooflab._CHAIN_PACKING
    return [RewriteRule(pk.unpack(lhs),
                        {pk.unpack(m): c for m, c in rhs.items()})
            for lhs, rhs in rules]


def _unpacked(terms):
    pk = prooflab._CHAIN_PACKING
    return {pk.unpack(k): Fraction(c) for k, c in terms.items()}


def _full_echelon(entries, rules, echelon=prooflab._Echelon):
    """The echelon of every row a span stage builds, inserted shortest
    first over all entries (by length, then lead), the order of the
    Fraction path."""
    ech = echelon()
    for row in sorted(prooflab._chain_rows(entries, rules),
                      key=prooflab._row_key):
        ech.insert(row)
    return ech


def test_packed_chain_stage_matches_fraction_path():
    # the c2quad stage has the most rules; its rows, pivots and nine T-vector
    # remainders are compared with the tuple-keyed Fraction computation
    prules = _rules_before("c2quad")
    rules = _tuple_rules(prules)
    pk = prooflab._CHAIN_PACKING
    mults = [pk.unpack(m) for m in prooflab._CHAIN_MULTS]
    entries = prooflab._reduced_entries(prules)
    by_entry = []
    reduced = []
    for ij, terms in prooflab._chain_residual_entries():
        tr = reduce_terms(_unpacked(terms), rules)
        assert pk.reduce(terms, prules) == pk.pack_terms(tr)
        if not tr:
            continue
        reduced.append((ij, pk.pack_terms(tr)))
        row = prooflab._integer_row(pk.pack_terms(tr))
        old_rows = []
        by_entry.append((prooflab._row_key(row), old_rows))
        for m in mults:
            r = reduce_terms(mul_terms({m: Fraction(1)}, tr), rules)
            packed = pk.reduce(pk.shift(pk.pack_terms(tr), pk.pack(m)), prules)
            assert packed == pk.pack_terms(r)
            # the integer rows the echelon is built from
            new = pk.reduce(pk.shift(row, pk.pack(m)), prules)
            assert bool(new) == bool(r)
            if r:
                assert _proportional(new, packed)
                old_rows.append(r)
    assert entries == reduced
    # the entries in the order _chain_rows takes them, then every row
    # shortest first, as _full_echelon inserts them
    old_rows = [r for _, rows in sorted(by_entry, key=lambda e: e[0])
                for r in rows]
    old_rows.sort(key=lambda r: (len(r), deglex_key(max(r, key=deglex_key))))

    old_ech = _FractionEchelon()
    for r in old_rows:
        old_ech.insert(r)
    new_ech = _full_echelon(entries, prules)
    assert len(new_ech.pivots) == len(old_ech.pivots)
    for lead, pivot in old_ech.pivots.items():
        p, tail = new_ech.pivots[pk.pack(lead)]
        assert p > 0 and math.gcd(p, *(x for _, x in tail)) == 1
        tail = {pk.unpack(m): Fraction(x, p) for m, x in tail}
        assert {lead: Fraction(1), **tail} == pivot

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
                assert _proportional(_unpacked(new), old)
    assert empty > 0          # the stage passes with d^1


@pytest.mark.parametrize("stage, pivots", [
    ("b-ac2sq", 2284), ("c4-c2sq", 2011), ("c3sq-plus-c2cube", 1642),
    ("c2quad", 1458)])
def test_chain_echelon_pivot_counts(stage, pivots):
    # the four stages that need the echelon: a change in the rewrite order
    # or in the rows shows here, not only in a golden string
    rules = _rules_before(stage)
    ech = _full_echelon(prooflab._reduced_entries(rules), rules)
    assert len(ech.pivots) == pivots


class _MaxEchelon(prooflab._Echelon):
    """The fraction-free echelon with each lead found by ``max`` over the
    remaining row, as a reference for the sorted order of the leads."""

    def reduce(self, row):
        row = dict(row)
        out = {}
        while row:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                out[lead] = row.pop(lead)
                continue
            p, tail = piv
            c = row.pop(lead)
            g = math.gcd(c, p)
            c, p = c // g, p // g
            row = {m: x * p for m, x in row.items()}
            out = {m: x * p for m, x in out.items()}
            for m, x in tail:
                row[m] = row.get(m, 0) - c * x
                if not row[m]:
                    del row[m]
        return out


def test_echelon_takes_the_leads_of_max():
    # the same pivots in the same order, and the same normal forms with
    # their terms in the same order
    rules = _rules_before("b-ac2sq")
    entries = prooflab._reduced_entries(rules)
    ech = _full_echelon(entries, rules)
    ref = _full_echelon(entries, rules, _MaxEchelon)
    assert list(ech.pivots.items()) == list(ref.pivots.items())
    rows = [prooflab._integer_row(terms) for _, terms in entries]
    assert any(ech.reduce(row) != row for row in rows)
    for row in rows:
        assert (list(ech.reduce(row).items())
                == list(ref.reduce(row).items()))


def _full_echelon_stage(name, claim_text, rules):
    """(verdict, detail) of a chain stage that builds the full echelon of
    its rows before it tests any claim multiple."""
    pk = prooflab._CHAIN_PACKING
    claim_red = pk.reduce(pk.pack_terms(prooflab.parse_expr(
        claim_text, prooflab._chain_spec()).terms), rules)
    if not claim_red:
        return "PASS", "claim already rewrites to zero"
    entries = prooflab._reduced_entries(rules)
    hit = prooflab._unit_entry(claim_red, entries)
    if hit:
        (i, j), unit = hit
        detail = f"entry ({i},{j}) = unit * claim, unit scalar {unit}"
        if name == "final-2b":
            detail += "; with 2 invertible, b rewrites to 0"
        return "PASS", detail
    ech = _full_echelon(entries, rules)
    claim_row = prooflab._integer_row(claim_red)
    for i in range(3):
        for j in range(3):
            rem = ech.reduce(pk.reduce(
                claim_row, rules, shift=pk.pack((i, 0, 0, 0, 0, 0, 0, j))))
            if not rem:
                return "PASS", (f"claim * a^{i} d^{j} lies in the span of"
                                " the residual entries")
            qq = prooflab._poly_divide(rem, claim_red)
            if qq is not None and all(m & prooflab._CHAIN_RADICAL
                                      for m in qq):
                return "PASS", ("claim * unit lies in the span of the"
                                " residual entries")
    return "FAIL", ""


# rows are built entry by entry, so a stage inserts rows of the shortest
# entries first
_SPAN_ROWS = {"b-ac2sq": 1068, "c4-c2sq": 2257, "c3sq-plus-c2cube": 2404,
              "c2quad": 2545}
# and the reduce calls of the span stages (see test_chain_stage_reduce_counts)
_SPAN_REDUCES = {"b-ac2sq": 671, "c4-c2sq": 2040, "c3sq-plus-c2cube": 2180,
                 "c2quad": 2376}
# with every row built and sorted before any went in (``_eager_rows``)
_EAGER_SPAN_ROWS = {"b-ac2sq": 1894, "c4-c2sq": 3286,
                    "c3sq-plus-c2cube": 3604, "c2quad": 3703}


def _eager_rows(monkeypatch):
    """Make ``_chain_rows`` build the rows of every entry, in the order the
    entries are given, and yield them all sorted by ``_row_key``: the rows
    a stage inserted before they were built lazily, in the same order."""
    lazy = prooflab._chain_rows

    def eager(entries, rules):
        return iter(sorted((r for e in entries for r in lazy([e], rules)),
                           key=prooflab._row_key))

    monkeypatch.setattr(prooflab, "_chain_rows", eager)


@pytest.mark.parametrize("name, claim_text, stage, verdict, inserted", [
    *[(name, claim, name, "PASS", _EAGER_SPAN_ROWS.get(name, 0))
      for name, claim, _ in prooflab._CHAIN_STAGES],
    # every multiple off every row: FAIL with no row inserted
    ("off-rows", "a^4*d^3", "b-ac2sq", "FAIL", 0),
    # in no span: FAIL once every row is in
    ("no-span", "a", "b-ac2sq", "FAIL", 6520),
    # the multiple by 1 is on the rows but outside the full span, and the
    # multiple by d is in it
    ("after-all-rows", "c1 + c1*d", "b-ac2sq", "PASS", 6520)])
def test_chain_stage_matches_full_echelon(monkeypatch, name, claim_text,
                                          stage, verdict, inserted):
    # a stage inserts rows only until the claim multiple it tests is in
    # their span, with the verdict and detail of the full echelon, whether
    # the rows are built lazily or all before the first goes in
    # (``inserted``); the lazy build inserts fewer only in the span stages,
    # and where no row or every row goes in the counts agree
    rules = prooflab._CHAIN_PACKING.rules(_rules_before(stage))
    expected = _full_echelon_stage(name, claim_text, rules)
    assert expected[0] == verdict
    calls = []
    insert = prooflab._Echelon.insert

    def counted(self, row):
        calls.append(row)
        return insert(self, row)

    monkeypatch.setattr(prooflab._Echelon, "insert", counted)
    report = prooflab._chain_stage(name, claim_text, rules)
    assert (report.verdict, report.detail) == expected
    assert len(calls) == _SPAN_ROWS.get(name, inserted)
    calls.clear()
    _eager_rows(monkeypatch)
    report = prooflab._chain_stage(name, claim_text, rules)
    assert (report.verdict, report.detail) == expected
    assert len(calls) == inserted


# a span stage reduces the multiples of the entries it builds rows of that
# hold no unread variable (15 of the 45 before b-ac2sq, 28 after) and shifts
# the rest; every stage reduces its claim and the 189 residual entries, and
# a span stage the claim multiples it tests (one or two here).  The span
# stages build the rows of 32, 66, 71 and 78 of their 184 or 185 entries
# lazily (``_SPAN_REDUCES``), and of all of them in ``_eager_rows``
@pytest.mark.parametrize("stage, reduces", [
    ("b2c4", 190), ("ac5", 190), ("c3cube", 190), ("b-ac2sq", 2966),
    ("c4-c2sq", 5372), ("c3sq-plus-c2cube", 5372), ("c2quad", 5344),
    ("bc1", 190), ("final-2b", 190)])
def test_chain_stage_reduce_counts(monkeypatch, stage, reduces):
    # 8,516, 8,517, 8,517 and 8,472 in the span stages when every multiple
    # was reduced; ``reduces`` with every row built before any goes in
    claim_text = {name: claim for name, claim, _
                  in prooflab._CHAIN_STAGES}[stage]
    rules = prooflab._CHAIN_PACKING.rules(_rules_before(stage))
    calls = []
    reduce = exactring.MonomialPacking.reduce

    def counted(self, *args, **kwargs):
        calls.append(1)
        return reduce(self, *args, **kwargs)

    monkeypatch.setattr(exactring.MonomialPacking, "reduce", counted)
    assert prooflab._chain_stage(stage, claim_text, rules).verdict == "PASS"
    assert len(calls) == _SPAN_REDUCES.get(stage, reduces)
    calls.clear()
    _eager_rows(monkeypatch)
    assert prooflab._chain_stage(stage, claim_text, rules).verdict == "PASS"
    assert len(calls) == reduces


@pytest.mark.parametrize("stage, unread", [
    ("b2c4", "a b c1 c2 c3 c4 c5 d"), ("ac5", "a c1 c2 c3 c5 d"),
    ("c3cube", "a c1 c2 c3 d"), ("b-ac2sq", "a c1 c2 d"),
    ("c4-c2sq", "c1 d"), ("c3sq-plus-c2cube", "c1 d"), ("c2quad", "c1 d"),
    ("bc1", "c1 d"), ("final-2b", "d")])
def test_chain_rows_match_direct_reduction(stage, unread):
    # the rows shifted by an unread variable are the direct reductions, in
    # the same order (entries shortest first, then each entry's rows
    # shortest first) and each with its items in the same order
    pk = prooflab._CHAIN_PACKING
    rules = pk.rules(_rules_before(stage))
    assert [prooflab._CHAIN_VARS[pk.unpack(v).index(1)]
            for v in pk.unread(rules)] == unread.split()
    entries = prooflab._reduced_entries(rules)
    want = []
    for row in sorted((prooflab._integer_row(terms) for _, terms in entries),
                      key=prooflab._row_key):
        rows = [r for r in (pk.reduce(row, rules, shift=m)
                            for m in prooflab._CHAIN_MULTS) if r]
        want += sorted(rows, key=prooflab._row_key)
    got = prooflab._chain_rows(entries, rules)
    assert [list(r.items()) for r in got] == [list(r.items()) for r in want]


def _row_closure(entries, rules):
    """Forward reference for ``_row_monomials``: the support of all 45
    multiples of every entry, closed under the rewrites of ``rules``."""
    pk = prooflab._CHAIN_PACKING
    todo = [m + k for _, terms in entries for k in terms
            for m in prooflab._CHAIN_MULTS]
    seen = set(todo)
    while todo:
        nu = todo.pop()
        for lhs, _, rhs in pk.rules(rules):
            if pk.divides(lhs, nu):
                for k, _ in rhs:
                    mu = nu - lhs + k
                    if mu not in seen:
                        seen.add(mu)
                        todo.append(mu)
    return seen


def _claim_multiples(claim_text, rules):
    """The nine reduced claim multiples a span stage tests."""
    pk = prooflab._CHAIN_PACKING
    claim_row = prooflab._integer_row(pk.reduce(pk.pack_terms(
        prooflab.parse_expr(claim_text, prooflab._chain_spec()).terms), rules))
    return [pk.reduce(claim_row, rules,
                      shift=pk.pack((i, 0, 0, 0, 0, 0, 0, j)))
            for i in range(3) for j in range(3)]


@pytest.mark.parametrize("stage, claim_text", [
    (name, claim) for name, claim, _ in prooflab._CHAIN_STAGES
    if name in _SPAN_ROWS])
def test_row_monomials_match_the_forward_closure(stage, claim_text):
    # the backward test answers as the forward closure does on every
    # monomial of the nine claim multiples, on the closure itself, and on
    # one in seven of its monomials times a variable (some of which leave
    # it), asked in one pass so the answers it keeps are read back too
    pk = prooflab._CHAIN_PACKING
    rules = pk.rules(_rules_before(stage))
    entries = prooflab._reduced_entries(rules)
    closure = _row_closure(entries, rules)
    on_rows = prooflab._row_monomials(entries, rules)
    units = [m for m in prooflab._CHAIN_MULTS if sum(pk.unpack(m)) == 1]
    asked = [mu for mult in _claim_multiples(claim_text, rules) for mu in mult]
    assert any(mu in closure for mu in asked)
    assert any(mu not in closure for mu in asked)
    asked += sorted(closure)
    asked += [mu + v for mu in sorted(closure)[::7] for v in units]
    assert any(mu not in closure for mu in asked[-len(units):])
    for mu in asked + asked[::-1]:
        assert on_rows(mu) == (mu in closure), pk.unpack(mu)


@pytest.mark.parametrize("stage", list(_SPAN_ROWS))
def test_every_row_monomial_is_on_rows(stage):
    # soundness of "on no row": every row _chain_rows yields holds only
    # monomials the backward test reaches
    rules = prooflab._CHAIN_PACKING.rules(_rules_before(stage))
    entries = prooflab._reduced_entries(rules)
    on_rows = prooflab._row_monomials(entries, rules)
    assert all(on_rows(mu) for row in prooflab._chain_rows(entries, rules)
               for mu in row)


def test_row_monomial_made_only_by_a_rewrite():
    pk = prooflab._CHAIN_PACKING
    p = lambda *e: pk.pack(e)
    # c2 * (a c2) = a c2^2 rewrites to b, which is no multiple of c2
    rules = [prooflab._parse_rule("a*c2^2 -> b")]
    c2 = p(0, 0, 0, 1, 0, 0, 0, 0)
    entries = [((0, 0), {c2: 1})]
    on_rows = prooflab._row_monomials(entries, rules)
    b = p(0, 1, 0, 0, 0, 0, 0, 0)
    assert b not in {m + c2 for m in prooflab._CHAIN_MULTS}
    assert on_rows(b)
    assert b in _row_closure(entries, rules)
    assert {b: 1} in list(prooflab._chain_rows(entries, rules))
    # b d comes only from a c2^2 d, of degree 4, above every multiple
    assert not on_rows(b + p(0, 0, 0, 0, 0, 0, 0, 1))
    # on the chain: rows of c2quad hold monomials that are no monomial
    # multiple of an entry, which a test of plain multiples would miss
    rules = pk.rules(_rules_before("c2quad"))
    entries = prooflab._reduced_entries(rules)
    plain = {m + k for _, terms in entries for k in terms
             for m in prooflab._CHAIN_MULTS}
    on_rows = prooflab._row_monomials(entries, rules)
    made = {mu for row in prooflab._chain_rows(entries, rules)
            for mu in row} - plain
    assert {pk.unpack(mu) for mu in made} >= {(0, 0, 2, 0, 2, 0, 0, 3),
                                              (1, 0, 2, 0, 2, 0, 0, 2)}
    assert all(on_rows(mu) for mu in made)


def test_row_monomials_end_when_undoing_raises_the_degree():
    # undoing a*c2^2 -> b trades b for a c2^2, two degrees up, so the search
    # from b^k climbs until it passes the degree of the largest multiple
    pk = prooflab._CHAIN_PACKING
    p = lambda *e: pk.pack(e)
    rules = [prooflab._parse_rule("a*c2^2 -> b")]
    # the entry c1: its multiples reach degree 3
    entries = [((0, 0), {p(0, 0, 1, 0, 0, 0, 0, 0): 1})]
    on_rows = prooflab._row_monomials(entries, rules)
    assert not on_rows(p(0, 1, 0, 0, 0, 0, 0, 0))            # b, via a c2^2
    assert not on_rows(p(0, 2, 0, 0, 0, 0, 0, 0))            # b^2, cut at 4
    assert not on_rows(p(0, 9, 0, 0, 0, 0, 0, 0))            # above it
    # b^12 on the chain: every step up to degree 16 and no further
    rules = pk.rules(_rules_before("c4-c2sq"))
    entries = prooflab._reduced_entries(rules)
    on_rows = prooflab._row_monomials(entries, rules)
    closure = _row_closure(entries, rules)
    for k in range(1, 18):
        bk = p(0, k, 0, 0, 0, 0, 0, 0)
        assert on_rows(bk) == (bk in closure)


@pytest.mark.parametrize("stage", ["c3sq-plus-c2cube", "c2quad"])
def test_shifting_by_an_lhs_variable_is_not_reduction(stage):
    # why _chain_rows shifts only by unread variables: for every variable y
    # some lhs holds, some entry e and variable x give a row reduce(e x) y
    # that differs from reduce(e x y)
    pk = prooflab._CHAIN_PACKING
    rules = pk.rules(_rules_before(stage))
    rows = [prooflab._integer_row(terms)
            for _, terms in prooflab._reduced_entries(rules)]
    units = [m for m in prooflab._CHAIN_MULTS if sum(pk.unpack(m)) == 1]
    held = [y for y in units if y not in pk.unread(rules)]
    assert len(held) == 6
    for y in held:
        assert any(list(pk.shift(pk.reduce(row, rules, shift=x), y).items())
                   != list(pk.reduce(row, rules, shift=x + y).items())
                   for row in rows for x in units)


def test_echelon_insert_returns_the_new_lead():
    ech = prooflab._Echelon()
    assert ech.insert({5: 2, 3: 1}) == 5
    assert ech.insert({5: -4, 3: -2}) is None       # in the span
    assert ech.insert({5: 1, 4: 1}) == 4
    # the new pivot's tail avoids the older lead
    assert ech.pivots[4] == (2, ((3, -1),))


def _chain_sympy(terms):
    """Packed chain terms as a sympy expression."""
    gens = sympy.symbols(prooflab._CHAIN_VARS)
    pk = prooflab._CHAIN_PACKING
    return sympy.Add(*(
        sympy.Rational(c) * sympy.Mul(*(g ** e for g, e in
                                        zip(gens, pk.unpack(k))))
        for k, c in terms.items()))


@pytest.mark.parametrize("stage", ["b-ac2sq", "c4-c2sq"])
def test_chain_normal_forms_match_sympy_reduced(stage):
    # the rules before these two stages form a reduced grlex Groebner basis
    # (the later stages' rules do not), so normal forms are unique there and
    # sympy's division checks both reducers, with and without a shift
    gens = sympy.symbols(prooflab._CHAIN_VARS)
    pk = prooflab._CHAIN_PACKING
    prules = _rules_before(stage)
    basis = [_chain_sympy({lhs: 1}) - _chain_sympy(rhs) for lhs, rhs in prules]
    assert set(sympy.groebner(basis, *gens, order="grlex").exprs) == set(basis)
    rules = _tuple_rules(prules)

    def oracle(expr):
        return sympy.expand(
            sympy.reduced(expr, basis, *gens, order="grlex")[1])

    rewritten = 0
    entries = prooflab._chain_residual_entries()
    for n, (_, terms) in enumerate(entries[::12]):
        got = pk.reduce(terms, prules)
        assert sympy.expand(_chain_sympy(got)) == oracle(_chain_sympy(terms))
        assert reduce_terms(_unpacked(terms), rules) == _unpacked(got)
        rewritten += got != terms
        m = prooflab._CHAIN_MULTS[7 * n % len(prooflab._CHAIN_MULTS)]
        assert sympy.expand(_chain_sympy(pk.reduce(got, prules, shift=m))) \
            == oracle(_chain_sympy(got) * _chain_sympy({m: 1}))
    assert rewritten > 0


def test_chain_rules_need_integer_rhs():
    with pytest.raises(RingError):
        prooflab._parse_rule("b^2 -> a/2")
    with pytest.raises(RingError):                # deglex must decrease
        prooflab._parse_rule("a -> b^2")
    pk = prooflab._CHAIN_PACKING
    b2, a, c3sq = ((0, 2, 0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0),
                   (0, 0, 0, 0, 2, 0, 0, 0))
    assert prooflab._parse_rule("b^2 -> 0") == (pk.pack(b2), {})
    lhs, rhs = prooflab._parse_rule("2*b^2 -> 4*a + 6*c3^2")
    assert lhs == pk.pack(b2) and rhs == {pk.pack(a): 2, pk.pack(c3sq): 3}
    assert all(type(c) is int for c in rhs.values())


def test_chain_runs_without_tuple_reduction(monkeypatch):
    def refuse(*args):
        raise AssertionError("tuple-keyed term function called by the chain")

    monkeypatch.setattr(exactring, "reduce_terms", refuse)
    monkeypatch.setattr(prooflab, "reduce_terms", refuse)
    monkeypatch.setattr(prooflab, "mul_terms", refuse)
    # the forked share inherits the patches and sends its error back
    _set_cpus(monkeypatch, 2)
    reports = prooflab.entry_chain_g2()
    assert len(reports) == 9
    assert all(r.verdict == "PASS" for r in reports), reports


def test_chain_radical_mask():
    pk = prooflab._CHAIN_PACKING
    assert pk.unpack(prooflab._CHAIN_RADICAL) == (0, 127, 127, 127, 127, 127,
                                                  127, 0)
    assert prooflab._CHAIN_RADICAL & pk.guard == 0


def _tuple_poly_divide(entry, claim):
    """The tuple-keyed exact division the chain used before packed keys."""
    rem = dict(entry)
    quot = {}
    clead = max(claim, key=deglex_key)
    cc = claim[clead]
    guard = 0
    while rem:
        lead = max(rem, key=deglex_key)
        diff = tuple(x - y for x, y in zip(lead, clead))
        if any(x < 0 for x in diff):
            return None
        q = rem[lead] / cc
        quot[diff] = quot.get(diff, Fraction(0)) + q
        rem = sub_terms(rem, mul_terms({diff: q}, claim))
        guard += 1
        if guard > 800:
            return None
    return {m: c for m, c in quot.items() if c}


def _tuple_unit_shaped(quot):
    radical = range(1, 7)                      # b, c1..c5
    if not quot:
        return None
    units = [m for m in quot if all(m[k] == 0 for k in radical)]
    if len(units) != 1:
        return None
    base = units[0]
    for m in quot:
        if m == base:
            continue
        if any(x < y for x, y in zip(m, base)):
            return None
        if all(m[k] == base[k] for k in radical):
            return None
    return quot[base], base


def test_packed_unit_test_matches_tuple_version():
    pk = prooflab._CHAIN_PACKING
    units = 0
    rules = ()
    for name, claim_text, rule_texts in prooflab._CHAIN_STAGES:
        claim = pk.reduce(pk.pack_terms(prooflab.parse_expr(
            claim_text, prooflab._chain_spec()).terms), rules)
        assert claim, name
        for _, terms in prooflab._reduced_entries(rules):
            quot = prooflab._poly_divide(terms, claim)
            old_quot = _tuple_poly_divide(_unpacked(terms), _unpacked(claim))
            assert (quot is None) == (old_quot is None)
            if quot is not None:
                assert _unpacked(quot) == old_quot
            u = prooflab._unit_shaped(quot)
            old = _tuple_unit_shaped(old_quot)
            assert (u is None) == (old is None)
            if u:
                assert u[0] == old[0] and pk.unpack(u[1]) == old[1]
                units += 1
        rules += tuple(prooflab._parse_rule(t) for t in rule_texts)
    assert units > 0


def test_transvection_criterion():
    spec = RingSpec("poly", ("u1", "u2", "u3"))
    assert not prooflab.transvection_criterion(
        spec.var("u1"), spec.var("u2"), spec.var("u3"))
    assert prooflab.transvection_criterion(
        spec.zero(), spec.var("u2"), spec.var("u3"))
    q = RingSpec("poly", ())
    assert not prooflab.transvection_criterion(q.one(), q.one(), q.zero())


SKEWED_TRANSVECTION = """
from chevlab import prooflab
from chevlab.exactring import RingSpec

exact = prooflab.root_element
# doubled root elements break (u - 1)^2 = u1 u2 E_13
prooflab.root_element = lambda basis, root, val, real: exact(
    basis, root, 2 * val, real)
spec = RingSpec("poly", ("u1", "u2", "u3"))
try:
    prooflab.transvection_criterion(*(spec.var(v) for v in spec.variables))
    print("returned")
except RuntimeError as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_transvection_check_raises(flags):
    # the identity check survives python -O
    src = os.path.dirname(os.path.dirname(os.path.abspath(chevlab.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SKEWED_TRANSVECTION],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: transvection"), proc.stdout


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


@pytest.mark.parametrize("lam", [
    Fraction(10 ** 20 + 7, 2),            # lambda^3 beyond float precision
    Fraction(-(10 ** 110 + 1), 3),        # lambda^3 beyond the float range
    Fraction(5, 7)], ids=["precision", "overflow", "small"])
def test_scalar_obstruction_exact_cube_roots(lam):
    # N^3 = 2: trace 0 and inverse trace 0, so only the determinant (a cube
    # root of lambda^3) can pin lambda
    spec = RingSpec("poly", ())
    N = [[0, 1, 0], [0, 0, 1], [2, 0, 0]]
    M = matrix_from_entries(spec, N, "pgl3").scale(spec.const(lam))
    v, got = prooflab.scalar_conjugacy_obstruction(
        M, matrix_from_entries(spec, N, "pgl3"))
    assert v == "POSSIBLE" and got == spec.const(lam)
    # against N' with N'^3 = 3 the determinant ratio 2 lambda^3 / 3 is no cube
    N3 = matrix_from_entries(spec, [[0, 1, 0], [0, 0, 1], [3, 0, 0]], "pgl3")
    assert prooflab.scalar_conjugacy_obstruction(M, N3) == ("IMPOSSIBLE",
                                                            "determinant")


def _scan_cube_roots(x, p):
    return [r for r in range(1, p) if (pow(r, 3, p) - x) % p == 0]


def test_cube_roots_match_the_scan():
    # every residue mod every prime below 200: 3 divides p - 1 to the power
    # s = 0 (p = 2, 3, 5, ...) up to s = 4 (p = 163)
    for p in range(2, 200):
        if not exactring.is_prime(p):
            continue
        spec = RingSpec("modular", modulus=p)
        for x in range(p):
            got = [r.residue for r in prooflab._cube_roots(spec.const(x))]
            assert got == _scan_cube_roots(x, p), (p, x)


@pytest.mark.parametrize("p", [1000003, 2 * 3 ** 30 + 1])
def test_cube_roots_mod_a_large_prime(p):
    # no scan of F_p: 1000003 - 1 = 2 * 3 * 166667, and 3^30 divides the
    # other p - 1
    spec = RingSpec("modular", modulus=p)
    t0 = time.perf_counter()
    cubes = 0
    for y in range(2, 40):
        x = spec.const(y)
        roots = [r.residue for r in prooflab._cube_roots(x)]
        assert roots == sorted(roots)
        assert all(pow(r, 3, p) == y for r in roots)
        is_cube = pow(y, (p - 1) // 3, p) == 1
        assert len(roots) == (3 if is_cube else 0)
        cubes += is_cube
        roots = [r.residue for r in prooflab._cube_roots(x ** 3)]
        assert len(roots) == 3 and y in roots
    assert 0 < cubes < 38
    assert time.perf_counter() - t0 < 0.5


def test_cube_roots_need_a_prime_modulus():
    with pytest.raises(RingError, match="prime modulus"):
        prooflab._cube_roots(RingSpec("modular", modulus=27).const(8))


def test_obstruction_over_a_large_field_is_fast():
    # N^3 = 2 has trace 0, so lambda is a cube root of the determinant
    # ratio; 0.27 s over F_1000003 when the cube roots were a scan
    spec = RingSpec("modular", modulus=1000003)
    N = matrix_from_entries(spec, [[0, 1, 0], [0, 0, 1], [2, 0, 0]], "pgl3")
    lam = spec.const(123457)
    t0 = time.perf_counter()
    verdict, got = prooflab.scalar_conjugacy_obstruction(N.scale(lam), N)
    assert time.perf_counter() - t0 < 0.05
    # every cube root of lambda^3 passes, and the least is returned
    roots = prooflab._cube_roots(lam ** 3)
    assert lam in roots
    assert (verdict, got) == ("POSSIBLE", roots[0])


def explicit_inverse3(M):
    """Reference: the inverse of a 3x3 matrix from its cofactors."""
    e = M.entry
    cof = [[(e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1)),
            -(e(0, 1) * e(2, 2) - e(0, 2) * e(2, 1)),
            (e(0, 1) * e(1, 2) - e(0, 2) * e(1, 1))],
           [-(e(1, 0) * e(2, 2) - e(1, 2) * e(2, 0)),
            (e(0, 0) * e(2, 2) - e(0, 2) * e(2, 0)),
            -(e(0, 0) * e(1, 2) - e(0, 2) * e(1, 0))],
           [(e(1, 0) * e(2, 1) - e(1, 1) * e(2, 0)),
            -(e(0, 0) * e(2, 1) - e(0, 1) * e(2, 0)),
            (e(0, 0) * e(1, 1) - e(0, 1) * e(1, 0))]]
    dinv = invert(prooflab._det3(M))
    return matrix_from_entries(M.spec, [[c * dinv for c in row]
                                        for row in cof], M.realization)


@st.composite
def invertible_3x3(draw):
    """An invertible 3x3 matrix over Q, F_2, F_3, F_7 or F_13."""
    p = draw(st.sampled_from([None, 2, 3, 7, 13]))
    if p is None:
        spec = RingSpec("poly", ())
        entry = st.fractions(-9, 9, max_denominator=4)
    else:
        spec = RingSpec("modular", modulus=p)
        entry = st.integers(0, p - 1)
    row = st.lists(entry, min_size=3, max_size=3)
    M = matrix_from_entries(spec, draw(st.lists(row, min_size=3,
                                                max_size=3)), "pgl3")
    assume(not prooflab._det3(M).is_zero())
    return M


@settings(max_examples=300, deadline=None)
@given(invertible_3x3())
def test_inverse_trace_by_cayley_hamilton(M):
    # tr(M^-1) = e_2(M) / det M, as scalar_conjugacy_obstruction reads it
    inverse = explicit_inverse3(M)
    assert (M * inverse).is_identity()
    assert (prooflab._minor_sum3(M) * invert(prooflab._det3(M))
            == inverse.trace())


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
        gi = explicit_inverse3(g)
        got = prooflab.scalar_conjugacy_obstruction(g * Y * gi, g * Yp * gi)
        assert got[0] == base


@st.composite
def field_pairs(draw):
    """(M, N): invertible 3x3 matrices over one F_p, p <= 13, M half the
    time a unit multiple of N so that both verdicts occur."""
    spec = RingSpec("modular", modulus=draw(st.sampled_from(
        [2, 3, 5, 7, 11, 13])))
    entry = st.integers(0, spec.modulus - 1)
    row = st.lists(entry, min_size=3, max_size=3)

    def invertible():
        M = matrix_from_entries(spec, draw(st.lists(row, min_size=3,
                                                    max_size=3)), "pgl3")
        assume(not prooflab._det3(M).is_zero())
        return M

    N = invertible()
    if draw(st.booleans()):
        return N.scale(spec.const(draw(st.integers(1, spec.modulus - 1)))), N
    return invertible(), N


def _least_passing_unit(M, N):
    """The brute-force reference: the least unit lambda with det M =
    lambda^3 det N, tr M = lambda tr N and tr M^-1 = lambda^-1 tr N^-1,
    the inverses from their cofactors; None when no unit passes."""
    spec = M.spec
    triM, triN = explicit_inverse3(M).trace(), explicit_inverse3(N).trace()
    for r in range(1, spec.modulus):
        lam = spec.const(r)
        if ((prooflab._det3(M) - lam ** 3 * prooflab._det3(N)).is_zero()
                and (M.trace() - lam * N.trace()).is_zero()
                and (triM - invert(lam) * triN).is_zero()):
            return lam
    return None


@settings(max_examples=300, deadline=None)
@given(field_pairs())
def test_obstruction_matches_the_least_passing_unit(pair):
    verdict, got = prooflab.scalar_conjugacy_obstruction(*pair)
    want = _least_passing_unit(*pair)
    if want is None:
        assert verdict == "IMPOSSIBLE"
    else:
        assert (verdict, got) == ("POSSIBLE", want)


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
