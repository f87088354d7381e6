"""Acceptance suite.

One test per acceptance criterion, each asserting the criterion at its
stated tolerance (exact symbolic equality throughout) and printing one
pass line.  Criterion 2 is split: the computable content passes; the
literal st-coefficient signs printed for A2/B2 in the source's trace
display contradict its own displayed commutator normalization and are
encoded as a strict expected failure (see the A2/B2 note in the README).
"""

import random
import time

import pytest

from chevlab import decomp, prooflab, shacheck
from chevlab.chevgroup import (GroupWord, build_basis, commutator_relation,
                               evaluate_word, identity_matrix,
                               matrix_from_entries, parse_word, root_element,
                               trace_poly)
from chevlab.exactring import RewriteRule, RingSpec, substitute
from chevlab.rootsys import all_roots


def _ok(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_relation_tables():
    t0 = time.time()
    expected = {
        ("A2", "a1", "a2"): {(1, 1): 1},
        ("A2", "a1", "-a1-a2"): {(1, 1): -1},
        ("A2", "a2", "-a1-a2"): {(1, 1): 1},
        ("A2", "a1+a2", "-a1"): {(1, 1): -1},
        ("A2", "a1+a2", "-a2"): {(1, 1): 1},
        ("B2", "a", "b"): {(1, 1): -1, (1, 2): -1},
        ("B2", "a+b", "b"): {(1, 1): -2},
        ("G2", "a", "b"): {(1, 1): 1, (1, 2): -1, (1, 3): -1, (2, 3): 1},
        ("G2", "a+b", "b"): {(1, 1): 2, (1, 2): 3, (2, 1): 3},
        ("G2", "a", "a+3b"): {(1, 1): 1},
        ("G2", "a+2b", "b"): {(1, 1): -3},
        ("G2", "a+b", "a+2b"): {(1, 1): 3},
    }
    for (tag, g, d), want in expected.items():
        rel = commutator_relation(build_basis(tag), g, d)
        assert rel.constants() == want, (tag, g, d)
    # the displayed products verbatim, in the displayed factor order
    spec = RingSpec("poly", ("t", "s"))
    displays = [
        ("A2", "x(a1,t) x(a2,s) x(a1,-t) x(a2,-s)", "x(a1+a2, t*s)"),
        ("B2", "x(a,t) x(b,s) x(a,-t) x(b,-s)",
         "x(a+b,-t*s) x(a+2b,-t*s^2)"),
        ("B2", "x(a+b,t) x(b,s) x(a+b,-t) x(b,-s)", "x(a+2b,-2*t*s)"),
        ("G2", "x(a,t) x(b,s) x(a,-t) x(b,-s)",
         "x(a+b,t*s) x(a+3b,-t*s^3) x(a+2b,-t*s^2) x(2a+3b,t^2*s^3)"),
        ("G2", "x(a+b,t) x(b,s) x(a+b,-t) x(b,-s)",
         "x(a+2b,2*t*s) x(a+3b,3*t*s^2) x(2a+3b,3*t^2*s)"),
        ("G2", "x(a,t) x(a+3b,s) x(a,-t) x(a+3b,-s)", "x(2a+3b,t*s)"),
        ("G2", "x(a+2b,t) x(b,s) x(a+2b,-t) x(b,-s)", "x(a+3b,-3*t*s)"),
        ("G2", "x(a+b,t) x(a+2b,s) x(a+b,-t) x(a+2b,-s)",
         "x(2a+3b,3*t*s)"),
    ]
    for tag, lhs, rhs in displays:
        basis = build_basis(tag)
        L = evaluate_word(parse_word(lhs, tag, spec), basis, spec=spec)
        R = evaluate_word(parse_word(rhs, tag, spec), basis, spec=spec)
        assert (L - R).is_zero(), (tag, lhs)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _ok(1, f"commutator tables match the displayed relations exactly"
           f" ({elapsed:.2f}s < 5s)")


def test_criterion_02_trace_formulas():
    t0 = time.time()
    spec = RingSpec("poly", ("t", "s"))
    t, s = spec.var("t"), spec.var("s")
    assert trace_poly(build_basis("A1"), "a") == s * s * t * t + 4 * s * t + 3
    # A2 and B2: quartic and constant terms as displayed; the st-term is
    # computed exactly and its sign is pinned by the commutator relations
    a2 = trace_poly(build_basis("A2"), "a1+a2")
    b2 = trace_poly(build_basis("B2"), "a")
    assert a2 == s * s * t * t + 6 * s * t + 8
    assert b2 == s * s * t * t + 6 * s * t + 10
    g2 = trace_poly(build_basis("G2"), "a")
    # s^2 t^2 - A s t + B: B forced to 14 = dim, quartic coefficient 1,
    # and the computed A is recorded as -8 (no value is displayed for it)
    assert substitute(g2, {"t": 0, "s": 0}) == spec.const(14)
    assert g2 == s * s * t * t - (-8) * s * t + 14
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _ok(2, "A1 trace s^2t^2+4st+3 exact; A2/B2 quartic+constant terms exact"
           " (st-coefficient computed as +6, see README); G2 constant 14,"
           f" quartic coefficient 1, recorded A = -8 ({elapsed:.2f}s < 10s)")


@pytest.mark.xfail(strict=True, reason=(
    "the displayed A2/B2 trace identities carry st-coefficient -6, which "
    "contradicts the displayed commutator normalization; the "
    "exact computed value is +6 (decisions ledger, trace-sign entry)"))
def test_criterion_02_displayed_st_sign():
    spec = RingSpec("poly", ("t", "s"))
    t, s = spec.var("t"), spec.var("s")
    assert trace_poly(build_basis("A2"), "a1+a2") == \
        s * s * t * t - 6 * s * t + 8
    assert trace_poly(build_basis("B2"), "a") == \
        s * s * t * t - 6 * s * t + 10


def test_criterion_03_centralizers():
    t0 = time.time()
    for tag in ("A1", "A2", "B2", "G2"):
        report = prooflab.centralizer_check(prooflab.standard_family(tag))
        assert report.verdict == "PASS", tag
    # exhaustive centralizers match the families elementwise (asserted
    # inside centralizer_bruteforce); A2 and B2 counts are p^2
    for tag, p, want in [("A1", 3, 3), ("A1", 5, 5), ("A2", 3, 9),
                         ("A2", 5, 25), ("B2", 3, 9), ("A2", 7, 49)]:
        count, _ = prooflab.centralizer_bruteforce(tag, p, cap=2000000)
        assert count == want, (tag, p, count)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _ok(3, "centralizer parametrizations pass symbolically and match the"
           " exhaustive centralizers over F_3, F_5 and F_7"
           f" ({elapsed:.1f}s < 2min)")


def test_criterion_04_g2_entry_chain():
    t0 = time.time()
    reports = prooflab.entry_chain_g2()
    assert len(reports) == 9
    assert all(r.verdict == "PASS" for r in reports), \
        [(r.name, r.verdict) for r in reports]
    assert reports[-1].name == "G2-chain-final-2b"
    assert "b rewrites to 0" in reports[-1].detail
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _ok(4, f"all nine entry-chain stages certified, ending at 2b = 0 and"
           f" b = 0 once 2 is invertible ({elapsed:.1f}s < 2min)")


def test_criterion_05_catalog_and_mutants():
    t0 = time.time()
    n_records = 0
    for tag in ("A1", "A2", "B2", "G2"):
        for report in prooflab.run_catalog(tag):
            assert report.verdict in ("PASS", "SKIPPED"), \
                (report.name, report.verdict, report.residual)
        for rec in prooflab.builtin_catalog(tag):
            n_records += 1
            assert prooflab.run_identity(rec.mutate()).verdict != "PASS", \
                rec.name
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _ok(5, f"{n_records} catalog records pass and every one-coefficient"
           f" mutant fails ({elapsed:.1f}s < 5min)")


Y = [[0, 1, 2], [0, 1, 1], [-1, 0, 0]]
YP = [[0, 0, -1], [1, 2, 0], [1, 1, 0]]


def test_criterion_06_nonconjugacy_obstructions():
    t0 = time.time()
    spec = RingSpec("poly", ())
    v, _ = prooflab.scalar_conjugacy_obstruction(
        matrix_from_entries(spec, Y, "pgl3"),
        matrix_from_entries(spec, YP, "pgl3"))
    assert v == "IMPOSSIBLE"
    for p in (2, 3, 5, 11, 13):
        sp = RingSpec("modular", modulus=p)
        v, _ = prooflab.scalar_conjugacy_obstruction(
            matrix_from_entries(sp, Y, "pgl3"),
            matrix_from_entries(sp, YP, "pgl3"))
        assert v == "IMPOSSIBLE", p
    sp7 = RingSpec("modular", modulus=7)
    v, lam = prooflab.scalar_conjugacy_obstruction(
        matrix_from_entries(sp7, Y, "pgl3"),
        matrix_from_entries(sp7, YP, "pgl3"))
    assert v == "POSSIBLE" and lam == sp7.const(4)
    v, _ = prooflab.scalar_conjugacy_obstruction(
        matrix_from_entries(sp7, [[3, 3, 0], [2, 3, 0], [0, 0, 5]], "pgl3"),
        matrix_from_entries(sp7, [[3, 0, 0], [0, 1, 1], [0, 3, 1]], "pgl3"))
    assert v == "IMPOSSIBLE"
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok(6, f"Y/Y' impossible over Q and F_2,3,5,11,13, possible-sanity over"
           f" F_7 (lambda=4), A/B impossible over F_7 ({elapsed:.2f}s < 1s)")


def test_criterion_07_factorization_calculus():
    t0 = time.time()
    fr = RingSpec("fraction", ("u", "v"))
    u, v = fr.var("u"), fr.var("v")
    for tag in ("A1", "A2", "B2", "G2"):
        basis = build_basis(tag)
        for g in all_roots(tag):
            word = decomp.rank_one_factor(g, u, v)
            lhs = root_element(basis, -g, u) * root_element(basis, g, v)
            assert (lhs - evaluate_word(word, basis, spec=fr)).is_zero()
    q = RingSpec("quotient", ("u",), rules=[RewriteRule((2,), {})])
    uq = q.var("u")
    basis = build_basis("A2")
    g = basis.root("a1")
    word = decomp.nilpotent_commute(g, uq)
    lhs = root_element(basis, -g, uq) * root_element(basis, g, q.one())
    assert (lhs - evaluate_word(word, basis, spec=q)).is_zero()

    a1 = build_basis("A1")
    rng = random.Random(2024)
    for p in (3, 5, 7):
        for k in (1, 2):
            spec = RingSpec("modular", modulus=p ** k)
            for _ in range(200):
                w = GroupWord("A1")
                for _ in range(rng.randint(1, 8)):
                    w = w * GroupWord.x("A1", rng.choice(["a", "-a"]),
                                        spec.const(rng.randrange(p ** k)))
                m = evaluate_word(w, a1, "a1std", spec=spec)
                fact = decomp.gauss_decompose_a1(m, a1)
                again = evaluate_word(fact.word(), a1, "a1std", spec=spec)
                assert (again - m).is_zero()

    for system, p in [("A1", 3), ("A1", 5), ("A2", 2)]:
        cells, table = decomp.bruhat_cells(system, p)
        assert len(cells) == len(table)
        assert all(len(ws) == 1 for ws in cells.values())
    elapsed = time.time() - t0
    assert elapsed < 180.0
    _ok(7, "rank-one identity on every root of every system, nilpotent"
           " variant in Q[u]/(u^2), 1200 Gauss round-trips, Bruhat cells"
           f" partition three groups ({elapsed:.1f}s < 3min)")


def test_criterion_08_nilpotency_degrees():
    t0 = time.time()
    spec = RingSpec("poly", ("d",))
    basis = build_basis("G2")
    X1, X2 = prooflab._g2_x_words()[:2]
    M1 = evaluate_word(parse_word(X1, "G2", spec), basis, spec=spec)
    M2 = evaluate_word(parse_word(X2, "G2", spec), basis, spec=spec)
    ident = identity_matrix(spec, 14, "adjoint")
    D1, D2 = M1 - ident, M2 - ident
    D1sq = D1 * D1
    assert (D1sq * D1).is_zero() and not D1sq.is_zero()
    D2cub = D2 * D2 * D2
    assert (D2cub * D2).is_zero() and not D2cub.is_zero()
    # sharpness at d = 0 explicitly
    spec0 = RingSpec("poly", ())
    xa = root_element(basis, basis.root("a"), spec0.one())
    xb = root_element(basis, basis.root("b"), spec0.one())
    i0 = identity_matrix(spec0, 14, "adjoint")
    da, db = xa - i0, xb - i0
    assert not (da * da).is_zero()
    assert not (db * db * db).is_zero()
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _ok(8, f"(X1-1)^3 = 0 and (X2-1)^4 = 0 symbolically in d, with sharp"
           f" exponents at d = 0 ({elapsed:.1f}s < 30s)")


def test_criterion_09_sha_certification():
    t0 = time.time()
    for p in (3, 5, 7):
        rep = shacheck.sha_report("A1", p)
        assert rep["verdict"] == "PASS", rep
        assert rep["cp_endo_count"] == rep["inner_count"]
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _ok(9, "every class-preserving endomorphism of E(A1, F_p) is inner for"
           f" p = 3, 5, 7, with matching counts ({elapsed:.1f}s < 10min)")


def test_criterion_10_transvection_and_symmetric_difference():
    t0 = time.time()
    spec = RingSpec("poly", ("u1", "u2", "u3"))
    # (u-1)^2 = u1 u2 E13 is asserted inside the criterion call
    assert not prooflab.transvection_criterion(
        spec.var("u1"), spec.var("u2"), spec.var("u3"))
    tring = RingSpec("poly", ("t",))
    t = tring.var("t")
    assert prooflab.symmetric_difference(t * t - 6 * t + 8) == 4 * t + 2
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _ok(10, "transvection criterion and symmetric difference exact"
            f" ({elapsed:.2f}s < 1s)")
