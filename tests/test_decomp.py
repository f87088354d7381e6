import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevlab import decomp, shacheck
from chevlab.chevgroup import (GroupWord, RealizationError, build_basis,
                               default_realization, evaluate_word, parse_word,
                               root_element)
from chevlab.exactring import NotAUnit, RingError, RingSpec
from chevlab.rootsys import Root, all_roots


def test_rank_one_symbolic():
    fr = RingSpec("fraction", ("u", "v"))
    u, v = fr.var("u"), fr.var("v")
    for tag in ("A1", "A2", "B2", "G2"):
        basis = build_basis(tag)
        for g in all_roots(tag):
            word = decomp.rank_one_factor(g, u, v)
            lhs = root_element(basis, -g, u) * root_element(basis, g, v)
            rhs = evaluate_word(word, basis, "adjoint", spec=fr)
            assert (lhs - rhs).is_zero(), (tag, g)


def test_rank_one_degenerate_and_error():
    spec = RingSpec("poly", ("v",))
    g = Root("A2", (1, 0))
    word = decomp.rank_one_factor(g, spec.zero(), spec.var("v"))
    # u = 0 collapses to x_g(v) h_g(1) x_{-g}(0)
    basis = build_basis("A2")
    lhs = root_element(basis, g, spec.var("v"))
    assert (evaluate_word(word, basis, spec=spec) - lhs).is_zero()

    f5 = RingSpec("modular", modulus=5)
    with pytest.raises(NotAUnit):
        decomp.rank_one_factor(g, f5.const(2), f5.const(2))  # 1+4 = 0


def test_nilpotent_commute():
    from chevlab.exactring import RewriteRule
    q = RingSpec("quotient", ("u",), rules=[RewriteRule((2,), {})])
    u = q.var("u")
    g = Root("A2", (1, 0))
    word = decomp.nilpotent_commute(g, u)
    basis = build_basis("A2")
    lhs = root_element(basis, -g, u) * root_element(basis, g, q.one())
    assert (evaluate_word(word, basis, spec=q) - lhs).is_zero()

    word0 = decomp.nilpotent_commute(g, q.zero())
    assert (evaluate_word(word0, basis, spec=q)
            - root_element(basis, g, q.one())).is_zero()

    p = RingSpec("poly", ("u",))
    with pytest.raises(decomp.MissingRewriteRule):
        decomp.nilpotent_commute(g, p.var("u"))


def test_gauss_examples():
    basis = build_basis("A1")
    f5 = RingSpec("modular", modulus=5)
    m = root_element(basis, basis.root("-a"), f5.one(), "a1std")
    fact = decomp.gauss_decompose_a1(m, basis)
    letters = fact.word().letters
    # t = 1, a = 0, b = 1, c = 0
    assert letters[0][2].is_one()
    assert letters[1][2].is_zero()
    assert letters[2][2].is_one()
    assert letters[3][2].is_zero()

    ident = evaluate_word(GroupWord("A1"), basis, "a1std", spec=f5)
    fact = decomp.gauss_decompose_a1(ident, basis)
    assert all(p.is_one() or p.is_zero() for _, _, p in fact.word().letters)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2),
                                 (7, 2)])
def test_gauss_round_trip(p, k):
    # x, h, w and t1 letters; t1(u) is the image of diag(u, 1), so the word
    # is in the image of SL2 exactly when the product of its t1 parameters
    # is a square mod p
    basis = build_basis("A1")
    n = p ** k
    spec = RingSpec("modular", modulus=n)
    units = [u for u in range(1, n) if u % p]
    rng = random.Random(100 * p + k)
    for _ in range(200):
        word, det = GroupWord("A1"), 1
        for _ in range(rng.randint(1, 8)):
            kind, root = rng.choice("xxxhwt"), rng.choice(["a", "-a"])
            if kind == "x":
                word = word * GroupWord.x("A1", root,
                                          spec.const(rng.randrange(n)))
            elif kind == "t":
                u = rng.choice(units)
                word, det = word * GroupWord.t("A1", 0, spec.const(u)), det * u
            else:
                word = word * getattr(GroupWord, kind)(
                    "A1", root, spec.const(rng.choice(units)))
        m = evaluate_word(word, basis, "a1std", spec=spec)
        if pow(det, (p - 1) // 2, p) != 1:
            with pytest.raises(decomp.NoFactorization,
                               match="^matrix is not in the image of SL2$"):
                decomp.gauss_decompose_a1(m, basis)
            continue
        fact = decomp.gauss_decompose_a1(m, basis)
        again = evaluate_word(fact.word(), basis, "a1std", spec=spec)
        assert (again - m).is_zero()


def test_gauss_torus_shape():
    # the torus factor is diag(t, 1/t, 1) in the standard realization
    basis = build_basis("A1")
    f7 = RingSpec("modular", modulus=7)
    w = parse_word("x(a,2) x(-a,3) x(a,1) x(-a,5)", "A1", f7)
    m = evaluate_word(w, basis, "a1std", spec=f7)
    fact = decomp.gauss_decompose_a1(m, basis)
    kind, idx, t = fact.torus.letters[0]
    assert kind == "t" and idx == 0
    mat = evaluate_word(fact.torus, basis, "a1std", spec=f7)
    assert mat.entry(0, 0) == t and (mat.entry(1, 1) * t).is_one()
    assert mat.entry(2, 2).is_one()


def test_gauss_rejects_outsiders():
    from chevlab.chevgroup import matrix_from_entries
    f5 = RingSpec("modular", modulus=5)
    # D a unit, then D in the radical with a lift whose C is no unit
    for rows in ([[1, 1, 1], [0, 1, 1], [0, 0, 1]],
                 [[1, 0, 0], [0, 0, 0], [0, 0, 1]]):
        bad = matrix_from_entries(f5, rows, "a1std")
        with pytest.raises(decomp.NoFactorization):
            decomp.gauss_decompose_a1(bad, build_basis("A1"))


@pytest.mark.parametrize("p, top", [(3, 6), (5, 4), (7, 3), (11, 2),
                                    (13, 2), (17, 2), (257, 1)])
def test_unit_sqrts_match_the_scan(p, top):
    # the lifted roots are the list a scan of Z/p^k gives, in its order;
    # 2^2, 2^4 and 2^8 divide 13 - 1, 17 - 1 and 257 - 1, so Tonelli-Shanks
    # takes more than one step there
    for k in range(1, top + 1):
        n = p ** k
        spec = RingSpec("modular", modulus=n)
        for x in range(1, n):
            if x % p:
                assert [r.residue for r in
                        decomp._unit_sqrts(spec.const(x))] == [
                    r for r in range(n) if (r * r - x) % n == 0]


def test_unit_sqrts_of_a_large_modulus():
    # the prime is the exact root of the modulus and the root mod p comes
    # from Tonelli-Shanks, never from a scan of Z/n
    start = time.perf_counter()
    for n in (100000007, 10007 ** 2):
        spec = RingSpec("modular", modulus=n)
        assert [r.residue for r in decomp._unit_sqrts(spec.const(4))] == [
            2, n - 2]
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [2, 4, 6, 15, 45, 225])
def test_unit_sqrts_need_an_odd_prime_power(n):
    with pytest.raises(RingError, match=f"odd prime power modulus, not {n}$"):
        decomp._unit_sqrts(RingSpec("modular", modulus=n).const(1))


def test_bruhat_examples():
    basis = build_basis("A1")
    f3 = RingSpec("modular", modulus=3)
    m = root_element(basis, basis.root("a"), f3.one(), "a1std")
    fact = decomp.bruhat_bruteforce(m, "A1", 3)
    assert fact.weyl_word == ()

    w = parse_word("w(a,1)", "A1", f3)
    mw = evaluate_word(w, basis, "a1std", spec=f3)
    fact = decomp.bruhat_bruteforce(mw, "A1", 3)
    assert fact.weyl_word == (0,)


def _residues(m):
    return np.array([[e.residue for e in row] for row in m.rows],
                    dtype=np.int64)


def _bruhat_oracle(M, system, p):
    """The exhaustive O(|W| |T| |U|^2) search: for each (w, t, u) in
    canonical order, the first u' in U with t u w u' = M.  Only the order
    and the words come from the context; every word is evaluated here."""
    ctx = decomp._bruhat_context(system, p)
    basis = build_basis(system)
    spec = RingSpec("modular", modulus=p)

    def canon(arr):
        return shacheck._canonicalize(arr, ctx.realization, p)

    def ev(word):
        return _residues(evaluate_word(word, basis, ctx.realization,
                                       spec=spec))

    target = canon(_residues(M)[None])[0]
    u_stack = np.stack([ev(uw) for uw in ctx.u_words])
    torus = [(tw, ev(tw)) for tw in ctx.torus_words]
    for wword, wgw in ctx.weyl_reps:
        wmat = ev(wgw)
        for tw, t in torus:
            for uw, u in zip(ctx.u_words, u_stack):
                left = t @ u @ wmat % p
                hits = (canon(left @ u_stack) == target).all(axis=(1, 2))
                if hits.any():
                    u2w = ctx.u_words[int(hits.argmax())]
                    return decomp.BruhatFactorization(tw, uw, wgw, u2w, wword)
    raise decomp.ElementNotInGroup("no Bruhat factorization found")


@pytest.mark.parametrize("system,p", [("A1", 3), ("A2", 3), ("B2", 2)])
def test_bruhat_matches_exhaustive_search(system, p):
    spec = RingSpec("modular", modulus=p)
    basis = build_basis(system)
    roots = all_roots(system)
    rng = random.Random(f"bruhat {system}/{p}")
    cells = set()
    for _ in range(24):
        word = GroupWord(system)
        for _ in range(rng.randint(1, 10)):
            word = word * GroupWord.x(system, rng.choice(roots),
                                      spec.const(rng.randrange(1, p)))
        M = evaluate_word(word, basis, default_realization(system), spec=spec)
        fact = decomp.bruhat_bruteforce(M, system, p)
        expect = _bruhat_oracle(M, system, p)
        assert fact.weyl_word == expect.weyl_word
        assert fact.word().format_text() == expect.word().format_text()
        cells.add(fact.weyl_word)
    # the targets reach the big cell, where the search runs longest
    longest = decomp._bruhat_context(system, p).weyl_reps[-1][0]
    assert len(cells) >= 2 and longest in cells


def test_bruhat_stacks_stay_under_the_cap(monkeypatch):
    # with the cap at two torus elements' worth of U, the search of each
    # Weyl element runs in stacks of at most 2 |U| candidates and still
    # finds the exhaustive search's factorization
    system, p = "A2", 3
    spec = RingSpec("modular", modulus=p)
    basis = build_basis(system)
    ctx = decomp._bruhat_context(system, p)
    cap = 2 * len(ctx.u_words)
    assert len(ctx.torus_words) > 2
    sizes = []
    keys = decomp.element_keys

    def recording(mats, realization, q):
        sizes.append(len(mats))
        return keys(mats, realization, q)

    monkeypatch.setattr(decomp, "BRUHAT_CAP", cap)
    monkeypatch.setattr(decomp, "element_keys", recording)
    rng = random.Random("bruhat stacks")
    roots = all_roots(system)
    cells = set()
    for _ in range(12):
        word = GroupWord(system, [
            ("x", rng.choice(roots), spec.const(rng.randrange(1, p)))
            for _ in range(rng.randint(1, 10))])
        M = evaluate_word(word, basis, ctx.realization, spec=spec)
        fact = decomp.bruhat_bruteforce(M, system, p)
        expect = _bruhat_oracle(M, system, p)
        assert fact.weyl_word == expect.weyl_word
        assert fact.word().format_text() == expect.word().format_text()
        cells.add(fact.weyl_word)
    assert max(sizes) == cap
    assert ctx.weyl_reps[-1][0] in cells


BRUHAT_GOLDEN = [
    ("A2", 3, "x(a1,2) x(-a1,1) x(-a2,2) x(a1+a2,1) x(-a1,1)",
     "h(a1+a2, 2) x(a2, 2) x(a1+a2, 1) w(a1, 1) w(a2, 1) w(a1, 1) x(a1, 1)"
     " x(a1+a2, 2)"),
    ("B2", 2, "x(-a,1) x(-b,1) x(a+b,1) x(-a,1) x(-b,1)",
     "x(a, 1) x(a+b, 1) w(a, 1) w(b, 1) w(a, 1) w(b, 1) x(a, 1) x(b, 1)"
     " x(a+2b, 1)"),
]


def test_bruhat_search_multiplies_no_adjoint_matrix(monkeypatch):
    # with the contexts built, the search and the cells run on integer
    # arrays only
    from chevlab import chevgroup
    targets = []
    for system, p, text, expect in BRUHAT_GOLDEN:
        spec = RingSpec("modular", modulus=p)
        M = evaluate_word(parse_word(text, system, spec), build_basis(system),
                          default_realization(system), spec=spec)
        decomp._bruhat_context(system, p)
        targets.append((M, system, p, expect))

    def refuse(*args):
        raise AssertionError("AdjointMatrix product")

    monkeypatch.setattr(chevgroup.AdjointMatrix, "__mul__", refuse)
    for M, system, p, expect in targets:
        fact = decomp.bruhat_bruteforce(M, system, p)
        assert fact.word().format_text() == expect
    cells, table = decomp.bruhat_cells("B2", 2)
    assert len(cells) == len(table) == 720
    assert all(len(ws) == 1 for ws in cells.values())


def test_bruhat_rejects_a_matrix_of_another_realization_or_ring():
    basis = build_basis("A1")
    f3, f5 = RingSpec("modular", modulus=3), RingSpec("modular", modulus=5)
    # the A1 adjoint matrix is 3x3 like the a1std one
    adjoint = root_element(basis, basis.root("a"), f3.one(), "adjoint")
    with pytest.raises(RealizationError):
        decomp.bruhat_bruteforce(adjoint, "A1", 3)
    mod5 = root_element(basis, basis.root("a"), f5.one(), "a1std")
    with pytest.raises(RealizationError):
        decomp.bruhat_bruteforce(mod5, "A1", 3)


def test_bruhat_of_a_word_is_the_bruhat_of_its_matrix():
    for system, p, text, expect in BRUHAT_GOLDEN:
        word = parse_word(text, system, RingSpec("modular", modulus=p))
        fact = decomp.bruhat_bruteforce(word, system, p)
        assert fact.word().format_text() == expect
    # a word over another ring or of another system is refused
    f9 = RingSpec("modular", modulus=9)
    with pytest.raises(RingError, match="different rings"):
        decomp.bruhat_bruteforce(parse_word("x(a1,1)", "A2", f9), "A2", 3)
    f3 = RingSpec("modular", modulus=3)
    with pytest.raises(RealizationError, match="B2 basis"):
        decomp.bruhat_bruteforce(parse_word("x(a,1)", "B2", f3), "A2", 3)


@st.composite
def field_words(draw):
    """A small field and a word over it: x letters with any parameter, h
    and w letters with unit parameters, and on A2 also t letters."""
    system, p = draw(st.sampled_from([("A1", 5), ("A2", 3), ("B2", 2),
                                      ("G2", 2)]))
    spec = RingSpec("modular", modulus=p)
    letters = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from("xxhwt" if system == "A2" else "xxhw"))
        what = (draw(st.integers(0, 1)) if kind == "t"
                else draw(st.sampled_from(all_roots(system))))
        c = draw(st.integers(0 if kind == "x" else 1, p - 1))
        letters.append((kind, what, spec.const(c)))
    return system, p, GroupWord(system, letters)


@settings(max_examples=60, deadline=None)
@given(field_words())
def test_context_array_is_the_evaluated_word(case):
    system, p, word = case
    ctx = decomp._bruhat_context(system, p)
    M = evaluate_word(word, build_basis(system), ctx.realization,
                      spec=RingSpec("modular", modulus=p))
    assert (ctx.array(word)
            == shacheck.matrix_array(M, ctx.realization, p)).all()


@pytest.mark.parametrize("system,p", [("A1", 3), ("A1", 5), ("A2", 2),
                                      ("B2", 2)])
def test_bruhat_cells_partition(system, p):
    cells, table = decomp.bruhat_cells(system, p)
    assert len(cells) == len(table)
    assert all(len(ws) == 1 for ws in cells.values())
