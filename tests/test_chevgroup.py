import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import example, given, settings, strategies as st

import chevlab
from chevlab import chevgroup
from chevlab.chevgroup import (AdjointMatrix, ChevalleyBasis, GroupWord,
                               build_basis, commutator_relation, diag_torus,
                               evaluate_word, format_root, identity_matrix,
                               matrix_from_entries, parse_root, parse_word,
                               pgl3_equal, root_element, torus_element,
                               trace_poly, unipotent_coordinates,
                               weyl_element, RealizationError,
                               _structure_constants)
from chevlab.exactring import (NotAUnit, ParseError, RewriteRule,
                               RingElement, RingError, RingSpec, invert,
                               map_to_modular, parse_expr)
from chevlab.rootsys import (Root, SystemType, all_roots, positive_roots,
                             reflect, root_string, _norm2)

SYSTEMS = ("A1", "A2", "B2", "G2")


def test_basis_dimensions():
    for tag, dim in [("A1", 3), ("A2", 8), ("B2", 10), ("G2", 14)]:
        assert build_basis(tag).dim == dim


def _check_structure_constants(tag, N):
    """N satisfies the identities that pin a Chevalley basis's structure
    constants up to the signs on the extraspecial pairs (Carter, Simple
    Groups of Lie Type, section 4.1): antisymmetry, the opposite rule,
    |N_{g,d}| = p+1, the triple identity on every root triple summing to 0
    and the four-root identity on every quadruple summing to 0 with no two
    opposite roots."""
    system = SystemType(tag)
    roots = [r.coords for r in all_roots(tag)]

    def plus(*xs):
        return tuple(map(sum, zip(*xs)))

    def neg(x):
        return tuple(-v for v in x)

    def norm2(x):
        return _norm2(x, system)

    assert set(N) == {(g, d) for g in roots for d in roots
                      if plus(g, d) in roots}
    for (g, d), val in N.items():
        assert N[(d, g)] == -val
        assert N[(neg(g), neg(d))] == -val
        p, _ = root_string(Root(system, g), Root(system, d))
        assert abs(val) == p + 1
    for (g, d), val in N.items():
        e = neg(plus(g, d))
        assert (Fraction(val, norm2(e)) == Fraction(N[(d, e)], norm2(g))
                == Fraction(N[(e, g)], norm2(d))), (tag, g, d)
    for a, b, c in itertools.product(roots, repeat=3):
        d = neg(plus(a, b, c))
        quad = (a, b, c, d)
        if d not in roots or any(x == neg(y) for x, y
                                 in itertools.combinations(quad, 2)):
            continue
        assert sum(Fraction(N[(x, y)] * N[(z, w)], norm2(plus(x, y)))
                   for x, y, z, w in ((a, b, c, d), (b, c, a, d),
                                      (c, a, b, d))
                   if plus(x, y) in roots) == 0, (tag, quad)


def test_structure_constants():
    # N is +-(p+1) on every extraspecial pair (x, y): x is the earliest
    # positive root of a pair of positive roots summing to x + y.  Those
    # values, pinned by CALIBRATED, and the identities determine N.
    for tag in SYSTEMS:
        N = build_basis(tag).N
        _check_structure_constants(tag, N)
        assert _structure_constants(SystemType(tag)) == N
        extraspecial = {}
        for x, y in itertools.combinations(
                [r.coords for r in positive_roots(tag)], 2):
            if (x, y) in N:
                extraspecial.setdefault(tuple(map(sum, zip(x, y))), (x, y))
        for x, y in extraspecial.values():
            p, _ = root_string(Root(tag, x), Root(tag, y))
            pinned = CALIBRATED[tag].get((x, y)) or -CALIBRATED[tag][(y, x)]
            assert N[(x, y)] == pinned and abs(pinned) == p + 1, (tag, x, y)


def test_b2_structure_constant_pattern():
    basis = build_basis("B2")
    a, b, ab = (basis.root(n) for n in ("a", "b", "a+b"))
    assert abs(basis.N[(a.coords, b.coords)]) == 1
    assert abs(basis.N[(ab.coords, b.coords)]) == 2


DISPLAYED = {
    "A2": {("a1", "a2"): {(1, 1): 1},
           ("a1", "-a1-a2"): {(1, 1): -1},
           ("a2", "-a1-a2"): {(1, 1): 1},
           ("a1+a2", "-a1"): {(1, 1): -1},
           ("a1+a2", "-a2"): {(1, 1): 1}},
    "B2": {("a", "b"): {(1, 1): -1, (1, 2): -1},
           ("a+b", "b"): {(1, 1): -2}},
    "G2": {("a", "b"): {(1, 1): 1, (1, 2): -1, (1, 3): -1, (2, 3): 1},
           ("a+b", "b"): {(1, 1): 2, (1, 2): 3, (2, 1): 3},
           ("a", "a+3b"): {(1, 1): 1},
           ("a+2b", "b"): {(1, 1): -3},
           ("a+b", "a+2b"): {(1, 1): 3}},
}


def test_displayed_relations():
    for tag, table in DISPLAYED.items():
        basis = build_basis(tag)
        for (g, d), want in table.items():
            rel = commutator_relation(basis, g, d)
            assert rel.constants() == want, (tag, g, d)


def test_trivial_commutator():
    basis = build_basis("B2")
    rel = commutator_relation(basis, "a", "a+2b")
    assert rel.is_trivial()
    with pytest.raises(ValueError):
        commutator_relation(basis, "a", "a")


def test_root_sum_iff_nontrivial_commutator():
    # the sum of two roots is a root exactly when the commutator table has
    # a nontrivial entry for the pair
    from chevlab.rootsys import is_root
    for tag in SYSTEMS:
        basis = build_basis(tag)
        for g in all_roots(tag):
            for d in all_roots(tag):
                if g == d or g == -d:
                    continue
                rel = commutator_relation(basis, g, d)
                s = tuple(x + y for x, y in zip(g.coords, d.coords))
                assert is_root(s, tag) == ((1, 1) in rel.constants())


def test_additivity_all_roots():
    spec = RingSpec("poly", ("t", "s"))
    t, s = spec.var("t"), spec.var("s")
    for tag in SYSTEMS:
        basis = build_basis(tag)
        for g in all_roots(tag):
            lhs = root_element(basis, g, t) * root_element(basis, g, s)
            assert (lhs - root_element(basis, g, t + s)).is_zero()


def test_root_element_at_zero():
    spec = RingSpec("poly", ())
    for tag in SYSTEMS:
        basis = build_basis(tag)
        for g in all_roots(tag):
            assert root_element(basis, g, spec.zero()).is_identity()


def test_torus_weights_all_pairs():
    fr = RingSpec("fraction", ("u", "t"))
    u, t = fr.var("u"), fr.var("t")
    from chevlab.rootsys import cartan_integer
    for tag in SYSTEMS:
        basis = build_basis(tag)
        for g in all_roots(tag):
            h = torus_element(basis, g, u)
            h_inv = torus_element(basis, g, invert(u))
            for d in all_roots(tag):
                n = cartan_integer(d, g)
                scaled = (u ** n if n >= 0 else invert(u) ** (-n)) * t
                lhs = h * root_element(basis, d, t) * h_inv
                assert (lhs - root_element(basis, d, scaled)).is_zero()


def test_weyl_action_all_pairs():
    fr = RingSpec("fraction", ("t",))
    t = fr.var("t")
    one = fr.one()
    for tag in SYSTEMS:
        basis = build_basis(tag)
        for g in all_roots(tag):
            w = weyl_element(basis, g, one)
            w_inv = weyl_element(basis, g, -one)
            for d in all_roots(tag):
                target = reflect(d, g)
                lhs = w * root_element(basis, d, t) * w_inv
                plus = root_element(basis, target, t)
                minus = root_element(basis, target, -t)
                assert (lhs - plus).is_zero() or (lhs - minus).is_zero()


def test_h_is_weyl_quotient():
    # h_g(u) = w_g(u) w_g(1)^{-1}
    fr = RingSpec("fraction", ("u",))
    u = fr.var("u")
    one = fr.one()
    for tag in SYSTEMS:
        basis = build_basis(tag)
        for g in positive_roots(tag):
            lhs = weyl_element(basis, g, u) * weyl_element(basis, g, -one)
            assert (lhs - torus_element(basis, g, u)).is_zero()


def test_torus_of_one_is_identity():
    spec = RingSpec("poly", ())
    for tag in SYSTEMS:
        basis = build_basis(tag)
        for g in all_roots(tag):
            assert torus_element(basis, g, spec.one()).is_identity()


_IDENTITY_CASES = {
    # ring: (entries that equal 1, entries that do not)
    "poly": (RingSpec("poly", ("x",)), ["1", "x + 1 - x"],
             ["0", "2", "-1", "x", "1 + x"]),
    "quotient": (RingSpec("quotient", ("u",), [RewriteRule((2,), {})]),
                 ["1", "1 + u^2"], ["0", "2", "u", "1 + u"]),
    "fraction": (RingSpec("fraction", ("x",)), ["1", "x/x", "(2*x + 2)/(x + 1)/2"],
                 ["0", "2", "x", "(x + 1)/x", "2*x/x"]),
    "mod6": (RingSpec("modular", modulus=6), ["1", "7", "-5"],
             ["0", "2", "5", "-1", "3"]),
}


@pytest.mark.parametrize("ring", sorted(_IDENTITY_CASES))
def test_is_identity_sees_one_changed_entry(ring, monkeypatch):
    spec, ones, others = _IDENTITY_CASES[ring]
    dim = 3
    made = []
    init = RingElement.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RingElement, "__init__", counting_init)
    M = identity_matrix(spec, 14, "adjoint")
    made.clear()
    assert M.is_identity() and not made     # no ring arithmetic
    for text in ones:
        assert parse_expr(text, spec).is_one(), text
    for text in others:
        assert not parse_expr(text, spec).is_one(), text
    assert identity_matrix(spec, dim, "adjoint").is_identity()
    for i in range(dim):
        for j in range(dim):
            # off the diagonal, any nonzero entry; on it, anything but 1
            if i == j:
                values = ones + others
            else:
                values = ["0"] + ones + [t for t in others if t != "0"]
            for text in values:
                M = identity_matrix(spec, dim, "adjoint")
                M.rows[i][j] = parse_expr(text, spec)
                expected = text in ones if i == j else text == "0"
                assert M.is_identity() == expected, (i, j, text)
                # the same answer through ring equality
                assert expected == all(
                    a == (1 if r == c else 0)
                    for r, row in enumerate(M.rows) for c, a in enumerate(row))


def test_zero_ring_element_is_one():
    spec = RingSpec("quotient", ("u",), [RewriteRule((0,), {})])
    assert parse_expr("u + 3", spec).is_one()
    assert identity_matrix(spec, 2, "adjoint").is_identity()


def test_a1_adjoint_h_minus_one():
    # rank-one adjoint pairings are even, so h_a(-1) acts trivially
    basis = build_basis("A1")
    spec = RingSpec("poly", ())
    assert torus_element(basis, basis.root("a"), spec.const(-1)).is_identity()


def test_a1std_matrices_and_trace():
    basis = build_basis("A1")
    spec = RingSpec("poly", ("t",))
    t = spec.var("t")
    x = root_element(basis, basis.root("a"), t, "a1std")
    want = matrix_from_entries(spec, [["1", "t^2", "2*t"], ["0", "1", "0"],
                                      ["0", "t", "1"]], "a1std")
    assert (x - want).is_zero()
    y = root_element(basis, basis.root("-a"), t, "a1std")
    wanty = matrix_from_entries(spec, [["1", "0", "0"], ["t^2", "1", "2*t"],
                                       ["t", "0", "1"]], "a1std")
    assert (y - wanty).is_zero()
    # the a1std torus has the diag(t, 1/t, 1) shape used in the Gauss form
    fr = RingSpec("fraction", ("u",))
    u = fr.var("u")
    h = torus_element(basis, basis.root("a"), u, "a1std")
    assert h.entry(0, 0) == u * u and h.entry(2, 2).is_one()
    d = diag_torus(basis, 0, u, "a1std")
    assert d.entry(0, 0) == u and (d.entry(1, 1) * u).is_one()


def test_trace_polys():
    spec = RingSpec("poly", ("t", "s"))
    t, s = spec.var("t"), spec.var("s")
    assert trace_poly(build_basis("A1"), "a") == s * s * t * t + 4 * s * t + 3
    assert trace_poly(build_basis("A2"), "a1+a2") == \
        s * s * t * t + 6 * s * t + 8
    assert trace_poly(build_basis("B2"), "a") == s * s * t * t + 6 * s * t + 10
    g2 = trace_poly(build_basis("G2"), "a")
    assert g2 == s * s * t * t + 8 * s * t + 14
    # trace at s = 0 is the representation dimension, for every long root
    from chevlab.exactring import substitute
    for tag in SYSTEMS:
        basis = build_basis(tag)
        for g in positive_roots(tag):
            if g.length_class != "long":
                continue
            tp = trace_poly(basis, g)
            assert substitute(tp, {"t": 0, "s": 0}) == spec.const(basis.dim)


def test_pgl3_realization():
    basis = build_basis("A2")
    spec = RingSpec("poly", ())
    one = spec.one()
    w = weyl_element(basis, basis.root("a1+a2"), one, "pgl3")
    want = matrix_from_entries(spec, [[0, 0, 1], [0, 1, 0], [-1, 0, 0]],
                               "pgl3")
    assert (w - want).is_zero()
    h1 = torus_element(basis, basis.root("a1"), spec.const(2), "pgl3")
    assert [h1.entry(i, i).constant_value() for i in range(3)] == \
        [2, Fraction(1, 2), 1]
    with pytest.raises(RealizationError):
        root_element(build_basis("B2"), build_basis("B2").root("a"), one,
                     "pgl3")


def test_word_evaluation_examples():
    basis = build_basis("A1")
    spec = RingSpec("poly", ())
    empty = GroupWord("A1")
    assert evaluate_word(empty, basis, "a1std", spec=spec).is_identity()
    quad = parse_word("(x(a,-1) x(-a,1) x(a,-1))^2", "A1", spec)
    assert evaluate_word(quad, basis, "a1std", spec=spec).is_identity()


def test_f7_word_example():
    spec = RingSpec("modular", modulus=7)
    basis = build_basis("A2")
    word = parse_word(
        "x(a1,1) x(-a1,2) x(a2,3) x(-a2,-5) x(a2,3)"
        " (x(a2,1) x(-a2,-1) x(a2,1))^-1", "A2", spec)
    got = evaluate_word(word, basis, "pgl3", spec=spec)
    want = matrix_from_entries(spec, [[3, 3, 0], [2, 3, 0], [0, 0, 5]], "pgl3")
    assert pgl3_equal(got, want)
    htilde = parse_word(
        "x(a2,3) x(-a2,-5) x(a2,3) (x(a2,1) x(-a2,-1) x(a2,1))^-1",
        "A2", spec)
    h = parse_word("h(a2,3)", "A2", spec)
    assert pgl3_equal(evaluate_word(htilde, basis, "pgl3", spec=spec),
                      evaluate_word(h, basis, "pgl3", spec=spec))


def test_pgl3_equal():
    spec = RingSpec("modular", modulus=7)
    basis = build_basis("A2")
    m = root_element(basis, basis.root("a1"), spec.one(), "pgl3")
    assert pgl3_equal(m, m.scale(spec.const(2)))
    ident = identity_matrix(spec, 3, "pgl3")
    assert not pgl3_equal(ident, m)
    with pytest.raises(RingError):
        pgl3_equal(
            root_element(basis, basis.root("a1"),
                         RingSpec("poly", ("t",)).var("t"), "pgl3"),
            root_element(basis, basis.root("a1"),
                         RingSpec("poly", ("t",)).var("t"), "pgl3"))


def test_w_squared():
    fr = RingSpec("fraction", ("u",))
    u = fr.var("u")
    basis = build_basis("A2")
    for i in (1, 2):
        g = basis.root(f"a{i}")
        w = weyl_element(basis, g, u, "pgl3")
        h = torus_element(basis, g, fr.const(-1), "pgl3")
        assert (w * w - h).is_zero()


def test_word_grammar():
    spec = RingSpec("poly", ("t",))
    w = parse_word("x(a+3b, t^2) h(a, -1) w(b, 1) t1(1) t2(1)", "G2", spec)
    assert len(w.letters) == 5
    assert w.letters[0][1].coords == (1, 3)
    again = parse_word(w.format_text(), "G2", spec)
    assert again.format_text() == w.format_text()
    assert parse_root("[1,2]", "B2").coords == (1, 2)
    assert parse_root("-2a-3b", "G2").coords == (-2, -3)
    assert parse_root("-a1-a2", "A2").coords == (-1, -1)
    with pytest.raises(ValueError):
        parse_word("x(a,1", "A1", spec)
    with pytest.raises(ValueError):
        parse_word("y(a,1)", "A1", spec)
    with pytest.raises(ValueError):
        parse_word("t2(1)", "A1", spec)


@pytest.mark.parametrize("text,system", [
    ("a1 + a 2", "A2"),     # whitespace splits the symbol a2
    ("a b", "B2"),
    ("a+", "B2"),           # a trailing sign
    ("a -", "G2"),
    ("a-+b", "B2"),         # a doubled sign
    ("--a", "G2"),
    ("[0 1,0]", "B2"),      # whitespace splits the number 01
    ("[0_1,0]", "B2"),
    ("", "A1"),
    ("[1,0", "B2"),
])
def test_malformed_roots_are_rejected(text, system):
    with pytest.raises(ValueError):
        parse_root(text, system)
    with pytest.raises(ValueError):
        parse_word(f"x({text}, 1)", system, RingSpec("poly", ("t",)))


def test_non_decimal_digits_are_parse_errors():
    # '²' is a digit to str.isdigit but not to int(); '٣' is a decimal
    # digit that int() reads as 3
    spec = RingSpec("poly", ("t",))
    with pytest.raises(ParseError):
        parse_word("x(a, ²)", "A1", spec)
    with pytest.raises(ParseError):
        parse_root("[0,²]", "B2")
    with pytest.raises(ParseError):
        parse_root("²a+b", "B2")
    assert parse_root("[1,٣]", "G2").coords == (1, 3)
    assert parse_root("a+٣b", "G2").coords == (1, 3)
    assert parse_word("x(a, ٣)", "A1", spec).format_text() == "x(alpha, 3)"


def test_whitespace_separates_root_tokens():
    assert parse_root("2 a+3 b", "G2").coords == (2, 3)
    assert parse_root(" - 2 a - 3 b ", "G2").coords == (-2, -3)
    assert parse_root("a1 + a2", "A2").coords == (1, 1)
    assert parse_root("[ -1 , -2 ]", "B2").coords == (-1, -2)
    assert parse_root("[+1,2]", "B2").coords == (1, 2)
    word = parse_word("x( -a - 2 b , t ) ^ - 2", "B2", RingSpec("poly", ("t",)))
    assert word.format_text() == "x(-a-2b, -t) x(-a-2b, -t)"


def test_every_root_round_trips():
    for tag in SYSTEMS:
        for root in all_roots(tag):
            assert parse_root(format_root(root), tag) == root
            coords = ",".join(map(str, root.coords))
            assert parse_root(f"[{coords}]", tag) == root


ROUND_TRIP_RINGS = (RingSpec("poly", ("t", "u")),
                    RingSpec("fraction", ("t", "u")),
                    RingSpec("modular", modulus=7))


@st.composite
def ring_elements(draw, spec):
    """An element of Z/7, a polynomial in t and u with rational
    coefficients, or a quotient of two such polynomials."""
    if spec.kind == "modular":
        return spec.const(draw(st.integers(0, 6)))

    def polynomial():
        out = spec.zero()
        for _ in range(draw(st.integers(0, 3))):
            c = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
            out = out + (spec.const(c) * spec.var("t") ** draw(st.integers(0, 3))
                         * spec.var("u") ** draw(st.integers(0, 2)))
        return out

    num = polynomial()
    if spec.kind == "fraction":
        den = polynomial()
        if not den.is_zero():
            return num / den
    return num


@st.composite
def round_trip_words(draw):
    tag = draw(st.sampled_from(SYSTEMS))
    spec = draw(st.sampled_from(ROUND_TRIP_RINGS))
    letters = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from("xhwt"))
        what = (draw(st.integers(0, SystemType(tag).rank - 1)) if kind == "t"
                else draw(st.sampled_from(all_roots(tag))))
        letters.append((kind, what, draw(ring_elements(spec))))
    return spec, GroupWord(tag, letters)


@settings(max_examples=150, deadline=None)
@given(round_trip_words())
def test_format_text_round_trips(case):
    # the text a word prints parses back to the same letters: the same
    # kind, the same root or torus coordinate and an equal parameter
    spec, word = case
    again = parse_word(word.format_text(), word.system, spec)
    assert len(again.letters) == len(word.letters)
    for (kind, what, p), (kind2, what2, p2) in zip(word.letters,
                                                   again.letters):
        assert (kind2, what2) == (kind, what) and p2 == p


def test_word_inverse_and_power():
    spec = RingSpec("modular", modulus=11)
    basis = build_basis("B2")
    word = parse_word("x(a,3) w(b,2) h(a+b,4) x(a+2b,9) t1(5)", "B2", spec)
    m = evaluate_word(word, basis, "adjoint", spec=spec)
    minv = evaluate_word(word.inverse(), basis, "adjoint", spec=spec)
    assert (m * minv).is_identity()
    sq = evaluate_word(word ** 2, basis, "adjoint", spec=spec)
    assert (sq - m * m).is_zero()


def _det_mod_p(m, p):
    n = m.dim
    a = [[e.residue % p for e in row] for row in m.rows]
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det % p


def test_random_word_determinants_are_units():
    rng = random.Random(3)
    for p in (5, 7, 11):
        spec = RingSpec("modular", modulus=p)
        for tag in SYSTEMS:
            basis = build_basis(tag)
            roots = all_roots(tag)
            for _ in range(10):
                word = GroupWord(tag)
                for _ in range(rng.randint(1, 6)):
                    word = word * GroupWord.x(
                        tag, rng.choice(roots), spec.const(rng.randrange(p)))
                m = evaluate_word(word, basis, "adjoint", spec=spec)
                assert _det_mod_p(m, p) != 0


def test_unipotent_coordinates_round_trip():
    spec = RingSpec("poly", ("t", "s", "r"))
    basis = build_basis("G2")
    pos = positive_roots("G2")
    word = (root_element(basis, pos[1], spec.var("t"))
            * root_element(basis, pos[3], spec.var("s"))
            * root_element(basis, pos[5], spec.var("r")))
    coords = unipotent_coordinates(word, basis, pos)
    values = {root.coords: p for root, p in coords}
    assert values[(0, 1)] == spec.var("t")
    assert values[(1, 0)].is_zero()
    with pytest.raises(ValueError):
        unipotent_coordinates(
            root_element(basis, -pos[0], spec.var("t")), basis, pos)


QTU = RingSpec("poly", ("t", "u"))


@st.composite
def level_ordered_coordinates(draw):
    """A system and an integer or polynomial coordinate on each positive
    root, in increasing height (canonical order within a height), the
    level order of the functional unipotent_coordinates picks for the
    positive roots."""
    tag = draw(st.sampled_from(SYSTEMS))
    roots = sorted(positive_roots(tag), key=lambda r: sum(r.coords))
    coordinate = st.one_of(st.integers(-4, 4).map(QTU.const),
                           ring_elements(QTU))
    return tag, [(r, draw(coordinate)) for r in roots]


@settings(max_examples=40, deadline=None)
@given(level_ordered_coordinates())
def test_unipotent_coordinates_read_back_the_word(case):
    tag, coords = case
    basis = build_basis(tag)
    word = GroupWord(tag, [("x", r, p) for r, p in coords])
    m = evaluate_word(word, basis)
    got = unipotent_coordinates(m, basis, [r for r, _ in coords])
    assert [r for r, _ in got] == [r for r, _ in coords]
    assert all(p == q for (_, p), (_, q) in zip(got, coords))


@pytest.mark.parametrize("tag", SYSTEMS)
def test_unipotent_coordinates_rejections(tag):
    basis = build_basis(tag)
    pos = positive_roots(tag)
    t = QTU.var("t")
    word = GroupWord(tag, [("x", r, t) for r in pos])
    for r in pos:
        # one negative-root letter among the positive ones
        mixed = word * GroupWord.x(tag, -r, QTU.one())
        with pytest.raises(ValueError):
            unipotent_coordinates(evaluate_word(mixed, basis), basis, pos)
    with pytest.raises(ValueError, match="pointed cone"):
        unipotent_coordinates(evaluate_word(word, basis), basis,
                              [pos[0], -pos[0]])
    assert unipotent_coordinates(
        identity_matrix(QTU, basis.dim, "adjoint"), basis, []) == []
    with pytest.raises(ValueError):
        unipotent_coordinates(root_element(basis, pos[0], t), basis, [])


@pytest.mark.parametrize("tag", SYSTEMS)
@pytest.mark.parametrize("p", [2, 3])
def test_unipotent_coordinates_over_small_residue_rings(tag, p):
    # every coordinate is read off an entry whose coefficient is +-1, so
    # no pairing is inverted: 2 and 3 need not be units
    spec = RingSpec("modular", modulus=p)
    basis = build_basis(tag)
    roots = sorted(positive_roots(tag), key=lambda r: sum(r.coords))
    m = evaluate_word(GroupWord(tag, [("x", r, spec.one()) for r in roots]),
                      basis, spec=spec)
    got = unipotent_coordinates(m, basis, roots)
    assert [r for r, _ in got] == roots
    assert all(c.is_one() for _, c in got)


# N on pairs of positive roots (g before d), as the displayed relations
# pin it
CALIBRATED = {
    "A1": {},
    "A2": {((0, 1), (1, 0)): -1},
    "B2": {((0, 1), (1, 0)): 1, ((0, 1), (1, 1)): 2},
    "G2": {((1, 0), (1, 3)): 1, ((0, 1), (1, 0)): -1, ((0, 1), (1, 1)): -2,
           ((0, 1), (1, 2)): 3, ((1, 1), (1, 2)): 3},
}


@pytest.mark.parametrize("tag", SYSTEMS)
def test_calibration_is_pinned(tag):
    # these values fix the extraspecial signs, and with them and the
    # identities of _check_structure_constants every other N
    basis = build_basis(tag)
    pos = {r.coords for r in basis.pos}
    assert {(g, d): n for (g, d), n in basis.N.items()
            if g in pos and d in pos and g < d} == CALIBRATED[tag]


# every extraspecial sign vector but the recorded one, per system: 1 for
# A2, 3 for B2 and 15 for G2
WRONG_SIGNS = [
    (tag, dict(zip(table, signs)))
    for tag, table in chevgroup._EXTRASPECIAL_SIGNS.items()
    for signs in itertools.product((1, -1), repeat=len(table))
    if list(signs) != list(table.values())]


def test_every_wrong_sign_vector_is_listed():
    assert len(WRONG_SIGNS) == 19
    assert {tag: sorted(table) for tag, table
            in chevgroup._EXTRASPECIAL_SIGNS.items()} == {
        tag: sorted(r.coords for r in positive_roots(tag)
                    if sum(r.coords) > 1) for tag in SYSTEMS}


@pytest.mark.parametrize("tag,signs", WRONG_SIGNS)
def test_wrong_extraspecial_signs_fail_the_displayed_relations(
        monkeypatch, tag, signs):
    # each sign vector gives a valid Chevalley basis (the magnitude and
    # Jacobi checks pass) in another normalization, so only the displayed
    # relations can reject it
    monkeypatch.setitem(chevgroup._EXTRASPECIAL_SIGNS, tag, signs)
    with pytest.raises(RuntimeError, match="not the displayed"):
        ChevalleyBasis(tag)


def test_torus_letters():
    # t_i(u) rescales x_delta(s) by u^(alpha_i-coefficient of delta)
    fr = RingSpec("fraction", ("u", "s"))
    u, s = fr.var("u"), fr.var("s")
    basis = build_basis("G2")
    t1 = diag_torus(basis, 0, u)
    t1i = diag_torus(basis, 0, invert(u))
    for d in all_roots("G2"):
        n = d.coords[0]
        scaled = (u ** n if n >= 0 else invert(u) ** (-n)) * s
        lhs = t1 * root_element(basis, d, s) * t1i
        assert (lhs - root_element(basis, d, scaled)).is_zero()


def test_pgl3_torus_letters():
    # over F_5: t_i(u) x_delta(1) t_i(u)^-1 = x_delta(u^c_i(delta)) and
    # h_{-g}(u) = h_g(u^-1), projectively
    f5 = RingSpec("modular", modulus=5)
    basis = build_basis("A2")
    one = f5.one()
    for u in (f5.const(2), f5.const(3), f5.const(4)):
        for i in (0, 1):
            t = diag_torus(basis, i, u, "pgl3")
            t_inv = diag_torus(basis, i, invert(u), "pgl3")
            for d in all_roots("A2"):
                n = d.coords[i]
                scaled = u ** n if n >= 0 else invert(u) ** (-n)
                lhs = t * root_element(basis, d, one, "pgl3") * t_inv
                assert pgl3_equal(lhs,
                                  root_element(basis, d, scaled, "pgl3"))
        for g in all_roots("A2"):
            assert pgl3_equal(torus_element(basis, -g, u, "pgl3"),
                              torus_element(basis, g, invert(u), "pgl3"))


def test_not_a_unit_paths():
    spec = RingSpec("poly", ("t",))
    basis = build_basis("A1")
    with pytest.raises(NotAUnit):
        torus_element(basis, basis.root("a"), spec.var("t"))
    with pytest.raises(NotAUnit):
        weyl_element(basis, basis.root("a"), spec.zero())


MISMATCHED_PRODUCTS = """
from chevlab.chevgroup import (GroupWord, RealizationError, build_basis,
                               evaluate_word, identity_matrix, root_element)
from chevlab.exactring import RingError, RingSpec

qt = RingSpec("poly", ("t",))
t = qt.var("t")
s = RingSpec("poly", ("s",)).var("s")
pgl3 = root_element(build_basis("A2"), "a1", t, "pgl3")
a1std = root_element(build_basis("A1"), "a", t, "a1std")
pgl3_s = root_element(build_basis("A2"), "a1", s, "pgl3")
a1 = root_element(build_basis("A1"), "a", t)
a2 = root_element(build_basis("A2"), "a1", t)
word = GroupWord.x("A1", "a", t)
cases = [
    (lambda: pgl3 * a1std, RealizationError),
    (lambda: pgl3 * pgl3_s, RingError),
    (lambda: word * GroupWord.x("A2", "a1", t), RealizationError),
    (lambda: evaluate_word(word, build_basis("A2"), "a1std"),
     RealizationError),
    # the same realization name at two sizes, and two models of one size
    (lambda: a1 * a2, RealizationError),
    (lambda: a1 - a2, RealizationError),
    (lambda: a2 - a1, RealizationError),
    (lambda: a1std - a1, RealizationError),
]
for case, error in cases:
    try:
        case()
        print("returned")
    except error:
        print("raised")
print(identity_matrix(qt, 3, "adjoint") == identity_matrix(qt, 8, "adjoint"),
      a1 == a2, a1std == a1, a1 == root_element(build_basis("A1"), "a", t))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_mismatched_products_raise(flags):
    # the checks are explicit, so python -O keeps them
    src = os.path.dirname(os.path.dirname(os.path.abspath(chevlab.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", MISMATCHED_PRODUCTS],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 8 + ["False"] * 3 + ["True"]


SKEWED_COMMUTATOR = """
from chevlab import chevgroup

basis = chevgroup.build_basis("A2")
exact = chevgroup.unipotent_coordinates


def skewed(*args):
    # one coordinate gains a stray t, so it is no longer a monomial
    return [(root, p + p.spec.var("t")) for root, p in exact(*args)]


chevgroup.unipotent_coordinates = skewed
try:
    chevgroup.commutator_relation(basis, "a1", "a2")
    print("returned")
except RuntimeError as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_commutator_relation_check_raises(flags):
    # the monomial check behind the relations output survives python -O
    src = os.path.dirname(os.path.dirname(os.path.abspath(chevlab.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SKEWED_COMMUTATOR],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: non-monomial"), proc.stdout


# -- product kernels -----------------------------------------------------

QXY = RingSpec("poly", ("x", "y"))
SX, SY = sympy.symbols("x y")


def _entrywise(a, b):
    """The product of two matrices entry by entry in RingElement arithmetic,
    which normalizes after every ring operation: the reference the product
    kernels are checked against."""
    n = a.dim
    return AdjointMatrix(a.spec, [[sum((a.rows[i][k] * b.rows[k][j]
                                        for k in range(n)), a.spec.zero())
                                   for j in range(n)] for i in range(n)],
                         a.realization)


def _entrywise_letter(basis, realization, kind, what, p):
    """One letter's matrix without the kernels: x_g(p) as the sum of c p^k
    E_ij over the realization entries (i, j, k, c), w_g(p) as the entrywise
    product x_g(p) x_{-g}(-1/p) x_g(p), h and t by their diagonals."""
    if kind == "w":
        x = _entrywise_letter(basis, realization, "x", what, p)
        y = _entrywise_letter(basis, realization, "x", -basis.root(what),
                              -invert(p))
        return _entrywise(_entrywise(x, y), x)
    if kind != "x":
        return LETTERS[kind](basis, what, p, realization)
    rec = basis.realization(realization)
    rows = [[p.spec.zero()] * rec.dim for _ in range(rec.dim)]
    for i, j, k, c in rec.exp_entries[basis.root(what).coords]:
        rows[i][j] = p ** k * c
    return AdjointMatrix(p.spec, rows, realization)


def _entrywise_word(word, basis, realization, spec):
    out = identity_matrix(spec, basis.realization(realization).dim,
                          realization)
    for letter in word.letters:
        out = _entrywise(out, _entrywise_letter(basis, realization, *letter))
    return out


def _terms(m):
    return [[e.terms for e in row] for row in m.rows]


@st.composite
def poly_terms(draw):
    """Zero (more than half the time) or up to three terms of degree at
    most 3 in each variable, with mixed denominators."""
    if draw(st.integers(0, 4)) < 3:
        return {}
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        mono = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        c = Fraction(draw(st.integers(-6, 6)),
                     draw(st.sampled_from((1, 2, 3, 4, 5, 6))))
        if c:
            terms[mono] = c
    return terms


@st.composite
def poly_matrix_pairs(draw):
    """Term dicts of two n x n matrices, n = 3 or 8.  Columns k0 and k1 of
    the first agree and rows k0 and k1 of the second are opposite, so their
    contributions cancel term by term; row i of the first has no other
    entry, so row i of the product is zero."""
    n = draw(st.sampled_from((3, 8)))
    a = [[draw(poly_terms()) for _ in range(n)] for _ in range(n)]
    b = [[draw(poly_terms()) for _ in range(n)] for _ in range(n)]
    k0, k1 = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                           unique=True))
    i = draw(st.integers(0, n - 1))
    a[i] = [{} for _ in range(n)]
    a[i][k0] = draw(poly_terms()) or {(1, 0): Fraction(-3, 2)}
    b[k0][draw(st.integers(0, n - 1))] = {(0, 2): Fraction(5, 6),
                                          (0, 0): Fraction(1)}
    for row in a:
        row[k1] = dict(row[k0])
    b[k1] = [{m: -c for m, c in e.items()} for e in b[k0]]
    return a, b


def _matrix(spec, terms):
    return matrix_from_entries(
        spec, [[RingElement(spec, terms=e) for e in row] for row in terms],
        "adjoint")


def _sympy(terms):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * SX ** m[0] * SY ** m[1] for m, c in terms.items()))


@settings(max_examples=40, deadline=None)
@given(poly_matrix_pairs())
def test_poly_product_matches_sympy(pair):
    a, b = pair
    n = len(a)
    got = _matrix(QXY, a) * _matrix(QXY, b)
    want = sympy.Matrix(n, n, [_sympy(e) for row in a for e in row]) \
        * sympy.Matrix(n, n, [_sympy(e) for row in b for e in row])
    zeros = 0
    for i in range(n):
        for j in range(n):
            entry = got.rows[i][j]
            poly = sympy.Poly(want[i, j], SX, SY, domain="QQ").as_dict()
            assert {m: sympy.Rational(c.numerator, c.denominator)
                    for m, c in entry.terms.items()} == poly
            if not poly:
                assert entry.is_zero()
                zeros += 1
    assert zeros >= n                     # the cancelled row


def test_poly_product_above_the_chain_slot_width():
    # the chain's 8-bit slots hold degrees up to 127; these factors reach
    # degree 150 and their product degree 300, so the kernel must size its
    # slots from the factors
    a = [["x^150", "x^70*y^60", "1"], ["0", "y^100 - 1/2*x", "x^3*y"],
         ["2", "0", "x^127"]]
    b = [["x^150", "y", "0"], ["x^100*y^2", "0", "3/4"],
         ["1", "x^129", "y^130"]]
    got = (matrix_from_entries(QXY, a, "adjoint")
           * matrix_from_entries(QXY, b, "adjoint"))
    want = (sympy.Matrix(3, 3, [sympy.sympify(e.replace("^", "**"))
                                for row in a for e in row])
            * sympy.Matrix(3, 3, [sympy.sympify(e.replace("^", "**"))
                                  for row in b for e in row]))
    assert max(sum(m) for row in got.rows for e in row
               for m in e.terms) == 300
    for i in range(3):
        for j in range(3):
            poly = sympy.Poly(want[i, j], SX, SY, domain="QQ").as_dict()
            assert {m: sympy.Rational(c.numerator, c.denominator)
                    for m, c in got.rows[i][j].terms.items()} == poly


@pytest.mark.parametrize("tag", SYSTEMS)
def test_poly_root_elements_and_words_match_entrywise_reference(tag):
    poly = RingSpec("poly", ("b", "c"))
    t = parse_expr("b - 1/2*c^2 + 3", poly)
    basis = build_basis(tag)
    extra = {"A1": ["a1std"], "A2": ["pgl3"]}.get(tag, [])
    for realization in ["adjoint"] + extra:
        for g in all_roots(tag):
            x = root_element(basis, g, t, realization)
            assert _terms(x) == _terms(_entrywise_letter(basis, realization,
                                                         "x", g, t))
            assert evaluate_word(GroupWord.x(tag, g, t), basis,
                                 realization) == x
        g = all_roots(tag)[0]
        h = GroupWord.h(tag, g, poly.const(2))
        assert evaluate_word(h, basis, realization) == torus_element(
            basis, g, poly.const(2), realization)
        empty = evaluate_word(GroupWord(tag), basis, realization, spec=poly)
        assert empty.is_identity() and empty.spec == poly
        # a word over every root
        word = GroupWord(tag, [("x", g, t * (k + 1))
                               for k, g in enumerate(all_roots(tag))])
        assert _terms(evaluate_word(word, basis, realization)) == _terms(
            _entrywise_word(word, basis, realization, poly))


QST = RingSpec("poly", ("s", "t"))


@st.composite
def poly_words(draw):
    """A word over A1 or A2 in x, h, w and t_i letters with Fraction
    parameters in a poly ring, and the position of one x letter whose
    matrix has degree at least 128: more than the chain's 8-bit slots
    hold."""
    tag, realization = draw(st.sampled_from(
        [("A1", "adjoint"), ("A1", "a1std"), ("A2", "adjoint"),
         ("A2", "pgl3")]))
    roots = all_roots(tag)
    coef = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    unit = coef.filter(bool)
    letters = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from("xxxhwt"))
        if kind == "x":
            param = {(draw(st.integers(0, 64)), draw(st.integers(0, 64))):
                     draw(coef) for _ in range(draw(st.integers(0, 3)))}
            letters.append(("x", draw(st.sampled_from(roots)), param))
        elif kind == "t":
            letters.append(("t", draw(st.integers(0, int(tag[1]) - 1)),
                            {(0, 0): draw(unit)}))
        else:
            letters.append((kind, draw(st.sampled_from(roots)),
                            {(0, 0): draw(unit)}))
    high = draw(st.integers(0, len(letters)))
    letters.insert(high, ("x", draw(st.sampled_from(roots)),
                          {(64, 64): Fraction(1, 3), (2, 0): Fraction(-5, 2)}))
    word = GroupWord(tag, [(kind, what, RingElement(
        QST, terms={m: c for m, c in param.items() if c}))
        for kind, what, param in letters])
    return tag, realization, word, high


@settings(max_examples=40, deadline=None)
@given(poly_words())
def test_packed_word_product_matches_two_factor_fold(case):
    # one packed product for the whole word against the left fold of its
    # one-letter matrices through the two-factor product, and against the
    # entrywise product of its letters
    tag, realization, word, high = case
    basis = build_basis(tag)
    got = evaluate_word(word, basis, realization)
    factors = [evaluate_word(GroupWord(tag, [letter]), basis, realization)
               for letter in word.letters]
    assert max(sum(m) for row in factors[high].rows for e in row
               for m in e.terms) >= 128
    fold = factors[0]
    for m in factors[1:]:
        fold = fold * m
    assert got == fold
    assert _terms(got) == _terms(_entrywise_word(word, basis, realization,
                                                 QST))


def test_packed_word_slots_hold_the_whole_word():
    # six letters of degree 200 each, alternating so no two merge: slots
    # sized to one letter would wrap, so the word must size them to the
    # sum of its letters' degrees
    basis = build_basis("A1")
    s, t = QST.var("s"), QST.var("t")
    word = GroupWord("A1", [("x", basis.root(r), p) for r, p in
                            [("a", s ** 100), ("-a", t ** 100)] * 3])
    got = evaluate_word(word, basis)
    assert max(sum(m) for row in got.rows for e in row
               for m in e.terms) > 1024
    fold = root_element(basis, *word.letters[0][1:])
    for _, root, p in word.letters[1:]:
        fold = fold * root_element(basis, root, p)
    assert got == fold
    assert _terms(got) == _terms(_entrywise_word(word, basis, "adjoint",
                                                 QST))


# Q[u]/(u^2), Q[u]/(u^3) and Q[x,y]/(x^2, xy, y^3): monomial ideals, so
# their rules are Groebner bases and a normal form is unique; with each
# ring, entries to draw and units for the h, w and t letters
QUOTIENTS = {
    "u2": (RingSpec("quotient", ("u",), [RewriteRule((2,), {})]),
           ["0", "1", "u", "2 - u", "u^2 + 3", "1/2*u - 5"],
           ["1 + u", "-2 + 3*u", "1/3 - u"]),
    "u3": (RingSpec("quotient", ("u",), [RewriteRule((3,), {})]),
           ["0", "1", "u", "u^2", "2 - u + u^2", "1/2*u^2 - 5*u"],
           ["1 + u", "-2 + u^2", "1/3 - u + 4*u^2"]),
    "x2-xy-y3": (RingSpec("quotient", ("x", "y"),
                          [RewriteRule((2, 0), {}), RewriteRule((1, 1), {}),
                           RewriteRule((0, 3), {})]),
                 ["0", "1", "x", "y", "y^2 - 1/3*x", "3 - x*y + y",
                  "x + y^2 + 2"],
                 ["1 + x", "-2 + y", "1/2 - x + y^2"]),
}


@st.composite
def quotient_cases(draw):
    """A quotient ring, two 3 x 3 or 8 x 8 matrices over it, and a word
    over A1 or A2 whose h, w and t parameters are units c + nilpotent."""
    spec, entries, units = QUOTIENTS[draw(st.sampled_from(sorted(QUOTIENTS)))]
    n = draw(st.sampled_from((3, 8)))
    a, b = ([[parse_expr(draw(st.sampled_from(entries)), spec)
              for _ in range(n)] for _ in range(n)] for _ in range(2))
    tag, realization = draw(st.sampled_from(
        [("A1", "adjoint"), ("A1", "a1std"), ("A2", "pgl3")]))
    letters = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from("xxhwt"))
        what = (draw(st.integers(0, int(tag[1]) - 1)) if kind == "t"
                else draw(st.sampled_from(all_roots(tag))))
        pool = entries if kind == "x" else units
        letters.append((kind, what, parse_expr(draw(st.sampled_from(pool)),
                                               spec)))
    return spec, a, b, tag, realization, GroupWord(tag, letters)


@settings(max_examples=40, deadline=None)
@given(quotient_cases())
def test_quotient_products_match_entrywise_reference(case):
    # reduced once per output entry, the kernel's normal form is the one
    # reducing after every ring operation gives
    spec, a, b, tag, realization, word = case
    a, b = (AdjointMatrix(spec, rows, "adjoint") for rows in (a, b))
    assert _terms(a * b) == _terms(_entrywise(a, b))
    basis = build_basis(tag)
    assert _terms(evaluate_word(word, basis, realization)) == _terms(
        _entrywise_word(word, basis, realization, spec))
    for kind, what, p in word.letters:
        if kind in "xw":
            assert _terms(LETTERS[kind](basis, what, p, realization)) \
                == _terms(_entrywise_letter(basis, realization, kind, what,
                                            p))


QFXY = RingSpec("fraction", ("x", "y"))
FRACTION_NUMERATORS = ("1", "x", "y", "x - 1/2", "3*x*y + y^2", "-2/3")
# several distinct non-constant denominators, some sharing a factor
FRACTION_DENOMINATORS = ("1", "x", "1 + x*y", "y - 2", "x^2 + 3*y",
                         "x*(y - 2)")
FRACTION_UNITS = ("x/(1 + y)", "1 + x*y", "(x - 2)/(y^2 + 1)", "-3/x", "y")


@st.composite
def fraction_texts(draw):
    """Zero a third of the time, else a numerator over a denominator."""
    if draw(st.integers(0, 2)) == 0:
        return "0"
    return (f"({draw(st.sampled_from(FRACTION_NUMERATORS))})"
            f"/({draw(st.sampled_from(FRACTION_DENOMINATORS))})")


@st.composite
def fraction_cases(draw):
    """Two 3 x 3 matrices over Q(x, y) and a word over A1 or A2 with zero
    or non-constant x parameters and non-constant unit h, w and t
    parameters."""
    a, b = ([[draw(fraction_texts()) for _ in range(3)] for _ in range(3)]
            for _ in range(2))
    tag, realization = draw(st.sampled_from(
        [("A1", "adjoint"), ("A1", "a1std"), ("A2", "pgl3")]))
    letters = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from("xxhwt"))
        what = (draw(st.integers(0, int(tag[1]) - 1)) if kind == "t"
                else draw(st.sampled_from(all_roots(tag))))
        text = draw(fraction_texts() if kind == "x"
                    else st.sampled_from(FRACTION_UNITS))
        letters.append((kind, what, parse_expr(text, QFXY)))
    return a, b, tag, realization, GroupWord(tag, letters)


FXY = sympy.QQ.frac_field(SX, SY)


def _field_matrix(rows):
    """sympy expressions as a matrix over sympy's field Q(x, y), which keeps
    every entry cancelled."""
    return DomainMatrix([[FXY.from_sympy(e) for e in row] for row in rows],
                        (len(rows), len(rows)), FXY)


def _sympy_fraction(e):
    return _sympy(e.num) / _sympy(e.den)


def _assert_equal_in_sympy(got, want):
    """Each entry n/d of ``got`` and the cancelled p/q of ``want`` agree:
    n q = p d, multiplied out in sympy's polynomial ring."""
    for i, row in enumerate(got.rows):
        for j, e in enumerate(row):
            w = want[i, j].element
            n, d = (w.numer.ring.from_dict(
                {m: sympy.QQ(c.numerator, c.denominator)
                 for m, c in terms.items()}) for terms in (e.num, e.den))
            assert n * w.denom == w.numer * d


@settings(max_examples=50, deadline=None)
@given(fraction_cases())
def test_fraction_products_match_sympy(case):
    # the common-denominator kernel against sympy's product of the same
    # rational functions
    a, b, tag, realization, word = case
    got = (matrix_from_entries(QFXY, a, "adjoint")
           * matrix_from_entries(QFXY, b, "adjoint"))
    a, b = ([[sympy.sympify(e.replace("^", "**")) for e in row] for row in m]
            for m in (a, b))
    _assert_equal_in_sympy(got, _field_matrix(a) * _field_matrix(b))
    basis = build_basis(tag)
    dim = basis.realization(realization).dim
    want = DomainMatrix.eye(dim, FXY)
    for letter in word.letters:
        m = _entrywise_letter(basis, realization, *letter)
        want = want * _field_matrix([[_sympy_fraction(e) for e in row]
                                     for row in m.rows])
    _assert_equal_in_sympy(evaluate_word(word, basis, realization), want)


def test_fraction_entries_share_no_monomial():
    # the product kernel puts every entry of x_b(1/u) over u^3; each entry
    # keeps only the power of u it needs
    fr = RingSpec("fraction", ("u",))
    basis = build_basis("G2")
    x = root_element(basis, basis.root("b"), invert(fr.var("u")))
    entries = [e for row in x.rows for e in row]
    texts = {repr(e) for e in entries}
    assert {"(-2)/(u)", "(3)/(u^2)", "(1)/(u^3)"} <= texts
    assert all(min(m[0] for m in (*e.num, *e.den)) == 0 for e in entries)
    u, v = (RingSpec("fraction", ("u", "v")).var(n) for n in "uv")
    assert repr((u * u * v + u * v) / (u ** 3 * v)) == "(u + 1)/(u^2)"
    assert repr(u * v / u) == "v"


QQ = RingSpec("fraction", ())
MODULI = (2, 3, 4, 5, 7, 9, 25)
REALIZATIONS = [("A1", "adjoint"), ("A1", "a1std"), ("A2", "adjoint"),
                ("A2", "pgl3"), ("B2", "adjoint"), ("G2", "adjoint")]
LETTERS = {"x": root_element, "h": torus_element, "w": weyl_element,
           "t": diag_torus}


@functools.cache
def _letter_mod(tag, realization, kind, what, r, n):
    """One letter with integer parameter r, evaluated over Q by its own
    constructor and mapped entrywise to Z/n, as rows of ints."""
    what = what if kind == "t" else Root(tag, what)
    m = LETTERS[kind](build_basis(tag), what, QQ.const(r), realization)
    return [[map_to_modular(e, n, {}).residue for e in row] for row in m.rows]


def _times_mod(a, b, n):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) % n
             for j in range(len(b[0]))] for row in a]


@st.composite
def residue_words(draw):
    """A word in x, h, w and t letters over Z/n with integer parameters;
    the h, w and t parameters are units mod n or not."""
    tag, realization = draw(st.sampled_from(REALIZATIONS))
    n = draw(st.sampled_from(MODULI))
    roots = [r.coords for r in all_roots(tag)]
    letters = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from("xxxhwt"))
        what = (draw(st.integers(0, SystemType(tag).rank - 1)) if kind == "t"
                else draw(st.sampled_from(roots)))
        letters.append((kind, what, draw(st.integers(-2 * n, 2 * n))))
    return tag, realization, n, letters


@settings(max_examples=150, deadline=None)
@given(residue_words())
# pgl3's t1 has no negative exponent: only the unit check refuses 2 mod 4
@example(("A2", "pgl3", 4, [("x", (1, 0), 3), ("t", 0, 2)]))
def test_residue_words_match_rational_letters_mod_n(case):
    # the residue kernel against each letter evaluated over Q, mapped to
    # Z/n and multiplied by plain integer loops; a word with a non-unit h,
    # w or t parameter raises for the first such letter
    tag, realization, n, letters = case
    spec = RingSpec("modular", modulus=n)
    basis = build_basis(tag)
    word = GroupWord(tag, [(kind, what if kind == "t" else Root(tag, what),
                            spec.const(r)) for kind, what, r in letters])
    bad = [r for kind, _, r in letters
           if kind != "x" and math.gcd(r, n) != 1]
    if bad:
        with pytest.raises(NotAUnit) as err:
            evaluate_word(word, basis, realization)
        assert str(err.value) == f"{bad[0] % n} is not a unit mod {n}"
        return
    want = None
    for letter in letters:
        m = _letter_mod(tag, realization, *letter, n)
        want = m if want is None else _times_mod(want, m, n)
    got = evaluate_word(word, basis, realization)
    assert [[e.residue for e in row] for row in got.rows] == want
    # the two-factor product over Z/n and the one-letter root element
    half = len(letters) // 2
    left, right = (evaluate_word(GroupWord(tag, part), basis, realization,
                                 spec=spec)
                   for part in (word.letters[:half], word.letters[half:]))
    assert left * right == got
    kind, what, r = letters[0]
    if kind == "x":
        x = root_element(basis, Root(tag, what), spec.const(r), realization)
        assert [[e.residue for e in row] for row in x.rows] == _letter_mod(
            tag, realization, kind, what, r, n)


def test_residue_products_make_no_ring_element_arithmetic(monkeypatch):
    # over Z/n a word, a product and a root element run on ints: no
    # RingElement product or sum is taken
    spec = RingSpec("modular", modulus=9)
    cases = []
    for tag, realization in REALIZATIONS:
        basis = build_basis(tag)
        g, d = all_roots(tag)[0], all_roots(tag)[-1]
        word = GroupWord(tag, [("x", g, spec.const(4)), ("h", d, spec.const(2)),
                               ("w", g, spec.const(5)), ("t", 0, spec.const(7)),
                               ("x", d, spec.const(3))])
        cases.append((basis, realization, word,
                      evaluate_word(word, basis, realization)))

    def refuse(*args):
        raise AssertionError("RingElement arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(RingElement, name, refuse)
    for basis, realization, word, want in cases:
        assert evaluate_word(word, basis, realization) == want
        one = [evaluate_word(GroupWord(word.system, [letter]), basis,
                             realization) for letter in word.letters]
        product = one[0]
        for m in one[1:]:
            product = product * m
        assert product == want
        kind, g, t = word.letters[0]
        assert root_element(basis, g, t, realization) == one[0]


def test_word_letters_in_different_rings_raise():
    basis = build_basis("A2")
    other = RingSpec("poly", ("s", "t", "u"))
    word = GroupWord("A2", [("x", basis.root("a1"), QST.var("s")),
                            ("x", basis.root("a2"), other.var("u"))])
    for realization in ("adjoint", "pgl3"):
        with pytest.raises(RingError) as err:
            evaluate_word(word, basis, realization)
        assert str(err.value) == "word letters live in different rings"
        with pytest.raises(RingError):
            evaluate_word(word, basis, realization, spec=other)


def _a1std_matrix(spec, A, B, C, D) -> AdjointMatrix:
    # image of the SL2 matrix [[A,B],[C,D]] in the standard 3x3 realization
    two = spec.const(2)
    rows = [[A * A, B * B, two * A * B],
            [C * C, D * D, two * C * D],
            [A * C, B * D, A * D + B * C]]
    return AdjointMatrix(spec, rows, "a1std")


@pytest.mark.parametrize("spec", [
    RingSpec("poly", ("t",)), RingSpec("fraction", ("t", "u")),
    RingSpec("modular", modulus=7)], ids=["poly", "fraction", "mod7"])
def test_a1std_letters_are_sym2_of_sl2(spec):
    # the a1std letters against the image of their SL2 matrices under an
    # independent Sym^2 formula, whose entries the Gauss decomposition reads
    basis = build_basis("A1")
    if spec.kind == "modular":
        t, u = spec.const(3), spec.const(5)
    else:
        t = spec.var("t")
        u = spec.var("u") if spec.kind == "fraction" else spec.const(-3)
    zero, one, v = spec.zero(), spec.one(), invert(u)
    a, na = basis.root("a"), basis.root("-a")
    cases = [
        (root_element(basis, a, t, "a1std"), (one, t, zero, one)),
        (root_element(basis, na, t, "a1std"), (one, zero, t, one)),
        (torus_element(basis, a, u, "a1std"), (u, zero, zero, v)),
        (torus_element(basis, na, u, "a1std"), (v, zero, zero, u)),
        (weyl_element(basis, a, u, "a1std"), (zero, u, -v, zero)),
        (weyl_element(basis, na, u, "a1std"), (zero, -v, u, zero)),
        # t_1(u) is the image of diag(u, 1) in PGL2: Sym^2 over the det
        (diag_torus(basis, 0, u, "a1std").scale(u),
         (u, zero, zero, one)),
    ]
    for got, (A, B, C, D) in cases:
        assert got == _a1std_matrix(spec, A, B, C, D)


@pytest.mark.parametrize("tag,realization,message", [
    ("A1", "pgl3", "pgl3 is an A2 realization"),
    ("B2", "a1std", "a1std is an A1 realization"),
    ("G2", "sl2", "unknown realization 'sl2'")])
def test_missing_realization_messages(tag, realization, message):
    basis = build_basis(tag)
    spec = RingSpec("modular", modulus=5)
    g = all_roots(tag)[0]
    for make in (lambda: root_element(basis, g, spec.one(), realization),
                 lambda: torus_element(basis, g, spec.one(), realization),
                 lambda: diag_torus(basis, 0, spec.one(), realization),
                 lambda: evaluate_word(GroupWord(tag), basis, realization,
                                       spec=spec)):
        with pytest.raises(RealizationError) as err:
            make()
        assert str(err.value) == message


@pytest.mark.parametrize("tag", ["A2", "G2"])
def test_basis_check_names_a_wrong_bracket(tag, monkeypatch):
    # double the coefficients of [v_0, v_1]: building the basis must fail
    # on that pair, not go on with a bracket that breaks the Jacobi identity
    labels = build_basis(tag).labels
    exact = ChevalleyBasis._bracket_basis

    def doubled(self, gi, gj):
        out = exact(self, gi, gj)
        if (gi, gj) == (0, 1):
            out = {k: 2 * c for k, c in out.items()}
        return out

    monkeypatch.setattr(ChevalleyBasis, "_bracket_basis", doubled)
    assert doubled(build_basis(tag), 0, 1)
    with pytest.raises(RuntimeError) as err:
        ChevalleyBasis(tag)
    assert str(err.value) == ("ad is not a Lie-algebra homomorphism on"
                              f" {labels[0]}, {labels[1]}")


def test_basis_check_names_a_divided_power_that_is_not_integral(monkeypatch):
    # the B2 brackets on 2 e_a in place of e_a are integral and satisfy the
    # Jacobi identity, but (ad e_{a+b})^2 / 2 is not integral there; the
    # coefficients are kept as ints, so this must raise, not truncate
    exact = ChevalleyBasis._bracket_basis
    scale = [2] + [1] * (build_basis("B2").dim - 1)

    def rescaled(self, gi, gj):
        return {k: scale[gi] * scale[gj] * c // scale[k]
                for k, c in exact(self, gi, gj).items()}

    monkeypatch.setattr(ChevalleyBasis, "_bracket_basis", rescaled)
    with pytest.raises(RuntimeError) as err:
        ChevalleyBasis("B2")
    assert str(err.value) == "(ad e_(1, 1))^2/2! is not integral"


@pytest.mark.parametrize("tag", SYSTEMS)
def test_basis_data_are_python_numbers(tag):
    # what leaves the basis must be Python ints, so no fixed-width integer
    # reaches exact arithmetic
    basis = build_basis(tag)
    assert all(type(x) is int for mat in basis.ad.values()
               for row in mat for x in row)
    for rec in basis.realizations.values():
        for entries in rec.exp_entries.values():
            for i, j, k, _ in entries:
                assert type(i) is type(j) is type(k) is int


@pytest.mark.parametrize("tag", SYSTEMS)
def test_root_element_coefficients_are_ints(tag):
    # (ad e_g)^k / k! is integral on a Chevalley basis, so every product
    # kernel reads the coefficients of x_g(t) as ints, in every realization
    for rec in build_basis(tag).realizations.values():
        assert {type(c) for entries in rec.exp_entries.values()
                for *_, c in entries} == {int}
