import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import chevlab
from chevlab.exactring import (PRIME_BOUND, SLOT_BITS,
                               DenominatorNotInvertible, MonomialPacking,
                               NotAUnit, ParseError, RewriteRule,
                               RingElement, RingError, RingSpec, deglex_key,
                               integer_root, invert, is_prime, map_to_modular,
                               mul_terms, parse_expr, reduce_terms,
                               substitute)


def poly_ts():
    return RingSpec("poly", ("t", "s"))


def quot_a2():
    return RingSpec("quotient", ("a",), rules=[RewriteRule((2,), {})])


def test_arith_examples():
    spec = poly_ts()
    t, s = spec.var("t"), spec.var("s")
    assert (t + s) * (t - s) == t * t - s * s

    q = quot_a2()
    a = q.var("a")
    assert ((1 + a) * (1 - a)).is_one()

    m7 = RingSpec("modular", modulus=7)
    # 4^3 = 64 = 1 mod 7, the power computation behind (4/5)^3 != 1
    assert m7.const(4) ** 3 == m7.const(1)


def test_normal_form_examples():
    q = quot_a2()
    a = q.var("a")
    assert a ** 3 + a == a

    # rules c2^3 -> -c3^2 and c3^4 -> 0 kill c2^6  (hand reduction:
    # c2^6 = (c2^3)^2 = c3^4 = 0); both rules descend in deglex
    spec = RingSpec("quotient", ("c3", "c2"), rules=[
        RewriteRule((0, 3), {(2, 0): Fraction(-1)}),
        RewriteRule((4, 0), {}),
    ])
    c2 = spec.var("c2")
    assert (c2 ** 6).is_zero()
    assert not (c2 ** 5).is_zero()

    spec2 = poly_ts()
    t = spec2.var("t")
    assert (t - t).is_zero()


def test_normal_form_idempotent_and_compatible():
    # quotient elements are reduced on construction: reducing again changes
    # nothing, and reducing commutes with products of unreduced terms
    q = RingSpec("quotient", ("a", "b"), rules=[RewriteRule((2, 0), {})])
    p = RingSpec("poly", ("a", "b"))
    rng = random.Random(11)
    for _ in range(200):
        x = _random_element(p, rng).terms
        y = _random_element(p, rng).terms
        xy = RingElement(q, terms=mul_terms(x, y))
        assert xy == RingElement(q, terms=x) * RingElement(q, terms=y)
        assert reduce_terms(xy.terms, q.rules) == xy.terms


def test_invert():
    m7 = RingSpec("modular", modulus=7)
    assert invert(m7.const(5)) == m7.const(3)   # 3^{-1} = 5 in F_7

    fr = RingSpec("fraction", ("u", "v"))
    u, v = fr.var("u"), fr.var("v")
    w = invert(1 + u * v)
    assert (w * (1 + u * v)).is_one()

    spec = poly_ts()
    with pytest.raises(NotAUnit):
        invert(spec.var("t"))
    with pytest.raises(NotAUnit):
        invert(spec.zero())

    # units of a quotient ring: constant unit plus nilpotent
    q = quot_a2()
    a = q.var("a")
    assert invert(1 - a) == 1 + a
    m6 = RingSpec("modular", modulus=6)
    with pytest.raises(NotAUnit):
        invert(m6.const(3))


@pytest.mark.parametrize("spec", [
    RingSpec("poly", ("t",)),
    RingSpec("quotient", ("u",), rules=[RewriteRule((2,), {})]),
], ids=["Q[t]", "Q[u]/(u^2)"])
def test_zero_is_not_a_unit(spec):
    with pytest.raises(NotAUnit, match="^zero is not a unit$"):
        invert(spec.zero())
    with pytest.raises(NotAUnit, match="^zero is not a unit$"):
        parse_expr("1/0", spec)


def test_substitute():
    spec = poly_ts()
    t, s = spec.var("t"), spec.var("s")
    p = s * s * t * t + 4 * s * t + 3
    assert substitute(p, {"t": 1}) == s * s + 4 * s + 3
    assert substitute(p, {"t": 0}) == spec.const(3)

    b_ring = RingSpec("poly", ("b",))
    b = b_ring.var("b")
    b4 = -2 * b ** 3 / 3 + b * b / 2 + b / 6
    assert substitute(b4, {"b": 1}).is_zero()   # -2/3 + 1/2 + 1/6 = 0

    # substitution is homomorphic
    rng = random.Random(5)
    for _ in range(50):
        x = _random_element(spec, rng)
        y = _random_element(spec, rng)
        val = {"t": Fraction(rng.randint(-3, 3)), "s": Fraction(rng.randint(-3, 3))}
        assert substitute(x * y, val) == substitute(x, val) * substitute(y, val)
        assert substitute(x + y, val) == substitute(x, val) + substitute(y, val)

    with pytest.raises(RingError):
        substitute(p, {"t": b})  # target ring lacks s


def test_map_to_modular():
    b_ring = RingSpec("poly", ("b",))
    b = b_ring.var("b")
    p = (b * b - b) / 2
    assert map_to_modular(p, 5, {"b": 3}).residue == 3   # (9-3)/2 = 3

    spec = poly_ts()
    x = 4 * spec.var("t") + 9
    assert map_to_modular(x, 7, {"t": 0, "s": 0}).residue == 2

    with pytest.raises(DenominatorNotInvertible):
        map_to_modular(b / 6, 2, {"b": 1})
    with pytest.raises(RingError):
        map_to_modular(p, 5, {})  # unbound variable


def test_substitute_modular_commuting_square():
    spec = poly_ts()
    rng = random.Random(23)
    for _ in range(100):
        x = _random_element(spec, rng)
        tv, sv = rng.randrange(7), rng.randrange(7)
        direct = map_to_modular(x, 7, {"t": tv, "s": sv})
        half = substitute(x, {"t": tv})   # t no longer occurs but stays bound
        assert map_to_modular(half, 7, {"s": sv, "t": 0}) == direct


def _random_element(spec, rng):
    if spec.kind == "modular":
        return spec.const(rng.randrange(spec.modulus))
    if spec.kind == "fraction":
        num = _random_terms(spec, rng)
        den = spec.zero()
        while den.is_zero():
            den = _random_terms(spec, rng)
        return num * invert(den)
    return _random_terms(spec, rng)


def _random_terms(spec, rng):
    out = spec.zero()
    for _ in range(rng.randint(0, 3)):
        term = spec.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for name in spec.variables:
            term = term * spec.var(name) ** rng.randint(0, 2)
        out = out + term
    return out


@pytest.mark.parametrize("spec", [
    poly_ts(), quot_a2(), RingSpec("fraction", ("u", "v")),
    RingSpec("modular", modulus=12)],
    ids=["poly", "quotient", "fraction", "modular"])
def test_ring_axioms(spec):
    rng = random.Random(hash(spec.kind) & 0xffff)
    zero, one = spec.zero(), spec.one()
    for _ in range(1000):
        a = _random_element(spec, rng)
        b = _random_element(spec, rng)
        c = _random_element(spec, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert (a - a).is_zero()


def test_rewrite_rule_validation():
    with pytest.raises(RingError):
        # lhs must strictly dominate the rhs in deglex order
        RewriteRule((1, 0), {(0, 2): Fraction(1)})
    with pytest.raises(RingError):
        RewriteRule((1,), {(1,): Fraction(1)})
    # valid: a*c^2 -> b style drop in degree
    RewriteRule((1, 2), {(0, 1): Fraction(1)})


def test_spec_validation():
    with pytest.raises(RingError):
        RingSpec("poly", ("x", "x"))
    with pytest.raises(RingError):
        RingSpec("modular", modulus=1)
    with pytest.raises(RingError):
        RingSpec("poly", ("x",), rules=[RewriteRule((2,), {})])


def test_spec_mismatch():
    a = poly_ts().var("t")
    b = RingSpec("poly", ("t",)).var("t")
    with pytest.raises(RingError):
        a + b


def test_expression_parser():
    spec = RingSpec("poly", ("b", "s"))
    b, s = spec.var("b"), spec.var("s")
    assert parse_expr("(b^2-b)/2", spec) == (b * b - b) / 2
    assert parse_expr("-2/3*b^3 + 1/2*b^2 + 1/6*b", spec) == \
        -2 * b ** 3 / 3 + b * b / 2 + b / 6
    assert parse_expr("s*(s+b-1)", spec) == s * (s + b - 1)
    assert parse_expr("3", spec) == spec.const(3)
    with pytest.raises(RingError):
        parse_expr("q", spec)
    with pytest.raises(RingError):
        parse_expr("1 +", spec)
    # a syntax error is also a ValueError, as the word grammar's are
    with pytest.raises(ValueError, match="expected a name at the end"):
        parse_expr("1 +", spec)
    with pytest.raises(ValueError, match="trailing input"):
        parse_expr("b s", spec)



def test_non_decimal_digits_are_parse_errors():
    # '²' is a digit to str.isdigit but not to int(), so it is rejected
    # like any other stray character; '٣' is a decimal digit, read as 3
    spec = RingSpec("poly", ("t",))
    t = spec.var("t")
    for text in ("t^²", "²", "t^-²", "1+²"):
        with pytest.raises(ParseError):
            parse_expr(text, spec)
    assert parse_expr("٣", spec) == spec.const(3)
    assert parse_expr("t^٣", spec) == t ** 3
    frac = RingSpec("fraction", ("t",))
    assert parse_expr("t^-١", frac) == invert(frac.var("t"))


INVERT_CHECK = """
import sys
from chevlab.exactring import RewriteRule, RingElement, RingError, RingSpec
from chevlab.exactring import invert

a = RingSpec("quotient", ("a",), rules=[RewriteRule((2,), {})]).var("a")
RingElement.is_one = lambda self: False
try:
    invert(1 + a)
except RingError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_invert_self_check_raises(flags):
    # the geometric-series inverse is checked by an explicit raise, which
    # python -O keeps
    src = os.path.dirname(os.path.dirname(os.path.abspath(chevlab.__file__)))
    proc = subprocess.run([sys.executable, *flags, "-c", INVERT_CHECK],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "inv * a = 1" in proc.stdout


# -- packed monomials ---------------------------------------------------------

LIMIT = 1 << (SLOT_BITS - 1)


def exponents(nvars, top=7):
    return st.tuples(*[st.integers(0, top)] * nvars)


@st.composite
def exponent_pairs(draw):
    n = draw(st.integers(1, 8))
    return n, draw(exponents(n)), draw(exponents(n))


@given(exponent_pairs())
def test_packed_order_product_and_divisibility(case):
    n, a, b = case
    pk = MonomialPacking(n)
    ka, kb = pk.pack(a), pk.pack(b)
    assert pk.unpack(ka) == a
    assert (ka < kb) == (deglex_key(a) < deglex_key(b))
    assert (ka == kb) == (a == b)
    ab = tuple(x + y for x, y in zip(a, b))
    assert pk.shift({ka: 1}, kb) == {pk.pack(ab): 1}
    assert ka + kb == pk.pack(ab)
    assert pk.divides(kb, ka) == all(x >= y for x, y in zip(a, b))
    assert pk.divides(kb, pk.pack(ab))


@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(exponents(n, 2 * LIMIT), exponents(n, 2 * LIMIT))))
def test_packing_overflow_raises(pair):
    a, b = pair
    pk = MonomialPacking(len(a))
    if sum(a) >= LIMIT:
        with pytest.raises(RingError):
            pk.pack(a)
        return
    ka = pk.pack(a)
    if sum(b) >= LIMIT:
        return
    kb = pk.pack(b)
    if sum(a) + sum(b) >= LIMIT:
        with pytest.raises(RingError):
            pk.shift({pk.pack((0,) * len(a)): 1, ka: 1}, kb)
    else:
        assert pk.shift({ka: 1}, kb) == {ka + kb: 1}
        assert pk.unpack(ka + kb) == tuple(x + y for x, y in zip(a, b))


def test_packing_rejects_bad_exponents():
    pk = MonomialPacking(2)
    with pytest.raises(RingError):
        pk.pack((1, -1))
    with pytest.raises(RingError):
        pk.pack((1, 2, 3))
    with pytest.raises(RingError):
        pk.pack((LIMIT, 0))
    assert pk.unpack(pk.pack((LIMIT - 1, 0))) == (LIMIT - 1, 0)


@pytest.mark.parametrize("bits", [2, 5, 8, 12])
def test_packing_slot_width_per_instance(bits):
    limit = 1 << (bits - 1)
    pk = MonomialPacking(3, bits)
    top = (0, limit - 1, 0)
    assert pk.unpack(pk.pack(top)) == top
    with pytest.raises(RingError):
        pk.pack((1, limit - 1, 0))
    mask = pk.value_mask([0, 2])
    assert pk.unpack(mask) == (limit - 1, 0, limit - 1)
    assert mask & pk.guard == 0 and pk.pack(top) & mask == 0


@st.composite
def rule_sets(draw):
    """Random terms and deglex-decreasing rules in 2 or 3 variables, with
    integer coefficients or with rationals."""
    n = draw(st.integers(2, 3))
    integral = draw(st.booleans())
    mono = exponents(n, 4)
    coef = (st.integers(-3, 3) if integral else
            st.fractions(min_value=-3, max_value=3, max_denominator=6))
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        lhs = draw(mono.filter(any))
        rhs = draw(st.dictionaries(mono, coef, max_size=3))
        rules.append(RewriteRule(lhs, {m: c for m, c in rhs.items()
                                       if deglex_key(m) < deglex_key(lhs)}))
    terms = {m: c for m, c in
             draw(st.dictionaries(mono, coef, max_size=8)).items() if c}
    return n, integral, rules, terms


@given(rule_sets())
def test_packed_reduce_matches_reduce_terms(case):
    n, integral, rules, terms = case
    pk = MonomialPacking(n)
    prules = [(pk.pack(r.lhs), pk.pack_terms(r.rhs)) for r in rules]
    if integral:
        prules = [(lhs, {m: int(c) for m, c in rhs.items()})
                  for lhs, rhs in prules]
    got = pk.reduce(pk.pack_terms(terms), prules)
    assert got == pk.pack_terms(reduce_terms(terms, rules))
    if integral:
        assert all(type(c) is int for c in got.values())
    assert {pk.unpack(k): c for k, c in got.items()} == reduce_terms(
        terms, rules)


@st.composite
def shifted_rows(draw, unread=False):
    """Deglex-decreasing rules in 2 or 3 variables, a row in normal form
    modulo them and a monomial to shift it by.  Some rhs monomials are the
    lhs with one unit moved to a later variable, so a rewrite often makes a
    monomial that its own lhs, or another rule's, divides again.  With
    ``unread``, no lhs holds the variable at one drawn position."""
    n = draw(st.integers(2, 3))
    coef = st.one_of(st.integers(-3, 3),
                     st.fractions(min_value=-3, max_value=3,
                                  max_denominator=6))
    pk = MonomialPacking(n)
    free = draw(st.integers(0, n - 1)) if unread else None
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        if unread:
            lhs = draw(exponents(n - 1, 3).filter(any))
            lhs = lhs[:free] + (0,) + lhs[free:]
        else:
            lhs = draw(exponents(n, 3).filter(any))
        near = [lhs[:i] + (lhs[i] - 1,) + lhs[i + 1:j] + (lhs[j] + 1,)
                + lhs[j + 1:] for i in range(n) for j in range(i + 1, n)
                if lhs[i]]
        monos = draw(st.lists(st.one_of(exponents(n, 3),
                                        st.sampled_from(near or [lhs])),
                              max_size=3))
        rhs = {pk.pack(m): draw(coef) for m in monos
               if deglex_key(m) < deglex_key(lhs)}
        rules.append((pk.pack(lhs), {m: c for m, c in rhs.items() if c}))
    terms = draw(st.dictionaries(exponents(n, 4), coef, max_size=6))
    row = pk.reduce({pk.pack(m): c for m, c in terms.items() if c}, rules)
    return pk, rules, row, pk.pack(draw(exponents(n, 3)))


@settings(max_examples=300, deadline=None)
@given(shifted_rows())
def test_shifted_reduce_matches_reduce_of_shifted_row(case):
    # the fused shift skips scans; it must make the same rewrites in the
    # same order, so even the order of the result's keys is the same
    pk, rules, row, m = case
    want = pk.reduce(pk.shift(row, m), rules)
    got = pk.reduce(row, rules, shift=m)
    assert list(got.items()) == list(want.items())
    assert pk.reduce(row, pk.rules(rules), shift=m) == want
    tuple_rules = [RewriteRule(pk.unpack(lhs),
                               {pk.unpack(k): Fraction(c)
                                for k, c in rhs.items()})
                   for lhs, rhs in rules]
    assert {pk.unpack(k): c for k, c in got.items()} == reduce_terms(
        {pk.unpack(k): Fraction(c) for k, c in pk.shift(row, m).items()},
        tuple_rules)


@settings(max_examples=300, deadline=None)
@given(shifted_rows(unread=True))
def test_reduce_moves_an_unread_variable_along(case):
    # reduce never reads a variable that no lhs holds, so shifting a normal
    # form by it commutes with reduction, down to the order of the keys
    pk, rules, row, m = case
    unread = pk.unread(rules)
    assert unread
    for v in unread:
        assert sum(pk.unpack(v)) == 1
        want = pk.shift(pk.reduce(row, rules, shift=m), v)
        got = pk.reduce(row, rules, shift=m + v)
        assert list(got.items()) == list(want.items())


# -- sympy as an independent oracle -------------------------------------------

SX, SY = sympy.symbols("x y")
COEFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
POLY_TERMS = st.dictionaries(exponents(2, 3), COEFS, max_size=4)


def _element(spec, terms):
    """The element sum c x^i y^j, built with ring operations only."""
    x, y = spec.var("x"), spec.var("y")
    out = spec.zero()
    for (i, j), c in terms.items():
        out = out + spec.const(c) * x ** i * y ** j
    return out


def _to_sympy(terms):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * SX ** m[0] * SY ** m[1] for m, c in terms.items()))


def _poly_dict(expr):
    return {m: Fraction(int(c.p), int(c.q)) for m, c in
            sympy.Poly(expr, SX, SY, domain="QQ").as_dict().items()}


@settings(deadline=None)
@given(POLY_TERMS, POLY_TERMS)
def test_poly_arithmetic_matches_sympy(ta, tb):
    spec = RingSpec("poly", ("x", "y"))
    a, b = _element(spec, ta), _element(spec, tb)
    sa, sb = _to_sympy(ta), _to_sympy(tb)
    for got, want in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb),
                      (-a, -sa), (a ** 3, sa ** 3)):
        assert got.terms == _poly_dict(want)
    assert (a == b) == (sympy.expand(sa - sb) == 0)
    assert a * b - b * a == spec.zero() and (a + b) - b == a


@settings(max_examples=40, deadline=None)
@given(POLY_TERMS, POLY_TERMS, POLY_TERMS, POLY_TERMS)
def test_fraction_arithmetic_matches_sympy(ta, tb, tc, td):
    spec = RingSpec("fraction", ("x", "y"))
    num_a, den_a, num_b, den_b = (_element(spec, t) for t in (ta, tb, tc, td))
    if den_a.is_zero() or den_b.is_zero():
        return
    a, b = num_a / den_a, num_b / den_b
    sa = _to_sympy(ta) / _to_sympy(tb)
    sb = _to_sympy(tc) / _to_sympy(td)

    def same(got, want):
        return sympy.cancel(_to_sympy(got.num) / _to_sympy(got.den)
                            - want) == 0

    assert same(a + b, sa + sb) and same(a - b, sa - sb)
    assert same(a * b, sa * sb)
    if not a.is_zero():
        assert same(invert(a), 1 / sa) and same(b / a, sb / sa)
    assert (a == b) == (sympy.cancel(sa - sb) == 0)
    if not b.is_zero():
        assert a * b / b == a


@settings(deadline=None)
@given(st.integers(2, 60), st.integers(-100, 100))
def test_modular_inverse_matches_sympy(n, r):
    spec = RingSpec("modular", modulus=n)
    if math.gcd(r, n) != 1:
        with pytest.raises(NotAUnit):
            invert(spec.const(r))
        return
    assert invert(spec.const(r)).residue == sympy.mod_inverse(r, n)


@settings(deadline=None)
@given(POLY_TERMS, st.sampled_from([2, 3, 5, 7, 11, 13]),
       st.integers(-20, 20), st.integers(-20, 20))
def test_map_to_modular_matches_sympy(terms, p, bx, by):
    spec = RingSpec("poly", ("x", "y"))
    a = _element(spec, terms)
    value = _to_sympy(terms).subs({SX: bx, SY: by})
    if any(c.denominator % p == 0 for c in a.terms.values()):
        with pytest.raises(DenominatorNotInvertible):
            map_to_modular(a, p, {"x": bx, "y": by})
        return
    # terms with denominators prime to p sum to a value whose denominator
    # is prime to p, and the map must send the polynomial to that value
    got = map_to_modular(a, p, {"x": bx, "y": by})
    assert got.residue == int(value.p) * sympy.mod_inverse(int(value.q), p) % p


@st.composite
def groebner_cases(draw):
    """The reduced grlex Groebner basis of one to three random polynomials
    in x, y, a polynomial to reduce and a monomial to shift by."""
    gens = [_to_sympy(t) for t in draw(st.lists(
        st.dictionaries(exponents(2, 3), st.integers(-3, 3),
                        min_size=1, max_size=3), min_size=1, max_size=3))]
    gens = [g for g in gens if g != 0] or [SX ** 2 * SY - SY ** 2]
    basis = sympy.groebner(gens, SX, SY, order="grlex")
    return (list(basis.exprs), draw(POLY_TERMS),
            draw(exponents(2, 3)))


@settings(max_examples=100, deadline=None)
@given(groebner_cases())
def test_normal_forms_match_sympy_reduced(case):
    # modulo a Groebner basis the normal form is unique, so sympy's
    # division (grlex, which is this package's deglex on (x, y)) is an
    # independent oracle for reduce_terms, the quotient ring and the packed
    # reducer with and without a shift
    basis, terms, mono = case
    terms = {m: c for m, c in terms.items() if c}
    rules = []
    for g in basis:
        d = _poly_dict(g)
        lhs = max(d, key=deglex_key)
        rules.append(RewriteRule(lhs, {m: -c / d[lhs] for m, c in d.items()
                                       if m != lhs}))
    want = _poly_dict(sympy.reduced(_to_sympy(terms), basis, SX, SY,
                                    order="grlex")[1])
    assert reduce_terms(terms, rules) == want
    quotient = RingSpec("quotient", ("x", "y"), rules=rules)
    assert RingElement(quotient, terms=terms).terms == want
    pk = MonomialPacking(2)
    prules = [(pk.pack(r.lhs), pk.pack_terms(r.rhs)) for r in rules]
    got = pk.reduce(pk.pack_terms(terms), prules)
    assert got == pk.pack_terms(want)
    shifted = _poly_dict(sympy.reduced(
        _to_sympy(want) * SX ** mono[0] * SY ** mono[1], basis, SX, SY,
        order="grlex")[1])
    assert pk.reduce(got, prules, shift=pk.pack(mono)) == pk.pack_terms(
        shifted)


def test_is_prime_matches_sympy():
    # the one primality test behind --prime and the pgl3 key check
    assert [n for n in range(-3, 3000) if is_prime(n)] == list(
        sympy.primerange(3000))
    # large primes, and strong pseudoprimes to the bases 2..7, 2..11,
    # 2..23 and 2..37, each composite
    for n in (2 ** 61 - 1, 10 ** 18 + 3, sympy.prevprime(PRIME_BOUND),
              3215031751, 2152302898747, 3825123056546413051,
              318665857834031151167461):
        assert is_prime(n) == sympy.isprime(n), n
    with pytest.raises(ValueError, match=f"^{PRIME_BOUND} is not below"):
        is_prime(PRIME_BOUND)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 64])
def test_integer_root(k):
    for r in [0, 1, 2, 3, 10 ** 20 + 7]:
        assert integer_root(r ** k, k) == r
        if r > 1 and k > 1:
            assert integer_root(r ** k - 1, k) is None
            assert integer_root(r ** k + 1, k) is None
