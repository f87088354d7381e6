import random
from fractions import Fraction

import pytest

from chevlab.exactring import (DenominatorNotInvertible, NotAUnit,
                               RewriteRule, RingElement, RingError, RingSpec,
                               invert, map_to_modular, mul_terms, parse_expr,
                               reduce_terms, substitute)


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
