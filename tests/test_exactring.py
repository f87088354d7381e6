import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import chevlab
from chevlab.exactring import (SLOT_BITS, DenominatorNotInvertible,
                               MonomialPacking, NotAUnit, RewriteRule,
                               RingElement, RingError, RingSpec, deglex_key,
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
    prules = [pk.pack_rule(r) for r in rules]
    if integral:
        prules = [(lhs, {m: int(c) for m, c in rhs.items()})
                  for lhs, rhs in prules]
    got = pk.reduce(pk.pack_terms(terms), prules)
    assert got == pk.pack_terms(reduce_terms(terms, rules))
    if integral:
        assert all(type(c) is int for c in got.values())
    assert pk.unpack_terms(got) == reduce_terms(terms, rules)
