"""Exact commutative-ring arithmetic.

Four kinds of ring are supported, selected by a RingSpec:

  poly      sparse multivariate polynomials with rational coefficients
  quotient  a poly ring reduced by an ordered list of rewrite rules
  fraction  the fraction field of a poly ring (reduced by content only)
  modular   Z/n

Polynomials are dicts mapping dense exponent tuples to nonzero Fractions.
``MonomialPacking`` packs exponent tuples into ints, for hot loops that need
only deglex order, monomial products and divisibility; it is the one place
that knows the packed layout.  The slot width is chosen per instance: the
G2 chain keeps the default 8 bits, and the poly-ring product of a matrix
word sizes its slots to the word's total degree.
The only monomial order is degree-lexicographic (deglex): rewrite rules must
strictly decrease it, so reduction always terminates; reduction to zero
certifies membership in the ideal, failure to reduce certifies nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Exponents = tuple  # dense tuple of ints, one slot per declared variable
Terms = dict       # Exponents -> Fraction, zero coefficients never stored


class RingError(Exception):
    pass


class NotAUnit(RingError):
    pass


class DenominatorNotInvertible(RingError):
    pass


class SpecMismatch(RingError):
    pass


class ParseError(RingError, ValueError):
    """Text outside the expression or word grammar."""


def deglex_key(exps: Exponents):
    return (sum(exps), exps)


class RewriteRule:
    """Replace the monomial ``lhs`` by the polynomial ``rhs``.

    Valid only when lhs is strictly greater than every rhs monomial in the
    deglex order; deglex is a multiplicative well-order, so any rule set
    terminates.
    """

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Exponents, rhs: Terms):
        lhs = tuple(lhs)
        rhs = {tuple(e): Fraction(c) for e, c in rhs.items() if c != 0}
        key = deglex_key(lhs)
        for mono in rhs:
            if deglex_key(mono) >= key:
                raise RingError("rewrite rule does not decrease deglex"
                                f" order: {lhs} -> {mono}")
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        return f"RewriteRule({self.lhs!r} -> {self.rhs!r})"


RING_KINDS = ("poly", "quotient", "fraction", "modular")


class RingSpec:
    """Description of a ring; shared by all its elements."""

    __slots__ = ("kind", "variables", "rules", "modulus", "_var_index")

    def __init__(self, kind: str, variables: Iterable[str] = (),
                 rules: Iterable[RewriteRule] = (), modulus: int = 0):
        if kind not in RING_KINDS:
            raise RingError(f"unknown ring kind {kind!r}")
        variables = tuple(variables)
        if len(set(variables)) != len(variables) or any(not v for v in variables):
            raise RingError("variable names must be distinct and nonempty")
        rules = tuple(rules)
        if kind == "modular":
            if modulus < 2:
                raise RingError("modulus must be >= 2")
            if variables or rules:
                raise RingError("modular rings have no variables or rules")
        else:
            modulus = 0
        if rules and kind != "quotient":
            raise RingError("rewrite rules only make sense in quotient rings")
        for rule in rules:
            if len(rule.lhs) != len(variables):
                raise RingError("rule arity does not match variable count")
            for mono in rule.rhs:
                if len(mono) != len(variables):
                    raise RingError("rule arity does not match variable count")
        self.kind = kind
        self.variables = variables
        self.rules = rules
        self.modulus = modulus
        self._var_index = {v: i for i, v in enumerate(variables)}

    def var_index(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise RingError(f"ring has no variable {name!r}") from None

    # -- constructors -------------------------------------------------

    def zero(self) -> "RingElement":
        if self.kind == "modular":
            return RingElement(self, residue=0)
        if self.kind == "fraction":
            return RingElement(self, num={}, den={self._unit_mono(): Fraction(1)})
        return RingElement(self, terms={})

    def one(self) -> "RingElement":
        return self.const(1)

    def const(self, c) -> "RingElement":
        c = Fraction(c)
        if self.kind == "modular":
            if c.denominator != 1:
                num = c.numerator % self.modulus
                den = c.denominator % self.modulus
                g = math.gcd(den, self.modulus)
                if g != 1:
                    raise DenominatorNotInvertible(
                        f"1/{c.denominator} does not exist mod {self.modulus}")
                return RingElement(self, residue=(num * pow(den, -1, self.modulus))
                                   % self.modulus)
            return RingElement(self, residue=c.numerator % self.modulus)
        mono = self._unit_mono()
        terms = {} if c == 0 else {mono: c}
        if self.kind == "fraction":
            return RingElement(self, num=terms, den={mono: Fraction(1)})
        return RingElement(self, terms=terms)

    def var(self, name: str) -> "RingElement":
        i = self.var_index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(self.variables)))
        if self.kind == "fraction":
            return RingElement(self, num={mono: Fraction(1)},
                               den={self._unit_mono(): Fraction(1)})
        return RingElement(self, terms={mono: Fraction(1)})

    def _unit_mono(self) -> Exponents:
        return (0,) * len(self.variables)

    def __repr__(self):
        if self.kind == "modular":
            return f"RingSpec(modular, n={self.modulus})"
        extra = f", {len(self.rules)} rules" if self.rules else ""
        return f"RingSpec({self.kind}, vars={list(self.variables)}{extra})"

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, RingSpec)
                and self.kind == other.kind
                and self.variables == other.variables
                and self.modulus == other.modulus
                and [(r.lhs, tuple(sorted(r.rhs.items()))) for r in self.rules]
                == [(r.lhs, tuple(sorted(r.rhs.items()))) for r in other.rules])

    def __hash__(self):
        return hash((self.kind, self.variables, self.modulus, len(self.rules)))


# ---------------------------------------------------------------------------
# raw term-dict arithmetic (shared by poly, quotient and fraction payloads)
# ---------------------------------------------------------------------------

def add_terms(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for mono, c in b.items():
        s = out.get(mono)
        if s is None:
            out[mono] = c
        else:
            s = s + c
            if s:
                out[mono] = s
            else:
                del out[mono]
    return out


def sub_terms(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for mono, c in b.items():
        s = out.get(mono)
        if s is None:
            out[mono] = -c
        else:
            s = s - c
            if s:
                out[mono] = s
            else:
                del out[mono]
    return out


def mul_terms(a: Terms, b: Terms) -> Terms:
    if not a or not b:
        return {}
    out: Terms = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            c = ca * cb
            s = out.get(mono)
            if s is None:
                out[mono] = c
            else:
                s = s + c
                if s:
                    out[mono] = s
                else:
                    del out[mono]
    return out


def scale_terms(a: Terms, c: Fraction) -> Terms:
    if c == 0:
        return {}
    return {m: x * c for m, x in a.items()}


def reduce_terms(terms: Terms, rules: Iterable[RewriteRule]) -> Terms:
    """Apply rewrite rules to a fixpoint.

    Deterministic: rules are tried in order, monomials in descending deglex
    order; terminates because every rewrite decreases the monomial multiset
    in deglex.
    """
    terms = dict(terms)
    rules = tuple(rules)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            lhs = rule.lhs
            for mono in sorted(terms, key=deglex_key, reverse=True):
                if mono not in terms:
                    continue
                if all(e >= f for e, f in zip(mono, lhs)):
                    c = terms.pop(mono)
                    quot = tuple(e - f for e, f in zip(mono, lhs))
                    repl = mul_terms({quot: c}, rule.rhs)
                    terms = add_terms(terms, repl)
                    changed = True
    return terms


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

SLOT_BITS = 8     # the default slot: 7 value bits under 1 guard bit


class MonomialPacking:
    """Exponent tuples of ``nvars`` variables packed into one int.

    The key holds the slots (deg, e0, ..., e_{n-1}), most significant first,
    each ``slot_bits`` wide with its top bit a guard that a packed monomial
    keeps clear.  So int order is deglex order, a monomial product is the
    sum of two keys, and l divides m exactly when ((m | G) - l) & G == G,
    G being the mask of guard bits: a slot where m is smaller than l
    borrows its own guard bit and nothing beyond it.
    """

    __slots__ = ("nvars", "slot_bits", "guard")

    def __init__(self, nvars: int, slot_bits: int = SLOT_BITS):
        self.nvars = nvars
        self.slot_bits = slot_bits
        top = 1 << (slot_bits - 1)
        self.guard = sum(top << (slot_bits * i) for i in range(nvars + 1))

    def pack(self, exps: Exponents) -> int:
        if len(exps) != self.nvars:
            raise RingError(f"expected {self.nvars} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise RingError(f"negative exponent in {tuple(exps)}")
        bits = self.slot_bits
        key = sum(exps)
        if key >> (bits - 1):
            raise RingError(f"degree of {tuple(exps)} does not fit"
                            f" {bits - 1}-bit slots")
        for e in exps:
            key = (key << bits) | e
        return key

    def unpack(self, key: int) -> Exponents:
        bits = self.slot_bits
        mask = (1 << bits) - 1
        exps = []
        for _ in range(self.nvars):
            exps.append(key & mask)
            key >>= bits
        return tuple(reversed(exps))

    def value_mask(self, variables) -> int:
        """The value bits of the slots of the given variable positions: a
        packed monomial m has none of those variables iff m & mask == 0."""
        value = (1 << (self.slot_bits - 1)) - 1
        return sum(value << self.slot_bits * (self.nvars - 1 - k)
                   for k in variables)

    def divides(self, lhs: int, mono: int) -> bool:
        g = self.guard
        return ((mono | g) - lhs) & g == g

    def shift(self, terms: dict, mono: int) -> dict:
        """The terms multiplied by the monomial ``mono``.

        No exponent exceeds its monomial's degree, so the product of the
        leading term, which has the largest degree, is the only one that
        needs checking for overflow.
        """
        if terms and (max(terms) + mono) & self.guard:
            raise RingError("monomial product overflows its packed slots")
        return {k + mono: c for k, c in terms.items()}

    def pack_terms(self, terms: Terms) -> dict:
        return {self.pack(m): c for m, c in terms.items()}

    def rules(self, rules) -> "PackedRules":
        """(lhs key, packed rhs terms) pairs prepared for ``reduce``; build
        them once per rule set and pass them to every call."""
        if isinstance(rules, PackedRules):
            return rules
        return PackedRules(
            (lhs, self.value_mask(k for k, e in enumerate(self.unpack(lhs))
                                  if e),
             tuple(rhs.items()))
            for lhs, rhs in rules)

    def unread(self, rules) -> list:
        """The degree-one monomial of each variable that no rule's lhs
        holds, in variable order.

        ``reduce`` never reads such a variable v: whether an lhs divides a
        monomial, and what a rewrite makes of it, depend on the lhs slots
        alone (the degree slot follows from them), and adding one key to
        every key keeps their deglex order.  So for a normal form
        ``terms``, ``reduce(terms, rules, shift=m + v)`` equals
        ``shift(reduce(terms, rules, shift=m), v)`` item for item, dict
        order included: the same rewrites in the same order, every key
        moved by v.
        """
        held = 0
        for _, mask, _ in self.rules(rules):
            held |= mask
        out = []
        for k in range(self.nvars):
            if not self.value_mask((k,)) & held:
                unit = [0] * self.nvars
                unit[k] = 1
                out.append(self.pack(unit))
        return out

    def reduce(self, terms: dict, rules, shift: int = None) -> dict:
        """``reduce_terms`` on packed terms and packed rules; with ``shift``,
        the normal form of ``terms`` times the monomial ``shift``, ``terms``
        being a normal form modulo ``rules``.

        The same rewrites in the same order (rule by rule, monomials in
        descending order, passes until nothing changes), so the normal form
        is the one ``reduce_terms`` gives.  Coefficients may be ints or
        Fractions.  The rules are (lhs key, packed rhs terms) pairs, every
        rhs monomial below its lhs, or ``rules(pairs)``; so a rewrite makes
        only monomials of at most the degree of the one it removes, and no
        slot can overflow.

        A scan that cannot find a monomial to rewrite is skipped: after a
        rule's scan only a monomial made since can be divisible by its lhs,
        and a shifted normal form has one only where ``shift`` shares a
        variable with that lhs.
        """
        g = self.guard
        rules = self.rules(rules)
        if shift is None:
            terms = dict(terms)
            scanned = [-1] * len(rules)
        else:
            terms = self.shift(terms, shift)
            scanned = [-1 if shift & mask else 0 for _, mask, _ in rules]
        made = 0                      # keys inserted by rewrites so far
        changed = True
        while changed:
            changed = False
            for r, (lhs, _, rhs) in enumerate(rules):
                if scanned[r] == made:
                    continue
                scanned[r] = made
                hits = [m for m in terms if ((m | g) - lhs) & g == g]
                if not hits:
                    continue
                hits.sort(reverse=True)
                for mono in hits:
                    if mono not in terms:
                        continue
                    c = terms.pop(mono)
                    quot = mono - lhs
                    for k, rc in rhs:
                        m = quot + k
                        s = terms.get(m)
                        if s is None:
                            terms[m] = c * rc
                            made += 1
                        else:
                            s += c * rc
                            if s:
                                terms[m] = s
                            else:
                                del terms[m]
                    changed = True
        return terms


class PackedRules(tuple):
    """Rewrite rules as ``MonomialPacking.reduce`` reads them: one (lhs key,
    value mask of the lhs variables, rhs items) triple per rule, made by
    ``MonomialPacking.rules`` for that packing."""

    __slots__ = ()


def content(terms: Terms) -> Fraction:
    """Positive rational content, signed by the deglex-leading coefficient."""
    if not terms:
        return Fraction(1)
    num = 0
    den = 1
    for c in terms.values():
        num = math.gcd(num, abs(c.numerator))
        den = den * c.denominator // math.gcd(den, c.denominator)
    c = Fraction(num, den)
    lead = terms[max(terms, key=deglex_key)]
    return c if lead > 0 else -c


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

Coercible = Union["RingElement", int, Fraction]


class RingElement:
    """Immutable element of the ring described by ``spec``."""

    __slots__ = ("spec", "terms", "num", "den", "residue")

    def __init__(self, spec: RingSpec, terms: Terms = None,
                 num: Terms = None, den: Terms = None, residue: int = None,
                 _normalized: bool = False):
        self.spec = spec
        self.terms = None
        self.num = None
        self.den = None
        self.residue = None
        if spec.kind == "modular":
            self.residue = residue % spec.modulus
        elif spec.kind == "fraction":
            if not den:
                raise ZeroDivisionError("zero denominator")
            if _normalized:
                self.num, self.den = num, den
            else:
                self.num, self.den = _reduce_fraction(num, den)
        else:
            if _normalized or spec.kind == "poly":
                self.terms = dict(terms)
            else:
                self.terms = reduce_terms(terms, spec.rules)

    # -- helpers -------------------------------------------------------

    def _coerce(self, other: Coercible) -> "RingElement":
        if isinstance(other, RingElement):
            if other.spec != self.spec:
                raise SpecMismatch(f"{other.spec} vs {self.spec}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.spec.const(other)
        return NotImplemented

    def is_zero(self) -> bool:
        if self.spec.kind == "modular":
            return self.residue == 0
        if self.spec.kind == "fraction":
            return not self.num
        return not self.terms

    def is_one(self) -> bool:
        """self == 1, read off the stored form without any arithmetic."""
        kind = self.spec.kind
        if kind == "modular":
            return self.residue == 1
        if kind == "fraction":
            return self.num == self.den
        if self.terms == {self.spec._unit_mono(): 1}:
            return True
        # a quotient by a rule 1 -> 0 is the zero ring, where 1 = 0
        return (kind == "quotient" and not self.terms
                and any(not any(r.lhs) for r in self.spec.rules))

    def is_constant(self) -> bool:
        if self.spec.kind == "modular":
            return True
        unit = self.spec._unit_mono()
        if self.spec.kind == "fraction":
            return all(m == unit for m in self.num) and all(m == unit for m in self.den)
        return all(m == unit for m in self.terms)

    def constant_value(self) -> Fraction:
        """The rational value of a constant element (poly/quotient/fraction)."""
        if not self.is_constant():
            raise RingError("element is not constant")
        if self.spec.kind == "modular":
            return Fraction(self.residue)
        unit = self.spec._unit_mono()
        if self.spec.kind == "fraction":
            return self.num.get(unit, Fraction(0)) / self.den.get(unit)
        return self.terms.get(unit, Fraction(0))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        if spec.kind == "modular":
            return RingElement(spec, residue=self.residue + other.residue)
        if spec.kind == "fraction":
            num = add_terms(mul_terms(self.num, other.den),
                            mul_terms(other.num, self.den))
            return RingElement(spec, num=num, den=mul_terms(self.den, other.den))
        return RingElement(spec, terms=add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        if spec.kind == "modular":
            return RingElement(spec, residue=self.residue - other.residue)
        if spec.kind == "fraction":
            num = sub_terms(mul_terms(self.num, other.den),
                            mul_terms(other.num, self.den))
            return RingElement(spec, num=num, den=mul_terms(self.den, other.den))
        return RingElement(spec, terms=sub_terms(self.terms, other.terms))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        spec = self.spec
        if spec.kind == "modular":
            return RingElement(spec, residue=-self.residue)
        if spec.kind == "fraction":
            return RingElement(spec, num=scale_terms(self.num, Fraction(-1)),
                               den=self.den, _normalized=True)
        return RingElement(spec, terms=scale_terms(self.terms, Fraction(-1)),
                           _normalized=True)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        if spec.kind == "modular":
            return RingElement(spec, residue=self.residue * other.residue)
        if spec.kind == "fraction":
            return RingElement(spec, num=mul_terms(self.num, other.num),
                               den=mul_terms(self.den, other.den))
        return RingElement(spec, terms=mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise RingError("pow exponent must be a nonnegative integer")
        if self.spec.kind == "modular":
            return RingElement(self.spec, residue=pow(self.residue, n,
                                                      self.spec.modulus))
        out = self.spec.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * invert(other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.spec.const(other)
        if not isinstance(other, RingElement) or other.spec != self.spec:
            return NotImplemented
        if self.spec.kind == "modular":
            return self.residue == other.residue
        if self.spec.kind == "fraction":
            return not sub_terms(mul_terms(self.num, other.den),
                                 mul_terms(other.num, self.den))
        return self.terms == other.terms

    def __hash__(self):
        if self.spec.kind == "modular":
            return hash((self.spec.modulus, self.residue))
        if self.spec.kind == "fraction":
            # cross-multiplied equality admits no cheap canonical form
            raise TypeError("fraction-field elements are not hashable")
        return hash((self.spec.variables, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return format_element(self)


def _reduce_fraction(num: Terms, den: Terms):
    # monomial gcd and content reduction only; no polynomial gcd
    if not num:
        return {}, {(0,) * _arity(den): Fraction(1)}
    low = tuple(map(min, *num, *den))
    if any(low):
        num, den = ({tuple(e - k for e, k in zip(m, low)): c
                     for m, c in terms.items()} for terms in (num, den))
    else:
        num, den = dict(num), dict(den)
    c = content(den)
    if c != 1:
        num = scale_terms(num, 1 / c)
        den = scale_terms(den, 1 / c)
    return num, den


def _arity(terms: Terms) -> int:
    for m in terms:
        return len(m)
    return 0


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def invert(a: RingElement) -> RingElement:
    spec = a.spec
    if spec.kind == "modular":
        g = math.gcd(a.residue, spec.modulus)
        if g != 1:
            raise NotAUnit(f"{a.residue} is not a unit mod {spec.modulus}")
        return RingElement(spec, residue=pow(a.residue, -1, spec.modulus))
    if a.is_zero():
        raise NotAUnit("zero is not a unit")
    if spec.kind == "fraction":
        return RingElement(spec, num=a.den, den=a.num)
    # poly or quotient: units are (constant unit) + (nilpotent part)
    unit = spec._unit_mono()
    c = a.terms.get(unit, Fraction(0))
    if c == 0:
        raise NotAUnit(f"{a!r} has no constant term")
    rest = {m: x for m, x in a.terms.items() if m != unit}
    if not rest:
        return spec.const(1 / c)
    if spec.kind == "poly":
        raise NotAUnit(f"{a!r} is not a unit in a polynomial ring")
    # geometric series 1/(c+n) = (1/c) sum (-n/c)^k, valid when n is nilpotent
    n_over_c = RingElement(spec, terms=scale_terms(rest, -1 / c))
    acc = spec.one()
    power = spec.one()
    for _ in range(64):
        power = power * n_over_c
        if power.is_zero():
            inv = acc * spec.const(1 / c)
            if not (inv * a).is_one():
                raise RingError(f"{a!r}: computed inverse {inv!r} fails"
                                " the check inv * a = 1")
            return inv
        acc = acc + power
    raise NotAUnit(f"{a!r}: non-constant part is not visibly nilpotent")


def substitute(a: RingElement, bindings: Mapping[str, Coercible]) -> RingElement:
    """Evaluate ``a`` with some variables replaced.

    Binding values live in a common target ring (default: the ring of ``a``);
    unbound variables must exist in the target ring.
    """
    spec = a.spec
    if spec.kind == "modular":
        return a
    target = None
    for v in bindings.values():
        if isinstance(v, RingElement):
            target = v.spec
            break
    if target is None:
        target = spec
    vals = {}
    for name in spec.variables:
        if name in bindings:
            v = bindings[name]
            vals[name] = v if isinstance(v, RingElement) else target.const(v)
        else:
            vals[name] = target.var(name)  # raises if the target lacks it
    if spec.kind == "fraction":
        num = _eval_terms(a.num, spec, vals, target)
        den = _eval_terms(a.den, spec, vals, target)
        return num * invert(den)
    return _eval_terms(a.terms, spec, vals, target)


def _eval_terms(terms: Terms, spec: RingSpec, vals, target: RingSpec) -> RingElement:
    out = target.zero()
    for mono, c in sorted(terms.items()):
        t = target.const(c)
        for i, e in enumerate(mono):
            if e:
                t = t * vals[spec.variables[i]] ** e
        out = out + t
    return out


def map_to_modular(a: RingElement, p: int, bindings: Mapping[str, int]) -> RingElement:
    """Ring-homomorphic image in Z/p with every variable bound to a residue."""
    if p < 2:
        raise RingError("modulus must be >= 2")
    target = RingSpec("modular", modulus=p)
    spec = a.spec
    if spec.kind == "modular":
        raise RingError("element is already modular")
    for name in spec.variables:
        if name not in bindings:
            raise RingError(f"unbound variable {name!r}")

    def image(terms: Terms) -> int:
        total = 0
        for mono, c in terms.items():
            if math.gcd(c.denominator, p) != 1:
                raise DenominatorNotInvertible(
                    f"coefficient denominator {c.denominator} shares a factor with {p}")
            v = c.numerator * pow(c.denominator, -1, p)
            for i, e in enumerate(mono):
                if e:
                    v = v * pow(bindings[spec.variables[i]] % p, e, p)
            total = (total + v) % p
        return total

    if spec.kind == "fraction":
        den = image(a.den)
        if math.gcd(den, p) != 1:
            raise DenominatorNotInvertible(
                f"denominator maps to non-unit {den} mod {p}")
        return RingElement(target, residue=image(a.num) * pow(den, -1, p))
    return RingElement(target, residue=image(a.terms))


# Miller-Rabin on the primes 2..41 as bases is exact below PRIME_BOUND
# (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether the integer n is prime, by Miller-Rabin on the bases
    _PRIME_BASES; ValueError when n is at or above PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is not below {PRIME_BOUND}, where primality"
                         " is decided exactly")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    # n - 1 = d 2^s with d odd; a prime n has a^d = 1 or a^(d 2^i) = -1
    # for some i < s
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def integer_root(n: int, k: int):
    """r with r^k = n for integers n >= 0 and k >= 1, or None (Newton's
    method on integers from an overestimate, so no float precision is
    involved)."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r if r ** k == n else None
        r = s


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

def format_element(a: RingElement) -> str:
    spec = a.spec
    if spec.kind == "modular":
        return str(a.residue)
    if spec.kind == "fraction":
        n = format_terms(a.num, spec.variables)
        if all(m == spec._unit_mono() for m in a.den) and a.den.get(spec._unit_mono()) == 1:
            return n
        return f"({n})/({format_terms(a.den, spec.variables)})"
    return format_terms(a.terms, spec.variables)


def format_terms(terms: Terms, variables) -> str:
    if not terms:
        return "0"
    parts = []
    for mono in sorted(terms, key=deglex_key, reverse=True):
        c = terms[mono]
        factors = []
        for name, e in zip(variables, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


class _ExprParser:
    """Recursive-descent parser for +, -, *, /, ^, parentheses, rationals
    and ring variables.  Its cursor (``text``, ``pos`` and the token
    readers) is the one chevgroup's word parser reads words on."""

    def __init__(self, text: str, spec: RingSpec):
        self.text = text
        self.pos = 0
        self.spec = spec

    def parse(self) -> RingElement:
        value = self.expr()
        self.end("expression")
        return value

    def end(self, what: str):
        if self.peek():
            raise ParseError(f"trailing input in {what} {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> RingElement:
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            value = -self.term()
        else:
            if ch == "+":
                self.pos += 1
            value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> RingElement:
        value = self.power()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                value = value * self.power()
            elif ch == "/":
                self.pos += 1
                value = value / self.power()
            else:
                return value

    def power(self) -> RingElement:
        base = self.atom()
        if self.peek() != "^":
            return base
        neg, n = self.exponent()
        return invert(base) ** n if neg else base ** n

    def exponent(self):
        """Read '^', an optional '-' and an integer: (negative, n)."""
        self.expect("^")
        neg = self.peek() == "-"
        if neg:
            self.pos += 1
        if not self.peek().isdecimal():
            self.fail("an exponent")
        return neg, self.integer()

    def expect(self, ch: str):
        if self.peek() != ch:
            self.fail(repr(ch))
        self.pos += 1

    def fail(self, wanted: str):
        rest = self.text[self.pos:]
        where = f"at {rest!r} in" if rest else "at the end of"
        raise ParseError(f"expected {wanted} {where} {self.text!r}")

    def atom(self) -> RingElement:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            self.expect(")")
            return value
        if ch.isdecimal():
            return self.spec.const(self.integer())
        return self.spec.var(self.identifier())

    def identifier(self) -> str:
        if not (self.peek().isalpha() or self.peek() == "_"):
            self.fail("a name")
        start = self.pos
        while (self.pos < len(self.text)
               and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
            self.pos += 1
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            self.fail("an integer")
        return int(self.text[start:self.pos])


def parse_expr(text: str, spec: RingSpec) -> RingElement:
    return _ExprParser(text, spec).parse()
