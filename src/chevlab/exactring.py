"""Exact commutative-ring arithmetic.

Four kinds of ring are supported, selected by a RingSpec:

  poly      sparse multivariate polynomials with rational coefficients
  quotient  a poly ring reduced by an ordered list of rewrite rules
  fraction  the fraction field of a poly ring (reduced by content only)
  modular   Z/n

Polynomials are dicts mapping dense exponent tuples to nonzero Fractions.
``MonomialPacking`` packs exponent tuples into ints, for hot loops that need
only deglex order, monomial products and divisibility.
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


class RingSpec:
    """Description of a ring; shared by all its elements."""

    __slots__ = ("kind", "variables", "rules", "modulus", "_var_index")

    def __init__(self, kind: str, variables: Iterable[str] = (),
                 rules: Iterable[RewriteRule] = (), modulus: int = 0):
        if kind not in ("poly", "quotient", "fraction", "modular"):
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

SLOT_BITS = 8     # per slot: 7 value bits under 1 guard bit


class MonomialPacking:
    """Exponent tuples of ``nvars`` variables packed into one int.

    The key holds the slots (deg, e0, ..., e_{n-1}), most significant first,
    each SLOT_BITS wide with its top bit a guard that a packed monomial
    keeps clear.  So int order is deglex order, a monomial product is the
    sum of two keys, and l divides m exactly when ((m | G) - l) & G == G,
    G being the mask of guard bits: a slot where m is smaller than l
    borrows its own guard bit and nothing beyond it.
    """

    __slots__ = ("nvars", "guard")

    def __init__(self, nvars: int):
        self.nvars = nvars
        top = 1 << (SLOT_BITS - 1)
        self.guard = sum(top << (SLOT_BITS * i) for i in range(nvars + 1))

    def pack(self, exps: Exponents) -> int:
        if len(exps) != self.nvars:
            raise RingError(f"expected {self.nvars} exponents, got {len(exps)}")
        if any(e < 0 for e in exps):
            raise RingError(f"negative exponent in {tuple(exps)}")
        key = sum(exps)
        if key >> (SLOT_BITS - 1):
            raise RingError(f"degree of {tuple(exps)} does not fit"
                            f" {SLOT_BITS - 1}-bit slots")
        for e in exps:
            key = (key << SLOT_BITS) | e
        return key

    def unpack(self, key: int) -> Exponents:
        mask = (1 << SLOT_BITS) - 1
        exps = []
        for _ in range(self.nvars):
            exps.append(key & mask)
            key >>= SLOT_BITS
        return tuple(reversed(exps))

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

    def unpack_terms(self, terms: dict) -> Terms:
        return {self.unpack(k): Fraction(c) for k, c in terms.items()}

    def pack_rule(self, rule: RewriteRule):
        """(lhs key, rhs terms on keys); the coefficients are kept."""
        return self.pack(rule.lhs), self.pack_terms(rule.rhs)

    def reduce(self, terms: dict, rules) -> dict:
        """``reduce_terms`` on packed terms and packed rules.

        The same rewrites in the same order (rule by rule, monomials in
        descending order, passes until nothing changes), so the normal form
        is the one ``reduce_terms`` gives.  Coefficients may be ints or
        Fractions.  The rules are (lhs, rhs) pairs as ``pack_rule`` makes
        them, every rhs monomial below its lhs; so a rewrite makes only
        monomials of at most the degree of the one it removes, and no slot
        can overflow.
        """
        terms = dict(terms)
        g = self.guard
        rules = [(lhs, tuple(rhs.items())) for lhs, rhs in rules]
        changed = True
        while changed:
            changed = False
            for lhs, rhs in rules:
                hits = [m for m in sorted(terms, reverse=True)
                        if ((m | g) - lhs) & g == g]
                for mono in hits:
                    if mono not in terms:
                        continue
                    c = terms.pop(mono)
                    quot = mono - lhs
                    for r, rc in rhs:
                        m = quot + r
                        s = terms.get(m)
                        if s is None:
                            terms[m] = c * rc
                        else:
                            s += c * rc
                            if s:
                                terms[m] = s
                            else:
                                del terms[m]
                    changed = True
        return terms


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
        return (self - 1).is_zero()

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
    # content reduction only; no polynomial gcd
    num = dict(num)
    den = dict(den)
    if not num:
        return {}, {(0,) * _arity(den): Fraction(1)}
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
    if spec.kind == "fraction":
        if not a.num:
            raise NotAUnit("zero is not a unit")
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


def assert_denominators_divide_power_of_six(a: RingElement):
    """All in-scope identities have coefficients in Z[1/6]; flag anything else."""
    if a.spec.kind in ("poly", "quotient"):
        for c in a.terms.values():
            d = c.denominator
            for q in (2, 3):
                while d % q == 0:
                    d //= q
            if d != 1:
                raise RingError(f"coefficient {c} has denominator outside Z[1/6]")


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
    and ring variables."""

    def __init__(self, text: str, spec: RingSpec):
        self.text = text
        self.pos = 0
        self.spec = spec

    def parse(self) -> RingElement:
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise RingError(f"trailing input in expression {self.text!r}")
        return value

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
        if self.peek() == "^":
            self.pos += 1
            neg = False
            if self.peek() == "-":
                neg = True
                self.pos += 1
            n = self.integer()
            return invert(base) ** n if neg else base ** n
        return base

    def atom(self) -> RingElement:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            if self.peek() != ")":
                raise RingError(f"missing ')' in {self.text!r}")
            self.pos += 1
            return value
        if ch.isdigit():
            return self.spec.const(self.integer())
        if ch.isalpha() or ch == "_":
            start = self.pos
            while (self.pos < len(self.text)
                   and (self.text[self.pos].isalnum() or self.text[self.pos] == "_")):
                self.pos += 1
            return self.spec.var(self.text[start:self.pos])
        raise RingError(f"cannot parse expression at {self.text[self.pos:]!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise RingError(f"expected integer in {self.text!r}")
        return int(self.text[start:self.pos])


def parse_expr(text: str, spec: RingSpec) -> RingElement:
    return _ExprParser(text, spec).parse()
