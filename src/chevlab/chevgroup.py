"""Chevalley bases, adjoint matrices and symbolic group words.

The Chevalley basis is built abstractly: the structure constants N_{g,d}
are a recorded sign times (p+1) on the extraspecial pairs
(``_EXTRASPECIAL_SIGNS``), and every other one follows by one memoized
recursion on root height through the opposite-pair, antisymmetry, triple
and four-root identities (Carter, Simple Groups of Lie Type, 1972, section
4.2).  Then the whole bracket table is verified (Jacobi on all pairs of
basis elements, |N| = p+1, coroot brackets).  The Jacobi check and the
powers of ad e_g apply the sparse bracket table to sparse vectors.
Finally the displayed commutator relations are checked: the recorded signs
are the ones that give the normalization every identity this package
checks relies on, and any other choice fails a displayed relation.

Realizations are data: each is a ``Realization`` record on the basis
(dimension, the sparse entries of every x_g(t), the diagonal exponents of
h_g(u) and t_i(u)), and one code path per letter reads it.
  adjoint  dim 3 / 8 / 10 / 14 matrices acting on the Lie algebra itself
  pgl3     the standard 3x3 model of the A2 adjoint group (equality is
           only meaningful up to scalar)
  a1std    the standard 3x3 model of the A1 adjoint group: the A1 adjoint
           realization on the basis (-e_a, e_{-a}, h)

The centralizer families of x_a(1) x_b(1) (``standard_family``) live here
too.

Every product -- of two matrices, of one root element's entries, of a whole
word -- is one call of the kernel of its ring's kind (``_KERNELS``).  Over a
poly or quotient ring it is ``_poly_product``: integer numerators on
monomials packed by one ``exactring.MonomialPacking``, its slots sized to
the total degree, unpacked once at the end, each quotient-ring entry then
reduced once by the ring's rules.  Over a fraction ring,
``_fraction_product`` puts each factor over one polynomial denominator and
runs ``_poly_product`` on the numerators.  Over Z/n, ``_residue_product``
multiplies integer residues through the same ``_packed_times``, reduced mod
n after each product.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .exactring import (MonomialPacking, ParseError, RingElement, RingError,
                        RingSpec, _ExprParser, invert, parse_expr)
from .rootsys import (Root, SystemType, cartan_integer, coroot_coefficients,
                      is_root, positive_roots, root_string, simple_roots,
                      _norm2)


class RealizationError(Exception):
    pass


class Realization(NamedTuple):
    """A matrix model of the group as data: x_g(t) = sum of c t^k E_ij over
    ``exp_entries[g]`` = [(i, j, k, c), ...] (k ascending), and h_g(u),
    t_i(u) are diagonal with u^n at position k for n =
    ``h_exponents[g][k]``, ``t_exponents[i][k]``."""
    dim: int
    exp_entries: dict
    h_exponents: dict
    t_exponents: tuple


# ---------------------------------------------------------------------------
# structure constants
# ---------------------------------------------------------------------------

def _sparse_sum(terms) -> dict:
    """Sum of c * vec over (c, vec) pairs of sparse vectors, zeros dropped."""
    out = {}
    for c, vec in terms:
        for k, x in vec.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


# the sign of N on the extraspecial pair of each non-simple positive root,
# keyed by that root.  These signs may be chosen freely and fix every other
# N_{g,d} (Carter, 1972, section 4.2); the recorded ones are those under
# which the displayed commutator relations hold.  Rescaling e_g by chi(g)
# for a character chi of the root lattice leaves N unchanged, so no other
# sign choice is left.
_EXTRASPECIAL_SIGNS = {
    "A1": {},
    "A2": {(1, 1): 1},
    "B2": {(1, 1): -1, (1, 2): 1},
    "G2": {(1, 1): 1, (1, 2): -1, (1, 3): 1, (2, 3): 1},
}


def _structure_constants(system: SystemType) -> dict:
    """N_{g,d} for all ordered root pairs with g+d a root: the recorded
    sign times (p+1) on the extraspecial pairs, every other value by one
    recursion on the height of g + d (Carter, section 4.2)."""
    signs = _EXTRASPECIAL_SIGNS[system.tag]
    pos = [r.coords for r in positive_roots(system)]
    order = {c: i for i, c in enumerate(pos)}
    roots = pos + [tuple(-x for x in c) for c in pos]
    rootset = set(roots)

    def plus(x, y):
        return tuple(a + b for a, b in zip(x, y))

    def neg(x):
        return tuple(-v for v in x)

    def norm2(x):
        return _norm2(x, system)

    def magnitude(g, d):
        p, _ = root_string(Root(system, g), Root(system, d))
        return p + 1

    # the extraspecial pair (x, y) of a positive root s: x is the earliest
    # positive root with x + y = s for a later positive root y
    extraspecial = {}
    for x, y in itertools.combinations(pos, 2):
        extraspecial.setdefault(plus(x, y), (x, y))

    def term(a, b, c, d):
        # N_ab N_cd / (a+b, a+b), and 0 when a + b is not a root
        s = plus(a, b)
        return Fraction(n(a, b) * n(c, d), norm2(s)) if s in rootset else 0

    # the four-root step reaches only roots of lower height than g + d; the
    # other steps stay inside the triple g, d, -(g+d), so the recursion ends
    @functools.cache
    def n(g, d):
        e = neg(plus(g, d))
        if g not in order and d not in order:
            return -n(neg(g), neg(d))
        if (g in order) != (d in order):
            # g + d + e = 0 and two of g, d, e share a sign:
            # N_{g,d}/(e,e) = N_{d,e}/(g,g) = N_{e,g}/(d,d)
            if (d in order) == (e in order):
                value = Fraction(n(d, e) * norm2(e), norm2(g))
            else:
                value = Fraction(n(e, g) * norm2(e), norm2(d))
        elif order[g] > order[d]:
            return -n(d, g)
        elif (g, d) == extraspecial[neg(e)]:
            return signs[neg(e)] * magnitude(g, d)
        else:
            # the four-root identity on g + d - x - y = 0, where (x, y) is
            # the extraspecial pair of g + d
            x, y = extraspecial[neg(e)]
            value = Fraction(norm2(e), n(x, y)) * (
                term(d, neg(x), g, neg(y)) + term(neg(x), g, d, neg(y)))
        if value.denominator != 1:
            raise RuntimeError(f"non-integral N for {(g, d)} in {system}")
        return int(value)

    N = {(g, d): n(g, d) for g in roots for d in roots
         if plus(g, d) in rootset}
    for (g, d), val in N.items():
        if abs(val) != magnitude(g, d):
            raise RuntimeError(f"|N_{{{g},{d}}}| = {abs(val)} in {system},"
                               f" not {magnitude(g, d)}")
    return N


class ChevalleyBasis:
    """Chevalley basis from the recorded extraspecial signs, verified
    against the displayed commutator relations, with cached adjoint data.

    Basis order: e_g for positive g in canonical order, the simple coroots,
    then e_{-g} in canonical order.
    """

    def __init__(self, system):
        self.system = SystemType(system)
        self.pos = positive_roots(self.system)
        self.simple = simple_roots(self.system)
        self.rank = self.system.rank
        self.dim = 2 * len(self.pos) + self.rank
        self.labels = ([("e", r) for r in self.pos]
                       + [("h", i) for i in range(self.rank)]
                       + [("e", -r) for r in self.pos])
        self.index = {}
        for i, lab in enumerate(self.labels):
            self.index[lab if lab[0] == "h" else ("e", lab[1].coords)] = i
        self.N = _structure_constants(self.system)
        self._build_adjoint()
        # any extraspecial sign but the recorded one fails one of these
        for (g, d), want in _DISPLAYED_RELATIONS[self.system.tag].items():
            got = commutator_relation(self, self.root(g),
                                      self.root(d)).constants()
            if got != want:
                raise RuntimeError(f"[{g}, {d}] gives {got}, not the"
                                   f" displayed {want}")

    # -- bracket table ------------------------------------------------

    def _bracket_basis(self, gi: int, gj: int):
        """[v_i, v_j] as a dict index -> int coefficient."""
        li, lj = self.labels[gi], self.labels[gj]
        if li[0] == "h" and lj[0] == "h":
            return {}
        if li[0] == "h":
            g = lj[1]
            n = cartan_integer(g, self.simple[li[1]])
            return {gj: n} if n else {}
        if lj[0] == "h":
            g = li[1]
            n = cartan_integer(g, self.simple[lj[1]])
            return {gi: -n} if n else {}
        g, d = li[1], lj[1]
        if g == -d:
            out = {}
            for k, c in enumerate(coroot_coefficients(g)):
                if c:
                    out[self.index[("h", k)]] = c
            return out
        s = tuple(x + y for x, y in zip(g.coords, d.coords))
        if is_root(s, self.system):
            return {self.index[("e", s)]: self.N[(g.coords, d.coords)]}
        return {}

    def _build_adjoint(self):
        """The Jacobi identity on the whole bracket table of N, then the
        adjoint data read off that table."""
        dim = self.dim
        # bracket[i][j] is [v_i, v_j] as a sparse dict, the coroots included
        bracket = [[self._bracket_basis(i, j) for j in range(dim)]
                   for i in range(dim)]

        def ad(i, vec):
            """[v_i, vec] for a sparse vector vec."""
            return _sparse_sum((c, bracket[i][j]) for j, c in vec.items())

        # ad is a Lie-algebra homomorphism on every pair of basis vectors:
        # ad([v_i, v_j]) v_k == [ad v_i, ad v_j] v_k for every v_k; this is
        # the Jacobi identity.  Both sides are antisymmetric in i, j.
        pairs = itertools.combinations(range(dim), 2)
        for (i, j), k in itertools.product(pairs, range(dim)):
            lhs = _sparse_sum((c, bracket[m][k])
                              for m, c in bracket[i][j].items())
            rhs = _sparse_sum(((1, ad(i, bracket[j][k])),
                               (-1, ad(j, bracket[i][k]))))
            if lhs != rhs:
                raise RuntimeError("ad is not a Lie-algebra homomorphism on"
                                   f" {self.labels[i]}, {self.labels[j]}")
        self.ad = {lab[1].coords: [[bracket[i][j].get(k, 0)
                                    for j in range(dim)] for k in range(dim)]
                   for i, lab in enumerate(self.labels) if lab[0] == "e"}
        # exp(t ad e_g) = sum_k t^k ad^k / k!, kept as its nonzero entries
        # (i, j, k, ad^k[i][j] / k!), integers on a Chevalley basis
        # (Steinberg, 1967; Carter, 1972, section 4.4); ad e_g^k moves the
        # root grading by k g, so each entry (i, j) comes from one k alone.
        # Column j of ad^k is ad e_g applied k times to v_j.
        exp_entries = {}
        for coords in self.ad:
            g = self.index[("e", coords)]
            entries = [(r, r, 0, 1) for r in range(dim)]
            columns = {j: {j: 1} for j in range(dim)}
            k = 1
            fact = 1
            while columns := {j: col for j, vec in columns.items()
                              if (col := ad(g, vec))}:
                fact *= k
                if any(x % fact for col in columns.values()
                       for x in col.values()):
                    raise RuntimeError(f"(ad e_{coords})^{k}/{k}! is not"
                                       " integral")
                entries += sorted((r, j, k, x // fact)
                                  for j, col in columns.items()
                                  for r, x in col.items())
                k += 1
                if k > dim + 1:
                    raise RuntimeError(f"ad e_{coords} is not nilpotent")
            if len({(r, c) for r, c, _, _ in entries}) != len(entries):
                raise RuntimeError(f"powers of ad e_{coords} share an entry")
            exp_entries[coords] = entries
        # delta in the root grading is scaled by u^<delta, g-check> under
        # h_g(u) and by u^(coefficient of alpha_i in delta) under t_i(u)
        def diagonal(value):
            return tuple(0 if lab[0] == "h" else value(lab[1])
                         for lab in self.labels)

        adjoint = Realization(
            dim, exp_entries,
            {g.coords: diagonal(lambda d: cartan_integer(d, g))
             for g in self.pos + [-r for r in self.pos]},
            tuple(diagonal(lambda d: d.coords[i]) for i in range(self.rank)))
        self.realizations = {"adjoint": adjoint}
        if self.system.tag == "A1":
            self.realizations["a1std"] = _permuted(adjoint, _A1STD_FRAME)
        elif self.system.tag == "A2":
            self.realizations["pgl3"] = _PGL3

    # -- helpers ----------------------------------------------------------

    def root(self, name) -> Root:
        if isinstance(name, Root):
            return name
        return parse_root(name, self.system)

    def realization(self, name: str) -> Realization:
        """The record of realization ``name``; RealizationError when this
        system has none by that name."""
        rec = self.realizations.get(name)
        if rec is None:
            for tag, model in _MODELS.items():
                if name == model:
                    raise RealizationError(f"{name} is an {tag} realization")
            raise RealizationError(f"unknown realization {name!r}")
        return rec


# the displayed commutator relations that pin the normalization
_DISPLAYED_RELATIONS = {
    "A1": {},
    "A2": {
        ("a1", "a2"): {(1, 1): 1},
        ("a1", "-a1-a2"): {(1, 1): -1},
        ("a2", "-a1-a2"): {(1, 1): 1},
        ("a1+a2", "-a1"): {(1, 1): -1},
        ("a1+a2", "-a2"): {(1, 1): 1},
    },
    "B2": {
        ("a", "b"): {(1, 1): -1, (1, 2): -1},
        ("a+b", "b"): {(1, 1): -2},
    },
    "G2": {
        ("a", "b"): {(1, 1): 1, (1, 2): -1, (1, 3): -1, (2, 3): 1},
        ("a+b", "b"): {(1, 1): 2, (1, 2): 3, (2, 1): 3},
        ("a", "a+3b"): {(1, 1): 1},
        ("a+2b", "b"): {(1, 1): -3},
        ("a+b", "a+2b"): {(1, 1): 3},
    },
}


def build_basis(system) -> ChevalleyBasis:
    return _basis(SystemType(system).tag)


@functools.cache
def _basis(tag: str) -> ChevalleyBasis:
    return ChevalleyBasis(tag)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class AdjointMatrix:
    __slots__ = ("spec", "rows", "realization")

    def __init__(self, spec: RingSpec, rows, realization: str):
        self.spec = spec
        self.rows = rows
        self.realization = realization

    @property
    def dim(self):
        return len(self.rows)

    def _check_shape(self, other: "AdjointMatrix", verb: str):
        # a realization name alone does not fix the size: A1 and A2 both
        # have an adjoint realization
        if (self.realization, self.dim) != (other.realization, other.dim):
            raise RealizationError(
                f"cannot {verb} a {self.dim}x{self.dim} {self.realization} and"
                f" a {other.dim}x{other.dim} {other.realization} matrix")

    def __mul__(self, other: "AdjointMatrix") -> "AdjointMatrix":
        self._check_shape(other, "multiply")
        if self.spec != other.spec:
            raise RingError("matrices live in different rings")
        return _product(self.spec, self.dim, [self, other], self.realization)

    def __sub__(self, other: "AdjointMatrix") -> "AdjointMatrix":
        self._check_shape(other, "subtract")
        return AdjointMatrix(self.spec,
                             [[a - b for a, b in zip(ra, rb)]
                              for ra, rb in zip(self.rows, other.rows)],
                             self.realization)

    def __eq__(self, other):
        return (isinstance(other, AdjointMatrix)
                and (self.realization, self.dim)
                == (other.realization, other.dim)
                and all(a == b for ra, rb in zip(self.rows, other.rows)
                        for a, b in zip(ra, rb)))

    def __hash__(self):
        raise TypeError("AdjointMatrix is not hashable; use a key function")

    def is_identity(self) -> bool:
        return all(a.is_one() if i == j else a.is_zero()
                   for i, row in enumerate(self.rows)
                   for j, a in enumerate(row))

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.rows for a in row)

    def trace(self) -> RingElement:
        t = self.spec.zero()
        for i in range(self.dim):
            t = t + self.rows[i][i]
        return t

    def entry(self, i, j) -> RingElement:
        return self.rows[i][j]

    def scale(self, c) -> "AdjointMatrix":
        return AdjointMatrix(self.spec, [[a * c for a in row] for row in self.rows],
                             self.realization)

    def __repr__(self):
        body = "\n".join("  [" + ", ".join(repr(a) for a in row) + "]"
                         for row in self.rows)
        return f"<{self.realization} {self.dim}x{self.dim}\n{body}\n>"


def _poly_product(spec: RingSpec, dim: int, factors) -> list:
    """The rows of the product of ``factors`` (at least one), dim x dim
    matrices over a poly ring.

    A factor is an ``AdjointMatrix`` or a root element (entries, t): the sum
    of c t^k E_ij over its realization entries (i, j, k, c), k ascending and
    c an int.  Each factor is put over one common denominator as integer
    numerators on monomials packed by one ``MonomialPacking``, whose slots
    hold the sum of the factors' degrees, so a sum of keys is a monomial
    product that never overflows.  The running product stays packed; each
    output term becomes one Fraction at the end.
    """
    degree = 0
    for f in factors:
        if isinstance(f, AdjointMatrix):
            degree += max((sum(m) for row in f.rows for x in row
                           for m in x.terms), default=0)
        else:
            entries, t = f
            degree += entries[-1][2] * max(map(sum, t.terms), default=0)
    packing = MonomialPacking(len(spec.variables), degree.bit_length() + 1)
    keys = {}

    def numerators(terms, den):
        out = []
        for m, c in terms.items():
            k = keys.get(m)
            if k is None:
                k = keys[m] = packing.pack(m)
            out.append((k, c.numerator * (den // c.denominator)))
        return out

    def lcm_den(terms):
        return math.lcm(*(c.denominator for c in terms))

    def packed(f):
        """(den, rows) of one factor, rows as ``_packed_times`` reads them."""
        if isinstance(f, AdjointMatrix):
            den = lcm_den(c for row in f.rows for x in row
                          for c in x.terms.values())
            return den, [[(j, numerators(x.terms, den))
                          for j, x in enumerate(row) if x.terms]
                         for row in f.rows]
        entries, t = f
        top = entries[-1][2]
        tden = lcm_den(t.terms.values())
        tnum = numerators(t.terms, tden)
        # the numerators of t^k as 1 x 1 products (1 packs to the key 0);
        # t = 0 has no nonzero power but t^0
        powers = [[(0, 1)]]
        while len(powers) <= top and tnum:
            (_, power), = _packed_times([[(0, powers[-1])]],
                                        [[(0, tnum)]])[0]
            powers.append(power)
        rows = [[] for _ in range(dim)]
        for i, j, k, c in entries:
            if k < len(powers):
                scale = c * tden ** (top - k)
                rows[i].append((j, [(m, scale * x) for m, x in powers[k]]))
        return tden ** top, rows

    den, acc = packed(factors[0])
    for f in factors[1:]:
        fden, rows = packed(f)
        den *= fden
        acc = _packed_times(acc, rows)
    unpacked = {}
    zero = spec.zero()
    out = []
    for arow in acc:
        row = [zero] * dim
        for j, terms in arow:
            d = {}
            for k, c in terms:
                m = unpacked.get(k)
                if m is None:
                    m = unpacked[k] = packing.unpack(k)
                d[m] = Fraction(c, den)
            row[j] = RingElement(spec, terms=d)
        out.append(row)
    return out


def _packed_times(a, b, modulus: int = 0) -> list:
    """The product of two sparse matrices of packed integer polynomials,
    row i a list of (j, [(key, numerator), ...]) over its nonzero entries,
    j ascending; with a ``modulus``, every numerator is reduced by it."""
    out = []
    for arow in a:
        acc = {}
        for k, aterms in arow:
            for j, bterms in b[k]:
                d = acc.get(j)
                if d is None:
                    d = acc[j] = {}
                for ma, ca in aterms:
                    for mb, cb in bterms:
                        m = ma + mb
                        d[m] = d.get(m, 0) + ca * cb
        row = []
        for j in sorted(acc):
            d = acc[j]
            if modulus:
                d = {m: c % modulus for m, c in d.items()}
            terms = [(m, c) for m, c in d.items() if c]
            if terms:
                row.append((j, terms))
        out.append(row)
    return out


def _residue_product(spec: RingSpec, dim: int, factors) -> list:
    """The rows of the product of ``factors`` (at least one), dim x dim
    matrices over Z/n, factors as ``_poly_product`` takes them.

    Each factor becomes rows of residues, one single-term entry (key 0) per
    nonzero residue.  The factors are multiplied by ``_packed_times``,
    reduced mod n after each product, and each output entry becomes one
    ``RingElement`` at the end.
    """
    n = spec.modulus

    def residues(f):
        if isinstance(f, AdjointMatrix):
            return [[(j, [(0, x.residue)]) for j, x in enumerate(row)
                     if x.residue] for row in f.rows]
        entries, t = f
        powers = [1]
        for _ in range(entries[-1][2]):
            powers.append(powers[-1] * t.residue % n)
        rows = [[] for _ in range(dim)]
        for i, j, k, c in entries:
            x = powers[k] * c % n
            if x:
                rows[i].append((j, [(0, x)]))
        return rows

    acc = residues(factors[0])
    for f in factors[1:]:
        acc = _packed_times(acc, residues(f), n)
    zero = spec.zero()
    out = []
    for arow in acc:
        row = [zero] * dim
        for j, ((_, x),) in arow:
            row[j] = RingElement(spec, residue=x)
        out.append(row)
    return out


def _fraction_product(spec: RingSpec, dim: int, factors) -> list:
    """The rows of the product of ``factors`` over a fraction ring, taken as
    ``_poly_product`` takes them: one ``_poly_product`` on the numerators of
    each factor over one polynomial denominator, then one content reduction
    per output entry."""
    poly = RingSpec("poly", spec.variables)
    den, mats = poly.one(), []
    for f in factors:
        rows = [[poly.zero()] * dim for _ in range(dim)]
        if isinstance(f, AdjointMatrix):
            # over the product of the entries' distinct denominators, each
            # entry times the others, so nothing is divided
            dens = {}
            for i, row in enumerate(f.rows):
                for j, x in enumerate(row):
                    if x.num:
                        rows[i][j] = RingElement(poly, terms=x.num)
                        dens.setdefault(frozenset(x.den.items()), x.den)
            for key, d in dens.items():
                d = RingElement(poly, terms=d)
                den *= d
                for i, row in enumerate(f.rows):
                    for j, x in enumerate(row):
                        if x.num and frozenset(x.den.items()) != key:
                            rows[i][j] *= d
        else:
            # t = n/d: c t^k is c n^k d^(top-k) over d^top
            entries, t = f
            top = entries[-1][2]
            n = RingElement(poly, terms=t.num)
            d = RingElement(poly, terms=t.den)
            weights = [n ** k * d ** (top - k) for k in range(top + 1)]
            for i, j, k, c in entries:
                rows[i][j] = weights[k] * c
            den *= d ** top
        mats.append(AdjointMatrix(poly, rows, None))
    out = _poly_product(poly, dim, mats)
    for row in out:
        for j, x in enumerate(row):
            row[j] = RingElement(spec, num=x.terms, den=den.terms)
    return out


# one product kernel per ring kind
_KERNELS = {"poly": _poly_product, "quotient": _poly_product,
            "fraction": _fraction_product, "modular": _residue_product}


def _product(spec: RingSpec, dim: int, factors, realization) -> AdjointMatrix:
    """The product of ``factors`` by the kernel of the ring's kind."""
    return AdjointMatrix(spec, _KERNELS[spec.kind](spec, dim, factors),
                         realization)


def identity_matrix(spec: RingSpec, dim: int, realization: str) -> AdjointMatrix:
    one, zero = spec.one(), spec.zero()
    return AdjointMatrix(spec, [[one if i == j else zero for j in range(dim)]
                                for i in range(dim)], realization)


def matrix_from_entries(spec: RingSpec, entries, realization: str) -> AdjointMatrix:
    rows = []
    for row in entries:
        out = []
        for a in row:
            if isinstance(a, RingElement):
                out.append(a)
            elif isinstance(a, str):
                out.append(parse_expr(a, spec))
            else:
                out.append(spec.const(a))
        rows.append(out)
    return AdjointMatrix(spec, rows, realization)


# the 3x3 model of each system that has one
_MODELS = {"A1": "a1std", "A2": "pgl3"}


def default_realization(system) -> str:
    """The realization used unless one is asked for: the 3x3 models for A1
    and A2, the adjoint representation otherwise."""
    return _MODELS.get(SystemType(system).tag, "adjoint")


def _permuted(rec: Realization, frame) -> Realization:
    """``rec`` rewritten on the basis whose k-th vector is sign * v_index
    for frame[k] = (index, sign), v the basis of ``rec``."""
    new = {old: (k, sign) for k, (old, sign) in enumerate(frame)}

    def entry(i, j, k, c):
        (a, sa), (b, sb) = new[i], new[j]
        return a, b, k, sa * sb * c

    def diagonal(exps):
        return tuple(exps[old] for old, _ in frame)

    return Realization(
        rec.dim,
        {g: [entry(*e) for e in es] for g, es in rec.exp_entries.items()},
        {g: diagonal(exps) for g, exps in rec.h_exponents.items()},
        tuple(diagonal(exps) for exps in rec.t_exponents))


# a1std is the A1 adjoint realization on the basis (-e_a, e_{-a}, h)
_A1STD_FRAME = ((0, -1), (2, 1), (1, 1))

# x_g(t) = 1 + t E_ij in the standard 3-dim lift, so h_g has weight +1 at
# i, -1 at j and 0 elsewhere
_PGL3_UNITS = {
    (1, 0): (0, 1), (0, 1): (1, 2), (1, 1): (0, 2),
    (-1, 0): (1, 0), (0, -1): (2, 1), (-1, -1): (2, 0),
}

_PGL3 = Realization(
    3, {g: [(k, k, 0, 1) for k in range(3)] + [(i, j, 1, 1)]
        for g, (i, j) in _PGL3_UNITS.items()},
    {g: tuple((k == i) - (k == j) for k in range(3))
     for g, (i, j) in _PGL3_UNITS.items()},
    ((1, 0, 0), (0, 0, -1)))


def root_element(basis: ChevalleyBasis, gamma, t: RingElement,
                 realization: str = "adjoint") -> AdjointMatrix:
    gamma = basis.root(gamma)
    rec = basis.realization(realization)
    entries = rec.exp_entries[gamma.coords]
    return _product(t.spec, rec.dim, [(entries, t)], realization)


def _diagonal(u: RingElement, exponents, realization: str) -> AdjointMatrix:
    """diag(u^n for n in exponents); u must be a unit, in every realization,
    and is inverted once."""
    u_inv = invert(u)
    m = identity_matrix(u.spec, len(exponents), realization)
    for k, n in enumerate(exponents):
        m.rows[k][k] = u ** n if n >= 0 else u_inv ** -n
    return m


def torus_element(basis: ChevalleyBasis, gamma, u: RingElement,
                  realization: str = "adjoint") -> AdjointMatrix:
    gamma = basis.root(gamma)
    return _diagonal(
        u, basis.realization(realization).h_exponents[gamma.coords],
        realization)


def diag_torus(basis: ChevalleyBasis, i: int, u: RingElement,
               realization: str = "adjoint") -> AdjointMatrix:
    """t_i(u): the adjoint-torus generator scaling x_delta(s) by u^(coefficient
    of the i-th simple root in delta)."""
    if i < 0 or i >= basis.rank:
        raise RealizationError(f"no torus coordinate t{i + 1} in {basis.system}")
    return _diagonal(u, basis.realization(realization).t_exponents[i],
                     realization)


def weyl_element(basis: ChevalleyBasis, gamma, u: RingElement,
                 realization: str = "adjoint") -> AdjointMatrix:
    """x_g(u) x_{-g}(-1/u) x_g(u), one product of three root elements."""
    gamma = basis.root(gamma)
    rec = basis.realization(realization)
    x = rec.exp_entries[gamma.coords]
    y = rec.exp_entries[(-gamma).coords]
    return _product(u.spec, rec.dim, [(x, u), (y, -invert(u)), (x, u)],
                    realization)


# ---------------------------------------------------------------------------
# group words
# ---------------------------------------------------------------------------

class GroupWord:
    """A word in x_g(p), h_g(u), w_g(u), t_i(u)."""

    __slots__ = ("system", "letters")

    def __init__(self, system, letters=()):
        self.system = SystemType(system)
        self.letters = tuple(letters)

    @staticmethod
    def x(system, root, param):
        return GroupWord(system, [("x", Root(system, _coords(root, system)), param)])

    @staticmethod
    def h(system, root, param):
        return GroupWord(system, [("h", Root(system, _coords(root, system)), param)])

    @staticmethod
    def w(system, root, param):
        return GroupWord(system, [("w", Root(system, _coords(root, system)), param)])

    @staticmethod
    def t(system, i, param):
        return GroupWord(system, [("t", i, param)])

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.system != other.system:
            raise RealizationError(f"cannot multiply a {self.system} word by"
                                   f" a {other.system} word")
        return GroupWord(self.system, self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        out = []
        for kind, what, p in reversed(self.letters):
            if kind == "x":
                out.append(("x", what, -p))
            elif kind == "w":
                out.append(("w", what, -p))
            else:
                out.append((kind, what, invert(p)))
        return GroupWord(self.system, out)

    def __pow__(self, n: int) -> "GroupWord":
        if n < 0:
            return self.inverse() ** (-n)
        return GroupWord(self.system, self.letters * n)

    def spec(self) -> RingSpec:
        for _, _, p in self.letters:
            return p.spec
        return None

    def format_text(self) -> str:
        """Round-trippable text in the word grammar."""
        parts = []
        for kind, what, p in self.letters:
            if kind == "t":
                parts.append(f"t{what + 1}({p!r})")
            else:
                parts.append(f"{kind}({format_root(what)}, {p!r})")
        return " ".join(parts)

    def __repr__(self):
        return f"GroupWord[{self.system}: {self.format_text() or '1'}]"


def _coords(root, system):
    if isinstance(root, Root):
        return root.coords
    if isinstance(root, tuple):
        return root
    return parse_root(root, system).coords


def evaluate_word(word: GroupWord, basis: ChevalleyBasis = None,
                  realization: str = "adjoint",
                  spec: RingSpec = None) -> AdjointMatrix:
    if basis is None:
        basis = build_basis(word.system)
    if basis.system != word.system:
        raise RealizationError(f"a {word.system} word needs a {word.system}"
                               f" basis, not {basis.system}")
    if spec is None:
        spec = word.spec()
    if spec is None:
        raise RingError("cannot evaluate an empty word without a ring spec")
    rec = basis.realization(realization)
    matrices = {"h": torus_element, "w": weyl_element, "t": diag_torus}
    factors = []                # multiplied out once, below
    for kind, what, p in word.letters:
        if p.spec != spec:
            raise RingError("word letters live in different rings")
        factors.append((rec.exp_entries[basis.root(what).coords], p)
                       if kind == "x" else
                       matrices[kind](basis, what, p, realization))
    if not factors:
        return identity_matrix(spec, rec.dim, realization)
    return _product(spec, rec.dim, factors, realization)


# ---------------------------------------------------------------------------
# unipotent coordinates and commutator relations
# ---------------------------------------------------------------------------

def _positive_functional(roots, system: SystemType):
    rank = system.rank
    if rank == 1:
        s = 1 if all(r.coords[0] > 0 for r in roots) else -1
        if not all(s * r.coords[0] > 0 for r in roots):
            raise ValueError("roots do not span a pointed cone")
        return (s,)
    for m in range(-6, 7):
        for n in range(-6, 7):
            if all(m * r.coords[0] + n * r.coords[1] > 0 for r in roots):
                return (m, n)
    raise ValueError("roots do not span a pointed cone")


def unipotent_coordinates(M: AdjointMatrix, basis: ChevalleyBasis, roots):
    """Coordinates p_g with M = prod x_g(p_g), factors ordered by increasing
    level of a functional positive on ``roots`` (canonical order within a
    level).  Raises ValueError when M has no such factorization.

    On the lowest level left, no sum of two or more of the roots is a root
    g of that level, so the entry (e_g, h_i) of M is p_g [e_g, h_i] =
    -<g, alpha_i-check> p_g alone, and the entry (h_i, e_{-g}) is p_g times
    the alpha_i-check coefficient of g-check alone.  Each p_g is read off
    the first of these entries whose coefficient is +-1, so no division
    happens and any commutative ring will do (every root of A1, A2, B2 and
    G2 has one); the level is then peeled, and the final identity check
    certifies the whole factorization."""
    roots = list(roots)
    if not roots:
        if not M.is_identity():
            raise ValueError("matrix is not the identity")
        return []
    phi = _positive_functional(roots, basis.system)
    levels = {}
    for r in roots:
        levels.setdefault(sum(m * c for m, c in zip(phi, r.coords)),
                          []).append(r)
    h_index = [basis.index[("h", i)] for i in range(basis.rank)]
    out = []
    for lv in sorted(levels):
        found = []
        for g in levels[lv]:
            ad = basis.ad[g.coords]
            e_g = basis.index[("e", g.coords)]
            e_neg = basis.index[("e", (-g).coords)]
            entries = ([(e_g, h) for h in h_index]
                       + [(h, e_neg) for h in h_index])
            row, col = next((r, c) for r, c in entries
                            if ad[r][c] in (1, -1))
            # the coefficient ad[row][col] is +-1, its own inverse
            found.append((g, M.rows[row][col] * ad[row][col]))
        out += found
        # peel the level: M becomes x_{r_k}(-p_k) ... x_{r_1}(-p_1) M
        inv = GroupWord(basis.system,
                        [("x", r, -p) for r, p in reversed(found)])
        M = evaluate_word(inv, basis, M.realization, M.spec) * M
    if not M.is_identity():
        raise ValueError("matrix is not a product of the given root elements")
    return out


class CommutatorRelation:
    """[x_g(t), x_d(u)] = prod over factors x_{i g + j d}(c t^i u^j)."""

    __slots__ = ("g", "d", "factors")

    def __init__(self, g: Root, d: Root, factors):
        self.g = g
        self.d = d
        self.factors = tuple(factors)  # (i, j, Root, int constant)

    def is_trivial(self):
        return not self.factors

    def constants(self):
        return {(i, j): c for i, j, _, c in self.factors}

    def format(self) -> str:
        g, d = format_root(self.g), format_root(self.d)
        if not self.factors:
            return f"[x({g},t), x({d},u)] = 1"
        parts = []
        for i, j, root, c in self.factors:
            ti = "t" if i == 1 else f"t^{i}"
            uj = "u" if j == 1 else f"u^{j}"
            coef = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            parts.append(f"x({format_root(root)}, {coef}{ti}*{uj})")
        return f"[x({g},t), x({d},u)] = " + " ".join(parts)


def commutator_relation(basis: ChevalleyBasis, g, d) -> CommutatorRelation:
    g, d = basis.root(g), basis.root(d)
    if g == d or g == -d:
        raise ValueError("commutator relation undefined for g = +/- d")
    spec = RingSpec("poly", ("t", "u"))
    t, u = spec.var("t"), spec.var("u")
    comm = evaluate_word(GroupWord(basis.system, [
        ("x", g, t), ("x", d, u), ("x", g, -t), ("x", d, -u)]), basis)
    span = []
    for i in range(1, 5):
        for j in range(1, 5):
            coords = tuple(i * x + j * y for x, y in zip(g.coords, d.coords))
            if is_root(coords, basis.system):
                span.append((i, j, Root(basis.system, coords)))
    if not span:
        if not comm.is_identity():
            raise RuntimeError(f"[x_{g}, x_{d}] is not 1 though no"
                               " i g + j d is a root")
        return CommutatorRelation(g, d, [])
    coord_list = unipotent_coordinates(comm, basis, [r for _, _, r in span])
    by_root = {r.coords: (i, j) for i, j, r in span}
    factors = []
    for root, p in coord_list:
        if p.is_zero():
            continue
        i, j = by_root[root.coords]
        mono = {k for k in p.terms}
        if mono != {(i, j)}:
            raise RuntimeError(f"non-monomial commutator coordinate {p!r}")
        c = p.terms[(i, j)]
        if c.denominator != 1:
            raise RuntimeError(f"non-integral commutator coefficient {c}")
        factors.append((i, j, root, int(c)))
    return CommutatorRelation(g, d, factors)


def trace_poly(basis: ChevalleyBasis, gamma) -> RingElement:
    gamma = basis.root(gamma)
    spec = RingSpec("poly", ("t", "s"))
    t, s = spec.var("t"), spec.var("s")
    return evaluate_word(GroupWord(basis.system, [
        ("x", gamma, t), ("x", -gamma, s)]), basis).trace()


def pgl3_equal(M: AdjointMatrix, N: AdjointMatrix) -> bool:
    """Projective equality M = lambda N over a field."""
    if M.realization != "pgl3" or N.realization != "pgl3":
        raise RealizationError("pgl3_equal compares pgl3 matrices")
    if M.spec != N.spec:
        raise RingError("matrices live in different rings")
    if M.spec.kind not in ("modular", "fraction"):
        raise RingError("projective equality needs a field")
    lam = None
    for i in range(3):
        for j in range(3):
            a, b = M.rows[i][j], N.rows[i][j]
            if b.is_zero() != a.is_zero():
                return False
            if lam is None and not b.is_zero():
                lam = a * invert(b)
    if lam is None:
        return True
    return all((M.rows[i][j] - lam * N.rows[i][j]).is_zero()
               for i in range(3) for j in range(3))


# ---------------------------------------------------------------------------
# centralizer families
# ---------------------------------------------------------------------------

class CentralizerFamily:
    """A claimed parametrization of the centralizer of x0 inside U+.

    ``letters`` is a list of (root name, parameter expression); expressions
    reference the free parameters.  ``matrix_family`` (A1 only) is a grid
    of expressions instead.
    """

    def __init__(self, system, x0, letters=None, free=(), constraints=None,
                 matrix_family=None):
        self.system = SystemType(system)
        self.x0 = x0
        self.letters = letters or []
        self.free = tuple(free)
        self.constraints = dict(constraints or {})
        self.matrix_family = matrix_family
        self.realization = default_realization(self.system)

    def ring(self) -> RingSpec:
        return RingSpec("poly", self.free)

    def word_text(self) -> str:
        parts = []
        for root, param in self.letters:
            expr = self.constraints.get(param, param)
            parts.append(f"x({root}, {expr})")
        return " ".join(parts)


def standard_family(system) -> CentralizerFamily:
    tag = SystemType(system).tag
    if tag == "A1":
        return CentralizerFamily(
            "A1", "x(a,1)",
            matrix_family=[["p", "q", "2*r"], ["0", "p", "0"],
                           ["0", "r", "p"]],
            free=("p", "q", "r"))
    if tag == "A2":
        return CentralizerFamily(
            "A2", "x(a1,1) x(a2,1)",
            letters=[("a1", "a"), ("a2", "a"), ("a1+a2", "b")],
            free=("a", "b"))
    if tag == "B2":
        return CentralizerFamily(
            "B2", "x(a,1) x(b,1)",
            letters=[("a", "b"), ("b", "b"), ("a+b", "q3"), ("a+2b", "d")],
            free=("b", "d"),
            constraints={"q3": "(b^2-b)/2"})
    return CentralizerFamily(
        "G2", "x(a,1) x(b,1)",
        letters=[("a", "b"), ("b", "b"), ("a+b", "q3"), ("a+2b", "q4"),
                 ("a+3b", "q5"), ("2a+3b", "d")],
        free=("b", "d"),
        constraints={"q3": "(b-b^2)/2",
                     "q4": "-2/3*b^3 + 1/2*b^2 + 1/6*b",
                     "q5": "3/4*b^4 - 1/2*b^3 - 1/4*b^2"})


# ---------------------------------------------------------------------------
# root-name and word grammar
# ---------------------------------------------------------------------------

_ROOT_SYMBOLS = {
    "A1": {"a": (1,), "alpha": (1,)},
    "A2": {"a1": (1, 0), "a2": (0, 1)},
    "B2": {"a": (1, 0), "b": (0, 1)},
    "G2": {"a": (1, 0), "b": (0, 1)},
}


def parse_root(text: str, system) -> Root:
    parser = _WordParser(text, SystemType(system), None)
    root = parser.root()
    parser.end("root")
    return root


def format_root(root: Root) -> str:
    system = root.system
    symbols = _ROOT_SYMBOLS[system.tag]
    basis_names = [None] * system.rank
    for name, base in symbols.items():
        for i, b in enumerate(base):
            if b == 1 and sum(map(abs, base)) == 1:
                basis_names[i] = name
    parts = []
    for i, c in enumerate(root.coords):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        parts.append(f"{sign}{'' if mag == 1 else mag}{basis_names[i]}")
    return "".join(parts)


class _WordParser(_ExprParser):
    """The word grammar on the expression parser's cursor: a letter's root
    and parameter are read in place, each once."""

    def __init__(self, text: str, system: SystemType, spec: RingSpec):
        super().__init__(text, spec)
        self.system = system

    def parse(self) -> GroupWord:
        word = self.sequence()
        self.end("word")
        return word

    def sequence(self) -> GroupWord:
        word = GroupWord(self.system)
        while True:
            ch = self.peek()
            if ch == "" or ch == ")":
                return word
            if ch == "*":
                self.pos += 1
                continue
            word = word * self.item()

    def item(self) -> GroupWord:
        if self.peek() == "(":
            self.pos += 1
            inner = self.sequence()
            self.expect(")")
            return self.postfix(inner)
        name = self.identifier()
        self.expect("(")
        if name in ("x", "h", "w"):
            root = self.root()
            self.expect(",")
            letter = (name, root, self.expr())
        elif name in ("t1", "t2"):
            i = int(name[1]) - 1
            if i >= self.system.rank:
                raise ParseError(f"no torus coordinate {name} in {self.system}")
            letter = ("t", i, self.expr())
        else:
            raise ParseError(f"unknown word letter {name!r}")
        self.expect(")")
        return self.postfix(GroupWord(self.system, [letter]))

    def postfix(self, word: GroupWord) -> GroupWord:
        if self.peek() != "^":
            return word
        neg, n = self.exponent()
        return word ** (-n if neg else n)

    def root(self) -> Root:
        """``[c1,c2]``, or a sum of signed multiples of the simple-root
        symbols.  Whitespace may separate tokens but not split a symbol."""
        if self.peek() == "[":
            self.pos += 1
            coords = [self.sign() * self.integer()]
            while self.peek() == ",":
                self.pos += 1
                coords.append(self.sign() * self.integer())
            self.expect("]")
            return Root(self.system, coords)
        symbols = _ROOT_SYMBOLS[self.system.tag]
        coords = [0] * self.system.rank
        while True:
            sign = self.sign()
            coef = self.integer() if self.peek().isdecimal() else 1
            name = self.identifier()
            if name not in symbols:
                raise ParseError(f"unknown root symbol {name!r} in {self.text!r}")
            for i, b in enumerate(symbols[name]):
                coords[i] += sign * coef * b
            if self.peek() not in ("+", "-"):
                return Root(self.system, coords)

    def sign(self) -> int:
        """An optional '+' or '-', read as 1 or -1."""
        ch = self.peek()
        if ch in ("+", "-"):
            self.pos += 1
        return -1 if ch == "-" else 1


def parse_word(text: str, system, spec: RingSpec) -> GroupWord:
    return _WordParser(text, SystemType(system), spec).parse()
