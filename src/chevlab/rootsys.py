"""Root-system combinatorics for the four low-rank types A1, A2, B2, G2.

Roots are integer coordinate vectors in the simple-root basis.  For the
two-root types the first simple root is called ``a`` and the second ``b``;
in B2 and G2 the convention is a long, b short.
"""

from __future__ import annotations

from fractions import Fraction

SYSTEMS = ("A1", "A2", "B2", "G2")

# positive roots in the canonical order used for all U+ normal forms
_POSITIVE = {
    "A1": ((1,),),
    "A2": ((1, 0), (0, 1), (1, 1)),
    "B2": ((1, 0), (0, 1), (1, 1), (1, 2)),
    "G2": ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)),
}

# Gram matrices of the simple roots, normalized so short roots have length^2 = 2
_GRAM = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((4, -2), (-2, 2)),
    "G2": ((6, -3), (-3, 2)),
}


class SystemType:
    __slots__ = ("tag",)

    def __init__(self, tag):
        if isinstance(tag, SystemType):
            tag = tag.tag
        if tag not in SYSTEMS:
            raise ValueError(f"unknown system type {tag!r}")
        self.tag = tag

    @property
    def rank(self) -> int:
        return 1 if self.tag == "A1" else 2

    def __eq__(self, other):
        return isinstance(other, SystemType) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag


class Root:
    __slots__ = ("system", "coords")

    def __init__(self, system, coords):
        system = SystemType(system)
        coords = tuple(int(c) for c in coords)
        if not is_root(coords, system):
            raise ValueError(f"{coords} is not a root of {system}")
        self.system = system
        self.coords = coords

    @property
    def length_class(self) -> str:
        n = _norm2(self.coords, self.system)
        longest = max(_norm2(r, self.system) for r in _POSITIVE[self.system.tag])
        return "long" if n == longest else "short"

    def __neg__(self):
        return Root(self.system, tuple(-c for c in self.coords))

    def __add__(self, other):
        _same(self, other)
        return Root(self.system, tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __eq__(self, other):
        return (isinstance(other, Root) and self.system == other.system
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.system, self.coords))

    def __repr__(self):
        return f"Root({self.system}, {self.coords})"


def _same(a: Root, b: Root):
    if a.system != b.system:
        raise ValueError("roots belong to different systems")


def _norm2(coords, system: SystemType) -> int:
    g = _GRAM[system.tag]
    return sum(coords[i] * g[i][j] * coords[j]
               for i in range(len(coords)) for j in range(len(coords)))


def _inner(x, y, system: SystemType) -> int:
    g = _GRAM[system.tag]
    return sum(x[i] * g[i][j] * y[j]
               for i in range(len(x)) for j in range(len(y)))


def positive_roots(system) -> list:
    system = SystemType(system)
    return [Root(system, c) for c in _POSITIVE[system.tag]]


def all_roots(system) -> list:
    pos = positive_roots(system)
    return pos + [-r for r in pos]


def simple_roots(system) -> list:
    system = SystemType(system)
    return positive_roots(system)[: system.rank]


def is_root(coords, system) -> bool:
    system = SystemType(system)
    coords = tuple(int(c) for c in coords)
    if len(coords) != system.rank:
        return False
    table = _POSITIVE[system.tag]
    return coords in table or tuple(-c for c in coords) in table


def cartan_integer(beta: Root, alpha: Root) -> int:
    """<beta, alpha-check> = 2 (beta, alpha) / (alpha, alpha)."""
    _same(beta, alpha)
    value = Fraction(2 * _inner(beta.coords, alpha.coords, beta.system),
                     _norm2(alpha.coords, alpha.system))
    if value.denominator != 1:
        raise ValueError(f"<{beta}, {alpha}-check> = {value}"
                         " is not an integer")
    return int(value)


def reflect(gamma: Root, alpha: Root) -> Root:
    _same(gamma, alpha)
    n = cartan_integer(gamma, alpha)
    return Root(gamma.system,
                tuple(g - n * a for g, a in zip(gamma.coords, alpha.coords)))


def root_string(alpha: Root, beta: Root):
    """The alpha-string through beta: largest (p, q) such that
    beta - p*alpha, ..., beta + q*alpha are all roots."""
    _same(alpha, beta)
    if alpha == beta or alpha == -beta:
        raise ValueError("root string undefined for alpha = +/- beta")
    p = 0
    while is_root(tuple(b - (p + 1) * a for b, a in zip(beta.coords, alpha.coords)),
                  alpha.system):
        p += 1
    q = 0
    while is_root(tuple(b + (q + 1) * a for b, a in zip(beta.coords, alpha.coords)),
                  alpha.system):
        q += 1
    return p, q


def coroot_coefficients(gamma: Root) -> tuple:
    """Integers c_i with gamma-check = sum c_i alpha_i-check."""
    out = []
    for i, alpha in enumerate(simple_roots(gamma.system)):
        c = Fraction(gamma.coords[i] * _norm2(alpha.coords, gamma.system),
                     _norm2(gamma.coords, gamma.system))
        if c.denominator != 1:
            raise ValueError(f"{gamma}-check has the non-integral"
                             f" coefficient {c}")
        out.append(int(c))
    return tuple(out)
