"""Factorization calculus: rank-one identities, Gauss decomposition over
Z/p^k for A1 and brute-force Bruhat decomposition over small fields.

The Gauss factors are read off the entries of the ``a1std`` matrix, with
at most one square root taken, and re-multiplied as the one check.

The rank-one factorization is implemented in the form that actually holds
in the Chevalley normalization used throughout this package:

    x_{-g}(u) x_g(v) = x_g(v/z) h_g(z)^{-1} x_{-g}(u/z),   z = 1 + uv.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .chevgroup import (AdjointMatrix, ChevalleyBasis, GroupWord, build_basis,
                        default_realization, evaluate_word)
from .exactring import (NotAUnit, RingElement, RingError, RingSpec,
                        integer_root, invert, is_prime)
from .rootsys import Root, SystemType, positive_roots, simple_roots
from .shacheck import CapExceeded, element_keys, generate_group, matrix_array


class NoFactorization(Exception):
    pass


class ElementNotInGroup(Exception):
    pass


class MissingRewriteRule(Exception):
    pass


class GaussFactorization:
    """M = torus * x_a(a1) * x_{-a}(b) * x_a(c) with torus = diag(t,1/t,1)."""

    __slots__ = ("torus", "u1", "v", "u2")

    def __init__(self, torus: GroupWord, u1: GroupWord, v: GroupWord,
                 u2: GroupWord):
        self.torus = torus
        self.u1 = u1
        self.v = v
        self.u2 = u2

    def word(self) -> GroupWord:
        return self.torus * self.u1 * self.v * self.u2

    def __repr__(self):
        return f"Gauss[{self.word().format_text()}]"


class BruhatFactorization:
    """M = torus * u * weyl * u_prime over a field."""

    __slots__ = ("torus", "u", "weyl", "u_prime", "weyl_word")

    def __init__(self, torus, u, weyl, u_prime, weyl_word=()):
        self.torus = torus
        self.u = u
        self.weyl = weyl
        self.u_prime = u_prime
        self.weyl_word = tuple(weyl_word)  # simple-reflection indices

    def word(self) -> GroupWord:
        return self.torus * self.u * self.weyl * self.u_prime

    def __repr__(self):
        return f"Bruhat[w={self.weyl_word}: {self.word().format_text()}]"


def rank_one_factor(gamma: Root, u: RingElement, v: RingElement) -> GroupWord:
    """The word x_g(v/z) h_g(1/z) x_{-g}(u/z), z = 1+uv, equal to
    x_{-g}(u) x_g(v).  Raises NotAUnit when 1+uv is not invertible."""
    z = u.spec.one() + u * v
    z_inv = invert(z)
    system = gamma.system
    return (GroupWord.x(system, gamma, v * z_inv)
            * GroupWord.h(system, gamma, z_inv)
            * GroupWord.x(system, -gamma, u * z_inv))


def nilpotent_commute(gamma: Root, u: RingElement) -> GroupWord:
    """For u with u^2 = 0: the word h_g(1-u) x_g(1+u) x_{-g}(u), equal to
    x_{-g}(u) x_g(1)."""
    if not (u * u).is_zero():
        raise MissingRewriteRule("the working ring does not force u^2 = 0")
    one = u.spec.one()
    system = gamma.system
    return (GroupWord.h(system, gamma, one - u)
            * GroupWord.x(system, gamma, one + u)
            * GroupWord.x(system, -gamma, u))


# ---------------------------------------------------------------------------
# Gauss decomposition for A1 over Z/p^k
# ---------------------------------------------------------------------------

def _unit_sqrts(x: RingElement) -> list:
    """The unit square roots of x in Z/p^k, p an odd prime, in increasing
    order: none, or r and p^k - r.  p is the exact k-th root of the modulus
    for the largest such k.  Tonelli-Shanks finds a root mod p, and
    Hensel's lemma lifts it uniquely, one power of p at least per step
    r <- r - (r^2 - x) / 2r."""
    spec = x.spec
    n = spec.modulus
    k = n.bit_length()
    while (p := integer_root(n, k)) is None:
        k -= 1
    if n % 2 == 0 or not is_prime(p):
        raise RingError(f"square roots need an odd prime power modulus,"
                        f" not {n}")
    a = x.residue
    if pow(a, (p - 1) // 2, p) != 1:
        return []
    # p - 1 = q 2^s with q odd, and z a non-residue mod p
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # t has order 2^i < 2^s; c has order 2^s
        i, t2 = 0, t
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    for _ in range(k - 1):
        r = (r - (r * r - a) * pow(2 * r, -1, n)) % n
    lo, hi = sorted((r, n - r))
    return [spec.const(lo), spec.const(hi)]


def gauss_decompose_a1(M: AdjointMatrix,
                       basis: ChevalleyBasis) -> GaussFactorization:
    """TUVU factorization of an element of E(A1, Z/p^k) given in the
    standard 3x3 realization, read off its entries; verified by
    re-multiplication.

    M is the image of an SL2 matrix [[A, B], [C, D]]: row 0 is
    (A^2, B^2, 2AB), row 1 (C^2, D^2, 2CD) and row 2 (AC, BD, AD + BC).
    When D is a unit, M = t1(1/D^2) x_a(BD) x_{-a}(C/D), read off e(1,1),
    e(2,1) and e(1,2) whatever the sign of the lift, and M is in the
    image exactly when e(1,1) is a square.  When D is in the radical, B
    and C are units and M = x_a(B - Ac) x_{-a}(C) x_a(c), c = (D - 1)/C,
    from the lift with the smaller root of A^2, or of B^2 when A^2 is not
    a unit."""
    if M.realization != "a1std":
        raise RingError("gauss_decompose_a1 expects the a1std realization")
    spec = M.spec
    if spec.kind != "modular":
        raise RingError("gauss_decompose_a1 works over Z/p^k")
    try:
        half = invert(spec.const(2))
    except NotAUnit:
        raise RingError(f"the Gauss decomposition needs 2 invertible, and it"
                        f" is not mod {spec.modulus}; the Bruhat decomposition"
                        " (--bruhat) works over F_2") from None

    def is_unit(x):
        return math.gcd(x.residue, spec.modulus) == 1

    def root(x):
        roots = _unit_sqrts(x)
        if not roots:
            raise NoFactorization("matrix is not in the image of SL2")
        return roots[0]

    e = M.entry
    if is_unit(e(1, 1)):
        root(e(1, 1))  # only tests that e(1,1) is a square
        t = invert(e(1, 1))
        a, b, c = e(2, 1), e(1, 2) * half * t, spec.zero()
    else:
        if is_unit(e(0, 0)):
            A = root(e(0, 0))
            Ai = invert(A)
            B, C = e(0, 2) * half * Ai, e(2, 0) * Ai
            D = (e(2, 2) + 1) * half * Ai
        else:
            B = root(e(0, 1))
            Bi = invert(B)
            A, D = e(0, 2) * half * Bi, e(2, 1) * Bi
            C = (e(2, 2) - 1) * half * Bi
        if not is_unit(C):
            raise NoFactorization("matrix is not in the image of SL2")
        t, b = spec.one(), C
        c = (D - 1) * invert(C)
        a = B - A * c
    alpha = Root("A1", (1,))
    fact = GaussFactorization(
        GroupWord.t("A1", 0, t),
        GroupWord.x("A1", alpha, a),
        GroupWord.x("A1", -alpha, b),
        GroupWord.x("A1", alpha, c))
    check = evaluate_word(fact.word(), basis, "a1std", spec=spec)
    if not (check - M).is_zero():
        raise NoFactorization("re-multiplication check failed")
    return fact


# ---------------------------------------------------------------------------
# Bruhat decomposition by search and lookup over a small field
# ---------------------------------------------------------------------------

# the largest group or unipotent radical U a Bruhat search enumerates, and
# the most candidate matrices it stacks at once
BRUHAT_CAP = 100000


class _BruhatContext:
    """Enumerated torus T, unipotent radical U and Weyl representatives of
    E(system, F_p): their words, and stacks of their integer arrays mod p
    and of the arrays of their inverses.  Only the letters of words are
    evaluated as AdjointMatrix, each once; ``array`` multiplies a word from
    their arrays."""

    def __init__(self, system, p: int):
        self.system = SystemType(system)
        self.p = p
        pos = positive_roots(self.system)
        if p ** len(pos) > BRUHAT_CAP:
            raise CapExceeded(
                f"|U| = {p}^{len(pos)} = {p ** len(pos)} exceeds the Bruhat"
                f" search bound {BRUHAT_CAP}")
        self.realization = default_realization(self.system)
        self._basis = build_basis(self.system)
        spec = self._spec = RingSpec("modular", modulus=p)
        self._letters = {}
        ident = self._ident = self._evaluate(GroupWord(self.system))

        def closure(words, coset):
            """Breadth-first products of ``words`` from the identity, as
            (generator indices, word, array) in (length, word) order; a
            product is new when no element of product @ coset is known."""
            gens = [self.array(w) for w in words]
            seen = set(self.keys(ident[None]))
            found = frontier = [((), GroupWord(self.system), ident)]
            while frontier:
                nxt = []
                for idx, word, m in frontier:
                    for i, g in enumerate(gens):
                        m2 = m @ g % p
                        if seen.isdisjoint(self.keys(m2 @ coset)):
                            seen.update(self.keys(m2[None]))
                            nxt.append((idx + (i,), word * words[i], m2))
                found, frontier = found + nxt, nxt
            return zip(*found)

        _, self.torus_words, torus = closure(
            [GroupWord.h(self.system, g, spec.const(u))
             for g in pos for u in range(2, p)], ident[None])
        self.torus = np.stack(torus)

        # U in coordinate order; u_index maps a key to its first position
        self.u_words = [
            GroupWord(self.system, [("x", root, spec.const(t))
                                    for root, t in zip(pos, params) if t])
            for params in itertools.product(range(p), repeat=len(pos))]
        self.u = np.stack([self.array(w) for w in self.u_words])
        self.u_index = {}
        for i, k in enumerate(self.keys(self.u)):
            self.u_index.setdefault(k, i)

        # Weyl representatives, one per coset of T
        idx, weyl_words, weyl = closure(
            [GroupWord.w(self.system, g, spec.one())
             for g in simple_roots(self.system)], self.torus)
        self.weyl_reps = list(zip(idx, weyl_words))
        self.weyl = np.stack(weyl)

        self.torus_inv, self.u_inv, self.weyl_inv = (
            np.stack([self.array(w.inverse()) for w in words])
            for words in (self.torus_words, self.u_words, weyl_words))

    def _evaluate(self, word: GroupWord) -> np.ndarray:
        return matrix_array(evaluate_word(word, self._basis, self.realization,
                                          spec=self._spec),
                            self.realization, self.p)

    def array(self, word: GroupWord) -> np.ndarray:
        """The integer array mod p of ``word``: the product of the cached
        arrays of its letters."""
        out, letters = self._ident, self._letters
        for letter in word.letters:
            m = letters.get(letter)
            if m is None:
                m = letters[letter] = self._evaluate(
                    GroupWord(word.system, [letter]))
            out = out @ m % self.p
        return out

    def keys(self, stack) -> list:
        """The ``shacheck`` keys of a stack of integer matrices."""
        return element_keys(stack, self.realization, self.p)


def _bruhat_context(system, p) -> _BruhatContext:
    return _context(SystemType(system).tag, p)


@functools.cache
def _context(tag: str, p: int) -> _BruhatContext:
    return _BruhatContext(tag, p)


def bruhat_cells(system, p):
    """All Bruhat factorizations of every element of E(system, F_p):
    map matrix key -> list of Weyl words whose cell contains the element."""
    ctx = _bruhat_context(system, p)
    table = generate_group(system, p, cap=BRUHAT_CAP)
    cells = {key: [] for key in table.index}
    for (wword, _), w in zip(ctx.weyl_reps, ctx.weyl):
        seen = set()
        for t in ctx.torus:
            for left in (t @ ctx.u) % p @ w % p:
                for k in ctx.keys(left @ ctx.u):
                    if k in cells and k not in seen:
                        seen.add(k)
                        cells[k].append(wword)
    return cells, table


def bruhat_bruteforce(M, system, p: int) -> BruhatFactorization:
    """Search t * u * w * u' = M stratified by Weyl word; the first match in
    canonical order wins.  M is an AdjointMatrix or a GroupWord, which is
    multiplied from the context's letter arrays.

    For each (w, t, u) in that order, u' = w^-1 u^-1 t^-1 M is the only
    candidate, so it is looked up in U instead of searched for.  All (t, u)
    of one w are tried in stacked products, t-major, each stack at most
    ``BRUHAT_CAP`` matrices."""
    ctx = _bruhat_context(system, p)
    target = (ctx.array(M) if isinstance(M, GroupWord)
              else matrix_array(M, ctx.realization, p))
    torus_m = ctx.torus_inv @ target % p
    size = len(ctx.u_words)
    step = max(1, BRUHAT_CAP // size)
    for (wword, wgw), w_inv in zip(ctx.weyl_reps, ctx.weyl_inv):
        for start in range(0, len(torus_m), step):
            stack = w_inv @ (ctx.u_inv @ torus_m[start:start + step, None]
                             % p)
            keys = ctx.keys(stack.reshape(-1, *stack.shape[-2:]))
            for i, k in enumerate(keys):
                pos = ctx.u_index.get(k)
                if pos is not None:
                    t, u = divmod(i, size)
                    return BruhatFactorization(
                        ctx.torus_words[start + t], ctx.u_words[u], wgw,
                        ctx.u_words[pos], wword)
    raise ElementNotInGroup("no Bruhat factorization found")
