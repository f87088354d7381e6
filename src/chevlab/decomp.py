"""Factorization calculus: rank-one identities, Gauss decomposition over
Z/p^k for A1, brute-force Bruhat decomposition over small fields, and
generic factorization verification.

The rank-one factorization is implemented in the form that actually holds
in the Chevalley normalization used throughout this package:

    x_{-g}(u) x_g(v) = x_g(v/z) h_g(z)^{-1} x_{-g}(u/z),   z = 1 + uv.
"""

from __future__ import annotations

import functools
import itertools

from .chevgroup import (AdjointMatrix, ChevalleyBasis, GroupWord,
                        _realization_dim, build_basis, default_realization,
                        evaluate_word, identity_matrix, pgl3_equal,
                        root_element, weyl_element)
from .exactring import NotAUnit, RingElement, RingError, RingSpec, invert
from .rootsys import Root, SystemType, positive_roots, simple_roots


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

def _a1std_matrix(spec, A, B, C, D) -> AdjointMatrix:
    # image of the SL2 matrix [[A,B],[C,D]] in the standard 3x3 realization
    two = spec.const(2)
    rows = [[A * A, B * B, two * A * B],
            [C * C, D * D, two * C * D],
            [A * C, B * D, A * D + B * C]]
    return AdjointMatrix(spec, rows, "a1std")


def _lift_to_sl2(M: AdjointMatrix):
    """Recover an SL2 matrix (A,B,C,D) over Z/p^k mapping to M, or None."""
    spec = M.spec
    n = spec.modulus

    def units_sqrt(x: RingElement):
        return [spec.const(r) for r in range(n) if (r * r - x.residue) % n == 0]

    def is_unit(x):
        try:
            invert(x)
            return True
        except NotAUnit:
            return False

    half = invert(spec.const(2))
    e = M.entry
    candidates = []
    if is_unit(e(0, 0)):
        for A in units_sqrt(e(0, 0)):
            if not is_unit(A):
                continue
            Ai = invert(A)
            candidates.append((A, e(0, 2) * half * Ai, e(2, 0) * Ai,
                               (e(2, 2) + 1) * half * Ai))
    elif is_unit(e(1, 1)):
        for D in units_sqrt(e(1, 1)):
            if not is_unit(D):
                continue
            Di = invert(D)
            candidates.append(((e(2, 2) + 1) * half * Di, e(2, 1) * Di,
                               e(1, 2) * half * Di, D))
    elif is_unit(e(0, 1)):
        for B in units_sqrt(e(0, 1)):
            if not is_unit(B):
                continue
            Bi = invert(B)
            candidates.append((e(0, 2) * half * Bi, B, (e(2, 2) - 1) * half * Bi,
                               e(2, 1) * Bi))
    else:
        for C in units_sqrt(e(1, 0)):
            if not is_unit(C):
                continue
            Ci = invert(C)
            candidates.append((e(2, 0) * Ci, (e(2, 2) - 1) * half * Ci,
                               C, e(1, 2) * half * Ci))
    for A, B, C, D in candidates:
        if (A * D - B * C).is_one() and _a1std_matrix(spec, A, B, C, D) == M:
            return A, B, C, D
    return None


def gauss_decompose_a1(M: AdjointMatrix,
                       basis: ChevalleyBasis = None) -> GaussFactorization:
    """TUVU factorization of an element of E(A1, Z/p^k) given in the
    standard 3x3 realization; verified by re-multiplication."""
    if M.realization != "a1std":
        raise RingError("gauss_decompose_a1 expects the a1std realization")
    spec = M.spec
    if spec.kind != "modular":
        raise RingError("gauss_decompose_a1 works over Z/p^k")
    try:
        invert(spec.const(2))
    except NotAUnit:
        raise RingError(f"the Gauss decomposition needs 2 invertible, and it"
                        f" is not mod {spec.modulus}; the Bruhat decomposition"
                        " (--bruhat) works over F_2") from None
    if basis is None:
        basis = build_basis("A1")
    lift = _lift_to_sl2(M)
    if lift is None:
        raise NoFactorization("matrix is not in the image of SL2")
    A, B, C, D = lift
    one = spec.one()
    try:
        Di = invert(D)
        sigma = Di
        a, b, c = B * D, C * Di, spec.zero()
    except NotAUnit:
        # D in the radical forces B, C to be units
        c = (D - 1) * invert(C)
        sigma = one
        b = C
        a = B - A * c
    alpha = Root("A1", (1,))
    fact = GaussFactorization(
        GroupWord.t("A1", 0, sigma * sigma),
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

class _BruhatContext:
    """Enumerated torus, unipotent and Weyl data for E(system, F_p), with
    the inverse matrix of every enumerated element."""

    def __init__(self, system, p: int):
        from . import shacheck
        self.system = SystemType(system)
        self.p = p
        self.realization = default_realization(self.system)
        self.basis = build_basis(self.system)
        self.spec = RingSpec("modular", modulus=p)
        self.key = lambda m: shacheck.matrix_key(m, self.realization, p)
        basis, spec = self.basis, self.spec
        pos = positive_roots(self.system)

        def xmat(root, t):
            return root_element(basis, root, spec.const(t), self.realization)

        dim = _realization_dim(self.system, self.realization)
        ident = identity_matrix(spec, dim, self.realization)

        # torus H = closure of the h_g(u)
        torus = {self.key(ident): (ident, GroupWord(self.system))}
        frontier = [(ident, GroupWord(self.system))]
        hwords = [GroupWord.h(self.system, g, spec.const(u))
                  for g in pos for u in range(2, p)]
        while frontier:
            nxt = []
            for m, w in frontier:
                for hw in hwords:
                    m2 = m * evaluate_word(hw, basis, self.realization, spec=spec)
                    k = self.key(m2)
                    if k not in torus:
                        torus[k] = (m2, w * hw)
                        nxt.append((m2, w * hw))
            frontier = nxt
        self.torus = list(torus.values())

        # unipotent radical U with coordinates; u_index maps a key to the
        # first position in u_elements that has it
        self.u_elements = []
        self.u_index = {}
        for params in itertools.product(range(p), repeat=len(pos)):
            m = ident
            w = GroupWord(self.system)
            for root, t in zip(pos, params):
                if t:
                    m = m * xmat(root, t)
                    w = w * GroupWord.x(self.system, root, spec.const(t))
            self.u_index.setdefault(self.key(m), len(self.u_elements))
            self.u_elements.append((m, w, params))

        # Weyl representatives: BFS over simple-reflection words
        simples = simple_roots(self.system)
        wmats = [weyl_element(basis, g, spec.one(), self.realization)
                 for g in simples]
        self.weyl = {self.key(ident): ((), ident, GroupWord(self.system))}
        frontier = [((), ident, GroupWord(self.system))]
        while frontier:
            nxt = []
            for word, m, gw in frontier:
                for i, wm in enumerate(wmats):
                    m2 = m * wm
                    # identify the coset modulo the torus
                    cosets = [self.key(m2 * t) for t, _ in self.torus]
                    if any(k in self.weyl for k in cosets):
                        continue
                    gw2 = gw * GroupWord.w(self.system, simples[i], spec.one())
                    self.weyl[self.key(m2)] = (word + (i,), m2, gw2)
                    nxt.append((word + (i,), m2, gw2))
            frontier = nxt
        self.weyl_reps = sorted(self.weyl.values(), key=lambda x: (len(x[0]), x[0]))

        def inverse(word):
            return evaluate_word(word.inverse(), basis, self.realization,
                                 spec=spec)

        self.torus_inv = [inverse(tw) for _, tw in self.torus]
        self.u_inv = [inverse(uw) for _, uw, _ in self.u_elements]
        self.weyl_inv = [inverse(gw) for _, _, gw in self.weyl_reps]


def _bruhat_context(system, p) -> _BruhatContext:
    return _context(SystemType(system).tag, p)


@functools.cache
def _context(tag: str, p: int) -> _BruhatContext:
    return _BruhatContext(tag, p)


def bruhat_cells(system, p):
    """All Bruhat factorizations of every element of E(system, F_p):
    map matrix key -> list of Weyl words whose cell contains the element."""
    from . import shacheck
    ctx = _bruhat_context(system, p)
    table = shacheck.generate_group(system, p, cap=100000)
    cells = {key: [] for key in table.index}
    for wword, wmat, _ in ctx.weyl_reps:
        seen = set()
        for t, _tw in ctx.torus:
            for u, _uw, _ in ctx.u_elements:
                left = t * u * wmat
                for u2, _u2w, _ in ctx.u_elements:
                    k = ctx.key(left * u2)
                    if k in cells and k not in seen:
                        seen.add(k)
                        cells[k].append(wword)
    return cells, table


def bruhat_bruteforce(M: AdjointMatrix, system, p: int) -> BruhatFactorization:
    """Search t * u * w * u' = M stratified by Weyl word; the first match in
    canonical order wins.

    For each (w, t, u) in that order, u' = w^-1 u^-1 t^-1 M is the only
    candidate, so it is looked up in U instead of searched for."""
    ctx = _bruhat_context(system, p)
    torus_m = [t_inv * M for t_inv in ctx.torus_inv]
    for (wword, _, wgw), w_inv in zip(ctx.weyl_reps, ctx.weyl_inv):
        for (_, tw), t_m in zip(ctx.torus, torus_m):
            for (_, uw, _), u_inv in zip(ctx.u_elements, ctx.u_inv):
                pos = ctx.u_index.get(ctx.key(w_inv * (u_inv * t_m)))
                if pos is not None:
                    u2w = ctx.u_elements[pos][1]
                    return BruhatFactorization(tw, uw, wgw, u2w, wword)
    raise ElementNotInGroup("no Bruhat factorization found")


def verify_factorization(target, claim, basis: ChevalleyBasis = None,
                         realization: str = "adjoint", spec=None,
                         projective: bool = False):
    """Evaluate two words (or take matrices) and compare.

    Returns (ok, residual matrix); residual is None when ok.
    """
    def ev(x):
        if isinstance(x, AdjointMatrix):
            return x
        return evaluate_word(x, basis, realization, spec=spec)

    T, C = ev(target), ev(claim)
    if projective:
        ok = pgl3_equal(T, C)
        return ok, None if ok else T - C
    residual = T - C
    ok = residual.is_zero()
    return ok, None if ok else residual
