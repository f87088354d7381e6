"""The verification heart: a built-in catalog of the concrete identities,
centralizer parametrizations, normal forms, entry-constraint chains, trace
computations and non-conjugacy obstructions the Sha-rigidity arguments rely
on, with a uniform runner.

Verdicts: PASS (residual is exactly zero, or the claimed polynomial is
certified), FAIL (nonzero residual in an exact ring), INCONCLUSIVE (a
quotient-ring residual that does not rewrite to zero - never treated as
falsity), SKIPPED (a claim bound to the unknown endomorphism, listed with
its source anchor instead of being guessed at).
"""

from __future__ import annotations

import fnmatch
import functools
import itertools
import math
import time
from fractions import Fraction

from .chevgroup import (AdjointMatrix, GroupWord, _realization_dim,
                        build_basis, default_realization, evaluate_word,
                        identity_matrix, matrix_from_entries, parse_word,
                        pgl3_equal, root_element, unipotent_coordinates)
from .exactring import (DenominatorNotInvertible, MonomialPacking, NotAUnit,
                        RingElement, RingError, RingSpec, RewriteRule,
                        assert_denominators_divide_power_of_six, deglex_key,
                        invert, map_to_modular, mul_terms, parse_expr,
                        reduce_terms, sub_terms, substitute)
from .rootsys import SystemType, positive_roots


class Report:
    __slots__ = ("name", "verdict", "residual", "millis", "detail")

    def __init__(self, name, verdict, residual="", millis=0.0, detail=""):
        self.name = name
        self.verdict = verdict
        self.residual = residual
        self.millis = millis
        self.detail = detail

    def to_obj(self, timing=True):
        obj = {"name": self.name, "verdict": self.verdict,
               "residual": self.residual}
        if self.detail:
            obj["detail"] = self.detail
        if timing:
            obj["millis"] = round(self.millis, 3)
        return obj

    def __repr__(self):
        return f"<{self.verdict} {self.name}>"


# ---------------------------------------------------------------------------
# identity records
# ---------------------------------------------------------------------------

class IdentityRecord:
    """A self-contained verification task.

    ``lhs``/``rhs`` are lists whose items are either word texts or literal
    matrix grids (lists of rows of expression strings); the evaluated side
    is the product of the items.  ``expected`` is one of
      ("zero",)                      lhs == rhs entrywise
      ("pgl3equal",)                 lhs == rhs up to a unit scalar
      ("trace", poly_text)           trace(lhs) == poly
      ("entries", [(label, i, j, poly_text), ...])
                                     entry (i,j) of lhs - rhs is a unit
                                     monomial multiple of poly
      ("nilpotent", k)               (lhs - 1)^k == 0
    """

    def __init__(self, name, system, realization, ring, lhs, rhs=(),
                 expected=("zero",), mutation_site=None):
        self.name = name
        self.system = SystemType(system)
        self.realization = realization
        self.ring = ring
        self.lhs = list(lhs)
        self.rhs = list(rhs)
        self.expected = expected
        self.mutation_site = mutation_site  # ("lhs"/"rhs", item, letter)

    def _eval_side(self, side):
        basis = build_basis(self.system)
        spec = self.ring
        out = None
        for item in side:
            if isinstance(item, str):
                word = parse_word(item, self.system, spec)
                for _, _, param in word.letters:
                    # identities certified here must make sense over any
                    # ring containing 1/6
                    assert_denominators_divide_power_of_six(param)
                m = evaluate_word(word, basis, self.realization, spec=spec)
            else:
                m = matrix_from_entries(spec, item, self.realization)
            out = m if out is None else out * m
        if out is None:
            out = identity_matrix(
                spec, _realization_dim(self.system, self.realization),
                self.realization)
        return out

    # -- mutation --------------------------------------------------------

    def mutate(self) -> "IdentityRecord":
        """One deterministic mutant with a single coefficient bumped by +1:
        at ``mutation_site`` when it is set, else at the first bumpable
        coefficient, rhs before lhs."""
        rec = IdentityRecord(self.name + "-mutant", self.system,
                             self.realization, self.ring,
                             [item if isinstance(item, str) else
                              [list(r) for r in item] for item in self.lhs],
                             [item if isinstance(item, str) else
                              [list(r) for r in item] for item in self.rhs],
                             self.expected)
        if self.expected[0] == "trace":
            rec.expected = ("trace", f"({self.expected[1]})+1")
            return rec
        if self.expected[0] == "entries":
            label, i, j, poly = self.expected[1][0]
            rest = list(self.expected[1][1:])
            rec.expected = ("entries", [(label, i, j, f"({poly})+1")] + rest)
            return rec

        def bump_word(text, letter_index):
            letters = list(parse_word(text, self.system, self.ring).letters)
            # x letters first, then the torus and Weyl letters
            order = ([letter_index] if letter_index is not None else
                     sorted(range(len(letters)),
                            key=lambda k: letters[k][0] != "x"))
            for k in order:
                kind, what, p = letters[k]
                p2 = p + 1
                if kind in ("h", "t"):
                    try:
                        invert(p2)
                    except (NotAUnit, RingError):
                        continue
                letters[k] = (kind, what, p2)
                return GroupWord(self.system, letters).format_text()
            return None

        # (side, item, letter or None for any): the hint is the only site
        sites = ([self.mutation_site] if self.mutation_site else
                 [(which, idx, None) for which in ("rhs", "lhs")
                  for idx in range(len(getattr(rec, which)))])
        for which, idx, letter_index in sites:
            side = getattr(rec, which)
            item = side[idx]
            if not isinstance(item, str):
                item[0][0] = f"({item[0][0]})+1"
                return rec
            mutated = bump_word(item, letter_index)
            if mutated is not None:
                side[idx] = mutated
                return rec
        raise RuntimeError(f"record {self.name} has no mutable coefficient")


def _unit_monomial_quotient(entry: RingElement, claim: RingElement):
    """q or None: entry == q * claim with q a nonzero rational times a
    (Laurent) monomial; the meaningful notion of 'unit multiple' here."""
    spec = entry.spec
    if claim.is_zero():
        return None
    if spec.kind == "fraction":
        if entry.is_zero():
            return None
        num = mul_terms(entry.num, claim.den)
        den = mul_terms(entry.den, claim.num)
        mono_n = max(num, key=deglex_key)
        mono_d = max(den, key=deglex_key)
        # num/den is the quotient; it is a unit iff it is a monomial ratio
        lhs = mul_terms(num, {mono_d: den[mono_d]})
        rhs = mul_terms(den, {mono_n: num[mono_n]})
        if lhs == rhs:
            return RingElement(spec, num={mono_n: num[mono_n]},
                               den={mono_d: den[mono_d]})
        return None
    if spec.kind == "modular":
        if claim.is_zero():
            return None
        q = entry * invert(claim)
        return q if not q.is_zero() else None
    # poly / quotient: factor a plain monomial
    if not entry.terms or len(entry.terms) % len(claim.terms):
        return None
    lead_e = max(entry.terms, key=deglex_key)
    lead_c = max(claim.terms, key=deglex_key)
    diff = tuple(x - y for x, y in zip(lead_e, lead_c))
    if any(x < 0 for x in diff):
        return None
    qc = entry.terms[lead_e] / claim.terms[lead_c]
    test = {tuple(x + y for x, y in zip(m, diff)): c * qc
            for m, c in claim.terms.items()}
    if test == entry.terms:
        return RingElement(spec, terms={diff: qc})
    return None


def run_identity(rec: IdentityRecord) -> Report:
    t0 = time.perf_counter()
    try:
        lhs = rec._eval_side(rec.lhs)
        kind = rec.expected[0]
        if kind == "trace":
            want = parse_expr(rec.expected[1], rec.ring)
            residual = lhs.trace() - want
            return _residual_report(rec, residual.is_zero(), repr(residual), t0)
        if kind == "nilpotent":
            k = rec.expected[1]
            ident = identity_matrix(rec.ring, lhs.dim, rec.realization)
            power = lhs - ident
            base = power
            for _ in range(k - 1):
                power = power * base
            return _residual_report(rec, power.is_zero(),
                                    "nonzero matrix power", t0)
        rhs = rec._eval_side(rec.rhs)
        if kind == "pgl3equal":
            ok = pgl3_equal(lhs, rhs)
            return _residual_report(rec, ok, "projective mismatch", t0)
        if kind == "entries":
            residual = lhs - rhs
            for label, i, j, poly in rec.expected[1]:
                claim = parse_expr(poly, rec.ring)
                q = _unit_monomial_quotient(residual.entry(i, j), claim)
                if q is None:
                    return _residual_report(
                        rec, False,
                        f"entry {label} is not a unit multiple of {poly}", t0)
            return _residual_report(rec, True, "", t0)
        residual = lhs - rhs
        witness = ""
        if not residual.is_zero():
            for i, row in enumerate(residual.rows):
                for j, e in enumerate(row):
                    if not e.is_zero():
                        witness = f"entry ({i},{j}) = {e!r}"
                        break
                if witness:
                    break
        return _residual_report(rec, residual.is_zero(), witness, t0)
    except (RingError, NotAUnit, DenominatorNotInvertible, ValueError) as exc:
        return Report(rec.name, "FAIL", f"error: {exc}",
                      (time.perf_counter() - t0) * 1000)


def _residual_report(rec, ok, witness, t0) -> Report:
    millis = (time.perf_counter() - t0) * 1000
    if ok:
        return Report(rec.name, "PASS", "", millis)
    if rec.ring.kind == "quotient":
        return Report(rec.name, "INCONCLUSIVE",
                      f"residual does not rewrite to zero: {witness}", millis)
    return Report(rec.name, "FAIL", witness, millis)


# ---------------------------------------------------------------------------
# the built-in catalog
# ---------------------------------------------------------------------------

def _poly(*names) -> RingSpec:
    return RingSpec("poly", names)


def _frac(*names) -> RingSpec:
    return RingSpec("fraction", names)


def _mod(n) -> RingSpec:
    return RingSpec("modular", modulus=n)


def _u_squared_zero() -> RingSpec:
    return RingSpec("quotient", ("u",), rules=[RewriteRule((2,), {})])


def _a1_catalog():
    recs = []
    recs.append(IdentityRecord(
        "A1-trace", "A1", "a1std", _poly("s", "t"),
        ["x(-a, s) x(a, t)"], expected=("trace", "s^2*t^2 + 4*s*t + 3")))
    recs.append(IdentityRecord(
        "A1-quad-involution", "A1", "a1std", _poly(),
        ["(x(a,-1) x(-a,1) x(a,-1))^2"], []))
    p_grid = [["1", "h", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    p_inv = [["1", "-h", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    recs.append(IdentityRecord(
        "A1-step6-factorization", "A1", "a1std", _poly("h"),
        [p_inv, "x(-a, 1)", p_grid],
        [[["1-h", "-h^2", "-2*h"], ["1", "1+h", "2"], ["1", "h", "1"]]]))
    cgrid = [["a", "0", "0"], ["b", "a", "2*c"], ["c", "0", "a"]]
    recs.append(IdentityRecord(
        "A1-neg-centralizer-family", "A1", "a1std", _poly("a", "b", "c"),
        [cgrid, "x(-a, -1)"], ["x(-a, -1)", cgrid]))
    recs.append(IdentityRecord(
        "A1-gauss-entry-residuals", "A1", "a1std", _frac("t", "p", "q", "r"),
        ["t1(t) x(a,p) x(-a,q) x(a,r)"], [],
        expected=("entries", [("(3,1)", 2, 0, "q*(p*q+1)"),
                              ("(2,3)", 1, 2, "q*(q*r+1)")])))
    recs.append(IdentityRecord(
        "A1-rankone", "A1", "a1std", _frac("u", "v"),
        ["x(-a,u) x(a,v)"],
        ["x(a, v/(1+u*v)) h(a, (1+u*v)^-1) x(-a, u/(1+u*v))"]))
    return recs


def _a2_catalog():
    recs = []
    for root in ("a1", "a2", "a1+a2", "-a1", "-a2", "-a1-a2"):
        recs.append(IdentityRecord(
            f"A2-additivity-{root.replace('+','_')}", "A2", "pgl3",
            _poly("t", "s"),
            [f"x({root},t) x({root},s)"], [f"x({root}, t+s)"]))
    comms = [
        ("A2-comm-a1-a2", "a1", "a2", "x(a1+a2, t*s)"),
        ("A2-comm-a1-negg", "a1", "-a1-a2", "x(-a2, -t*s)"),
        ("A2-comm-a2-negg", "a2", "-a1-a2", "x(-a1, t*s)"),
        ("A2-comm-g-nega1", "a1+a2", "-a1", "x(a2, -t*s)"),
        ("A2-comm-g-nega2", "a1+a2", "-a2", "x(a1, t*s)"),
    ]
    for name, g, d, rhs in comms:
        recs.append(IdentityRecord(
            name, "A2", "pgl3", _poly("t", "s"),
            [f"x({g},t) x({d},s) x({g},-t) x({d},-s)"], [rhs]))
    recs.append(IdentityRecord(
        "A2-reorder-a2-a1", "A2", "pgl3", _poly("u", "v"),
        ["x(a2,v) x(a1,u)"], ["x(a1,u) x(a2,v) x(a1+a2, -u*v)"]))
    for i in (1, 2):
        recs.append(IdentityRecord(
            f"A2-w-square-{i}", "A2", "pgl3", _frac("u"),
            [f"w(a{i},u)^2"], [f"h(a{i},-1)"]))
    recs.append(IdentityRecord(
        "A2-nilpotent-rankone", "A2", "pgl3", _u_squared_zero(),
        ["x(-a1, u) x(a1, 1)"], ["h(a1, 1-u) x(a1, 1+u) x(-a1, u)"]))
    recs.append(IdentityRecord(
        "A2-X0inv-xa1", "A2", "pgl3", _poly(),
        ["(x(a1,1) x(a2,1))^-1 x(a1,1)"], ["x(a2,-1)"]))
    recs.append(IdentityRecord(
        "A2-first-constraint", "A2", "pgl3", _poly(),
        ["x(a1,1) x(a1,1) x(a2,1)"],
        ["x(a1+a2,1) x(a1,1) x(a2,1) x(a1,1)"]))
    # the central coordinates here are the corrected ones: the displayed
    # ones are off by a sign, which the transvection criterion never sees
    recs.append(IdentityRecord(
        "A2-X2inv-from-X0-X1", "A2", "pgl3", _poly("b", "s"),
        ["(x(a1,1) x(a2,1))^-1 x(a1, b+s) x(a2, s)"],
        ["x(a1, b+s-1) x(a2, s-1) x(a1+a2, b+s-1)"]))
    recs.append(IdentityRecord(
        "A2-X2-consistency", "A2", "pgl3", _poly("b", "s"),
        ["x(a1, 1-b-s) x(a2, 1-s) x(a1+a2, -s*(s+b-1))"],
        ["(x(a1, b+s-1) x(a2, s-1) x(a1+a2, b+s-1))^-1"]))
    recs.append(IdentityRecord(
        "A2-involution-conj", "A2", "pgl3", _poly(),
        ["h(a1+a2,-1) x(a1,1) x(a2,1) h(a1+a2,-1)"],
        ["(x(a1,1) x(a2,1))^-1 x(a1+a2,1)"]))
    recs.append(IdentityRecord(
        "A2-conj-displacement", "A2", "pgl3", _poly("m", "s1", "s2", "s3"),
        ["x(a1,m) x(a2,m) x(a1,s1) x(a2,s2) x(a1+a2,s3) x(a2,-m) x(a1,-m)"],
        ["x(a1,s1) x(a2,s2) x(a1+a2, s3+(s2-s1)*m)"]))
    recs.append(IdentityRecord(
        "A2-f7-htilde", "A2", "pgl3", _mod(7),
        ["x(a2,3) x(-a2,-5) x(a2,3) (x(a2,1) x(-a2,-1) x(a2,1))^-1"],
        ["h(a2, 3)"], expected=("pgl3equal",)))
    recs.append(IdentityRecord(
        "A2-f7-char7-word", "A2", "pgl3", _mod(7),
        ["x(a1,1) x(-a1,2) x(a2,3) x(-a2,-5) x(a2,3)"
         " (x(a2,1) x(-a2,-1) x(a2,1))^-1"],
        [[["3", "3", "0"], ["2", "3", "0"], ["0", "0", "5"]]],
        expected=("pgl3equal",)))
    return recs


def _b2_catalog():
    recs = []
    recs.append(IdentityRecord(
        "B2-comm-a-b", "B2", "adjoint", _poly("t", "s"),
        ["x(a,t) x(b,s) x(a,-t) x(b,-s)"],
        ["x(a+b, -t*s) x(a+2b, -t*s^2)"]))
    recs.append(IdentityRecord(
        "B2-comm-ab-b", "B2", "adjoint", _poly("t", "s"),
        ["x(a+b,t) x(b,s) x(a+b,-t) x(b,-s)"], ["x(a+2b, -2*t*s)"]))
    recs.append(IdentityRecord(
        "B2-cent-final", "B2", "adjoint", _poly("b1", "b2", "b3"),
        ["(x(a,b1) x(b,b2) x(a+b,b3) x(a,1) x(b,1))^-1"
         " x(a,1) x(b,1) x(a,b1) x(b,b2) x(a+b,b3)"],
        ["x(a+b, b1-b2)"
         " x(a+2b, b1 + b2^2 - 2*b1 - 2*b1*b2 + 2*b2 + 2*b3)"]))
    recs.append(IdentityRecord(
        "B2-X3-comm", "B2", "adjoint", _poly(),
        ["x(a+b,1) x(a,1) x(b,1) x(a+b,-1) (x(a,1) x(b,1))^-1"],
        ["x(a+2b, -2)"]))
    recs.append(IdentityRecord(
        "B2-X1-comm", "B2", "adjoint", _poly(),
        ["x(a,1) x(b,1) x(a,1) (x(a,1) x(b,1))^-1 x(a,-1)"],
        ["x(a+b, 1) x(a+2b, 1)"]))
    # weight structure behind the torus comparison h_{a+2b}(x) vs h_b(y)
    basis = build_basis("B2")
    spec = _frac("x", "y")
    grid = []
    a2b = basis.root("a+2b")
    beta = basis.root("b")
    from .rootsys import cartan_integer
    for k, lab in enumerate(basis.labels):
        row = []
        for kk in range(basis.dim):
            if kk != k:
                row.append("0")
            elif lab[0] == "h":
                row.append("1")
            else:
                w1 = cartan_integer(lab[1], a2b)
                w2 = cartan_integer(lab[1], beta)
                row.append(f"x^{w1}*y^{w2}".replace("^-", "^-"))
        grid.append(row)
    recs.append(IdentityRecord(
        "B2-torus-compare-weights", "B2", "adjoint", spec,
        ["h(a+2b, x) h(b, y)"], [grid]))
    recs.append(IdentityRecord(
        "B2-rankone-a2b", "B2", "adjoint", _frac("w", "c"),
        ["x(-a-2b, w) x(a+2b, c)"],
        ["x(a+2b, c/(1+w*c)) h(a+2b, (1+w*c)^-1) x(-a-2b, w/(1+w*c))"]))
    recs.append(IdentityRecord(
        "B2-short-root-comm", "B2", "adjoint", _poly("s"),
        ["x(a,1) x(b,s) x(a,-1) x(b,-s)"],
        ["x(a+b, -s) x(a+2b, -s^2)"]))
    return recs


def _g2_x_words():
    """The derived normal forms of X1..X6 as word texts in d (and the
    element that conjugates them back to the plain root elements)."""
    X1 = ("x(a,1) x(a+b,-d) x(a+2b,d^2) x(a+3b,d^3)"
          " x(2a+3b, 1/4*d^4 + 3/2*d^3 + 1/4*d^2)")
    X2 = ("x(b,1) x(a+b,d) x(a+2b,-d^2+2*d) x(a+3b,-d^3+3*d^2-3*d)"
          " x(2a+3b, -1/4*d^4 + 3/2*d^3 - 13/4*d^2)")
    X3 = ("x(a+b,1) x(a+2b,-2*d) x(a+3b,-3*d^2)"
          " x(2a+3b, -d^3 - 3/2*d^2 + 5/2*d)")
    X4 = "x(a+2b,1) x(a+3b,3*d) x(2a+3b, 3/2*d^2 + 3/2*d)"
    X5 = "x(a+3b,1) x(2a+3b,d)"
    X6 = "x(2a+3b,1)"
    g = ("x(a,-d) x(b,-d) x(a+b, -1/2*d^2 - 1/2*d)"
         " x(a+2b, 2/3*d^3 + 1/2*d^2 - 1/6*d)"
         " x(a+3b, 3/4*d^4 + 1/2*d^3 - 1/4*d^2)")
    return X1, X2, X3, X4, X5, X6, g


def _g2_catalog():
    recs = []
    displayed = [
        ("G2-comm-a-b", "a", "b",
         "x(a+b, t*s) x(a+3b, -t*s^3) x(a+2b, -t*s^2) x(2a+3b, t^2*s^3)"),
        ("G2-comm-ab-b", "a+b", "b",
         "x(a+2b, 2*t*s) x(a+3b, 3*t*s^2) x(2a+3b, 3*t^2*s)"),
        ("G2-comm-a-a3b", "a", "a+3b", "x(2a+3b, t*s)"),
        ("G2-comm-a2b-b", "a+2b", "b", "x(a+3b, -3*t*s)"),
        ("G2-comm-ab-a2b", "a+b", "a+2b", "x(2a+3b, 3*t*s)"),
    ]
    for name, g, d, rhs in displayed:
        recs.append(IdentityRecord(
            name, "G2", "adjoint", _poly("t", "s"),
            [f"x({g},t) x({d},s) x({g},-t) x({d},-s)"], [rhs]))
    X0 = "x(a,1) x(b,1)"
    facts = [
        ("G2-fact-X5-X0", "x(a+3b,1)", X0, "x(2a+3b,-1)"),
        ("G2-fact-X4-X0", "x(a+2b,1)", X0, "x(a+3b,-3) x(2a+3b,-3)"),
        ("G2-fact-X3-X4", "x(a+b,1)", "x(a+2b,1)", "x(2a+3b,3)"),
        ("G2-fact-X3-X0", "x(a+b,1)", X0, "x(a+2b,2) x(a+3b,3) x(2a+3b,6)"),
        ("G2-fact-X1-X5", "x(a,1)", "x(a+3b,1)", "x(2a+3b,1)"),
        ("G2-fact-X1-X0", "x(a,1)", X0, "x(a+b,1) x(a+2b,-1) x(a+3b,-1)"),
    ]
    for name, A, B, rhs in facts:
        recs.append(IdentityRecord(
            name, "G2", "adjoint", _poly(),
            [f"{A} {B} ({A})^-1 ({B})^-1"], [rhs]))
    X1, X2, X3, X4, X5, X6, g = _g2_x_words()
    for tag, X, target in [("X1", X1, "a"), ("X2", X2, "b"),
                           ("X3", X3, "a+b"), ("X4", X4, "a+2b"),
                           ("X5", X5, "a+3b"), ("X6", X6, "2a+3b")]:
        recs.append(IdentityRecord(
            f"G2-normalizer-{tag}", "G2", "adjoint", _poly("d"),
            [f"{g} {X} ({g})^-1"], [f"x({target},1)"]))
    recs.append(IdentityRecord(
        "G2-X1-nilpotent-cubed", "G2", "adjoint", _poly("d"), [X1],
        expected=("nilpotent", 3), mutation_site=("lhs", 0, 1)))
    recs.append(IdentityRecord(
        "G2-X2-nilpotent-fourth", "G2", "adjoint", _poly("d"), [X2],
        expected=("nilpotent", 4), mutation_site=("lhs", 0, 1)))
    recs.append(IdentityRecord(
        "G2-X5-family-comm", "G2", "adjoint", _poly("A", "D"),
        [f"x(a+3b,A) x(2a+3b,D) {X0} (x(a+3b,A) x(2a+3b,D))^-1 ({X0})^-1"],
        ["x(2a+3b, -A)"]))
    recs.append(IdentityRecord(
        "G2-f7-wtilde", "G2", "adjoint", _mod(7),
        ["x(a,3) x(-a,-5) x(a,3)"], ["w(a, 3)"]))
    return recs


_SKIPPED_NOTES = {
    "A2": [("A2-skip-H1-case-analysis",
            "the case analysis locating the involution images H_1, H_12 is"
            " quantified over the unknown endomorphism")],
    "G2": [("G2-skip-X5-bruhat-elimination",
            "the Bruhat-form elimination for X_5 over a field is"
            " quantified over the unknown endomorphism"),
           ("G2-skip-W2-torus-elimination",
            "the torus-part elimination for W_2 is quantified over"
            " the unknown endomorphism")],
}


def builtin_catalog(system) -> list:
    tag = SystemType(system).tag
    recs = {"A1": _a1_catalog, "A2": _a2_catalog,
            "B2": _b2_catalog, "G2": _g2_catalog}[tag]()
    names = [r.name for r in recs]
    assert len(names) == len(set(names))
    return recs


def run_catalog(system, name_filter: str = None) -> list:
    reports = []
    for rec in builtin_catalog(system):
        if name_filter and not fnmatch.fnmatch(rec.name, name_filter):
            continue
        reports.append(run_identity(rec))
    for name, anchor in _SKIPPED_NOTES.get(SystemType(system).tag, ()):
        if name_filter and not fnmatch.fnmatch(name, name_filter):
            continue
        reports.append(Report(name, "SKIPPED", detail=anchor))
    reports.sort(key=lambda r: r.name)
    return reports


# ---------------------------------------------------------------------------
# centralizer machinery
# ---------------------------------------------------------------------------

class CentralizerMismatch(Exception):
    """The brute-force centralizer differs from the claimed family."""


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


def centralizer_check(fam: CentralizerFamily) -> Report:
    t0 = time.perf_counter()
    name = f"{fam.system.tag}-centralizer-family"
    spec = fam.ring()
    basis = build_basis(fam.system)
    try:
        x0 = evaluate_word(parse_word(fam.x0, fam.system, spec), basis,
                           fam.realization, spec=spec)
        if fam.matrix_family is not None:
            g = matrix_from_entries(spec, fam.matrix_family, fam.realization)
        else:
            g = evaluate_word(parse_word(fam.word_text(), fam.system, spec),
                              basis, fam.realization, spec=spec)
        residual = g * x0 - x0 * g
        ok = residual.is_zero()
        return Report(name, "PASS" if ok else "FAIL",
                      "" if ok else "commutation residual is nonzero",
                      (time.perf_counter() - t0) * 1000)
    except (RingError, ValueError) as exc:
        return Report(name, "FAIL", f"error: {exc}",
                      (time.perf_counter() - t0) * 1000)


def centralizer_bruteforce(system, p: int, cap: int = 50000):
    """Exhaustive centralizer of the family's x0 in E(system, F_p), checked
    elementwise against the symbolic family; returns (count, centralizer
    keys)."""
    from . import shacheck
    system = SystemType(system)
    fam = standard_family(system)
    table = shacheck.generate_group(system, p, cap=cap)
    spec = RingSpec("modular", modulus=p)
    basis = build_basis(system)

    def key(m):
        return shacheck.matrix_key(m, table.realization, p)

    # g commutes with x0 iff g x0 = x0 g; x -> x0 x is x -> (x^-1 x0^-1)^-1
    x0 = table.index[key(evaluate_word(parse_word(fam.x0, system, spec),
                                       basis, table.realization, spec=spec))]
    inv = table.inverses
    left = inv[table.right_multiplication(table.inv(x0))[inv]]
    cent = {table.elements[g].tobytes() for g in
            (table.right_multiplication(x0) == left).nonzero()[0]}

    # the family instantiated over F_p
    fam_keys = set()
    if fam.matrix_family is not None:
        for values in itertools.product(range(p), repeat=len(fam.free)):
            bindings = dict(zip(fam.free, values))
            k = key(matrix_from_entries(
                spec, [[_eval_mod(e, bindings, p) for e in row]
                       for row in fam.matrix_family], table.realization))
            if k in table.index:
                fam_keys.add(k)
    else:
        for values in itertools.product(range(p), repeat=len(fam.free)):
            bindings = {name: spec.const(v)
                        for name, v in zip(fam.free, values)}
            word = parse_word(fam.word_text(), system,
                              RingSpec("poly", fam.free))
            letters = [(k, w, substitute(param, bindings))
                       for k, w, param in word.letters]
            fam_keys.add(key(evaluate_word(GroupWord(system, letters), basis,
                                           table.realization, spec=spec)))
    if fam_keys != cent:
        raise CentralizerMismatch("centralizer does not match the family")
    return len(cent), cent


def _eval_mod(expr: str, bindings, p: int) -> int:
    val = parse_expr(expr, RingSpec("poly", tuple(bindings)))
    return map_to_modular(val, p, bindings).residue


def matrix_centralizer_a1(x: AdjointMatrix):
    """Basis (over Q, rref rows) of {X in M_3 : X x = x X} for a matrix x
    with rational entries in the standard A1 realization."""
    entries = [[e.constant_value() for e in row] for row in x.rows]
    rows = []
    # unknowns X_kl flattened row-major; equations sum over (i,j)
    for i in range(3):
        for j in range(3):
            row = [Fraction(0)] * 9
            for k in range(3):
                row[i * 3 + k] += entries[k][j]      # (X x)_{ij}
                row[k * 3 + j] -= entries[i][k]      # (x X)_{ij}
            rows.append(row)
    return _nullspace(rows)


def _nullspace(rows):
    """Reduced basis of the rational nullspace of the given matrix."""
    cols = len(rows[0])
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# the G2 entry-constraint chain
# ---------------------------------------------------------------------------

_CHAIN_VARS = ("a", "b", "c1", "c2", "c3", "c4", "c5", "d")
_CHAIN_RADICAL = {1, 2, 3, 4, 5, 6}       # indices of b, c1..c5
_CHAIN_STAGES = [
    # (name, claim, rules adjoined after the stage passes)
    ("b2c4", "b^2*c4", ["b^2*c4 -> 0"]),
    ("ac5", "a*c5", ["c5 -> 0"]),
    ("c3cube", "c3^3", ["c3^3 -> 0"]),
    ("b-ac2sq", "b - a*c2^2", ["a*c2^2 -> b"]),
    ("c4-c2sq", "c4 - c2^2", ["c2^2 -> c4"]),
    ("c3sq-plus-c2cube", "c3^2 + c2^3", ["c2*c4 -> -c3^2"]),
    ("c2quad", "c2^4", ["c4^2 -> 0", "b^2 -> 0"]),
    ("bc1", "b*c1", ["b*c1 -> 0"]),
    ("final-2b", "2*b", []),
]


def _chain_spec(rules=()) -> RingSpec:
    kind = "quotient" if rules else "poly"
    return RingSpec(kind, _CHAIN_VARS, rules=rules)


def _parse_rule(text: str) -> RewriteRule:
    lhs_text, rhs_text = text.split("->")
    spec = _chain_spec()
    lhs = parse_expr(lhs_text.strip(), spec)
    (mono, coeff), = lhs.terms.items()
    rhs = parse_expr(rhs_text.strip(), spec)
    return RewriteRule(mono, {m: c / coeff for m, c in rhs.terms.items()})


@functools.cache
def _chain_residual_entries():
    """Nonzero entries of g X6 - x_{2a+3b}(a) g over Q[a,b,c1..c5,d]."""
    basis = build_basis("G2")
    spec = _chain_spec()
    word = parse_word(
        "x(-a,c1) x(-a-b,c2) x(-a-2b,c3) x(-a-3b,c4) x(-2a-3b,c5)"
        " x(a,b) x(b,b) x(a+b, (b-b^2)/2)"
        " x(a+2b, -2/3*b^3 + 1/2*b^2 + 1/6*b)"
        " x(a+3b, 3/4*b^4 - 1/2*b^3 - 1/4*b^2) x(2a+3b, d)", "G2", spec)
    left = evaluate_word(word, basis, "adjoint", spec=spec)
    right = evaluate_word(parse_word(
        "x(2a+3b, a) x(-a,c1) x(-a-b,c2) x(-a-2b,c3) x(-a-3b,c4)"
        " x(-2a-3b,c5)", "G2", spec), basis, "adjoint", spec=spec)
    residual = left - right
    out = []
    for i in range(14):
        for j in range(14):
            e = residual.rows[i][j]
            if not e.is_zero():
                out.append(((i, j), e.terms))
    return out


def _poly_divide(entry, claim):
    rem = dict(entry)
    quot = {}
    clead = max(claim, key=deglex_key)
    cc = claim[clead]
    guard = 0
    while rem:
        lead = max(rem, key=deglex_key)
        diff = tuple(x - y for x, y in zip(lead, clead))
        if any(x < 0 for x in diff):
            return None
        q = rem[lead] / cc
        quot[diff] = quot.get(diff, Fraction(0)) + q
        rem = sub_terms(rem, mul_terms({diff: q}, claim))
        guard += 1
        if guard > 800:
            return None
    return {m: c for m, c in quot.items() if c}


def _unit_shaped(quot):
    """q * a^i * d^j * (1 + radical) with b, c1..c5 the radical variables."""
    if not quot:
        return None
    units = [m for m in quot if all(m[k] == 0 for k in _CHAIN_RADICAL)]
    if len(units) != 1:
        return None
    base = units[0]
    for m in quot:
        if m == base:
            continue
        if any(x < y for x, y in zip(m, base)):
            return None
        if all(m[k] == base[k] for k in _CHAIN_RADICAL):
            return None
    return quot[base], base


class _Echelon:
    """Fraction-free echelon form of integer rows on packed monomials.

    Each pivot row is primitive with a positive leading coefficient and is
    stored as (leading coefficient, remaining terms) under its leading
    monomial.  ``reduce`` returns a nonzero integer multiple of the unique
    normal form of a row modulo the span: the row minus a combination of
    pivots, supported off the pivot leads.
    """

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        row = dict(row)
        out = {}
        pivots = self.pivots
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                out[lead] = row.pop(lead)
                continue
            p, tail = piv
            c = row.pop(lead)
            g = math.gcd(c, p)
            c //= g
            p //= g
            if p != 1:
                # row := p * row - c * pivot keeps the coefficients integral
                for m in row:
                    row[m] *= p
                for m in out:
                    out[m] *= p
            for m, x in tail:
                s = row.get(m, 0) - c * x
                if s:
                    row[m] = s
                else:
                    del row[m]
        return out

    def insert(self, row):
        row = self.reduce(row)
        if row:
            lead = max(row)
            g = math.gcd(*row.values())
            if row[lead] < 0:
                g = -g
            self.pivots[lead] = (row.pop(lead) // g,
                                 tuple((m, x // g) for m, x in row.items()))


_CHAIN_PACKING = MonomialPacking(len(_CHAIN_VARS))
_CHAIN_MULTS = [_CHAIN_PACKING.pack(m)
                for m in itertools.product(range(3), repeat=8) if sum(m) <= 2]


def _integer_row(terms):
    """Packed terms scaled by a nonzero rational to primitive integers."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    row = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    g = math.gcd(*row.values())
    return {m: x // g for m, x in row.items()}


def _pack_rules(rules):
    """The rules on packed monomials; each must have an integer rhs, so
    that reduction keeps integer rows integral."""
    packed = []
    for rule in rules:
        lhs, rhs = _CHAIN_PACKING.pack_rule(rule)
        if any(c.denominator != 1 for c in rhs.values()):
            raise RingError(f"chain rule {rule!r} has a non-integer rhs")
        packed.append((lhs, {m: c.numerator for m, c in rhs.items()}))
    return tuple(packed)


@functools.cache
def _packed_residual_rows():
    return [_integer_row(_CHAIN_PACKING.pack_terms(terms))
            for _, terms in _chain_residual_entries()]


def _chain_rows(prules):
    """The reduced monomial multiples of the reduced residual entries,
    shortest first."""
    reduce, shift = _CHAIN_PACKING.reduce, _CHAIN_PACKING.shift
    rows = []
    for entry in _packed_residual_rows():
        tr = reduce(entry, prules)
        if not tr:
            continue
        for m in _CHAIN_MULTS:
            r = reduce(shift(tr, m), prules)
            if r:
                rows.append(r)
    rows.sort(key=lambda r: (len(r), max(r)))
    return rows


def _chain_echelon(prules):
    ech = _Echelon()
    for r in _chain_rows(prules):
        ech.insert(r)
    return ech


def _unit_entry(claim_red, rules):
    """((i, j), unit scalar) for the first residual entry that reduces to
    a unit multiple of the reduced claim, or None."""
    for (i, j), terms in _chain_residual_entries():
        tr = reduce_terms(terms, rules)
        if tr:
            u = _unit_shaped(_poly_divide(tr, claim_red))
            if u:
                return (i, j), u[0]
    return None


def entry_chain_probe(claim_text: str) -> Report:
    """Entry-level probe: PASS only when some residual entry is a unit
    multiple of the claim (no linear-combination certificates), so a
    fabricated polynomial fails with an absence witness."""
    t0 = time.perf_counter()
    claim = parse_expr(claim_text, _chain_spec()).terms
    hit = _unit_entry(claim, ()) if claim else None
    if hit:
        (i, j), _ = hit
        return Report(f"G2-chain-probe-{claim_text}", "PASS", "",
                      (time.perf_counter() - t0) * 1000, f"entry ({i},{j})")
    return Report(f"G2-chain-probe-{claim_text}", "FAIL",
                  "claimed polynomial absent from the residual entries",
                  (time.perf_counter() - t0) * 1000)


def entry_chain_g2() -> list:
    """Run the highest-root conjugacy constraint chain; one report per stage.

    A stage passes when its claimed polynomial is certified as a consequence
    of the residual entries modulo the rules established by earlier stages:
    either some entry is a unit multiple of the claim (units being rational
    multiples of a^i d^j times 1 + radical), or claim * a^i d^j lies in the
    Q-span of monomial multiples of the entries.  The final stage's detail
    states the consequence b = 0 of 2b = 0 once 2 is invertible.
    """
    spec0 = _chain_spec()
    P = _CHAIN_PACKING
    reports = []
    rules = ()
    for name, claim_text, rule_texts in _CHAIN_STAGES:
        t0 = time.perf_counter()
        claim = parse_expr(claim_text, spec0).terms
        claim_red = reduce_terms(claim, rules)
        detail = ""
        ok = False
        if not claim_red:
            detail = "claim already rewrites to zero"
            ok = True
        else:
            hit = _unit_entry(claim_red, rules)
            if hit:
                ok = True
                (i, j), unit = hit
                detail = f"entry ({i},{j}) = unit * claim, unit scalar {unit}"
            else:
                prules = _pack_rules(rules)
                ech = _chain_echelon(prules)
                claim_row = _integer_row(P.pack_terms(claim_red))
                for ii in range(3):
                    if ok:
                        break
                    for jj in range(3):
                        mono = P.pack((ii, 0, 0, 0, 0, 0, 0, jj))
                        rem = ech.reduce(P.reduce(P.shift(claim_row, mono),
                                                  prules))
                        if not rem:
                            ok = True
                            detail = (f"claim * a^{ii} d^{jj} lies in the"
                                      " span of the residual entries")
                            break
                        qq = _poly_divide(P.unpack_terms(rem), claim_red)
                        if qq is not None and all(
                                any(m[k] for k in _CHAIN_RADICAL) for m in qq):
                            ok = True
                            detail = ("claim * unit lies in the span of the"
                                      " residual entries")
                            break
        if name == "final-2b" and ok:
            # 2b = 0 and 2 invertible give b = 0
            detail += "; with 2 invertible, b rewrites to 0"
        reports.append(Report(f"G2-chain-{name}", "PASS" if ok else "FAIL",
                              "" if ok else "claim not certified",
                              (time.perf_counter() - t0) * 1000, detail))
        rules += tuple(_parse_rule(text) for text in rule_texts)
    return reports


# ---------------------------------------------------------------------------
# small standalone checks
# ---------------------------------------------------------------------------

def transvection_criterion(u1: RingElement, u2: RingElement,
                           u3: RingElement) -> bool:
    """(u - 1)^2 for u = x_{a1}(u1) x_{a2}(u2) x_{a1+a2}(u3) in the 3x3
    model equals u1 u2 E_13; returns whether it vanishes."""
    spec = u1.spec
    basis = build_basis("A2")
    u = (root_element(basis, basis.root("a1"), u1, "pgl3")
         * root_element(basis, basis.root("a2"), u2, "pgl3")
         * root_element(basis, basis.root("a1+a2"), u3, "pgl3"))
    d = u - identity_matrix(spec, 3, "pgl3")
    sq = d * d
    expect = identity_matrix(spec, 3, "pgl3")
    for i in range(3):
        for j in range(3):
            expect.rows[i][j] = u1 * u2 if (i, j) == (0, 2) else spec.zero()
    assert (sq - expect).is_zero(), "transvection identity violated"
    return (u1 * u2).is_zero()


def _cube_roots(x: RingElement):
    spec = x.spec
    if spec.kind == "modular":
        return [spec.const(r) for r in range(1, spec.modulus)
                if (pow(r, 3, spec.modulus) - x.residue) % spec.modulus == 0]
    val = x.constant_value()
    num = round(abs(val.numerator) ** (1 / 3))
    den = round(val.denominator ** (1 / 3))
    for n in (num - 1, num, num + 1):
        for d in (den - 1, den, den + 1):
            if d > 0 and Fraction((-n if val < 0 else n) ** 3, d ** 3) == val:
                return [spec.const(Fraction(-n if val < 0 else n, d))]
    return []


def _det3(M: AdjointMatrix) -> RingElement:
    e = M.entry
    return (e(0, 0) * (e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1))
            - e(0, 1) * (e(1, 0) * e(2, 2) - e(1, 2) * e(2, 0))
            + e(0, 2) * (e(1, 0) * e(2, 1) - e(1, 1) * e(2, 0)))


def _inv3(M: AdjointMatrix) -> AdjointMatrix:
    det = _det3(M)
    dinv = invert(det)
    e = M.entry
    cof = [[(e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1)),
            -(e(0, 1) * e(2, 2) - e(0, 2) * e(2, 1)),
            (e(0, 1) * e(1, 2) - e(0, 2) * e(1, 1))],
           [-(e(1, 0) * e(2, 2) - e(1, 2) * e(2, 0)),
            (e(0, 0) * e(2, 2) - e(0, 2) * e(2, 0)),
            -(e(0, 0) * e(1, 2) - e(0, 2) * e(1, 0))],
           [(e(1, 0) * e(2, 1) - e(1, 1) * e(2, 0)),
            -(e(0, 0) * e(2, 1) - e(0, 1) * e(2, 0)),
            (e(0, 0) * e(1, 1) - e(0, 1) * e(1, 0))]]
    return AdjointMatrix(M.spec, [[c * dinv for c in row] for row in cof],
                         M.realization)


def scalar_conjugacy_obstruction(M: AdjointMatrix, N: AdjointMatrix):
    """Necessary conditions for g M g^-1 = lambda N: det(M) = lambda^3
    det(N), tr(M) = lambda tr(N), tr(M^-1) = lambda^-1 tr(N^-1).

    Returns ("POSSIBLE", lambda) or ("IMPOSSIBLE", witness)."""
    spec = M.spec
    detM, detN = _det3(M), _det3(N)
    trM, trN = M.trace(), N.trace()
    triM, triN = _inv3(M).trace(), _inv3(N).trace()

    def check(lam):
        if not (detM - lam ** 3 * detN).is_zero():
            return "determinant"
        if not (trM - lam * trN).is_zero():
            return "trace"
        if not (triM - invert(lam) * triN).is_zero():
            return "inverse-trace"
        return None

    if spec.kind == "modular":
        failures = []
        for r in range(1, spec.modulus):
            lam = spec.const(r)
            w = check(lam)
            if w is None:
                return ("POSSIBLE", lam)
            failures.append(w)
        # report the obstruction for the trace-determined candidate if any
        if not trN.is_zero():
            w = check(trM * invert(trN))
            if w:
                return ("IMPOSSIBLE", w)
        return ("IMPOSSIBLE", "no unit satisfies all three conditions")
    # exact rational case
    if not trN.is_zero():
        lam = trM * invert(trN)
        w = check(lam)
        return ("POSSIBLE", lam) if w is None else ("IMPOSSIBLE", w)
    if not trM.is_zero():
        return ("IMPOSSIBLE", "trace")
    roots = _cube_roots(detM * invert(detN))
    for lam in roots:
        if check(lam) is None:
            return ("POSSIBLE", lam)
    return ("IMPOSSIBLE", "determinant" if not roots else "inverse-trace")


def symmetric_difference(F: RingElement) -> RingElement:
    """[F(t+1) + F(-t-1)] - [F(t) + F(-t)] for univariate F."""
    spec = F.spec
    names = [v for v in spec.variables]
    assert len(names) == 1, "symmetric_difference expects one variable"
    t = spec.var(names[0])
    sub = lambda val: substitute(F, {names[0]: val})
    return (sub(t + 1) + sub(-t - 1)) - (sub(t) + sub(-t))


def short_root_squares(system) -> Report:
    """The designated coordinates of [x_a(1), x_b(s)] that the short-root
    squaring argument extracts: -s^2 at a+2b (B2 and G2) and -s^3 at a+3b
    (G2)."""
    t0 = time.perf_counter()
    system = SystemType(system)
    assert system.tag in ("B2", "G2")
    basis = build_basis(system)
    spec = RingSpec("poly", ("s",))
    s = spec.var("s")
    one = spec.one()
    comm = (root_element(basis, basis.root("a"), one)
            * root_element(basis, basis.root("b"), s)
            * root_element(basis, basis.root("a"), -one)
            * root_element(basis, basis.root("b"), -s))
    coords = dict((root.coords, val) for root, val in
                  unipotent_coordinates(comm, basis, positive_roots(system)))
    want = {(1, 2): -s * s}
    if system.tag == "G2":
        want[(1, 3)] = -s * s * s
    ok = all((coords[k] - v).is_zero() for k, v in want.items())
    shown = ", ".join(f"{k}: {coords[k]!r}" for k in sorted(want))
    return Report(f"{system.tag}-short-root-squares",
                  "PASS" if ok else "FAIL", "" if ok else shown,
                  (time.perf_counter() - t0) * 1000, shown)
