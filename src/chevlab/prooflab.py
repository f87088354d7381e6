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

import bisect
import fnmatch
import functools
import itertools
import math
import os
import pickle
import time
from fractions import Fraction

import numpy as np

from . import shacheck
from .chevgroup import (AdjointMatrix, CentralizerFamily, GroupWord,
                        build_basis, commutator_relation, evaluate_word,
                        identity_matrix, matrix_from_entries, parse_word,
                        pgl3_equal, root_element, standard_family)
# reduce_terms is unused here; perfbench's tracer test calls prooflab's name
from .exactring import (DenominatorNotInvertible, MonomialPacking, NotAUnit,
                        RingElement, RingError, RingSpec, RewriteRule,
                        deglex_key, integer_root, invert, is_prime,
                        map_to_modular, mul_terms, parse_expr, reduce_terms,
                        sub_terms, substitute)
from .rootsys import SystemType, cartan_integer, positive_roots


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
# independent jobs spread over the CPUs
# ---------------------------------------------------------------------------

def _share_count() -> int:
    """How many processes ``_fan_out`` may deal jobs to: one per CPU the
    process may run on, at most four, and one where fork is missing.  Four
    of the chain's nine stages take nearly all its time, so more than four
    shares gain nothing there."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), 4)


def _run_share(fn, jobs, share):
    """(None, [fn(*jobs[k]) for k in share]), or (k, exception) for the
    first k in ``share`` whose job raises."""
    results = []
    for k in share:
        try:
            results.append(fn(*jobs[k]))
        except BaseException as exc:
            return k, exc
    return None, results


def _run_child_share(fn, jobs, share, write, inherited):
    """The body of a forked share: write the pickled ``_run_share`` of
    ``share`` to ``write``, then end the process without running the
    parent's cleanup.  An exception the caller could not rebuild is sent
    as a RuntimeError naming it; results that do not pickle fail after
    every job."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        k, value = _run_share(fn, jobs, share)
        try:
            data = pickle.dumps((k, value))
            if k is not None:
                pickle.loads(data)      # the caller must be able to rebuild it
        except Exception as exc:
            if k is None:
                k, value = len(jobs), exc
            data = pickle.dumps(
                (k, RuntimeError(f"{type(value).__name__}: {value}")))
        with open(write, "wb") as f:
            f.write(data)
        code = 0
    finally:
        os._exit(code)


def _fan_out(fn, jobs, n, weights=None) -> list:
    """[fn(*job) for job in jobs], the jobs dealt over ``n`` shares, or
    over one share per job when there are fewer.  The jobs are dealt
    heaviest first by ``weights`` (all equal when omitted), each to the
    share with the least weight so far, ties to the lowest share (Graham's
    LPT rule); equal positive weights deal them round-robin.  Share 0 runs
    in this process; every other share runs in a forked child that sends
    back its results, or the first exception it meets.  Each share runs
    its jobs in job order, so the exception of the earliest failing job is
    the one raised, as in a serial run.  Every child is reaped before this
    returns or raises.  A single share forks nothing."""
    n = max(min(n, len(jobs)), 1)
    weights = weights or [1] * len(jobs)
    shares = [[] for _ in range(n)]
    loads = [0] * n
    for k in sorted(range(len(jobs)), key=lambda k: -weights[k]):
        s = loads.index(min(loads))
        bisect.insort(shares[s], k)
        loads[s] += weights[k]
    children = []                               # (pid, read end)
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _run_child_share(fn, jobs, share, write,
                                 [read] + [fd for _, fd in children])
            os.close(write)
            children.append((pid, read))
        done = [_run_share(fn, jobs, shares[0])]
        k, value = done[0]
        if k is not None and not isinstance(value, Exception):
            raise value                         # an interrupt, not a job error
        for pid, read in children:
            with open(read, "rb", closefd=False) as f:
                data = f.read()
            if not data:
                raise RuntimeError(f"share process {pid} ended without"
                                   " a result")
            done.append(pickle.loads(data))
        failed = [(k, exc) for k, exc in done if k is not None]
        if failed:
            raise min(failed, key=lambda f: f[0])[1]
    finally:
        for pid, read in children:
            os.close(read)
            os.waitpid(pid, 0)
    out = {k: result for share, (_, results) in zip(shares, done)
           for k, result in zip(share, results)}
    return [out[k] for k in range(len(jobs))]


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
                m = evaluate_word(word, basis, self.realization, spec=spec)
            else:
                m = matrix_from_entries(spec, item, self.realization)
            out = m if out is None else out * m
        if out is None:
            out = identity_matrix(
                spec, basis.realization(self.realization).dim,
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
    Laurent monomial of a fraction field, the meaningful notion of 'unit
    multiple' here."""
    spec = entry.spec
    if spec.kind != "fraction":
        raise RingError(f"entries records need a fraction field, not a"
                        f" {spec.kind} ring")
    if claim.is_zero() or entry.is_zero():
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


def run_identity(rec: IdentityRecord, sides: dict = None) -> Report:
    """The verdict on ``rec``.  ``sides`` holds the matrices of sides
    already evaluated for records over the same system, realization and
    ring, keyed by their items: a side found there is not evaluated again,
    and a side evaluated here is added."""
    sides = {} if sides is None else sides

    def evaluated(items):
        key = tuple(item if isinstance(item, str) else tuple(map(tuple, item))
                    for item in items)
        if key not in sides:
            sides[key] = rec._eval_side(items)
        return sides[key]

    t0 = time.perf_counter()
    try:
        lhs = evaluated(rec.lhs)
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
        rhs = evaluated(rec.rhs)
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
        lhs._check_shape(rhs, "subtract")
        witness = next((f"entry ({i},{j}) = {a - b!r}"
                        for i, (ra, rb) in enumerate(zip(lhs.rows, rhs.rows))
                        for j, (a, b) in enumerate(zip(ra, rb)) if a != b), "")
        return _residual_report(rec, not witness, witness, t0)
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
                row.append(f"x^{w1}*y^{w2}")
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
    if len(names) != len(set(names)):
        raise ValueError(f"the {tag} catalog repeats a record name")
    return recs


def _record_job(rec: IdentityRecord, mutant: bool):
    """The report on ``rec`` and, when ``mutant`` is set, the report on its
    mutant, which passes when the mutant does not; the mutant reuses each
    side it leaves as it was."""
    sides = {}
    report = run_identity(rec, sides)
    if not mutant:
        return report, None
    rep = run_identity(rec.mutate(), sides)
    ok = rep.verdict != "PASS"
    return report, Report(rep.name, "PASS" if ok else "FAIL",
                          "" if ok else "mutant passed", rep.millis,
                          f"mutant verdict {rep.verdict}")


def run_catalog(*systems, name_filter: str = None,
                mutants: bool = False) -> list:
    """The reports on the built-in catalogs of ``systems``, system by
    system: its record reports and SKIPPED notes sorted by name, then,
    when ``mutants`` is set, one report per record's mutant in catalog
    order.  Each record, with its mutant, is one job, and the jobs of all
    the systems are spread over the CPUs at once (``_fan_out``)."""
    def picked(name):
        return not name_filter or fnmatch.fnmatch(name, name_filter)

    catalogs = [[rec for rec in builtin_catalog(system) if picked(rec.name)]
                for system in systems]
    for system in systems:
        build_basis(system)             # built once, before any fork
    done = iter(_fan_out(_record_job,
                         [(rec, mutants) for recs in catalogs for rec in recs],
                         _share_count()))
    reports = []
    for system, recs in zip(systems, catalogs):
        results = [next(done) for _ in recs]
        notes = [Report(name, "SKIPPED", detail=anchor) for name, anchor
                 in _SKIPPED_NOTES.get(SystemType(system).tag, ())
                 if picked(name)]
        reports += sorted([report for report, _ in results] + notes,
                          key=lambda r: r.name)
        if mutants:
            reports += [mutant for _, mutant in results]
    return reports


def commutator_tables(*systems) -> list:
    """For each of ``systems``, its nontrivial relations [x_g(t), x_d(u)]
    over the ordered pairs g != d of positive roots, in root order.  Each
    pair is one job, and the jobs of all the systems are spread over the
    CPUs at once (``_fan_out``)."""
    pairs = [[(g, d) for g in pos for d in pos if g != d]
             for pos in map(positive_roots, systems)]
    jobs = [(build_basis(system), g, d)
            for system, system_pairs in zip(systems, pairs)
            for g, d in system_pairs]
    relations = iter(_fan_out(commutator_relation, jobs, _share_count()))
    return [[rel for rel in itertools.islice(relations, len(system_pairs))
             if not rel.is_trivial()] for system_pairs in pairs]


# ---------------------------------------------------------------------------
# centralizer machinery
# ---------------------------------------------------------------------------

class CentralizerMismatch(Exception):
    """The brute-force centralizer differs from the claimed family."""


def _family_matrix(fam: CentralizerFamily, spec: RingSpec, basis):
    """The family's generic element over ``spec``."""
    if fam.matrix_family is not None:
        return matrix_from_entries(spec, fam.matrix_family, fam.realization)
    return evaluate_word(parse_word(fam.word_text(), fam.system, spec),
                         basis, fam.realization, spec=spec)


def centralizer_check(fam: CentralizerFamily) -> Report:
    t0 = time.perf_counter()
    name = f"{fam.system.tag}-centralizer-family"
    spec = fam.ring()
    basis = build_basis(fam.system)
    try:
        x0 = evaluate_word(parse_word(fam.x0, fam.system, spec), basis,
                           fam.realization, spec=spec)
        g = _family_matrix(fam, spec, basis)
        residual = g * x0 - x0 * g
        ok = residual.is_zero()
        return Report(name, "PASS" if ok else "FAIL",
                      "" if ok else "commutation residual is nonzero",
                      (time.perf_counter() - t0) * 1000)
    except (RingError, ValueError) as exc:
        return Report(name, "FAIL", f"error: {exc}",
                      (time.perf_counter() - t0) * 1000)


def centralizer_bruteforce(system, p: int, cap: int = shacheck.DEFAULT_CAP):
    """Exhaustive centralizer of the family's x0 in E(system, F_p), from
    x0's conjugacy orbit (``shacheck.element_centralizer``), checked
    elementwise against the symbolic family; returns (count, centralizer
    keys).  A family that needs p invertible raises before the search."""
    system = SystemType(system)
    fam = standard_family(system)
    basis = build_basis(system)

    # the family over F_p: its generic element under every parameter value
    generic = _family_matrix(fam, fam.ring(), basis)
    values = [dict(zip(fam.free, v))
              for v in itertools.product(range(p), repeat=len(fam.free))]
    try:
        mats = np.array([[[map_to_modular(e, p, b).residue for e in row]
                          for row in generic.rows] for b in values])
    except DenominatorNotInvertible:
        raise DenominatorNotInvertible(
            f"the {system.tag} centralizer family needs {p} invertible, and"
            f" it is not mod {p}") from None
    fam_keys = shacheck.element_keys(mats, fam.realization, p)

    spec = RingSpec("modular", modulus=p)
    x0 = shacheck.matrix_array(evaluate_word(
        parse_word(fam.x0, system, spec), basis, fam.realization, spec=spec),
        fam.realization, p)
    cent, contains = shacheck.element_centralizer(system, p, x0, cap=cap)
    if fam.matrix_family is not None:
        # the A1 grid meets matrices outside the group
        fam_keys = itertools.compress(fam_keys, contains(mats))
    if set(fam_keys) != cent.index.keys():
        raise CentralizerMismatch("centralizer does not match the family")
    return len(cent), set(cent.index)


# ---------------------------------------------------------------------------
# the G2 entry-constraint chain
# ---------------------------------------------------------------------------
#
# The chain runs on packed monomials (``MonomialPacking``): a term dict maps
# an int key to its coefficient, and a rule is a (lhs key, {key: int}) pair.

_CHAIN_VARS = ("a", "b", "c1", "c2", "c3", "c4", "c5", "d")
_CHAIN_PACKING = MonomialPacking(len(_CHAIN_VARS))
# the value bits of the slots of b, c1..c5
_CHAIN_RADICAL = _CHAIN_PACKING.value_mask(range(1, 7))
_CHAIN_MULTS = [_CHAIN_PACKING.pack(m)
                for m in itertools.product(range(3), repeat=8) if sum(m) <= 2]
_CHAIN_STAGES = [
    # (name, claim, rules the later stages assume once this stage passes,
    #  rows the stage inserts: its cost when the stages are dealt)
    ("b2c4", "b^2*c4", ["b^2*c4 -> 0"], 0),
    ("ac5", "a*c5", ["c5 -> 0"], 0),
    ("c3cube", "c3^3", ["c3^3 -> 0"], 0),
    ("b-ac2sq", "b - a*c2^2", ["a*c2^2 -> b"], 1068),
    ("c4-c2sq", "c4 - c2^2", ["c2^2 -> c4"], 2257),
    ("c3sq-plus-c2cube", "c3^2 + c2^3", ["c2*c4 -> -c3^2"], 2404),
    ("c2quad", "c2^4", ["c4^2 -> 0", "b^2 -> 0"], 2545),
    ("bc1", "b*c1", ["b*c1 -> 0"], 0),
    ("final-2b", "2*b", [], 0),
]


def _chain_spec() -> RingSpec:
    return RingSpec("poly", _CHAIN_VARS)


def _parse_rule(text: str):
    """The packed rule of ``lhs -> rhs``.  Its rhs must be integral, so
    that reduction keeps integer rows integral."""
    lhs_text, rhs_text = text.split("->")
    spec = _chain_spec()
    (mono, coeff), = parse_expr(lhs_text.strip(), spec).terms.items()
    rhs = parse_expr(rhs_text.strip(), spec)
    rule = RewriteRule(mono, {m: c / coeff for m, c in rhs.terms.items()})
    if any(c.denominator != 1 for c in rule.rhs.values()):
        raise RingError(f"chain rule {text!r} has a non-integer rhs")
    pack = _CHAIN_PACKING.pack
    return pack(rule.lhs), {pack(m): int(c) for m, c in rule.rhs.items()}


@functools.cache
def _chain_residual_entries():
    """Nonzero entries of g X6 - x_{2a+3b}(a) g over Q[a,b,c1..c5,d], as
    ((i, j), packed terms), with g = x(-a,c1) x(-a-b,c2) x(-a-2b,c3)
    x(-a-3b,c4) x(-2a-3b,c5) and X6 the standard family: g is evaluated
    once, and each distinct monomial is packed once."""
    basis = build_basis("G2")
    spec = _chain_spec()
    g, x6, x = (evaluate_word(parse_word(text, "G2", spec), basis, spec=spec)
                for text in ("x(-a,c1) x(-a-b,c2) x(-a-2b,c3) x(-a-3b,c4)"
                             " x(-2a-3b,c5)",
                             standard_family("G2").word_text(), "x(2a+3b, a)"))
    pack = functools.cache(_CHAIN_PACKING.pack)
    return [((i, j), {pack(m): c for m, c in e.terms.items()})
            for i, row in enumerate((g * x6 - x * g).rows)
            for j, e in enumerate(row) if e.terms]


def _poly_divide(entry, claim):
    """entry / claim when the division is exact, else None.  Each step
    removes the lead of the remainder and adds only smaller monomials, so
    the loop ends (deglex is a well-order), and the quotient monomials
    strictly decrease, none written twice."""
    rem = dict(entry)
    quot = {}
    clead = max(claim)
    cc = claim[clead]
    while rem:
        lead = max(rem)
        if not _CHAIN_PACKING.divides(clead, lead):
            return None
        mono = lead - clead
        q = quot[mono] = rem[lead] / cc
        rem = sub_terms(rem, {m + mono: q * c for m, c in claim.items()})
    return quot


def _unit_shaped(quot):
    """q * a^i * d^j * (1 + radical) with b, c1..c5 the radical variables;
    returns (q, a^i d^j)."""
    if not quot:
        return None
    units = [m for m in quot if not m & _CHAIN_RADICAL]
    if len(units) != 1:
        return None
    base = units[0]
    if not all(_CHAIN_PACKING.divides(base, m) for m in quot):
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
        # the leads come off the top of the row's monomials kept sorted; a
        # monomial that has cancelled is stale and skipped.  A pivot's tail
        # lies below its lead, so no lead comes back once taken.
        order = sorted(row)
        while order:
            lead = order.pop()
            c = row.pop(lead, None)
            if c is None:
                continue
            piv = pivots.get(lead)
            if piv is None:
                out[lead] = c
                continue
            p, tail = piv
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
                s = row.get(m)
                if s is None:
                    row[m] = -c * x
                    bisect.insort(order, m)
                elif s != c * x:
                    row[m] = s - c * x
                else:
                    del row[m]
        return out

    def insert(self, row):
        """Reduce ``row`` and keep it as a pivot if it is not in the span;
        returns the new pivot's lead, or None.  The pivot's tail avoids
        every older lead."""
        row = self.reduce(row)
        if row:
            lead = max(row)
            g = math.gcd(*row.values())
            if row[lead] < 0:
                g = -g
            self.pivots[lead] = (row.pop(lead) // g,
                                 tuple((m, x // g) for m, x in row.items()))
            return lead
        return None


def _integer_row(terms):
    """Packed terms scaled by a positive rational to primitive integers."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    row = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    g = math.gcd(*row.values())
    return {m: x // g for m, x in row.items()}


def _row_key(row):
    return len(row), max(row)


def _chain_rows(entries, rules):
    """The nonzero reduced monomial multiples of the reduced entries as
    primitive integer rows, built lazily in the order a stage inserts
    them: the entries shortest first, and each entry's 45 multiples
    shortest first (by length, then lead).

    Only the multiples made of lhs variables are reduced.  A multiple
    v * m' with v a variable that no lhs holds comes after m' in
    ``_CHAIN_MULTS``, and its row is the row of m' shifted by v, item for
    item (``MonomialPacking.unread``)."""
    P = _CHAIN_PACKING
    rules = P.rules(rules)
    unread = P.unread(rules)
    plan = []       # (m, v): the row of m - v shifted by v, or reduced if 0
    for m in _CHAIN_MULTS:
        step = 0
        for v in unread:
            if P.divides(v, m):
                step = v
                break
        plan.append((m, step))
    for row in sorted((_integer_row(terms) for _, terms in entries),
                      key=_row_key):
        forms = {}
        rows = []
        for m, v in plan:
            if v:
                r = P.shift(forms[m - v], v)
            else:
                r = P.reduce(row, rules, shift=m)
            forms[m] = r
            if r:
                rows.append(r)
        rows.sort(key=_row_key)
        yield from rows


def _row_monomials(entries, rules):
    """A test whether a monomial can lie on a row ``_chain_rows`` builds
    from ``entries`` modulo ``rules``, run backwards from the monomial.

    A row reduces a multiple m * e, m in ``_CHAIN_MULTS``, so each of its
    monomials is m + k for k in the support of an entry, or is made from
    such a monomial nu by rewrites nu -> (nu - lhs) + k', k' in the rhs.
    The test undoes the rewrites: mu can lie on a row when it is m + k, or
    when mu - k' + lhs can, k' dividing mu.  A rewrite never raises the
    degree, so no row monomial exceeds the degree of the largest multiple,
    and undoing one raises the key: the search ends.  A monomial it calls
    off the rows is on none."""
    P = _CHAIN_PACKING
    support = set()
    for _, terms in entries:
        support.update(terms)
    deg = P.slot_bits * P.nvars          # the shift of the degree slot
    limit = ((max(support) >> deg) + 3) << deg
    undo = [(k, lhs - k) for lhs, _, rhs in P.rules(rules) for k, _ in rhs]
    off = set()                          # monomials shown off every row

    def on_rows(mono):
        seen = {mono}
        stack = [mono]
        while stack:
            mu = stack.pop()
            if any(mu - m in support for m in _CHAIN_MULTS):
                return True
            for k, step in undo:
                nu = mu + step
                if (nu < limit and nu not in seen and nu not in off
                        and P.divides(k, mu)):
                    seen.add(nu)
                    stack.append(nu)
        off.update(seen)
        return False

    return on_rows


def _chain_stage(name, claim_text, rules) -> Report:
    """One stage of the chain: certify ``claim_text`` as a consequence of
    the residual entries modulo the packed ``rules``."""
    P = _CHAIN_PACKING
    t0 = time.perf_counter()
    rules = P.rules(rules)
    claim = P.pack_terms(parse_expr(claim_text, _chain_spec()).terms)
    claim_red = P.reduce(claim, rules)
    detail = ""
    ok = False
    if not claim_red:
        detail = "claim already rewrites to zero"
        ok = True
    else:
        # the residual entries reduced in order, up to the first that is a
        # unit multiple of the claim; a span stage takes them all
        entries = []
        for (i, j), terms in _chain_residual_entries():
            terms = P.reduce(terms, rules)
            unit = _unit_shaped(_poly_divide(terms, claim_red))
            if unit:
                ok = True
                detail = (f"entry ({i},{j}) = unit * claim, unit scalar"
                          f" {unit[0]}")
                break
            if terms:
                entries.append(((i, j), terms))
        else:
            rows = _chain_rows(entries, rules)
            on_rows = _row_monomials(entries, rules)
            ech = _Echelon()
            claim_row = _integer_row(claim_red)
            for ii, jj in itertools.product(range(3), repeat=2):
                mono = P.pack((ii, 0, 0, 0, 0, 0, 0, jj))
                mult = P.reduce(claim_row, rules, shift=mono)
                if not any(map(on_rows, mult)):
                    # on no row: its own remainder
                    rem = mult
                else:
                    # rows go in until the multiple is in their span; only
                    # a new lead on the remainder changes it
                    rem = ech.reduce(mult)
                    while rem:
                        row = next(rows, None)
                        if row is None:
                            break
                        if ech.insert(row) in rem:
                            rem = ech.reduce(rem)
                if not rem:
                    ok = True
                    detail = (f"claim * a^{ii} d^{jj} lies in the span of"
                              " the residual entries")
                    break
                qq = _poly_divide(rem, claim_red)
                if qq is not None and all(m & _CHAIN_RADICAL for m in qq):
                    ok = True
                    detail = ("claim * unit lies in the span of the"
                              " residual entries")
                    break
    if name == "final-2b" and ok:
        # 2b = 0 and 2 invertible give b = 0
        detail += "; with 2 invertible, b rewrites to 0"
    return Report(f"G2-chain-{name}", "PASS" if ok else "FAIL",
                  "" if ok else "claim not certified",
                  (time.perf_counter() - t0) * 1000, detail)


def entry_chain_g2() -> list:
    """Run the highest-root conjugacy constraint chain; one report per stage.

    A stage passes when its claimed polynomial is certified as a consequence
    of the residual entries modulo the rules established by earlier stages:
    either some entry is a unit multiple of the claim (units being rational
    multiples of a^i d^j times 1 + radical), or claim * a^i d^j lies in the
    Q-span of monomial multiples of the entries.  The final stage's detail
    states the consequence b = 0 of 2b = 0 once 2 is invertible.

    Every stage's rules are known before any stage runs, so the stages are
    independent and run spread over the available CPUs, dealt by the rows
    each inserts as ``_CHAIN_STAGES`` records them.  A stage after the
    first FAIL rests on that stage's rules, so it is INCONCLUSIVE.
    """
    jobs = []
    rules = ()
    for name, claim_text, rule_texts, _ in _CHAIN_STAGES:
        jobs.append((name, claim_text, rules))
        rules += tuple(_parse_rule(text) for text in rule_texts)
    _chain_residual_entries()           # built once, before any fork
    reports = _fan_out(_chain_stage, jobs, _share_count(),
                       [rows for *_, rows in _CHAIN_STAGES])
    for k, failed in enumerate(reports):
        if failed.verdict == "FAIL":
            return reports[:k + 1] + [
                Report(r.name, "INCONCLUSIVE",
                       f"rests on the failed stage {failed.name}", r.millis)
                for r in reports[k + 1:]]
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
    if not (sq - expect).is_zero():
        raise RuntimeError("transvection identity violated")
    return (u1 * u2).is_zero()


def _cube_roots(x: RingElement):
    """The cube roots of the constant x: the rational one over Q, the
    nonzero ones in ascending order over F_p.

    Over F_p write p - 1 = 3^s t with 3 not dividing t.  Then r =
    x^(1/3 mod t) has r^3 = x h^-1 with h of 3-power order, and for s = 0
    r is the one root.  Else x is a cube when x^((p-1)/3) = 1, and the
    Adleman-Manders-Miller step reads h = c^L, c = z^t for a non-cube z,
    one base-3 digit of L at a time; r c^(L/3) is a root, and times the
    cube roots of unity, all three."""
    spec = x.spec
    if spec.kind == "modular":
        p = spec.modulus
        if not is_prime(p):
            raise RingError(f"cube roots mod {p} need a prime modulus")
        a = x.residue
        if not a:
            return []
        s, t = 0, p - 1
        while t % 3 == 0:
            s, t = s + 1, t // 3
        r = pow(a, pow(3, -1, t), p)
        if s:
            third = (p - 1) // 3
            if pow(a, third, p) != 1:
                return []
            z = 2
            while pow(z, third, p) == 1:
                z += 1
            c = pow(z, t, p)
            omega = pow(c, 3 ** (s - 1), p)
            h = a * pow(r, -3, p) % p
            L = 0
            for i in range(s):
                d = pow(h * pow(c, -L, p), 3 ** (s - 1 - i), p)
                if d != 1:
                    L += (1 if d == omega else 2) * 3 ** i
            r = r * pow(c, L // 3, p) % p
            roots = sorted(r * pow(omega, k, p) % p for k in range(3))
        else:
            roots = [r]
        return [spec.const(r) for r in roots]
    val = x.constant_value()
    num = integer_root(abs(val.numerator), 3)
    den = integer_root(val.denominator, 3)
    if num is None or den is None:
        return []
    return [spec.const(Fraction(-num if val < 0 else num, den))]


def _det3(M: AdjointMatrix) -> RingElement:
    e = M.entry
    return (e(0, 0) * (e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1))
            - e(0, 1) * (e(1, 0) * e(2, 2) - e(1, 2) * e(2, 0))
            + e(0, 2) * (e(1, 0) * e(2, 1) - e(1, 1) * e(2, 0)))


def _minor_sum3(M: AdjointMatrix) -> RingElement:
    """e_2(M): the sum of the three principal 2x2 minors."""
    e = M.entry
    return (e(0, 0) * e(1, 1) - e(0, 1) * e(1, 0)
            + e(0, 0) * e(2, 2) - e(0, 2) * e(2, 0)
            + e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1))


def scalar_conjugacy_obstruction(M: AdjointMatrix, N: AdjointMatrix):
    """Necessary conditions for g M g^-1 = lambda N: det(M) = lambda^3
    det(N), tr(M) = lambda tr(N), tr(M^-1) = lambda^-1 tr(N^-1).

    Returns ("POSSIBLE", lambda) or ("IMPOSSIBLE", witness)."""
    detM, detN = _det3(M), _det3(N)
    trM, trN = M.trace(), N.trace()
    # Cayley-Hamilton: tr(M^-1) = e_2(M) / det M
    triM = _minor_sum3(M) * invert(detM)
    triN = _minor_sum3(N) * invert(detN)

    def check(lam):
        if not (detM - lam ** 3 * detN).is_zero():
            return "determinant"
        if not (trM - lam * trN).is_zero():
            return "trace"
        if not (triM - invert(lam) * triN).is_zero():
            return "inverse-trace"
        return None

    # tr N != 0 fixes lambda; otherwise lambda is a cube root of the
    # determinant ratio, tried in ascending order over a field F_p
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
    if len(names) != 1:
        raise ValueError("symmetric_difference expects one variable")
    t = spec.var(names[0])
    sub = lambda val: substitute(F, {names[0]: val})
    return (sub(t + 1) + sub(-t - 1)) - (sub(t) + sub(-t))
