"""Hand-written known answers for every job the workloads issue.

Nothing here is read from chevlab or from its output: the expected values
are closed forms, counts taken from the paper's catalog as documented in the
README, or facts about root systems written out below.  ``check`` returns a
list of problems for one job; an empty list means the job's verdicts and
output are right.
"""

from __future__ import annotations

import json
from math import gcd

# --- prooflab catalog -----------------------------------------------------

# Records per system (58 in all) and the records reported as SKIPPED.
CATALOG_RECORDS = {"A1": 6, "A2": 23, "B2": 8, "G2": 21}
CATALOG_SKIPPED = {
    "A1": (),
    "A2": ("A2-skip-H1-case-analysis",),
    "B2": (),
    "G2": ("G2-skip-W2-torus-elimination", "G2-skip-X5-bruhat-elimination"),
}
MUTANT_SUFFIX = "-mutant"

CHAIN_STAGES = ("b2c4", "ac5", "c3cube", "b-ac2sq", "c4-c2sq",
                "c3sq-plus-c2cube", "c2quad", "bc1", "final-2b")

SYSTEMS = ("A1", "A2", "B2", "G2")

# --- root systems (coordinates in the simple roots) -------------------------

POSITIVE_ROOTS = {
    "A1": ((1,),),
    "A2": ((1, 0), (0, 1), (1, 1)),
    "B2": ((1, 0), (0, 1), (1, 1), (1, 2)),
    "G2": ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)),
}
RANK = {"A1": 1, "A2": 2, "B2": 2, "G2": 2}

# tr Ad(x_a(t) x_-a(s)) for a long root a.  Under the SL2 of a, the adjoint
# module is V2 + m1 V1 + m0 V0, and g = x(t) x(-s) has trace tau = 2 + ts on
# V1, so the trace is (tau^2 - 1) + m1 tau + m0:
#   A1: V2                 -> t^2 s^2 + 4ts + 3
#   A2: V2 + 2 V1 + V0     -> t^2 s^2 + 6ts + 8
#   B2: V2 + 2 V1 + 3 V0   -> t^2 s^2 + 6ts + 10
#   G2: V2 + 4 V1 + 3 V0   -> t^2 s^2 + 8ts + 14
LONG_ROOT_TRACE = {
    "A1": "t^2*s^2 + 4*t*s + 3",
    "A2": "t^2*s^2 + 6*t*s + 8",
    "B2": "t^2*s^2 + 6*t*s + 10",
    "G2": "t^2*s^2 + 8*t*s + 14",
}


def _roots(system):
    pos = POSITIVE_ROOTS[system]
    return set(pos) | {tuple(-x for x in r) for r in pos}


def _combo(i, g, j, d):
    return tuple(i * x + j * y for x, y in zip(g, d))


def expected_relation_pairs(system) -> set:
    """Ordered pairs of distinct positive roots with g + d a root: exactly
    the pairs whose commutator [x_g, x_d] is nontrivial."""
    pos = POSITIVE_ROOTS[system]
    roots = _roots(system)
    return {(g, d) for g in pos for d in pos
            if g != d and _combo(1, g, 1, d) in roots}


def chevalley_magnitude(system, g, d) -> int:
    """|N_{g,d}| = r + 1, r the largest k with d - k g a root."""
    roots = _roots(system)
    r = 0
    while _combo(-(r + 1), g, 1, d) in roots:
        r += 1
    return r + 1


# --- finite groups --------------------------------------------------------

def group_order(system, p) -> int:
    """|E(system, F_p)| for the adjoint groups the workloads build."""
    if system == "A1":       # PSL2(p)
        return p * (p * p - 1) // gcd(2, p - 1)
    if system == "B2":       # PSp4(p) = P Omega_5(p)
        return p ** 4 * (p * p - 1) * (p ** 4 - 1) // gcd(2, p - 1)
    if system == "A2":       # PSL3(p)
        return p ** 3 * (p * p - 1) * (p ** 3 - 1) // gcd(3, p - 1)
    raise KeyError(system)


def class_count(system, p):
    """Number of conjugacy classes where a closed form is at hand."""
    if system == "A1" and p % 2:     # PSL2(q), q odd: (q + 5) / 2
        return (p + 5) // 2
    if (system, p) == ("B2", 2):     # Sp4(2) = S6: the 11 partitions of 6
        return 11
    return None


# --- Weyl groups ----------------------------------------------------------

# Cartan matrices; either orientation of B2 gives the same Coxeter group.
CARTAN = {"A2": ((2, -1), (-1, 2)), "B2": ((2, -1), (-2, 2))}


def weyl_matrix(system, word):
    """The Weyl element s_{word[0]} s_{word[1]} ... as its (faithful) action
    on simple-root coordinates, a tuple of columns."""
    cartan = CARTAN[system]
    n = len(cartan)

    def reflect(i, v):
        pair = sum(v[j] * cartan[j][i] for j in range(n))
        return tuple(v[k] - (pair if k == i else 0) for k in range(n))

    cols = []
    for k in range(n):
        v = tuple(int(k == j) for j in range(n))
        for i in reversed(word):
            v = reflect(i, v)
        cols.append(v)
    return tuple(cols)


# --- checks ---------------------------------------------------------------

def _parse(out: str, problems: list):
    objs = []
    for line in out.splitlines():
        try:
            objs.append(json.loads(line))
        except ValueError:
            problems.append(f"unparsable output line {line[:80]!r}")
    return objs


def _verdicts(objs):
    return {o.get("name"): o for o in objs if "verdict" in o}


def _check_chain(objs, problems):
    got = _verdicts(objs)
    want = [f"G2-chain-{s}" for s in CHAIN_STAGES]
    if sorted(got) != sorted(want):
        problems.append(f"chain stages {sorted(got)} != {sorted(want)}")
    for name in want:
        if got.get(name, {}).get("verdict") != "PASS":
            problems.append(f"{name} is not PASS")


def _check_prooflab(system, objs, problems):
    got = _verdicts(objs)
    skipped = set(CATALOG_SKIPPED[system])
    records = {n for n in got
               if not n.endswith(MUTANT_SUFFIX) and n not in skipped}
    mutants = {n[:-len(MUTANT_SUFFIX)] for n in got
               if n.endswith(MUTANT_SUFFIX)}
    if len(records) != CATALOG_RECORDS[system]:
        problems.append(f"{system}: {len(records)} catalog records,"
                        f" want {CATALOG_RECORDS[system]}")
    if mutants != records:
        problems.append(f"{system}: mutants do not match the records")
    for name in records:
        if got[name]["verdict"] != "PASS":
            problems.append(f"{name} is {got[name]['verdict']}, want PASS")
    for name in skipped:
        if got.get(name, {}).get("verdict") != "SKIPPED":
            problems.append(f"{name} is not SKIPPED")
    for base in mutants:
        obj = got[base + MUTANT_SUFFIX]
        detail = obj.get("detail", "")
        if (obj["verdict"] != "PASS" or not detail.startswith("mutant verdict")
                or detail.endswith(" PASS")):
            problems.append(f"mutant {base} passed ({detail!r})")


def _check_centralizer(argv, objs, problems):
    got = _verdicts(objs)
    system = argv[argv.index("--system") + 1] if "--system" in argv else None
    systems = [system] if system else SYSTEMS
    want = {f"{s}-centralizer-family" for s in systems}
    prime = int(argv[argv.index("--prime") + 1]) if "--prime" in argv else None
    if prime:
        brute = {f"{s}-centralizer-bruteforce-p{prime}": s for s in systems}
        want |= set(brute)
        for name, s in brute.items():
            count = prime ** RANK[s]
            if got.get(name, {}).get("detail") != f"count {count}":
                problems.append(f"{name}: want count {count}")
    if set(got) != want:
        problems.append(f"centralizer reports {sorted(got)} != {sorted(want)}")
    for name, obj in got.items():
        if obj["verdict"] != "PASS":
            problems.append(f"{name} is {obj['verdict']}, want PASS")


def _check_relations(objs, problems):
    traces = {o["system"]: o["long_root_trace"] for o in objs
              if "long_root_trace" in o}
    if traces != LONG_ROOT_TRACE:
        problems.append(f"long-root traces {traces} != {LONG_ROOT_TRACE}")
    for system in SYSTEMS:
        rels = [o for o in objs if o.get("system") == system and "factors" in o]
        roots = _roots(system)
        pairs = {(tuple(o["g"]), tuple(o["d"])) for o in rels}
        if len(rels) != len(pairs) or pairs != expected_relation_pairs(system):
            problems.append(f"{system}: relation pairs {sorted(pairs)}")
            continue
        for o in rels:
            g, d = tuple(o["g"]), tuple(o["d"])
            lead = None
            for i, j, coords, c in o["factors"]:
                if (tuple(coords) != _combo(i, g, j, d)
                        or tuple(coords) not in roots or c == 0):
                    problems.append(f"{system}: bad factor {[i, j, coords, c]}"
                                    f" in [x{g}, x{d}]")
                if (i, j) == (1, 1):
                    lead = abs(c)
            if lead != chevalley_magnitude(system, g, d):
                problems.append(f"{system}: |N{g},{d}| = {lead}")


def _check_sha(argv, objs, problems):
    system = argv[argv.index("--system") + 1]
    p = int(argv[argv.index("--prime") + 1])
    if len(objs) != 1:
        problems.append(f"sha printed {len(objs)} records")
        return
    rep = objs[0]
    order = group_order(system, p)
    want = {"system": system, "p": p, "group_order": order,
            "cp_endo_count": order, "inner_count": order,
            "verdict": "PASS", "hypothesis_violated": p == 2}
    classes = class_count(system, p)
    if classes is not None:
        want["class_count"] = classes
    for key, value in want.items():
        if rep.get(key) != value:
            problems.append(f"sha {system}/F_{p}: {key} = {rep.get(key)!r},"
                            f" want {value!r}")


def _check_decompose(job, objs, problems):
    if len(objs) != 1 or "factorization" not in objs[0]:
        problems.append("decompose printed no factorization")
        return
    got = objs[0].get("weyl_word")
    system = job["system"]
    if not isinstance(got, list) or \
            weyl_matrix(system, got) != weyl_matrix(system, job["cell"]):
        problems.append(f"Weyl word {got} is not the cell {job['cell']}")


def check(job, rc: int, out: str) -> list:
    """Problems with one job's exit code and json-lines output."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    objs = _parse(out, problems)
    argv = job["argv"]
    command = argv[0]
    if command == "chain":
        _check_chain(objs, problems)
    elif command == "prooflab":
        _check_prooflab(argv[argv.index("--system") + 1], objs, problems)
    elif command == "centralizer":
        _check_centralizer(argv, objs, problems)
    elif command == "relations":
        _check_relations(objs, problems)
    elif command == "sha":
        _check_sha(argv, objs, problems)
    elif command == "decompose":
        _check_decompose(job, objs, problems)
    else:
        problems.append(f"no known answer for {command}")
    return problems


# Realizations `decompose` and `eval` use by default: A2 lives in PGL3, so
# its matrices are equal only up to a scalar.
PROJECTIVE = {"A2": True, "B2": False}


def same_element(system, p, a, b) -> bool:
    """Entry matrices a, b (ints) name the same group element over F_p."""
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return False
    flat_a = [x % p for row in a for x in row]
    flat_b = [x % p for row in b for x in row]
    if not PROJECTIVE[system]:
        return flat_a == flat_b
    k = next((i for i, x in enumerate(flat_b) if x), None)
    if k is None or not flat_a[k]:
        return False
    scale = flat_a[k] * pow(flat_b[k], -1, p) % p
    return all(x == scale * y % p for x, y in zip(flat_a, flat_b))
