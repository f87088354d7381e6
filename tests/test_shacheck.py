import gc
import json
import os
import random
import subprocess
import sys
import weakref

import numpy as np
import pytest

import chevlab
from chevlab import shacheck
from chevlab.chevgroup import (build_basis, default_realization,
                               evaluate_word, parse_word, root_element,
                               standard_family)
from chevlab.cli import dispatch
from chevlab.exactring import RingSpec
from chevlab.rootsys import SystemType, simple_roots
from chevlab.shacheck import (CapExceeded, DEFAULT_CAP, REJECT,
                              FiniteGroupTable, _canonicalize,
                              _inverse_permutation, _lookup,
                              class_preserving_endos, close,
                              conjugacy_classes, element_centralizer,
                              element_keys, expected_order,
                              extend_homomorphism,
                              generate_group, hypothesis_violated,
                              inner_endomorphisms, matrix_array, sha_report)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(chevlab.__file__)))


def matrix_mul(G, i, j):
    """Id of the product of two elements, by multiplying their matrices."""
    prod = G.elements[i].astype(np.int64) @ G.elements[j].astype(np.int64)
    canon = _canonicalize(prod[None], G.realization, G.p)[0]
    return G.index[canon.astype(np.uint8).tobytes()]


def matrix_conj(G, g, x):
    """Id of g x g^-1, with g^-1 found by search over the matrices."""
    g_inv = next(y for y in range(len(G))
                 if matrix_mul(G, g, y) == G.identity_id)
    return matrix_mul(G, matrix_mul(G, g, x), g_inv)


def generator_matrices(system, p):
    """The default realization of E(system, F_p) and its generators
    x_{+-a}(1) over the simple roots a, as a stack of integer matrices."""
    system = SystemType(system)
    realization = default_realization(system)
    basis = build_basis(system)
    one = RingSpec("modular", modulus=p).one()
    return realization, np.stack([
        matrix_array(root_element(basis, r, one, realization), realization, p)
        for g in simple_roots(system) for r in (g, -g)])


def per_row_closure(system, p, cap=DEFAULT_CAP):
    """Reference closure: every product x s_i looked up by its own Python
    step, and the inverses filled down the tree from the inverse
    permutations of the k |G| left-multiplication lookups."""
    realization, gens = generator_matrices(system, p)
    dim = gens.shape[1]

    def rows(keys):
        return np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(
            -1, dim, dim)

    ident = element_keys(np.eye(dim, dtype=np.int64)[None], realization, p)
    index = {ident[0]: 0}
    blocks = [rows(ident)]
    parent, parent_gen = [0], [0]
    rmul_levels = []
    levels = [0]
    lo = 0
    while lo < len(index):
        stack = blocks[-1].astype(np.int64)
        new, cols = [], []
        for i, g in enumerate(gens):
            col = np.empty(len(stack), dtype=np.int32)
            for r, key in enumerate(element_keys(stack @ g, realization, p)):
                j = index.get(key)
                if j is None:
                    if len(index) >= cap:
                        raise CapExceeded(f"group order exceeds cap {cap}")
                    j = index[key] = len(index)
                    new.append(key)
                    parent.append(lo + r)
                    parent_gen.append(i)
                col[r] = j
            cols.append(col)
        rmul_levels.append(np.stack(cols, axis=1))
        blocks.append(rows(new))
        lo += len(stack)
        levels.append(lo)

    elements = np.concatenate(blocks)
    rmul = np.concatenate(rmul_levels)
    parent = np.array(parent, dtype=np.int32)
    parent_gen = np.array(parent_gen, dtype=np.int32)
    lmul = np.empty_like(rmul)
    for lo, hi in zip(levels, levels[1:]):
        stack = elements[lo:hi].astype(np.int64)
        for i, g in enumerate(gens):
            lmul[lo:hi, i] = _lookup(index, g @ stack, realization, p)
    left_inv = np.stack([_inverse_permutation(lmul[:, i])
                         for i in range(len(gens))])
    inverses = np.zeros(len(elements), dtype=np.int32)
    for lo, hi in zip(levels[1:], levels[2:]):
        inverses[lo:hi] = left_inv[parent_gen[lo:hi], inverses[parent[lo:hi]]]
    return FiniteGroupTable(p, realization, elements, index, rmul, parent,
                            parent_gen, levels, inverses)


def per_element_conjugacy_classes(G):
    """Reference: the conjugacy classes by a breadth-first walk from each
    id not yet classed, one Python step per element and generator."""
    inv = G.inverses
    conj = []
    for i in range(len(G.generators)):
        right_inv = _inverse_permutation(G.rmul[:, i])
        conj.append(right_inv[inv[right_inv[inv]]].tolist())
    class_of = [-1] * len(G)
    classes = []
    for start in range(len(G)):
        if class_of[start] >= 0:
            continue
        orbit, queue = [start], [start]
        class_of[start] = len(classes)
        while queue:
            x = queue.pop()
            for perm in conj:
                y = perm[x]
                if class_of[y] < 0:
                    class_of[y] = len(classes)
                    orbit.append(y)
                    queue.append(y)
        classes.append(sorted(orbit))
    return classes, class_of


def unreduced_search(G, classes, class_of, first):
    """Reference: the class-preserving tuples whose image of s_1 lies in
    ``first``, with every candidate tuple that passes the pair filters
    extended (not one image of s_2 per C_G(s_1)-orbit)."""
    gen_ids = G.generators
    candidates = [first] + [classes[class_of[g]] for g in gen_ids[1:]]
    n = len(gen_ids)
    pair_target = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                pair_target[(i, j)] = class_of[G.mul(gen_ids[i], gen_ids[j])]
    chosen = [()]
    for k in range(n):
        chosen = [prefix + (c,) for prefix in chosen for c in candidates[k]
                  if all(class_of[G.mul(prefix[i], c)] == pair_target[(i, k)]
                         for i in range(k))]
    class_arr = np.array(class_of)
    found = []
    for images in chosen:
        table = extend_homomorphism(G, images)
        if table is not REJECT and np.array_equal(class_arr[table],
                                                  class_arr):
            found.append(images)
    return sorted(found)


def normalized_search(G):
    """The normalized class-preserving tuples N, the inner set over
    C_G(s_1) and the size of the class of s_1."""
    classes, class_of = conjugacy_classes(G)
    s1 = G.generators[0]
    return (class_preserving_endos(G, classes, class_of),
            inner_endomorphisms(G), len(classes[class_of[s1]]))


def full_class_preserving_endos(G):
    """Reference: every class-preserving endomorphism, with each image
    searched in the whole class of its generator."""
    classes, class_of = conjugacy_classes(G)
    s1 = G.generators[0]
    return unreduced_search(G, classes, class_of, classes[class_of[s1]])


def full_inner_endomorphisms(G):
    """Reference: the image tuples (g s_i g^-1)_i over every g in G."""
    stack = G.elements.astype(np.int64)
    inverse = stack[G.inverses]
    cols = []
    for gid in G.generators:
        s = G.elements[gid].astype(np.int64)
        cols.append(_lookup(G.index, stack @ s @ inverse, G.realization,
                            G.p).tolist())
    return set(zip(*cols))


def test_class_preserving_endos_reuses_right_multiplications(monkeypatch):
    G = generate_group("A2", 3)
    classes, class_of = conjugacy_classes(G)
    built = []
    original = shacheck.FiniteGroupTable.right_multiplication

    def counted(self, f):
        built.append(f)
        return original(self, f)

    monkeypatch.setattr(shacheck.FiniteGroupTable, "right_multiplication",
                        counted)
    normalized = class_preserving_endos(G, classes, class_of)
    # two for C_G(s_1) (x -> x s_1^-1 and x -> x s_1), then the four
    # tuples extended under the one C_G(s_1)-orbit's representative: four
    # for the first and one per changed position of each later one
    assert len(built) == 2 + 4 + 3 * 2
    assert len(G._right) == len(G.generators)
    monkeypatch.undo()
    # A2/F_3 passes: the normalized tuples are exactly the inner ones
    assert len(normalized) == 54
    assert normalized == sorted(inner_endomorphisms(G))


def test_group_orders():
    assert len(generate_group("A1", 3)) == 12
    assert len(generate_group("A1", 5)) == 60
    assert len(generate_group("A1", 7)) == 168
    assert len(generate_group("A2", 2)) == 168


def test_cap():
    with pytest.raises(CapExceeded):
        generate_group("A2", 5, cap=1000)


def test_cap_boundary():
    # PGL3(3) has order 5616: a cap equal to the order closes the group
    assert len(generate_group("A2", 3, cap=5616)) == 5616
    with pytest.raises(CapExceeded):
        generate_group("A2", 3, cap=5615)


def test_close_cap_boundary():
    # the closure's own cap check, which generate_group's refusal of a
    # group known to be too large no longer reaches
    realization, gens = generator_matrices("A2", 3)
    assert len(close(gens, realization, 3, cap=5616)) == 5616
    with pytest.raises(CapExceeded):
        close(gens, realization, 3, cap=5615)


def test_over_cap_group_is_refused_before_closing(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("close called for a group over the cap")

    monkeypatch.setattr(shacheck, "close", fail)
    # PSL3(7) has order 1,876,896
    with pytest.raises(CapExceeded) as err:
        generate_group("A2", 7)
    assert str(err.value) == (f"group order exceeds cap {DEFAULT_CAP};"
                              " raise --cap")


@pytest.mark.parametrize("system,p", [("A1", 3), ("A1", 5), ("A1", 7),
                                      ("A1", 13), ("A2", 2), ("A2", 3),
                                      ("B2", 2), ("G2", 2)])
def test_order_formula_matches_closure(system, p):
    assert expected_order(system, p) == len(generate_group(system, p,
                                                           cap=13000))


def test_close_of_an_empty_stack():
    with pytest.raises(ValueError) as err:
        close(np.zeros((0, 3, 3), dtype=np.int64), "pgl3", 5)
    assert str(err.value) == ("close needs at least one generator matrix;"
                              " the generator stack is empty")


def test_close_of_a_bare_matrix():
    with pytest.raises(ValueError) as err:
        close(np.eye(3, dtype=np.int64), "pgl3", 5)
    assert str(err.value) == ("close needs a (k, d, d) stack of generator"
                              " matrices, not an array of shape (3, 3)")


def test_close_refuses_residues_wider_than_a_byte():
    x = np.array([[[1, 1], [0, 1]]])
    # x(a, 1) has order p: 251 residues all fit in a byte
    assert len(close(x, "adjoint", 251)) == 251
    with pytest.raises(ValueError) as err:
        close(x, "adjoint", 257)
    assert str(err.value) == ("matrices over F_257 are keyed in bytes, which"
                              " hold residues mod p only for p <= 256")


@pytest.mark.parametrize("cap", [None, "20000000"])
def test_sha_refuses_p_257(capsys, cap):
    # |PSL2(257)| = 8,487,168 exceeds the default cap; past it, the keys
    # refuse the prime
    argv = ["sha", "--system", "A1", "--prime", "257"]
    assert dispatch(argv + (["--cap", cap] if cap else [])) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_unit_inverses():
    for p in (2, 3, 5, 7, 13):
        inv = shacheck._unit_inverses(p)
        assert inv[0] == 0
        assert all(u * inv[u] % p == 1 for u in range(1, p))
    assert shacheck._unit_inverses(7) is shacheck._unit_inverses(7)


@pytest.mark.parametrize("n", [1, 4, 6, 9, 256])
def test_pgl3_refuses_a_composite_modulus(n):
    # a zero divisor cannot lead a projective key: Z/6 has 2, Z/9 has 3
    x = np.array([[[2, 0, 0], [0, 1, 0], [0, 0, 1]]])
    with pytest.raises(ValueError) as err:
        close(x, "pgl3", n)
    assert str(err.value) == ("pgl3 keys scale by units mod p, so the"
                              f" modulus must be prime, not {n}")
    # the adjoint keys scale nothing
    assert len(close(x, "adjoint", 9)) == 6


def test_close_of_given_matrices():
    realization, gens = generator_matrices("A1", 5)
    # x_a(1) has order p: it generates the root subgroup alone
    assert len(close(gens[:1], realization, 5)) == 5
    # in A2/F_3, x_{+-a1}(1) generate SL2(3) and x_{a1}(1), x_{a2}(1) the
    # unipotent radical
    realization, gens = generator_matrices("A2", 3)
    assert len(close(gens[:2], realization, 3)) == 24
    assert len(close(gens[::2], realization, 3)) == 27


def test_order_guard_makes_a_wrong_group_inconclusive(capsys, monkeypatch):
    realization, gens = generator_matrices("A2", 3)
    monkeypatch.setattr(shacheck, "generate_group",
                        lambda system, p, cap: close(gens[:2], realization, p,
                                                     cap))
    rep = sha_report("A2", 3)
    assert (rep["group_order"], rep["verdict"]) == (24, "INCONCLUSIVE")
    assert rep["detail"] == ("closed 24 elements, but E(A2, F_3) has order"
                             " 5616")
    assert dispatch(["sha", "--system", "A2", "--prime", "3"]) == 3
    assert capsys.readouterr().out.startswith("INCONCLUSIVE sha A2/F_3")


def test_sha_exit_code_follows_the_verdict_when_the_hypothesis_fails(
        capsys, monkeypatch):
    # A2/F_2's x_{+-a1}(1) close SL2(2), of order 6, not 168: the order
    # guard's INCONCLUSIVE exits 3 though p = 2 violates the hypothesis
    realization, gens = generator_matrices("A2", 2)
    monkeypatch.setattr(shacheck, "generate_group",
                        lambda system, p, cap: shacheck.close(
                            gens[:2], realization, p, cap))
    assert dispatch(["sha", "--system", "A2", "--prime", "2"]) == 3
    assert capsys.readouterr().out.startswith(
        "INCONCLUSIVE (HYPOTHESIS-VIOLATED: p=2) sha A2/F_2: order 6,")

    def failed(system, p, cap):
        return {"system": system, "p": p, "group_order": 1,
                "class_count": 1, "cp_endo_count": 2, "inner_count": 1,
                "verdict": "FAIL", "hypothesis_violated": True}

    monkeypatch.setattr(shacheck, "sha_report", failed)
    assert dispatch(["sha", "--system", "A2", "--prime", "2"]) == 1
    assert capsys.readouterr().out.startswith(
        "FAIL (HYPOTHESIS-VIOLATED: p=2) sha A2/F_2")


def test_pgl3_keys_are_projective():
    # 7 = 1 mod 3, so 2I is a scalar matrix of SL3(7)
    eye = np.eye(3, dtype=np.int64)
    two, one = element_keys(np.stack([2 * eye, eye]), "pgl3", 7)
    assert two == one


def test_element_keys_of_an_empty_stack():
    assert element_keys(np.zeros((0, 3, 3), dtype=np.int64), "pgl3", 3) == []
    assert element_keys(np.zeros((0, 8, 8), dtype=np.int64), "adjoint",
                        5) == []


def test_element_keys_are_the_canonical_bytes():
    G = generate_group("A2", 3)
    stack = G.elements[:50].astype(np.int64) * 2
    assert element_keys(stack, G.realization, G.p) == [
        _canonicalize(m, G.realization, G.p).astype(np.uint8).tobytes()
        for m in stack]


@pytest.mark.parametrize("system,p", [("A1", 13), ("A2", 3), ("B2", 2),
                                      ("G2", 2)])
def test_closure_matches_per_row_closure(system, p):
    G = generate_group(system, p, cap=13000)
    ref = per_row_closure(system, p, cap=13000)
    assert (G.p, G.realization, G.levels) == (ref.p, ref.realization,
                                               ref.levels)
    for field in ("elements", "rmul", "parent", "parent_gen", "inverses"):
        got, want = getattr(G, field), getattr(ref, field)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), field
    assert list(G.index.items()) == list(ref.index.items())
    _, gens = generator_matrices(system, p)
    assert G.generators == ref.generators == _lookup(
        G.index, gens, G.realization, p).tolist()
    assert conjugacy_classes(G) == per_element_conjugacy_classes(ref)


def test_generator_order_independence():
    base = generate_group("A1", 5)
    keys = set(base.index)
    # closing from the reversed generator list reaches the same element set
    table = generate_group("A1", 5)
    shuffled = list(reversed(table.generators))
    seen = {table.identity_id}
    frontier = [table.identity_id]
    while frontier:
        nxt = []
        for x in frontier:
            for g in shuffled:
                y = table.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    assert len(seen) == len(keys)


def test_mul_inv():
    G = generate_group("A1", 5)
    rng = random.Random(1)
    e = G.identity_id
    for _ in range(50):
        i = rng.randrange(len(G))
        j = rng.randrange(len(G))
        assert G.mul(i, G.inv(i)) == e
        assert G.mul(G.inv(i), i) == e
        assert G.inv(G.mul(i, j)) == G.mul(G.inv(j), G.inv(i))


def test_conjugacy_classes():
    G = generate_group("A1", 3)
    classes, class_of = conjugacy_classes(G)
    assert len(classes) == 4
    assert sorted(len(c) for c in classes) == [1, 3, 4, 4]
    assert sum(len(c) for c in classes) == len(G)
    for c in classes:
        assert len(G) % len(c) == 0
    assert classes[class_of[G.identity_id]] == [G.identity_id]


def test_extend_homomorphism():
    G = generate_group("A1", 3)
    gen_ids = G.generators
    ident = extend_homomorphism(G, gen_ids)
    assert ident is not REJECT
    assert ident.tolist() == list(range(len(G)))

    # conjugated generators extend to the inner map
    h = 5
    conj = [G.conj(h, g) for g in gen_ids]
    table = extend_homomorphism(G, conj)
    assert table is not REJECT
    assert all(table[x] == G.conj(h, x) for x in range(len(G)))

    # an image of mismatched order is rejected
    classes, class_of = conjugacy_classes(G)
    x = gen_ids[0]
    wrong = next(i for i in range(len(G))
                 if class_of[i] != class_of[x] and i != G.identity_id)
    assert extend_homomorphism(G, [wrong, gen_ids[1]]) is REJECT


@pytest.mark.parametrize("system", ["A1", "A2"])
def test_extend_homomorphism_returns_a_table_or_reject(system):
    G = generate_group(system, 3)
    table = extend_homomorphism(G, G.generators)
    assert isinstance(table, np.ndarray)
    assert table.dtype == np.int32 and table.shape == (len(G),)
    # the normal closure of s_1 is G (PSL2(3) = A4 is generated by its
    # 3-cycles, PSL3(3) is simple), so no endomorphism kills s_1 and
    # fixes s_2
    rejected = extend_homomorphism(G, [G.identity_id] + G.generators[1:])
    assert rejected is REJECT
    assert isinstance(rejected, str)


def test_extension_composes():
    G = generate_group("A1", 3)
    gen_ids = G.generators
    f = extend_homomorphism(G, [G.conj(3, g) for g in gen_ids])
    g_images = [G.conj(7, x) for x in gen_ids]
    g = extend_homomorphism(G, g_images)
    composed = extend_homomorphism(G, [f[img] for img in g_images])
    assert composed is not REJECT
    assert composed.tolist() == [f[g[x]] for x in range(len(G))]


def test_class_preserving_endos_a1_p3():
    G = generate_group("A1", 3)
    cp, inner, orbit = normalized_search(G)
    # PSL2(3) has order 12 and the class of s_1 has 4 elements
    assert orbit == 4
    assert len(cp) == len(set(cp)) == len(inner) == 3
    assert orbit * len(cp) == orbit * len(inner) == 12
    classes, class_of = conjugacy_classes(G)
    s1 = G.generators[0]
    tables = set()
    for images in cp:
        assert images in inner
        assert images[0] == s1
        table = extend_homomorphism(G, images)
        assert table is not REJECT
        # exhaustive search for a conjugator realizing the map on every
        # element, by matrix products
        conjugators = [g for g in range(len(G))
                       if all(table[x] == matrix_conj(G, g, x)
                              for x in range(len(G)))]
        assert conjugators
        # independent elementwise re-check
        assert all(class_of[table[x]] == class_of[x]
                   for x in range(len(G)))
        tables.add(tuple(table.tolist()))
    assert len(tables) == 3
    # the inner maps fixing s_1 form a subgroup under composition
    table_list = sorted(tables)
    for t1 in table_list:
        for t2 in table_list:
            comp = tuple(t1[t2[x]] for x in range(len(G)))
            assert comp in tables


def test_is_inner_identity():
    G = generate_group("A1", 3)
    ident = extend_homomorphism(G, G.generators)
    inner = inner_endomorphisms(G)
    assert tuple(G.generators) in inner
    assert inner[tuple(G.generators)] == G.identity_id
    conjugators = [g for g in range(len(G))
                   if all(ident[x] == matrix_conj(G, g, x)
                          for x in range(len(G)))]
    assert conjugators and conjugators[0] == G.identity_id


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_sha_reports(p):
    rep = sha_report("A1", p)
    assert rep["verdict"] == "PASS"
    # PSL2(p) has order p(p^2-1)/2 and (p+5)/2 classes; its center is
    # trivial, so there is one inner map per element
    order = p * (p * p - 1) // 2
    assert rep["group_order"] == order
    assert rep["class_count"] == (p + 5) // 2
    assert rep["cp_endo_count"] == rep["inner_count"] == order
    assert not rep["hypothesis_violated"]


def test_sha_b2_p2_counts():
    # Sp4(2) is isomorphic to S6: order 720, 11 classes, trivial center
    rep = sha_report("B2", 2)
    assert rep["verdict"] == "PASS"
    assert rep["group_order"] == 720
    assert rep["class_count"] == 11
    assert rep["cp_endo_count"] == rep["inner_count"] == 720
    assert rep["hypothesis_violated"]


def test_sha_p2_flagged():
    rep = sha_report("A1", 2)
    assert rep["hypothesis_violated"]
    assert set(rep) >= {"system", "p", "group_order", "class_count",
                        "cp_endo_count", "inner_count", "verdict", "seconds"}


@pytest.mark.parametrize("system", ["A1", "A2", "B2", "G2"])
def test_hypothesis_violated(system):
    # the theorem needs 2 invertible, and G2 needs 3 invertible too
    assert hypothesis_violated(system, 2)
    assert hypothesis_violated(system, 3) == (system == "G2")
    assert not hypothesis_violated(system, 5)


def test_sha_a2_p3_over_cap():
    # PGL3(3) has order 5616: only the cap bounds the enumeration
    with pytest.raises(CapExceeded):
        sha_report("A2", 3, cap=5000)


@pytest.mark.parametrize("system,p", [("A1", 5), ("A1", 13), ("A2", 2),
                                      ("A2", 3), ("B2", 2)])
def test_tables_match_matrix_products(system, p):
    G = generate_group(system, p)
    k = len(G.generators)
    assert G.rmul.shape == (len(G), k)
    for x in range(len(G)):
        for i, g in enumerate(G.generators):
            assert G.rmul[x, i] == matrix_mul(G, x, g)
        assert matrix_mul(G, x, G.inv(x)) == G.identity_id
        if x != G.identity_id:
            step = G.generators[G.parent_gen[x]]
            assert matrix_mul(G, G.parent[x], step) == x
    rng = random.Random(7)
    for _ in range(100):
        i, j = rng.randrange(len(G)), rng.randrange(len(G))
        assert G.mul(i, j) == matrix_mul(G, i, j)
        f = G.right_multiplication(j)
        assert f[i] == matrix_mul(G, i, j)


def test_inner_endomorphisms_match_conjugation():
    G = generate_group("A1", 5)
    gen_ids = G.generators
    s1 = gen_ids[0]
    cent = [g for g in range(len(G))
            if matrix_mul(G, g, s1) == matrix_mul(G, s1, g)]
    assert G.centralizer(s1).tolist() == cent
    expected = {tuple(matrix_conj(G, g, s) for s in gen_ids) for g in cent}
    assert set(inner_endomorphisms(G)) == expected


def test_group_table_freed_without_collector():
    # the endomorphism search must not put the table in a reference cycle
    gc.collect()
    gc.disable()
    try:
        G = generate_group("A1", 5)
        ref = weakref.ref(G)
        cp, _, orbit = normalized_search(G)
        assert orbit * len(cp) == 60
        del cp
        del G
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("system,p", [("A1", 3), ("A1", 5), ("A1", 7),
                                      ("A1", 11), ("A1", 13), ("A2", 2),
                                      ("B2", 2)])
def test_normalized_search_matches_full_search(system, p):
    G = generate_group(system, p)
    cp, inner, orbit = normalized_search(G)
    full_cp = full_class_preserving_endos(G)
    full_inner = full_inner_endomorphisms(G)
    s1 = G.generators[0]
    assert orbit * len(cp) == len(full_cp)
    assert cp == [images for images in full_cp if images[0] == s1]
    assert set(inner) == {images for images in full_inner
                          if images[0] == s1}
    assert orbit * len(inner) == len(full_inner)


@pytest.mark.parametrize("system,p", [("A1", 13), ("B2", 2)])
def test_conjugators_certify_inner(system, p):
    G = generate_group(system, p)
    cp, inner, _ = normalized_search(G)
    gen_ids = G.generators
    cent = set(G.centralizer(gen_ids[0]).tolist())
    for images in cp:
        g = inner[images]
        assert g in cent
        assert tuple(matrix_conj(G, g, s) for s in gen_ids) == images


def test_sha_fail_branch(monkeypatch):
    search = shacheck.class_preserving_endos

    def planted(G, classes, class_of):
        # conjugation is injective and s_2 != s_1, so no g sends s_1 and
        # s_2 both to s_1
        s1 = G.generators[0]
        return search(G, classes, class_of) + [(s1,) * len(G.generators)]

    G = generate_group("A1", 5)
    assert planted(G, *conjugacy_classes(G))[-1] not in inner_endomorphisms(G)
    monkeypatch.setattr(shacheck, "class_preserving_endos", planted)
    rep = sha_report("A1", 5)
    assert rep["verdict"] == "FAIL"
    # PSL2(5): the class of s_1 has 12 elements and |N| = 5
    assert rep["inner_count"] == 60
    assert rep["cp_endo_count"] == 12 * 6 != rep["inner_count"]


def test_sha_fail_branch_optimized():
    script = (
        "import json\n"
        "from chevlab import shacheck\n"
        "search = shacheck.class_preserving_endos\n"
        "def planted(G, classes, class_of):\n"
        "    s1 = G.generators[0]\n"
        "    return (search(G, classes, class_of)\n"
        "            + [(s1,) * len(G.generators)])\n"
        "shacheck.class_preserving_endos = planted\n"
        "rep = shacheck.sha_report('A1', 5)\n"
        "print(json.dumps([rep['verdict'], rep['cp_endo_count'],"
        " rep['inner_count']]))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["FAIL", 72, 60]


@pytest.mark.parametrize("system,p,cap", [
    ("A1", 5, DEFAULT_CAP), ("A1", 7, DEFAULT_CAP), ("A1", 11, DEFAULT_CAP),
    ("A1", 13, DEFAULT_CAP), ("A2", 3, DEFAULT_CAP), ("B2", 2, DEFAULT_CAP),
    ("B2", 3, 30000), ("G2", 2, 13000)])
def test_orbit_search_matches_unreduced_search(system, p, cap, monkeypatch):
    G = generate_group(system, p, cap=cap)
    classes, class_of = conjugacy_classes(G)
    calls = []

    def counted(G, images):
        calls.append(images)
        return extend_homomorphism(G, images)

    monkeypatch.setattr(shacheck, "extend_homomorphism", counted)
    found = class_preserving_endos(G, classes, class_of)
    monkeypatch.undo()
    s1 = G.generators[0]
    assert found == unreduced_search(G, classes, class_of, [s1])
    # every extension is made under the least image of s_2 in its orbit
    second = {images[1] for images in calls}
    cent = G.centralizer(s1)
    for c in second:
        assert c == min(G.conj(g, c) for g in cent.tolist())


def family_x0(system, p):
    """The integer array of the standard centralizer family's x0 over F_p."""
    system = SystemType(system)
    spec = RingSpec("modular", modulus=p)
    realization = default_realization(system)
    return matrix_array(evaluate_word(
        parse_word(standard_family(system).x0, system, spec),
        build_basis(system), realization, spec=spec), realization, p)


# every group that closes under cap 30000
CLOSED_GROUPS = [("A1", 3), ("A1", 5), ("A1", 7), ("A1", 11), ("A1", 13),
                 ("A2", 2), ("A2", 3), ("B2", 2), ("B2", 3), ("G2", 2)]


@pytest.mark.parametrize("system,p", CLOSED_GROUPS)
def test_element_centralizer_matches_the_closure(system, p):
    G = generate_group(system, p, cap=30000)
    classes, class_of = conjugacy_classes(G)
    _, gens = generator_matrices(system, p)
    for x in [family_x0(system, p), *gens]:
        cent, _ = element_centralizer(system, p, x, cap=30000)
        [x_id] = _lookup(G.index, x[None], G.realization, p)
        want = G.elements[G.centralizer(x_id)]
        assert set(cent.index) == set(element_keys(want, G.realization, p))
        # orbit-stabilizer, the orbit read off the closure's classes
        assert len(classes[class_of[x_id]]) * len(cent) == len(G) \
            == expected_order(system, p)


def a1_grid(p):
    """The A1 family's matrices [[a, b, 2c], [0, a, 0], [0, c, a]] over
    F_p, for every a, b, c."""
    return np.array([[[a, b, 2 * c], [0, a, 0], [0, c, a]]
                     for a in range(p) for b in range(p) for c in range(p)])


@pytest.mark.parametrize("system,p", [("A1", 5), ("A1", 7), ("A1", 13),
                                      ("A2", 2), ("A2", 3)])
def test_sift_matches_the_closure(system, p):
    G = generate_group(system, p)
    _, contains = element_centralizer(system, p, family_x0(system, p))
    rng = np.random.default_rng(p)
    members = G.elements[rng.integers(len(G), size=200)].astype(np.int64)
    stacks = [members, 2 * members, rng.integers(p, size=(500, 3, 3)),
              # rank at most 2, so never in G
              rng.integers(p, size=(50, 3, 2)) @ rng.integers(p,
                                                              size=(50, 2, 3))]
    if system == "A1":
        stacks.append(a1_grid(p))
    for mats in stacks:
        want = [key in G.index
                for key in element_keys(mats, G.realization, p)]
        assert contains(mats).tolist() == want
    assert all(contains(members))


@pytest.mark.parametrize("p", [5, 7])
def test_a1_grid_meets_matrices_outside_the_group(p):
    G = generate_group("A1", p)
    inside = [key in G.index for key in element_keys(a1_grid(p), "a1std", p)]
    assert 0 < sum(inside) < len(inside)


def test_element_centralizer_refuses_a_group_over_the_cap(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("root elements built for a group over the cap")

    monkeypatch.setattr(shacheck, "matrix_array", fail)
    with pytest.raises(CapExceeded) as err:
        element_centralizer("B2", 3, np.eye(10, dtype=np.int64))
    assert str(err.value) == (f"group order exceeds cap {DEFAULT_CAP};"
                              " raise --cap")


def test_element_centralizer_checks_the_order(monkeypatch):
    right = expected_order
    monkeypatch.setattr(shacheck, "expected_order",
                        lambda system, p: right(system, p) + 1)
    with pytest.raises(shacheck.OrderMismatch) as err:
        element_centralizer("A2", 3, family_x0("A2", 3))
    assert str(err.value) == ("orbit 624 times centralizer 9 is 5616, but"
                              " E(A2, F_3) has order 5617")


@pytest.mark.parametrize("system,p,cap,count", [
    ("A2", 5, 400000, 25), ("A2", 7, 2000000, 49)])
def test_element_centralizer_beyond_the_closures(system, p, cap, count):
    cent, contains = element_centralizer(system, p, family_x0(system, p),
                                         cap=cap)
    assert len(cent) == count
    members = cent.elements.astype(np.int64)
    assert contains(members).all()
