import gc
import random
import weakref

import numpy as np
import pytest

from chevlab.shacheck import (CapExceeded, REJECT, _canonicalize,
                              class_preserving_endos, conjugacy_classes,
                              extend_homomorphism, generate_group,
                              hypothesis_violated, inner_endomorphisms,
                              sha_report)


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


def test_group_orders():
    assert len(generate_group("A1", 3)) == 12
    assert len(generate_group("A1", 5)) == 60
    assert len(generate_group("A1", 7)) == 168
    assert len(generate_group("A2", 2)) == 168


def test_cap():
    with pytest.raises(CapExceeded):
        generate_group("A2", 5, cap=1000)


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
            for _, g in shuffled:
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
    gen_ids = [g for _, g in G.generators]
    ident = extend_homomorphism(G, gen_ids)
    assert ident is not REJECT
    assert ident.table.tolist() == list(range(len(G)))

    # conjugated generators extend to the inner map
    h = 5
    conj = [G.conj(h, g) for g in gen_ids]
    endo = extend_homomorphism(G, conj)
    assert endo is not REJECT
    assert all(endo.table[x] == G.conj(h, x) for x in range(len(G)))

    # an image of mismatched order is rejected
    classes, class_of = conjugacy_classes(G)
    x = gen_ids[0]
    wrong = next(i for i in range(len(G))
                 if class_of[i] != class_of[x] and i != G.identity_id)
    assert extend_homomorphism(G, [wrong, gen_ids[1]]) is REJECT


def test_extension_composes():
    G = generate_group("A1", 3)
    gen_ids = [g for _, g in G.generators]
    f = extend_homomorphism(G, [G.conj(3, g) for g in gen_ids])
    g = extend_homomorphism(G, [G.conj(7, x) for x in gen_ids])
    composed = extend_homomorphism(G, [f.table[img] for img in g.images])
    assert composed is not REJECT
    assert composed.table.tolist() == [f.table[g.table[x]]
                                       for x in range(len(G))]


def test_class_preserving_endos_a1_p3():
    G = generate_group("A1", 3)
    cp = class_preserving_endos(G)
    inner = inner_endomorphisms(G)
    assert len(cp) == len(set(cp)) == len(inner) == 12
    classes, class_of = conjugacy_classes(G)
    tables = set()
    for images in cp:
        assert images in inner
        endo = extend_homomorphism(G, images)
        assert endo is not REJECT
        # exhaustive search for a conjugator realizing the map on every
        # element, by matrix products
        conjugators = [g for g in range(len(G))
                       if all(endo.table[x] == matrix_conj(G, g, x)
                              for x in range(len(G)))]
        assert conjugators
        # independent elementwise re-check
        assert all(class_of[endo.table[x]] == class_of[x]
                   for x in range(len(G)))
        tables.add(tuple(endo.table.tolist()))
    assert len(tables) == 12
    # inner maps form a subgroup under composition
    table_list = sorted(tables)
    for t1 in table_list[:4]:
        for t2 in table_list[:4]:
            comp = tuple(t1[t2[x]] for x in range(len(G)))
            assert comp in tables


def test_is_inner_identity():
    G = generate_group("A1", 3)
    ident = extend_homomorphism(G, [g for _, g in G.generators])
    assert ident.images in inner_endomorphisms(G)
    conjugators = [g for g in range(len(G))
                   if all(ident.table[x] == matrix_conj(G, g, x)
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


@pytest.mark.parametrize("system,p", [("A1", 5), ("A2", 2), ("B2", 2)])
def test_tables_match_matrix_products(system, p):
    G = generate_group(system, p)
    k = len(G.generators)
    assert G.rmul.shape == (len(G), k)
    for x in range(len(G)):
        for i, (_, g) in enumerate(G.generators):
            assert G.rmul[x, i] == matrix_mul(G, x, g)
        assert matrix_mul(G, x, G.inv(x)) == G.identity_id
        if x != G.identity_id:
            step = G.generators[G.parent_gen[x]][1]
            assert matrix_mul(G, G.parent[x], step) == x
    rng = random.Random(7)
    for _ in range(100):
        i, j = rng.randrange(len(G)), rng.randrange(len(G))
        assert G.mul(i, j) == matrix_mul(G, i, j)
        f = G.right_multiplication(j)
        assert f[i] == matrix_mul(G, i, j)


def test_inner_endomorphisms_match_conjugation():
    G = generate_group("A1", 5)
    gen_ids = [g for _, g in G.generators]
    expected = {tuple(matrix_conj(G, g, s) for s in gen_ids)
                for g in range(len(G))}
    assert inner_endomorphisms(G) == expected


def test_group_table_freed_without_collector():
    # the endomorphism search must not put the table in a reference cycle
    gc.collect()
    gc.disable()
    try:
        G = generate_group("A1", 5)
        ref = weakref.ref(G)
        assert len(class_preserving_endos(G)) == 60
        del G
        assert ref() is None
    finally:
        gc.enable()
