"""Brute-force Sha-rigidity certification over small prime fields.

``close`` closes any stack of generator matrices over Z/p; ``generate_group``
gives it the root-element generators of the elementary group E(system, F_p).
``element_centralizer`` finds C_G(x) in that group without closing it, from
the conjugacy orbit of x and Schreier's lemma.
``sha_report`` checks the closure's order against ``expected_order``,
enumerates the class-preserving endomorphisms that fix the first generator
s_1 by searching generator images inside the generators' conjugacy
classes, and checks that each one is inner.  Conjugation moves s_1 around its
whole class, so these maps determine all the others, and conjugation by
C_G(s_1) moves the image of s_2 around its orbit, so one image of s_2 per
orbit is extended (see ``sha_report`` and ``class_preserving_endos``).

An endomorphism is fixed by its images of the generators, so everything is
done with the generators: the closure records the right-multiplication
table by the generators (``rmul``, |G| x k) and a breadth-first spanning
tree, the generators are the ids ``rmul[0]``, every inverse is read off
the table by walking the element's tree word backwards, right
multiplication by any element is a composition of ``rmul`` columns along
that element's tree word, and endomorphisms are identified by their image
tuples.  The closure works one tree level and one generator at a time on
whole arrays; the one step it takes per element is a single
``dict.setdefault`` that both looks the element up and numbers it if it is
new.  Memory is O(|G| k); no |G| x |G| table is built.
"""

from __future__ import annotations

import functools
import time
from math import gcd

import numpy as np

from .chevgroup import (RealizationError, build_basis, default_realization,
                        root_element)
from .exactring import RingSpec, is_prime
from .rootsys import SystemType, simple_roots


class CapExceeded(Exception):
    pass


class OrderMismatch(Exception):
    """An orbit times its stabilizer is not the order of the group."""


DEFAULT_CAP = 10000

REJECT = "REJECT"


@functools.cache
def _unit_inverses(p: int) -> np.ndarray:
    """u -> u^-1 mod p for u = 1, ..., p - 1, with 0 -> 0."""
    return np.array([0] + [pow(u, -1, p) for u in range(1, p)],
                    dtype=np.int64)


def _canonicalize(arr: np.ndarray, realization: str, p: int) -> np.ndarray:
    """Canonical representative mod p of a matrix or a stack of matrices
    (projective scaling for pgl3)."""
    arr = arr % p
    if realization != "pgl3":
        return arr
    flat = arr.reshape(arr.shape[:-2] + (arr.shape[-2] * arr.shape[-1],))
    idx = (flat != 0).argmax(axis=-1)
    lead = np.take_along_axis(flat, idx[..., None], axis=-1)
    return (arr * _unit_inverses(p)[lead][..., None]) % p


def matrix_array(m, realization: str, p: int) -> np.ndarray:
    """The int64 array of residues of an exact AdjointMatrix over Z/p."""
    if m.realization != realization or m.spec.modulus != p:
        raise RealizationError(f"expected a {realization} matrix mod {p}")
    return np.array([[e.residue for e in row] for row in m.rows],
                    dtype=np.int64)


def _keyed(mats: np.ndarray, realization: str, p: int):
    """The canonical uint8 stack of a stack of integer matrices, and its
    keys: the bytes of each canonical matrix, read through one ``np.void``
    view.  Residues are stored in one byte each, so p must be at most
    256, and a pgl3 key divides by a leading entry, so p must be prime
    there."""
    if p > 256:
        raise ValueError(f"matrices over F_{p} are keyed in bytes, which"
                         " hold residues mod p only for p <= 256")
    if realization == "pgl3" and not is_prime(p):
        raise ValueError(f"pgl3 keys scale by units mod p, so the modulus"
                         f" must be prime, not {p}")
    canon = _canonicalize(mats, realization, p).astype(np.uint8)
    n, rows, cols = canon.shape
    void = np.dtype((np.void, rows * cols))
    return canon, canon.reshape(n, rows * cols).view(void).ravel().tolist()


def element_keys(mats: np.ndarray, realization: str, p: int) -> list:
    """The keys of a stack of integer matrices as elements of E(system,
    F_p): the bytes of their canonical uint8 arrays.  Every search over
    F_p keys its elements here and nowhere else."""
    return _keyed(mats, realization, p)[1]


def _lookup(index, mats: np.ndarray, realization: str, p: int) -> np.ndarray:
    """Ids of a stack of integer matrices that lie in the group."""
    return np.fromiter(map(index.__getitem__,
                           element_keys(mats, realization, p)),
                       dtype=np.int32, count=len(mats))


def _inverse_permutation(perm: np.ndarray) -> np.ndarray:
    out = np.empty_like(perm)
    out[perm] = np.arange(len(perm), dtype=perm.dtype)
    return out


class FiniteGroupTable:
    """The elements of a group of matrices over Z/p, from ``close``.

    Element ids follow the breadth-first closure from the identity (id 0),
    so the ids of one tree level form the contiguous range
    ``levels[d]:levels[d + 1]``.  ``elements[x]`` is the canonical uint8
    array whose bytes are x's key in ``index``.  ``rmul[x, i]`` is the id
    of x * s_i for the generator s_i; ``parent[y] * s_{parent_gen[y]} = y``
    spans the group; ``inverses[x]`` is the id of x^-1.
    """

    def __init__(self, p, realization, elements, index, rmul, parent,
                 parent_gen, levels, inverses):
        self.p = p
        self.realization = realization
        self.elements = elements          # (|G|, d, d) uint8 array
        self.index = index                # bytes -> id
        self.rmul = rmul
        self.generators = rmul[0].tolist()  # ids of s_1, ..., s_k
        self.parent = parent
        self.parent_gen = parent_gen
        self.levels = levels
        self.inverses = inverses
        self.identity_id = 0
        self._right = {}                  # position -> (image, permutation)
        self._words = {0: ()}             # id -> tree word, built once

    def __len__(self):
        return len(self.elements)

    def word(self, f: int) -> tuple:
        """Generator indices (i_1, ..., i_m) with f = s_{i_1} ... s_{i_m},
        built from the spanning tree once per element."""
        f = int(f)
        w = self._words.get(f)
        if w is None:
            out, x = [], f
            while x != self.identity_id:
                out.append(int(self.parent_gen[x]))
                x = int(self.parent[x])
            w = self._words[f] = tuple(reversed(out))
        return w

    def right_multiplication(self, f: int) -> np.ndarray:
        """The permutation x -> x * f of all ids."""
        perm = np.arange(len(self), dtype=np.int32)
        for i in self.word(f):
            perm = self.rmul[perm, i]
        return perm

    def right_multiplications(self, images) -> list:
        """``right_multiplication(f)`` for each f in ``images``.  A position
        whose image is the one it had in the previous call reuses that
        permutation, so one permutation per position is kept and a search
        that walks image tuples in prefix order rebuilds few of them."""
        out = []
        for i, f in enumerate(images):
            kept = self._right.get(i)
            if kept is None or kept[0] != f:
                kept = self._right[i] = (f, self.right_multiplication(f))
            out.append(kept[1])
        return out

    def mul(self, i: int, j: int) -> int:
        rmul = self.rmul
        for g in self.word(j):
            i = rmul[i, g]
        return int(i)

    def inv(self, i: int) -> int:
        return int(self.inverses[i])

    def conj(self, g: int, x: int) -> int:
        return self.mul(self.mul(g, x), self.inv(g))

    def centralizer(self, x: int) -> np.ndarray:
        """Ids of the g with g x = x g, sorted.  g -> g x composes ``rmul``
        columns along x's tree word and g -> x g is g -> (g^-1 x^-1)^-1, so
        no matrix is multiplied."""
        inv = self.inverses
        left = inv[self.right_multiplication(self.inv(x))[inv]]
        return (self.right_multiplication(x) == left).nonzero()[0]


def _root_elements(system, p: int, cap: int, t: int = 1):
    """The default realization of E(system, F_p) and the (k, d, d) stack of
    its root elements x_{+-a}(t) over the simple roots a.  A group whose
    ``expected_order`` exceeds ``cap`` is refused before any is built."""
    system = SystemType(system)
    if p < 2:
        raise ValueError("p must be at least 2")
    if expected_order(system, p) > cap:
        raise CapExceeded(f"group order exceeds cap {cap}; raise --cap")
    realization = default_realization(system)
    basis = build_basis(system)
    u = RingSpec("modular", modulus=p).const(t)
    return realization, np.stack([
        matrix_array(root_element(basis, r, u, realization), realization, p)
        for g in simple_roots(system) for r in (g, -g)])


def generate_group(system, p: int, cap: int = DEFAULT_CAP) -> FiniteGroupTable:
    """``close`` of the root elements x_{+-a}(1) over the simple roots a:
    E(system, F_p) in the default realization.  A group whose
    ``expected_order`` exceeds ``cap`` is refused before any of it is
    closed."""
    realization, gens = _root_elements(system, p, cap)
    return close(gens, realization, p, cap)


def _breadth_first(root: np.ndarray, step, k: int, realization: str,
                   p: int, cap: int):
    """The orbit of the (1, d, d) stack ``root`` under k maps, where
    ``step(stack, i)`` is the stack of images of a stack under map i: the
    points as canonical uint8 arrays in id order, their ``index``, the
    (n, k) table of the ids of their images, and the tree (``parent``,
    ``parent_gen``, ``levels``) of ``FiniteGroupTable``.  More than
    ``cap`` points raise CapExceeded."""
    first, keys = _keyed(root, realization, p)
    index = {keys[0]: 0}
    blocks, parent, parent_gen = [first], [[0]], [[0]]
    table_levels = []
    levels = [0]

    # one level (one block of rows) and one map at a time: the images of
    # the level are keyed at once, and one pass over the keys gives each
    # key not yet in ``index`` the next id, in order of first occurrence;
    # each new point's parent is the first row that reached it
    lo = 0
    while lo < len(index):
        stack = blocks[-1].astype(np.int64)
        new_rows, cols = [], []
        for i in range(k):
            canon, keys = _keyed(step(stack, i), realization, p)
            start = len(index)
            col = np.array([index.setdefault(key, len(index)) for key in keys],
                           dtype=np.int32)
            if len(index) > cap:
                raise CapExceeded(
                    f"group order exceeds cap {cap}; raise --cap")
            # the new ids rise in order of first occurrence, so a new
            # point first occurs where col passes every id before it
            before = np.maximum.accumulate(
                np.concatenate(([start - 1], col[:-1])))
            rows = np.flatnonzero(col > before)
            new_rows.append(canon[rows])
            parent.append(lo + rows)
            parent_gen.append(np.full(len(rows), i))
            cols.append(col)
        table_levels.append(np.stack(cols, axis=1))
        blocks.append(np.concatenate(new_rows))
        lo += len(stack)
        levels.append(lo)
    return (np.concatenate(blocks), index, np.concatenate(table_levels),
            np.concatenate(parent).astype(np.int32),
            np.concatenate(parent_gen).astype(np.int32), levels)


def close(gens: np.ndarray, realization: str, p: int,
          cap: int = DEFAULT_CAP) -> FiniteGroupTable:
    """The group generated by a (k, d, d) stack of integer matrices over
    Z/p, keyed in ``realization``, with its right-multiplication table,
    spanning tree and inverses; at most ``cap`` elements.  It is the orbit
    of the identity under right multiplication by the generators."""
    if gens.ndim != 3:
        raise ValueError("close needs a (k, d, d) stack of generator"
                         f" matrices, not an array of shape {gens.shape}")
    if len(gens) == 0:
        raise ValueError("close needs at least one generator matrix; the"
                         " generator stack is empty")
    elements, index, rmul, parent, parent_gen, levels = _breadth_first(
        np.eye(gens.shape[1], dtype=np.int64)[None],
        lambda stack, i: stack @ gens[i], len(gens), realization, p, cap)
    return FiniteGroupTable(p, realization, elements, index, rmul, parent,
                            parent_gen, levels,
                            _tree_inverses(rmul, parent, parent_gen, levels))


def element_centralizer(system, p: int, x: np.ndarray,
                        cap: int = DEFAULT_CAP):
    """C_G(x) in G = E(system, F_p), without closing G, and a membership
    test for G.  The orbit of x under y -> s^-1 y s by the root elements
    s = x_{+-a}(1), found breadth first, gives each point y a t_y in G with
    t_y^-1 x t_y = y along its tree.  By Schreier's lemma the elements
    t_y s t_{y^s}^-1 generate C_G(x), and ``close`` closes the distinct
    ones.  |orbit| |C_G(x)| counts |G| a second time, independently of
    ``expected_order``; a count that differs raises OrderMismatch.  A group
    whose ``expected_order`` exceeds ``cap`` is refused first.

    Returns the table of C_G(x) and ``contains``, which tells which of a
    stack of 3x3 integer matrices lie in G by one sift step: f does iff
    y = f^-1 x f is an orbit point and f t_y^-1 lies in C_G(x).  f^-1 is
    the adjugate of f over its determinant, and f is not in G when that
    is not a unit."""
    realization, gens = _root_elements(system, p, cap)
    _, inverses = _root_elements(system, p, cap, -1)
    _, orbit, table, parent, parent_gen, levels = _breadth_first(
        x[None], lambda stack, i: inverses[i] @ stack @ gens[i], len(gens),
        realization, p, cap)
    # t_y = t_parent s, stored in bytes like the points
    t = np.empty((len(orbit),) + x.shape, dtype=np.uint8)
    t_inv = np.empty_like(t)
    t[0] = t_inv[0] = np.eye(len(x))
    for lo, hi in zip(levels[1:], levels[2:]):
        up, s = parent[lo:hi], parent_gen[lo:hi]
        t[lo:hi] = t[up].astype(np.int64) @ gens[s] % p
        t_inv[lo:hi] = inverses[s] @ t_inv[up].astype(np.int64) % p
    schreier = {}                       # the distinct keys, in order
    for lo, hi in zip(levels, levels[1:]):
        for i, s in enumerate(gens):
            back = t_inv[table[lo:hi, i]].astype(np.int64)
            schreier.update(dict.fromkeys(element_keys(
                t[lo:hi].astype(np.int64) @ s @ back, realization, p)))
    cent = close(np.frombuffer(b"".join(schreier), dtype=np.uint8).reshape(
        (-1,) + x.shape).astype(np.int64), realization, p, cap)
    count, expected = len(orbit) * len(cent), expected_order(system, p)
    if count != expected:
        raise OrderMismatch(
            f"orbit {len(orbit)} times centralizer {len(cent)} is {count},"
            f" but E({SystemType(system).tag}, F_{p}) has order {expected}")

    def contains(mats: np.ndarray) -> np.ndarray:
        r0, r1, r2 = np.moveaxis(mats % p, -2, 0)
        adj = np.stack([np.cross(r1, r2), np.cross(r2, r0),
                        np.cross(r0, r1)], axis=-1)
        det = (r0 * adj[..., 0]).sum(axis=-1) % p
        inv = adj * _unit_inverses(p)[det][:, None, None] % p
        y = np.array([orbit.get(key, -1) for key in element_keys(
            inv @ x @ mats, realization, p)], dtype=np.int64)
        ok = (det != 0) & (y >= 0)
        ok[ok] = [key in cent.index for key in element_keys(
            mats[ok] @ t_inv[y[ok]].astype(np.int64), realization, p)]
        return ok
    return cent, contains


def _tree_inverses(rmul, parent, parent_gen, levels) -> np.ndarray:
    """The id of y^-1 for every id y, read off the table: y's tree word
    s_{i_1} ... s_{i_m} gives y^-1 = 1 s_{i_m}^-1 ... s_{i_1}^-1, and
    x -> x s_i^-1 is the inverse permutation of ``rmul[:, i]``.  The ids of
    depth at least t are the range ``levels[t]:``, so step t applies the
    t-th letter from the end of their words to all of them at once."""
    n = len(rmul)
    right_inv = np.stack([_inverse_permutation(col) for col in rmul.T])
    inverses = np.zeros(n, dtype=np.int32)
    node = np.arange(n, dtype=np.int32)    # the part of each word not read
    for lo in levels[1:-1]:
        ys = node[lo:]
        inverses[lo:] = right_inv[parent_gen[ys], inverses[lo:]]
        node[lo:] = parent[ys]
    return inverses


def conjugacy_classes(G: FiniteGroupTable):
    """Orbits of the conjugation action, as sorted lists of element ids in
    order of their least ids, and the index of every id's orbit.

    Every id starts labelled by itself.  Each round lowers the labels of x
    and of s_i x s_i^-1 to the smaller of the two, for every generator, and
    then moves each label to the label of its label; it stops when no label
    moves.  A label is always an id of the same orbit, and the least id of
    an orbit keeps its own, so the labels end as the least ids."""
    inv = G.inverses
    conj = []
    for i in range(len(G.generators)):
        right_inv = _inverse_permutation(G.rmul[:, i])   # x -> x s_i^-1
        left = inv[right_inv[inv]]                       # x -> s_i x
        conj.append(right_inv[left])                     # x -> s_i x s_i^-1
    label = np.arange(len(G), dtype=np.int32)
    moved = True
    while moved:
        before = label.copy()
        for perm in conj:
            np.minimum(label, label[perm], out=label)
            label[perm] = np.minimum(label[perm], label)
        label = label[label]
        moved = not np.array_equal(label, before)
    least = label == np.arange(len(G))
    classes = [np.flatnonzero(label == x).tolist()
               for x in np.flatnonzero(least)]
    return classes, (np.cumsum(least) - 1)[label].tolist()


def extend_homomorphism(G: FiniteGroupTable, images):
    """Extend generator images over the spanning tree, then check every
    Cayley edge x -> x s_i; returns the extended map's id -> id table as
    an int32 array, or REJECT on any conflict."""
    images = tuple(int(f) for f in images)
    right = np.stack(G.right_multiplications(images))
    table = np.full(len(G), -1, dtype=np.int32)
    table[G.identity_id] = G.identity_id
    for lo, hi in zip(G.levels[1:], G.levels[2:]):
        table[lo:hi] = right[G.parent_gen[lo:hi], table[G.parent[lo:hi]]]
    if (table < 0).any():
        raise RuntimeError("the spanning tree misses some elements")
    for i in range(len(images)):
        if not np.array_equal(table[G.rmul[:, i]], right[i][table]):
            return REJECT
    return table


def _conjugates(G: FiniteGroupTable, conjugators: np.ndarray,
                x: int) -> np.ndarray:
    """Ids of g x g^-1 for each id g in ``conjugators``, from one stacked
    matrix product."""
    g = G.elements[conjugators].astype(np.int64)
    g_inv = G.elements[G.inverses[conjugators]].astype(np.int64)
    return _lookup(G.index, g @ G.elements[x].astype(np.int64) @ g_inv,
                   G.realization, G.p)


def inner_endomorphisms(G: FiniteGroupTable) -> dict:
    """The image tuples (g s_i g^-1)_i of the conjugations fixing the first
    generator s_1, i.e. by g in C_G(s_1), each mapped to its least
    conjugator g: a certificate that the tuple is inner."""
    cent = G.centralizer(G.generators[0])
    cols = [_conjugates(G, cent, gid).tolist() for gid in G.generators]
    conjugators = {}
    for g, images in zip(cent.tolist(), zip(*cols)):
        conjugators.setdefault(images, g)
    return conjugators


def class_preserving_endos(G: FiniteGroupTable, classes, class_of):
    """The image tuples of the endomorphisms that fix the first generator
    s_1 and send every element into its conjugacy class, sorted; ``classes``
    and ``class_of`` are the output of ``conjugacy_classes(G)``.

    Conjugation by g in C_G(s_1) fixes s_1 and permutes these maps, taking
    psi to a map with psi(s_2) = g c g^-1 when psi(s_2) = c.  So the maps
    are searched and extended only under the least c of each C_G(s_1)-orbit
    of the images of s_2, and each map found there is carried to every other
    c' of the orbit by one witness g with g c g^-1 = c' (the least such g).
    A tuple is kept when ``extend_homomorphism`` returns a table, not
    REJECT, that sends every id into its own class."""
    gen_ids = G.generators
    n = len(gen_ids)
    pair_target = {(i, j): class_of[G.mul(gen_ids[i], gen_ids[j])]
                   for i in range(n) for j in range(n) if i != j}

    s1 = gen_ids[0]
    second = [c for c in classes[class_of[gen_ids[1]]]
              if class_of[G.mul(s1, c)] == pair_target[(0, 1)]]
    cent = G.centralizer(s1)
    class_arr = np.array(class_of)
    found, seen = [], set()
    for c in second:
        if c in seen:
            continue
        # each g c g^-1 with its least g: the last value a reversed
        # dict keeps
        orbit = dict(zip(_conjugates(G, cent, c).tolist()[::-1],
                         cent.tolist()[::-1]))
        seen.update(orbit)
        witnesses = np.fromiter(orbit.values(), dtype=np.int64)
        # image tuples under (s_1, c), one generator at a time, kept while
        # its product with each earlier image lands in the class of the
        # generators' product
        chosen = [(s1, c)]
        for k in range(2, n):
            chosen = [prefix + (x,) for prefix in chosen
                      for x in classes[class_of[gen_ids[k]]]
                      if all(class_of[G.mul(prefix[i], x)]
                             == pair_target[(i, k)] for i in range(k))]
        for images in chosen:
            table = extend_homomorphism(G, images)
            if table is not REJECT and np.array_equal(class_arr[table],
                                                      class_arr):
                found += zip(*(_conjugates(G, witnesses, x).tolist()
                               for x in images))
    return sorted(found)


def hypothesis_violated(system, p: int) -> bool:
    """Is p a prime the theorem needs invertible (2, and 3 for G2)?"""
    return p == 2 or (p == 3 and SystemType(system).tag == "G2")


def expected_order(system, p: int) -> int:
    """|E_ad(system, F_p)| by the order formula (Carter, Simple Groups of
    Lie Type, 1972), with q = p."""
    q = p
    return {"A1": q * (q**2 - 1) // gcd(2, q - 1),
            "A2": q**3 * (q**2 - 1) * (q**3 - 1) // gcd(3, q - 1),
            "B2": q**4 * (q**2 - 1) * (q**4 - 1) // gcd(2, q - 1),
            "G2": q**6 * (q**2 - 1) * (q**6 - 1)}[SystemType(system).tag]


def sha_report(system, p: int, cap: int = DEFAULT_CAP):
    """PASS iff every class-preserving endomorphism of E(system, F_p) is
    inner and the counts agree; the group order is bounded by ``cap``.
    A closure whose order is not ``expected_order`` searched the wrong
    group, so that report is INCONCLUSIVE with a ``detail``.

    phi -> c_g o phi permutes the class-preserving endomorphisms, and the
    inner ones, and moves phi(s_1) around the whole class of s_1 (Burnside
    1913, Wall 1947).  So each fibre of phi -> phi(s_1) is a copy of the
    fibre N over s_1, every such phi is inner iff every psi in N is, and
    the counts are |class(s_1)| times the counts over N."""
    t0 = time.perf_counter()
    system = SystemType(system)
    G = generate_group(system, p, cap=cap)
    classes, class_of = conjugacy_classes(G)
    normalized = class_preserving_endos(G, classes, class_of)
    inner = inner_endomorphisms(G)
    orbit = len(classes[class_of[G.generators[0]]])
    cp_count, inner_count = orbit * len(normalized), orbit * len(inner)
    all_inner = all(images in inner for images in normalized)
    verdict = "PASS" if (all_inner and cp_count == inner_count) else "FAIL"
    rep = {
        "system": system.tag,
        "p": p,
        "group_order": len(G),
        "class_count": len(classes),
        "cp_endo_count": cp_count,
        "inner_count": inner_count,
        "verdict": verdict,
        "hypothesis_violated": hypothesis_violated(system, p),
        "seconds": round(time.perf_counter() - t0, 3),
    }
    expected = expected_order(system, p)
    if len(G) != expected:
        rep.update(verdict="INCONCLUSIVE",
                   detail=f"closed {len(G)} elements, but E({system.tag},"
                   f" F_{p}) has order {expected}")
    return rep
