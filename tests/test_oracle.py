"""Brute-force group algebra: table arithmetic, predicates and the center.

Everything the rest of the package claims gets measured against this
module, so its own tests leans on hand computations and on redundancy
between independent code paths.
"""

import random
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedderburn import oracle
from wedderburn.fields import make_field
from wedderburn.groups import (
    NONSPLIT,
    SPLIT,
    element_index,
    group_elements,
    make_group,
)
from wedderburn.polys import Poly
from wedderburn.oracle import (
    AlgebraElement,
    GroupAlgebra,
    GroupMismatch,
    algebra_for,
    are_orthogonal,
    center_basis,
    center_dimension,
    component_count,
    is_central,
    is_idempotent,
    multiply,
    sums_to_one,
)

from reference import group_mult

D8 = make_group(SPLIT, 4, 3, 3)
Q8 = make_group(NONSPLIT, 2, 3, 3)


def test_algebra_interning():
    assert algebra_for(D8) is algebra_for(D8)


def test_basis_multiplication_matches_group_law():
    # split and nonsplit, |G| from 8 to 36; group_mult is the reference for
    # the table
    for g in (D8, Q8, make_group(SPLIT, 5, 4, 3), make_group(NONSPLIT, 6, 5, 5),
              make_group(NONSPLIT, 5, 9, 3), make_group(SPLIT, 17, 16, 3),
              make_group(NONSPLIT, 9, 17, 5)):
        A = algebra_for(g)
        elems = group_elements(g)
        for a in elems:
            for b in elems:
                u = A.basis_element(elems.index(a))
                v = A.basis_element(elems.index(b))
                w = multiply(u, v)
                assert w == A.basis_element(elems.index(group_mult(g, a, b)))


def test_from_polys_roundtrip():
    A = algebra_for(D8)
    F = A.field
    rng = random.Random(17)
    for _ in range(25):
        P = Poly(F, tuple(F.elt(rng.randrange(3)) for _ in range(4)))
        Q = Poly(F, tuple(F.elt(rng.randrange(3)) for _ in range(4)))
        u = A.from_polys(P, Q)
        P2, Q2 = u.to_polys()
        assert P2 == P and Q2 == Q


def test_defining_relation_in_algebra():
    A = algebra_for(D8)
    elems = group_elements(D8)
    x = A.basis_element(elems.index((1, 0)))
    y = A.basis_element(elems.index((0, 1)))
    xs = A.basis_element(elems.index((3, 0)))
    assert x * y == y * xs


def test_group_mismatch():
    u = algebra_for(D8).one()
    v = algebra_for(Q8).one()
    with pytest.raises(GroupMismatch):
        multiply(u, v)


def test_predicates_on_known_elements():
    A = algebra_for(D8)
    one = A.one()
    assert is_idempotent(one)
    assert is_central(one)
    assert sums_to_one([one])
    # (1+y)/2 is idempotent but not central in a dihedral group
    F = A.field
    half = F.elt(2).inverse()
    e = A.from_polys(Poly(F, (half,)), Poly(F, (half,)))
    assert is_idempotent(e)
    assert not is_central(e)
    assert are_orthogonal(A.zero(), one)
    assert not are_orthogonal(one, one)


def test_center_dimensions():
    assert center_dimension(algebra_for(D8)) == 5
    assert center_dimension(algebra_for(Q8)) == 5
    assert center_dimension(algebra_for(make_group(SPLIT, 5, 4, 3))) == 4
    # abelian algebra: everything is central
    C20 = make_group(NONSPLIT, 5, 1, 3)
    assert center_dimension(algebra_for(C20)) == 20


def test_component_counts():
    assert component_count(algebra_for(D8)) == 5
    assert component_count(algebra_for(Q8)) == 5
    assert component_count(algebra_for(make_group(SPLIT, 5, 4, 3))) == 3


def test_center_basis_is_central_and_spans():
    for g in (D8, Q8, make_group(NONSPLIT, 3, 5, 7)):
        A = algebra_for(g)
        basis = center_basis(A)
        assert len(basis) == center_dimension(A)
        for z in basis:
            assert is_central(z)


def test_associativity_check_rejects_a_broken_table(monkeypatch):
    # x^i y^j * x^k y^l -> x^(i-k) y^(j+l) away from the identity: identity
    # row and column intact, associativity broken on most triples
    def broken_mult(g, a, b):
        if a == (0, 0) or b == (0, 0):
            return group_mult(g, a, b)
        return (a[0] - b[0]) % g.N, (a[1] + b[1]) % 2

    def broken(g):
        elems = group_elements(g)
        return np.array([[element_index(g, *broken_mult(g, a, b)) for b in elems]
                         for a in elems], dtype=np.intp)

    monkeypatch.setattr(oracle, "multiplication_table", broken)
    for g in (D8, make_group(SPLIT, 17, 16, 3)):
        with pytest.raises(AssertionError, match="not associative"):
            GroupAlgebra(g, make_field(3, 1))


def _associative(table):
    """(ab)c = a(bc) on every triple, one lookup at a time."""
    n = range(len(table))
    return all(table[table[a][b]][c] == table[a][table[b][c]] for a in n for b in n for c in n)


def _swap(table, r1, r2, c1, c2):
    """The table with the intercalate at rows r1, r2 and columns c1, c2 swapped:
    still a Latin square, and with the identity too when 0 is none of them."""
    out = np.array(table, dtype=np.intp)
    out[r1, c1], out[r1, c2] = out[r1, c2], out[r1, c1]
    out[r2, c1], out[r2, c2] = out[r2, c2], out[r2, c1]
    return out


def _rejected(monkeypatch, g, table):
    monkeypatch.setattr(oracle, "multiplication_table", lambda group: table)
    with pytest.raises(AssertionError, match="not associative"):
        GroupAlgebra(g, make_field(g.q, 1))


def test_associativity_proof_rejects_a_one_swap_table_of_order_96(monkeypatch):
    # the intercalate x^10, x^34 at rows x, x^25 and columns x^9, x^33; the
    # walk along x and y does not see it, so the proof from x and y must
    g = make_group(NONSPLIT, 24, 1, 5)
    table = oracle.multiplication_table(g)
    assert table[1, 9] == table[25, 33] == 10 and table[1, 33] == table[25, 9] == 34
    _rejected(monkeypatch, g, _swap(table, 1, 25, 9, 33))


def test_associativity_proof_rejects_a_loop_that_fails_at_y_only(monkeypatch):
    # D8's law with y^2 = x: a Latin square with an identity that the walk
    # accepts, and (ab)x = a(bx) on every a, b, since s^2 = 1, while
    # (yy)y = x y != y x = y (yy), since x^s = x^3; only c = y refuses it
    table = oracle.multiplication_table(replace(D8, n=1))
    x = table[:, 1]
    assert (x[table] == table[:, x]).all() and not _associative(table.tolist())
    _rejected(monkeypatch, D8, table)


def test_associativity_proof_rejects_every_intercalate_swap(monkeypatch):
    # every swapped intercalate away from the identity's row and column: a
    # Latin square with an identity, and not associative by the exhaustive
    # check here, so the oracle must refuse each one
    swaps, real_table = 0, oracle.multiplication_table
    for g in (D8, Q8, make_group(SPLIT, 5, 4, 3), make_group(NONSPLIT, 3, 5, 5),
              make_group(SPLIT, 8, 3, 3)):
        table = real_table(g).tolist()
        assert _associative(table)
        n = range(1, len(table))
        for r1, r2, c1, c2 in ((r1, r2, c1, c2) for r1 in n for r2 in n if r1 < r2
                               for c1 in n for c2 in n if c1 < c2):
            if table[r1][c1] == table[r2][c2] and table[r1][c2] == table[r2][c1]:
                swapped = _swap(table, r1, r2, c1, c2)
                assert not _associative(swapped.tolist())
                _rejected(monkeypatch, g, swapped)
                swaps += 1
    assert swaps == 404


# groups over F_5, F_7, F_9 and F_25, split and nonsplit; nonsplit:n=5,s=1 is
# abelian
PRODUCT_GROUPS = [
    make_group(SPLIT, 6, 5, 5), make_group(NONSPLIT, 3, 5, 5),
    make_group(SPLIT, 17, 16, 5),
    make_group(SPLIT, 5, 4, 7), make_group(NONSPLIT, 4, 7, 7),
    make_group(SPLIT, 4, 3, 9), make_group(NONSPLIT, 5, 9, 9),
    make_group(NONSPLIT, 5, 1, 9),
    make_group(SPLIT, 6, 5, 25), make_group(NONSPLIT, 3, 5, 25),
]


@st.composite
def algebra_elements(draw, groups, count):
    """An algebra from groups and count elements of it, some of them sparse."""
    A = algebra_for(draw(st.sampled_from(groups)))
    out = []
    for _ in range(count):
        coeffs = draw(st.lists(st.integers(0, A.p - 1), min_size=A.size * A.m,
                               max_size=A.size * A.m))
        if draw(st.booleans()):
            keep = draw(st.integers(0, A.size - 1))
            coeffs = [c if i // A.m == keep else 0 for i, c in enumerate(coeffs)]
        out.append(AlgebraElement(A, np.array(coeffs).reshape(A.size, A.m)))
    return out


@lru_cache(maxsize=None)
def _law(group):
    """table[a][b] = index of g_a g_b, from group_mult and element_index."""
    elems = group_elements(group)
    return [[element_index(group, *group_mult(group, a, b)) for b in elems]
            for a in elems]


def _reference_product(A, u, v):
    """u v from coefficient arrays, one term at a time in Python ints: the
    group law above, and F_q's own product for the coefficients when m > 1."""
    F, p, law = A.field, A.p, _law(A.group)
    acc = [[0] * A.m for _ in range(A.size)]
    for a, row in enumerate(law):
        x = [int(t) for t in u[a]]
        if not any(x):
            continue
        for b, k in enumerate(row):
            y = [int(t) for t in v[b]]
            if A.m == 1:
                acc[k][0] += x[0] * y[0]
            else:
                term = (F.elt(x) * F.elt(y)).key()
                acc[k] = [s + t for s, t in zip(acc[k], term)]
    return np.array([[c % p for c in row] for row in acc], dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(algebra_elements(PRODUCT_GROUPS, 2))
def test_multiply_matches_schoolbook_product(uv):
    u, v = uv
    assert (multiply(u, v).coeffs == _reference_product(u.algebra, u.coeffs, v.coeffs)).all()


def _class_sums(A):
    """Indicator vectors of the conjugacy classes, from group_mult alone."""
    g, elems = A.group, A.elements
    inverse = {a: b for a in elems for b in elems if group_mult(g, a, b) == (0, 0)}
    seen, sums = set(), []
    for a in elems:
        if a in seen:
            continue
        cls = {group_mult(g, group_mult(g, h, a), inverse[h]) for h in elems}
        seen |= cls
        c = np.zeros((A.size, A.m), dtype=np.int64)
        for i, j in cls:
            c[element_index(g, i, j), 0] = 1
        sums.append(AlgebraElement(A, c))
    return sums


def _commutes_with_basis(u):
    A = u.algebra
    return all(multiply(u, A.basis_element(k)) == multiply(A.basis_element(k), u)
               for k in range(A.size))


@settings(max_examples=60, deadline=None)
@given(algebra_elements(PRODUCT_GROUPS, 1), st.data())
def test_is_central_matches_commutation_with_the_basis(us, data):
    u, = us
    A = u.algebra
    assert is_central(u) == _commutes_with_basis(u)
    # a combination of class sums is central; adding a basis element keeps
    # it central exactly when that group element is central
    z = A.zero()
    for cls in _class_sums(A):
        c = [data.draw(st.integers(0, A.p - 1)) for _ in range(A.m)]
        z = z + cls * A.from_polys(Poly(A.field, (A.field.elt(c[0] if A.m == 1 else c),)),
                                   Poly.zero(A.field))
    assert is_central(z) and _commutes_with_basis(z)
    w = z + A.basis_element(data.draw(st.integers(0, A.size - 1)))
    assert is_central(w) == _commutes_with_basis(w)


def test_class_sums_are_central():
    for g in PRODUCT_GROUPS:
        A = algebra_for(g)
        sums = _class_sums(A)
        assert len(sums) == center_dimension(A)
        for z in sums:
            assert is_central(z) and _commutes_with_basis(z)


# the largest prime with (p - 1)^2 < 2^63, the oracle's bound for m = 1;
# |G| = 32 and 64 cover both associativity paths
BIG_P = 3037000493
BIG_P_GROUPS = [make_group(SPLIT, 16, 15, BIG_P), make_group(SPLIT, 32, 31, BIG_P)]


@settings(max_examples=40, deadline=None)
@given(algebra_elements(BIG_P_GROUPS, 2))
def test_multiply_is_exact_at_the_largest_admitted_prime(uv):
    # every coefficient product is near 2^63, so summing two of them
    # unreduced wraps int64: this pins multiply's reduction per entry
    u, v = uv
    A = u.algebra
    expect = [0] * A.size
    for a in range(A.size):
        for b in range(A.size):
            k = A.table[a, b]
            expect[k] = (expect[k] + int(u.coeffs[a, 0]) * int(v.coeffs[b, 0])) % BIG_P
    assert multiply(u, v).coeffs[:, 0].tolist() == expect


def test_center_is_computed_once_per_algebra():
    for g, dim, comps in ((D8, 5, 5), (Q8, 5, 5), (make_group(SPLIT, 5, 4, 3), 4, 3)):
        A = GroupAlgebra(g, make_field(3, 1))
        assert component_count(A) == comps
        basis = center_basis(A)
        assert center_basis(A) is basis
        assert center_dimension(A) == len(basis) == dim
        assert component_count(A) == comps
        # a second algebra on the same group computes its own
        assert center_basis(GroupAlgebra(g, make_field(3, 1))) is not basis


# q = 5, 9 and 25, and a prime where |G| = 10 products of (p - 1)^2 ~ 1e18
# overflow int64 unless the sum is blocked (blocks of 9 terms at this p)
KERNEL_GROUPS = [
    make_group(SPLIT, 6, 5, 5), make_group(NONSPLIT, 3, 5, 5),
    make_group(NONSPLIT, 5, 9, 9), make_group(SPLIT, 4, 3, 9),
    make_group(SPLIT, 6, 5, 25),
    make_group(SPLIT, 5, 4, 1000000007),
]


@st.composite
def kernel_stacks(draw):
    """(A, U, V, pairs): stacks of k in {1, 2, 7}, half of them with every
    entry near p - 1; for the elementwise form one side may be a length-1
    stack."""
    A = algebra_for(draw(st.sampled_from(KERNEL_GROUPS)))
    pairs = draw(st.booleans())
    k = draw(st.sampled_from([1, 2, 7]))
    lengths = draw(st.sampled_from([(k, k), (1, k), (k, 1)]))

    def stack(count):
        digit = draw(st.sampled_from([st.integers(0, A.p - 1),
                                      st.integers(max(0, A.p - 3), A.p - 1)]))
        return np.array(draw(st.lists(digit, min_size=count * A.size * A.m,
                                      max_size=count * A.size * A.m)),
                        dtype=np.int64).reshape(count, A.size, A.m)

    return A, stack(lengths[0]), stack(lengths[1]), pairs


def _reference_products(A, U, V, pairs):
    if pairs:
        return np.array([[_reference_product(A, u, v) for v in V] for u in U])
    k = max(len(U), len(V))
    return np.array([_reference_product(A, U[i % len(U)], V[i % len(V)])
                     for i in range(k)])


@settings(max_examples=80, deadline=None)
@given(kernel_stacks(), st.sampled_from([None, 40, 300]))
def test_products_match_the_group_law(stacks, chunk):
    # chunk shrinks the oracle's intermediate cap, so that small stacks cross
    # stack-chunk and row-chunk boundaries
    A, U, V, pairs = stacks
    with mock.patch.object(oracle, "_CHUNK", chunk or oracle._CHUNK):
        got = oracle.products(A, U, V, pairs=pairs)
    assert (got == _reference_products(A, U, V, pairs)).all()


def test_products_cross_a_chunk_boundary():
    # |G| m = 96: a chunk holds 2^18 // 96^2 = 28 left-multiplication
    # matrices, so 30 elements take two chunks in both forms
    A = algebra_for(make_group(NONSPLIT, 24, 23, 5))
    rng = np.random.default_rng(5)
    U = rng.integers(0, A.p, size=(30, A.size, A.m))
    V = rng.integers(0, A.p, size=(30, A.size, A.m))
    assert (1 << 18) // (A.size * A.m) ** 2 < len(U)
    for u_, v_, pairs in ((U, V, False), (U[:1], V, False), (U, V[:2], True)):
        got = oracle.products(A, u_, v_, pairs=pairs)
        assert (got == _reference_products(A, u_, v_, pairs)).all()
