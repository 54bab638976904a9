"""Group presentations, normal forms, and the multiplication law."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedderburn.groups import (
    NONSPLIT,
    SPLIT,
    EvenCharacteristic,
    OrderNotCoprime,
    SNotInvolutive,
    element_index,
    group_elements,
    make_group,
    parse_group,
)

from reference import group_mult


def test_dihedral_8():
    g = make_group(SPLIT, 4, 3, 3)
    assert (g.N, g.d, g.order) == (4, 2, 8)
    assert g.s != 1


def test_quaternion_8():
    g = make_group(NONSPLIT, 2, 3, 3)
    assert (g.N, g.d, g.order) == (4, 2, 8)


def test_degenerate_and_abelian_cases():
    c2 = make_group(SPLIT, 1, 1, 3)
    assert c2.order == 2 and c2.s == 1
    c4 = make_group(NONSPLIT, 1, 1, 3)
    assert c4.order == 4 and c4.s == 1
    c20 = make_group(NONSPLIT, 5, 1, 3)
    assert c20.order == 20 and c20.s == 1


def test_bad_parameters():
    with pytest.raises(SNotInvolutive):
        make_group(SPLIT, 5, 2, 3)  # 2^2 = 4 is not 1 mod 5
    with pytest.raises(EvenCharacteristic):
        make_group(SPLIT, 3, 2, 4)
    with pytest.raises(OrderNotCoprime):
        make_group(SPLIT, 3, 1, 3)
    with pytest.raises(OrderNotCoprime):
        make_group(NONSPLIT, 9, 1, 3)


def test_s_normalization():
    assert make_group(SPLIT, 4, 7, 3).s == 3
    assert make_group(SPLIT, 4, 3, 3).s == 3
    # normalizing twice changes nothing
    g = make_group(NONSPLIT, 6, 5, 7)
    again = make_group(g.kind, g.n, g.s, g.q)
    assert again == g


def test_group_elements_order_and_length():
    g = make_group(SPLIT, 2, 1, 3)
    elems = group_elements(g)
    assert elems == [(0, 0), (1, 0), (0, 1), (1, 1)]
    for kind, n, s, q in ((SPLIT, 4, 3, 3), (NONSPLIT, 4, 3, 3), (NONSPLIT, 5, 1, 3)):
        g = make_group(kind, n, s, q)
        elems = group_elements(g)
        assert len(elems) == g.order
        assert len(set(elems)) == g.order
        for i, j in elems:
            assert element_index(g, i, j) == elems.index((i, j))


def test_defining_relations():
    for kind, n, s, q in (
        (SPLIT, 4, 3, 3),
        (NONSPLIT, 2, 3, 3),
        (SPLIT, 6, 5, 5),
        (NONSPLIT, 6, 5, 5),
        (NONSPLIT, 8, 9, 5),
    ):
        g = make_group(kind, n, s, q)
        x = (1, 0)
        y = (0, 1)
        # x has order N
        acc = (0, 0)
        for _ in range(g.N):
            acc = group_mult(g, acc, x)
        assert acc == (0, 0)
        # y^2 is 1 (split) or x^n (nonsplit)
        ysq = group_mult(g, y, y)
        assert ysq == ((0, 0) if kind == SPLIT else (g.n % g.N, 0))
        # the commutation rule x y = y x^s
        assert group_mult(g, x, y) == group_mult(g, y, (g.s % g.N, 0))


def test_associativity_exhaustive_small():
    for kind, n, s, q in ((SPLIT, 4, 3, 3), (NONSPLIT, 2, 3, 3)):
        g = make_group(kind, n, s, q)
        elems = group_elements(g)
        for a in elems:
            for b in elems:
                ab = group_mult(g, a, b)
                for c in elems:
                    assert group_mult(g, ab, c) == group_mult(g, a, group_mult(g, b, c))


def test_parse_group():
    assert parse_group("split:n=4,s=3") == (SPLIT, 4, 3)
    assert parse_group("nonsplit:n=2,s=3") == (NONSPLIT, 2, 3)
    for bad in ("dihedral:n=4,s=3", "split:n=4", "split:4,3", "split:n=x,s=3"):
        with pytest.raises(ValueError):
            parse_group(bad)


def _char(q):
    """The prime p with q = p^m, or None; by trial division, apart from fields.py."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return p if q == 1 else None


ODD_PRIME_POWERS = [q for q in range(3, 200) if _char(q) not in (None, 2)]


@st.composite
def valid_group_args(draw):
    """(kind, n, s, q) that make_group accepts, with s anywhere in its class mod N."""
    kind = draw(st.sampled_from((SPLIT, NONSPLIT)))
    n = draw(st.integers(1, 60))
    N = n if kind == SPLIT else 2 * n
    q = draw(st.sampled_from([q for q in ODD_PRIME_POWERS if N % _char(q)]))
    roots = [s for s in range(N) if (s * s) % N == 1 % N]
    s = draw(st.sampled_from(roots)) + N * draw(st.integers(-5, 5))
    return kind, n, s, q


@settings(max_examples=300, deadline=None)
@given(valid_group_args())
def test_parse_group_inverts_repr(args):
    kind, n, s, q = args
    g = make_group(kind, n, s, q)
    assert parse_group(repr(g)) == (kind, n, s % g.N if g.N > 1 else 1)
    assert make_group(*parse_group(repr(g)), q) == g


@settings(max_examples=500, deadline=None)
@given(st.sampled_from((SPLIT, NONSPLIT, "Split", "dihedral", "")),
       st.integers(-3, 40), st.integers(-100, 100), st.integers(-5, 200))
def test_make_group_accepts_exactly_the_valid_inputs(kind, n, s, q):
    """Invalid input raises a ValueError subclass and nothing else."""
    p = _char(q)
    N = n if kind == SPLIT else 2 * n
    valid = (kind in (SPLIT, NONSPLIT) and n >= 1 and p not in (None, 2)
             and N % p != 0 and (N == 1 or (s * s) % N == 1))
    try:
        g = make_group(kind, n, s, q)
    except ValueError:
        assert not valid
    else:
        assert valid
        assert (g.N, g.order, g.d) == (N, 2 * N, gcd(N, g.s - 1) if N > 1 else 1)
        assert 0 <= g.s < N or g.s == 1
