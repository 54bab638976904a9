"""Cyclotomic coset machinery: factoring x^N - 1, the s-pairing report,
and the 2-power field towers.
"""

from math import gcd

import numpy as np
import pytest

from wedderburn.battery import battery_instances
from wedderburn.cyclotomic import (
    BadCongruence,
    NotCoprimeNQ,
    NotSelfInvolutive,
    SInvalid,
    classify,
    cyclotomic_cosets,
    factor_xn_minus_1,
    root_of_unity,
    splitting_field,
    symmetric_generator_power,
    tower_degrees,
    two_adic_steps_by_valuation,
    two_adic_steps_expected,
    two_adic_tower,
)
from wedderburn.fields import FieldElt, has_order, make_field, ord_mod, padic_valuation, \
    split_prime_power
from wedderburn.groups import SPLIT
from wedderburn.polys import Poly, x_power_minus_one

F3 = make_field(3, 1)
F7 = make_field(7, 1)


def test_cyclotomic_cosets_mod_4():
    cosets = cyclotomic_cosets(4, 3)
    assert sorted(cosets) == [(0,), (1, 3), (2,)]


def test_cyclotomic_cosets_partition():
    for N, q in ((8, 3), (16, 7), (20, 3), (15, 2)):
        cosets = cyclotomic_cosets(N, q)
        seen = sorted(c for coset in cosets for c in coset)
        assert seen == list(range(N))
        for coset in cosets:
            for c in coset:
                assert (c * q) % N in coset


def test_factor_x4_minus_1_over_f3():
    polys = {str(poly) for _c, poly in factor_xn_minus_1(F3, 4)}
    assert polys == {"2 + 1*x", "1 + 1*x", "1 + 1*x^2"}


def test_factor_x1_minus_1():
    factors = factor_xn_minus_1(F3, 1)
    assert len(factors) == 1
    assert factors[0][1] == Poly.from_ints(F3, (-1, 1))


def test_factor_x8_minus_1_over_f3_degrees():
    degs = sorted(poly.degree for _c, poly in factor_xn_minus_1(F3, 8))
    assert degs == [1, 1, 2, 2, 2]


def test_factor_recomposition():
    for q in (3, 5, 7, 9):
        F = make_field(*split_prime_power(q))
        for N in range(1, 31):
            if N % F.char == 0:
                continue
            factors = factor_xn_minus_1(F, N)
            prod = Poly.one(F)
            for _c, poly in factors:
                prod = prod * poly
            assert prod == x_power_minus_one(F, N)
            assert sum(poly.degree for _c, poly in factors) == N


def test_factor_rejects_bad_characteristic():
    with pytest.raises(NotCoprimeNQ):
        factor_xn_minus_1(F3, 6)


# (q, N) for the rep-kernel reference checks, with the splitting degree
# m = ord_N(q): N = 1; m = 1 over prime fields and over F_9; m >= 2 over
# F_3, F_5, F_7 and F_9 (up to the degree-8 tower F_9, N = 17)
KERNEL_GRID = (
    (3, 1), (9, 1),
    (5, 4), (7, 3), (7, 6), (13, 12),
    (9, 2), (9, 4), (9, 8),
    (3, 8), (3, 11), (3, 13), (3, 20),
    (5, 3), (5, 7), (5, 13),
    (7, 5), (7, 9), (7, 19),
    (9, 5), (9, 7), (9, 10), (9, 13), (9, 17),
)


def _primes_dividing(N):
    return [r for r in range(2, N + 1) if N % r == 0 and all(r % d for d in range(2, r))]


def _scan_root(E, N):
    """root_of_unity as a plain scan of E's FieldElts, kept as the reference:
    every nonzero element in order, none skipped.  z = w^((|E|-1)/N) has
    z^N = 1, so its order is N unless z^(N/r) = 1 for a prime r | N."""
    if N == 1:
        return E.one
    for w in E.elements():
        if w.is_zero():
            continue
        z = w ** ((E.order - 1) // N)
        if all(z ** (N // r) != E.one for r in _primes_dividing(N)):
            return z
    raise AssertionError("no primitive root")


def _plain_scan_quadratic(E, N, batch=1 << 16):
    """The same plain scan over E = F_p[t]/(t^2 + m1*t + m0), in numpy: every
    candidate k = 1, 2, ... is the element (k // p) + (k % p)*t, which is
    E.elements() order, raised to (p^2 - 1)/N batch by batch with int64
    arithmetic of its own.  p < 2^31, so no product overflows."""
    p = E.char
    m0, m1 = E.modulus[0].rep, E.modulus[1].rep

    def mul(x, y):
        (a, b), (c, d) = x, y
        e = b * d % p  # t^2 = -m1*t - m0
        return (a * c - e * m0) % p, (a * d % p + b * c - e * m1) % p

    def power(x, k):
        r = (np.ones_like(x[0]), np.zeros_like(x[0]))
        while k:
            if k & 1:
                r = mul(r, x)
            k >>= 1
            if k:
                x = mul(x, x)
        return r

    for start in range(1, p * p, batch):
        k = np.arange(start, min(start + batch, p * p), dtype=np.int64)
        z = power((k // p, k % p), (p * p - 1) // N)
        exact = np.ones(len(k), dtype=bool)
        for r in _primes_dividing(N):
            a, b = power(z, N // r)
            exact &= (a != 1) | (b != 0)
        if exact.any():
            i = int(np.argmax(exact))
            return E.elt([int(z[0][i]), int(z[1][i])])
    raise AssertionError("no primitive root")


def _coset_products(F, N):
    """factor_xn_minus_1 as Poly products over E, kept as the reference."""
    E, _ = splitting_field(F, N)
    zeta = _scan_root(E, N)
    pairs = []
    for coset in cyclotomic_cosets(N, F.order):
        f = Poly.one(E)
        for i in coset:
            f = f * Poly(E, (-(zeta ** i), E.one))
        pairs.append((coset, Poly(F, [c if E is F else FieldElt(F, c.rep[0])
                                      for c in f.coeffs])))
    return tuple(sorted(pairs, key=lambda cg: cg[1].key()))


@pytest.mark.parametrize("q,N", KERNEL_GRID, ids=lambda v: str(v))
def test_rep_kernel_matches_the_element_scan(q, N):
    F = make_field(*split_prime_power(q))
    E, m = splitting_field(F, N)
    assert m == ord_mod(q, N)
    assert root_of_unity(E, N) == _scan_root(E, N)
    assert factor_xn_minus_1(F, N) == _coset_products(F, N)


BATTERY_PAIRS = sorted({(q, n if kind == SPLIT else 2 * n)
                        for kind, n, _, q in battery_instances()})


@pytest.mark.parametrize("q,N", BATTERY_PAIRS, ids=lambda v: str(v))
def test_orbit_skipping_scan_matches_the_plain_scan_on_the_battery(q, N):
    E, _ = splitting_field(make_field(*split_prime_power(q)), N)
    assert root_of_unity(E, N) == _scan_root(E, N)


# N | p^2 - 1 but not p - 1, so E = F_{p^2} = F_p[t]/(t^2 + 1).  When
# N | p + 1, every c*t has the image of t, so a plain scan walks about p
# candidates; q = 1000003, N = 4 is the input that hung before the scan
# skipped orbits.
@pytest.mark.parametrize("p,N", [(10007, N) for N in (3, 4, 6, 8, 9, 12, 16, 18, 24, 36, 48, 72)]
                         + [(1000003, N) for N in (4, 24, 89)], ids=lambda v: str(v))
def test_orbit_skipping_scan_matches_a_plain_scan_over_f_p2(p, N):
    E, m = splitting_field(make_field(p, 1), N)
    assert m == 2 and [c.rep for c in E.modulus] == [1, 0, 1]
    assert root_of_unity(E, N) == _plain_scan_quadratic(E, N)


def test_splitting_field_and_root():
    E, m = splitting_field(F3, 8)
    assert m == 2  # ord of 3 mod 8
    assert E is make_field(3, 2)  # one modulus search, one interned field
    xi = root_of_unity(E, 8)
    assert has_order(lambda k: xi ** k, 8, E.one)
    # deterministic: same root again on a rebuilt tower
    E2, _ = splitting_field(F3, 8)
    assert root_of_unity(E2, 8) == xi


def test_classify_n4_q3_s3():
    rep = classify(F3, 4, 3)
    assert (rep.N, rep.q, rep.s, rep.d) == (4, 3, 3, 2)
    assert [f.coset for f in rep.factors] == [(2,), (0,), (1, 3)]
    assert [f.divides_x_d_minus_1 for f in rep.factors] == [True, True, False]
    assert all(f.self_involutive for f in rep.factors)
    assert (rep.r, rep.t) == (1, 0)
    two = rep.factors[2]
    assert two.poly == Poly.from_ints(F3, (1, 0, 1))
    assert two.root_order == 4


def test_classify_n16_q7_s7():
    # s = q makes every coset stable, since cosets are q-orbits
    rep = classify(F7, 16, 7)
    fac = next(f for f in rep.factors if 1 in f.coset)
    assert fac.coset == (1, 7)
    assert fac.self_involutive
    assert rep.t == 0


def test_classify_pairs_are_adjacent():
    # N=8, q=7, s=3: the cosets {1,7} and {3,5} swap under s
    rep = classify(F7, 8, 3)
    pairs = [(i, f) for i, f in enumerate(rep.factors) if f.partner is not None]
    assert pairs, "expected at least one moved pair here"
    for i, f in pairs:
        j = f.partner
        assert rep.factors[j].partner == i
        assert abs(i - j) == 1
        lo = min(i, j)
        assert rep.factors[lo].poly.key() < rep.factors[lo + 1].poly.key()
    assert rep.t == len(pairs) // 2


def test_classify_counts_consistent():
    for q, N, s in ((3, 20, 9), (7, 8, 3), (5, 24, 7), (3, 16, 9)):
        F = make_field(*split_prime_power(q))
        rep = classify(F, N, s)
        off_d = [f for f in rep.factors if not f.divides_x_d_minus_1]
        assert rep.r == sum(1 for f in off_d if f.self_involutive)
        assert 2 * rep.t == sum(1 for f in off_d if f.partner is not None)


def test_classify_rejects_bad_s():
    with pytest.raises(SInvalid):
        classify(F3, 8, 2)


def test_coset_pairing_matches_root_arithmetic():
    # the partner of f must vanish on the s-th powers of f's roots; this
    # re-derives the pairing from actual root arithmetic in the splitting
    # field instead of coset bookkeeping
    for q, N, s in ((3, 8, 3), (7, 8, 3), (3, 16, 9), (5, 8, 5)):
        F = make_field(*split_prime_power(q))
        rep = classify(F, N, s)
        E, _ = splitting_field(F, N)
        xi = root_of_unity(E, N)
        for f in rep.factors:
            target = f if f.partner is None else rep.factors[f.partner]
            for c in f.coset:
                root_s = xi ** ((c * s) % N)
                acc = E.zero
                power = E.one
                for co in target.poly.coeffs:
                    acc = acc + E.elt([co]) * power
                    power = power * root_s
                assert acc == E.zero


def test_tower_degrees_cases():
    rep = classify(F3, 4, 3)
    assert tower_degrees(rep.factors[2]) == (2, 1)
    rep16 = classify(F3, 16, 9)
    deg4 = next(f for f in rep16.factors if 1 in f.coset)
    assert deg4.degree == 4 and deg4.self_involutive
    assert tower_degrees(deg4) == (4, 2)
    linear = next(f for f in rep.factors if f.divides_x_d_minus_1)
    with pytest.raises(NotSelfInvolutive):
        tower_degrees(linear)


def test_tower_degrees_rejects_moved_factor():
    rep = classify(F7, 8, 3)
    moved = next(f for f in rep.factors if f.partner is not None)
    with pytest.raises(NotSelfInvolutive):
        tower_degrees(moved)


def test_two_adic_tower_examples():
    assert two_adic_tower(4, 3) == [1, 2]
    assert two_adic_tower(8, 3) == [2, 1, 2]
    assert two_adic_tower(8, 3)[0] == 2
    assert two_adic_tower(2, 3) == [2]
    assert two_adic_tower(5, 3) == []  # odd n: no 2-part to descend
    with pytest.raises(BadCongruence):
        two_adic_tower(4, 5)
    with pytest.raises(NotCoprimeNQ):
        two_adic_tower(6, 3)


def test_two_adic_tower_matches_expected_everywhere():
    # the valuation-plus-ord formula reproduces the actual tower on the
    # whole desk range
    for q in (3, 7, 11, 19, 23):
        for n in range(1, 41):
            try:
                actual = two_adic_tower(n, q)
            except NotCoprimeNQ:
                continue
            assert actual == two_adic_steps_expected(n, q), (n, q)


def test_valuation_pattern_iff_odd_part_has_odd_order():
    # the bare valuation pattern agrees with the actual tower exactly when
    # v2(ord_w(q)) = 0 for the odd part w of n
    for q in (3, 7, 11):
        for n in range(1, 41):
            try:
                actual = two_adic_tower(n, q)
            except NotCoprimeNQ:
                continue
            v = padic_valuation(n, 2)
            w = n >> v
            e = padic_valuation(ord_mod(q, w), 2) if w > 1 else 0
            agrees = actual == two_adic_steps_by_valuation(n, q)
            assert agrees == (v == 0 or e == 0), (n, q, actual)


def test_two_adic_tower_n24_q11_separating_instance():
    # the smallest battery-range point where the printed step pattern and
    # the actual tower disagree
    assert two_adic_steps_by_valuation(24, 11) == [2, 1, 2]
    assert two_adic_tower(24, 11) == [2, 1, 1]


def test_symmetric_generator_power_values():
    assert symmetric_generator_power(4, 3) == 4
    assert symmetric_generator_power(2, 3) == 2
    assert symmetric_generator_power(8, 3) == 2
    assert symmetric_generator_power(10, 3) == 2
    with pytest.raises(ValueError):
        symmetric_generator_power(5, 3)
    with pytest.raises(BadCongruence):
        symmetric_generator_power(4, 5)


def test_symmetric_generator_power_n10_q3_names_too_large_a_field():
    # documented failure mode of the subfield identification: for n=10,
    # q=3 the named generator xi^2 generates the full degree-4 field while
    # the symmetric subfield has degree 2
    k = symmetric_generator_power(10, 3)
    named_degree = ord_mod(3, 20 // k)
    symmetric_degree = ord_mod(3, 20) // 2
    assert named_degree == 4
    assert symmetric_degree == 2
    assert named_degree != symmetric_degree
