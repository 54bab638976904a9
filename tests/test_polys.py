"""Polynomial arithmetic over the finite field layer.

Everything here is plain dense univariate arithmetic; the interesting
bits are the reversal/reciprocal operators and the s-indexed involution
used to pair factors of x^N - 1.
"""

import random
from math import gcd

import pytest

from wedderburn.cyclotomic import factor_xn_minus_1
from wedderburn.fields import first_irreducible, has_order, make_field, split_prime_power
from wedderburn.polys import (
    BadS,
    BothZero,
    FieldMismatch,
    NotInvertible,
    Poly,
    ext_gcd,
    formal_derivative,
    inverse_mod,
    is_irreducible,
    mod_xn_minus_1,
    powmod,
    reversed_coeffs,
    s_involution,
    x_power_minus_one,
)

from reference import ZeroConstantTerm, reciprocal

F3 = make_field(3, 1)
F9 = make_field(3, 2)


def P(*ints, field=F3):
    return Poly.from_ints(field, ints)


def test_poly_normalization():
    assert P(1, 2, 0, 0) == P(1, 2)
    assert P(0).is_zero()
    assert P(1).is_one()
    assert P(0, 0, 1).degree == 2
    assert P(4, 1) == P(1, 1)


def test_poly_arithmetic_sanity():
    f = P(1, 1)        # 1 + x
    g = P(2, 1)        # 2 + x == x - 1
    assert f * g == P(2, 0, 1)          # x^2 - 1
    assert f + g == P(0, 2)
    q, r = divmod(P(2, 0, 1), f)
    assert q == g and r.is_zero()
    assert P(2, 0, 1) % f == Poly.zero(F3)


def test_ext_gcd_examples():
    g, _, _ = ext_gcd(P(2, 0, 1), P(2, 1))          # (x^2-1, x-1)
    assert g == P(2, 1)
    g, _, _ = ext_gcd(P(1, 0, 1), P(2, 0, 1))       # (x^2+1, x^2-1)
    assert g.is_one()
    f = P(2, 1, 1)
    g, _, _ = ext_gcd(f, f)
    assert g == f.monic()


def test_ext_gcd_bezout_property():
    rng = random.Random(11)
    for _ in range(150):
        f = Poly(F3, tuple(F3.elt(rng.randrange(3)) for _ in range(rng.randrange(1, 7))))
        h = Poly(F3, tuple(F3.elt(rng.randrange(3)) for _ in range(rng.randrange(1, 7))))
        if f.is_zero() and h.is_zero():
            continue
        g, u, v = ext_gcd(f, h)
        assert u * f + v * h == g
        if not f.is_zero():
            assert f % g == Poly.zero(F3)
        if not h.is_zero():
            assert h % g == Poly.zero(F3)


def test_ext_gcd_errors():
    with pytest.raises(BothZero):
        ext_gcd(Poly.zero(F3), Poly.zero(F3))
    with pytest.raises(FieldMismatch):
        ext_gcd(P(1, 1), Poly.from_ints(F9, (1, 1)))


def test_coefficients_from_another_field_are_rejected():
    F5 = make_field(5, 1)
    with pytest.raises(FieldMismatch):
        Poly(F5, [F3.elt(1), F3.elt(2)])
    with pytest.raises(FieldMismatch):
        Poly(F3, [1, 2])


def test_inverse_mod_examples():
    assert inverse_mod(P(2, 0, 1), P(1, 0, 1)).is_one()      # x^2-1 = -2 = 1 mod x^2+1
    assert inverse_mod(Poly.one(F3), P(1, 1, 1)).is_one()
    assert inverse_mod(P(0, 1), P(1, 0, 1)) == P(0, 2)       # x * 2x = 2x^2 = 1
    with pytest.raises(NotInvertible):
        inverse_mod(P(2, 1), P(2, 0, 1))                     # shared factor x-1


def test_inverse_mod_property():
    mod = P(1, 0, 0, 1)  # 1 + x^3
    rng = random.Random(5)
    for _ in range(80):
        f = Poly(F3, tuple(F3.elt(rng.randrange(3)) for _ in range(3)))
        try:
            inv = inverse_mod(f, mod)
        except NotInvertible:
            g, _, _ = ext_gcd(f, mod)
            assert g.degree > 0
            continue
        assert (f * inv) % mod == Poly.one(F3)


def test_reciprocal_examples():
    assert reciprocal(P(2, 1)) == P(2, 1)        # x-1 is self-reciprocal here
    assert reciprocal(P(1, 0, 1)) == P(1, 0, 1)
    # 1+2x reverses to 2+x once the result is made monic
    assert reciprocal(P(1, 2)) == P(2, 1)
    with pytest.raises(ZeroConstantTerm):
        reciprocal(P(0, 1))


def test_reciprocal_is_an_involution_on_monics():
    rng = random.Random(23)
    for _ in range(100):
        coeffs = [F3.elt(rng.randrange(1, 3))] + [
            F3.elt(rng.randrange(3)) for _ in range(rng.randrange(1, 6))
        ]
        f = Poly(F3, tuple(coeffs)).monic()
        if f.reps[0] == F3.zero.rep:
            continue
        assert reciprocal(reciprocal(f)) == f


def test_reversed_coeffs_pivots_on_trimmed_degree():
    f = P(1, 2, 0, 1)
    assert reversed_coeffs(f) == P(1, 0, 2, 1)
    assert reversed_coeffs(P(0, 0, 1)) == P(1)


def test_formal_derivative():
    assert formal_derivative(P(1, 0, 1)) == P(0, 2)
    assert formal_derivative(P(2)) == Poly.zero(F3)
    assert formal_derivative(P(0, 0, 0, 1)) == Poly.zero(F3)  # (x^3)' = 0 in char 3
    assert formal_derivative(P(1, 1, 1, 1)) == P(1, 2)


def _x_has_order(g, L):
    return has_order(lambda k: powmod(Poly.x(g.field), k, g), L, Poly.one(g.field))


def test_x_has_order_examples():
    assert _x_has_order(P(2, 1), 1)            # x - 1 divides x^1 - 1
    assert _x_has_order(P(1, 1), 2)
    assert _x_has_order(P(1, 0, 1), 4)
    assert not _x_has_order(P(1, 0, 1), 2) and not _x_has_order(P(1, 0, 1), 8)
    assert not any(_x_has_order(P(0, 1), k) for k in (1, 2, 3, 4))  # x | f


@pytest.mark.parametrize("q", [3, 5])
def test_x_has_order_matches_a_walked_order(q):
    # x mod every factor g of x^N - 1, N <= 24: true at its order, false
    # at every other k | N
    F = make_field(q, 1)
    for N in range(1, 25):
        if N % q == 0:
            continue
        divisors = [k for k in range(1, N + 1) if N % k == 0]
        for _, g in factor_xn_minus_1(F, N):
            L, acc = 1, Poly.x(F) % g
            while not acc.is_one():  # the least L with x^L = 1 mod g
                L, acc = L + 1, acc * Poly.x(F) % g
            assert [k for k in divisors if _x_has_order(g, k)] == [L]


def test_powmod_matches_naive():
    mod = P(1, 0, 1)
    f = P(1, 1)
    acc = Poly.one(F3)
    for e in range(10):
        assert powmod(f, e, mod) == acc
        acc = (acc * f) % mod


def test_mod_xn_minus_1_matches_division():
    # folding the blocks of N coefficients gives the remainder of the division
    rng = random.Random(5)
    for F in (F3, F9):
        elements = list(F.elements())
        for N in (1, 2, 3, 8):
            for length in (0, 1, N, N + 1, 3 * N + 2):
                f = Poly(F, [rng.choice(elements) for _ in range(length)])
                assert mod_xn_minus_1(f, N) == f % x_power_minus_one(F, N)


def test_s_involution_fixed_points():
    assert s_involution(P(2, 1), 3, 4) == P(2, 1)
    assert s_involution(P(1, 0, 1), 3, 4) == P(1, 0, 1)


def test_s_involution_identity_s():
    for N in (4, 10, 14):
        for f in _battery_factors(F3, N):
            assert s_involution(f, 1, N) == f


def test_s_involution_is_an_involution():
    for q, N in ((3, 8), (5, 12), (7, 16), (9, 10)):
        F = make_field(*split_prime_power(q))
        for s in range(1, N):
            if (s * s) % N != 1 or gcd(s, N) != 1:
                continue
            for f in _battery_factors(F, N):
                assert s_involution(s_involution(f, s, N), s, N) == f


def test_s_involution_minus_one_agrees_with_reciprocal():
    # on irreducible factors of x^N - 1 the -1 involution is exactly the
    # reciprocal polynomial; full sweep for q=3, spot range for the rest
    for q, top in ((3, 40), (5, 16), (7, 16), (9, 12)):
        F = make_field(*split_prime_power(q))
        p = F.char
        for N in range(2, top + 1):
            if N % p == 0:
                continue
            for f in _battery_factors(F, N):
                assert s_involution(f, N - 1, N) == reciprocal(f)


def test_s_involution_errors():
    from wedderburn.polys import NotDividingXNMinus1

    with pytest.raises(NotDividingXNMinus1):
        s_involution(P(1, 1, 1), 3, 4)
    with pytest.raises(BadS):
        s_involution(P(1, 0, 1), 2, 4)


def test_irreducibility_and_first_irreducible():
    assert is_irreducible(P(1, 0, 1))
    assert not is_irreducible(P(2, 0, 1))
    f = Poly(F3, first_irreducible(F3, 2))
    assert f == P(1, 0, 1) and is_irreducible(f)
    g = Poly(F3, first_irreducible(F3, 5))
    assert g.degree == 5 and is_irreducible(g)


def _battery_factors(F, N):
    """Irreducible factors of x^N - 1 as plain polynomials."""
    from wedderburn.cyclotomic import factor_xn_minus_1

    return [poly for _coset, poly in factor_xn_minus_1(F, N)]
