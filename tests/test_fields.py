"""Finite field layer: construction, arithmetic axioms, square roots, orders,
and the irreducibility test and modulus search against Rabin's test."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, primefactors

from wedderburn import fields
from wedderburn.fields import (
    DegreeZero,
    FieldElt,
    NoSquareRoot,
    NonPrimeCharacteristic,
    NotCoprime,
    ZeroInput,
    ext_field,
    _binomials_reducible,
    _least_factor,
    _padd,
    _pdivmod,
    _pgcd,
    _pmul,
    _power,
    _prime_factors,
    _ptrim,
    first_irreducible,
    has_order,
    is_irreducible_over,
    is_prime,
    make_field,
    ord_mod,
    padic_valuation,
    split_prime_power,
    sqrt_in_field,
)

from conftest import under_python_O

F9 = make_field(3, 2)


def test_prime_field_basics():
    F = make_field(3, 1)
    assert F.char == 3
    assert F.order == 3
    assert F.elt(5) == F.elt(2)
    assert F.one + F.one + F.one == F.zero
    assert len(list(F.elements())) == 3


def test_extension_field_orders():
    F9 = make_field(3, 2)
    assert (F9.char, F9.order, F9.degree) == (3, 9, 2)
    F8 = make_field(2, 3)
    assert (F8.char, F8.order, F8.degree) == (2, 8, 3)
    assert len(list(F9.elements())) == 9
    assert len(list(F8.elements())) == 8


def test_make_field_rejects_bad_parameters():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4, 1)
    with pytest.raises(NonPrimeCharacteristic):
        make_field(1, 2)
    with pytest.raises(DegreeZero):
        make_field(3, 0)


def test_make_field_interns():
    # identity matters: element equality refuses to compare across
    # distinct field objects, so repeated construction must give the
    # same object back
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field(5, 1) is make_field(5, 1)


def test_ext_field_interns():
    F = make_field(3, 1)
    m = (F.one, F.zero, F.one)  # x^2 + 1
    assert ext_field(F, m) is ext_field(F, m)


def test_ext_elt_rejects_coefficients_from_another_field():
    F3, F5, F9 = make_field(3, 1), make_field(5, 1), make_field(3, 2)
    with pytest.raises(TypeError):
        F9.elt([F5.elt(1), F5.elt(2)])
    with pytest.raises(TypeError):
        ext_field(F9, first_irreducible(F9, 2)).elt([F3.elt(1)])  # a tower over F_9
    assert F9.elt([F3.elt(1), F3.elt(2)]) == F9.elt([1, 2])


def test_field_axioms_exhaustive_small():
    # full associativity/distributivity sweep for |F| up to 27
    for p, m in ((3, 1), (5, 1), (3, 2), (2, 3), (3, 3)):
        F = make_field(p, m)
        elems = list(F.elements())
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


def test_field_axioms_sampled_81():
    # 81^3 triples is too many to do exhaustively on every run; a fixed
    # random sample keeps the check meaningful
    F = make_field(3, 4)
    elems = list(F.elements())
    rng = random.Random(81)
    for _ in range(20000):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_inverses():
    for p, m in ((3, 2), (13, 1), (7, 2)):
        F = make_field(p, m)
        for a in F.elements():
            if a == F.zero:
                continue
            assert a * a.inverse() == F.one


def _walked_order(a):
    """The least k >= 1 with a^k = 1, one product at a time; None for 0."""
    if a.is_zero():
        return None
    k, x = 1, a
    while x != a.field.one:
        k, x = k + 1, x * a
    return k


def _has_order(a, L):
    return has_order(lambda k: a ** k, L, a.field.one)


@pytest.mark.parametrize("F", [make_field(11, 1), F9, make_field(5, 2),
                               ext_field(F9, first_irreducible(F9, 2))], ids=repr)
def test_has_order_matches_a_walked_order(F):
    # every element at every k | q - 1: true at its order, false elsewhere,
    # and false everywhere for 0
    divisors = [k for k in range(1, F.order) if (F.order - 1) % k == 0]
    for a in F.elements():
        L = _walked_order(a)
        assert [k for k in divisors if _has_order(a, k)] == ([] if L is None else [L])


def test_mul_order_divides_group_order():
    # Lagrange: the multiplicative order of each nonzero a divides q - 1,
    # and the certificate holds at that order
    for p, m in ((3, 2), (5, 2), (11, 1)):
        F = make_field(p, m)
        for a in F.elements():
            if a == F.zero:
                continue
            k = _walked_order(a)
            assert (F.order - 1) % k == 0
            assert a ** k == F.one
            assert _has_order(a, k)


def test_mul_order_zero_rejected():
    # 0 has no multiplicative order: the certificate fails at every L
    F = make_field(3, 1)
    assert _walked_order(F.zero) is None
    assert not any(_has_order(F.zero, L) for L in range(1, 2 * F.order))


def test_trial_division_matches_sympy():
    for n in range(2, 10 ** 4):
        factors = factorint(n)
        assert _least_factor(n) == min(factors)
        assert is_prime(n) == (factors == {n: 1})
        assert _prime_factors(n) == sorted(factors)
        if len(factors) == 1:
            assert split_prime_power(n) == next(iter(factors.items()))
        else:
            with pytest.raises(NonPrimeCharacteristic):
                split_prime_power(n)
    assert _prime_factors(1) == [] and not is_prime(0) and not is_prime(1)


def test_split_prime_power_stops_at_the_least_factor():
    # factoring the cofactor 2^61 - 1 by trial division would take minutes
    with pytest.raises(NonPrimeCharacteristic):
        split_prime_power(3 * (2 ** 61 - 1))


def test_ext_field_rejects_a_modulus_that_is_not_monic_under_python_O():
    code = "\n".join([
        "from wedderburn.fields import first_irreducible, make_field, ExtField",
        "F = make_field(3, 1)",
        "f = first_irreducible(F, 2)",
        "for modulus in (f[:-1] + (F.elt(2),), (F.one,)):",
        "    try:",
        "        ExtField(F, modulus)",
        "    except ValueError as e:",
        "        print(__debug__, e)",
    ])
    assert under_python_O(code).splitlines() == \
        ["False modulus must be monic of degree >= 1"] * 2


def test_sqrt_examples():
    F3 = make_field(3, 1)
    assert sqrt_in_field(F3.zero) == F3.zero
    with pytest.raises(NoSquareRoot):
        sqrt_in_field(-F3.one)
    F9 = make_field(3, 2)
    r = sqrt_in_field(-F9.one)
    assert r * r == -F9.one
    assert _has_order(r, 4)


def test_sqrt_of_one_is_one_without_tonelli(monkeypatch):
    # the canonical root of 1 is 1: key (1, 0, ...) sorts before (p - 1, 0, ...)
    def no_tonelli(F, a):
        raise AssertionError("sqrt(1) reached Tonelli-Shanks")

    monkeypatch.setattr(fields, "_tonelli", no_tonelli)
    F9 = make_field(3, 2)
    for F in (make_field(3, 1), make_field(1000003, 1), F9,
              ext_field(F9, first_irreducible(F9, 2))):
        assert sqrt_in_field(F.one) == F.one


def test_square_counts():
    # exactly (|F|-1)/2 nonzero elements are squares in odd characteristic
    for p, m in ((3, 2), (13, 1), (5, 2)):
        F = make_field(p, m)
        squares = {a * a for a in F.elements() if a != F.zero}
        assert len(squares) == (F.order - 1) // 2
        for s in squares:
            r = sqrt_in_field(s)
            assert r * r == s


def test_sqrt_canonical_choice():
    # of the two roots the one with the lexicographically smaller
    # coefficient string is returned: the first an ascending scan meets
    F9 = make_field(3, 2)
    tower = ext_field(F9, first_irreducible(F9, 2))
    for F in (make_field(7, 1), F9, make_field(5, 2), tower):
        for a in F.elements():
            scan = next((z for z in F.elements() if z * z == a), None)
            if scan is None:
                with pytest.raises(NoSquareRoot):
                    sqrt_in_field(a)
            else:
                assert sqrt_in_field(a) == scan


def test_sqrt_large_field_path():
    # GF(3^8) has 6561 elements, too many to scan for each root
    F = make_field(3, 8)
    rng = random.Random(6561)
    elems = list(F.elements())
    for _ in range(25):
        a = rng.choice(elems)
        sq = a * a
        r = sqrt_in_field(sq)
        assert r * r == sq
        assert r == min(r, -r, key=lambda z: z.key())


def test_split_prime_power():
    assert split_prime_power(9) == (3, 2)
    assert split_prime_power(4) == (2, 2)
    assert split_prime_power(13) == (13, 1)
    assert split_prime_power(343) == (7, 3)
    assert split_prime_power(1000000007) == (1000000007, 1)
    assert split_prime_power(3 ** 19) == (3, 19)
    with pytest.raises(NonPrimeCharacteristic):
        split_prime_power(12)
    with pytest.raises(NonPrimeCharacteristic):
        split_prime_power(1)


def test_padic_valuation():
    assert padic_valuation(8, 2) == 3
    assert padic_valuation(3 ** 2 - 1, 2) == 3
    assert padic_valuation(4 ** 3 - 1, 3) == 2
    assert padic_valuation(45, 3) == 2
    assert padic_valuation(7, 5) == 0
    with pytest.raises(ZeroInput):
        padic_valuation(0, 2)


def test_ord_mod():
    assert ord_mod(3, 4) == 2
    assert ord_mod(3, 1) == 1
    assert ord_mod(2, 5) == 4
    assert ord_mod(7, 16) == 2
    with pytest.raises(NotCoprime):
        ord_mod(3, 6)


def test_ord_mod_is_an_order():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 50)
        a = rng.randrange(1, n)
        from math import gcd

        if gcd(a, n) != 1:
            continue
        k = ord_mod(a, n)
        assert pow(a, k, n) == 1
        for j in range(1, k):
            assert pow(a, j, n) != 1


def test_element_equality_is_field_scoped():
    F1 = make_field(3, 1)
    F2 = make_field(5, 1)
    assert F1.one != F2.one


def _rabin(F, f):
    """Rabin's irreducibility test, the reference for the library's Ben-Or
    test: the monic f of degree m >= 1 over F (F's reps, low first) is
    irreducible iff x^(q^m) = x mod f and gcd(f, x^(q^(m/r)) - x) = 1 for
    every prime r | m, with q = |F|.  Its products mod f are the kernel's
    polynomial product and division, which test_kernel checks against sympy
    and the schoolbook, never the packed products mod f of Ben-Or's test."""
    m = len(f) - 1
    x = _pdivmod([F.zero.rep, F.one.rep], f, F)[1]
    frobenius = [x]  # x^(q^k) mod f for k = 0..m
    for _ in range(m):
        frobenius.append(_power(frobenius[-1], F.order, None,
                                lambda a, b: _pdivmod(_pmul(a, b, F), f, F)[1]))
    minus_x = [F.zero.rep, F._neg(F.one.rep)]
    return (_ptrim(frobenius[m], F) == _ptrim(x, F)
            and all(len(_pgcd(f, _padd(frobenius[m // r], minus_x, F), F)) == 1
                    for r in primefactors(m)))


# fields on which the binomial criterion of first_irreducible is checked
# against Rabin's test: (field, largest degree m)
BINOMIAL_FIELDS = ([(make_field(p, 1), 12) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
                   + [(make_field(p, k), 6) for p, k in ((3, 2), (5, 2), (7, 2), (2, 3))])


def _field_reps(F):
    return [z.rep for z in F.elements()]


def _binomial(F, m, c):
    return [c] + [F.zero.rep] * (m - 1) + [F.one.rep]


@pytest.mark.parametrize("F, top", BINOMIAL_FIELDS, ids=repr)
def test_binomial_criterion_matches_rabin(F, top):
    for m in range(2, top + 1):
        some = any(_rabin(F, _binomial(F, m, c)) for c in _field_reps(F))
        assert _binomials_reducible(F.order, m) == (not some), m


def _rabin_scan(F, m):
    """The first monic irreducible of degree m, candidates in first_irreducible's
    order (c_{m-1}, ..., c_0 ascending in base |F|), each put to Rabin's test."""
    reps = _field_reps(F)
    for k in range(len(reps) ** m):
        digits = []
        for _ in range(m):
            k, d = divmod(k, len(reps))
            digits.append(reps[d])  # c_0 first
        if _rabin(F, digits + [F.one.rep]):
            return tuple(FieldElt(F, c) for c in digits + [F.one.rep])


@pytest.mark.parametrize("F, top", BINOMIAL_FIELDS, ids=repr)
def test_first_irreducible_matches_a_rabin_scan(F, top):
    for m in range(1, top + 1):
        assert first_irreducible(F, m) == _rabin_scan(F, m), m


@pytest.mark.parametrize("F", [make_field(3, 2), make_field(5, 2)], ids=repr)
def test_ben_or_matches_rabin_on_every_monic_of_degree_at_most_3(F):
    reps = _field_reps(F)
    for m in (1, 2, 3):
        for low in itertools.product(reps, repeat=m):
            f = [*low, F.one.rep]
            assert is_irreducible_over(F, f) == _rabin(F, f), f


BEN_OR_FIELDS = {"F49": make_field(7, 2), "F8": make_field(2, 3),
                 "F81/F9": ext_field(F9, first_irreducible(F9, 2))}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ben_or_matches_rabin_on_random_polynomials(data):
    """Random monic polynomials of degree 1..8; the low coefficients of one
    in three are taken from an irreducible one, redrawn until Rabin passes."""
    F = BEN_OR_FIELDS[data.draw(st.sampled_from(sorted(BEN_OR_FIELDS)))]
    reps = _field_reps(F)
    m = data.draw(st.integers(1, 8))
    f = data.draw(st.lists(st.sampled_from(reps), min_size=m, max_size=m)) + [F.one.rep]
    if data.draw(st.integers(0, 2)) == 0:
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        while not _rabin(F, f):
            f = [rng.choice(reps) for _ in range(m)] + [F.one.rep]
    assert is_irreducible_over(F, f) == _rabin(F, f)
