"""The _p* rep kernel of wedderburn.fields against sympy's galoistools.

sympy shares no code with the library: its gf_* functions take dense lists
of ints mod p, highest coefficient first, where the kernel takes lists of
reps lowest first.  Over F_p the kernel's packed multiply and its division
loop must agree with gf_mul and gf_div, and the irreducibility test with
gf_irreducible_p on random monic polynomials, on products of two and on
irreducible ones, of degree <= 12.  An F_p[t]/(M) element's product and
power must agree with gf_rem(gf_mul(a, b), M) and gf_pow_mod at p in {2,
3, 13, 1000003} and m in {1, 2, 5, 12}, for a random monic M: these
products fold the high slots back by a table of t^k mod M, and with every
digit p - 1 half of the time they fill a slot to its bound, so a slot width
short of the fold term fails them.  Over F_9, F_25 and the F_81 tower on
F_9, and over a tower on that tower, where no sympy reference applies, a
product must equal the schoolbook sum of element products and division
must satisfy a = q*b + r with deg r < deg b; the keys and reprs of a fixed
list of tower elements are pinned.  A tower F[t]/(f) over F = F_9, F_25,
F_27 or the F_81 tower packs each coefficient's digits too, one box axis
per level of F, and folds back by a table of t^i times a monomial in the
levels' generators mod (f, F): its product and power must agree with the
schoolbook over F for deg f up to 22, with every digit p - 1 half of the
time, and so must a quadratic extension of the F_81 tower.  Products of
polynomials with every digit p - 1 over such an F[t]/(f), n terms by n
for n up to 16, fill the middle slots past half the slot width, so a
width one bit short fails them at every depth.

Over F_p[t]/(M) a polynomial product packs its coefficients into one int
(Kronecker substitution), each coefficient itself packed, so products and
divisions are checked against a schoolbook built from the field's own _add
and _mul at p in {3, 13, 1000003} and m in {2, 3, 5}: long operands, every
digit p - 1 (which fills a slot to its bound) and divisions of 50 quotient
steps or more.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import (gf_div, gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem,
                                     gf_strip)

from wedderburn.fields import (ExtField, FieldElt, PrimeField, _pdivmod, _pmul, _power,
                               _ptrim, ext_field, first_irreducible, is_irreducible_over,
                               make_field)
from wedderburn.polys import Poly

PRIMES = (2, 3, 5, 13, 1000003)
F9 = make_field(3, 2)
TOWER = ext_field(F9, first_irreducible(F9, 2))  # F_81 as F_9[u]/(u^2 + t + 1)
TOWER_ELTS = list(TOWER.elements())


def _sympy(a):
    """A kernel list (low first) as a sympy dense list (high first, stripped)."""
    return gf_strip([ZZ(c) for c in reversed(a)])


def _kernel(a, F):
    """A kernel result, trimmed, in sympy's order for comparison."""
    return [int(c) for c in reversed(_ptrim(a, F))]


@st.composite
def prime_and_polys(draw):
    p = draw(st.sampled_from(PRIMES))
    coeff = st.integers(0, p - 1)
    a = draw(st.lists(coeff, max_size=12))
    b = draw(st.lists(coeff, max_size=8))
    return p, a, b


@st.composite
def prime_and_division(draw):
    p, a, b = draw(prime_and_polys())
    return p, a, b + [draw(st.integers(1, p - 1))]  # a nonzero leading coefficient


@settings(max_examples=300, deadline=None)
@given(prime_and_polys())
def test_pmul_matches_gf_mul(case):
    p, a, b = case
    F = make_field(p, 1)
    assert _kernel(_pmul(a, b, F), F) == gf_mul(_sympy(a), _sympy(b), p, ZZ)


@settings(max_examples=300, deadline=None)
@given(prime_and_division())
def test_pdivmod_matches_gf_div(case):
    p, a, b = case
    F = make_field(p, 1)
    q, r = _pdivmod(a, b, F)
    assert len(r) == min(len(a), len(b) - 1)
    want_q, want_r = gf_div(_sympy(a), _sympy(b), p, ZZ)
    assert (_kernel(q, F), _kernel(r, F)) == (want_q, want_r)


@st.composite
def modulus_and_reps(draw):
    """F_p[t]/(M) for a monic M of degree m drawn at random, and two reps:
    with every digit p - 1 half of the time, which fills a product's slots
    to their bound.  A product or a power mod M needs no irreducible M, and
    m = 1 is the degree-1 field of a linear factor."""
    p = draw(st.sampled_from((2, 3, 13, 1000003)))
    m = draw(st.sampled_from((1, 2, 5, 12)))
    digit = st.integers(0, p - 1)
    M = draw(st.lists(digit, min_size=m, max_size=m)) + [1]
    if draw(st.booleans()):
        digit = st.just(p - 1)
    a = tuple(draw(st.lists(digit, min_size=m, max_size=m)))
    b = tuple(draw(st.lists(digit, min_size=m, max_size=m)))
    F = make_field(p, 1)
    return ExtField(F, tuple(map(F.elt, M))), a, b


@settings(max_examples=300, deadline=None)
@given(modulus_and_reps())
def test_ext_mul_matches_gf_rem_of_gf_mul(case):
    E, a, b = case
    p, M = E.char, _sympy(E._m)
    got = E._mul(a, b)
    assert len(got) == E.deg
    assert _kernel(got, E.base) == gf_rem(gf_mul(_sympy(a), _sympy(b), p, ZZ), M, p, ZZ)


@settings(max_examples=200, deadline=None)
@given(modulus_and_reps(), st.integers(0, 2 ** 80))
def test_ext_pow_matches_gf_pow_mod(case, e):
    E, a, _ = case
    p, M = E.char, _sympy(E._m)
    got = E._pow(a, e)
    assert len(got) == E.deg
    assert _kernel(got, E.base) == gf_pow_mod(_sympy(a), e, M, p, ZZ)


def test_power_matches_pow_with_the_fewest_products():
    # from the high bit: bitlength - 1 squarings and popcount - 1 products
    # by a, so nothing at all for e <= 1
    M = 1000003
    for a in (0, 1, 2, 12345, M - 1):
        for e in range(258):
            calls = []

            def mul(u, v):
                calls.append(None)
                return u * v % M

            assert _power(a, e, 1, mul) == pow(a, e, M)
            assert len(calls) == (e.bit_length() + bin(e).count("1") - 2 if e else 0)


@st.composite
def monic_over_prime(draw):
    """p and a monic polynomial over F_p of degree 1..12, high first: a
    random one, a product of two, or an irreducible one.

    The irreducible one redraws the low coefficients of a random one, from
    a drawn seed, until it passes: about one in m monic polynomials of
    degree m is irreducible, so that takes about m tests at any p.
    Stepping the constant term instead can take p tests, since no binomial
    x^m + c is irreducible for many m (Lidl-Niederreiter, Thm 3.75)."""
    p = draw(st.sampled_from((2, 3, 13, 1000003)))

    def monic(top):
        m = draw(st.integers(1, top))
        return [1] + draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))

    kind = draw(st.sampled_from(("random", "product", "irreducible")))
    if kind == "product":
        g = monic(11)
        return p, gf_mul(g, monic(13 - len(g)), p, ZZ)
    f = monic(12)
    if kind == "irreducible":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        while not gf_irreducible_p(f, p, ZZ):
            f = [1] + [rng.randrange(p) for _ in f[1:]]
    return p, f


@settings(max_examples=300, deadline=None)
@given(monic_over_prime())
def test_rabin_over_a_prime_field_matches_gf_irreducible_p(case):
    p, f = case
    assert is_irreducible_over(make_field(p, 1), f[::-1]) == gf_irreducible_p(f, p, ZZ)


# polynomials over F_p[t]/(M), over the tower and over a tower on the tower
# run on the one packed product, the coefficients' digits nested by level
EXT_FIELDS = {"F9": F9, "F25": make_field(5, 2), "F81/F9": TOWER,
              "F81^2/F81/F9": ext_field(TOWER, first_irreducible(TOWER, 2))}
EXT_ELTS = {name: list(E.elements()) for name, E in EXT_FIELDS.items()}


@st.composite
def ext_polys(draw):
    name = draw(st.sampled_from(sorted(EXT_FIELDS)))
    elt = st.sampled_from(EXT_ELTS[name])
    a = draw(st.lists(elt, max_size=7))
    b = draw(st.lists(elt, max_size=5)) + [draw(st.sampled_from(EXT_ELTS[name][1:]))]
    return EXT_FIELDS[name], a, b


@settings(max_examples=150, deadline=None)
@given(ext_polys())
def test_ext_product_matches_the_schoolbook_sum(case):
    E, a, b = case
    want = [E.zero] * (len(a) + len(b) - 1) if a else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] = want[i + j] + x * y
    got = _pmul([c.rep for c in a], [c.rep for c in b], E)
    assert got == [c.rep for c in want]
    assert Poly(E, a) * Poly(E, b) == Poly(E, want)


@settings(max_examples=150, deadline=None)
@given(ext_polys())
def test_ext_division_identity(case):
    E, a, b = case
    a, b = Poly(E, a), Poly(E, b)
    q, r = divmod(a, b)
    assert r.degree < b.degree
    assert q * b + r == a


def _packed_field(p, m):
    """F_p[t]/(M), with make_field's M except at p = 1000003, m = 5, where the
    modulus search would walk all x^5 + c first: there M = t^5 + t + 11."""
    if (p, m) != (1000003, 5):
        return make_field(p, m)
    M = (11, 1, 0, 0, 0, 1)
    assert gf_irreducible_p(_sympy(M), p, ZZ)
    F = make_field(p, 1)
    return ext_field(F, tuple(F.elt(c) for c in M))


PACKED = {(p, m): _packed_field(p, m) for p in (3, 13, 1000003) for m in (2, 3, 5)}


def _schoolbook_mul(a, b, F):
    out = [F.zero.rep] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F._add(out[i + j], F._mul(x, y))
    return out


def _schoolbook_divmod(a, b, F):
    n, r = len(b) - 1, list(a)
    inv = F._pow(b[-1], F.order - 2)
    q = [F.zero.rep] * (len(a) - n)
    for k in range(len(a) - 1, n - 1, -1):
        q[k - n] = c = F._mul(r[k], inv)
        for j, y in enumerate(b):
            r[k - n + j] = F._add(r[k - n + j], F._neg(F._mul(c, y)))
    assert all(x == F.zero.rep for x in r[n:])
    return q, r[:n]


@st.composite
def packed_operands(draw):
    """A field F_p[t]/(M), a of length 64..80 and b of length 2..14 with a
    nonzero last entry; with every digit p - 1 half of the time."""
    p, m = draw(st.sampled_from(sorted(PACKED)))
    digit = st.just(p - 1) if draw(st.booleans()) else st.integers(0, p - 1)
    rep = st.tuples(*[digit] * m)
    a = draw(st.lists(rep, min_size=64, max_size=80))
    b = draw(st.lists(rep, min_size=1, max_size=13))
    b.append(draw(rep.filter(any)))
    return PACKED[p, m], a, b


@settings(max_examples=60, deadline=None)
@given(packed_operands())
def test_packed_product_matches_the_schoolbook(case):
    E, a, b = case
    assert _pmul(a, b, E) == _schoolbook_mul(a, b, E)
    assert _pmul(a, a, E) == _schoolbook_mul(a, a, E)


@settings(max_examples=60, deadline=None)
@given(packed_operands())
def test_packed_division_matches_the_schoolbook(case):
    E, a, b = case
    q, r = _pdivmod(a, b, E)
    assert len(q) >= 50
    assert (q, r) == _schoolbook_divmod(a, b, E)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tower_division_identity_on_long_operands(data):
    elt = st.sampled_from(TOWER_ELTS)
    a = Poly(TOWER, data.draw(st.lists(elt, min_size=20, max_size=30)))
    b = Poly(TOWER, data.draw(st.lists(elt, min_size=1, max_size=8))
             + [data.draw(st.sampled_from(TOWER_ELTS[1:]))])
    q, r = divmod(a, b)
    assert r.degree < b.degree
    assert q * b + r == a
    assert (a * b) // b == a and ((a * b) % b).is_zero()


# key() and repr of TOWER elements, recorded before reps became tuples of
# base reps: (index in elements(), key, repr)
TOWER_PINS = (
    (0, (0, 0, 0, 0), "0"),
    (1, (0, 0, 0, 1), "(1*t)*u"),
    (2, (0, 0, 0, 2), "(2*t)*u"),
    (3, (0, 0, 1, 0), "(1)*u"),
    (9, (0, 1, 0, 0), "(1*t)"),
    (10, (0, 1, 0, 1), "(1*t) + (1*t)*u"),
    (17, (0, 1, 2, 2), "(1*t) + (2 + 2*t)*u"),
    (40, (1, 1, 1, 1), "(1 + 1*t) + (1 + 1*t)*u"),
    (41, (1, 1, 1, 2), "(1 + 1*t) + (1 + 2*t)*u"),
    (55, (2, 0, 0, 1), "(2) + (1*t)*u"),
    (80, (2, 2, 2, 2), "(2 + 2*t) + (2 + 2*t)*u"),
)


def test_tower_keys_and_reprs_are_pinned():
    assert repr(TOWER.modulus[0]) == "1 + 1*t"
    for i, key, text in TOWER_PINS:
        assert (TOWER_ELTS[i].key(), repr(TOWER_ELTS[i])) == (key, text)
    assert [e.key() for e in TOWER_ELTS] == sorted(e.key() for e in TOWER_ELTS)
    e = TOWER_ELTS
    assert (TOWER.gen.key(), repr(TOWER.gen)) == ((0, 0, 1, 0), "(1)*u")
    assert ((e[41] * e[55]).key(), repr(e[41] * e[55])) == \
        ((2, 0, 1, 2), "(2) + (1 + 2*t)*u")
    assert (e[17].inverse().key(), repr(e[17].inverse())) == \
        ((2, 0, 2, 1), "(2) + (2 + 1*t)*u")
    assert ((e[10] ** 7).key(), repr(e[10] ** 7)) == ((2, 0, 2, 2), "(2) + (2 + 2*t)*u")


# F[t]/(f) over F = F_9, F_25, F_27 or the F_81 tower on the one packed
# product: each slot holds a digit of a coefficient, and the high slots fold
# back by t^i times a monomial in the levels' generators, mod (f, F)
TOWER_BASES = (F9, make_field(5, 2), make_field(3, 3), TOWER)


def _all_top(F):
    """The rep of F with every digit p - 1, nested as F's reps are."""
    if isinstance(F, PrimeField):
        return F.char - 1
    return (_all_top(F.base),) * F.deg


def _mulmod(a, b, E):
    """a b in E = F[t]/(f) by the schoolbook over F."""
    return tuple(_schoolbook_divmod(_schoolbook_mul(a, b, E.base), E._m, E.base)[1])


@st.composite
def tower_and_reps(draw):
    """F[t]/(f) for a random monic f over F = F_9, F_25, F_27 or the F_81
    tower of degree m in {1, 2, 5, 8, 12, 22}, and two reps: with every
    digit p - 1 half of the time, which fills a product's slots to their
    bound."""
    F = draw(st.sampled_from(TOWER_BASES))
    m = draw(st.sampled_from((1, 2, 5, 8, 12, 22)))
    elts = [z.rep for z in F.elements()]
    f = draw(st.lists(st.sampled_from(elts), min_size=m, max_size=m)) + [F.one.rep]
    elt = st.sampled_from(elts)
    if draw(st.booleans()):
        elt = st.just(_all_top(F))
    a = tuple(draw(st.lists(elt, min_size=m, max_size=m)))
    b = tuple(draw(st.lists(elt, min_size=m, max_size=m)))
    return ExtField(F, tuple(FieldElt(F, c) for c in f)), a, b


@settings(max_examples=200, deadline=None)
@given(tower_and_reps())
def test_tower_mul_matches_the_schoolbook(case):
    E, a, b = case
    assert E._mul(a, b) == _mulmod(a, b, E)
    assert E._mul(a, a) == _mulmod(a, a, E)


@pytest.mark.parametrize("F", TOWER_BASES, ids=("F9", "F25", "F27", "F81/F9"))
def test_tower_polynomial_products_fill_their_slots(F):
    # n all-top coefficients times n fill the middle slots of a product over
    # F[t]/(f) with n*mK(p-1)^2, K = [F:F_p]: past half the slot width for
    # some n <= 16, where the width has the least room to spare
    top = _all_top(F)
    for m in (1, 2, 5):
        E = ExtField(F, (FieldElt(F, top),) * m + (F.one,))
        square = _mulmod((top,) * m, (top,) * m, E)
        for n in range(1, 17):
            want = []
            for k in range(2 * n - 1):  # the sum of the pairs i + j = k
                acc = E.zero.rep
                for _ in range(min(k, 2 * n - 2 - k) + 1):
                    acc = E._add(acc, square)
                want.append(acc)
            assert _pmul([(top,) * m] * n, [(top,) * m] * n, E) == want


@settings(max_examples=60, deadline=None)
@given(tower_and_reps(), st.integers(0, 12))
def test_tower_pow_matches_repeated_products(case, e):
    E, a, _ = case
    want = E.one.rep
    for _ in range(e):
        want = _mulmod(want, a, E)
    assert E._pow(a, e) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quadratic_over_the_tower_matches_the_schoolbook(data):
    # the base of E is the F_81 tower, two levels over F_3
    elt = st.sampled_from([z.rep for z in TOWER_ELTS])
    c0, c1 = data.draw(elt), data.draw(elt)
    E = ExtField(TOWER, (FieldElt(TOWER, c0), FieldElt(TOWER, c1), TOWER.one))
    a, b = data.draw(st.tuples(elt, elt)), data.draw(st.tuples(elt, elt))
    assert E._mul(a, b) == _mulmod(a, b, E)
    e = data.draw(st.integers(0, 12))
    want = E.one.rep
    for _ in range(e):
        want = _mulmod(want, a, E)
    assert E._pow(a, e) == want
