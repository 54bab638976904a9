"""The _p* rep kernel of wedderburn.fields against sympy's galoistools.

sympy shares no code with the library: its gf_* functions take dense lists
of ints mod p, highest coefficient first, where the kernel takes lists of
reps lowest first.  Over F_p the kernel's multiply and division loops must
agree with gf_mul and gf_div; an extension's product must agree with
gf_rem(gf_mul(a, b), M).  Over F_9, F_25 and the F_81 tower on F_9,
where no sympy reference applies, a product must equal the schoolbook sum
of element products and division must satisfy a = q*b + r with
deg r < deg b; the keys and reprs of a fixed list of tower elements are
pinned.

Over F_p[t]/(M) the kernel packs each coefficient into one int (Kronecker
substitution), so its products and divisions are checked against a
schoolbook built from the field's own _add and _mul at p in {3, 13,
1000003} and m in {2, 3, 5}: long operands, every digit p - 1 (which
fills a slot to its bound) and divisions of 50 quotient steps or more.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_div, gf_irreducible_p, gf_mul, gf_rem, gf_strip

from wedderburn.fields import (_pdivmod, _pmul, _ptrim, ext_field, first_irreducible,
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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(3, 2), (5, 2)]), st.data())
def test_ext_mul_matches_gf_rem_of_gf_mul(pm, data):
    p, m = pm
    E = make_field(p, m)
    digit = st.integers(0, p - 1)
    a = tuple(data.draw(st.lists(digit, min_size=m, max_size=m)))
    b = tuple(data.draw(st.lists(digit, min_size=m, max_size=m)))
    M = _sympy([c.rep for c in E.modulus])
    want = gf_rem(gf_mul(_sympy(a), _sympy(b), p, ZZ), M, p, ZZ)
    got = E._mul(a, b)
    assert len(got) == m
    assert _kernel(got, make_field(p, 1)) == want


# polynomials over F_p[t]/(M) run on the packed F_p loop, and over the
# tower on the kernel's generic path, through the field's own operations
EXT_FIELDS = {"F9": F9, "F25": make_field(5, 2), "F81/F9": TOWER}
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
