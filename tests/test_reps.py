"""Polys, the 2x2 matrix helpers and square roots compute on element reps.

A Poly stores its coefficients as a tuple of its field's reps and builds
FieldElts only when a caller reads them; decompose.mat_mul and mat_pow
multiply rep matrices; sqrt_in_field runs Tonelli-Shanks on reps.  Each is
checked here against FieldElt arithmetic written in the test, over F_p,
F_9 and the F_81 tower on F_9.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wedderburn.decompose import mat_mul, mat_pow
from wedderburn.fields import (FieldElt, NoSquareRoot, ext_field, first_irreducible,
                               make_field, sqrt_in_field)
from wedderburn.polys import FieldMismatch, Poly, ext_gcd, formal_derivative

F9 = make_field(3, 2)
FIELDS = {"F2": make_field(2, 1), "F5": make_field(5, 1), "F13": make_field(13, 1),
          "F9": F9, "F81/F9": ext_field(F9, first_irreducible(F9, 2))}
ELTS = {name: list(F.elements()) for name, F in FIELDS.items()}


@st.composite
def field_and_elts(draw, min_size=0, max_size=8):
    name = draw(st.sampled_from(sorted(FIELDS)))
    elts = draw(st.lists(st.sampled_from(ELTS[name]), min_size=min_size, max_size=max_size))
    return FIELDS[name], elts


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


@settings(max_examples=200, deadline=None)
@given(field_and_elts())
def test_poly_from_elements_equals_poly_from_reps(case):
    F, cs = case
    f, g = Poly(F, cs), Poly.from_reps(F, [c.rep for c in cs])
    assert f == g and hash(f) == hash(g)
    assert f.reps == g.reps == tuple(c.rep for c in _trimmed(cs))
    assert f.coeffs == _trimmed(cs)
    assert all(isinstance(c, FieldElt) and c.field is F for c in f.coeffs)
    assert [f.coeff(i) for i in range(len(cs) + 1)] == list(_trimmed(cs)) + \
        [F.zero] * (len(cs) + 1 - len(_trimmed(cs)))
    if not f.is_zero():
        assert f.lead() == _trimmed(cs)[-1]


@settings(max_examples=150, deadline=None)
@given(field_and_elts(min_size=1))
def test_scalar_negation_monic_and_derivative_match_elementwise(case):
    F, cs = case
    f = Poly(F, cs)
    c = cs[0]
    assert f * c == Poly(F, [x * c for x in cs])
    assert -f == Poly(F, [-x for x in cs])
    assert formal_derivative(f) == Poly(
        F, [x * sum([F.one] * i, F.zero) for i, x in enumerate(cs)][1:])
    if not f.is_zero():
        inv = f.lead().inverse()
        assert f.monic() == Poly(F, [x * inv for x in _trimmed(cs)])
        assert f.monic().lead() == F.one


def test_field_mismatches_still_raise():
    F3, F5 = make_field(3, 1), make_field(5, 1)
    f, g = Poly.x(F3), Poly.x(F5)
    with pytest.raises(FieldMismatch):
        Poly(F3, [F5.one])
    with pytest.raises(FieldMismatch):
        Poly(F3, [1])
    with pytest.raises(FieldMismatch):
        Poly(F9, [F3.one])  # a base element is not an element of the extension
    for op in (lambda: f + g, lambda: f - g, lambda: f * g, lambda: divmod(f, g),
               lambda: f * F5.one, lambda: f + 1, lambda: ext_gcd(f, g)):
        with pytest.raises(FieldMismatch):
            op()


def _schoolbook_mul(A, B):
    F = A[0][0].field
    n = len(A)
    return tuple(tuple(sum((A[i][k] * B[k][j] for k in range(n)), F.zero)
                       for j in range(n)) for i in range(n))


@st.composite
def field_and_matrices(draw):
    name = draw(st.sampled_from(sorted(FIELDS)))
    n = draw(st.sampled_from([1, 2]))
    elt = st.sampled_from(ELTS[name])
    square = st.tuples(*[st.tuples(*[elt] * n)] * n)
    return draw(square), draw(square)


@settings(max_examples=200, deadline=None)
@given(field_and_matrices(), st.integers(1, 40))
def test_mat_mul_and_mat_pow_match_the_schoolbook(case, e):
    A, B = case
    F = A[0][0].field
    got = mat_mul(A, B)
    assert got == _schoolbook_mul(A, B)
    assert all(isinstance(z, FieldElt) and z.field is F for row in got for z in row)
    want = A
    for _ in range(e - 1):
        want = _schoolbook_mul(want, A)
    assert mat_pow(A, e) == want


def test_mat_mul_and_mat_pow_refuse_mixed_fields():
    # two quadratic extensions of F_5 with different moduli: same order, same
    # reps, different fields
    F5 = FIELDS["F5"]
    K1, K2 = ext_field(F5, (F5.elt(2), F5.zero, F5.one)), ext_field(F5, (F5.elt(3), F5.zero, F5.one))
    A = ((K1.one, K1.zero), (K1.zero, K1.one))
    mixed = ((K1.one, K1.zero), (K2.zero, K1.one))
    for op in (lambda: mat_mul(A, mixed), lambda: mat_mul(mixed, A),
               lambda: mat_pow(mixed, 3), lambda: mat_mul(((K1.one,),), ((K2.one,),))):
        with pytest.raises(TypeError):
            op()


SQRT_FIELDS = [make_field(p, 1) for p in (2, 3, 5, 7, 13, 17, 41)] + [
    make_field(2, 3), F9, make_field(5, 2), make_field(3, 3), make_field(7, 2),
    FIELDS["F81/F9"]]


@pytest.mark.parametrize("F", SQRT_FIELDS, ids=repr)
def test_sqrt_in_field_equals_a_scan(F):
    elts = list(F.elements())
    for a in elts:
        first = next((z for z in elts if z * z == a), None)
        if first is None:
            with pytest.raises(NoSquareRoot):
                sqrt_in_field(a)
        else:
            assert sqrt_in_field(a) == first
