"""Dense univariate polynomials over the exact fields of wedderburn.fields.

A Poly keeps its coefficients as reps of its field: `reps` is a trimmed
little-endian tuple of the field's element reps (ints over F_p, tuples
over extensions), and the zero polynomial has an empty tuple and degree
-1.  All operations are exact and run on the reps, products and division
with remainder on the _p* kernel of wedderburn.fields (int loops over F_p,
packed coefficients over every extension), so %, ext_gcd, powmod and the
rest ride on it.  FieldElts are built only
where a caller reads a coefficient: `coeffs`, `lead()` and `coeff(i)`.
"""

from .fields import (ExtField, FieldElt, _padd, _pdivmod, _pgcd, _pmul, _power,
                     _ptrim, is_irreducible_over)


class FieldMismatch(TypeError):
    pass


class BothZero(ValueError):
    pass


class NotInvertible(ArithmeticError):
    pass


class NotDividingXNMinus1(ValueError):
    pass


class BadS(ValueError):
    pass


class Poly:
    __slots__ = ("field", "reps")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        if not all(isinstance(c, FieldElt) and c.field is field for c in cs):
            raise FieldMismatch("coefficient from a different field")
        self.field = field
        self.reps = tuple(_ptrim([c.rep for c in cs], field))

    @classmethod
    def from_reps(cls, field, reps):
        """The Poly with coefficient reps `reps` of field, low first, such as
        an extension element's rep; reps are trusted, not checked."""
        self = cls.__new__(cls)
        self.field = field
        self.reps = tuple(_ptrim(reps, field))
        return self

    @property
    def coeffs(self):
        """The coefficients as FieldElts, low first, built on each read."""
        return tuple([FieldElt(self.field, r) for r in self.reps])

    @classmethod
    def from_ints(cls, field, ints):
        if isinstance(field, ExtField):
            return cls(field, [field.elt([c]) for c in ints])
        return cls(field, [field.elt(c) for c in ints])

    @classmethod
    def zero(cls, field):
        return cls.from_reps(field, ())

    @classmethod
    def one(cls, field):
        return cls.from_reps(field, (field.one.rep,))

    @classmethod
    def x(cls, field):
        return cls.from_reps(field, (field.zero.rep, field.one.rep))

    @property
    def degree(self):
        return len(self.reps) - 1

    def is_zero(self):
        return not self.reps

    def is_one(self):
        return self.reps == (self.field.one.rep,)

    def lead(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldElt(self.field, self.reps[-1])

    def monic(self):
        F = self.field
        if self.is_zero() or self.reps[-1] == F.one.rep:
            return self
        inv = F._pow(self.reps[-1], F.order - 2)
        return Poly.from_reps(F, [F._mul(c, inv) for c in self.reps])

    def coeff(self, i):
        if 0 <= i < len(self.reps):
            return FieldElt(self.field, self.reps[i])
        return self.field.zero

    def _check(self, other):
        if not isinstance(other, Poly):
            raise FieldMismatch(f"expected Poly, got {type(other).__name__}")
        if other.field is not self.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        return Poly.from_reps(self.field, _padd(self.reps, other.reps, self.field))

    def __sub__(self, other):
        self._check(other)
        F = self.field
        return Poly.from_reps(F, _padd(self.reps, list(map(F._neg, other.reps)), F))

    def __neg__(self):
        return Poly.from_reps(self.field, list(map(self.field._neg, self.reps)))

    def __mul__(self, other):
        F = self.field
        if isinstance(other, FieldElt):
            if other.field is not F:
                raise FieldMismatch("scalar from a different field")
            return Poly.from_reps(F, [F._mul(c, other.rep) for c in self.reps])
        self._check(other)
        return Poly.from_reps(F, _pmul(self.reps, other.reps, F))

    __rmul__ = __mul__

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _pdivmod(self.reps, other.reps, self.field)
        return Poly.from_reps(self.field, quo), Poly.from_reps(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field is self.field
                and other.reps == self.reps)

    def __hash__(self):
        return hash((id(self.field), self.reps))

    def key(self):
        """(degree, flattened coefficient digits): the canonical sort key."""
        return (self.degree, sum(map(self.field._key, self.reps), ()))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = repr(c)
            if " " in cs:
                cs = f"({cs})"
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"{cs}*x")
            else:
                parts.append(f"{cs}*x^{i}")
        return " + ".join(parts)


def x_power_minus_one(field, n):
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    coeffs = [-field.one] + [field.zero] * (n - 1) + [field.one]
    return Poly(field, coeffs)


def mod_xn_minus_1(f, N):
    """f mod x^N - 1: since x^N = 1 there, the blocks of N coefficients
    of f are added up, with no division."""
    F, reps = f.field, f.reps
    if len(reps) <= N:
        return f
    out = reps[:N]
    for i in range(N, len(reps), N):
        out = _padd(out, reps[i:i + N], F)
    return Poly.from_reps(F, out)


def ext_gcd(f, g):
    """Monic gcd d of f and g plus Bezout coefficients: u*f + v*g = d."""
    if not isinstance(g, Poly) or not isinstance(f, Poly):
        raise FieldMismatch("ext_gcd needs two Polys")
    if f.field is not g.field:
        raise FieldMismatch("polynomials over different fields")
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    F = f.field
    r0, r1 = f, g
    u0, u1 = Poly.one(F), Poly.zero(F)
    v0, v1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    lead_inv = r0.lead().inverse()
    d, u, v = r0 * lead_inv, u0 * lead_inv, v0 * lead_inv
    assert u * f + v * g == d, "Bezout identity failed"
    return d, u, v


def inverse_mod(f, modulus):
    """Inverse of f modulo `modulus`, or NotInvertible."""
    d, u, _ = ext_gcd(f % modulus, modulus)
    if not d.is_one():
        raise NotInvertible(f"gcd is {d!r}, not 1")
    return u % modulus


def powmod(f, e, modulus):
    return _power(f % modulus, e, Poly.one(f.field) % modulus,
                  lambda a, b: a * b % modulus)


def reversed_coeffs(f):
    """Plain coefficient reversal by f's own degree; no normalization."""
    if f.is_zero():
        return f
    return Poly.from_reps(f.field, f.reps[::-1])


def formal_derivative(f):
    F = f.field
    one, k, out = F.one.rep, F.zero.rep, []
    for c in f.reps[1:]:
        k = F._add(k, one)  # i * 1 for the coefficient of x^i
        out.append(F._mul(c, k))
    return Poly.from_reps(F, out)


def s_involution(f, s, n):
    """The polynomial whose roots are the s-th powers of f's roots.

    f must divide x^n - 1; s must be invertible mod n.  Computed from the
    root side: substitute x^(s^-1) and intersect with x^n - 1, which keeps
    everything squarefree and inside the n-th roots of unity.
    """
    from math import gcd as igcd
    F = f.field
    if f.is_zero():
        raise NotDividingXNMinus1("zero polynomial")
    xn1 = x_power_minus_one(F, n)
    if not (xn1 % f).is_zero():
        raise NotDividingXNMinus1(f"{f!r} does not divide x^{n} - 1")
    if n == 1:
        return f.monic()  # x = 1 collapses the fold; the map fixes 1 and x - 1
    s %= n
    if igcd(s, n) != 1:
        raise BadS(f"s = {s} is not invertible mod {n}")
    sinv = pow(s, -1, n)
    out = [F.zero.rep] * n
    for i, c in enumerate(f.reps):
        j = i * sinv % n
        out[j] = F._add(out[j], c)
    g = Poly.from_reps(F, out)
    assert not g.is_zero(), "substitution killed the polynomial, impossible"
    d = Poly.from_reps(F, _pgcd(xn1.reps, g.reps, F))
    assert d.degree == f.degree, "s-involution changed the degree"
    return d.monic()


def is_irreducible(f):
    """Ben-Or's irreducibility test over any finite coefficient field."""
    if f.degree < 1:
        return False
    return is_irreducible_over(f.field, f.monic().reps)
