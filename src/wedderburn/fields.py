"""Exact finite field arithmetic F_{p^m}, including extensions of extensions.

Everything here is immutable and deterministic: the modulus picked for
F_{p^m} is the first irreducible in a fixed enumeration, square roots are
canonicalized, and no randomness is used anywhere.
"""

import itertools
from functools import lru_cache
from math import isqrt


class NonPrimeCharacteristic(ValueError):
    pass


class DegreeZero(ValueError):
    pass


class ZeroElement(ValueError):
    pass


class NoSquareRoot(ArithmeticError):
    pass


class ZeroInput(ValueError):
    pass


class NotCoprime(ValueError):
    pass


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def split_prime_power(q):
    """Write q as p^m with p prime, or raise NonPrimeCharacteristic."""
    if q < 2:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    # the least divisor d > 1 of q is prime, and d <= sqrt(q) unless q is prime
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    m = padic_valuation(q, p)
    if p ** m != q:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    return p, m


def padic_valuation(c, p):
    """Exponent of the prime p in the integer c (c may be negative)."""
    if c == 0:
        raise ZeroInput("valuation of 0 is undefined")
    if p < 2:
        raise ValueError(f"bad prime {p}")
    c = abs(c)
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def ord_mod(a, n):
    """Multiplicative order of a modulo n.  ord_mod(1, n) = 1 for any n >= 1."""
    if n < 1:
        raise ValueError(f"bad modulus {n}")
    if n == 1:
        return 1
    a %= n
    from math import gcd
    if gcd(a, n) != 1:
        raise NotCoprime(f"{a} not invertible mod {n}")
    k = 1
    x = a
    while x != 1:
        x = x * a % n
        k += 1
        if k > n:
            raise AssertionError("order search exceeded modulus, impossible")
    return k


class FieldElt:
    """An element of a FiniteField.  Immutable; operators delegate to the field."""

    __slots__ = ("field", "rep", "_hash")

    def __init__(self, field, rep):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("field elements are immutable")

    def _wrap(self, rep):
        return FieldElt(self.field, rep)

    def __add__(self, other):
        self.field._check(other)
        return self._wrap(self.field._add(self.rep, other.rep))

    def __sub__(self, other):
        self.field._check(other)
        return self._wrap(self.field._add(self.rep, self.field._neg(other.rep)))

    def __neg__(self):
        return self._wrap(self.field._neg(self.rep))

    def __mul__(self, other):
        self.field._check(other)
        return self._wrap(self.field._mul(self.rep, other.rep))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # a^(|F|-2); fields here are small enough that this never matters
        return self ** (self.field.order - 2)

    def is_zero(self):
        return self.field._eq(self.rep, self.field.zero.rep)

    def __eq__(self, other):
        return (isinstance(other, FieldElt) and other.field is self.field
                and self.field._eq(self.rep, other.rep))

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((id(self.field), self.key())))
        return self._hash

    def key(self):
        """Flat tuple of base-p digits; the canonical comparison/serialization order."""
        return self.field._key(self.rep)

    def __repr__(self):
        return self.field._show(self.rep)


class PrimeField:
    """F_p with elements represented by residues 0..p-1."""

    def __init__(self, p):
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        self.char = p
        self.order = p
        self.degree = 1
        self.zero = FieldElt(self, 0)
        self.one = FieldElt(self, 1)

    def elt(self, v):
        return FieldElt(self, v % self.char)

    def _check(self, other):
        if not isinstance(other, FieldElt) or other.field is not self:
            raise TypeError("mixed-field arithmetic")

    def _add(self, a, b):
        return (a + b) % self.char

    def _neg(self, a):
        return -a % self.char

    def _mul(self, a, b):
        return a * b % self.char

    def _eq(self, a, b):
        return a == b

    def _key(self, a):
        return (a,)

    def _show(self, a):
        return str(a)

    def elements(self):
        for v in range(self.char):
            yield FieldElt(self, v)

    def __repr__(self):
        return f"GF({self.char})"


class ExtField:
    """base[x]/(modulus): an extension field over any FiniteField base.

    Elements are tuples of base-field elements, little-endian, of length
    exactly deg(modulus).  The residue of x is .gen.
    """

    def __init__(self, base, modulus):
        # modulus: tuple of base elements, monic, length deg+1, deg >= 1
        assert len(modulus) >= 2 and modulus[-1] == base.one, "modulus must be monic"
        self.base = base
        self.modulus = tuple(modulus)
        self.deg = len(modulus) - 1
        self.char = base.char
        self.order = base.order ** self.deg
        self.degree = base.degree * self.deg
        self.zero = FieldElt(self, (base.zero,) * self.deg)
        self.one = FieldElt(self, (base.one,) + (base.zero,) * (self.deg - 1))
        if self.deg == 1:
            self.gen = FieldElt(self, (-modulus[0],))
        else:
            self.gen = FieldElt(
                self, (base.zero, base.one) + (base.zero,) * (self.deg - 2))
        # x^deg == -(low part of modulus), cached for reduction
        self._xdeg = tuple(-c for c in modulus[:-1])

    def elt(self, coeffs):
        """Build an element from an iterable of base elements (or ints), low first."""
        out = []
        for c in coeffs:
            if isinstance(c, int):
                if not isinstance(self.base, PrimeField):
                    raise TypeError("int coefficients only over a prime base")
                c = self.base.elt(c)
            out.append(c)
        if len(out) > self.deg:
            raise ValueError("too many coefficients")
        out += [self.base.zero] * (self.deg - len(out))
        return FieldElt(self, tuple(out))

    def lift(self, a):
        """Embed a base-field element."""
        return self.elt([a])

    def _check(self, other):
        if not isinstance(other, FieldElt) or other.field is not self:
            raise TypeError("mixed-field arithmetic")

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _mul(self, a, b):
        n = self.deg
        prod = [self.base.zero] * (2 * n - 1)
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, y in enumerate(b):
                prod[i + j] = prod[i + j] + x * y
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k]
            if c.is_zero():
                continue
            for i, r in enumerate(self._xdeg):
                prod[k - n + i] = prod[k - n + i] + c * r
        return tuple(prod[:n])

    def _eq(self, a, b):
        return a == b

    def _key(self, a):
        out = ()
        for c in a:
            out += c.key()
        return out

    def _show(self, a):
        var = "t" if isinstance(self.base, PrimeField) else "u"
        parts = []
        for i, c in enumerate(a):
            if c.is_zero():
                continue
            cs = repr(c) if isinstance(self.base, PrimeField) else f"({c!r})"
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"{cs}*{var}")
            else:
                parts.append(f"{cs}*{var}^{i}")
        return " + ".join(parts) if parts else "0"

    def elements(self):
        """All elements, ascending in key() order.  Only call on small fields."""
        base_elts = list(self.base.elements())
        for combo in itertools.product(base_elts, repeat=self.deg):
            yield FieldElt(self, combo)

    def __repr__(self):
        return f"GF({self.char}^{self.degree})[{self.base!r}-ext deg {self.deg}]"


# ---------------------------------------------------------------------------
# the rep kernel: dense polynomials over a field F as lists of F's reps, low
# coefficient first, with F's own _add/_mul/_neg/_eq doing the arithmetic.
# The modulus search runs on it, and so does arithmetic in F[t]/(M), whose
# elements are the residues of length deg(M).


def residues(F, m):
    """Every list of m >= 1 reps of F, ascending as base-|F| numbers.

    The digits follow F's element order (the residues 0..p-1 over F_p),
    first entry most significant, so as residues of F[t]/(M) the lists come
    in elements() order.  Lazy, so a large prime field costs nothing up front.
    """
    digits = range(F.char) if isinstance(F, PrimeField) else [z.rep for z in F.elements()]
    for k in range(len(digits) ** m):
        w = [None] * m
        for i in range(m - 1, -1, -1):
            k, d = divmod(k, len(digits))
            w[i] = digits[d]
        yield w


def _pmulmod(a, b, f, F):
    """a * b mod the monic f of degree n >= 1; a and b have length n."""
    add, mul, eq, zero = F._add, F._mul, F._eq, F.zero.rep
    n = len(f) - 1
    prod = [zero] * (2 * n - 1)
    for i, x in enumerate(a):
        if not eq(x, zero):
            for j, y in enumerate(b):
                prod[i + j] = add(prod[i + j], mul(x, y))
    tail = [F._neg(c) for c in f[:n]]  # x^n = -(f - x^n) mod f
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if not eq(c, zero):
            for i in range(n):
                prod[k - n + i] = add(prod[k - n + i], mul(c, tail[i]))
    return prod[:n]


def _ppowmod(a, e, f, F):
    r = [F.one.rep] + [F.zero.rep] * (len(f) - 2)
    while e:
        if e & 1:
            r = _pmulmod(r, a, f, F)
        a = _pmulmod(a, a, f, F)
        e >>= 1
    return r


def _pis_zero(a, F):
    return len(a) == 1 and F._eq(a[0], F.zero.rep)


def _ptrim(a, F):
    a = list(a)
    while len(a) > 1 and F._eq(a[-1], F.zero.rep):
        a.pop()
    return a


def _pmod(a, b, F):
    a = _ptrim(a, F)
    b = _ptrim(b, F)
    inv = FieldElt(F, b[-1]).inverse().rep
    while len(a) >= len(b) and not _pis_zero(a, F):
        shift = len(a) - len(b)
        c = F._neg(F._mul(a[-1], inv))
        for i, x in enumerate(b):
            a[i + shift] = F._add(a[i + shift], F._mul(c, x))
        a = _ptrim(a, F)
    return a


def _pgcd(a, b, F):
    a = _ptrim(a, F)
    b = _ptrim(b, F)
    while not _pis_zero(b, F):
        a, b = b, _pmod(a, b, F)
    return a


def is_irreducible_over(F, f):
    """Rabin's irreducibility test for the monic f over the field F.

    f is a list of F's element reps, low coefficient first, of degree >= 1.
    """
    m = len(f) - 1
    if m == 1:
        return True
    x = [F.zero.rep, F.one.rep] + [F.zero.rep] * (m - 2)
    if not all(map(F._eq, _ppowmod(x, F.order ** m, f, F), x)):
        return False
    for r in _prime_factors(m):
        h = _ppowmod(x, F.order ** (m // r), f, F)
        diff = [F._add(c, F._neg(xc)) for c, xc in zip(h, x)]
        if len(_pgcd(diff, f, F)) != 1:
            return False
    return True


def first_irreducible(F, m):
    """The first monic irreducible polynomial of degree m >= 1 over F.

    Returned as a tuple of F's elements, low coefficient first.  The
    coefficient vectors (c_{m-1}, ..., c_0) are enumerated as ascending
    base-|F| numbers whose digits follow F's element order: the residues
    0..p-1 over a prime field, elements() over an extension.
    """
    for top_down in residues(F, m):
        coeffs = top_down[::-1] + [F.one.rep]
        if is_irreducible_over(F, coeffs):
            return tuple(FieldElt(F, c) for c in coeffs)
    raise AssertionError("no irreducible polynomial found, impossible")


@lru_cache(maxsize=None)
def make_field(p, m):
    """The field F_{p^m}.

    For m >= 2 the modulus is first_irreducible(F_p, m).  That puts x^2+1
    first for F_9 and x^3+x+1 first for F_8.  Interned: the same (p, m)
    gives the same object, because element equality checks field
    identity.  Interning is per process, so a field object must never be
    sent to another process.
    """
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if m < 1:
        raise DegreeZero(f"degree must be positive, got {m}")
    if m == 1:
        return PrimeField(p)
    base = make_field(p, 1)  # the cached copy, so element fields compare by identity
    # route through the interning cache so make_field(p, m) and
    # ext_field(base, same modulus) are the same object
    return ext_field(base, first_irreducible(base, m))


@lru_cache(maxsize=None)
def ext_field(base, modulus):
    """Interned ExtField constructor.

    Same (base, modulus) gives the same field object, so elements built in
    different places compare equal: element equality checks field
    identity.  Interning is per process, like make_field's.  modulus is a
    tuple of base elements.
    """
    return ExtField(base, modulus)


def mul_order(a):
    """Order of a in the multiplicative group of its field."""
    if a.is_zero():
        raise ZeroElement("0 has no multiplicative order")
    n = a.field.order - 1
    order = n
    for p in _prime_factors(n):
        while order % p == 0 and (a ** (order // p)) == a.field.one:
            order //= p
    assert (a ** order) == a.field.one
    return order


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_in_subfield(a, k):
    """True iff a lies in the subfield of index [F:.]/k, i.e. a^(base^k) = a.

    Here base is the order of the field's base of scalars: for an ExtField
    built over K this tests membership in the degree-k subextension K_k,
    via the Frobenius fixed-point characterization a^(|K|^k) = a.
    """
    F = a.field
    b = F.base.order if isinstance(F, ExtField) else F.order
    return a ** (b ** k) == a


def sqrt_in_field(a):
    """A canonical square root of a, or raise NoSquareRoot.

    The returned root is always the lexicographically smaller of the two
    (by key() order), which is exactly what an ascending scan of the
    field's elements would find first.  Odd orders go through
    Tonelli-Shanks and are then canonicalized.
    """
    F = a.field
    if a.is_zero():
        return F.zero
    if F.char == 2:
        return a ** (F.order // 2)
    if a ** ((F.order - 1) // 2) != F.one:
        raise NoSquareRoot(f"{a!r} is not a square")
    r = _tonelli(a)
    return min(r, -r, key=lambda z: z.key())


@lru_cache(maxsize=None)
def _nonresidue(F):
    """The first quadratic nonresidue of the odd-order field F in elements() order."""
    half = (F.order - 1) // 2
    for z in F.elements():
        if not z.is_zero() and z ** half != F.one:
            return z
    raise AssertionError("no nonresidue in a field of odd order, impossible")


def _tonelli(a):
    """Tonelli-Shanks in any odd-order field, given that a is a square."""
    F = a.field
    q1 = F.order - 1
    s = padic_valuation(q1, 2)
    t = q1 >> s
    c = _nonresidue(F) ** t
    x = a ** ((t + 1) // 2)
    b = a ** t
    m = s
    while b != F.one:
        i = 0
        bb = b
        while bb != F.one:
            bb = bb * bb
            i += 1
            assert i < m, "Tonelli-Shanks loop escaped, nonsquare slipped through"
        e = c ** (2 ** (m - i - 1))
        x = x * e
        b = b * e * e
        c = e * e
        m = i
    assert x * x == a
    return x
