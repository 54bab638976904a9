"""Exact finite field arithmetic F_{p^m}, including extensions of extensions.

Everything here is immutable and deterministic: the modulus picked for
F_{p^m} is the first irreducible in a fixed enumeration, square roots are
canonicalized, and no randomness is used anywhere.

An element's rep is plain data: an int 0..p-1 over F_p, and over an
extension a tuple of its base field's reps, so ints over a prime base and
nested tuples for towers.  All arithmetic runs on reps, through the dense
polynomial kernel at the bottom of this module: in every extension, over a
base of any tower depth, a product is one multiply of ints packed by
Kronecker substitution.  FieldElt is the public wrapper only: it pairs a
rep with its field for callers that read an element, and the library's own
loops (Poly coefficients, the matrix helpers of wedderburn.decompose,
Tonelli-Shanks) stay on reps and wrap only what they return.

The integer helpers share one trial-division loop, _least_factor, behind
is_prime, split_prime_power and _prime_factors.  No order in a field is
ever searched for: the callers know the order L they expect from the
cyclotomic cosets, and has_order certifies it from the prime factors of L.
"""

import operator
from functools import lru_cache
from itertools import chain


class NonPrimeCharacteristic(ValueError):
    pass


class DegreeZero(ValueError):
    pass


class NoSquareRoot(ArithmeticError):
    pass


class ZeroInput(ValueError):
    pass


class NotCoprime(ValueError):
    pass


def _least_factor(n):
    """The least prime factor of n >= 2: n itself when no d <= sqrt(n)
    divides it.  The one trial-division loop of the package."""
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n


def is_prime(n):
    return n >= 2 and _least_factor(n) == n


def _prime_factors(n):
    """The distinct prime factors of n >= 1, ascending."""
    out = []
    while n > 1:
        p = _least_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def has_order(power, L, one):
    """True iff power(k) = one at k = L but at no k = L/r for a prime r | L:
    the certificate that an element a with power(k) = a^k has order
    exactly L, from the prime factors of L alone."""
    return all(power(L // r) != one for r in _prime_factors(L)) and power(L) == one


def split_prime_power(q):
    """Write q as p^m with p prime, or raise NonPrimeCharacteristic.

    p is q's least prime factor, so a q with two prime factors is refused
    without factoring its cofactor."""
    if q < 2:
        raise NonPrimeCharacteristic(f"{q} is not a prime power")
    p = _least_factor(q)
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

    def _check(self, other):
        if not isinstance(other, FieldElt) or other.field is not self.field:
            raise TypeError("mixed-field arithmetic")

    def __add__(self, other):
        self._check(other)
        return self._wrap(self.field._add(self.rep, other.rep))

    def __sub__(self, other):
        self._check(other)
        return self._wrap(self.field._add(self.rep, self.field._neg(other.rep)))

    def __neg__(self):
        return self._wrap(self.field._neg(self.rep))

    def __mul__(self, other):
        self._check(other)
        return self._wrap(self.field._mul(self.rep, other.rep))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return self._wrap(self.field._pow(self.rep, k))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # a^(|F|-2); fields here are small enough that this never matters
        return self._wrap(self.field._pow(self.rep, self.field.order - 2))

    def is_zero(self):
        return self.rep == self.field.zero.rep

    def __eq__(self, other):
        return (isinstance(other, FieldElt) and other.field is self.field
                and self.rep == other.rep)

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

    def _add(self, a, b):
        return (a + b) % self.char

    def _neg(self, a):
        return -a % self.char

    def _mul(self, a, b):
        return a * b % self.char

    def _pow(self, a, k):
        return pow(a, k, self.char)

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

    Elements are tuples of base-field reps, little-endian, of length
    exactly deg(modulus): ints over a prime base, nested tuples over an
    extension.  The residue of x is .gen.  modulus stays a tuple of base
    FieldElts, the key ext_field interns on.
    """

    def __init__(self, base, modulus):
        # modulus: tuple of base elements, monic, length deg+1, deg >= 1
        if len(modulus) < 2 or modulus[-1] != base.one:
            raise ValueError("modulus must be monic of degree >= 1")
        self.base = base
        self.modulus = tuple(modulus)
        self.deg = len(modulus) - 1
        self.char = base.char
        self.order = base.order ** self.deg
        self.degree = base.degree * self.deg
        self._m = tuple(c.rep for c in self.modulus)
        # p over a prime base, for inline arithmetic on int reps
        self._p = base.char if isinstance(base, PrimeField) else 0
        # a product is one packed multiply
        _, self._pack, self._unpack, self._packed_mul = _packing(base, self._m, 1)
        zero, one = base.zero.rep, base.one.rep
        self.zero = FieldElt(self, (zero,) * self.deg)
        self.one = FieldElt(self, (one,) + (zero,) * (self.deg - 1))
        self.gen = FieldElt(self, (base._neg(self._m[0]),) if self.deg == 1
                            else (zero, one) + (zero,) * (self.deg - 2))

    def elt(self, coeffs):
        """Build an element from an iterable of base elements (or ints), low first."""
        out = []
        for c in coeffs:
            if isinstance(c, int):
                if not self._p:
                    raise TypeError("int coefficients only over a prime base")
                c = self.base.elt(c)
            elif not isinstance(c, FieldElt) or c.field is not self.base:
                raise TypeError("coefficient from a different field")
            out.append(c.rep)
        if len(out) > self.deg:
            raise ValueError("too many coefficients")
        out += [self.base.zero.rep] * (self.deg - len(out))
        return FieldElt(self, tuple(out))

    def lift(self, a):
        """Embed a base-field element."""
        return self.elt([a])

    def _add(self, a, b):
        p = self._p
        return tuple([(x + y) % p for x, y in zip(a, b)] if p else map(self.base._add, a, b))

    def _neg(self, a):
        p = self._p
        return tuple([-x % p for x in a] if p else map(self.base._neg, a))

    def _mul(self, a, b):
        return self._unpack(self._pack(a) * self._pack(b))

    def _pow(self, a, k):
        return self._unpack(_power(self._pack(a), k, 1, self._packed_mul))

    def _key(self, a):
        return a if self._p else sum(map(self.base._key, a), ())

    def _show(self, a):
        var, show = ("t", str) if self._p else ("u", lambda c: f"({self.base._show(c)})")
        zero = self.base.zero.rep
        parts = []
        for i, c in enumerate(a):
            if c == zero:
                continue
            cs = show(c)
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"{cs}*{var}")
            else:
                parts.append(f"{cs}*{var}^{i}")
        return " + ".join(parts) if parts else "0"

    def elements(self):
        """All elements, ascending in key() order.  Only call on small fields."""
        for combo in residues(self.base, self.deg):
            yield FieldElt(self, combo)

    def __repr__(self):
        return f"GF({self.char}^{self.degree})[{self.base!r}-ext deg {self.deg}]"


# ---------------------------------------------------------------------------
# the rep kernel: dense polynomials over a field F as lists of F's reps, low
# coefficient first.  One multiply (_pmul), one division (_pdivmod) and one
# square and multiply (_power).  A product in F[t]/(M) over any field F is
# one multiply of ints packed by Kronecker substitution, one slot per digit
# of F in a box with an axis per level of F (_layout), folded back by
# _packing's table of t^i times a monomial in the levels' generators mod
# (M, F): every ExtField's products and powers, and Ben-Or's powers mod a
# candidate M.  Polynomial products and divisions over F_p run on ints, and
# over an F[t]/(M) they pack each coefficient the same way.


def residues(F, m, start=0):
    """Every tuple of m >= 1 reps of F, ascending as base-|F| numbers,
    from the start-th on.

    The digits follow F's element order (the residues 0..p-1 over F_p),
    first entry most significant, so as residues of F[t]/(M) the tuples
    come in elements() order.  Lazy, so a large prime field costs nothing
    up front.
    """
    digits = range(F.char) if isinstance(F, PrimeField) else [z.rep for z in F.elements()]
    for k in range(start, len(digits) ** m):
        w = [None] * m
        for i in range(m - 1, -1, -1):
            k, d = divmod(k, len(digits))
            w[i] = digits[d]
        yield tuple(w)


def _pmul(a, b, F):
    """The product of a and b, of length len(a) + len(b) - 1 ([] if either is []).

    Over F_p, one multiply of the operands packed into ints with
    coefficient i in slot i, unpacked by mask and shift.  Over an
    F[t]/(M), the same with each coefficient packed by _packing, a slot as
    wide as one of its products.
    """
    if not a or not b:
        return []
    n, terms = len(a) + len(b) - 1, min(len(a), len(b))
    if isinstance(F, PrimeField):
        p = F.char
        w = (terms * (p - 1) ** 2).bit_length()
        mask = (1 << w) - 1
        x = _kron(a, w) * _kron(b, w)
        return [(x >> i & mask) % p for i in range(0, n * w, w)]
    w, pack, unpack, _ = _packing(F.base, F._m, terms)
    mask = (1 << w) - 1
    x = _kron(list(map(pack, a)), w) * _kron(list(map(pack, b)), w)
    return [unpack(x >> i & mask) for i in range(0, n * w, w)]


def _kron(cs, w):
    """The int with cs[i] at bit i*w: cs packed into one int, w bits a slot."""
    x = 0
    for c in reversed(cs):
        x = x << w | c
    return x


def _pdivmod(a, b, F):
    """Quotient and remainder of a by b, whose last entry is nonzero.

    The remainder is r[:len(b) - 1] of the working list, untrimmed: of
    length exactly deg(b) when a is at least that long, as F[t]/(b) wants.
    Over F_p the working list holds ints, reduced mod p once a step; over
    an F[t]/(M) each entry is packed by _packing and a step adds -c times
    the packed divisor, unpacking only the leading entry.
    """
    n = len(b) - 1
    if isinstance(F, PrimeField):
        p, r = F.char, list(a)
        inv = pow(b[-1], -1, p)
        q = [0] * max(0, len(r) - n)
        for k in range(len(r) - 1, n - 1, -1):
            c = r[k] % p * inv % p
            if c:
                q[k - n] = c
                r[k - n:k] = [x - c * y for x, y in zip(r[k - n:k], b)]
        return q, [x % p for x in r[:n]]
    mul, neg, zero = F._mul, F._neg, F.zero.rep
    inv = None if b[-1] == F.one.rep else F._pow(b[-1], F.order - 2)
    q = [zero] * max(0, len(a) - n)
    # an r entry is a digit of a plus at most n packed products
    _, pack, unpack, _ = _packing(F.base, F._m, n + 1)
    r, b = list(map(pack, a)), list(map(pack, b[:n]))
    for k in range(len(r) - 1, n - 1, -1):
        c = unpack(r[k])
        if c != zero:
            q[k - n] = c = c if inv is None else mul(c, inv)
            c = pack(neg(c))  # add -c: a borrow would cross slots
            r[k - n:k] = [x + c * y for x, y in zip(r[k - n:k], b)]
    return q, list(map(unpack, r[:n]))


@lru_cache(maxsize=None)
def _layout(F):
    """The box a product of two of F's reps lays out in: (span, keep, mono,
    degrees), recursive over F's levels.

    The box has one axis per level of F, of span 2k - 1 for a level of
    degree k, the outermost level most significant, as in key().  span is
    the number of its slots, keep the slots of F's own digits in key()
    order, mono[s] the rep of the monomial at slot s (a product of powers
    of the levels' generators) and degrees the levels' degrees, innermost
    first: (1, (0,), (1,), ()) over F_p.
    """
    if isinstance(F, PrimeField):
        return 1, (0,), (1,), ()
    span, keep, mono, degrees = _layout(F.base)
    k, zero = F.deg, F.base.zero.rep
    gens = [F.one.rep]  # the generator's powers, up to the box's 2k - 2
    for _ in range(2 * k - 2):
        gens.append(F._mul(gens[-1], F.gen.rep))
    lifts = [(u,) + (zero,) * (k - 1) for u in mono]
    return ((2 * k - 1) * span, tuple(i * span + j for i in range(k) for j in keep),
            tuple(F._mul(g, u) for g in gens for u in lifts), degrees + (k,))


@lru_cache(maxsize=None)
def _packing(F, M, terms):
    """Kronecker packing for F[t]/(M) over any field F, keyed on F and the
    monic M (m + 1 reps of F, low first): (width, pack, unpack, mul) for
    sums of `terms` products, width the bits one product spans.

    With _layout(F)'s box of `span` slots, K of them F's own digits, pack
    lays digit d of a rep's coefficient i at slot i*span + keep[d], w bits
    a slot, flattening the rep once per level of F.  A product then has
    (2m - 1) span slots, slot i*span + s the coefficient of t^i times the
    monomial mono[s]: a sum of at most mK products of digits, so of
    terms*mK(p-1)^2 for a sum of `terms` products.  unpack keeps the slots
    with i < m and s in keep and adds c*fold for each other slot, with c
    that slot mod p and fold the packed t^i mono[s] mod (M, F): at most
    (p-1)^2 more a slot per fold.  w holds both, so no slot carries, and
    unpack reduces each kept slot mod p and regroups the digits once per
    level.  Ben-Or's test calls the uncached function, one table per
    candidate M, and keeps none.
    """
    p, m = F.char, len(M) - 1
    span, keep, mono, degrees = _layout(F)
    slots = (2 * m - 1) * span
    kept = [i * span + j for i in range(m) for j in keep]
    high = sorted(set(range(slots)) - set(kept))
    w = ((terms * m * len(keep) + len(high)) * (p - 1) ** 2).bit_length()
    mask, shifts = (1 << w) - 1, [s * w for s in kept]
    low = sum(mask << s for s in shifts)

    def pack(c):
        for _ in degrees:
            c = chain.from_iterable(c)
        return sum(map(operator.lshift, c, shifts))

    def reduced(x):  # x with each kept slot mod p
        return sum(map(operator.lshift, [(x >> s & mask) % p for s in shifts], shifts))

    zero = F.zero.rep
    tm = [F._neg(c) for c in M[:-1]]  # t^m mod M
    lead = [pack([F._mul(c, u) for c in tm]) for u in mono]  # mono[s] t^m mod M
    tops = [(s * w, lead[s]) for s in keep]  # digit d of t^m folds back by lead[keep[d]]
    # slot i*span + s -> t^i mono[s] mod (M, F), packed
    fold = {i * span + s: pack([zero] * i + [u] + [zero] * (m - 1 - i))
            for i in range(m) for s, u in enumerate(mono) if s not in keep}
    for s, x in enumerate(lead):  # t^i mono[s] mod M from t^(i-1) mono[s] mod M
        fold[m * span + s] = x
        for i in range(m + 1, 2 * m - 1):
            x <<= span * w  # times t: the digits of t^m fold back by lead
            c = x >> m * span * w
            x = reduced((x & low) + sum((c >> d & mask) * f for d, f in tops))
            fold[i * span + s] = x
    folds = [(s * w, fold[s]) for s in high]

    def digits(x):  # the m*K digits of the reduced x, coefficient by coefficient
        y = x & low
        for s, fold in folds:
            y += (x >> s & mask) % p * fold
        return [(y >> s & mask) % p for s in shifts]

    def unpack(x):
        d = digits(x)
        for k in degrees:
            d = zip(*[iter(d)] * k)
        return tuple(d)

    def mul(x, y):  # on packed elements, for a run of products
        return sum(map(operator.lshift, digits(x * y), shifts))

    return slots * w, pack, unpack, mul


def _padd(a, b, F):
    """a + b, of length max(len(a), len(b))."""
    if len(a) < len(b):
        a, b = b, a
    return [*map(F._add, a, b), *a[len(b):]]


def _power(a, e, one, mul):
    """a^e for e >= 0 by square and multiply from the high bit, with the
    product mul: one for e = 0, else bitlength - 1 squarings and
    popcount - 1 products by a."""
    if not e:
        return one
    r = a
    for bit in bin(e)[3:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, a)
    return r


def _ptrim(a, F):
    """a without its trailing zeros; [] for the zero polynomial."""
    n, zero = len(a), F.zero.rep
    while n and a[n - 1] == zero:
        n -= 1
    return a[:n]


def _pgcd(a, b, F):
    a, b = _ptrim(a, F), _ptrim(b, F)
    while b:
        a, b = b, _ptrim(_pdivmod(a, b, F)[1], F)
    return a


def is_irreducible_over(F, f):
    """Ben-Or's irreducibility test for the monic f over the field F.

    f is a list of F's element reps, low coefficient first, of degree
    m >= 1.  f is reducible iff it has an irreducible factor of degree
    i <= m/2, that is iff gcd(f, x^(q^i) - x) != 1 for some such i, with
    q = |F| (M. Ben-Or, FOCS 1981; Gao and Panario, 1997).  Each x^(q^i)
    mod f is the q-th power of the one before, in packed products over F,
    and the test stops at the first i with a factor.
    """
    m = len(f) - 1
    if m == 1:
        return True
    zero, one = F.zero.rep, F.one.rep
    _, pack, unpack, mul = _packing.__wrapped__(F, tuple(f), 1)
    h = pack((zero, one) + (zero,) * (m - 2))
    unit, neg_one = pack((one,) + (zero,) * (m - 1)), F._neg(one)
    for _ in range(m // 2):
        h = _power(h, F.order, unit, mul)
        diff = list(unpack(h))  # x^(q^i) - x
        diff[1] = F._add(diff[1], neg_one)
        if len(_pgcd(diff, f, F)) != 1:
            return False
    return True


def first_irreducible(F, m):
    """The first monic irreducible polynomial of degree m >= 1 over F.

    Returned as a tuple of F's elements, low coefficient first.  The
    coefficient vectors (c_{m-1}, ..., c_0) are enumerated as ascending
    base-|F| numbers whose digits follow F's element order: the residues
    0..p-1 over a prime field, elements() over an extension.  Ben-Or's test
    decides each candidate.  For m >= 2 the first |F| of them are the
    binomials x^m + c, skipped whole when _binomials_reducible(|F|, m).
    """
    start = F.order if m > 1 and _binomials_reducible(F.order, m) else 0
    for top_down in residues(F, m, start):
        coeffs = [*top_down[::-1], F.one.rep]
        if is_irreducible_over(F, coeffs):
            return tuple(FieldElt(F, c) for c in coeffs)
    raise AssertionError("no irreducible polynomial found, impossible")


def _binomials_reducible(q, m):
    """True iff every binomial x^m + c of degree m >= 2 over F_q is reducible.

    x^m - a with a != 0 is irreducible iff every prime r | m divides q - 1
    with a^((q-1)/r) != 1, and q = 1 mod 4 when 4 | m (Lidl-Niederreiter,
    Theorem 3.75); a generator a of F_q^* meets the power conditions.
    """
    return any((q - 1) % r for r in _prime_factors(m)) or (m % 4 == 0 and q % 4 != 1)


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


def sqrt_in_field(a):
    """A canonical square root of a, or raise NoSquareRoot.

    The returned root is always the lexicographically smaller of the two
    (by key() order), which is exactly what an ascending scan of the
    field's elements would find first.  Odd orders go through
    Tonelli-Shanks on reps and are then canonicalized.
    """
    F = a.field
    if a.is_zero() or a == F.one:  # key (1, 0, ...) sorts before (p - 1, 0, ...)
        return a
    if F.char == 2:
        return a ** (F.order // 2)
    if F._pow(a.rep, (F.order - 1) // 2) != F.one.rep:
        raise NoSquareRoot(f"{a!r} is not a square")
    r = _tonelli(F, a.rep)
    return FieldElt(F, min(r, F._neg(r), key=F._key))


@lru_cache(maxsize=None)
def _nonresidue(F):
    """The rep of the first quadratic nonresidue of the odd-order field F in
    elements() order."""
    half, one = (F.order - 1) // 2, F.one.rep
    for z in F.elements():
        if not z.is_zero() and F._pow(z.rep, half) != one:
            return z.rep
    raise AssertionError("no nonresidue in a field of odd order, impossible")


def _tonelli(F, a):
    """Tonelli-Shanks on reps in any odd-order field F, given that the rep a
    is a square; returns the rep of a square root."""
    mul, one = F._mul, F.one.rep
    q1 = F.order - 1
    s = padic_valuation(q1, 2)
    t = q1 >> s
    c = F._pow(_nonresidue(F), t)
    x = F._pow(a, (t + 1) // 2)
    b = F._pow(a, t)
    m = s
    while b != one:
        i = 0
        bb = b
        while bb != one:
            bb = mul(bb, bb)
            i += 1
            assert i < m, "Tonelli-Shanks loop escaped, nonsquare slipped through"
        e = F._pow(c, 2 ** (m - i - 1))
        x = mul(x, e)
        c = mul(e, e)
        b = mul(b, c)
        m = i
    assert mul(x, x) == a
    return x
