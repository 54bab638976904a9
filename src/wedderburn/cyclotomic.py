"""Factorization of x^N - 1 over F_q and the bookkeeping layered on top.

The decomposition code downstream consumes this module through
FactorizationReport: the irreducible factors, which of them are fixed by
the twist exponent s, how they pair up when they are not, and how each
factor sits relative to x^d - 1 for d = gcd(N, s - 1).

Factors are found by walking q-cyclotomic cosets and multiplying out
linear terms over a splitting field E = F_q[t]/(M), then mapping the
(Frobenius-fixed) coefficients back down.  The root-of-unity scan and the
coset products run on the field-rep kernel of wedderburn.fields: an element
of E is a tuple of F_q's reps, the factors are Polys built from F_q's reps,
and the only FieldElt built is root_of_unity's return value.  Every order
here is known before it is checked (N for the root of unity, N / gcd(N, i)
for a root zeta^i), so fields.has_order certifies it and none is searched
for.  No probabilistic factoring is involved, so the output ordering is
reproducible bit for bit.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, tee
from math import gcd

from .fields import FieldElt, PrimeField, _pmul, ext_field, first_irreducible, has_order, \
    ord_mod, padic_valuation, residues, split_prime_power
from .polys import Poly, powmod, s_involution, x_power_minus_one


class NotCoprimeNQ(ValueError):
    pass


class SInvalid(ValueError):
    pass


class NotSelfInvolutive(ValueError):
    pass


class BadCongruence(ValueError):
    pass


def cyclotomic_cosets(N, q):
    """The q-cyclotomic cosets mod N as sorted tuples, smallest reps first."""
    seen = [False] * N
    out = []
    for a in range(N):
        if seen[a]:
            continue
        orbit = []
        b = a
        while not seen[b]:
            seen[b] = True
            orbit.append(b)
            b = b * q % N
        out.append(tuple(sorted(orbit)))
    return out


def splitting_field(field, N):
    """(E, m) with E = F_{q^m} containing the N-th roots of unity, m minimal.

    E is an extension of `field` itself (m = 1 returns the field unchanged),
    so polynomials over `field` evaluate at points of E directly.
    """
    if N % field.char == 0:
        raise NotCoprimeNQ(f"char {field.char} divides N = {N}")
    m = ord_mod(field.order, N)
    if m == 1:
        return field, 1
    # interned constructor: repeated calls hand back the identical field
    # object, so roots extracted in different calls compare equal
    return ext_field(field, first_irreducible(field, m)), m


def root_of_unity(E, N):
    """A primitive N-th root of unity in E, chosen deterministically.

    Scans E in its canonical element order, maps each candidate w to
    w^((|E|-1)/N), and returns the first image of exact order N.  has_order
    certifies exactness from the prime divisors of N alone, so nothing ever
    factors the (typically enormous) group order |E| - 1.  The scan runs on E's
    reps: the candidates are the residues 0..p-1 over F_p and residue
    tuples of the base's reps over E = F[t]/(M), which come in
    E.elements() order, and powers are taken with E._pow, so the only
    FieldElt built is the one returned.  Over a prime base it tests only
    the first w of each orbit {c*w : c in F_p*, c^exp = 1}, whose members
    share one image (_orbit_leaders).
    """
    if N == 1:
        return E.one
    size = E.order - 1
    assert size % N == 0, "field does not contain the N-th roots of unity"
    exp = size // N
    one = E.one.rep
    if isinstance(E, PrimeField) or isinstance(E.base, PrimeField):
        candidates = _orbit_leaders(E, gcd(exp, E.char - 1))  # c^exp = 1 iff c^gcd = 1
    else:
        candidates = residues(E.base, E.deg)
        next(candidates)  # 0 comes first and has no order
    for w in candidates:
        z = E._pow(w, exp)
        if has_order(lambda k: E._pow(z, k), N, one):
            return FieldElt(E, z)
    raise AssertionError("no primitive root found, impossible in a cyclic group")


def _orbit_leaders(E, h):
    """The nonzero reps w of E = F_p or F_p[t]/(M), in scan order, that come
    first among their c*w, c in F_p* with c^h = 1: those whose first nonzero
    digit d (which c*w holds as c*d) is the least residue with its d^h.  The
    least residues are found lazily and once, up to the largest d reached
    or until all (p - 1)/h values of d^h have turned up.
    """
    p, least = E.char, {}
    leads = islice((d for d in range(1, p) if least.setdefault(pow(d, h, p), d) == d),
                   (p - 1) // h)
    if isinstance(E, PrimeField):
        return leads
    m = E.deg
    return ((0,) * j + (d,) + rest
            for j, ds in zip(range(m - 1, -1, -1), tee(leads, m))
            for d in ds for rest in residues(E.base, m - 1 - j))


@lru_cache(maxsize=None)
def factor_xn_minus_1(field, N):
    """Distinct monic irreducible factors of x^N - 1 over `field`.

    Returns a tuple of (coset, poly) pairs sorted by the polynomial sort
    key, where coset is the q-cyclotomic coset of exponents i with
    zeta^i a root.  The product of all factors is asserted to recompose
    x^N - 1 exactly, and x mod each factor to have exactly its roots'
    order N / gcd(N, min(coset)), certified by has_order.  Each
    coset's product is a list of E's reps, built one linear factor at a
    time on the rep kernel.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    F = field
    E, _ = splitting_field(F, N)
    zeta, one = root_of_unity(E, N).rep, E.one.rep
    powers = [one]
    for _ in range(N - 1):
        powers.append(E._mul(powers[-1], zeta))
    pairs = []
    for coset in cyclotomic_cosets(N, F.order):
        f = [one]  # monic, low coefficient first, entries in E
        for i in coset:
            f = _pmul(f, [E._neg(powers[i]), one], E)  # f * (x - zeta^i)
        coeffs = []
        for c in f:
            assert E._pow(c, F.order) == c, "factor coefficient not Frobenius-fixed"
            if E is not F:
                assert all(x == F.zero.rep for x in c[1:]), \
                    "factor coefficient has a nonzero extension part"
                c = c[0]
            coeffs.append(c)
        g = Poly.from_reps(F, coeffs)
        assert g.degree == len(coset)
        assert g.reps[-1] == F.one.rep
        assert has_order(lambda k: powmod(Poly.x(F), k, g), N // gcd(N, min(coset)),
                         Poly.one(F)), "root order disagrees with coset"
        pairs.append((coset, g))
    prod = Poly.one(F)
    for _, g in pairs:
        prod = prod * g
    assert prod == x_power_minus_one(F, N), "factors do not recompose x^N - 1"
    pairs.sort(key=lambda cg: cg[1].key())
    return tuple(pairs)


@dataclass(frozen=True)
class CosetFactor:
    """One irreducible factor of x^N - 1 with its s-action annotations.

    partner is the index (within the parent report's factor tuple) of the
    factor whose roots are the s-th powers of this one's, when that is a
    different factor; None for self-involutive factors.
    """
    coset: tuple
    poly: Poly
    root_order: int
    self_involutive: bool
    divides_x_d_minus_1: bool
    partner: int | None

    @property
    def degree(self):
        return self.poly.degree


@dataclass(frozen=True)
class FactorizationReport:
    """classify()'s output: all factors of x^N - 1 plus the s-action summary.

    r counts the self-involutive factors not dividing x^d - 1 (the ones
    feeding 2x2 components with entries in an index-2 subfield), t counts
    the factor pairs swapped by s.  Pair members sit adjacently in
    `factors`, lex-smaller member first.
    """
    field: object
    N: int
    q: int
    s: int
    d: int
    factors: tuple
    r: int
    t: int

    def to_json(self):
        out = {
            "q": self.q,
            "N": self.N,
            "s": self.s,
            "d": self.d,
            "r": self.r,
            "t": self.t,
            "factors": [],
        }
        for fac in self.factors:
            out["factors"].append({
                "coset": list(fac.coset),
                "poly": repr(fac.poly),
                "coeffs": [list(c.key()) for c in fac.poly.coeffs],
                "degree": fac.degree,
                "root_order": fac.root_order,
                "self_involutive": fac.self_involutive,
                "divides_x_d_minus_1": fac.divides_x_d_minus_1,
                "partner": fac.partner,
            })
        return out


@lru_cache(maxsize=None)
def classify(field, N, s):
    """Factor x^N - 1 and annotate every factor with its s-action data.

    Requires s^2 = 1 mod N (SInvalid otherwise).  Self-involutivity of each
    factor is decided twice, from the coset and from the polynomial side,
    and the two verdicts are asserted to agree; for factors whose root
    order l does not divide d this is additionally cross-checked against
    the congruence s = q^(deg/2) mod l.
    """
    q = field.order
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    s = s % N if N > 1 else 1
    if gcd(s, N) != 1 or (s * s) % N != 1 % N:
        raise SInvalid(f"s = {s} is not an involution exponent mod {N}")
    d = gcd(N, s - 1) if N > 1 else 1
    raw = factor_xn_minus_1(field, N)
    by_coset_set = {frozenset(c): i for i, (c, _) in enumerate(raw)}

    # order factors so that swapped pairs are adjacent, smaller key first
    order = []
    placed = set()
    for i, (coset, g) in enumerate(raw):
        if i in placed:
            continue
        j = by_coset_set[frozenset(k * s % N for k in coset)]
        placed.add(i)
        order.append(i)
        if j != i:
            assert j not in placed, "pair partner placed twice"
            placed.add(j)
            order.append(j)
    position = {i: k for k, i in enumerate(order)}

    factors = []
    r = 0
    t = 0
    for i in order:
        coset, g = raw[i]
        l = N // gcd(N, min(coset))  # asserted against g by factor_xn_minus_1
        j = by_coset_set[frozenset(k * s % N for k in coset)]
        involutive = j == i
        assert involutive == (s_involution(g, s, N) == g), \
            "coset and polynomial verdicts on the s-action disagree"
        div_d = d % l == 0
        if div_d:
            # l | d means l | s - 1, so every root is fixed individually
            assert involutive
        elif g.degree % 2 == 0:
            assert involutive == (pow(q, g.degree // 2, l) == s % l), \
                "self-involutivity fails the q^(deg/2) congruence cross-check"
        else:
            assert not involutive, "odd-degree factor off x^d - 1 cannot be fixed"
        if involutive and not div_d:
            r += 1
        if not involutive and position[j] > position[i]:
            t += 1
        factors.append(CosetFactor(
            coset=coset,
            poly=g,
            root_order=l,
            self_involutive=involutive,
            divides_x_d_minus_1=div_d,
            partner=None if involutive else position[j],
        ))
    report = FactorizationReport(
        field=field, N=N, q=q, s=s, d=d, factors=tuple(factors), r=r, t=t)
    prod = Poly.one(field)
    for fac in report.factors:
        prod = prod * fac.poly
    assert prod == x_power_minus_one(field, N)
    return report


def tower_degrees(factor):
    """([F_q(xi) : F_q], [F_q(xi + xi^s, xi^(s+1)) : F_q]) for a fixed factor.

    Only defined away from x^d - 1: there the twist moves every root, the
    symmetric subfield has index exactly 2, and the degree is forced even.
    A factor of x^d - 1 has its roots fixed by the twist and carries no
    index-2 step, so it is rejected along with the moved (paired) factors.
    """
    if not factor.self_involutive or factor.divides_x_d_minus_1:
        raise NotSelfInvolutive(f"{factor.poly!r} carries no index-2 symmetric step")
    assert factor.degree % 2 == 0
    return factor.degree, factor.degree // 2


def two_adic_tower(n, q):
    """Degree steps down the 2-power tower of roots of unity over F_q.

    With k_j the degree of the (2n / 2^j)-th roots of unity over F_q, the
    returned list holds k_j / k_{j+1} for j = 0 .. v2(n) - 1, i.e. the
    relative degree collected at each halving of the 2-part of 2n.  Only
    meaningful (and only accepted) for q = 3 mod 4; empty for odd n.
    """
    if q % 4 != 3:
        raise BadCongruence(f"q = {q} is not 3 mod 4")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if (2 * n) % split_prime_power(q)[0] == 0:
        raise NotCoprimeNQ(f"char divides 2n = {2 * n}")
    v = padic_valuation(n, 2)
    degrees = [ord_mod(q, (2 * n) >> j) for j in range(v + 2)]
    steps = []
    for j in range(v + 1):
        assert degrees[j] % degrees[j + 1] == 0
        step = degrees[j] // degrees[j + 1]
        assert step in (1, 2), "tower step outside {1, 2}, impossible for 2-powers"
        steps.append(step)
    assert steps[v] == 1, "halving past the 2-part changed the degree"
    return steps[:v]


def two_adic_steps_by_valuation(n, q):
    """Tower step pattern read off v2(n) against v2(q + 1) alone.

    A final step of 2, preceded by all 1s when v2(n) <= v2(q + 1) and
    otherwise by 2s in the top v2(n) - v2(q + 1) slots.  two_adic_tower
    actually follows this pattern only when the odd part w of n has odd
    multiplicative order mod q; see two_adic_steps_expected for the
    unconditional version.  (n = 24, q = 11 separates them: the valuation
    pattern says [2, 1, 2], the tower is [2, 1, 1].)
    """
    if q % 4 != 3:
        raise BadCongruence(f"q = {q} is not 3 mod 4")
    v = padic_valuation(n, 2) if n >= 1 else 0
    if v == 0:
        return []
    c = padic_valuation(q + 1, 2)
    steps = []
    for j in range(v):
        if j == v - 1:
            steps.append(2)
        elif v <= c:
            steps.append(1)
        else:
            steps.append(2 if j < v - c else 1)
    return steps


def two_adic_steps_expected(n, q):
    """What two_adic_tower(n, q) returns, computed from valuations and ord_w(q).

    Writing n = 2^v * w with w odd, c = v2(q + 1) and e = v2(ord_w(q)),
    every degree in the tower is (odd part of ord_w(q)) * 2^max(1, v+1-j-c, e)
    by the p-adic valuation formula for q^k - 1, so the steps are
    determined by which of the three terms dominates: 2 at position
    j <= v - c - max(1, e), 2 at the last position iff e = 0, else 1.
    """
    if q % 4 != 3:
        raise BadCongruence(f"q = {q} is not 3 mod 4")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    v = padic_valuation(n, 2)
    if v == 0:
        return []
    w = n >> v
    if w % split_prime_power(q)[0] == 0:
        raise NotCoprimeNQ(f"char divides the odd part {w} of n")
    c = padic_valuation(q + 1, 2)
    e = padic_valuation(ord_mod(q, w), 2) if w > 1 else 0
    cap = max(1, e)
    steps = []
    for j in range(v):
        if j == v - 1:
            steps.append(2 if e == 0 else 1)
        else:
            steps.append(2 if j <= v - c - cap else 1)
    return steps


def symmetric_generator_power(n, q):
    """The claimed k with F_q(xi + xi^-1) = F_q(xi^k), xi a primitive 2n-th root.

    k = 2^v2(n) when v2(n) <= v2(q + 1), else k = 2, for q = 3 mod 4 and
    even n.  Writing n = 2^v * w with w odd, the identification is correct
    under the hypothesis of two_adic_steps_by_valuation,
    e = v2(ord_w(q)) = 0.  When e >= 1 it can name a subfield strictly
    larger than the symmetric one (n = 10, q = 3 already does: F_q(xi^2)
    has degree ord_10(3) = 4, the symmetric subfield ord_20(3) / 2 = 2).
    What holds for every even n is containment: F_q(xi^k) contains
    F_q(xi + xi^-1), i.e. ord_{2n}(q) / 2 divides ord_{2n/k}(q).  Callers
    wanting the symmetric subfield itself should use its degree, which is
    always half the full degree by the index-2 lemma.
    """
    if q % 4 != 3:
        raise BadCongruence(f"q = {q} is not 3 mod 4")
    if n < 2 or n % 2 != 0:
        raise ValueError(f"need even n >= 2, got {n}")
    v = padic_valuation(n, 2)
    if v <= padic_valuation(q + 1, 2):
        return 1 << v
    return 2
