"""Presentations of the two metacyclic families and their basic constants.

A group here is determined by (kind, n, s) together with the coefficient
field size q:

  split:     < x, y | x^n = 1 = y^2,  xy = yx^s >
  nonsplit:  < x, y | x^(2n) = 1,  y^2 = x^n,  xy = yx^s >

with s an involution exponent mod N (N = n resp. 2n).  Everything the
decomposition needs later (N, d = gcd(N, s-1), |G|) is derived once, up
front, and the value is immutable afterwards.
"""

from dataclasses import dataclass
from math import gcd

from .fields import split_prime_power

SPLIT = "split"
NONSPLIT = "nonsplit"


class SNotInvolutive(ValueError):
    pass


class OrderNotCoprime(ValueError):
    pass


class EvenCharacteristic(ValueError):
    pass


@dataclass(frozen=True)
class GroupPresentation:
    kind: str
    n: int
    s: int
    q: int
    N: int
    d: int
    order: int

    def __repr__(self):
        return f"{self.kind}:n={self.n},s={self.s}"


def make_group(kind, n, s, q):
    """Validate (kind, n, s, q) and return the normalized GroupPresentation.

    s is reduced mod N.
    """
    if kind not in (SPLIT, NONSPLIT):
        raise ValueError(f"kind must be {SPLIT!r} or {NONSPLIT!r}, got {kind!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    p, _ = split_prime_power(q)
    if p == 2:
        raise EvenCharacteristic(f"q = {q} is even")
    N = n if kind == SPLIT else 2 * n
    if N % p == 0:
        raise OrderNotCoprime(f"characteristic {p} divides the group order {2 * N}")
    if N == 1:
        s = 1
    else:
        s = s % N
        if gcd(s, N) != 1 or (s * s) % N != 1:
            raise SNotInvolutive(f"s = {s} does not satisfy s^2 = 1 mod {N}")
    d = gcd(N, s - 1) if N > 1 else 1
    return GroupPresentation(kind=kind, n=n, s=s, q=q, N=N, d=d, order=2 * N)


def group_elements(g):
    """Normal forms x^i y^j as (i, j) pairs: all j = 0 first, then j = 1.

    The list index of x^i y^j is j*N + i, which is also the layout used
    for coefficient vectors of group algebra elements P(x) + Q(x)y.
    """
    return [(i, j) for j in (0, 1) for i in range(g.N)]


def element_index(g, i, j):
    return j * g.N + i % g.N


def parse_group(text):
    """Inverse of repr(GroupPresentation): "split:n=4,s=3" -> (kind, n, s)."""
    head, _, tail = text.partition(":")
    kind = head.strip().lower()
    if kind not in (SPLIT, NONSPLIT):
        raise ValueError(f"unknown group kind {head!r}")
    params = {}
    for piece in tail.split(","):
        key, eq, val = piece.partition("=")
        key = key.strip()
        if not eq or key not in ("n", "s") or key in params:
            raise ValueError(f"bad group parameter {piece!r}")
        try:
            params[key] = int(val)
        except ValueError:
            raise ValueError(f"bad integer in group parameter {piece!r}") from None
    if set(params) != {"n", "s"}:
        raise ValueError(f"group spec needs exactly n=... and s=..., got {text!r}")
    return kind, params["n"], params["s"]
