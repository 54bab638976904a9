"""Reference implementations that tests check the library against.

The library itself never calls these: group_mult is the group law written
out by hand, against which the oracle's multiplication table and the
battery's element orders are checked, and reciprocal is the monic
reciprocal polynomial, which s_involution(f, N - 1, N) must reproduce.
"""

from wedderburn.groups import NONSPLIT
from wedderburn.polys import reversed_coeffs


class ZeroConstantTerm(ValueError):
    pass


def group_mult(g, a, b):
    """Product of two normal forms (i1, j1) * (i2, j2) in G."""
    i1, j1 = a
    i2, j2 = b
    N = g.N
    if j1 == 0:
        i, j = (i1 + i2) % N, j2
    else:
        # push y left past x^(i2): y x^c = x^(c*s) y since s is its own inverse
        i = (i1 + g.s * i2) % N
        j = 1 + j2
    if j == 2:
        j = 0
        if g.kind == NONSPLIT:
            i = (i + g.n) % N
    return (i, j)


def reciprocal(f):
    """The monic reciprocal x^deg(f) * f(1/x), normalized monic.

    Requires f(0) != 0 so the degree is preserved.
    """
    if f.is_zero() or f.reps[0] == f.field.zero.rep:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    return reversed_coeffs(f).monic()
