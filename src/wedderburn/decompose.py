"""Wedderburn decomposition of F_qG for the two metacyclic families.

Every simple component is reported with its matrix size (1 or 2), the
degree m of its residue field over F_q, and explicit generator images.
The images are computed numerically: representations are conjugated as
matrices over the factor field and the expected subfield membership of
the entries is asserted afterwards, rather than trusting any rewritten
closed form.  Each component is also pushed through the defining
relations of the group before it is returned.

Per irreducible factor f of x^N - 1 (with root xi of order l) the shape
of the component depends on where f sits:

  f | x^d - 1                  the quotient K_f[y]/(y^2 - xi^n); splits
                               into two one-dimensional components when
                               xi^n is a square in K_f (always for the
                               split kind, where xi^n = 1 and y -> +-1),
                               otherwise one component over the quadratic
                               extension
  f self-involutive, l not | d one 2x2 component over the half field:
                               the plain images conjugated by frame()
  f in a swapped pair          one 2x2 component over K_f: the plain images

Both kinds read y^2 = x^n, with x^n = 1 for the split kind (N = n), so
no construction here branches on the kind.  The plain images are
x -> diag(xi, xi^s), y -> [[0, xi^n], [1, 0]].  The one function route()
decides the sigma/eta/theta case split, and frame() returns its
conjugating matrix W; the idempotent constructions read the same W.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd
from typing import Optional

from .cyclotomic import classify
from .fields import (FieldElt, NoSquareRoot, _power, ext_field, has_order, make_field,
                     padic_valuation, split_prime_power, sqrt_in_field)

ABELIAN_PART = "abelian"
SELF_INVOLUTIVE = "self-involutive"
PAIR = "pair"


@dataclass(frozen=True)
class ComponentSource:
    """Where a component came from in the factor list."""
    kind: str                  # ABELIAN_PART, SELF_INVOLUTIVE or PAIR
    position: int              # index into the classification report
    partner: Optional[int]     # second factor position, for pairs
    root_order: int
    frame: str                 # which generator-image frame was used

    def to_json(self):
        return {"kind": self.kind, "position": self.position,
                "partner": self.partner, "root_order": self.root_order,
                "frame": self.frame}


@dataclass(frozen=True)
class WedderburnComponent:
    """One simple component M_l(F_{q^m}), with generator images.

    The image matrices are l x l tuples over an explicit field that
    contains F_{q^m}; entry membership in the degree-m subfield is part
    of component_matrices_check.
    """
    l: int
    m: int
    multiplicity: int
    source: ComponentSource
    image_x: tuple
    image_y: tuple

    @property
    def dimension(self):
        return self.multiplicity * self.l * self.l * self.m

    def to_json(self):
        ser = lambda M: [[list(z.key()) for z in row] for row in M]
        return {"l": self.l, "m": self.m, "multiplicity": self.multiplicity,
                "source": self.source.to_json(),
                "image_x": ser(self.image_x), "image_y": ser(self.image_y)}


@dataclass(frozen=True)
class Decomposition:
    group: object
    report: object
    components: tuple

    @property
    def component_count(self):
        return len(self.components)

    @property
    def dimension_sum(self):
        return sum(c.dimension for c in self.components)

    def to_json(self):
        return {"group": repr(self.group),
                "factorization": self.report.to_json(),
                "components": [c.to_json() for c in self.components],
                "totals": {"component_count": self.component_count,
                           "dimension_sum": self.dimension_sum}}


# ---------------------------------------------------------------------------
# small exact matrix helpers (1x1 and 2x2).  Matrices come and go as tuples
# of FieldElt rows; mat_mul and mat_pow unwrap the entries (all from one
# field, as FieldElt arithmetic requires), compute on their reps through the
# field's _add/_mul and wrap only the entries of the result.


def _rep_mul(A, B, F):
    add, mul, cols = F._add, F._mul, range(len(B[0]))
    return [[reduce(add, [mul(a, B[k][j]) for k, a in enumerate(row)]) for j in cols]
            for row in A]


def _unwrap(F, M):
    if any(z.field is not F for row in M for z in row):
        raise TypeError("mixed-field arithmetic")
    return [[z.rep for z in row] for row in M]


def _wrap(F, M):
    return tuple(tuple(FieldElt(F, z) for z in row) for row in M)


def mat_mul(A, B):
    F = A[0][0].field
    return _wrap(F, _rep_mul(_unwrap(F, A), _unwrap(F, B), F))


def mat_pow(A, e):
    F = A[0][0].field
    one = _unwrap(F, mat_identity(F, len(A)))
    return _wrap(F, _power(_unwrap(F, A), e, one, lambda X, Y: _rep_mul(X, Y, F)))


def mat_identity(field, n):
    return tuple(tuple(field.one if i == j else field.zero for j in range(n))
                 for i in range(n))


def mat_inv(A):
    (a, b), (c, d) = A
    det = a * d - b * c
    di = det.inverse()
    return ((d * di, -b * di), (-c * di, a * di))


def component_matrices_check(component, g):
    """True iff the generator images define a representation of g with
    entries in the declared degree-m subfield of their field K.

    Membership is z^(q^m) = z, tested only when the subfield is proper;
    an m that does not divide [K:F_q] fails.
    """
    X, Y = component.image_x, component.image_y
    field = X[0][0].field
    size = len(X)
    if size != component.l:
        return False
    Xn = mat_pow(X, g.n)
    if mat_pow(Xn, g.N // g.n) != mat_identity(field, size) or mat_mul(Y, Y) != Xn:
        return False
    if mat_mul(X, Y) != mat_mul(Y, mat_pow(X, g.s)):
        return False
    # the entries lie in the one field K that mat_mul accepted
    bound = g.q ** component.m
    if field.order == bound:  # m = [K:F_q]: K is the subfield
        return True
    # a proper subfield needs m | [K:F_q], that is q^m - 1 | |K| - 1
    return ((field.order - 1) % (bound - 1) == 0
            and all(z ** bound == z for row in X + Y for z in row))


def _checked(component, g):
    if not component_matrices_check(component, g):
        raise AssertionError(
            f"internal: component at position {component.source.position} failed its checks")
    return component


# ---------------------------------------------------------------------------
# per-factor constructions


def _abelian(g, pos, fac, F):
    """Components of K_f[y]/(y^2 - xi^n) for f | x^d - 1, either kind.

    The quotient splits exactly when xi^n is a square in K_f; the two
    roots give the y-images, +-1 for the split kind, where xi^n = 1.
    Otherwise it is the quadratic extension, one component with m doubled.
    xi has order l, so xi^n is xi^(n mod l).
    """
    K = ext_field(F, fac.poly.coeffs)
    theta = K.gen
    target = theta ** (g.n % fac.root_order)
    try:
        root = sqrt_in_field(target)
    except NoSquareRoot:
        root = None
    if root is not None:
        out = []
        for val, tag in ((root, "psi+"), (-root, "psi-")):
            src = ComponentSource(ABELIAN_PART, pos, None, fac.root_order, tag)
            out.append(_checked(WedderburnComponent(
                1, fac.degree, 1, src, ((theta,),), ((val,),)), g))
        return out
    # y generates a quadratic extension over K_f
    E = ext_field(K, (-target, K.zero, K.one))
    src = ComponentSource(ABELIAN_PART, pos, None, fac.root_order, "quad")
    comp = WedderburnComponent(1, 2 * fac.degree, 1, src,
                               ((E.lift(theta),),), ((E.gen,),))
    return [_checked(comp, g)]


def _plain_images(g, K):
    """x -> diag(xi, xi^s), y -> [[0, xi^n], [1, 0]] over K = F_q(xi)."""
    xi = K.gen
    return ((xi, K.zero), (K.zero, xi ** g.s)), ((K.zero, xi ** g.n), (K.one, K.zero))


def _pair_component(g, pos, fac, F):
    """M_2(K_f) for a swapped pair {f, f*}: the plain images, x diagonal
    and y antidiagonal."""
    K = ext_field(F, fac.poly.coeffs)
    X, Y = _plain_images(g, K)
    tag = "tau-pair" if Y[0][1] == K.one else "omega-pair"
    src = ComponentSource(PAIR, pos, fac.partner, fac.root_order, tag)
    return [_checked(WedderburnComponent(2, fac.degree, 1, src, X, Y), g)]


@lru_cache(maxsize=None)
def theta_frame_scale(g, fac, F):
    """The ratio r = b/a of the theta frame's Z = [[a, b], [-xi a, -xi^s b]]
    on the x^n + 1 side when q = 3 mod 4 and deg(f)/2 is odd.

    Entries of the conjugated matrices land in the half field exactly
    when r has norm -1 there, so r is built to have norm -1: take
    iterated square roots of xi down to the full 2-power depth the field
    allows, then solve a linear congruence on the exponent.  Square
    roots pick the lexicographically smaller of the two choices, so the
    result is deterministic.  Independent of s.  Cached: the interpolated
    non-central pair builds the same frame again.
    """
    K = ext_field(F, fac.poly.coeffs)
    xi = K.gen
    depth = padic_valuation(g.q + 1, 2) - padic_valuation(g.n, 2)
    if depth < 0:
        raise AssertionError("theta frame needs the 2-part of n to fit in q + 1")
    theta = xi
    for _ in range(depth):
        theta = sqrt_in_field(theta)
    L = fac.root_order << depth
    if not has_order(lambda k: theta ** k, L, K.one):
        raise AssertionError("theta's order is not l * 2^depth")
    half = g.q ** (fac.degree // 2)
    A = 1 + half
    g0 = gcd(A, L)
    if (L // 2) % g0:
        raise AssertionError
    t = (L // 2 // g0) * pow(A // g0, -1, L // g0) % (L // g0)
    r = theta ** t
    if r * r ** half != -K.one:
        raise AssertionError
    return r


def route(g, fac):
    """The route to the 2x2 component of a self-involutive factor f away
    from x^d - 1 and to its non-central pair, frame name first: the first
    line whose condition holds.

      sigma-tau                     xi^n = 1 (every split-kind factor)
      eta-omega, sqrt(-1) in F_q    q = 1 mod 4
      eta-omega, xi^{n/2}           the 2-part of n beyond that of q + 1,
                                    which forces 4 | deg f and s = 1 mod 4
      eta-omega by interpolation    4 | deg f
      theta-omega by interpolation  otherwise
    """
    if g.n % fac.root_order == 0:
        return "sigma-tau"
    if g.q % 4 == 1:
        return "eta-omega, sqrt(-1) in F_q"
    if padic_valuation(g.n, 2) > padic_valuation(g.q + 1, 2):
        return "eta-omega, xi^{n/2}"
    if fac.degree % 4 == 0:
        return "eta-omega by interpolation"
    return "theta-omega by interpolation"


def frame(g, fac, beta=None):
    """(tag, W) for the 2x2 component of a self-involutive factor f away
    from x^d - 1, in the frame route names: the component is
    u -> W^{-1} u W on the plain images.

      sigma-tau    W = [[1, -xi], [1, -xi^s]]
      eta-omega    W = [[-xi^s, beta], [beta xi, 1]] with beta^2 = -1 in the
                   half field, the canonical square root unless beta is given
      theta-omega  W = Z^{-1}, Z = [[1, r], [-xi, -xi^s r]], r from theta_frame_scale
    """
    F = fac.poly.field
    K = ext_field(F, fac.poly.coeffs)
    xi = K.gen
    xis = xi ** g.s
    way = route(g, fac)
    if way == "sigma-tau":
        return "sigma-tau", ((K.one, -xi), (K.one, -xis))
    if way.startswith("eta-omega"):
        if beta is None:
            beta = sqrt_in_field(-K.one)
        if beta * beta != -K.one:
            raise AssertionError
        if beta ** (g.q ** (fac.degree // 2)) != beta:
            raise AssertionError("sqrt(-1) missed the half field")
        return "eta-omega", ((-xis, beta), (beta * xi, K.one))
    r = theta_frame_scale(g, fac, F)
    return "theta-omega", mat_inv(((K.one, r), (-xi, -xis * r)))


def _self_involutive(g, pos, fac, F):
    """M_2 over the half field for a self-involutive f away from x^d - 1:
    the plain images conjugated into the factor's frame, with the entries
    asserted to drop into the half field by _checked."""
    K = ext_field(F, fac.poly.coeffs)
    xi = K.gen
    xis = xi ** g.s
    tag, W = frame(g, fac)
    Wi = mat_inv(W)
    X, Y = (mat_mul(mat_mul(Wi, M), W) for M in _plain_images(g, K))
    # the closed forms these must match
    if tag == "sigma-tau":
        assert X == ((K.zero, xi ** (g.s + 1)), (-K.one, xi + xis))
        assert Y == ((K.one, -(xi + xis)), (K.zero, -K.one))
    elif tag == "eta-omega":
        beta = W[0][1]
        assert X == ((K.zero, beta), (beta * xi ** (g.s + 1), xi + xis))
        assert Y == ((-beta, K.zero), (-(xi + xis), beta))
    src = ComponentSource(SELF_INVOLUTIVE, pos, None, fac.root_order, tag)
    return [_checked(WedderburnComponent(2, fac.degree // 2, 1, src, X, Y), g)]


# ---------------------------------------------------------------------------


def decompose(g):
    """The simple components of F_qG, one construction per kind of factor
    of x^N - 1; the same constructions serve both kinds of group."""
    p, a = split_prime_power(g.q)
    F = make_field(p, a)
    report = classify(F, g.N, g.s)
    comps = []
    for pos, fac in enumerate(report.factors):
        if fac.divides_x_d_minus_1:
            comps.extend(_abelian(g, pos, fac, F))
        elif fac.self_involutive:
            comps.extend(_self_involutive(g, pos, fac, F))
        elif fac.partner > pos:
            comps.extend(_pair_component(g, pos, fac, F))
    dec = Decomposition(g, report, tuple(comps))
    if dec.dimension_sum != g.order:
        raise AssertionError(f"internal: dimension audit {dec.dimension_sum} != {g.order}")
    return dec
