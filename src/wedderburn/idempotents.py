"""Central primitive idempotents and their non-central splittings.

The central set is produced one entry per Wedderburn component, in the
component order of the decomposition, so counts and labels line up.
For each 2x2 component the central idempotent splits further into two
orthogonal non-central idempotents.  Every one of them is the factor
idempotent e_f times an element P(x) + Q(x) y, built by _pair: (P, Q)
comes from a closed form where one exists, and where it does not from
the matrix unit E11 carried through the component's conjugation frame
and lifted through e_f.  noncentral_pair takes the one that
decompose.route names from the factor alone (xi^n = 1 or not, then q mod
4, the 2-parts and deg f), so one entry point serves both kinds of group.

Every constructed element is run through the table-based oracle before
it is returned: idempotency, orthogonality, centrality or the lack of
it, and the relevant sums.  Second members of pairs are always defined
by subtraction from the parent, never from a printed formula.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .cyclotomic import classify
from .decompose import ABELIAN_PART, PAIR, frame, mat_inv, mat_mul, route
from .fields import ext_field, sqrt_in_field
from .oracle import (algebra_for, check_pair, coefficient_stack, is_central,
                     is_idempotent, products, sums_to_one)
from .polys import (NotInvertible, Poly, ext_gcd, formal_derivative,
                    inverse_mod, is_irreducible, mod_xn_minus_1, powmod,
                    reversed_coeffs, x_power_minus_one)

CENTRAL = "central-primitive"
NONCENTRAL = "non-central-primitive"


class NotIrreducibleFactor(ValueError):
    pass


class PreconditionFactor(ValueError):
    pass


@dataclass(frozen=True)
class IdempotentEntry:
    label: str
    element: object
    kind: str
    parent: Optional[str] = None

    def to_json(self):
        """flat[k] is the coefficient of x^(k mod N) y^(k div N), as its
        F_p digits, low digit first."""
        return {"label": self.label, "kind": self.kind, "parent": self.parent,
                "flat": self.element.coeffs.tolist()}


@dataclass(frozen=True)
class IdempotentSet:
    group: object
    entries: tuple

    def centrals(self):
        return [e for e in self.entries if e.kind == CENTRAL]

    def noncentrals(self):
        return [e for e in self.entries if e.kind == NONCENTRAL]

    def to_json(self):
        return {"group": repr(self.group),
                "entries": [e.to_json() for e in self.entries]}


def _scalar(F, k):
    return F.elt(k) if F.degree == 1 else F.elt([k])


def _x_power(F, k, N):
    """x^k mod x^N - 1."""
    return Poly.from_reps(F, (F.zero.rep,) * (k % N) + (F.one.rep,))


@lru_cache(maxsize=None)
def cyclic_idempotent(f, N):
    """The primitive idempotent of F_q[x]/(x^N - 1) attached to factor f.

    Two independent routes, asserted equal: the derivative/reversal
    closed form -(1/N) * rev(rev(f)') * (x^N - 1)/f, and the Bezout
    route through gcd(f, (x^N - 1)/f) = 1.  Cached per (f, N): every
    group of a family (q, N) shares the factors of x^N - 1, whatever s.
    """
    F = f.field
    if N % F.char == 0:
        raise NotIrreducibleFactor(f"N = {N} not coprime to the characteristic")
    full = x_power_minus_one(F, N)
    h, rem = divmod(full, f)
    if not rem.is_zero() or not is_irreducible(f):
        raise NotIrreducibleFactor(f"{f!r} is not an irreducible factor of x^{N} - 1")
    scale = Poly(F, (-_scalar(F, N).inverse(),))
    # The outer reversal must flip at degree deg(f) - 1 exactly.  The
    # derivative loses its leading term whenever the characteristic
    # divides deg(f), so pad it back out before reversing.
    deriv = formal_derivative(reversed_coeffs(f)).reps
    padded = deriv + (F.zero.rep,) * (f.degree - len(deriv))
    closed = mod_xn_minus_1(scale * Poly.from_reps(F, padded[::-1]) * h, N)
    g, _, v = ext_gcd(f, h % f)   # v = 1/h mod f; the identity stays below deg f
    assert g.is_one()
    bezout = mod_xn_minus_1(v * h, N)
    assert closed == bezout, "the two idempotent constructions disagree"
    assert mod_xn_minus_1(closed * closed, N) == closed
    assert (closed % f).is_one()
    return closed


@lru_cache(maxsize=None)
def _factor_idempotent(group, pos):
    """e_f for the factor at position pos, as an algebra element."""
    A = algebra_for(group)
    report = classify(A.field, group.N, group.s)
    e = cyclic_idempotent(report.factors[pos].poly, group.N)
    return A.from_polys(e, Poly.zero(A.field))


def _locate(report, f):
    for pos, fac in enumerate(report.factors):
        if fac.poly == f:
            return pos
    raise PreconditionFactor(f"{f!r} is not one of the irreducible factors here")


# ---------------------------------------------------------------------------
# central sets


def _verify_central_set(elements):
    A, Z = coefficient_stack(elements)
    if not (products(A, Z, Z) == Z).all():
        raise AssertionError("central candidate is not idempotent")
    if not all(map(is_central, elements)):
        raise AssertionError("central candidate is not central")
    if not sums_to_one(elements):
        raise AssertionError("central idempotents do not sum to 1")


def _central_entries(g, decomposition):
    A = algebra_for(g)
    F = A.field
    report = decomposition.report
    half = Poly(F, (_scalar(F, 2).inverse(),))
    entries = []
    for i, comp in enumerate(decomposition.components):
        pos = comp.source.position
        e_f = _factor_idempotent(g, pos)
        label = f"z{i}"
        if comp.source.kind == ABELIAN_PART and comp.source.frame != "quad":
            # (1 + B(x) y)/2 * e_f with B(theta) the inverse of the y-image
            v = comp.image_y[0][0]
            B = Poly.from_reps(F, v.inverse().rep)
            elt = e_f * A.from_polys(half, half * B)
        elif comp.source.kind == PAIR:
            elt = e_f + _factor_idempotent(g, comp.source.partner)
        else:
            elt = e_f
        entries.append(IdempotentEntry(label, elt, CENTRAL))
    assert len(entries) == decomposition.component_count
    _verify_central_set([e.element for e in entries])
    return entries


def central_idempotents(g, decomposition):
    return IdempotentSet(g, tuple(_central_entries(g, decomposition)))


# ---------------------------------------------------------------------------
# non-central splittings of the 2x2 components


def _ell(g, f):
    """l(x) with (x^{s-1} - 1) l(x) = 1 mod f; existence is a classification
    guarantee for self-involutive factors away from x^d - 1."""
    F = f.field
    base = powmod(Poly.x(F), g.s - 1, f) - Poly.one(F)
    try:
        return inverse_mod(base, f)
    except NotInvertible as exc:
        raise AssertionError(
            f"x^(s-1) - 1 not invertible mod {f!r}; upstream misclassification") from exc


def _pair(g, pos, P, Q):
    """e1 = e_f * (P(x) + Q(x) y) and its complement e2 = e_f - e1, for
    the factor at position pos; the one builder of every non-central pair
    under a self-involutive factor, verified against the oracle."""
    e_f = _factor_idempotent(g, pos)
    e1 = e_f * algebra_for(g).from_polys(P, Q)
    e2 = e_f - e1
    check_pair(e_f, e1, e2, f"f[{pos}]")
    return e1, e2


def noncentral_via_interpolation(g, position):
    """Split the 2x2 component at this factor position with the matrix
    unit E11, carried through the component's conjugation frame and lifted
    through e_f.

    Works for every self-involutive 2x2 component of either kind; this
    is the construction of record on the two routes by interpolation, and
    the cross-check on the others.  The frame is decompose's, with one pin:
    on the xi^{n/2} route the eta frame's square root of -1 is xi^{n/2}
    itself, the convention that closed form corresponds to.

    In the plain generator frame, x -> diag(xi, xi^s) and y -> [[0, xi^n],
    [1, 0]], the element P(x) + Q(x) y has top row (P(xi), xi^n Q(xi)).
    So M = W E11 W^{-1} names P = m11 and Q = xi^n m12 mod f; its bottom
    row must be their conjugates under xi -> xi^s, the Frobenius to the
    half degree.  The unique element with these residues mod f and zero
    residues mod every other factor of x^N - 1 is e_f (P + Q y).
    """
    F = algebra_for(g).field
    fac = classify(F, g.N, g.s).factors[position]
    if fac.divides_x_d_minus_1 or not fac.self_involutive:
        raise PreconditionFactor("no 2x2 component at this position")
    K = ext_field(F, fac.poly.coeffs)
    beta = K.gen ** (g.n // 2) if route(g, fac) == "eta-omega, xi^{n/2}" else None
    _, W = frame(g, fac, beta)
    E11 = ((K.one, K.zero), (K.zero, K.zero))
    (m11, m12), (m21, m22) = mat_mul(mat_mul(W, E11), mat_inv(W))
    q_val = -m12 if g.n % fac.root_order else m12
    e = F.order ** (fac.degree // 2)
    if not (m11 ** e == m22 and q_val ** e == m21):
        raise AssertionError("matrix unit is not Galois-consistent for this factor")
    return _pair(g, position, Poly.from_reps(F, m11.rep), Poly.from_reps(F, q_val.rep))


def _case3_printed_check(g, report, pos, e1, e2, notes):
    """Evaluate the printed closed form for the x^n + 1 side with
    q = 3 mod 4 and small 2-part of n, and report how it compares with
    the interpolated pair."""
    A = algebra_for(g)
    F = A.field
    f = report.factors[pos].poly
    a = mod_xn_minus_1(_ell(g, f) * formal_derivative(f), g.N)
    xs = _x_power(F, g.s, g.N)
    e_f = _factor_idempotent(g, pos)
    cand = e_f * A.from_polys(mod_xn_minus_1(-(a * xs), g.N), a)
    tag = f"factor {f!r}"
    if cand == e1 or cand == e2:
        notes.append(f"printed third-case form matches the interpolated pair ({tag})")
    elif (is_idempotent(cand) and cand * e_f == cand and e_f * cand == cand
          and not is_central(cand)):
        notes.append(f"printed third-case form splits the component "
                     f"in a different frame ({tag})")
    elif is_idempotent(cand):
        notes.append(f"printed third-case form is an idempotent but not "
                     f"a splitting of this component ({tag})")
    else:
        notes.append(f"printed third-case form is not an idempotent ({tag})")


def noncentral_pair(f, g, notes=None):
    """The non-central orthogonal pair under a self-involutive factor f of
    x^N - 1 away from x^d - 1, for either kind of group.

    On the routes of decompose.route:

      sigma-tau           e_f [l(x)(1 - y) + 1] and its complement
      sqrt(-1) in F_q     e_f (l(x) + 1)(1 + B y), B the scalar with B^2 = -1
      xi^{n/2}            e_f (l(x) + 1)(1 + x^{n/2} y), which needs s = 1 mod 4
      by interpolation    noncentral_via_interpolation; the printed closed
                          form is only reported on, via notes
    """
    F = algebra_for(g).field
    report = classify(F, g.N, g.s)
    pos = _locate(report, f)
    fac = report.factors[pos]
    if fac.divides_x_d_minus_1 or not fac.self_involutive:
        raise PreconditionFactor(
            f"{f!r} does not carry a 2x2 component of its own")
    way = route(g, fac)
    if way.endswith("by interpolation"):
        e1, e2 = noncentral_via_interpolation(g, pos)
        if notes is not None:
            _case3_printed_check(g, report, pos, e1, e2, notes)
        return e1, e2
    ell = _ell(g, f)
    ell1 = ell + Poly.one(F)
    if way == "sigma-tau":
        return _pair(g, pos, ell1, -ell)
    if way == "eta-omega, sqrt(-1) in F_q":
        B = Poly(F, (sqrt_in_field(-F.one),))
    elif g.s % 4 != 1:
        raise AssertionError("a 2-part of n beyond q + 1 forces s = 1 mod 4")
    else:
        B = _x_power(F, g.n // 2, g.N)
    return _pair(g, pos, ell1, mod_xn_minus_1(ell1 * B, g.N))


# ---------------------------------------------------------------------------
# the complete set


def complete_idempotent_set(g, decomposition, include_noncentral=False,
                            notes=None):
    """Central primitive idempotents, optionally with every 2x2
    component split into its non-central orthogonal pair.

    Pair components split as (e_f, e_f*) for the two paired factors; the
    self-involutive ones go through noncentral_pair.
    """
    entries = list(_central_entries(g, decomposition))
    if include_noncentral:
        report = decomposition.report
        for i, comp in enumerate(decomposition.components):
            if comp.l != 2:
                continue
            parent = entries[i].label
            pos = comp.source.position
            if comp.source.kind == PAIR:
                pair = (_factor_idempotent(g, pos),
                        _factor_idempotent(g, comp.source.partner))
                check_pair(entries[i].element, *pair, parent)
            else:
                pair = noncentral_pair(report.factors[pos].poly, g, notes=notes)
            entries.append(IdempotentEntry(f"{parent}/1", pair[0], NONCENTRAL, parent))
            entries.append(IdempotentEntry(f"{parent}/2", pair[1], NONCENTRAL, parent))
    return IdempotentSet(g, tuple(entries))
