"""End-to-end acceptance checks, one cluster per headline guarantee.

Battery-backed tests read the session fixture (every valid instance with
n <= 24 and q in {3, 5, 7, 9, 11, 13}, each graded against the
brute-force oracle) and insist that an entire check class passed, then
redo the claim directly on fresh instances so nothing rests on the
battery plumbing alone.  The field-degree tests recompute extension
degrees from raw Frobenius orbits in F_q[x]/(f) instead of trusting the
library's own degree bookkeeping.
"""

import json
from math import gcd, lcm

from perfbench.checks import check_factor, check_sweep_report
from wedderburn import cli
from wedderburn.battery import perlis_walker_degrees
from wedderburn.cyclotomic import (
    NotCoprimeNQ,
    classify,
    symmetric_generator_power,
    two_adic_steps_by_valuation,
    two_adic_tower,
)
from wedderburn.decompose import decompose
from wedderburn.fields import make_field, ord_mod, padic_valuation, split_prime_power
from wedderburn.groups import NONSPLIT, SPLIT, make_group
from wedderburn.idempotents import (
    complete_idempotent_set,
    noncentral_pair,
    noncentral_via_interpolation,
)
from wedderburn.oracle import (
    algebra_for,
    are_orthogonal,
    center_dimension,
    component_count,
    is_central,
    is_idempotent,
    sums_to_one,
)
from wedderburn.polys import Poly, powmod


def _status(report, check):
    return dict(report.checks)[check]


def _field(q):
    return make_field(*split_prime_power(q))


# ---------------------------------------------------------------------------
# 1. dimension audit


def test_dimension_sum_is_group_order_on_every_instance(battery_result):
    """Sum of l^2 * m over the components equals |G| exactly, on every
    battery instance."""
    reports = battery_result.reports
    assert len(reports) >= 150
    bad = [rep.key for rep in reports if _status(rep, "dimension") != "pass"]
    assert bad == []


def test_dimension_sum_recomputed_from_scratch():
    """The same audit straight from decompose() on one instance of each
    flavor, summed by hand here rather than through the report object."""
    for kind, n, s, q in ((SPLIT, 12, 5, 7), (SPLIT, 8, 3, 3),
                          (NONSPLIT, 6, 5, 5), (NONSPLIT, 9, 17, 7)):
        g = make_group(kind, n, s, q)
        total = sum(c.l * c.l * c.m * c.multiplicity
                    for c in decompose(g).components)
        assert total == g.order


# ---------------------------------------------------------------------------
# 2. component count against the center


def test_component_count_and_center_dimension(battery_result):
    """Component count equals the count the oracle reads off its center
    (the fixed space of the p-power map), and the sum of the m's equals
    the center dimension, on every battery instance."""
    bad = [rep.key for rep in battery_result.reports
           if _status(rep, "component-count") != "pass"]
    assert bad == []


def test_every_report_passes_the_independent_sweep_check(battery_result):
    """perfbench.checks shares no code with wedderburn: it counts F_q-classes
    and conjugacy classes from the presentation alone, and reads every
    report's component count, center dimension and shapes against them."""
    problems = [problem for rep in battery_result.reports
                for problem in check_sweep_report(rep.to_json())]
    assert problems == []


def test_factor_passes_the_independent_check_on_the_battery_grid(battery_keys, capsys):
    """`factor --format json` on every (q, N) of the battery, each under its
    largest twist s, against perfbench.checks.check_factor: the q-cyclotomic
    cosets, monic factors of the coset degrees, the s-action on each coset,
    and sympy's factors (prime q) or the product of the factors (F_9)."""
    pick = {}
    for kind, n, s, q in battery_keys:
        N = n if kind == SPLIT else 2 * n
        if (q, N) not in pick or s > pick[q, N][2]:
            pick[q, N] = (kind, n, s)
    assert len(pick) == 176
    problems = []
    for (q, N), (kind, n, s) in pick.items():
        argv = ["factor", "--q", str(q), "--group", f"{kind}:n={n},s={s}", "--format", "json"]
        assert cli.main(argv) == cli.EXIT_OK
        problems += check_factor(q, N, s, json.loads(capsys.readouterr().out))
    assert problems == []


def test_component_count_recomputed_from_scratch():
    # dihedral of order 10 over F_3: 2 linear components and one
    # M_2(F_9), so 3 components but a 4-dimensional center
    g = make_group(SPLIT, 5, 4, 3)
    A = algebra_for(g)
    dec = decompose(g)
    assert dec.component_count == component_count(A) == 3
    assert sum(c.m * c.multiplicity for c in dec.components) == 4
    assert center_dimension(A) == 4


# ---------------------------------------------------------------------------
# 3. central primitive idempotents


def test_central_idempotents_complete_on_every_instance(battery_result):
    """Pairwise orthogonal, each idempotent, each central, summing to 1,
    one per component, under brute-force multiplication on every
    battery instance."""
    bad = [rep.key for rep in battery_result.reports
           if _status(rep, "central-idempotents") != "pass"]
    assert bad == []


def test_central_idempotents_verified_inline():
    """The full verification spelled out once, on the dihedral group of
    order 12 over F_5."""
    g = make_group(SPLIT, 6, 5, 5)
    ids = complete_idempotent_set(g, decompose(g))
    elements = [entry.element for entry in ids.centrals()]
    assert len(elements) == 6
    assert sums_to_one(elements)
    for i, u in enumerate(elements):
        assert is_idempotent(u)
        assert is_central(u)
        for v in elements[i + 1:]:
            assert are_orthogonal(u, v)


# ---------------------------------------------------------------------------
# 4. non-central orthogonal pairs


def test_noncentral_pairs_on_every_instance(battery_result):
    """Every 2x2 component splits into a non-central orthogonal pair of
    idempotents summing to its central one; on instances where a closed
    form applies, the CRT interpolation route must reproduce the exact
    same pair (the battery runs with that cross-check enabled)."""
    bad = [rep.key for rep in battery_result.reports
           if _status(rep, "noncentral-splittings") != "pass"]
    assert bad == []


def test_noncentral_pair_verified_inline():
    g = make_group(SPLIT, 4, 3, 3)
    rep = classify(_field(3), 4, 3)
    pos, fac = next((i, fac) for i, fac in enumerate(rep.factors)
                    if fac.self_involutive and not fac.divides_x_d_minus_1)
    e1, e2 = noncentral_pair(fac.poly, g)
    assert is_idempotent(e1) and is_idempotent(e2)
    assert are_orthogonal(e1, e2)
    assert not is_central(e1) and not is_central(e2)
    dec = decompose(g)
    cents = complete_idempotent_set(g, dec).centrals()
    parent = next(cents[i].element for i, c in enumerate(dec.components)
                  if c.l == 2)
    assert e1 + e2 == parent
    assert noncentral_via_interpolation(g, pos) == (e1, e2)


# ---------------------------------------------------------------------------
# 5. the two pinned groups of order 8


def test_pinned_dihedral_of_order_8():
    """F_3 x dihedral of order 8: four 1x1 components plus one M_2(F_3);
    the 2x2 block's central idempotent is the algebra element x^2 - 1
    and one of its non-central halves is (x^2 - 1)(2 - y)."""
    g = make_group(SPLIT, 4, 3, 3)
    F = _field(3)
    dec = decompose(g)
    shapes = sorted((c.l, c.m) for c in dec.components)
    assert shapes == [(1, 1), (1, 1), (1, 1), (1, 1), (2, 1)]
    assert all(c.multiplicity == 1 for c in dec.components)

    ids = complete_idempotent_set(g, dec, include_noncentral=True)
    cents = ids.centrals()
    assert [e.label for e in cents] == ["z0", "z1", "z2", "z3", "z4"]

    A = algebra_for(g)
    x_sq_minus_1 = A.from_polys(Poly.from_ints(F, (2, 0, 1)), Poly.zero(F))
    two_by_two = next(i for i, c in enumerate(dec.components) if c.l == 2)
    assert cents[two_by_two].element == x_sq_minus_1

    halves = {e.element for e in ids.noncentrals()}
    assert len(halves) == 2
    two_minus_y = A.from_polys(Poly.from_ints(F, (2,)), Poly.from_ints(F, (2,)))
    assert x_sq_minus_1 * two_minus_y in halves

    elements = [e.element for e in cents]
    assert sums_to_one(elements)
    assert all(is_idempotent(u) and is_central(u) for u in elements)


def test_pinned_quaternion_of_order_8():
    """F_3 x quaternion of order 8: the derived subgroup is {1, x^2} and
    the quotient is a Klein four-group, so over any odd-characteristic
    field there are exactly four linear components, plus the 2x2 block
    carrying the faithful representation: five components and five
    central primitive idempotents, matching the brute-force center
    dimension of five."""
    g = make_group(NONSPLIT, 2, 3, 3)
    dec = decompose(g)
    shapes = sorted((c.l, c.m) for c in dec.components)
    assert shapes == [(1, 1), (1, 1), (1, 1), (1, 1), (2, 1)]

    A = algebra_for(g)
    assert center_dimension(A) == 5
    assert component_count(A) == 5

    cents = complete_idempotent_set(g, dec).centrals()
    assert len(cents) == 5
    elements = [e.element for e in cents]
    assert sums_to_one(elements)
    assert all(is_idempotent(u) and is_central(u) for u in elements)


# ---------------------------------------------------------------------------
# explicit generator images (backs the pinned-shape guarantee above)


def test_generator_images_satisfy_relations_on_every_instance(battery_result):
    """The stored 1x1/2x2 images of x and y honor the defining relations
    and live in the declared degree-m subfield, on every instance."""
    bad = [rep.key for rep in battery_result.reports
           if _status(rep, "matrix-relations") != "pass"]
    assert bad == []


# ---------------------------------------------------------------------------
# 6. field-tower degrees


def test_symmetric_subfield_has_index_two_on_every_eligible_factor(battery_keys):
    """For every self-involutive factor f away from x^d - 1 anywhere in
    the battery, the subfield of F_q[x]/(f) generated by xi + xi^s and
    xi^(s+1) (xi the class of x) has degree deg(f)/2, so the full field
    sits quadratically over it.  Degrees come from raw Frobenius orbits
    computed by modular exponentiation, nothing else."""
    triples = sorted({(n if kind == SPLIT else 2 * n, q,
                       s % (n if kind == SPLIT else 2 * n))
                      for kind, n, s, q in battery_keys})
    checked = 0
    for N, q, s in triples:
        F = _field(q)
        rep = classify(F, N, s)
        x = Poly.x(F)
        for fac in rep.factors:
            if not fac.self_involutive or fac.divides_x_d_minus_1:
                continue
            f, deg = fac.poly, fac.degree
            assert deg % 2 == 0

            def orbit(z):
                t = powmod(z, q, f)
                k = 1
                while t != z:
                    t = powmod(t, q, f)
                    k += 1
                    assert k <= deg
                return k

            a = (x + powmod(x, s, f)) % f
            b = powmod(x, s + 1, f)
            assert orbit(x % f) == deg
            assert lcm(orbit(a), orbit(b)) == deg // 2, (N, q, s, fac.coset)
            checked += 1
    assert checked >= 500


def _odd_part_order_valuation(n, q):
    """e = v2(ord_w(q)) for the odd part w of n; 0 when w = 1.

    The hypothesis of the paper's 2-adic rules is e = 0.  Computed from
    ord_mod and padic_valuation alone, never from the functions under
    test.
    """
    w = n >> padic_valuation(n, 2)
    return padic_valuation(ord_mod(q, w), 2)


def test_two_adic_step_pattern_matches_valuation_rule():
    """For q = 3 mod 4 the step-degree sequence down the 2-power tower
    of roots of unity is stated to follow from the valuations alone: a
    final step of 2 preceded by 2s in exactly the top v2(n) - v2(q+1)
    slots.

    Writing n = 2^v * w with w odd, the rule holds for odd n (both
    sides are empty) and, for even n, exactly when e = v2(ord_w(q)) = 0.
    When ord_w(q) is even, F_q(zeta_w) already contains F_{q^2} and
    with it the 4th roots of unity, so the final halving collects no
    degree and the last step is 1, not 2.  By hand,
    n = 24, q = 11: the orders of 11 mod 48, 24, 12, 6 are 4, 2, 2, 2,
    so the tower is [2, 1, 1] where the rule says [2, 1, 2].  That
    instance and the iff are pinned in test_cyclotomic.py, so scoping
    this check to e = 0 hides nothing.

    Compared against the tower computed from actual multiplicative
    orders on every e = 0 pair with n <= 24, q in {3, 7, 11} (32 of the
    59 coprime pairs).  The slice must reach both branches of the rule,
    v <= v2(q + 1) and v > v2(q + 1), for every q."""
    mismatches = []
    checked = 0
    branches = set()
    for q in (3, 7, 11):
        c = padic_valuation(q + 1, 2)
        for n in range(1, 25):
            try:
                tower = two_adic_tower(n, q)
            except NotCoprimeNQ:
                continue
            if _odd_part_order_valuation(n, q) != 0:
                continue
            checked += 1
            v = padic_valuation(n, 2)
            if v:
                branches.add((q, v > c))
            stated = two_adic_steps_by_valuation(n, q)
            if tower != stated:
                mismatches.append((n, q, stated, tower))
    assert mismatches == []
    assert checked == 32
    assert branches == {(q, high) for q in (3, 7, 11) for high in (False, True)}


def test_symmetric_subfield_generator_power_identification():
    """The symmetric subfield F_q(xi + xi^-1) of the 2n-th roots of
    unity, q = 3 mod 4, is stated to be F_q(xi^k) for k = 2^v2(n) or 2
    by case.  The named field's degree is ord_{2n/k}(q); the symmetric
    subfield's true degree is ord_{2n}(q) / 2 by the index-two property
    checked above.

    Writing n = 2^v * w with w odd, the identification holds when
    e = v2(ord_w(q)) = 0, the hypothesis of the valuation rule above.
    Outside it the named field can be strictly larger.  By hand,
    n = 10, q = 3: k = 2, the named degree is ord_10(3) = 4 and the
    symmetric degree is ord_20(3) / 2 = 2.  That instance is pinned in
    test_cyclotomic.py, so scoping the equality to e = 0 hides nothing.
    What holds on every pair is containment: F_q(xi^k) contains the
    symmetric subfield, i.e. the true degree divides the named one.

    Checked for every even n <= 24, q in {3, 7, 11}: containment on all
    30 pairs, equality on the 20 pairs with e = 0, which reach both
    cases of k for every q."""
    not_containing = []
    not_equal = []
    scoped = 0
    branches = set()
    for q in (3, 7, 11):
        c = padic_valuation(q + 1, 2)
        for n in range(2, 25, 2):
            if gcd(q, 2 * n) != 1:
                continue
            k = symmetric_generator_power(n, q)
            named = ord_mod(q, (2 * n) // k)
            true = ord_mod(q, 2 * n) // 2
            if named % true != 0:
                not_containing.append((n, q, k, named, true))
            if _odd_part_order_valuation(n, q) != 0:
                continue
            scoped += 1
            branches.add((q, padic_valuation(n, 2) > c))
            if named != true:
                not_equal.append((n, q, k, named, true))
    assert not_containing == []
    assert not_equal == []
    assert scoped == 20
    assert branches == {(q, high) for q in (3, 7, 11) for high in (False, True)}


# ---------------------------------------------------------------------------
# 7. valuation identities for a^k - 1


def test_lifting_the_exponent_identities_exhaustively():
    """nu_p(a^k - 1) for 2 <= a <= 20, 1 <= k <= 10: for odd p | a - 1
    it is nu_p(a - 1) + nu_p(k); for p = 2 and odd a it is nu_2(a - 1)
    when k is odd and nu_2(a - 1) + nu_2(a + 1) + nu_2(k) - 1 when k is
    even."""
    for a in range(2, 21):
        for k in range(1, 11):
            for p in (3, 5, 7):
                if (a - 1) % p == 0:
                    assert padic_valuation(a ** k - 1, p) == \
                        padic_valuation(a - 1, p) + padic_valuation(k, p)
            if a % 2 == 1:
                v = padic_valuation(a ** k - 1, 2)
                if k % 2 == 1:
                    assert v == padic_valuation(a - 1, 2)
                else:
                    assert v == (padic_valuation(a - 1, 2)
                                 + padic_valuation(a + 1, 2)
                                 + padic_valuation(k, 2) - 1)


# ---------------------------------------------------------------------------
# 8. abelian-part census


def test_abelian_component_census_on_every_instance(battery_result):
    """The multiset of m's over the 1x1 components equals the
    order-census count computed independently on the abelianization
    (elements of order k come in batches of ord_k(q), one component
    each), on every battery instance."""
    bad = [rep.key for rep in battery_result.reports
           if _status(rep, "perlis-walker") != "pass"]
    assert bad == []


def test_abelian_component_census_by_hand():
    """C_10 x C_2 over F_3, counted on paper: one element of order 1,
    three of order 2, four of order 5, twelve of order 10, and
    ord_5(3) = ord_10(3) = 4, giving degrees 1,1,1,1,4,4,4,4."""
    g = make_group(SPLIT, 10, 1, 3)
    dec = decompose(g)
    assert all(c.l == 1 for c in dec.components)
    degrees = sorted(c.m for c in dec.components)
    assert degrees == [1, 1, 1, 1, 4, 4, 4, 4]
    assert degrees == perlis_walker_degrees(g)


# ---------------------------------------------------------------------------
# 9. self-involutivity criterion


def test_involutivity_criterion_agreement_on_every_instance(battery_result):
    """On every even-degree factor in the battery, closure of the coset
    under multiplication by s agrees with the congruence test
    s = 1 or q^(deg/2) mod root-order."""
    bad = [rep.key for rep in battery_result.reports
           if _status(rep, "involutivity-criterion") != "pass"]
    assert bad == []


def test_involutivity_criterion_transcribed_directly():
    N, s, q = 16, 7, 7
    rep = classify(_field(q), N, s)
    seen_even = 0
    for fac in rep.factors:
        if fac.degree % 2:
            continue
        seen_even += 1
        closed = sorted(c * s % N for c in fac.coset) == sorted(fac.coset)
        l = fac.root_order
        congruent = s % l == 1 % l or (s - q ** (fac.degree // 2)) % l == 0
        assert closed == congruent == fac.self_involutive
    assert seen_even >= 2
