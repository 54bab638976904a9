"""Central primitive idempotents and the 2x2 components' non-central
orthogonal splittings, checked against the brute-force algebra.
"""

from math import gcd
from types import SimpleNamespace

import pytest

from test_golden import INSTANCES

from wedderburn import idempotents
from wedderburn.cyclotomic import classify, cyclotomic_cosets, factor_xn_minus_1
from wedderburn.decompose import decompose, frame, mat_inv, mat_mul, route
from wedderburn.fields import ext_field, make_field, padic_valuation, split_prime_power
from wedderburn.groups import NONSPLIT, SPLIT, make_group, parse_group
from wedderburn.idempotents import (
    CENTRAL,
    NONCENTRAL,
    NotIrreducibleFactor,
    PreconditionFactor,
    central_idempotents,
    complete_idempotent_set,
    cyclic_idempotent,
    noncentral_pair,
    noncentral_via_interpolation,
)
from wedderburn.oracle import (
    algebra_for,
    are_orthogonal,
    is_central,
    is_idempotent,
    sums_to_one,
)
from wedderburn.polys import Poly, x_power_minus_one

F3 = make_field(3, 1)
D8 = make_group(SPLIT, 4, 3, 3)
Q8 = make_group(NONSPLIT, 2, 3, 3)


def test_cyclic_idempotent_pins():
    e = cyclic_idempotent(Poly.from_ints(F3, (-1, 1)), 2)
    assert e == Poly.from_ints(F3, (2, 2))          # (1+x)/2
    e = cyclic_idempotent(Poly.from_ints(F3, (1, 0, 1)), 4)
    assert e == Poly.from_ints(F3, (2, 0, 1))       # x^2 - 1


def test_cyclic_idempotent_properties():
    for q, N in ((3, 8), (5, 12), (7, 16), (9, 8), (3, 20)):
        F = make_field(*split_prime_power(q))
        full = x_power_minus_one(F, N)
        total = Poly.zero(F)
        for _c, f in factor_xn_minus_1(F, N):
            e = cyclic_idempotent(f, N)
            assert (e * e) % full == e
            assert e % f == Poly.one(F) % f
            cof = full // f
            assert e % cof == Poly.zero(F)
            total = total + e
        assert total == Poly.one(F)


def test_cyclic_idempotent_char_divides_degree():
    # x^14 - 1 over F_3 has degree-6 factors; 6 = 0 mod 3 once cost a
    # dropped leading term in the closed-form derivative
    F = F3
    N = 14
    full = x_power_minus_one(F, N)
    degs = []
    for _c, f in factor_xn_minus_1(F, N):
        e = cyclic_idempotent(f, N)
        assert (e * e) % full == e
        assert e % f == Poly.one(F) % f
        degs.append(f.degree)
    assert 6 in degs


def test_cyclic_idempotent_rejects_non_factors():
    with pytest.raises(NotIrreducibleFactor):
        cyclic_idempotent(Poly.from_ints(F3, (2, 0, 1)), 4)   # x^2-1 reducible
    with pytest.raises(NotIrreducibleFactor):
        cyclic_idempotent(Poly.from_ints(F3, (1, 1, 1)), 4)   # not a factor
    with pytest.raises(NotIrreducibleFactor):
        cyclic_idempotent(Poly.from_ints(F3, (-1, 1)), 6)     # 3 | 6


def test_d8_central_set():
    D = decompose(D8)
    ids = central_idempotents(D8, D)
    assert [e.label for e in ids.entries] == ["z0", "z1", "z2", "z3", "z4"]
    assert all(e.kind == CENTRAL for e in ids.entries)
    A = algebra_for(D8)
    elems = [e.element for e in ids.entries]
    assert sums_to_one(elems)
    for u in elems:
        assert is_idempotent(u) and is_central(u)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            assert are_orthogonal(elems[i], elems[j])
    # the 2x2 component's idempotent is x^2 - 1
    F = A.field
    assert elems[4] == A.from_polys(Poly.from_ints(F, (2, 0, 1)), Poly.zero(F))


def test_q8_central_set():
    D = decompose(Q8)
    ids = central_idempotents(Q8, D)
    assert len(ids.entries) == 5
    elems = [e.element for e in ids.entries]
    assert sums_to_one(elems)
    for u in elems:
        assert is_idempotent(u) and is_central(u)


def test_central_count_matches_components():
    for kind, n, s, q in (
        (SPLIT, 8, 3, 7),
        (SPLIT, 5, 4, 3),
        (NONSPLIT, 2, 3, 5),
        (NONSPLIT, 4, 5, 3),
        (NONSPLIT, 5, 1, 3),
    ):
        g = make_group(kind, n, s, q)
        D = decompose(g)
        ids = central_idempotents(g, D)
        assert len(ids.entries) == D.component_count


def test_noncentral_split_d8_pin():
    f = Poly.from_ints(F3, (1, 0, 1))
    e1, e2 = noncentral_pair(f, D8)
    A = algebra_for(D8)
    F = A.field
    # (x^2-1)(2-y): hand expansion (1+2x^2) + (1+2x^2) y
    want = A.from_polys(Poly.from_ints(F, (1, 0, 2)), Poly.from_ints(F, (1, 0, 2)))
    assert e1 == want
    parent = A.from_polys(Poly.from_ints(F, (2, 0, 1)), Poly.zero(F))
    assert e1 + e2 == parent
    assert is_idempotent(e1) and is_idempotent(e2)
    assert are_orthogonal(e1, e2) and are_orthogonal(e2, e1)
    assert not is_central(e1) and not is_central(e2)


def test_noncentral_split_rejects_wrong_factors():
    with pytest.raises(PreconditionFactor):
        noncentral_pair(Poly.from_ints(F3, (-1, 1)), D8)  # x-1 sits on x^d-1
    g = make_group(SPLIT, 5, 4, 11)
    F11 = make_field(11, 1)
    rep = classify(F11, 5, 4)
    moved = next(f for f in rep.factors if f.partner is not None)
    with pytest.raises(PreconditionFactor):
        noncentral_pair(moved.poly, g)


def test_noncentral_split_matches_interpolation():
    e1, e2 = noncentral_pair(Poly.from_ints(F3, (1, 0, 1)), D8)
    assert noncentral_via_interpolation(D8, 2) == (e1, e2)


def test_interpolated_pair_has_the_matrix_unit_residues(monkeypatch):
    # e1 = P + Q y must reduce to (m11, xi^n m12) mod its own factor f and to
    # zero mod every other factor of x^N - 1, where M = W E11 W^{-1} over
    # K = F_q[x]/(f) in the frame W that the construction used
    frames = []

    def recorded_frame(g, fac, beta=None):
        tag, W = frame(g, fac, beta)
        frames.append(W)
        return tag, W

    monkeypatch.setattr(idempotents, "frame", recorded_frame)
    checked = set()
    for q, grp in INSTANCES:
        g = make_group(*parse_group(grp), q)
        F = make_field(*split_prime_power(q))
        rep = classify(F, g.N, g.s)
        for pos, fac in enumerate(rep.factors):
            if fac.divides_x_d_minus_1 or not fac.self_involutive:
                continue
            P, Q = noncentral_via_interpolation(g, pos)[0].to_polys()
            K, W = ext_field(F, fac.poly.coeffs), frames.pop()
            (m11, m12), _ = mat_mul(mat_mul(W, ((K.one, K.zero), (K.zero, K.zero))),
                                    mat_inv(W))
            q_val = -m12 if g.n % fac.root_order else m12
            for other, h in enumerate(rep.factors):
                want = ((Poly.from_reps(F, m11.rep), Poly.from_reps(F, q_val.rep))
                        if other == pos else (Poly.zero(F), Poly.zero(F)))
                assert (P % h.poly, Q % h.poly) == want, (grp, q, pos, other)
            checked.add(q)
    assert {3, 5, 7, 9, 11} <= checked  # the q = 13 groups have no such factor


def test_interpolation_rejects_a_galois_inconsistent_matrix_unit(monkeypatch):
    # in the identity frame E11 = diag(1, 0) has m11 = 1 but m22 = 0, which is
    # not its conjugate under xi -> xi^s
    def identity_frame(g, fac, beta=None):
        K = ext_field(fac.poly.field, fac.poly.coeffs)
        return "sigma-tau", ((K.one, K.zero), (K.zero, K.one))

    monkeypatch.setattr(idempotents, "frame", identity_frame)
    with pytest.raises(AssertionError, match="Galois"):
        noncentral_via_interpolation(D8, 2)


def test_noncentral_nonsplit_q8():
    rep = classify(F3, 4, 3)
    pos = next(i for i, f in enumerate(rep.factors) if not f.divides_x_d_minus_1)
    notes = []
    e1, e2 = noncentral_pair(rep.factors[pos].poly, Q8, notes=notes)
    A = algebra_for(Q8)
    assert is_idempotent(e1) and is_idempotent(e2)
    assert are_orthogonal(e1, e2)
    assert not is_central(e1)
    parent = A.from_polys(cyclic_idempotent(rep.factors[pos].poly, 4), Poly.zero(A.field))
    assert e1 + e2 == parent
    # the printed closed form for this case is not even idempotent here;
    # the construction of record is the interpolation in the theta frame
    assert any("not an idempotent" in note for note in notes)


def test_noncentral_nonsplit_printed_form_other_frame_instance():
    g = make_group(NONSPLIT, 4, 3, 3)
    rep = classify(F3, 8, 3)
    pos = next(
        i for i, f in enumerate(rep.factors)
        if f.self_involutive and not f.divides_x_d_minus_1 and g.n % f.root_order != 0
    )
    notes = []
    e1, e2 = noncentral_pair(rep.factors[pos].poly, g, notes=notes)
    assert is_idempotent(e1) and are_orthogonal(e1, e2)
    assert any("different frame" in note for note in notes)


def test_noncentral_nonsplit_beta_formula_case():
    # q = 1 mod 4: the closed form with beta = sqrt(-1) applies and must
    # agree with frame interpolation
    g = make_group(NONSPLIT, 4, 5, 5)
    F5 = make_field(5, 1)
    rep = classify(F5, 8, 5)
    pos = next(
        i for i, f in enumerate(rep.factors)
        if f.self_involutive and not f.divides_x_d_minus_1
    )
    pair = noncentral_pair(rep.factors[pos].poly, g)
    assert noncentral_via_interpolation(g, pos) == pair
    for e in pair:
        assert is_idempotent(e) and not is_central(e)


def test_noncentral_nonsplit_xn_half_formula_case():
    # q = 3 mod 4, v2(n) > v2(q+1), s = 1 mod 4: the x^{n/2} closed form.
    # Interpolation in the eta frame with sqrt(-1) = xi^{n/2} gives the
    # same pair in the same order; the canonical square root has the other
    # sign on some factors at q = 11, n = 24, and swaps the pair there.
    for n, s, q in ((8, 9, 3), (24, 25, 11), (24, 41, 11)):
        g = make_group(NONSPLIT, n, s, q)
        rep = classify(make_field(q, 1), 2 * n, s)
        positions = [
            i for i, f in enumerate(rep.factors)
            if f.self_involutive and not f.divides_x_d_minus_1 and n % f.root_order
        ]
        assert positions
        for pos in positions:
            pair = noncentral_pair(rep.factors[pos].poly, g)
            assert noncentral_via_interpolation(g, pos) == pair, (n, s, q, pos)


def test_noncentral_pair_on_the_xn_minus_1_side_of_a_nonsplit_group():
    # a self-involutive factor away from x^d - 1 whose root has xi^n = 1:
    # the split-style form e_f [l(1 - y) + 1] in the sigma-tau frame, equal
    # in order to the interpolated pair
    for n, s, q in ((4, 3, 3), (12, 11, 5)):
        g = make_group(NONSPLIT, n, s, q)
        rep = classify(make_field(q, 1), 2 * n, s)
        positions = [
            i for i, f in enumerate(rep.factors)
            if f.self_involutive and not f.divides_x_d_minus_1 and n % f.root_order == 0
        ]
        assert positions
        for pos in positions:
            assert frame(g, rep.factors[pos])[0] == "sigma-tau"
            pair = noncentral_pair(rep.factors[pos].poly, g)
            assert noncentral_via_interpolation(g, pos) == pair, (n, s, q, pos)


def test_missing_case_is_vacuous_in_battery_range(battery_keys):
    # the subcase with no closed form (q = 3 mod 4, v2(n) > v2(q+1),
    # s = 3 mod 4 on an x^n+1-side factor) never occurs: such factors
    # force 4 | deg, which forces s = q^{deg/2} = 1 mod 4
    hits = 0
    for kind, n, s, q in battery_keys:
        if kind != NONSPLIT or q % 4 != 3:
            continue
        if padic_valuation(n, 2) <= padic_valuation(q + 1, 2):
            continue
        g = make_group(kind, n, s, q)
        F = make_field(*split_prime_power(q))
        rep = classify(F, g.N, g.s)
        for f in rep.factors:
            if f.self_involutive and not f.divides_x_d_minus_1 and g.n % f.root_order != 0:
                hits += 1
                assert g.s % 4 == 1, (kind, n, s, q)
    assert hits > 0
    # the same on integers alone, well past the battery, through route: the
    # root zeta^a of a coset C mod N = 2n has order N / gcd(a, N) and degree
    # |C|, is away from x^d - 1 iff a*s != a mod N, and is self-involutive
    # iff s*C = C.  The xi^{n/2} route forces 4 | deg f and s = 1 mod 4, as
    # noncentral_pair asserts; the theta route forces v2(n) <= v2(q + 1), the
    # depth theta_frame_scale asserts
    seen = set()
    for q in (3, 7, 11, 19, 23, 27, 31, 43, 47, 59):
        for n in range(1, 129):
            N = 2 * n
            if gcd(q, N) != 1:
                continue
            cosets = cyclotomic_cosets(N, q)
            for s in range(1, N):
                if s * s % N != 1 or gcd(s, N) != 1:
                    continue
                for C in cosets:
                    a = C[0]
                    if a * s % N == a or sorted(b * s % N for b in C) != list(C):
                        continue
                    g = SimpleNamespace(n=n, q=q)
                    fac = SimpleNamespace(root_order=N // gcd(a, N), degree=len(C))
                    way = route(g, fac)
                    seen.add(way)
                    if way == "eta-omega, xi^{n/2}":
                        assert len(C) % 4 == 0 and s % 4 == 1, (q, n, s, C)
                    elif way.startswith("theta-omega"):
                        assert padic_valuation(n, 2) <= padic_valuation(q + 1, 2), (q, n, C)
    assert seen == {"sigma-tau", "eta-omega, xi^{n/2}", "eta-omega by interpolation",
                    "theta-omega by interpolation"}


def test_complete_set_d8():
    D = decompose(D8)
    ids = complete_idempotent_set(D8, D, include_noncentral=True)
    labels = [e.label for e in ids.entries]
    assert labels == ["z0", "z1", "z2", "z3", "z4", "z4/1", "z4/2"]
    by_label = {e.label: e for e in ids.entries}
    assert by_label["z4/1"].kind == NONCENTRAL
    assert by_label["z4/1"].parent == "z4"
    assert by_label["z4/1"].element + by_label["z4/2"].element == by_label["z4"].element
    assert len(ids.centrals()) == 5
    assert len(ids.noncentrals()) == 2


def test_complete_set_counts_follow_two_by_two_components():
    for kind, n, s, q in ((NONSPLIT, 2, 3, 3), (SPLIT, 8, 3, 7), (NONSPLIT, 8, 9, 5)):
        g = make_group(kind, n, s, q)
        D = decompose(g)
        ids = complete_idempotent_set(g, D, include_noncentral=True)
        twos = sum(1 for c in D.components if c.l == 2)
        assert len(ids.noncentrals()) == 2 * twos
        assert len(ids.centrals()) == D.component_count


def test_idempotent_json_shapes():
    D = decompose(D8)
    ids = complete_idempotent_set(D8, D, include_noncentral=True)
    doc = ids.to_json()
    assert sorted(doc.keys()) == ["entries", "group"]
    entry = doc["entries"][0]
    assert sorted(entry.keys()) == ["flat", "kind", "label", "parent"]
    assert entry["label"] == "z0"
    assert entry["kind"] == CENTRAL
    assert entry["flat"][0] == [2]
    assert len(entry["flat"]) == D8.order
