"""Decomposition into matrix components with explicit generator images."""

from dataclasses import replace

from wedderburn import oracle
from wedderburn.decompose import (
    ABELIAN_PART,
    PAIR,
    SELF_INVOLUTIVE,
    WedderburnComponent,
    _plain_images,
    component_matrices_check,
    decompose,
    theta_frame_scale,
)
from wedderburn.cyclotomic import classify
from wedderburn.fields import make_field
from wedderburn.groups import NONSPLIT, SPLIT, make_group

D8 = make_group(SPLIT, 4, 3, 3)
Q8 = make_group(NONSPLIT, 2, 3, 3)


def test_d8_component_table():
    D = decompose(D8)
    assert D.component_count == 5
    assert D.dimension_sum == 8
    shapes = sorted((c.l, c.m) for c in D.components)
    assert shapes == [(1, 1), (1, 1), (1, 1), (1, 1), (2, 1)]
    kinds = [c.source.kind for c in D.components]
    assert kinds.count(ABELIAN_PART) == 4
    assert kinds.count(SELF_INVOLUTIVE) == 1


def test_d8_two_by_two_matrices_pinned():
    D = decompose(D8)
    two = next(c for c in D.components if c.l == 2)
    assert two.source.frame == "sigma-tau"
    assert two.source.position == 2
    K = two.image_x[0][0].field
    minus = K.zero - K.one
    assert two.image_x == ((K.zero, K.one), (minus, K.zero))
    assert two.image_y == ((K.one, K.zero), (K.zero, minus))


def test_d8_abelian_images():
    D = decompose(D8)
    ones = []
    for c in D.components:
        if c.l != 1:
            continue
        (xv,), = c.image_x
        (yv,), = c.image_y
        F = xv.field
        assert xv in (F.one, F.zero - F.one)
        assert yv in (F.one, F.zero - F.one)
        ones.append((c.source.position, c.source.frame))
    assert ones == [(0, "psi+"), (0, "psi-"), (1, "psi+"), (1, "psi-")]


def test_q8_component_table():
    D = decompose(Q8)
    assert D.dimension_sum == 8
    shapes = sorted((c.l, c.m) for c in D.components)
    assert shapes == [(1, 1), (1, 1), (1, 1), (1, 1), (2, 1)]
    two = next(c for c in D.components if c.l == 2)
    assert two.source.frame == "theta-omega"
    # y^2 = x^n = -1 on this component, so the y image squares to -I
    K = two.image_x[0][0].field
    yy = tuple(
        tuple(sum((two.image_y[i][k] * two.image_y[k][j] for k in range(2)), K.zero)
              for j in range(2))
        for i in range(2)
    )
    minus = K.zero - K.one
    assert yy == ((minus, K.zero), (K.zero, minus))


def test_nonsplit_q1mod4_instance():
    # q = 5: four one-dimensional components plus one 2x2 built on a
    # swapped pair of linear factors
    g = make_group(NONSPLIT, 2, 3, 5)
    D = decompose(g)
    assert sorted((c.l, c.m) for c in D.components) == [(1, 1)] * 4 + [(2, 1)]
    two = next(c for c in D.components if c.l == 2)
    assert two.source.kind == PAIR
    assert two.source.frame == "omega-pair"
    assert D.dimension_sum == 8


def test_nonsplit_s1mod4_instance():
    g = make_group(NONSPLIT, 4, 5, 3)
    assert g.d == 4
    D = decompose(g)
    assert D.dimension_sum == 16
    A = oracle.algebra_for(g)
    assert D.component_count == oracle.component_count(A)


def test_split_n8_example_dimension():
    g = make_group(SPLIT, 8, 3, 7)
    D = decompose(g)
    assert D.dimension_sum == 16
    assert D.component_count == oracle.component_count(oracle.algebra_for(g))


def test_decompose_dispatches_on_kind():
    # one (n, s, q) under both kinds: only the nonsplit kind reaches the
    # frames built for y^2 = x^n
    nonsplit_only = {"quad", "eta-omega", "theta-omega"}
    for n, s, q in ((1, 1, 3), (4, 3, 3), (5, 9, 3)):
        frames = {kind: {c.source.frame
                         for c in decompose(make_group(kind, n, s, q)).components}
                  for kind in (SPLIT, NONSPLIT)}
        assert not frames[SPLIT] & nonsplit_only
        assert frames[NONSPLIT] & nonsplit_only


def test_matrices_check_battery_lite():
    # a spread of instances by case: sigma, eta (both q mod 4 classes),
    # theta, pairs, abelian-only
    cases = [
        (SPLIT, 4, 3, 3),
        (SPLIT, 5, 4, 3),
        (SPLIT, 8, 5, 3),
        (SPLIT, 12, 5, 7),
        (NONSPLIT, 2, 3, 3),
        (NONSPLIT, 2, 3, 5),
        (NONSPLIT, 4, 5, 5),
        (NONSPLIT, 8, 9, 5),
        (NONSPLIT, 10, 9, 3),
        (NONSPLIT, 5, 1, 3),
    ]
    for kind, n, s, q in cases:
        g = make_group(kind, n, s, q)
        D = decompose(g)
        A = oracle.algebra_for(g)
        assert D.dimension_sum == g.order, (kind, n, s, q)
        assert D.component_count == oracle.component_count(A), (kind, n, s, q)
        assert sum(c.multiplicity * c.m for c in D.components) == oracle.center_dimension(A)
        for c in D.components:
            assert c.multiplicity == 1
            assert component_matrices_check(c, g), (kind, n, s, q, c.source)


def test_matrices_check_rejects_corruption():
    D = decompose(D8)
    two = next(c for c in D.components if c.l == 2)
    K = two.image_x[0][0].field
    bad_y = ((K.one, K.one), (K.zero, K.zero - K.one))
    corrupted = WedderburnComponent(
        l=two.l,
        m=two.m,
        multiplicity=two.multiplicity,
        source=two.source,
        image_x=two.image_x,
        image_y=bad_y,
    )
    assert not component_matrices_check(corrupted, D8)


def test_entry_field_membership_nontrivial_m():
    # split n=5: the 2x2 component sits over a degree-2 field while the
    # roots live in degree 4; every matrix entry must already be fixed by
    # the degree-2 Frobenius
    g = make_group(SPLIT, 5, 4, 3)
    D = decompose(g)
    two = next(c for c in D.components if c.l == 2)
    assert two.m == 2
    bound = 3 ** 2
    for row in two.image_x + two.image_y:
        for z in row:
            assert z ** bound == z


def test_matrices_check_rejects_entries_outside_the_half_field():
    # the plain images are a representation over K = F_3(xi) of degree 4,
    # but xi is not in the half field F_9 that the frame brings them into
    g = make_group(SPLIT, 5, 4, 3)
    two = next(c for c in decompose(g).components if c.l == 2)
    assert (two.source.kind, two.m) == (SELF_INVOLUTIVE, 2)
    X, Y = _plain_images(g, two.image_x[0][0].field)
    plain = replace(two, image_x=X, image_y=Y)
    assert component_matrices_check(replace(plain, m=4), g)
    assert not component_matrices_check(plain, g)


def test_matrices_check_rejects_an_m_that_does_not_divide_the_field_degree():
    # z^(q^2m) = z holds on all of F_{q^m}, so the power test alone passed m
    # doubled on every component over its own field
    g = make_group(SPLIT, 5, 4, 3)
    for c in decompose(g).components:
        degree = c.image_x[0][0].field.degree  # [K:F_3]
        assert component_matrices_check(c, g)
        for m in range(1, 2 * degree + 1):
            if degree % m:
                assert not component_matrices_check(replace(c, m=m), g), (c.source, m)


def test_theta_frame_scale_deterministic_and_normed():
    F = make_field(3, 1)
    rep = classify(F, 4, 3)
    fac = next(f for f in rep.factors if not f.divides_x_d_minus_1)
    # computed twice: the cached function would return one value twice
    r1 = theta_frame_scale.__wrapped__(Q8, fac, F)
    r2 = theta_frame_scale.__wrapped__(Q8, fac, F)
    assert r1 == r2 and theta_frame_scale(Q8, fac, F) == r1
    # r times its conjugate under the half-degree Frobenius is -1
    half = 3 ** (fac.degree // 2)
    K = r1.field
    assert r1 * (r1 ** half) == K.zero - K.one


def test_json_shape():
    j = decompose(D8).to_json()
    assert sorted(j.keys()) == ["components", "factorization", "group", "totals"]
    assert j["totals"] == {"component_count": 5, "dimension_sum": 8}
    comp = j["components"][0]
    assert sorted(comp.keys()) == ["image_x", "image_y", "l", "m", "multiplicity", "source"]
