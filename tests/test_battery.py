"""The sweep harness itself: instance enumeration, abelianization census,
and the per-instance check report plumbing.

The full-sweep results are exercised in test_acceptance; here the harness
pieces are checked on small inputs so failures localize.
"""

import ast
import concurrent.futures
import os
import inspect
import textwrap
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from wedderburn import battery, idempotents, oracle
from wedderburn.battery import (
    CHECK_CLASSES,
    DEFAULT_MAX_N,
    DEFAULT_QS,
    abelianization,
    battery_instances,
    check_instance,
    component_case_tag,
    element_order_census,
    perlis_walker_degrees,
    run_battery,
)
from wedderburn.cyclotomic import classify
from wedderburn.decompose import _checked, decompose, frame, theta_frame_scale
from wedderburn.groups import NONSPLIT, SPLIT, group_elements, make_group
from wedderburn.idempotents import CENTRAL, IdempotentEntry

from conftest import under_python_O
from reference import group_mult


def test_instance_enumeration_matches_independent_count():
    # sympy solves s^2 = 1 mod N by its own factorization-based machinery,
    # which makes it a genuinely independent count of valid exponents
    from math import gcd

    from sympy.ntheory.residue_ntheory import sqrt_mod
    from wedderburn.fields import split_prime_power

    expected = []
    for kind, nmul in ((SPLIT, 1), (NONSPLIT, 2)):
        for n in range(1, DEFAULT_MAX_N + 1):
            N = nmul * n
            for q in DEFAULT_QS:
                p, _ = split_prime_power(q)
                if (2 * N) % p == 0:
                    continue
                if N == 1:
                    svals = [1]
                else:
                    svals = [
                        s
                        for s in sorted(sqrt_mod(1, N, all_roots=True))
                        if gcd(s, N) == 1 and 1 <= s < N
                    ]
                expected.extend((kind, n, s, q) for s in svals)
    got = battery_instances()
    assert sorted(got) == sorted(expected)
    assert len(got) == 704
    assert sum(1 for k in got if k[0] == SPLIT) == 302


def test_instance_filters():
    only_split = battery_instances(max_n=6, qs=(3,), kinds=(SPLIT,))
    assert only_split
    assert all(k[0] == SPLIT and k[1] <= 6 and k[3] == 3 for k in only_split)
    assert battery_instances(max_n=0) == []


def test_abelianization_examples():
    assert abelianization(make_group(SPLIT, 4, 3, 3)) == (2, 2)      # dihedral
    assert abelianization(make_group(NONSPLIT, 2, 3, 3)) == (2, 2)   # quaternion
    assert abelianization(make_group(NONSPLIT, 5, 1, 3)) == (20,)    # already abelian
    assert abelianization(make_group(SPLIT, 5, 4, 3)) == (2,)
    assert abelianization(make_group(NONSPLIT, 3, 1, 5)) == (12,)


def test_abelianization_census_against_direct_orders():
    # for s = 1 the group is abelian, so the census of the claimed
    # invariant factors must equal the element orders measured straight
    # off the multiplication law
    for kind, n, q in ((SPLIT, 6, 5), (NONSPLIT, 3, 5), (NONSPLIT, 4, 3), (SPLIT, 9, 7)):
        g = make_group(kind, n, 1, q)
        direct = Counter()
        for a in group_elements(g):
            k = 1
            acc = a
            while acc != (0, 0):
                acc = group_mult(g, acc, a)
                k += 1
            direct[k] += 1
        assert element_order_census(abelianization(g)) == direct


def test_element_order_census_basics():
    assert element_order_census((2, 2)) == Counter({1: 1, 2: 3})
    assert element_order_census((6, 2)) == Counter({1: 1, 2: 3, 3: 2, 6: 6})
    c20 = element_order_census((20,))
    assert c20[20] == 8 and sum(c20.values()) == 20


def test_perlis_walker_degrees_examples():
    assert perlis_walker_degrees(make_group(SPLIT, 4, 3, 3)) == [1, 1, 1, 1]
    assert perlis_walker_degrees(make_group(NONSPLIT, 2, 3, 3)) == [1, 1, 1, 1]
    assert perlis_walker_degrees(make_group(NONSPLIT, 5, 1, 3)) == [1, 1, 2, 4, 4, 4, 4]


def test_component_case_tags():
    tags = {
        (SPLIT, 4, 3, 3): "sigma-tau",
        (NONSPLIT, 2, 3, 3): "theta-omega (q=3 mod 4, s=3 mod 4)",
        (NONSPLIT, 2, 3, 5): "omega-pair",
        (NONSPLIT, 4, 5, 5): "eta-omega (q=1 mod 4)",
        (NONSPLIT, 8, 9, 3): "eta-omega (q=3 mod 4, s=1 mod 4)",
    }
    for (kind, n, s, q), want in tags.items():
        g = make_group(kind, n, s, q)
        comp = next(c for c in decompose(g).components if c.l == 2)
        assert component_case_tag(g, comp) == want, (kind, n, s, q)


def test_check_instance_report_shape():
    rep = check_instance(SPLIT, 4, 3, 3)
    assert rep.key == (SPLIT, 4, 3, 3)
    assert rep.ok
    assert [name for name, _ in rep.checks] == list(CHECK_CLASSES)
    assert all(status == "pass" for _name, status in rep.checks)
    assert (rep.order, rep.d, rep.r, rep.t) == (8, 2, 1, 0)
    assert rep.component_count == 5
    assert rep.center_dimension == 5
    line = rep.row()
    assert "split:n=4,s=3" in line and "q=3" in line and "ok" in line


def test_check_instance_skips_noncentral_when_asked():
    rep = check_instance(NONSPLIT, 2, 3, 3, include_noncentral=False)
    status = dict(rep.checks)["noncentral-splittings"]
    assert status == "skipped"
    assert rep.ok


def test_run_battery_small_and_deterministic():
    keys = battery_instances(max_n=4, qs=(3, 5), kinds=(SPLIT,))
    pooled = run_battery(keys, jobs=2)
    serial = run_battery(keys, jobs=1)
    assert [r.to_json() for r in pooled.reports] == [r.to_json() for r in serial.reports]
    assert pooled.ok
    assert not pooled.failures
    tally = pooled.tally()
    assert set(tally.keys()) == set(CHECK_CLASSES)
    text = pooled.table()
    assert "split:n=4,s=3" in text


def test_run_battery_pools_and_serial_agree_across_kinds_and_families():
    keys = battery_instances(max_n=6, qs=(3, 9))
    assert {k[0] for k in keys} == {SPLIT, NONSPLIT}
    pooled = run_battery(keys, jobs=2)
    serial = run_battery(keys, jobs=1)
    assert [r.to_json() for r in pooled.reports] == [r.to_json() for r in serial.reports]
    assert [r.key for r in pooled.reports] == sorted(keys)
    assert pooled.ok


def test_run_battery_bounds_the_pool(monkeypatch):
    # the spy grades in this process and starts no worker: it only records
    # how many workers run_battery asked for, and the instances of each task
    sizes, tasks = [], []

    class SpyPool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            for keys in iterable:
                tasks.append(list(keys))
                yield fn(keys)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    keys = battery_instances(max_n=3, qs=(5,), kinds=(SPLIT,))[:3]  # three families
    assert len(run_battery(keys, jobs=8).reports) == 3
    run_battery(keys)                  # None: one worker per usable core
    run_battery(keys, jobs=1)          # serial, no pool
    run_battery(keys[:1], jobs=8)      # one instance, no pool
    run_battery([], jobs=8)
    assert sizes == [3, 2]
    assert tasks == [[k] for k in keys] * 2

    # split:n=4 and nonsplit:n=2 over F_5, every s: one family (5, 4)
    family = [k for k in battery_instances(max_n=4, qs=(5,))
              if k[:2] in ((SPLIT, 4), (NONSPLIT, 2))]
    assert len(family) == 4
    sizes.clear()
    tasks.clear()
    assert len(run_battery(family, jobs=8).reports) == 4  # one family, no pool
    assert sizes == [] and tasks == []
    mixed = [family[0], keys[0], *family[1:], keys[1]]
    result = run_battery(mixed, jobs=8)
    assert sizes == [3]                # one worker per family
    assert tasks == [family, [keys[0]], [keys[1]]]
    assert [r.key for r in result.reports] == sorted(mixed)


def test_a_family_computes_each_factor_idempotent_once(monkeypatch):
    from perfbench.run import program_caches

    # every benchmark operation starts with this cache cleared
    real = idempotents.cyclic_idempotent
    assert real in program_caches()
    # two groups of the family (3, 8), of both kinds and different s
    family = [(SPLIT, 8, 3, 3), (NONSPLIT, 4, 5, 3)]
    g = make_group(*family[0])
    factors = classify(oracle.algebra_for(g).field, 8, 3).factors

    def grade_cold():
        idempotents._factor_idempotent.cache_clear()
        idempotents.cyclic_idempotent.cache_clear()
        assert all(check_instance(*key).ok for key in family)

    grade_cold()
    info = real.cache_info()
    assert info.misses == len(factors) and info.hits >= len(factors)

    asked, computed = Counter(), Counter()

    @lru_cache(maxsize=None)
    def counting_body(f, N):
        computed[f, N] += 1
        return real.__wrapped__(f, N)

    def counting_lookup(f, N):
        asked[f, N] += 1
        return counting_body(f, N)

    counting_lookup.cache_clear = counting_body.cache_clear
    monkeypatch.setattr(idempotents, "cyclic_idempotent", counting_lookup)
    grade_cold()
    assert computed == Counter({(fac.poly, 8): 1 for fac in factors})
    assert set(asked) == set(computed)
    assert sum(asked.values()) >= 2 * len(factors)  # the second group only looks up


def test_run_battery_rejects_jobs_below_one():
    keys = battery_instances(max_n=3, qs=(5,), kinds=(SPLIT,))
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            run_battery(keys, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            run_battery([], jobs=jobs)


# Defects of the central set of nonsplit:n=4,s=3 over F_3 (z0..z4), each with
# the message of the batched check that catches it once the sum check is
# stubbed out.  In characteristic 3 a swap that keeps every central an
# idempotent cannot keep the sum, so the unstubbed grade may fail earlier.
CENTRAL_DEFECTS = {
    # z0 + z1 is a central idempotent, but (z0 + z1) z1 = z1
    "non-orthogonal idempotent": (lambda z: [z[0] + z[1], *z[1:]], "z0 z1 is not 0"),
    # (-z0)^2 = z0; z1 - z0 keeps the sum at 1
    "non-idempotent": (lambda z: [-z[0], z[1] - z[0], *z[2:]], "z0 z0 is not z0"),
    # z0 added twice: once more at the end, or in place of z1
    "central added twice": (lambda z: [*z, z[0]], "8 centrals for 7 components"),
    "central listed twice": (lambda z: [z[0], z[0], *z[2:]], "z0 z1 is not 0"),
    # sums to 1, idempotent and orthogonal, but z1 = 0 and z0 is not primitive
    "zero": (lambda z: [z[0] + z[1], z[1] - z[1], *z[2:]], "z1 is zero"),
}


def _with_centrals(real, defect):
    """complete_idempotent_set, as real builds it, with defect applied to the
    list of central elements, relabelled z0, z1, ..."""
    def patched(g, dec, include_noncentral=True):
        ids = real(g, dec, include_noncentral=include_noncentral)
        elements = defect([e.element for e in ids.centrals()])
        entries = [IdempotentEntry(f"z{i}", u, CENTRAL) for i, u in enumerate(elements)]
        return replace(ids, entries=(*entries, *ids.noncentrals()))

    return patched


@pytest.mark.parametrize("name", list(CENTRAL_DEFECTS))
def test_central_grade_catches_each_defect(monkeypatch, name):
    defect, message = CENTRAL_DEFECTS[name]
    monkeypatch.setattr(battery, "complete_idempotent_set",
                        _with_centrals(battery.complete_idempotent_set, defect))

    def status():
        return dict(check_instance(NONSPLIT, 4, 3, 3).checks)["central-idempotents"]

    assert status().startswith("fail")
    monkeypatch.setattr(oracle, "sums_to_one", lambda elements: True)
    assert status() == f"fail: AssertionError: {message}"


def test_component_count_grade_catches_a_corrupted_power_stack(monkeypatch):
    real = oracle._power

    def corrupted(a, e, one, mul):
        out = real(a, e, one, mul)
        if isinstance(out, np.ndarray):    # the stack of p-th powers
            out = out.copy()
            out[0, 0, 0] = (out[0, 0, 0] + 1) % 3
        return out

    monkeypatch.setattr(oracle, "_power", corrupted)
    status = dict(check_instance(NONSPLIT, 4, 3, 3).checks)["component-count"]
    assert status.startswith("fail: AssertionError")


def test_central_grade_fails_under_python_O():
    # python -O strips assert statements; the grade raises AssertionError itself
    code = "\n".join([
        "from dataclasses import replace",
        "from wedderburn import battery, oracle",
        "from wedderburn.idempotents import CENTRAL, IdempotentEntry",
        inspect.getsource(_with_centrals),
        "battery.complete_idempotent_set = _with_centrals(",
        "    battery.complete_idempotent_set, lambda z: [z[0] + z[1], *z[1:]])",
        "oracle.sums_to_one = lambda elements: True",
        "report = battery.check_instance('nonsplit', 4, 3, 3)",
        "print(__debug__, dict(report.checks)['central-idempotents'])",
    ])
    assert under_python_O(code) == "False fail: AssertionError: z0 z1 is not 0"


def test_perlis_walker_grade_fails_under_python_O():
    # python -O strips assert statements; the grade raises AssertionError itself
    code = "\n".join([
        "from wedderburn import battery",
        "battery.perlis_walker_degrees = lambda g: []",
        "report = battery.check_instance('nonsplit', 4, 3, 3)",
        "print(__debug__, dict(report.checks)['perlis-walker'])",
    ])
    assert under_python_O(code) == "False fail: AssertionError: ([1, 1, 1, 1], [])"


# Defects of the non-central pairs (e1, e2) of nonsplit:n=4,s=3 over F_3,
# under the 2x2 components z4, z5 and z6, each with the message of the first
# pair check that fails, at z4
PAIR_DEFECTS = {
    "non-orthogonal": (lambda z, e1, e2: (e1, e1), "z4/1 z4/2 is not 0"),
    # (-e1)^2 = e1; the second keeps the sum at z
    "non-idempotent": (lambda z, e1, e2: (-e1, e2 + e1 + e1), "z4/1 z4/1 is not z4/1"),
    "wrong sum": (lambda z, e1, e2: (e1, e2 - e2), "z4/1 + z4/2 is not z4"),
    "central": (lambda z, e1, e2: (z, z - z), "z4/1 is central"),
}


def _with_pair(real, defect):
    """complete_idempotent_set, as real builds it, with defect applied to
    each non-central pair (e1, e2), given its parent z."""
    def patched(g, dec, include_noncentral=True):
        ids = real(g, dec, include_noncentral=include_noncentral)
        parents = {e.label: e.element for e in ids.centrals()}
        pairs, entries = ids.noncentrals(), ids.centrals()
        for a, b in zip(pairs[::2], pairs[1::2]):
            u, v = defect(parents[a.parent], a.element, b.element)
            entries += [replace(a, element=u), replace(b, element=v)]
        return replace(ids, entries=tuple(entries))

    return patched


@pytest.mark.parametrize("name", list(PAIR_DEFECTS))
def test_noncentral_grade_catches_each_defect(monkeypatch, name):
    defect, message = PAIR_DEFECTS[name]
    monkeypatch.setattr(battery, "complete_idempotent_set",
                        _with_pair(battery.complete_idempotent_set, defect))
    checks = dict(check_instance(NONSPLIT, 4, 3, 3).checks)
    assert checks["central-idempotents"] == "pass"
    assert checks["noncentral-splittings"] == f"fail: AssertionError: {message}"


def test_noncentral_grade_fails_under_python_O():
    # python -O strips assert statements; the pair check raises AssertionError itself
    code = "\n".join([
        "from dataclasses import replace",
        "from wedderburn import battery",
        inspect.getsource(_with_pair),
        "battery.complete_idempotent_set = _with_pair(",
        "    battery.complete_idempotent_set, lambda z, e1, e2: (e1, e1))",
        "report = battery.check_instance('nonsplit', 4, 3, 3)",
        "print(__debug__, dict(report.checks)['noncentral-splittings'])",
    ])
    assert under_python_O(code) == "False fail: AssertionError: z4/1 z4/2 is not 0"


def test_table_audit_and_galois_checks_fail_under_python_O():
    # python -O strips assert statements; these checks raise AssertionError
    # themselves: the Galois consistency of the interpolated matrix unit,
    # decompose's dimension audit and the oracle's table validation
    code = "\n".join([
        "from wedderburn import groups, idempotents, oracle",
        "from wedderburn.cyclotomic import classify",
        "from wedderburn.decompose import Decomposition, decompose",
        "from wedderburn.fields import ext_field",
        "g = groups.make_group('nonsplit', 4, 3, 3)",
        "F = oracle.algebra_for(g).field",
        "def failure(fn, *args):",
        "    try:",
        "        fn(*args)",
        "    except AssertionError as exc:",
        "        return str(exc)",
        "def unit_frame(g, fac, beta=None):",
        "    K = ext_field(fac.poly.field, fac.poly.coeffs)",
        "    return None, ((K.one, K.zero), (K.zero, K.one))",
        "real_table = oracle.multiplication_table",
        "def swapped_table(group):",
        "    table = real_table(group).copy()",
        "    table[1, [1, 2]] = table[1, [2, 1]]",
        "    return table",
        "pos = next(i for i, fac in enumerate(classify(F, g.N, g.s).factors)",
        "           if fac.self_involutive and not fac.divides_x_d_minus_1)",
        "idempotents.frame = unit_frame",
        "print(__debug__, failure(idempotents.noncentral_via_interpolation, g, pos))",
        "Decomposition.dimension_sum = property(lambda dec: 0)",
        "print(failure(decompose, g))",
        "oracle.multiplication_table = swapped_table",
        "print(failure(oracle.GroupAlgebra, g, F))",
    ])
    assert under_python_O(code).splitlines() == [
        "False matrix unit is not Galois-consistent for this factor",
        "internal: dimension audit 0 != 16",
        "multiplication table not associative",
    ]


def test_grading_path_has_no_assert_statement():
    # python -O strips assert statements, so the grading path and the checks
    # of the 2x2 frames and routes raise instead
    sources = {mod.__name__: inspect.getsource(mod) for mod in (battery, oracle)}
    for fn in (_checked, theta_frame_scale, frame, idempotents.noncentral_pair):
        sources[f"{fn.__module__}.{fn.__name__}"] = inspect.getsource(fn)
    for name, source in sources.items():
        lines = [node.lineno for node in ast.walk(ast.parse(textwrap.dedent(source)))
                 if isinstance(node, ast.Assert)]
        assert lines == [], f"assert statements in {name} at lines {lines}"
