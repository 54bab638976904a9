"""Sweep of every small metacyclic instance against the oracle.

The battery enumerates all valid (kind, n, s, q) with n <= 24 and q in
{3, 5, 7, 9, 11, 13}, runs the decomposition and the idempotent
constructions on each, and grades the results in named check classes so
a regression points at the layer that broke.  The unit of work is the
family (q, N): its groups share the factors of x^N - 1 over F_q and
their idempotents, and differ only in how s acts on them.  Families are
graded on worker processes, at most one per family; reports come back
sorted by instance key, so the output does not depend on worker count.
"""

import concurrent.futures
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import gcd, lcm

import numpy as np

from . import oracle
from .cyclotomic import classify
from .decompose import SELF_INVOLUTIVE, component_matrices_check, decompose, route
from .fields import ord_mod
from .groups import NONSPLIT, SPLIT, OrderNotCoprime, make_group
from .idempotents import complete_idempotent_set, noncentral_via_interpolation

DEFAULT_QS = (3, 5, 7, 9, 11, 13)
DEFAULT_MAX_N = 24

CHECK_CLASSES = (
    "dimension",
    "component-count",
    "matrix-relations",
    "central-idempotents",
    "noncentral-splittings",
    "perlis-walker",
    "involutivity-criterion",
)


def battery_instances(max_n=DEFAULT_MAX_N, qs=DEFAULT_QS, kinds=(SPLIT, NONSPLIT)):
    """All valid (kind, n, s, q) tuples in lexicographic order.

    Valid means s^2 = 1 mod N with gcd(s, N) = 1, and q an odd prime
    power coprime to the group order.  s runs over canonical residues,
    so no instance appears twice.
    """
    out = []
    for kind in kinds:
        for n in range(1, max_n + 1):
            N = n if kind == SPLIT else 2 * n
            for s in range(1, max(N, 2)):
                if (s * s) % N != 1 % N or gcd(s, N) != 1:
                    continue
                for q in qs:
                    try:
                        make_group(kind, n, s, q)
                    except OrderNotCoprime:
                        continue
                    out.append((kind, n, s, q))
    return out


def abelianization(g):
    """Cyclic factor orders of G made abelian, small factor first.

    Killing the commutator leaves two relations on (x, y): x^d = 1 with
    d = gcd(N, s - 1), and y^2 = x^n (for the split kind d | N = n, so
    that is y^2 = 1).  Smith form of the 2x2 relation matrix gives the
    invariant factors; trivial ones are dropped.
    """
    d1 = gcd(gcd(g.d, g.n), 2)
    d2 = 2 * g.d // d1
    return tuple(t for t in sorted((d1, d2)) if t > 1)


def element_order_census(orders):
    """{k: number of elements of order exactly k} in prod_i C_{orders[i]}.

    The count of elements of order dividing k is prod gcd(k, r); exact
    counts follow by subtracting the proper divisors' totals.
    """
    exp = 1
    for r in orders:
        exp = lcm(exp, r)
    divisors = [k for k in range(1, exp + 1) if exp % k == 0]
    exact = {}
    for k in divisors:
        dividing = 1
        for r in orders:
            dividing *= gcd(k, r)
        exact[k] = dividing - sum(exact[e] for e in divisors
                                  if e < k and k % e == 0)
    return exact


def perlis_walker_degrees(g):
    """Sorted field degrees of the abelian part, one entry per component.

    Computed from the abelianization alone: elements of order k sit in
    groups of size ord_k(q), each group contributing one F_{q^ord}
    summand.  This never looks at the factor lattice, so it is an
    independent count to hold the 1x1 components against.
    """
    degrees = []
    for k, count in sorted(element_order_census(abelianization(g)).items()):
        if count == 0:
            continue
        m = ord_mod(g.q, k)
        if count % m:
            raise AssertionError((k, count, m))
        degrees.extend([m] * (count // m))
    return sorted(degrees)


def component_case_tag(g, comp):
    """Frame name plus the congruence classes that selected it."""
    src = comp.source
    if src.kind != SELF_INVOLUTIVE or src.frame == "sigma-tau":
        return src.frame
    if g.q % 4 == 1:
        return f"{src.frame} (q=1 mod 4)"
    return f"{src.frame} (q=3 mod 4, s={g.s % 4} mod 4)"


@dataclass(frozen=True)
class InstanceReport:
    kind: str
    n: int
    s: int
    q: int
    order: int
    d: int
    r: int
    t: int
    component_count: int
    center_dimension: int
    shapes: tuple
    tags: tuple
    checks: tuple

    @property
    def key(self):
        return (self.kind, self.n, self.s, self.q)

    @property
    def ok(self):
        return not any(msg.startswith("fail") for _, msg in self.checks)

    def row(self):
        shapes = " ".join(f"{cnt}x({l},{m})" for (l, m), cnt
                          in sorted(Counter(self.shapes).items()))
        tags = " {" + "; ".join(self.tags) + "}" if self.tags else ""
        status = "ok" if self.ok else "FAIL[" + ",".join(
            name for name, msg in self.checks if msg.startswith("fail")) + "]"
        return (f"{self.kind}:n={self.n},s={self.s} q={self.q}"
                f" |G|={self.order} d={self.d} r={self.r} t={self.t}"
                f" comps={self.component_count} [{shapes}]{tags} {status}")

    def to_json(self):
        return {
            "kind": self.kind, "n": self.n, "s": self.s, "q": self.q,
            "order": self.order, "d": self.d, "r": self.r, "t": self.t,
            "component_count": self.component_count,
            "center_dimension": self.center_dimension,
            "shapes": [list(sh) for sh in self.shapes],
            "case_tags": list(self.tags),
            "checks": {name: msg for name, msg in self.checks},
            "ok": self.ok,
        }


class _Skip(Exception):
    """Raised inside a check body to mark it skipped rather than failed."""


def check_instance(kind, n, s, q, include_noncentral=True, cross_check=True):
    """Grade one instance on the cached algebra_for(g).  Never raises:
    every defect lands in a check message instead, so one broken instance
    cannot take down a sweep.
    """
    g = make_group(kind, n, s, q)
    A = oracle.algebra_for(g)
    report = classify(A.field, g.N, g.s)
    checks = []
    state = {}

    def grade(name, fn, needs=()):
        missing = [key for key in needs if key not in state]
        if missing:
            checks.append((name, f"blocked: no {missing[0]}"))
            return
        try:
            fn()
        except _Skip:
            checks.append((name, "skipped"))
            return
        except Exception as exc:  # the battery reports, it does not abort
            checks.append((name, f"fail: {type(exc).__name__}: {exc}"))
            return
        checks.append((name, "pass"))

    def dimension():
        dec = decompose(g)
        if dec.dimension_sum != g.order:
            raise AssertionError((dec.dimension_sum, g.order))
        state["decomposition"] = dec

    def counts():
        dec = state["decomposition"]
        got, want = dec.component_count, oracle.component_count(A)
        if got != want:
            raise AssertionError(f"{got} components, the oracle counts {want}")
        got = sum(c.multiplicity * c.m for c in dec.components)
        want = oracle.center_dimension(A)
        if got != want:
            raise AssertionError(f"center dimension {got}, the oracle's is {want}")

    def relations():
        for comp in state["decomposition"].components:
            if not component_matrices_check(comp, g):
                raise AssertionError(comp.source)

    def centrals():
        ids = complete_idempotent_set(g, state["decomposition"],
                                      include_noncentral=include_noncentral)
        entries, count = ids.centrals(), state["decomposition"].component_count
        if len(entries) != count:
            raise AssertionError(f"{len(entries)} centrals for {count} components")
        elements = [e.element for e in entries]
        if not oracle.sums_to_one(elements):
            raise AssertionError("the centrals do not sum to 1")
        for e in entries:
            if e.element.is_zero():
                raise AssertionError(f"{e.label} is zero")
            if not oracle.is_central(e.element):
                raise AssertionError(f"{e.label} is not central")
        # every ordered pair: z_i z_i = z_i and z_i z_j = 0
        B, Z = oracle.coefficient_stack(elements)
        P = oracle.products(B, Z, Z, pairs=True)
        wrong = (P != np.eye(len(Z), dtype=np.int64)[:, :, None, None] * Z).any(axis=(2, 3))
        if wrong.any():
            i, j = np.argwhere(wrong)[0]
            zi, zj = entries[i].label, entries[j].label
            raise AssertionError(f"{zi} {zj} is not {zi if i == j else 0}")
        state["idempotents"] = ids

    def noncentrals():
        dec = state["decomposition"]
        ids = state["idempotents"]
        if not include_noncentral:
            raise _Skip
        by_parent = {}
        for entry in ids.noncentrals():
            by_parent.setdefault(entry.parent, []).append(entry.element)
        two_by_two = [(i, comp) for i, comp in enumerate(dec.components)
                      if comp.l == 2]
        if len(by_parent) != len(two_by_two):
            raise AssertionError(f"{len(by_parent)} pairs for {len(two_by_two)} 2x2 components")
        for i, comp in two_by_two:
            parent = ids.centrals()[i]
            e1, e2 = by_parent[parent.label]
            oracle.check_pair(parent.element, e1, e2, parent.label)
            fac = report.factors[comp.source.position]
            if (cross_check and comp.source.kind == SELF_INVOLUTIVE
                    and not route(g, fac).endswith("by interpolation")):
                other = noncentral_via_interpolation(g, comp.source.position)
                if tuple(other) != (e1, e2):
                    raise AssertionError(
                        f"interpolation disagrees with the closed form at {fac.poly!r}")

    def perlis_walker():
        dec = state["decomposition"]
        got = sorted(c.m for c in dec.components if c.l == 1
                     for _ in range(c.multiplicity))
        expected = perlis_walker_degrees(g)
        if got != expected:
            raise AssertionError((got, expected))

    def involutivity():
        for fac in report.factors:
            if fac.degree % 2:
                continue
            l = fac.root_order
            congruent = (g.s % l == 1 % l
                         or (g.s - g.q ** (fac.degree // 2)) % l == 0)
            if congruent != fac.self_involutive:
                raise AssertionError((fac.coset, l))

    grade("dimension", dimension)
    grade("component-count", counts, needs=("decomposition",))
    grade("matrix-relations", relations, needs=("decomposition",))
    grade("central-idempotents", centrals, needs=("decomposition",))
    grade("noncentral-splittings", noncentrals,
          needs=("decomposition", "idempotents"))
    grade("perlis-walker", perlis_walker, needs=("decomposition",))
    grade("involutivity-criterion", involutivity)

    dec = state.get("decomposition")
    shapes = () if dec is None else tuple(sorted(
        (c.l, c.m) for c in dec.components for _ in range(c.multiplicity)))
    tags = () if dec is None else tuple(sorted(
        {component_case_tag(g, c) for c in dec.components if c.l == 2}))
    return InstanceReport(
        kind=kind, n=n, s=g.s, q=q, order=g.order, d=report.d,
        r=report.r, t=report.t,
        component_count=0 if dec is None else dec.component_count,
        center_dimension=oracle.center_dimension(A),
        shapes=shapes, tags=tags, checks=tuple(checks))


@dataclass(frozen=True)
class BatteryResult:
    reports: tuple

    @property
    def failures(self):
        return [rep for rep in self.reports if not rep.ok]

    @property
    def ok(self):
        return not self.failures

    def tally(self):
        """{check class: [passes, failures, other]} over all reports."""
        out = {name: [0, 0, 0] for name in CHECK_CLASSES}
        for rep in self.reports:
            for name, msg in rep.checks:
                if msg == "pass":
                    out[name][0] += 1
                elif msg.startswith("fail"):
                    out[name][1] += 1
                else:
                    out[name][2] += 1
        return out

    def table(self):
        lines = [rep.row() for rep in self.reports]
        lines.append("")
        for name, (good, bad, other) in self.tally().items():
            extra = f" other={other}" if other else ""
            lines.append(f"{name}: pass={good} fail={bad}{extra}")
        lines.append(f"instances={len(self.reports)} failures={len(self.failures)}")
        return "\n".join(lines)

    def to_json(self):
        return {
            "instances": [rep.to_json() for rep in self.reports],
            "summary": {
                "total": len(self.reports),
                "failures": [list(rep.key) for rep in self.failures],
                "by_check": self.tally(),
            },
        }


def _families(instances):
    """The instances grouped by (q, N), N = n for split groups and 2n for
    nonsplit ones, in the order the instances come."""
    out = {}
    for kind, n, s, q in instances:
        out.setdefault((q, n if kind == SPLIT else 2 * n), []).append((kind, n, s, q))
    return list(out.values())


def _grade_family(keys, include_noncentral, cross_check):
    return [check_instance(*key, include_noncentral=include_noncentral,
                           cross_check=cross_check) for key in keys]


def run_battery(instances=None, include_noncentral=True, cross_check=True,
                jobs=None):
    """Run the sweep and collect one report per instance.

    instances defaults to the full battery; pass a filtered list to
    restrict it.  A worker grades a whole family (q, N) in one task, so
    the family's factors and idempotents are computed once.  jobs is the
    number of worker processes, capped at one per family; None means one
    per usable core.  When that comes to one, every instance is graded in
    the calling process.  Only the reports, which hold plain ints and
    strings, cross the process boundary: fields and algebras are interned
    per process.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if instances is None:
        instances = battery_instances()
    tasks = _families(instances)
    workers = min(jobs or len(os.sched_getaffinity(0)), len(tasks))
    grade = partial(_grade_family, include_noncentral=include_noncentral,
                    cross_check=cross_check)
    if workers <= 1:
        graded = list(map(grade, tasks))
    else:
        # imported here, so the commands that never grade on a pool do not
        # pay for it (about 18 ms and 1.5 MB)
        import multiprocessing

        # fork, not spawn: a spawned worker re-imports the package and numpy,
        # about half a second per pool.  The only other thread here is
        # OpenBLAS's, which OpenBLAS shuts down before every fork.
        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=context) as pool:
            graded = list(pool.map(grade, tasks))
    reports = [rep for family in graded for rep in family]
    return BatteryResult(reports=tuple(sorted(reports, key=lambda r: r.key)))
