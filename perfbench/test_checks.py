"""The benchmark's checkers accept the program's real outputs and reject
corrupted ones.

Run with `PYTHONPATH=src python -m pytest perfbench`.  Each corruption is
one that a wrong program could produce: a flipped coefficient in an
idempotent, a dropped or altered factor, a component count off by one, a
shape list that no longer sums to |G|.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

from perfbench import checks
from wedderburn import battery, cli


def _cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())


def _factor(kind, n, s, q):
    return _cli_json(["factor", "--q", str(q), "--group", f"{kind}:n={n},s={s}",
                      "--format", "json"])


def _idempotents(kind, n, s, q):
    return _cli_json(["idempotents", "--q", str(q), "--group",
                      f"{kind}:n={n},s={s}", "--include-noncentral",
                      "--crt-fallback", "--format", "json"])


# ---------------------------------------------------------------------------
# the checkers' own group law and algebra


@pytest.mark.parametrize("kind,n,s,classes", [
    ("split", 3, 2, 3),      # S_3
    ("split", 4, 3, 5),      # D_8
    ("nonsplit", 2, 3, 5),   # Q_8
    ("split", 5, 1, 10),     # C_10
])
def test_group_class_counts(kind, n, s, classes):
    assert len(checks.Group(kind, n, s).conjugacy_classes()) == classes


def test_fq_classes_merge_under_the_q_power_map():
    # C_5 x C_2 over F_3: 3 has order 4 mod 5, so the eight elements of
    # order 5 or 10 fall into two F_3-classes, beside 1 and y
    assert checks.Group("split", 5, 1).fq_class_count(3) == 4


@pytest.mark.parametrize("kind,n,s,q", [
    ("split", 4, 3, 5), ("nonsplit", 3, 5, 7), ("nonsplit", 2, 3, 9),
])
def test_twisted_product_matches_the_group_table(kind, n, s, q):
    G = checks.Group(kind, n, s)
    A = checks.Algebra(kind, n, s, q)
    N = G.N
    for a in range(G.size):
        for b in range(G.size):
            prod = A.mul(A.basis(a % N, a // N), A.basis(b % N, b // N))
            k = G.table[a, b]
            assert np.array_equal(prod, A.basis(k % N, k // N))
    rng = np.random.default_rng(0)
    u, v, w = (rng.integers(0, A.p, size=(G.size, A.m)) for _ in range(3))
    assert np.array_equal(A.mul(A.mul(u, v), w), A.mul(u, A.mul(v, w)))


# ---------------------------------------------------------------------------
# sweep


@pytest.fixture(scope="module")
def sweep_report():
    return battery.check_instance("split", 4, 3, 5).to_json()


def test_sweep_report_passes(sweep_report):
    assert checks.check_sweep_report(sweep_report) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r.update(component_count=r["component_count"] + 1),
    lambda r: r.update(component_count=r["component_count"] - 1),
    lambda r: r.update(center_dimension=r["center_dimension"] + 1),
    lambda r: r["shapes"].pop(),
    lambda r: r["shapes"].__setitem__(0, [r["shapes"][0][0], r["shapes"][0][1] + 1]),
    lambda r: r["checks"].update({"perlis-walker": "skipped"}),
])
def test_sweep_check_rejects(sweep_report, corrupt):
    bad = copy.deepcopy(sweep_report)
    corrupt(bad)
    assert checks.check_sweep_report(bad)


# ---------------------------------------------------------------------------
# factor


@pytest.fixture(scope="module")
def factor_prime():
    return _factor("split", 13, 12, 3)     # x^13 - 1 over F_3: 1 + 3 + 3 + 3 + 3


@pytest.fixture(scope="module")
def factor_f9():
    return _factor("nonsplit", 10, 19, 9)  # x^20 - 1 over F_9


def test_factor_outputs_pass(factor_prime, factor_f9):
    assert checks.check_factor(3, 13, 12, factor_prime) == []
    assert checks.check_factor(9, 20, 19, factor_f9) == []


def _drop_factor(p):
    p["factors"].pop()


def _alter_coefficient(p):
    # cosets and degrees stay right: for prime q only sympy's factors see it
    f = next(f for f in p["factors"] if f["degree"] > 1)
    c = f["coeffs"][0]
    c[0] = (c[0] + 1) % 3


def _merge_cosets(p):
    a, b = p["factors"][-2:]
    a["coset"] = sorted(a["coset"] + b["coset"])


def _flip_involutive(p):
    f = p["factors"][-1]
    f["self_involutive"] = not f["self_involutive"]


@pytest.mark.parametrize("corrupt", [_drop_factor, _alter_coefficient,
                                     _merge_cosets, _flip_involutive])
def test_factor_check_rejects(factor_prime, factor_f9, corrupt):
    for q, N, s, payload in ((3, 13, 12, factor_prime), (9, 20, 19, factor_f9)):
        bad = copy.deepcopy(payload)
        corrupt(bad)
        assert checks.check_factor(q, N, s, bad), (q, N, corrupt.__name__)


# ---------------------------------------------------------------------------
# idempotents


@pytest.fixture(scope="module")
def idem_cases():
    return [(inst, _idempotents(*inst)) for inst in
            (("split", 3, 2, 5), ("nonsplit", 3, 5, 7), ("nonsplit", 2, 3, 9))]


def test_idempotent_outputs_pass(idem_cases):
    for inst, payload in idem_cases:
        assert checks.check_idempotents(*inst, payload) == [], inst


def _flip(entry, q):
    p = 3 if q == 9 else q
    flat = entry["flat"]
    k = next(i for i, v in enumerate(flat) if any(v))
    flat[k][0] = (flat[k][0] + 1) % p


@pytest.mark.parametrize("which", ["central-primitive", "non-central-primitive"])
def test_idempotent_check_rejects_a_flipped_coefficient(idem_cases, which):
    for inst, payload in idem_cases:
        bad = copy.deepcopy(payload)
        entries = [e for e in bad["entries"] if e["kind"] == which]
        if not entries:
            continue
        _flip(entries[-1], inst[3])
        assert checks.check_idempotents(*inst, bad), (inst, which)


def test_idempotent_check_rejects_a_dropped_central(idem_cases):
    for inst, payload in idem_cases:
        bad = copy.deepcopy(payload)
        z = next(e for e in bad["entries"] if e["kind"] == "central-primitive")
        bad["entries"] = [e for e in bad["entries"]
                          if z["label"] not in (e["label"], e["parent"])]
        assert checks.check_idempotents(*inst, bad), inst


def test_idempotent_check_rejects_a_dropped_pair(idem_cases):
    inst, payload = idem_cases[0]
    bad = copy.deepcopy(payload)
    bad["entries"] = [e for e in bad["entries"]
                      if e["kind"] == "central-primitive"]
    assert checks.check_idempotents(*inst, bad)


def test_idempotent_check_rejects_a_central_passed_off_as_a_pair(idem_cases):
    # a pair member replaced by its parent: idempotent, but central and
    # no longer summing to the parent with its partner
    inst, payload = idem_cases[0]
    bad = copy.deepcopy(payload)
    pair = next(e for e in bad["entries"] if e["kind"] == "non-central-primitive")
    parent = next(e for e in bad["entries"] if e["label"] == pair["parent"])
    pair["flat"] = copy.deepcopy(parent["flat"])
    assert checks.check_idempotents(*inst, bad)
