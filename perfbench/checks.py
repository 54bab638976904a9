"""Correctness checks for the benchmark's outputs, independent of the program.

Nothing here imports `wedderburn`.  The group law, the conjugacy classes,
the field F_9 and the group-algebra product are all rebuilt from the
presentations:

  split:     x^n = 1 = y^2,          y x = x^s y
  nonsplit:  x^(2n) = 1, y^2 = x^n,  y x = x^s y

An element of F_qG is stored the way the program prints it in `flat`:
row j*N + i holds the coefficient of x^i y^j, as a list of m = 1 (prime q)
or m = 2 (q = 9, over F_3[t]/(t^2 + 1)) base-field digits.  The product
here goes through the twisted polynomial rule

  (P1 + Q1 y)(P2 + Q2 y) = (P1 P2 + Q1 Q2^s c) + (P1 Q2 + Q1 P2^s) y,

with P^s(x) = P(x^s), c = y^2 and cyclic convolution mod x^N - 1, not
through a multiplication table.  Each check returns a list of problems;
an empty list means the output passed.
"""

import numpy as np

CHECK_CLASSES = (
    "dimension",
    "component-count",
    "matrix-relations",
    "central-idempotents",
    "noncentral-splittings",
    "perlis-walker",
    "involutivity-criterion",
)


def prime_and_degree(q):
    """q = p^m for the battery's field sizes: (p, m)."""
    for p in range(2, q + 1):
        if q % p == 0:
            m, r = 0, q
            while r % p == 0:
                r //= p
                m += 1
            if r != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
    raise ValueError(f"{q} is not a prime power")


def group_order(kind, n):
    return 2 * (n if kind == "split" else 2 * n)


# ---------------------------------------------------------------------------
# the group law and its classes


class Group:
    """x^i y^j as the index j*N + i, with the full product table."""

    def __init__(self, kind, n, s):
        self.N = N = n if kind == "split" else 2 * n
        self.c = 0 if kind == "split" else n  # y^2 = x^c
        size = 2 * N
        table = np.empty((size, size), dtype=np.int64)
        for a in range(size):
            i1, j1 = a % N, a // N
            for b in range(size):
                i2, j2 = b % N, b // N
                i = i1 + (s if j1 else 1) * i2
                j = j1 + j2
                if j == 2:
                    i, j = i + self.c, 0
                table[a, b] = j * N + i % N
        self.size = size
        self.table = table
        self.inverse = np.argmax(table == 0, axis=1)

    def power(self, a, k):
        out = 0
        for _ in range(k):
            out = self.table[out, a]
        return out

    def conjugacy_classes(self):
        """Classes as frozensets of element indices."""
        seen = set()
        out = []
        for a in range(self.size):
            if a in seen:
                continue
            cls = frozenset(int(self.table[self.table[h, a], self.inverse[h]])
                            for h in range(self.size))
            seen |= cls
            out.append(cls)
        return out

    def fq_class_count(self, q):
        """Number of F_q-conjugacy classes: classes up to g ~ g^q."""
        classes = self.conjugacy_classes()
        where = {a: k for k, cls in enumerate(classes) for a in cls}
        parent = list(range(len(classes)))

        def find(k):
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        for k, cls in enumerate(classes):
            rep = next(iter(cls))
            image = where[self.power(rep, q)]
            parent[find(k)] = find(image)
        return len({find(k) for k in range(len(classes))})


# ---------------------------------------------------------------------------
# F_q arithmetic on digit vectors (prime q, or F_9 = F_3[t]/(t^2 + 1))


def _conv(a, b, N):
    """Cyclic convolution of integer vectors of length N."""
    full = np.convolve(a, b)
    out = full[:N].copy()
    out[:len(full) - N] += full[N:]
    return out


def poly_mul_cyclic(P, Q, N, p):
    """P * Q mod (x^N - 1) for coefficient arrays of shape (N, m)."""
    if P.shape[1] == 1:
        return (_conv(P[:, 0], Q[:, 0], N) % p)[:, None]
    # (a0 + a1 t)(b0 + b1 t) = (a0 b0 - a1 b1) + (a0 b1 + a1 b0) t
    re = _conv(P[:, 0], Q[:, 0], N) - _conv(P[:, 1], Q[:, 1], N)
    im = _conv(P[:, 0], Q[:, 1], N) + _conv(P[:, 1], Q[:, 0], N)
    return np.stack([re % p, im % p], axis=1)


class Algebra:
    """F_qG on (2N, m) digit arrays, product by the twisted polynomial rule."""

    def __init__(self, kind, n, s, q):
        self.p, self.m = prime_and_degree(q)
        if self.m > 2 or (self.m == 2 and self.p != 3):
            raise ValueError(f"F_{q} is outside the checked field sizes")
        self.N = N = n if kind == "split" else 2 * n
        self.s = s % N if N > 1 else 0
        self.c = 0 if kind == "split" else n

    def element(self, flat):
        arr = np.asarray(flat, dtype=np.int64)
        if arr.shape != (2 * self.N, self.m):
            raise ValueError(f"flat has shape {arr.shape}, "
                             f"expected {(2 * self.N, self.m)}")
        return arr % self.p

    def basis(self, i, j):
        out = np.zeros((2 * self.N, self.m), dtype=np.int64)
        out[j * self.N + i % self.N, 0] = 1
        return out

    def one(self):
        return self.basis(0, 0)

    def _twist(self, P):
        """P(x) -> P(x^s)."""
        out = np.zeros_like(P)
        idx = (np.arange(self.N) * self.s) % self.N if self.N > 1 else [0]
        out[idx] = P
        return out

    def mul(self, u, v):
        N, p = self.N, self.p
        P1, Q1, P2, Q2 = u[:N], u[N:], v[:N], v[N:]
        yy = np.roll(poly_mul_cyclic(Q1, self._twist(Q2), N, p), self.c, axis=0)
        P = (poly_mul_cyclic(P1, P2, N, p) + yy) % p
        Q = (poly_mul_cyclic(P1, Q2, N, p)
             + poly_mul_cyclic(Q1, self._twist(P2), N, p)) % p
        return np.concatenate([P, Q])

    def is_central(self, u):
        return all(np.array_equal(self.mul(g, u), self.mul(u, g))
                   for g in (self.basis(1, 0), self.basis(0, 1)))


# ---------------------------------------------------------------------------
# sweep


def check_sweep_report(report):
    """One `InstanceReport.to_json()` entry from `run_battery`."""
    problems = []
    key = f"{report['kind']}:n={report['n']},s={report['s']} q={report['q']}"
    for name in CHECK_CLASSES:
        verdict = report["checks"].get(name)
        if verdict != "pass":
            problems.append(f"{key}: check {name} reads {verdict!r}")
    order = group_order(report["kind"], report["n"])
    if report["order"] != order:
        problems.append(f"{key}: order {report['order']} != {order}")
    G = Group(report["kind"], report["n"], report["s"])
    want = G.fq_class_count(report["q"])
    if report["component_count"] != want:
        problems.append(f"{key}: component_count {report['component_count']}"
                        f" != {want} F_q-classes")
    classes = len(G.conjugacy_classes())
    if report["center_dimension"] != classes:
        problems.append(f"{key}: center_dimension {report['center_dimension']}"
                        f" != {classes} conjugacy classes")
    total = sum(l * l * m for l, m in report["shapes"])
    if total != order:
        problems.append(f"{key}: shapes sum to {total}, |G| = {order}")
    if len(report["shapes"]) != report["component_count"]:
        problems.append(f"{key}: {len(report['shapes'])} shapes for "
                        f"{report['component_count']} components")
    return problems


# ---------------------------------------------------------------------------
# factor


def cyclotomic_cosets(N, q):
    out = set()
    for a in range(N):
        orbit = {a}
        b = a * q % N
        while b not in orbit:
            orbit.add(b)
            b = b * q % N
        out.add(tuple(sorted(orbit)))
    return out


def _f9_poly_mul(a, b):
    """Product of polynomials over F_9, coefficients as (c0, c1) pairs."""
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, (a0, a1) in enumerate(a):
        for j, (b0, b1) in enumerate(b):
            c0, c1 = out[i + j]
            out[i + j] = ((c0 + a0 * b0 - a1 * b1) % 3,
                          (c1 + a0 * b1 + a1 * b0) % 3)
    return out


def _sympy_factors(N, p):
    from sympy import ZZ
    from sympy.polys.galoistools import gf_factor_sqf

    xn1 = [1] + [0] * (N - 1) + [p - 1]
    _, factors = gf_factor_sqf(xn1, p, ZZ)
    return sorted(tuple(int(c) % p for c in f) for f in factors)


def check_factor(q, N, s, payload):
    """`factor --format json` output for x^N - 1 over F_q, twist s."""
    problems = []
    key = f"factor q={q} N={N} s={s}"
    p, m = prime_and_degree(q)
    if (payload.get("q"), payload.get("N")) != (q, N):
        problems.append(f"{key}: payload is for q={payload.get('q')} "
                        f"N={payload.get('N')}")
        return problems
    s = s % N if N > 1 else 1
    factors = payload["factors"]
    cosets = [tuple(f["coset"]) for f in factors]
    if sorted(cosets) != sorted(cyclotomic_cosets(N, q)):
        problems.append(f"{key}: cosets differ from the {q}-cyclotomic cosets")
    for f in factors:
        coset = tuple(f["coset"])
        if f["degree"] != len(coset) or len(f["coeffs"]) != len(coset) + 1:
            problems.append(f"{key}: factor of coset {coset} has degree "
                            f"{f['degree']} and {len(f['coeffs'])} coefficients")
        if [int(c) for c in f["coeffs"][-1]] != [1] + [0] * (m - 1):
            problems.append(f"{key}: factor of coset {coset} is not monic")
        fixed = {c * s % N for c in coset} == set(coset)
        if f["self_involutive"] != fixed:
            problems.append(f"{key}: coset {coset} self_involutive "
                            f"{f['self_involutive']}, s-action says {fixed}")
    if problems:
        return problems
    if m == 1:
        ours = sorted(tuple(int(c[0]) % p for c in reversed(f["coeffs"]))
                      for f in factors)
        if ours != _sympy_factors(N, p):
            problems.append(f"{key}: factors differ from sympy's gf_factor_sqf")
    else:
        prod = [(1, 0)]
        for f in factors:
            prod = _f9_poly_mul(prod, [(int(a) % 3, int(b) % 3)
                                       for a, b in f["coeffs"]])
        want = [(2, 0)] + [(0, 0)] * (N - 1) + [(1, 0)]
        if prod != want:
            problems.append(f"{key}: the factors do not multiply to x^N - 1 "
                            "over F_9")
    return problems


# ---------------------------------------------------------------------------
# idempotents


def check_idempotents(kind, n, s, q, payload):
    """`idempotents --include-noncentral --format json` output."""
    problems = []
    key = f"idempotents {kind}:n={n},s={s} q={q}"
    A = Algebra(kind, n, s, q)
    entries = payload["entries"]
    elements = {}
    for e in entries:
        try:
            elements[e["label"]] = A.element(e["flat"])
        except ValueError as exc:
            problems.append(f"{key}: {e['label']}: {exc}")
    if problems:
        return problems
    zero = np.zeros_like(A.one())
    for label, u in elements.items():
        if not np.array_equal(A.mul(u, u), u):
            problems.append(f"{key}: {label} is not idempotent")

    centrals = [e["label"] for e in entries if e["kind"] == "central-primitive"]
    pairs = {}
    for e in entries:
        if e["kind"] == "non-central-primitive":
            pairs.setdefault(e["parent"], []).append(e["label"])
    want = Group(kind, n, s).fq_class_count(q)
    if len(centrals) != want:
        problems.append(f"{key}: {len(centrals)} central idempotents, "
                        f"{want} F_q-classes")
    total = zero
    for i, a in enumerate(centrals):
        u = elements[a]
        total = (total + u) % A.p
        if not A.is_central(u):
            problems.append(f"{key}: {a} does not commute with x and y")
        for b in centrals[i + 1:]:
            v = elements[b]
            if A.mul(u, v).any() or A.mul(v, u).any():
                problems.append(f"{key}: {a} and {b} are not orthogonal")
    if not np.array_equal(total, A.one()):
        problems.append(f"{key}: the central idempotents do not sum to 1")

    commutator = (A.mul(A.basis(1, 0), A.basis(0, 1))
                  - A.mul(A.basis(0, 1), A.basis(1, 0))) % A.p
    for a in centrals:
        noncommutative = A.mul(elements[a], commutator).any()
        if noncommutative != (a in pairs):
            problems.append(f"{key}: {a} has e(xy - yx) "
                            f"{'!=' if noncommutative else '=='} 0 but "
                            f"{'no' if a not in pairs else 'a'} non-central pair")
    for parent, labels in pairs.items():
        if parent not in elements or len(labels) != 2:
            problems.append(f"{key}: pair {labels} under {parent!r}")
            continue
        e1, e2 = (elements[x] for x in labels)
        if A.mul(e1, e2).any() or A.mul(e2, e1).any():
            problems.append(f"{key}: the pair under {parent} is not orthogonal")
        if not np.array_equal((e1 + e2) % A.p, elements[parent]):
            problems.append(f"{key}: the pair under {parent} does not sum to it")
        for x, e in zip(labels, (e1, e2)):
            if A.is_central(e):
                problems.append(f"{key}: {x} is central")
    return problems

