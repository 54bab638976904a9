"""Brute-force ground truth for F_qG: table-based arithmetic and checks.

Nothing in here knows the structure theory: no factor of x^N - 1, no
factor field, no frame.  Elements are coefficient vectors indexed by the
group's normal forms, products go through the multiplication table, the
center comes out of exact linear algebra mod p, and the number of simple
components is read off the fixed space of the p-power map on the center.  The decomposition machinery is tested against
this module, never the other way around.

Coefficients of F_{p^m} are stored componentwise as integers mod p in a
numpy array of shape (|G|, m), so all the heavy loops are vectorized but
every operation stays exact.  Products and the centrality test gather
through division tables: left[a, k] = b with ab = k, right[k, c] = b with bk = c.
"""

from functools import lru_cache

import numpy as np

from .fields import ExtField, PrimeField, _power, make_field, split_prime_power
from .groups import element_index, group_elements
from .polys import Poly


class GroupMismatch(TypeError):
    pass


def _structure_tensor(field):
    """T[a, b, k] with w^a * w^b = sum_k T[a, b, k] w^k for F_p[w] = F_{p^m}."""
    m = field.degree
    if m == 1:
        return np.ones((1, 1, 1), dtype=np.int64)
    if not (isinstance(field, ExtField) and isinstance(field.base, PrimeField)):
        raise TypeError("oracle supports F_p and one-step extensions F_{p^m} only")
    T = np.zeros((m, m, m), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            T[a, b] = (field.gen ** (a + b)).key()
    return T


def multiplication_table(group):
    """table[a, b] = c with g_a g_b = g_c, indexed as in group_elements.

    From the law x^i y^j * x^k y^l = x^(i + s^j k + n [j = l = 1]) y^(j + l mod 2):
    y^2 = x^n for both kinds, since x^n = 1 when N = n.
    """
    N = group.N
    i = np.tile(np.arange(N), 2)
    j = np.repeat(np.arange(2), N)
    power = (i[:, None] + np.where(j, group.s, 1)[:, None] * i
             + group.n * (j[:, None] & j))
    return ((j[:, None] ^ j) * N + power % N).astype(np.intp)


class GroupAlgebra:
    """The group algebra F_qG with its multiplication table.

    The table is validated on construction: identity row and column,
    associativity checked exhaustively for |G| <= 32 or on seeded random
    triples above that, and every row and column a permutation.
    """

    def __init__(self, group, field, seed=0):
        if field.order != group.q:
            raise ValueError(f"field of size {field.order} vs group over q = {group.q}")
        self.group = group
        self.field = field
        self.p = field.char
        self.m = field.degree
        self.size = group.order
        # multiply's largest int64 intermediates are m (p-1)^2 and |G| (p-1); the
        # threshold is kept as it was, m^2 (p-1)^3 >= m (p-1)^2 for m > 1
        p1, m = self.p - 1, self.m
        entry = p1 * p1 * (m * m * p1 if m > 1 else 1)
        if max(entry, self.size * p1) >= 2 ** 63:
            raise ValueError(f"q = {field.order} is too large for the oracle's exact int64 "
                             "arithmetic: it needs m^2 (p-1)^3 < 2^63 for m > 1, "
                             "(p-1)^2 < 2^63 for m = 1, and |G| (p-1) < 2^63")
        self.elements = group_elements(group)
        n = self.size
        table = self.table = multiplication_table(group)
        table.setflags(write=False)
        idx = np.arange(n)
        assert (table[0] == idx).all() and (table[:, 0] == idx).all()
        if n <= 32:
            left = table[table]                       # [a,b,c] = (ab)c
            right = np.take(table, table, axis=1)     # [a,b,c] = a(bc)
            assert (left == right).all(), "multiplication table not associative"
        else:
            rng = np.random.default_rng(seed)
            a, b, c = rng.integers(0, n, size=(2000, 3)).T
            assert (table[table[a, b], c] == table[a, table[b, c]]).all(), \
                "multiplication table not associative"
        # argsort inverts the rows and columns if they are permutations:
        # table[a, left[a, k]] = k and table[right[k, c], k] = c
        self.left = np.argsort(table, axis=1)
        self.right = np.ascontiguousarray(np.argsort(table, axis=0).T)
        assert (np.take_along_axis(table, self.left, axis=1) == idx).all() and \
            (table[self.right, idx[:, None]] == idx).all(), "table is not a Latin square"
        self.left.setflags(write=False)
        self.right.setflags(write=False)
        self.tensor = _structure_tensor(field)
        self._center = None  # center_basis fills this in on its first call

    def zero(self):
        return AlgebraElement(self, np.zeros((self.size, self.m), dtype=np.int64))

    def one(self):
        return self.basis_element(0)

    def basis_element(self, k):
        c = np.zeros((self.size, self.m), dtype=np.int64)
        c[k, 0] = 1
        return AlgebraElement(self, c)

    def from_polys(self, P, Q):
        """The element P(x) + Q(x) y; degrees must stay below N."""
        N = self.group.N
        if P.degree >= N or Q.degree >= N:
            raise ValueError("coefficient polynomials must have degree < N")
        c = np.zeros((self.size, self.m), dtype=np.int64)
        key = self.field._key
        for i, coef in enumerate(P.reps):
            c[element_index(self.group, i, 0)] = key(coef)
        for i, coef in enumerate(Q.reps):
            c[element_index(self.group, i, 1)] = key(coef)
        return AlgebraElement(self, c)


@lru_cache(maxsize=None)
def algebra_for(group):
    """The cached F_qG over the canonical F_q from make_field.

    Cached because arithmetic checks algebra identity, so elements built
    from separate calls must share one algebra; like the fields, per
    process.
    """
    return GroupAlgebra(group, make_field(*split_prime_power(group.q)))


class AlgebraElement:
    """One element of a GroupAlgebra; immutable, exact."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.int64) % algebra.p
        coeffs.setflags(write=False)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("algebra elements are immutable")

    def _check(self, other):
        if not isinstance(other, AlgebraElement):
            raise GroupMismatch(f"expected AlgebraElement, got {type(other).__name__}")
        if other.algebra is not self.algebra:
            raise GroupMismatch("elements of different group algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.coeffs)

    def __mul__(self, other):
        return multiply(self, other)

    def __pow__(self, k):
        return _power(self, k, self.algebra.one(), multiply)

    def is_zero(self):
        return not self.coeffs.any()

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and other.algebra is self.algebra
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((id(self.algebra), self.coeffs.tobytes()))

    def to_polys(self):
        """Recover (P, Q) with self = P(x) + Q(x) y."""
        A = self.algebra
        F = A.field
        N = A.group.N

        def grab(j):
            out = []
            for i in range(N):
                v = self.coeffs[element_index(A.group, i, j)]
                out.append(F.elt(int(v[0])) if A.m == 1
                           else F.elt([int(t) for t in v]))
            return Poly(F, out)

        return grab(0), grab(1)

    def __repr__(self):
        P, Q = self.to_polys()
        return f"({P!r}) + ({Q!r})*y"


def multiply(u, v):
    """Exact product in the group algebra, gathered through the left table.

    UT[a] is the F_p-matrix of x -> u_a x, so P[a, k] is the term u_a v_{left[a, k]}
    of coefficient k; each is reduced mod p before the |G| terms are summed, so
    no intermediate leaves int64 within GroupAlgebra's bound.
    """
    u._check(v)
    A = u.algebra
    m, p = A.m, A.p
    UT = (u.coeffs @ A.tensor.reshape(m, m * m)).reshape(A.size, m, m) % p
    P = np.take(v.coeffs, A.left, axis=0) @ UT
    P %= p
    return AlgebraElement(A, P.sum(axis=0))


def is_idempotent(u):
    return u * u == u


def is_central(u):
    """u commutes with every group basis element (hence with everything).

    Row k of u gathered through left is e_k u, and through right u e_k.
    """
    c, A = u.coeffs, u.algebra
    return bool((np.take(c, A.left, axis=0) == np.take(c, A.right, axis=0)).all())


def are_orthogonal(u, v):
    return (u * v).is_zero() and (v * u).is_zero()


def sums_to_one(elements):
    it = iter(elements)
    try:
        acc = next(it)
    except StopIteration:
        return False
    for e in it:
        acc = acc + e
    return acc == acc.algebra.one()


# ---------------------------------------------------------------------------
# exact linear algebra mod p


def _rref_mod(A, p):
    """Reduced row echelon form of A mod p; returns (R, pivot_columns)."""
    R = A.copy() % p
    rows, cols = R.shape
    pivots = []
    rank = 0
    for c in range(cols):
        col = R[rank:, c]
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        r = rank + nz[0]
        if r != rank:
            R[[rank, r]] = R[[r, rank]]
        R[rank] = R[rank] * pow(int(R[rank, c]), p - 2, p) % p
        mask = np.flatnonzero(R[:, c])
        mask = mask[mask != rank]
        R[mask] = (R[mask] - np.outer(R[mask, c], R[rank])) % p
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return R, pivots


def _nullspace_mod(A, p):
    """Columns spanning {v : A v = 0 mod p}, shape (cols, nullity)."""
    R, pivots = _rref_mod(A, p)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for r, pc in enumerate(pivots):
            basis[pc, k] = (-R[r, fc]) % p
    return basis


def _solve_mod(A, B, p):
    """X with A X = B mod p, A of full column rank; asserts consistency."""
    cols = A.shape[1]
    aug = np.concatenate([A, B], axis=1) % p
    R, pivots = _rref_mod(aug, p)
    assert pivots == list(range(cols)), "coefficient matrix lost rank"
    assert not R[cols:, cols:].any() if R.shape[0] > cols else True, \
        "inconsistent linear system"
    return R[:cols, cols:].copy()


def center_basis(algebra):
    """Basis of the center {z : z e_k = e_k z for all k}, over F_q.

    Imposes the commutation constraint with every basis element in turn,
    shrinking a nullspace basis as it goes.  The constraint for e_k is
    z[left[k, c]] = z[right[k, c]] for every c, a gather on B's rows.  The
    constraints have 0/1 integer coefficients, so a mod-p basis is
    automatically an F_q-basis of the F_q-center; its length is the center's
    F_q-dimension.  Each constraint equates two coordinates, so B stays the
    0/1 indicator matrix of a partition of G, one 1 per row, and no product
    below sums more than two nonzero terms of size 1: exact in int64 for
    every p.  Computed once per algebra and kept on it, as a tuple.
    """
    A = algebra
    if A._center is not None:
        return A._center
    n, p = A.size, A.p
    B = np.eye(n, dtype=np.int64)
    for k in range(n):
        M = (B[A.left[k]] - B[A.right[k]]) % p
        if M.any():
            B = (B @ _nullspace_mod(M, p)) % p
            if B.shape[1] == 0:
                break
    out = []
    for col in B.T:
        c = np.zeros((n, A.m), dtype=np.int64)
        c[:, 0] = col
        out.append(AlgebraElement(A, c))
    A._center = tuple(out)
    return A._center


def center_dimension(algebra):
    return len(center_basis(algebra))


def component_count(algebra):
    """Number of simple components, from the center alone.

    The p-power map is F_p-linear on the (commutative) center and fixes a
    copy of F_p in each simple summand and nothing more, so the component
    count is the dimension of its fixed space over F_p.
    """
    A = algebra
    p, m = A.p, A.m
    zbasis = center_basis(algebra)
    vecs = []
    for z in zbasis:
        for t in range(m):
            c = np.zeros((A.size, m), dtype=np.int64)
            # multiplying by w^t shifts the F_p-coordinates through the tensor
            c[:, :] = np.einsum("im,mk->ik", z.coeffs,
                                A.tensor[:, t, :]) % p
            vecs.append(AlgebraElement(A, c))
    Z = np.stack([v.coeffs.ravel() for v in vecs], axis=1)
    W = np.stack([(v ** p).coeffs.ravel() for v in vecs], axis=1)
    F = _solve_mod(Z, W, p)
    K = F.shape[0]
    fixed = _nullspace_mod((F - np.eye(K, dtype=np.int64)) % p, p)
    return fixed.shape[1]
