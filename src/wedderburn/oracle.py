"""Brute-force ground truth for F_qG: table-based arithmetic and checks.

Nothing in here knows the structure theory: no factor of x^N - 1, no
factor field, no frame.  Elements are coefficient vectors indexed by the
group's normal forms, products go through the multiplication table, the
center comes out of exact linear algebra mod p, and the number of simple
components is read off the fixed space of the p-power map on the center.
The decomposition machinery is tested against this module, never the
other way around.

Coefficients of F_{p^m} are stored componentwise as integers mod p in a
numpy array of shape (|G|, m), so all the heavy loops are vectorized but
every operation stays exact.  The centrality test and the center gather
through division tables: left[a, k] = b with ab = k, right[k, c] = b with
bk = c.  Every product goes through one kernel, products, on stacks of
shape (k, |G|, m): each U[i] becomes its left-multiplication matrix, read
from right, and meets the other stack in one integer matmul, either all
pairs U[i] V[j] or elementwise U[i] V[i].  The matmul sums are reduced mod
p in blocks short enough for int64 at the given p.  multiply is its k = 1
case; the battery's orthogonality check, the four products of
check_pair and the p-th powers of component_count are whole stacks.
"""

from functools import lru_cache, partial

import numpy as np

from .fields import ExtField, PrimeField, _power, make_field, split_prime_power
from .groups import element_index, group_elements
from .polys import Poly


# the most int64 values any intermediate of products may hold
_CHUNK = 1 << 18


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
    associativity proved from the generators x and y by Light's test, and
    every row and column a permutation.
    """

    def __init__(self, group, field):
        if field.order != group.q:
            raise ValueError(f"field of size {field.order} vs group over q = {group.q}")
        self.group = group
        self.field = field
        self.p = field.char
        self.m = field.degree
        self.size = group.order
        # products' largest int64 intermediates are the entries of UT, up to
        # m (p-1)^2, and its matmul sums, which _matmul_mod blocks below 2^63 for
        # every p.  The threshold is kept as it was: m^2 (p-1)^3 >= m (p-1)^2 for
        # m > 1, and no sum of |G| terms is left to need |G| (p-1) < 2^63
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
        if not ((table[0] == idx).all() and (table[:, 0] == idx).all()):
            raise AssertionError
        # (ab)c = a(bc) for all a, b and c in {x, y} gives it for every c, by
        # induction on a word for c (Light's test).  The walk g_i x =
        # g_(i+1 mod N), g_i y = g_(N+i), i < N, writes every g as a word in
        # x and y, so the induction reaches every c
        N, x, y = group.N, element_index(group, 1, 0), element_index(group, 0, 1)
        i = idx[:N]
        words = (table[i, x] == (i + 1) % N).all() and (table[i, y] == N + i).all()
        if not words or any((table[:, c][table] != table[:, table[:, c]]).any()
                            for c in (x, y)):
            raise AssertionError("multiplication table not associative")
        # argsort inverts the rows and columns if they are permutations:
        # table[a, left[a, k]] = k and table[right[k, c], k] = c
        self.left = np.argsort(table, axis=1)
        self.right = np.ascontiguousarray(np.argsort(table, axis=0).T)
        if not ((np.take_along_axis(table, self.left, axis=1) == idx).all()
                and (table[self.right, idx[:, None]] == idx).all()):
            raise AssertionError("table is not a Latin square")
        self.left.setflags(write=False)
        self.right.setflags(write=False)
        # products reads left-multiplication matrices through this gather:
        # L[(c, y), (b, x)] = UT[a, x, y] with ab = c, where a = right[b, c]
        # and UT[a, x, y] sits at (a m + x) m + y of UT's flat rows
        c, y, b, x = np.ix_(idx, range(m), idx, range(m))
        self.gather = ((self.right[b, c] * m + x) * m + y).reshape(n * m, n * m)
        self.gather.setflags(write=False)
        # tensor[a] is the F_p-matrix of x -> w^a x, flattened to m^2 entries
        self.tensor = _structure_tensor(field).reshape(m, m * m)
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
    """Exact product in the group algebra: the one-element case of products."""
    u._check(v)
    A = u.algebra
    return AlgebraElement(A, products(A, u.coeffs[None], v.coeffs[None])[0])


def coefficient_stack(elements):
    """(A, U): the one algebra the elements share, taken from the elements,
    and their coefficients stacked to shape (k, |G|, m)."""
    first = elements[0]
    for e in elements:
        first._check(e)
    return first.algebra, np.stack([e.coeffs for e in elements])


def _matmul_mod(L, V, p):
    """L @ V mod p for entries in [0, p), summed in blocks of at most
    (2^63 - 1) // (p - 1)^2 terms, so no sum leaves int64."""
    step = (2 ** 63 - 1) // (p - 1) ** 2
    acc = L[..., :step] @ V[..., :step, :] % p
    for s in range(step, L.shape[-1], step):
        acc += L[..., s:s + step] @ V[..., s:s + step, :] % p
        acc %= p
    return acc


def products(A, U, V, pairs=False):
    """Products in A of coefficient stacks U and V of shape (k, |G|, m),
    entries in [0, p).

    pairs=False: P[i] = U[i] V[i], shape (k, |G|, m), where a stack of
    length 1 is broadcast against the other.  pairs=True: P[i, j] = U[i] V[j],
    shape (len(U), len(V), |G|, m).  Each U[i] becomes its left-multiplication
    matrix L, gathered from the F_p-matrices UT[a] of x -> u_a x, and L is
    applied to V by one integer matmul.  The stack, and past |G| m = 512 the
    rows of L, are chunked so that no intermediate holds more than _CHUNK
    values.
    """
    n, m, p = A.size, A.m, A.p
    nm, ku, kv = n * m, len(U), len(V)
    if pairs:
        k, cols = ku, kv
        V = V.reshape(kv, nm).T
    elif ku == kv or ku == 1 or kv == 1:
        k, cols = max(ku, kv), 1
        V = V.reshape(kv, nm, 1)
    else:
        raise ValueError(f"stacks of {ku} and {kv} elements do not broadcast")
    out = np.empty((k, cols, nm) if pairs else (k, nm, 1), dtype=np.int64)
    width = max(nm, cols)                       # values in a row of L and of L @ V
    rows = min(nm, _CHUNK // width) or 1
    chunk = _CHUNK // (rows * width) or 1
    for i in range(0, k, chunk):
        UT = (U[i:i + chunk] if ku > 1 else U) @ A.tensor % p
        UT = UT.reshape(len(UT), n * m * m)
        Vi = V if pairs or kv == 1 else V[i:i + chunk]
        for r in range(0, nm, rows):
            P = _matmul_mod(UT[:, A.gather[r:r + rows]], Vi, p)
            if pairs:
                out[i:i + chunk, :, r:r + rows] = P.transpose(0, 2, 1)
            else:
                out[i:i + chunk, r:r + rows] = P
    return out.reshape((k, cols, n, m) if pairs else (k, n, m))


def is_idempotent(u):
    return u * u == u


def is_central(u):
    """u commutes with every group basis element (hence with everything).

    Row k of u gathered through left is e_k u, and through right u e_k.
    """
    c, A = u.coeffs, u.algebra
    return bool((c[A.left] == c[A.right]).all())


def are_orthogonal(u, v):
    return (u * v).is_zero() and (v * u).is_zero()


def check_pair(parent, e1, e2, label):
    """Raise AssertionError unless e1 and e2 are orthogonal idempotents,
    neither central, that sum to parent; the message names them label/1
    and label/2.  The four products e1 e1, e2 e2, e1 e2 and e2 e1 are one
    elementwise products call."""
    names = (f"{label}/1", f"{label}/2")
    A, U = coefficient_stack([e1, e2])
    left, right = [0, 1, 0, 1], [0, 1, 1, 0]  # e1 e1, e2 e2, e1 e2, e2 e1
    want = U[left] * np.array([1, 1, 0, 0])[:, None, None]
    wrong = (products(A, U[left], U[right]) != want).any(axis=(1, 2))
    if wrong.any():
        i, j = left[wrong.argmax()], right[wrong.argmax()]
        raise AssertionError(f"{names[i]} {names[j]} is not {names[i] if i == j else 0}")
    if e1 + e2 != parent:
        raise AssertionError(f"{names[0]} + {names[1]} is not {label}")
    for name, e in zip(names, (e1, e2)):
        if is_central(e):
            raise AssertionError(f"{name} is central")


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
        nz = R[rank:, c].nonzero()[0]
        if nz.size == 0:
            continue
        r = rank + nz[0]
        if r != rank:
            R[[rank, r]] = R[[r, rank]]
        R[rank] = R[rank] * pow(int(R[rank, c]), p - 2, p) % p
        mask = R[:, c].nonzero()[0]
        mask = mask[mask != rank]
        R[mask] = (R[mask] - R[mask, c, None] * R[rank]) % p
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
    basis[free, range(len(free))] = 1
    basis[pivots] = -R[:len(pivots), free] % p
    return basis


def _solve_mod(A, B, p):
    """X with A X = B mod p, A of full column rank; asserts consistency."""
    cols = A.shape[1]
    aug = np.concatenate([A, B], axis=1) % p
    R, pivots = _rref_mod(aug, p)
    if pivots != list(range(cols)):
        raise AssertionError("coefficient matrix lost rank")
    if R[cols:, cols:].any():
        raise AssertionError("inconsistent linear system")
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
    every p.  So B's rows are unit vectors, and one gather of their labels
    finds the next e_k whose constraint B does not yet meet.  Computed once
    per algebra and kept on it, as a tuple.
    """
    A = algebra
    if A._center is not None:
        return A._center
    n, p = A.size, A.p
    B = np.eye(n, dtype=np.int64)
    k = 0
    while k < n:
        label = B.argmax(axis=1)
        unmet = (label[A.left[k:]] != label[A.right[k:]]).any(axis=1).nonzero()[0]
        if not unmet.size:
            break
        k += int(unmet[0])
        B = B @ _nullspace_mod((B[A.left[k]] - B[A.right[k]]) % p, p) % p
        k += 1
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
    count is the dimension of its fixed space over F_p.  The F_p-basis
    w^t z of the center is raised to the p-th power as one stack.
    """
    A = algebra
    n, p, m = A.size, A.p, A.m
    Z = np.stack([z.coeffs for z in center_basis(algebra)])
    # multiplying by w^t shifts the F_p-coordinates through the tensor
    vecs = np.einsum("dim,mtk->dtik", Z, A.tensor.reshape(m, m, m)).reshape(-1, n, m) % p
    powers = _power(vecs, p, None, partial(products, A))  # one is read only at e = 0
    F = _solve_mod(vecs.reshape(len(vecs), -1).T, powers.reshape(len(vecs), -1).T, p)
    K = F.shape[0]
    fixed = _nullspace_mod((F - np.eye(K, dtype=np.int64)) % p, p)
    return fixed.shape[1]
