"""Dense exact matrices over finite fields: products, inverses and powers
(upper-triangular ones by back substitution and from their diagonal) and
row reduction for general systems, and `Echelon`, the one incremental
elimination. Everything that grows a basis vector by vector goes through
it: the Krylov annihilator and coordinates the orbit problem and
linear-map powers are built on (`krylov`, `annihilator`, `min_poly`) and
the power basis of an extension-field element (`PowerBasis`).

Vectors are tuples of field elements; a Matrix is immutable and hashable so
it can double as a black-box group code-word.
"""

import math
import operator

from .errors import SdlpError
from .ff import Poly, PrimeField
from .integers import _pow, _reduce_exponent

# Powers of an upper-triangular matrix with an exponent of at least this
# many bits take `_triangular_power`, and only they pay the triangularity
# scan. From here the route is faster over every prime and binary field
# timed; over odd extension fields, whose inversions are slow, it wins only
# from 8 to 17 bits on (timed table in CHANGES.md)
_TRIANGULAR_POWER_MIN_BITS = 5


class Matrix:
    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(map(tuple, rows))
        if len(set(map(len, self.rows))) > 1:
            raise SdlpError("ragged matrix rows")

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, r, c):
        return cls(field, [[field.zero] * c for _ in range(r)])

    @classmethod
    def from_columns(cls, field, cols):
        return cls(field, cols).transpose()

    @classmethod
    def companion(cls, poly: Poly):
        """Companion matrix of a monic polynomial."""
        F = poly.field
        n = poly.degree()
        rows = [[F.zero] * n for _ in range(n)]
        for i in range(1, n):
            rows[i][i - 1] = F.one
        for i in range(n):
            rows[i][n - 1] = F.neg(poly.coeffs[i])
        return cls(F, rows)

    def affine(self, v):
        """[[self, v], [0, 1]]: the map x -> self x + v on (x, 1)."""
        F = self.field
        return Matrix(F, [row + (a,) for row, a in zip(self.rows, v)] + [(F.zero,) * self.ncols + (F.one,)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def is_square(self):
        return self.nrows == self.ncols

    def __eq__(self, other):
        return isinstance(other, Matrix) and other.field == self.field and other.rows == self.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __add__(self, other):
        F = self.field
        return Matrix(F, [[F.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        F = self.field
        return Matrix(F, [[F.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def scale(self, c):
        F = self.field
        return Matrix(F, [[F.mul(c, a) for a in r] for r in self.rows])

    def __mul__(self, other):
        if self.ncols != other.nrows:
            raise SdlpError("matrix dimension mismatch")
        return Matrix(self.field, self.field.products(self.rows, list(zip(*other.rows))))

    def matvec(self, v):
        dot = self.field.dot
        return tuple(dot(r, v) for r in self.rows)

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows)) if self.rows else [])

    def __pow__(self, n: int):
        """self^n. n is first reduced by the exponent of the monoid of d x d
        matrices over F_q (`integers._reduce_exponent`): from n >= d + E(q,
        d) on, self^n = self^(d + (n - d) mod E), singular self included.
        An upper-triangular matrix with n of at least
        _TRIANGULAR_POWER_MIN_BITS bits is then r(self) for r = x^n mod its
        characteristic polynomial (`_triangular_power`): one field power per
        distinct diagonal entry and d - 2 matrix products; every other power
        is square-and-multiply.
        A negative n inverts first (the inverse of a triangular matrix is
        triangular)."""
        if not self.is_square():
            raise SdlpError("power of a non-square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        F = self.field
        n = _reduce_exponent(n, self.nrows, F.size, F.char)
        if n == 0:
            return Matrix.identity(F, self.nrows)
        if n.bit_length() >= _TRIANGULAR_POWER_MIN_BITS and self.is_upper_triangular():
            return _triangular_power(self, n)
        return _pow(self, n, operator.mul, None)  # `one` is read only at n = 0

    def inverse(self):
        """self^-1: by back substitution for an upper-triangular matrix,
        else by row reduction of [self | I]."""
        F = self.field
        n = self.nrows
        if not self.is_square():
            raise SdlpError("inverse of a non-square matrix")
        if self.is_upper_triangular():
            return _triangular_inverse(self)
        aug = [list(r) + [F.one if i == j else F.zero for j in range(n)] for i, r in enumerate(self.rows)]
        rows, pivots = _rref(aug, F)
        if pivots != list(range(n)):
            raise SdlpError("singular matrix")
        return Matrix(F, [r[n:] for r in rows])

    def rank(self):
        return len(_rref([list(r) for r in self.rows], self.field)[1])

    def is_invertible(self):
        return self.is_square() and self.rank() == self.nrows

    def is_upper_triangular(self):
        zero = self.field.zero
        return all(a == zero for i, r in enumerate(self.rows) for a in r[:i])

    def is_identity(self):
        F = self.field
        return self.is_square() and all(
            a == (F.one if i == j else F.zero) for i, r in enumerate(self.rows) for j, a in enumerate(r)
        )

    def entries_key(self):
        """Flat tuple of canonical ints; stable across equal matrices."""
        F = self.field
        return tuple(F.to_int(a) for r in self.rows for a in r)

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def flatten(self):
        return tuple(a for r in self.rows for a in r)

    @classmethod
    def unflatten(cls, field, flat, nrows, ncols):
        return cls(field, [flat[i * ncols : (i + 1) * ncols] for i in range(nrows)])

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.rows]})"


def _triangular_power(M: Matrix, n: int) -> Matrix:
    """M^n for an upper-triangular M and n >= 0, as r(M) with r = x^n mod
    chi, chi = prod_i (x - m_ii): the roots of chi are the diagonal, so r
    is the Hermite interpolant of x^n there (Higham, Functions of
    Matrices, 2008, 1.2). r is taken in Newton form over the diagonal
    entries, equal ones next to each other, and evaluated by Horner's rule
    in d - 2 matrix products.

    The divided difference over k + 1 equal nodes lam is the Hasse
    derivative C(n, k) lam^(n - k), which holds in characteristic p where
    the k-th derivative over k! does not; over distinct end nodes it is
    the usual quotient. Each distinct diagonal value takes one field power.
    """
    F = M.field
    d = M.nrows
    mult = {}  # distinct diagonal values in first-seen order -> multiplicity
    for i, row in enumerate(M.rows):
        mult[row[i]] = mult.get(row[i], 0) + 1
    prime = isinstance(F, PrimeField)
    nodes, hasse = [], {}
    for lam, m in mult.items():
        nodes += [lam] * m
        # lam^n = lam^(1 + (n - 1) mod (q - 1)) for n >= q: the n = 1 case of
        # _reduce_exponent, which the builtin pow does not need
        terms = [pow(lam, n, F.p) if prime else _pow(lam, _reduce_exponent(n, 1, F.size, F.char), F.mul, F.one)]
        if m > 1:
            if lam == F.zero:  # C(n, k) 0^(n - k) is 1 at k = n and 0 elsewhere
                terms += [F.one if k == n else F.zero for k in range(1, m)]
            else:  # lam^(n - k) = lam^n (lam^-1)^k
                inv, term = F.inv(lam), terms[0]
                for k in range(1, m):
                    term = F.mul(term, inv)
                    terms.append(F.mul(F.from_int(math.comb(n, k) % F.char), term))
        hasse[lam] = terms
    # Newton's table in place: after round j, c[i] = f[nodes[i - j .. i]]
    c = [hasse[lam][0] for lam in nodes]
    for j in range(1, d):
        for i in range(d - 1, j - 1, -1):
            a, b = nodes[i - j], nodes[i]
            if a == b:  # j + 1 equal nodes, since equal ones are adjacent
                c[i] = hasse[b][j]
            else:
                c[i] = F.mul(F.sub(c[i], c[i - 1]), F.inv(F.sub(b, a)))
    if d < 2:
        return Matrix(F, [c] if d else [])
    # Horner's rule on r = c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...)); its
    # innermost step c_{d-2} + c_{d-1} (M - x_{d-2}) needs no product
    top = c[d - 1]
    P = _plus_diagonal(M.scale(top), F.sub(c[d - 2], F.mul(top, nodes[d - 2])))
    for k in range(d - 3, -1, -1):
        P = _plus_diagonal(P * _plus_diagonal(M, F.neg(nodes[k])), c[k])
    return P


def _triangular_inverse(M: Matrix) -> Matrix:
    """M^-1 for an upper-triangular M, by back substitution: the inverse is
    upper triangular, and from the bottom row up, row i has 1/m_ii on the
    diagonal and, right of it, x_ij = -(1/m_ii) sum_{i<l<=j} m_il x_lj."""
    F = M.field
    n = M.nrows
    rows = [None] * n
    for i in range(n - 1, -1, -1):
        m = M.rows[i]
        if m[i] == F.zero:
            raise SdlpError("singular matrix")
        d = F.inv(m[i])
        row = [F.zero] * n
        row[i] = d
        for j in range(i + 1, n):
            row[j] = F.neg(F.mul(d, F.dot(m[i + 1 : j + 1], [rows[l][j] for l in range(i + 1, j + 1)])))
        rows[i] = row
    return Matrix(F, rows)


def _plus_diagonal(M: Matrix, c) -> Matrix:
    """M + c I."""
    add = M.field.add
    return Matrix(M.field, [row[:i] + (add(row[i], c),) + row[i + 1 :] for i, row in enumerate(M.rows)])


def _rref(rows, F):
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != F.zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, a) for a in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != F.zero:
                f = rows[i][c]
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def nullspace(M: Matrix) -> list:
    """Basis of {v : Mv = 0}, with len = ncols - rank(M)."""
    F = M.field
    rows, pivots = _rref([list(r) for r in M.rows], F)
    free = [c for c in range(M.ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [F.zero] * M.ncols
        v[f] = F.one
        for i, p in enumerate(pivots):
            v[p] = F.neg(rows[i][f])
        basis.append(tuple(v))
    return basis


def solve_linear(M: Matrix, b) -> "tuple | None":
    """One solution x of Mx = b, or None when inconsistent."""
    F = M.field
    aug = [list(r) + [bb] for r, bb in zip(M.rows, b)]
    rows, pivots = _rref(aug, F)
    if M.ncols in pivots:
        return None
    x = [F.zero] * M.ncols
    for i, p in enumerate(pivots):
        x[p] = rows[i][M.ncols]
    return tuple(x)


class Echelon:
    """Incremental elimination over a field: the one place a basis grows
    vector by vector.

    Each row is an accepted input reduced against the rows before it (so
    it is zero at their pivots) and scaled to 1 at its own pivot, its first
    nonzero entry; it keeps its combination of the accepted inputs.
    `basis` lists the accepted inputs in order; coordinates are over it, so
    they are unique.
    """

    def __init__(self, field):
        self.field = field
        self.basis = []
        self._rows = []  # (pivot, row, its combination of the basis)

    def _reduce(self, v):
        """(rest, w) with v = rest + sum_j w_j basis_j; rest is zero at every
        pivot, and zero exactly when v lies in the span."""
        F = self.field
        zero = F.zero
        rest = list(v)
        w = [zero] * len(self.basis)
        if isinstance(F, PrimeField):  # the same steps on ints, inline
            p = F.p
            for pivot, row, comb in self._rows:
                f = rest[pivot]
                if f:
                    rest = [(a - f * b) % p for a, b in zip(rest, row)]
                    w[: len(comb)] = [(a + f * c) % p for a, c in zip(w, comb)]
            return rest, w
        for pivot, row, comb in self._rows:
            f = rest[pivot]
            if f != zero:
                rest = [F.sub(a, F.mul(f, b)) for a, b in zip(rest, row)]
                w[: len(comb)] = [F.add(a, F.mul(f, c)) for a, c in zip(w, comb)]
        return rest, w

    def add(self, v):
        """None when v is independent of the basis (v joins it), else v's
        coordinates over the basis."""
        F = self.field
        rest, w = self._reduce(v)
        pivot = next((i for i, a in enumerate(rest) if a != F.zero), None)
        if pivot is None:
            return tuple(w)
        s = F.inv(rest[pivot])
        comb = [F.neg(F.mul(s, c)) for c in w] + [s]
        self._rows.append((pivot, [F.mul(s, a) for a in rest], comb))
        self.basis.append(tuple(v))
        return None

    def coords(self, v):
        """v's coordinates over the basis, or None outside its span."""
        rest, w = self._reduce(v)
        return None if any(a != self.field.zero for a in rest) else tuple(w)


def coordinates_in_basis(field, basis, v):
    """Coefficients c with v = sum c_i basis_i, or None if v not in span."""
    if not basis:
        return () if all(a == field.zero for a in v) else None
    M = Matrix.from_columns(field, basis)
    return solve_linear(M, v)


def min_poly(B: Matrix) -> Poly:
    """Monic minimal polynomial of a square matrix."""
    if not B.is_square():
        raise SdlpError("min_poly expects a square matrix")
    F = B.field
    n = B.nrows
    m = Poly(F, [F.one])
    for i in range(n):
        if m.degree() == n:
            break
        e = tuple(F.one if j == i else F.zero for j in range(n))
        loc = annihilator(B, e)
        m = _poly_lcm(m, loc)
    return m


def annihilator(B: Matrix, v) -> Poly:
    """Least monic m with m(B)v = 0: the first dependency among v, Bv, ..."""
    return krylov(B, v)[0]


def krylov(B: Matrix, v):
    """(f, echelon): f is the annihilator of v under B, and the echelon was
    fed v, Bv, ... up to the first dependency B^{deg f} v = sum_j c_j B^j v,
    so its basis is v, Bv, ..., B^{deg f - 1} v and f = x^{deg f} - sum_j
    c_j x^j."""
    F = B.field
    echelon = Echelon(F)
    while (dep := echelon.add(v)) is None:
        v = B.matvec(v)
    return Poly(F, [F.neg(c) for c in dep] + [F.one]), echelon


def _poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly(a.field, [])
    g = a.gcd(b)
    return (a * b).divmod(g)[0].monic()


class PowerBasis:
    """The subfield F_p(c) of an ExtField in the basis 1, c, ..., c^(k-1),
    k = deg minpoly(c); an element is the k-tuple of its coordinates.

    An `Echelon` over F_p is fed 1, c, c^2, ... until c^k depends on the
    lower powers: that dependency is the minimal polynomial's tail `tail`,
    c^k = sum_j tail_j c^j, and the echelon is the change of basis. It
    costs k - 1 field products and no irreducibility test (minpoly(c) is
    irreducible). `coords` moves an element in, or returns None when it
    lies outside F_p(c). BSGS over F_{p^e}^* walks in the windows of the
    linear recurrence that the tail defines (`oracles._window_bsgs`).
    """

    def __init__(self, fld, c):
        self._echelon = echelon = Echelon(fld.base)
        power = fld.one
        while (w := echelon.add(power)) is None:
            power = fld.mul(power, c) if len(echelon.basis) > 1 else c
        self.degree = len(echelon.basis)
        self.tail = w

    def coords(self, a):
        """The coordinates of a field element, or None outside F_p(c)."""
        return self._echelon.coords(a)
