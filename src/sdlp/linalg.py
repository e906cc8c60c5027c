"""Dense exact matrices over finite fields: products, inverses, row
reduction, and the minimal polynomial and Krylov annihilator the orbit
problem is built on.

Vectors are tuples of field elements; a Matrix is immutable and hashable so
it can double as a black-box group code-word.
"""

import operator

from .errors import SdlpError
from .ff import Poly
from .integers import _pow


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
        dot = self.field.dot
        cols = list(zip(*other.rows))
        return Matrix(self.field, [[dot(r, c) for c in cols] for r in self.rows])

    def matvec(self, v):
        dot = self.field.dot
        return tuple(dot(r, v) for r in self.rows)

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows)) if self.rows else [])

    def __pow__(self, n: int):
        if not self.is_square():
            raise SdlpError("power of a non-square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return Matrix.identity(self.field, self.nrows)
        return _pow(self, n, operator.mul, None)  # `one` is read only at n = 0

    def inverse(self):
        F = self.field
        n = self.nrows
        if not self.is_square():
            raise SdlpError("inverse of a non-square matrix")
        aug = [list(r) + [F.one if i == j else F.zero for j in range(n)] for i, r in enumerate(self.rows)]
        rows, pivots = _rref(aug, F)
        if pivots != list(range(n)):
            raise SdlpError("singular matrix")
        return Matrix(F, [r[n:] for r in rows])

    def det(self):
        F = self.field
        n = self.nrows
        rows = [list(r) for r in self.rows]
        det = F.one
        col = 0
        for i in range(n):
            piv = next((r for r in range(i, n) if rows[r][col] != F.zero), None)
            if piv is None:
                return F.zero
            if piv != i:
                rows[i], rows[piv] = rows[piv], rows[i]
                det = F.neg(det)
            det = F.mul(det, rows[i][col])
            inv = F.inv(rows[i][col])
            for r in range(i + 1, n):
                factor = F.mul(rows[r][col], inv)
                if factor != F.zero:
                    rows[r] = [F.sub(a, F.mul(factor, b)) for a, b in zip(rows[r], rows[i])]
            col += 1
        return det

    def rank(self):
        return len(_rref([list(r) for r in self.rows], self.field)[1])

    def is_invertible(self):
        return self.is_square() and self.rank() == self.nrows

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


def extract_basis(field, vectors) -> list:
    """A maximal linearly independent subset, preserving input order."""
    basis = []
    echelon = []
    for v in vectors:
        red = _reduce_against(field, list(v), echelon)
        if any(a != field.zero for a in red):
            echelon.append(red)
            basis.append(tuple(v))
    return basis


def _reduce_against(F, v, echelon):
    for u in echelon:
        p = next(i for i, a in enumerate(u) if a != F.zero)
        if v[p] != F.zero:
            f = F.mul(v[p], F.inv(u[p]))
            v = [F.sub(a, F.mul(f, b)) for a, b in zip(v, u)]
    return v


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
    F = B.field
    echelon = []  # (reduced vector, combo coefficients over Krylov powers)
    k = 0
    cur = v
    while True:
        red = list(cur)
        combo = [F.zero] * k + [F.one]
        for u, c in echelon:
            p = next(i for i, a in enumerate(u) if a != F.zero)
            if red[p] != F.zero:
                f = F.mul(red[p], F.inv(u[p]))
                red = [F.sub(a, F.mul(f, b)) for a, b in zip(red, u)]
                combo = [F.sub(a, F.mul(f, b)) for a, b in zip(combo, c + [F.zero] * (len(combo) - len(c)))]
        if all(a == F.zero for a in red):
            return Poly(F, combo)
        echelon.append((red, combo))
        cur = B.matvec(cur)
        k += 1


def _poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly(a.field, [])
    g = a.gcd(b)
    return (a * b).divmod(g)[0].monic()


def restrict_to_subspace(B: Matrix, basis) -> Matrix:
    """Matrix of B on span(basis) in that basis; requires invariance."""
    F = B.field
    cols = []
    M = Matrix.from_columns(F, basis)
    for v in basis:
        c = solve_linear(M, B.matvec(v))
        if c is None:
            raise SdlpError("subspace is not invariant under the map")
        cols.append(c)
    return Matrix.from_columns(F, cols)
