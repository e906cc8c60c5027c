"""Dense exact matrices over finite fields: products, inverses and powers
(upper-triangular ones by back substitution and from their diagonal), and
`Echelon`, the one elimination. Rank, invertibility, inverses, null spaces
and linear systems feed it rows or columns, and `krylov` feeds it v,
step(v), step(step(v)), ... for any linear map `step`: the annihilators
and coordinates that the orbit problem, linear-map powers and `min_poly`
are built on, and the subfield F_p(c) of an extension field in the basis
1, c, c^2, ... (`oracles._window_bsgs`).

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
        else from an `Echelon` of the rows: row j of self^-1 is the
        coordinates of the unit vector e_j over them."""
        if not self.is_square():
            raise SdlpError("inverse of a non-square matrix")
        if self.is_upper_triangular():
            return _triangular_inverse(self)
        echelon = self._row_echelon()
        if echelon is None:
            raise SdlpError("singular matrix")
        F, n = self.field, self.nrows
        units = ([F.one if i == j else F.zero for j in range(n)] for i in range(n))
        return Matrix(F, [echelon.coords(e) for e in units])

    def is_invertible(self):
        return self.is_square() and self._row_echelon() is not None

    def _row_echelon(self):
        """An `Echelon` fed every row, or None at the first row that depends
        on those before it."""
        echelon = Echelon(self.field)
        if any(echelon.add(row) is not None for row in self.rows):
            return None
        return echelon

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
    is the Hermite interpolant of x^n there. r is taken in Newton form over
    the diagonal entries, equal ones next to each other (`_power_newton`),
    and evaluated by Horner's rule in d - 2 matrix products."""
    F = M.field
    d = M.nrows
    diagonal = [row[i] for i, row in enumerate(M.rows)]
    nodes = sorted(diagonal, key=diagonal.index)  # equal values next to each other
    c = _power_newton(F, nodes, n)
    if d < 2:
        return Matrix(F, [c] if d else [])
    # Horner's rule on r = c_0 + (x - x_0)(c_1 + (x - x_1)(c_2 + ...)); its
    # innermost step c_{d-2} + c_{d-1} (M - x_{d-2}) needs no product
    top = c[d - 1]
    P = _plus_diagonal(M.scale(top), F.sub(c[d - 2], F.mul(top, nodes[d - 2])))
    for k in range(d - 3, -1, -1):
        P = _plus_diagonal(P * _plus_diagonal(M, F.neg(nodes[k])), c[k])
    return P


def _power_newton(F, nodes, n: int) -> list:
    """[f[x_0], f[x_0, x_1], ..., f[x_0, ..., x_(d-1)]] for f(u) = u^n and
    n >= 0: the Newton coefficients of the Hermite interpolant of u^n at
    nodes x_0, ..., x_(d-1) in which equal values are adjacent (Higham,
    Functions of Matrices, 2008, 1.2).

    The divided difference over k + 1 equal nodes lam is the Hasse
    derivative C(n, k) lam^(n - k), which holds in characteristic p where
    the k-th derivative over k! does not; over distinct end nodes it is
    the usual quotient. Each distinct value takes one field power.
    """
    mul, sub, inv = F.mul, F.sub, F.inv
    # lam^n = lam^(1 + (n - 1) mod (q - 1)) for n >= q, 0 included: the n =
    # 1 case of _reduce_exponent, which shortens the builtin pow too
    e = n if n < F.size else 1 + (n - 1) % (F.size - 1)
    prime = isinstance(F, PrimeField)
    hasse = {}
    for lam in nodes:
        if lam in hasse:
            continue
        terms = [pow(lam, e, F.p) if prime else _pow(lam, e, mul, F.one)]
        m = nodes.count(lam)
        if m > 1:
            if lam == F.zero:  # C(n, k) 0^(n - k) is 1 at k = n and 0 elsewhere
                terms += [F.one if k == n else F.zero for k in range(1, m)]
            else:  # lam^(n - k) = lam^n (lam^-1)^k
                lam_inv, term = inv(lam), terms[0]
                for k in range(1, m):
                    term = mul(term, lam_inv)
                    terms.append(mul(F.from_int(math.comb(n, k) % F.char), term))
        hasse[lam] = terms
    # Newton's table in place: after round j, c[i] = f[nodes[i - j .. i]]
    d = len(nodes)
    c = [hasse[lam][0] for lam in nodes]
    for j in range(1, d):
        for i in range(d - 1, j - 1, -1):
            a, b = nodes[i - j], nodes[i]
            if a == b:  # j + 1 equal nodes, since equal ones are adjacent
                c[i] = hasse[b][j]
            else:
                c[i] = mul(sub(c[i], c[i - 1]), inv(sub(b, a)))
    return c


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


def nullspace(M: Matrix) -> list:
    """Basis of {v : Mv = 0}, with len = ncols - rank(M): an `Echelon` is
    fed the columns, and each column f that depends on the pivot columns
    p_i before it, M_f = sum_i w_i M_(p_i), gives the vector that is 1 at
    f and -w_i at p_i."""
    F = M.field
    echelon = Echelon(F)
    pivots, basis = [], []
    for f, col in enumerate(zip(*M.rows)):
        w = echelon.add(col)
        if w is None:
            pivots.append(f)
            continue
        v = [F.zero] * M.ncols
        v[f] = F.one
        for p, c in zip(pivots, w):
            v[p] = F.neg(c)
        basis.append(tuple(v))
    return basis


def solve_linear(M: Matrix, b) -> "tuple | None":
    """One solution x of Mx = b, or None when inconsistent: b's coordinates
    over the pivot columns of an `Echelon` of the columns, 0 elsewhere."""
    F = M.field
    echelon = Echelon(F)
    pivots = [f for f, col in enumerate(zip(*M.rows)) if echelon.add(col) is None]
    w = echelon.coords(b)
    if w is None:
        return None
    x = [F.zero] * M.ncols
    for p, c in zip(pivots, w):
        x[p] = c
    return tuple(x)


class Echelon:
    """Incremental elimination over a field: the package's one row
    reduction, through which every basis grows vector by vector.

    Each row is an accepted input reduced against the rows before it (so
    it is zero at their pivots) and scaled to 1 at its own pivot, its first
    nonzero entry; it keeps its combination of the accepted inputs.
    `basis` lists the accepted inputs in order; coordinates are over it, so
    they are unique. The pivots, sorted, are those of the reduced row
    echelon form of the inputs stacked as rows; fed the columns of a
    matrix, it accepts exactly that form's pivot columns.
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
        m = _poly_lcm(m, krylov(F, B.matvec, e)[0])
    return m


def krylov(field, step, v):
    """(f, echelon) for an F-linear map `step` and a vector v: f is the
    annihilator of v, the least monic f with f(step) v = 0, and the echelon
    was fed v, step(v), ... up to the first dependency step^k v = sum_j c_j
    step^j v, k = deg f. So its basis is v, step(v), ..., step^(k-1) v, f =
    x^k - sum_j c_j x^j, and `echelon.coords(w)` reads w = c(step) v as the
    coefficients of c, or None outside the Krylov space: there v is 1 and
    step is multiplication by x in F[x]/(f).

    With step = B.matvec this is the annihilator of v under a matrix B;
    with step(a) = a c over an extension field, the basis is 1, c, ...,
    c^(k-1) of the subfield F_p(c), and f is c's minimal polynomial."""
    echelon = Echelon(field)
    while (dep := echelon.add(v)) is None:
        v = step(v)
    return Poly(field, [field.neg(c) for c in dep] + [field.one]), echelon


def _poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly(a.field, [])
    g = a.gcd(b)
    return (a * b).divmod(g)[0].monic()
