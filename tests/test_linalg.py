import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdlp.linalg as linalg
from conftest import (
    eval_poly_at_matrix,
    extract_basis,
    fold_dot,
    rand_invertible,
    rand_upper_triangular,
    reduced_exponent,
    rref_inverse,
    rref_nullspace,
    rref_rank,
    rref_solve,
)
from sdlp.errors import SdlpError
from sdlp.ff import ExtField, Poly, PrimeField, field_of_size
from sdlp.integers import _pow
from sdlp.linalg import (
    _TRIANGULAR_POWER_MIN_BITS,
    Echelon,
    Matrix,
    _triangular_power,
    coordinates_in_basis,
    krylov,
    min_poly,
    nullspace,
    solve_linear,
)

F5 = PrimeField(5)
B_SPEC = Matrix(F5, [[0, 4], [1, 4]])  # minimal polynomial x^2 + x + 1


PRODUCT_FIELDS = {"F_5": F5, "F_65521": PrimeField(65521), "F_9": field_of_size(9), "F_2^4": field_of_size(16)}


class TestMatrixProducts:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        name=st.sampled_from(sorted(PRODUCT_FIELDS)),
        r=st.integers(1, 4),
        k=st.integers(1, 4),
        c=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_product_and_matvec_match_entrywise_reference(self, name, r, k, c, seed):
        F = PRODUCT_FIELDS[name]
        rng = random.Random(seed)
        A = Matrix(F, [[F.rand(rng) for _ in range(k)] for _ in range(r)])
        B = Matrix(F, [[F.rand(rng) for _ in range(c)] for _ in range(k)])
        v = tuple(F.rand(rng) for _ in range(k))
        want = [[fold_dot(F, A.rows[i], B.column(j)) for j in range(c)] for i in range(r)]
        assert (A * B).rows == tuple(map(tuple, want))
        assert A.matvec(v) == tuple(fold_dot(F, row, v) for row in A.rows)
        if k != r:
            with pytest.raises(SdlpError, match="dimension mismatch"):
                A * A

    def test_dimension_mismatch_raises(self):
        with pytest.raises(SdlpError, match="dimension mismatch"):
            Matrix.identity(F5, 2) * Matrix.identity(F5, 3)

    def test_power_builds_the_identity_only_at_zero(self, monkeypatch):
        built = []
        identity = Matrix.identity.__func__

        def counted(cls, field, n):
            built.append(n)
            return identity(cls, field, n)

        monkeypatch.setattr(Matrix, "identity", classmethod(counted))
        B = Matrix(F5, [[1, 2], [3, 4]])
        assert B**1 == B and B**3 == B * B * B and B**-2 == B.inverse() * B.inverse()
        assert built == []
        assert B**0 == identity(Matrix, F5, 2)
        assert built == [2]

    @pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], []], [[1, 2, 3], [4, 5, 6], [7, 8]]])
    def test_ragged_rows_raise(self, rows):
        with pytest.raises(SdlpError, match="ragged"):
            Matrix(F5, rows)


# prime, binary and odd-characteristic extension fields, small and large
TRIANGULAR_FIELDS = {f"F_{q}": field_of_size(q) for q in (2, 3, 65521, 2**61 - 1, 4, 9, 2**16, 3**10)}


def _triangular(F, d, pool, rng):
    """An upper-triangular d x d matrix with its diagonal drawn from pool."""
    return Matrix(F, [[rng.choice(pool) if i == j else F.rand(rng) if j > i else F.zero for j in range(d)] for i in range(d)])


def _square_and_multiply(M, n):
    """The reference power: M^n by the generic loop, M^-1 (by row
    reduction) first for n < 0."""
    if n < 0:
        M, n = rref_inverse(M), -n
    return _pow(M, n, operator.mul, Matrix.identity(M.field, M.nrows))


class TestTriangularPower:
    """Upper-triangular powers from the diagonal (x^n mod the characteristic
    polynomial in Newton form) against square-and-multiply. A pool of two
    diagonal values makes the interpolation nodes confluent, where the
    divided differences are Hasse derivatives C(n, k) lam^(n - k)."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        name=st.sampled_from(sorted(TRIANGULAR_FIELDS)),
        d=st.integers(1, 4),
        zero=st.booleans(),
        n=st.one_of(st.integers(0, 64), st.integers(2**39, 2**40 - 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_square_and_multiply(self, name, d, zero, n, seed):
        F = TRIANGULAR_FIELDS[name]
        rng = random.Random(seed)
        pool = [F.zero if zero else F.rand(rng), F.rand(rng)]
        M = _triangular(F, d, pool, rng)
        want = _square_and_multiply(M, n)
        assert _triangular_power(M, n) == want
        assert M**n == want

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        name=st.sampled_from(sorted(TRIANGULAR_FIELDS)),
        d=st.integers(1, 4),
        n=st.one_of(st.integers(1, 64), st.integers(2**39, 2**40 - 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_negative_powers_invert_first(self, name, d, n, seed):
        F = TRIANGULAR_FIELDS[name]
        rng = random.Random(seed)
        M = _triangular(F, d, [F.rand_nonzero(rng), F.rand_nonzero(rng)], rng)
        assert M**-n == _square_and_multiply(M, -n)
        assert M**-n * M**n == Matrix.identity(F, d)

    @pytest.mark.parametrize("name", ["F_65521", "F_4", "F_9"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_crossover_and_product_count(self, name, d, monkeypatch):
        F = TRIANGULAR_FIELDS[name]
        rng = random.Random(f"crossover-{name}-{d}")
        M = _triangular(F, d, [F.rand_nonzero(rng), F.rand_nonzero(rng)], rng)
        full = Matrix(F, [[F.rand_nonzero(rng) for _ in range(d)] for _ in range(d)])
        products = [0]
        matmul = Matrix.__mul__

        def counted(x, y):
            products[0] += 1
            return matmul(x, y)

        monkeypatch.setattr(Matrix, "__mul__", counted)
        below = 2 ** (_TRIANGULAR_POWER_MIN_BITS - 1) - 1  # all ones, one bit short
        big = 2**40 + 12345
        # over F_4 and F_9 every d <= 4 has E(q, d) below 2^40; over F_65521
        # only d = 1 does, and there the route is the same either way
        assert (reduced_exponent(big, F.size, d) < big) == (name != "F_65521" or d == 1)
        for n in (below, below + 1, 2**_TRIANGULAR_POWER_MIN_BITS - 1, big):
            m = reduced_exponent(n, F.size, d)  # the exponent the power runs at
            for A in (M, full):
                triangular = A is M or d == 1  # full has nonzero entries below the diagonal

                def count(e):
                    # Horner's rule on the interpolant takes d - 2 products;
                    # square-and-multiply bitlen(e) - 1 squarings and
                    # popcount(e) - 1 products by A
                    if triangular and e.bit_length() >= _TRIANGULAR_POWER_MIN_BITS:
                        return max(d - 2, 0)
                    return e.bit_length() + e.bit_count() - 2

                products[0] = 0
                got = A**n
                assert products[0] == count(m)
                if m < n and not (triangular and n.bit_length() >= _TRIANGULAR_POWER_MIN_BITS):
                    assert products[0] < count(n)  # square-and-multiply either way, on fewer bits
                assert got == _square_and_multiply(A, n)

    def test_the_scan_runs_only_above_the_crossover(self, monkeypatch):
        scanned = []
        scan = Matrix.is_upper_triangular

        def counted(self):
            scanned.append(self)
            return scan(self)

        monkeypatch.setattr(Matrix, "is_upper_triangular", counted)
        B = Matrix(F5, [[1, 2], [0, 3]])
        B ** (2 ** (_TRIANGULAR_POWER_MIN_BITS - 1) - 1)
        assert scanned == []
        B ** (2 ** (_TRIANGULAR_POWER_MIN_BITS - 1))
        assert scanned == [B]

    def test_triangularity(self):
        assert Matrix(F5, [[1, 2], [0, 3]]).is_upper_triangular()
        assert not Matrix(F5, [[1, 2], [4, 3]]).is_upper_triangular()
        F9 = field_of_size(9)  # a nonzero extension-field entry is a truthy tuple
        assert Matrix(F9, [[F9.one, F9.gen()], [F9.zero, F9.one]]).is_upper_triangular()
        assert not Matrix(F9, [[F9.one, F9.zero], [F9.gen(), F9.one]]).is_upper_triangular()


class TestTriangularInverse:
    """Upper-triangular inverses by back substitution against row reduction
    of [M | I], over prime, extension and binary fields. A pool with zero
    makes some diagonals singular."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        name=st.sampled_from(sorted(TRIANGULAR_FIELDS)),
        d=st.integers(1, 5),
        zero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_reduction(self, name, d, zero, seed):
        F = TRIANGULAR_FIELDS[name]
        rng = random.Random(seed)
        pool = [F.zero if zero else F.rand_nonzero(rng), F.rand_nonzero(rng)]
        M = _triangular(F, d, pool, rng)
        want = rref_inverse(M)
        if want is None:
            with pytest.raises(SdlpError, match="singular matrix"):
                M.inverse()
        else:
            assert M.inverse() == want
            assert M * want == Matrix.identity(F, d)

    @pytest.mark.parametrize("name", ["F_65521", "F_9", "F_65536"])
    def test_lower_triangular_and_full_matrices_row_reduce(self, name, monkeypatch):
        F = TRIANGULAR_FIELDS[name]
        rng = random.Random(f"inverse-{name}")
        calls = []
        monkeypatch.setattr(linalg, "_triangular_inverse", lambda M: calls.append(M))
        U = rand_upper_triangular(F, 3, rng)
        for A in (U.transpose(), rand_invertible(F, 3, rng)):
            if not A.is_upper_triangular():
                assert A.inverse() == rref_inverse(A)
        assert calls == []
        U.inverse()
        assert calls == [U]


class TestNullspace:
    def test_identity_has_trivial_nullspace(self):
        assert nullspace(Matrix.identity(F5, 3)) == []

    def test_zero_matrix(self):
        basis = nullspace(Matrix.zeros(F5, 2, 2))
        assert len(basis) == 2

    def test_rank_one_example(self):
        M = Matrix(F5, [[1, 2], [2, 4]])
        basis = nullspace(M)
        assert len(basis) == 1
        # {(3,1)} up to scaling: enumerate all 25 vectors as the oracle
        kernel = {(x, y) for x in range(5) for y in range(5) if M.matvec((x, y)) == (0, 0)}
        assert kernel == {tuple(a * c % 5 for c in basis[0]) for a in range(5)}

    def test_rank_nullity(self):
        rng = random.Random(0)
        for _ in range(150):
            q = rng.choice([2, 3, 5, 9, 97])
            F = field_of_size(q)
            r, c = rng.randrange(1, 7), rng.randrange(1, 7)
            M = Matrix(F, [[F.rand(rng) for _ in range(c)] for _ in range(r)])
            basis = nullspace(M)
            assert rref_rank(M) + len(basis) == c
            for v in basis:
                assert M.matvec(v) == (F.zero,) * r


# two prime fields (the inline row operations), a small and a large odd
# extension and a carry-less binary field
ELIMINATION_FIELDS = {
    "F_7": PrimeField(7),
    "F_65521": PrimeField(65521),
    "F_9": field_of_size(9),
    "F_2^4": field_of_size(16),
    "F_3^10": field_of_size(3**10),
}


def _product_of_rank(F, r, c, k, rng):
    """A random r x c matrix of rank at most k >= 1: an r x k times a k x c."""
    A = Matrix(F, [[F.rand(rng) for _ in range(k)] for _ in range(r)])
    B = Matrix(F, [[F.rand(rng) for _ in range(c)] for _ in range(k)])
    return A * B


def _shaped(F, shape, rng):
    if shape == "invertible":
        n = rng.randint(1, 5)
        while True:
            M = Matrix(F, [[F.rand(rng) for _ in range(n)] for _ in range(n)])
            if rref_rank(M) == n:
                return M
    if shape == "singular":
        n = rng.randint(1, 5)
        return _product_of_rank(F, n, n, n - 1, rng) if n > 1 else Matrix.zeros(F, 1, 1)
    if shape in ("wide", "tall"):
        r = rng.randint(1, 4)
        c = rng.randint(r + 1, 5)
        M = _product_of_rank(F, r, c, rng.randint(1, r), rng)
        return M if shape == "wide" else M.transpose()
    # zero lines: some rows, some columns or both are zero
    r, c = rng.randint(1, 5), rng.randint(1, 5)
    zero_rows = set(rng.sample(range(r), rng.randint(0, r)))
    zero_cols = set(rng.sample(range(c), rng.randint(0 if zero_rows else 1, c)))
    return Matrix(F, [[F.zero if i in zero_rows or j in zero_cols else F.rand(rng) for j in range(c)] for i in range(r)])


class TestEliminationMatchesRref:
    """`is_invertible`, `inverse`, `nullspace`, `solve_linear` and the
    number of rows an `Echelon` accepts (the rank) run on `Echelon`; the reference is reduced row echelon form, whose
    pivot columns the echelon picks too, so even the nullspace vectors and
    particular solutions are the same."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        name=st.sampled_from(sorted(ELIMINATION_FIELDS)),
        shape=st.sampled_from(["invertible", "singular", "wide", "tall", "zero lines"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_rref(self, name, shape, seed):
        F = ELIMINATION_FIELDS[name]
        rng = random.Random(seed)
        M = _shaped(F, shape, rng)
        rank = rref_rank(M)
        assert {
            "invertible": rank == M.nrows == M.ncols,
            "singular": rank < M.nrows == M.ncols,
            "wide": M.nrows < M.ncols,
            "tall": M.nrows > M.ncols,
            "zero lines": (F.zero,) * M.ncols in M.rows or (F.zero,) * M.nrows in M.transpose().rows,
        }[shape]
        assert len(extract_basis(F, M.rows)) == rank
        assert M.is_invertible() == (M.is_square() and rank == M.nrows)
        if not M.is_square():
            with pytest.raises(SdlpError, match="non-square"):
                M.inverse()
        elif rank < M.nrows:
            with pytest.raises(SdlpError, match="singular matrix"):
                M.inverse()
        else:
            assert M.inverse() == rref_inverse(M)
        assert nullspace(M) == rref_nullspace(M)
        inside = M.matvec(tuple(F.rand(rng) for _ in range(M.ncols)))
        want = rref_solve(M, inside)
        assert want is not None and solve_linear(M, inside) == want
        b = tuple(F.rand(rng) for _ in range(M.nrows))
        assert solve_linear(M, b) == rref_solve(M, b)


class TestMinPoly:
    def test_identity(self):
        assert min_poly(Matrix.identity(F5, 3)) == Poly(F5, [4, 1])

    def test_zero(self):
        assert min_poly(Matrix.zeros(F5, 2, 2)) == Poly(F5, [0, 1])

    def test_spec_matrix(self):
        m = min_poly(B_SPEC)
        assert m == Poly(F5, [1, 1, 1])
        assert (B_SPEC * B_SPEC + B_SPEC + Matrix.identity(F5, 2)).entries_key() == (0, 0, 0, 0)

    def test_annihilates_and_divides_char(self):
        rng = random.Random(3)
        for _ in range(80):
            q = rng.choice([2, 3, 5, 8])
            F = field_of_size(q)
            n = rng.randrange(1, 5)
            B = Matrix(F, [[F.rand(rng) for _ in range(n)] for _ in range(n)])
            m = min_poly(B)
            assert m.is_monic() and m.degree() <= n
            Z = eval_poly_at_matrix(m, B)
            assert all(v == F.zero for v in Z.flatten())

    def test_annihilator_is_least_and_divides_min_poly(self):
        rng = random.Random(5)
        for _ in range(60):
            F = field_of_size(rng.choice([2, 3, 5, 9]))
            n = rng.randrange(1, 5)
            B = Matrix(F, [[F.rand(rng) for _ in range(n)] for _ in range(n)])
            v = tuple(F.rand(rng) for _ in range(n))
            f = krylov(F, B.matvec, v)[0]
            assert f.is_monic()
            assert eval_poly_at_matrix(f, B).matvec(v) == (F.zero,) * n
            powers = [v]
            for _ in range(f.degree() - 1):
                powers.append(B.matvec(powers[-1]))
            # v, Bv, ..., B^{deg f - 1} v are independent, so no lower degree annihilates v
            assert f.degree() == 0 or rref_rank(Matrix.from_columns(F, powers)) == f.degree()
            assert min_poly(B).divmod(f)[1].is_zero()


# two prime fields (the inline row operations), a generic extension and a
# carry-less binary field
ECHELON_FIELDS = {"F_7": PrimeField(7), "F_65521": PrimeField(65521), "F_9": field_of_size(9), "F_2^4": field_of_size(16)}


def _combine(F, coeffs, vectors, n):
    """sum_j coeffs_j vectors_j, a vector of length n."""
    out = [F.zero] * n
    for c, v in zip(coeffs, vectors):
        out = [F.add(a, F.mul(c, b)) for a, b in zip(out, v)]
    return tuple(out)


def _vectors_with_dependencies(F, n, count, rng):
    """Random vectors of length n; about half are combinations of earlier ones."""
    vectors = []
    for _ in range(count):
        if vectors and rng.random() < 0.5:
            picked = rng.sample(vectors, rng.randrange(1, len(vectors) + 1))
            vectors.append(_combine(F, [F.rand(rng) for _ in picked], picked, n))
        else:
            vectors.append(tuple(F.rand(rng) for _ in range(n)))
    return vectors


@pytest.mark.parametrize("name", sorted(ECHELON_FIELDS))
class TestEchelon:
    def test_krylov_coordinates_match_the_explicit_krylov_list(self, name):
        F = ECHELON_FIELDS[name]
        rng = random.Random(f"krylov-{name}")
        seen = set()
        for _ in range(40):
            n = rng.randrange(1, 6)
            # block-diagonal in a random basis: the Krylov space of a vector
            # in the first block misses the second, so random w often lies outside
            k = rng.randrange(1, n + 1)
            blocks = [[F.rand(rng) if (i < k) == (j < k) else F.zero for j in range(n)] for i in range(n)]
            P = rand_invertible(F, n, rng)
            B = P * Matrix(F, blocks) * P.inverse()
            v = P.matvec(tuple(F.rand(rng) if i < k else F.zero for i in range(n)))
            f, echelon = krylov(F, B.matvec, v)
            powers, cur = [], v
            for _ in range(f.degree()):
                powers.append(cur)
                cur = B.matvec(cur)
            assert echelon.basis == powers
            assert eval_poly_at_matrix(f, B).matvec(v) == (F.zero,) * n
            inside = _combine(F, [F.rand(rng) for _ in powers], powers, n)
            for w in (inside, tuple(F.rand(rng) for _ in range(n))):
                want = coordinates_in_basis(F, powers, w)
                assert echelon.coords(w) == want
                seen.add(want is None)
        assert seen == {True, False}

    def test_extract_basis_matches_a_greedy_rank_reference(self, name):
        F = ECHELON_FIELDS[name]
        rng = random.Random(f"basis-{name}")
        for _ in range(40):
            n = rng.randrange(1, 6)
            vectors = _vectors_with_dependencies(F, n, rng.randrange(0, 8), rng)
            want = []
            for v in vectors:
                if rref_rank(Matrix(F, want + [v])) > len(want):
                    want.append(v)
            assert extract_basis(F, vectors) == want

    def test_add_returns_the_coordinates_of_a_dependent_input(self, name):
        F = ECHELON_FIELDS[name]
        rng = random.Random(f"echelon-{name}")
        dependent = 0
        for _ in range(40):
            n = rng.randrange(1, 6)
            echelon = Echelon(F)
            for v in _vectors_with_dependencies(F, n, rng.randrange(1, 9), rng):
                basis = list(echelon.basis)
                got = echelon.add(v)
                if got is None:
                    assert rref_rank(Matrix(F, basis + [v])) == len(basis) + 1
                    assert echelon.basis == basis + [v]
                else:
                    dependent += 1
                    assert len(got) == len(basis) and _combine(F, got, basis, n) == v
                    assert echelon.basis == basis
                    assert echelon.coords(v) == got
            # coordinates over an independent set are unique
            coeffs = tuple(F.rand(rng) for _ in echelon.basis)
            assert echelon.add(_combine(F, coeffs, echelon.basis, n)) == coeffs
        assert dependent > 40


class TestFieldFromMatrix:
    """F_5[B] for B = B_SPEC is a field: the orbit problem's Krylov basis
    v, Bv sends c(B)v to the class of c(x) in F_5[x]/(x^2 + x + 1)."""

    def test_iso_is_ring_homomorphism(self):
        v = (1, 0)
        f, echelon = krylov(F5, B_SPEC.matvec, v)
        fld = ExtField(F5, f)

        def to_field(w):
            return fld.from_coeffs(echelon.coords(w))

        def from_field(u):
            return eval_poly_at_matrix(Poly(F5, list(u)), B_SPEC)

        rng = random.Random(11)
        for _ in range(100):
            u, w = fld.rand(rng), fld.rand(rng)
            U, W = from_field(u), from_field(w)
            assert to_field((U * W).matvec(v)) == fld.mul(u, w)
            assert to_field((U + W).matvec(v)) == fld.add(u, w)


def test_solve_linear_consistency():
    rng = random.Random(5)
    for _ in range(100):
        F = PrimeField(7)
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        M = Matrix(F, [[F.rand(rng) for _ in range(c)] for _ in range(r)])
        x = tuple(F.rand(rng) for _ in range(c))
        b = M.matvec(x)
        got = solve_linear(M, b)
        assert got is not None and M.matvec(got) == b
