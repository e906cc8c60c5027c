"""Powers reduced by the exponent of their monoid (`integers._reduce_exponent`):
M^t = M^t' for every square matrix, singular ones included, every element
of F_q[x]/(f), zero divisors included, and every scalar, 0 included.

Each power is checked against the same power with the reduction patched to
the identity, which is the plain square-and-multiply of `integers._pow`.
The exponents sit at the edges of the reduction (n + E - 1, n + E,
n + E + 1, n + 3E) and at 40 bits.
"""

import contextlib
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdlp.ff as ff
import sdlp.linalg as linalg
from conftest import monoid_exponent, rand_invertible, reduced_exponent
from sdlp import integers
from sdlp.ff import Poly, field_of_size
from sdlp.groups import MatrixGroup
from sdlp.integers import _monoid_exponent, _pow, _reduce_exponent
from sdlp.linalg import Matrix, _triangular_power

FIELDS = {q: field_of_size(q) for q in (2, 3, 4, 8, 9, 25, 3**10, 2**16)}


@contextlib.contextmanager
def unreduced():
    """Every power site with the reduction patched to the identity."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (linalg, ff):
            mp.setattr(module, "_reduce_exponent", lambda t, n, q, p: t)
        yield


def exponents(n, q):
    """The exponents at the edges of the reduction, for monoid size n."""
    e = monoid_exponent(q, n)
    return st.one_of(st.sampled_from([n + e - 1, n + e, n + e + 1, n + 3 * e]), st.integers(2**39, 2**40 - 1))


def block_diagonal(F, blocks):
    d = sum(B.nrows for B in blocks)
    rows, at = [], 0
    for B in blocks:
        for r in B.rows:
            rows.append([F.zero] * at + list(r) + [F.zero] * (d - at - B.nrows))
        at += B.nrows
    return Matrix(F, rows)


def sample_matrix(F, d, kind, rng):
    if kind == "dense":
        return Matrix(F, [[F.rand(rng) for _ in range(d)] for _ in range(d)])
    if kind == "sparse-singular":
        rows = [[F.rand_nonzero(rng) if rng.random() < 0.3 else F.zero for _ in range(d)] for _ in range(d)]
        rows[rng.randrange(d)] = [F.zero] * d
        return Matrix(F, rows)
    P = rand_invertible(F, d, rng)
    if kind == "nilpotent":
        core = Matrix(F, [[F.rand(rng) if j > i else F.zero for j in range(d)] for i in range(d)])
    else:  # one unipotent Jordan block of size p^k + 1, whose order is
        # p^(k + 1): it crosses the p-power factor of E(q, d)
        sizes = [s for s in (F.char**k + 1 for k in range(3)) if s <= d]
        s = rng.choice(sizes)
        J = Matrix(F, [[F.one if j in (i, i + 1) else F.zero for j in range(s)] for i in range(s)])
        blocks = [J] + ([Matrix(F, [[F.rand(rng) for _ in range(d - s)] for _ in range(d - s)])] if d > s else [])
        core = block_diagonal(F, blocks)
    return P * core * P.inverse()


class TestReduceExponent:
    @pytest.mark.parametrize("q", sorted(FIELDS))
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_matches_the_reference_at_the_edges(self, q, n):
        p = FIELDS[q].char
        e = monoid_exponent(q, n)
        assert _monoid_exponent(n, q, p) == e
        for t in (0, n, max(0, n + q**n - 2), n + e - 1, n + e, n + e + 1, n + 3 * e, 2**40 + 12345):
            got = _reduce_exponent(t, n, q, p)
            assert got == reduced_exponent(t, q, n)
            assert got == t or (n <= got < n + e and (got - t) % e == 0)

    @pytest.mark.parametrize("q", [2, 9, 2**16, 65521])
    @pytest.mark.parametrize("n", [1, 3])
    def test_below_q_to_the_n_forms_no_exponent(self, q, n, monkeypatch):
        def forbidden(*args):
            raise AssertionError("formed E below n + q^n - 1")

        monkeypatch.setattr(integers, "_monoid_exponent", forbidden)
        p = field_of_size(q).char
        for t in (0, 1, n + q**n - 2):
            assert _reduce_exponent(t, n, q, p) == t


class TestMatrixPowers:
    @settings(derandomize=True, deadline=None, max_examples=160)
    @given(
        q=st.sampled_from(sorted(FIELDS)),
        d=st.integers(1, 5),
        kind=st.sampled_from(["dense", "sparse-singular", "nilpotent", "unipotent"]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reduced_power_matches_square_and_multiply(self, q, d, kind, data, seed):
        F = FIELDS[q]
        if kind == "unipotent" and d < 2:
            d = 2
        M = sample_matrix(F, d, kind, random.Random(seed))
        t = data.draw(exponents(d, q))
        with unreduced():
            want = M**t
        assert want == _pow(M, t, operator.mul, None)
        assert M**t == want

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        q=st.sampled_from(sorted(FIELDS)),
        d=st.integers(1, 4),
        zero=st.booleans(),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_triangular_scalar_powers(self, q, d, zero, data, seed):
        F = FIELDS[q]
        rng = random.Random(seed)
        pool = [F.zero if zero else F.rand(rng), F.rand(rng)]
        rows = [[rng.choice(pool) if i == j else F.rand(rng) if j > i else F.zero for j in range(d)] for i in range(d)]
        M = Matrix(F, rows)
        t = data.draw(exponents(1, q))
        with unreduced():
            want = _triangular_power(M, t)
        assert _triangular_power(M, t) == want

    @pytest.mark.parametrize("q, d", [(2, 2), (3, 2), (4, 2), (2, 3)])
    def test_every_matrix_by_brute_force(self, q, d):
        """M^t = M^t' for every matrix of M_d(F_q) and every t <= 3E, with
        the powers M^0, M^1, ... formed one product at a time."""
        F = FIELDS[q]
        e = _monoid_exponent(d, q, F.char)
        reduced = [_reduce_exponent(t, d, q, F.char) for t in range(3 * e + 1)]
        assert reduced[d + e] == d  # the reduction does fire in this range
        for entries in itertools.product(list(F.elements()), repeat=d * d):
            M = Matrix.unflatten(F, entries, d, d)
            powers = [Matrix.identity(F, d)]
            for _ in range(3 * e):
                powers.append(powers[-1] * M)
            assert all(powers[t] == powers[r] for t, r in enumerate(reduced))


class TestScalarPowers:
    @pytest.mark.parametrize("q", sorted(FIELDS))
    def test_every_scalar_including_zero(self, q):
        F = FIELDS[q]
        rng = random.Random(f"scalars-{q}")
        values = list(F.elements()) if q <= 25 else [F.zero, F.one] + [F.rand(rng) for _ in range(30)]
        e = monoid_exponent(q, 1)
        for t in (1, e, e + 1, e + 2, 3 * e + 1, 2**40 + 12345):
            r = _reduce_exponent(t, 1, q, F.char)
            for lam in values:
                assert _pow(lam, r, F.mul, F.one) == _pow(lam, t, F.mul, F.one)


def ring_modulus(F, n, kind, rng):
    """A monic f of degree n: with a square factor, divisible by x, or x^n."""
    x = Poly(F, [F.zero, F.one])

    def monic(k):
        return Poly(F, [F.rand(rng) for _ in range(k)] + [F.one])

    if kind == "x-power":
        return Poly(F, [F.zero] * n + [F.one])
    if kind == "x-divides":
        return x * monic(n - 1)
    g = monic(rng.randrange(1, n // 2 + 1))
    return g * g * monic(n - 2 * g.degree())


class TestRingPowers:
    @settings(derandomize=True, deadline=None, max_examples=160)
    @given(
        q=st.sampled_from(sorted(FIELDS)),
        n=st.integers(2, 5),
        kind=st.sampled_from(["square", "x-divides", "x-power"]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reduced_power_matches_square_and_multiply(self, q, n, kind, data, seed):
        F = FIELDS[q]
        rng = random.Random(seed)
        f = ring_modulus(F, n, kind, rng)
        ring = F.ring(f)
        x = ring.element([F.rand(rng) for _ in range(n)])
        t = data.draw(exponents(n, q))
        with unreduced():
            want = ring.pow(x, t)
            want_mod = Poly(F, list(x)).pow_mod(t, f)
        assert want == _pow(x, t, ring.mul, None)
        assert ring.pow(x, t) == want
        assert Poly(F, list(x)).pow_mod(t, f) == want_mod == Poly(F, list(want))


class TestExponentMultiple:
    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 65521])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matrix_group_exponent_is_the_reduction_modulus(self, q, d):
        F = field_of_size(q)
        G = MatrixGroup(F, d, [Matrix.identity(F, d)])
        assert integers.factorization_product(G.exponent_multiple()) == _monoid_exponent(d, q, F.char)
