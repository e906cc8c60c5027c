import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fold_dot
from sdlp.errors import SdlpError
from sdlp.ff import (
    BinaryField,
    ExtField,
    Poly,
    PrimeField,
    canonical_irreducible,
    factor_degrees,
    factor_poly,
    field_of_size,
    is_irreducible,
)
from sdlp.linalg import PowerBasis

F5 = PrimeField(5)


def poly(coeffs, field=F5):
    return Poly(field, coeffs)


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(SdlpError):
            PrimeField(10)

    def test_inverse(self):
        rng = random.Random(0)
        for p in (2, 3, 101, 65521):
            F = PrimeField(p)
            for _ in range(50):
                a = F.rand_nonzero(rng)
                assert F.mul(a, F.inv(a)) == 1


class TestFactorPoly:
    def test_x_is_already_irreducible(self):
        assert factor_poly(poly([0, 1])) == [(poly([0, 1]), 1)]

    def test_difference_of_squares(self):
        got = factor_poly(poly([4, 0, 1]))
        assert got == [(poly([1, 1]), 1), (poly([4, 1]), 1)]

    def test_irreducible_quadratic(self):
        f = poly([1, 1, 1])
        # no root among the 5 candidates and degree 2 => irreducible
        assert all(f.eval(x) != 0 for x in range(5))
        assert factor_poly(f) == [(f, 1)]

    @pytest.mark.parametrize("p", [2, 3, 5, 97])
    def test_product_reassembles(self, p):
        F = PrimeField(p)
        rng = random.Random(p)
        for trial in range(60):
            deg = rng.randrange(1, 9)
            f = Poly(F, [rng.randrange(p) for _ in range(deg)] + [1])
            factors = factor_poly(f, seed=trial)
            prod = Poly(F, [1])
            for g, mult in factors:
                assert is_irreducible(g)
                for _ in range(mult):
                    prod = prod * g
            assert prod == f

    def test_deterministic_given_seed(self):
        F = PrimeField(7)
        f = poly([3, 0, 1, 2, 1], F) * poly([1, 1], F) * poly([1, 1], F)
        a = factor_poly(f.monic(), seed=5)
        b = factor_poly(f.monic(), seed=5)
        assert a == b

    def test_rejects_non_monic(self):
        with pytest.raises(SdlpError):
            factor_poly(poly([1, 2]))


class TestExtField:
    def test_field_axioms_sampled(self):
        rng = random.Random(1)
        for q in (25, 27, 49):
            F = field_of_size(q)
            for _ in range(60):
                a, b, c = F.rand(rng), F.rand(rng), F.rand(rng)
                assert F.mul(a, b) == F.mul(b, a)
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            for _ in range(60):
                a = F.rand_nonzero(rng)
                assert F.mul(a, F.inv(a)) == F.one

    def test_rejects_reducible_modulus(self):
        with pytest.raises(SdlpError):
            ExtField(F5, poly([4, 0, 1]))  # x^2 - 1 = (x-1)(x+1)

    def test_int_round_trip(self):
        F = field_of_size(27)
        for n in range(27):
            assert F.to_int(F.from_int(n)) == n


def _power(F, c, n):
    out = F.one
    for bit in bin(n)[2:]:
        out = F.mul(out, out)
        if bit == "1":
            out = F.mul(out, c)
    return out


def _frobenius_degree(F, c):
    """The degree of F_p(c): the least k with c^(p^k) = c."""
    k, cur = 1, _power(F, c, F.char)
    while cur != c:
        k, cur = k + 1, _power(F, cur, F.char)
    return k


POWER_BASIS_FIELDS = [(3, 2), (7, 4), (5, 6), (257, 5), (65537, 3)]


class TestPowerBasis:
    @pytest.mark.parametrize("p, e", POWER_BASIS_FIELDS, ids=[f"{p}^{e}" for p, e in POWER_BASIS_FIELDS])
    def test_matches_field_arithmetic(self, p, e):
        F = field_of_size(p**e)
        rng = random.Random(f"power-basis-{p}-{e}")
        # a random element, one from F_p and, where e is composite, one from
        # a proper subfield
        norm = next((d for d in range(2, e) if e % d == 0), None)
        cs = [F.rand_nonzero(rng), F.from_int(rng.randrange(1, p))]
        if norm:
            cs.append(_power(F, F.rand_nonzero(rng), (p**e - 1) // (p**norm - 1)))
        for c in cs:
            B = PowerBasis(F, c)
            k = B.degree
            assert k == _frobenius_degree(F, c) and e % k == 0
            assert B.element(B.identity) == F.one and B.element(B.gen) == c
            elements = [_power(F, c, i) for i in range(2 * k + 3)]
            for i, a in enumerate(elements):
                w = B.coords(a)
                assert B.element(w) == a
                assert B.element(B.times_gen(w)) == F.mul(a, c)
                assert B.stepper(B.gen)(w) == B.times_gen(w)
                if any(w):
                    assert B.element(B.inv(w)) == F.inv(a)
                # base-p label of the coordinates, as the field labels its own
                assert B.label(w) == sum(x * p**j for j, x in enumerate(w))
            for _ in range(6):
                u = tuple(rng.randrange(p) for _ in range(k))
                v = tuple(rng.randrange(p) for _ in range(k))
                assert B.coords(B.element(u)) == u
                assert B.element(B.stepper(v)(u)) == F.mul(B.element(u), B.element(v))
            if k < e:
                # a lies in F_p(c) = F_{p^k} exactly when its degree divides k
                outside = next(a for a in iter(lambda: F.rand_nonzero(rng), None) if k % _frobenius_degree(F, a))
                assert B.coords(outside) is None

    def test_label_is_injective_on_the_subfield(self):
        F = field_of_size(7**4)
        c = F.gen()
        B = PowerBasis(F, c)
        powers, cur = set(), F.one
        for _ in range(7**4 - 1):
            powers.add(cur)
            cur = F.mul(cur, c)
        assert len({B.label(B.coords(a)) for a in powers}) == len(powers)


class TestBinaryField:
    def test_matches_generic_extension(self):
        # same modulus, two representations: multiplication tables agree
        F2 = PrimeField(2)
        mod = canonical_irreducible(F2, 4)
        generic = ExtField(F2, mod)
        fast = BinaryField(4)
        assert fast.modulus == generic.modulus
        for a in range(16):
            for b in range(16):
                want = generic.to_int(generic.mul(generic.from_int(a), generic.from_int(b)))
                assert fast.mul(a, b) == want

    def test_inverse(self):
        F = field_of_size(65536)
        rng = random.Random(2)
        for _ in range(200):
            a = F.rand_nonzero(rng)
            assert F.mul(a, F.inv(a)) == 1


# the dot kernels on every field representation: small and word-size
# primes, extensions of small and large characteristic, carry-less F_2^k
DOT_FIELDS = {
    "F_2": PrimeField(2),
    "F_5": PrimeField(5),
    "F_65521": PrimeField(65521),
    "F_9": field_of_size(9),
    "F_3^10": field_of_size(3**10),
    "F_65521^2": field_of_size(65521**2),
    "F_2^1": BinaryField(1),
    "F_2^4": BinaryField(4),
    "F_2^16": BinaryField(16),
}


class TestDotKernel:
    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(
        name=st.sampled_from(sorted(DOT_FIELDS)),
        length=st.integers(0, 8),
        zeros=st.sampled_from(["none", "a", "both"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_left_fold(self, name, length, zeros, seed):
        F = DOT_FIELDS[name]
        rng = random.Random(seed)
        a = [F.zero if zeros != "none" else F.rand(rng) for _ in range(length)]
        b = [F.zero if zeros == "both" else F.rand(rng) for _ in range(length)]
        assert F.dot(a, b) == fold_dot(F, a, b)
        assert F.dot(b, a) == F.dot(a, b)

    @pytest.mark.parametrize("name", sorted(DOT_FIELDS))
    def test_empty_and_extreme_vectors(self, name):
        F = DOT_FIELDS[name]
        assert F.dot([], []) == F.zero
        # q - 1 has every coefficient p - 1: the largest unreduced terms
        top = F.from_int(F.size - 1)
        for n in (1, 2, 17):
            assert F.dot([top] * n, [top] * n) == fold_dot(F, [top] * n, [top] * n)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        name=st.sampled_from(["F_9", "F_3^10", "F_65521^2"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ext_mul_matches_poly_product(self, name, seed):
        F = DOT_FIELDS[name]
        rng = random.Random(seed)
        a, b = F.rand(rng), F.rand(rng)
        want = (Poly(F.base, list(a)) * Poly(F.base, list(b))).mod(F.modulus).coeffs
        assert F.mul(a, b) == tuple(want) + (0,) * (F.degree - len(want))


class TestFactorDegrees:
    def test_known_product(self):
        f = poly([1, 1, 1]) * poly([2, 1]) * poly([2, 1]) * poly([3, 1])
        assert factor_degrees(f.monic()) == [1, 2]

    @pytest.mark.parametrize("q", [2, 5, 9])
    def test_against_full_factorization(self, q):
        rng = random.Random(q)
        F = field_of_size(q)
        for _ in range(40):
            deg = rng.randrange(1, 8)
            f = Poly(F, [F.rand(rng) for _ in range(deg)] + [F.one])
            got = set(factor_degrees(f))
            if isinstance(F, PrimeField):
                want = {g.degree() for g, _ in factor_poly(f)}
                assert got == want


def test_canonical_irreducible_is_deterministic_and_minimal():
    F3 = PrimeField(3)
    f = canonical_irreducible(F3, 2)
    assert f == canonical_irreducible(F3, 2)
    assert is_irreducible(f)
    # nothing lexicographically smaller is irreducible
    for n in range(3 ** 2):
        coeffs = [n % 3, n // 3, 1]
        cand = Poly(F3, coeffs)
        if cand == f:
            break
        assert not is_irreducible(cand)


@pytest.mark.parametrize(
    "p, e, coeffs",
    [
        (3, 10, (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1)),
        (2, 16, (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
        (5, 6, (2, 1, 0, 0, 0, 0, 1)),
        (7, 4, (1, 1, 0, 0, 1)),
    ],
)
def test_canonical_irreducible_moduli_are_pinned(p, e, coeffs):
    # field labels and CLI output bytes are read in these bases
    assert canonical_irreducible(PrimeField(p), e).coeffs == coeffs
    assert field_of_size(p**e).modulus.coeffs == coeffs


@pytest.mark.parametrize("e", [2, 3, 5])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 17, 23, 29, 47, 53, 59])
def test_canonical_irreducible_equals_unskipped_lex_search(p, e):
    # the search skips the binomials x^e + c when gcd(e, p - 1) = 1
    F = PrimeField(p)
    first = next(
        f
        for f in (Poly(F, [n // p**i % p for i in range(e)] + [1]) for n in itertools.count())
        if is_irreducible(f)
    )
    assert canonical_irreducible(F, e) == first


def test_field_of_size_skips_reducible_binomials_quickly():
    # 65537 = 2 (mod 3) makes every x^3 + c reducible
    start = time.perf_counter()
    F = field_of_size(65537**3)
    assert F.modulus.coeffs == (4, 1, 0, 1)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("p, max_degree", [(2, 8), (3, 5)])
def test_is_irreducible_matches_divisor_search(p, max_degree):
    # every monic polynomial up to max_degree, against a search for a monic
    # divisor of degree 1 to deg f / 2
    F = PrimeField(p)
    monic = [[Poly(F, list(c) + [1]) for c in itertools.product(range(p), repeat=d)] for d in range(max_degree + 1)]
    for d, polys in enumerate(monic):
        for f in polys:
            reducible = any(f.divmod(u)[1].is_zero() for e in range(1, d // 2 + 1) for u in monic[e])
            assert is_irreducible(f) == (d >= 1 and not reducible), f
