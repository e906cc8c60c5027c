import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdlp.ff as ff
from conftest import (
    bench_module,
    fold_dot,
    schoolbook_dot,
    schoolbook_poly_divmod,
    schoolbook_poly_mul,
    schoolbook_pow_mod,
)
from sdlp.errors import SdlpError
from sdlp.ff import (
    PACK_MIN_DEGREE,
    BinaryField,
    ExtField,
    Poly,
    PrimeField,
    Slots,
    _slot_size,
    canonical_irreducible,
    factor_degrees,
    factor_poly,
    field_of_size,
    is_irreducible,
)
from sdlp.integers import _pow
from sdlp.linalg import Matrix, krylov
from sdlp.oracles import UnitGroup

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


# (65537, 3) takes its modulus directly: field_of_size would scan 65541
# lexicographically smaller candidates first
INVERSE_FIELDS = {
    "F9": field_of_size(9),
    "F3^10": field_of_size(3**10),
    "F65537^3": ExtField(PrimeField(65537), Poly(PrimeField(65537), [4, 1, 0, 1])),
    "F257^5": field_of_size(257**5),
}


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

    @pytest.mark.parametrize("name", list(INVERSE_FIELDS))
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_inverse_matches_the_power_q_minus_2(self, name, data):
        F = INVERSE_FIELDS[name]
        a = data.draw(st.one_of(st.sampled_from([F.one, F.gen(), F.from_int(F.p - 1)]), st.integers(1, F.size - 1).map(F.from_int)))
        b = F.inv(a)
        assert F.mul(a, b) == F.one
        assert b == _power(F, a, F.size - 2)
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            F.inv(F.zero)

    @pytest.mark.parametrize(
        "p,e,canonical",
        [(p, e, False) for p, e in bench_module("workloads").ELEM_SHAPES] + [(3, 2, True), (3, 10, True)],
    )
    def test_pow_matches_square_and_multiply(self, p, e, canonical):
        # the benchmark's shapes under random moduli drawn as it draws them
        # (every coefficient random, so the tail is dense), and F_9, F_3^10
        rng = random.Random(f"pow-{p}-{e}")
        base = PrimeField(p)
        if canonical:
            F = field_of_size(p**e)
        else:
            while not is_irreducible(f := Poly(base, [base.rand(rng) for _ in range(e)] + [1])):
                pass
            F = ExtField(base, f)
        G = UnitGroup(F)
        q = F.size
        exponents = (0, 1, p - 1, p, q - 2, q - 1, q, 3 * (q - 1) + 5, rng.getrandbits(60) | 1 << 59)
        assert F._ring is None and F.pow(F.one, 0) == F.one
        ring = F._ring  # built on the first power, kept by the field
        for a in (F.gen(), F.rand_nonzero(rng), F.from_int(q - 1)):
            for n in exponents:
                want = _pow(a, n, F.mul, F.one)
                assert F.pow(a, n) == want and G.pow(a, n) == want
        assert F._ring is ring
        assert G.pow(a, -5) == F.inv(_pow(a, 5, F.mul, F.one))
        for n in (0, 1, 2, q - 1, rng.getrandbits(60) | 1 << 59):
            want = _pow(F.zero, n, F.mul, F.one)
            assert want == (F.one if n == 0 else F.zero)
            assert F.pow(F.zero, n) == want and G.pow(F.zero, n) == want

    def test_rejects_reducible_modulus(self):
        with pytest.raises(SdlpError):
            ExtField(F5, poly([4, 0, 1]))  # x^2 - 1 = (x-1)(x+1)

    def test_int_round_trip(self):
        F = field_of_size(27)
        for n in range(27):
            assert F.to_int(F.from_int(n)) == n

    @pytest.mark.parametrize("p,e", [(5, 2), (3, 10), (1031, 6), (65537, 3)])
    def test_trusted_field_equals_the_checked_one(self, p, e, monkeypatch):
        base = PrimeField(p)
        mod = canonical_irreducible(base, e)
        checked = ExtField(base, mod)

        def forbidden(f):
            raise AssertionError("the trusted path ran the irreducibility test")

        monkeypatch.setattr(ff, "is_irreducible", forbidden)
        trusted = ExtField._trusted(base, mod)
        assert trusted == checked and hash(trusted) == hash(checked)
        assert (trusted.modulus, trusted.size, trusted._tail) == (checked.modulus, checked.size, checked._tail)
        assert trusted._term_bound == checked._term_bound and trusted._packs_dots == checked._packs_dots
        rng = random.Random(p)
        for _ in range(20):
            a, b = checked.rand(rng), checked.rand_nonzero(rng)
            assert trusted.mul(a, b) == checked.mul(a, b) and trusted.inv(b) == checked.inv(b)
        with pytest.raises(AssertionError, match="irreducibility"):
            ExtField(base, mod)  # the public constructor keeps its check


# prime fields for the inline polynomial kernels: the smallest, a word-size
# one, and one whose products overflow 64 bits
KERNEL_PRIMES = (2, 3, 65521, 1048573, 2**61 - 1)


class TestPrimeFieldPolyKernels:
    """`Poly.__mul__` and `divmod` over a prime field sum int products and
    reduce once per coefficient; the per-pair loops in conftest are the
    reference. Over other fields each product coefficient is one field
    `dot`."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        p=st.sampled_from(KERNEL_PRIMES),
        la=st.integers(0, 12),
        lb=st.integers(0, 8),
        worst=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_pair_reference(self, p, la, lb, worst, seed):
        # worst: every coefficient is p - 1, so every unreduced sum is as
        # large as the products can make it
        F = PrimeField(p)
        rng = random.Random(seed)
        draw = (lambda: p - 1) if worst else (lambda: rng.randrange(p) if rng.random() < 0.8 else 0)
        a = Poly(F, [draw() for _ in range(la)])
        b = Poly(F, [draw() for _ in range(lb)])
        assert a * b == schoolbook_poly_mul(a, b) and b * a == schoolbook_poly_mul(b, a)
        if not b.is_zero():
            assert a.divmod(b) == schoolbook_poly_divmod(a, b)
            q, r = a.divmod(b)
            assert q * b + r == a and r.degree() < b.degree()

    @pytest.mark.parametrize("q", [9, 3**10, 2**16])
    def test_other_fields_match_the_per_pair_reference(self, q):
        F = field_of_size(q)
        rng = random.Random(9)
        for _ in range(40):
            a = Poly(F, [F.rand(rng) for _ in range(rng.randrange(0, 7))])
            b = Poly(F, [F.rand(rng) for _ in range(rng.randrange(1, 5))])
            assert a * b == schoolbook_poly_mul(a, b)
            if not b.is_zero():
                assert a.divmod(b) == schoolbook_poly_divmod(a, b)


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
    """`krylov` on a -> a c from 1 is c's power basis: the subfield F_p(c)
    in the basis 1, c, ..., c^(k-1), k = deg minpoly(c), with minpoly(c)
    as the annihilator."""

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
            f, B = krylov(F.base, lambda a: F.mul(a, c), F.one)
            k = f.degree()
            assert k == _frobenius_degree(F, c) and e % k == 0
            powers = [_power(F, c, i) for i in range(k + 1)]
            assert B.basis == powers[:k]

            def element(u):
                return F.dot(tuple(F.from_int(x) for x in u), powers[:k])

            # c^k = sum_j tail_j c^j, and c^0 .. c^(k-1) are the unit vectors
            assert element([F.base.neg(a) for a in f.coeffs[:k]]) == powers[k]
            assert [B.coords(a) for a in powers[:k]] == [tuple(int(i == j) for j in range(k)) for i in range(k)]
            for a in [_power(F, c, i) for i in range(k, 2 * k + 3)]:
                assert element(B.coords(a)) == a
            for _ in range(6):
                u = tuple(rng.randrange(p) for _ in range(k))
                assert B.coords(element(u)) == u
            if k < e:
                # a lies in F_p(c) = F_{p^k} exactly when its degree divides k
                outside = next(a for a in iter(lambda: F.rand_nonzero(rng), None) if k % _frobenius_degree(F, a))
                assert B.coords(outside) is None


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


def _dense_field(p, e):
    """F_{p^e} by the first irreducible whose coefficients are all nonzero:
    every tail constant is nonzero, and most are near p."""
    F = PrimeField(p)
    for n in itertools.count():  # the tails in itertools.product order, drawn lazily
        tail = [n // (p - 1) ** (e - 1 - i) % (p - 1) + 1 for i in range(e)]
        f = Poly(F, tail + [1])
        if is_irreducible(f):
            return ExtField(F, f)


# extension fields whose one product fits each slot width: 1 byte (F_9, a
# degree-1 extension), 2 (F_3^10), 4 (F_41^3, dense tail), 8 (F_65521^2,
# F_65537^3, F_257^5 dense), and dense-modulus fields with no slot of at
# most 8 bytes (F_127^6, F_4093^6, F_1048573^3, F_(2^61-1)^2)
PACKED_FIELDS = {
    "F_9": field_of_size(9),
    "F_7^1": ExtField(PrimeField(7), [3, 1]),
    "F_3^10": field_of_size(3**10),
    "F_41^3": _dense_field(41, 3),
    "F_65521^2": field_of_size(65521**2),
    "F_65537^3": field_of_size(65537**3),
    "F_257^5": _dense_field(257, 5),
    "F_127^6": _dense_field(127, 6),
    "F_4093^6": _dense_field(4093, 6),
    "F_1048573^3": _dense_field(1048573, 3),
    "F_2^61-1^2": _dense_field(2**61 - 1, 2),
}
# the fields whose single products (`dot`, `mul`) pack: degree at least
# PACK_MIN_DEGREE, and one product fits 8 bytes
PACKS_SINGLE_PRODUCTS = {"F_3^10", "F_41^3", "F_65537^3", "F_257^5"}


class TestPackedProducts:
    """Kronecker-packed F_{p^e} products against the schoolbook reference,
    up to each slot width's proven limit."""

    def test_slot_size_at_each_boundary(self):
        # 1, 2, 4 and 8 bytes, then just enough bytes past 64 bits
        for bits, size, wider in ((8, 1, 2), (16, 2, 4), (32, 4, 8), (64, 8, 9)):
            assert _slot_size((1 << bits) - 1) == size and _slot_size(1 << bits) == wider
        assert _slot_size(0) == 1 and _slot_size((1 << 72) - 1) == 9 and _slot_size(1 << 72) == 10

    def test_slot_widths(self):
        sizes = {name: F.slots(1).size for name, F in PACKED_FIELDS.items()}
        assert sizes["F_9"] == sizes["F_7^1"] == 1
        assert sizes["F_3^10"] == 2 and sizes["F_41^3"] == 4
        assert sizes["F_65521^2"] == sizes["F_65537^3"] == sizes["F_257^5"] == 8
        assert (sizes["F_127^6"], sizes["F_4093^6"], sizes["F_1048573^3"], sizes["F_2^61-1^2"]) == (9, 13, 11, 24)
        for F in PACKED_FIELDS.values():  # each width is built once
            assert F.slots(0) is F.slots(1) is F.slots((256 ** F.slots(1).size - 1) // F._term_bound)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        name=st.sampled_from(sorted(PACKED_FIELDS)),
        length=st.integers(0, 12),
        zeros=st.sampled_from(["none", "a", "some"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dot_matches_schoolbook(self, name, length, zeros, seed):
        F = PACKED_FIELDS[name]
        rng = random.Random(seed)
        a = [F.zero if zeros == "a" or (zeros == "some" and rng.random() < 0.5) else F.rand(rng) for _ in range(length)]
        b = [F.rand(rng) for _ in range(length)]
        want = schoolbook_dot(F, a, b)
        assert F.dot(a, b) == want
        assert F.slots(length).dot(a, b) == want  # at every degree and width

    @pytest.mark.parametrize("name", sorted(PACKED_FIELDS))
    def test_every_coefficient_top_at_each_slot_limit(self, name):
        # at each width from the one a single product takes, the most
        # products of all-top elements the width is chosen for
        F = PACKED_FIELDS[name]
        top = F.from_int(F.size - 1)  # every coefficient p - 1
        square = schoolbook_dot(F, [top], [top])
        first = F.slots(1).size
        for size in [first] + [w for w in (2, 4, 8) if w > first]:
            n = (256**size - 1) // F._term_bound
            s = F.slots(n)
            assert s.size == size and F.slots(n + 1).size > size
            want = tuple(n * c % F.p for c in square)
            assert s.unpack(n * (s.pack(top) * s.pack(top))) == want
            if n <= 4096:
                assert s.dot([top] * n, [top] * n) == want == schoolbook_dot(F, [top] * n, [top] * n)

    @pytest.mark.parametrize("name", sorted(PACKED_FIELDS))
    def test_no_terms_still_fits_the_tail(self, name):
        # with n = 0 the products need no width at all, but the tail
        # constants (and every coefficient, below p) still need their bits
        F = PACKED_FIELDS[name]
        assert F.dot([], []) == F.zero
        s = F.slots(0)
        assert s is F.slots(1) and 8 * s.size >= (F.p - 1).bit_length()
        top = F.from_int(F.size - 1)
        assert s.unpack(s.pack(top)) == top and s.unpack(0) == F.zero

    def test_single_products_pack_from_the_minimum_degree(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a single product packed")

        monkeypatch.setattr(Slots, "dot", forbidden)
        rng = random.Random(5)
        for name, F in PACKED_FIELDS.items():
            a, b = F.rand(rng), F.rand(rng)
            if name in PACKS_SINGLE_PRODUCTS:
                assert F.degree >= PACK_MIN_DEGREE and F.slots(1).size <= 8
                with pytest.raises(AssertionError, match="packed"):
                    F.mul(a, b)
            else:
                assert F.mul(a, b) == schoolbook_dot(F, [a], [b])

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        name=st.sampled_from(sorted(PACKED_FIELDS)),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matrix_product_matches_schoolbook(self, name, shape, seed):
        F = PACKED_FIELDS[name]
        r, n, c = shape
        rng = random.Random(seed)
        A = Matrix(F, [[F.rand(rng) for _ in range(n)] for _ in range(r)])
        B = Matrix(F, [[F.rand(rng) for _ in range(c)] for _ in range(n)])
        cols = list(zip(*B.rows))
        assert (A * B).rows == tuple(tuple(schoolbook_dot(F, row, col) for col in cols) for row in A.rows)


# one ring kernel per field kind: prime fields (small, word-size, 61-bit),
# packed extension fields, in word slots (F_3^10) and in wider ones for
# dense moduli (F_4093^6, F_1048573^3, F_(2^61-1)^2), carry-less F_2^k
RING_FIELDS = {
    "F_2": PrimeField(2),
    "F_65521": PrimeField(65521),
    "F_2^61-1": PrimeField(2**61 - 1),
    "F_3^10": field_of_size(3**10),
    **{name: PACKED_FIELDS[name] for name in ("F_4093^6", "F_1048573^3", "F_2^61-1^2")},
    **{f"F_2^{k}": BinaryField(k) for k in (1, 2, 8, 16, 17, 64)},
}


# primes at the prime ring's slot-width edges: 2, where mu = 2^(V - 1) is
# largest against p, primes on both sides of 2^8, 2^16 and 2^32, and the
# largest 31-, 61- and 64-bit primes; degrees on both sides of 8
EDGE_PRIMES = (2, 3, 251, 257, 65521, 65537, 2**31 - 1, 4294967311, 2**61 - 1, 18446744073709551557)
EDGE_DEGREES = (1, 2, 7, 9, 12, 24)


class TestPolyRing:
    @staticmethod
    def check_products(F, f, x, y):
        ring = F.ring(f)
        for a, b in ((x, y), (x, x), (y, y)):
            want = schoolbook_poly_divmod(schoolbook_poly_mul(Poly(F, list(a)), Poly(F, list(b))), f)[1]
            assert ring.mul(a, b) == ring.element(want.coeffs)
        return ring

    @settings(derandomize=True, deadline=None, max_examples=250)
    @given(
        name=st.sampled_from(sorted(RING_FIELDS)),
        deg=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_product_matches_the_per_pair_reference(self, name, deg, seed):
        F = RING_FIELDS[name]
        rng = random.Random(seed)
        draw = (lambda: F.rand(rng) if rng.random() < 0.8 else F.zero)
        f = Poly(F, [draw() for _ in range(deg)] + [F.one])
        x, y = tuple(draw() for _ in range(deg)), tuple(draw() for _ in range(deg))
        ring = self.check_products(F, f, x, y)
        n = rng.randrange(2**20)
        assert Poly(F, list(ring.pow(x, n))) == schoolbook_pow_mod(Poly(F, list(x)), n, f)

    @pytest.mark.parametrize("name", sorted(RING_FIELDS))
    def test_all_ones_operands_reach_the_sum_bound(self, name):
        # every coefficient of x and of x^n mod f is the field's all-ones
        # element q - 1 (p - 1 in every digit, every bit set), so a slot or
        # cell sums as many products as the kernel's bound allows: n k
        # pairs meet in the middle cell of a carry-less product
        F = RING_FIELDS[name]
        top = F.from_int(F.size - 1)
        for deg in range(1, 13):
            f = Poly(F, [F.neg(top)] * deg + [F.one])
            self.check_products(F, f, (top,) * deg, (F.one,) + (top,) * (deg - 1))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        p=st.sampled_from(EDGE_PRIMES),
        deg=st.sampled_from(EDGE_DEGREES),
        operands=st.sampled_from(["random", "square", "top"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prime_kernel_at_the_slot_width_edges(self, p, deg, operands, seed):
        F = PrimeField(p)
        rng = random.Random(seed)
        if operands == "top":  # every coefficient p - 1, as is every one of x^deg mod f
            f = Poly(F, [1] * (deg + 1))
            x, y = (p - 1,) * deg, tuple([p - 1] * deg)
        else:
            f = Poly(F, [F.rand(rng) for _ in range(deg)] + [1])
            x = tuple(F.rand(rng) for _ in range(deg))
            y = x if operands == "square" else tuple(F.rand(rng) for _ in range(deg))
        ring = F.ring(f)
        a = ring._lift(x)
        want = schoolbook_poly_divmod(schoolbook_poly_mul(Poly(F, list(x)), Poly(F, list(y))), f)[1]
        assert ring._drop(ring._mul(a, a if x is y else ring._lift(y))) == ring.element(want.coeffs)
        n = rng.getrandbits(24)
        assert Poly(F, list(ring.pow(x, n))) == schoolbook_pow_mod(Poly(F, list(x)), n, f)

    def test_prime_kernel_keeps_every_slot_below_3p(self):
        # white-box: operands whose every slot holds 3p - 1, the most a
        # coefficient holds between products, so the middle slot of the
        # int product reaches the bound deg (3p - 1)^2, and the folded
        # x^(deg+j) mod f stay below 3p too; one modulus has x^deg = (p -
        # 1)(1 + ... + x^(deg-1)), the other is random
        rng = random.Random(3)
        for p in EDGE_PRIMES:
            F = PrimeField(p)
            for deg in EDGE_DEGREES:
                top = Poly(F, [p - 1] * deg)
                for f in (Poly(F, [1] * (deg + 1)), Poly(F, [F.rand(rng) for _ in range(deg)] + [1])):
                    ring = F.ring(f)
                    w = ring._w
                    assert all(fold >> i * w & (1 << w) - 1 < 3 * p for fold in ring._folds for i in range(deg))
                    want = ring.element(schoolbook_poly_divmod(schoolbook_poly_mul(top, top), f)[1].coeffs)
                    a, b = (sum((3 * p - 1) << i * w for i in range(deg)) for _ in range(2))
                    for z in (ring._mul(a, a), ring._mul(a, b)):
                        slots = [z >> i * w & (1 << w) - 1 for i in range(deg)]
                        assert z >> deg * w == 0 and max(slots) < 3 * p, (p, deg)
                        assert tuple(c % p for c in slots) == want

    def test_kernel_per_field_kind(self):
        kinds = {name: type(F.ring(Poly(F, [F.one] * 10))).__name__ for name, F in RING_FIELDS.items()}
        assert kinds["F_2^61-1"] == "_PrimeRing" and kinds["F_2^64"] == "_BinaryRing"
        assert kinds["F_3^10"] == kinds["F_4093^6"] == "_PackedRing"

    def test_pow_mod_by_a_constant_is_zero(self):
        # F[x]/(c) is the zero ring for a nonzero constant c
        for F in (F5, field_of_size(9), BinaryField(16)):
            x = Poly.x(F)
            for n in (0, 1, 5):
                assert x.pow_mod(n, Poly(F, [F.from_int(3)])).is_zero()
        with pytest.raises(ZeroDivisionError):
            Poly.x(F5).pow_mod(2, Poly(F5, []))

    def test_pow_mod_reduces_by_the_monic_modulus(self):
        # the same remainder as long division by a non-monic modulus
        F = field_of_size(9)
        rng = random.Random(4)
        for _ in range(20):
            f = Poly(F, [F.rand(rng) for _ in range(4)] + [F.rand_nonzero(rng)])
            a = Poly(F, [F.rand(rng) for _ in range(7)])
            assert a.pow_mod(13, f) == schoolbook_pow_mod(a, 13, f)


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


def test_field_of_size_skips_reducible_binomials_quickly(monkeypatch):
    # 65537 = 2 (mod 3) makes every x^3 + c reducible; the search runs
    # afresh, not from an earlier answer
    monkeypatch.setattr(ff, "_CANONICAL", {})
    start = time.perf_counter()
    F = field_of_size(65537**3)
    assert F.modulus.coeffs == (4, 1, 0, 1)
    assert time.perf_counter() - start < 0.5


def test_canonical_modulus_is_searched_and_proved_once(monkeypatch):
    # the first field of each size runs the search, which proves the
    # modulus irreducible once; a second field of that size runs no test
    calls, test = [], ff.is_irreducible
    monkeypatch.setattr(ff, "_CANONICAL", {})
    monkeypatch.setattr(ff, "is_irreducible", lambda f: calls.append(f) or test(f))
    first = field_of_size(3**10), BinaryField(16)
    assert [calls.count(F.modulus) for F in first] == [1, 1]
    calls.clear()
    assert (field_of_size(3**10), BinaryField(16)) == first and calls == []


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
