import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdlp.groups as groups
from conftest import (
    borel_group,
    eval_poly_at_matrix,
    group_order,
    heisenberg_coords,
    heisenberg_matrix,
    rand_invertible,
    rand_upper_triangular,
    reduced_exponent,
    rho_pow_naive,
    sigma_closed_matrix_group,
    table_endo,
)
from sdlp.errors import SdlpError
from sdlp.ff import Poly, PrimeField, field_of_size
from sdlp.groups import (
    ConjugationEndo,
    CyclicGroup,
    Endo,
    HeisenbergGroup,
    Hom,
    InducedPairEndo,
    LinearMapEndo,
    MatrixGroup,
    PairImageGroup,
    PowerMapEndo,
    ProductEndo,
    ProductGroup,
    SolutionSet,
    Subgroup,
    TableEndo,
    VectorGroup,
    induced_automorphism,
    rho_pow,
    rho_pow_inverse_apply,
    semidirect_power,
    sigma_pow_apply,
)
from sdlp.linalg import _TRIANGULAR_POWER_MIN_BITS, Echelon, Matrix
from sdlp.oracles import orbit_index_period

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def all_backends():
    F9 = field_of_size(9)
    return [
        CyclicGroup(8),
        CyclicGroup(1),
        VectorGroup(5, 2),
        VectorGroup(2, 3),
        HeisenbergGroup(7),
        MatrixGroup(F5, 2, [Matrix(F5, [[1, 1], [0, 1]]), Matrix(F5, [[2, 0], [0, 1]])]),
        MatrixGroup(F9, 2, [Matrix(F9, [[F9.gen(), F9.zero], [F9.zero, F9.one]])]),
        ProductGroup([CyclicGroup(6), VectorGroup(3, 2)]),
        PairImageGroup(Hom(HeisenbergGroup(5), VectorGroup(5, 2), lambda t: (t[0], t[1]))),
    ]


class TestBackendAxioms:
    @pytest.mark.parametrize("group", all_backends(), ids=lambda g: repr(g))
    def test_axioms_and_labels(self, group):
        rng = random.Random(0)
        e = group.identity
        for _ in range(40):
            x, y, z = (group.rand_element(rng) for _ in range(3))
            assert group.label(group.mul(group.mul(x, y), z)) == group.label(group.mul(x, group.mul(y, z)))
            assert group.is_identity(group.mul(x, group.inv(x)))
            assert group.label(group.mul(x, e)) == group.label(x)

    @pytest.mark.parametrize("group", all_backends(), ids=lambda g: repr(g))
    def test_codeword_bits_cover_group(self, group):
        order = group_order(group)
        if order is not None:
            assert (1 << group.codeword_bits) >= order

    @pytest.mark.parametrize("group", all_backends(), ids=lambda g: repr(g))
    def test_exponent_multiple_annihilates(self, group):
        rng = random.Random(1)
        from sdlp.integers import factorization_product

        m = factorization_product(group.exponent_multiple())
        for _ in range(10):
            x = group.rand_element(rng)
            assert group.is_identity(group.pow(x, m))

    def test_pow_multiplies_once_per_bit(self):
        # left to right: bitlen(n) - 1 squarings and popcount(n) - 1 products
        # by x, none by the identity
        class Counting(CyclicGroup):
            products = 0

            def mul(self, x, y):
                self.products += 1
                return super().mul(x, y)

        C = Counting(1009)
        for n in range(65):
            C.products = 0
            assert C.pow(5, n) == 5 * n % 1009
            assert C.products == (0 if n == 0 else n.bit_length() - 1 + bin(n).count("1") - 1)


class TestCyclicFactorization:
    def test_factored_once_and_kept(self, monkeypatch):
        import sdlp.integers as integers

        calls = []
        factorize = integers.factorize

        def spy(n, **kwargs):
            calls.append(n)
            return factorize(n, **kwargs)

        monkeypatch.setattr(integers, "factorize", spy)
        C = CyclicGroup(2**5 * 3 * 1009**2)
        assert C.factorization == {2: 5, 3: 1, 1009: 2}
        multiple = C.exponent_multiple()
        multiple[2] = 0  # a caller's copy: the kept factorization stays
        assert C.exponent_multiple() == C.factorization == {2: 5, 3: 1, 1009: 2}
        assert calls == [C.n]


class TestHeisenberg:
    def test_matches_matrix_model(self):
        H = HeisenbergGroup(7)
        rng = random.Random(2)
        for _ in range(50):
            x, y = H.rand_element(rng), H.rand_element(rng)
            wanted = heisenberg_matrix(H, x) * heisenberg_matrix(H, y)
            assert heisenberg_matrix(H, H.mul(x, y)) == wanted
            assert heisenberg_matrix(H, H.inv(x)) == heisenberg_matrix(H, x).inverse()
            assert heisenberg_coords(heisenberg_matrix(H, x)) == x


class TestEnumerationOrder:
    """Enumeration runs in lexicographic order, the last coordinate fastest:
    brute-force search returns the first hit in this order."""

    @pytest.mark.parametrize("p, d", [(3, 0), (3, 1), (3, 2), (5, 3), (2, 4)])
    def test_vector_elements(self, p, d):
        want = [tuple(n // p ** (d - 1 - i) % p for i in range(d)) for n in range(p**d)]
        assert list(VectorGroup(p, d).elements()) == want

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_heisenberg_elements(self, p):
        want = [(n // (p * p), n // p % p, n % p) for n in range(p**3)]
        assert list(HeisenbergGroup(p).elements()) == want


class TestSigmaPowApply:
    def test_power_zero_is_identity(self):
        C = CyclicGroup(8)
        s = PowerMapEndo(C, 2)
        assert sigma_pow_apply(s, 0, 3) == 3

    def test_power_map_square(self):
        C = CyclicGroup(8)
        s = PowerMapEndo(C, 2)
        assert sigma_pow_apply(s, 2, 3) == 12 % 8

    def test_conjugation_cube(self):
        G = MatrixGroup(F5, 2, [Matrix(F5, [[1, 1], [0, 1]])])
        a = Matrix(F5, [[2, 1], [0, 3]])
        s = ConjugationEndo(G, a)
        x = Matrix(F5, [[1, 3], [0, 1]])
        expected = (a ** 3).inverse() * x * (a ** 3)
        assert sigma_pow_apply(s, 3, x) == expected

    def test_negative_power_rejected(self):
        C = CyclicGroup(8)
        with pytest.raises(SdlpError):
            sigma_pow_apply(PowerMapEndo(C, 2), -1, 1)


class TestRhoPow:
    def test_empty_product(self):
        V = VectorGroup(5, 1)
        s = PowerMapEndo(V, 2)
        assert rho_pow((1,), s, 0) == (0,)

    def test_single_factor(self):
        V = VectorGroup(5, 1)
        s = PowerMapEndo(V, 2)
        assert rho_pow((1,), s, 1) == (1,)

    def test_three_step_orbit(self):
        V = VectorGroup(5, 1)
        s = PowerMapEndo(V, 2)
        assert rho_pow((1,), s, 3) == (7 % 5,)

    def test_fast_equals_naive(self):
        rng = random.Random(3)
        cases = [
            (CyclicGroup(8), lambda g: PowerMapEndo(g, 2), 1),
            (CyclicGroup(12), lambda g: PowerMapEndo(g, 5), 7),
            (VectorGroup(5, 2), lambda g: LinearMapEndo(g, Matrix(F5, [[0, 4], [1, 4]])), (1, 0)),
            (HeisenbergGroup(7), lambda g: ConjugationEndo(g, Matrix(F7, [[2, 1, 3], [0, 3, 5], [0, 0, 1]])), (1, 2, 3)),
        ]
        for grp, mk, g in cases:
            sigma = mk(grp)
            for t in list(range(40)) + [rng.randrange(1 << 10) for _ in range(10)]:
                assert grp.label(rho_pow(g, sigma, t)) == grp.label(rho_pow_naive(g, sigma, t))

    def test_splitting_identity(self):
        # rho^{s+t}(1) = rho^s(1) * sigma^s(rho^t(1))
        rng = random.Random(4)
        H = HeisenbergGroup(5)
        sigma = ConjugationEndo(H, Matrix(PrimeField(5), [[1, 2, 0], [0, 2, 1], [0, 0, 3]]))
        g = (1, 1, 0)
        for _ in range(50):
            s, t = rng.randrange(1 << 10), rng.randrange(1 << 10)
            lhs = rho_pow(g, sigma, s + t)
            rhs = H.mul(rho_pow(g, sigma, s), sigma_pow_apply(sigma, s, rho_pow(g, sigma, t)))
            assert H.label(lhs) == H.label(rhs)

    def test_automorphism_orbit_is_pure_cycle(self):
        rng = random.Random(5)
        V = VectorGroup(5, 2)
        for _ in range(20):
            M = Matrix(F5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
            if not M.is_invertible():
                continue
            sigma = LinearMapEndo(V, M)
            g = V.rand_element(rng)
            shape = orbit_index_period(g, sigma)
            assert shape.index == 0
            assert V.is_identity(rho_pow(g, sigma, shape.period))
            for t in range(1, shape.period):
                assert not V.is_identity(rho_pow(g, sigma, t))


class TestRhoPowInverse:
    def setup_method(self):
        # a fresh sigma: no order of it is computed before the inverse
        self.V = VectorGroup(5, 2)
        self.sigma = LinearMapEndo(self.V, Matrix(F5, [[0, 4], [1, 4]]))

    def test_s_zero_is_identity_map(self):
        assert rho_pow_inverse_apply((1, 0), self.sigma, 0, (1, 1)) == (1, 1)

    def test_defining_property(self):
        rng = random.Random(6)
        for _ in range(40):
            s = rng.randrange(1 << 8)
            h = self.V.rand_element(rng)
            w = rho_pow_inverse_apply((1, 0), self.sigma, s, h)
            assert self.V.label(rho_pow((1, 0), self.sigma, s)) == self.V.label(
                self.V.mul(rho_pow((1, 0), self.sigma, s), (0, 0))
            )
            # rho^s(w) = h
            back = self.V.mul(rho_pow((1, 0), self.sigma, s), sigma_pow_apply(self.sigma, s, w))
            assert self.V.label(back) == self.V.label(h)

    def test_spec_example(self):
        assert rho_pow_inverse_apply((1, 0), self.sigma, 2, (1, 1)) == (0, 0)

    def test_rejects_non_automorphism(self):
        V = VectorGroup(3, 2)
        singular = LinearMapEndo(V, Matrix(PrimeField(3), [[1, 0], [2, 0]]))
        with pytest.raises(SdlpError, match="not an automorphism"):
            rho_pow_inverse_apply((1, 0), singular, 1, (0, 0))


AUTOMORPHISM_KINDS = [
    "power",
    "linear",
    "heisenberg",
    "heisenberg-65521",
    "matrix",
    "subgroup",
    "table",
    "pair",
    "product",
    "conjugation-product",
]
# the kinds whose sigma is, or has a factor that is, a conjugation
CONJUGATION_KINDS = ["heisenberg", "heisenberg-65521", "matrix", "borel", "subgroup", "conjugation-product"]


def _unit_mod(n, rng):
    while True:
        e = rng.randrange(n)
        if math.gcd(e, n) == 1:
            return e


def fresh_automorphism(kind, rng):
    """A newly built automorphism of the given representation kind."""
    if kind == "power":
        n = rng.randrange(2, 200)
        return PowerMapEndo(CyclicGroup(n), _unit_mod(n, rng))
    if kind == "linear":
        V = VectorGroup(5, 3)
        return LinearMapEndo(V, rand_invertible(F5, 3, rng))
    if kind in ("heisenberg", "heisenberg-65521"):
        H = HeisenbergGroup(65521 if kind == "heisenberg-65521" else 7)
        return ConjugationEndo(H, rand_upper_triangular(H.field, 3, rng))
    if kind == "matrix":
        F9 = field_of_size(9)
        return sigma_closed_matrix_group(F9, 2, [rand_invertible(F9, 2, rng)], rand_invertible(F9, 2, rng))[1]
    if kind == "borel":
        F7 = PrimeField(7)
        return ConjugationEndo(borel_group(F7, 3, rng), rand_upper_triangular(F7, 3, rng))
    if kind == "subgroup":
        # {(a, 0, c)} is closed under conjugation by any upper-triangular matrix
        H = HeisenbergGroup(7)
        K = Subgroup(H, [(1, 0, 0), (0, 0, 1)])
        return ConjugationEndo(K, rand_upper_triangular(H.field, 3, rng))
    if kind == "conjugation-product":
        H, V = HeisenbergGroup(7), VectorGroup(5, 3)
        P = ProductGroup([H, V])
        conj = ConjugationEndo(H, rand_upper_triangular(H.field, 3, rng))
        return ProductEndo(P, [conj, LinearMapEndo(V, rand_invertible(F5, 3, rng))])
    if kind == "table":
        n = rng.randrange(2, 60)
        e = _unit_mod(n, rng)
        return table_endo(CyclicGroup(n), lambda x: e * x % n)
    if kind == "pair":
        H = HeisenbergGroup(5)
        P = PairImageGroup(Hom(H, VectorGroup(5, 2), lambda t: (t[0], t[1])))
        return InducedPairEndo(P, ConjugationEndo(H, rand_upper_triangular(H.field, 3, rng)))
    C, V = CyclicGroup(12), VectorGroup(3, 2)
    P = ProductGroup([C, V])
    return ProductEndo(P, [PowerMapEndo(C, _unit_mod(12, rng)), LinearMapEndo(V, rand_invertible(F3, 2, rng))])


def assert_same_endo(grp, E, F):
    """E and F agree on the generators, and their conjugations (the endo or
    its product factors) carry the same (a, a^-1)."""
    for x in grp.generators():
        assert grp.label(E.apply(x)) == grp.label(F.apply(x))

    def conjugations(endo):
        return [c for c in getattr(endo, "components", [endo]) if isinstance(c, ConjugationEndo)]

    for c, d in zip(conjugations(E), conjugations(F), strict=True):
        assert (c.a, c.a_inv) == (d.a, d.a_inv)


class TestNegativePowers:
    """Every automorphism kind inverts itself through its representation."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(kind=st.sampled_from(AUTOMORPHISM_KINDS), k=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    def test_negative_power_undoes_power(self, kind, k, seed):
        sigma = fresh_automorphism(kind, random.Random(seed))
        grp = sigma.group
        for endo in (sigma.pow(-k).compose(sigma.pow(k)), sigma.pow(k).compose(sigma.pow(-k))):
            for x in grp.generators():
                assert grp.label(endo.apply(x)) == grp.label(x)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(kind=st.sampled_from(AUTOMORPHISM_KINDS), s=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    def test_rho_pow_inverse_on_fresh_sigma(self, kind, s, seed):
        rng = random.Random(seed)
        sigma = fresh_automorphism(kind, rng)
        grp = sigma.group
        g, h = grp.rand_element(rng), grp.rand_element(rng)
        w = rho_pow_inverse_apply(g, sigma, s, h)
        # rho^s(w) = rho^s(1) sigma^s(w) = h
        assert grp.label(grp.mul(rho_pow(g, sigma, s), sigma_pow_apply(sigma, s, w))) == grp.label(h)

    @pytest.mark.parametrize("kind", AUTOMORPHISM_KINDS)
    def test_semidirect_power_is_rho_pow_and_sigma_power(self, kind):
        rng = random.Random(f"semidirect-{kind}")
        sigma = fresh_automorphism(kind, rng)
        grp = sigma.group
        g = grp.rand_element(rng)
        for t in range(1, 41):
            P, E = semidirect_power(g, sigma, t)
            assert grp.label(P) == grp.label(rho_pow_naive(g, sigma, t))
            assert_same_endo(grp, E, sigma.pow(t))
        with pytest.raises(SdlpError, match="t >= 1"):
            semidirect_power(g, sigma, 0)

    def test_non_unit_power_map_raises(self):
        with pytest.raises(SdlpError, match="not invertible"):
            PowerMapEndo(CyclicGroup(6), 2).pow(-1)


def _poly_power_everywhere(monkeypatch):
    """Send every positive power of a linear map through the polynomial
    form, below the crossover too."""
    monkeypatch.setattr(groups, "_POLY_POWER_MIN_BITS", 1)


def assert_same_linear_power(E, B, t):
    """E is B^t: its apply (Horner's rule while no matrix is formed), its
    matrix, its composition and its inverse."""
    V = E.group
    Bt = B**t
    for v in V.generators() + [tuple(range(1, V.d + 1))]:
        assert E.apply(v) == Bt.matvec(v)
    assert E.matrix == Bt
    assert E.compose(E).matrix == Bt * Bt
    if Bt.is_invertible():
        assert E.pow(-1).matrix == Bt.inverse()


class TestLinearMapPolynomialPowers:
    """LinearMapEndo.semidirect_power takes x^t mod the Krylov annihilator
    h of (0, 1) under [[B, g], [0, 1]], and sigma^t = r(B) for
    r = x^t mod min_poly(B) (Fiduccia); both must equal the generic loop,
    B**t and the naive product."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(
        p=st.sampled_from([2, 3, 5, 7, 65521, 1048573]),
        d=st.integers(0, 5),
        density=st.sampled_from([0.0, 0.3, 1.0]),
        zero_g=st.booleans(),
        bits=st.sampled_from([1, 4, 9, 10, 11, 20, 44]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_generic_loop_and_matrix_power(self, p, d, density, zero_g, bits, seed):
        # density 0 makes B = 0 and 0.3 often singular; bits straddle the
        # crossover
        rng = random.Random(seed)
        F, V = PrimeField(p), VectorGroup(p, d)
        B = Matrix(F, [[rng.randrange(p) if rng.random() < density else 0 for _ in range(d)] for _ in range(d)])
        sigma = LinearMapEndo(V, B)
        g = V.identity if zero_g else V.rand_element(rng)
        t = rng.randrange(1 << (bits - 1), 1 << bits)
        P, E = semidirect_power(g, sigma, t)
        P0, E0 = Endo.semidirect_power(sigma, g, t)
        assert P == P0
        assert_same_linear_power(E, B, t)
        assert E.matrix == E0.matrix
        assert sigma.pow(t).matrix == B**t
        assert sigma_pow_apply(sigma, t, g) == E0.apply(g)
        if E._power is not None:  # the polynomial form: B^t = r(B)
            assert eval_poly_at_matrix(Poly(F, list(E._poly())), B) == B**t

    @pytest.mark.parametrize("d", [0, 1, 2, 4])
    def test_matches_the_naive_product_below_and_above_the_crossover(self, d, monkeypatch):
        rng = random.Random(f"naive-{d}")
        V = VectorGroup(7, d)
        sigma = LinearMapEndo(V, Matrix(PrimeField(7), [[rng.randrange(7) for _ in range(d)] for _ in range(d)]))
        g = V.rand_element(rng)
        naive = [rho_pow_naive(g, sigma, t) for t in range(1, 65)]
        assert [semidirect_power(g, sigma, t)[0] for t in range(1, 65)] == naive
        _poly_power_everywhere(monkeypatch)
        for t in range(1, 65):
            P, E = semidirect_power(g, sigma, t)
            assert P == naive[t - 1]
            assert_same_linear_power(E, sigma.matrix, t)

    @pytest.mark.parametrize(
        "rows,g,cyclic",
        [
            ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], (0, 0, 1), True),  # nilpotent
            ([[3, 1], [0, 3]], (1, 0), False),  # g an eigenvector: a short annihilator
            ([[2, 0, 0], [0, 3, 0], [0, 0, 3]], (1, 0, 0), False),  # min_poly(B) does not divide h
            ([[2, 0, 0], [0, 3, 0], [0, 0, 3]], (1, 1, 0), False),  # it divides h, of degree below d + 1
            ([[1, 0], [0, 1]], (4, 2), False),  # B = 1: h = (x - 1)^2
            ([[0, 6], [1, 0]], (0, 0), False),  # g = 0: h = x - 1
            ([[5]], (3,), True),
        ],
    )
    def test_special_maps_and_vectors(self, rows, g, cyclic, monkeypatch):
        _poly_power_everywhere(monkeypatch)
        F = PrimeField(7)
        V = VectorGroup(7, len(rows))
        B = Matrix(F, rows)
        sigma = LinearMapEndo(V, B)
        for t in (1, 2, 3, 6, 7, 48, 2**44 + 5):
            P, E = semidirect_power(g, sigma, t)
            h = E._power[2][0]
            assert (h.degree() == V.d + 1) == cyclic
            assert P == Endo.semidirect_power(sigma, g, t)[0]
            assert_same_linear_power(E, B, t)
            assert eval_poly_at_matrix(Poly(F, list(E._poly())), B) == B**t

    def test_sigma_power_is_formed_only_when_read(self, monkeypatch):
        rng = random.Random("lazy")
        F, V = PrimeField(65521), VectorGroup(65521, 4)
        sigma = LinearMapEndo(V, rand_invertible(F, 4, rng))
        g = V.rand_element(rng)
        t = 2**44 + 12345
        products = [0]
        matmul = Matrix.__mul__

        def counted(x, y):
            products[0] += 1
            return matmul(x, y)

        def forbidden(*args):
            raise AssertionError("the polynomial form ran the generic loop")

        monkeypatch.setattr(Matrix, "__mul__", counted)
        monkeypatch.setattr(LinearMapEndo, "compose", forbidden)
        P, E = semidirect_power(g, sigma, t)
        v = E.apply(g)
        assert E._matrix is None and products[0] == 0
        assert sigma.pow(t).apply(g) == v
        assert products[0] == 0
        monkeypatch.undo()
        assert v == (sigma.matrix**t).matvec(g) and E.matrix == sigma.matrix**t

    def test_crossover_keeps_short_powers_on_the_generic_loop(self):
        rng = random.Random("crossover")
        V = VectorGroup(5, 3)
        sigma = LinearMapEndo(V, rand_invertible(F5, 3, rng))
        g = V.rand_element(rng)
        long = 1 << (groups._POLY_POWER_MIN_BITS - 1)  # the shortest polynomial-form t
        assert semidirect_power(g, sigma, long - 1)[1]._power is None
        assert sigma.pow(long - 1)._power is None
        assert semidirect_power(g, sigma, long)[1]._power is not None
        assert sigma.pow(long)._power is not None
        assert sigma.pow(-long)._power is None


class TestConjugationPowerHook:
    """ConjugationEndo.semidirect_power is closed in the coefficients on a
    Heisenberg base and ((g a^-1)^t a^t, conj_{a^t}) on a matrix group,
    and ProductEndo's is componentwise; all must equal the generic loop.
    TestNegativePowers checks them against rho_pow_naive for t <= 40."""

    @pytest.mark.parametrize("kind", CONJUGATION_KINDS)
    def test_matches_generic_loop_at_large_t(self, kind):
        rng = random.Random(f"hook-large-{kind}")
        sigma = fresh_automorphism(kind, rng)
        grp = sigma.group
        g = grp.rand_element(rng)
        for t in (2**40 + 12345, 2**40 - 1):
            P, E = semidirect_power(g, sigma, t)
            P0, E0 = Endo.semidirect_power(sigma, g, t)
            assert grp.label(P) == grp.label(P0)
            assert_same_endo(grp, E, E0)

    @pytest.mark.parametrize("kind", CONJUGATION_KINDS)
    def test_no_apply_or_compose_and_log_many_products(self, kind, monkeypatch):
        rng = random.Random(f"hook-count-{kind}")
        sigma = fresh_automorphism(kind, rng)
        g = sigma.group.rand_element(rng)
        conj = next(c for c in getattr(sigma, "components", [sigma]) if isinstance(c, ConjugationEndo))
        d = conj.a.nrows
        if kind in ("matrix", "borel"):
            # the Borel kind conjugates by an upper-triangular a; the seeded
            # matrix kind's a and g a^-1 are not
            triangular = kind == "borel"
            assert conj.a.is_upper_triangular() == (g * conj.a_inv).is_upper_triangular() == triangular

        def forbidden(*args):
            raise AssertionError("the closed form called apply or compose")

        products = [0]
        matmul = Matrix.__mul__

        def counted(x, y):
            products[0] += 1
            return matmul(x, y)

        monkeypatch.setattr(ConjugationEndo, "apply", forbidden)
        monkeypatch.setattr(ConjugationEndo, "compose", forbidden)
        monkeypatch.setattr(Matrix, "__mul__", counted)
        assert semidirect_power(g, sigma, 1)[0] == g and products[0] == 0
        t = 2**40 + 12345
        semidirect_power(g, sigma, t)
        conjugation_products = products[0]
        if kind == "conjugation-product":  # take out the linear factor's own products
            products[0] = 0
            sigma.components[1].semidirect_power(g[1], t)
            conjugation_products -= products[0]
        if kind not in ("matrix", "borel"):  # a Heisenberg base: the coefficients need no matrix
            assert conjugation_products == 0
            return
        # g a^-1 and the product of the two powers take one product each;
        # a^t and (g a^-1)^t run at the reduced exponent m and take d - 2
        # each when triangular (Horner's rule on x^m mod the characteristic
        # polynomial), else bitlen(m) + popcount(m) - 2 each
        # (square-and-multiply)
        m = reduced_exponent(t, conj.a.field.size, d)
        if triangular and m.bit_length() >= _TRIANGULAR_POWER_MIN_BITS:
            assert conjugation_products == 2 * (d - 2) + 2
        else:
            assert conjugation_products == 2 * (m.bit_length() + m.bit_count() - 2) + 2
        if not triangular:  # F_9 at d = 2: E(9, 2) = 240, so m < 2^8
            assert m < 2**8 and conjugation_products < 2 * (t.bit_length() + t.bit_count() - 2) + 2

    def test_pair_image_asks_its_inner_conjugation(self, monkeypatch):
        rng = random.Random("hook-pair")
        sigma = fresh_automorphism("pair", rng)
        grp = sigma.group
        assert isinstance(grp.inner, HeisenbergGroup) and grp.inner.p == 5
        g = grp.rand_element(rng)
        ts = range(1, 65)
        loops = [Endo.semidirect_power(sigma, g, t) for t in ts]
        naive = [rho_pow_naive(g, sigma, t) for t in ts]

        def forbidden(*args):
            raise AssertionError("the pair hook ran the generic loop")

        monkeypatch.setattr(InducedPairEndo, "apply", forbidden)
        monkeypatch.setattr(InducedPairEndo, "compose", forbidden)
        for t, (P0, E0), Q in zip(ts, loops, naive):
            P, E = semidirect_power(g, sigma, t)
            assert P[0] == P0[0] == Q[0] and grp.label(P) == grp.label(Q)
            assert isinstance(E, InducedPairEndo)
            assert (E.inner.a, E.inner.a_inv) == (E0.inner.a, E0.inner.a_inv)


class TestTableEndo:
    def test_power_and_compose(self):
        C = CyclicGroup(8)
        t = table_endo(C, lambda x: 3 * x % 8)
        assert t.is_automorphism()
        assert t.pow(2).apply(1) == 9 % 8
        assert t.compose(t).apply(1) == t.pow(2).apply(1)

    def test_size_cap(self):
        with pytest.raises(SdlpError, match="too large"):
            table_endo(CyclicGroup(1 << 13), lambda x: x)

    def test_constructor_rejects_a_non_morphism(self):
        with pytest.raises(SdlpError, match="not a homomorphism"):
            table_endo(CyclicGroup(6), lambda x: (x + 1) % 6)
        # swaps 1 and 2 and fixes the rest: sigma(1 + 1) = 1, but sigma(1) + sigma(1) = 4
        with pytest.raises(SdlpError, match="not a homomorphism"):
            TableEndo(CyclicGroup(6), dict(enumerate([0, 2, 1, 3, 4, 5])))
        # x -> 3x on Z_8 is one
        assert TableEndo(CyclicGroup(8), dict(enumerate([0, 3, 6, 1, 4, 7, 2, 5]))).is_automorphism()

    def test_negative_power_inverts_the_table(self):
        t = table_endo(CyclicGroup(6), lambda x: 5 * x % 6)
        assert [t.pow(-1).apply(x) for x in range(6)] == [0, 5, 4, 3, 2, 1]
        assert t.pow(-3).apply(1) == 5

    def test_negative_power_of_non_bijective_table_raises(self):
        t = table_endo(CyclicGroup(6), lambda x: 2 * x % 6)
        with pytest.raises(SdlpError, match="not invertible"):
            t.pow(-1)


class TestInducedAutomorphism:
    def test_identity_hom_gives_pair_image(self):
        H = HeisenbergGroup(7)
        sigma = ConjugationEndo(H, Matrix(F7, [[2, 1, 3], [0, 3, 5], [0, 0, 1]]))
        img, ind = induced_automorphism(Hom(H, H, lambda x: x), sigma)
        assert isinstance(img, PairImageGroup)
        rng = random.Random(8)
        for _ in range(30):
            x = H.rand_element(rng)
            assert img.label(ind.apply(img.embed(x))) == img.label(img.embed(sigma.apply(x)))

    def test_heisenberg_superdiagonal_gives_linear_map(self):
        H = HeisenbergGroup(7)
        sigma = ConjugationEndo(H, Matrix(F7, [[2, 1, 3], [0, 3, 5], [0, 0, 1]]))
        V = VectorGroup(7, 2)
        psi = Hom(H, V, lambda t: (t[0], t[1]), kernel_generators=[(0, 0, 1)])
        img, ind = induced_automorphism(psi, sigma)
        assert img is V and isinstance(ind, LinearMapEndo)
        rng = random.Random(9)
        for _ in range(100):
            x, y = H.rand_element(rng), H.rand_element(rng)
            assert V.label(psi(H.mul(x, y))) == V.label(V.mul(psi(x), psi(y)))
            assert V.label(ind.apply(psi(x))) == V.label(psi(sigma.apply(x)))

    def test_constant_hom_gives_trivial_image(self):
        H = HeisenbergGroup(5)
        sigma = ConjugationEndo(H, Matrix(PrimeField(5), [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
        V0 = VectorGroup(5, 0)
        psi = Hom(H, V0, lambda t: (), kernel_generators=list(H.generators()))
        img, ind = induced_automorphism(psi, sigma)
        assert img.label(ind.apply(())) == img.label(())

    def test_non_invariant_kernel_rejected(self):
        H = HeisenbergGroup(5)
        # swap-style table automorphism does not fix the center coordinate map
        V = VectorGroup(5, 1)
        sigma = ConjugationEndo(H, Matrix(PrimeField(5), [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
        psi = Hom(H, V, lambda t: (t[0],), kernel_generators=[(1, 0, 0)])
        with pytest.raises(Exception):
            induced_automorphism(psi, sigma)


class TestSolutionSet:
    def test_contains_and_affine(self):
        s = SolutionSet.progression(2, 3)
        assert s.contains(2) and s.contains(8) and not s.contains(4)
        mapped = s.map_affine(1, 2)
        assert mapped == SolutionSet.progression(5, 6)
        assert SolutionSet.singleton(4).map_affine(1, 2) == SolutionSet.singleton(9)
        assert SolutionSet.empty().map_affine(1, 2).is_empty()

    def test_json(self):
        assert SolutionSet.empty().to_json() == {"kind": "empty"}
        assert SolutionSet.progression(1, 2).to_json() == {"kind": "progression", "t0": 1, "period": 2}


class TestConjugationCarriesInverse:
    """compose and pow hand a^-1 on instead of re-deriving it; the carried
    inverse must be exact and the map the same as a validated one."""

    @staticmethod
    def _platform(kind, rng):
        """(group, two conjugations, sample elements)."""
        if kind == "heisenberg":
            group = HeisenbergGroup(7)
            mats = [rand_upper_triangular(group.field, 3, rng) for _ in range(2)]
            xs = [group.rand_element(rng) for _ in range(4)]
        else:
            F9 = field_of_size(9)
            group = MatrixGroup(F9, 2, [])
            mats = [rand_invertible(F9, 2, rng) for _ in range(2)]
            xs = [rand_invertible(F9, 2, rng) for _ in range(4)]
        return group, [ConjugationEndo(group, m) for m in mats], xs

    @staticmethod
    def _check(group, endo, xs):
        a = endo.a
        assert (a * endo.a_inv).is_identity() and (endo.a_inv * a).is_identity()
        fresh = ConjugationEndo(group, a)
        for x in xs:
            assert group.label(endo.apply(x)) == group.label(fresh.apply(x))

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(kind=st.sampled_from(["heisenberg", "matrix"]), seed=st.integers(0, 2**32 - 1))
    def test_compose(self, kind, seed):
        group, (s, t), xs = self._platform(kind, random.Random(seed))
        both = s.compose(t)
        self._check(group, both, xs)
        for x in xs:
            assert group.label(both.apply(x)) == group.label(s.apply(t.apply(x)))

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        kind=st.sampled_from(["heisenberg", "matrix"]),
        k=st.sampled_from([-3, 0, 1, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pow(self, kind, k, seed):
        group, (s, _), xs = self._platform(kind, random.Random(seed))
        sk = s.pow(k)
        assert sk.a == s.a**k
        self._check(group, sk, xs)
        step = s if k >= 0 else ConjugationEndo(group, s.a_inv)
        for x in xs:
            y = x
            for _ in range(abs(k)):
                y = step.apply(y)
            assert group.label(sk.apply(x)) == group.label(y)

    @pytest.mark.parametrize("kind", ["heisenberg", "matrix"])
    def test_powers_invert_on_first_use_only(self, kind, monkeypatch):
        group, (s, _), xs = self._platform(kind, random.Random(f"lazy-{kind}"))
        inverses = [0]
        inverse = Matrix.inverse

        def counted(M):
            inverses[0] += 1
            return inverse(M)

        monkeypatch.setattr(Matrix, "inverse", counted)
        t = 2**20 + 3
        _, E = semidirect_power(xs[0], s, t)
        rho_pow(xs[0], s, t)
        sk = s.pow(7)
        assert inverses[0] == 0  # rho_pow and the answer check drop sigma^t unread
        assert E.a == s.a**t and sk.a == s.a**7
        for endo in (E, sk, E, sk):
            assert (endo.a * endo.a_inv).is_identity()
        assert inverses[0] == 2  # one each, on the first read
        self._check(group, E, xs)
        self._check(group, sk, xs)

    def test_a_singular_matrix_is_rejected_by_name(self):
        group = MatrixGroup(F5, 2, [])
        singular = (
            Matrix(F5, [[1, 2], [2, 4]]),  # dependent rows
            Matrix(F5, [[1, 1], [0, 0]]),  # upper triangular, zero on the diagonal
            Matrix(F5, [[1, 0, 0], [0, 1, 0]]),  # not square
        )
        for a in singular:
            with pytest.raises(SdlpError, match="^conjugating matrix must be invertible$"):
                ConjugationEndo(group, a)

    def test_construction_runs_one_elimination(self, monkeypatch):
        # the inverse is the validation: a general matrix is eliminated
        # once, an upper-triangular one (as every Heisenberg conjugation
        # is) inverted by back substitution, with no elimination
        eliminations = [0]
        init = Echelon.__init__

        def counted(self, *args):
            eliminations[0] += 1
            init(self, *args)

        monkeypatch.setattr(Echelon, "__init__", counted)
        E = ConjugationEndo(MatrixGroup(F5, 2, []), Matrix(F5, [[1, 2], [3, 4]]))
        assert eliminations[0] == 1 and (E.a * E.a_inv).is_identity()
        E = ConjugationEndo(HeisenbergGroup(7), Matrix(F7, [[2, 1, 0], [0, 3, 1], [0, 0, 1]]))
        assert eliminations[0] == 1 and (E.a * E.a_inv).is_identity()
