import copy
import functools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdlp.linalg as linalg
from conftest import (
    endo_order_by_walk,
    rand_invertible,
    rand_upper_triangular,
    random_cyclic_instance,
    random_vector_instance,
    schoolbook_poly_divmod,
    schoolbook_poly_mul,
    schoolbook_pow_mod,
    sigma_closed_matrix_group,
    table_endo,
)
from sdlp.config import SolverConfig
from sdlp.errors import NotApplicableError, SdlpError
from sdlp.ff import ExtField, Poly, PrimeField, Slots, _PackedRing, field_of_size
from sdlp.groups import (
    ConjugationEndo,
    CyclicGroup,
    Endo,
    GroupHandle,
    HeisenbergGroup,
    Hom,
    InducedPairEndo,
    LinearMapEndo,
    MatrixGroup,
    PairImageGroup,
    PowerMapEndo,
    ProductEndo,
    ProductGroup,
    VectorGroup,
    rho_pow,
)
from sdlp.linalg import Matrix, krylov
from sdlp.oracles import (
    _GIANT_BLOCK,
    _POWER_BASIS_MIN_STEPS,
    OrbitShape,
    PolyUnitGroup,
    UnitGroup,
    _bsgs,
    _rows_product,
    dlog,
    dlog_many,
    element_order,
    endo_order,
    endo_order_multiple,
    factor_integer,
    orbit_index_period,
    orbit_walk,
)

F5 = PrimeField(5)


class TestFactorInteger:
    def test_one(self):
        assert factor_integer(1) == []

    def test_24(self):
        assert factor_integer(24) == [(2, 3), (3, 1)]

    def test_fermat_prime(self):
        assert factor_integer(65537) == [(65537, 1)]

    def test_random_reassembly(self):
        rng = random.Random(0)
        for _ in range(60):
            n = rng.randrange(1, 1 << 48)
            fact = factor_integer(n)
            prod = 1
            for p, e in fact:
                from sdlp.integers import is_prime

                assert is_prime(p)
                prod *= p ** e
            assert prod == n


class TestFactorPrimePowerMinusOne:
    def test_second_call_factors_nothing(self, monkeypatch):
        from sdlp import integers

        monkeypatch.setattr(integers, "_PRIME_POWER_MINUS_ONE", {})
        first = integers.factor_prime_power_minus_one(65521, 3)
        assert math.prod(q**e for q, e in first.items()) == 65521**3 - 1
        first[2] = 99  # each call returns its own dict

        def refuse(*args, **kwargs):
            raise AssertionError("factored again")

        monkeypatch.setattr(integers, "factorize", refuse)
        again = integers.factor_prime_power_minus_one(65521, 3)
        assert math.prod(q**e for q, e in again.items()) == 65521**3 - 1
        with pytest.raises(AssertionError, match="factored again"):
            integers.factor_prime_power_minus_one(65521, 4)


class TestNativeUnitPowers:
    """`UnitGroup.pow` over F_p is the builtin three-argument pow for n >= 0;
    it must agree with the generic square-and-multiply, zero included."""

    @pytest.mark.parametrize("p", [2, 65521, (1 << 61) - 1])
    def test_matches_the_generic_power(self, p):
        U = UnitGroup(PrimeField(p))
        rng = random.Random(p)
        exponents = [0, 1, p - 2, p - 1, p] + [rng.getrandbits(60) | 1 << 59 for _ in range(3)]
        for x in {0, 1, p - 1, rng.randrange(p)}:
            for n in exponents:
                assert U.pow(x, n) == GroupHandle.pow(U, x, n), (x, n)

    def test_negative_power_of_zero_raises_as_before(self):
        U = UnitGroup(PrimeField(65521))
        with pytest.raises(ZeroDivisionError):
            GroupHandle.pow(U, 0, -1)
        with pytest.raises(ZeroDivisionError):
            U.pow(0, -1)
        assert U.pow(3, -2) == GroupHandle.pow(U, 3, -2) == U.inv(9)


class TestDlog:
    def test_identity_target(self):
        U = UnitGroup(PrimeField(101))
        assert dlog(U, 2, 1, factored_order=element_order(U, 2)[1]) == 0

    def test_forward_constructed(self):
        U = UnitGroup(PrimeField(101))
        assert dlog(U, 2, 32, factored_order=element_order(U, 2)[1]) == 5

    def test_extension_field_subgroup(self):
        # <x> in F_25 with modulus x^2+x+1 has order 3; exhaustive oracle
        F25 = ExtField(F5, Poly(F5, [1, 1, 1]))
        U = UnitGroup(F25)
        x = F25.gen()
        powers = {}
        cur = F25.one
        for t in range(3):
            powers[U.label(cur)] = t
            cur = F25.mul(cur, x)
        assert U.label(cur) == U.label(F25.one)  # x^3 = 1
        fact = element_order(U, x)[1]
        assert fact == {3: 1}
        for target, want in powers.items():
            got = dlog(U, x, F25.from_int(target), factored_order=fact)
            assert got == want
        # outside <x>: no solution
        outside = next(v for v in F25.elements() if any(v) and U.label(v) not in powers)
        assert dlog(U, x, outside, factored_order=fact) is None

    def test_self_verification_property(self):
        rng = random.Random(1)
        U = UnitGroup(PrimeField(65521))
        for _ in range(30):
            base = U.fld.rand_nonzero(rng)
            target = U.fld.rand_nonzero(rng)
            t = dlog(U, base, target, factored_order=element_order(U, base)[1])
            if t is not None:
                assert U.label(U.pow(base, t)) == U.label(target)

    @pytest.mark.parametrize("oracle", ["bsgs", "rho", "brute"])
    def test_oracles_agree(self, oracle):
        rng = random.Random(2)
        F = PrimeField(30011)
        U = UnitGroup(F)
        cfg = SolverConfig(oracle=oracle)
        for _ in range(8):
            base = U.fld.rand_nonzero(rng)
            t_star = rng.randrange(30011)
            target = pow(base, t_star, 30011)
            t = dlog(U, base, target, factored_order=element_order(U, base)[1], config=cfg)
            assert t is not None and pow(base, t, 30011) == target

    @pytest.mark.parametrize("oracle", ["bsgs", "rho", "brute"])
    def test_oracles_agree_with_factored_order(self, oracle):
        rng = random.Random(3)
        F = PrimeField(30011)
        U = UnitGroup(F)
        cfg = SolverConfig(oracle=oracle)
        for _ in range(6):
            base = U.fld.rand_nonzero(rng)
            t_star = rng.randrange(30011)
            target = pow(base, t_star, 30011)
            t = dlog(U, base, target, factored_order=element_order(U, base)[1], config=cfg)
            assert t is not None and pow(base, t, 30011) == target
            # smallest representative: nothing smaller solves it
            n, _ = element_order(U, base)
            assert t < n

    @pytest.mark.parametrize("oracle", ["bsgs", "rho"])
    def test_proper_multiple_of_order_raises(self, oracle):
        # 4 has order 50 in F_101^*; 100 is a multiple, not the order
        U = UnitGroup(PrimeField(101))
        assert element_order(U, 4) == (50, {2: 1, 5: 2})
        with pytest.raises(SdlpError, match="exact order"):
            dlog(U, 4, 16, factored_order=U.exponent_multiple(), config=SolverConfig(oracle=oracle))

    def test_brute_declines_above_the_walk_cap(self):
        # 3 has order 100 in F_101^*: a cap below it declines before walking,
        # and -1, of order 2, still answers
        U = UnitGroup(PrimeField(101))
        cfg = SolverConfig(oracle="brute", max_walk=64)
        with pytest.raises(NotApplicableError, match="dlog walk cap exceeded"):
            dlog(U, 3, 27, factored_order=element_order(U, 3)[1], config=cfg)
        assert dlog(U, 100, 100, factored_order=element_order(U, 100)[1], config=cfg) == 1

    @pytest.mark.parametrize(
        "p, modulus, oracles",
        [
            # ord(x) = 8 * 11 * 398137391: BSGS walks ~20k steps per side
            (257, [4, 1, 0, 0, 0, 1], ["bsgs"]),
            # ord(x) = 16 * 37 * 116085511: ~11k steps; rho stays under 1 s
            (65537, [4, 1, 0, 1], ["bsgs", "rho"]),
        ],
        ids=["257-5", "65537-3"],
    )
    def test_elem_abelian_scale(self, p, modulus, oracles):
        F = ExtField(PrimeField(p), Poly(PrimeField(p), modulus))
        U = UnitGroup(F)
        x = F.gen()
        n, fact = element_order(U, x)
        assert max(fact) > 10**8
        rng = random.Random(p)
        for oracle in oracles:
            t_star = rng.randrange(n)
            assert dlog(U, x, U.pow(x, t_star), factored_order=fact, config=SolverConfig(oracle=oracle)) == t_star

    @pytest.mark.parametrize("oracle", ["bsgs", "rho", "brute"])
    def test_many_targets_match_the_powers(self, oracle):
        # 30010 = 2 * 5 * 3001: rho takes the prime 3001 under "rho"
        F = PrimeField(30011)
        U = UnitGroup(F)
        rng = random.Random(4)
        cfg = SolverConfig(oracle=oracle)
        for base in (F.from_int(7), F.from_int(7**10 % 30011)):
            order = element_order(U, base)
            logs, cur = {}, F.one
            for t in range(order[0]):
                logs[cur] = t
                cur = U.mul(cur, base)
            targets = [F.one] + [F.rand_nonzero(rng) for _ in range(12)] + [U.pow(base, rng.randrange(order[0])) for _ in range(12)]
            want = [logs.get(h) for h in targets]
            assert dlog_many(U, base, targets, order, cfg) == want
            assert dlog_many(U, base, targets, order[1], cfg) == want

    def test_pohlig_hellman_inverts_once_per_digit_update(self):
        # ord(2) = 100 = 2^2 * 5^2 in F_101^*: each prime's one BSGS table
        # inverts once for its giant step, and the digit updates of each
        # prime share one inverse of its projection y (order p^2)
        class Counting(UnitGroup):
            inversions = 0

            def inv(self, x):
                self.inversions += 1
                return super().inv(x)

        U = Counting(PrimeField(101))
        assert dlog(U, 2, 3, factored_order={2: 2, 5: 2}) == 69
        assert U.inversions == 2 + 2

    def test_memory_cap(self):
        # 2097779 = 2 * 1048889 + 1: 3 has prime order 1048889, whose BSGS
        # table needs ceil(sqrt(1048889)) = 1025 > bsgs_mem entries
        U = UnitGroup(PrimeField(2097779))
        fact = element_order(U, 3)[1]
        assert fact == {1048889: 1}
        with pytest.raises(NotApplicableError, match="too large"):
            dlog(U, 3, 5, factored_order=fact, config=SolverConfig(bsgs_mem=1 << 10))


def _element_of_order(F, n, rng):
    """An element of exact order n in F^*. When n divides p^k - 1 it lies in
    F_{p^k}, which holds the one subgroup of order n."""
    U = UnitGroup(F)
    while True:
        z = U.pow(F.rand_nonzero(rng), (F.size - 1) // n)
        if element_order(U, z)[0] == n:
            return z


def _power_basis(F, c):
    """(minpoly(c), echelon): `krylov` on a -> a c from 1, the power basis
    1, c, ..., c^(k-1) of F_p(c) that `_window_bsgs` walks in."""
    return krylov(F.base, lambda a: F.mul(a, c), F.one)


# (p, e, l): l is a prime above 2^10 with ord_l(p) = e, so an element of
# order 2l is dense in F_{p^e} and its l-part takes a BSGS table of
# ceil(sqrt(l)) > _POWER_BASIS_MIN_STEPS baby steps
DENSE_BASES = [(2137, 2, 1069), (41, 3, 1723), (113, 4, 1277), (163, 5, 1301), (127, 6, 1231)]
# (p, e, k, l): a base of order l lies in the subfield F_{p^k} of F_{p^e}
SUBFIELD_BASES = [(2063, 3, 1, 1031), (2137, 4, 2, 1069), (41, 6, 3, 1723)]


class TestPowerBasisWalk:
    """BSGS over F_{p^e}^* walks in the base's own power basis once the
    table outgrows the change of basis, and returns the same logs."""

    @pytest.mark.parametrize("p, e, l", DENSE_BASES, ids=[f"{p}^{e}" for p, e, _ in DENSE_BASES])
    @pytest.mark.parametrize("oracle", ["bsgs", "rho", "brute"])
    def test_logs_match_a_table_of_powers(self, p, e, l, oracle):
        F = field_of_size(p**e)
        U = UnitGroup(F)
        rng = random.Random(f"power-basis-{p}-{e}")
        base = _element_of_order(F, 2 * l, rng)
        assert _power_basis(F, base)[0].degree() == e
        powers, cur = {}, F.one
        for t in range(2 * l):
            powers[cur] = t
            cur = U.mul(cur, base)
        targets = [F.one] + [U.pow(base, rng.randrange(2 * l)) for _ in range(4)] + [F.rand_nonzero(rng) for _ in range(2)]
        order = element_order(U, base)
        assert order[1] == {2: 1, l: 1}
        got = dlog_many(U, base, targets, order, SolverConfig(oracle=oracle))
        assert got == [powers.get(h) for h in targets]
        assert got[-2:] == [None, None]  # a random element is almost never a power

    @pytest.mark.parametrize("p, e, k, l", SUBFIELD_BASES, ids=[f"{p}^{k}-in-{p}^{e}" for p, e, k, _ in SUBFIELD_BASES])
    @pytest.mark.parametrize("oracle", ["bsgs", "rho", "brute"])
    def test_base_in_a_subfield(self, p, e, k, l, oracle):
        F = field_of_size(p**e)
        U = UnitGroup(F)
        rng = random.Random(f"subfield-{p}-{e}-{k}")
        base = _element_of_order(F, l, rng)
        assert _power_basis(F, base)[0].degree() == k
        order = element_order(U, base)
        inside = [U.pow(base, rng.randrange(l)) for _ in range(3)]
        outside = [F.rand_nonzero(rng) for _ in range(2)]
        assert all(_power_basis(F, base)[1].coords(h) is None for h in outside)
        got = dlog_many(U, base, inside + outside, order, SolverConfig(oracle=oracle))
        assert [U.pow(base, t) for t in got[:3]] == inside and all(t < l for t in got[:3])
        assert got[3:] == [None, None]

    def test_target_outside_the_subfield_takes_no_giant_step(self, monkeypatch):
        p, e, k, l = SUBFIELD_BASES[2]
        F = field_of_size(p**e)
        base = _element_of_order(F, l, random.Random(0))
        find = _bsgs(UnitGroup(F), base, l, SolverConfig())
        blocks = []
        monkeypatch.setattr(Slots, "unpack", lambda self, c: blocks.append(c))
        assert find(F.gen()) is None and blocks == []

    def test_windows_are_injective_on_the_subfield(self):
        # every power of a generator of F_{7^4}^* gets its own log, so no
        # two elements share a window
        F = field_of_size(7**4)
        U = UnitGroup(F)
        n = 7**4 - 1
        c = _element_of_order(F, n, random.Random(4))
        assert math.isqrt(n - 1) + 1 > _POWER_BASIS_MIN_STEPS
        find = _bsgs(U, c, n, SolverConfig())
        powers, cur = [], F.one
        for _ in range(n):
            powers.append(cur)
            cur = F.mul(cur, c)
        assert [find(a) for a in powers] == list(range(n))

    @staticmethod
    def _count_dense_products(monkeypatch):
        """Counts ExtField products: every dot (mul goes through it) and
        every application of a mul_by kernel."""
        count = [0]
        dot, mul_by = ExtField.dot, ExtField.mul_by

        def counted_dot(self, a, b):
            count[0] += 1
            return dot(self, a, b)

        def counted_mul_by(self, c):
            kernel = mul_by(self, c)

            def counted(a):
                count[0] += 1
                return kernel(a)

            return counted

        monkeypatch.setattr(ExtField, "dot", counted_dot)
        monkeypatch.setattr(ExtField, "mul_by", counted_mul_by)
        return count

    @pytest.mark.parametrize("p, e, l", DENSE_BASES, ids=[f"{p}^{e}" for p, e, _ in DENSE_BASES])
    def test_long_table_makes_order_e_dense_products(self, p, e, l, monkeypatch):
        F = field_of_size(p**e)
        U = UnitGroup(F)
        base = _element_of_order(F, l, random.Random(1))
        target = U.pow(base, l - 1)
        m = math.isqrt(l - 1) + 1
        assert m > _POWER_BASIS_MIN_STEPS
        count = self._count_dense_products(monkeypatch)
        assert _bsgs(U, base, l, SolverConfig())(target) == l - 1
        # the powers 1 c, c^2, ..., c^e of the Krylov loop; the giant steps
        # run in the power basis
        assert count[0] == e < m

    @pytest.mark.parametrize("p, e, l", DENSE_BASES[:3], ids=[f"{p}^{e}" for p, e, _ in DENSE_BASES[:3]])
    def test_short_table_takes_the_field_basis(self, p, e, l, monkeypatch):
        F = field_of_size(p**e)
        U = UnitGroup(F)
        base = _element_of_order(F, l, random.Random(2))
        bound = _POWER_BASIS_MIN_STEPS**2  # m = _POWER_BASIS_MIN_STEPS
        target = U.pow(base, bound - 1)
        count = self._count_dense_products(monkeypatch)

        def forbidden(*args):
            raise AssertionError("a short table changed basis")

        monkeypatch.setattr("sdlp.oracles.krylov", forbidden)
        assert _bsgs(U, base, bound, SolverConfig())(target) == bound - 1
        # every baby step and every giant step is a dense product
        assert count[0] >= 2 * _POWER_BASIS_MIN_STEPS

    def test_memory_cap_comes_before_the_change_of_basis(self, monkeypatch):
        p, e, l = DENSE_BASES[3]
        F = field_of_size(p**e)
        base = _element_of_order(F, l, random.Random(3))

        def forbidden(*args):
            raise AssertionError("set-up ran before the memory check")

        monkeypatch.setattr("sdlp.oracles.krylov", forbidden)
        monkeypatch.setattr(ExtField, "mul_by", forbidden)
        with pytest.raises(NotApplicableError, match="too large"):
            _bsgs(UnitGroup(F), base, l, SolverConfig(bsgs_mem=_POWER_BASIS_MIN_STEPS))


def _bsgs_reference(t, n, m):
    """What BSGS with m baby steps answers for c^t, c of order n: the first
    i <= m for which c^(t - i m) is some c^j with j < m, and then the
    smallest such j; None when no i hits."""
    for i in range(m + 1):
        j = (t - i * m) % n
        if j < m:
            return i * m + j
    return None


# F_{p^2} for a p above 2^32 with p = 3 mod 4, so x^2 + 1 is its modulus; a
# window dot product k (p - 1)^2 overflows a 64-bit slot even at k = 1.
# p - 1 has the prime factor 74197 and p + 1 the prime factor 46567.
WIDE_P = 4294967543


def _window_cases():
    """name -> (field, base, order of base, bounds): dense bases, subfield
    bases with k = 1, 2, 3, a base of small order whose table repeats keys,
    and bases past the 64-bit slot bound. A bound below the order lets the
    last giant step i = m hit."""
    rng = random.Random("window-cases")
    F41 = field_of_size(41**3)
    wide = field_of_size(WIDE_P**2)
    cases = {
        "41^3-primitive": (F41, 41**3 - 1, [41**3 - 1, 40000]),
        "41^3-small-order": (F41, 1723, [1 << 22]),
        "2063^1-in-2063^3": (field_of_size(2063**3), 1031, [1031]),
        "2137^2-in-2137^4": (field_of_size(2137**4), 1069, [1069, 1100]),
        "41^3-in-41^6": (field_of_size(41**6), 1723, [1723]),
        "wide-k1": (wide, 74197, [74197, 50000]),
        "wide-k2": (wide, 46567, [46567]),
    }
    return {name: (F, _element_of_order(F, n, rng), n, bounds) for name, (F, n, bounds) in cases.items()}


WINDOW_CASES = _window_cases()


@functools.cache
def _finder(name, bound):
    """One BSGS table per case and bound, shared by the drawn examples."""
    F, base, _, _ = WINDOW_CASES[name]
    return _bsgs(UnitGroup(F), base, bound, SolverConfig())


class TestWindowWalk:
    """The window walk against the reference answer: hits at i = 0, at the
    giant-block edges G and G + 1 and at i = m, and targets that are not
    powers of the base."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(data=st.data())
    def test_logs_match_the_reference(self, data):
        name = data.draw(st.sampled_from(sorted(WINDOW_CASES)))
        F, base, n, bounds = WINDOW_CASES[name]
        bound = data.draw(st.sampled_from(bounds))
        m = math.isqrt(bound - 1) + 1
        assert m > _POWER_BASIS_MIN_STEPS
        G = min(_GIANT_BLOCK, math.isqrt(m))  # as `_window_bsgs` blocks its giant steps
        i = data.draw(st.sampled_from(sorted({0, 1, G - 1, G, G + 1, 2 * G, 2 * G + 1, m - 1, m})) | st.integers(0, m))
        j = data.draw(st.sampled_from([0, 1, m - 1]) | st.integers(0, m - 1))
        t = (i * m + j) % n
        U = UnitGroup(F)
        find = _finder(name, bound)
        assert find(U.pow(base, t)) == _bsgs_reference(t, n, m)
        other = F.from_int(data.draw(st.integers(1, F.size - 1)))
        if U.pow(other, n) != F.one:  # outside the one subgroup of order n
            assert find(other) is None

    def test_hits_at_the_block_edges_and_at_the_last_giant_step(self):
        F, base, n, _ = WINDOW_CASES["41^3-primitive"]
        U = UnitGroup(F)
        bound = 40000
        m = math.isqrt(bound - 1) + 1
        G = min(_GIANT_BLOCK, math.isqrt(m))  # as `_window_bsgs` blocks its giant steps
        assert G > 2
        find = _finder("41^3-primitive", bound)
        for i in (0, G, G + 1, m):
            for j in (0, m - 1):
                assert find(U.pow(base, i * m + j)) == i * m + j

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        p=st.sampled_from([2, 257, 65537, 2**31 - 1, WIDE_P, 2**61 - 1]),
        r=st.integers(1, 70),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_product_matches_plain_dot_products(self, p, r, k, seed):
        rng = random.Random(seed)
        top = rng.choice([p - 1, rng.randrange(p)])
        rows = [[rng.choice([0, top, rng.randrange(p)]) for _ in range(k)] for _ in range(r)]
        v = [rng.choice([0, p - 1, rng.randrange(p)]) for _ in range(k)]
        assert list(_rows_product(p, rows)(v)) == [sum(a * b for a, b in zip(row, v)) % p for row in rows]


# (65537, 3) takes its modulus directly: field_of_size would scan 65541
# lexicographically smaller candidates first
STEPPER_FIELDS = {
    "F2": field_of_size(2),
    "F65521": field_of_size(65521),
    "F9": field_of_size(9),
    "F3^10": field_of_size(3**10),
    "F65537^3": ExtField(PrimeField(65537), Poly(PrimeField(65537), [4, 1, 0, 1])),
    "F257^5": field_of_size(257**5),
    "F2^16": field_of_size(2**16),
}


class TestStepper:
    @pytest.mark.parametrize("name", list(STEPPER_FIELDS))
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(data=st.data())
    def test_unit_group_matches_mul(self, name, data):
        F = STEPPER_FIELDS[name]
        U = UnitGroup(F)
        element = st.integers(1, F.size - 1).map(F.from_int)
        c, x = data.draw(element), data.draw(element)
        assert U.stepper(c)(x) == U.mul(x, c)
        # c = 1, c = x and x = 1 on every draw
        for fixed in [F.one] + ([F.gen()] if F.degree > 1 else []):
            assert U.stepper(fixed)(x) == U.mul(x, fixed)
        assert U.stepper(c)(F.one) == c

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(a=st.lists(st.integers(0, 4), min_size=5, max_size=5), b=st.lists(st.integers(0, 4), min_size=5, max_size=5))
    def test_default_stepper_on_poly_units(self, a, b):
        R = PolyUnitGroup(F5, Poly(F5, [2, 1]) * Poly(F5, [2, 1]) * Poly(F5, [2, 0, 1]) * Poly(F5, [0, 1]))
        x, c = R.element(a), R.element(b)
        assert R.stepper(c)(x) == R.mul(x, c)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_default_stepper_on_matrix_group_multiplies_on_the_right(self, seed):
        rng = random.Random(seed)
        F9 = field_of_size(9)
        x, c = rand_invertible(F9, 3, rng), rand_invertible(F9, 3, rng)
        G = MatrixGroup(F9, 3, [x, c])
        assert G.label(G.stepper(c)(x)) == G.label(G.mul(x, c))
        # x c and c x differ for almost every pair; the walks depend on the side
        if G.label(x * c) != G.label(c * x):
            assert G.label(G.stepper(c)(x)) != G.label(G.mul(c, x))


def _order_by_powering(group, x, cap=1 << 12):
    """Smallest k >= 1 with x^k = 1, by repeated multiplication."""
    cur, k = x, 1
    while not group.is_identity(cur):
        cur, k = group.mul(cur, x), k + 1
        assert k <= cap
    return k


def _assert_order_matches_powering(group, x):
    n, fact = element_order(group, x)
    assert n == _order_by_powering(group, x)
    assert math.prod(p**e for p, e in fact.items()) == n and all(e > 0 for e in fact.values())


class TestElementOrder:
    def test_unit_group(self):
        U = UnitGroup(PrimeField(101))
        n, fact = element_order(U, 2)
        assert n == 100 and pow(2, 100, 101) == 1 and pow(2, 50, 101) != 1
        for x in range(1, 101):
            _assert_order_matches_powering(U, x)
        F9 = field_of_size(9)
        for x in F9.elements():
            if x != F9.zero:
                _assert_order_matches_powering(UnitGroup(F9), x)

    def test_poly_units_over_repeated_factor_match_powering(self):
        # f = (x + 2)^2 (x^2 + 2) over F_5; x^2 + 2 is irreducible
        R = PolyUnitGroup(F5, Poly(F5, [2, 1]) * Poly(F5, [2, 1]) * Poly(F5, [2, 0, 1]))
        rng = random.Random(7)
        units = 0
        while units < 40:
            a = R.element([rng.randrange(5) for _ in range(4)])
            if Poly(F5, list(a)).gcd(R.modulus).degree() == 0:
                _assert_order_matches_powering(R, a)
                units += 1

    def test_result_copies_and_pickles_like_its_tuple(self):
        U = UnitGroup(PrimeField(101))
        got = element_order(U, 4)
        for twin in (copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
            assert twin == got == (50, {2: 1, 5: 2})
            assert dlog(U, 4, 16, factored_order=twin) == 2

    def test_trivial_group(self):
        # F_2^* = {1}: its multiple 2^1 - 1 = 1 factors as {}, the tree's base case
        U = UnitGroup(PrimeField(2))
        assert U.exponent_multiple() == {}
        assert element_order(U, 1) == (1, {})
        assert dlog(U, 1, 1, factored_order=element_order(U, 1)) == 0
        with pytest.raises(SdlpError, match="does not annihilate"):
            element_order(U, 0)

    def test_empty_multiple_rejects_non_identity(self):
        class NoMultiple(UnitGroup):
            def exponent_multiple(self):
                return {}

        U = NoMultiple(PrimeField(5))
        assert element_order(U, 1) == (1, {})
        for x in (2, 3, 4):
            with pytest.raises(SdlpError, match="does not annihilate"):
                element_order(U, x)

    @pytest.mark.parametrize(
        "n, products",
        [(2**16, 16), (2**5 * 3**4, 26), (2**3 * 3**2 * 5 * 7 * 11, 64)],
        ids=["r=1", "r=2", "r=5"],
    )
    def test_products_follow_the_cofactor_tree(self, n, products):
        class Counting(CyclicGroup):
            products = 0

            def mul(self, x, y):
                self.products += 1
                return super().mul(x, y)

        G = Counting(n)
        fact = G.exponent_multiple()
        assert element_order(G, 1) == (n, fact)
        # each of the ceil(log2 r) tree levels raises to exponents whose
        # product is n, and the p-part orders take e powerings by p each:
        # at most 2 log2 n products for each of the two
        r = len(fact)
        assert G.products == products <= 2 * math.log2(n) * (math.ceil(math.log2(r)) + 1)

    def test_multiple_missing_a_prime_power_raises(self):
        # 3 has order 100 in F_101^*; 2^2 * 5 misses a factor 5
        class Short(UnitGroup):
            def exponent_multiple(self):
                return {2: 2, 5: 1}

        with pytest.raises(SdlpError, match="does not annihilate"):
            element_order(Short(PrimeField(101)), 3)
        assert element_order(Short(PrimeField(101)), 14) == (10, {2: 1, 5: 1})  # 14 = 4^5

    @pytest.mark.parametrize("q, d", [(7, 3), (65521, 3), (2**16, 2), (3**10, 3)])
    def test_borel_orders_and_logs_match_the_generic_power(self, q, d, monkeypatch):
        # MatrixGroup.pow is Matrix.__pow__, which powers upper-triangular
        # elements from their diagonal; powers are unique, so the orders and
        # logs equal those of GroupHandle.pow's square-and-multiply
        F = field_of_size(q)
        rng = random.Random(f"borel-{q}-{d}")
        G = MatrixGroup(F, d, [rand_upper_triangular(F, d, rng) for _ in range(2)])
        bases = [G.rand_element(rng) for _ in range(3)]
        exponents = [rng.randrange(1, 2**20) for _ in bases]

        def orders_and_logs():
            out = []
            for x, t in zip(bases, exponents):
                order = element_order(G, x)
                out.append((order, dlog(G, x, GroupHandle.pow(G, x, t), order)))
            return out

        routed = [0]
        power = linalg._triangular_power

        def counted(M, n):
            routed[0] += 1
            return power(M, n)

        monkeypatch.setattr(linalg, "_triangular_power", counted)
        got = orders_and_logs()
        assert routed[0] > 0
        monkeypatch.setattr(MatrixGroup, "pow", GroupHandle.pow)
        routed[0] = 0
        assert orders_and_logs() == got and routed[0] == 0
        for ((n, _), log), t in zip(got, exponents):
            assert log == t % n

    def test_matrix_uses_tight_multiple(self):
        B = Matrix(F5, [[0, 4], [1, 4]])
        from sdlp.groups import MatrixGroup

        G = MatrixGroup(F5, 2, [])
        n, fact = element_order(G, B)
        assert n == 3 and fact == {3: 1}


class TestPolyUnitGroup:
    @pytest.mark.parametrize("q", [2, 4, 5, 9])
    def test_matches_poly_arithmetic(self, q):
        F = field_of_size(q)
        rng = random.Random(q)
        for _ in range(30):
            d = rng.randrange(1, 6)
            f = Poly(F, [F.rand(rng) for _ in range(d)] + [F.one])
            R = PolyUnitGroup(F, f)
            a = R.element([F.rand(rng) for _ in range(d)])
            b = R.element([F.rand(rng) for _ in range(d)])
            pa, pb = Poly(F, list(a)), Poly(F, list(b))
            assert Poly(F, list(R.mul(a, b))) == (pa * pb).mod(f)
            assert Poly(F, list(R.mul(a, a))) == (pa * pa).mod(f)
            for n in (0, 1, 2, 7, 100):
                assert Poly(F, list(R.pow(a, n))) == schoolbook_pow_mod(pa, n, f)
            if pa.gcd(f).degree() == 0:
                assert R.is_identity(R.mul(a, R.inv(a)))
            else:
                with pytest.raises(SdlpError, match="not a unit"):
                    R.inv(a)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        q=st.sampled_from([9, 3**10]),
        deg=st.integers(1, 9),
        worst=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packed_mul_matches_poly_product(self, q, deg, worst, seed):
        # worst: every coefficient of x, y and of f's tail is the field's
        # q - 1, so every slot sum is as large as the products can make it
        F = field_of_size(q)
        rng = random.Random(seed)
        top = F.from_int(q - 1)
        draw = (lambda: top) if worst else (lambda: F.rand(rng) if rng.random() < 0.8 else F.zero)
        f = Poly(F, [F.neg(top) if worst else draw() for _ in range(deg)] + [F.one])
        R = PolyUnitGroup(F, f)
        assert isinstance(R.ring, _PackedRing)
        x, y = tuple(draw() for _ in range(deg)), tuple(draw() for _ in range(deg))
        for a, b in ((x, y), (x, x)):
            want = (Poly(F, list(a)) * Poly(F, list(b))).mod(f).coeffs
            assert R.mul(a, b) == tuple(want) + (F.zero,) * (deg - len(want))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        p=st.sampled_from([2, 3, 65521, 1048573, 2**61 - 1]),
        deg=st.integers(1, 9),
        worst=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prime_field_mul_matches_the_per_pair_reference(self, p, deg, worst, seed):
        # worst: every coefficient of x, y and f's tail is p - 1, so every
        # unreduced sum is as large as the products and folds can make it
        F = PrimeField(p)
        rng = random.Random(seed)
        draw = (lambda: p - 1) if worst else (lambda: rng.randrange(p) if rng.random() < 0.7 else 0)
        f = Poly(F, [1 if worst else draw() for _ in range(deg)] + [1])  # tail -1 = p - 1
        R = PolyUnitGroup(F, f)
        x, y = tuple(draw() for _ in range(deg)), tuple(draw() for _ in range(deg))
        monomial = tuple(int(i == deg - 1) * (p - 1) for i in range(deg))
        for a, b in ((x, y), (x, x), (x, monomial), (monomial, monomial)):
            want = schoolbook_poly_divmod(schoolbook_poly_mul(Poly(F, list(a)), Poly(F, list(b))), f)[1].coeffs
            assert R.mul(a, b) == tuple(want) + (0,) * (deg - len(want))

    def test_order_of_x_over_repeated_factor(self):
        # (x - 3)^3 over F_5: ord(x) = ord(3) * 5
        x3 = Poly(F5, [2, 1])
        R = PolyUnitGroup(F5, x3 * x3 * x3)
        assert element_order(R, R.element([0, 1])) == (20, {2: 2, 5: 1})


class TestEndoOrder:
    def test_identity(self):
        assert endo_order(PowerMapEndo(CyclicGroup(10), 1)) == []

    def test_spec_linear_map(self):
        V = VectorGroup(5, 2)
        B = LinearMapEndo(V, Matrix(F5, [[0, 4], [1, 4]]))
        assert endo_order(B) == [(3, 1)]

    def test_power_map_on_c7(self):
        assert dict(endo_order(PowerMapEndo(CyclicGroup(7), 2))) == {3: 1}

    def test_invariant_minimal(self):
        rng = random.Random(3)
        H = HeisenbergGroup(11)
        T = Matrix(PrimeField(11), [[3, 1, 2], [0, 5, 7], [0, 0, 2]])
        sigma = ConjugationEndo(H, T)
        n = dict(endo_order(sigma))
        total = 1
        for p, e in n.items():
            total *= p ** e
        gens = H.generators()
        pw = sigma.pow(total)
        assert all(H.label(pw.apply(x)) == H.label(x) for x in gens)
        for p in n:
            pw = sigma.pow(total // p)
            assert not all(H.label(pw.apply(x)) == H.label(x) for x in gens)

    def test_matches_naive_walk(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randrange(2, 200)
            e = rng.randrange(1, n)
            if math.gcd(e, n) != 1:
                continue
            C = CyclicGroup(n)
            sigma = PowerMapEndo(C, e)
            got = 1
            for p, k in endo_order(sigma):
                got *= p ** k
            # naive period of t -> sigma^t(1)
            cur, period = sigma.apply(1), 1
            while cur != 1:
                cur, period = sigma.apply(cur), period + 1
            assert got == period
        # matrix-backed endos, whose multiple comes from the minimal polynomial
        sigmas = []
        for p, d in ((5, 3), (7, 2)):
            for _ in range(6):
                sigmas.append(LinearMapEndo(VectorGroup(p, d), rand_invertible(PrimeField(p), d, rng)))
        H = HeisenbergGroup(7)
        for _ in range(6):
            sigmas.append(ConjugationEndo(H, rand_upper_triangular(H.field, 3, rng)))
        F9 = field_of_size(9)
        while len(sigmas) < 22:
            raw = [rand_invertible(F9, 2, rng) for _ in range(2)]
            cm = rand_invertible(F9, 2, rng)
            if endo_order_by_walk(ConjugationEndo(MatrixGroup(F9, 2, raw), cm), raw) <= 16:
                sigmas.append(sigma_closed_matrix_group(F9, 2, raw, cm)[1])
        # the other kinds: a table, a pair image (whose order can be below
        # its inner multiple's) and a product
        sigmas.append(table_endo(MatrixGroup(F5, 2, [Matrix(F5, [[1, 1], [1, 3]])]), lambda m: m.inverse()))
        P = PairImageGroup(Hom(H, VectorGroup(7, 2), lambda t: (t[0], t[1])))
        for _ in range(3):
            sigmas.append(InducedPairEndo(P, ConjugationEndo(H, rand_upper_triangular(H.field, 3, rng))))
        C9, V52 = CyclicGroup(9), VectorGroup(5, 2)
        sigmas.append(
            ProductEndo(ProductGroup([C9, V52]), [PowerMapEndo(C9, 2), LinearMapEndo(V52, rand_invertible(F5, 2, rng))])
        )
        for sigma in sigmas:
            want = endo_order_by_walk(sigma, sigma.group.generators())
            assert math.prod(p**k for p, k in endo_order(sigma)) == want
            assert math.prod(p**k for p, k in endo_order_multiple(sigma).items()) % want == 0


class _Negation(Endo):
    """x -> -x on Z_n in a representation with no order multiple."""

    def apply(self, x):
        return -x % self.group.n

    def is_automorphism(self):
        return True


class _StuckPower(PowerMapEndo):
    """x -> e*x on Z_n whose powers are all itself: a representation fault
    that the check of the multiple has to catch."""

    def pow(self, k):
        return self


class TestEndoOrderWithoutMultiple:
    def test_declines(self):
        for order_of in (endo_order, endo_order_multiple):
            with pytest.raises(NotApplicableError, match="no order multiple"):
                order_of(_Negation(CyclicGroup(10)))

    def test_multiple_that_does_not_annihilate_raises(self):
        # lambda(7) = 6, but the stuck sixth power is still x -> 3x
        for order_of in (endo_order, endo_order_multiple):
            with pytest.raises(SdlpError, match="does not annihilate"):
                order_of(_StuckPower(CyclicGroup(7), 3))

    def test_orbit_falls_back_to_brent(self):
        # g, then g - g = 0: a pure 2-cycle, found by cycle detection
        assert orbit_index_period(3, _Negation(CyclicGroup(10))) == OrbitShape(0, 2)
        # the stuck powers fail the check, and the walk uses apply alone
        _, index, period = orbit_walk(1, _StuckPower(CyclicGroup(7), 3), 1 << 6)
        assert orbit_index_period(1, _StuckPower(CyclicGroup(7), 3)) == OrbitShape(index, period) == OrbitShape(0, 6)


class TestOrbitIndexPeriod:
    def test_automorphism_has_index_zero(self):
        V = VectorGroup(5, 2)
        B = LinearMapEndo(V, Matrix(F5, [[0, 4], [1, 4]]))
        assert orbit_index_period((1, 0), B) == OrbitShape(0, 3)

    def test_cyclic8_tail(self):
        C = CyclicGroup(8)
        assert orbit_index_period(1, PowerMapEndo(C, 2)) == OrbitShape(3, 1)

    def test_agrees_with_naive_walk(self):
        rng = random.Random(5)
        cfg = SolverConfig()
        for _ in range(120):
            inst = random_cyclic_instance(rng) if rng.random() < 0.5 else random_vector_instance(
                rng, automorphism=False
            )
            shape = orbit_index_period(inst.g, inst.sigma, cfg)
            values, index, period = orbit_walk(inst.g, inst.sigma, 1 << 14)
            assert (shape.index, shape.period) == (index, period)
            assert index + period <= 1 << 12

    def test_cap(self):
        # singular map with a long orbit forces the cycle-detection walk
        p = 65521
        V = VectorGroup(p, 2)
        sigma = LinearMapEndo(V, Matrix(PrimeField(p), [[17, 0], [0, 0]]))
        assert not sigma.is_automorphism()
        with pytest.raises(NotApplicableError):
            orbit_index_period((1, 1), sigma, SolverConfig(max_walk=64))


def test_orbit_walk_values_are_distinct():
    rng = random.Random(6)
    C = CyclicGroup(24)
    sigma = PowerMapEndo(C, 6)
    values, index, period = orbit_walk(1, sigma, 1 << 12)
    labels = [C.label(v) for v in values]
    assert len(set(labels)) == len(labels) == index + period
    assert C.label(rho_pow(1, sigma, index + period)) == C.label(values[index])
