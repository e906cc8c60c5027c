import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bench_module,
    borel_group,
    rand_invertible,
    rand_upper_triangular,
    random_cyclic_instance,
    random_heisenberg_instance,
    random_matrix_instance,
    random_vector_instance,
    sigma_closed_matrix_group,
    stacked_intertwiner_basis,
    table_endo,
)
import sdlp.oracles as oracles
import sdlp.solvers as solvers
from sdlp import integers
from sdlp.config import SolverConfig
from sdlp.errors import InternalAssertionError, NotApplicableError, SdlpError
from sdlp.ff import ExtField, Poly, PrimeField, canonical_irreducible, factor_poly, field_of_size
from sdlp.groups import (
    ConjugationEndo,
    CyclicGroup,
    Endo,
    HeisenbergGroup,
    Hom,
    LinearMapEndo,
    MatrixGroup,
    PowerMapEndo,
    ProductEndo,
    ProductGroup,
    SdlpInstance,
    SolutionSet,
    TableEndo,
    VectorGroup,
    mulclose,
    rho_pow,
)
from sdlp.linalg import Matrix, krylov
from sdlp.oracles import element_order, endo_order, ensure_endo_order, orbit_walk
from sdlp.protocol import heisenberg_chain, heisenberg_instance
from sdlp.solvers import (
    SOLVER_NAMES,
    ChainLevel,
    NormalChain,
    OrbitProblemInstance,
    _conjugator_by_enumeration,
    _intertwiner_basis,
    _orbit_problem_set,
    brute_solve,
    find_conjugator,
    solve,
    solve_elementary_abelian,
    solve_master,
    solve_matrix_inner,
    solve_orbit_problem,
    solve_small_order,
    solve_solvable,
    unitriangular_chain,
)

F5 = PrimeField(5)
CFG = SolverConfig()
workloads = bench_module("workloads")  # the benchmark's platform recipes


class TestSolveSmallOrder:
    def test_trivial_sigma_multiplicative(self):
        # <2> inside GL_1(F_101): rho^t(1) = 2^t, so h = 32 gives t = 5 mod 100
        F101 = PrimeField(101)
        G = MatrixGroup(F101, 1, [Matrix(F101, [[2]])])
        triv = ConjugationEndo(G, Matrix(F101, [[1]]))
        inst = SdlpInstance(G, triv, Matrix(F101, [[2]]), Matrix(F101, [[32]]))
        assert solve_small_order(inst, CFG) == SolutionSet.progression(5, 100)

    def test_identity_orbit(self):
        F101 = PrimeField(101)
        G = MatrixGroup(F101, 1, [Matrix(F101, [[2]])])
        triv = ConjugationEndo(G, Matrix(F101, [[1]]))
        inst = SdlpInstance(G, triv, G.identity, G.identity)
        assert solve_small_order(inst, CFG) == SolutionSet.progression(0, 1)

    def test_identity_g_nontrivial_h(self):
        F101 = PrimeField(101)
        G = MatrixGroup(F101, 1, [Matrix(F101, [[2]])])
        triv = ConjugationEndo(G, Matrix(F101, [[1]]))
        inst = SdlpInstance(G, triv, G.identity, Matrix(F101, [[2]]))
        assert solve_small_order(inst, CFG).is_empty()

    def test_order_bound(self):
        C = CyclicGroup(65537)
        sigma = PowerMapEndo(C, 3)  # huge multiplicative order
        inst = SdlpInstance(C, sigma, 1, 2)
        with pytest.raises(NotApplicableError, match="order too large"):
            solve_small_order(inst, SolverConfig(small_order_bound=8))

    def test_matches_brute(self):
        rng = random.Random(0)
        for _ in range(100):
            inst = random_cyclic_instance(rng, automorphism=True)
            assert solve_small_order(inst, CFG) == brute_solve(inst, CFG)

    @staticmethod
    def _count_orders_and_tables(monkeypatch):
        calls = {"element_order": 0, "tables": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(solvers, "element_order", counted("element_order", solvers.element_order))
        monkeypatch.setattr(oracles, "_bsgs", counted("tables", oracles._bsgs))
        return calls

    # x -> 241 x on Z_27720 has order 6, and g' = rho^6(1) = 24486 has order
    # 60 = 2^2 * 3 * 5: six residue targets, three primes
    SHIFT_GROUP = CyclicGroup(27720)
    SHIFT_SIGMA = PowerMapEndo(SHIFT_GROUP, 241)

    @pytest.mark.parametrize("t_star", [77, 1234, 4327])
    def test_one_order_and_one_table_per_prime_for_all_residues(self, monkeypatch, t_star):
        G, sigma = self.SHIFT_GROUP, self.SHIFT_SIGMA
        assert ensure_endo_order(sigma) == 6
        assert element_order(G, rho_pow(1, sigma, 6)) == (60, {2: 2, 3: 1, 5: 1})
        calls = self._count_orders_and_tables(monkeypatch)
        inst = SdlpInstance(G, sigma, 1, rho_pow(1, sigma, t_star))
        assert solve_small_order(inst, CFG) == brute_solve(inst, CFG)
        assert calls == {"element_order": 1, "tables": 3}

    def test_no_order_or_table_outlives_a_solve(self, monkeypatch):
        # one config for three solves; the repeat computes everything afresh
        G, sigma = self.SHIFT_GROUP, self.SHIFT_SIGMA
        calls = self._count_orders_and_tables(monkeypatch)
        inst = SdlpInstance(G, sigma, 1, rho_pow(1, sigma, 1234))
        other = SdlpInstance(G, sigma, 1, rho_pow(1, sigma, 99))
        first = solve_small_order(inst, CFG)
        assert solve_small_order(other, CFG) == brute_solve(other, CFG)
        assert solve_small_order(inst, CFG) == first == brute_solve(inst, CFG)
        assert calls == {"element_order": 3, "tables": 9}


class TestSolveElementaryAbelian:
    def test_spec_orbit(self):
        V = VectorGroup(5, 2)
        B = LinearMapEndo(V, Matrix(F5, [[0, 4], [1, 4]]))
        inst = SdlpInstance(V, B, (1, 0), (1, 1))
        assert solve_elementary_abelian(inst, CFG) == SolutionSet.progression(2, 3)

    def test_zero_g_zero_h_is_everything(self):
        V = VectorGroup(5, 2)
        B = LinearMapEndo(V, Matrix(F5, [[0, 4], [1, 4]]))
        inst = SdlpInstance(V, B, (0, 0), (0, 0))
        assert solve_elementary_abelian(inst, CFG) == SolutionSet.progression(0, 1)

    def test_zero_g_nonzero_h_is_empty(self):
        V = VectorGroup(5, 2)
        B = LinearMapEndo(V, Matrix(F5, [[0, 4], [1, 4]]))
        inst = SdlpInstance(V, B, (0, 0), (1, 0))
        assert solve_elementary_abelian(inst, CFG).is_empty()

    def test_additive_doubling(self):
        V = VectorGroup(7, 1)
        triv = LinearMapEndo(V, Matrix(PrimeField(7), [[1]]))
        inst = SdlpInstance(V, triv, (3,), (6,))
        assert solve_elementary_abelian(inst, CFG).contains(2)

    def test_matches_brute(self):
        rng = random.Random(1)
        for _ in range(150):
            inst = random_vector_instance(rng, d_max=3, automorphism=True)
            assert solve_elementary_abelian(inst, CFG) == brute_solve(inst, CFG)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        p=st.sampled_from([2, 3, 5, 7, 11]),
        d=st.integers(1, 4),
        kind=st.sampled_from(["identity", "unipotent", "eigenvalue-1", "no-eigenvalue-1"]),
        zero_g=st.booleans(),
        in_orbit=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_layer_branches_match_brute(self, p, d, kind, zero_g, in_orbit, seed):
        # each branch of the layer-as-orbit-problem reduction: B = 1 (closed
        # form), B - 1 singular (augmented matrix) and B - 1 invertible
        rng = random.Random(seed)
        F = PrimeField(p)
        if kind != "no-eigenvalue-1":
            d = max(d, 2)
        if kind == "no-eigenvalue-1" and p == 2:
            p, F = 3, PrimeField(3)  # over F_2 the only unit is 1
        one = Matrix.identity(F, d)
        if kind == "identity":
            B = one
        elif kind == "no-eigenvalue-1":
            B = rand_invertible(F, d, rng)
            while not (B - one).is_invertible():
                B = rand_invertible(F, d, rng)
        else:
            rows = [[F.rand(rng) if j > i else F.zero for j in range(d)] for i in range(d)]
            for i in range(d):
                rows[i][i] = F.one if kind == "unipotent" or i == 0 else F.rand_nonzero(rng)
            rows[0][1] = F.rand_nonzero(rng)  # B != 1
            P = rand_invertible(F, d, rng)
            B = P * Matrix(F, rows) * P.inverse()
        assert B.is_identity() == (kind == "identity")
        assert (B - one).is_invertible() == (kind == "no-eigenvalue-1")
        V = VectorGroup(p, d)
        sigma = LinearMapEndo(V, B)
        g = V.identity if zero_g else V.rand_element(rng)
        h = rho_pow(g, sigma, rng.randrange(10**6)) if in_orbit else V.rand_element(rng)
        inst = SdlpInstance(V, sigma, g, h)
        want = brute_solve(inst, SolverConfig(max_walk=1 << 20))
        assert solve_elementary_abelian(inst, CFG) == want
        assert solve_solvable(inst, CFG) == want
        assert solve(inst, CFG) == want

    def test_rejects_singular(self):
        V = VectorGroup(3, 2)
        singular = LinearMapEndo(V, Matrix(PrimeField(3), [[1, 0], [2, 0]]))
        with pytest.raises(SdlpError):
            solve_elementary_abelian(SdlpInstance(V, singular, (1, 0), (0, 0)), CFG)


def test_irreducible_layer_builds_its_field_without_a_second_test(monkeypatch):
    # factor_poly proves each factor irreducible; the field built from it
    # must not run the test again
    import sdlp.ff as ff

    rng = random.Random("trusted-field")
    F = PrimeField(65521)
    while True:
        f = Poly(F, [F.rand(rng) for _ in range(3)] + [F.one])
        if ff.is_irreducible(f):
            break
    V = VectorGroup(65521, 3)
    sigma = LinearMapEndo(V, Matrix.companion(f))
    g = V.rand_element(rng)
    inst = SdlpInstance(V, sigma, g, rho_pow(g, sigma, 123456789))
    want = solve_elementary_abelian(inst, CFG)

    def forbidden(f):
        raise AssertionError("the orbit problem re-tested a proven factor")

    monkeypatch.setattr(ff, "is_irreducible", forbidden)
    assert solve_elementary_abelian(inst, CFG) == want and want.contains(123456789)


class TestCyclicField:
    """The orbit problem's Krylov coordinates view the cyclic module of v as
    F_p[x]/(f): v becomes 1 and B acts as multiplication by x."""

    def test_spec_matrix_gives_f25(self):
        B = Matrix(F5, [[0, 4], [1, 4]])  # minimal polynomial x^2 + x + 1
        f, echelon = krylov(F5, B.matvec, (1, 0))
        fld = ExtField(F5, f)
        assert fld.size == 25 and f == Poly(F5, [1, 1, 1])

        def to_field(w):
            return fld.from_coeffs(echelon.coords(w))

        assert to_field((1, 0)) == fld.one
        assert to_field(B.matvec((3, 2))) == fld.mul(fld.gen(), to_field((3, 2)))

    def test_scalar_gives_prime_field(self):
        B = Matrix(F5, [[2]])
        f, echelon = krylov(F5, B.matvec, (3,))
        assert f == Poly(F5, [3, 1])  # x - 2: the orbit problem runs in F_5 with x -> 2
        assert echelon.coords((1,)) == (2,)  # 1 = 2 * 3 in F_5
        assert solve_orbit_problem(OrbitProblemInstance(F5, B, (3,), (1,)), CFG) == 1


class TestSolveSolvable:
    def test_prime_cyclic_delegates(self):
        C = CyclicGroup(13)
        sigma = PowerMapEndo(C, 5)
        inst = SdlpInstance(C, sigma, 3, 7)
        assert solve_solvable(inst, CFG) == brute_solve(inst, CFG)

    def test_heisenberg_forward_constructed(self):
        rng = random.Random(2)
        H = HeisenbergGroup(7)
        T = rand_upper_triangular(H.field, 3, rng)
        sigma = ConjugationEndo(H, T)
        g = H.rand_element(rng)
        h = rho_pow(g, sigma, 11)
        got = solve_solvable(SdlpInstance(H, sigma, g, h), CFG)
        assert got.contains(11)
        assert got == brute_solve(SdlpInstance(H, sigma, g, h), CFG)

    def test_coordinate_swap_on_z3_squared(self):
        V = VectorGroup(3, 2)
        swap = LinearMapEndo(V, Matrix(PrimeField(3), [[0, 1], [1, 0]]))
        inst = SdlpInstance(V, swap, (1, 0), (1, 1))
        got = solve_solvable(inst, CFG)
        assert got.contains(2) and got == brute_solve(inst, CFG)

    def test_unitriangular_4x4(self):
        rng = random.Random(3)
        F3 = PrimeField(3)
        gens = []
        for i in range(3):
            rows = [[F3.one if a == b else F3.zero for b in range(4)] for a in range(4)]
            rows[i][i + 1] = F3.one
            gens.append(Matrix(F3, rows))
        G = MatrixGroup(F3, 4, gens)
        T = rand_upper_triangular(F3, 4, rng)
        sigma = ConjugationEndo(G, T)
        g = G.rand_element(rng)
        h = rho_pow(g, sigma, 77)
        inst = SdlpInstance(G, sigma, g, h)
        got = solve_solvable(inst, CFG)
        assert got.contains(77)
        assert got == brute_solve(inst, SolverConfig(max_walk=1 << 18))
        assert solve_master(inst, unitriangular_chain(G), CFG) == got

    def test_unitriangular_over_extension_field(self):
        rng = random.Random(13)
        F = field_of_size(9)
        d = 3
        gens = []
        for i in range(d - 1):
            rows = [[F.one if a == b else F.zero for b in range(d)] for a in range(d)]
            rows[i][i + 1] = F.one
            gens.append(Matrix(F, rows))
        rows = [[F.one if a == b else F.zero for b in range(d)] for a in range(d)]
        rows[0][1] = F.gen()
        gens.append(Matrix(F, rows))
        G = MatrixGroup(F, d, gens)
        T = rand_upper_triangular(F, d, rng)
        sigma = ConjugationEndo(G, T)
        g = G.rand_element(rng)
        h = rho_pow(g, sigma, 91)
        inst = SdlpInstance(G, sigma, g, h)
        got = solve_solvable(inst, SolverConfig(max_walk=1 << 16))
        assert got.contains(91)
        assert got == brute_solve(inst, SolverConfig(max_walk=1 << 16))
        assert solve_master(inst, unitriangular_chain(G), SolverConfig(max_walk=1 << 16)) == got

    def test_filtration_must_be_invariant(self):
        # a lower-triangular conjugator moves the superdiagonal filtration
        F = PrimeField(5)
        gens = [Matrix(F, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]), Matrix(F, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])]
        G = MatrixGroup(F, 3, gens)
        sigma = ConjugationEndo(G, Matrix(F, [[2, 0, 0], [1, 3, 0], [1, 0, 4]]))
        g = Matrix(F, [[1, 2, 3], [0, 1, 4], [0, 0, 1]])
        with pytest.raises(SdlpError, match="kernel not invariant"):
            solve_solvable(SdlpInstance(G, sigma, g, G.identity), CFG)

    def test_composition_series_required(self):
        P = ProductGroup([CyclicGroup(12), CyclicGroup(5)])  # a product: no built-in series
        sigma = ProductEndo(P, [PowerMapEndo(P.factors[0], 5), PowerMapEndo(P.factors[1], 2)])
        inst = SdlpInstance(P, sigma, (1, 1), (5, 3))
        with pytest.raises(NotApplicableError, match="composition series required"):
            solve_solvable(inst, CFG)

    def test_heisenberg_trivial_on_centre(self):
        # T_33 = T_11 makes alpha * beta = 1: sigma fixes the centre, whose
        # layer is then solved in closed form at every shift
        rng = random.Random(6)
        for p in (5, 7, 11):
            H = HeisenbergGroup(p)
            F = H.field
            for i in range(12):
                t1, t2 = F.rand_nonzero(rng), F.rand_nonzero(rng)
                T = Matrix(F, [[t1, F.rand(rng), F.rand(rng)], [0, t2, F.rand(rng)], [0, 0, t1]])
                sigma = ConjugationEndo(H, T)
                assert H.label(sigma.apply((0, 0, 1))) == H.label((0, 0, 1))
                g = H.rand_element(rng)
                h = rho_pow(g, sigma, rng.randrange(1000)) if i % 2 else H.rand_element(rng)
                inst = SdlpInstance(H, sigma, g, h)
                want = brute_solve(inst, CFG)
                assert solve_solvable(inst, CFG) == want
                assert solve(inst, CFG) == want
                assert solve_master(inst, heisenberg_chain(H), CFG) == want

    def test_random_heisenberg(self):
        rng = random.Random(4)
        for _ in range(50):
            inst = random_heisenberg_instance(rng, p_choices=(3, 5, 7))
            assert solve_solvable(inst, CFG) == brute_solve(inst, CFG)


def _omega(n: int) -> int:
    """Number of prime factors of n counted with multiplicity, by trial division."""
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n, count = n // p, count + 1
        p += 1
    return count + (n > 1)


@st.composite
def composite_cyclic_instances(draw):
    """(Z_n, x -> e x, g, t*) with n < 2^64 a product of two to four
    powers of factors below 2^32 (small ones included), e a unit."""
    n = 1
    for _ in range(draw(st.integers(2, 4))):
        base = draw(st.one_of(st.integers(2, 30), st.integers(2, (1 << 32) - 1)))
        k = draw(st.integers(1, 6))
        while k > 1 and n * base**k >= 1 << 64:
            k -= 1
        if n * base**k < 1 << 64:
            n *= base**k
    e = draw(st.integers(1, n - 1))
    while math.gcd(e, n) != 1:
        e += 1
    return CyclicGroup(n), e, draw(st.integers(0, n - 1)), draw(st.integers(0, (1 << 64) - 1))


class TestCyclicChain:
    @pytest.mark.parametrize("n", [1, 2, 12, 13, 360, 1024, 3**5 * 7**2, 2**40, (2**31 - 1) * (2**19 - 1)])
    def test_levels_follow_the_prime_factors(self, n):
        C = CyclicGroup(n)
        chain = solvers.cyclic_chain(C)
        want = {2**40: 40, (2**31 - 1) * (2**19 - 1): 2}.get(n) or _omega(n)
        assert len(chain.levels) == want
        for i, level in enumerate(chain.levels):
            p = level.psi.target.p
            assert level.psi(level.generators[0]) == (1,)  # onto Z_p
            below = chain.levels[i - 1].generators if i else [0]
            assert all(level.psi(x) == (0,) for x in below)
            assert C.label(p * level.generators[0]) == C.label(below[0])  # the level has order p over the one below
        assert n == 1 or chain.levels[-1].generators == [1]  # the top level is Z_n
        chain.validate(C, PowerMapEndo(C, 1))

    @pytest.mark.parametrize("n, e", [(2**40, 3), ((2**31 - 1) * (2**19 - 1), 7)])
    def test_at_scale_under_auto(self, n, e):
        # the order of sigma is far above any walk: 2^38 and about 8.9 * 10^12
        C = CyclicGroup(n)
        sigma = PowerMapEndo(C, e)
        assert ensure_endo_order(sigma) >= 1 << 38
        t_star = 123456789123
        inst = SdlpInstance(C, sigma, 5, rho_pow(5, sigma, t_star))
        start = time.perf_counter()
        got = solve(inst, SolverConfig())
        assert time.perf_counter() - start < 1.0
        assert got.contains(t_star)
        assert solve_solvable(inst, CFG) == got

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(composite_cyclic_instances())
    def test_composite_n_contains_the_exponent(self, drawn):
        C, e, g, t_star = drawn
        sigma = PowerMapEndo(C, e)
        inst = SdlpInstance(C, sigma, g, rho_pow(g, sigma, t_star))
        got = solve(inst, SolverConfig())
        assert got.contains(t_star)
        assert solve_solvable(inst, CFG) == got
        if C.n < 512:
            assert brute_solve(inst, CFG) == got

    def test_small_instances_match_brute(self):
        # endomorphisms and tables included; small_order_bound=1 sends every
        # automorphism down the chain
        rng = random.Random(26)
        forced = SolverConfig(small_order_bound=1)
        for i in range(300):
            n = (rng.randrange(1, 400), 2 ** rng.randrange(10), rng.choice((3, 5, 7)) ** rng.randrange(1, 4))[i % 3]
            C = CyclicGroup(n)
            e = rng.randrange(n)
            sigma = PowerMapEndo(C, e) if i % 5 else table_endo(C, lambda x, e=e, n=n: e * x % n)
            g = C.rand_element(rng)
            h = rho_pow(g, sigma, rng.randrange(1000)) if i % 2 else C.rand_element(rng)
            inst = SdlpInstance(C, sigma, g, h)
            want = brute_solve(inst, CFG)
            assert solve(inst, forced) == want
            assert solve(inst, CFG) == want
            if sigma.is_automorphism():
                assert solve_solvable(inst, forced) == want


class TestFindConjugator:
    def test_identity_automorphism(self):
        x = Matrix(F5, [[2, 0], [0, 2]])
        a = find_conjugator([x], [x], 2, F5, CFG)
        assert (a.inverse() * x * a).entries_key() == x.entries_key()

    def test_recovers_known_conjugation(self):
        x = Matrix(F5, [[1, 1], [0, 1]])
        c = Matrix(F5, [[2, 1], [0, 1]])
        image = c.inverse() * x * c
        a = find_conjugator([x], [image], 2, F5, CFG)
        assert (a.inverse() * x * a).entries_key() == image.entries_key()

    def test_diagonal_swap(self):
        x = Matrix(F5, [[2, 0], [0, 3]])
        swapped = Matrix(F5, [[3, 0], [0, 2]])
        a = find_conjugator([x], [swapped], 2, F5, CFG)
        assert (a.inverse() * x * a).entries_key() == swapped.entries_key()
        # the intertwiner is antidiagonal modulo the centralizer
        assert a.rows[0][0] == 0 and a.rows[1][1] == 0

    def test_not_inner_raises(self):
        # inversion on <x> with det(x)^2 != 1 is not a conjugation
        x = Matrix(F5, [[1, 1], [1, 3]])  # det 2
        with pytest.raises(NotApplicableError, match="no invertible intertwiner"):
            find_conjugator([x], [x.inverse()], 2, F5, CFG)

    def test_small_field_lift(self):
        F2 = PrimeField(2)
        x = Matrix(F2, [[1, 1], [0, 1]])
        c = Matrix(F2, [[1, 0], [1, 1]])
        image = c.inverse() * x * c
        a = find_conjugator([x], [image], 2, F2, CFG)
        embedded = Matrix(a.field, [[a.field.from_int(v) for v in row] for row in x.rows])
        target = Matrix(a.field, [[a.field.from_int(v) for v in row] for row in image.rows])
        assert (a.inverse() * embedded * a).entries_key() == target.entries_key()


def _reference_draw(basis, d, fld, seed):
    """The conjugator draw with a rank test before each inverse: (a, the
    number of draws it took)."""
    rng = random.Random(f"conjugator-{seed}")
    for draws in range(1, 33):
        y = Matrix.zeros(fld, d, d)
        for Y in basis:
            y = y + Y.scale(fld.rand(rng))
        if y.is_invertible():
            return y.inverse(), draws
    return None, 32


class TestConjugatorDraw:
    """Each draw is eliminated once: `inverse` reports a singular draw, and
    the draws and the conjugator chosen are the rank-tested ones."""

    @pytest.mark.parametrize("seed", range(12))
    def test_one_inverse_per_draw_and_the_same_conjugator(self, seed, monkeypatch):
        x = Matrix.identity(F5, 2)  # every matrix intertwines: many draws are singular
        want, draws = _reference_draw(_intertwiner_basis([x], [x], 2, F5), 2, F5, seed)
        calls = [0]
        inverse = Matrix.inverse

        def counted(self):
            calls[0] += 1
            return inverse(self)

        def forbidden(self):
            raise AssertionError("a draw was rank-tested before its inverse")

        monkeypatch.setattr(Matrix, "inverse", counted)
        monkeypatch.setattr(Matrix, "is_invertible", forbidden)
        a = find_conjugator([x], [x], 2, F5, SolverConfig(seed=seed))
        assert a == want and calls[0] == draws

    def test_some_seed_rejects_a_singular_draw(self):
        x = Matrix.identity(F5, 2)
        basis = _intertwiner_basis([x], [x], 2, F5)
        assert max(_reference_draw(basis, 2, F5, seed)[1] for seed in range(12)) > 1


def _embedded(lifted, M):
    return Matrix(lifted, [[lifted.from_int(v) for v in row] for row in M.rows])


def _closed_generator_set(q, d, rng):
    """Generators and images of a sigma-closed matrix group over F_q, built
    as the matrix-inner benchmark builds its small platforms."""
    G, sigma = workloads.small_matrix_group(rng, q, d)
    gens = G.generators()
    return gens, [sigma.apply(x) for x in gens]


class TestConjugatorFallback:
    """The draws run over the platform's own field first. Only when all 32
    are singular does a prime q < 2d lift, drawing from the F_q basis
    embedded, and a prime-power q < 2d enumerate."""

    @pytest.mark.parametrize("q, d", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lifted_draw_when_every_prime_field_draw_is_singular(self, q, d, seed, monkeypatch):
        F = PrimeField(q)
        gens, imgs = _closed_generator_set(q, d, random.Random(f"fallback-{q}-{d}-{seed}"))
        cfg = SolverConfig(seed=seed)
        assert solvers._find_conjugator_lifted(gens, imgs, d, F, cfg)[2] is F
        inverse = Matrix.inverse

        def no_prime_field_inverse(self):
            if isinstance(self.field, PrimeField):
                raise SdlpError("singular matrix")
            return inverse(self)

        monkeypatch.setattr(Matrix, "inverse", no_prime_field_inverse)
        a, a_inv, lifted, embed = solvers._find_conjugator_lifted(gens, imgs, d, F, cfg)
        assert isinstance(lifted, ExtField) and lifted.base is F and lifted.size >= 2 * d > q
        for x, s in zip(gens, imgs):
            assert embed(x) == _embedded(lifted, x)
            assert (a.inverse() * embed(x) * a).entries_key() == embed(s).entries_key()
        # the draw from the basis computed over the lifted field itself
        lifted_gens = [_embedded(lifted, x) for x in gens]
        lifted_imgs = [_embedded(lifted, x) for x in imgs]
        want, _ = _reference_draw(_intertwiner_basis(lifted_gens, lifted_imgs, d, lifted), d, lifted, seed)
        assert want is not None and a == want and a_inv == want.inverse()

    def test_wide_field_declines_instead_of_lifting(self, monkeypatch):
        x = Matrix(F5, [[1, 1], [0, 1]])
        c = Matrix(F5, [[2, 1], [0, 1]])
        image = c.inverse() * x * c

        def singular(self):
            raise SdlpError("singular matrix")

        monkeypatch.setattr(Matrix, "inverse", singular)
        with pytest.raises(NotApplicableError, match="no invertible intertwiner"):
            solvers._find_conjugator_lifted([x], [image], 2, F5, CFG)

    def test_small_prime_power_field_enumerates_after_the_draws(self, monkeypatch):
        F4 = field_of_size(4)
        gens, imgs = _closed_generator_set(4, 3, random.Random("fallback-enumeration"))
        basis = _intertwiner_basis(gens, imgs, 3, F4)
        want = _conjugator_by_enumeration(gens, imgs, basis, 3, F4)
        inverse = Matrix.inverse
        calls = [0]

        def draws_singular(self):
            calls[0] += 1
            if calls[0] <= 32:
                raise SdlpError("singular matrix")
            return inverse(self)

        monkeypatch.setattr(Matrix, "inverse", draws_singular)
        got = solvers._find_conjugator_lifted(gens, imgs, 3, F4, CFG)
        assert got[:3] == want[:3] and calls[0] > 32


class TestLiftedIntertwinerBasis:
    """The F_q intertwiner basis, embedded entrywise, is the basis computed
    over an extension F_(q^e): the lifted fallback draws from it."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        q=st.sampled_from([2, 3, 5]),
        d=st.sampled_from([2, 3]),
        e=st.sampled_from([2, 3]),
        k=st.sampled_from([1, 2]),
        inner=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_embedded_basis_is_the_lifted_basis(self, q, d, e, k, inner, seed):
        F = PrimeField(q)
        rng = random.Random(seed)
        G, sigma = workloads.small_matrix_group(rng, q, d)
        gens = G.generators()
        imgs = [sigma.pow(k).apply(x) if inner else rand_invertible(F, d, rng) for x in gens]
        lifted = ExtField._trusted(F, canonical_irreducible(F, e))
        basis = _intertwiner_basis(gens, imgs, d, F)
        lifted_basis = _intertwiner_basis([_embedded(lifted, x) for x in gens], [_embedded(lifted, x) for x in imgs], d, lifted)
        assert [_embedded(lifted, Y) for Y in basis] == lifted_basis
        assert basis or not inner


class TestConjugatorEnumeration:
    """Over a field too small to draw from, the conjugator is the first
    invertible combination of the intertwiner basis, the coefficient tuples
    taken in lexicographic order with the last one fastest."""

    def test_combinations_are_tried_in_lexicographic_order(self, monkeypatch):
        F3 = PrimeField(3)
        x = Matrix.identity(F3, 2)  # every matrix intertwines: the basis spans M_2
        basis = _intertwiner_basis([x], [x], 2, F3)
        k = len(basis)
        assert k == 4
        tried = []

        def singular(self):
            tried.append(self)
            raise SdlpError("singular matrix")

        monkeypatch.setattr(Matrix, "inverse", singular)
        with pytest.raises(NotApplicableError, match="no invertible intertwiner"):
            _conjugator_by_enumeration([x], [x], basis, 2, F3)
        want = []
        for n in range(1, 3**k):  # the zero tuple is skipped
            coeffs = [n // 3 ** (k - 1 - i) % 3 for i in range(k)]
            want.append(Matrix(F3, [[sum(c * Y.rows[i][j] for c, Y in zip(coeffs, basis)) % 3 for j in range(2)] for i in range(2)]))
        assert tried == want


class TestIntertwinerBasis:
    """The generator-at-a-time intertwiner basis equals the stacked
    system's `nullspace`, so the seeded conjugator draw is unchanged."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        q=st.sampled_from([2, 5, 9, 16, 3**10]),
        d=st.integers(1, 3),
        count=st.integers(1, 5),
        inner=st.sampled_from(["all", "some", "none"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_generator_sets(self, q, d, count, inner, seed):
        F = field_of_size(q)
        rng = random.Random(seed)
        c = rand_invertible(F, d, rng)
        gens = [Matrix(F, [[F.rand(rng) for _ in range(d)] for _ in range(d)]) for _ in range(count)]
        imgs = [
            c.inverse() * x * c if inner == "all" or (inner == "some" and rng.random() < 0.5) else rand_invertible(F, d, rng)
            for x in gens
        ]
        assert _intertwiner_basis(gens, imgs, d, F) == stacked_intertwiner_basis(gens, imgs, d, F)

    def test_sigma_closed_generator_sets(self):
        rng = random.Random("intertwiner-closed")
        for _ in range(12):
            inst = random_matrix_instance(rng, q_choices=(3, 4, 5, 7, 9))
            gens = inst.group.generators()
            d, F = gens[0].nrows, gens[0].field
            for k in (1, 2, 3):
                imgs = [inst.sigma.pow(k).apply(x) for x in gens]
                got = _intertwiner_basis(gens, imgs, d, F)
                assert got and got == stacked_intertwiner_basis(gens, imgs, d, F)

    def test_empty_space_stops_at_the_first_generator(self, monkeypatch):
        # x and 2x share no eigenvalue (1 against 2), so y x = 2x y forces y = 0
        x = Matrix(F5, [[1, 1], [0, 1]])
        gens = [x, rand_invertible(F5, 2, random.Random(1)), x * x]
        imgs = [x.scale(2), gens[1], x * x]
        calls = [0]
        counted = solvers.nullspace

        def counting(M):
            calls[0] += 1
            return counted(M)

        monkeypatch.setattr(solvers, "nullspace", counting)
        assert _intertwiner_basis(gens, imgs, 2, F5) == [] == stacked_intertwiner_basis(gens, imgs, 2, F5)
        assert calls[0] == 1

    @pytest.mark.parametrize("q, d", [(5, 1), (9, 2), (3**10, 3)])
    def test_zero_generators(self, q, d):
        F = field_of_size(q)
        assert _intertwiner_basis([], [], d, F) == stacked_intertwiner_basis([], [], d, F) == [Matrix.identity(F, d)]


class TestSolveOrbitProblem:
    COMP = Matrix.companion(Poly(F5, [1, 1, 1]))

    def test_b_equals_a(self):
        assert solve_orbit_problem(OrbitProblemInstance(F5, self.COMP, (1, 0), (1, 0)), CFG) == 0

    def test_b_is_phi_a(self):
        b = self.COMP.matvec((1, 0))
        assert solve_orbit_problem(OrbitProblemInstance(F5, self.COMP, (1, 0), b), CFG) == 1

    def test_exhaustive_small(self):
        cur = (1, 0)
        for t in range(25):
            got = solve_orbit_problem(OrbitProblemInstance(F5, self.COMP, (1, 0), cur), CFG)
            assert got == t % 3
            cur = self.COMP.matvec(cur)

    def test_no_solution(self):
        # b outside the Krylov space of a
        phi = Matrix(F5, [[1, 0], [0, 2]])
        got = solve_orbit_problem(OrbitProblemInstance(F5, phi, (1, 0), (0, 1)), CFG)
        assert got is None
        # exhaustive check over the full orbit
        cur = (1, 0)
        for _ in range(30):
            assert cur != (0, 1)
            cur = phi.matvec(cur)

    def test_krylov_dimension_bound_and_result_range(self):
        rng = random.Random(5)
        for _ in range(60):
            d = rng.randrange(1, 4)
            F = field_of_size(rng.choice([3, 5, 9]))
            phi = rand_invertible(F, d, rng)
            a = tuple(F.rand(rng) for _ in range(d))
            t_star = rng.randrange(200)
            b = (phi ** t_star).matvec(a)
            t = solve_orbit_problem(OrbitProblemInstance(F, phi, a, b), CFG)
            assert t is not None and (phi ** t).matvec(a) == b
            assert t <= t_star

    def test_non_unit_target(self):
        # b = 2a - Phi a lies in the Krylov space, but c_b = 2 - x shares
        # the factor x - 2 with f = (x - 1)(x - 2), so it is not a power of x
        phi = Matrix(F5, [[1, 0], [0, 2]])
        assert solve_orbit_problem(OrbitProblemInstance(F5, phi, (1, 1), (1, 0)), CFG) is None

    def test_repeated_factors(self):
        # f = (x - 3)^3: ord(x) = ord(3) * 5 = 20
        J = Matrix(F5, [[3, 1, 0], [0, 3, 1], [0, 0, 3]])
        a = (0, 0, 1)
        assert _orbit_problem_set(OrbitProblemInstance(F5, J, a, a), CFG) == SolutionSet.progression(0, 20)
        cur = a
        for t in range(400):
            got = solve_orbit_problem(OrbitProblemInstance(F5, J, a, cur), CFG)
            assert got is not None and got <= t and (J ** got).matvec(a) == cur
            cur = J.matvec(cur)
        # f = (x - 1)^3 over F_4: ord(x) = 4
        F4 = field_of_size(4)
        one, zero = F4.one, F4.zero
        U = Matrix(F4, [[one, one, zero], [zero, one, one], [zero, zero, one]])
        a4 = (zero, zero, one)
        assert _orbit_problem_set(OrbitProblemInstance(F4, U, a4, a4), CFG) == SolutionSet.progression(0, 4)
        # f = (x - 3)^3 (x - 2) (x^2 + 2) (x^2 + x + 1)^2 over F_5: a root, the
        # field F_25 and two repeated factors, recombined by CRT;
        # ord(x) = lcm(20, 4, 8, 15) = 120
        blocks = [J, Matrix(F5, [[2]]), Matrix.companion(Poly(F5, [2, 0, 1])), Matrix.companion(Poly(F5, [1, 2, 3, 2, 1]))]
        n = sum(blk.nrows for blk in blocks)
        rows, at = [], 0
        for blk in blocks:
            rows += [[0] * at + list(r) + [0] * (n - at - blk.nrows) for r in blk.rows]
            at += blk.nrows
        phi = Matrix(F5, rows)
        a = (0, 0, 1, 1, 1, 0, 1, 0, 0, 0)
        factors = factor_poly(krylov(F5, phi.matvec, a)[0])
        assert sorted((u.degree(), k) for u, k in factors) == [(1, 1), (1, 3), (2, 1), (2, 2)]
        orbit = [a]
        while phi.matvec(orbit[-1]) != a:
            orbit.append(phi.matvec(orbit[-1]))
        assert len(orbit) == 120
        assert _orbit_problem_set(OrbitProblemInstance(F5, phi, a, a), CFG) == SolutionSet.progression(0, 120)
        for t, b in enumerate(orbit):
            assert solve_orbit_problem(OrbitProblemInstance(F5, phi, a, b), CFG) == t
            # the other blocks pin t mod 120, so the x - 2 block one step
            # ahead is off the orbit
            off = b[:3] + (2 * b[3] % 5,) + b[4:]
            assert solve_orbit_problem(OrbitProblemInstance(F5, phi, a, off), CFG) is None
        rng = random.Random(8)
        for _ in range(200):
            # a random point of the Krylov space: in the orbit or not
            b = tuple(sum(rng.randrange(5) * v[i] for v in orbit[:10]) % 5 for i in range(n))
            want = orbit.index(b) if b in orbit else None
            assert solve_orbit_problem(OrbitProblemInstance(F5, phi, a, b), CFG) == want

    @pytest.mark.parametrize("q", [65521, 65536])
    @pytest.mark.parametrize("n", [4, 9])
    def test_beyond_brute_force_scale(self, q, n):
        rng = random.Random(f"orbit-scale-{q}-{n}")
        F = field_of_size(q)
        phi = rand_upper_triangular(F, n, rng)
        a = tuple(F.rand(rng) for _ in range(n))
        t_star = rng.randrange(1 << 40)
        opi = OrbitProblemInstance(F, phi, a, (phi ** t_star).matvec(a))
        sol = _orbit_problem_set(opi, SolverConfig(oracle="bsgs"))
        assert sol.contains(t_star)
        assert _orbit_problem_set(opi, SolverConfig(oracle="rho")) == sol

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
        n=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        t_star=st.integers(0, 499),
    )
    def test_matches_orbit_walk(self, q, n, seed, t_star):
        rng = random.Random(seed)
        F = field_of_size(q)
        phi = rand_invertible(F, n, rng)
        a = tuple(F.rand(rng) for _ in range(n))
        b = (phi ** t_star).matvec(a)
        t = solve_orbit_problem(OrbitProblemInstance(F, phi, a, b), CFG)
        assert t is not None and t <= t_star and (phi ** t).matvec(a) == b
        # Phi is invertible, so the orbit of a is a pure cycle through a
        orbit = [a]
        cur = phi.matvec(a)
        while cur != a:
            orbit.append(cur)
            cur = phi.matvec(cur)
        b = tuple(F.rand(rng) for _ in range(n))
        want = orbit.index(b) if b in orbit else None
        assert solve_orbit_problem(OrbitProblemInstance(F, phi, a, b), CFG) == want


class TestDiagonalSplit:
    """An upper-triangular Phi over a prime field splits f over its diagonal
    (`solvers._diagonal_factors`) in place of Cantor-Zassenhaus; the split
    must be factor_poly's answer, and the orbit problem's answer must not
    depend on the route."""

    @staticmethod
    def _triangular(F, diag, rng):
        d = len(diag)
        return Matrix(F, [[0] * i + [diag[i]] + [F.rand(rng) for _ in range(i + 1, d)] for i in range(d)])

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        p=st.sampled_from([2, 3, 5, 65521, 2**31 - 1]),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        target=st.sampled_from(["orbit", "krylov", "random"]),
    )
    def test_split_matches_factor_poly_and_brute_force(self, p, d, seed, target):
        rng = random.Random(seed)
        F = PrimeField(p)
        pool = [0, 1] + [rng.randrange(2, p) for _ in range(2) if p > 2]
        phi = self._triangular(F, [rng.choice(pool) for _ in range(d)], rng)
        a = tuple(F.rand(rng) for _ in range(d))
        if any(a):
            f = krylov(F, phi.matvec, a)[0]
            assert solvers._diagonal_factors(f, phi) == factor_poly(f)
        if not phi.is_invertible():
            return
        t_star = rng.randrange(1 << 40)
        if target == "orbit":
            b = (phi**t_star).matvec(a)
        elif target == "krylov":  # in the Krylov space of a, in the orbit or not
            b = tuple(map(F.add, (phi**t_star).matvec(a), phi.matvec(a)))
        else:
            b = tuple(F.rand(rng) for _ in range(d))
        opi = OrbitProblemInstance(F, phi, a, b)
        got = _orbit_problem_set(opi, CFG)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_diagonal_factors", lambda f, phi: factor_poly(f, seed=CFG.seed))
            assert _orbit_problem_set(opi, CFG) == got
        if target == "orbit":
            assert got.contains(t_star)
        if p <= 5:
            # Phi is invertible, so the orbit of a is a pure cycle through a
            orbit = [a]
            while phi.matvec(orbit[-1]) != a:
                orbit.append(phi.matvec(orbit[-1]))
            want = SolutionSet.progression(orbit.index(b), len(orbit)) if b in orbit else SolutionSet.empty()
            assert got == want

    def test_leftover_raises_without_assert(self):
        # (x^2 + 2) is irreducible over F_5, so it cannot come off the
        # diagonal of the identity; the check holds under python -O too
        f = Poly(F5, [2, 0, 1])
        with pytest.raises(InternalAssertionError, match="diagonal"):
            solvers._diagonal_factors(f, Matrix.identity(F5, 2))

    def test_factor_poly_only_off_the_triangle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factor_poly called on a triangular map")

        rng = random.Random(3)
        phi = rand_upper_triangular(F5, 4, rng)
        a = (1, 2, 3, 4)
        b = (phi**77).matvec(a)
        want = _orbit_problem_set(OrbitProblemInstance(F5, phi, a, b), CFG)
        monkeypatch.setattr(solvers, "factor_poly", refuse)
        assert _orbit_problem_set(OrbitProblemInstance(F5, phi, a, b), CFG) == want
        comp = Matrix.companion(Poly(F5, [1, 1, 1]))
        with pytest.raises(AssertionError, match="triangular"):
            _orbit_problem_set(OrbitProblemInstance(F5, comp, (1, 0), (0, 1)), CFG)


def _least_inner_k_by_order(sigma, max_k):
    """The least k | ord(sigma), k <= max_k, with sigma^k a conjugation, by
    the scan over the exact order; None when there is none."""
    G = sigma.group
    gens = G.generators()
    for k in integers.divisors_ascending(dict(endo_order(sigma))):
        if k > max_k:
            break
        try:
            find_conjugator(gens, [sigma.pow(k).apply(x) for x in gens], G.d, G.field)
        except NotApplicableError:
            continue
        return k
    return None


class _OpaqueEndo(Endo):
    """An endo kind the order oracles do not know: it delegates to another
    endo, so `endo_order_multiple` has no multiple for it."""

    def __init__(self, inner):
        super().__init__(inner.group)
        self.inner = inner

    def apply(self, x):
        return self.inner.apply(x)

    def pow(self, k):
        return _OpaqueEndo(self.inner.pow(k))

    def compose(self, other):
        return _OpaqueEndo(self.inner.compose(other.inner))

    def is_automorphism(self):
        return self.inner.is_automorphism()


def _count_calls(monkeypatch, module, name, arg=None):
    """Replace module.name by a spy; the returned list grows by one entry per
    call (per call whose first argument is `arg`, when it is given)."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        if arg is None or args[0] == arg:
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _matrix_inner_k(inst, cfg):
    """The k that solve(..., "matrix-inner") traces, or None when it
    declines for want of an inner power."""
    try:
        solve(inst, cfg, "matrix-inner")
    except NotApplicableError as err:
        assert "no inner power" in str(err)
        return None
    hits = [r for r in cfg.trace if r["kind"] == "matrix-inner"]
    assert len(hits) == 1
    return hits[0]["k"]


class TestSolveMatrixInner:
    def test_inner_k1_forward(self):
        x = Matrix(F5, [[1, 1], [0, 1]])
        c = Matrix(F5, [[2, 1], [0, 1]])
        G, sigma = sigma_closed_matrix_group(F5, 2, [x], c)
        g = x
        h = rho_pow(g, sigma, 9)
        inst = SdlpInstance(G, sigma, g, h)
        got = solve_matrix_inner(inst, CFG)
        assert got.contains(9) and got == brute_solve(inst, CFG)

    def test_only_square_inner(self, monkeypatch):
        # inversion on an abelian matrix group: x ~ x^{-1} fails when
        # det(x)^2 != 1, but sigma^2 = id is conjugation by I. k = 1 has no
        # conjugator, so the scan computes sigma's order multiple, once
        x = Matrix(F5, [[1, 1], [1, 3]])  # symmetric, det 2
        G = MatrixGroup(F5, 2, [x])
        sigma = table_endo(G, lambda m: m.inverse())
        cfg = SolverConfig()
        h = rho_pow(x, sigma, 7)
        inst = SdlpInstance(G, sigma, x, h)
        multiples = _count_calls(monkeypatch, solvers, "endo_order_multiple")
        got = solve_matrix_inner(inst, cfg)
        assert len(multiples) == 1
        assert got.contains(7) and got == brute_solve(inst, cfg)
        hits = [t for t in cfg.trace if t["kind"] == "matrix-inner"]
        assert hits and hits[-1]["k"] == 2
        assert _matrix_inner_k(inst, cfg) == _least_inner_k_by_order(sigma, cfg.matrix_inner_max_k) == 2

    def test_conjugation_reads_no_multiple(self, monkeypatch):
        # sigma is a conjugation, so k = 1 takes its own matrix: no order
        # multiple, no intertwiner and no draw
        rng = random.Random(28)
        G, sigma = workloads.small_matrix_group(rng, 7, 3)
        g = G.rand_element(rng)
        inst = SdlpInstance(G, sigma, g, rho_pow(g, sigma, 1 << 40))
        multiples = _count_calls(monkeypatch, solvers, "endo_order_multiple")
        bases = _count_calls(monkeypatch, solvers, "_intertwiner_basis")
        draws = _count_calls(monkeypatch, solvers, "_draw_conjugator")
        cfg = SolverConfig()
        assert solve_matrix_inner(inst, cfg).contains(1 << 40)
        assert multiples == bases == draws == []
        assert [r for r in cfg.trace if r["kind"] == "matrix-inner"] == [{"kind": "matrix-inner", "k": 1, "lifted": None}]

    def test_unknown_representation_answers_at_k1(self):
        # the order oracles have no multiple for this kind, but sigma itself
        # is inner, so the multiple is never asked for
        rng = random.Random(29)
        G, conj = workloads.small_matrix_group(rng, 5, 2)
        sigma = _OpaqueEndo(conj)
        with pytest.raises(NotApplicableError, match="no order multiple"):
            oracles.endo_order_multiple(sigma)
        g = G.rand_element(rng)
        for h in (rho_pow(g, conj, 12345), G.rand_element(rng)):
            cfg = SolverConfig()
            got = solve_matrix_inner(SdlpInstance(G, sigma, g, h), cfg)
            assert got == solve_matrix_inner(SdlpInstance(G, conj, g, h), CFG)
            assert [r["k"] for r in cfg.trace if r["kind"] == "matrix-inner"] == [1]

    def test_unknown_representation_declines_past_k1(self):
        # inversion on <x> is inner only at k = 2, and the scan past k = 1
        # needs the multiple this kind does not have
        x = Matrix(F5, [[1, 1], [1, 3]])
        G = MatrixGroup(F5, 2, [x])
        sigma = _OpaqueEndo(table_endo(G, lambda m: m.inverse()))
        with pytest.raises(NotApplicableError, match="no order multiple for this endomorphism representation"):
            solve_matrix_inner(SdlpInstance(G, sigma, x, x), CFG)

    def test_phi_columns_are_the_conjugated_basis(self, monkeypatch):
        # the closed-form Phi is the map Y -> g a^-1 Y a, column by column
        rng = random.Random(30)
        for q, d in [(5, 3), (4, 2), (9, 3)]:
            G, sigma = workloads.small_matrix_group(rng, q, d)
            g = G.rand_element(rng)
            seen = _count_calls(monkeypatch, solvers, "_orbit_problem_set")
            solve_matrix_inner(SdlpInstance(G, sigma, g, G.rand_element(rng)), CFG)
            F, a = G.field, sigma.a
            order = [(i, j) for i in range(d) for j in reversed(range(d))]
            cols = []
            for i, j in order:
                E = Matrix(F, [[F.one if (r, c) == (i, j) else F.zero for c in range(d)] for r in range(d)])
                M = g * (a.inverse() * E * a)
                cols.append(tuple(M.rows[r][c] for r, c in order))
            assert [opi.phi for opi, _ in seen] == [Matrix.from_columns(F, cols)]
            monkeypatch.undo()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        q=st.sampled_from([2, 3, 5]),
        d=st.sampled_from([2, 3]),
        kind=st.sampled_from(["sigma", "sigma^2", "power-map"]),
        max_k=st.sampled_from([1, 2, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_least_k_matches_the_scan_over_the_exact_order(self, q, d, kind, max_k, seed):
        # the scan over the multiple's divisors stops at the least inner
        # power, as the scan over ord(sigma)'s did. Conjugations on the
        # benchmark's small platforms (and their squares) are inner at k = 1;
        # x -> x^e on a cyclic matrix group <x> is inner at some k, or at
        # none within the bound, and then both scans decline
        rng = random.Random(seed)
        if kind == "power-map":
            F = PrimeField(q)
            x = rand_invertible(F, d, rng)
            G = MatrixGroup(F, d, [x])
            n = element_order(G, x)[0]
            e = rng.choice([e for e in range(1, n + 1) if math.gcd(e, n) == 1])
            sigma = table_endo(G, lambda m: G.pow(m, e))
        else:
            G, sigma = workloads.small_matrix_group(rng, q, d)
            sigma = sigma.pow(2) if kind == "sigma^2" else sigma
        inst = SdlpInstance(G, sigma, G.rand_element(rng), G.rand_element(rng))
        want = _least_inner_k_by_order(sigma, max_k)
        assert _matrix_inner_k(inst, SolverConfig(matrix_inner_max_k=max_k)) == want
        if kind != "power-map":
            assert want == 1

    def test_outside_orbit_is_empty(self):
        F3 = PrimeField(3)
        x = Matrix(F3, [[1, 1], [0, 1]])
        c = Matrix(F3, [[2, 1], [0, 1]])
        G, sigma = sigma_closed_matrix_group(F3, 2, [x], c)
        values, _, _ = orbit_walk(x, sigma, 1 << 12)
        labels = {G.label(v) for v in values}
        pool = mulclose(G, [x, Matrix(F3, [[2, 0], [0, 1]]), Matrix(F3, [[1, 0], [1, 1]])], cap=1 << 10)
        outside = next(m for m in pool if G.label(m) not in labels)
        inst = SdlpInstance(G, sigma, x, outside)
        assert solve_matrix_inner(inst, CFG).is_empty()
        assert brute_solve(inst, CFG).is_empty()

    def test_no_inner_power_within_bound(self):
        x = Matrix(F5, [[1, 1], [1, 3]])
        G = MatrixGroup(F5, 2, [x])
        sigma = table_endo(G, lambda m: m.inverse())
        inst = SdlpInstance(G, sigma, x, x)
        with pytest.raises(NotApplicableError, match="no inner power"):
            solve_matrix_inner(inst, SolverConfig(matrix_inner_max_k=1))

    def test_matches_brute(self):
        rng = random.Random(6)
        for _ in range(80):
            inst = random_matrix_instance(rng, d_max=2)
            try:
                want = brute_solve(inst, CFG)
            except NotApplicableError:
                continue
            assert solve_matrix_inner(inst, CFG) == want

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("d", [2, 3])
    def test_borel_layout_is_triangular(self, p, d, monkeypatch):
        # Phi(Y) = u Y a with u = g a^-1 and a upper triangular: in the
        # basis order (i ascending, j descending) Phi is upper triangular,
        # and its answers are the row-major layout's
        F = PrimeField(p)
        rng = random.Random(f"borel-layout-{p}-{d}")
        G = borel_group(F, d, rng)
        sigma = ConjugationEndo(G, rand_upper_triangular(F, d, rng))
        seen = []
        orbit_problem_set = solvers._orbit_problem_set

        def spy(opi, config):
            seen.append((opi, orbit_problem_set(opi, config)))
            return seen[-1][1]

        monkeypatch.setattr(solvers, "_orbit_problem_set", spy)
        order = [(i, j) for i in range(d) for j in reversed(range(d))]
        at = {ij: n for n, ij in enumerate(order)}
        row_major = [at[i, j] for i in range(d) for j in range(d)]
        for _ in range(3):
            g = G.rand_element(rng)
            inst = SdlpInstance(G, sigma, g, rho_pow(g, sigma, rng.randrange(1 << 12)))
            assert solve_matrix_inner(inst, CFG) == brute_solve(inst, SolverConfig(max_walk=1 << 16))
        assert seen
        for opi, got in seen:
            fld = opi.field  # F, or an extension the conjugator was found in
            assert opi.phi.is_upper_triangular()
            phi = Matrix(fld, [[opi.phi.rows[r][c] for c in row_major] for r in row_major])
            a, b = (tuple(v[n] for n in row_major) for v in (opi.a, opi.b))
            assert a == Matrix.identity(fld, d).flatten()
            assert orbit_problem_set(OrbitProblemInstance(fld, phi, a, b), CFG) == got


    @pytest.mark.parametrize("q, d", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 3)])
    def test_small_prime_fields_stay_unlifted(self, q, d):
        # q < 2d: no Schwartz-Zippel bound, but the draws over F_q find the
        # conjugator, so the orbit problems run over F_q
        rng = random.Random(f"unlifted-{q}-{d}")
        for _ in range(4):
            G, sigma = workloads.small_matrix_group(rng, q, d)
            g = G.rand_element(rng)
            for h in (rho_pow(g, sigma, rng.randrange(1 << 12)), G.rand_element(rng)):
                inst = SdlpInstance(G, sigma, g, h)
                cfg = SolverConfig()
                assert solve(inst, cfg, "matrix-inner") == brute_solve(inst, SolverConfig(max_walk=1 << 16))
                hits = [r for r in cfg.trace if r["kind"] == "matrix-inner"]
                assert len(hits) == 1 and hits[0]["lifted"] is None

    def test_no_benchmark_platform_lifts(self):
        workload = workloads.WORKLOADS["matrix-inner"]
        small = set()
        for part in range(3):
            for item in workloads.make_items(workload, 1, part, 3):
                inst = SdlpInstance(item.group, item.sigma, item.g, rho_pow(item.g, item.sigma, item.x))
                cfg = SolverConfig()
                assert solve(inst, cfg, "matrix-inner").contains(item.x)
                hits = [r for r in cfg.trace if r["kind"] == "matrix-inner"]
                assert len(hits) == 1 and hits[0]["lifted"] is None
                assert hits[0]["k"] == _least_inner_k_by_order(item.sigma, cfg.matrix_inner_max_k)
                fld = item.group.field
                if isinstance(fld, PrimeField) and fld.size < 2 * item.group.d:
                    small.add((fld.size, item.group.d))
        assert small == {(2, 2), (2, 3), (3, 2), (3, 3), (5, 3)}


# (q, d) of the metamorphic platforms below, all within 2^12 elements:
# GL_2(F_7) has 2016 and GL_3(F_2) 168. Over F_3 and up, the recipe's
# sigma-closed groups of 3 x 3 matrices are larger
SMALL_PLATFORM_SHAPES = [(q, d) for q in (2, 3, 4, 5, 7) for d in (1, 2)] + [(2, 3)]


class TestConjugationAsTable:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(shape=st.sampled_from(SMALL_PLATFORM_SHAPES), seed=st.integers(0, 2**32 - 1), t=st.integers(0, 2**28))
    def test_same_answer_from_either_representation(self, shape, seed, t):
        # one sigma, given once as its conjugation and once as the table of
        # the same action: the conjugation supplies its matrix, the table is
        # solved for one through the intertwiner space, and the answers and
        # the traced k agree
        q, d = shape
        rng = random.Random(seed)
        G, conj = workloads.small_matrix_group(rng, q, d)
        table = TableEndo(G, {G.label(x): conj.apply(x) for x in mulclose(G, cap=TableEndo.MAX_SIZE)}, check=False)
        g = G.rand_element(rng)
        h = rho_pow(g, conj, t) if t % 2 else G.rand_element(rng)
        got = {}
        with pytest.MonkeyPatch.context() as mp:
            for name, sigma in (("conjugation", conj), ("table", table)):
                calls = _count_calls(mp, solvers, "_intertwiner_basis")
                cfg = SolverConfig()
                sol = solve(SdlpInstance(G, sigma, g, h), cfg, "matrix-inner")
                ks = [r["k"] for r in cfg.trace if r["kind"] == "matrix-inner"]
                got[name] = (sol, ks, len(calls))
                mp.undo()
        assert got["conjugation"][:2] == got["table"][:2]
        assert got["conjugation"][1] == [1]
        assert got["conjugation"][2] == 0 and got["table"][2] >= 1
        if t % 2:
            assert got["table"][0].contains(t)


class TestSolveMaster:
    def _mixed_product(self, seed=7):
        rng = random.Random(seed)
        F9 = field_of_size(9)
        xm = rand_invertible(F9, 2, rng)
        cm = rand_invertible(F9, 2, rng)
        GM, sig_m = sigma_closed_matrix_group(F9, 2, [xm], cm)
        V = VectorGroup(5, 2)
        Mv = rand_invertible(F5, 2, rng)
        P = ProductGroup([V, GM])
        sigma = ProductEndo(P, [LinearMapEndo(V, Mv), ConjugationEndo(GM, cm)])
        g = (V.rand_element(rng), GM.rand_element(rng))
        chain = NormalChain(
            levels=[
                ChainLevel(
                    generators=[P.embed(0, v) for v in V.generators()],
                    psi=Hom(P, VectorGroup(5, 2), lambda x: x[0], description="vector part"),
                    tag="solvable",
                ),
                ChainLevel(generators=P.generators(), psi=P.project_hom(1), tag="matrix-inner"),
            ]
        )
        return P, sigma, g, chain, rng

    def test_single_level_equals_solvable(self):
        rng = random.Random(8)
        H = HeisenbergGroup(5)
        T = rand_upper_triangular(H.field, 3, rng)
        sigma = ConjugationEndo(H, T)
        g, h = H.rand_element(rng), H.rand_element(rng)
        chain = NormalChain(
            levels=[
                ChainLevel(
                    generators=H.generators() + [(0, 0, 1)],
                    psi=Hom(H, H, lambda x: x, description="id", is_identity=True),
                    tag="solvable",
                )
            ]
        )
        inst = SdlpInstance(H, sigma, g, h)
        got = solve_master(inst, chain, CFG)
        want = solve_solvable(SdlpInstance(H, ConjugationEndo(H, T), g, h), CFG)
        assert got == want == brute_solve(inst, CFG)
        # and the standard two-level chain agrees as well
        assert solve_master(inst, heisenberg_chain(H), CFG) == want

    def test_two_decompositions_agree(self):
        rng = random.Random(9)
        for _ in range(25):
            H = HeisenbergGroup(7)
            T = rand_upper_triangular(H.field, 3, rng)
            sigma = ConjugationEndo(H, T)
            g, h = H.rand_element(rng), H.rand_element(rng)
            inst = SdlpInstance(H, sigma, g, h)
            chain = heisenberg_chain(H)
            a = solve_master(inst, chain, CFG)
            chain_small = heisenberg_chain(H)
            chain_small.levels[0].tag = "small"
            b = solve_master(inst, chain_small, CFG)
            c = brute_solve(inst, CFG)
            assert a == b == c

    def test_mixed_solvable_matrix_chain(self):
        P, sigma, g, chain, rng = self._mixed_product()
        h = rho_pow(g, sigma, 13)
        inst = SdlpInstance(P, sigma, g, h)
        got = solve_master(inst, chain, CFG)
        assert got.contains(13)
        assert got == brute_solve(inst, SolverConfig(max_walk=1 << 18))

    def test_level_error_is_attributed(self):
        H = HeisenbergGroup(5)
        T = Matrix(H.field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        sigma = ConjugationEndo(H, T)
        chain = heisenberg_chain(H)
        chain.levels[1].tag = "matrix-inner"  # wrong tag for a vector image
        inst = SdlpInstance(H, sigma, (1, 0, 0), (1, 0, 0))
        with pytest.raises((SdlpError, NotApplicableError), match="chain level 2"):
            solve_master(inst, chain, CFG)


class TestAutoDispatch:
    def test_product_with_endomorphism_components(self):
        # componentwise reduction must kick in before the automorphism check
        rng = random.Random(20)
        F3 = PrimeField(3)
        for _ in range(40):
            C = CyclicGroup(rng.randrange(2, 24))
            V = VectorGroup(3, 2)
            P = ProductGroup([C, V])
            M = Matrix(F3, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])
            sigma = ProductEndo(P, [PowerMapEndo(C, rng.randrange(C.n)), LinearMapEndo(V, M)])
            inst = SdlpInstance(P, sigma, P.rand_element(rng), P.rand_element(rng))
            assert solve(inst, CFG) == brute_solve(inst, CFG)

    def test_table_endomorphism_restriction(self):
        # non-bijective table: the stable-image restriction is re-tabulated
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randrange(4, 48)
            C = CyclicGroup(n)
            e = rng.randrange(n)
            sigma = table_endo(C, lambda x, e=e: e * x % n)
            inst = SdlpInstance(C, sigma, C.rand_element(rng), C.rand_element(rng))
            assert solve(inst, CFG) == brute_solve(inst, CFG)

    def test_families_match_brute(self):
        rng = random.Random(10)
        makers = [
            lambda: random_cyclic_instance(rng),
            lambda: random_vector_instance(rng, automorphism=False, d_max=3),
            lambda: random_vector_instance(rng, automorphism=True, d_max=3),
            lambda: random_heisenberg_instance(rng, p_choices=(3, 5)),
            lambda: random_matrix_instance(rng, q_choices=(2, 3, 4, 5), d_max=2),
        ]
        for i in range(150):
            inst = makers[i % len(makers)]()
            try:
                want = brute_solve(inst, CFG)
            except NotApplicableError:
                continue
            assert solve(inst, CFG) == want

    def test_declines_are_recorded(self):
        # sigma has order 2048 > 1024: small-order declines, and the cyclic
        # chain descends its 13 layers Z_2
        C = CyclicGroup(8192)
        cfg = SolverConfig()
        inst = SdlpInstance(C, PowerMapEndo(C, 3), 1, 5)
        assert solve(inst, cfg) == SolutionSet.progression(3623, 4096)
        assert cfg.trace[0] == {"kind": "declined", "solver": "small-order", "reason": "automorphism order too large"}
        assert [step["kind"] for step in cfg.trace[1:]] == ["quotient-recursion", "quotient-recursion-descend"] * 13
        assert {step.get("image") for step in cfg.trace[1::2]} == {"Vector(2,1)"}

    def test_matrix_group_tries_matrix_inner_first(self):
        # U_2(F_2053) under conjugation by diag(1, 2), of order 2052 > 1024:
        # matrix-inner takes sigma's own matrix at k = 1, so small-order
        # never runs and nothing declines
        F = PrimeField(2053)
        x = Matrix(F, [[1, 1], [0, 1]])
        G = MatrixGroup(F, 2, [x])
        sigma = ConjugationEndo(G, Matrix(F, [[1, 0], [0, 2]]))
        assert ensure_endo_order(sigma) == 2052
        t_star = 1_000_003
        inst = SdlpInstance(G, sigma, x, rho_pow(x, sigma, t_star))
        cfg = SolverConfig()
        got = solve(inst, cfg, "auto")
        assert cfg.trace[:2] == [
            {"kind": "matrix-inner", "k": 1, "lifted": None},
            {"kind": "power-shift", "k": 1},
        ]
        assert all(step["kind"] != "declined" for step in cfg.trace)
        assert got.contains(t_star) and got == solve(inst, SolverConfig(), "matrix-inner")

    def test_matrix_group_reads_no_order_multiple(self, monkeypatch):
        # a conjugation over the group's own field is its own inner power:
        # no order multiple of sigma or of its matrix is read
        F = PrimeField(2053)
        x = Matrix(F, [[1, 1], [0, 1]])
        G = MatrixGroup(F, 2, [x])
        sigma = ConjugationEndo(G, Matrix(F, [[1, 0], [0, 2]]))
        inst = SdlpInstance(G, sigma, x, rho_pow(x, sigma, 1_000_003))
        calls = _count_calls(monkeypatch, oracles, "matrix_order_multiple")
        assert solve(inst, SolverConfig(), "auto").contains(1_000_003)
        assert len(calls) == 0

    def test_matrix_group_falls_back_to_small_order(self):
        # inversion on <x> over F_5 is inner only at k = 2; with the scan
        # bound at 1, matrix-inner declines and small-order shifts by
        # ord(sigma) = 2
        x = Matrix(F5, [[1, 1], [1, 3]])
        G = MatrixGroup(F5, 2, [x])
        sigma = table_endo(G, lambda m: m.inverse())
        inst = SdlpInstance(G, sigma, x, rho_pow(x, sigma, 7))
        cfg = SolverConfig(matrix_inner_max_k=1)
        got = solve(inst, cfg, "auto")
        assert cfg.trace == [
            {"kind": "declined", "solver": "matrix-inner", "reason": "no inner power within bound"},
            {"kind": "power-shift", "k": 2},
        ]
        assert got.contains(7) and got == brute_solve(inst, cfg)

    def test_matrix_group_walks_the_orbit_when_both_decline(self, monkeypatch):
        # the same instance with small-order's bound below ord(sigma) = 2:
        # both decline, and the orbit walk answers
        x = Matrix(F5, [[1, 1], [1, 3]])
        G = MatrixGroup(F5, 2, [x])
        sigma = table_endo(G, lambda m: m.inverse())
        inst = SdlpInstance(G, sigma, x, rho_pow(x, sigma, 7))
        cfg = SolverConfig(matrix_inner_max_k=1, small_order_bound=1)
        walks = _count_calls(monkeypatch, solvers, "_solve_brute")
        got = solve(inst, cfg, "auto")
        assert cfg.trace == [
            {"kind": "declined", "solver": "matrix-inner", "reason": "no inner power within bound"},
            {"kind": "declined", "solver": "small-order", "reason": "automorphism order too large"},
        ]
        assert len(walks) == 1
        assert got.contains(7) and got == brute_solve(inst, SolverConfig())

    def test_matrix_routes_agree(self):
        # auto (now matrix-inner first), matrix-inner and small-order are
        # three routes to one answer on sigma-closed groups up to GL_3(F_9)
        rng = random.Random("matrix-routes")
        for i in range(40):
            inst = random_matrix_instance(rng, q_choices=(2, 3, 4, 5, 7, 8, 9), d_max=3)
            if i % 2:  # a target on the orbit, so half the answers are not empty
                inst = SdlpInstance(inst.group, inst.sigma, inst.g, rho_pow(inst.g, inst.sigma, rng.randrange(1, 300)))
            want = brute_solve(inst, CFG)
            for solver in ("auto", "matrix-inner", "small-order"):
                assert solve(inst, SolverConfig(), solver) == want, (solver, inst)

    def test_composite_cyclic_factors_n_once(self, monkeypatch):
        # small-order's order multiple and the cyclic chain read the one
        # factorization the group keeps
        n = 4294967291 * 4294967279
        C = CyclicGroup(n)
        sigma = PowerMapEndo(C, 3)
        t_star = 987654321987
        inst = SdlpInstance(C, sigma, 5, rho_pow(5, sigma, t_star))
        calls = _count_calls(monkeypatch, integers, "factorize", arg=n)
        cfg = SolverConfig()
        assert solve(inst, cfg, "auto").contains(t_star)
        assert cfg.trace[0] == {"kind": "declined", "solver": "small-order", "reason": "automorphism order too large"}
        assert len(calls) == 1

    def test_each_solve_starts_a_fresh_trace(self):
        H = HeisenbergGroup(7)
        sigma = ConjugationEndo(H, Matrix(H.field, [[3, 2, 1], [0, 2, 4], [0, 0, 5]]))
        inst = SdlpInstance(H, sigma, (1, 2, 3), (5, 1, 0), chain=heisenberg_chain(H))
        cfg = SolverConfig()
        solve(inst, cfg)
        first = len(cfg.trace)
        solve(inst, cfg)
        assert first > 0 and len(cfg.trace) == first

    @pytest.mark.parametrize("solver", ["auto", "master", "solvable", "matrix-inner", "small-order"])
    def test_solve_leaves_its_instance_unchanged(self, solver):
        # nothing is cached on sigma, so a second solve sees the same input
        rng = random.Random(f"no-mutation-{solver}")
        for _ in range(6):
            if solver == "small-order":
                # a table automorphism of order > 1: the shift inverts it
                n = rng.randrange(3, 60)
                C = CyclicGroup(n)
                e = rng.choice([u for u in range(2, n) if math.gcd(u, n) == 1])
                sigma = table_endo(C, lambda x, e=e, n=n: e * x % n)
                inst = SdlpInstance(C, sigma, C.rand_element(rng), C.rand_element(rng))
            elif solver in ("auto", "matrix-inner"):
                inst = random_matrix_instance(rng, q_choices=(3, 4, 5), d_max=2)
            else:
                inst = random_heisenberg_instance(rng, p_choices=(5, 7))
                if solver == "master":
                    inst.chain = heisenberg_chain(inst.group)
            before = dict(vars(inst.sigma))
            first = solve(inst, SolverConfig(), solver)
            assert vars(inst.sigma) == before
            assert solve(inst, SolverConfig(), solver) == first
            assert vars(inst.sigma) == before

    def test_unknown_solver_rejected(self):
        rng = random.Random(11)
        inst = random_cyclic_instance(rng)
        with pytest.raises(SdlpError):
            solve(inst, CFG, solver="nonsense")


def _heisenberg_master_instance(p=65521, t=123456):
    grp, sigma, g = heisenberg_instance(p, seed=1)
    return SdlpInstance(grp, sigma, g, rho_pow(g, sigma, t), chain=heisenberg_chain(grp))


# the public face of each solver name; "auto" and "brute" are reached through
# solve alone (brute_solve is the unchecked reference)
FACES = {
    "small-order": solve_small_order,
    "elem-abelian": solve_elementary_abelian,
    "solvable": solve_solvable,
    "matrix-inner": solve_matrix_inner,
    "master": lambda inst, config: solve_master(inst, inst.chain, config),
}


class TestCheckOnce:
    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_a_wrong_core_answer_is_caught(self, name, monkeypatch):
        inst = _heisenberg_master_instance(p=7, t=4)
        assert inst.group.label(inst.h) != inst.group.label(inst.group.identity)
        monkeypatch.setitem(solvers._SOLVERS, name, lambda inst, config: SolutionSet.singleton(0))
        with pytest.raises(InternalAssertionError):
            solve(inst, SolverConfig(), name)
        if name in FACES:
            with pytest.raises(InternalAssertionError):
                FACES[name](inst, SolverConfig())

    def test_a_wrong_level_answer_is_caught_by_the_kernel_check(self, monkeypatch):
        real = solvers._SOLVERS["solvable"]

        def off_by_one(q_inst, config):
            sol = real(q_inst, config)
            return SolutionSet.progression(sol.t0 + 1, sol.period)

        monkeypatch.setitem(solvers._SOLVERS, "solvable", off_by_one)
        with pytest.raises(InternalAssertionError, match="chain level 2: follow-up elements fell outside the kernel"):
            solve(_heisenberg_master_instance(), SolverConfig(), "master")

    def test_a_wrong_factor_answer_is_caught_not_emptied(self, monkeypatch):
        # both factors have period 10, so shifting one factor's answer by 1
        # leaves the intersection empty: only the per-factor check sees it
        C = CyclicGroup(11)
        P = ProductGroup([C, C])
        sigma = ProductEndo(P, [PowerMapEndo(C, 2), PowerMapEndo(C, 2)])
        inst = SdlpInstance(P, sigma, (1, 1), rho_pow((1, 1), sigma, 7))
        assert solve(inst, SolverConfig()) == SolutionSet.progression(7, 10)
        real = solvers._solve_auto
        factors_seen = []

        def wrong_first_factor(sub, config):
            sol = real(sub, config)
            factors_seen.append(sub)
            if len(factors_seen) == 1:
                return SolutionSet.progression(sol.t0 + 1, sol.period)
            return sol

        monkeypatch.setattr(solvers, "_solve_auto", wrong_first_factor)
        with pytest.raises(InternalAssertionError):
            solve(inst, SolverConfig())

    def test_one_check_per_solve(self, monkeypatch):
        real = solvers._verified
        checked = []

        def counting(inst, sol):
            checked.append(inst)
            return real(inst, sol)

        monkeypatch.setattr(solvers, "_verified", counting)
        inst = _heisenberg_master_instance()
        assert solve(inst, SolverConfig(), "master").contains(123456)
        assert checked == [inst]

    def test_a_public_solver_starts_a_fresh_trace(self):
        inst = _heisenberg_master_instance()
        cfg = SolverConfig()
        solve_solvable(inst, cfg)
        first = len(cfg.trace)
        solve_solvable(inst, cfg)
        assert first > 0 and len(cfg.trace) == first

    def test_solve_master_leaves_the_instance_chain_alone(self):
        inst = _heisenberg_master_instance()
        chain, inst.chain = inst.chain, None
        assert solve_master(inst, chain, CFG).contains(123456)
        assert inst.chain is None


class TestCrtPair:
    """`integers.crt_pair` for any moduli, and the intersection of two
    progressions built on it, against a brute-force search."""

    def test_non_coprime_and_inconsistent_pairs(self):
        assert integers.crt_pair(1, 4, 3, 6) == (9, 12)
        assert integers.crt_pair(1, 4, 2, 6) is None  # 1 and 2 differ mod gcd 2
        assert integers.crt_pair(5, 7, 5, 7) == (5, 7) and integers.crt_pair(3, 1, 0, 1) == (0, 1)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(m1=st.integers(1, 60), m2=st.integers(1, 60), r1=st.integers(0, 119), r2=st.integers(0, 119))
    def test_matches_a_brute_force_search(self, m1, m2, r1, r2):
        lcm = m1 * m2 // math.gcd(m1, m2)
        hits = [x for x in range(lcm) if (x - r1) % m1 == 0 and (x - r2) % m2 == 0]
        assert integers.crt_pair(r1, m1, r2, m2) == ((hits[0], lcm) if hits else None)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(m1=st.integers(1, 60), m2=st.integers(1, 60), t1=st.integers(0, 119), t2=st.integers(0, 119))
    def test_progressions_meet_from_the_later_start(self, m1, m2, t1, t2):
        a, b = SolutionSet.progression(t1, m1), SolutionSet.progression(t2, m2)
        lcm = m1 * m2 // math.gcd(m1, m2)
        start = max(t1, t2)
        both = [t for t in range(start, start + lcm) if a.contains(t) and b.contains(t)]
        want = SolutionSet.progression(both[0], lcm) if both else SolutionSet.empty()
        assert solvers._intersect_two(a, b) == want
