import random

import pytest

from conftest import (
    group_order,
    random_heisenberg_instance,
    random_matrix_instance,
    random_vector_instance,
)
from sdlp.config import SolverConfig
from sdlp.errors import NoSolutionError, SdlpError
import sdlp.groups as groups
from sdlp.ff import PrimeField
from sdlp.groups import (
    CyclicGroup,
    LinearMapEndo,
    PowerMapEndo,
    ProductEndo,
    ProductGroup,
    SdlpInstance,
    VectorGroup,
    rho_pow,
)
from sdlp.linalg import Matrix, min_poly
from sdlp.oracles import orbit_walk
from sdlp.protocol import (
    draw_secrets,
    heisenberg_chain,
    heisenberg_instance,
    spdke_attack,
    spdke_exchange,
)
from sdlp.solvers import brute_solve, solve, solve_master

CFG = SolverConfig()


class TestExchange:
    def test_x_y_one(self):
        G, sigma, g = heisenberg_instance(7, seed=0)
        tr = spdke_exchange(G, sigma, g, 1, 1)
        assert G.label(tr.A) == G.label(g) and G.label(tr.B) == G.label(g)
        assert G.label(tr.K_A) == G.label(G.mul(g, sigma.apply(g)))

    def test_key_is_rho_power(self):
        G, sigma, g = heisenberg_instance(7, seed=1)
        tr = spdke_exchange(G, sigma, g, 4, 9)
        assert G.label(tr.K_A) == G.label(rho_pow(g, sigma, 13))

    def test_keys_always_match(self):
        rng = random.Random(0)
        makers = [
            lambda: random_heisenberg_instance(rng, p_choices=(3, 5, 7, 11)),
            lambda: random_vector_instance(rng, automorphism=False),
            lambda: random_matrix_instance(rng, q_choices=(2, 3, 4, 5, 9), d_max=2),
        ]
        for i in range(60):
            inst = makers[i % len(makers)]()
            x, y = rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16)
            tr = spdke_exchange(inst.group, inst.sigma, inst.g, x, y)
            assert inst.group.label(tr.K_A) == inst.group.label(tr.K_B)

    @pytest.mark.parametrize(
        "rows, g",
        [
            ([[0, 0, 0], [0, 2, 0], [0, 0, 3]], (1, 1, 0)),  # singular B, g in a proper invariant subspace
            ([[2, 1, 0], [0, 3, 4], [0, 0, 4]], (1, 0, 0)),  # g an eigenvector of B
        ],
    )
    def test_one_min_poly_per_exchange(self, rows, g, monkeypatch):
        # the Krylov annihilator of (0, ..., 0, 1) has degree below d + 1, so
        # sigma^x and sigma^y each need min_poly(B): it is found once
        V = VectorGroup(5, 3)
        sigma = LinearMapEndo(V, Matrix(PrimeField(5), rows))
        calls = []
        monkeypatch.setattr(groups, "min_poly", lambda B: calls.append(B) or min_poly(B))
        x, y = 40_000, 54_321
        tr = spdke_exchange(V, sigma, g, x, y)
        assert len(calls) == 1
        assert tr.K_A == tr.K_B == rho_pow(g, sigma, x + y)
        # a direct product passes the sharing on to each linear component
        P = ProductGroup([V, CyclicGroup(16)])
        calls.clear()
        tr = spdke_exchange(P, ProductEndo(P, [sigma, PowerMapEndo(P.factors[1], 3)]), (g, 5), x, y)
        assert len(calls) == 1
        assert tr.K_A == tr.K_B

    def test_rejects_nonpositive_secrets(self):
        G, sigma, g = heisenberg_instance(5, seed=2)
        with pytest.raises(SdlpError):
            spdke_exchange(G, sigma, g, 0, 3)


class TestAttack:
    def test_recovers_exchange_key(self):
        G, sigma, g = heisenberg_instance(7, seed=3)
        tr = spdke_exchange(G, sigma, g, 4, 9)
        key, x_prime = spdke_attack(tr.public_part(), CFG)
        assert G.label(key) == G.label(tr.K_A)

    def test_exact_secret_small_instance(self):
        C = CyclicGroup(64)
        sigma = PowerMapEndo(C, 3)
        g = 1
        tr = spdke_exchange(C, sigma, g, 5, 6)
        key, x_prime = spdke_attack(tr.public_part(), CFG, solver="brute")
        assert C.label(key) == C.label(tr.K_A)
        want = brute_solve(SdlpInstance(C, sigma, g, tr.A), CFG)
        assert x_prime == want.smallest()

    def test_tampered_transcript(self):
        G, sigma, g = heisenberg_instance(5, seed=4)
        values, _, _ = orbit_walk(g, sigma, 10 ** 6)
        labels = {G.label(v) for v in values}
        bad = next(
            (a, b, c)
            for a in range(5)
            for b in range(5)
            for c in range(5)
            if (a, b, c) not in labels
        )
        tr = spdke_exchange(G, sigma, g, 3, 4)
        pub = tr.public_part()
        pub.A = bad
        with pytest.raises(NoSolutionError, match="no solution"):
            spdke_attack(pub, CFG)

    def test_least_solution_zero(self):
        # A = 1_G gives x' = 0: the answer check takes rho^0(1) = 1_G with
        # no power, and sigma^0 is the identity, so the key is A B
        C = CyclicGroup(8)
        tr = spdke_exchange(C, PowerMapEndo(C, 1), 1, 8, 3)
        assert tr.A == 0
        key, x_prime = spdke_attack(tr.public_part(), CFG)
        assert x_prime == 0 and key == tr.K_A == 3

    def test_any_class_representative_recovers_key(self):
        rng = random.Random(5)
        for _ in range(20):
            inst = random_heisenberg_instance(rng, p_choices=(3, 5, 7))
            x, y = draw_secrets(inst.group, inst.sigma, inst.g, rng)
            tr = spdke_exchange(inst.group, inst.sigma, inst.g, x, y)
            key, x_prime = spdke_attack(tr.public_part(), CFG)
            assert inst.group.label(key) == inst.group.label(tr.K_A)


class TestHeisenbergInstance:
    def test_p3_order_and_exponent(self):
        G, sigma, g = heisenberg_instance(3, seed=0)
        assert group_order(G) == 27
        for x in G.elements():
            assert G.is_identity(G.pow(x, 3))

    def test_end_to_end_with_master(self):
        G, sigma, g = heisenberg_instance(7, seed=1)
        chain = heisenberg_chain(G)
        x, y = 4, 9
        tr = spdke_exchange(G, sigma, g, x, y)
        inst = SdlpInstance(G, sigma, g, tr.A, chain=chain)
        sol = solve_master(inst, chain, CFG)
        assert sol.contains(x)
        key, _ = spdke_attack(tr.public_part(), CFG, solver="solvable")
        assert G.label(key) == G.label(tr.K_A)

    def test_central_g_degenerates_to_center_dlog(self):
        G, sigma, _ = heisenberg_instance(11, seed=2)
        g = (0, 0, 5)  # central
        h = rho_pow(g, sigma, 7)
        inst = SdlpInstance(G, sigma, g, h)
        got = solve(inst, CFG)
        assert got.contains(7)
        assert got == brute_solve(inst, CFG)

    def test_deterministic_given_seed(self):
        a = heisenberg_instance(13, seed=9)
        b = heisenberg_instance(13, seed=9)
        assert a[1].a == b[1].a and a[2] == b[2]
