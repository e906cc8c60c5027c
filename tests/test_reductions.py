import math
import random

import pytest

from conftest import (
    group_order,
    rand_invertible,
    rand_upper_triangular,
    random_cyclic_instance,
    random_heisenberg_instance,
    random_matrix_instance,
    random_vector_instance,
    table_endo,
    with_forward_h,
)
from sdlp.config import SolverConfig
from sdlp.ff import PrimeField
from sdlp.groups import (
    CyclicGroup,
    HeisenbergGroup,
    Hom,
    LinearMapEndo,
    MatrixGroup,
    PowerMapEndo,
    SdlpInstance,
    SolutionSet,
    VectorGroup,
    ConjugationEndo,
    rho_pow,
    rho_pow_inverse_apply,
)
from sdlp.linalg import Matrix
from sdlp.oracles import orbit_index_period, orbit_walk
from sdlp.reductions import (
    recurse_through_quotient,
    reduce_to_automorphism_case,
    shift_to_power,
)
from sdlp.solvers import brute_solve, solve, solve_elementary_abelian

F5 = PrimeField(5)


class TestReduceToAutomorphismCase:
    def test_automorphism_passes_through(self):
        C = CyclicGroup(8)
        inst = SdlpInstance(C, PowerMapEndo(C, 3), 1, 5)
        sub, recombine = reduce_to_automorphism_case(inst)
        assert sub is inst
        marker = SolutionSet.progression(2, 4)
        assert recombine(marker) == marker

    def test_cyclic8_cycle_hit(self):
        # orbit of rho(x) = 1 + 2x from 0 is 0,1,3,7,7,...; 7 sits at the
        # cycle start, so the solution set is the full progression {3+k}
        C = CyclicGroup(8)
        inst = SdlpInstance(C, PowerMapEndo(C, 2), 1, 7)
        sub, recombine = reduce_to_automorphism_case(inst)
        assert group_order(sub.group) == 1  # K collapses to the trivial group
        got = recombine(solve(sub))
        assert got == SolutionSet.progression(3, 1) == brute_solve(inst)

    def test_cyclic8_tail_hit_is_singleton(self):
        C = CyclicGroup(8)
        inst = SdlpInstance(C, PowerMapEndo(C, 2), 1, 1)
        sub, recombine = reduce_to_automorphism_case(inst)
        assert recombine(solve(sub)) == SolutionSet.singleton(1) == brute_solve(inst)

    def test_cyclic8_miss_is_empty(self):
        C = CyclicGroup(8)
        inst = SdlpInstance(C, PowerMapEndo(C, 2), 1, 5)
        sub, recombine = reduce_to_automorphism_case(inst)
        assert recombine(solve(sub)).is_empty()

    @pytest.mark.parametrize("family", ["cyclic", "vector"])
    def test_matches_brute_force(self, family):
        rng = random.Random(family)
        cfg = SolverConfig()
        for _ in range(120):
            if family == "cyclic":
                inst = random_cyclic_instance(rng)
            else:
                inst = random_vector_instance(rng, d_max=3, automorphism=False)
            sub, recombine = reduce_to_automorphism_case(inst, cfg)
            got = recombine(solve(sub, cfg))
            assert got == brute_solve(inst, cfg)

    def test_tail_bound(self):
        # recovered offsets stay within the index bound of the reduction
        rng = random.Random(99)
        cfg = SolverConfig()
        for _ in range(60):
            inst = random_cyclic_instance(rng, n_max=1 << 10)
            inst, t_star = with_forward_h(inst, rng, t_max=256)
            sub, recombine = reduce_to_automorphism_case(inst, cfg)
            got = recombine(solve(sub, cfg))
            assert got.contains(t_star)
            values, index, period = orbit_walk(inst.g, inst.sigma, 1 << 14)
            ell = max(1, inst.group.codeword_bits)
            assert got.t0 <= index + period
            assert index <= ell * period + period


class TestShiftToPower:
    def test_k_one_is_identity(self):
        rng = random.Random(0)
        inst = random_vector_instance(rng, automorphism=True)
        subs, recombine = shift_to_power(inst, 1)
        assert len(subs) == 1
        assert recombine([solve(subs[0])]) == brute_solve(inst)

    def test_sigma_cubed_becomes_trivial(self):
        V = VectorGroup(5, 2)
        B = LinearMapEndo(V, Matrix(F5, [[0, 4], [1, 4]]))  # order 3
        inst = SdlpInstance(V, B, (1, 0), rho_pow((1, 0), B, 2))
        subs, recombine = shift_to_power(inst, 3)
        for sub in subs:
            assert sub.sigma.matrix.is_identity()
        got = recombine([solve(s) for s in subs])
        assert got == brute_solve(inst)

    def test_known_solution_recombines(self):
        V = VectorGroup(5, 2)
        B = LinearMapEndo(V, Matrix(F5, [[0, 4], [1, 4]]))
        h = rho_pow((1, 0), B, 5)
        inst = SdlpInstance(V, B, (1, 0), h)
        subs, recombine = shift_to_power(inst, 2)
        sols = [solve(s) for s in subs]
        assert sols[1].contains(2)  # s=1: 1 + 2*2 = 5
        got = recombine(sols)
        assert got.contains(5) and got == brute_solve(inst)

    def test_round_trip_random(self):
        rng = random.Random(1)
        cfg = SolverConfig()
        for _ in range(80):
            inst = random_vector_instance(rng, d_max=2, automorphism=True)
            inst, t_star = with_forward_h(inst, rng, t_max=500)
            k = rng.randrange(1, 8)
            subs, recombine = shift_to_power(inst, k, cfg)
            got = recombine([solve(s, cfg) for s in subs])
            assert got.contains(t_star)
            assert got == brute_solve(inst, cfg)

    @pytest.mark.parametrize("family", ["gl2-f1021", "heisenberg-7", "table", "power"])
    def test_targets_are_the_inverse_powers(self, family):
        # residue s asks for rho^{-s}(h), built one step at a time
        rng = random.Random(f"shift-targets-{family}")
        if family == "gl2-f1021":
            F = PrimeField(1021)
            grp = MatrixGroup(F, 2, [rand_invertible(F, 2, rng) for _ in range(2)])
            sigma = ConjugationEndo(grp, rand_invertible(F, 2, rng))
        elif family == "heisenberg-7":
            grp = HeisenbergGroup(7)
            sigma = ConjugationEndo(grp, rand_upper_triangular(grp.field, 3, rng))
        else:
            grp = CyclicGroup(360)
            e = rng.choice([e for e in range(2, 360) if math.gcd(e, 360) == 1])
            if family == "table":
                sigma = table_endo(grp, lambda x: e * x % 360)
            else:
                sigma = PowerMapEndo(grp, e)
        g, h = grp.rand_element(rng), grp.rand_element(rng)
        inst = SdlpInstance(grp, sigma, g, h)
        for k in (1, 2, 37):
            subs, _ = shift_to_power(inst, k)
            assert len(subs) == k
            for s, sub in enumerate(subs):
                assert grp.label(sub.h) == grp.label(rho_pow_inverse_apply(g, sigma, s, h))


class TestRecurseThroughQuotient:
    def _heisenberg_setup(self, p=7, seed=5):
        rng = random.Random(seed)
        H = HeisenbergGroup(p)
        F = PrimeField(p)
        T = Matrix(
            F,
            [
                [rng.randrange(1, p), rng.randrange(p), rng.randrange(p)],
                [0, rng.randrange(1, p), rng.randrange(p)],
                [0, 0, rng.randrange(1, p)],
            ],
        )
        sigma = ConjugationEndo(H, T)
        psi = Hom(H, VectorGroup(p, 2), lambda t: (t[0], t[1]), kernel_generators=[(0, 0, 1)])
        return H, sigma, psi, rng

    def test_heisenberg_end_to_end(self):
        H, sigma, psi, rng = self._heisenberg_setup()
        cfg = SolverConfig()
        for _ in range(20):
            g = H.rand_element(rng)
            h = H.rand_element(rng)
            inst = SdlpInstance(H, sigma, g, h)
            q_inst, follow = recurse_through_quotient(inst, psi, cfg)
            q_sol = solve_elementary_abelian(q_inst, cfg)
            sub, lift = follow(q_sol)
            got = lift(None) if sub is None else lift(solve(sub, cfg))
            assert got == brute_solve(inst, cfg)

    def test_quotient_period_is_orbit_size(self):
        H, sigma, psi, rng = self._heisenberg_setup(seed=6)
        cfg = SolverConfig()
        g = H.rand_element(rng)
        h = rho_pow(g, sigma, 17)
        inst = SdlpInstance(H, sigma, g, h)
        q_inst, follow = recurse_through_quotient(inst, psi, cfg)
        q_sol = solve_elementary_abelian(q_inst, cfg)
        shape = orbit_index_period(q_inst.g, q_inst.sigma, cfg)
        assert q_sol.period == shape.period and shape.index == 0

    def test_empty_quotient_short_circuits(self):
        H, sigma, psi, rng = self._heisenberg_setup(p=5, seed=7)
        cfg = SolverConfig()
        g = (1, 0, 0)
        q_vals, _, _ = orbit_walk(psi(g), LinearMapEndo(psi.target, _induced_matrix(H, sigma, psi)), 1 << 12)
        seen = {tuple(v) for v in q_vals}
        h = next((a, b, 0) for a in range(5) for b in range(5) if (a, b) not in seen)
        inst = SdlpInstance(H, sigma, g, h)
        q_inst, follow = recurse_through_quotient(inst, psi, cfg)
        q_sol = solve_elementary_abelian(q_inst, cfg)
        assert q_sol.is_empty()
        sub, lift = follow(q_sol)
        assert sub is None and lift(None).is_empty()
        assert brute_solve(inst, cfg).is_empty()

    def test_round_trip_all_families(self):
        # 200 forward-constructed instances per family; the recombined
        # answer must contain the constructed exponent every time
        rng = random.Random(8)
        cfg = SolverConfig()
        makers = [
            ("vector", lambda: random_vector_instance(rng, d_max=3, automorphism=True)),
            ("heisenberg", lambda: random_heisenberg_instance(rng, p_choices=(3, 5, 7))),
            ("matrix", lambda: random_matrix_instance(rng, q_choices=(2, 3, 4, 5), d_max=2)),
            ("cyclic", lambda: random_cyclic_instance(rng, automorphism=False)),
        ]
        for name, maker in makers:
            for i in range(200):
                inst, t_star = with_forward_h(maker(), rng, t_max=1000)
                got = solve(inst, cfg)
                assert got.contains(t_star), (name, inst, t_star, got)
                if i % 4 == 0 and inst.sigma.is_automorphism():
                    k = rng.randrange(1, 6)
                    subs, recombine = shift_to_power(inst, k, cfg)
                    merged = recombine([solve(s, cfg) for s in subs])
                    assert merged.contains(t_star), (name, k, t_star)


def _induced_matrix(H, sigma, psi):
    V = psi.target
    from sdlp.groups import induced_automorphism

    tgt, endo = induced_automorphism(psi, sigma)
    return endo.matrix
