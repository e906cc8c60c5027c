"""Seeded instance generators and the timed steps of the four workloads.

The generators mirror the recipes of the acceptance suite without importing
from it. Every workload item carries the exchange input (group, sigma, g and
the secrets x, y) and the label of the key rho^(x+y)(1) computed in set-up,
so both the exchange and the solve can be checked against a reference that
did not come from the timed call.

The timed calls go through module attributes (`protocol.spdke_exchange`,
`solvers.solve`) so that the tracer, which rebinds those attributes, sees
them. Everything used only for set-up and checks is imported by name, which
keeps it out of the traced numbers.
"""

import contextlib
import copy
import math
import random
import statistics
import time
from dataclasses import dataclass

import sdlp.protocol as protocol
import sdlp.solvers as solvers
from sdlp.config import SolverConfig
from sdlp.errors import NotApplicableError
from sdlp.ff import Poly, PrimeField, field_of_size, is_irreducible
from sdlp.groups import (
    ConjugationEndo,
    CyclicGroup,
    HeisenbergGroup,
    Hom,
    InducedPairEndo,
    LinearMapEndo,
    MatrixGroup,
    PairImageGroup,
    PowerMapEndo,
    ProductEndo,
    ProductGroup,
    SdlpInstance,
    VectorGroup,
    rho_pow,
)
from sdlp.linalg import Matrix
from sdlp.oracles import UnitGroup, element_order, ensure_endo_order, orbit_walk
from sdlp.protocol import draw_secrets, heisenberg_chain, heisenberg_instance
from sdlp.solvers import brute_solve


class WrongAnswer(Exception):
    """An answer failed its check; the benchmark stops on it."""


@dataclass
class Item:
    """One instance: what the exchange needs, and what the solve must return."""

    group: object
    sigma: object
    g: object
    x: int
    y: int
    key_label: object  # label of rho^(x+y)(1), the shared key
    chain: object = None  # Heisenberg transcripts: the chain 1 < Z(G) < G
    h: object = None  # mixed-small: the solve target
    want: object = None  # mixed-small: the brute_solve reference
    t_star: int | None = None  # forward-built h = rho^t*(1)


def _item(group, sigma, g, x, y, **extra):
    return Item(group, sigma, g, x, y, group.label(rho_pow(g, sigma, x + y)), **extra)


def secrets(rng, bits):
    """Two secrets of exactly `bits` bits, as a key generator draws them.
    Exchange cost grows with the secrets' length, so uniform secrets below
    2^bits would make it swing with the seed."""
    return rng.randrange(1 << (bits - 1), 1 << bits), rng.randrange(1 << (bits - 1), 1 << bits)


# ---------------------------------------------------------------------------
# shared recipes


def rand_invertible(fld, d, rng):
    while True:
        M = Matrix(fld, [[fld.rand(rng) for _ in range(d)] for _ in range(d)])
        if M.is_invertible():
            return M


def rand_upper_triangular(fld, d, rng):
    rows = [[fld.zero] * d for _ in range(d)]
    for i in range(d):
        while rows[i][i] == fld.zero:
            rows[i][i] = fld.rand(rng)
        for j in range(i + 1, d):
            rows[i][j] = fld.rand(rng)
    return Matrix(fld, rows)


def sigma_closed_matrix_group(fld, d, raw_gens, conj_matrix):
    """Matrix group whose generating set is closed under the conjugation."""
    sigma0 = ConjugationEndo(MatrixGroup(fld, d, raw_gens), conj_matrix)
    n = ensure_endo_order(sigma0)
    gens, seen = [], set()
    for g0 in raw_gens:
        cur = g0
        for _ in range(n):
            key = cur.entries_key()
            if key not in seen:
                seen.add(key)
                gens.append(cur)
            cur = sigma0.apply(cur)
    group = MatrixGroup(fld, d, gens)
    return group, ConjugationEndo(group, conj_matrix)


def small_matrix_group(rng, q, d):
    """A sigma-closed random matrix group over F_q whose conjugation has
    order at most 64, so the closed generating set stays small."""
    fld = field_of_size(q)
    raw = [rand_invertible(fld, d, rng) for _ in range(rng.randrange(1, 3))]
    while True:
        cm = rand_invertible(fld, d, rng)
        if ensure_endo_order(ConjugationEndo(MatrixGroup(fld, d, raw), cm)) <= 64:
            return sigma_closed_matrix_group(fld, d, raw, cm)


def borel_group(fld, d, rng):
    """Invertible upper-triangular d x d matrices, generated by a primitive
    diagonal and the unit superdiagonal; any upper-triangular conjugation
    maps it to itself."""
    units = UnitGroup(fld)
    while True:
        lam = fld.rand(rng)
        if lam != fld.zero and element_order(units, lam)[0] == fld.size - 1:
            break
    gens = []
    for i in range(d):
        rows = [[fld.one if a == b else fld.zero for b in range(d)] for a in range(d)]
        rows[i][i] = lam
        gens.append(Matrix(fld, rows))
    for i in range(d - 1):
        rows = [[fld.one if a == b else fld.zero for b in range(d)] for a in range(d)]
        rows[i][i + 1] = fld.one
        gens.append(Matrix(fld, rows))
    return MatrixGroup(fld, d, gens)


# ---------------------------------------------------------------------------
# transcript workloads


def heisenberg_items(_rng, session_rng, count, first_index):
    """Criterion-3 rounds at p = 65521; secrets from draw_secrets."""
    cfg = SolverConfig()
    items = []
    for i in range(first_index, first_index + count):
        group, sigma, g = heisenberg_instance(65521, seed=i)
        # draw on a copy so the attack does not inherit the orbit data it caches
        x, y = draw_secrets(*copy.deepcopy((group, sigma, g)), session_rng, cfg)
        items.append(_item(group, sigma, g, x, y, chain=heisenberg_chain(group)))
    return items


ELEM_SHAPES = (
    (1048573, 2),
    (1048573, 3),
    (524287, 2),
    (65521, 4),
    (65537, 3),
    (4093, 6),
    (1031, 6),
    (257, 5),
    (8191, 4),
    (131071, 2),
)


def elem_abelian_items(rng, session_rng, count, first_index):
    """Criterion-4 shapes in turn: F_p^d with the companion map of a random
    irreducible f, so sigma acts as multiplication in F_(p^d)."""
    items = []
    for i in range(first_index, first_index + count):
        p, d = ELEM_SHAPES[i % len(ELEM_SHAPES)]
        F = PrimeField(p)
        V = VectorGroup(p, d)
        while True:
            f = Poly(F, [F.rand(rng) for _ in range(d)] + [F.one])
            if is_irreducible(f):
                break
        sigma = LinearMapEndo(V, Matrix.companion(f))
        g = V.rand_element(rng)
        if not any(g):
            g = (1,) + (0,) * (d - 1)
        x, y = secrets(session_rng, 44)
        items.append(_item(V, sigma, g, x, y))
    return items


BIG_Q = (65521, 65536, 32749, 59049, 16381)
SMALL_Q = (2, 3, 4, 5, 7, 8, 9)


def matrix_inner_items(rng, session_rng, count, first_index):
    """Criterion-5 mix: two in five are Borel subgroups over q in BIG_Q with
    d in {2, 3}, taken in the criterion's order; the rest are sigma-closed
    random groups, cycling through q in SMALL_Q and d in {1, 2, 3}."""
    items = []
    for i in range(first_index, first_index + count):
        if i % 5 < 2:
            fld = field_of_size(BIG_Q[(i // 5 + i) % len(BIG_Q)])
            d = 2 + i % 2
            G = borel_group(fld, d, rng)
            sigma = ConjugationEndo(G, rand_upper_triangular(fld, d, rng))
        else:
            k = i // 5 * 3 + i % 5 - 2
            G, sigma = small_matrix_group(rng, SMALL_Q[k % len(SMALL_Q)], 1 + k // len(SMALL_Q) % 3)
        g = G.rand_element(rng)
        x, y = secrets(session_rng, 28)
        items.append(_item(G, sigma, g, x, y))
    return items


# ---------------------------------------------------------------------------
# mixed-small


def _cyclic_endo(rng):
    n = rng.randrange(2, 2048)
    while True:
        e = rng.randrange(n)
        if math.gcd(e, n) != 1:
            break
    G = CyclicGroup(n)
    return G, PowerMapEndo(G, e), G.rand_element(rng)


def _vector(rng, invertible):
    p = rng.choice((2, 3, 5, 7))
    d = rng.randrange(2, 5)
    F = PrimeField(p)
    while True:
        M = Matrix(F, [[F.rand(rng) for _ in range(d)] for _ in range(d)])
        if M.is_invertible() == invertible:
            break
    V = VectorGroup(p, d)
    return V, LinearMapEndo(V, M), V.rand_element(rng)


def _heisenberg(rng):
    H = HeisenbergGroup(rng.choice((3, 5, 7, 11, 13)))
    return H, ConjugationEndo(H, rand_upper_triangular(H.field, 3, rng)), H.rand_element(rng)


def _matrix(rng):
    G, sigma = small_matrix_group(rng, rng.choice(SMALL_Q), rng.randrange(1, 4))
    return G, sigma, G.rand_element(rng)


def _product(rng):
    V, C = VectorGroup(3, 2), CyclicGroup(16)
    P = ProductGroup([V, C])
    sigma = ProductEndo(P, [LinearMapEndo(V, rand_invertible(PrimeField(3), 2, rng)), PowerMapEndo(C, rng.randrange(16))])
    return P, sigma, P.rand_element(rng)


def _pair_image(rng):
    H = HeisenbergGroup(5)
    P = PairImageGroup(Hom(H, VectorGroup(5, 2), lambda t: (t[0], t[1])))
    return P, InducedPairEndo(P, ConjugationEndo(H, rand_upper_triangular(H.field, 3, rng))), P.rand_element(rng)


# Composite moduli whose unit groups have exponent below the walk cap:
# scaled-down cousins of (2^31-1)(2^19-1) and 2^40, answered today by the
# orbit walk because their automorphism orders exceed the small-order bound.
COMPOSITE_N = ((1 << 13) - 1) * ((1 << 7) - 1), 1 << 16, 8191 * 7, 4093 * 31


def _composite_cyclic(rng):
    n = rng.choice(COMPOSITE_N)
    G = CyclicGroup(n)
    while True:
        e = rng.randrange(2, n)
        if math.gcd(e, n) == 1:
            break
    return G, PowerMapEndo(G, e), rng.randrange(1, n)


MIXED_FAMILIES = (
    _cyclic_endo,
    lambda rng: _vector(rng, invertible=False),
    lambda rng: _vector(rng, invertible=True),
    _heisenberg,
    _matrix,
    _product,
    _pair_image,
)
MIXED_WALK_CAP = 1 << 16
COMPOSITE_EVERY = 50  # one composite-Z_n instance in 50


def mixed_config():
    return SolverConfig(max_walk=MIXED_WALK_CAP)


def mixed_small_items(rng, session_rng, count, first_index):
    """Small platforms of every family in turn, whose orbits fit under the
    walk cap. Half get a forward-built h = rho^t*(1) and half a random h (so
    some answers are empty), each with its brute_solve reference."""
    cfg = mixed_config()
    items = []
    for i in range(first_index, first_index + count):
        if i % COMPOSITE_EVERY == COMPOSITE_EVERY - 1:
            make, forward = _composite_cyclic, True
        else:
            make = MIXED_FAMILIES[i % len(MIXED_FAMILIES)]
            forward = i // len(MIXED_FAMILIES) % 2 == 0
        while True:
            group, sigma, g = make(rng)
            try:
                orbit_walk(g, sigma, MIXED_WALK_CAP)
            except NotApplicableError:
                continue
            break
        t_star = session_rng.randrange(4096) if forward else None
        h = rho_pow(g, sigma, t_star) if forward else group.rand_element(session_rng)
        want = brute_solve(SdlpInstance(group, sigma, g, h), cfg)
        x, y = secrets(session_rng, 20)
        items.append(_item(group, sigma, g, x, y, h=h, want=want, t_star=t_star))
    return items


# ---------------------------------------------------------------------------
# the workloads


@dataclass(frozen=True)
class Workload:
    name: str
    make_items: object  # (platform rng, session rng, count, first index) -> [Item]
    count: int  # distinct instances per run, split across the child processes
    solver: str  # solver passed to spdke_attack; None: solve(..., "auto")
    make_config: object = SolverConfig


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spdke-heisenberg", heisenberg_items, 120, "auto"),
        Workload("elem-abelian", elem_abelian_items, 120, "elem-abelian"),
        Workload("matrix-inner", matrix_inner_items, 102, "matrix-inner"),
        Workload("mixed-small", mixed_small_items, 510, None, mixed_config),
    )
}


def make_items(workload: Workload, seed: int, part: int, parts: int):
    """The part-th of `parts` disjoint slices of the workload's instances.

    The platforms (group, sigma, g) are the same for every seed: cost per
    platform spans three decades, so a fresh random set per run would make
    run-to-run spread swamp any change worth measuring. The seed draws what
    a session draws: the secrets x, y, and in mixed-small the target h.
    Each slice has its own random streams, so slices can be generated in
    separate processes.
    """
    per_part = workload.count // parts
    platform_rng = random.Random(f"{workload.name}-platforms-{part}")
    session_rng = random.Random(f"{workload.name}-{seed}-{part}")
    return workload.make_items(platform_rng, session_rng, per_part, part * per_part)


# ---------------------------------------------------------------------------
# one timed step


@dataclass
class Outcome:
    exchange_s: float
    solve_s: float
    failed: str | None  # exception type name when the exchange or solve raised
    answer: object  # (key label, x') or the SolutionSet


def run_item(workload: Workload, item: Item, config, pause=None, exchange_repeats=1) -> Outcome:
    """Time the exchange and the solve of one item and check both answers.

    The exchange is run `exchange_repeats` times and reported at its median
    time. `pause` is a context manager factory that stops tracing while the
    answers are checked. Exceptions from the toolkit count as failures; a
    wrong answer raises WrongAnswer.
    """
    pause = pause or contextlib.nullcontext
    grp, sigma = item.group, item.sigma
    exchange_times = []
    for _ in range(exchange_repeats):
        start = time.perf_counter()
        try:
            tr = protocol.spdke_exchange(grp, sigma, item.g, item.x, item.y)
        except Exception as err:  # a failed operation is counted, not fatal
            return Outcome(time.perf_counter() - start, 0.0, type(err).__name__, None)
        exchange_times.append(time.perf_counter() - start)
        with pause():
            if grp.label(tr.K_A) != item.key_label:
                raise WrongAnswer(f"exchange key differs from rho^(x+y)(1) on {grp!r}")
    exchange_s = statistics.median(exchange_times)
    start = time.perf_counter()
    try:
        if workload.solver is None:
            answer = solvers.solve(SdlpInstance(grp, sigma, item.g, item.h), config, "auto")
        else:
            pub = tr.public_part()
            pub.chain = item.chain
            answer = protocol.spdke_attack(pub, config, solver=workload.solver)
    except Exception as err:  # declines and crashes both count as failures
        return Outcome(exchange_s, time.perf_counter() - start, type(err).__name__, None)
    solve_s = time.perf_counter() - start
    with pause():
        if workload.solver is None:
            _check_solution(item, answer)
        else:
            key, x_prime = answer
            if grp.label(key) != item.key_label:
                raise WrongAnswer(f"recovered key differs from K_A on {grp!r}")
            if grp.label(rho_pow(item.g, sigma, x_prime)) != grp.label(tr.A):
                raise WrongAnswer(f"rho^x'(1) != A for x' = {x_prime} on {grp!r}")
            answer = (repr(grp.label(key)), x_prime)
    return Outcome(exchange_s, solve_s, None, answer)


def _check_solution(item: Item, sol):
    if sol != item.want:
        raise WrongAnswer(f"solve returned {sol}, brute force {item.want} on {item.group!r}")
    if item.t_star is not None and not sol.contains(item.t_star):
        raise WrongAnswer(f"solve returned {sol} without t* = {item.t_star} on {item.group!r}")
