"""Base-case solvers (small order, elementary abelian, solvable, matrix
inner) and the master solver folding a chain of sigma-invariant normal
subgroups. Each public solver is `solve` under its name, and `solve` checks
every answer against the defining equation once, on its way out.
"""

import itertools
import random
from dataclasses import dataclass, replace
from functools import reduce

from . import integers
from .config import SolverConfig
from .errors import InternalAssertionError, NotApplicableError, SdlpError
from .ff import ExtField, Poly, PrimeField, canonical_irreducible, factor_poly
from .groups import (
    ConjugationEndo,
    CyclicGroup,
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
    SdlpInstance,
    SolutionSet,
    Subgroup,
    VectorGroup,
    semidirect_powers,
)
from .linalg import Echelon, Matrix, krylov, nullspace
from .oracles import (
    PolyUnitGroup,
    UnitGroup,
    dlog,
    dlog_many,
    element_order,
    endo_order_multiple,
    ensure_endo_order,
    orbit_walk,
)
from .reductions import (
    recurse_through_quotient,
    reduce_to_automorphism_case,
    shift_to_power,
)


# ---------------------------------------------------------------------------
# chain data for the master solver


@dataclass
class ChainLevel:
    """One level M_i of a normal chain: generators, the homomorphism with
    kernel M_{i-1}, and the case tag deciding which solver takes the image."""

    generators: list
    psi: Hom
    tag: str  # small | small-order | solvable | matrix-inner


@dataclass
class NormalChain:
    """Levels bottom-up: levels[0] is M_1 (kernel = trivial group), the last
    entry is M_k = G."""

    levels: list

    def validate(self, group: GroupHandle, sigma):
        for i, level in enumerate(self.levels):
            tgt = level.psi.target
            below = self.levels[i - 1].generators if i > 0 else []
            for m in list(level.psi.kernel_generators) + list(below):
                if not tgt.is_identity(level.psi(m)):
                    raise SdlpError(f"chain level {i + 1}: kernel generator has nontrivial image")
            for x in level.generators:
                sigma.apply(x)  # raises if sigma is not defined on the level


# ---------------------------------------------------------------------------
# brute force (the oracle and the "Small" case)


def brute_solve(inst: SdlpInstance, config: SolverConfig | None = None) -> SolutionSet:
    """Exhaustive orbit walk, unchecked: the reference answer for everything else."""
    return _solve_brute(inst, config or SolverConfig())


def _solve_brute(inst: SdlpInstance, config: SolverConfig) -> SolutionSet:
    values, index, period = orbit_walk(inst.g, inst.sigma, config.max_walk)
    want = inst.group.label(inst.h)
    for t, v in enumerate(values):
        if inst.group.label(v) == want:
            if t < index:
                return SolutionSet.singleton(t)
            return SolutionSet.progression(t, period)
    return SolutionSet.empty()


# ---------------------------------------------------------------------------
# Case (1): small-order automorphisms


def solve_small_order(inst: SdlpInstance, config: SolverConfig | None = None) -> SolutionSet:
    """Shift to sigma^n with n = ord(sigma); each residue instance has a
    trivial endomorphism, so rho^t(1) = g'^t, and the residues' targets
    share one order of g' and one dlog set-up for it."""
    return solve(inst, config, "small-order")


def _solve_small_order(inst: SdlpInstance, config: SolverConfig) -> SolutionSet:
    """Core of solve_small_order.

    Every residue instance of the shift has the same base g' = rho^n(1) and
    a trivial sigma^n, so one exact order of g' and one dlog set-up for it
    (each prime's baby-step table) serve all n targets. Both live only for
    this solve.
    """
    if not inst.sigma.is_automorphism():
        raise SdlpError("not an automorphism")
    n = ensure_endo_order(inst.sigma)
    if n > config.small_order_bound:
        raise NotApplicableError("automorphism order too large")
    subs, recombine = shift_to_power(inst, n, config)
    grp, base = inst.group, subs[0].g
    if grp.is_identity(base):
        return recombine([SolutionSet.progression(0, 1) if grp.is_identity(sub.h) else SolutionSet.empty() for sub in subs])
    order = element_order(grp, base)
    logs = dlog_many(grp, base, [sub.h for sub in subs], order, config)
    return recombine([SolutionSet.empty() if t is None else SolutionSet.progression(t, order[0]) for t in logs])


def _power_solutions(group: GroupHandle, base, target, config: SolverConfig) -> SolutionSet:
    """{t : base^t = target} as {t0 + ord(base) k}: one exact order, one dlog."""
    order = element_order(group, base)
    t0 = dlog(group, base, target, order, config)
    if t0 is None:
        return SolutionSet.empty()
    return SolutionSet.progression(t0, order[0])


# ---------------------------------------------------------------------------
# Case (2a): elementary abelian groups


def solve_elementary_abelian(inst: SdlpInstance, config: SolverConfig | None = None) -> SolutionSet:
    """SDLP on Z_p^d with an invertible linear sigma = B.

    rho^t(1) = g + Bg + ... + B^{t-1}g is the t-th iterate from 0 of the
    affine map x -> g + Bx, so the instance is an orbit problem: solved in
    closed form when B = 1, as B^t g = g + (B - 1)h when B - 1 is
    invertible, and otherwise on the augmented matrix [[B, g], [0, 1]].
    """
    return solve(inst, config, "elem-abelian")


def _solve_elementary_abelian(inst: SdlpInstance, config: SolverConfig) -> SolutionSet:
    grp, sigma = inst.group, inst.sigma
    if not isinstance(grp, VectorGroup):
        raise NotApplicableError("elementary-abelian solver needs a vector group")
    if isinstance(sigma, PowerMapEndo):
        F = PrimeField(grp.p)
        sigma = LinearMapEndo(grp, Matrix.identity(F, grp.d).scale(sigma.e))
        inst = SdlpInstance(grp, sigma, inst.g, inst.h)
    if not isinstance(sigma, LinearMapEndo):
        raise NotApplicableError("elementary-abelian solver needs a linear map")
    if not sigma.is_automorphism():
        raise SdlpError("sigma is singular; reduce to the automorphism case first")
    return _solve_layer_as_orbit(inst, config)


def _solve_layer_as_orbit(inst: SdlpInstance, config: SolverConfig) -> SolutionSet:
    """An elementary-abelian layer Z_p^d with sigma = B, as an orbit problem."""
    B = inst.sigma.matrix
    F = B.field
    d = inst.group.d
    g, h = tuple(inst.g), tuple(inst.h)
    if B.is_identity():
        # rho^t(1) = t g
        i = next((i for i, a in enumerate(g) if a != F.zero), None)
        if i is None:
            return SolutionSet.progression(0, 1) if all(b == F.zero for b in h) else SolutionSet.empty()
        t = F.mul(h[i], F.inv(g[i]))
        if any(F.mul(t, a) != b for a, b in zip(g, h)):
            return SolutionSet.empty()
        return SolutionSet.progression(t, F.p)
    B1 = B - Matrix.identity(F, d)
    if B1.is_invertible():
        # (B - 1) rho^t(1) = (B^t - 1) g
        opi = OrbitProblemInstance(F, B, g, tuple(map(F.add, g, B1.matvec(h))))
    else:
        # (rho^t(1), 1) = [[B, g], [0, 1]]^t (0, 1)
        opi = OrbitProblemInstance(F, B.affine(g), (F.zero,) * d + (F.one,), h + (F.one,))
    return _orbit_problem_set(opi, config)


# ---------------------------------------------------------------------------
# Case (2): solvable groups


def heisenberg_chain(group: HeisenbergGroup) -> NormalChain:
    """The chain 1 < Z(G) < G with elementary-abelian factors."""
    p = group.p
    superdiag = Hom(
        group,
        VectorGroup(p, 2),
        lambda t: (t[0], t[1]),
        kernel_generators=[(0, 0, 1)],
        description="superdiagonal",
    )
    center = Hom(
        group,
        VectorGroup(p, 1),
        lambda t: (t[2],),
        kernel_generators=[],
        description="central coordinate",
    )
    return NormalChain(
        levels=[
            ChainLevel(generators=[(0, 0, 1)], psi=center, tag="solvable"),
            ChainLevel(generators=group.generators(), psi=superdiag, tag="solvable"),
        ]
    )


def unitriangular_chain(group: MatrixGroup) -> NormalChain:
    """The superdiagonal filtration U = U_1 > U_2 > ... > U_d = 1 of the
    upper-unitriangular d x d matrices over F_q.

    U_k holds the matrices whose first k-1 superdiagonals vanish; reading
    off the k-th superdiagonal, each entry flattened to prime-field
    coordinates, maps U_k onto Z_p^{(d-k)e} with kernel U_{k+1}. The levels
    are generated inside all of U, which contains any group generated by
    unitriangular matrices.
    """
    F, d = group.field, group.d
    if not all(_is_unitriangular(x) for x in group.generators()):
        raise NotApplicableError("composition series required")
    p, e = F.p, F.degree
    levels, below = [], []
    for k in range(d - 1, 0, -1):
        idx = [(i, i + k) for i in range(d - k)]
        gens = []
        for i, j in idx:
            for c in range(e):
                rows = [[F.one if a == b else F.zero for b in range(d)] for a in range(d)]
                rows[i][j] = F.from_prime_coeffs([int(c == m) for m in range(e)])
                gens.append(Matrix(F, rows))
        psi = Hom(
            group,
            VectorGroup(p, len(gens)),
            lambda M, idx=idx: tuple(a % p for i, j in idx for a in F.to_prime_coeffs(M.rows[i][j])),
            kernel_generators=below,
            description=f"superdiagonal {k}",
        )
        below = gens + below
        levels.append(ChainLevel(generators=below, psi=psi, tag="solvable"))
    return NormalChain(levels=levels)


def cyclic_chain(group: CyclicGroup) -> NormalChain:
    """The chain 1 < (n/m_1)Z_n < ... < (n/m_k)Z_n = Z_n, m_j = p_1...p_j,
    over the prime factors p_j of n counted with multiplicity.

    Level j is cyclic of order m_j, generated by n/m_j; reading off
    x/(n/m_j) mod p_j maps it onto Z_{p_j} with kernel level j-1.
    """
    n, m = group.n, 1
    levels = []
    for p, e in sorted(group.factorization.items()):
        for _ in range(e):
            m *= p
            psi = Hom(
                group,
                VectorGroup(p, 1),
                lambda x, step=n // m, p=p: (x % n // step % p,),
                kernel_generators=levels[-1].generators if levels else [],
                description=f"coordinate mod {p}",
            )
            levels.append(ChainLevel(generators=[n // m], psi=psi, tag="solvable"))
    return NormalChain(levels=levels)


def _is_unitriangular(M: Matrix) -> bool:
    F = M.field
    for i in range(M.nrows):
        for j in range(i + 1):
            want = F.one if i == j else F.zero
            if M.rows[i][j] != want:
                return False
    return True


def solve_solvable(inst: SdlpInstance, config: SolverConfig | None = None) -> SolutionSet:
    """SDLP on a solvable group with built-in composition structure.

    Supported: elementary abelian groups (delegated), cyclic groups,
    Heisenberg groups, groups generated by upper-unitriangular matrices
    under conjugation, and pair-image groups with a vector-group labeling.
    The cyclic, Heisenberg and unitriangular filtrations are folded down
    like a master chain, with every layer Z_p^r solved as an orbit problem,
    as in solve_elementary_abelian. Anything else needs an explicit chain
    (solve_master) and raises "composition series required".
    """
    return solve(inst, config, "solvable")


def _solve_solvable(inst: SdlpInstance, config: SolverConfig) -> SolutionSet:
    grp, sigma = inst.group, inst.sigma
    if not sigma.is_automorphism():
        raise SdlpError("not an automorphism")
    if isinstance(grp, VectorGroup):
        return _solve_elementary_abelian(inst, config)
    if isinstance(grp, PairImageGroup) and isinstance(grp.target, VectorGroup):
        return _solve_pair_over_vector(inst, config)
    if isinstance(grp, PairImageGroup) and grp.hom.is_identity:
        # labels coincide with inner elements; solve the inner instance
        if isinstance(sigma, InducedPairEndo):
            base = grp.inner
            while isinstance(base, Subgroup):
                base = base.parent
            inner = SdlpInstance(base, sigma.inner, inst.g[0], inst.h[0])
            return _solve_solvable(inner, config)
    if isinstance(grp, HeisenbergGroup):
        chain = heisenberg_chain(grp)
    elif isinstance(grp, CyclicGroup):
        chain = cyclic_chain(grp)
    elif isinstance(grp, MatrixGroup) and isinstance(sigma, ConjugationEndo):
        chain = unitriangular_chain(grp)
    else:
        raise NotApplicableError("composition series required")
    return _descend(inst, chain, lambda q_inst, level, config: _solve_layer_as_orbit(q_inst, config), config)


def _solve_pair_over_vector(inst: SdlpInstance, config: SolverConfig) -> SolutionSet:
    """Labels are vectors, so the label map is an injective-on-image hom and
    the quotient instance is the whole problem."""
    grp: PairImageGroup = inst.group
    tgt: VectorGroup = grp.target
    F = PrimeField(tgt.p)
    echelon = Echelon(F)
    for x in grp.generators():
        echelon.add(grp.hom(x[0]))
    r = len(echelon.basis)
    Vr = VectorGroup(tgt.p, r)
    if r == 0:
        proj = Hom(grp, Vr, lambda x: (), description="trivial image")
    else:

        def func(x):
            c = echelon.coords(x[1])
            if c is None:
                raise InternalAssertionError("pair label outside the image span")
            return c

        proj = Hom(grp, Vr, func, description="image coordinates")
    q_inst, _ = recurse_through_quotient(inst, proj, config)
    return _solve_layer_as_orbit(q_inst, config)


# ---------------------------------------------------------------------------
# Case (3): matrix groups with an inner power


def find_conjugator(generators, images, d: int, fld, config: SolverConfig | None = None) -> Matrix:
    """A matrix a with a^-1 x a = sigma(x) for every generator x.

    Computes the intertwiner space {y : y x_i = sigma(x_i) y} over the
    platform's own field F_q, draws up to 32 seeded-random elements y of it
    and returns a = y^-1 for the first invertible one. For q >= 2d,
    Schwartz-Zippel gives each draw a success probability of at least
    1 - d/q >= 1/2 once any invertible intertwiner exists. Below that there
    is no such bound, but by Noether-Deuring an invertible intertwiner over
    an extension F_(q^e) means one over F_q, so the draws over F_q still
    come first. Only when all 32 are singular does a prime q < 2d lift to
    F_(q^e) with q^e >= 2d and draw there, and a prime-power q < 2d search
    the space exhaustively.
    """
    a, _, _, _ = _find_conjugator_lifted(generators, images, d, fld, config or SolverConfig())
    return a


def _find_conjugator_lifted(generators, images, d: int, fld, config: SolverConfig):
    """(a, a^-1, field, embed) where embed maps input matrices into a's
    field; a^-1 is the intertwiner drawn. The intertwiner basis is computed
    once, over fld. A lifted draw takes that basis embedded entrywise,
    which is the basis the lifted field's own nullspace gives: the reduced
    echelon basis of a system over F_q is the same over F_(q^e)."""
    basis = _intertwiner_basis(generators, images, d, fld)
    if not basis:
        raise NotApplicableError("no invertible intertwiner found")
    drawn = _draw_conjugator(generators, images, basis, d, fld, config)
    if drawn is not None:
        return (*drawn, fld, _same_matrix)
    if fld.size >= 2 * d:
        raise NotApplicableError("no invertible intertwiner found")
    if not isinstance(fld, PrimeField):
        return _conjugator_by_enumeration(generators, images, basis, d, fld)
    e = 1
    while fld.size**e < 2 * d:
        e += 1
    lifted = ExtField._trusted(fld, canonical_irreducible(fld, e))

    def embed(M):
        return Matrix(lifted, [[lifted.from_int(v) for v in row] for row in M.rows])

    gens = [embed(x) for x in generators]
    imgs = [embed(x) for x in images]
    drawn = _draw_conjugator(gens, imgs, [embed(Y) for Y in basis], d, lifted, config)
    if drawn is None:
        raise NotApplicableError("no invertible intertwiner found")
    return (*drawn, lifted, embed)


def _same_matrix(M):
    return M


def _draw_conjugator(gens, imgs, basis, d, fld, config):
    """(a, a^-1) from the first of 32 seeded draws y in span(basis) that is
    invertible, or None when all are singular; each draw is eliminated
    once, by `inverse`."""
    rng = random.Random(f"conjugator-{config.seed}")
    for _ in range(32):
        y = Matrix.zeros(fld, d, d)
        for Y in basis:
            y = y + Y.scale(fld.rand(rng))
        try:
            a = y.inverse()
        except SdlpError:  # a singular draw
            continue
        _assert_conjugation_matches(gens, imgs, a, y)
        return a, y
    return None


def _conjugator_by_enumeration(generators, images, basis, d, fld):
    if fld.size ** len(basis) > 1 << 18:
        raise NotApplicableError("intertwiner space too large to enumerate over a tiny field")
    for coeffs in itertools.product(fld.elements(), repeat=len(basis)):
        y = Matrix.zeros(fld, d, d)
        for c, Y in zip(coeffs, basis):
            y = y + Y.scale(c)
        if any(c != fld.zero for c in coeffs):
            try:
                a = y.inverse()
            except SdlpError:  # a singular combination
                continue
            _assert_conjugation_matches(generators, images, a, y)
            return a, y, fld, _same_matrix
    raise NotApplicableError("no invertible intertwiner found")


def _intertwiner_basis(gens, imgs, d, fld):
    """Basis of {y : y x = sigma(x) y for all generators}, as matrices.

    The space is cut down one generator at a time: the current basis goes
    through y -> y x - sigma(x) y, and the nullspace of that d^2 x dim
    system gives the next basis, so an empty space stops the scan at once.
    Each `nullspace` vector is 1 at its own free coordinate, 0 at the
    others and nonzero only before it; products of such bases keep that
    shape, which makes the result the space's reduced row echelon basis in
    reversed coordinates, the one `nullspace` of all the generators'
    equations stacked returns. So the conjugator drawn from it is the same.
    """
    if not gens:
        return [Matrix.identity(fld, d)]
    basis = None  # flattened matrices; None stands for all of M_d
    for x, s in zip(gens, imgs):
        equations = _intertwiner_equations(x, s, d, fld)
        kernel = nullspace(Matrix(fld, equations if basis is None else fld.products(equations, basis)))
        if not kernel:
            return []
        basis = kernel if basis is None else fld.products(kernel, list(zip(*basis)))
    return [Matrix.unflatten(fld, v, d, d) for v in basis]


def _intertwiner_equations(x, s, d, fld):
    """The rows of the d^2 x d^2 matrix of y -> y x - s y on flattened y."""
    rows = []
    for r in range(d):
        for c in range(d):
            row = [fld.zero] * (d * d)
            for k in range(d):
                row[r * d + k] = fld.add(row[r * d + k], x.rows[k][c])
            for k in range(d):
                row[k * d + c] = fld.sub(row[k * d + c], s.rows[r][k])
            rows.append(row)
    return rows


def _assert_conjugation_matches(gens, imgs, a: Matrix, a_inv: Matrix):
    for x, s in zip(gens, imgs):
        if (a_inv * x * a).entries_key() != s.entries_key():
            raise InternalAssertionError("conjugator does not implement sigma on the generators")


@dataclass
class OrbitProblemInstance:
    """Decide b = Phi^t a for an invertible linear map Phi on F_q^n."""

    field: object
    phi: Matrix
    a: tuple
    b: tuple


def solve_orbit_problem(opi: OrbitProblemInstance, config: SolverConfig | None = None):
    """Smallest t >= 0 with Phi^t a = b, or None.

    Kannan-Lipton style: the Krylov space W of a is F[x]/(f), with f the
    monic annihilator of a under Phi, Phi^i a <-> x^i, and Phi acting as
    multiplication by x. Once b is in W with coordinates c_b, Phi^t a = b
    becomes x^t = c_b(x) mod f. Over a prime field the ring splits by the
    factors u^k of f: a dlog in F or F[x]/(u) for each simple factor, in
    (F[x]/(u^k))^* for each repeated one, recombined by CRT. The factors
    are read off the diagonal when Phi is upper triangular, as every layer
    map of a conjugation by an upper-triangular matrix is, and found by
    Cantor-Zassenhaus otherwise. Over an extension field it is one dlog in
    (F[x]/(f))^*.
    """
    sol = _orbit_problem_set(opi, config or SolverConfig())
    if sol.is_empty():
        return None
    t = sol.smallest()
    if (opi.phi**t).matvec(opi.a) != tuple(opi.b):
        raise InternalAssertionError("orbit problem self-verification failed")
    return t


def _orbit_problem_set(opi: OrbitProblemInstance, config: SolverConfig) -> SolutionSet:
    """{t : Phi^t a = b} as {t0 + ord(x) k}: x^t = c_b(x) in F[x]/(f), one
    ring per factor of f over a prime field. For an upper-triangular Phi
    the factors are x - lambda for the diagonal entries lambda
    (`_diagonal_factors`), with no Cantor-Zassenhaus."""
    F = opi.field
    if all(a == F.zero for a in opi.a):
        if all(b == F.zero for b in opi.b):
            return SolutionSet.progression(0, 1)
        return SolutionSet.empty()
    if not opi.phi.is_invertible():
        raise SdlpError("orbit problem needs an invertible map")
    f, echelon = krylov(F, opi.phi.matvec, opi.a)
    c_b = echelon.coords(opi.b)
    if c_b is None:
        return SolutionSet.empty()
    if not isinstance(F, PrimeField):
        return _ring_power_solutions(F, f, 1, c_b, config)
    if opi.phi.is_upper_triangular():
        factors = _diagonal_factors(f, opi.phi)
    else:
        factors = factor_poly(f, seed=config.seed)
    return _intersect_solutions(_ring_power_solutions(F, u, k, c_b, config) for u, k in factors)


def _diagonal_factors(f: Poly, phi: Matrix) -> list:
    """`factor_poly(f)` for an upper-triangular Phi over a prime field: f
    divides the characteristic polynomial prod (x - phi_ii), so it is the
    product of the x - lambda, lambda on the diagonal, that divide it,
    each divided out while the remainder is zero. The list is in
    `factor_poly`'s order, by (degree, coefficients)."""
    F = f.field
    factors = []
    for lam in {row[i] for i, row in enumerate(phi.rows)}:
        u = Poly(F, [F.neg(lam), F.one])
        k = 0
        while True:
            q, r = f.divmod(u)
            if not r.is_zero():
                break
            f, k = q, k + 1
        if k:
            factors.append((u, k))
    if f.degree() != 0:
        raise InternalAssertionError("annihilator does not split over the diagonal of a triangular map")
    factors.sort(key=lambda uk: uk[0].coeffs)
    return factors


def _ring_power_solutions(F, u: Poly, k: int, c, config: SolverConfig) -> SolutionSet:
    """{t : x^t = c(x)} in F[x]/(u^k). Over a prime field u is irreducible,
    and k = 1 gives the field F[x]/(u); over an extension field u = f."""
    c = Poly(F, list(c))
    if c.mod(u).is_zero():
        return SolutionSet.empty()  # c is not a unit
    if k > 1 or not isinstance(F, PrimeField):
        ring = PolyUnitGroup(F, reduce(Poly.__mul__, [u] * k))
        return _power_solutions(ring, ring.element([F.zero, F.one]), ring.element(c.coeffs), config)
    if u.degree() == 1:
        root = F.neg(u.coeffs[0])
        return _power_solutions(UnitGroup(F), root, c.eval(root), config)
    fld = ExtField._trusted(F, u)  # factor_poly has proved u irreducible
    return _power_solutions(UnitGroup(fld), fld.gen(), fld.from_coeffs(c.coeffs), config)


def _matrix_view(inst: SdlpInstance):
    """(field, d, to_matrix) for matrix-backed instances, raw or pair-encoded."""
    grp = inst.group
    if isinstance(grp, MatrixGroup):
        return grp.field, grp.d, (lambda x: x)
    if isinstance(grp, PairImageGroup) and isinstance(grp.target, MatrixGroup):
        return grp.target.field, grp.target.d, (lambda x: x[1])
    if isinstance(grp, Subgroup) and isinstance(grp.parent, MatrixGroup):
        return grp.parent.field, grp.parent.d, (lambda x: x)
    raise NotApplicableError("matrix-inner solver needs a matrix-backed group")


def solve_matrix_inner(inst: SdlpInstance, config: SolverConfig | None = None) -> SolutionSet:
    """SDLP on a matrix group when some power sigma^k (k <= the configured
    bound) is conjugation by a matrix.

    k = 1 is tried first. Only when sigma itself is not inner is the
    representation's multiple of ord(sigma) computed, and its divisors
    above 1 are tried in increasing order. The k with sigma^k a conjugation
    form a subgroup of Z containing ord(sigma), and 1 divides every
    multiple, so the first hit is the least. A conjugation over the
    platform's field supplies its own matrix; any other sigma^k is solved
    for one by `find_conjugator`'s intertwiner draws. The instance is
    shifted to sigma^k and each residue instance becomes an Orbit Problem
    for the linear extension Phi = (left multiplication by g') o sigma^k
    on the full matrix space, whose columns are outer products.
    """
    return solve(inst, config, "matrix-inner")


def _solve_matrix_inner(inst: SdlpInstance, config: SolverConfig) -> SolutionSet:
    """Core of solve_matrix_inner."""
    sigma = inst.sigma
    if not sigma.is_automorphism():
        raise SdlpError("not an automorphism")
    fld, d, to_mat = _matrix_view(inst)
    for k in _inner_power_candidates(sigma, config.matrix_inner_max_k):
        sigma_k = sigma if k == 1 else sigma.pow(k)
        try:
            a, a_inv, lifted, embed = _inner_conjugator(inst.group, sigma_k, fld, d, to_mat, config)
        except NotApplicableError:
            continue
        config.record("matrix-inner", k=k, lifted=repr(lifted) if lifted is not fld else None)
        return _solve_with_conjugator(inst, k, a, a_inv, lifted, embed, to_mat, d, config)
    raise NotApplicableError("no inner power within bound")


def _inner_power_candidates(sigma, max_k: int):
    """k = 1, then the divisors above 1 of `endo_order_multiple(sigma)` in
    increasing order, up to max_k. The multiple is computed, once, only
    when the caller asks past k = 1."""
    if max_k < 1:
        return
    yield 1
    for k in integers.divisors_ascending(endo_order_multiple(sigma)):
        if k > max_k:
            return
        if k > 1:
            yield k


def _inner_conjugator(group, sigma_k, fld, d, to_mat, config):
    """(a, a^-1, field, embed) with sigma^k = conj_a on the generators, as
    `_find_conjugator_lifted` returns it. A conjugation by a matrix over fld
    is its own answer, unchecked: its matrix is sigma^k by construction,
    and `_matrix_view` leaves it only matrix groups and their subgroups.
    Any other representation is tabulated on the generators and solved
    for a."""
    if isinstance(sigma_k, ConjugationEndo) and sigma_k.a.field == fld:
        return sigma_k.a, sigma_k.a_inv, fld, _same_matrix
    gens = group.generators()
    gen_mats = [to_mat(x) for x in gens]
    img_mats = [to_mat(sigma_k.apply(x)) for x in gens]
    return _find_conjugator_lifted(gen_mats, img_mats, d, fld, config)


def _solve_with_conjugator(inst, k, a, a_inv, fld, embed, to_mat, d, config) -> SolutionSet:
    """Each residue instance as the orbit problem of Phi(Y) = u Y a on M_d,
    u = g a^-1, with the basis E_ij ordered by i ascending, then j
    descending. Phi(E_ij) is the outer product of column i of u and row j
    of a, so Phi's entry at row (r, c), column (i, j) is u_ri a_jc: d^4
    field products after the one matrix product for u. Phi(E_ij) lies in
    span{E_kl : k <= i, l >= j} when u and a are upper triangular, so Phi
    is upper triangular in that order."""
    subs, recombine = shift_to_power(inst, k, config)
    order = [(i, j) for i in range(d) for j in reversed(range(d))]

    def coords(M):
        return tuple(M.rows[i][j] for i, j in order)

    mul = fld.mul
    a_cols = [[a.rows[j][c] for j in reversed(range(d))] for c in range(d)]  # j descending
    one = coords(Matrix.identity(fld, d))
    sols = []
    for sub in subs:
        u = embed(to_mat(sub.g)) * a_inv
        phi = Matrix(fld, [[mul(x, y) for x in u.rows[r] for y in a_cols[c]] for r, c in order])
        opi = OrbitProblemInstance(fld, phi, one, coords(embed(to_mat(sub.h))))
        sols.append(_orbit_problem_set(opi, config))
    return recombine(sols)


# ---------------------------------------------------------------------------
# the master solver


def solve_master(inst: SdlpInstance, chain: NormalChain, config: SolverConfig | None = None) -> SolutionSet:
    """Fold the quotient recursion down a chain of sigma-invariant normal
    subgroups, dispatching each image instance by its case tag."""
    return solve(replace(inst, chain=chain), config, "master")


def _solve_master(inst: SdlpInstance, config: SolverConfig) -> SolutionSet:
    """Core of solve_master, on the instance's own chain."""
    if inst.chain is None:
        raise SdlpError("master solver needs a chain")
    if not inst.sigma.is_automorphism():
        raise SdlpError("not an automorphism")
    inst.chain.validate(inst.group, inst.sigma)
    return _descend(inst, inst.chain, _dispatch_tag, config)


def _descend(inst: SdlpInstance, chain: NormalChain, solve_image, config: SolverConfig) -> SolutionSet:
    """Walk the chain top-down: solve each level's image with
    solve_image(q_inst, level, config), then descend into its kernel with
    sigma^{n0}. The instance left in the last kernel lives in the trivial
    group, and the answers lift back up. Errors name their level; `solve`
    checks the result."""
    cur = inst
    lifts = []
    for level_index in range(len(chain.levels) - 1, -1, -1):
        level = chain.levels[level_index]
        psi = _rebind_level_hom(inst.group, chain, level_index)
        try:
            q_inst, follow = recurse_through_quotient(cur, psi, config)
            cur, lift = follow(solve_image(q_inst, level, config))
        except SdlpError as err:
            raise type(err)(f"chain level {level_index + 1}: {err}") from err
        lifts.append(lift)
        if cur is None:
            break
    sol = SolutionSet.empty() if cur is None else _solve_trivial_group(cur)
    for lift in reversed(lifts):
        sol = lift(sol)
    return sol


def _solve_trivial_group(inst: SdlpInstance) -> SolutionSet:
    if not inst.group.is_identity(inst.g):
        raise InternalAssertionError("chain descent did not trivialize g")
    return SolutionSet.progression(0, 1) if inst.group.is_identity(inst.h) else SolutionSet.empty()


def _rebind_level_hom(group, chain: NormalChain, level_index: int) -> Hom:
    """View the level hom as defined on M_i with kernel M_{i-1}, using the
    chain's own generator data."""
    level = chain.levels[level_index]
    source = Subgroup(group, level.generators)
    kernel = chain.levels[level_index - 1].generators if level_index > 0 else []
    return Hom(
        source,
        level.psi.target,
        level.psi,
        kernel_generators=kernel or level.psi.kernel_generators,
        description=level.psi.description,
        is_identity=level.psi.is_identity,
    )


def _dispatch_tag(q_inst: SdlpInstance, level: ChainLevel, config: SolverConfig) -> SolutionSet:
    if level.tag not in CHAIN_TAGS:
        raise SdlpError(f"unknown chain tag {level.tag!r}")
    return _SOLVERS[level.tag](q_inst, config)


# ---------------------------------------------------------------------------
# dispatch


def solve(inst: SdlpInstance, config: SolverConfig | None = None, solver: str = "auto") -> SolutionSet:
    """Entry point: run the named solver's core and check its answer. Each
    call starts config.trace afresh."""
    config = config or SolverConfig()
    if solver not in SOLVER_NAMES:
        raise SdlpError(f"unknown solver {solver!r}")
    config.trace = []
    return _verified(inst, _SOLVERS[solver](inst, config))


def _solve_auto(inst: SdlpInstance, config: SolverConfig) -> SolutionSet:
    """Route an instance to the solver its shape calls for.

    An explicit chain goes to the master solver, a product componentwise,
    and an endomorphism through its stable image. Vector, Heisenberg and
    prime cyclic groups, and pair images over a vector group, go to the
    solvable solver. A matrix group tries matrix-inner first, which needs
    only an inner power sigma^k and no ord(sigma). Everything else, and a
    matrix group matrix-inner declines, tries small-order, which computes
    ord(sigma) exactly. When that declines too, a composite cyclic group
    descends its cyclic chain and anything else walks the orbit. Each
    decline is recorded in the trace; any other error propagates.
    """
    sigma = inst.sigma
    grp = inst.group
    if inst.chain is not None and sigma.is_automorphism():
        return _solve_master(inst, config)
    if isinstance(grp, ProductGroup) and isinstance(sigma, ProductEndo):
        # componentwise even for endomorphisms: rho acts per factor
        return _solve_product(inst, config)
    if not sigma.is_automorphism():
        sub, recombine = reduce_to_automorphism_case(inst, config)
        # checked here: a wrong stable-image answer can search to a silent Empty
        return recombine(_verified(sub, _solve_auto(sub, config)))
    if isinstance(grp, (VectorGroup, HeisenbergGroup)) or (
        isinstance(grp, CyclicGroup) and integers.is_prime(grp.n)
    ) or (isinstance(grp, PairImageGroup) and isinstance(grp.target, VectorGroup)):
        return _solve_solvable(inst, config)
    if isinstance(grp, MatrixGroup):
        try:
            return _solve_matrix_inner(inst, config)
        except NotApplicableError as err:
            config.record("declined", solver="matrix-inner", reason=str(err))
    try:
        return _solve_small_order(inst, config)
    except SdlpError as err:
        config.record("declined", solver="small-order", reason=str(err))
    if isinstance(grp, CyclicGroup):
        return _solve_solvable(inst, config)
    return _solve_brute(inst, config)


def _solve_product(inst: SdlpInstance, config: SolverConfig) -> SolutionSet:
    """Componentwise solve on a direct product: intersect the factors'
    solution sets."""
    grp: ProductGroup = inst.group
    sols = []
    for i, (factor, endo) in enumerate(zip(grp.factors, inst.sigma.components)):
        sub = SdlpInstance(factor, endo, inst.g[i], inst.h[i])
        # checked here: a wrong factor answer can intersect to a silent Empty
        sols.append(_verified(sub, _solve_auto(sub, config)))
    return _intersect_solutions(sols)


def _intersect_solutions(sols) -> SolutionSet:
    cur = None
    for sol in sols:
        if sol.is_empty():
            return SolutionSet.empty()
        cur = sol if cur is None else _intersect_two(cur, sol)
        if cur.is_empty():
            return cur
    return cur if cur is not None else SolutionSet.progression(0, 1)


def _intersect_two(a: SolutionSet, b: SolutionSet) -> SolutionSet:
    if a.kind == "singleton":
        return a if b.contains(a.t0) else SolutionSet.empty()
    if b.kind == "singleton":
        return b if a.contains(b.t0) else SolutionSet.empty()
    # both progressions: t = a.t0 (mod a.period), t = b.t0 (mod b.period),
    # lifted to the first such t that both progressions reach
    both = integers.crt_pair(a.t0, a.period, b.t0, b.period)
    if both is None:
        return SolutionSet.empty()
    t, lcm = both
    start = max(a.t0, b.t0)
    return SolutionSet.progression(start + (t - start) % lcm, lcm)


# The one name -> core table. `solve` takes the names in SOLVER_NAMES and
# chain levels the tags in CHAIN_TAGS; "small" and "brute" both walk the
# orbit.
_SOLVERS = {
    "auto": _solve_auto,
    "brute": _solve_brute,
    "small": _solve_brute,
    "small-order": _solve_small_order,
    "elem-abelian": _solve_elementary_abelian,
    "solvable": _solve_solvable,
    "matrix-inner": _solve_matrix_inner,
    "master": _solve_master,
}
SOLVER_NAMES = ("auto", "brute", "small-order", "elem-abelian", "solvable", "matrix-inner", "master")
CHAIN_TAGS = ("small", "small-order", "solvable", "matrix-inner")


def _verified(inst: SdlpInstance, sol: SolutionSet) -> SolutionSet:
    """Check the representative (and one period later) against the
    equation; both rho-powers come from one `semidirect_powers` call."""
    if sol.is_empty():
        return sol
    grp = inst.group
    want = grp.label(inst.h)
    ts = [sol.t0, sol.t0 + sol.period] if sol.kind == "progression" else [sol.t0]
    if sol.t0 == 0:  # rho^0(1) = 1_G, as rho_pow gives it
        rhos = [grp.identity] + [u for u, _ in semidirect_powers(inst.g, inst.sigma, ts[1:])]
    else:
        rhos = [u for u, _ in semidirect_powers(inst.g, inst.sigma, ts)]
    if grp.label(rhos[0]) != want:
        raise InternalAssertionError("solution representative failed self-verification")
    if len(rhos) > 1 and grp.label(rhos[1]) != want:
        raise InternalAssertionError("solution period failed self-verification")
    return sol
