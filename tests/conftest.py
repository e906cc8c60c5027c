"""Shared instance generators for the test suite.

Everything is seeded; matrix-group instances close their generator sets
under sigma so that sigma really is an endomorphism of the group.
"""

import importlib.util
import math
import pathlib

from sdlp.config import SolverConfig
from sdlp.errors import InternalAssertionError
from sdlp.ff import Poly, PrimeField, field_of_size
from sdlp.groups import (
    ConjugationEndo,
    CyclicGroup,
    HeisenbergGroup,
    LinearMapEndo,
    MatrixGroup,
    PowerMapEndo,
    ProductGroup,
    SdlpInstance,
    TableEndo,
    VectorGroup,
    mulclose,
    rho_pow,
)
from sdlp.linalg import Echelon, Matrix, nullspace
from sdlp.oracles import ensure_endo_order


def bench_module(name):
    """perfbench/<name>.py, loaded from its file: perfbench is a directory
    of scripts, not a package."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rho_pow_naive(g, sigma, t: int):
    """Reference rho^t(1) = prod_{i<t} sigma^i(g): the left-to-right
    product, linear in t."""
    grp = sigma.group
    out = grp.identity
    cur = g
    for _ in range(t):
        out = grp.mul(out, cur)
        cur = sigma.apply(cur)
    return out


def heisenberg_matrix(group: HeisenbergGroup, x) -> Matrix:
    """The upper unitriangular 3 x 3 matrix of (a, b, c): a and b above the
    diagonal, c in the corner. The reference for the coordinate forms."""
    a, b, c = x
    return Matrix(group.field, [[1, a, c], [0, 1, b], [0, 0, 1]])


def heisenberg_coords(M: Matrix):
    """(a, b, c) of an upper unitriangular 3 x 3 matrix; the inverse of
    `heisenberg_matrix`."""
    r = M.rows
    if (r[0][0], r[1][1], r[2][2]) != (1, 1, 1) or (r[1][0], r[2][0], r[2][1]) != (0, 0, 0):
        raise ValueError("matrix is not upper unitriangular")
    return (r[0][1], r[1][2], r[0][2])


def group_order(group):
    """|G| for the groups whose order has a closed form: Z_n, F_p^d, the
    Heisenberg group mod p and products of them; None for any other."""
    if isinstance(group, CyclicGroup):
        return group.n
    if isinstance(group, VectorGroup):
        return group.p**group.d
    if isinstance(group, HeisenbergGroup):
        return group.p**3
    if isinstance(group, ProductGroup):
        orders = [group_order(f) for f in group.factors]
        return None if None in orders else math.prod(orders)
    return None


def monoid_exponent(q: int, d: int) -> int:
    """Reference E(q, d) from its definition: the lcm of q^e - 1 over e <=
    d, times the least power of the characteristic that is >= d."""
    p = next(r for r in range(2, q + 1) if q % r == 0)
    out = 1
    for e in range(1, d + 1):
        out = out * (q**e - 1) // math.gcd(out, q**e - 1)
    unipotent = 1
    while unipotent < d:
        unipotent *= p
    return out * unipotent


def reduced_exponent(t: int, q: int, d: int) -> int:
    """Reference exponent reduction: d + (t - d) mod E(q, d) from t >= d +
    E(q, d) on, else t."""
    e = monoid_exponent(q, d)
    return d + (t - d) % e if t >= d + e else t


def eval_poly_at_matrix(poly, B):
    """Reference poly(B) by Horner's rule on matrices."""
    F = B.field
    out = Matrix.zeros(F, B.nrows, B.nrows)
    for c in reversed(poly.coeffs):
        out = out * B + Matrix.identity(F, B.nrows).scale(c)
    return out


def extract_basis(field, vectors) -> list:
    """Reference maximal linearly independent subset, preserving input
    order: the inputs an `Echelon` accepts."""
    echelon = Echelon(field)
    for v in vectors:
        echelon.add(v)
    return echelon.basis


def rref(rows, F):
    """Reference reduced row echelon form of a list of row lists, in place;
    returns (rows, pivot column list)."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != F.zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, a) for a in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != F.zero:
                f = rows[i][c]
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def rref_rank(M):
    """Reference rank: the number of pivots of M's RREF."""
    return len(rref([list(r) for r in M.rows], M.field)[1])


def rref_inverse(M):
    """Reference `Matrix.inverse`: row reduction of [M | I], for every
    square M; None when M is singular."""
    F, n = M.field, M.nrows
    aug = [list(r) + [F.one if i == j else F.zero for j in range(n)] for i, r in enumerate(M.rows)]
    rows, pivots = rref(aug, F)
    return Matrix(F, [r[n:] for r in rows]) if pivots == list(range(n)) else None


def rref_nullspace(M):
    """Reference `nullspace`: one vector per free column f of M's RREF, 1
    at f and minus the RREF's column f at the pivots."""
    F = M.field
    rows, pivots = rref([list(r) for r in M.rows], F)
    basis = []
    for f in (c for c in range(M.ncols) if c not in pivots):
        v = [F.zero] * M.ncols
        v[f] = F.one
        for i, p in enumerate(pivots):
            v[p] = F.neg(rows[i][f])
        basis.append(tuple(v))
    return basis


def rref_solve(M, b):
    """Reference `solve_linear`: the RREF of [M | b] gives the solution
    that is 0 off the pivot columns; None when b is a pivot."""
    F = M.field
    rows, pivots = rref([list(r) + [bb] for r, bb in zip(M.rows, b)], F)
    if M.ncols in pivots:
        return None
    x = [F.zero] * M.ncols
    for i, p in enumerate(pivots):
        x[p] = rows[i][M.ncols]
    return tuple(x)


def fold_dot(fld, a, b):
    """Reference sum_i a_i b_i: a left fold of field add and mul."""
    out = fld.zero
    for x, y in zip(a, b):
        out = fld.add(out, fld.mul(x, y))
    return out


def schoolbook_dot(fld, a, b):
    """Reference `ExtField.dot`: the coefficient convolutions of all pairs,
    summed unreduced, then reduced once by the field's `_reduce`."""
    raw = [0] * (2 * fld.degree - 1)
    for u, v in zip(a, b):
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                raw[i + j] += x * y
    return fld._reduce(raw)


def schoolbook_poly_mul(a, b):
    """Reference `Poly.__mul__`: one field add and mul per coefficient
    pair, for every field."""
    F = a.field
    if a.is_zero() or b.is_zero():
        return Poly(F, [])
    out = [F.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return Poly(F, out)


def schoolbook_poly_divmod(a, b):
    """Reference `Poly.divmod`: long division with one field sub and mul
    per coefficient pair, for every field."""
    F = a.field
    rem = list(a.coeffs)
    db = b.degree()
    inv_lead = F.inv(b.lead())
    quot = [F.zero] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i] == F.zero:
            continue
        q = F.mul(rem[i], inv_lead)
        quot[i - db] = q
        for j, c in enumerate(b.coeffs):
            rem[i - db + j] = F.sub(rem[i - db + j], F.mul(q, c))
    return Poly(F, quot), Poly(F, rem)


def schoolbook_pow_mod(a, n, f):
    """Reference `Poly.pow_mod` for n >= 0 and deg f >= 1: square-and-
    multiply on the per-pair product and long division."""
    F = a.field
    out = schoolbook_poly_divmod(Poly(F, [F.one]), f)[1]
    base = schoolbook_poly_divmod(a, f)[1]
    while n:
        if n & 1:
            out = schoolbook_poly_divmod(schoolbook_poly_mul(out, base), f)[1]
        base = schoolbook_poly_divmod(schoolbook_poly_mul(base, base), f)[1]
        n >>= 1
    return out


def stacked_intertwiner_basis(gens, imgs, d, fld):
    """Reference intertwiner basis: `nullspace` of every generator's d^2
    equations y x - sigma(x) y = 0 stacked in one system."""
    rows = []
    for x, s in zip(gens, imgs):
        for r in range(d):
            for c in range(d):
                row = [fld.zero] * (d * d)
                for k in range(d):
                    row[r * d + k] = fld.add(row[r * d + k], x.rows[k][c])
                for k in range(d):
                    row[k * d + c] = fld.sub(row[k * d + c], s.rows[r][k])
                rows.append(row)
    if not rows:
        return [Matrix.identity(fld, d)]
    return [Matrix.unflatten(fld, v, d, d) for v in nullspace(Matrix(fld, rows))]


def endo_order_by_walk(sigma, gens, cap: int = 1 << 20) -> int:
    """ord(sigma) as the lcm of the generators' periods under plain
    iteration of sigma: the reference for `oracles.endo_order`."""
    grp = sigma.group
    n = 1
    for x in gens:
        target = grp.label(x)
        cur = sigma.apply(x)
        period = 1
        while grp.label(cur) != target:
            cur = sigma.apply(cur)
            period += 1
            if period > cap:
                raise InternalAssertionError("endomorphism order walk cap exceeded")
        n = n * period // math.gcd(n, period)
    return n


def table_endo(group, func):
    """The TableEndo x -> func(x) over every element of group. The TableEndo
    constructor checks it as a morphism and rejects a group above
    TableEndo.MAX_SIZE."""
    elements = group.elements() if hasattr(group, "elements") else mulclose(group, cap=TableEndo.MAX_SIZE)
    return TableEndo(group, {group.label(x): func(x) for x in elements})


def rand_invertible(fld, d, rng):
    while True:
        M = Matrix(fld, [[fld.rand(rng) for _ in range(d)] for _ in range(d)])
        if M.is_invertible():
            return M


def rand_upper_triangular(fld, d, rng):
    rows = [[fld.zero] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = fld.from_int(rng.randrange(1, fld.size)) if fld.size > 2 else fld.one
        while rows[i][i] == fld.zero:
            rows[i][i] = fld.rand(rng)
        for j in range(i + 1, d):
            rows[i][j] = fld.rand(rng)
    return Matrix(fld, rows)


def sigma_closed_matrix_group(fld, d, raw_gens, conj_matrix):
    """Matrix group whose generating set is closed under the conjugation."""
    probe = MatrixGroup(fld, d, raw_gens)
    sigma0 = ConjugationEndo(probe, conj_matrix)
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


def random_cyclic_instance(rng, n_max=256, automorphism=False):
    import math

    n = rng.randrange(2, n_max)
    grp = CyclicGroup(n)
    while True:
        e = rng.randrange(n)
        if not automorphism or math.gcd(e, n) == 1:
            break
    sigma = PowerMapEndo(grp, e)
    return SdlpInstance(grp, sigma, grp.rand_element(rng), grp.rand_element(rng))


def random_vector_instance(rng, p_choices=(2, 3, 5, 7), d_max=4, automorphism=True):
    p = rng.choice(list(p_choices))
    d = rng.randrange(1, d_max + 1)
    grp = VectorGroup(p, d)
    fld = PrimeField(p)
    while True:
        M = Matrix(fld, [[rng.randrange(p) for _ in range(d)] for _ in range(d)])
        if not automorphism or M.is_invertible():
            break
    sigma = LinearMapEndo(grp, M)
    return SdlpInstance(grp, sigma, grp.rand_element(rng), grp.rand_element(rng))


def random_heisenberg_instance(rng, p_choices=(3, 5, 7, 11, 13)):
    p = rng.choice(list(p_choices))
    grp = HeisenbergGroup(p)
    T = rand_upper_triangular(grp.field, 3, rng)
    sigma = ConjugationEndo(grp, T)
    return SdlpInstance(grp, sigma, grp.rand_element(rng), grp.rand_element(rng))


def random_matrix_instance(rng, q_choices=(2, 3, 4, 5, 7, 8, 9), d_max=3):
    q = rng.choice(list(q_choices))
    fld = field_of_size(q)
    d = rng.randrange(1, d_max + 1)
    raw = [rand_invertible(fld, d, rng) for _ in range(rng.randrange(1, 3))]
    while True:
        cm = rand_invertible(fld, d, rng)
        probe = ConjugationEndo(MatrixGroup(fld, d, raw), cm)
        if ensure_endo_order(probe) <= 64:  # keep the closed generating set small
            break
    grp, sigma = sigma_closed_matrix_group(fld, d, raw, cm)
    return SdlpInstance(grp, sigma, grp.rand_element(rng), grp.rand_element(rng))


def primitive_element(fld, rng):
    """A generator of the multiplicative group of a finite field."""
    from sdlp.oracles import UnitGroup, element_order

    units = UnitGroup(fld)
    while True:
        a = fld.rand_nonzero(rng)
        n, _ = element_order(units, a)
        if n == fld.size - 1:
            return a


def borel_group(fld, d, rng):
    """The full upper-triangular invertible group, with a small fixed
    generating set; conjugation by any upper-triangular matrix maps it to
    itself, so no sigma-closure is needed."""
    lam = primitive_element(fld, rng)
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


def with_forward_h(inst, rng, t_max=4096):
    """Replace h by rho^{t*}(1) for a random t*; returns (instance, t*)."""
    t_star = rng.randrange(t_max)
    h = rho_pow(inst.g, inst.sigma, t_star)
    return SdlpInstance(inst.group, inst.sigma, inst.g, h, chain=inst.chain), t_star


def small_config():
    return SolverConfig(max_walk=1 << 16)
