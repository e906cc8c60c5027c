"""Black-box group backends, effectively-evaluable endomorphisms, and the
semidirect exponentiation rho_(g,1)^t(1_G).

Group elements are native Python values owned by their handle (ints for
cyclic groups, tuples for vectors, Matrix objects for matrix groups, ...).
The handle supplies multiplication, inversion, the labeling function that
decides element equality, and `codeword_bits`, a code-word length of at
least ceil(log2 |G|) bits. Equality of elements must always go through
labels; PairImage backends deliberately use non-unique encodings.
"""

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property

from . import integers
from .errors import InternalAssertionError, SdlpError
from .ff import Poly, PrimeField
from .linalg import Echelon, Matrix, krylov, min_poly


# ---------------------------------------------------------------------------
# group handles


class GroupHandle:
    """Common interface; concrete backends fill in the oracle methods."""

    name = "group"

    def mul(self, x, y):
        raise NotImplementedError

    def stepper(self, c):
        """The map x -> mul(x, c), for walks that multiply by one fixed c
        many times; a backend with a cheaper fixed-operand product
        overrides it."""
        return lambda x: self.mul(x, c)

    def inv(self, x):
        raise NotImplementedError

    def label(self, x):
        raise NotImplementedError

    @property
    def identity(self):
        raise NotImplementedError

    def generators(self) -> list:
        raise NotImplementedError

    @property
    def codeword_bits(self) -> int:
        """Bit length of code-words; always >= ceil(log2 |G|)."""
        raise NotImplementedError

    def exponent_multiple(self) -> dict:
        """Factored positive integer m with x^m = 1 for every element."""
        raise NotImplementedError

    def rand_element(self, rng: random.Random):
        word = self.identity
        gens = self.generators()
        if not gens:
            return word
        for _ in range(12):
            g = gens[rng.randrange(len(gens))]
            word = self.mul(word, g if rng.random() < 0.5 else self.inv(g))
        return word

    def is_identity(self, x) -> bool:
        return self.label(x) == self.label(self.identity)

    def pow(self, x, n: int):
        if n < 0:
            return self.pow(self.inv(x), -n)
        return integers._pow(x, n, self.mul, self.identity)


class CyclicGroup(GroupHandle):
    """Z_n, written additively; elements are ints in [0, n)."""

    name = "cyclic"

    def __init__(self, n: int):
        if n < 1:
            raise SdlpError("cyclic group needs n >= 1")
        self.n = n

    @property
    def identity(self):
        return 0

    def mul(self, x, y):
        return (x + y) % self.n

    def inv(self, x):
        return -x % self.n

    def label(self, x):
        return x % self.n

    def generators(self):
        return [1 % self.n]

    @property
    def codeword_bits(self):
        return max(1, (self.n - 1).bit_length())

    @cached_property
    def factorization(self) -> dict:
        """n's prime factorization {prime: exponent}, factored on first use
        and kept: the order multiples of the group and of its power maps
        and `cyclic_chain` all read it."""
        return integers.factorize(self.n)

    def exponent_multiple(self):
        return dict(self.factorization)

    def elements(self):
        return range(self.n)

    def rand_element(self, rng):
        return rng.randrange(self.n)

    def __repr__(self):
        return f"Cyclic({self.n})"


class VectorGroup(GroupHandle):
    """Z_p^d (elementary abelian), elements are tuples of ints mod p."""

    name = "vector"

    def __init__(self, p: int, d: int):
        if not integers.is_prime(p):
            raise SdlpError("vector group modulus must be prime")
        if d < 0:
            raise SdlpError("vector group needs d >= 0")
        self.p = p
        self.d = d

    @property
    def identity(self):
        return (0,) * self.d

    def mul(self, x, y):
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def inv(self, x):
        p = self.p
        return tuple(-a % p for a in x)

    def label(self, x):
        return tuple(a % self.p for a in x)

    def generators(self):
        return [tuple(1 if i == j else 0 for j in range(self.d)) for i in range(self.d)]

    @property
    def codeword_bits(self):
        return max(1, self.d * max(1, (self.p - 1).bit_length()))

    def exponent_multiple(self):
        return {self.p: 1}

    def elements(self):
        return itertools.product(range(self.p), repeat=self.d)

    def rand_element(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.d))

    def __repr__(self):
        return f"Vector({self.p},{self.d})"


class MatrixGroup(GroupHandle):
    """Subgroup of GL_d(F_q) given by generator matrices."""

    name = "matrix"

    def __init__(self, fld, d: int, generators):
        self.field = fld
        self.d = d
        self._gens = list(generators)
        for g in self._gens:
            if not isinstance(g, Matrix) or g.nrows != d or g.ncols != d:
                raise SdlpError("generators must be d x d matrices")
            if not g.is_invertible():
                raise SdlpError("generators must be invertible")

    @property
    def identity(self):
        return Matrix.identity(self.field, self.d)

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        return x.inverse()

    def pow(self, x, n: int):
        # Matrix.__pow__, which powers an upper-triangular x from its diagonal
        return x**n

    def label(self, x):
        return x.entries_key()

    def generators(self):
        return list(self._gens)

    @property
    def codeword_bits(self):
        return max(1, self.d * self.d * max(1, (self.field.size - 1).bit_length()))

    def exponent_multiple(self):
        # exponent of GL_d(F_q) divides lcm(q^e - 1 : e <= d) * p^ceil(log_p d)
        p = self.field.char
        ext = self.field.degree
        out: dict = {}
        for e in range(1, self.d + 1):
            out = integers.merge_lcm(out, integers.factor_prime_power_minus_one(p, ext * e))
        k = integers._unipotent_log(p, self.d)
        if k:
            out = integers.merge_lcm(out, {p: k})
        return out

    def __repr__(self):
        return f"MatrixGroup(q={self.field.size},d={self.d})"


class HeisenbergGroup(GroupHandle):
    """Upper unitriangular 3x3 matrices over F_p, stored as (a, b, c) for
    the entries (1,2), (2,3), (1,3)."""

    name = "heisenberg"

    def __init__(self, p: int):
        if not integers.is_prime(p):
            raise SdlpError("heisenberg group needs a prime p")
        self.p = p
        self.field = PrimeField(p)

    @property
    def identity(self):
        return (0, 0, 0)

    def mul(self, x, y):
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2] + x[0] * y[1]) % p)

    def inv(self, x):
        p = self.p
        return (-x[0] % p, -x[1] % p, (x[0] * x[1] - x[2]) % p)

    def label(self, x):
        return x

    def generators(self):
        return [(1, 0, 0), (0, 1, 0)]

    @property
    def codeword_bits(self):
        return max(1, 3 * max(1, (self.p - 1).bit_length()))

    def exponent_multiple(self):
        return {self.p: 1} if self.p != 2 else {2: 2}

    def elements(self):
        return itertools.product(range(self.p), repeat=3)

    def rand_element(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(3))

    def to_matrix(self, x) -> Matrix:
        a, b, c = x
        return Matrix(self.field, [[1, a, c], [0, 1, b], [0, 0, 1]])

    def from_matrix(self, M: Matrix):
        r = M.rows
        if (r[0][0], r[1][1], r[2][2]) != (1, 1, 1) or (r[1][0], r[2][0], r[2][1]) != (0, 0, 0):
            raise SdlpError("matrix is not upper unitriangular")
        return (r[0][1], r[1][2], r[0][2])

    def __repr__(self):
        return f"Heisenberg({self.p})"


class Hom:
    """A group homomorphism with an effectively evaluable forward map."""

    def __init__(self, source, target, func, kernel_generators=None, description="", is_identity=False):
        self.source = source
        self.target = target
        self._func = func
        self.kernel_generators = list(kernel_generators or [])
        self.description = description
        self.is_identity = is_identity

    def __call__(self, x):
        return self._func(x)


class PairImageGroup(GroupHandle):
    """Im(psi) encoded by pairs (x, psi(x)) with x in the source group.

    Multiplication happens on the x components; psi is re-evaluated for the
    second component; the label is the target label of psi(x). This is the
    non-unique-encoding trick that makes induced automorphisms evaluable.
    """

    name = "pair-image"

    def __init__(self, hom: Hom):
        self.hom = hom
        self.inner = hom.source
        self.target = hom.target

    @property
    def identity(self):
        e = self.inner.identity
        return (e, self.hom(e))

    def embed(self, x):
        return (x, self.hom(x))

    def mul(self, x, y):
        prod = self.inner.mul(x[0], y[0])
        return (prod, self.hom(prod))

    def inv(self, x):
        w = self.inner.inv(x[0])
        return (w, self.hom(w))

    def label(self, x):
        return self.target.label(x[1])

    def generators(self):
        return [self.embed(g) for g in self.inner.generators()]

    @property
    def codeword_bits(self):
        return self.inner.codeword_bits + self.target.codeword_bits

    def exponent_multiple(self):
        # label orders divide element orders in the source group
        return self.inner.exponent_multiple()

    def rand_element(self, rng):
        return self.embed(self.inner.rand_element(rng))

    def __repr__(self):
        return f"PairImage({self.inner!r} -> {self.target!r})"


class ProductGroup(GroupHandle):
    """Direct product of two or more backends; elements are tuples."""

    name = "product"

    def __init__(self, factors):
        self.factors = list(factors)
        if len(self.factors) < 2:
            raise SdlpError("product needs at least two factors")

    @property
    def identity(self):
        return tuple(f.identity for f in self.factors)

    def mul(self, x, y):
        return tuple(f.mul(a, b) for f, a, b in zip(self.factors, x, y))

    def inv(self, x):
        return tuple(f.inv(a) for f, a in zip(self.factors, x))

    def label(self, x):
        return tuple(f.label(a) for f, a in zip(self.factors, x))

    def generators(self):
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.generators():
                gens.append(self.embed(i, g))
        return gens

    def embed(self, i, g):
        return tuple(g if j == i else f.identity for j, f in enumerate(self.factors))

    def project_hom(self, i) -> Hom:
        kernel_gens = [
            self.embed(j, g) for j, f in enumerate(self.factors) if j != i for g in f.generators()
        ]
        return Hom(
            self,
            self.factors[i],
            lambda x, i=i: x[i],
            kernel_generators=kernel_gens,
            description=f"project[{i}]",
        )

    @property
    def codeword_bits(self):
        return sum(f.codeword_bits for f in self.factors)

    def exponent_multiple(self):
        out: dict = {}
        for f in self.factors:
            out = integers.merge_lcm(out, f.exponent_multiple())
        return out

    def rand_element(self, rng):
        return tuple(f.rand_element(rng) for f in self.factors)

    def __repr__(self):
        return "Product(" + ", ".join(repr(f) for f in self.factors) + ")"


class Subgroup(GroupHandle):
    """A subgroup of a parent handle, given by generators; all element
    operations delegate to the parent."""

    name = "subgroup"

    def __init__(self, parent: GroupHandle, generators):
        self.parent = parent
        self._gens = list(generators)

    @property
    def identity(self):
        return self.parent.identity

    def mul(self, x, y):
        return self.parent.mul(x, y)

    def inv(self, x):
        return self.parent.inv(x)

    def label(self, x):
        return self.parent.label(x)

    def generators(self):
        return list(self._gens)

    @property
    def codeword_bits(self):
        return self.parent.codeword_bits

    def exponent_multiple(self):
        return self.parent.exponent_multiple()

    def __repr__(self):
        return f"Subgroup(of={self.parent!r}, ngens={len(self._gens)})"


def mulclose(group: GroupHandle, generators=None, cap: int = 1 << 14) -> list:
    """All elements generated by the given set (BFS closure), label-deduped."""
    gens = list(generators) if generators is not None else group.generators()
    seen = {group.label(group.identity): group.identity}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.mul(x, g)
                lab = group.label(y)
                if lab not in seen:
                    if len(seen) >= cap:
                        raise SdlpError("mulclose cap exceeded")
                    seen[lab] = y
                    nxt.append(y)
        frontier = nxt
    return list(seen.values())


# ---------------------------------------------------------------------------
# endomorphisms


class Endo:
    """An endomorphism of a group in an effectively-evaluable representation.

    An endo carries no state beyond its representation: solving an instance
    never writes to its sigma. `pow(k)` takes k < 0 for an automorphism,
    from the representation's own inverse (a^-1 for a conjugation, M^-1 for
    a linear map, e^-1 for a power map, the inverted table for a table), so
    sigma^-1 needs no order; for a non-invertible endo it raises SdlpError.
    """

    def __init__(self, group):
        self.group = group

    def apply(self, x):
        raise NotImplementedError

    def pow(self, k: int) -> "Endo":
        """sigma^k; k < 0 needs an automorphism."""
        raise NotImplementedError

    def compose(self, other: "Endo") -> "Endo":
        """self after other (apply other first)."""
        raise NotImplementedError

    def is_automorphism(self) -> bool:
        raise NotImplementedError

    def semidirect_power(self, g, t: int):
        """(rho_(g,1)^t(1_G), sigma^t) for t >= 1: the power (g, sigma)^t in
        G x| End(G), where (P, E)(Q, F) = (P E(Q), E F).

        O(log t) group multiplications, applies and endo compositions. A
        representation with a closed form for the power overrides it:
        `ConjugationEndo` (two matrix powers), `LinearMapEndo` (x^t mod a
        Krylov annihilator, for t of at least _POLY_POWER_MIN_BITS bits),
        `ProductEndo` (componentwise) and `InducedPairEndo` (the inner
        endo's power, embedded). `groups.semidirect_power` is the entry
        point that checks t.
        """
        grp = self.group

        def mul(x, y):
            (P, E), (Q, F) = x, y
            return grp.mul(P, E.apply(Q)), E.compose(F)

        return integers._pow((g, self), t, mul, None)

    def semidirect_powers(self, g, ts):
        """[self.semidirect_power(g, t) for t in ts]. A representation that
        can share work between the exponents of one (g, sigma) overrides
        it: `LinearMapEndo` (one Krylov annihilator and one min_poly(B)),
        and `ProductEndo`, which passes it on to each component."""
        return [self.semidirect_power(g, t) for t in ts]


class PowerMapEndo(Endo):
    """x -> e*x on an additive abelian backend (Cyclic or Vector)."""

    def __init__(self, group, e: int):
        super().__init__(group)
        if isinstance(group, CyclicGroup):
            self.modulus = group.n
        elif isinstance(group, VectorGroup):
            self.modulus = group.p
        else:
            raise SdlpError("PowerMap needs a cyclic or vector group")
        self.e = e % self.modulus

    def apply(self, x):
        if isinstance(self.group, CyclicGroup):
            return x * self.e % self.modulus
        return tuple(a * self.e % self.modulus for a in x)

    def pow(self, k):
        try:
            return PowerMapEndo(self.group, pow(self.e, k, self.modulus))
        except ValueError:  # k < 0 and e is not a unit
            raise SdlpError("power map is not invertible") from None

    def compose(self, other):
        if not isinstance(other, PowerMapEndo) or other.group is not self.group:
            raise SdlpError("cannot compose endomorphisms of different kinds")
        return PowerMapEndo(self.group, self.e * other.e % self.modulus)

    def is_automorphism(self):
        return math.gcd(self.e, self.modulus) == 1

    def __repr__(self):
        return f"PowerMap({self.e})"


# Powers of a linear map with fewer bits than this take the matrix
# square-and-multiply: below it the Krylov set-up or the minimal polynomial
# costs more than the matrix products it saves (timed table in CHANGES.md)
_POLY_POWER_MIN_BITS = 10


class LinearMapEndo(Endo):
    """x -> Mx on a vector group; M is a d x d matrix over F_p.

    A power B^t with t of at least _POLY_POWER_MIN_BITS bits (from `pow`
    with t >= 0, or from `semidirect_power`) is held as r(B) for
    r = x^t mod min_poly(B) (Fiduccia), r found on first use: `apply` is
    Horner's rule on the vector, deg r matvecs, and `matrix` is formed only
    when read.
    """

    def __init__(self, group: VectorGroup, M: Matrix):
        super().__init__(group)
        if M.nrows != group.d or M.ncols != group.d:
            raise SdlpError("linear map has wrong shape")
        self._matrix = M
        self._power = None

    @classmethod
    def _power_of(cls, group, B: Matrix, t: int, hint=None, shared=None) -> "LinearMapEndo":
        """B^t held as a polynomial in B. A hint (h, x^t mod h), h the
        annihilator of (0, ..., 0, 1) under B.affine(g), saves a second
        x^t when min_poly(B) divides h. Powers of one B and one hint's h
        given the same `shared` list find min_poly(B) once: the first to
        need it puts it there."""
        out = cls.__new__(cls)
        Endo.__init__(out, group)
        out._matrix = None
        out._power = (B, t, hint, [] if shared is None else shared)
        out._coeffs = None
        return out

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            d = self.group.d
            cols = [self.apply(tuple(int(i == j) for i in range(d))) for j in range(d)]
            self._matrix = Matrix.from_columns(self._power[0].field, cols)
        return self._matrix

    def _poly(self):
        """The coefficients of r with B^t = r(B), constant term first."""
        if self._coeffs is None:
            B, t, hint, shared = self._power
            F = B.field
            if not shared:
                if hint is not None and hint[0].degree() == B.nrows + 1:
                    # h = (x - 1) ann_B(g), and ann_B(g) is min_poly(B) at degree d
                    shared.append(hint[0].divmod(Poly(F, [F.neg(F.one), F.one]))[0])
                else:
                    shared.append(min_poly(B))
            m = shared[0]
            if hint is not None and hint[0].mod(m).is_zero():
                self._coeffs = Poly(F, list(hint[1])).mod(m).coeffs
            else:
                self._coeffs = _x_power_mod(m, t)
        return self._coeffs

    def apply(self, x):
        if self._matrix is not None:
            return self._matrix.matvec(x)
        # Horner's rule: r(B) x = (...(r_top x) B + r_(top-1) x ...)
        B = self._power[0]
        p = self.group.p
        *low, top = self._poly() or (0,)
        out = tuple([top * b % p for b in x])
        for c in reversed(low):
            out = tuple([(a + c * b) % p for a, b in zip(B.matvec(out), x)])
        return out

    def pow(self, k):
        if k < 0 or k.bit_length() < _POLY_POWER_MIN_BITS or self.group.d == 0:
            return LinearMapEndo(self.group, self.matrix**k)
        return LinearMapEndo._power_of(self.group, self.matrix, k)

    def compose(self, other):
        if not isinstance(other, LinearMapEndo) or other.group is not self.group:
            raise SdlpError("cannot compose endomorphisms of different kinds")
        return LinearMapEndo(self.group, self.matrix * other.matrix)

    def is_automorphism(self):
        # a power B^t, t >= 1, is invertible exactly when B is
        return (self.matrix if self._power is None else self._power[0]).is_invertible()

    def semidirect_power(self, g, t):
        return self.semidirect_powers(g, (t,))[0]

    def semidirect_powers(self, g, ts):
        # rho^t(1) is the t-th iterate from 0 of v -> Bv + g, so with
        # A = [[B, g], [0, 1]] and h the annihilator of e = (0, ..., 0, 1)
        # under A, (rho^t(1), 1) = A^t e = r(A) e for r = x^t mod h: the sum
        # of r_i A^i e over the Krylov vectors (Fiduccia). h, the Krylov
        # vectors and min_poly(B) do not depend on t and are found once.
        d = self.group.d
        if d == 0 or all(t.bit_length() < _POLY_POWER_MIN_BITS for t in ts):
            return [Endo.semidirect_power(self, g, t) for t in ts]
        B = self.matrix
        F = B.field
        h, echelon = krylov(F, B.affine(g).matvec, (F.zero,) * d + (F.one,))
        cols = list(zip(*echelon.basis))[:d]
        dot = F.dot
        shared = []
        out = []
        for t in ts:
            if t.bit_length() < _POLY_POWER_MIN_BITS:
                out.append(Endo.semidirect_power(self, g, t))
                continue
            r = _x_power_mod(h, t)
            rho = tuple([dot(r, col) for col in cols])
            out.append((rho, LinearMapEndo._power_of(self.group, B, t, (h, r), shared)))
        return out

    def __repr__(self):
        return f"LinearMap({self.matrix!r})"


def _x_power_mod(f: Poly, t: int) -> tuple:
    """x^t mod a monic f, as deg f coefficients: the t-th power of the class
    of x in the ring F[x]/(f)."""
    F = f.field
    ring = F.ring(f)
    return ring.pow(ring.element([F.zero, F.one]), t)


class ConjugationEndo(Endo):
    """x -> a^-1 x a by a fixed invertible matrix (possibly outside G)."""

    def __init__(self, group, a: Matrix):
        try:
            a_inv = a.inverse()
        except SdlpError as exc:
            raise SdlpError("conjugating matrix must be invertible") from exc
        self._setup(group, a, a_inv)

    @classmethod
    def _trusted(cls, group, a: Matrix, a_inv: Matrix | None) -> "ConjugationEndo":
        """conj_a for an a known to be invertible; skips validation. An
        a_inv of None is computed on first use (`a_inv`)."""
        out = cls.__new__(cls)
        out._setup(group, a, a_inv)
        return out

    def _setup(self, group, a, a_inv):
        Endo.__init__(self, group)
        self.a = a
        self._a_inv = a_inv
        base = group
        while isinstance(base, Subgroup):
            base = base.parent
        if isinstance(base, HeisenbergGroup):
            self._to_mat = base.to_matrix
            self._from_mat = base.from_matrix
        elif isinstance(base, MatrixGroup):
            self._to_mat = None
        else:
            raise SdlpError("conjugation needs a matrix-backed group")

    @property
    def a_inv(self) -> Matrix:
        """a^-1. A power leaves it to the first use: `rho_pow` and the
        answer check keep rho^t(1) and drop sigma^t unread."""
        if self._a_inv is None:
            self._a_inv = self.a.inverse()
        return self._a_inv

    def apply(self, x):
        if self._to_mat is None:
            return self.a_inv * x * self.a
        return self._from_mat(self.a_inv * self._to_mat(x) * self.a)

    def pow(self, k):
        """conj_{a^k}, with a^k from `Matrix.__pow__`, so an upper-triangular
        a is powered from its diagonal."""
        if k == -1:
            return ConjugationEndo._trusted(self.group, self.a_inv, self.a)
        # inverting b once, when first needed, is cheaper than powering
        # a_inv as well, which would take about 2 log k more products
        b = self.a**k if k >= 0 else self.a_inv ** (-k)
        return ConjugationEndo._trusted(self.group, b, None)

    def compose(self, other):
        if not isinstance(other, ConjugationEndo):
            raise SdlpError("cannot compose endomorphisms of different kinds")
        # (conj_a . conj_b)(x) = a^-1 b^-1 x b a = conj_{b a}(x)
        return ConjugationEndo._trusted(self.group, other.a * self.a, self.a_inv * other.a_inv)

    def is_automorphism(self):
        return True

    def semidirect_power(self, g, t):
        """(rho^t(1), sigma^t): prod_{i<t} a^-i g a^i telescopes to
        (g a^-1)^t a^t, and sigma^t is conjugation by b = a^t. Both powers
        are `Matrix.__pow__`, which first reduces t by the exponent E(q, d)
        of the d x d matrices over F_q, so a square-and-multiply power takes
        about 1.5 log2 min(t, d + E) products. On the Heisenberg and Borel
        platforms a and g a^-1 are upper triangular, so each is r(M) for r =
        x^t mod the characteristic polynomial: one field power per distinct
        diagonal entry and d - 2 matrix products."""
        if t == 1:
            return g, self
        b = self.a**t
        X = g if self._to_mat is None else self._to_mat(g)
        P = (X * self.a_inv) ** t * b
        if self._to_mat is not None:
            P = self._from_mat(P)
        return P, ConjugationEndo._trusted(self.group, b, None)

    def __repr__(self):
        return f"Conjugation({self.a!r})"


class TableEndo(Endo):
    """Explicit permutation-style endomorphism: label -> image element."""

    MAX_SIZE = 1 << 12

    def __init__(self, group, mapping: dict, check=True):
        super().__init__(group)
        if len(mapping) > self.MAX_SIZE:
            raise SdlpError("table endomorphism too large")
        self.mapping = dict(mapping)
        if check:
            if group.label(group.identity) not in self.mapping:
                raise SdlpError("table does not cover the identity")
            # sigma(x g) = sigma(x) sigma(g) for every x and generator g makes sigma a homomorphism
            for x, g in itertools.product(_enumerate_handle(group), group.generators()):
                if group.label(self.apply(group.mul(x, g))) != group.label(group.mul(self.apply(x), self.apply(g))):
                    raise SdlpError("table is not a homomorphism")

    def apply(self, x):
        try:
            return self.mapping[self.group.label(x)]
        except KeyError:
            raise SdlpError("element outside the table domain") from None

    def pow(self, k):
        g = self.group
        table = self.mapping
        if k < 0:
            if not self.is_automorphism():
                raise SdlpError("table endomorphism is not invertible")
            # a bijection's values hold one element per label
            elem = {g.label(y): y for y in table.values()}
            table = {g.label(y): elem[lab] for lab, y in table.items()}
            k = -k
        if k == 0:
            elem = {g.label(x): x for x in _enumerate_handle(g)}
            return TableEndo(g, {lab: elem[lab] for lab in table}, check=False)
        return TableEndo(g, integers._pow(table, k, self._compose_maps, None), check=False)

    def _compose_maps(self, outer, inner):
        g = self.group
        return {lab: outer[g.label(y)] for lab, y in inner.items()}

    def compose(self, other):
        if not isinstance(other, TableEndo):
            raise SdlpError("cannot compose endomorphisms of different kinds")
        return TableEndo(self.group, self._compose_maps(self.mapping, other.mapping), check=False)

    def is_automorphism(self):
        labels = {self.group.label(y) for y in self.mapping.values()}
        return len(labels) == len(self.mapping)

    def __repr__(self):
        return f"Table(|G|={len(self.mapping)})"


class InducedPairEndo(Endo):
    """The automorphism of a PairImage group induced by a source endo."""

    def __init__(self, group: PairImageGroup, inner: Endo):
        super().__init__(group)
        self.inner = inner

    def apply(self, x):
        y = self.inner.apply(x[0])
        return (y, self.group.hom(y))

    def pow(self, k):
        return InducedPairEndo(self.group, self.inner.pow(k))

    def compose(self, other):
        if not isinstance(other, InducedPairEndo):
            raise SdlpError("cannot compose endomorphisms of different kinds")
        return InducedPairEndo(self.group, self.inner.compose(other.inner))

    def is_automorphism(self):
        return self.inner.is_automorphism()

    def semidirect_power(self, g, t):
        # pairs multiply on their source component, so the power is the
        # inner endo's, embedded
        P, E = self.inner.semidirect_power(g[0], t)
        return self.group.embed(P), InducedPairEndo(self.group, E)

    def __repr__(self):
        return f"InducedOnPairImage({self.inner!r})"


class ProductEndo(Endo):
    """Componentwise endomorphism of a direct product."""

    def __init__(self, group: ProductGroup, components):
        super().__init__(group)
        self.components = list(components)
        if len(self.components) != len(group.factors):
            raise SdlpError("one component endo per product factor required")

    def apply(self, x):
        return tuple(e.apply(a) for e, a in zip(self.components, x))

    def pow(self, k):
        return ProductEndo(self.group, [e.pow(k) for e in self.components])

    def compose(self, other):
        if not isinstance(other, ProductEndo):
            raise SdlpError("cannot compose endomorphisms of different kinds")
        return ProductEndo(self.group, [a.compose(b) for a, b in zip(self.components, other.components)])

    def is_automorphism(self):
        return all(e.is_automorphism() for e in self.components)

    def semidirect_power(self, g, t):
        return self.semidirect_powers(g, (t,))[0]

    def semidirect_powers(self, g, ts):
        # (g, sigma)^t is componentwise on a direct product
        per_component = [e.semidirect_powers(x, ts) for e, x in zip(self.components, g)]
        return [
            (tuple(P for P, _ in parts), ProductEndo(self.group, [E for _, E in parts])) for parts in zip(*per_component)
        ]

    def __repr__(self):
        return "ProductEndo(" + ", ".join(repr(e) for e in self.components) + ")"


def restrict_endo(sigma: Endo, subgroup: Subgroup) -> Endo:
    """View sigma as an endomorphism of a subgroup it stabilizes."""
    if isinstance(sigma, ConjugationEndo):
        return ConjugationEndo._trusted(subgroup, sigma.a, sigma._a_inv)
    return sigma  # element-level action is unchanged


def _enumerate_handle(group):
    if hasattr(group, "elements"):
        return group.elements()
    return mulclose(group, cap=TableEndo.MAX_SIZE)


# ---------------------------------------------------------------------------
# instances and solution sets


@dataclass
class SdlpInstance:
    """One SDLP question: find all t >= 0 with h = prod sigma^i(g)."""

    group: GroupHandle
    sigma: Endo
    g: object
    h: object
    chain: object = None

    def __repr__(self):
        return f"SdlpInstance({self.group!r}, {self.sigma!r})"


@dataclass(frozen=True)
class SolutionSet:
    """Empty, {t0}, or the arithmetic progression {t0 + period*k : k >= 0}."""

    kind: str
    t0: int = 0
    period: int = 0

    @classmethod
    def empty(cls):
        return cls("empty")

    @classmethod
    def singleton(cls, t0: int):
        return cls("singleton", t0=t0)

    @classmethod
    def progression(cls, t0: int, period: int):
        if period <= 0:
            raise SdlpError("progression needs period > 0")
        return cls("progression", t0=t0, period=period)

    def is_empty(self):
        return self.kind == "empty"

    def smallest(self):
        if self.kind == "empty":
            raise SdlpError("empty solution set has no representative")
        return self.t0

    def contains(self, t: int) -> bool:
        if self.kind == "empty" or t < self.t0:
            return False
        if self.kind == "singleton":
            return t == self.t0
        return (t - self.t0) % self.period == 0

    def map_affine(self, offset: int, scale: int) -> "SolutionSet":
        """Image under t -> offset + scale * t."""
        if self.kind == "empty":
            return self
        if self.kind == "singleton":
            return SolutionSet.singleton(offset + scale * self.t0)
        return SolutionSet.progression(offset + scale * self.t0, scale * self.period)

    def to_json(self) -> dict:
        if self.kind == "empty":
            return {"kind": "empty"}
        if self.kind == "singleton":
            return {"kind": "singleton", "t0": self.t0}
        return {"kind": "progression", "t0": self.t0, "period": self.period}

    def __repr__(self):
        if self.kind == "empty":
            return "SolutionSet(empty)"
        if self.kind == "singleton":
            return f"SolutionSet({{{self.t0}}})"
        return f"SolutionSet({{{self.t0} + {self.period}k}})"


# ---------------------------------------------------------------------------
# semidirect exponentiation


def sigma_pow_apply(sigma: Endo, i: int, x):
    """sigma^i(x) in O(log i) representation-power steps."""
    if i < 0:
        raise SdlpError("sigma_pow_apply needs i >= 0; an automorphism takes sigma.pow(i)")
    if i == 0:
        return x
    if i == 1:
        return sigma.apply(x)
    return sigma.pow(i).apply(x)


def semidirect_power(g, sigma: Endo, t: int):
    """(rho_(g,1)^t(1_G), sigma^t) for t >= 1, from `sigma.semidirect_power`.

    A caller that needs sigma^t as well takes it from here instead of
    sigma.pow(t).
    """
    if t < 1:
        raise SdlpError("semidirect_power needs t >= 1")
    return sigma.semidirect_power(g, t)


def semidirect_powers(g, sigma: Endo, ts):
    """[semidirect_power(g, sigma, t) for t in ts], from
    `sigma.semidirect_powers`, which finds once what does not depend on t:
    an exchange takes both sides' powers from here."""
    if any(t < 1 for t in ts):
        raise SdlpError("semidirect_power needs t >= 1")
    return sigma.semidirect_powers(g, ts)


def rho_pow(g, sigma: Endo, t: int):
    """rho_(g,1)^t(1_G) = prod_{i<t} sigma^i(g): the first coordinate of
    `semidirect_power`, and 1_G for t = 0."""
    if t < 0:
        raise SdlpError("rho_pow needs t >= 0")
    if t == 0:
        return sigma.group.identity
    return semidirect_power(g, sigma, t)[0]


def rho_apply(g, sigma: Endo, x):
    """One step of the representation: x -> g sigma(x)."""
    return sigma.group.mul(g, sigma.apply(x))


def rho_pow_inverse_apply(g, sigma: Endo, s: int, h):
    """rho_(g,1)^{-s}(h) = sigma^{-s}((rho^s(1))^{-1} h) for an automorphism.

    sigma^{-s} is the inverse of the sigma^s that `semidirect_power` returns
    with rho^s(1), taken from the representation itself, so no order of
    sigma is looked up or computed.
    """
    if not sigma.is_automorphism():
        raise SdlpError("not an automorphism")
    if s < 0:
        raise SdlpError("rho_pow_inverse_apply needs s >= 0")
    if s == 0:
        return h
    grp = sigma.group
    u, sigma_s = semidirect_power(g, sigma, s)
    return sigma_s.pow(-1).apply(grp.mul(grp.inv(u), h))


# ---------------------------------------------------------------------------
# induced automorphisms on images


def induced_automorphism(psi: Hom, sigma: Endo):
    """(image handle, induced endo) for a hom with sigma-invariant kernel.

    When the target is a vector group and the generator images span it, the
    induced map is returned as an explicit linear map on the target (the
    direct method); otherwise the pair-encoding trick is used. Kernel
    invariance is spot-checked on any kernel generators the hom carries.
    """
    _check_kernel_invariance(psi, sigma)
    if isinstance(psi.target, VectorGroup):
        direct = _induced_linear_map(psi, sigma)
        if direct is not None:
            return psi.target, direct
    pair_group = PairImageGroup(psi)
    return pair_group, InducedPairEndo(pair_group, sigma)


def _check_kernel_invariance(psi: Hom, sigma: Endo):
    tgt = psi.target
    for m in psi.kernel_generators:
        if not tgt.is_identity(psi(m)):
            raise InternalAssertionError("claimed kernel generator has nontrivial image")
        if not tgt.is_identity(psi(sigma.apply(m))):
            raise SdlpError("kernel not invariant")


def _induced_linear_map(psi: Hom, sigma: Endo):
    """Matrix of the induced map on a vector-group target, or None if the
    generator images do not span the target. The matrix M takes each
    psi(x_j) to psi(sigma(x_j)): with V the matrix whose rows are the
    psi(x_j), row i of M solves V m = (psi(sigma(x_j))_i)_j, and every row
    is read off one `Echelon` of V's columns."""
    tgt: VectorGroup = psi.target
    F = PrimeField(tgt.p)
    gens = psi.source.generators()
    vecs = [psi(x) for x in gens]
    imgs = [psi(sigma.apply(x)) for x in gens]
    echelon = Echelon(F)
    if any(echelon.add(tuple(v[i] for v in vecs)) is not None for i in range(tgt.d)):
        return None
    rows = [echelon.coords(tuple(w[i] for w in imgs)) for i in range(tgt.d)]
    if None in rows:
        raise SdlpError("kernel not invariant")
    return LinearMapEndo(tgt, Matrix(F, rows))
