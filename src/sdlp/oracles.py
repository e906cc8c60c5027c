"""Classical oracles standing in for the quantum subroutines: discrete
logarithm, element/endomorphism order, orbit index+period, integer factors.

Every oracle self-verifies what it returns; a dlog answer is checked against
the defining equation before it leaves this module.
"""

import math
from dataclasses import dataclass

from . import integers
from .config import SolverConfig
from .errors import NotApplicableError, SdlpError
from .ff import ExtField, Poly, PrimeField, _poly_half_ext_gcd, factor_degrees
from .groups import (
    ConjugationEndo,
    Endo,
    GroupHandle,
    InducedPairEndo,
    LinearMapEndo,
    PowerMapEndo,
    ProductEndo,
    TableEndo,
    rho_apply,
    rho_pow,
)
from .linalg import Matrix, PowerBasis, min_poly


@dataclass(frozen=True)
class OrbitShape:
    """Tail length (index) and cycle length (period) of t -> rho^t(1_G)."""

    index: int
    period: int


def factor_integer(n: int, seed: int = 0) -> list:
    """Complete prime factorization of n < 2^64 as [(prime, exponent), ...]."""
    if n >= 1 << 64:
        raise SdlpError("factor_integer is limited to 64-bit inputs")
    return sorted(integers.factorize(n, seed=seed).items())


class UnitGroup(GroupHandle):
    """Multiplicative group of a finite field, as a labeled handle for the
    dlog oracle."""

    name = "units"

    def __init__(self, fld):
        self.fld = fld

    @property
    def identity(self):
        return self.fld.one

    def mul(self, x, y):
        return self.fld.mul(x, y)

    def stepper(self, c):
        return self.fld.mul_by(c)

    def inv(self, x):
        return self.fld.inv(x)

    def label(self, x):
        return self.fld.to_int(x)

    def generators(self):
        return []

    @property
    def codeword_bits(self):
        return max(1, (self.fld.size - 1).bit_length())

    def exponent_multiple(self):
        return integers.factor_prime_power_minus_one(self.fld.char, self.fld.degree)

    def __repr__(self):
        return f"Units({self.fld!r})"


class PolyUnitGroup(GroupHandle):
    """Unit group of the ring F[x]/(f) for a monic f, as a labeled handle
    for the order and dlog oracles. Elements are coefficient tuples of
    length deg f, constant term first."""

    name = "poly-units"

    def __init__(self, fld, modulus: Poly):
        if modulus.degree() < 1 or not modulus.is_monic():
            raise SdlpError("modulus must be monic of degree >= 1")
        self.fld = fld
        self.modulus = modulus
        self.degree = modulus.degree()
        # x^deg f = sum_k t_k x^k mod f; reducing adds multiples of the
        # nonzero (k, t_k) and needs no field inversion
        self._tail = [(k, fld.neg(c)) for k, c in enumerate(modulus.coeffs[:-1]) if c != fld.zero]
        # a product mod f sums at most 2 deg f - 1 field products into any
        # coefficient: deg f from the product, deg f - 1 from the folds
        self._slots = fld.slots(2 * self.degree - 1) if isinstance(fld, ExtField) else None
        if self._slots is not None:
            self._packed_tail = [(k, self._slots.pack(t)) for k, t in self._tail]

    def element(self, coeffs):
        """The class of sum_i coeffs[i] x^i."""
        raw = list(coeffs) + [self.fld.zero] * (self.degree - len(coeffs))
        return self._reduce(raw)

    @property
    def identity(self):
        return self.element([self.fld.one])

    def mul(self, x, y):
        if self._slots is not None:
            return self._packed_mul(x, y)
        if isinstance(self.fld, PrimeField):
            return self._prime_mul(x, y)
        F = self.fld
        add, mul, zero = F.add, F.mul, F.zero
        xs = [(i, a) for i, a in enumerate(x) if a != zero]
        raw = [zero] * (2 * self.degree - 1)
        if x is y:  # squaring: each cross product once, doubled
            for s, (i, a) in enumerate(xs):
                raw[2 * i] = add(raw[2 * i], mul(a, a))
                for k, b in xs[s + 1 :]:
                    ab = mul(a, b)
                    raw[i + k] = add(raw[i + k], add(ab, ab))
        else:
            ys = [(k, b) for k, b in enumerate(y) if b != zero]
            for i, a in xs:
                for k, b in ys:
                    raw[i + k] = add(raw[i + k], mul(a, b))
        return self._reduce(raw)

    def _prime_mul(self, x, y):
        """`mul` over a prime field: the int products are summed unreduced,
        each top coefficient is reduced once as it is folded by the tail of
        f, and the deg f survivors once at the end."""
        p = self.fld.p
        e = self.degree
        xs = [(i, a) for i, a in enumerate(x) if a]
        raw = [0] * (2 * e - 1)
        if x is y:  # squaring: each cross product once, doubled
            for s, (i, a) in enumerate(xs):
                raw[2 * i] += a * a
                a += a
                for k, b in xs[s + 1 :]:
                    raw[i + k] += a * b
        else:
            ys = [(k, b) for k, b in enumerate(y) if b]
            for i, a in xs:
                for k, b in ys:
                    raw[i + k] += a * b
        for i in range(2 * e - 2, e - 1, -1):
            c = raw[i] % p
            if c:
                for k, t in self._tail:
                    raw[i - e + k] += c * t
        return tuple([c % p for c in raw[:e]])

    def _packed_mul(self, x, y):
        """`mul` on packed coefficients: each is packed once, the products
        and the folds by the tail of f are summed unreduced, and a
        coefficient is unpacked only when it is folded or returned."""
        pack, unpack = self._slots.pack, self._slots.unpack
        zero = self.fld.zero
        e = self.degree
        xs = [(i, pack(a)) for i, a in enumerate(x) if a != zero]
        raw = [0] * (2 * e - 1)
        if x is y:  # squaring: each cross product once, doubled
            for s, (i, a) in enumerate(xs):
                raw[2 * i] += a * a
                for k, b in xs[s + 1 :]:
                    raw[i + k] += 2 * a * b
        else:
            ys = [(k, pack(b)) for k, b in enumerate(y) if b != zero]
            for i, a in xs:
                for k, b in ys:
                    raw[i + k] += a * b
        for i in range(2 * e - 2, e - 1, -1):
            if raw[i]:
                c = unpack(raw[i])
                if c != zero:
                    c = pack(c)
                    for k, t in self._packed_tail:
                        raw[i - e + k] += c * t
        return tuple([unpack(c) for c in raw[:e]])

    def _reduce(self, raw):
        F = self.fld
        add, mul, zero = F.add, F.mul, F.zero
        e = self.degree
        for i in range(len(raw) - 1, e - 1, -1):
            c = raw[i]
            if c != zero:
                for k, t in self._tail:
                    raw[i - e + k] = add(raw[i - e + k], mul(c, t))
        return tuple(raw[:e])

    def inv(self, x):
        F = self.fld
        g, s = _poly_half_ext_gcd(Poly(F, list(x)), self.modulus)
        if g.degree() != 0:
            raise SdlpError("element is not a unit modulo f")
        return self.element(s.scale(F.inv(g.coeffs[0])).coeffs)

    def label(self, x):
        to_int = self.fld.to_int
        return tuple(to_int(c) for c in x)

    def exponent_multiple(self):
        return _unit_exponent_multiple(self.fld, self.modulus)


# ---------------------------------------------------------------------------
# element and endomorphism orders


@dataclass(frozen=True)
class _PrimePart:
    """The p-primary part of <x> for one prime p dividing n = ord(x): y
    generates it and has order p^e exactly, gamma = y^(p^(e-1)) has order
    p, and y = (x^(n/p^e))^scale."""

    p: int
    e: int
    y: object
    gamma: object
    scale: int


class ElementOrder(tuple):
    """(order, factored order) of a group element, as `element_order`
    returns it. `parts` keeps the element's prime-power projections, which
    `dlog` and `dlog_many` reuse as the base side of Pohlig-Hellman."""

    def __new__(cls, order: int, fact: dict, parts: tuple):
        out = super().__new__(cls, (order, fact))
        out.parts = parts
        return out

    def __getnewargs__(self):  # lets copy and pickle rebuild it
        return (*self, self.parts)


def element_order(group: GroupHandle, x) -> ElementOrder:
    """(order, factored order) of a group element, read off one cofactor
    tree over a factored multiple M of the order.

    A Matrix takes its multiple from the factor degrees of its minimal
    polynomial instead of the full GL exponent, which keeps the powers
    cheap for large extension fields; any other element takes the group's
    `exponent_multiple()`. The tree gives every x^(M/p^e); the p-part of the
    order then takes at most e powerings by p, which also check that M
    annihilates x (SdlpError if it does not).
    """
    factored_multiple = matrix_order_multiple(x) if isinstance(x, Matrix) else group.exponent_multiple()
    return _order_parts(group, x, factored_multiple)


def _order_parts(group: GroupHandle, x, factored_multiple: dict) -> ElementOrder:
    """`element_order` for a given factored multiple M of ord(x)."""
    primes = [(p, e) for p, e in sorted(factored_multiple.items()) if e > 0]
    if not primes:  # M = 1, and the tree is empty: only the identity has order 1
        if not group.is_identity(x):
            raise SdlpError("claimed exponent multiple does not annihilate the element")
        return ElementOrder(1, {}, ())
    found = []
    for (p, e), y in zip(primes, _cofactor_powers(group, x, primes)):
        z, k, gamma = y, 0, None
        while not group.is_identity(z):
            if k == e:
                raise SdlpError("claimed exponent multiple does not annihilate the element")
            gamma, z, k = z, group.pow(z, p), k + 1
        if k:
            found.append((p, e, k, y, gamma))
    fact = {p: k for p, _, k, _, _ in found}
    n = integers.factorization_product(fact)
    # y = x^(M/p^e) = (x^(n/p^k))^c with c = (M/n) / p^(e-k), a unit mod p^k
    cofactor = integers.factorization_product(dict(primes)) // n
    parts = tuple(_PrimePart(p, k, y, gamma, cofactor // p ** (e - k) % p**k) for p, e, k, y, gamma in found)
    return ElementOrder(n, fact, parts)


def _cofactor_powers(group: GroupHandle, x, primes: list) -> list:
    """[x^(N/p^e) for (p, e) in primes] with N the product of the p^e.

    Each half of the list raises x to the other half's prime powers and
    recurses, so r primes cost O(log N log r) products instead of r full
    powers. An empty list has no cofactors.
    """
    if not primes:
        return []
    if len(primes) == 1:
        return [x]
    mid = len(primes) // 2
    left, right = primes[:mid], primes[mid:]
    to_left = group.pow(x, integers.factorization_product(dict(right)))
    to_right = group.pow(x, integers.factorization_product(dict(left)))
    return _cofactor_powers(group, to_left, left) + _cofactor_powers(group, to_right, right)


def matrix_order_multiple(A) -> dict:
    """Factored multiple of ord(A), read off its minimal polynomial."""
    return _unit_exponent_multiple(A.field, min_poly(A))


def _unit_exponent_multiple(fld, f: Poly) -> dict:
    """Factored multiple of the exponent of (F[x]/(f))^*: lcm(q^e - 1) over
    the factor degrees e of f, times the p-part for repeated factors."""
    p = fld.char
    out: dict = {}
    for e in factor_degrees(f):
        out = integers.merge_lcm(out, integers.factor_prime_power_minus_one(p, fld.degree * e))
    k = 0
    while p**k < max(1, f.degree()):
        k += 1
    if k:
        out = integers.merge_lcm(out, {p: k})
    return out


def _order_from_multiple(is_trivial_power, factored_multiple: dict):
    """(n, factored n): the smallest n dividing the multiple with power n
    trivial, one prime at a time. The reducer for orders known only through
    a predicate: endomorphism orders and orbit periods come through here,
    element orders through `element_order`'s cofactor tree."""
    n = integers.factorization_product(factored_multiple)
    fact = dict(factored_multiple)
    for p in list(fact):
        while fact.get(p, 0) > 0 and is_trivial_power(n // p):
            n //= p
            fact[p] -= 1
    return n, {p: e for p, e in sorted(fact.items()) if e > 0}


def endo_order(sigma: Endo) -> list:
    """Factored order of an automorphism: the lcm over generators of the
    period of t -> sigma^t(x).

    A representation-specific multiple (the minimal-polynomial multiple of
    the matrix for linear maps and conjugations) is reduced on the
    generators by `_order_from_multiple`; table endomorphisms read the order
    off their cycle structure. Nothing is stored on sigma.
    """
    if not sigma.is_automorphism():
        raise SdlpError("endo_order expects an automorphism")
    gens = sigma.group.generators()
    mult = _endo_order_multiple(sigma)
    if mult is None:
        n, fact = _endo_order_by_walk(sigma, gens)
    else:
        grp = sigma.group

        def trivial(k):
            pw = sigma.pow(k)
            return all(grp.label(pw.apply(x)) == grp.label(x) for x in gens)

        if not trivial(integers.factorization_product(mult)):
            raise SdlpError("representation multiple does not annihilate the generators")
        n, fact = _order_from_multiple(trivial, mult)
    return sorted(fact.items())


def _endo_order_multiple(sigma: Endo):
    """A factored multiple of ord(sigma) read off the representation."""
    if isinstance(sigma, PowerMapEndo):
        n = sigma.modulus
        lam: dict = {}
        for p, e in integers.factorize(n).items():
            if p == 2:
                part = {} if e == 1 else ({2: 1} if e == 2 else {2: e - 2})
            else:
                part = integers.merge_lcm({p: e - 1} if e > 1 else {}, integers.factorize(p - 1))
            lam = integers.merge_lcm(lam, part)
        return lam
    if isinstance(sigma, LinearMapEndo):
        return matrix_order_multiple(sigma.matrix)
    if isinstance(sigma, ConjugationEndo):
        return matrix_order_multiple(sigma.a)  # conj_a^k = 1 once a^k = 1
    if isinstance(sigma, TableEndo):
        return _table_order_factored(sigma)
    if isinstance(sigma, InducedPairEndo):
        return _endo_order_multiple(sigma.inner)
    if isinstance(sigma, ProductEndo):
        out: dict = {}
        for comp in sigma.components:
            part = _endo_order_multiple(comp)
            if part is None:
                return None
            out = integers.merge_lcm(out, part)
        return out
    return None


def _table_order_factored(sigma) -> dict:
    """lcm of the cycle lengths of the label permutation."""
    grp = sigma.group
    succ = {lab: grp.label(y) for lab, y in sigma.mapping.items()}
    seen = set()
    out: dict = {}
    for start in succ:
        if start in seen:
            continue
        length = 0
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = succ[cur]
            length += 1
        if length:
            out = integers.merge_lcm(out, integers.factorize(length))
    return out


def _endo_order_by_walk(sigma: Endo, gens, cap: int = 1 << 20):
    """Per-generator period by plain iteration; lcm of the periods."""
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
                raise NotApplicableError("endomorphism order walk cap exceeded")
        n = n * period // math.gcd(n, period)
    return n, integers.factorize(n)


def ensure_endo_order(sigma: Endo) -> int:
    """ord(sigma) as an integer."""
    return integers.factorization_product(dict(endo_order(sigma)))


# ---------------------------------------------------------------------------
# discrete logarithm


def dlog(group: GroupHandle, base, target, factored_order, config: SolverConfig | None = None):
    """Smallest t >= 0 with base^t = target, or None: `dlog_many` on one
    target.

    `factored_order` is `element_order(group, base)` or the exact factored
    order of base. The search runs Pohlig-Hellman style, solving each prime
    digit with BSGS, or with Pollard rho for primes above 2^10 under
    `oracle="rho"`; Pohlig-Hellman raises SdlpError when handed a proper
    multiple of the order. `oracle="brute"` walks the powers of base. The
    returned value always satisfies the equation (self-verified); None means
    target is not a power of base.
    """
    return dlog_many(group, base, [target], factored_order, config)[0]


def dlog_many(group: GroupHandle, base, targets, factored_order, config: SolverConfig | None = None) -> list:
    """[dlog(group, base, h, factored_order, config) for h in targets], with
    one set-up for base.

    `factored_order` is `element_order(group, base)`, whose projections of
    base are used as they are, or the exact factored order of base, from
    which one cofactor tree reads them. Pohlig-Hellman loops over the primes
    on the outside: each prime's baby-step table is built once, serves every
    digit of every target and is dropped before the next prime's. Each
    target takes one cofactor tree of its own. Nothing outlives the call.
    """
    config = config or SolverConfig()
    logs = [0 if group.is_identity(h) else None for h in targets]
    todo = [i for i, t in enumerate(logs) if t is None]
    if not todo:
        return logs
    if config.oracle == "brute":
        n = factored_order[0] if isinstance(factored_order, ElementOrder) else integers.factorization_product(factored_order)
        found = [_dlog_brute(group, base, targets[i], n) for i in todo]
    else:
        if isinstance(factored_order, ElementOrder):
            parts = factored_order.parts
        else:
            got = _order_parts(group, base, factored_order)
            if got[1] != {p: e for p, e in factored_order.items() if e > 0}:
                raise SdlpError("factored order is not the exact order of the base")
            parts = got.parts
        found = _pohlig_hellman(group, [targets[i] for i in todo], parts, config)
    label = group.label
    for i, t in zip(todo, found):
        if t is not None and label(group.pow(base, t)) == label(targets[i]):
            logs[i] = t
    return logs


def _dlog_brute(group, base, target, bound):
    cur = group.identity
    want = group.label(target)
    for t in range(bound + 1):
        if group.label(cur) == want:
            return t
        cur = group.mul(cur, base)
    return None


def _bsgs(group, base, bound, config: SolverConfig):
    """x -> the dlog of x to base below bound, or None: the baby-step table
    is built here once, and each call takes its own giant steps.

    The walk runs in the view `_walk_view` picks: the group itself, or for
    a long walk over F_{p^e}^* the base's power basis, where a baby step is
    one shift and fold. Each target is moved into the view once, and one
    outside it has no log. The table keeps the smallest j per label, so
    either view returns the same log."""
    m = math.isqrt(max(bound, 1) - 1) + 1
    if m > config.bsgs_mem:
        raise NotApplicableError("instance too large for the BSGS table")
    view, into = _walk_view(group, base, m)
    label = view.label
    baby = view.stepper(into(base))
    table = {}
    cur = view.identity
    for j in range(m):
        table.setdefault(label(cur), j)
        cur = baby(cur)
    giant = view.stepper(view.inv(cur))  # x -> x base^{-m}

    def find(target):
        gamma = into(target)
        if gamma is None:
            return None
        for i in range(m + 1):
            j = table.get(label(gamma))
            if j is not None:
                return i * m + j
            gamma = giant(gamma)
        return None

    return find


# Fewer baby steps than this do not repay the change of basis: timed, the
# power basis breaks even with the field's own at 30 to 40 steps for every
# e from 2 to 10 (one table and one lookup on each side)
_POWER_BASIS_MIN_STEPS = 32


def _walk_view(group, base, m):
    """(view, into) for a BSGS walk of m baby steps: the group with the
    identity map, or, over F_{p^e}^* for m > _POWER_BASIS_MIN_STEPS, base's
    `PowerBasis` with its `coords`."""
    if isinstance(group, UnitGroup) and isinstance(group.fld, ExtField) and m > _POWER_BASIS_MIN_STEPS:
        basis = PowerBasis(group.fld, base)
        return basis, basis.coords
    return group, lambda x: x


def _prime_order_log(group, base, p, config: SolverConfig):
    """x -> the dlog of x to a base of prime order p, or None."""
    if config.oracle == "rho" and p > (1 << 10):
        return lambda target: _rho_with_order(group, base, target, p, config)
    return _bsgs(group, base, p, config)


def _rho_with_order(group, base, target, n, config: SolverConfig):
    """Pollard rho with Floyd cycle-finding, for a base of prime order n."""
    import random

    rng = random.Random(config.seed)
    for _ in range(24):
        t = _rho_round(group, base, target, n, rng)
        if t is not None:
            return t
    return _bsgs(group, base, n, config)(target)


def _rho_round(group, base, target, n, rng):
    times_base = group.stepper(base)
    times_target = group.stepper(target)

    def step(x, a, b):
        sel = hash(group.label(x)) % 3
        if sel == 0:
            return times_base(x), (a + 1) % n, b
        if sel == 1:
            return group.mul(x, x), a * 2 % n, b * 2 % n
        return times_target(x), a, (b + 1) % n

    a0 = rng.randrange(n)
    x = group.pow(base, a0)
    a, b = a0, 0
    X, A, B = x, a, b
    for _ in range(8 * math.isqrt(n) + 64):
        x, a, b = step(x, a, b)
        X, A, B = step(*step(X, A, B))
        if group.label(x) == group.label(X):
            r = (B - b) % n
            if r == 0:
                return None
            # r*t = a-A (mod n) has one solution, as n is prime
            t = (a - A) * pow(r, -1, n) % n
            return t if group.label(group.pow(base, t)) == group.label(target) else None
    return None


def _pohlig_hellman(group, targets, parts, config: SolverConfig) -> list:
    """Each target's dlog modulo ord(base), from the base's prime parts, or
    None where some digit has no log. Every target is projected by its own
    cofactor tree; the primes run on the outside, so one table per prime is
    alive at a time."""
    primes = [(part.p, part.e) for part in parts]
    projected = [_cofactor_powers(group, h, primes) for h in targets]
    logs = [(0, 1)] * len(targets)
    for i, part in enumerate(parts):
        alive = [j for j, log in enumerate(logs) if log is not None]
        if not alive:
            break
        pe = part.p**part.e
        for j, s in zip(alive, _prime_power_logs(group, part, [projected[j][i] for j in alive], config)):
            logs[j] = None if s is None else integers.crt_pair(*logs[j], s * part.scale % pe, pe)
    return [None if log is None else log[0] for log in logs]


def _prime_power_logs(group, part: _PrimePart, targets, config: SolverConfig) -> list:
    """s with y^s = h for each target h, digit by digit, or None; y has
    order p^e, and one solver for its order-p power gamma serves every
    digit of every target."""
    p, e = part.p, part.e
    find = _prime_order_log(group, part.gamma, p, config)
    y_inv = group.inv(part.y) if e > 1 else None
    out = []
    for h in targets:
        s, cur = 0, h
        for k in range(e):
            d = find(group.pow(cur, p ** (e - 1 - k)))
            if d is None:
                s = None
                break
            s += d * p**k
            if k < e - 1:  # the last digit's update would go unread
                cur = group.mul(cur, group.pow(y_inv, d * p**k))
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# orbit shape


def orbit_index_period(g, sigma: Endo, config: SolverConfig | None = None) -> OrbitShape:
    """Exact (index, period) of the orbit rho^t(1_G).

    Automorphisms short-circuit: the orbit is a pure cycle whose length is
    recovered by reducing the factored multiple ord(sigma) * ord(rho^ord(1)).
    Endomorphisms fall back to Brent cycle detection on x -> g sigma(x).
    """
    config = config or SolverConfig()
    grp = sigma.group
    if sigma.is_automorphism():
        try:
            return OrbitShape(0, _automorphism_orbit_period(g, sigma))
        except (SdlpError, NotImplementedError):
            pass  # exponent data unavailable; fall through to the walk
    index, period = _brent_cycle(lambda x: rho_apply(g, sigma, x), grp.identity, grp.label, config.max_walk)
    return OrbitShape(index, period)


def _automorphism_orbit_period(g, sigma: Endo) -> int:
    grp = sigma.group
    mult = dict(endo_order(sigma))
    g_m = rho_pow(g, sigma, integers.factorization_product(mult))
    ord_gm, gm_fact = element_order(grp, g_m)
    for p, e in gm_fact.items():
        mult[p] = mult.get(p, 0) + e
    period, _ = _order_from_multiple(lambda k: grp.is_identity(rho_pow(g, sigma, k)), mult)
    return period


def _brent_cycle(f, x0, label, cap: int):
    power = period = 1
    tortoise = x0
    hare = f(x0)
    steps = 1
    while label(tortoise) != label(hare):
        if power == period:
            tortoise = hare
            power *= 2
            period = 0
        hare = f(hare)
        period += 1
        steps += 1
        if steps > cap:
            raise NotApplicableError("orbit walk cap exceeded")
    tortoise = hare = x0
    for _ in range(period):
        hare = f(hare)
    index = 0
    while label(tortoise) != label(hare):
        tortoise = f(tortoise)
        hare = f(hare)
        index += 1
        if index > cap:
            raise NotApplicableError("orbit walk cap exceeded")
    return index, period


def orbit_walk(g, sigma: Endo, cap: int):
    """Explicit orbit values [rho^0(1), ..., rho^{index+period-1}(1)].

    Returns (values, index, period); the listed values are pairwise
    label-distinct.
    """
    grp = sigma.group
    positions: dict = {}
    values = []
    x = grp.identity
    t = 0
    while True:
        lab = grp.label(x)
        if lab in positions:
            start = positions[lab]
            return values, start, t - start
        if t >= cap:
            raise NotApplicableError("orbit walk cap exceeded")
        positions[lab] = t
        values.append(x)
        x = rho_apply(g, sigma, x)
        t += 1
