"""Classical oracles standing in for the quantum subroutines: discrete
logarithm, element/endomorphism order, orbit index+period, integer factors.

Every oracle self-verifies what it returns; a dlog answer is checked against
the defining equation before it leaves this module.
"""

import math
import operator
import random
from dataclasses import dataclass

from . import integers
from .config import SolverConfig
from .errors import NotApplicableError, SdlpError
from .ff import ExtField, Poly, PrimeField, Slots, _poly_half_ext_gcd, _slot_size, factor_degrees
from .groups import (
    ConjugationEndo,
    CyclicGroup,
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
from .linalg import Echelon, Matrix, krylov, min_poly


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

    def pow(self, x, n: int):
        """x^n; for n >= 0 the builtin `pow(x, n, p)` over F_p, and
        `ExtField.pow`, on the field's packed prime ring, over F_{p^e}."""
        if n >= 0:
            if isinstance(self.fld, PrimeField):
                return pow(x, n, self.fld.p)
            if isinstance(self.fld, ExtField):
                return self.fld.pow(x, n)
        return GroupHandle.pow(self, x, n)

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
    length deg f, constant term first; products and powers run on the
    field's ring kernel (`ff.PolyRing`)."""

    name = "poly-units"

    def __init__(self, fld, modulus: Poly):
        if modulus.degree() < 1 or not modulus.is_monic():
            raise SdlpError("modulus must be monic of degree >= 1")
        self.fld = fld
        self.modulus = modulus
        self.ring = fld.ring(modulus)

    def element(self, coeffs):
        """The class of sum_i coeffs[i] x^i."""
        return self.ring.element(coeffs)

    @property
    def identity(self):
        return self.element([self.fld.one])

    def mul(self, x, y):
        return self.ring.mul(x, y)

    def pow(self, x, n: int):
        return self.ring.pow(x, n) if n >= 0 else GroupHandle.pow(self, x, n)

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
    k = integers._unipotent_log(p, f.degree())
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


def endo_order_multiple(sigma: Endo) -> dict:
    """Factored multiple M of ord(sigma), read off the representation and
    checked: sigma^M fixes every generator. A representation with no such
    multiple raises NotApplicableError. Nothing is stored on sigma."""
    if not sigma.is_automorphism():
        raise SdlpError("endo_order expects an automorphism")
    mult = _endo_order_multiple(sigma)
    if mult is None:
        raise NotApplicableError("no order multiple for this endomorphism representation")
    if not _trivial_power_test(sigma)(integers.factorization_product(mult)):
        raise SdlpError("representation multiple does not annihilate the generators")
    return mult


def endo_order(sigma: Endo) -> list:
    """Factored order of an automorphism: `endo_order_multiple` reduced on
    the generators by `_order_from_multiple`."""
    _, fact = _order_from_multiple(_trivial_power_test(sigma), endo_order_multiple(sigma))
    return sorted(fact.items())


def _trivial_power_test(sigma: Endo):
    """k -> whether sigma^k fixes every generator."""
    grp = sigma.group
    gens = [(x, grp.label(x)) for x in grp.generators()]

    def trivial(k):
        pw = sigma.pow(k)
        return all(grp.label(pw.apply(x)) == lab for x, lab in gens)

    return trivial


def _endo_order_multiple(sigma: Endo):
    """A factored multiple of ord(sigma) read off the representation."""
    if isinstance(sigma, PowerMapEndo):
        # a vector group's modulus is prime
        fact = sigma.group.factorization if isinstance(sigma.group, CyclicGroup) else {sigma.modulus: 1}
        lam: dict = {}
        for p, e in fact.items():
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
    of m = ceil(sqrt(bound)) steps is built here once, and each call takes
    its own giant steps. The table keeps the smallest j per element and the
    giant steps run i = 0, 1, ..., m in order, so the first hit i m + j is
    the log.

    Over F_{p^e}^* a table of more than _POWER_BASIS_MIN_STEPS steps is
    built and searched in the window coordinates of `_window_bsgs`, whose
    steps are packed block products; elsewhere each step is one product in
    the group. Both return the same logs."""
    m = math.isqrt(max(bound, 1) - 1) + 1
    if m > config.bsgs_mem:
        raise NotApplicableError("instance too large for the BSGS table")
    if isinstance(group, UnitGroup) and isinstance(group.fld, ExtField) and m > _POWER_BASIS_MIN_STEPS:
        return _window_bsgs(group.fld, base, m)
    label = group.label
    baby = group.stepper(base)
    table = {}
    cur = group.identity
    for j in range(m):
        table.setdefault(label(cur), j)
        cur = baby(cur)
    giant = group.stepper(group.inv(cur))  # x -> x base^{-m}

    def find(target):
        gamma = target
        for i in range(m + 1):
            j = table.get(label(gamma))
            if j is not None:
                return i * m + j
            gamma = giant(gamma)
        return None

    return find


# Fewer baby steps than this do not repay the change of basis: timed, the
# window walk breaks even with the field's own at 32 to 48 steps for every e
# from 2 to 10 (one table and one full search on each side)
_POWER_BASIS_MIN_STEPS = 32
# The most recurrence terms per baby-step block and giant steps per block; a
# table of m steps takes at most sqrt(m) of each, so that a short one pays
# little set-up (timed in CHANGES.md)
_BABY_BLOCK = 64
_GIANT_BLOCK = 64


def _window_bsgs(fld, c, m):
    """`_bsgs` over F_{p^e}^* for a base c and m baby steps, in window
    coordinates (Shoup, "Efficient computation of minimal polynomials in
    algebraic extensions of finite fields", ISSAC 1999).

    F_p(c) is the Krylov space of 1 under a -> a c (`krylov`): its basis
    is the power basis 1, c, ..., c^(k-1), k = deg minpoly(c), and its
    annihilator is minpoly(c), whose tail w gives c^k = sum_j w_j c^j. Let
    phi be the coordinate 0 in the power basis, and
    window(a) = (phi(a c^l))_{l<k}. This is a bijection from F_p(c) to
    F_p^k: phi != 0 and (a, b) -> phi(ab) is nondegenerate on a field. The
    windows of c^0, c^1, ... are the overlapping k-windows of one sequence
    s_n = phi(c^n), which starts 1, 0, ..., 0 and follows s_{n+k} =
    sum_j w_j s_{n+j}, w the minimal polynomial's tail.

    Baby steps: s_{n+i} = sum_l r_l s_{n+l} for r the power-basis
    coordinates of c^i, so the next terms after a window are one
    `_rows_product` by the rows for c^k, c^(k+1), .... The keys are k-term
    byte windows of the sequence, each term in the narrowest slot.

    Giant steps: with the Hankel matrices H_n = (s_{n+l+i})_{l,i}, the
    element with power-basis coordinates u has window H_0 u, and times c^m
    the window H_m u, so window(a c^-m) = M window(a) for M = H_0 H_m^-1:
    row r of M is the coordinates of row r of H_0 over the rows of H_m. M,
    M^2, ..., M^G stacked are one `_rows_product`, G steps at a time.
    A target is moved in by `coords` once; one outside F_p(c) is no power
    of c and takes no giant step.
    """
    F, p = fld.base, fld.p
    minpoly, basis = krylov(F, lambda a: fld.mul(a, c), fld.one)
    k = minpoly.degree()
    tail = [F.neg(a) for a in minpoly.coeffs[:k]]
    rows = [tail]  # c^k, c^(k+1), ...: shift up, fold the top back
    while len(rows) < min(_BABY_BLOCK, math.isqrt(m)):
        top = rows[-1][-1]
        rows.append([(a + top * t) % p for a, t in zip([0, *rows[-1][:-1]], tail)])
    baby = _rows_product(p, rows)
    terms = [1] + [0] * (k - 1)
    while len(terms) < m + 2 * k - 1:
        terms += baby(terms[-k:])
    size = _slot_size(p - 1)
    width = k * size
    buf = Slots(p, m + k - 1, size).to_bytes(terms[: m + k - 1])
    # reversed, so that the smallest j of a repeated key is written last
    keys = [buf[at : at + width] for at in range((m - 1) * size, -1, -size)]
    table = dict(zip(keys, range(m - 1, -1, -1)))
    h0 = [terms[r : r + k] for r in range(k)]
    hm = Echelon(F)
    for r in range(k):
        hm.add(terms[m + r : m + r + k])
    powers = [[hm.coords(row) for row in h0]]  # the rows of M
    times_m = _rows_product(p, list(zip(*powers[0])))  # row -> row M
    G = min(_GIANT_BLOCK, math.isqrt(m))
    while len(powers) < G:
        powers.append([times_m(row) for row in powers[-1]])
    jump = _rows_product(p, [row for power in powers for row in power])
    key, block_keys = Slots(p, k, size).to_bytes, Slots(p, G * k, size).to_bytes
    cuts = [slice(at, at + width) for at in range(0, G * width, width)]

    def find(target):
        u = basis.coords(target)
        if u is None:
            return None
        window = [F.dot(row, u) for row in h0]
        j = table.get(key(window))
        if j is not None:
            return j
        for i in range(0, m, G):  # the windows of target c^(-m (i + g)), g = 1 .. G
            block = jump(window)
            keys = list(map(block_keys(block).__getitem__, cuts[: m - i]))
            if not table.keys().isdisjoint(keys):
                for g, j in enumerate(map(table.get, keys), i + 1):
                    if j is not None:
                        return g * m + j
            window = block[-k:]
        return None

    return find


def _rows_product(p, rows):
    """v -> [dot(row, v) mod p for row in rows] for a fixed matrix over F_p,
    as one packed product (`Slots`, no tail): column l is one int whose
    slot i holds rows[i][l], so sum_l v_l col_l holds row i's dot product
    in slot i. A dot product of k terms below p is at most k (p - 1)^2,
    which sets the slot width."""
    s = Slots(p, len(rows), _slot_size(len(rows[0]) * (p - 1) ** 2))
    cols = [s.pack(col) for col in zip(*rows)]
    unpack, mul = s.unpack, operator.mul
    return lambda v: unpack(sum(map(mul, v, cols)))


def _prime_order_log(group, base, p, config: SolverConfig):
    """x -> the dlog of x to a base of prime order p, or None."""
    if config.oracle == "rho" and p > (1 << 10):
        return lambda target: _rho_with_order(group, base, target, p, config)
    return _bsgs(group, base, p, config)


def _rho_with_order(group, base, target, n, config: SolverConfig):
    """Pollard rho with Floyd cycle-finding, for a base of prime order n."""
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
    recovered by reducing M * ord(rho^M(1)), where sigma^M = 1 for the
    multiple M of `endo_order_multiple`, so rho^{jM}(1) = rho^M(1)^j.
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
    mult = dict(endo_order_multiple(sigma))
    g_m = rho_pow(g, sigma, integers.factorization_product(mult))
    _, gm_fact = element_order(grp, g_m)
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
