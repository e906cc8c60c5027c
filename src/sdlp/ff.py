"""Exact arithmetic over prime fields F_p and extensions F_{p^e}.

Prime field elements are plain ints in [0, p); extension field elements are
tuples of ints of length e (coefficients in the polynomial basis, constant
term first). Polynomials are Poly objects over either field, normalized so
the coefficient list never has trailing zeros.
"""

from __future__ import annotations

import math
import operator
import random
import struct

from .errors import SdlpError
from .integers import _pow, _reduce_exponent, factorize, is_prime


# Single products (`ExtField.dot`, `mul`) pack from this degree on, in
# slots of at most 8 bytes; below it, or in wider slots, the schoolbook
# convolution is as fast or faster (timed in CHANGES.md). Products that
# pack each operand once for many products (matrices, polynomials over
# the field) pack at every degree and width.
PACK_MIN_DEGREE = 3


class PrimeField:
    """The field Z/pZ for a 64-bit prime p."""

    def __init__(self, p: int):
        if p >= 1 << 64:
            raise SdlpError("prime modulus out of 64-bit range")
        if not is_prime(p):
            raise SdlpError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.degree = 1
        self.size = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def mul_by(self, c):
        """The map a -> a * c."""
        p = self.p
        return lambda a: a * c % p

    def dot(self, a, b):
        """sum_i a_i b_i, reduced once."""
        return sum(map(operator.mul, a, b)) % self.p

    def products(self, rows, cols):
        """The table [[dot(r, c) for c in cols] for r in rows]."""
        p, mul = self.p, operator.mul
        return [[sum(map(mul, r, c)) % p for c in cols] for r in rows]

    def ring(self, f):
        """F_p[x]/(f) for a monic f of degree >= 1."""
        return _PrimeRing(self, f)

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def to_int(self, a) -> int:
        return a

    def rand(self, rng: random.Random):
        return rng.randrange(self.p)

    def rand_nonzero(self, rng: random.Random):
        return rng.randrange(1, self.p)

    def elements(self):
        return range(self.p)

    def to_prime_coeffs(self, a):
        return (a,)

    def from_prime_coeffs(self, coeffs):
        return coeffs[0] % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class ExtField:
    """F_{p^e} = F_p[x] / (modulus), elements as coefficient tuples."""

    def __init__(self, base: PrimeField, modulus):
        mod = Poly(base, list(modulus.coeffs) if isinstance(modulus, Poly) else list(modulus))
        if mod.degree() < 1 or mod.lead() != base.one:
            raise SdlpError("modulus must be monic of degree >= 1")
        if mod.degree() >= 2 and not is_irreducible(mod):
            raise SdlpError("modulus polynomial is reducible")
        self._setup(base, mod)

    @classmethod
    def _trusted(cls, base: PrimeField, modulus: Poly) -> ExtField:
        """F_p[x]/(modulus) for a monic modulus already known to be
        irreducible (a factor from `factor_poly`, or the answer of
        `canonical_irreducible`'s search); skips the test. The field
        equals, and hashes as, the one `ExtField(base, modulus)` builds."""
        out = cls.__new__(cls)
        out._setup(base, Poly(base, list(modulus.coeffs)))
        return out

    def _setup(self, base, mod):
        self.base = base
        self.modulus = mod
        self.p = base.p
        self.char = base.p
        self.degree = mod.degree()
        self.size = base.p**self.degree
        if self.size >= 1 << 128:
            raise SdlpError("extension field size out of range")
        self.zero = (0,) * self.degree
        self.one = tuple([1] + [0] * (self.degree - 1))
        # x^e = sum_j t_j x^j mod the modulus: the nonzero (j, t_j)
        self._tail = [(j, -c % self.p) for j, c in enumerate(mod.coeffs[:-1]) if c]
        # every slot of a sum of n products is at most n e (p - 1)^2, and a
        # fold by x^e = T(x) multiplies that bound by at most 1 + |T| (p - 1),
        # |T| the number of T's nonzero terms; with deg T = t a fold lowers
        # the top slot by e - t, so ceil((e - 1) / (e - t)) folds bring slot
        # 2e - 2 below e. This is the bound per product after the folds; it
        # is at least p - 1, so the tail's coefficients fit any width too.
        e, p = self.degree, self.p
        top = max((j for j, _ in self._tail), default=0)
        self._term_bound = e * (p - 1) ** 2 * (1 + len(self._tail) * (p - 1)) ** -(-(e - 1) // (e - top))
        self._packs_dots = e >= PACK_MIN_DEGREE and self._term_bound < 1 << 64
        self._slots = {}  # terms -> Slots, one per width, built on first use
        self._ring = None

    def gen(self):
        """The class of x (a root of the modulus)."""
        return self.from_coeffs([0, 1])

    def from_coeffs(self, coeffs):
        c = [x % self.p for x in coeffs]
        if len(c) > self.degree:
            c = Poly(self.base, c).mod(self.modulus).coeffs
            c = list(c)
        return tuple(c + [0] * (self.degree - len(c)))

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        return self.dot((a,), (b,))

    def pow(self, a, n: int):
        """a^n for n >= 0, as the power of a in F_p[x]/(modulus), on the
        packed prime ring (`_PrimeRing`): the field builds that ring once,
        on first use, and a power lifts and reduces once."""
        if self._ring is None:
            self._ring = self.base.ring(self.modulus)
        return self._ring.pow(a, n)

    def mul_by(self, c):
        """The map a -> a * c, as the F_p-linear map it is: the e x e matrix
        whose column j is c x^j is built once, and each product is then e
        dot products over F_p (Shoup's precomputed multiplier). A BSGS walk
        long enough to repay a change of basis steps by c in the window
        coordinates of c's power basis instead (`oracles._window_bsgs`)."""
        p = self.p
        x = self.gen()
        cols = [c]
        for _ in range(self.degree - 1):
            cols.append(self.mul(cols[-1], x))
        rows = list(zip(*cols))
        mul = operator.mul
        return lambda a: tuple([sum(map(mul, row, a)) % p for row in rows])

    def dot(self, a, b):
        """sum_i a_i b_i: the unreduced products are summed, then reduced
        once. A field of degree >= PACK_MIN_DEGREE forms the sum as packed
        ints (`Slots.dot`) when slots of at most 8 bytes hold it; otherwise
        the coefficient lists are convolved."""
        if self._packs_dots:
            s = self.slots(len(a))
            if s.size <= 8:
                return s.dot(a, b)
        raw = [0] * (2 * self.degree - 1)
        for u, v in zip(a, b):
            for i, x in enumerate(u):
                if x:
                    for j, y in enumerate(v):
                        raw[i + j] += x * y
        return self._reduce(raw)

    def _reduce(self, raw):
        """The class of sum_i raw[i] x^i, for ints raw[i] of any size.

        Each top coefficient is reduced mod p once before it is folded down;
        the e survivors are reduced once at the end."""
        p = self.p
        e = self.degree
        tail = self._tail
        for i in range(len(raw) - 1, e - 1, -1):
            c = raw[i] % p
            if c:
                for j, t in tail:
                    raw[i - e + j] += c * t
        return tuple(x % p for x in raw[:e])

    def slots(self, terms):
        """The narrowest `Slots` of this field in which a sum of `terms`
        products of elements (at least one) cannot carry between slots,
        built on first use: its slots hold the per-product bound times
        `terms`, and the folds by the modulus tail are already counted."""
        s = self._slots.get(terms)
        if s is None:
            size = _slot_size(max(terms, 1) * self._term_bound)
            s = next((t for t in self._slots.values() if t.size == size), None)
            s = self._slots[terms] = s or Slots(self.p, self.degree, size, self._tail)
        return s

    def products(self, rows, cols):
        """The table [[dot(r, c) for c in cols] for r in rows]. A table of
        more than one dot packs at every degree: each entry is packed once
        and serves a whole row or column."""
        if not rows or len(rows) + len(cols) <= 2:
            dot = self.dot
            return [[dot(r, c) for c in cols] for r in rows]
        s = self.slots(len(rows[0]))
        pack, unpack, mul = s.pack, s.unpack, operator.mul
        rows = [[pack(a) for a in r] for r in rows]
        cols = [[pack(a) for a in c] for c in cols]
        return [[unpack(sum(map(mul, r, c))) for c in cols] for r in rows]

    def ring(self, f):
        """F_{p^e}[x]/(f) for a monic f of degree n >= 1, packed in slots
        that hold a sum of 2n - 1 products (n from the product, n - 1 from
        the folds)."""
        return _PackedRing(self, f, self.slots(2 * f.degree() - 1))

    def inv(self, a):
        """a^-1 by the extended Euclidean algorithm over F_p on int
        coefficient lists (constant term first, no trailing zeros): s_i a =
        r_i mod the modulus at every step, and the last nonzero remainder
        is a constant."""
        p = self.p
        r0, r1 = list(self.modulus.coeffs), list(a)
        while r1 and not r1[-1]:
            r1.pop()
        if not r1:
            raise ZeroDivisionError("inverse of zero")
        s0, s1 = [], [1]
        while len(r1) > 1:
            d = len(r1) - 1
            lead = pow(r1[-1], -1, p)
            q = [0] * (len(r0) - d)
            low = r1[:d]
            for i in range(len(r0) - 1, d - 1, -1):  # r0 <- r0 mod r1; its top cancels
                c = q[i - d] = r0[i] % p * lead % p
                if c:
                    for j, b in enumerate(low, i - d):
                        r0[j] -= c * b
            r = [x % p for x in r0[:d]]
            while r and not r[-1]:
                r.pop()
            s = s0 + [0] * (len(q) + len(s1) - 1 - len(s0))
            for i, c in enumerate(q):  # s <- s0 - q s1
                if c:
                    for j, b in enumerate(s1, i):
                        s[j] -= c * b
            s = [x % p for x in s]
            while s and not s[-1]:
                s.pop()
            r0, r1, s0, s1 = r1, r, s1, s
        if not r1:
            raise ZeroDivisionError("element not invertible (reducible modulus?)")
        c = pow(r1[0], -1, p)
        return tuple([x * c % p for x in s1] + [0] * (self.degree - len(s1)))

    def from_int(self, n: int):
        digits = []
        for _ in range(self.degree):
            n, r = divmod(n, self.p)
            digits.append(r)
        return tuple(digits)

    def to_int(self, a) -> int:
        out = 0
        for c in reversed(a):
            out = out * self.p + c
        return out

    def rand(self, rng: random.Random):
        return tuple(rng.randrange(self.p) for _ in range(self.degree))

    def rand_nonzero(self, rng: random.Random):
        while True:
            a = self.rand(rng)
            if any(a):
                return a

    def elements(self):
        return (self.from_int(n) for n in range(self.size))

    def to_prime_coeffs(self, a):
        return tuple(a)

    def from_prime_coeffs(self, coeffs):
        return tuple(c % self.p for c in coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.p == self.p
            and other.modulus.coeffs == self.modulus.coeffs
        )

    def __hash__(self):
        return hash(("ExtField", self.p, self.modulus.coeffs))

    def __repr__(self):
        return f"F_{self.p}^{self.degree}"


class Slots:
    """F_p vectors of `count` values, each packed into one int (Kronecker
    substitution): value i sits in slot i, `size` bytes wide, first value
    lowest.

    An int product of two packed vectors is the unreduced product of the
    polynomials with those coefficients, and an int sum adds slotwise, so
    a sum of such products holds in each slot a sum of value products.
    `unpack` reads such an int back mod p while no slot of it overflows.
    With a `tail`, the nonzero (j, t_j) of x^count = sum_j t_j x^j (an
    element of F_{p^e} = F_p[x]/(modulus) for count = e), `unpack` first
    folds the slots at and above `count` down by that identity, one int
    product by the packed tail per fold; with none, an int to unpack has
    no slot there. Widths of 1, 2, 4 and 8 bytes (`_slot_size`) read back
    with one `struct` unpack, wider ones by one `int.from_bytes` a slot.
    """

    __slots__ = ("p", "size", "_pack", "_read", "_nbytes", "_shift", "_mask", "_tail")

    def __init__(self, p, count, size, tail=()):
        self.p = p
        self.size = size
        self._nbytes = count * size
        self._shift = 8 * self._nbytes
        self._mask = (1 << self._shift) - 1
        if size in (1, 2, 4, 8):  # struct codes B, H, I and Q
            fmt = struct.Struct(f"<{count}{'BHIQ'[size.bit_length() - 1]}")
            self._pack, self._read = fmt.pack, fmt.unpack
        else:
            self._pack = lambda *a: b"".join([x.to_bytes(size, "little") for x in a])
            self._read = lambda raw: [int.from_bytes(raw[at : at + size], "little") for at in range(0, len(raw), size)]
        coeffs = [0] * count
        for j, t in tail:
            coeffs[j] = t
        self._tail = self.pack(coeffs)

    def to_bytes(self, a):
        """The `count` slots of a as bytes, first value lowest."""
        return self._pack(*a)

    def pack(self, a):
        return int.from_bytes(self._pack(*a), "little")

    def unpack(self, c):
        shift, mask, tail = self._shift, self._mask, self._tail
        while h := c >> shift:
            c = (c & mask) + h * tail
        p = self.p
        return tuple([x % p for x in self._read(c.to_bytes(self._nbytes, "little"))])

    def dot(self, a, b):
        pack = self.pack
        return self.unpack(sum([pack(u) * pack(v) for u, v in zip(a, b)]))


def _slot_size(bound):
    """The narrowest slot width, in bytes, that holds every int up to
    `bound`: 1, 2, 4 or 8 bytes, which `struct` reads a vector at a time,
    and past 64 bits just enough bytes."""
    size = max(1, -(-bound.bit_length() // 8))
    return size if size > 8 else 1 << (size - 1).bit_length()


class BinaryField:
    """F_{2^k} with elements as int bitmasks (bit i = coefficient of x^i).

    Same interface as ExtField, with carry-less scalar products. Polynomial
    work over the field (the orbit problems' rings F_{2^k}[x]/(f), x^q mod
    f) runs on the ring kernel `_BinaryRing`, which multiplies two whole
    polynomials as one int product; that is what makes q = 2^16 matrix
    work cheap. Log/antilog tables would speed up scalar products too, but
    building them for F_{2^16} takes 26-41 ms, and set-up builds such fields
    and takes element orders in them, so they were not taken.
    """

    def __init__(self, k: int, modulus_int: int | None = None):
        if k < 1 or k >= 128:
            raise SdlpError("binary field size out of range")
        base = PrimeField(2)
        if modulus_int is None:  # the canonical modulus, irreducible by its search
            mod_poly = canonical_irreducible(base, k)
            modulus_int = _bits(mod_poly.coeffs)
        else:
            if modulus_int.bit_length() != k + 1:
                raise SdlpError("modulus must have degree k")
            mod_poly = Poly(base, [(modulus_int >> i) & 1 for i in range(k + 1)])
            if k >= 2 and not is_irreducible(mod_poly):
                raise SdlpError("modulus polynomial is reducible")
        self.base = base
        self.modulus = mod_poly
        self.modulus_int = modulus_int
        self.p = 2
        self.char = 2
        self.degree = k
        self.size = 1 << k
        self.zero = 0
        self.one = 1

    def gen(self):
        return 2 % self.size

    def add(self, a, b):
        return a ^ b

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        """a b: `dot`'s carry-less loop for one pair, over the set bits of a."""
        acc = 0
        while a:
            low = a & -a
            acc ^= b << (low.bit_length() - 1)
            a ^= low
        return self._mod_bits(acc)

    def mul_by(self, c):
        """The map a -> a * c. Plain `mul`: no walk runs over a binary-field
        unit group, so a precomputed kernel would have no traffic."""
        return lambda a: self.mul(a, c)

    def dot(self, a, b):
        """sum_i a_i b_i: the carry-less products are XORed, then reduced once."""
        acc = 0
        for x, y in zip(a, b):
            while x:
                low = x & -x
                acc ^= y << (low.bit_length() - 1)
                x ^= low
        return self._mod_bits(acc)

    def products(self, rows, cols):
        """The table [[dot(r, c) for c in cols] for r in rows]."""
        dot = self.dot
        return [[dot(r, c) for c in cols] for r in rows]

    def ring(self, f):
        """F_{2^k}[x]/(f) for a monic f of degree >= 1, carry-less."""
        return _BinaryRing(self, f)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        r0, r1 = self.modulus_int, a
        s0, s1 = 0, 1
        while r1:
            shift = r0.bit_length() - r1.bit_length()
            if shift < 0:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            r0 ^= r1 << shift
            s0 ^= s1 << shift
        # r0 holds gcd = 1 for an irreducible modulus; s0 may exceed degree
        if r0 != 1:
            raise ZeroDivisionError("element not invertible")
        return self._mod_bits(s0)

    def _mod_bits(self, v: int) -> int:
        mod = self.modulus_int
        k = self.degree
        while v.bit_length() > k:
            v ^= mod << (v.bit_length() - (k + 1))
        return v

    def from_int(self, n: int):
        return n % self.size

    def to_int(self, a) -> int:
        return a

    def from_coeffs(self, coeffs):
        return self._mod_bits(_bits(coeffs))

    def rand(self, rng: random.Random):
        return rng.randrange(self.size)

    def rand_nonzero(self, rng: random.Random):
        return rng.randrange(1, self.size)

    def elements(self):
        return range(self.size)

    def to_prime_coeffs(self, a):
        return tuple((a >> i) & 1 for i in range(self.degree))

    def from_prime_coeffs(self, coeffs):
        return _bits(coeffs)

    def __eq__(self, other):
        return isinstance(other, BinaryField) and other.modulus_int == self.modulus_int

    def __hash__(self):
        return hash(("BinaryField", self.modulus_int))

    def __repr__(self):
        return f"F_2^{self.degree}"


def _bits(coeffs) -> int:
    """The int whose bit i is coeffs[i] mod 2."""
    v = 0
    for i, c in enumerate(coeffs):
        if c % 2:
            v |= 1 << i
    return v


def field_of_size(q: int) -> "PrimeField | ExtField | BinaryField":
    """F_q for a prime power q, with the canonical (lexicographically
    smallest irreducible) modulus when q is a proper power."""
    fac = factorize(q)
    if len(fac) != 1:
        raise SdlpError(f"{q} is not a prime power")
    (p, e), = fac.items()
    if e == 1:
        return PrimeField(p)
    if p == 2:
        return BinaryField(e)
    base = PrimeField(p)
    return ExtField._trusted(base, canonical_irreducible(base, e))


# (p, e) -> canonical_irreducible's answer: each search runs once
_CANONICAL = {}


def canonical_irreducible(base: PrimeField, e: int) -> "Poly":
    """First monic irreducible of degree e over F_p in lex coefficient order,
    searched once per (p, e).

    The first p candidates are the binomials x^e + c. When gcd(e, p - 1) = 1
    every element of F_p is an e-th power, so for e >= 2 each binomial has a
    root and the search starts after them.
    """
    p = base.p
    f = _CANONICAL.get((p, e))
    if f is not None:
        return f
    start = p if e >= 2 and math.gcd(e, p - 1) == 1 else 0
    for n in range(start, p**e):
        coeffs = []
        m = n
        for _ in range(e):
            m, r = divmod(m, p)
            coeffs.append(r)
        f = Poly(base, coeffs + [1])
        if is_irreducible(f):
            _CANONICAL[p, e] = f
            return f
    raise SdlpError("no irreducible polynomial found")  # unreachable


class Poly:
    """Dense univariate polynomial over a field, constant term first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        while coeffs and coeffs[-1] == field.zero:
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self):
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __sub__(self, other):
        F = self.field
        out = list(self.coeffs) + [F.zero] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] = F.sub(out[i], c)
        return Poly(F, out)

    def __mul__(self, other):
        F = self.field
        if self.is_zero() or other.is_zero():
            return Poly(F, [])
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        if isinstance(F, PrimeField):  # int sums, reduced once per coefficient
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs, i):
                        out[j] += a * b
            p = F.p
            return Poly(F, [c % p for c in out])
        # other fields: each coefficient is one field dot product, reduced once
        a, b, dot = self.coeffs, other.coeffs[::-1], F.dot
        la, lb = len(a), len(b)
        for k in range(len(out)):
            lo, hi = max(0, k - lb + 1), min(k + 1, la)
            out[k] = dot(a[lo:hi], b[lb - 1 - k + lo : lb - 1 - k + hi])
        return Poly(F, out)

    def scale(self, c):
        F = self.field
        return Poly(F, [F.mul(c, a) for a in self.coeffs])

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.lead()))

    def divmod(self, other):
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree()
        inv_lead = F.inv(other.lead())
        quot = [F.zero] * max(0, len(rem) - db)
        if isinstance(F, PrimeField):
            # each coefficient is reduced once, when it is read or returned;
            # the leading one cancels and is not formed
            p = F.p
            low = other.coeffs[:-1]
            for i in range(len(rem) - 1, db - 1, -1):
                q = rem[i] % p * inv_lead % p
                if q:
                    quot[i - db] = q
                    for j, b in enumerate(low, i - db):
                        rem[j] -= q * b
            return Poly(F, quot), Poly(F, [c % p for c in rem[:db]])
        # other fields: each quotient coefficient (from the top) and each
        # remainder coefficient is one field dot product, reduced once
        rb, dot, n = other.coeffs[::-1], F.dot, len(quot)
        for i in range(n - 1, -1, -1):
            m = min(db, n - 1 - i)
            quot[i] = F.mul(F.sub(rem[i + db], dot(quot[i + 1 : i + 1 + m], rb[1 : m + 1])), inv_lead)
        low = []
        for k in range(min(db, len(rem))):
            h = min(k + 1, n)
            low.append(F.sub(rem[k], dot(quot[:h], rb[db - k : db - k + h])))
        return Poly(F, quot), Poly(F, low)

    def mod(self, other):
        return self.divmod(other)[1]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.mod(b)
        return a.monic() if not a.is_zero() else a

    def pow_mod(self, n: int, modulus: "Poly"):
        """self^n mod modulus for n >= 0: the n-th power in the ring
        F[x]/(modulus), which is {0} when the modulus is a nonzero constant."""
        F = self.field
        if modulus.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if modulus.degree() == 0:
            return Poly(F, [])
        ring = F.ring(modulus.monic())
        return Poly(F, list(ring.pow(ring.element(self.coeffs), n)))

    def derivative(self):
        F = self.field
        out = []
        for i, c in enumerate(self.coeffs[1:], start=1):
            k = i % F.char
            out.append(F.mul(F.from_int(k), c))
        return Poly(F, out)

    def eval(self, x):
        F = self.field
        out = F.zero
        for c in reversed(self.coeffs):
            out = F.add(F.mul(out, x), c)
        return out

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == self.field.zero:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*x^{i}" if c != self.field.one else f"x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


class PolyRing:
    """The ring F[x]/(f) for a monic f of degree n >= 1, with elements as
    tuples of n coefficients, constant term first.

    This is the one product of polynomials mod f: each field kind has its
    kernel, which `fld.ring(f)` picks, and `Poly.pow_mod`, the factoring
    routines, `oracles.PolyUnitGroup` and `ExtField.pow` (on the prime ring
    of its modulus) all run on it. A kernel keeps elements in its own
    working form between products (`_lift`, `_drop`), where coefficients
    may be packed and only partly reduced, so a power converts once.
    """

    def __init__(self, fld, f):
        self.fld = fld
        self.modulus = f
        self.degree = f.degree()

    def element(self, coeffs):
        """The class of sum_i coeffs[i] x^i."""
        if len(coeffs) > self.degree:
            coeffs = Poly(self.fld, list(coeffs)).mod(self.modulus).coeffs
        return tuple(coeffs) + (self.fld.zero,) * (self.degree - len(coeffs))

    def mul(self, x, y):
        a = self._lift(x)
        return self._drop(self._mul(a, a if x is y else self._lift(y)))

    def pow(self, x, n: int):
        """x^n for n >= 0, by the package's one square-and-multiply, with n
        first reduced by the exponent of the ring's multiplicative monoid
        (`integers._reduce_exponent` at deg f): from n >= deg f + E on, x^n
        = x^(deg f + (n - deg f) mod E) for every x, zero divisors too."""
        fld = self.fld
        if n == 0:
            return self.element([fld.one])
        n = _reduce_exponent(n, self.degree, fld.size, fld.char)
        return self._drop(_pow(self._lift(x), n, self._mul, None))

    def _lift(self, x):
        return x

    _drop = _lift


class _PrimeRing(PolyRing):
    """F_p[x]/(f) with a whole polynomial in one int (Kronecker
    substitution), every slot reduced at once by Barrett's method.

    An element's n coefficients sit in slots of W bits, constant term
    lowest. Between products a coefficient is kept below 3p, not below p,
    so a power lifts once and reduces mod p once, in `_drop`. A product is
    one int product, which sums in slot i the coefficient products whose
    indices add to i; one Barrett pass over its 2n - 1 slots; a fold of
    the top n - 1 slots, read out by shift and mask, against the packed
    x^(n+j) mod f, j < n - 1; and a second pass. x^n mod f has its
    coefficients below p, and each later x^(n+j) mod f is x times the one
    before, folded and passed once, so its coefficients are below 3p.

    Barrett (Barrett, CRYPTO '86), with b = bitlen p and mu = floor(2^V /
    p): for 0 <= z < 2^V, q = floor(floor(z / 2^(b-1)) mu / 2^(V-b+1))
    has z/p - 3 < q <= z/p, so 0 <= z - q p < 3p. The upper bound holds
    as both floors only lower q. For the lower one, z < 2^(b-1) <= p is
    trivial, and otherwise floor(z / 2^(b-1)) > z / 2^(b-1) - 1 and mu >
    2^V / p - 1, both positive, so their product over 2^(V-b+1) exceeds
    z/p - z/2^V - 2^(b-1)/p > z/p - 2, and its floor q exceeds z/p - 3.

    Bounds. A slot of a product sums at most n products of coefficients
    below 3p: it is at most n (3p - 1)^2. After the first pass a slot is
    below 3p, and the fold adds at most n - 1 products of two such
    coefficients to it: at most 3p - 1 + (n - 1)(3p - 1)^2 <= n (3p -
    1)^2. A step of the x^(n+j) mod f adds one product (3p - 1)(p - 1) to
    a slot below 3p. So with V = bitlen(n (3p - 1)^2) every pass sees
    slots below 2^V.

    Slot width. One pass is q = ((z >> b-1) & m) mu >> (V-b+1) & m, then z
    - q p, with m the low V - b + 1 bits of every slot. After the shift a
    slot's low bits hold its z1 = floor(z / 2^(b-1)) < 2^(V-b+1), and the
    low b - 1 bits of the slot above land at bit W - b + 1 and up, above m
    while W >= V. Since p >= 2^(b-1), mu <= 2^(V-b+1), so z1 mu <
    2^(2V-2b+2) stays in its slot while W >= 2V - 2b + 2; its low V - b + 1
    bits then land, after the second shift, at bit W - V + b - 1 >= V - b
    + 1 of the slot below, above m again. Each q p <= z slot by slot, so
    the subtraction borrows nothing. W = 2V - 2b + 2 meets both, as
    (3p - 1)^2 >= 2^(2b) makes V >= 2b + 1.
    """

    def __init__(self, fld, f):
        super().__init__(fld, f)
        p, n = fld.p, self.degree
        b = p.bit_length()
        v = (n * (3 * p - 1) ** 2).bit_length()
        k = v - b + 1  # the bits of z1 and of q
        w = 2 * k
        self._p, self._w, self._b1, self._k = p, w, b - 1, k
        self._mu = (1 << v) // p
        self._slot = (1 << w) - 1
        self._m = ((1 << k) - 1) * (((1 << (2 * n - 1) * w) - 1) // self._slot)
        self._offsets = range(0, n * w, w)
        self._top_shift = n * w
        self._low = (1 << n * w) - 1
        # x^(n+j) mod f for j < n - 1: x times the previous, folded by x^n
        first = self._lift([-c % p for c in f.coeffs[:-1]])
        folds, low, reduce = [first], self._low, self._reduce
        for _ in range(n - 2):
            z = folds[-1] << w
            folds.append(reduce((z & low) + (z >> n * w) * first))
        self._folds = folds

    def _lift(self, x):
        w = self._w
        v = 0
        for c in reversed(x):
            v = v << w | c
        return v

    def _drop(self, v):
        p, slot = self._p, self._slot
        return tuple([(v >> s & slot) % p for s in self._offsets])

    def _reduce(self, z):
        """Every slot of z below 3p, for slots below 2^V."""
        m = self._m
        return z - ((z >> self._b1 & m) * self._mu >> self._k & m) * self._p

    def _mul(self, x, y):
        z = self._reduce(x * y)
        top = z >> self._top_shift
        if not top:
            return z
        slot = self._slot
        z &= self._low
        for s, fold in zip(self._offsets, self._folds):  # the top n - 1 slots
            z += (top >> s & slot) * fold
        return self._reduce(z)


class _PackedRing(PolyRing):
    """F_{p^e}[x]/(f) on packed coefficients (`Slots`): the products and
    the folds by the tail of f are summed unreduced, and a coefficient is
    unpacked only when it is folded or leaves a product. The slots hold
    the 2n - 1 products that meet in one coefficient, at whatever width
    that takes."""

    def __init__(self, fld, f, slots):
        super().__init__(fld, f)
        self._pack, self._unpack = slots.pack, slots.unpack
        self._tail = [(k, slots.pack(fld.neg(c))) for k, c in enumerate(f.coeffs[:-1]) if c != fld.zero]

    def _lift(self, x):
        return tuple(map(self._pack, x))

    def _drop(self, x):
        return tuple(map(self._unpack, x))

    def _mul(self, x, y):
        pack, unpack = self._pack, self._unpack
        e = self.degree
        xs = [(i, a) for i, a in enumerate(x) if a]
        raw = [0] * (2 * e - 1)
        if x is y:  # squaring: each cross product once, doubled
            for s, (i, a) in enumerate(xs):
                raw[2 * i] += a * a
                for k, b in xs[s + 1 :]:
                    raw[i + k] += 2 * a * b
        else:
            ys = [(k, b) for k, b in enumerate(y) if b]
            for i, a in xs:
                for k, b in ys:
                    raw[i + k] += a * b
        for i in range(2 * e - 2, e - 1, -1):
            if raw[i]:
                c = pack(unpack(raw[i]))
                if c:
                    for k, t in self._tail:
                        raw[i - e + k] += c * t
        return tuple([pack(unpack(c)) for c in raw[:e]])


class _BinaryRing(PolyRing):
    """F_{2^k}[x]/(f) with a whole polynomial in one int (Kronecker
    substitution), one bit per cell.

    An element's n coefficients sit in slots of w = 2k - 1 bits, constant
    term lowest; every bit gets a cell of `cell` bytes holding 0 or 1. An
    int product of two such ints sums, in each cell, the pairs of bits that
    meet there, and the low bit of that sum is the carry-less (XOR) sum, so
    one int product and one mask give the product in F_2[y][x] with each
    slot a product of degree at most 2k - 2 < w. The top n - 1 slots are
    reduced mod the field modulus m and folded by the precomputed x^j mod f,
    j = n .. 2n - 2, and then every slot is reduced mod m at once by
    carry-less Barrett: q = ((v >> k) mu) >> k with mu = y^2k // m is the
    exact quotient for deg v < 2k, and v mod m = the low k bits of
    v + q (m - y^k).

    No cell may carry into the next. Where two operands meet, a cell sums
    at most as many pairs as the sparser operand has set bits: n k for the
    product, k + 1 against mu, k against m - y^k or a folded coefficient.
    Sums add up only where the top of the product meets its quotient times
    m - y^k (n k + k), and where the n - 1 folds meet the low slots and then
    their quotient ((n - 1) k + 1 + k), so cells of b bytes serve while
    (n + 1) k < 256^b. Operands with every bit set put n k pairs in the
    middle cell of the product.
    """

    def __init__(self, fld, f):
        super().__init__(fld, f)
        k, n = fld.degree, self.degree
        w = 2 * k - 1
        cell = 1
        while (n + 1) * k >= 1 << 8 * cell:
            cell *= 2
        self._k, self._w, self._cell = k, w, cell
        self._kmask = (1 << k) - 1
        self._kshift = 8 * cell * k
        self._top_shift = 8 * cell * w * n
        self._slot_bytes = cell * w
        one = b"\x01" + b"\x00" * (cell - 1)
        zero = b"\x00" * cell

        def repeat(slot):  # a mask with this slot pattern in each of n slots
            return int.from_bytes(slot * n, "little")

        self._ones = repeat(one * w)
        self._low = repeat(one * k + zero * (w - k))
        self._high = repeat(one * (k - 1) + zero * (w - k + 1))
        m = fld.modulus_int
        self._mu = self._spread(_clmul_quotient(1 << 2 * k, m), k + 1)
        self._m_low = self._spread(m ^ 1 << k, k)
        # x^(n+j) mod f for j < n - 1: x times the previous, folded by x^n
        first = self._lift(tuple(fld.neg(c) for c in f.coeffs[:-1]))
        self._folds = [first]
        for _ in range(n - 2):
            v = self._folds[-1] << 8 * self._slot_bytes
            self._folds.append(self._reduce((v & self._ones) + (v >> self._top_shift) * first))

    def _spread(self, v, bits):
        """The cells of the low `bits` bits of v."""
        s = format(v, f"0{bits}b").encode().translate(_BITS_TO_CELLS)
        if self._cell > 1:
            out = bytearray(self._cell * len(s))
            out[self._cell - 1 :: self._cell] = s
            s = out
        return int.from_bytes(s, "big")

    def _lift(self, x):
        w = self._w
        v = 0
        for c in reversed(x):
            v = v << w | c
        return self._spread(v, w * self.degree)

    def _drop(self, v):
        s = v.to_bytes(self._cell * self._w * self.degree, "big")
        if self._cell > 1:
            s = s[self._cell - 1 :: self._cell]
        v = int(s.translate(_CELLS_TO_BITS), 2)
        w, kmask = self._w, self._kmask
        return tuple([v >> i * w & kmask for i in range(self.degree)])

    def _reduce(self, v):
        """Every slot of v mod m, for slots of degree < 2k."""
        s, high = self._kshift, self._high
        q = (((v >> s) & high) * self._mu >> s) & high
        return (v + q * self._m_low) & self._low

    def _mul(self, x, y):
        z = x * y
        top = z >> self._top_shift
        z &= self._ones
        if top:
            top = self._reduce(top).to_bytes(self._slot_bytes * (self.degree - 1), "little")
            step, size = self._slot_bytes, self._cell * self._k
            coeffs = [int.from_bytes(top[i : i + size], "little") for i in range(0, len(top), step)]
            z += sum(map(operator.mul, coeffs, self._folds))
        return self._reduce(z)


_BITS_TO_CELLS = bytes.maketrans(b"01", b"\x00\x01")
_CELLS_TO_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _clmul_quotient(a: int, b: int) -> int:
    """The carry-less quotient a // b of bit polynomials."""
    q = 0
    while a.bit_length() >= b.bit_length():
        s = a.bit_length() - b.bit_length()
        q |= 1 << s
        a ^= b << s
    return q


def _poly_half_ext_gcd(a: Poly, b: Poly):
    """Return (g, s) with g = gcd(a, b) and s*a = g mod b."""
    F = a.field
    old_r, r = a, b
    old_s, s = Poly(F, [F.one]), Poly(F, [])
    while not r.is_zero():
        q, rem = old_r.divmod(r)
        old_r, r = r, rem
        old_s, s = s, old_s - q * s
    return old_r, old_s


def is_irreducible(f: Poly) -> bool:
    """Distinct-degree test: f is irreducible when its smallest factor degree
    is its own; a reducible f is rejected at its first factor."""
    return f.degree() >= 1 and next(_distinct_degrees(f), None) == f.degree()


def factor_poly(f: Poly, seed: int = 0) -> list:
    """Factor a monic polynomial over a prime field.

    Returns [(irreducible Poly, multiplicity), ...] sorted by (degree,
    coefficients). Cantor-Zassenhaus equal-degree splitting drives the
    randomized part; the seed makes it reproducible.
    """
    if not isinstance(f.field, PrimeField):
        raise SdlpError("factor_poly operates over prime fields")
    if f.is_zero() or f.degree() < 1:
        raise SdlpError("factor_poly expects degree >= 1")
    if not f.is_monic():
        raise SdlpError("factor_poly expects a monic polynomial")
    rng = random.Random(seed)
    out = _factor_monic(f.monic(), rng)
    factors = [(Poly(f.field, list(c)), m) for c, m in out.items()]
    factors.sort(key=lambda fm: (fm[0].degree(), fm[0].coeffs))
    return factors


def _factor_monic(f: Poly, rng: random.Random) -> dict:
    """{coeff tuple: multiplicity} for monic f, recursing on p-th powers."""
    F = f.field
    p = F.char
    if f.degree() < 1:
        return {}
    d = f.derivative()
    if d.is_zero():
        # f = u(x)^p: take the p-th root coefficientwise (Frobenius fixes F_p)
        root = Poly(F, [f.coeffs[i] for i in range(0, len(f.coeffs), p)])
        return {c: p * m for c, m in _factor_monic(root, rng).items()}
    out: dict = {}
    squarefree = f.divmod(f.gcd(d))[0].monic()
    for h in _factor_squarefree(squarefree, rng):
        mult = 0
        while True:
            q, r = f.divmod(h)
            if not r.is_zero():
                break
            f = q
            mult += 1
        out[h.coeffs] = mult
    # leftover is a perfect p-th power (all remaining multiplicities divide p)
    if f.degree() > 0:
        for c, m in _factor_monic(f.monic(), rng).items():
            out[c] = out.get(c, 0) + m
    return out


def _factor_squarefree(f: Poly, rng: random.Random):
    """Irreducible factors of a squarefree monic polynomial."""
    F = f.field
    q = F.size
    x = Poly.x(F)
    out = []
    # distinct-degree decomposition
    h = x
    rest = f
    d = 0
    ring = None  # F[x]/(rest), built once per rest
    while rest.degree() > 2 * (d + 1) - 1 and rest.degree() > 0:
        d += 1
        ring = ring or F.ring(rest)
        h = Poly(F, list(ring.pow(ring.element(h.coeffs), q)))
        g = (h - x).gcd(rest)
        if g.degree() > 0:
            out.extend(_equal_degree_split(g, d, rng))
            rest = rest.divmod(g)[0]
            h = h.mod(rest)
            ring = None
    if rest.degree() > 0:
        out.append(rest.monic())
    return out


def _equal_degree_split(f: Poly, d: int, rng: random.Random):
    """Split a product of distinct irreducibles, all of degree d."""
    F = f.field
    n = f.degree()
    if n == d:
        return [f.monic()]
    q = F.size
    while True:
        a = Poly(F, [F.rand(rng) for _ in range(n)])
        if a.degree() < 1:
            continue
        g = a.gcd(f)
        if 0 < g.degree() < n:
            break
        if q % 2 == 1:
            b = a.pow_mod((q**d - 1) // 2, f) - Poly(F, [F.one])
        else:
            # char 2: use the trace map sum a^(2^i)
            ring = F.ring(f)
            t = b = ring.element(a.coeffs)
            for _ in range(d * _log2_exact(q) - 1):
                t = ring.mul(t, t)
                b = tuple(map(F.add, b, t))
            b = Poly(F, list(b))
        g = b.gcd(f)
        if 0 < g.degree() < n:
            break
    left = _equal_degree_split(g.monic(), d, rng)
    right = _equal_degree_split(f.divmod(g)[0].monic(), d, rng)
    return left + right


def _log2_exact(q: int) -> int:
    k = q.bit_length() - 1
    if 1 << k != q:
        raise SdlpError("char-2 splitting expects q a power of two")
    return k


def factor_degrees(f: Poly) -> list:
    """Distinct degrees of the irreducible factors of f, ascending, over any
    finite coefficient field."""
    return list(_distinct_degrees(f))


def _distinct_degrees(f: Poly):
    """Yield the distinct factor degrees of f in ascending order.

    Uses gcd(x^{q^e} - x, f) ascending in e; x^{q^e} - x is squarefree, so
    repeated factors do not disturb the degree extraction. No splitting is
    performed, which keeps this usable over extension fields.
    """
    F = f.field
    q = F.size
    rest = f.monic()
    x = Poly.x(F)
    h = x
    e = 0
    ring = None  # F[x]/(rest), built once per rest
    while rest.degree() > 0:
        e += 1
        if 2 * e > rest.degree():
            yield rest.degree()
            return
        ring = ring or F.ring(rest)
        h = Poly(F, list(ring.pow(ring.element(h.coeffs), q)))
        g = (h - x).gcd(rest)
        if g.degree() > 0:
            yield e
            while True:
                g = g.gcd(rest)
                if g.degree() == 0:
                    break
                rest = rest.divmod(g)[0]
            h = h.mod(rest)
            ring = None
