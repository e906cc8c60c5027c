"""Integer number theory helpers: primality, factoring, factored arithmetic.

Factorizations are dicts {prime: exponent}. All routines are deterministic
given the seed they are passed (Pollard rho draws its parameters from a
seeded generator).
"""

import math
import random

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for anything this toolkit handles)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, rng: random.Random) -> int:
    """One nontrivial factor of composite odd n (Brent's variant of rho)."""
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int, seed: int = 0) -> dict:
    """Complete prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    rng = random.Random(seed)
    factors: dict = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        # perfect powers make rho degenerate; peel them first
        root = _perfect_power_root(m)
        if root is not None:
            base, k = root
            stack.extend([base] * k)
            continue
        d = _pollard_brent(m, rng)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(factors.items()))


def _perfect_power_root(n):
    for k in range(2, n.bit_length() + 1):
        r = round(n ** (1.0 / k))
        for cand in (r - 1, r, r + 1):
            if cand > 1 and cand**k == n:
                return cand, k
    return None


def _pow(x, n: int, mul, one):
    """x^n for n >= 0 given `mul` and `one`, by left-to-right
    square-and-multiply: the one binary-power loop of the package.

    It takes bitlen(n) - 1 squarings and popcount(n) - 1 products, every one
    by x itself, and never a product by `one`, which only n = 0 returns.
    Multiplying by x can be cheap: for the class of x in F[x]/(f) it costs
    O(deg f) field products instead of O(deg f ^ 2). Callers handle n < 0.
    """
    if n <= 0:
        if n < 0:
            raise ValueError("_pow needs n >= 0")
        return one
    out = x
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


def _unipotent_log(p: int, n: int) -> int:
    """The least k >= 0 with p^k >= n: a unipotent n x n matrix in
    characteristic p has order dividing p^k, since (I + N)^(p^k) =
    I + N^(p^k) and N^n = 0."""
    k = 0
    while p**k < n:
        k += 1
    return k


def _reduce_exponent(t: int, n: int, q: int, p: int) -> int:
    """An exponent t' with M^t' = M^t for every n x n matrix M over F_q
    (characteristic p) and every element of F_q[x]/(f), deg f = n: t' =
    n + (t - n) mod E for t >= n + E, else t, with E = E(q, n) =
    lcm_{e<=n}(q^e - 1) p^k and p^k the least power of p that is >= n.

    Proof. By Fitting's lemma F_q^n = N + I, both M-stable, with M
    nilpotent on N and invertible on I. On N, M^s = 0 for every s >= n >=
    dim N. On I, M is in GL_m(F_q), m = dim I <= n. Write M = su there,
    s semisimple and u unipotent, commuting (Jordan-Chevalley). s is
    diagonalisable over a splitting field of its minimal polynomial, and
    each eigenvalue is a root of an irreducible factor of degree e <= m,
    so it lies in F_{q^e}^* and the order of s divides lcm_{e<=m}(q^e -
    1); u's order divides p^k (`_unipotent_log`, with m <= n). So the
    exponent of GL_m(F_q) divides E(q, m), which divides E(q, n). Then
    t and t' are both >= n and congruent mod E, so M^t = M^t' on N and on
    I. An element a of F_q[x]/(f) acts on the ring, an n-dimensional
    F_q-space, by a multiplication matrix, and a -> (its matrix) is an
    injective ring map, so a^t = a^t' too. At n = 1 this is lam^t =
    lam^(1 + (t - 1) mod (q - 1)) for every lam in F_q, 0 included.

    Since E >= q^n - 1, a t below n + q^n - 1 costs one power of q and one
    comparison, and E is formed only above it.
    """
    if t < n + q**n - 1:
        return t
    e = _monoid_exponent(n, q, p)
    return t if t < n + e else n + (t - n) % e


def _monoid_exponent(n: int, q: int, p: int) -> int:
    """E(q, n) = lcm_{e<=n}(q^e - 1) p^k, p^k the least power of p that is
    >= n: a multiple of the exponent of GL_n(F_q) (`_reduce_exponent`)."""
    return math.lcm(*(q**e - 1 for e in range(1, n + 1))) * p ** _unipotent_log(p, n)


def factorization_product(factors: dict) -> int:
    out = 1
    for p, e in factors.items():
        out *= p**e
    return out


def merge_lcm(a: dict, b: dict) -> dict:
    """Factorization of lcm given two factorizations."""
    out = dict(a)
    for p, e in b.items():
        out[p] = max(out.get(p, 0), e)
    return dict(sorted(out.items()))


def divisors_ascending(factors: dict) -> list:
    """All divisors of the factored integer, in increasing order."""
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def crt_pair(r1: int, m1: int, r2: int, m2: int):
    """(x, lcm(m1, m2)) with x = r1 mod m1, x = r2 mod m2 and 0 <= x < lcm,
    for any positive moduli; None when r1 != r2 mod gcd(m1, m2)."""
    g = math.gcd(m1, m2)
    if (r2 - r1) % g:
        return None
    n = m2 // g
    m = m1 * n
    return (r1 + (r2 - r1) // g * pow(m1 // g, -1, n) % n * m1) % m, m


def _cyclotomic_value(m: int, x: int) -> int:
    """Phi_m(x) for integer x >= 2, via Phi_m(x) = prod (x^d - 1)^mu(m/d)."""
    num = 1
    den = 1
    for d in divisors_ascending(factorize(m)):
        mu = _moebius(m // d)
        if mu == 1:
            num *= x**d - 1
        elif mu == -1:
            den *= x**d - 1
    return num // den


def _moebius(n: int) -> int:
    out = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        out = -out
    return out


# (p, k) -> the factorization of p^k - 1: each is found once
_PRIME_POWER_MINUS_ONE = {}


def factor_prime_power_minus_one(p: int, k: int, seed: int = 0) -> dict:
    """Factorization of p^k - 1, split into cyclotomic parts first, found
    once per (p, k) (the seed only steers Pollard rho); each call returns
    a fresh dict.

    Each Phi_m(p) for m | k is at most p^phi(m), which keeps the pieces
    small enough for Pollard rho even when p^k - 1 itself is huge.
    """
    factors = _PRIME_POWER_MINUS_ONE.get((p, k))
    if factors is None:
        factors = {}
        for m in divisors_ascending(factorize(k)):
            part = _cyclotomic_value(m, p)
            for q, e in factorize(part, seed=seed).items():
                factors[q] = factors.get(q, 0) + e
        factors = _PRIME_POWER_MINUS_ONE[p, k] = dict(sorted(factors.items()))
    return dict(factors)
