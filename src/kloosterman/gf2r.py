"""Arithmetic in GF(2^r): field elements as ints, absolute trace, additive character.

Field elements are plain nonnegative ints below q = 2**r, read as coefficient
vectors over the polynomial basis.  Addition is xor; a Field object carries the
modulus and supplies multiplication, inversion, trace and the character
lambda(x) = (-1)**trace(x).  Zero and one are always represented by 0 and 1.

Every field size takes one path.  Multiplication and inversion go through
discrete-log tables over a generator g of GF(q)^*, found by factoring q - 1
(the polynomial x is not always one: the default moduli for r = 9, 12, 14 and
16 are not primitive).  The trace is linear, so tr(x) is the parity of
x & mask, where bit i of the mask is tr(x^i), read off the modulus by
Newton's identities.  The log/antilog tables take O(q) memory and are built
on first use, so constructing a Field costs nothing in q.  walsh_hadamard turns a function on the additive group into its sums
against every additive character, in O(q log q) additions.
"""

from __future__ import annotations

# Lowest-weight irreducible polynomial per degree, lexicographically smallest
# among minimal-weight candidates.  Rabin's test re-verifies each one at
# construction, so a bad entry fails loudly rather than corrupting results.
MODULI = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x187,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x2027,
    14: 0x4021,
    15: 0x8003,
    16: 0x10047,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x1000087,
}

MAX_DEGREE = 24


def _poly_mod(a: int, b: int) -> int:
    """Remainder of polynomial a modulo b over GF(2)."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _mul_raw(a: int, b: int, modulus: int) -> int:
    """Shift-and-add product of a and b, both reduced, modulo the polynomial modulus."""
    r, p = modulus.bit_length() - 1, 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if a >> r:
            a ^= modulus
    return p


def is_irreducible(poly: int, degree: int) -> bool:
    """Rabin's test: x^(2^d) = x mod poly, and gcd(x^(2^(d/p)) - x, poly) = 1 for primes p | d."""
    if degree < 1 or poly.bit_length() - 1 != degree:
        return False
    x = _poly_mod(2, poly)
    frobenius = [x]  # x^(2^k) modulo poly for k = 0..degree
    for _ in range(degree):
        frobenius.append(_mul_raw(frobenius[-1], frobenius[-1], poly))
    if frobenius[degree] != x:
        return False
    for p in _prime_factors(degree):
        a, b = poly, frobenius[degree // p] ^ x
        while b:  # Euclid's algorithm in GF(2)[x]
            a, b = b, _poly_mod(a, b)
        if a != 1:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


class _Unbuilt:
    """Stands in for a table of a field until the first lookup builds them all."""

    __slots__ = ("field", "name")

    def __init__(self, field: Field, name: str):
        self.field, self.name = field, name

    def __getitem__(self, index):
        self.field._build_tables()
        return getattr(self.field, self.name)[index]


class Field:
    """The field GF(2^r) with a fixed irreducible modulus.

    Semantically immutable after construction; all operations are pure, so
    instances are safe to share across threads and processes.  The log and
    antilog tables are built lazily and idempotently on the first lookup,
    which is the only internal state.
    """

    def __init__(self, r: int, modulus: int | None = None):
        if not 1 <= r <= MAX_DEGREE:
            raise ValueError(f"unsupported extension degree r={r}; need 1 <= r <= {MAX_DEGREE}")
        if modulus is None:
            modulus = MODULI[r]
        if not is_irreducible(modulus, r):
            raise ValueError(f"modulus {modulus:#x} is not irreducible of degree {r}")
        self.r = r
        self.q = 1 << r
        self.modulus = modulus
        # plain attributes rather than properties keep mul's lookups on the fast path
        self._exp: list[int] | _Unbuilt = _Unbuilt(self, "_exp")
        self._log: list[int] | _Unbuilt = _Unbuilt(self, "_log")
        # bit k is tr(x^k) = p_k, the k-th power sum of the modulus's roots, by Newton's
        # identities mod 2: p_0 = r, p_k = e_1 p_(k-1) + ... + e_(k-1) p_1 + k e_k, with
        # e_j the coefficient of x^(r-j)
        e = [modulus >> (r - j) & 1 for j in range(r)]
        p = [r & 1]
        for k in range(1, r):
            p.append((sum(e[j] & p[k - j] for j in range(1, k)) + k * e[k]) & 1)
        self._trace_mask = sum(bit << k for k, bit in enumerate(p))

    def __repr__(self):
        return f"Field(r={self.r}, modulus={self.modulus:#x})"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.r, self.modulus) == (other.r, other.modulus)

    def __hash__(self):
        return hash((self.r, self.modulus))

    def _pow_raw(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = _mul_raw(result, a, self.modulus)
            a = _mul_raw(a, a, self.modulus)
            e >>= 1
        return result

    def _build_tables(self) -> None:
        """exp holds g^k for 0 <= k < 2(q-1), so exp[log a + log b] needs no
        reduction mod q-1, then 2q-1 zeros: log 0 points at the first of them,
        and every sum involving log 0 stays inside that block."""
        q = self.q
        order = q - 1
        primes = _prime_factors(order)
        # 1 passes only for q = 2, where it is the generator
        g = next(
            c for c in range(1, q) if all(self._pow_raw(c, order // p) != 1 for p in primes)
        )
        powers = [0] * order
        log = [2 * order] * q  # entry 0: the start of the zero block
        x = 1
        for k in range(order):
            powers[k] = x
            log[x] = k
            x = _mul_raw(x, g, self.modulus)  # g is small, so this loop is short
        self._log = log
        self._exp = powers + powers + [0] * (2 * q - 1)

    def mul(self, a: int, b: int) -> int:
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if not 0 < a < self.q:
            if a == 0:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            raise ValueError(f"{a} is not an element of GF(2^{self.r})")
        return self._exp[self.q - 1 - self._log[a]]

    def powers(self) -> list[int]:
        """The units as g^0, g^1, ..., g^(q-2) for the field's fixed generator g."""
        return self._exp[: self.q - 1]

    def trace(self, a: int) -> int:
        return (a & self._trace_mask).bit_count() & 1

    def lam(self, a: int) -> int:
        """The canonical additive character: +1 on trace 0, -1 on trace 1."""
        return -1 if self.trace(a) else 1

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        if a == 0:
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]


def walsh_hadamard(values: list[int]) -> list[int]:
    """The Walsh-Hadamard transform F[s] = sum of values[x] * (-1)^popcount(s & x).

    len(values) must be a power of two.  The transform is its own inverse up
    to the factor len(values).  Since the trace form is nondegenerate, the
    functionals x -> popcount(s & x) mod 2 are exactly the x -> tr(c x), so F
    lists the additive-character sums of values in some order of c.
    """
    size = len(values)
    if size & (size - 1) or not size:
        raise ValueError(f"transform length {size} is not a power of two")
    out, half = list(values), 1
    while half < size:
        for start in range(0, size, 2 * half):
            for i in range(start, start + half):
                x, y = out[i], out[i + half]
                out[i], out[i + half] = x + y, x - y
        half *= 2
    return out
