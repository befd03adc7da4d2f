"""Kloosterman sums, their GL(t,q) relatives, and trace-split power moments.

All values are exact ints.  K(lambda; a) is tabulated once per field and
cached in-process; nothing here approximates.  The table is one cyclic
convolution: lambda is additive, so with a = g^k for the field's generator g,
K(g^k) = sum_i lambda(g^i) lambda(g^(k-i)) over i mod q-1.  Writing
lambda(g^j) = 1 - 2 b_j with b_j = tr(g^j), this is K(g^k) = 4 C_k - q - 1,
where C_k = sum_i b_i b_(k-i) is the cyclic self-convolution of the 0/1
sequence b.  C is computed exactly as one big-integer square (Kronecker
substitution: one fixed-width slot per b_j, wide enough that no coefficient
carries).  A twisted character needs no sum of its own: substituting y = c*x
shows that K(lambda; c, a), the sum of lambda(c*(x + a/x)), equals
K(lambda; c^2 * a).  While the table is built, the pairs (tr a, K(a)) over
the units are counted from the same trace bits b_j.  For q >= 4 every K is
3 mod 4 with |K| <= 2 sqrt(q), so there are at most 2(isqrt(q) + 1) pairs,
and each power moment is read from those counts without tracing anything.
The sides of the two character identities checked against the table,
theta_character_sums and twisted_sums, are read for every argument at once
from gf2r.character_sums (one Walsh-Hadamard transform), which shares no
code with the convolution.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import cache
from typing import NamedTuple

from .classical import _check_budget, _show, gl_recursion
from .gf2r import Field, character_sums
from .matfq import gl_iter, mat_inv, mat_trace


def _require_units(field: Field, **args: int) -> None:
    """Raise ValueError unless 0 < value < q for each named argument."""
    for name, x in args.items():
        if not 0 < x < field.q:
            raise ValueError(f"{name}={x} is not a nonzero element of GF({field.q})")


def kloosterman(field: Field, a: int, c: int = 1) -> int:
    """The sum of lambda(c * (x + a/x)) over nonzero x; c = 1 gives K(lambda; a)."""
    _require_units(field, a=a, c=c)
    mul = field.mul
    return _kdata(field)[0][mul(mul(c, c), a)]


def ktable(field: Field) -> dict[int, int]:
    """K(lambda; a) for every nonzero a, in ascending a; a new dict read from the cached table."""
    return dict(enumerate(_kdata(field)[0][1:], 1))


@cache
def _kdata(field: Field) -> tuple[list[int], Counter[tuple[int, int]]]:
    """K(lambda; a) at index a (0 at a = 0) and the counts of (tr a, K(a)) over the units."""
    q = field.q
    powers = field.powers()
    bits = [field.trace(x) for x in powers]
    values = [4 * c - q - 1 for c in _cyclic_self_convolution(bits)]
    by_element = [0] * q
    for x, k in zip(powers, values):
        by_element[x] = k
    return by_element, Counter(zip(bits, values))


def _cyclic_self_convolution(bits: list[int]) -> list[int]:
    """C_k = sum of bits[i] * bits[(k - i) mod n] for k < n, by one big-int square."""
    n = len(bits)
    # every coefficient of the square is at most n, so it fits its slot exactly
    width, code = (2, "H") if n < 1 << 16 else (4, "I")
    packed = bytearray(width * n)
    packed[::width] = bytes(bits)
    square = int.from_bytes(packed, "little") ** 2
    coeffs = array(code, square.to_bytes(2 * width * n, "little"))
    if sys.byteorder == "big":
        coeffs.byteswap()
    return [low + high for low, high in zip(coeffs[:n], coeffs[n:])]


class Moments(NamedTuple):
    mk: int
    t0k: int
    t1k: int


def moments(field: Field, h: int) -> Moments:
    """h-th power moment of K(lambda; .) and its trace-0 / trace-1 split.

    Read from the counts of (tr a, K(a)) kept beside the table.  h = 0 is the
    literal empty-power convention: mk = q-1 and t1k counts the trace-one
    units.  The partition mk = t0k + t1k holds by construction and is
    checked, which catches a trace outside {0, 1}.
    """
    if not isinstance(h, int) or h < 0:
        raise ValueError(f"moment order must be a nonnegative int, got h={h!r}")
    powers = [(t, n * k**h) for (t, k), n in _kdata(field)[1].items()]
    mk = sum(p for _, p in powers)
    t0k = sum(p for t, p in powers if t == 0)
    t1k = sum(p for t, p in powers if t == 1)
    if mk != t0k + t1k:
        off = _show(mk - t0k - t1k)
        raise ArithmeticError(f"moment split at q={field.q}, h={h}: mk - t0k - t1k = {off}")
    return Moments(mk, t0k, t1k)


def kloosterman_gl(field: Field, t: int, a: int, c: int = 1) -> int:
    """K over GL(t,q) by classical.gl_recursion; t = 0 is 1, t = 1 is K itself."""
    _require_units(field, a=a, c=c)
    return gl_recursion([kloosterman(field, a, c) if t else 1], t, field.q)[0]  # W_0 reads no K


def kloosterman_gl_bruteforce(field: Field, t: int, c: int = 1) -> dict[int, int]:
    """Direct sums of lambda(c*(Tr w + a Tr w^-1)) over all invertible t x t w, for every unit a.

    Each w is inverted once; the sums are read from the counts of (Tr w, Tr w^-1).
    """
    _require_units(field, c=c)
    if t < 0:
        raise ValueError(f"need t >= 0, got t={t}")
    if t == 0:
        return dict.fromkeys(field.units(), 1)
    _check_budget(field.q ** (t * t), f"candidate {t} x {t} matrices over GF({field.q})")
    pairs = Counter((mat_trace(w), mat_trace(mat_inv(field, w))) for w in gl_iter(field, t))
    mul, lam = field.mul, field.lam
    return {
        a: sum(n * lam(mul(c, u ^ mul(a, v))) for (u, v), n in pairs.items())
        for a in field.units()
    }


def theta_character_sums(field: Field) -> list[int]:
    """Entry beta is the sum of lambda(beta / (x^2 + x)) over x outside {0, 1}.

    For beta != 0 this equals K(lambda; beta) - 1; both sides are exposed so
    the identity stays a testable fact rather than an assumption.  The
    multiset {1/(x^2 + x)} is counted once, then character_sums reads every beta.
    """
    mul, inv = field.mul, field.inv
    counts = [0] * field.q
    for x in range(2, field.q):
        counts[inv(mul(x, x) ^ x)] += 1
    return character_sums(field, counts)


def twisted_sums(field: Field) -> list[int]:
    """Entry beta is the sum of lambda(a * beta) K(lambda; a) over nonzero a.

    Closed form: q * lambda(1/beta) + 1 for beta != 0, and 1 at beta = 0.
    """
    return character_sums(field, _kdata(field)[0])
