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
K(lambda; c^2 * a).
"""

from __future__ import annotations

import sys
from array import array
from typing import NamedTuple

from .classical import DEFAULT_BUDGET, BudgetError, gl_recursion
from .gf2r import Field
from .matfq import gl_iter, mat_inv, mat_trace

_KTABLE_CACHE: dict[tuple[int, int], dict[int, int]] = {}


def _require_elements(field: Field, low: int, **args: int) -> None:
    """Raise ValueError unless low <= value < q for each named argument (low = 1: a unit)."""
    for name, x in args.items():
        if not low <= x < field.q:
            kind = "a nonzero element" if low else "an element"
            raise ValueError(f"{name}={x} is not {kind} of GF({field.q})")


def kloosterman(field: Field, a: int, c: int = 1) -> int:
    """The sum of lambda(c * (x + a/x)) over nonzero x; c = 1 gives K(lambda; a)."""
    _require_elements(field, 1, a=a, c=c)
    mul = field.mul
    return ktable(field)[mul(mul(c, c), a)]


def ktable(field: Field) -> dict[int, int]:
    """K(lambda; a) for every nonzero a, in ascending a; computed once per field and cached."""
    key = (field.r, field.modulus)
    table = _KTABLE_CACHE.get(key)
    if table is None:
        q = field.q
        powers = field.powers()
        by_element = [0] * q
        for x, c in zip(powers, _cyclic_self_convolution([field.trace(x) for x in powers])):
            by_element[x] = 4 * c - q - 1
        table = dict(zip(field.units(), by_element[1:]))
        _KTABLE_CACHE[key] = table
    return table


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

    h = 0 is the literal empty-power convention: mk = q-1 and t1k counts the
    trace-one units.  The partition mk = t0k + t1k holds by construction and
    is checked, which catches a trace outside {0, 1}.
    """
    if h < 0:
        raise ValueError("moment order must be nonnegative")
    trace = field.trace
    powers = [(trace(a), k**h) for a, k in ktable(field).items()]
    mk = sum(p for _, p in powers)
    t0k = sum(p for t, p in powers if t == 0)
    t1k = sum(p for t, p in powers if t == 1)
    if mk != t0k + t1k:
        raise ArithmeticError(f"moment split at q={field.q}, h={h}: {mk} != {t0k} + {t1k}")
    return Moments(mk, t0k, t1k)


def kloosterman_gl(field: Field, t: int, a: int, c: int = 1) -> int:
    """K over GL(t,q) by classical.gl_recursion; t = 0 is 1, t = 1 is K itself."""
    _require_elements(field, 1, a=a, c=c)
    return gl_recursion([kloosterman(field, a, c) if t else 1], t, field.q)[0]  # W_0 reads no K


def kloosterman_gl_bruteforce(
    field: Field, t: int, a: int, c: int = 1, budget: int = DEFAULT_BUDGET
) -> int:
    """Direct sum of lambda(c*(Tr w + a Tr w^-1)) over all invertible t x t w."""
    _require_elements(field, 1, a=a, c=c)
    if t == 0:
        return 1
    if field.q ** (t * t) > budget:
        raise BudgetError(f"{field.q ** (t * t)} candidate matrices exceed budget {budget}")
    mul, lam = field.mul, field.lam
    total = 0
    for w in gl_iter(field, t):
        total += lam(mul(c, mat_trace(w) ^ mul(a, mat_trace(mat_inv(field, w)))))
    return total


def theta_character_sum(field: Field, beta: int) -> int:
    """Sum of lambda(beta / (x^2 + x)) over x outside {0, 1}.

    Equals K(lambda; beta) - 1; both sides are exposed so the identity stays
    a testable fact rather than an assumption.
    """
    _require_elements(field, 1, beta=beta)
    mul, inv, lam = field.mul, field.inv, field.lam
    return sum(
        lam(mul(beta, inv(mul(x, x) ^ x))) for x in field.elements() if x not in (0, 1)
    )


def twisted_sum(field: Field, beta: int) -> int:
    """Sum of lambda(a * beta) K(lambda; a) over nonzero a.

    Closed form: q * lambda(1/beta) + 1 for beta != 0, and 1 at beta = 0.
    """
    _require_elements(field, 0, beta=beta)
    table = ktable(field)
    mul, lam = field.mul, field.lam
    return sum(lam(mul(a, beta)) * k for a, k in table.items())
