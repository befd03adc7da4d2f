"""Kloosterman sums, their GL(t,q) relatives, and trace-split power moments.

All values are exact ints.  K(lambda; a) is tabulated once per field by direct
O(q^2) summation and cached in-process; nothing here approximates.  A twisted
character needs no sum of its own: substituting y = c*x shows that
K(lambda; c, a), the sum of lambda(c*(x + a/x)), equals K(lambda; c^2 * a).
"""

from __future__ import annotations

from typing import NamedTuple

from .classical import DEFAULT_BUDGET, BudgetError
from .gf2r import Field
from .matfq import SingularMatrixError, all_matrices, mat_inv, mat_trace

_KTABLE_CACHE: dict[tuple[int, int], dict[int, int]] = {}


def kloosterman(field: Field, a: int, c: int = 1) -> int:
    """The sum of lambda(c * (x + a/x)) over nonzero x; c = 1 gives K(lambda; a)."""
    if a == 0 or c == 0:
        raise ValueError("Kloosterman sums need a nonzero argument and character")
    mul = field.mul
    return ktable(field)[mul(mul(c, c), a)]


def ktable(field: Field) -> dict[int, int]:
    """K(lambda; a) for every nonzero a, computed once per field and cached."""
    key = (field.r, field.modulus)
    table = _KTABLE_CACHE.get(key)
    if table is None:
        lam = field.lam
        mul = field.mul
        invs = [0] + [field.inv(x) for x in field.units()]
        table = {
            a: sum(lam(x ^ mul(a, invs[x])) for x in field.units()) for a in field.units()
        }
        _KTABLE_CACHE[key] = table
    return table


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
    """K over GL(t,q) via its two-term recursion; t = 0 is 1, t = 1 is K itself."""
    if a == 0:
        raise ValueError("Kloosterman sums need a nonzero argument")
    if t < 0:
        raise ValueError("matrix size must be nonnegative")
    if t == 0:
        return 1
    q = field.q
    k1 = kloosterman(field, a, c)
    prev, cur = 1, k1
    for s in range(2, t + 1):
        prev, cur = cur, q ** (s - 1) * cur * k1 + q ** (2 * s - 2) * (q ** (s - 1) - 1) * prev
    return cur


def kloosterman_gl_bruteforce(
    field: Field, t: int, a: int, c: int = 1, budget: int = DEFAULT_BUDGET
) -> int:
    """Direct sum of lambda(c*(Tr w + a Tr w^-1)) over all invertible t x t w."""
    if a == 0:
        raise ValueError("Kloosterman sums need a nonzero argument")
    if t == 0:
        return 1
    if field.q ** (t * t) > budget:
        raise BudgetError(f"{field.q ** (t * t)} candidate matrices exceed budget {budget}")
    mul, lam = field.mul, field.lam
    total = 0
    for w in all_matrices(field, t, t):
        try:
            winv = mat_inv(field, w)
        except SingularMatrixError:
            continue
        total += lam(mul(c, mat_trace(w) ^ mul(a, mat_trace(winv))))
    return total


def theta_character_sum(field: Field, beta: int) -> int:
    """Sum of lambda(beta / (x^2 + x)) over x outside {0, 1}.

    Equals K(lambda; beta) - 1; both sides are exposed so the identity stays
    a testable fact rather than an assumption.
    """
    if beta == 0:
        raise ValueError("beta must be nonzero")
    mul, inv, lam = field.mul, field.inv, field.lam
    return sum(
        lam(mul(beta, inv(mul(x, x) ^ x))) for x in field.elements() if x not in (0, 1)
    )


def twisted_sum(field: Field, beta: int) -> int:
    """Sum of lambda(a * beta) K(lambda; a) over nonzero a.

    Closed form: q * lambda(1/beta) + 1 for beta != 0, and 1 at beta = 0.
    """
    table = ktable(field)
    mul, lam = field.mul, field.lam
    return sum(lam(mul(a, beta)) * k for a, k in table.items())
