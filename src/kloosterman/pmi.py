"""Power moment identities: Stirling numbers, the Pless identity, and the
recursion producing trace-one Kloosterman moments from code weight data.

Everything is computed in exact rational arithmetic; any result that fails to
clear its denominator is a hard error, never a rounding event.  One kernel,
_stirling_side, evaluates the Stirling/binomial double sum that every
identity here shares; each caller only scales it.  Both it and stirling2
read t! S(h,t) from one list, _onto.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .classical import ORTHOGONAL, SYMPLECTIC
from .dcsum import CellConstants, _check_odd, cell_constants
from .gf2r import Field
from .ksum import moments
from .wcode import weight_prefix_closed

# (n, r, modulus, h) -> (T1K^h by the recursion, the D_j prefix it used)
_T1K_MEMO: dict[tuple[int, int, int, int], tuple[int, tuple[int, ...]]] = {}


def _onto(h: int, tmax: int) -> list[int]:
    """t! S(h,t), the number of maps from h points onto t, for t = 0..tmax, as an alternating sum."""
    return [
        sum((-1) ** (t - i) * math.comb(t, i) * i**h for i in range(t + 1)) for t in range(tmax + 1)
    ]


def stirling2(h: int, t: int) -> int:
    """Stirling number of the second kind, t! S(h,t) / t!; S(0,0) = 1."""
    if h < 0 or t < 0:
        raise ValueError("Stirling numbers need nonnegative arguments")
    if t > h:
        return 0
    return _integral(Fraction(_onto(h, t)[t], math.factorial(t)), f"S({h},{t})")


def _integral(value: Fraction, what: str) -> int:
    """value as an int; a nonzero remainder means a broken identity or input."""
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral {what}: {value}")
    return value.numerator


def _stirling_side(length: int, prefix: list[int], h: int) -> Fraction:
    """Sum over j of (-1)^j prefix[j] times the sum over t of
    t! S(h,t) 2^(-t) C(length-j, t-j), with j <= t <= min(h, length).

    With t! S(h,t) from _onto, nothing divides until the single power of two
    at the end.
    """
    tmax = min(h, length)
    onto = _onto(h, tmax)
    total = sum(
        (-1) ** j
        * prefix[j]
        * sum(
            (onto[t] * math.comb(length - j, t - j)) << (tmax - t) for t in range(j, tmax + 1)
        )
        for j in range(tmax + 1)
    )
    return Fraction(total, 1 << tmax)


def pless_check(
    length: int, dim: int, dual_weights: list[int], prefix: list[int], h: int
) -> tuple[int, int]:
    """Both sides of the binary Pless power moment identity, exactly.

    dual_weights lists the weight of every codeword of a binary [length, dim]
    code B; prefix lists the weight distribution C_0.. of its dual, at least
    up to min(length, h).  Returns (sum of h-th weight powers over B, the
    Stirling/binomial side evaluated from the prefix).
    """
    jcap = min(length, h)
    if len(prefix) <= jcap:
        raise ValueError(f"prefix covers j < {len(prefix)}, need j <= {jcap}")
    lhs = sum(w**h for w in dual_weights)
    rhs = Fraction(2) ** dim * _stirling_side(length, prefix, h)
    return lhs, _integral(rhs, f"Pless side at (length={length}, dim={dim}, h={h})")


def _check_recursion_range(n: int, field: Field) -> None:
    _check_odd(n)
    if n == 1 and field.q < 8:
        raise ValueError(
            f"outside the supported range: n=1 requires q >= 8, got q={field.q} "
            "(any q is allowed once n >= 3)"
        )


def _difference_prefix(n: int, field: Field, jmax: int) -> list[int]:
    """D_j: orthogonal-cell minus symplectic-cell weight counts, j = 0..jmax."""
    cj = weight_prefix_closed(n, field, jmax, ORTHOGONAL)
    cj_hat = weight_prefix_closed(n, field, jmax, SYMPLECTIC)
    return [a - b for a, b in zip(cj, cj_hat)]


def _t1k_value(n: int, field: Field, h: int) -> tuple[int, tuple[int, ...]]:
    """T1K^h by the recursion, with the D_j prefix it was computed from."""
    key = (n, field.r, field.modulus, h)
    cached = _T1K_MEMO.get(key)
    if cached is not None:
        return cached
    consts = cell_constants(n, field)
    d = _difference_prefix(n, field, min(consts.size, h))
    first = sum(
        math.comb(h, l) * consts.cofactor ** (h - l) * _t1k_value(n, field, l)[0]
        for l in range(1, h - 1, 2)
    )
    value = -first + Fraction(field.q * 2 ** (h - 1), consts.scale**h) * _stirling_side(
        consts.size, d, h
    )
    result = (_integral(value, f"recursion value at (n={n}, q={field.q}, h={h})"), tuple(d))
    _T1K_MEMO[key] = result
    return result


@dataclass(frozen=True)
class RecursionReport:
    """One recursion evaluation: inputs, the D_j data, and the verdict."""

    n: int
    q: int
    h: int
    d_values: tuple[int, ...]
    recursive: int
    direct: int | None
    match: bool | None


def t1k_recursive(n: int, field: Field, h: int, compare: bool = False) -> RecursionReport:
    """Trace-one moment of order h from code weight data, per the recursion.

    Defined for odd h, with odd n >= 3 at any q, or n = 1 with q >= 8.  With
    compare=True the direct trace-one power sum is computed as an independent
    oracle and the verdict recorded.
    """
    _check_recursion_range(n, field)
    if h < 1 or h % 2 == 0:
        raise ValueError(f"the recursion needs odd h >= 1, got h={h}")
    value, d = _t1k_value(n, field, h)
    direct = moments(field, h).t1k if compare else None
    return RecursionReport(
        n=n,
        q=field.q,
        h=h,
        d_values=d,
        recursive=value,
        direct=direct,
        match=(value == direct) if compare else None,
    )


def _full_moment_rhs(n: int, field: Field, h: int) -> tuple[CellConstants, Fraction]:
    """The symplectic weight-prefix side of the full-moment identity."""
    _check_recursion_range(n, field)
    if h < 1:
        raise ValueError(f"need h >= 1, got h={h}")
    consts = cell_constants(n, field)
    prefix_hat = weight_prefix_closed(n, field, min(consts.size, h), SYMPLECTIC)
    return consts, field.q * _stirling_side(consts.size, prefix_hat, h)


def _binomial_moments(field: Field, cofactor: int, h: int, lmax: int) -> int:
    """Sum over l <= lmax of (-1)^l C(h,l) cofactor^(h-l) MK^l."""
    return sum(
        (-1) ** l * math.comb(h, l) * cofactor ** (h - l) * moments(field, l).mk
        for l in range(lmax + 1)
    )


def full_moment_identity(n: int, field: Field, h: int) -> tuple[int, int]:
    """Both sides of the identity tying binomial-weighted full moments MK^l
    to the symplectic cell's weight prefix; exact equality is the contract."""
    consts, rhs = _full_moment_rhs(n, field, h)
    lhs = Fraction(consts.scale**h, 2**h) * _binomial_moments(field, consts.cofactor, h, h)
    where = f"at (n={n}, q={field.q}, h={h})"
    return _integral(lhs, f"moment side {where}"), _integral(rhs, f"prefix side {where}")


def mk_via_identity(n: int, field: Field, h: int) -> int:
    """Solve the full-moment identity for MK^h given the lower direct moments."""
    consts, rhs = _full_moment_rhs(n, field, h)
    lower = _binomial_moments(field, consts.cofactor, h, h - 1)
    value = (-1) ** h * (rhs * Fraction(2**h, consts.scale**h) - lower)
    return _integral(value, f"moment at (n={n}, q={field.q}, h={h})")
