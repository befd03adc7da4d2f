"""Closed forms for the distinguished double cosets: sizes, character sums,
and exact trace-count histograms for both the orthogonal and symplectic cells.

The cell of interest is P sigma_(n-1) P for odd n.  Its size factors as
scale * cofactor, where scale is the multiplier carrying the Kloosterman sum
in the cell's character sum and cofactor the complementary factor.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .classical import FAMILIES, ORTHOGONAL, q_binom
from .gf2r import Field
from .ksum import kloosterman, kloosterman_gl


@dataclass(frozen=True)
class CellConstants:
    """The two factors of |P sigma_(n-1) P| for odd n."""

    n: int
    q: int
    scale: int
    cofactor: int

    @property
    def size(self) -> int:
        return self.scale * self.cofactor


def _check_odd(n: int) -> None:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"defined for odd n >= 1 only, got n={n}")


def cell_constants(n: int, field: Field) -> CellConstants:
    """Exact evaluation of the two size factors; empty products at n=1."""
    _check_odd(n)
    q = field.q
    scale = (
        q ** ((5 * n * n - 1) // 4)
        * q_binom(n, 1, q)
        * math.prod(q ** (2 * j - 1) - 1 for j in range(1, (n - 1) // 2 + 1))
    )
    cofactor = (
        q ** ((n - 1) ** 2 // 4)
        * (q**n - 1)
        * math.prod(q ** (2 * j) - 1 for j in range(1, (n - 1) // 2 + 1))
    )
    return CellConstants(n=n, q=q, scale=scale, cofactor=cofactor)


def expsum_closed(n: int, r: int, field: Field, c: int = 1) -> int:
    """Character sum of lambda(c * Tr w) over P sigma_r P, in closed form.

    Zero for odd r; for even r a power-of-q prefactor times a q-binomial,
    an odd-exponent product, and the GL(n-r) Kloosterman sum at argument 1.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got n={n}, r={r}")
    if c == 0:
        raise ValueError("character index c must be nonzero")
    if r % 2 == 1:
        return 0
    q = field.q
    prefactor = (
        field.lam(c)
        * q ** (math.comb(n + 1, 2) + r * n - r * r // 4)
        * q_binom(n, r, q)
        * math.prod(q ** (2 * j - 1) - 1 for j in range(1, r // 2 + 1))
    )
    return prefactor * kloosterman_gl(field, n - r, 1, c)


def expsum_dc(n: int, field: Field, c: int = 1) -> int:
    """Character sum over the distinguished cell: lambda(c) * scale * K(lambda; c).

    This is the r = n-1 specialization of expsum_closed; both routes are kept
    and their equality is a tested property.
    """
    _check_odd(n)
    if c == 0:
        raise ValueError("character index c must be nonzero")
    consts = cell_constants(n, field)
    return field.lam(c) * consts.scale * kloosterman(field, c)


def _trace_counter(
    n: int, field: Field, family: str
) -> tuple[CellConstants, Callable[[int], int]]:
    """The distinguished cell's constants, computed once, and its beta -> count map."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    _check_odd(n)
    q = field.q
    consts = cell_constants(n, field)
    if consts.size % q or consts.scale % q:
        raise ArithmeticError(f"cell factors at (n={n}, q={q}) are not multiples of q")
    base, unit = consts.size // q, consts.scale // q

    def count(beta: int) -> int:
        # the orthogonal histogram is the symplectic one shifted by the trace of iota
        gamma = beta ^ 1 if family == ORTHOGONAL else beta
        if gamma == 0:
            bump = 1
        elif field.trace(field.inv(gamma)) == 0:
            bump = q + 1
        else:
            bump = -q + 1
        return base + unit * bump

    return consts, count


def trace_count(n: int, field: Field, beta: int, family: str = ORTHOGONAL) -> int:
    """Number of elements of the distinguished cell with matrix trace beta.

    Orthogonal family: the beta = 1 slot is exclusive and takes precedence
    (the generic case reads the trace of 1/(beta-1), undefined there).
    Symplectic family: the special slot sits at beta = 0 with 1/beta generic.
    """
    return _trace_counter(n, field, family)[1](beta)


def closed_histogram(n: int, field: Field, family: str = ORTHOGONAL) -> dict[int, int]:
    """Dense trace histogram of the distinguished cell from the closed forms.

    Checks the two structural facts downstream code relies on: the counts
    sum to the cell size, and the field-weighted sum of traces vanishes.
    """
    consts, count = _trace_counter(n, field, family)
    hist = {beta: count(beta) for beta in field.elements()}
    if sum(hist.values()) != consts.size:
        raise ArithmeticError(f"{family} histogram at (n={n}, q={field.q}) misses the cell size")
    weighted = 0
    for beta, k in hist.items():
        if k & 1:
            weighted ^= beta
    if weighted:
        raise ArithmeticError(f"{family} histogram at (n={n}, q={field.q}) has nonzero trace sum")
    return hist
