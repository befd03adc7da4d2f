"""Closed forms for the distinguished double cosets: sizes, character sums,
and exact trace-count histograms for both the orthogonal and symplectic cells.

The cell of interest is P sigma_(n-1) P for odd n.  Its size factors as
scale * cofactor, where scale is the multiplier carrying the Kloosterman sum
in the cell's character sum and cofactor the complementary factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classical import q_binom
from .gf2r import Field
from .guards import ORTHOGONAL, _check_cell, _check_family, _check_odd, _exact, _require_units
from .ksum import kloosterman, kloosterman_gl


@dataclass(frozen=True)
class CellConstants:
    """The two factors of |P sigma_(n-1) P| for odd n."""

    scale: int
    cofactor: int

    @property
    def size(self) -> int:
        return self.scale * self.cofactor


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
    return CellConstants(scale=scale, cofactor=cofactor)


def expsum_closed(n: int, r: int, field: Field, c: int = 1) -> int:
    """Character sum of lambda(c * Tr w) over P sigma_r P, in closed form.

    Zero for odd r; for even r a power-of-q prefactor times a q-binomial,
    an odd-exponent product, and the GL(n-r) Kloosterman sum at argument 1.
    """
    _check_cell(n, r)
    _require_units(field, c=c)
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
    _require_units(field, c=c)
    consts = cell_constants(n, field)
    return field.lam(c) * consts.scale * kloosterman(field, c)


def closed_histogram(n: int, field: Field, family: str = ORTHOGONAL) -> dict[int, int]:
    """Dense trace histogram beta -> count of the distinguished cell, in closed form.

    Each count is (size + scale * bump) / q.  The symplectic special slot is
    gamma = beta = 0 (bump 1); elsewhere bump is q + 1 or 1 - q as tr(1/gamma)
    is 0 or 1.  The orthogonal histogram is the symplectic one shifted by the
    trace of iota, gamma = beta + 1, so its special slot beta = 1 is exclusive.
    Checks the two structural facts downstream code relies on: the counts
    sum to the cell size, and the field-weighted sum of traces vanishes.
    """
    _check_family(family)
    q = field.q
    consts = cell_constants(n, field)
    base, unit = _exact(consts.size, q, "cell size"), _exact(consts.scale, q, "cell scale")
    shift = 1 if family == ORTHOGONAL else 0
    hist = {}
    for beta in field.elements():
        gamma = beta ^ shift
        bump = 1 if gamma == 0 else 1 - q if field.trace(field.inv(gamma)) else q + 1
        hist[beta] = base + unit * bump
    if sum(hist.values()) != consts.size:
        raise ArithmeticError(f"{family} histogram at (n={n}, q={q}) misses the cell size")
    weighted = 0
    for beta, k in hist.items():
        if k & 1:
            weighted ^= beta
    if weighted:
        raise ArithmeticError(f"{family} histogram at (n={n}, q={q}) has nonzero trace sum")
    return hist
