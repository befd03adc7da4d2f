"""Power moment identities: Stirling numbers, the Pless identity, and the
recursion producing trace-one Kloosterman moments from code weight data.

Everything is computed in ints, each result divided once (guards._exact):
a result that fails to clear its denominator is a hard error, never a
rounding event.  One kernel, _stirling_side, evaluates the Stirling/binomial
double sum that every identity here shares, sum over t of t! S(h,t) 2^(-t) E_t
with the Pless columns E_t = sum over j <= t of (-1)^j C_j C(N - j, t - j)
(pless_column), as an int over a power of two; each caller only scales it.  The
recursion is written in D_j = C_j - C'_j, the orthogonal cell code's weight
counts minus the symplectic one's.  The symplectic histogram is the
orthogonal one shifted by 1, so its transform is (-1)^s F[s]: at odd s it
turns the dual weight w into N - w, and K_j(N - w) = (-1)^j K_j(w).  Hence
one transform of the orthogonal histogram serves both cells: q C'_j is the
Krawtchouk sum over the even-s weights w_s and the odd-s weights N - w_s, and
q D_j is 2 sum over odd s of K_j(w_s) at odd j and 0 at even j.  Each of
the 16 cell pairs used last keeps one recursion (_recursion): the sums q D_j,
the counts D_j and the columns q E_t of D computed so far, the values T1K^1,
T1K^3, ... so far, one row of t! S(h,t), cut at t <= N, that each new order
steps twice, the cell's two size factors (cell_constants), and the
symplectic sums q C'_j, counts and columns for the full-moment identity.  The
other identities build their row from h = 0 (_onto).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from types import SimpleNamespace

from .dcsum import CellConstants, cell_constants, closed_histogram
from .gf2r import Field
from .guards import ORTHOGONAL, _check_int, _check_odd, _exact
from .ksum import moments
from .wcode import _dual_weights, _krawtchouk_sums


def _onto_step(row: list[int], tmax: int) -> list[int]:
    """The row of h + 1 from the row t! S(h,t), t <= min(h, tmax), of maps from
    h points onto t: t! S(h+1,t) = t (t! S(h,t) + (t-1)! S(h,t-1))."""
    return [0] + [t * (a + b) for t, a, b in zip(range(1, tmax + 1), row[1:] + [0], row)]


def _onto(h: int, tmax: int) -> list[int]:
    """t! S(h,t) for t <= min(h, tmax), stepped up from h = 0."""
    row = [1]
    for _ in range(h):
        row = _onto_step(row, tmax)
    return row


def stirling2(h: int, t: int) -> int:
    """Stirling number of the second kind, t! S(h,t) / t!; S(0,0) = 1."""
    _check_int("h", h)
    _check_int("t", t)
    if t > h:
        return 0
    return _exact(_onto(h, t)[t], math.factorial(t), f"S({h},{t})")


def pless_column(length: int, prefix: list[int], t: int) -> int:
    """E_t = sum over j <= t of (-1)^j prefix[j] C(length - j, t - j).

    E_t does not depend on the order h.  It is one Horner pass over j:
    t! E_t = R_t with R_0 = prefix[0] and
    R_(k+1) = R_k (length - k) + (-1)^(k+1) prefix[k+1] t!/(t-k-1)!,
    t products by the short factors length - k and one exact division by t!,
    where a dot product with the binomials would multiply long by long.
    """
    total, falling = prefix[0], 1
    for k in range(t):
        falling *= t - k
        term = prefix[k + 1] * falling
        total = total * (length - k) + (term if k % 2 else -term)
    return _exact(total, math.factorial(t), f"Pless column E_{t}")


def _stirling_side(columns: list[int], onto: list[int]) -> int:
    """2^tmax times the sum over t of onto[t] 2^(-t) columns[t], t = 0..tmax =
    len(onto) - 1, for onto the row t! S(h,t) cut at t <= tmax and at least
    tmax + 1 columns.

    With the Pless columns E_t of a prefix and tmax = min(h, length), the side
    is the sum over j of (-1)^j prefix[j] times the sum over t of
    t! S(h,t) 2^(-t) C(length - j, t - j); each caller divides by 2^tmax once.
    """
    tmax = len(onto) - 1
    return sum((o * e) << (tmax - t) for t, (o, e) in enumerate(zip(onto, columns)))


def pless_check(
    length: int, dim: int, dual_weights: list[int], prefix: list[int], h: int
) -> tuple[int, int]:
    """Both sides of the binary Pless power moment identity, exactly.

    dual_weights lists the weight of every codeword of a binary [length, dim]
    code B; prefix lists the weight distribution C_0.. of its dual, at least
    up to min(length, h).  Returns (sum of h-th weight powers over B, the
    Stirling/binomial side evaluated from the prefix).
    """
    _check_int("length", length)
    _check_int("dim", dim)
    _check_int("h", h)
    for name, values in (("dual_weights", dual_weights), ("prefix", prefix)):
        if bad := [x for x in values if type(x) is not int]:
            raise ValueError(f"{name} must hold ints only, got {bad[0]!r}")
    jcap = min(length, h)
    if len(prefix) <= jcap:
        raise ValueError(f"prefix covers j < {len(prefix)}, need j <= {jcap}")
    lhs = sum(w**h for w in dual_weights)
    columns = [pless_column(length, prefix, t) for t in range(jcap + 1)]
    rhs = _stirling_side(columns, _onto(h, jcap)) << dim
    return lhs, _exact(rhs, 1 << jcap, f"Pless side at (length={length}, dim={dim}, h={h})")


def _check_recursion_range(n: int, field: Field) -> None:
    _check_odd(n)
    if n == 1 and field.q < 8:
        raise ValueError(
            f"outside the supported range: n=1 requires q >= 8, got q={field.q} "
            "(any q is allowed once n >= 3)"
        )


@lru_cache(maxsize=16)  # each entry keeps its Field, tables included, alive
def _recursion(n: int, field: Field) -> SimpleNamespace:
    """The cell pair's recursion so far, from one transform of the orthogonal
    histogram.  kernel yields q D_j, twice the Krawtchouk sum over the odd-s
    dual weights at odd j and 0 at even j; sums[j] is q D_j, counts[j] is D_j
    and columns[t] is q E_t of D, the Pless column of the sums;
    values[k] is T1K^(2k+1); onto is the row t! S(h,t), t <= min(h, N), at
    h = 2 len(values), that the next order steps from; consts holds the
    cell's two size factors, so no later call derives them again.
    symplectic keeps the sums q C'_j, the counts C'_j and the columns the same
    way, its kernel over the even-s weights w and the odd-s weights N - w; it
    takes no step until the full-moment identity asks for one."""
    length, even, odd = _dual_weights(field.q, closed_histogram(n, field, ORTHOGONAL))
    kernel = (2 * total if j % 2 else 0 for j, total in enumerate(_krawtchouk_sums(length, odd)))
    reflected = even + Counter({length - w: mult for w, mult in odd.items()})
    sympl = SimpleNamespace(
        kernel=_krawtchouk_sums(length, reflected), sums=[], counts=[], columns=[]
    )
    return SimpleNamespace(
        kernel=kernel, sums=[], counts=[], columns=[], values=[], onto=[1],
        consts=cell_constants(n, field), symplectic=sympl,
    )


def _kept_columns(kept: SimpleNamespace, length: int, q: int, tmax: int) -> tuple[list, list]:
    """Extend kept.sums from kept.kernel, kept.counts (the sums divided by q)
    and kept.columns (the Pless columns of the sums) to t <= tmax, over the
    indices no earlier call reached; return the counts and columns cut at tmax.
    Each count is kept only once it is exact, and before any column that reads
    it, so a non-integral count raises at every request that reaches it.  A
    column is q times an integer combination of the counts: it needs no
    division of its own."""
    kept.sums.extend(islice(kept.kernel, max(0, tmax + 1 - len(kept.sums))))
    for j in range(len(kept.counts), tmax + 1):
        kept.counts.append(_exact(kept.sums[j], q, f"sum at j={j}, q={q}"))
    for t in range(len(kept.columns), tmax + 1):
        kept.columns.append(pless_column(length, kept.sums, t))
    return kept.counts[: tmax + 1], kept.columns[: tmax + 1]


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
    oracle and the verdict recorded.  The sums q D_j and their Pless columns
    are extended to t <= min(N, h), each sum divided by q exactly once;
    each order no earlier call reached is kept once its value is integral.
    """
    _check_recursion_range(n, field)
    _check_int("h", h, 1)
    if h % 2 == 0:
        raise ValueError(f"the recursion needs an odd h, got h={h}")
    kept = _recursion(n, field)
    consts = kept.consts
    tmax = min(consts.size, h)
    d, columns = _kept_columns(kept, consts.size, field.q, tmax)
    values, square = kept.values, consts.cofactor**2
    while len(values) <= h // 2:
        order = 2 * len(values) + 1
        onto = _onto_step(kept.onto, consts.size)
        # sum over odd l < order - 1 of C(order, l) cofactor^(order - l) values[l // 2],
        # by Horner in cofactor^2, stepping C(order, l) to C(order, l + 2)
        first, binomial = 0, order
        for l in range(1, order - 1, 2):
            first = (first + binomial * values[l // 2]) * square
            binomial = binomial * (order - l) * (order - l - 1) // ((l + 1) * (l + 2))
        value = -first + _exact(
            _stirling_side(columns, onto) << (order - 1),
            consts.scale**order << (len(onto) - 1),
            f"recursion value at (n={n}, q={field.q}, h={order})",
        )
        kept.onto = _onto_step(onto, consts.size)
        values.append(value)
    value = values[h // 2]
    direct = moments(field, h).t1k if compare else None
    return RecursionReport(
        n=n,
        q=field.q,
        h=h,
        d_values=tuple(d),
        recursive=value,
        direct=direct,
        match=(value == direct) if compare else None,
    )


def _full_moment_rhs(n: int, field: Field, h: int) -> tuple[CellConstants, int, int]:
    """The symplectic weight-prefix side of the full-moment identity: numerator, denominator."""
    _check_recursion_range(n, field)
    _check_int("h", h, 1)
    kept = _recursion(n, field)
    consts = kept.consts
    tmax = min(consts.size, h)
    _, columns = _kept_columns(kept.symplectic, consts.size, field.q, tmax)
    return consts, _stirling_side(columns, _onto(h, tmax)), 1 << tmax


def _binomial_moments(field: Field, cofactor: int, h: int, lmax: int) -> int:
    """Sum over l <= lmax of (-1)^l C(h,l) cofactor^(h-l) MK^l."""
    return sum(
        (-1) ** l * math.comb(h, l) * cofactor ** (h - l) * moments(field, l).mk
        for l in range(lmax + 1)
    )


def full_moment_identity(n: int, field: Field, h: int) -> tuple[int, int]:
    """Both sides of the identity tying binomial-weighted full moments MK^l
    to the symplectic cell's weight prefix; exact equality is the contract."""
    consts, rhs, den = _full_moment_rhs(n, field, h)
    lhs = consts.scale**h * _binomial_moments(field, consts.cofactor, h, h)
    where = f"at (n={n}, q={field.q}, h={h})"
    return _exact(lhs, 1 << h, f"moment side {where}"), _exact(rhs, den, f"prefix side {where}")


def mk_via_identity(n: int, field: Field, h: int) -> int:
    """Solve the full-moment identity for MK^h given the lower direct moments."""
    consts, rhs, den = _full_moment_rhs(n, field, h)
    lower = _binomial_moments(field, consts.cofactor, h, h - 1)
    value = _exact(rhs << h, den * consts.scale**h, f"moment at (n={n}, q={field.q}, h={h})")
    return (-1) ** h * (value - lower)
