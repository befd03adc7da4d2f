"""Kloosterman sums, their GL(t,q) relatives, and trace-split power moments.

All values are exact ints.  K(lambda; a) is tabulated once per field and
cached for the last 16 fields; nothing approximates.  The table is one cyclic
convolution: lambda is additive, so with a = g^k for the field's generator g,
K(g^k) = sum_i lambda(g^i) lambda(g^(k-i)) over i mod q-1.  Writing
lambda(g^j) = 1 - 2 b_j with b_j = tr(g^j), this is K(g^k) = 4 C_k - q - 1,
where C_k = sum_i b_i b_(k-i) is the cyclic self-convolution of the 0/1
sequence b.  C is computed exactly as one big-integer square (Kronecker
substitution: one fixed-width slot per b_j, wide enough that no coefficient
carries), folded mod q - 1 by one big-int addition.  A twisted character
needs no sum of its own: substituting y = c*x shows that K(lambda; c, a), the
sum of lambda(c*(x + a/x)), equals K(lambda; c^2 * a).  While the table is
built, the pairs (tr a, K(a)) over the units are counted from the same trace
bits b_j.  For q >= 4 every K is 3 mod 4 with |K| <= 2 sqrt(q), so there are
at most 2(isqrt(q) + 1) pairs, and each power moment is read from those
counts without tracing anything.  The build makes whole-array passes: b is
gathered at the powers g^j from a q-byte table of tr, doubled out of the r
basis traces; C is counted apart on b_j = 0 and on b_j = 1, and K = 4C - q - 1
taken once per distinct C; only the scatter of K to index a is a Python loop.
The sides of the two character identities checked against the table,
theta_character_sums and twisted_sums, are read for every argument at once
from gf2r.character_sums (one Walsh-Hadamard transform), which shares no
code with the convolution.  gl_recursion lifts K to GL(t,q), and dcsum runs
it on whole transforms; its matrix oracle, kloosterman_gl_bruteforce, is in
classical, so nothing here builds a matrix.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import NamedTuple

from .gf2r import Field, character_sums
from .guards import _check_int, _require_units, _show


def kloosterman(field: Field, a: int, c: int = 1) -> int:
    """The sum of lambda(c * (x + a/x)) over nonzero x; c = 1 gives K(lambda; a)."""
    _require_units(field, a=a, c=c)
    mul = field.mul
    return _kdata(field)[0][mul(mul(c, c), a)]


def ktable(field: Field) -> dict[int, int]:
    """K(lambda; a) for every nonzero a, in ascending a; a new dict read from the cached table."""
    return dict(enumerate(_kdata(field)[0][1:], 1))


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


@lru_cache(maxsize=16)  # each entry keeps its Field, tables included, alive
def _kdata(field: Field) -> tuple[list[int], Counter[tuple[int, int]]]:
    """K(lambda; a) at index a (0 at a = 0) and the counts of (tr a, K(a)) over the units."""
    q = field.q
    powers = field.powers()
    # tr is linear: its table below 2^(i+1) is the one below 2^i, then a copy
    # with every entry flipped if tr(x^i) = 1
    traces = b"\0"
    for i in range(field.r):
        traces += traces.translate(_FLIP) if field.trace(1 << i) else traces
    # the leading index keeps the gather a tuple at q = 2, whose one unit would make it a scalar
    bits = bytes(itemgetter(0, *powers)(traces))[1:]
    conv = _cyclic_self_convolution(bits)
    # the C_k take at most isqrt(q) + 1 values, each mapped once to K = 4C - q - 1
    counts = [Counter(compress(conv, side)) for side in (bits.translate(_FLIP), bits)]
    value = {c: 4 * c - q - 1 for side in counts for c in side}
    pairs = Counter({(t, value[c]): n for t, side in enumerate(counts) for c, n in side.items()})
    by_element = [0] * q
    for x, c in zip(powers, conv):
        by_element[x] = value[c]
    return by_element, pairs


def _cyclic_self_convolution(bits: bytes) -> array:
    """C_k = sum of bits[i] * bits[(k - i) mod n] for k < n, by one big-int square.

    Each 0/1 bit gets one fixed-width slot, so slot k of the square holds the
    k-th coefficient of the acyclic self-convolution, at most n.  Folding the
    upper n slots onto the lower n adds coefficients k and n + k, which sum to
    C_k <= n: that still fits a slot, so the fold is one big-int addition with
    no carry between slots.  A slot is 2 bytes below n = 2^16 and 3 bytes from
    there on, since n < 2^24 for every field; 3-byte slots are widened to the
    4 bytes of an array('I') entry one byte lane at a time.
    """
    n = len(bits)
    width, code = (2, "H") if n < 1 << 16 else (3, "I")
    packed = bytearray(width * n)
    packed[::width] = bits
    square = int.from_bytes(packed, "little") ** 2
    shift = 8 * width * n
    folded = (square & ((1 << shift) - 1)) + (square >> shift)
    raw = folded.to_bytes(width * n, "little")
    if width == 3:
        wide = bytearray(4 * n)
        for lane in range(3):
            wide[lane::4] = raw[lane::3]
        raw = wide
    coeffs = array(code, raw)
    if sys.byteorder == "big":
        coeffs.byteswap()
    return coeffs


class Moments(NamedTuple):
    mk: int
    t0k: int
    t1k: int


def moments(field: Field, h: int) -> Moments:
    """h-th power moment of K(lambda; .) and its trace-0 / trace-1 split.

    Read in one pass from the counts of (tr a, K(a)) kept beside the table.
    h = 0 is the literal empty-power convention: mk = q-1 and t1k counts the
    trace-one units.  Every pair adds to mk and only a pair of trace 0 or 1
    to t0k or t1k, so the partition mk = t0k + t1k holds by construction and
    its check still catches a trace outside {0, 1}.
    """
    _check_int("h", h)
    mk = t0k = t1k = 0
    for (t, k), n in _kdata(field)[1].items():
        power = n * k**h
        mk += power
        if t == 0:
            t0k += power
        elif t == 1:
            t1k += power
    if mk != t0k + t1k:
        off = _show(mk - t0k - t1k)
        raise ArithmeticError(f"moment split at q={field.q}, h={h}: mk - t0k - t1k = {off}")
    return Moments(mk, t0k, t1k)


def gl_recursion(k1: list[int], t: int, q: int) -> list[int]:
    """GL(t,q) Kloosterman sums of nontrivial characters from their GL(1,q) sums W_1 = k1,
    elementwise: W_t = q^(t-1) W_1 W_(t-1) + q^(2t-2) (q^(t-1) - 1) W_(t-2), W_0 = 1."""
    _check_int("t", t)
    prev, cur = [1] * len(k1), (list(k1) if t else [1] * len(k1))
    for s in range(2, t + 1):
        ratio, carry = q ** (s - 1), q ** (2 * s - 2) * (q ** (s - 1) - 1)
        prev, cur = cur, [ratio * k * w1 + carry * w2 for k, w1, w2 in zip(k1, cur, prev)]
    return cur


def kloosterman_gl(field: Field, t: int, a: int, c: int = 1) -> int:
    """K over GL(t,q) by gl_recursion; t = 0 is 1, t = 1 is K itself."""
    _require_units(field, a=a, c=c)
    return gl_recursion([kloosterman(field, a, c) if t else 1], t, field.q)[0]  # W_0 reads no K


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
