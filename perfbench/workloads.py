"""The four benchmark workloads: their seeded inputs, timed ops and oracles.

A workload is a list of ops.  Each op is one call sequence a user of the
library makes, with spans around the public calls into each module, an
oracle that shares no code path with what it checks, and, for traced runs,
probes that re-run one sub-step at the op's arguments.

The library only ever receives the generated `Field`s and plain arguments;
every field fact the oracles need (products, traces, irreducible and
primitive moduli) is recomputed here by independent carry-less arithmetic.
Importing this module imports `kloosterman`, so the caller puts the checkout's
`src` directory on `sys.path` first.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

from kloosterman import cli
from kloosterman.classical import (
    ORTHOGONAL,
    SYMPLECTIC,
    cell_order,
    coset_transversal,
    dc_trace_histogram,
    enumerate_parabolic,
)
from kloosterman.dcsum import closed_histogram, expsum_closed
from kloosterman.gf2r import Field
from kloosterman.ksum import ktable, moments
from kloosterman.pmi import t1k_recursive
from kloosterman.wcode import weight_prefix_closed

NAMES = ("cells", "tables", "recursion", "gate")

# (family, n, r of GF(2^r), number of cells r_coset = 0..count-1):
# O(7,2), Sp(6,2) with all four cells, O(5,4), Sp(4,4) with all three.
CELL_GROUPS = ((ORTHOGONAL, 3, 1, 4), (SYMPLECTIC, 3, 1, 4), (ORTHOGONAL, 2, 2, 3), (SYMPLECTIC, 2, 2, 3))
# (degree r, ops at that degree); r = 12 is out: its ktable takes minutes.
TABLE_DEGREES = ((9, 4), (10, 3), (11, 1))
TABLE_HMAX = 10
# (n, degree r of the field) and the odd moment orders h = 1..25.
RECURSION_GRID = ((1, 6), (3, 3), (3, 4))
RECURSION_ORDERS = tuple(range(1, 26, 2))
# `verify all` order, with the check count each suite runs at this commit.
GATE_SUITES = {"field": 28, "kloosterman": 50, "groups": 34, "expsum": 46, "codes": 24, "pless": 34, "thma": 40}


@dataclass(frozen=True)
class Op:
    """One timed call sequence; `run` takes the tracer and returns the output."""

    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]
    probes: Callable[[Any], None] | None = None


# ----------------------------------------------------------------------------
# independent GF(2)[x] arithmetic for inputs and oracles


def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        b >>= 1
    return p


def poly_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def mulmod(a: int, b: int, m: int) -> int:
    return poly_mod(clmul(a, b), m)


def powmod(a: int, e: int, m: int) -> int:
    result = 1
    while e:
        if e & 1:
            result = mulmod(result, a, m)
        a = mulmod(a, a, m)
        e >>= 1
    return result


def abs_trace(a: int, m: int) -> int:
    """a + a^2 + ... + a^(2^(r-1)) modulo m, which is 0 or 1."""
    t = 0
    for _ in range(m.bit_length() - 1):
        t ^= a
        a = mulmod(a, a, m)
    return t


def irreducibles(r: int) -> list[int]:
    """Every irreducible polynomial of degree r, by sieving out all products."""
    reducible = set()
    for d in range(1, r // 2 + 1):
        for f in range(1 << d, 1 << (d + 1)):
            for g in range(1 << (r - d), 1 << (r - d + 1)):
                reducible.add(clmul(f, g))
    return [p for p in range(1 << r, 1 << (r + 1)) if p not in reducible]


def is_primitive(m: int) -> bool:
    """Whether x generates the multiplicative group modulo the irreducible m."""
    order = (1 << (m.bit_length() - 1)) - 1
    primes, rest, p = [], order, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    return all(powmod(2, order // p, m) != 1 for p in primes)


# ----------------------------------------------------------------------------
# ops


def cells_op(family: str, n: int, field: Field, r: int) -> Op:
    """Trace histogram of the cell P sigma_r P, single worker."""

    def run(tr):
        with tr.span("classical.histogram") as c:
            hist = dc_trace_histogram(n, r, field, family, workers=1)
            c["classical.elements"] = sum(hist.values())
        return hist

    def check(hist) -> bool:
        q, m = field.q, field.modulus
        if sorted(hist) != list(range(q)) or sum(hist.values()) != cell_order(n, r, q):
            return False
        lam = [1 - 2 * abs_trace(x, m) for x in range(q)]
        for c in range(1, q):
            # the trace shifts by 1 under iota, which multiplies the sum by lambda(c)
            expected = expsum_closed(n, r, field, c) * (lam[c] if family == SYMPLECTIC else 1)
            if sum(k * lam[mulmod(c, beta, m)] for beta, k in hist.items()) != expected:
                return False
        return not (n % 2 == 1 and r == n - 1) or hist == closed_histogram(n, field, family)

    def probes(tr):
        with tr.span("classical.transversal") as c:
            c["classical.cosets"] = len(coset_transversal(n, r, field, family).transversal)
        with tr.span("classical.parabolic"):
            sum(1 for _ in enumerate_parabolic(n, field, family))

    return Op(f"cells {family} n={n} q={field.q} r={r}", run, check, probes)


def tables_op(r: int, modulus: int, a: int, b: int) -> Op:
    """A fresh field, first calls into it, its Kloosterman table and moments."""

    def run(tr):
        with tr.span("gf2r.field"):
            field = Field(r, modulus)
        with tr.span("gf2r.first_use"):
            first = (field.mul(a, b), field.inv(a), field.trace(a))
        with tr.span("ksum.ktable") as c:
            table = ktable(field)
            c["ksum.pairs"] = (field.q - 1) ** 2
        with tr.span("ksum.moments"):
            rows = [moments(field, h) for h in range(TABLE_HMAX + 1)]
        return first, table, rows

    def check(out) -> bool:
        (prod, inv, trace), table, rows = out
        q, m = 1 << r, modulus
        if (prod, mulmod(a, inv, m), trace) != (mulmod(a, b, m), 1, abs_trace(a, m)):
            return False
        if sorted(table) != list(range(1, q)):
            return False
        k = table.values()
        if any(v * v > 4 * q or v % 4 != 3 for v in k):
            return False
        if sum(k) != 1 or sum(v * v for v in k) != q * q - q - 1:
            return False
        if any(table[mulmod(x, x, m)] != v for x, v in table.items()):
            return False
        traces = {x: abs_trace(x, m) for x in table}
        for h, row in enumerate(rows):
            t0 = sum(v**h for x, v in table.items() if traces[x] == 0)
            t1 = sum(v**h for x, v in table.items() if traces[x] == 1)
            if (row.mk, row.t0k, row.t1k) != (t0 + t1, t0, t1):
                return False
        return True

    return Op(f"tables r={r} modulus={modulus:#x}", run, check)


def recursion_op(n: int, field: Field, h: int) -> Op:
    """Trace-one moment of order h from code weight data, with the direct sum."""

    def run(tr):
        with tr.span("pmi.t1k"):
            return t1k_recursive(n, field, h, compare=True)

    def check(report) -> bool:
        return report.match is True

    def probes(tr):
        jmax = min(cell_order(n, n - 1, field.q), h)
        for family in (ORTHOGONAL, SYMPLECTIC):
            with tr.span("dcsum.closed_histogram"):
                closed_histogram(n, field, family)
            with tr.span("wcode.prefix"):
                weight_prefix_closed(n, field, jmax, family)
        with tr.span("ksum.moments"):
            moments(field, h)

    return Op(f"recursion n={n} q={field.q} modulus={field.modulus:#x} h={h}", run, check, probes)


def gate_op(suite: str) -> Op:
    """`kloosterman verify <suite> --json`, called in-process through the CLI."""

    def run(tr):
        out = io.StringIO()
        with tr.span(f"verify.{suite}") as c, redirect_stdout(out):
            code = cli.main(["verify", suite, "--json"])
        verdicts = json.loads(out.getvalue())["verdicts"]
        c["verify.checks"] = int(verdicts["checks_run"])
        c["verify.failures"] = int(verdicts["failures"])
        return code, verdicts

    def check(out) -> bool:
        code, verdicts = out
        return (code, verdicts["failures"], verdicts["checks_run"]) == (0, "0", str(GATE_SUITES[suite]))

    return Op(f"gate verify {suite}", run, check)


# ----------------------------------------------------------------------------
# seeded inputs


def build(name: str, seed: int) -> list[Op]:
    """The op list of one workload; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if name == "cells":
        fields = {r: Field(r) for r in {group[2] for group in CELL_GROUPS}}
        ops = [
            cells_op(family, n, fields[r], rc)
            for family, n, r, count in CELL_GROUPS
            for rc in range(count)
        ]
        rng.shuffle(ops)
        return ops
    if name == "tables":
        ops = []
        for r, count in TABLE_DEGREES:
            candidates = irreducibles(r)
            # one non-primitive modulus per degree that has room for one
            non_primitive = [m for m in candidates if not is_primitive(m)]
            picked = [rng.choice(non_primitive)] if count > 1 else []
            rest = [m for m in candidates if m not in picked]
            picked += rng.sample(rest, count - len(picked))
            for m in picked:
                a, b = rng.randrange(1, 1 << r), rng.randrange(1, 1 << r)
                ops.append(tables_op(r, m, a, b))
        return ops
    if name == "recursion":
        return [
            recursion_op(n, field, h)
            for n, r in RECURSION_GRID
            for field in [Field(r, rng.choice(irreducibles(r)))]
            for h in RECURSION_ORDERS
        ]
    if name == "gate":
        return [gate_op(suite) for suite in GATE_SUITES]
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
