"""Named verification suites behind the `verify` CLI command.

Each suite is a generator of exact integer checks (no tolerances anywhere),
one CheckResult per check.  Every brute-force enumeration a suite runs is
capped at guards.DEFAULT_BUDGET = 10^8 elements; the inputs are fixed and
stay far below it.  `run_suite` alone handles what a suite raises: a budget
overrun ends that suite with a failing `<suite>-enumeration-budget` entry
after the checks it has already yielded, and any other exception does the
same with a failing `<suite>-raised` entry; the remaining suites still run.
Only the `kloosterman` and `groups` suites enumerate, and they import
classical and matfq when they run: nothing else here loads matrix code.
"""

from __future__ import annotations

import math
import sys
import traceback
from collections.abc import Iterator
from dataclasses import dataclass

from .dcsum import (
    alternating_count, cell_constants, cell_order, closed_histogram, dc_order, dc_trace_histogram,
    expsum_closed, expsum_dc, group_order_data, parabolic_order, q_binom, transversal_size,
)
from .gf2r import MAX_DEGREE, Field
from .guards import ORTHOGONAL, SYMPLECTIC, BudgetError
from .ksum import kloosterman, kloosterman_gl, ktable, moments, theta_character_sums, twisted_sums
from .pmi import full_moment_identity, mk_via_identity, pless_check, t1k_recursive
from .wcode import (
    code_bruteforce_wd,
    delsarte_check,
    distinct_dual_count,
    dual_enumerate,
    dual_kernel,
    weight_prefix,
    weight_prefix_closed,
)

@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: str
    actual: str
    ok: bool


def _check(name: str, expected, actual) -> CheckResult:
    return CheckResult(name, str(expected), str(actual), expected == actual)


def weight_prefix_dp(hist: dict[int, int], jmax: int) -> list[int]:
    """Independent oracle for weight_prefix: codeword counts by weight 0..jmax,
    by dynamic programming over (weight so far, partial field sum).

    The field sum of traces is their XOR, so this shares nothing with the
    character sum over dual weights that weight_prefix evaluates.
    """
    dp: dict[tuple[int, int], int] = {(0, 0): 1}
    for beta, count in hist.items():
        new: dict[tuple[int, int], int] = {}
        for (j, s), ways in dp.items():
            for nu in range(min(jmax - j, count) + 1):
                key = (j + nu, s ^ (beta if nu & 1 else 0))
                new[key] = new.get(key, 0) + ways * math.comb(count, nu)
        dp = new
    return [dp.get((j, 0), 0) for j in range(jmax + 1)]


def dual_weight_from_histogram(field: Field, hist: dict[int, int], a: int) -> int:
    """Independent oracle for the dual weights: the weight of dual codeword a
    counted from a trace histogram, one product and trace per class."""
    mul, trace = field.mul, field.trace
    return sum(count for beta, count in hist.items() if trace(mul(a, beta)) == 1)


# ----------------------------------------------------------------------------


def suite_field() -> Iterator[CheckResult]:
    fields = list(map(Field, range(1, MAX_DEGREE + 1)))  # GF(2^r) is fields[r - 1]
    built = sum(1 for r, f in enumerate(fields, 1) if f.q == 1 << r)
    yield _check("moduli-table-constructs-and-verifies", MAX_DEGREE, built)
    f4, f8 = fields[1], fields[2]
    yield _check("f4-generator-squared", 3, f4.mul(2, 2))
    yield _check("f8-generator-cubed", 3, f8.mul(f8.mul(2, 2), 2))
    yield _check("f4-inverse-of-generator", 3, f4.inv(2))
    yield _check("f4-trace-values", (1, 0), (f4.trace(2), f4.trace(1)))
    yield _check("f8-trace-of-one", 1, f8.trace(1))
    for f in fields[:8]:
        zeros = sum(1 for x in f.elements() if f.trace(x) == 0)
        yield _check(f"artin-schreier-half-trace-zero-r{f.r}", f.q // 2, zeros)
    for f in fields[:8]:
        ok = all(f.trace(f.mul(x, x)) == f.trace(x) for x in f.elements())
        yield _check(f"frobenius-trace-invariance-r{f.r}", True, ok)
    for f in fields[:6]:
        ok = all(f.mul(x, f.inv(x)) == 1 for x in f.units())
        yield _check(f"inverse-property-r{f.r}", True, ok)


def suite_kloosterman() -> Iterator[CheckResult]:
    from .classical import kloosterman_gl_bruteforce  # the one check here that builds matrices

    fields = list(map(Field, range(1, 11)))  # GF(2^r) is fields[r - 1]
    yield _check("k-value-q2", 1, kloosterman(fields[0], 1))
    yield _check("k-value-q4", 3, kloosterman(fields[1], 1))
    yield _check("k-value-q8", -5, kloosterman(fields[2], 1))
    yield _check("k-multiset-q8", [-5, -1, -1, -1, 3, 3, 3], sorted(ktable(fields[2]).values()))
    for f in fields:
        ok = all(k * k <= 4 * f.q for k in ktable(f).values())
        yield _check(f"weil-bound-r{f.r}", True, ok)
    for r, f in enumerate(fields[:8], 1):
        table = ktable(f)
        ok = all(
            table[f.pow(a, 1 << s)] == table[a] for s in (1, 2, 3) for a in f.units()
        )
        yield _check(f"frobenius-argument-invariance-r{r}", True, ok)
        theta = theta_character_sums(f)
        ok = all(theta[b] == table[b] - 1 for b in f.units())
        yield _check(f"artin-schreier-character-identity-r{r}", True, ok)
        twisted = twisted_sums(f)
        ok = all(twisted[b] == (f.q * f.lam(f.inv(b)) + 1 if b else 1) for b in f.elements())
        yield _check(f"twisted-sum-identity-r{r}", True, ok)
        ok = all(m.mk == m.t0k + m.t1k for m in (moments(f, h) for h in range(11)))
        yield _check(f"moment-partition-r{r}", True, ok)
    for t, r in ((2, 1), (2, 2), (3, 1)):
        f = fields[r - 1]
        brute = kloosterman_gl_bruteforce(f, t)
        ok = all(kloosterman_gl(f, t, a) == brute[a] for a in f.units())
        yield _check(f"gl-recursion-vs-bruteforce-t{t}-q{f.q}", True, ok)
    yield _check("gl-recursion-t2-q2-value", 6, kloosterman_gl(fields[0], 2, 1))


def suite_groups() -> Iterator[CheckResult]:
    from .classical import (
        alternating_count_bruteforce, coset_transversal, enumerate_double_coset, enumerate_group,
        enumerate_parabolic, iota, symplectic_by_form,
    )
    from .matfq import mat_trace, row_images

    f2, f4, f8, f16 = Field(1), Field(2), Field(3), Field(4)
    transversals = {}
    for n in (1, 2, 3):  # one P(n,2) per n serves both its count and a transversal
        data = coset_transversal(n, n - 1, f2, ORTHOGONAL)
        count, transversals[n] = len(data.parabolic), len(data.transversal)
        del data  # free P before the next, larger one is built
        yield _check(f"parabolic-count-n{n}-q2", parabolic_order(n, 2), count)
    for n in (1, 2):
        count = sum(1 for _ in enumerate_parabolic(n, f4, ORTHOGONAL))
        yield _check(f"parabolic-count-n{n}-q4", parabolic_order(n, 4), count)
    for n, size in transversals.items():
        yield _check(f"transversal-size-n{n}-r{n - 1}-q2", transversal_size(n, n - 1, 2), size)
    sp42 = symplectic_by_form(f2, 2)
    yield _check("sp42-bruteforce-order", 720, len(sp42))
    cells = [set(enumerate_double_coset(2, r, f2, SYMPLECTIC)) for r in range(3)]
    yield _check("sp42-cell-sizes", [48, 288, 384], [len(c) for c in cells])
    union = set().union(*cells)
    yield _check("sp42-bruhat-partition", True, union == sp42 and len(union) == 720)
    o52 = list(enumerate_group(2, f2, ORTHOGONAL))
    yield _check("o52-order", 720, len(set(o52)))
    ok = all(mat_trace(w) == mat_trace(iota(f2, w, 2)) ^ 1 for w in o52)
    yield _check("trace-shift-under-iota-o52", True, ok)
    p5 = list(enumerate_parabolic(2, f2, ORTHOGONAL))
    p4 = set(enumerate_parabolic(2, f2, SYMPLECTIC))
    image = [iota(f2, w, 2) for w in p5]
    yield _check("iota-bijection-p5-p4", True, set(image) == p4 and len(set(image)) == len(p5))
    known = dict(zip(p5, image))  # iota is pure; a product outside p5 still meets its guard
    rows5, rows4 = {u for v in p5 for u in v}, {u for iv in image for u in iv}
    ok = True
    for w, iw in zip(p5, image):  # v w and iota(v) iota(w) read from one map of distinct rows each
        right, iright = row_images(f2, rows5, w), row_images(f2, rows4, iw)
        products = [tuple(map(right.__getitem__, v)) for v in p5]
        if [known.get(vw) or iota(f2, vw, 2) for vw in products] != [
            tuple(map(iright.__getitem__, iv)) for iv in image
        ]:
            ok = False
            break
    yield _check("iota-multiplicative-p5", True, ok)
    for r in range(5):
        for f in (f2, f4):
            yield _check(
                f"alternating-count-r{r}-q{f.q}",
                alternating_count(r, f),
                alternating_count_bruteforce(r, f),
            )
    orders = group_order_data(2, f2)
    yield _check("gl2-order-q2", 6, orders.general_linear)
    yield _check("qbinom-3-1-q2", 7, q_binom(3, 1, 2))
    yield _check("bruhat-sum-n2-q2", 720, orders.group_order)
    for n, f in ((1, f2), (3, f2), (1, f4), (1, f8), (1, f16), (3, f4)):
        consts = cell_constants(n, f)
        yield _check(
            f"cell-size-three-ways-n{n}-q{f.q}",
            (consts.size, consts.size),
            (dc_order(n, f.q), cell_order(n, n - 1, f.q)),
        )


def _hist_expsum(field: Field, hist: dict[int, int], c: int) -> int:
    mul, lam = field.mul, field.lam
    return sum(count * lam(mul(c, beta)) for beta, count in hist.items())


def suite_expsum() -> Iterator[CheckResult]:
    f2, f4, f8, f16 = Field(1), Field(2), Field(3), Field(4)
    for n, f in ((1, f2), (1, f4), (2, f2), (2, f4), (1, f8), (1, f16)):
        for r in range(n + 1):
            hist = dc_trace_histogram(n, r, f, ORTHOGONAL)
            ok = all(
                expsum_closed(n, r, f, c) == _hist_expsum(f, hist, c) for c in f.units()
            )
            yield _check(f"expsum-closed-vs-enumerated-n{n}-r{r}-q{f.q}", True, ok)
            if r % 2 == 1:
                yield _check(
                    f"expsum-odd-cell-vanishes-n{n}-r{r}-q{f.q}",
                    0,
                    expsum_closed(n, r, f),
                )
    for n, f in ((1, f2), (1, f4), (1, f8), (1, f16), (3, f2)):
        ok = all(expsum_dc(n, f, c) == expsum_closed(n, n - 1, f, c) for c in f.units())
        yield _check(f"dc-sum-two-routes-n{n}-q{f.q}", True, ok)
    hist32 = dc_trace_histogram(3, 2, f2, ORTHOGONAL)
    yield _check("dc32-histogram", {0: 293888, 1: 308224}, hist32)
    yield _check("dc32-closed-histogram-matches", closed_histogram(3, f2, ORTHOGONAL), hist32)
    ok = all(expsum_dc(3, f2, c) == _hist_expsum(f2, hist32, c) for c in f2.units())
    yield _check("dc32-sum-vs-enumeration", True, ok)
    for n, f in ((1, f2), (1, f4), (1, f8)):
        hist = dc_trace_histogram(1, 0, f, SYMPLECTIC)
        yield _check(
            f"symplectic-cell-closed-vs-enumerated-n1-q{f.q}",
            closed_histogram(1, f, SYMPLECTIC),
            hist,
        )
    for n, f in ((1, f2), (1, f4), (1, f8), (3, f2)):
        size, hist = cell_constants(n, f).size, closed_histogram(n, f, ORTHOGONAL)
        ok = all(
            f.q * count
            == size + sum(f.lam(f.mul(a, beta)) * expsum_dc(n, f, a) for a in f.units())
            for beta, count in hist.items()
        )
        yield _check(f"orthogonality-inversion-n{n}-q{f.q}", True, ok)
    for n, f in ((3, f2), (3, f4), (5, f2)):
        ok = all(count > 0 for count in closed_histogram(n, f, ORTHOGONAL).values())
        yield _check(f"all-traces-hit-n{n}-q{f.q}", True, ok)
    for f in (f2, f4, f8, f16):
        for family in (ORTHOGONAL, SYMPLECTIC):
            hist = closed_histogram(1, f, family)  # checks totals and weighted sum
            yield _check(
                f"closed-histogram-total-{family}-q{f.q}",
                cell_constants(1, f).size,
                sum(hist.values()),
            )


def suite_codes() -> Iterator[CheckResult]:
    f2, f4, f8, f16 = Field(1), Field(2), Field(3), Field(4)
    yield _check(
        "dual-weights-multiset-1-8",
        [0, 8, 32, 32, 32, 40, 40, 40],
        sorted(w for _, w in dual_enumerate(1, f8)),
    )
    for n, f in ((1, f4), (1, f8), (1, f16), (3, f2)):
        hist = closed_histogram(n, f, ORTHOGONAL)
        pairs = dual_enumerate(n, f)
        ok = all(dual_weight_from_histogram(f, hist, a) == w for a, w in pairs)
        yield _check(f"dual-weight-closed-vs-histogram-n{n}-q{f.q}", True, ok)
    for n, f, expected in ((1, f2, {0}), (1, f4, {0, 1}), (1, f8, {0}), (1, f16, {0}), (3, f2, {0})):
        yield _check(f"dual-kernel-n{n}-q{f.q}", expected, dual_kernel(n, f))
    yield _check("distinct-duals-1-4", 2, distinct_dual_count(1, f4))
    yield _check("distinct-duals-1-8", 8, distinct_dual_count(1, f8))
    wd12 = code_bruteforce_wd(1, f2)
    yield _check("bruteforce-wd-1-2", {0: 1, 2: 1}, wd12)
    full12 = weight_prefix_closed(1, f2, 2)
    yield _check("closed-wd-1-2", [1, 0, 1], full12)
    wd14 = code_bruteforce_wd(1, f4)
    yield _check("bruteforce-codeword-count-1-4", 2048, sum(wd14.values()))
    closed14 = weight_prefix_closed(1, f4, 12)
    yield _check("closed-vs-bruteforce-wd-1-4", [wd14.get(j, 0) for j in range(13)], closed14)
    ok = all(wd14.get(j, 0) == wd14.get(12 - j, 0) for j in range(13))
    yield _check("weight-symmetry-1-4", True, ok)
    yield _check("delsarte-dual-set-1-2", True, delsarte_check(1, f2))
    yield _check("delsarte-dual-set-1-4", True, delsarte_check(1, f4))
    for n, f in ((1, f4), (1, f8), (1, f16)):
        hist = closed_histogram(n, f, ORTHOGONAL)
        yield _check(
            f"weight-prefix-dp-vs-character-sum-n{n}-q{f.q}",
            weight_prefix_dp(hist, 5),
            weight_prefix(f, hist, 5),
        )
    yield _check("weight-prefix-1-8-j2", [1, 0, 388], weight_prefix_closed(1, f8, 2))
    yield _check(
        "weight-prefix-symplectic-3-2-j1",
        [1, 308224],
        weight_prefix_closed(3, f2, 1, SYMPLECTIC),
    )


def suite_pless() -> Iterator[CheckResult]:
    f4, f8, f16 = Field(2), Field(3), Field(4)
    weights8 = [w for _, w in dual_enumerate(1, f8)]
    prefix8 = weight_prefix_closed(1, f8, 10)  # one prefix per cell; h <= 10 < N reads j <= h
    lhs, rhs = pless_check(56, 3, weights8, prefix8[:2], 1)
    yield _check("pless-1-8-h1-worked-value", (224, 224), (lhs, rhs))
    for h in range(1, 11):
        lhs, rhs = pless_check(56, 3, weights8, prefix8[: h + 1], h)
        yield _check(f"pless-1-8-h{h}", lhs, rhs)
    weights16 = [w for _, w in dual_enumerate(1, f16)]
    size16 = cell_constants(1, f16).size
    prefix16 = weight_prefix_closed(1, f16, 10)
    for h in range(1, 11):
        lhs, rhs = pless_check(size16, 4, weights16, prefix16[: h + 1], h)
        yield _check(f"pless-1-16-h{h}", lhs, rhs)
    # the one-codeword code {0}: dual is everything, prefix is plain binomials
    length = 6
    for h in range(1, 4):
        lhs, rhs = pless_check(length, 0, [0], [math.comb(length, j) for j in range(length + 1)], h)
        yield _check(f"pless-degenerate-h{h}", (0, 0), (lhs, rhs))
    wd14 = code_bruteforce_wd(1, f4)
    dual_weights_14 = [0, 4]  # two distinct dual codewords at (1,4)
    prefix14 = [wd14.get(j, 0) for j in range(13)]
    for h in range(1, 11):
        lhs, rhs = pless_check(12, 1, dual_weights_14, prefix14, h)
        yield _check(f"pless-1-4-h{h}", lhs, rhs)


def suite_thma() -> Iterator[CheckResult]:
    f2, f4, f8, f16 = Field(1), Field(2), Field(3), Field(4)
    grid = ((1, f8), (1, f16), (3, f2))
    for n, f in grid:
        for h in (1, 3, 5, 7):
            report = t1k_recursive(n, f, h, compare=True)
            yield _check(f"recursion-vs-direct-n{n}-q{f.q}-h{h}", report.direct, report.recursive)
    yield _check("recursion-spot-3-2-h1", 1, t1k_recursive(3, f2, 1).recursive)
    yield _check("recursion-spot-1-8-h1", 4, t1k_recursive(1, f8, 1).recursive)
    yield _check("recursion-spot-1-8-h3", -44, t1k_recursive(1, f8, 3).recursive)
    for n, f in grid:
        for h in range(1, 8):
            lhs, rhs = full_moment_identity(n, f, h)
            yield _check(f"full-moment-identity-n{n}-q{f.q}-h{h}", lhs, rhs)
        ok = all(mk_via_identity(n, f, h) == moments(f, h).mk for h in range(1, 6))
        yield _check(f"mk-solved-vs-direct-n{n}-q{f.q}", True, ok)
    try:
        t1k_recursive(1, f4, 1)
        outcome = "no error"
    except ValueError:
        outcome = "ValueError"
    yield _check("rejects-off-range-n1-q4", "ValueError", outcome)


SUITES = {
    "field": suite_field,
    "kloosterman": suite_kloosterman,
    "groups": suite_groups,
    "expsum": suite_expsum,
    "codes": suite_codes,
    "pless": suite_pless,
    "thma": suite_thma,
}
SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str) -> list[CheckResult]:
    """Run one suite, or every suite for "all", in order.

    A suite whose enumeration would exceed guards.DEFAULT_BUDGET ends with
    a failing `<suite>-enumeration-budget` entry after the checks it has
    yielded.  A suite that raises anything else ends the same way with a
    failing `<suite>-raised` entry carrying the exception, and its traceback
    goes to stderr.  Either way the next suite still runs.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    out: list[CheckResult] = []
    for suite in SUITES if name == "all" else [name]:
        try:
            for check in SUITES[suite]():
                out.append(check)
        except BudgetError as exc:
            out.append(_check(f"{suite}-enumeration-budget", "within budget", str(exc)))
        except Exception as exc:  # a broken identity must not hide later checks
            traceback.print_exc(file=sys.stderr)
            out.append(_check(f"{suite}-raised", "no exception", f"{type(exc).__name__}: {exc}"))
    return out
