"""Command-line frontend: verification suites, recursion reports, cell trace
histograms, and Kloosterman sum tables.

Reports are deterministic for fixed flags except the wall-time field; every
integer is serialized as a decimal string so arbitrarily large exact values
survive the trip through JSON.  A histogram is counted from the Levi factor's
trace pairs, which enumerates no group, so only `verify` takes a `--budget`,
and only its `kloosterman` and `groups` suites (and `all`) are bounded by it.
Every subcommand accepts q <= 2^16.  Exit status: 0 all verdicts pass, 1
mismatch or a failing check, 2 usage or range error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .classical import DEFAULT_BUDGET, FAMILIES, ORTHOGONAL, dc_trace_histogram
from .dcsum import closed_histogram
from .gf2r import Field
from .ksum import ktable, moments
from .pmi import t1k_recursive
from .verify import SUITE_NAMES, run_suite
from .wcode import weight_prefix

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _make_field(q: int, modulus_hex: str | None) -> Field:
    r = q.bit_length() - 1
    if q < 2 or 1 << r != q:
        raise ValueError(f"q must be a power of two, got {q}")
    if q > 1 << 16:  # tables and histograms take O(q) memory and time
        raise ValueError(f"fields are limited to q <= {1 << 16}, got {q}")
    modulus = int(modulus_hex, 16) if modulus_hex else None
    return Field(r, modulus)


def _finish_report(report: dict, started: float) -> dict:
    report["wall_time_seconds"] = round(time.perf_counter() - started, 6)
    return report


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    print(f"command: {report['command']}")
    for key, value in report["parameters"].items():
        print(f"  {key} = {value}")
    for key, value in report["results"].items():
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        elif isinstance(value, list):
            print(f"{key}:")
            for item in value:
                if isinstance(item, dict):
                    print("  " + "  ".join(f"{k}={v}" for k, v in item.items()))
                else:
                    print(f"  {item}")
        else:
            print(f"{key}: {value}")
    for key, value in report.get("verdicts", {}).items():
        print(f"verdict {key}: {value}")
    print(f"wall_time_seconds: {report['wall_time_seconds']}")


# ----------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    started = time.perf_counter()
    if args.budget < 0:
        raise ValueError(f"--budget must be nonnegative, got {args.budget}")
    checks = run_suite(args.suite, args.budget)
    failures = sum(1 for c in checks if not c.ok)
    report = {
        "command": "verify",
        "parameters": {"suite": args.suite, "budget": str(args.budget)},
        "results": {
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "actual": c.actual,
                    "verdict": "pass" if c.ok else "fail",
                }
                for c in checks
            ]
        },
        "verdicts": {
            "checks_run": str(len(checks)),
            "failures": str(failures),
            "all_checks": "pass" if failures == 0 else "fail",
        },
    }
    _emit(_finish_report(report, started), args.json)
    return EXIT_PASS if failures == 0 else EXIT_FAIL


def cmd_recursion(args) -> int:
    started = time.perf_counter()
    field = _make_field(args.q, args.modulus)
    rep = t1k_recursive(args.n, field, args.h, compare=args.compare)
    results = {
        "n": str(rep.n),
        "q": str(rep.q),
        "h": str(rep.h),
        "modulus": str(field.modulus),
        "d_values": [str(d) for d in rep.d_values],
        "t1k_recursive": str(rep.recursive),
    }
    verdicts = {}
    if args.compare:
        results["t1k_direct"] = str(rep.direct)
        verdicts["match"] = bool(rep.match)
    report = {
        "command": "recursion",
        "parameters": {"n": str(args.n), "q": str(args.q), "h": str(args.h)},
        "results": results,
        "verdicts": verdicts,
    }
    _emit(_finish_report(report, started), args.json)
    if args.compare and not rep.match:
        return EXIT_FAIL
    return EXIT_PASS


def cmd_histogram(args) -> int:
    started = time.perf_counter()
    field = _make_field(args.q, args.modulus)
    n, r, family = args.n, args.r_coset, args.family
    hist = dc_trace_histogram(n, r, field, family)
    results = {
        "family": family,
        "modulus": str(field.modulus),
        "histogram": {str(beta): str(count) for beta, count in sorted(hist.items())},
        "total": str(sum(hist.values())),
    }
    if args.jmax is not None:
        results["weight_prefix"] = [str(c) for c in weight_prefix(field, hist, args.jmax)]
    verdicts = {}
    if n % 2 == 1 and r == n - 1:  # the distinguished cell has a closed form
        closed = closed_histogram(n, field, family)
        mismatches = [beta for beta in field.elements() if closed[beta] != hist.get(beta, 0)]
        verdicts["closed_form_agreement"] = "match" if not mismatches else "mismatch"
        if mismatches:
            verdicts["mismatched_traces"] = [str(b) for b in mismatches]
    report = {
        "command": "histogram",
        "parameters": {
            "n": str(n),
            "r_coset": str(r),
            "q": str(field.q),
            "family": family,
        },
        "results": results,
        "verdicts": verdicts,
    }
    _emit(_finish_report(report, started), args.json)
    if verdicts.get("closed_form_agreement") == "mismatch":
        return EXIT_FAIL
    return EXIT_PASS


def cmd_tables(args) -> int:
    started = time.perf_counter()
    if args.hmax < 0:
        raise ValueError(f"--hmax must be nonnegative, got {args.hmax}")
    field = _make_field(args.q, args.modulus)
    table = ktable(field)
    moment_rows = [moments(field, h) for h in range(args.hmax + 1)]
    if args.csv:
        print("a_bits,trace,k")
        for a in field.units():
            print(f"{a},{field.trace(a)},{table[a]}")
        print()
        print("h,mk,t0k,t1k")
        for h, m in enumerate(moment_rows):
            print(f"{h},{m.mk},{m.t0k},{m.t1k}")
        return EXIT_PASS
    report = {
        "command": "tables",
        "parameters": {"q": str(args.q), "hmax": str(args.hmax)},
        "results": {
            "modulus": str(field.modulus),
            "k_values": {str(a): str(table[a]) for a in field.units()},
            "moments": {
                str(h): {"mk": str(m.mk), "t0k": str(m.t0k), "t1k": str(m.t1k)}
                for h, m in enumerate(moment_rows)
            },
        },
        "verdicts": {},
    }
    _emit(_finish_report(report, started), args.json)
    return EXIT_PASS


# ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kloosterman",
        description=(
            "Exact double-coset enumeration, Kloosterman sums, the binary codes "
            "they define, and trace-one power moment recursions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="cap on each set "
                          "the kloosterman and groups suites (and all) enumerate; others ignore it")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_rec = sub.add_parser("recursion", help="trace-one moment via the code recursion")
    p_rec.add_argument("--n", type=int, required=True)
    p_rec.add_argument("--q", type=int, required=True)
    p_rec.add_argument("--h", type=int, required=True)
    p_rec.add_argument("--compare", action="store_true", help="also compute the direct moment")
    p_rec.add_argument("--modulus", help="hex override for the field modulus")
    p_rec.add_argument("--json", action="store_true")
    p_rec.set_defaults(func=cmd_recursion)

    p_hist = sub.add_parser("histogram", help="trace histogram of a double coset")
    p_hist.add_argument("--n", type=int, required=True)
    p_hist.add_argument("--q", type=int, required=True)
    p_hist.add_argument("--r-coset", type=int, required=True, dest="r_coset")
    p_hist.add_argument("--family", choices=FAMILIES, default=ORTHOGONAL)
    p_hist.add_argument("--jmax", type=int, help="also emit the code weight prefix up to jmax")
    p_hist.add_argument("--modulus", help="hex override for the field modulus")
    p_hist.add_argument("--json", action="store_true")
    p_hist.set_defaults(func=cmd_histogram)

    p_tab = sub.add_parser("tables", help="Kloosterman values and split power moments")
    p_tab.add_argument("--q", type=int, required=True)
    p_tab.add_argument("--hmax", type=int, default=10)
    fmt = p_tab.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p_tab.add_argument("--modulus", help="hex override for the field modulus")
    p_tab.set_defaults(func=cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
