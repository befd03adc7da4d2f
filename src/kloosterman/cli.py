"""Command-line frontend: verification suites, recursion reports, cell trace
histograms, and Kloosterman sum tables.

Every report takes one path.  A subcommand returns (parameters, results,
verdicts, ok); main alone times it, prints the report {command, parameters,
results, verdicts, wall_time_seconds} as text or --json, and exits 0 when ok,
1 on a mismatch or a failing check, 2 on a usage or range error.  `tables
--csv` prints its rows instead of a report.  Reports are deterministic for
fixed flags except the wall time; every integer is a decimal string, so large
exact values survive JSON.  A histogram is counted from the Levi factor's
trace pairs (dcsum), which enumerates no group.  Only the `kloosterman` and
`groups` suites of `verify` enumerate and load the matrix modules, within the
budget of verify.  Every subcommand accepts q <= 2^16.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .dcsum import closed_histogram, dc_trace_histogram
from .gf2r import Field
from .guards import FAMILIES, ORTHOGONAL, _check_int
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


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
        return
    print(f"command: {report['command']}")
    for key, value in report["parameters"].items():
        print(f"  {key} = {value}")
    for key, value in report["results"].items():
        if isinstance(value, dict):
            value = [f"{k}: {v}" for k, v in value.items()]
        if isinstance(value, list):
            print(f"{key}:")
            for item in value:
                if isinstance(item, dict):  # a verify check, on one line
                    item = "  ".join(f"{k}={v}" for k, v in item.items())
                print(f"  {item}")
        else:
            print(f"{key}: {value}")
    for key, value in report["verdicts"].items():
        print(f"verdict {key}: {value}")
    print(f"wall_time_seconds: {report['wall_time_seconds']}")


# ----------------------------------------------------------------------------
# subcommands: each returns (parameters, results, verdicts, ok), and main alone reports it


def cmd_verify(args) -> tuple:
    checks = run_suite(args.suite)
    failures = sum(1 for c in checks if not c.ok)
    rows = [
        {
            "name": c.name,
            "expected": c.expected,
            "actual": c.actual,
            "verdict": "pass" if c.ok else "fail",
        }
        for c in checks
    ]
    verdicts = {
        "checks_run": str(len(checks)),
        "failures": str(failures),
        "all_checks": "pass" if failures == 0 else "fail",
    }
    return {"suite": args.suite}, {"checks": rows}, verdicts, failures == 0


def cmd_recursion(args) -> tuple:
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
    parameters = {"n": str(args.n), "q": str(args.q), "h": str(args.h)}
    return parameters, results, verdicts, not args.compare or rep.match


def cmd_histogram(args) -> tuple:
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
    parameters = {"n": str(n), "r_coset": str(r), "q": str(field.q), "family": family}
    return parameters, results, verdicts, "mismatched_traces" not in verdicts


def cmd_tables(args) -> tuple | None:
    _check_int("--hmax", args.hmax)
    field = _make_field(args.q, args.modulus)
    table = ktable(field)
    moment_rows = [moments(field, h) for h in range(args.hmax + 1)]
    if args.csv:  # rows in place of a report
        k_rows = [f"{a},{field.trace(a)},{table[a]}" for a in field.units()]
        m_rows = [f"{h},{m.mk},{m.t0k},{m.t1k}" for h, m in enumerate(moment_rows)]
        print("a_bits,trace,k", *k_rows, "", "h,mk,t0k,t1k", *m_rows, sep="\n")
        return None
    results = {
        "modulus": str(field.modulus),
        "k_values": {str(a): str(table[a]) for a in field.units()},
        "moments": {
            str(h): {"mk": str(m.mk), "t0k": str(m.t0k), "t1k": str(m.t1k)}
            for h, m in enumerate(moment_rows)
        },
    }
    return {"q": str(args.q), "hmax": str(args.hmax)}, results, {}, True


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
    field_args = argparse.ArgumentParser(add_help=False)  # recursion, histogram and tables
    field_args.add_argument("--q", type=int, required=True)
    field_args.add_argument("--modulus", help="hex override for the field modulus")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_rec = sub.add_parser(
        "recursion", parents=[field_args], help="trace-one moment via the code recursion"
    )
    p_rec.add_argument("--n", type=int, required=True)
    p_rec.add_argument("--h", type=int, required=True)
    p_rec.add_argument("--compare", action="store_true", help="also compute the direct moment")
    p_rec.add_argument("--json", action="store_true")
    p_rec.set_defaults(func=cmd_recursion)

    p_hist = sub.add_parser(
        "histogram", parents=[field_args], help="trace histogram of a double coset"
    )
    p_hist.add_argument("--n", type=int, required=True)
    p_hist.add_argument("--r-coset", type=int, required=True, dest="r_coset")
    p_hist.add_argument("--family", choices=FAMILIES, default=ORTHOGONAL)
    p_hist.add_argument("--jmax", type=int, help="also emit the code weight prefix up to jmax")
    p_hist.add_argument("--json", action="store_true")
    p_hist.set_defaults(func=cmd_histogram)

    p_tab = sub.add_parser(
        "tables", parents=[field_args], help="Kloosterman values and split power moments"
    )
    p_tab.add_argument("--hmax", type=int, default=10)
    fmt = p_tab.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p_tab.set_defaults(func=cmd_tables)

    return parser


_parser = None  # built by main on its first call; parse_args leaves it unchanged


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # exact values print in full at any size: lift the interpreter's
    # int-to-decimal digit limit (0 is none, as before Python 3.10.7) for this
    # report, and restore it for callers in the same process
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    started = time.perf_counter()
    try:
        outcome = args.func(args)
        if outcome is None:  # tables --csv printed its rows
            return EXIT_PASS
        parameters, results, verdicts, ok = outcome
        report = {
            "command": args.command,
            "parameters": parameters,
            "results": results,
            "verdicts": verdicts,
            "wall_time_seconds": round(time.perf_counter() - started, 6),
        }
        _emit(report, args.json)
        return EXIT_PASS if ok else EXIT_FAIL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
