import argparse
import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from kloosterman import classical, cli, guards, verify
from kloosterman.cli import main
from kloosterman.gf2r import Field
from kloosterman.guards import BudgetError
from kloosterman.verify import CheckResult

# checks each verify suite runs; `verify all` runs their sum, 256
SUITE_CHECKS = {
    "field": 28,
    "kloosterman": 50,
    "groups": 34,
    "expsum": 46,
    "codes": 24,
    "pless": 34,
    "thma": 40,
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


@pytest.mark.parametrize("suite", SUITE_CHECKS)
def test_verify_suite_passes(verify_suites, suite):
    checks = verify_suites[suite]
    assert [c.name for c in checks if not c.ok] == [], "failing checks"
    assert len(checks) == SUITE_CHECKS[suite]


def test_verify_all_passes_under_optimize():
    # python -O strips every assert, so no exactness check may rest on one; -W error fails on any warning
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-W", "error", "-m", "kloosterman.cli", "verify", "all", "--json"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    checks_run = str(sum(SUITE_CHECKS.values()))
    assert json.loads(proc.stdout)["verdicts"] == {
        "checks_run": checks_run, "failures": "0", "all_checks": "pass"
    }


def test_verify_report_and_exit_code(capsys, verify_suites):
    code, report, _ = run_json(capsys, "verify", "field")
    assert code == 0
    checks_run = str(SUITE_CHECKS["field"])
    assert report["verdicts"] == {"checks_run": checks_run, "failures": "0", "all_checks": "pass"}
    assert [c["name"] for c in report["results"]["checks"]] == [
        c.name for c in verify_suites["field"]
    ]


def test_verify_check_names_are_unique(verify_all):
    # the acceptance criteria and the --json report key checks by name
    names = Counter(check.name for check in verify_all)
    assert [name for name, count in names.items() if count > 1] == []


def test_verify_suite_that_raises_is_reported_and_run_goes_on(capsys, monkeypatch):
    def broken():
        yield CheckResult("first-check", "1", "1", True)
        raise ArithmeticError("broken identity")

    def later():
        return [CheckResult("later-check", "1", "1", True)]

    monkeypatch.setattr(verify, "SUITES", {"field": broken, "kloosterman": later})
    code, report, err = run_json(capsys, "verify", "all")
    assert code == 1
    assert report["results"]["checks"] == [
        {"name": "first-check", "expected": "1", "actual": "1", "verdict": "pass"},
        {
            "name": "field-raised",
            "expected": "no exception",
            "actual": "ArithmeticError: broken identity",
            "verdict": "fail",
        },
        {"name": "later-check", "expected": "1", "actual": "1", "verdict": "pass"},
    ]
    assert report["verdicts"]["failures"] == "1"
    assert "broken identity" in err  # the traceback
    code, report, _ = run_json(capsys, "verify", "field")
    assert code == 1
    assert [c["name"] for c in report["results"]["checks"]] == ["first-check", "field-raised"]


def test_verify_groups_bounds_the_sp42_search(capsys, monkeypatch):
    seen = []

    def search(field, n):
        seen.append((field.q, n))
        raise BudgetError("720 elements of Sp(4,2) exceed the enumeration budget")

    monkeypatch.setattr(classical, "symplectic_by_form", search)
    code, report, _ = run_json(capsys, "verify", "groups")
    assert code == 1 and seen == [(2, 2)]
    failed = [c["name"] for c in report["results"]["checks"] if c["verdict"] == "fail"]
    assert failed == ["groups-enumeration-budget"]


def test_iota_multiplicative_check_sees_one_wrong_entry(monkeypatch):
    # iota altered on one element v of P(2,2): v w and iota(v) iota(w) then
    # disagree for every w but the identity, so the check must fail
    true_iota, target = classical.iota, next(classical.enumerate_parabolic(2, Field(1)))

    def flipped(field, w, n):
        image = true_iota(field, w, n)
        if w != target:
            return image
        return ((image[0][0] ^ 1,) + image[0][1:],) + image[1:]

    monkeypatch.setattr(classical, "iota", flipped)
    checks = {c.name: c.ok for c in verify.run_suite("groups")}
    assert checks["iota-multiplicative-p5"] is False
    assert "cell-size-three-ways-n3-q4" in checks  # the suite still ran to the end


def test_verify_groups_small_budget_keeps_the_partial_report(capsys, monkeypatch):
    # |P(2,4)| = 11520 and the 4^6 alternating 4 x 4 matrices over GF(4) both exceed 1000
    monkeypatch.setattr(guards, "DEFAULT_BUDGET", 1000)
    code, report, _ = run_json(capsys, "verify", "groups")
    assert code == 1
    failed = [c["name"] for c in report["results"]["checks"] if c["verdict"] == "fail"]
    assert failed == ["groups-enumeration-budget"]


def test_verify_kloosterman_small_budget_keeps_the_partial_report(capsys, monkeypatch):
    # the brute-force GL(2,4) Kloosterman sum walks 4^4 = 256 > 100 matrices
    monkeypatch.setattr(guards, "DEFAULT_BUDGET", 100)
    code, report, _ = run_json(capsys, "verify", "kloosterman")
    assert code == 1
    checks = report["results"]["checks"]
    assert [c["verdict"] for c in checks] == ["pass"] * 47 + ["fail"]
    assert checks[-1]["name"] == "kloosterman-enumeration-budget"
    assert checks[0]["name"] == "k-value-q2"
    assert checks[-2]["name"] == "gl-recursion-vs-bruteforce-t2-q2"  # GL(2,2) is within budget


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "badname"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setattr(cli, "_parser", None)
    assert run_json(capsys, "verify", "field")[0] == 0
    assert built  # the first call builds the parser and its subparsers
    first = len(built)
    assert run_json(capsys, "verify", "codes")[0] == 0
    assert len(built) == first


def test_reused_parser_serves_each_later_call(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "badname"])
    assert exc.value.code == 2
    code, report, _ = run_json(capsys, "verify", "field")
    assert code == 0
    assert report["verdicts"]["checks_run"] == str(SUITE_CHECKS["field"])
    # the parser holds cmd_verify, which reads run_suite from the module at each call
    monkeypatch.setattr(cli, "run_suite", lambda suite: [CheckResult("patched", "1", "1", True)])
    code, report, _ = run_json(capsys, "verify", "field")
    assert code == 0
    assert [c["name"] for c in report["results"]["checks"]] == ["patched"]


def test_parse_args_leaves_the_parser_unchanged(capsys):
    argvs = [
        ["verify", "pless", "--json"],
        ["recursion", "--n", "1", "--q", "8", "--h", "3"],
        ["histogram", "--n", "1", "--q", "8", "--r-coset", "0", "--family", "symplectic"],
        ["tables", "--q", "4", "--csv"],
        ["tables", "--q", "4", "--hmax", "2", "--modulus", "7"],
    ]
    for argv in argvs:
        assert main(argv) == 0
    for argv in (["verify"], ["tables", "--csv", "--json", "--q", "4"]):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    fresh, used = cli.build_parser(), cli._parser
    assert used is not None and fresh is not used
    for argv in argvs:
        assert used.parse_args(argv) == fresh.parse_args(argv)
    assert used.format_help() == fresh.format_help()


def test_suite_names_are_the_suites_then_all():
    assert verify.SUITE_NAMES == (*verify.SUITES, "all")
    with pytest.raises(ValueError) as exc:
        verify.run_suite("badname")
    assert str(exc.value) == (
        "unknown suite 'badname'; choose from field, kloosterman, groups, expsum, codes, pless, "
        "thma, all"
    )


def test_recursion_compare_match(capsys):
    code, report, _ = run_json(capsys, "recursion", "--n", "3", "--q", "2", "--h", "1", "--compare")
    assert code == 0
    assert report["results"]["t1k_recursive"] == "1"
    assert report["results"]["t1k_direct"] == "1"
    assert report["verdicts"]["match"] is True


def test_recursion_mismatch_exits_1(capsys, monkeypatch):
    # CI reads the --compare verdict from the exit status alone
    true_recursive = cli.t1k_recursive

    def off_by_one(*args, **kwargs):
        rep = true_recursive(*args, **kwargs)
        return dataclasses.replace(rep, recursive=rep.recursive + 1, match=False)

    monkeypatch.setattr(cli, "t1k_recursive", off_by_one)
    argv = ("recursion", "--n", "1", "--q", "8", "--h", "3")
    code, report, _ = run_json(capsys, *argv, "--compare")
    assert (code, report["verdicts"]) == (1, {"match": False})
    assert report["results"]["t1k_recursive"] == "-43"
    assert run_json(capsys, *argv)[0] == 0  # no verdict without --compare


def test_recursion_negative_value(capsys):
    code, report, _ = run_json(capsys, "recursion", "--n", "1", "--q", "8", "--h", "3", "--compare")
    assert code == 0
    assert report["results"]["t1k_recursive"] == "-44"
    assert report["results"]["t1k_direct"] == "-44"


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_recursion_prints_every_digit_of_large_values(capsys, as_json):
    limit = sys.get_int_max_str_digits()
    argv = ["recursion", "--n", "7", "--q", "256", "--h", "25", "--compare"]
    code = main(argv + ["--json"] * as_json)
    out = capsys.readouterr().out
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    if as_json:
        report = json.loads(out)
        assert report["verdicts"]["match"] is True
        assert max(len(d) for d in report["results"]["d_values"]) > limit
    else:
        assert "verdict match: True" in out


def test_recursion_range_error(capsys):
    code, out, err = run(capsys, "recursion", "--n", "1", "--q", "4", "--h", "1")
    assert code == 2
    assert "q >= 8" in err


def test_recursion_modulus_override(capsys):
    code, report, _ = run_json(
        capsys, "recursion", "--n", "1", "--q", "16", "--h", "3", "--modulus", "0x19"
    )
    assert code == 0
    base_code, base_report, _ = run_json(capsys, "recursion", "--n", "1", "--q", "16", "--h", "3")
    assert base_code == 0
    assert report["results"]["t1k_recursive"] == base_report["results"]["t1k_recursive"]


def test_histogram_enumeration_with_verdict(capsys):
    code, report, _ = run_json(capsys, "histogram", "--n", "1", "--q", "8", "--r-coset", "0")
    assert code == 0
    hist = report["results"]["histogram"]
    assert len(hist) == 8
    assert sum(int(v) for v in hist.values()) == 56
    assert report["verdicts"]["closed_form_agreement"] == "match"


def test_histogram_large_cell_enumeration(capsys):
    code, report, _ = run_json(capsys, "histogram", "--n", "3", "--q", "2", "--r-coset", "2")
    assert code == 0
    assert report["results"]["histogram"] == {"0": "293888", "1": "308224"}
    assert report["verdicts"]["closed_form_agreement"] == "match"


def test_histogram_weight_prefix_emission(capsys):
    code, report, _ = run_json(
        capsys, "histogram", "--n", "1", "--q", "8", "--r-coset", "0", "--jmax", "2"
    )
    assert code == 0
    assert report["results"]["weight_prefix"] == ["1", "0", "388"]


def test_tables_csv_q8(capsys):
    code, out, _ = run(capsys, "tables", "--q", "8", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a_bits,trace,k"
    k_values = sorted(int(line.split(",")[2]) for line in lines[1:8])
    assert k_values == [-5, -1, -1, -1, 3, 3, 3]


def test_tables_csv_q2(capsys):
    code, out, _ = run(capsys, "tables", "--q", "2", "--csv")
    assert code == 0
    assert out.strip().splitlines()[1] == "1,1,1"


def test_tables_moments_q4(capsys):
    code, report, _ = run_json(capsys, "tables", "--q", "4", "--hmax", "2")
    assert code == 0
    assert report["results"]["moments"]["1"]["mk"] == "1"
    assert report["results"]["moments"]["2"]["mk"] == "11"


@pytest.mark.parametrize(
    "argv",
    [
        ("tables",),
        ("recursion", "--n", "1", "--h", "1"),
        ("histogram", "--n", "1", "--r-coset", "0"),
    ],
    ids=["tables", "recursion", "histogram"],
)
def test_every_subcommand_rejects_huge_field(capsys, argv):
    code, _, err = run(capsys, *argv, "--q", str(1 << 17))
    assert code == 2
    assert "limited to q <= 65536" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("tables", "--q", "8", "--hmax", "-1"), "need an int --hmax >= 0, got --hmax=-1"),
        (("histogram", "--n", "1", "--q", "2", "--r-coset", "2"), "need 0 <= r <= n"),
    ],
    ids=["negative-hmax", "r-coset-above-n"],
)
def test_range_errors_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_tables_largest_field(capsys):
    q = 1 << 16
    code, report, _ = run_json(capsys, "tables", "--q", str(q), "--hmax", "2")
    assert code == 0
    k_values = report["results"]["k_values"]
    assert list(k_values) == [str(a) for a in range(1, q)]
    assert report["results"]["moments"]["1"]["mk"] == "1"
    assert report["results"]["moments"]["2"]["mk"] == str(q * q - q - 1)


def test_q_must_be_power_of_two(capsys):
    code, _, err = run(capsys, "tables", "--q", "6")
    assert code == 2
    assert "power of two" in err


def test_reports_are_deterministic_up_to_wall_time(capsys):
    _, first, _ = run_json(capsys, "verify", "kloosterman")
    _, second, _ = run_json(capsys, "verify", "kloosterman")
    first.pop("wall_time_seconds")
    second.pop("wall_time_seconds")
    assert first == second


def run_text(capsys, *argv):
    """Exit status and text report of `kloosterman <argv>`, its wall-time line removed."""
    code, out, _ = run(capsys, *argv)
    *lines, wall = out.splitlines(keepends=True)
    assert wall.startswith("wall_time_seconds: ")
    return code, "".join(lines)


VERIFY_FIELD_TEXT = """\
command: verify
  suite = field
checks:
  name=moduli-table-constructs-and-verifies  expected=24  actual=24  verdict=pass
  name=f4-generator-squared  expected=3  actual=3  verdict=pass
  name=f8-generator-cubed  expected=3  actual=3  verdict=pass
  name=f4-inverse-of-generator  expected=3  actual=3  verdict=pass
  name=f4-trace-values  expected=(1, 0)  actual=(1, 0)  verdict=pass
  name=f8-trace-of-one  expected=1  actual=1  verdict=pass
  name=artin-schreier-half-trace-zero-r1  expected=1  actual=1  verdict=pass
  name=artin-schreier-half-trace-zero-r2  expected=2  actual=2  verdict=pass
  name=artin-schreier-half-trace-zero-r3  expected=4  actual=4  verdict=pass
  name=artin-schreier-half-trace-zero-r4  expected=8  actual=8  verdict=pass
  name=artin-schreier-half-trace-zero-r5  expected=16  actual=16  verdict=pass
  name=artin-schreier-half-trace-zero-r6  expected=32  actual=32  verdict=pass
  name=artin-schreier-half-trace-zero-r7  expected=64  actual=64  verdict=pass
  name=artin-schreier-half-trace-zero-r8  expected=128  actual=128  verdict=pass
  name=frobenius-trace-invariance-r1  expected=True  actual=True  verdict=pass
  name=frobenius-trace-invariance-r2  expected=True  actual=True  verdict=pass
  name=frobenius-trace-invariance-r3  expected=True  actual=True  verdict=pass
  name=frobenius-trace-invariance-r4  expected=True  actual=True  verdict=pass
  name=frobenius-trace-invariance-r5  expected=True  actual=True  verdict=pass
  name=frobenius-trace-invariance-r6  expected=True  actual=True  verdict=pass
  name=frobenius-trace-invariance-r7  expected=True  actual=True  verdict=pass
  name=frobenius-trace-invariance-r8  expected=True  actual=True  verdict=pass
  name=inverse-property-r1  expected=True  actual=True  verdict=pass
  name=inverse-property-r2  expected=True  actual=True  verdict=pass
  name=inverse-property-r3  expected=True  actual=True  verdict=pass
  name=inverse-property-r4  expected=True  actual=True  verdict=pass
  name=inverse-property-r5  expected=True  actual=True  verdict=pass
  name=inverse-property-r6  expected=True  actual=True  verdict=pass
verdict checks_run: 28
verdict failures: 0
verdict all_checks: pass
"""

HISTOGRAM_TEXT = """\
command: histogram
  n = 1
  r_coset = 0
  q = 8
  family = orthogonal
family: orthogonal
modulus: 11
histogram:
  0: 0
  1: 8
  2: 16
  3: 0
  4: 16
  5: 0
  6: 16
  7: 0
total: 56
weight_prefix:
  1
  0
  388
verdict closed_form_agreement: match
"""

TABLES_TEXT = """\
command: tables
  q = 4
  hmax = 2
modulus: 7
k_values:
  1: 3
  2: -1
  3: -1
moments:
  0: {'mk': '3', 't0k': '1', 't1k': '2'}
  1: {'mk': '1', 't0k': '3', 't1k': '-2'}
  2: {'mk': '11', 't0k': '9', 't1k': '2'}
"""

RECURSION_TEXT = """\
command: recursion
  n = 1
  q = 8
  h = 3
n: 1
q: 8
h: 3
modulus: 11
d_values:
  0
  -8
  0
  1160
t1k_recursive: -44
t1k_direct: -44
verdict match: True
"""


@pytest.mark.parametrize(
    "argv,text",
    [
        (("verify", "field"), VERIFY_FIELD_TEXT),
        (("histogram", "--n", "1", "--q", "8", "--r-coset", "0", "--jmax", "2"), HISTOGRAM_TEXT),
        (("tables", "--q", "4", "--hmax", "2"), TABLES_TEXT),
        (("recursion", "--n", "1", "--q", "8", "--h", "3", "--compare"), RECURSION_TEXT),
    ],
    ids=["verify", "histogram", "tables", "recursion"],
)
def test_text_reports_are_pinned(capsys, argv, text):
    assert run_text(capsys, *argv) == (0, text)


def test_histogram_mismatch_lists_the_traces(capsys, monkeypatch):
    true_closed = cli.closed_histogram

    def moved(n, field, family):  # one element of the cell moved from trace 2 to trace 1
        hist = dict(true_closed(n, field, family))
        hist[1] += 1
        hist[2] -= 1
        return hist

    monkeypatch.setattr(cli, "closed_histogram", moved)
    argv = ("histogram", "--n", "1", "--q", "8", "--r-coset", "0")
    code, report, _ = run_json(capsys, *argv)
    assert code == 1
    assert report["verdicts"] == {
        "closed_form_agreement": "mismatch", "mismatched_traces": ["1", "2"]
    }
    code, text = run_text(capsys, *argv)
    assert code == 1
    assert text.endswith(
        "verdict closed_form_agreement: mismatch\nverdict mismatched_traces: ['1', '2']\n"
    )
