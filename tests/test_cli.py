import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from kloosterman import classical, guards, verify
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
    # python -O strips every assert, so no exactness check may rest on one
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "kloosterman.cli", "verify", "all", "--json"],
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


def test_recursion_compare_match(capsys):
    code, report, _ = run_json(capsys, "recursion", "--n", "3", "--q", "2", "--h", "1", "--compare")
    assert code == 0
    assert report["results"]["t1k_recursive"] == "1"
    assert report["results"]["t1k_direct"] == "1"
    assert report["verdicts"]["match"] is True


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
