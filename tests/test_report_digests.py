"""The canonical CLI reports, pinned by digest.

`verify all --json` and `recursion --compare --json` at every odd h <= 25 on
five cell sizes must print the same bytes, apart from wall time, as when
report_digests.json was written.  A change that is meant to alter a report
regenerates the file with `python tests/test_report_digests.py` and says so.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from kloosterman import cli

DIGESTS = Path(__file__).with_name("report_digests.json")
SIZES = [(1, 64), (3, 16), (7, 64), (15, 256), (1, 65536)]
RECURSIONS = [
    ("recursion", "--n", str(n), "--q", str(q), "--h", str(h), "--compare", "--json")
    for n, q in SIZES
    for h in range(1, 26, 2)
]
VERIFY_ALL = ("verify", "all", "--json")


def _digest(argv) -> str:
    """sha256 of the report that `kloosterman <argv>` prints, wall time removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != cli.EXIT_PASS:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    report = json.loads(out.getvalue())
    del report["wall_time_seconds"]
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()


def _all_digests() -> dict[str, str]:
    return {" ".join(argv): _digest(argv) for argv in (VERIFY_ALL, *RECURSIONS)}


def test_verify_all_report_is_pinned(monkeypatch, verify_all):
    # the checks of the session-scoped verify_all fixture, formatted by the CLI; not run again
    monkeypatch.setattr(cli, "run_suite", lambda suite: verify_all)
    assert _digest(VERIFY_ALL) == json.loads(DIGESTS.read_text())[" ".join(VERIFY_ALL)]


def test_recursion_reports_are_pinned():
    pinned = json.loads(DIGESTS.read_text())
    changed = [key for key in map(" ".join, RECURSIONS) if _digest(key.split()) != pinned[key]]
    assert changed == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_all_digests(), indent=1) + "\n")
