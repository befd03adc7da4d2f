"""Tests of the benchmark itself; they run small ops, not the workloads.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import run_pass  # noqa: E402

from kloosterman.classical import ORTHOGONAL, SYMPLECTIC, cell_order, transversal_size  # noqa: E402
from kloosterman.gf2r import Field  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUPS = [{"setup_s": 0.1, "setup_gauge_s": 0.003}]


def small_ops() -> list:
    """One cheap op per workload kind, with fresh fields."""
    f2, f8 = Field(1), Field(3)
    return [
        workloads.cells_op(ORTHOGONAL, 2, f2, 1),
        workloads.cells_op(SYMPLECTIC, 1, f2, 0),
        workloads.tables_op(5, 0x29, 3, 7),
        workloads.recursion_op(1, f8, 3),
        workloads.gate_op("field"),
    ]


def traced_pass() -> dict:
    return run_pass(small_ops(), Tracer(True))


def test_seed_determines_inputs():
    for name in workloads.NAMES:
        labels = [op.label for op in workloads.build(name, 7)]
        assert labels == [op.label for op in workloads.build(name, 7)]
    assert [op.label for op in workloads.build("tables", 7)] != [
        op.label for op in workloads.build("tables", 8)
    ]
    cells = [op.label for op in workloads.build("cells", 7)]
    assert cells != [op.label for op in workloads.build("cells", 8)]
    assert sorted(cells) == sorted(op.label for op in workloads.build("cells", 8))


def test_tables_moduli_distinct_irreducible_with_a_non_primitive():
    for seed in range(5):
        moduli = [int(op.label.split("modulus=")[1], 16) for op in workloads.build("tables", seed)]
        assert len(set(moduli)) == len(moduli) == 8
        assert all(m in workloads.irreducibles(m.bit_length() - 1) for m in moduli)
        assert not all(workloads.is_primitive(m) for m in moduli)


def test_independent_field_arithmetic():
    assert len(workloads.irreducibles(4)) == 3 and len(workloads.irreducibles(9)) == 56
    assert workloads.is_primitive(0x13) and not workloads.is_primitive(0x1F)
    field = Field(4, 0x19)
    for a in range(16):
        assert workloads.abs_trace(a, 0x19) == field.trace(a)
        for b in range(16):
            assert workloads.mulmod(a, b, 0x19) == field.mul(a, b)


def test_small_ops_pass_their_oracles_and_exact_counts_repeat():
    first, second = traced_pass(), traced_pass()
    assert (first["attempted"], first["failed"]) == (5, 0)
    counts = [
        {name: run.layer_metrics(p, 0.0)[name] for name in run.SPAN_COUNTS}
        for p in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["classical.elements"] == (cell_order(2, 1, 2) + cell_order(1, 0, 2), "count")
    assert counts[0]["classical.cosets"] == (transversal_size(2, 1, 2) + transversal_size(1, 0, 2), "count")
    assert counts[0]["verify.checks"] == (28, "count")
    assert counts[0]["ksum.pairs"] == (31 * 31, "count")


def test_failing_oracle_and_raising_op_are_counted():
    good = workloads.cells_op(ORTHOGONAL, 1, Field(1), 0)
    bad_oracle = workloads.Op("bad oracle", good.run, lambda out: False)
    raising = workloads.Op("raising", lambda tr: 1 // 0, lambda out: True)
    result = run_pass([good, bad_oracle, raising, good], Tracer(False))
    assert (result["attempted"], result["failed"]) == (4, 2)
    summary = run.summarize(SETUPS, [[result | {"peak_rss_mb": 20.0}]], traced=False)
    assert summary["correct"] is False
    assert summary["failed"] / summary["attempted"] == 0.5


def test_every_named_metric_is_emitted():
    untraced = run_pass(small_ops(), Tracer(False)) | {"peak_rss_mb": 20.0}
    plain = run.summarize(SETUPS, [[untraced]], traced=False)
    assert list(plain) == ["correct", "attempted", "failed", "metrics"]
    assert {name: m["unit"] for name, m in plain["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    traced = run.summarize(SETUPS, [[untraced, traced_pass()]], traced=True)
    assert {name: m["unit"] for name, m in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    for name in ("classical.histogram_s", "ksum.ktable_s", "pmi.t1k_s", "wcode.prefix_s", "verify.field_s"):
        assert values[name] > 0


def test_refuses_to_run_without_the_library():
    """A directory holding only BENCHMARK.json and perfbench/ gives no result."""
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        cmd = [sys.executable, "perfbench/run.py", "--workload", "cells", "--seed", "1", "--seconds", "1"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spec_lists_every_workload():
    # run.py keeps its own copy so the parent process never imports the library
    assert list(run.WORKLOADS) == list(workloads.NAMES) == [w["name"] for w in SPEC["workloads"]]
