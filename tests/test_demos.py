import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", sorted((ROOT / "perfbench").glob("*.py")), ids=lambda p: p.stem)
def test_benchmark_imports_resolve(script):
    # pytest does not collect perfbench/, so the library names it imports are checked here:
    # its `from kloosterman... import ...` statements run alone, and a missing name raises
    imports = [
        node
        for node in ast.walk(ast.parse(script.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kloosterman"
    ]
    exec(compile(ast.Module(imports, type_ignores=[]), str(script), "exec"), {})
