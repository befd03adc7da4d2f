import ast
import importlib.util
from pathlib import Path

import kloosterman
from kloosterman import guards

PACKAGE = Path(kloosterman.__file__).resolve().parent
# the guards, the budget and the family names, and the guard helpers they replaced
OWNED = {
    "ORTHOGONAL", "SYMPLECTIC", "FAMILIES", "DEFAULT_BUDGET", "BudgetError", "_show",
    "_check_budget", "_exact", "_check_family", "_check_int", "_check_cell", "_check_odd",
    "_check_rank", "_require_units",
}


def test_guards_runs_outside_the_package():
    # loaded by path, the module has no parent package, so a relative import would fail
    spec = importlib.util.spec_from_file_location("guards_alone", PACKAGE / "guards.py")
    alone = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(alone)
    assert alone.DEFAULT_BUDGET == guards.DEFAULT_BUDGET
    assert alone.FAMILIES == guards.FAMILIES
    for node in ast.walk(ast.parse((PACKAGE / "guards.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("kloosterman")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("kloosterman") for alias in node.names)


def test_no_other_module_defines_a_guard():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "guards.py":
            continue
        defined = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        assert not defined & OWNED, path.name
