"""Every test node the README cites exists, so a renamed or deleted test fails
the suite instead of leaving a claim that nothing checks."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# tests/<module>.py::<class or function>[::<method>], the form of a pytest node id
NODE = re.compile(r"\btests/([\w/]+\.py)((?:::\w+)+)")


def resolves(module: Path, names: list[str]) -> bool:
    """Whether ``names`` lead from ``module``'s top level through test classes to a
    test class or test function."""
    if not module.is_file():
        return False
    scope = ast.parse(module.read_text(encoding="utf-8")).body
    for depth, name in enumerate(names, start=1):
        kinds = (ast.ClassDef,) if depth < len(names) else (ast.ClassDef, ast.FunctionDef)
        node = next((n for n in scope if isinstance(n, kinds) and n.name == name), None)
        if node is None or not name.startswith("Test" if isinstance(node, ast.ClassDef) else "test_"):
            return False
        scope = node.body
    return True


def test_every_test_node_the_readme_cites_exists():
    cited = NODE.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert cited, "the README cites no test node"
    missing = [f"tests/{module}{names}" for module, names in cited if not resolves(ROOT / "tests" / module, names.split("::")[1:])]
    assert missing == []
