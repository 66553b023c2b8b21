"""Tests for the package surface: its exports, the README's library example, and unused imports."""

import ast
import re
from pathlib import Path

import qutrit_eur

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(qutrit_eur.__file__).resolve().parent


def test_every_export_resolves():
    assert len(qutrit_eur.__all__) == len(set(qutrit_eur.__all__))
    for name in qutrit_eur.__all__:
        assert hasattr(qutrit_eur, name), name


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    assert capsys.readouterr().out.startswith("EurSample(u_l=")


def test_src_imports_are_used():
    # a name counts as used where the module reads it, or exports it through __all__
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({(a.asname or a.name): node.lineno for a in node.names})
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            elt.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read | exported]
    assert not unused, f"imported but never used: {unused}"
