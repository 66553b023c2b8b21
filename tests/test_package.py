"""Tests for the package surface: its exports, the benchmark's imports, the README's library example, and unused imports."""

import ast
import importlib
import re
from pathlib import Path

import qutrit_eur

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = Path(qutrit_eur.__file__).resolve().parent


def test_every_export_resolves():
    assert len(qutrit_eur.__all__) == len(set(qutrit_eur.__all__))
    for name in qutrit_eur.__all__:
        assert hasattr(qutrit_eur, name), name


def test_benchmark_import_surface_resolves():
    # perfbench imports qutrit_eur.<layer> for every layer of its metrics.FUNCTIONS
    # on a traced run, and calls spin1_observable("x") and ("z") while setting up
    # each workload; the layer names are read from that file, not imported
    tree = ast.parse((ROOT / "perfbench" / "metrics.py").read_text(encoding="utf-8"))
    (functions,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets)
    ]
    layers = [ast.literal_eval(key) for key in functions.keys]
    assert layers
    for layer in layers:
        importlib.import_module(f"qutrit_eur.{layer}")
    assert "spin1_observable" in qutrit_eur.__all__
    for axis in ("x", "z"):
        assert qutrit_eur.spin1_observable(axis).eigenbasis.shape == (3, 3)


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


def src_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def used_names(trees):
    """(module, name) pairs a src module uses: read in its own module, imported from it, or read as an attribute."""
    used = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                used.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                used.update((other, node.attr) for other in trees)
    return used


def test_src_private_names_are_used():
    # a module-level _name counts as used where its own module reads it, where
    # another src module imports it from there, or where any src module reads
    # it as an attribute; tests do not count
    trees = src_trees()
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update({(module, name): node.lineno for name in targets
                            if name.startswith("_") and not name.startswith("__")})
    used = used_names(trees)
    unused = [f"{module}.py:{line} {name}" for (module, name), line in defined.items() if (module, name) not in used]
    assert not unused, f"private names that no src module uses: {unused}"


def test_src_public_names_are_used():
    # a public function or class counts as used where a src module uses it
    # (as for private names), where the package exports it through __all__,
    # or where README names it in backticks; tests do not count
    trees = src_trees()
    used = used_names(trees)
    exempt = set(qutrit_eur.__all__) | set(re.findall(r"`([A-Za-z_]\w*)", README.read_text(encoding="utf-8")))
    unused = [
        f"{module}.py:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and (module, node.name) not in used and node.name not in exempt
    ]
    assert not unused, f"public names that no src module uses, __all__ exports or README names: {unused}"
