"""Tests for the package surface: its exports and the README's library example."""

import re
from pathlib import Path

import qutrit_eur

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    assert len(qutrit_eur.__all__) == len(set(qutrit_eur.__all__))
    for name in qutrit_eur.__all__:
        assert hasattr(qutrit_eur, name), name


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})
    assert capsys.readouterr().out.startswith("EurSample(u_l=")
