"""The documented public surface: `__all__`, the README library example, the demos."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quartic_sos

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in quartic_sos.__all__ if not hasattr(quartic_sos, name)]
    assert missing == []
    assert len(set(quartic_sos.__all__)) == len(quartic_sos.__all__)


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["report"].solution_set.counts == (63, 15, 8)
    assert all(v.passed for v in scope["verdicts"])


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_module_entry_point_runs_without_a_runtime_warning():
    # the package imports `cli` lazily, so runpy does not find it imported
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "quartic_sos.cli",
                             "check", "x^4+y^4+z^4"], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "Warning" not in result.stderr
