"""Every demo script runs to completion, and the README quick start prints what it says.

Each script is copied into a temporary directory first, because some write
their pictures next to themselves.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    result = run_script(tmp_path, script)
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_prints_its_comments(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    comments = [line.split("  # ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    script = tmp_path / "quick_start.py"
    script.write_text(block, encoding="utf-8")
    result = run_script(tmp_path, script)
    assert result.returncode == 0, result.stderr
    printed = result.stdout.splitlines()
    assert len(printed) == len(comments) == 3
    for line, comment in zip(printed, comments):
        # the comment starts with the printed line, then ends or goes on after ":" or ","
        assert comment.startswith(line) and comment[len(line):][:1] in ("", ":", ","), (line, comment)
