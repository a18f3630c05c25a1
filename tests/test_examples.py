"""Every example script and README's Quickstart runs to completion.

Each runs in a fresh interpreter with only ``src`` on the path, the way a
reader would run it, so a stale import in the documentation fails here
instead of in a reader's shell.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _quickstart() -> str:
    """The first ``python`` block under README's Quickstart heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Quickstart has no python block"
    return match.group(1)


def _run(args, cwd):
    # The suite may run under REPRO_WORKERS / REPRO_FAULTS / REPRO_STORE;
    # a reader's shell has none of them.
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(script, tmp_path):
    done = _run([str(script)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quickstart_runs(tmp_path):
    done = _run(["-c", _quickstart()], tmp_path)
    assert done.returncode == 0, done.stderr
