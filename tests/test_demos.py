"""Every demo script (demos/<n>_*.py; other modules there are the demos'
helpers) runs to completion against the package sources and prints exactly
its committed output in tests/demo_outputs/<script stem>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9]*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_outputs"


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    expected = (EXPECTED / f"{script.stem}.txt").read_text(encoding="utf-8")
    assert result.stdout == expected
