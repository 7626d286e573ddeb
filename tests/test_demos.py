import subprocess
import sys
from pathlib import Path

import pytest

import kgenus

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_to_completion(demo):
    src = str(Path(kgenus.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            env={"PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0, result.stderr
