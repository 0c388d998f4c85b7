"""The repo's pytest settings survive a failing hypothesis test.

On a failure hypothesis's pytest plugin imports its patch writer, which pulls
in third-party modules that emit a DeprecationWarning at import; under
`error::DeprecationWarning` alone that became an INTERNALERROR that aborted
the whole session, so every later test went unrun.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_MODULE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(max_examples=5, database=None)
def test_fails(x):
    assert x != x


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_MODULE)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_sample.py"),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
