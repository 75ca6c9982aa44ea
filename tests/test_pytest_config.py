"""The test configuration: a failing property must still report its example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIABLE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # On failure the hypothesis plugin imports modules that warn on
    # import; under the configuration's "error" filter such a warning
    # ended the session in INTERNALERROR before the example was printed.
    (tmp_path / "test_falsifiable.py").write_text(FALSIFIABLE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_falsifiable.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out
