"""The repository's pytest configuration keeps a whole run alive."""
import subprocess
import sys
import textwrap
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(textwrap.dedent(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x != x

        def test_passes():
            pass
        """
    ))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
