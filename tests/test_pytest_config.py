"""The repository's pytest configuration turns warnings into errors; a
warning raised by pytest's own plugins while reporting a failure must not
end the session."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    # reporting a failing @given test imports hypothesis.extra._patching,
    # whose libcst import warns through mypy_extensions
    (tmp_path / "test_sample.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_sample.py"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
