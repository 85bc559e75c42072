"""The per-test timeout holds without the pytest-timeout plugin."""

import os
import shutil
import subprocess
import sys
import textwrap
import time

import pytest

try:
    import pytest_timeout  # noqa: F401
    HAVE_PLUGIN = True
except ImportError:
    HAVE_PLUGIN = False


@pytest.mark.skipif(HAVE_PLUGIN, reason="pytest-timeout enforces it")
def test_hung_test_dumps_stacks_and_fails(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(__file__), "conftest.py"),
                tmp_path)
    (tmp_path / "test_hang.py").write_text(textwrap.dedent("""
        import time

        def test_sleeps():
            time.sleep(120)
    """))
    env = {k: v for k, v in os.environ.items() if k != "REPRO_LOCKWATCH"}
    started = time.monotonic()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", "timeout=2", "test_hang.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert time.monotonic() - started < 30
    assert run.returncode != 0
    assert "Timeout (0:00:02)!" in run.stderr
    assert "most recent call first" in run.stderr
    assert "test_hang.py" in run.stderr
