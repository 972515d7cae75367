"""The README's Python examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import uilog

README = Path(__file__).parent.parent / "README.md"


def test_the_python_blocks_of_the_readme_run_in_order(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(Path(uilog.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)], capture_output=True, text=True, env=env,
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
