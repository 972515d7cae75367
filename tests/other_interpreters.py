"""Run the tests on other Python interpreters without installing anything.

Usage::

    python3 tests/other_interpreters.py PYTHON [PYTHON ...]

The interpreter that runs this script lends its test dependencies: the
top-level modules of pytest and hypothesis in its site-packages are
symlinked into a temporary directory, which every child gets on its
``PYTHONPATH`` after ``src`` and ``tests``. An interpreter that can
import pytest from there runs the tier-1 suite with
``-p no:cacheprovider``. One that cannot (on 3.10, pytest also needs
``exceptiongroup`` and ``tomli``) runs the standard-library-only tests
as scripts. Children write no bytecode, so nothing lands in the lending
site-packages. Exits 1 if any run fails.
"""

import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# What pytest and hypothesis import, as glob patterns in site-packages.
LENT = (
    "pytest", "_pytest", "pluggy", "iniconfig", "packaging", "hypothesis",
    "_hypothesis_*.py", "attr", "attrs", "sortedcontainers", "pygments", "py.py",
    "typing_extensions.py",
)

TIER_1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")

# Tests that need only the standard library and run as scripts.
SCRIPTS = (
    "tests/test_xes_golden.py", "tests/test_tabular_timestamps.py", "tests/test_tabular_roundtrip.py",
    "tests/test_records.py", "tests/test_transform_runs.py", "tests/test_builder.py",
    "tests/test_mutations.py", "tests/test_writer_law.py", "tests/test_extension.py",
)


def lend_test_dependencies(into: Path) -> None:
    site = Path(sysconfig.get_paths()["purelib"])
    for pattern in LENT:
        found = sorted(site.glob(pattern))
        if not found:
            sys.exit(f"{pattern} not found in {site}")
        for path in found:
            (into / path.name).symlink_to(path)


def run_on(python: str, env: dict) -> bool:
    """Run the tests ``python`` can run; whether every run passed."""
    def call(*args, **kwargs):
        return subprocess.run([python, *args], cwd=REPO, env=env, **kwargs)

    version = call("-c", "import platform; print(platform.python_version())",
                   capture_output=True, text=True).stdout.strip()
    if call("-c", "import pytest", capture_output=True).returncode == 0:
        print(f"== Python {version}: tier-1", flush=True)
        return call(*TIER_1).returncode == 0
    passed = True
    for script in SCRIPTS:
        print(f"== Python {version} (no pytest): {script}", flush=True)
        passed &= call(script).returncode == 0
    return passed


def main(pythons: list) -> int:
    if not pythons:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as lent:
        lend_test_dependencies(Path(lent))
        path = os.pathsep.join(str(p) for p in (REPO / "src", REPO / "tests", lent))
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
        failed = [python for python in pythons if not run_on(python, env)]
    for python in failed:
        print(f"FAILED: {python}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
