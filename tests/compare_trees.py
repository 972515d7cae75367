"""Run every benchmark workload command under two source trees and diff them.

Usage::

    python3 tests/compare_trees.py PARENT_SRC CHANGE_SRC [--seed N]

Each argument is a ``src`` directory holding the ``uilog`` package, for
example that of a ``git archive`` of the parent commit and ``src`` of
the working tree. The inputs and command lists come from
``perfbench/gen.py`` for the given seed (default 1) and are generated
once. Each workload's command groups then run in order under one tree
and then the other, in the same output directory, so that paths agree.
Every difference in stdout, stderr, exit code or output file bytes is
printed. Exits 1 if any command differs. Standard library only; not a
pytest module.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import gen  # noqa: E402

CHILD_TIMEOUT_S = 300


def run_group(src: Path, group, out: Path) -> list:
    """(stdout, stderr, exit code, output bytes or None) per command."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        UILOG_NO_COLOR="1",
    )
    results = []
    for command in group.commands:
        proc = subprocess.run(
            [sys.executable, "-m", "uilog", *command.args(str(out))],
            capture_output=True, env=env, cwd=out, timeout=CHILD_TIMEOUT_S,
        )
        output = command.output_in(str(out))
        data = Path(output).read_bytes() if output and Path(output).is_file() else None
        results.append((proc.stdout, proc.stderr, proc.returncode, data))
    return results


def differences(parent: tuple, change: tuple) -> list:
    names = ("stdout", "stderr", "exit code", "output bytes")
    out = []
    for name, old, new in zip(names, parent, change):
        if old == new:
            continue
        if isinstance(old, bytes) and isinstance(new, bytes):
            at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                      min(len(old), len(new)))
            out.append(f"{name}: {len(old)} vs {len(new)} bytes, first difference at "
                       f"byte {at}: {old[at:at + 60]!r} vs {new[at:at + 60]!r}")
        else:
            out.append(f"{name}: {old!r} vs {new!r}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "uilog" / "cli.py").is_file():
            parser.error(f"{src} holds no uilog package")
    total = differing = 0
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as tmp:
        for name in gen.WORKLOADS:
            inputs = Path(tmp) / "in" / name
            workload = gen.generate(name, args.seed, inputs, args.parent_src.resolve())
            for group in workload.groups:
                out = Path(tmp) / "out" / name / group.label
                parent = run_group(args.parent_src.resolve(), group, out)
                change = run_group(args.change_src.resolve(), group, out)
                for command, old, new in zip(group.commands, parent, change):
                    total += 1
                    found = differences(old, new)
                    if found:
                        differing += 1
                        print(f"{name}/{group.label} {command.name}: differs")
                        for line in found:
                            print(f"  {line}")
    print(f"{total} commands, {total - differing} identical, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
