"""Self-test of the benchmark. Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that the generators are byte-deterministic for a seed, that a
corrupted output drives the error rate above 0, that every workload and
metric named in BENCHMARK.json appears in the printed output, and that
the benchmark fails without printing a result where there is no uilog
source. Exits with 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def check_determinism(root: Path, scratch: Path) -> None:
    for name in gen.WORKLOADS:
        first = _files_of(root, scratch / f"{name}-a", name, 7)
        again = _files_of(root, scratch / f"{name}-b", name, 7)
        other = _files_of(root, scratch / f"{name}-c", name, 8)
        assert first == again, f"{name}: seed 7 gave different files on two runs"
        assert first != other, f"{name}: seeds 7 and 8 gave the same files"
    print("ok generators are byte-deterministic per seed")


def _files_of(root: Path, directory: Path, name: str, seed: int) -> dict:
    gen.generate(name, seed, directory, root / "src")
    return _files(directory)


def check_corruption(root: Path) -> None:
    bench = run.Bench(root, "selftest-corrupt", 3)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        workload = gen.generate("session_burst", 3, bench.work / "inputs", bench.src)

        def truncate(path: str) -> None:
            with open(path, "r+b") as handle:
                handle.truncate(handle.seek(0, 2) // 2)

        result = run.timed_run(bench, workload, 0.5, tamper=truncate)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    outcomes = result["outcomes"]
    assert outcomes.failed >= 1, "a truncated output was not detected"
    assert result["notes"]["error_rate"] > 0, "error_rate stayed 0"
    print(f"ok corrupted output detected: error_rate={result['notes']['error_rate']:.3f}")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_names(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in gen.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=root, capture_output=True, text=True, timeout=180,
            )
            assert proc.returncode == 0, proc.stderr
            result = _last_json(proc.stdout)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted, f"{name} trace={trace}: {sorted(set(got) ^ set(wanted))}"
            for metric in wanted:
                assert f"{name} {metric} " in proc.stdout, f"{name} {metric} not printed"
    print("ok every workload and metric of BENCHMARK.json is printed")


def check_bare_directory(root: Path, scratch: Path) -> None:
    bare = scratch / "bare"
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*spec["command"], "--workload", "erp_csv", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0, "benchmark succeeded without a uilog source"
    assert not proc.stdout.strip(), "benchmark printed a result without a uilog source"
    print("ok fails without printing a result where there is no uilog source")


def main() -> int:
    root = Path.cwd()
    scratch = root / run.WORK_DIR / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        check_determinism(root, scratch)
        check_corruption(root)
        check_bare_directory(root, scratch)
        check_names(root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
