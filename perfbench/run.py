"""Benchmark of the uilog batch CLI.

Run from the root of a checkout::

    python3 perfbench/run.py --workload erp_csv --seed 1 --seconds 30 --trace 0

``--workload all`` (the default) runs every workload in turn. With
``--trace 0`` a closed loop runs the workload's commands as child
processes (``python -m uilog ...``), one at a time, for ``--seconds``
seconds and reports the end-to-end metrics, with every child's time
scaled by reference children run between the commands, which take out
the drift of a shared machine's speed. With ``--trace 1`` the same
commands also run in this process through ``uilog.cli.main`` with the
package's public entry points wrapped in spans, which gives the
per-layer metrics. Every output is checked; the last line of standard
output is one JSON object with the result. See README.md for the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402

WORK_DIR = ".perfbench_work"
CHILD_TIMEOUT_S = 120
MIN_SETUP_SAMPLES = 9
SETUP_EVERY_S = 1.0
REFERENCE_EVERY_S = 0.5
TAIL_BEYOND = 10
# Wall time of a reference.py child on the machine the command and set-up
# times are scaled to, a 2-vCPU Intel Xeon VM running CPython 3.11.7
# (README.md, "Machine speed"). A child is scaled by the reference
# children that ran within PAIR_WINDOW_S seconds of it.
REFERENCE_S = 0.150
PAIR_WINDOW_S = 2.0

END_TO_END = {
    "events_per_s": "1/s",
    "cmd_latency_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Bench:
    """Paths of one run and the pinned environment of its children."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.src = root / "src"
        self.work = root / WORK_DIR / f"{workload}-s{seed}-p{os.getpid()}"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(self.src),
            PYTHONHASHSEED="0",
            UILOG_NO_COLOR="1",
        )
        self.python = sys.executable

    def spawn(self, argv: list, stdout: Path, stderr: Path) -> tuple:
        """Run one child to completion: (wall s, peak RSS MB, exit code).

        The child's own rusage comes from wait4, so its peak RSS is not
        mixed with other children's.
        """
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [self.python, *argv], stdout=out, stderr=err, env=self.env, cwd=self.root
            )
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def setup_child(self) -> tuple:
        """(midpoint, wall time) of a child that loads no input:
        interpreter start, ``import uilog`` and argparse."""
        out = self.work / "extension.xml"
        wall, _, code = self.spawn(
            ["-m", "uilog", "extension", "-o", str(out)],
            self.work / "setup.out", self.work / "setup.err",
        )
        if code != 0:
            raise RuntimeError(f"setup child exited with {code}")
        return time.perf_counter() - wall / 2, wall

    def reference_child(self) -> tuple:
        """(midpoint, wall time) of a child that runs a fixed standard
        library task and never imports uilog: a sample of how fast the
        machine runs Python right now."""
        wall, _, code = self.spawn(
            [str(Path(__file__).resolve().parent / "reference.py")],
            self.work / "ref.out", self.work / "ref.err",
        )
        if code != 0:
            raise RuntimeError(f"reference child exited with {code}")
        return time.perf_counter() - wall / 2, wall


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(root),
        "platform": platform.platform(),
    }


def run_command(bench: Bench, command: gen.Command, out_dir: Path, tag: str) -> dict:
    """Run one command as a child; its timing, exit code and stdout."""
    argv = ["-m", "uilog", *command.args(str(out_dir))]
    stdout = bench.work / f"{tag}.out"
    wall, rss, code = bench.spawn(argv, stdout, bench.work / f"{tag}.err")
    return {"wall": wall, "rss": rss, "exit": code, "stdout": stdout.read_bytes()}


def output_digest(stdout: bytes, output: str | None) -> str:
    """sha256 of a command's stdout and output file; OSError if the file
    is missing."""
    hashed = hashlib.sha256(stdout)
    if output is not None:
        hashed.update(Path(output).read_bytes())
    return hashed.hexdigest()


def verify(command: gen.Command, out_dir: Path, record: dict, tamper=None) -> tuple:
    """(problem or None, named counts, digest of the outputs)."""
    output = command.output_in(str(out_dir))
    if tamper is not None and output is not None:
        tamper(output)
    if record["exit"] != 0:
        return f"exit code {record['exit']}", {}, None
    problem, counts = checks.check(command.check, output, record["stdout"])
    try:
        return problem, counts, output_digest(record["stdout"], output)
    except OSError as exc:
        return f"missing output: {exc}", counts, None


class Outcomes:
    """Attempted and failed commands, failure details and named counts."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.counts = {}
        self.digests = {}

    def record(self, key, problem, counts, digest, label):
        self.attempted += 1
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value
        if problem is None and digest is not None:
            previous = self.digests.setdefault(key, digest)
            if previous != digest:
                problem = "output differs from an earlier run of the same command"
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def tail(values: list) -> tuple:
    """(value, percentile, samples beyond): the highest percentile that
    still has TAIL_BEYOND samples above it (the maximum when there are
    too few samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def scaled(samples: list, references: list) -> list:
    """Each (midpoint, wall) sample's wall time at the reference speed.

    A sample is scaled by the median of the reference children within
    PAIR_WINDOW_S of it (the nearest one if none is that close). The
    machine this runs on is shared: its speed drifts by a third and more
    over a few seconds, and the drift slows uilog and the reference task
    alike, so the ratio of the two is steadier than either.
    """
    out = []
    for at, wall in samples:
        near = [ref for t, ref in references if abs(t - at) <= PAIR_WINDOW_S]
        if not near:
            near = [min(references, key=lambda r: abs(r[0] - at))[1]]
        out.append(wall * REFERENCE_S / statistics.median(near))
    return out


def xes_bytes_per_event(group: gen.Group, out_dir: Path) -> float:
    """XES bytes per event over the XES files the first group reads or writes."""
    size = events = 0
    for command in group.commands:
        args = command.args(str(out_dir))
        for path in (args[args.index("-i") + 1], command.output_in(str(out_dir))):
            if path is not None and path.endswith(".xes") and os.path.exists(path):
                size += os.path.getsize(path)
                events += command.events_in
    return size / events if events else 0.0


def timed_run(bench: Bench, workload: gen.Workload, seconds: float, tamper=None) -> dict:
    """Closed loop, one child at a time, over the workload's groups."""
    out_dir = bench.work / "cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    outcomes = Outcomes()
    samples, kinds, rss, events = [], [], [], 0
    setup, references = [], []

    # Warm-up: fills the bytecode and file caches; its outputs are the
    # reference the timed repetitions must reproduce byte for byte.
    bench.setup_child()
    first = workload.groups[0]
    for index, command in enumerate(first.commands):
        record = run_command(bench, command, out_dir, "cmd")
        problem, _, digest = verify(command, out_dir, record)
        outcomes.record((first.label, index), problem, {}, digest,
                        f"warm-up {first.label} {command.name}")
    properties = dict(workload.properties)
    properties["xes_bytes_per_event"] = xes_bytes_per_event(first, out_dir)

    # Set-up and reference children are spread evenly over the run, so
    # that a slow spell of the machine does not hit all of them at once
    # and every command has references from the seconds around it.
    references.append(bench.reference_child())
    start = last_setup = last_reference = time.perf_counter()
    position = 0
    while position == 0 or time.perf_counter() - start < seconds:
        group = workload.groups[position % len(workload.groups)]
        for index, command in enumerate(group.commands):
            record = run_command(bench, command, out_dir, "cmd")
            samples.append((time.perf_counter() - record["wall"] / 2, record["wall"]))
            kinds.append(command.name)
            rss.append(record["rss"])
            events += command.events_in
            problem, counts, digest = verify(command, out_dir, record, tamper)
            tamper = None
            outcomes.record((group.label, index), problem, counts, digest,
                            f"{group.label} {command.name}")
            if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
                references.append(bench.reference_child())
                last_reference = time.perf_counter()
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                setup.append(bench.setup_child())
                last_setup = time.perf_counter()
        position += 1
    references.append(bench.reference_child())
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(bench.setup_child())

    walls = [wall for _, wall in samples]
    latencies = scaled(samples, references)
    # The median of each command kind, averaged over the kinds: a pooled
    # median would sit in the gap between a fast and a slow kind, where
    # a few samples move it far.
    by_kind, raw_by_kind = {}, {}
    for kind, latency, wall in zip(kinds, latencies, walls):
        by_kind.setdefault(kind, []).append(latency)
        raw_by_kind.setdefault(kind, []).append(wall)
    p50 = statistics.fmean(statistics.median(values) for values in by_kind.values())
    tail_value, tail_pct, beyond = tail(latencies)
    reference_walls = [wall for _, wall in references]
    return {
        "metrics": {
            "events_per_s": events / sum(latencies),
            "cmd_latency_p50_s": p50,
            "peak_rss_mb": max(rss),
            "setup_s": statistics.median(scaled(setup, references)),
        },
        "notes": {
            "commands": len(walls),
            "groups": position,
            "reference_s": f"median {statistics.median(reference_walls):.6g}, "
                           f"min {min(reference_walls):.6g}, max {max(reference_walls):.6g} "
                           f"of n={len(reference_walls)}; scaled to {REFERENCE_S}",
            "unscaled_events_per_s": events / sum(walls),
            "unscaled_setup_s": statistics.median(wall for _, wall in setup),
            "unscaled_cmd_latency_p50_by_kind_s": " ".join(
                f"{kind}={statistics.median(values):.6g}"
                for kind, values in raw_by_kind.items()),
            "cmd_latency_tail_s": f"{tail_value:.6g} s (p{tail_pct:.1f} of n={len(walls)}, "
                                  f"{beyond} samples beyond)",
            "setup_samples": len(setup),
            "error_rate": outcomes.failed / outcomes.attempted,
        },
        "properties": properties,
        "outcomes": outcomes,
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(root, name, seed)
    if bench.work.exists():
        shutil.rmtree(bench.work)
    try:
        workload = gen.generate(name, seed, bench.work / "inputs", bench.src)
        load_start = os.getloadavg()
        if trace:
            import traced

            result = traced.traced_run(bench, workload, seconds)
            units = traced.PER_LAYER
        else:
            result = timed_run(bench, workload, seconds)
            units = END_TO_END
        load_end = os.getloadavg()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    outcomes = result["outcomes"]
    mode = "traced" if trace else "timed"
    print(f"# {name} seed={seed} mode={mode} seconds={seconds}")
    print("# load average at start " + " ".join(f"{v:.2f}" for v in load_start)
          + ", at end " + " ".join(f"{v:.2f}" for v in load_end))
    print("# properties " + " ".join(f"{k}={_fmt(v)}" for k, v in result["properties"].items()))
    for key, value in result["notes"].items():
        print(f"# {key} {_fmt(value)}")
    for key, value in sorted(outcomes.counts.items()):
        print(f"# defect {key} {value}")
    for failure in outcomes.failures[:20]:
        print(f"# FAILED {failure}")
    metrics = {}
    for metric, unit in units.items():
        value = result["metrics"][metric]
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{name} {metric} {_fmt(value)} {unit}")
    return {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "uilog" / "cli.py").is_file():
        print("error: run from the root of a uilog checkout (no src/uilog/cli.py)",
              file=sys.stderr)
        return 2
    env = environment(root)
    print("# environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
