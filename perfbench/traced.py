"""Traced run: per-layer figures for the benchmark's CLI commands.

Each command runs three ways: as a child process (as in the timed run),
in this process through ``uilog.cli.main`` untraced, and in this process
with the public entry points of every uilog module wrapped in spans.
The two in-process runs give the tracing overhead; all three must write
byte-identical outputs. Per-event calls (``HierarchyBuilder.chain``) are
aggregated instead of getting a span each, and collector pauses
(``gc.callbacks``) are charged to the innermost open span.

Allocation figures come from a separate tracemalloc pass over the first
input, and the floors (stdlib parsers alone, and replaying a loaded log
through the model constructors) from a separate pass over the loaded
inputs, so neither inflates the timed spans.

Every per-layer figure except ``cli.import_s``, the allocation peaks and
the ratios is a mean per CLI command of the traced pass.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import os
import statistics
import sys
import time
import tracemalloc
import warnings
from collections import Counter, defaultdict
from pathlib import Path
from xml.etree import ElementTree as ET

import run

PER_LAYER = {
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.outside_main_s": "s",
    "tabular.ingest.self_s": "s",
    "tabular.ingest.gc_s": "s",
    "tabular.ingest.rows": "count",
    "tabular.ingest.rows_skipped": "count",
    "tabular.ingest.kept_as_text": "count",
    "tabular.ingest.ts_truncated": "count",
    "tabular.csv_floor_s": "s",
    "tabular.write_table.self_s": "s",
    "tabular.write_table.cells": "count",
    "tabular.write_table.bytes_out": "B",
    "xes.read_xes.self_s": "s",
    "xes.read_xes.gc_s": "s",
    "xes.read_xes.bytes_in": "B",
    "xes.read_xes.peak_alloc_mb": "MB",
    "xes.xml_floor_s": "s",
    "xes.write_xes.self_s": "s",
    "xes.write_xes.bytes_out": "B",
    "xes.write_xes.peak_alloc_mb": "MB",
    "xes.state_mismatch_events": "count",
    "model.chain.calls": "count",
    "model.chain.s": "s",
    "model.build.s": "s",
    "model.rebuild_s": "s",
    "model.distinct_targets": "count",
    "model.target_reuse": "ratio",
    "model.hierarchy_nodes": "count",
    "model.log_alloc_mb": "MB",
    "validation.validate.self_s": "s",
    "validation.validate.calls": "count",
    "validation.validate.violations": "count",
    "validation.coverage.s": "s",
    "validation.profile.s": "s",
    "transform.segment.s": "s",
    "transform.segment.traces_out": "count",
    "transform.abstract.s": "s",
    "transform.abstract.events_in": "count",
    "transform.abstract.events_out": "count",
    "transform.abstract.unabstracted_runs": "count",
    "bench.trace_overhead_s": "s",
    "bench.typed_or_nested_share": "ratio",
    "bench.traced_share": "ratio",
    "bench.xes_bytes_per_event": "B/event",
}

IMPORT_SAMPLES = 7
FLOOR_REPEATS = 3
_IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import uilog.cli; "
    "print(repr(time.perf_counter() - start))"
)


class Span:
    __slots__ = ("id", "parent", "command", "name", "start", "end", "child", "gc", "data")

    def __init__(self, span_id, parent, command, name):
        self.id = span_id
        self.parent = parent
        self.command = command
        self.name = name
        self.start = self.end = 0.0
        self.child = 0.0
        self.gc = 0.0
        self.data = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Spans kept in memory, aggregate counters for per-event calls."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.aggregates = {}
        self.command = None
        self.command_input = None
        self.loads = []
        self._gc_start = None

    def on_gc(self, phase, info):
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
        elif self._gc_start is not None:
            if self.stack:
                self.stack[-1].gc += now - self._gc_start
            self._gc_start = None

    def span(self, name, fn, after=None):
        """Wrap fn in a span; ``after(span, args, result)`` records counts.

        The time ``after`` takes is charged to no layer: it is taken out
        of the parent's self time and shows only in the tracing overhead.
        """

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(len(self.spans), parent.id if parent else None, self.command, name)
            self.spans.append(span)
            self.stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(span, args, result)
            if parent is not None:
                parent.child += time.perf_counter() - span.start
            return result

        return wrapper

    def aggregate(self, name, fn):
        totals = self.aggregates.setdefault(name, [0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    stack[-1].child += elapsed

        return wrapper


def _model_counts(span, log):
    targets = [e.target for e in log.events if e.target is not None]
    span.data["with_target"] = len(targets)
    span.data["distinct_targets"] = len(set(targets))
    span.data["nodes"] = log.hierarchy.node_count


class Patches:
    """Module attributes replaced by wrappers, and their originals."""

    def __init__(self, replacements):
        self.replacements = replacements
        self.originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, wrapper in self.replacements:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original in self.originals:
                setattr(owner, attr, original)


def _layer_patches(uilog, tracer: Tracer) -> Patches:
    tabular, xes, validation, transform, model = (
        uilog.tabular, uilog.xes, uilog.validation, uilog.transform, uilog.model
    )

    def after_ingest(span, args, result):
        log, report = result
        span.data["rows"] = report.rows_read
        span.data["rows_skipped"] = len(report.rows_skipped)
        span.data["kept_as_text"] = sum(1 for w in report.warnings if w.endswith("kept as text"))
        span.data["ts_truncated"] = sum(
            1 for w in report.warnings if "truncated to milliseconds" in w
        )
        _model_counts(span, log)
        tracer.loads.append(("csv", tracer.command_input))

    def after_read(span, args, log):
        span.data["bytes_in"] = len(args[0].encode("utf-8"))
        _model_counts(span, log)
        tracer.loads.append(("xes", tracer.command_input))

    def after_write_xes(span, args, text):
        span.data["bytes_out"] = len(text.encode("utf-8"))

    def after_write_table(span, args, text):
        span.data["bytes_out"] = len(text.encode("utf-8"))
        header = next(csv.reader(io.StringIO(text)), [])
        span.data["cells"] = len(args[0].events) * len(header)

    def after_validate(span, args, report):
        span.data["violations"] = len(report.violations)

    def after_segment(span, args, log):
        span.data["traces_out"] = len(log.traces)

    def after_abstract(span, args, log):
        span.data["events_in"] = len(args[0].events)
        span.data["events_out"] = len(log.events)

    abstract = transform.abstract

    def counted_abstract(*args, **kwargs):
        # The CLI records warnings itself, so count them here and pass
        # them on unchanged.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = abstract(*args, **kwargs)
        unabstracted = 0
        for item in caught:
            if issubclass(item.category, uilog.TriggerNeverFiresWarning):
                unabstracted += 1
            warnings.warn_explicit(item.message, item.category, item.filename, item.lineno)
        tracer.stack[-1].data["unabstracted_runs"] = unabstracted
        return result

    validate = tracer.span("validation.validate", validation.validate, after_validate)
    return Patches(
        [
            (tabular, "ingest", tracer.span("tabular.ingest", tabular.ingest, after_ingest)),
            (tabular, "write_table",
             tracer.span("tabular.write_table", tabular.write_table, after_write_table)),
            (xes, "read_xes", tracer.span("xes.read_xes", xes.read_xes, after_read)),
            (xes, "write_xes", tracer.span("xes.write_xes", xes.write_xes, after_write_xes)),
            (validation, "validate", validate),
            # write_xes(check=True) validates through its own import.
            (xes, "validate", validate),
            (validation, "coverage", tracer.span("validation.coverage", validation.coverage)),
            (validation, "profile", tracer.span("validation.profile", validation.profile)),
            (transform, "segment",
             tracer.span("transform.segment", transform.segment, after_segment)),
            (transform, "abstract",
             tracer.span("transform.abstract", counted_abstract, after_abstract)),
            (model.HierarchyBuilder, "chain",
             tracer.aggregate("model.chain", model.HierarchyBuilder.chain)),
            (model.HierarchyBuilder, "build",
             tracer.span("model.build", model.HierarchyBuilder.build)),
        ],
    )


def _alloc_patches(uilog, peaks: dict) -> Patches:
    """Wrappers that record the tracemalloc peak of a call above its
    start, and for loaders the size of what they return."""

    def measured(name, fn, loader):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            peaks.setdefault(name, []).append(peak - base)
            if loader:
                peaks.setdefault("log", []).append(current - base)
            return result

        return wrapper

    tabular, xes = uilog.tabular, uilog.xes
    return Patches(
        [
            (tabular, "ingest", measured("ingest", tabular.ingest, True)),
            (xes, "read_xes", measured("read_xes", xes.read_xes, True)),
            (xes, "write_xes", measured("write_xes", xes.write_xes, False)),
        ],
    )


def _in_process(main, argv: list) -> tuple:
    """(exit code, stdout bytes, wall s) of one uilog.cli.main call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        wall = time.perf_counter() - start
    return code, stdout.getvalue().encode("utf-8"), wall


def _input_of(argv: list) -> str:
    return argv[argv.index("-i") + 1]


def _median_time(fn, repeats: int = FLOOR_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _rebuild(uilog, log):
    """Replay a loaded log through the public model constructors."""
    model = uilog.model
    builder = model.HierarchyBuilder()
    events = []
    for event in log.events:
        target = event.target
        if target is not None:
            target = builder.chain(
                system=target.system,
                application=target.application,
                groups=target.groups,
                element=target.element,
            )
        events.append(
            model.InteractionEvent(
                activity_name=event.activity_name,
                action=event.action,
                target=target,
                input_value=event.input_value,
                timestamp=event.timestamp,
                user=event.user,
                task=event.task,
                attributes=event.attributes,
            )
        )
    return model.UILog(
        events=events,
        hierarchy=builder.build(),
        users=log.users,
        tasks=log.tasks,
        attributes=log.attributes,
        traces=log.traces,
    )


def _floors(uilog, loads: list) -> dict:
    """Floor seconds summed over the loader calls of the traced pass."""
    totals = {"csv": 0.0, "xml": 0.0, "rebuild": 0.0}
    for (kind, path), calls in Counter(loads).items():
        text = Path(path).read_text(encoding="utf-8")
        if kind == "csv":
            totals["csv"] += calls * _median_time(
                lambda: sum(1 for _ in csv.reader(io.StringIO(text)))
            )
            log, _ = uilog.tabular.ingest(text)
        else:
            totals["xml"] += calls * _median_time(lambda: ET.fromstring(text))
            log = uilog.xes.read_xes(text, lenient_names=True)
        totals["rebuild"] += calls * _median_time(lambda: _rebuild(uilog, log))
        del log
    return totals


def _totals(tracer: Tracer) -> dict:
    """Per span or aggregate name: summed duration ``s``, ``self_s``,
    ``gc_s``, ``calls`` and the summed counts the spans recorded."""
    totals = defaultdict(Counter)
    for span in tracer.spans:
        entry = totals[span.name]
        entry.update(span.data)
        entry.update(s=span.duration, self_s=span.self_time, gc_s=span.gc, calls=1)
    for name, (calls, seconds) in tracer.aggregates.items():
        totals[name].update(s=seconds, calls=calls)
    return totals


def _write_spans(path: Path, tracer: Tracer, environment: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"environment": environment}) + "\n")
        for span in tracer.spans:
            handle.write(json.dumps({
                "id": span.id, "parent": span.parent, "command": span.command,
                "name": span.name, "start": span.start, "end": span.end,
                "self": span.self_time, "gc": span.gc, **span.data,
            }) + "\n")
        for name, (calls, seconds) in tracer.aggregates.items():
            handle.write(json.dumps({"aggregate": name, "calls": calls, "s": seconds}) + "\n")


def traced_run(bench, workload, seconds: float) -> dict:
    sys.path.insert(0, str(bench.src))
    os.environ["UILOG_NO_COLOR"] = "1"
    import uilog
    import uilog.cli

    import_times = []
    for n in range(IMPORT_SAMPLES):
        tag = bench.work / f"import{n}"
        _, _, code = bench.spawn(["-c", _IMPORT_PROBE], tag.with_suffix(".out"),
                                 tag.with_suffix(".err"))
        if code != 0:
            raise RuntimeError(f"import probe exited with {code}")
        import_times.append(float(tag.with_suffix(".out").read_text()))
    import_s = statistics.median(import_times)

    dirs = {mode: bench.work / mode for mode in ("cli", "plain", "traced")}
    for directory in dirs.values():
        directory.mkdir(parents=True, exist_ok=True)
    main = uilog.cli.main
    tracer = Tracer()
    patches = _layer_patches(uilog, tracer)
    traced_main = tracer.span("cli.main", main)
    outcomes = run.Outcomes()

    # Warm-up: the first input once as a child and once in process.
    first = workload.groups[0]
    for command in first.commands:
        run.run_command(bench, command, dirs["cli"], "warm")
        _in_process(main, command.args(str(dirs["plain"])))
    properties = dict(workload.properties)
    properties["xes_bytes_per_event"] = run.xes_bytes_per_event(first, dirs["cli"])
    gc.collect()
    gc.freeze()

    overhead = outside = 0.0
    commands = 0
    start = time.perf_counter()
    position = 0
    while position == 0 or time.perf_counter() - start < seconds:
        group = workload.groups[position % len(workload.groups)]
        for index, command in enumerate(group.commands):
            record = run.run_command(bench, command, dirs["cli"], "cmd")
            problem, counts, digest = run.verify(command, dirs["cli"], record)
            walls = {}
            # Alternate which in-process run goes first.
            for mode in (("plain", "traced") if commands % 2 == 0 else ("traced", "plain")):
                argv = command.args(str(dirs[mode]))
                if mode == "traced":
                    tracer.command = commands
                    tracer.command_input = _input_of(argv)
                    gc.callbacks.append(tracer.on_gc)
                    try:
                        with patches.installed():
                            code, stdout, walls[mode] = _in_process(traced_main, argv)
                    finally:
                        gc.callbacks.remove(tracer.on_gc)
                else:
                    code, stdout, walls[mode] = _in_process(main, argv)
                if problem is None and code != record["exit"]:
                    problem = f"{mode} in-process run exited with {code}, child with {record['exit']}"
                if problem is None:
                    try:
                        same = run.output_digest(stdout, command.output_in(str(dirs[mode]))) == digest
                    except OSError:
                        same = False
                    if not same:
                        problem = f"{mode} in-process output differs from the CLI child's"
            outcomes.record((group.label, index), problem, counts, digest,
                            f"{group.label} {command.name}")
            overhead += walls["traced"] - walls["plain"]
            outside += record["wall"] - import_s - walls["plain"]
            commands += 1
        position += 1
    gc.unfreeze()

    floors = _floors(uilog, tracer.loads)

    peaks = {}
    tracemalloc.start()
    try:
        with _alloc_patches(uilog, peaks).installed():
            for command in first.commands:
                _in_process(main, command.args(str(dirs["plain"])))
    finally:
        tracemalloc.stop()

    spans_path = bench.root / run.WORK_DIR / f"spans-{workload.name}.jsonl"
    _write_spans(spans_path, tracer, run.environment(bench.root))

    n = commands
    totals = _totals(tracer)
    loaded = totals["tabular.ingest"] + totals["xes.read_xes"]
    mb = 1024.0 * 1024.0
    metrics = {
        "cli.import_s": import_s,
        "cli.outside_main_s": outside / n,
        "tabular.csv_floor_s": floors["csv"] / n,
        "xes.read_xes.peak_alloc_mb": max(peaks.get("read_xes", [0])) / mb,
        "xes.xml_floor_s": floors["xml"] / n,
        "xes.write_xes.peak_alloc_mb": max(peaks.get("write_xes", [0])) / mb,
        "xes.state_mismatch_events": outcomes.counts.get("xes.state_mismatch_events", 0) / n,
        "model.rebuild_s": floors["rebuild"] / n,
        "model.distinct_targets": loaded["distinct_targets"] / n,
        "model.target_reuse":
            loaded["with_target"] / loaded["distinct_targets"] if loaded["distinct_targets"] else 0.0,
        "model.hierarchy_nodes": loaded["nodes"] / n,
        "model.log_alloc_mb": statistics.fmean(peaks.get("log", [0])) / mb,
        "bench.trace_overhead_s": overhead / n,
        "bench.typed_or_nested_share": properties["typed_or_nested_share"],
        "bench.traced_share": properties["traced_share"],
        "bench.xes_bytes_per_event": properties["xes_bytes_per_event"],
    }
    # The rest are named <span>.<quantity>: per-command means of the totals.
    for name in PER_LAYER:
        if name not in metrics:
            span, quantity = name.rsplit(".", 1)
            metrics[name] = totals[span][quantity] / n
    return {
        "metrics": metrics,
        "notes": {
            "commands": n,
            "groups": position,
            "spans": len(tracer.spans),
            "spans_file": spans_path.relative_to(bench.root),
            "error_rate": outcomes.failed / outcomes.attempted,
        },
        "properties": properties,
        "outcomes": outcomes,
    }
