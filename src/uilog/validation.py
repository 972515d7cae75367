"""Whole-log invariant checking and descriptive statistics.

:func:`validate` walks a log and reports every invariant breach as a
:class:`Violation` instead of raising, so defective logs can be inspected
and repaired. :func:`coverage` computes, per core attribute, how many
events actually populate it, and :func:`profile` summarizes a log's
shape. All three are pure functions.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Iterable, Optional

from .model import (
    _PARENT_TYPES, UIHierarchy, UILog, _out_of_range, _Record, level_of, parent_of
)
from .errors import CycleError, DanglingReferenceError, NoTargetError


class ViolationCode(enum.Enum):
    MISSING_ACTIVITY_NAME = "MissingActivityName"
    DANGLING_REFERENCE = "DanglingReference"
    CYCLE_DETECTED = "CycleDetected"
    LEVEL_VIOLATION = "LevelViolation"
    OUT_OF_ORDER_TIMESTAMP = "OutOfOrderTimestamp"
    DUPLICATE_ID = "DuplicateId"
    PARTITION_GAP = "PartitionGap"
    PARTITION_OVERLAP = "PartitionOverlap"
    STATE_WITHOUT_ELEMENT = "StateWithoutElement"


class Violation(_Record):
    """One invariant breach, located by event index and/or node id."""

    __slots__ = ("code", "event_index", "node_id", "message")

    def __init__(self, code: ViolationCode, event_index: Optional[int] = None,
                 node_id: Optional[str] = None, message: str = ""):
        _Record.__init__(self, code, event_index, node_id, message)


class ValidationReport(_Record):
    __slots__ = ("violations", "checked_events", "checked_nodes")

    def __init__(self, violations: Iterable[Violation] = (), checked_events: int = 0,
                 checked_nodes: int = 0):
        _Record.__init__(self, tuple(violations), checked_events, checked_nodes)

    @property
    def ok(self) -> bool:
        return not self.violations


def _hierarchy_violations(hierarchy: UIHierarchy) -> list:
    """Parent link faults, cycles, then duplicate siblings. A node the
    location index placed has neither of the first two, so only the
    unplaced ones are checked for them."""
    located = hierarchy._located
    out, cycles = [], []
    siblings = Counter()
    for node in hierarchy.all_nodes():
        kind = type(node)
        parent = parent_of(node)
        if kind in _PARENT_TYPES:  # the table admits exact node types only
            siblings[(level_of(node), id(parent) if parent is not None else None, node.id)] += 1
        if located[id(node)] is not None:
            continue
        try:
            hierarchy.ancestors(node)
        except CycleError as exc:
            cycles.append(
                Violation(ViolationCode.CYCLE_DETECTED, node_id=node.id, message=str(exc))
            )
        if kind not in _PARENT_TYPES:
            out.append(
                Violation(
                    ViolationCode.LEVEL_VIOLATION,
                    node_id=node.id,
                    message=f"{node.id!r} is a {kind.__name__}, not a hierarchy node type",
                )
            )
            continue
        if id(parent) not in located:
            out.append(
                Violation(
                    ViolationCode.DANGLING_REFERENCE,
                    node_id=node.id,
                    message=f"parent of {node.id!r} is not registered in the hierarchy",
                )
            )
        if not isinstance(parent, _PARENT_TYPES[kind]):
            out.append(
                Violation(
                    ViolationCode.LEVEL_VIOLATION,
                    node_id=node.id,
                    message=f"{node.id!r} ({level_of(node).name.lower()}) cannot be "
                    f"parented to {type(parent).__name__}",
                )
            )

    out += cycles
    for (level, _parent, node_id), count in siblings.items():
        if count > 1:
            out.append(
                Violation(
                    ViolationCode.DUPLICATE_ID,
                    node_id=node_id,
                    message=f"{count} sibling {level.name.lower()} nodes share the id {node_id!r}",
                )
            )
    return out


def _event_violations(log: UILog) -> list:
    out = []
    faults = {}  # id of each distinct target -> (node id, message) of its fault, or None
    for index, event in enumerate(log.events):
        if not event.activity_name:
            out.append(
                Violation(
                    ViolationCode.MISSING_ACTIVITY_NAME,
                    event_index=index,
                    message="activity name is empty",
                )
            )
        if event.current_state is not None and (
            event.target is None or event.target.element is None
        ):
            out.append(
                Violation(
                    ViolationCode.STATE_WITHOUT_ELEMENT,
                    event_index=index,
                    message="element state recorded without a UI element",
                )
            )
        if event.target is not None:
            # Events share few targets, and the log keeps each alive for the
            # call, so each is checked once and keyed by its id.
            key = id(event.target)
            fault = faults.get(key, False)
            if fault is False:  # not checked yet
                fault = None
                try:
                    log.hierarchy.check_target(event.target)
                except DanglingReferenceError as exc:
                    fault = (exc.node_id, str(exc))
                faults[key] = fault
            if fault is not None:
                out.append(
                    Violation(
                        ViolationCode.DANGLING_REFERENCE,
                        event_index=index,
                        node_id=fault[0],
                        message=fault[1],
                    )
                )
        if event.user is not None and event.user not in log.users:
            out.append(
                Violation(
                    ViolationCode.DANGLING_REFERENCE,
                    event_index=index,
                    node_id=event.user,
                    message=f"event references unknown user {event.user!r}",
                )
            )
        if event.task is not None and event.task not in log.tasks:
            out.append(
                Violation(
                    ViolationCode.DANGLING_REFERENCE,
                    event_index=index,
                    node_id=event.task,
                    message=f"event references unknown task {event.task!r}",
                )
            )
    return out


def _sequence_violations(log: UILog) -> list:
    """Timestamps that decrease along a trace, or along the log when it has
    no traces, then what breaks the traces' partition of the events: shared
    trace ids, out-of-range indices, gaps and overlaps. One walk over each
    trace finds both; an untraced log counts no coverage."""
    events, traces, size = log.events, log.traces, len(log.events)
    order, partition, covered = [], [], None
    if traces is not None:
        covered = [0] * size
        for trace_id, count in Counter(t.id for t in traces).items():
            if count > 1:
                partition.append(
                    Violation(
                        ViolationCode.DUPLICATE_ID,
                        node_id=trace_id,
                        message=f"{count} traces share the id {trace_id!r}",
                    )
                )
    for trace in traces if traces is not None else (None,):
        last = None
        for index in range(size) if trace is None else trace.events:
            if not 0 <= index < size:
                partition.append(
                    Violation(
                        ViolationCode.DANGLING_REFERENCE,
                        node_id=trace.id,
                        message=_out_of_range(trace, index),
                    )
                )
                continue
            if covered is not None:
                covered[index] += 1
            ts = events[index].timestamp
            if ts is None:
                continue
            if last is not None and ts < last:
                order.append(
                    Violation(
                        ViolationCode.OUT_OF_ORDER_TIMESTAMP,
                        event_index=index,
                        message="timestamp decreases along the trace",
                    )
                )
            last = ts
    for index, count in enumerate(covered or ()):
        if count == 0:
            partition.append(
                Violation(
                    ViolationCode.PARTITION_GAP,
                    event_index=index,
                    message="event is not covered by any trace",
                )
            )
        elif count > 1:
            partition.append(
                Violation(
                    ViolationCode.PARTITION_OVERLAP,
                    event_index=index,
                    message=f"event is covered by {count} traces",
                )
            )
    return order + partition


def validate(log: UILog) -> ValidationReport:
    """Check every model invariant over a whole log.

    Idempotent and side-effect free; a clean log yields an empty report.
    """
    violations = (
        _hierarchy_violations(log.hierarchy)
        + _event_violations(log)
        + _sequence_violations(log)
    )
    return ValidationReport(
        violations=tuple(violations),
        checked_events=len(log.events),
        checked_nodes=log.hierarchy.node_count,
    )


# ---------------------------------------------------------------------------
# Coverage and profile


class Coverage(_Record):
    """How many events populate one attribute."""

    __slots__ = ("events_present", "events_total")

    def __init__(self, events_present: int = 0, events_total: int = 0):
        _Record.__init__(self, events_present, events_total)

    @property
    def ratio(self) -> float:
        if self.events_total == 0:
            return 0.0
        return self.events_present / self.events_total

    @property
    def fraction(self) -> str:
        return f"{self.events_present}/{self.events_total}"

    @property
    def in_log(self) -> bool:
        """Per-log granularity: does any event populate the attribute?"""
        return self.events_present > 0


#: The core attributes :func:`coverage` counts, in report order.
_COVERED = ("action_type", "target_element", "ui_hierarchy", "application",
            "input_value", "timestamp", "current_state")


def coverage(log: UILog) -> dict:
    """Count, per core attribute, the events that populate it.

    Returns attribute name → :class:`Coverage`, in a fixed order.
    ``ui_hierarchy`` counts events whose resolved target has at least one
    recorded ancestor above itself; an action type of "none" counts as
    present because it is recorded information.
    """
    total = len(log.events)
    counts = Counter()
    placed = {}  # id of each distinct target -> whether it has a recorded ancestor
    for event in log.events:
        target = event.target
        if event.action is not None:
            counts["action_type"] += 1
        if target is not None and target.element is not None:
            counts["target_element"] += 1
        if target is not None and target.application is not None:
            counts["application"] += 1
        if event.input_value is not None:
            counts["input_value"] += 1
        if event.timestamp is not None:
            counts["timestamp"] += 1
        if event.current_state is not None:
            counts["current_state"] += 1
        if target is None:
            continue
        has_ancestor = placed.get(id(target))  # resolved once per distinct target
        if has_ancestor is None:
            try:
                node = log.hierarchy.resolve(target)
            except (NoTargetError, DanglingReferenceError):
                node = None
            has_ancestor = placed[id(target)] = node is not None and parent_of(node) is not None
        if has_ancestor:
            counts["ui_hierarchy"] += 1
    return {name: Coverage(counts[name], total) for name in _COVERED}


class LogProfile(_Record):
    __slots__ = ("events", "distinct_activities", "distinct_action_types", "systems",
                 "applications", "ui_groups", "ui_elements", "traces")

    def __init__(self, events: int = 0, distinct_activities: int = 0,
                 distinct_action_types: int = 0, systems: int = 0, applications: int = 0,
                 ui_groups: int = 0, ui_elements: int = 0, traces: Optional[int] = None):
        _Record.__init__(self, events, distinct_activities, distinct_action_types, systems,
                         applications, ui_groups, ui_elements, traces)


def profile(log: UILog) -> LogProfile:
    """Summarize a log: counts of events, names, and hierarchy nodes."""
    activities = {e.activity_name for e in log.events}
    action_types = {e.action.action_type for e in log.events if e.action is not None}
    return LogProfile(
        events=len(log.events),
        distinct_activities=len(activities),
        distinct_action_types=len(action_types),
        systems=len(log.hierarchy.systems),
        applications=len(log.hierarchy.applications),
        ui_groups=len(log.hierarchy.ui_groups),
        ui_elements=len(log.hierarchy.ui_elements),
        traces=len(log.traces) if log.traces is not None else None,
    )


# ---------------------------------------------------------------------------
# Rendering


def render_report(report: ValidationReport) -> str:
    """Plain-text rendering, one line per violation."""
    head = (
        f"{len(report.violations)} violation"
        f"{'' if len(report.violations) == 1 else 's'} "
        f"({report.checked_events} events, {report.checked_nodes} nodes checked)"
    )
    lines = [head]
    for violation in report.violations:
        where = []
        if violation.event_index is not None:
            where.append(f"event {violation.event_index}")
        if violation.node_id is not None:
            where.append(f"node {violation.node_id!r}")
        locator = ", ".join(where) or "-"
        lines.append(f"  [{violation.code.value}] {locator}: {violation.message}")
    return "\n".join(lines)


def report_records(report: ValidationReport) -> list:
    """One plain dict per violation, for machine-readable output."""
    return [
        {
            "code": v.code.value,
            "event_index": v.event_index,
            "node_id": v.node_id,
            "message": v.message,
        }
        for v in report.violations
    ]


def render_coverage(matrix: dict) -> str:
    lines = [
        "attribute coverage (events with the attribute populated; ui_hierarchy",
        "counts events whose resolved target has at least one recorded ancestor)",
        "",
        f"  {'attribute':<16} {'events':>8} {'ratio':>7}  in log",
    ]
    for name, cell in matrix.items():
        lines.append(
            f"  {name:<16} {cell.fraction:>8} {cell.ratio:>7.3f}  "
            f"{'yes' if cell.in_log else 'no'}"
        )
    return "\n".join(lines)


def render_profile(summary: LogProfile) -> str:
    lines = [
        f"  events                {summary.events}",
        f"  distinct activities   {summary.distinct_activities}",
        f"  distinct action types {summary.distinct_action_types}",
        f"  systems               {summary.systems}",
        f"  applications          {summary.applications}",
        f"  ui groups             {summary.ui_groups}",
        f"  ui elements           {summary.ui_elements}",
    ]
    if summary.traces is not None:
        lines.append(f"  traces                {summary.traces}")
    return "\n".join(lines)
