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
from dataclasses import dataclass
from typing import Optional

from .model import _PARENT_TYPES, UIHierarchy, UILog, level_of, parent_of
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


@dataclass(frozen=True)
class Violation:
    """One invariant breach, located by event index and/or node id."""

    code: ViolationCode
    event_index: Optional[int] = None
    node_id: Optional[str] = None
    message: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple = ()
    checked_events: int = 0
    checked_nodes: int = 0

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))

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
        if parent is None:
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
                    message="element state recorded without a UI element; "
                    "the XES and CSV readers drop it",
                )
            )
        if event.target is not None and not event.target.is_empty:
            try:
                log.hierarchy.check_target(event.target)
            except DanglingReferenceError as exc:
                out.append(
                    Violation(
                        ViolationCode.DANGLING_REFERENCE,
                        event_index=index,
                        node_id=exc.node_id,
                        message=str(exc),
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


def _order_violations(log: UILog) -> list:
    out = []
    if log.traces is None:
        sequences = [range(len(log.events))]
    else:
        sequences = [t.events for t in log.traces]
    for sequence in sequences:
        last = None
        for index in sequence:
            if not 0 <= index < len(log.events):
                continue  # reported by the partition check
            ts = log.events[index].timestamp
            if ts is None:
                continue
            if last is not None and ts < last:
                out.append(
                    Violation(
                        ViolationCode.OUT_OF_ORDER_TIMESTAMP,
                        event_index=index,
                        message="timestamp decreases along the trace",
                    )
                )
            last = ts
    return out


def _partition_violations(log: UILog) -> list:
    if log.traces is None:
        return []
    out = []
    seen_ids = Counter(t.id for t in log.traces)
    for trace_id, count in seen_ids.items():
        if count > 1:
            out.append(
                Violation(
                    ViolationCode.DUPLICATE_ID,
                    node_id=trace_id,
                    message=f"{count} traces share the id {trace_id!r}",
                )
            )
    covered = Counter()
    for trace in log.traces:
        for index in trace.events:
            if not 0 <= index < len(log.events):
                out.append(
                    Violation(
                        ViolationCode.DANGLING_REFERENCE,
                        node_id=trace.id,
                        message=f"trace {trace.id!r} references event index {index}, "
                        f"which is out of range",
                    )
                )
                continue
            covered[index] += 1
    for index in range(len(log.events)):
        count = covered.get(index, 0)
        if count == 0:
            out.append(
                Violation(
                    ViolationCode.PARTITION_GAP,
                    event_index=index,
                    message="event is not covered by any trace",
                )
            )
        elif count > 1:
            out.append(
                Violation(
                    ViolationCode.PARTITION_OVERLAP,
                    event_index=index,
                    message=f"event is covered by {count} traces",
                )
            )
    return out


def validate(log: UILog) -> ValidationReport:
    """Check every model invariant over a whole log.

    Idempotent and side-effect free; a clean log yields an empty report.
    """
    violations = (
        _hierarchy_violations(log.hierarchy)
        + _event_violations(log)
        + _order_violations(log)
        + _partition_violations(log)
    )
    return ValidationReport(
        violations=tuple(violations),
        checked_events=len(log.events),
        checked_nodes=log.hierarchy.node_count,
    )


# ---------------------------------------------------------------------------
# Coverage and profile


@dataclass(frozen=True)
class Coverage:
    """How many events populate one attribute."""

    events_present: int = 0
    events_total: int = 0

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
        try:
            node = log.hierarchy.resolve(target)
        except (NoTargetError, DanglingReferenceError):
            node = None
        if node is not None and parent_of(node) is not None:
            counts["ui_hierarchy"] += 1
    return {name: Coverage(counts[name], total) for name in _COVERED}


@dataclass(frozen=True)
class LogProfile:
    events: int = 0
    distinct_activities: int = 0
    distinct_action_types: int = 0
    systems: int = 0
    applications: int = 0
    ui_groups: int = 0
    ui_elements: int = 0
    traces: Optional[int] = None


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
