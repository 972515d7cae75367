"""Case segmentation and UI-group event abstraction.

The model deliberately carries no case notion; these transforms add one
at the point of use. :func:`segment` partitions events into traces by an
attribute value, a time gap, or marker activities. :func:`abstract`
collapses runs of low-level events inside a UI group into one task-level
event (conventionally "A_"-prefixed), the way a login mask's keystrokes
become a single "A_Login".

Both notions and rules can be loaded from the same INI format the column
mappings use (:func:`uilog.tabular.load_ini`), so CLI pipelines can keep
them in files.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from datetime import timedelta
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    DanglingReferenceError,
    MissingCaseAttributeError,
    MissingTimestampsError,
    TriggerNeverFiresWarning,
    UnknownGroupError,
)
from .model import (
    Action,
    InteractionEvent,
    Target,
    Trace,
    UILog,
    split_group_path,
)
from .tabular import load_ini

#: Marker attribute carried by events produced by :func:`abstract`, so a
#: second application never re-matches them as raw in-group runs.
ABSTRACTED_KEY = "uilog:abstracted"


# ---------------------------------------------------------------------------
# Case notions


@dataclass(frozen=True)
class ByAttribute:
    """One trace per distinct value of an event attribute.

    ``key`` may be "user", "task", or any extension attribute key. Trace
    ids are the attribute values; events with equal values group together
    even when they do not touch.
    """

    key: str

    def __post_init__(self):
        if not self.key:
            raise ValueError("attribute key must be non-empty")


@dataclass(frozen=True)
class ByTimeGap:
    """A new trace starts where the gap between consecutive events
    exceeds the threshold. Requires timestamps on every event."""

    threshold: timedelta

    def __post_init__(self):
        threshold = self.threshold
        if isinstance(threshold, (int, float)):
            threshold = timedelta(seconds=threshold)
            object.__setattr__(self, "threshold", threshold)
        if threshold <= timedelta(0):
            raise ValueError("gap threshold must be positive")


@dataclass(frozen=True)
class ByMarker:
    """Activities that open a new case; events before the first marker
    form a leading trace of their own."""

    markers: frozenset

    def __post_init__(self):
        markers = frozenset(self.markers)
        if not markers:
            raise ValueError("marker set must be non-empty")
        object.__setattr__(self, "markers", markers)


@dataclass(frozen=True)
class Composite:
    """Notions applied left to right, each refining the previous
    partition; trace ids join the part ids with "/"."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("composite notion needs at least one part")
        object.__setattr__(self, "parts", parts)


CaseNotion = Union[ByAttribute, ByTimeGap, ByMarker, Composite]


def _case_value(event: InteractionEvent, key: str):
    if key == "user":
        return event.user
    if key == "task":
        return event.task
    return event.attributes.get(key)


def _partition(log: UILog, indices: Sequence[int], notion) -> list:
    """[(trace id, [indices])] for one event subsequence."""
    events = log.events
    if isinstance(notion, ByAttribute):
        missing = [i for i in indices if _case_value(events[i], notion.key) is None]
        if missing:
            raise MissingCaseAttributeError(
                f"{len(missing)} event(s) lack the case attribute {notion.key!r} "
                f"(first indices: {missing[:5]})",
                event_indices=missing,
            )
        groups: dict = {}
        for i in indices:
            value = _case_value(events[i], notion.key)
            key = value if isinstance(value, str) else repr(value)
            groups.setdefault(key, []).append(i)
        return list(groups.items())
    if isinstance(notion, ByTimeGap):
        missing = [i for i in indices if events[i].timestamp is None]
        if missing:
            raise MissingTimestampsError(
                f"{len(missing)} event(s) lack timestamps "
                f"(first indices: {missing[:5]})",
                event_indices=missing,
            )
        runs = []
        current: list = []
        previous = None
        for i in indices:
            ts = events[i].timestamp
            if current and ts - previous > notion.threshold:
                runs.append(current)
                current = []
            current.append(i)
            previous = ts
        if current:
            runs.append(current)
        return [(f"case_{n}", run) for n, run in enumerate(runs, start=1)]
    if isinstance(notion, ByMarker):
        runs = []
        current = []
        for i in indices:
            if events[i].activity_name in notion.markers and current:
                runs.append(current)
                current = []
            current.append(i)
        if current:
            runs.append(current)
        return [(f"case_{n}", run) for n, run in enumerate(runs, start=1)]
    if isinstance(notion, Composite):
        partition = [("", list(indices))]
        for part in notion.parts:
            refined = []
            for prefix, group in partition:
                for trace_id, run in _partition(log, group, part):
                    refined.append((f"{prefix}/{trace_id}" if prefix else trace_id, run))
            partition = refined
        return partition
    raise TypeError(f"not a case notion: {type(notion).__name__}")


def segment(log: UILog, notion: CaseNotion) -> UILog:
    """Partition a log's events into traces.

    Events are never created, dropped, or reordered: each trace lists its
    event indices in log order, and the traces cover the log exactly.
    Any existing partition is replaced. Trace ids are deterministic: the
    attribute value for ByAttribute, "case_<n>" ordinals for gaps and
    markers, "/"-joined for composites.
    """
    parts = _partition(log, range(len(log.events)), notion)
    traces = tuple(Trace(id=trace_id, events=tuple(run)) for trace_id, run in parts)
    return replace(log, traces=traces)


# ---------------------------------------------------------------------------
# Abstraction


@dataclass(frozen=True)
class AbstractionRule:
    """Collapse in-group runs that end with a trigger activity.

    ``group`` names the UI group (a plain id, or a "/"-separated path
    when ids repeat across parents). ``collect`` limits which elements'
    latest input values populate the abstract event's map; None collects
    every element that received input. With ``drop_noise`` (the default)
    the whole run is replaced; without it, in-group events that did not
    contribute a kept value stay in the log ahead of the abstract event.
    """

    group: str
    trigger_activity: str
    abstract_name: str
    collect: Optional[tuple] = None
    drop_noise: bool = True

    def __post_init__(self):
        if not self.group:
            raise ValueError("rule needs a group id")
        if not self.trigger_activity:
            raise ValueError("trigger_activity must be non-empty")
        if not self.abstract_name:
            raise ValueError("abstract_name must be non-empty")
        if self.collect is not None:
            object.__setattr__(self, "collect", tuple(self.collect))


def _rule_location(log: UILog, rule: AbstractionRule) -> Target:
    """The location of the one UI group a rule names."""
    path = split_group_path(rule.group)
    hierarchy = log.hierarchy
    locations = (hierarchy.location_of(n) for n in hierarchy.ui_groups if n.id == path[-1])
    matches = [location for location in locations if location.groups[-len(path):] == path]
    if not matches:
        raise UnknownGroupError(f"no UI group matches {rule.group!r}")
    if len(matches) > 1:
        raise UnknownGroupError(
            f"{len(matches)} UI groups match {rule.group!r}; "
            "use a longer group path to disambiguate"
        )
    return matches[0]


def _rule_index(log: UILog, event: InteractionEvent, locations: list) -> Optional[int]:
    """Index of the first rule whose group subtree holds the event's
    resolved target, or None. The target's chain, rooted at its system
    only where it records an application (see UIHierarchy.lookup), must
    extend the group's location."""
    target = event.target
    if target is None or event.attributes.get(ABSTRACTED_KEY) is True:
        return None
    scope = target.system if target.application is not None else None
    for index, group in enumerate(locations):
        if (
            scope == group.system
            and target.application == group.application
            and target.groups[:len(group.groups)] == group.groups
        ):
            try:
                log.hierarchy.resolve(target)
            except DanglingReferenceError:
                return None
            return index
    return None


def _kept_positions(rule: AbstractionRule, run: list) -> dict:
    """Element id → run position of its latest collected input value."""
    kept: dict = {}
    for position, event in enumerate(run):
        if event.target is None or event.target.element is None:
            continue
        if event.input_value is None:
            continue
        if rule.collect is not None and event.target.element not in rule.collect:
            continue
        kept[event.target.element] = position
    return kept


def _abstract_event(
    rule: AbstractionRule, location: Target, run: list, kept: dict
) -> InteractionEvent:
    trigger = run[-1]
    order = kept if rule.collect is None else [eid for eid in rule.collect if eid in kept]
    return InteractionEvent(
        activity_name=rule.abstract_name,
        action=Action("none"),
        target=location,
        input_value={eid: run[kept[eid]].input_value for eid in order},
        timestamp=trigger.timestamp,
        user=trigger.user,
        task=trigger.task,
        attributes={ABSTRACTED_KEY: True},
    )


def _abstract_sequence(log: UILog, events: Iterable, rules, locations) -> list:
    out = []
    run: list = []
    active = None  # index into rules

    def flush_unabstracted():
        nonlocal run, active
        if run:
            warnings.warn(
                TriggerNeverFiresWarning(
                    f"run of {len(run)} event(s) in group "
                    f"{rules[active].group!r} never reached trigger "
                    f"{rules[active].trigger_activity!r}; left unabstracted"
                )
            )
            out.extend(run)
        run = []
        active = None

    for event in events:
        matched = _rule_index(log, event, locations)
        if matched is None:
            flush_unabstracted()
            out.append(event)
            continue
        if active is not None and matched != active:
            flush_unabstracted()
        active = matched
        run.append(event)
        rule = rules[matched]
        if event.activity_name == rule.trigger_activity:
            kept = _kept_positions(rule, run)
            if not rule.drop_noise:
                contributing = {*kept.values(), len(run) - 1}  # the trigger too
                out.extend(e for i, e in enumerate(run) if i not in contributing)
            out.append(_abstract_event(rule, locations[matched], run, kept))
            run = []
            active = None
    flush_unabstracted()
    return out


def abstract(log: UILog, rules: Union[AbstractionRule, Iterable[AbstractionRule]]) -> UILog:
    """Replace in-group runs with single task-level events.

    A run is a maximal stretch of consecutive events whose resolved
    target lies in a rule's group subtree; it is abstracted when it
    reaches the rule's trigger activity and otherwise passes through
    with a TriggerNeverFiresWarning (abstraction must not silently lose
    unconfirmed work). The abstract event carries the rule's name, the
    action type "none", the group as its target, the trigger's
    timestamp, and a map of each collected element's latest input value,
    so a mistyped password superseded later never surfaces.

    Event count never grows, output order follows input order, and the
    result validates whenever the input does. Applying the same rules
    twice is a no-op because abstract events are marked. Each trace of a
    traced log is abstracted on its own.
    """
    if isinstance(rules, AbstractionRule):
        rules = (rules,)
    rules = tuple(rules)
    locations = [_rule_location(log, rule) for rule in rules]

    traces = log.traces
    sequences = [range(len(log.events))] if traces is None else [t.events for t in traces]
    events, spans = [], []
    for sequence in sequences:
        start = len(events)
        events += _abstract_sequence(log, (log.events[i] for i in sequence), rules, locations)
        spans.append(tuple(range(start, len(events))))
    if traces is not None:
        traces = tuple(replace(trace, events=span) for trace, span in zip(traces, spans))
    return replace(log, events=tuple(events), traces=traces)


# ---------------------------------------------------------------------------
# Declarative files


def _parse_duration(text: str) -> timedelta:
    raw = text.strip().lower()
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    factor = 1.0
    if raw and raw[-1] in units:
        factor = units[raw[-1]]
        raw = raw[:-1]
    try:
        return timedelta(seconds=float(raw) * factor)
    except (ValueError, OverflowError):  # not a number, NaN, or beyond timedelta's range
        raise ValueError(f"bad duration {text!r}; use e.g. 90, 90s, 5m, 2h") from None


def _notion_from_section(section: Mapping) -> CaseNotion:
    kind = section.get("kind", "").strip().lower()
    if kind == "attribute":
        return ByAttribute(key=section.get("key", "").strip())
    if kind in ("time_gap", "gap"):
        return ByTimeGap(threshold=_parse_duration(section.get("threshold", "")))
    if kind == "marker":
        markers = [m.strip() for m in section.get("markers", "").split(",") if m.strip()]
        return ByMarker(markers=frozenset(markers))
    raise ValueError(f"unknown case notion kind {kind!r}")


def load_case_notion(text: str) -> CaseNotion:
    """Read a case notion from INI text.

    A single ``[notion]`` section declares one notion (``kind`` plus its
    parameters); multiple ``[notion:<label>]`` sections, in file order,
    form a composite.
    """
    return load_ini(text, "case notion", _notion_from_ini)


def _notion_from_ini(parser) -> CaseNotion:
    sections = [s for s in parser.sections() if s == "notion" or s.startswith("notion:")]
    if not sections:
        raise ValueError("no [notion] section found")
    notions = [_notion_from_section(parser[s]) for s in sections]
    if len(notions) == 1:
        return notions[0]
    return Composite(parts=tuple(notions))


def load_rules(text: str) -> tuple:
    """Read abstraction rules from INI text, one ``[rule:<label>]``
    section per rule, in file order."""
    return load_ini(text, "rules", _rules_from_ini)


def _rules_from_ini(parser) -> tuple:
    rules = []
    for name in parser.sections():
        if not (name == "rule" or name.startswith("rule:")):
            continue
        section = parser[name]
        collect = None
        if "collect" in section:
            collect = tuple(
                item.strip() for item in section["collect"].split(",") if item.strip()
            )
        rules.append(
            AbstractionRule(
                group=section.get("group", "").strip(),
                trigger_activity=section.get("trigger", "").strip(),
                abstract_name=section.get("name", "").strip(),
                collect=collect,
                drop_noise=section.getboolean("drop_noise", fallback=True),
            )
        )
    if not rules:
        raise ValueError("no [rule] sections found")
    return tuple(rules)
