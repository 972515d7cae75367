"""Case segmentation and UI-group event abstraction.

The model deliberately carries no case notion; these transforms add one
at the point of use. :func:`segment` partitions events into traces by an
attribute value, a time gap, or marker activities. :func:`abstract`
collapses runs of low-level events inside a UI group into one task-level
event (conventionally "A_"-prefixed), the way a login mask's keystrokes
become a single "A_Login".

Both notions and rules can be loaded from the same INI format the column
mappings use (:func:`uilog.model.load_ini`), so CLI pipelines can keep
them in files.
"""

from __future__ import annotations

import warnings
from datetime import timedelta
from functools import partial
from itertools import groupby
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    DanglingReferenceError,
    MissingCaseAttributeError,
    MissingTimestampsError,
    TriggerNeverFiresWarning,
    UILogError,
    UnknownGroupError,
)
from .extension import KEY_ABSTRACTED
from .model import (
    Action,
    InteractionEvent,
    Target,
    Trace,
    UILog,
    _Record,
    _trace_events,
    join_group_path,
    load_ini,
    split_group_path,
)

#: Marker attribute carried by events produced by :func:`abstract`, so a
#: second application never re-matches them as raw in-group runs.
ABSTRACTED_KEY = KEY_ABSTRACTED


# ---------------------------------------------------------------------------
# Case notions


class ByAttribute(_Record):
    """One trace per distinct value of an event attribute.

    ``key`` may be "user", "task", or any extension attribute key. Trace
    ids are the attribute values, text as itself and any other value as
    its repr; events with equal values of one type group together even
    when they do not touch, so 1, 1.0, True and "1" are four cases. Two
    cases whose values print alike, as 1 and "1" do, raise UILogError. A
    value of empty text counts as missing, as a trace id must be non-empty
    text.
    """

    __slots__ = ("key",)

    def __init__(self, key: str):
        if not key:
            raise ValueError("attribute key must be non-empty")
        _Record.__init__(self, key)


class ByTimeGap(_Record):
    """A new trace starts where the gap between consecutive events
    exceeds the threshold. Requires timestamps on every event."""

    __slots__ = ("threshold",)

    def __init__(self, threshold: Union[timedelta, int, float]):
        if isinstance(threshold, (int, float)):
            threshold = timedelta(seconds=threshold)
        if threshold <= timedelta(0):
            raise ValueError("gap threshold must be positive")
        _Record.__init__(self, threshold)


class ByMarker(_Record):
    """Activities that open a new case; events before the first marker
    form a leading trace of their own."""

    __slots__ = ("markers",)

    def __init__(self, markers: Iterable[str]):
        markers = frozenset(markers)
        if not markers:
            raise ValueError("marker set must be non-empty")
        _Record.__init__(self, markers)


class Composite(_Record):
    """Notions applied left to right, each refining the previous
    partition; trace ids join the part ids as a group path does
    (:func:`uilog.model.join_group_path`), with "/" between them and a
    "/" or "\\" inside one escaped by "\\", so distinct cases keep
    distinct ids."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable):
        parts = tuple(parts)
        if not parts:
            raise ValueError("composite notion needs at least one part")
        _Record.__init__(self, parts)


CaseNotion = Union[ByAttribute, ByTimeGap, ByMarker, Composite]


def _case_value(event: InteractionEvent, key: str):
    if key == "user":
        return event.user
    if key == "task":
        return event.task
    return event.attributes.get(key)


def _runs(items: Iterable, starts_run) -> list:
    """``items`` cut into maximal runs, in order: an item opens a new run
    where ``starts_run(previous item, item)`` holds."""
    runs: list = []
    for item in items:
        if not runs or starts_run(runs[-1][-1], item):
            runs.append([])
        runs[-1].append(item)
    return runs


def _partition(log: UILog, indices: Sequence[int], notion) -> list:
    """[(trace id, [indices])] for one event subsequence."""
    events = log.events
    if isinstance(notion, ByAttribute):
        missing = [i for i in indices if _case_value(events[i], notion.key) in (None, "")]
        if missing:
            raise MissingCaseAttributeError(
                f"{len(missing)} event(s) lack the case attribute {notion.key!r} "
                f"(first indices: {missing[:5]})",
                event_indices=missing,
            )
        # Each id holds the type of its values: 1 and "1" are two cases,
        # which one id would name.
        groups: dict = {}
        for i in indices:
            value = _case_value(events[i], notion.key)
            trace_id = value if isinstance(value, str) else repr(value)
            kind, run = groups.setdefault(trace_id, (type(value), []))
            if kind is not type(value):
                raise UILogError(
                    f"case attribute {notion.key!r} holds "
                    f"{_case_value(events[run[0]], notion.key)!r} (event {run[0]}) and "
                    f"{value!r} (event {i}), which would share the trace id {trace_id!r}"
                )
            run.append(i)
        return [(trace_id, run) for trace_id, (_, run) in groups.items()]
    if isinstance(notion, ByTimeGap):
        missing = [i for i in indices if events[i].timestamp is None]
        if missing:
            raise MissingTimestampsError(
                f"{len(missing)} event(s) lack timestamps "
                f"(first indices: {missing[:5]})",
                event_indices=missing,
            )
        gap = notion.threshold
        runs = _runs(indices, lambda a, b: events[b].timestamp - events[a].timestamp > gap)
        return [(f"case_{n}", run) for n, run in enumerate(runs, start=1)]
    if isinstance(notion, ByMarker):
        runs = _runs(indices, lambda a, b: events[b].activity_name in notion.markers)
        return [(f"case_{n}", run) for n, run in enumerate(runs, start=1)]
    if isinstance(notion, Composite):
        partition = [((), indices)]
        for part in notion.parts:
            partition = [((*path, trace_id), run) for path, group in partition
                         for trace_id, run in _partition(log, group, part)]
        return [(join_group_path(path), run) for path, run in partition]
    raise TypeError(f"not a case notion: {type(notion).__name__}")


def segment(log: UILog, notion: CaseNotion) -> UILog:
    """Partition a log's events into traces.

    Events are never created, dropped, or reordered: each trace lists its
    event indices in log order, and the traces cover the log exactly.
    Any existing partition is replaced. Trace ids are deterministic: the
    attribute value for ByAttribute, "case_<n>" ordinals for gaps and
    markers, the parts' ids joined with "/", each escaped as in a group
    path, for composites.
    """
    parts = _partition(log, range(len(log.events)), notion)
    traces = tuple(Trace(id=trace_id, events=tuple(run)) for trace_id, run in parts)
    return UILog(log.events, log.hierarchy, log.users, log.tasks, log.attributes, traces)


# ---------------------------------------------------------------------------
# Abstraction


class AbstractionRule(_Record):
    """Collapse in-group runs that end with a trigger activity.

    ``group`` names the UI group (a plain id, or a "/"-separated path
    when ids repeat across parents). ``collect`` limits which elements'
    latest input values populate the abstract event's map; None collects
    every element that received input. With ``drop_noise`` (the default)
    the whole run is replaced; without it, in-group events that did not
    contribute a kept value stay in the log ahead of the abstract event.
    """

    __slots__ = ("group", "trigger_activity", "abstract_name", "collect", "drop_noise")

    def __init__(self, group: str, trigger_activity: str, abstract_name: str,
                 collect: Optional[Iterable[str]] = None, drop_noise: bool = True):
        if not group:
            raise ValueError("rule needs a group id")
        if not trigger_activity:
            raise ValueError("trigger_activity must be non-empty")
        if not abstract_name:
            raise ValueError("abstract_name must be non-empty")
        collect = None if collect is None else tuple(collect)
        _Record.__init__(self, group, trigger_activity, abstract_name, collect, drop_noise)


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


def _after_trigger(trigger: str, previous: InteractionEvent, event) -> bool:
    return previous.activity_name == trigger


def _abstract_sequence(log: UILog, events: Iterable, rules, locations) -> list:
    """``events`` with each run that reaches its rule's trigger
    abstracted; see :func:`abstract`."""
    out = []
    for index, stretch in groupby(events, partial(_rule_index, log, locations=locations)):
        if index is None:
            out.extend(stretch)
            continue
        rule = rules[index]
        for run in _runs(stretch, partial(_after_trigger, rule.trigger_activity)):
            if run[-1].activity_name != rule.trigger_activity:
                warnings.warn(
                    TriggerNeverFiresWarning(
                        f"run of {len(run)} event(s) in group {rule.group!r} never "
                        f"reached trigger {rule.trigger_activity!r}; left unabstracted"
                    )
                )
                out.extend(run)
                continue
            kept = _kept_positions(rule, run)
            if not rule.drop_noise:
                contributing = {*kept.values(), len(run) - 1}  # the trigger too
                out.extend(e for i, e in enumerate(run) if i not in contributing)
            out.append(_abstract_event(rule, locations[index], run, kept))
    return out


def abstract(log: UILog, rules: Union[AbstractionRule, Iterable[AbstractionRule]]) -> UILog:
    """Replace in-group runs with single task-level events.

    Consecutive events whose resolved target lies in the group subtree
    of the same rule (the first that matches) form a stretch, cut into
    runs after each occurrence of the rule's trigger activity. Each run
    that ends in the trigger is abstracted; a last run that does not
    passes through with a TriggerNeverFiresWarning (abstraction must not
    silently lose unconfirmed work). The abstract event carries the
    rule's name, the action type "none", the group as its target, the
    trigger's timestamp, and a map of each collected element's latest
    input value, so a mistyped password superseded later never surfaces.

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
    sequences = [log.events] if traces is None else [_trace_events(log, t) for t in traces]
    events, spans = [], []
    for sequence in sequences:
        start = len(events)
        events += _abstract_sequence(log, sequence, rules, locations)
        spans.append(tuple(range(start, len(events))))
    if traces is not None:
        traces = tuple(Trace(t.id, span, t.attributes) for t, span in zip(traces, spans))
    return UILog(events, log.hierarchy, log.users, log.tasks, log.attributes, traces)


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
