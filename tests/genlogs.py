"""Seeded random log generator shared by property and acceptance tests."""

import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone

from uilog import (
    Action,
    ApplicationNode,
    HierarchyBuilder,
    InteractionEvent,
    SystemNode,
    Trace,
    UIHierarchy,
    UILog,
)

_WORDS = [
    "panel", "node", "btn ok", "dd type", "tree", "form", "tab", "körbe",
    "field-7", "αβγ", "a/b", "back\\slash", "row 0", "input", "menu", "grid",
]
_ACTIONS = ["left click", "right click", "input", "KEY_F5", "scroll", "none"]
_EPOCH = datetime(2023, 5, 4, 12, 0, 0, tzinfo=timezone.utc)


def _ident(rng, prefix=""):
    return prefix + rng.choice(_WORDS) + str(rng.randrange(10))


def _value(rng, depth=0):
    kinds = ["str", "int", "float", "bool", "ts"]
    if depth < 2:
        kinds += ["list", "map"]
    kind = rng.choice(kinds)
    if kind == "str":
        return _ident(rng)
    if kind == "int":
        return rng.randrange(-(2**40), 2**40)
    if kind == "float":
        return round(rng.uniform(-1e6, 1e6), 6)
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "ts":
        return _EPOCH + timedelta(milliseconds=rng.randrange(10**9))
    if kind == "list":
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {_ident(rng, f"k{i}-"): _value(rng, depth + 1) for i in range(rng.randrange(1, 4))}


def _attributes(rng, chance=0.4):
    if rng.random() > chance:
        return {}
    return {_ident(rng, f"x:{i}-"): _value(rng) for i in range(rng.randrange(1, 3))}


def _chains(rng, builder):
    """Register a pool of target locations, each with the element state
    its events record (or None); chain length stays <= 5."""
    chains = []
    for _ in range(rng.randrange(1, 12)):
        system = _ident(rng, "sys-") if rng.random() < 0.3 else None
        application = _ident(rng, "app-") if rng.random() < 0.5 else None
        used = (system is not None) + (application is not None)
        max_groups = min(3, 4 - used)
        n_groups = rng.randrange(0, max_groups + 1)
        groups = tuple(_ident(rng, "g-") for _ in range(n_groups))
        element = _ident(rng, "el-") if rng.random() < 0.7 else None
        if element is None and not groups and application is None and system is None:
            element = _ident(rng, "el-")
        state = _value(rng) if element is not None and rng.random() < 0.3 else None
        target = builder.chain(
            system=system,
            application=application,
            groups=groups,
            element=element,
            system_attributes=_attributes(rng, 0.2),
            application_attributes=_attributes(rng, 0.2),
            element_attributes=_attributes(rng, 0.2),
        )
        chains.append((target, state))
    return chains


def random_log(rng: random.Random, max_events: int = 500) -> UILog:
    """A structurally valid random log: ordered timestamps, resolvable
    references, optionally traced (contiguous or interleaved)."""
    builder = HierarchyBuilder()
    chains = _chains(rng, builder)
    users = {f"user-{i}": _attributes(rng) for i in range(rng.randrange(3))}
    tasks = {f"task-{i}": _attributes(rng) for i in range(rng.randrange(3))}

    n_events = rng.randrange(0, max_events + 1)
    clock = _EPOCH
    with_timestamps = rng.random() < 0.8
    events = []
    for _ in range(n_events):
        target, state = rng.choice(chains + [(None, None)])
        action = Action(rng.choice(_ACTIONS), attributes=_attributes(rng, 0.2)) \
            if rng.random() < 0.8 else None
        timestamp = None
        if with_timestamps and rng.random() < 0.9:
            clock += timedelta(milliseconds=rng.randrange(0, 90_000))
            timestamp = clock
        name = (
            f"{action.action_type} {target.most_specific_id}"
            if action and target
            else _ident(rng, "act-")
        )
        events.append(
            InteractionEvent(
                activity_name=name,
                action=action,
                target=target,
                input_value=_value(rng) if rng.random() < 0.4 else None,
                current_state=state,
                timestamp=timestamp,
                user=rng.choice(list(users)) if users and rng.random() < 0.6 else None,
                task=rng.choice(list(tasks)) if tasks and rng.random() < 0.4 else None,
                attributes=_attributes(rng, 0.3),
            )
        )

    traces = None
    if events and rng.random() < 0.5:
        n_traces = rng.randrange(1, min(6, len(events)) + 1)
        buckets = [[] for _ in range(n_traces)]
        if rng.random() < 0.5:  # contiguous chunks
            bounds = sorted(rng.sample(range(1, len(events)), n_traces - 1)) \
                if n_traces > 1 else []
            start = 0
            for i, end in enumerate(list(bounds) + [len(events)]):
                buckets[i] = list(range(start, end))
                start = end
        else:  # interleaved assignment
            for index in range(len(events)):
                buckets[rng.randrange(n_traces)].append(index)
        traces = tuple(
            Trace(id=f"t{i}", events=tuple(bucket), attributes=_attributes(rng, 0.3))
            for i, bucket in enumerate(buckets)
        )

    return UILog(
        events=tuple(events),
        hierarchy=builder.build(),
        users=users,
        tasks=tasks,
        attributes=_attributes(rng, 0.5),
        traces=traces,
    )


def timestamped_log(rng: random.Random, max_events: int = 80) -> UILog:
    """Untraced log where every event has a timestamp and a user, the
    input shape segmentation needs."""
    builder = HierarchyBuilder()
    chains = _chains(rng, builder)
    users = {f"user-{i}": {} for i in range(rng.randrange(1, 4))}
    clock = _EPOCH
    events = []
    for _ in range(rng.randrange(1, max_events + 1)):
        clock += timedelta(seconds=rng.choice([0, 1, 2, 5, 30, 90, 400]))
        name = _ident(rng, "act-")
        target, state = rng.choice(chains + [(None, None)])
        events.append(
            InteractionEvent(
                activity_name=name,
                target=target,
                current_state=state,
                timestamp=clock,
                user=rng.choice(list(users)),
            )
        )
    return UILog(events=tuple(events), hierarchy=builder.build(), users=users)


def referenced_users(log: UILog) -> dict:
    used = {e.user for e in log.events if e.user is not None}
    return {ref: attributes for ref, attributes in log.users.items() if ref in used}


def referenced_tasks(log: UILog) -> dict:
    used = {e.task for e in log.events if e.task is not None}
    return {ref: attributes for ref, attributes in log.tasks.items() if ref in used}


def assert_equivalent(a: UILog, b: UILog) -> None:
    """Equality on everything the interchange round trip promises:
    events (names, timestamps, actions, target chains, input values,
    user/task ids, extension attributes), trace partition, log
    attributes, and the referenced user/task registries."""
    assert len(a.events) == len(b.events)
    if a.traces is None:
        assert b.traces is None
        assert a.events == b.events
    else:
        assert b.traces is not None
        assert [t.id for t in a.traces] == [t.id for t in b.traces]
        for ta, tb in zip(a.traces, b.traces):
            assert ta.attributes == tb.attributes
            assert [a.events[i] for i in ta.events] == [b.events[i] for i in tb.events]
    assert referenced_users(a) == referenced_users(b)
    assert referenced_tasks(a) == referenced_tasks(b)
    assert a.attributes == b.attributes


def rebuilt_by_constructors(log: UILog) -> UILog:
    """``log`` with every event, action and hierarchy node passed through
    its public constructor again (``dataclasses.replace``), which checks
    and normalizes every value."""
    rebuilt = {}

    def rebuild(node):
        if node is None:
            return None
        if id(node) not in rebuilt:
            if isinstance(node, SystemNode):
                rebuilt[id(node)] = replace(node)
            elif isinstance(node, ApplicationNode):
                rebuilt[id(node)] = replace(node, system=rebuild(node.system))
            else:
                rebuilt[id(node)] = replace(node, parent=rebuild(node.parent))
        return rebuilt[id(node)]

    h = log.hierarchy
    hierarchy = UIHierarchy(
        *(tuple(map(rebuild, nodes)) for nodes in (h.systems, h.applications, h.ui_groups, h.ui_elements))
    )
    events = tuple(
        replace(e, action=None if e.action is None else replace(e.action)) for e in log.events
    )
    return replace(log, events=events, hierarchy=hierarchy)
