"""Contract of the record classes of ``model``, ``validation``, ``tabular``
and ``transform``: how each one constructs, prints, compares, hashes,
copies and pickles, and that its fields cannot be set or deleted. The
module needs only the standard library; without pytest, run it as a
script::

    PYTHONPATH=src python3.10 tests/test_records.py
"""

import copy
import pickle
from datetime import datetime, timedelta, timezone

from uilog.model import (
    Action,
    ApplicationNode,
    InteractionEvent,
    SystemNode,
    Target,
    Trace,
    UIElementNode,
    UIGroupNode,
    UIHierarchy,
    UILog,
)
from uilog.tabular import ColumnMapping, IngestReport
from uilog.transform import AbstractionRule, ByAttribute, ByMarker, ByTimeGap, Composite
from uilog.validation import Coverage, LogProfile, ValidationReport, Violation, ViolationCode

_OS = "SystemNode(id='s', attributes={'os': 'linux'})"
_APP = f"ApplicationNode(id='app', system={_OS}, attributes={{}})"
_GROUP = f"UIGroupNode(id='g', parent={_APP}, attributes={{'tab': 1}})"
_ELEMENT = f"UIElementNode(id='e', parent={_GROUP}, attributes={{}})"
_BARE_EVENT = (
    "InteractionEvent(activity_name='a', action=None, target=None, input_value=None, "
    "current_state=None, timestamp=None, user=None, task=None, attributes={})"
)


def system():
    return SystemNode("s", {"os": "linux"})


def application():
    return ApplicationNode("app", system())


def group():
    return UIGroupNode("g", application(), {"tab": 1})


def element():
    return UIElementNode("e", group())


def hierarchy():
    e = element()
    return UIHierarchy([e.parent.parent.system], [e.parent.parent], [e.parent], [e])


#: One sample per record class: a factory that builds it afresh, its
#: fields in order, and its repr.
SAMPLES = [
    (system, ("id", "attributes"), _OS),
    (application, ("id", "system", "attributes"), _APP),
    (group, ("id", "parent", "attributes"), _GROUP),
    (element, ("id", "parent", "attributes"), _ELEMENT),
    (
        lambda: Target("e", ["g"], "app", "s"),
        ("element", "groups", "application", "system"),
        "Target(element='e', groups=('g',), application='app', system='s')",
    ),
    (
        hierarchy,
        ("systems", "applications", "ui_groups", "ui_elements"),
        f"UIHierarchy(systems=({_OS},), applications=({_APP},), ui_groups=({_GROUP},), "
        f"ui_elements=({_ELEMENT},))",
    ),
    (
        lambda: Action("click", {"button": "left"}),
        ("action_type", "attributes"),
        "Action(action_type='click', attributes={'button': 'left'})",
    ),
    (
        lambda: InteractionEvent(
            "click e", Action("click"), Target("e"), "typed", ["x", "y"],
            datetime(2024, 1, 2, 3, 4, 5, 678901, tzinfo=timezone.utc), "u1", "t1", {"n": 1.5},
        ),
        ("activity_name", "action", "target", "input_value", "current_state", "timestamp",
         "user", "task", "attributes"),
        "InteractionEvent(activity_name='click e', action=Action(action_type='click', "
        "attributes={}), target=Target(element='e', groups=(), application=None, system=None), "
        "input_value='typed', current_state=['x', 'y'], timestamp=datetime.datetime(2024, 1, 2, "
        "3, 4, 5, 678000, tzinfo=datetime.timezone.utc), user='u1', task='t1', "
        "attributes={'n': 1.5})",
    ),
    (
        lambda: Trace("c1", [0], {"kind": "case"}),
        ("id", "events", "attributes"),
        "Trace(id='c1', events=(0,), attributes={'kind': 'case'})",
    ),
    (
        lambda: UILog(
            [InteractionEvent("a")], UIHierarchy(), {"u1": {"role": "clerk"}}, {"t1": {}},
            {"source": "test"}, [Trace("c1", (0,))],
        ),
        ("events", "hierarchy", "users", "tasks", "attributes", "traces"),
        f"UILog(events=({_BARE_EVENT},), hierarchy=UIHierarchy(systems=(), applications=(), "
        "ui_groups=(), ui_elements=()), users={'u1': {'role': 'clerk'}}, tasks={'t1': {}}, "
        "attributes={'source': 'test'}, traces=(Trace(id='c1', events=(0,), attributes={}),))",
    ),
    (
        lambda: Violation(ViolationCode.MISSING_ACTIVITY_NAME, 0, None, "no name"),
        ("code", "event_index", "node_id", "message"),
        "Violation(code=<ViolationCode.MISSING_ACTIVITY_NAME: 'MissingActivityName'>, "
        "event_index=0, node_id=None, message='no name')",
    ),
    (
        lambda: ValidationReport([Violation(ViolationCode.DUPLICATE_ID, node_id="g")], 1, 4),
        ("violations", "checked_events", "checked_nodes"),
        "ValidationReport(violations=(Violation(code=<ViolationCode.DUPLICATE_ID: "
        "'DuplicateId'>, event_index=None, node_id='g', message=''),), checked_events=1, "
        "checked_nodes=4)",
    ),
    (
        lambda: Coverage(1, 2),
        ("events_present", "events_total"),
        "Coverage(events_present=1, events_total=2)",
    ),
    (
        lambda: LogProfile(1, 2, 3, 4, 5, 6, 7, 8),
        ("events", "distinct_activities", "distinct_action_types", "systems", "applications",
         "ui_groups", "ui_elements", "traces"),
        "LogProfile(events=1, distinct_activities=2, distinct_action_types=3, systems=4, "
        "applications=5, ui_groups=6, ui_elements=7, traces=8)",
    ),
    (
        lambda: ColumnMapping(
            activity_name="Activity", input_value="Input", value_parsers={"Input": "list"},
            extras="ignore",
        ),
        ("activity_name", "action_type", "ui_element", "ui_group_path", "application", "system",
         "input_value", "current_state", "timestamp", "user", "task", "timestamp_format",
         "value_parsers", "extras"),
        "ColumnMapping(activity_name='Activity', action_type=None, ui_element=None, "
        "ui_group_path=None, application=None, system=None, input_value='Input', "
        "current_state=None, timestamp=None, user=None, task=None, timestamp_format=None, "
        "value_parsers={'Input': 'list'}, extras='ignore')",
    ),
    (
        lambda: IngestReport(3, ("row 2: empty row",), ("row 3: kept as text",)),
        ("rows_read", "rows_skipped", "warnings"),
        "IngestReport(rows_read=3, rows_skipped=('row 2: empty row',), "
        "warnings=('row 3: kept as text',))",
    ),
    (lambda: ByAttribute("user"), ("key",), "ByAttribute(key='user')"),
    (
        lambda: ByTimeGap(90),
        ("threshold",),
        "ByTimeGap(threshold=datetime.timedelta(seconds=90))",
    ),
    (lambda: ByMarker(["start"]), ("markers",), "ByMarker(markers=frozenset({'start'}))"),
    (
        lambda: Composite([ByAttribute("user"), ByMarker({"start"})]),
        ("parts",),
        "Composite(parts=(ByAttribute(key='user'), ByMarker(markers=frozenset({'start'}))))",
    ),
    (
        lambda: AbstractionRule("login", "click ok", "A_Login", ["user", "pass"], False),
        ("group", "trigger_activity", "abstract_name", "collect", "drop_noise"),
        "AbstractionRule(group='login', trigger_activity='click ok', abstract_name='A_Login', "
        "collect=('user', 'pass'), drop_noise=False)",
    ),
]

#: The samples none of whose fields holds a dict, directly or inside.
HASHABLE = {
    Target, Violation, ValidationReport, Coverage, LogProfile, IngestReport,
    ByAttribute, ByTimeGap, ByMarker, Composite, AbstractionRule,
}

#: Per record class: the arguments it cannot do without, and the value
#: of every other field when only those are given.
DEFAULTS = [
    (SystemNode, ("s",), {"attributes": {}}),
    (ApplicationNode, ("a",), {"system": None, "attributes": {}}),
    (UIGroupNode, ("g",), {"parent": None, "attributes": {}}),
    (UIElementNode, ("e",), {"parent": None, "attributes": {}}),
    (Target, (), {"element": None, "groups": (), "application": None, "system": None}),
    (UIHierarchy, (), {"systems": (), "applications": (), "ui_groups": (), "ui_elements": ()}),
    (Action, ("click",), {"attributes": {}}),
    (InteractionEvent, ("a",), {
        "action": None, "target": None, "input_value": None, "current_state": None,
        "timestamp": None, "user": None, "task": None, "attributes": {},
    }),
    (Trace, ("t",), {"events": (), "attributes": {}}),
    (UILog, (), {
        "events": (), "hierarchy": UIHierarchy(), "users": {}, "tasks": {}, "attributes": {},
        "traces": None,
    }),
    (Violation, (ViolationCode.CYCLE_DETECTED,),
     {"event_index": None, "node_id": None, "message": ""}),
    (ValidationReport, (), {"violations": (), "checked_events": 0, "checked_nodes": 0}),
    (Coverage, (), {"events_present": 0, "events_total": 0}),
    (LogProfile, (), {
        "events": 0, "distinct_activities": 0, "distinct_action_types": 0, "systems": 0,
        "applications": 0, "ui_groups": 0, "ui_elements": 0, "traces": None,
    }),
    (ColumnMapping, (), {
        **dict.fromkeys(("activity_name", "action_type", "ui_element", "ui_group_path",
                         "application", "system", "input_value", "current_state", "timestamp",
                         "user", "task", "timestamp_format")),
        "value_parsers": {}, "extras": "keep",
    }),
    (IngestReport, (), {"rows_read": 0, "rows_skipped": (), "warnings": ()}),
    (ByAttribute, ("k",), {}),
    (ByTimeGap, (timedelta(seconds=5),), {}),
    (ByMarker, ({"m"},), {}),
    (Composite, ((ByAttribute("k"),),), {}),
    (AbstractionRule, ("g", "t", "A"), {"collect": None, "drop_noise": True}),
]

#: Two records of different classes whose fields hold equal values.
LOOKALIKES = [
    (UIGroupNode("x"), UIElementNode("x")),
    (ApplicationNode("x"), UIGroupNode("x")),
]


def test_every_record_class_has_a_sample():
    classes = {make().__class__ for make, _, _ in SAMPLES}
    assert classes == {cls for cls, _, _ in DEFAULTS}
    assert len(classes) == len(SAMPLES) == 21


def test_repr_names_every_field_in_order():
    for make, _, text in SAMPLES:
        assert repr(make()) == text


def test_equal_fields_compare_equal_within_a_class_only():
    records = [make() for make, _, _ in SAMPLES]
    for i, (make, _, _) in enumerate(SAMPLES):
        assert make() == records[i] and not make() != records[i]
        for j, other in enumerate(records):
            if i != j:
                assert records[i] != other and not records[i] == other
    for a, b in LOOKALIKES:
        assert a.__eq__(b) is NotImplemented
        assert a != b and b != a and not a == b
    assert ByAttribute("user") != ByAttribute("other")
    assert Target("e") != Target("e", ("g",))
    assert InteractionEvent("a", attributes={"k": 1}) != InteractionEvent("a", attributes={"k": 2})


def test_hash_follows_the_fields_and_refuses_dicts():
    for make, _, _ in SAMPLES:
        record = make()
        if type(record) in HASHABLE:
            assert hash(record) == hash(make())
        else:
            try:
                hash(record)
            except TypeError:
                continue
            raise AssertionError(f"{record!r} is hashable")
    assert hash(UIHierarchy()) == hash(UIHierarchy([], [], [], []))
    assert Target("e", ["g"]) == Target("e", ("g",))
    assert len({Target("e", ["g"]), Target("e", ("g",)), Target("f")}) == 2


def test_fields_cannot_be_set_or_deleted():
    for make, fields, _ in SAMPLES:
        record = make()
        for name in fields:
            before = getattr(record, name)
            for change in (lambda: setattr(record, name, None), lambda: delattr(record, name)):
                try:
                    change()
                except AttributeError:
                    pass
                else:
                    raise AssertionError(f"{type(record).__name__}.{name} changed")
            assert getattr(record, name) is before


def test_copies_and_pickles_are_equal():
    for make, _, text in SAMPLES:
        record = make()
        copies = [copy.copy(record), copy.deepcopy(record)]
        copies += [
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
        ]
        for again in copies:
            assert type(again) is type(record)
            assert again == record and repr(again) == text


def test_positional_and_keyword_construction_agree():
    for make, fields, _ in SAMPLES:
        record = make()
        values = [getattr(record, name) for name in fields]
        cls = type(record)
        assert cls(*values) == record
        assert cls(**dict(zip(fields, values))) == record
        try:
            cls(*values, None)
        except TypeError:
            pass
        else:
            raise AssertionError(f"{cls.__name__} takes more than its fields")


def test_defaults_are_todays_and_default_dicts_are_fresh():
    for cls, required, defaults in DEFAULTS:
        first, second = cls(*required), cls(*required)
        for name, value in defaults.items():
            assert getattr(first, name) == value, (cls.__name__, name)
            if isinstance(value, dict):
                assert getattr(first, name) is not getattr(second, name), (cls.__name__, name)
        if required:
            try:
                cls(*required[:-1])
            except TypeError:
                continue
            raise AssertionError(f"{cls.__name__} built without {len(required)} arguments")


if __name__ == "__main__":
    tests = [test for name, test in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} record contract tests passed over {len(SAMPLES)} record classes")
