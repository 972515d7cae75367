import math
import random
import tracemalloc
import warnings
from datetime import datetime, timezone
from xml.etree import ElementTree as ET

import pytest
from hypothesis import assume, given, settings, strategies as st

from uilog import (
    Action,
    HierarchyBuilder,
    InteractionEvent,
    InvalidLogError,
    MalformedDocumentError,
    MissingConceptNameError,
    Target,
    Trace,
    UILog,
    UILogError,
    UnserializableValueError,
    emit_extension_definition,
    read_xes,
    validate,
    write_xes,
    xes,
)
from uilog.fixtures import keyword_creation_log, raw_login_log

import genlogs
import keyword_log


def attribute_map(event_element):
    return {child.get("key"): child for child in event_element}


def events_of(document):
    root = ET.fromstring(document)
    return [e for t in root.iter("trace") for e in t.iter("event")]


class TestWrite:
    def test_empty_log_document_shape(self):
        root = ET.fromstring(write_xes(UILog()))
        assert root.tag == "log"
        declared = [(e.get("prefix"), e.get("name")) for e in root.iter("extension")]
        assert ("concept", "Concept") in declared
        assert ("time", "Time") in declared
        assert ("uilog", "UILog") in declared
        assert list(root.iter("trace")) == []

    def test_input_name_event_mapping(self):
        log = keyword_log.build_by_hand()
        event = events_of(write_xes(log))[10]
        attrs = attribute_map(event)
        assert attrs["concept:name"].get("value") == "input name"
        assert attrs["uilog:action-type"].get("value") == "input"
        assert attrs["uilog:ui-element"].get("value") == "name"
        assert attrs["uilog:ui-group-path"].get("value") == "fpanel keyword"
        assert attrs["uilog:input-value"].get("value") == "MyKeyword"

    def test_nested_groups_flatten_to_path(self):
        b = HierarchyBuilder()
        target = b.chain(application="Excel", groups=("workbook1", "sheet1"), element="A1")
        log = UILog(events=(InteractionEvent("select A1", target=target),), hierarchy=b.build())
        attrs = attribute_map(events_of(write_xes(log))[0])
        assert attrs["uilog:ui-group-path"].get("value") == "workbook1/sheet1"
        assert attrs["uilog:application"].get("value") == "Excel"

    def test_untraced_log_gets_artificial_trace_and_flag(self):
        log = UILog(events=(InteractionEvent("a"),))
        root = ET.fromstring(write_xes(log))
        assert len(list(root.iter("trace"))) == 1
        flags = [e for e in root if e.get("key") == "uilog:untraced"]
        assert flags and flags[0].get("value") == "true"

    def test_invalid_log_rejected(self):
        log = UILog(events=(InteractionEvent(""),))
        with pytest.raises(InvalidLogError) as error:
            write_xes(log)
        assert error.value.report is not None
        assert write_xes(log, check=False)  # lenient mode still writes

    def test_timestamps_use_explicit_utc_offset(self):
        ts = datetime(2024, 5, 1, 8, 30, 15, 123000, tzinfo=timezone.utc)
        log = UILog(events=(InteractionEvent("a", timestamp=ts),))
        attrs = attribute_map(events_of(write_xes(log))[0])
        assert attrs["time:timestamp"].get("value") == "2024-05-01T08:30:15.123+00:00"


class TestRead:
    def test_group_only_event_resolves_to_group(self):
        document = """<?xml version="1.0"?>
        <log>
          <trace>
            <event>
              <string key="concept:name" value="KEY_F5 explorer tree"/>
              <string key="uilog:action-type" value="KEY_F5"/>
              <string key="uilog:ui-group-path" value="explorer tree"/>
            </event>
          </trace>
        </log>"""
        log = read_xes(document)
        node = log.hierarchy.resolve(log.events[0].target)
        assert node.id == "explorer tree"
        assert type(node).__name__ == "UIGroupNode"

    def test_minimal_event(self):
        document = '<log><trace><event><string key="concept:name" value="a"/></event></trace></log>'
        log = read_xes(document)
        event = log.events[0]
        assert event.activity_name == "a"
        assert event.action is None and event.target is None
        assert event.timestamp is None

    def test_missing_concept_name_raises(self):
        document = '<log><trace><event><string key="x" value="1"/></event></trace></log>'
        with pytest.raises(MissingConceptNameError):
            read_xes(document)
        log = read_xes(document, lenient_names=True)
        assert log.events[0].activity_name == ""

    def test_malformed_xml(self):
        with pytest.raises(MalformedDocumentError):
            read_xes("<log><trace>")
        with pytest.raises(MalformedDocumentError):
            read_xes("<notalog/>")

    def test_namespaced_document(self):
        document = """<log xmlns="http://www.xes-standard.org/">
          <trace><event><string key="concept:name" value="a"/></event></trace>
        </log>"""
        assert read_xes(document).events[0].activity_name == "a"

    def test_same_element_id_under_different_paths_stays_distinct(self):
        document = """<log><trace>
          <event>
            <string key="concept:name" value="a"/>
            <string key="uilog:ui-element" value="A1"/>
            <string key="uilog:ui-group-path" value="sheet1"/>
          </event>
          <event>
            <string key="concept:name" value="b"/>
            <string key="uilog:ui-element" value="A1"/>
            <string key="uilog:ui-group-path" value="sheet2"/>
          </event>
        </trace></log>"""
        log = read_xes(document)
        assert len(log.hierarchy.ui_elements) == 2

    def test_structural_elements_are_skipped(self):
        document = """<log xes.version="1849-2016">
          <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>
          <global scope="event"><string key="concept:name" value="UNKNOWN"/></global>
          <classifier name="activity" keys="concept:name"/>
          <string key="source" value="recorder-x"/>
          <trace>
            <event><string key="concept:name" value="a"/></event>
          </trace>
        </log>"""
        log = read_xes(document)
        assert [e.activity_name for e in log.events] == ["a"]
        assert log.attributes == {"source": "recorder-x"}

    def test_finer_precision_truncated_with_warning(self):
        document = """<log><trace><event>
          <string key="concept:name" value="a"/>
          <date key="time:timestamp" value="2024-05-01T08:30:15.123456789Z"/>
        </event></trace></log>"""
        with pytest.warns(UserWarning, match="truncated"):
            log = read_xes(document)
        assert log.events[0].timestamp.microsecond == 123000


BAD_VALUES = {
    "int-not-a-number": '<int key="n" value="abc"/>',
    "int-above-64-bit": f'<int key="n" value="{2**63}"/>',
    "int-below-64-bit": f'<int key="n" value="{-(2**63) - 1}"/>',
    "float-not-a-number": '<float key="x" value="zz"/>',
    "empty-element-id": '<string key="uilog:ui-element" value=""/>',
    "empty-group-id": '<string key="uilog:ui-group-path" value="a//b"/>',
    "empty-application-id": '<string key="uilog:application" value=""/>',
    "empty-system-id": '<string key="uilog:system" value=""/>',
    "empty-user-id": '<string key="uilog:user" value=""/>',
    "empty-task-id": '<string key="uilog:task" value=""/>',
    "empty-action-type": '<string key="uilog:action-type" value=""/>',
    "timestamp-after-range-in-utc": '<date key="time:timestamp" value="9999-12-31T23:59:59-01:00"/>',
    "date-before-range-in-utc": '<date key="d" value="0001-01-01T00:00:00+01:00"/>',
}


@pytest.mark.parametrize("attribute", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
def test_bad_values_are_located_document_errors(attribute):
    document = (
        '<log><trace><string key="concept:name" value="t"/>'
        '<event><string key="concept:name" value="ok"/></event>'
        f'<event><string key="concept:name" value="a"/>{attribute}</event>'
        "</trace></log>"
    )
    with pytest.raises(MalformedDocumentError, match="trace 0, event 1"):
        read_xes(document)


@pytest.mark.parametrize(
    "document,where",
    [
        ('<log><trace><string key="" value="x"/></trace></log>', "trace 0"),
        ('<log><string key="" value="x"/><trace/></log>', "log"),
        ('<log><string key="a" value="\ud800"/></log>', "not well-formed"),
        (
            '<log><trace><event><string key="concept:name" value="a"/></event></trace>'
            '<event><string key="concept:name" value="b"/></event></log>',
            "log event 1: an event outside every trace",
        ),
        (
            '<log><string key="uilog:untraced" value="false"/>'
            '<trace><event><string key="concept:name" value="a"/></event></trace>'
            '<trace><event><string key="concept:name" value="b"/></event></trace></log>',
            "log: uilog:untraced must be a boolean, got 'false'",
        ),
    ],
    ids=["empty-trace-key", "empty-log-key", "lone-surrogate", "event-beside-traces",
         "untraced-not-boolean"],
)
def test_bad_documents_outside_events_are_document_errors(document, where):
    with pytest.raises(MalformedDocumentError, match=where):
        read_xes(document)


@pytest.mark.parametrize("untraced", ["", '<boolean key="uilog:untraced" value="true"/>'],
                         ids=["no-traces", "untraced-wrapper"])
def test_events_directly_under_log_load_where_no_trace_partitions(untraced):
    event = '<event><string key="concept:name" value="{}"/></event>'
    wrapped = f"<trace>{event.format('b')}</trace>" if untraced else event.format("b")
    log = read_xes(f"<log>{untraced}{event.format('a')}{wrapped}</log>")
    assert [e.activity_name for e in log.events] == ["a", "b"]
    assert log.traces is None
    assert validate(log).ok


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_attribute_value_reads_or_raises_a_uilog_error(data):
    log = genlogs.random_log(random.Random(data.draw(st.integers(0, 99))), max_events=8)
    root = ET.fromstring(write_xes(log))
    valued = [node for node in root.iter() if node.get("value") is not None]
    assume(valued)
    node = data.draw(st.sampled_from(valued))
    node.set("value", data.draw(st.text(max_size=12)))
    try:
        read_xes(ET.tostring(root, encoding="unicode"))
    except UILogError:
        pass


# Dates in the first and last days of the datetime range, with offsets
# that may move them outside it in UTC.
_EDGE_DATES = st.builds(
    lambda year, day, time, offset: f"{year:04d}-{day}T{time}{offset}",
    st.sampled_from([1, 2, 9998, 9999]),
    st.sampled_from(["01-01", "12-31"]),
    st.sampled_from(["00:00:00", "00:59:59.999", "23:00:00", "23:59:59.9999"]),
    st.one_of(
        st.sampled_from(["", "Z"]),
        st.builds(lambda sign, hours, minutes: f"{sign}{hours:02d}:{minutes:02d}",
                  st.sampled_from("+-"), st.integers(0, 23), st.integers(0, 59)),
    ),
)
_DATE_PLACES = [
    '<log>{}<trace><event><string key="concept:name" value="a"/></event></trace></log>',
    '<log><trace>{}<event><string key="concept:name" value="a"/></event></trace></log>',
    '<log><trace><event><string key="concept:name" value="a"/>{}</event></trace></log>',
    '<log><trace><event><string key="concept:name" value="a"/>'
    '<string key="uilog:ui-element" value="e">{}</string></event></trace></log>',
    '<log><trace><event><string key="concept:name" value="a"/>'
    '<list key="l"><values>{}</values></list></event></trace></log>',
]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_DATE_PLACES),
    st.lists(st.tuples(st.sampled_from(["time:timestamp", "d"]), _EDGE_DATES), min_size=1,
             max_size=3, unique_by=lambda pair: pair[0]),
)
def test_dates_at_the_ends_of_the_range_read_or_raise_a_uilog_error(place, dates):
    document = place.format("".join(f'<date key="{k}" value="{v}"/>' for k, v in dates))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            read_xes(document)
    except UILogError:
        pass


def is_xml_text(text):
    """Whether every character of ``text`` is in the XML 1.0 Char production."""
    return all(
        c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"
        for c in text
    )


@pytest.mark.parametrize(
    "text", ["a\x01b", "\ud800", "\ufffe"], ids=["control", "lone-surrogate", "non-character"]
)
def test_text_outside_xml_is_unserializable(text):
    log = UILog(events=(InteractionEvent("x", input_value=text),))
    assert validate(log).ok
    with pytest.raises(UnserializableValueError, match="uilog:input-value"):
        write_xes(log)
    keyed = UILog(events=(InteractionEvent("x", attributes={f"k{text}": 1}),))
    with pytest.raises(UnserializableValueError):
        write_xes(keyed)


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(exclude_categories=())))
def test_any_text_value_reads_back_or_is_unserializable(text):
    log = UILog(events=(InteractionEvent("x", input_value=text, attributes={"note": text}),))
    try:
        document = write_xes(log)
    except UnserializableValueError:
        assert not is_xml_text(text)
        return
    assert is_xml_text(text)
    event = read_xes(document).events[0]
    assert event.input_value == text
    assert event.attributes == {"note": text}


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, -0.0], ids=["nan", "inf", "-inf", "-0.0"]
)
def test_special_floats_round_trip_byte_stable(value):
    # NaN reads back as NaN, so the document is stable but the events
    # compare unequal (nan != nan); the other values compare equal.
    attributes = {"xs": [value], "m": {"v": value}}
    log = UILog(events=(InteractionEvent("x", input_value=value, attributes=attributes),))
    document = write_xes(log)
    back = read_xes(document)
    event = back.events[0]
    for got in (event.input_value, event.attributes["xs"][0], event.attributes["m"]["v"]):
        if math.isnan(value):
            assert math.isnan(got)
        else:
            assert got == value and math.copysign(1.0, got) == math.copysign(1.0, value)
    assert write_xes(back) == document


def nested_attribute(kind, depth):
    """Attribute "k" holding ``depth`` lists or containers, one inside the
    next, around the text "x"; and the value it reads back as."""
    element, value = '<string key="leaf" value="x"/>', "x"
    for level in range(depth):
        key = "k" if level == depth - 1 else "0"
        if kind == "list":
            element, value = f'<list key="{key}"><values>{element}</values></list>', [value]
        else:
            element = f'<container key="{key}">{element}</container>'
            value = {"leaf" if level == 0 else "0": value}
    return element, value


def in_event(attributes):
    return f'<string key="concept:name" value="a"/>{attributes}'


# Where an attribute can sit: (document, location of errors, how to read it back).
NESTING_PLACES = {
    "event": (
        f"<log><trace><event>{in_event('{attr}')}</event></trace></log>",
        "trace 0, event 0",
        lambda log: log.events[0].attributes["k"],
    ),
    "nested-on-action": (
        "<log><trace><event>"
        + in_event('<string key="uilog:action-type" value="click">{attr}</string>')
        + "</event></trace></log>",
        "trace 0, event 0",
        lambda log: log.events[0].action.attributes["k"],
    ),
    "nested-on-user": (
        "<log><trace><event>"
        + in_event('<string key="uilog:user" value="u">{attr}</string>')
        + "</event></trace></log>",
        "trace 0, event 0",
        lambda log: log.users["u"]["k"],
    ),
    "in-group-container": (
        "<log><trace><event>"
        + in_event('<string key="uilog:ui-group-path" value="g"><container key="g">{attr}'
                   "</container></string>")
        + "</event></trace></log>",
        "trace 0, event 0",
        lambda log: log.hierarchy.ui_groups[0].attributes["k"],
    ),
    "trace": (
        f"<log><trace>{{attr}}<event>{in_event('')}</event></trace></log>",
        "trace 0",
        lambda log: log.traces[0].attributes["k"],
    ),
    "log": (
        f"<log>{{attr}}<trace><event>{in_event('')}</event></trace></log>",
        "log",
        lambda log: log.attributes["k"],
    ),
}


@pytest.mark.parametrize("kind", ["list", "container"])
@pytest.mark.parametrize("place", list(NESTING_PLACES))
def test_nesting_is_capped_wherever_an_attribute_sits(place, kind):
    # A group's container holds its attribute set and is not counted.
    document, where, read_back = NESTING_PLACES[place]
    element, value = nested_attribute(kind, 32)
    assert read_back(read_xes(document.replace("{attr}", element))) == value
    element, _ = nested_attribute(kind, 33)
    with pytest.raises(MalformedDocumentError, match=f"^{where}: attribute nesting deeper than 32"):
        read_xes(document.replace("{attr}", element))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 299))
def test_read_xes_builds_what_the_public_constructors_build(seed):
    log = read_xes(write_xes(genlogs.random_log(random.Random(seed), max_events=60)))
    rebuilt = genlogs.rebuilt_by_constructors(log)
    assert rebuilt.events == log.events
    assert rebuilt.hierarchy == log.hierarchy
    assert write_xes(rebuilt) == write_xes(log)


class TestExtensionDefinition:
    def test_stable_and_complete(self):
        first = emit_extension_definition()
        assert first == emit_extension_definition()
        root = ET.fromstring(first)
        assert root.get("prefix") == "uilog"
        event_keys = {child.get("key") for child in root.find("event")}
        assert event_keys == {
            "action-type",
            "input-value",
            "ui-element",
            "ui-element-state",
            "ui-group-path",
            "application",
            "system",
            "user",
            "task",
        }

    def test_multi_typed_keys(self):
        root = ET.fromstring(emit_extension_definition())
        types = {}
        for child in root.find("event"):
            types.setdefault(child.get("key"), set()).add(child.tag)
        assert types["input-value"] == {"string", "container"}
        assert types["ui-element-state"] == {"string", "list"}


class TestRoundTrip:
    def test_keyword_creation_round_trip(self):
        log = keyword_log.build_by_hand()
        back = read_xes(write_xes(log))
        assert back.events == log.events
        assert back.hierarchy == log.hierarchy

    def test_map_and_list_values_survive_structurally(self):
        b = HierarchyBuilder()
        target = b.chain(groups=("login mask",))
        log = UILog(
            events=(
                InteractionEvent(
                    "A_Login",
                    action=Action("none"),
                    target=target,
                    input_value={"username": "pren", "password": "dts123"},
                    attributes={"tags": ["x", "y", "x"]},
                ),
            ),
            hierarchy=b.build(),
        )
        back = read_xes(write_xes(log))
        value = back.events[0].input_value
        assert list(value.items()) == [("username", "pren"), ("password", "dts123")]
        assert back.events[0].attributes["tags"] == ["x", "y", "x"]

    @pytest.mark.parametrize("value", [{}, [], False, 0, 0.0, ""])
    def test_falsy_input_values_keep_value_and_type(self, value):
        log = UILog(events=(InteractionEvent("x", input_value=value),))
        back = read_xes(write_xes(log))
        assert back.events[0].input_value == value
        assert type(back.events[0].input_value) is type(value)

    def test_slash_in_group_id_round_trips(self):
        b = HierarchyBuilder()
        target = b.chain(groups=("a/b", "c\\d"), element="e")
        log = UILog(events=(InteractionEvent("x", target=target),), hierarchy=b.build())
        back = read_xes(write_xes(log))
        assert back.events[0].target.groups == ("a/b", "c\\d")

    def test_node_attributes_and_state_round_trip(self):
        b = HierarchyBuilder()
        target = b.chain(
            system="host",
            application="app",
            groups=("outer", "inner"),
            element="dd",
            system_attributes={"os": "linux"},
            application_attributes={"version": 7},
            group_attributes={("outer",): {"kind": "window"}, ("outer", "inner"): {"kind": "panel"}},
            element_attributes={"widget": "dropdown"},
        )
        event = InteractionEvent("x", target=target, current_state=["a", "b"])
        log = UILog(events=(event,), hierarchy=b.build())
        back = read_xes(write_xes(log))
        assert back.events[0].current_state == ["a", "b"]
        h = back.hierarchy
        assert h.resolve(Target(system="host")).attributes == {"os": "linux"}
        app = Target(application="app", system="host")
        assert h.resolve(app).attributes == {"version": 7}
        outer = Target(groups=("outer",), application="app", system="host")
        assert h.resolve(outer).attributes == {"kind": "window"}
        inner = Target(groups=("outer", "inner"), application="app", system="host")
        assert h.resolve(inner).attributes == {"kind": "panel"}
        element = h.resolve(
            Target(element="dd", groups=("outer", "inner"), application="app", system="host")
        )
        assert element.attributes == {"widget": "dropdown"}

    def test_events_on_one_element_keep_their_own_states(self):
        element = '<string key="concept:name" value="e"/><string key="uilog:ui-element" value="dd"/>'
        document = (
            "<log><trace>"
            f'<event>{element}<list key="uilog:ui-element-state"><values>'
            '<string key="0" value="x"/></values></list></event>'
            f'<event>{element}<string key="uilog:ui-element-state" value="y"/></event>'
            f"<event>{element}</event>"
            "</trace></log>"
        )
        written = write_xes(read_xes(document))
        states = [attribute_map(e).get("uilog:ui-element-state") for e in events_of(written)]
        assert [s.tag for s in states[:2]] == ["list", "string"]
        assert states[1].get("value") == "y" and states[2] is None
        assert [e.current_state for e in read_xes(written).events] == [["x"], "y", None]

    def test_traced_partition_round_trips(self):
        events = tuple(InteractionEvent(f"e{i}") for i in range(4))
        log = UILog(
            events=events,
            traces=(
                Trace("t-a", (0, 2), attributes={"kind": "odd"}),
                Trace("t-b", (1, 3)),
            ),
        )
        back = read_xes(write_xes(log))
        assert [t.id for t in back.traces] == ["t-a", "t-b"]
        assert back.traces[0].attributes == {"kind": "odd"}
        for back_trace, trace in zip(back.traces, log.traces):
            assert [back.events[i] for i in back_trace.events] == [
                log.events[i] for i in trace.events
            ]

    def test_user_and_task_registries_round_trip(self):
        log = UILog(
            events=(InteractionEvent("a", user="u1", task="t1"),),
            users={"u1": {"role": "expert"}},
            tasks={"t1": {"step": 3}},
        )
        back = read_xes(write_xes(log))
        assert genlogs.referenced_users(back) == genlogs.referenced_users(log)
        assert genlogs.referenced_tasks(back) == genlogs.referenced_tasks(log)

    @pytest.mark.parametrize("seed", range(25))
    def test_randomized_logs_round_trip(self, seed):
        rng = random.Random(1000 + seed)
        log = genlogs.random_log(rng, max_events=60)
        assert validate(log).ok
        document = write_xes(log)
        back = read_xes(document)
        genlogs.assert_equivalent(log, back)
        assert validate(back).ok
        assert write_xes(back) == document  # canonical form is stable


# ---------------------------------------------------------------------------
# Incremental reading: the parser is fed xes._CHUNK characters at a time.

EVENT = '<event><string key="concept:name" value="{}"/></event>'


def read_recording_warnings(document):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        log = read_xes(document)
    return log, [str(warning.message) for warning in caught]


GOLDEN = {
    "empty": UILog,
    "keyword_creation": keyword_creation_log,
    "raw_login": raw_login_log,
    **{f"seed-{seed}": (lambda seed=seed: genlogs.random_log(random.Random(seed)))
       for seed in range(0, 300, 15)},
    **{f"round-trip-{seed}": (lambda seed=seed: genlogs.random_log(random.Random(1000 + seed),
                                                                   max_events=60))
       for seed in range(25)},
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_slice_size_does_not_change_the_log(monkeypatch, name):
    document = write_xes(GOLDEN[name]())
    whole, noted = read_recording_warnings(document)
    monkeypatch.setattr(xes, "_CHUNK", 7)
    assert read_recording_warnings(document) == (whole, noted)
    assert write_xes(whole) == document


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
@pytest.mark.parametrize("untraced", [True, False], ids=["untraced", "traced"])
def test_log_attributes_and_untraced_flag_may_follow_the_traces(monkeypatch, chunk, untraced):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    flag = '<boolean key="uilog:untraced" value="true"/>' if untraced else ""
    log = read_xes(
        f'<log><trace><string key="concept:name" value="t"/>{EVENT.format("a")}'
        f'{EVENT.format("b")}</trace><string key="source" value="rec"/>{flag}</log>'
    )
    assert [event.activity_name for event in log.events] == ["a", "b"]
    assert log.attributes == {"source": "rec"}
    assert log.traces == (None if untraced else (Trace(id="t", events=(0, 1)),))


def big_traced_document(events=1500):
    log = UILog(
        events=tuple(InteractionEvent(f"step {i}") for i in range(events)),
        traces=(Trace(id="t", events=tuple(range(events))),),
    )
    return write_xes(log)


def test_stray_event_in_a_later_slice_is_outside_every_trace():
    document = big_traced_document()
    stray = EVENT.format("late")
    document = document.replace("</log>", f"{stray}</log>")
    assert document.index(stray) > xes._CHUNK
    with pytest.raises(MalformedDocumentError,
                       match="^log event 1500: an event outside every trace$"):
        read_xes(document)


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
@pytest.mark.parametrize("size", [1500, 3], ids=["several-slices", "one-slice"])
def test_fault_before_a_syntax_error_is_reported_first(monkeypatch, chunk, size):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    document = big_traced_document(size).replace(
        '"step 1" />', '"step 1" />\n      <int key="n" value="abc" />', 1
    )
    assert document.count('value="abc"') == 1
    with pytest.raises(MalformedDocumentError, match="^trace 0, event 1: invalid literal"):
        read_xes(document.replace("</log>", "<<</log>"))
    # A syntax error before the fault is reported instead.
    broken = document.replace('"step 0" />', '"step 0" /><<', 1)
    with pytest.raises(MalformedDocumentError, match="^not well-formed XML: not well-formed"):
        read_xes(broken)


@pytest.mark.parametrize(
    "document",
    ["", "<log>", "<log><trace></log>", "<log/>junk", "<log>\n  <trace>\n    <event><</event>",
     '<log><string key="a" value="x"/></log><log/>', "<log>\u00e9\u20ac<<</log>",
     '<log><string key="a" value="\ud800"/></log>'],
)
def test_syntax_errors_read_as_the_whole_document_parser_reports_them(monkeypatch, document):
    with pytest.raises((ET.ParseError, ValueError)) as expected:
        ET.fromstring(document)
    for chunk in (xes._CHUNK, 7, 1):
        monkeypatch.setattr(xes, "_CHUNK", chunk)
        with pytest.raises(MalformedDocumentError) as caught:
            read_xes(document)
        assert str(caught.value) == f"not well-formed XML: {expected.value}"


def peak_bytes(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("seed,traced", [(2, False), (11, True)], ids=["untraced", "traced"])
def test_reading_holds_far_less_than_the_whole_tree(seed, traced):
    log = genlogs.random_log(random.Random(seed), max_events=4000)
    assert len(log.events) >= 3000 and (log.traces is not None) == traced
    document = write_xes(log)
    assert peak_bytes(read_xes, document) < peak_bytes(ET.fromstring, document) / 3
