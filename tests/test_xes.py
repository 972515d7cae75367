import math
import random
import re
import tracemalloc
import warnings
from datetime import datetime, timezone
from functools import partial
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
    UIHierarchy,
    UILog,
    UILogError,
    UnserializableValueError,
    ViolationCode,
    coverage,
    emit_extension_definition,
    ingest,
    read_xes,
    validate,
    write_table,
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

    def test_a_shared_action_writes_as_equal_actions_do(self):
        shared = Action("click", attributes={"button": "left", "at": {"x": 1}})
        alike = Action("click", attributes={"button": "left", "at": {"x": 1}})
        one = UILog(events=(InteractionEvent("a", action=shared),
                            InteractionEvent("b", action=Action("key")),
                            InteractionEvent("c", action=shared)))
        two = UILog(events=(InteractionEvent("a", action=shared),
                            InteractionEvent("b", action=Action("key")),
                            InteractionEvent("c", action=alike)))
        assert write_xes(one) == write_xes(two)
        assert write_xes(one).count('<string key="button" value="left" />') == 2
        assert read_xes(write_xes(one)).events == one.events

    def test_extension_vocabulary_is_public_here(self):
        from uilog import extension

        assert xes.EXTENSION_KEYS is extension.EXTENSION_KEYS
        assert xes.emit_extension_definition is extension.emit_extension_definition
        assert xes.validate is validate


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

    def test_non_text_concept_name_reads_as_its_text(self):
        log = read_xes('<log><trace><event><int key="concept:name" value="7"/></event></trace></log>')
        assert log.events[0].activity_name == "7"

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
        log, noted = read_recording_warnings(document)
        assert [e.activity_name for e in log.events] == ["a"]
        assert log.attributes == {"source": "recorder-x"}
        # The concept extension is one write_xes declares, so it is dropped without a word.
        assert noted == ["log: <global> is not kept; ignored",
                         "log: <classifier> is not kept; ignored"]

    def test_what_a_foreign_document_loses_is_noted_where_it_is(self):
        document = """<log>
          <extension name="UILog" prefix="uilog" uri="http://www.xes-standard.org/uilog.xesext"/>
          <extension name="Identity" prefix="identity" uri="http://www.xes-standard.org/identity.xesext"/>
          <trace>
            <classifier name="activity" keys="concept:name"/>
            <event><string key="concept:name" value="a"/><id key="identity:id" value="e1"/></event>
          </trace>
        </log>"""
        log, noted = read_recording_warnings(document)
        assert log.events[0].attributes == {"identity:id": "e1"}
        assert noted == ["log: <extension> is not kept; ignored",
                         "trace 0: <classifier> is not kept; ignored",
                         "trace 0, event 0: id attribute 'identity:id' is read as text"]

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
        (
            '<log><boolean key="uilog:untraced" value="yes"/></log>',
            "log: boolean attribute 'uilog:untraced' must be true, false, 1 or 0, got 'yes'",
        ),
        (  # reported where it is read, before a later event's fault
            '<log><string key="uilog:untraced" value="x"/><trace><event/></trace></log>',
            "log: uilog:untraced must be a boolean, got 'x'",
        ),
        (
            '<log><string key="uilog:untraced" value="x"/>'
            '<boolean key="uilog:untraced" value="true"/></log>',
            "log: uilog:untraced must be a boolean, got 'x'",
        ),
    ],
    ids=["empty-trace-key", "empty-log-key", "lone-surrogate", "event-beside-traces",
         "untraced-not-boolean", "untraced-not-xs-boolean", "untraced-before-a-later-fault",
         "untraced-repeated"],
)
def test_bad_documents_outside_events_are_document_errors(document, where):
    with pytest.raises(MalformedDocumentError, match=where):
        read_xes(document)


@pytest.mark.parametrize("untraced", ["", '<boolean key="uilog:untraced" value="true"/>',
                                      '<boolean key="uilog:untraced" value="1"/>'],
                         ids=["no-traces", "untraced-wrapper", "untraced-wrapper-one"])
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
        read_recording_warnings(ET.tostring(root, encoding="unicode"))
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


def dropped_nesting(depth):
    """Attribute "k" holding ``depth`` values, one nested on the next, whose
    nested attributes are dropped, around the text "x"."""
    element = '<string key="leaf" value="x"/>'
    for level in range(depth):
        key = "k" if level == depth - 1 else "0"
        element = f'<string key="{key}" value="x">{element}</string>'
    return element


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


def test_values_put_in_after_construction_fail_to_write():
    log = UILog(attributes={"a": "x"})
    log.attributes["a"] = object()
    with pytest.raises(UnserializableValueError, match="^attribute 'a' has unsupported type object$"):
        write_xes(log)
    deep = "x"
    for _ in range(33):
        deep = [deep]
    log.attributes["a"] = deep
    with pytest.raises(UnserializableValueError, match="^attribute '0' nests deeper than 32$"):
        write_xes(log)


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


@pytest.mark.parametrize("place", list(NESTING_PLACES))
def test_dropped_nested_attributes_count_as_nesting(place):
    # Each value whose nested attributes are dropped is one level, as a
    # container is, so a long chain fails where it is, not by recursion.
    document, where, read_back = NESTING_PLACES[place]
    log, noted = read_recording_warnings(document.replace("{attr}", dropped_nesting(32)))
    assert read_back(log) == "x"
    assert len(noted) == 32 and all(note.startswith(f"{where}: ") for note in noted)
    for depth in (33, 600):
        with pytest.raises(MalformedDocumentError,
                           match=f"^{where}: attribute nesting deeper than 32"):
            read_xes(document.replace("{attr}", dropped_nesting(depth)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 299))
def test_read_xes_builds_what_the_public_constructors_build(seed):
    log = read_xes(write_xes(genlogs.random_log(random.Random(seed), max_events=60)))
    rebuilt = genlogs.rebuilt_by_constructors(log)
    assert rebuilt.events == log.events
    assert rebuilt.hierarchy == log.hierarchy
    assert write_xes(rebuilt) == write_xes(log)


_EVENT_ELEMENT = re.compile(r"\n    <event>.*?\n    </event>", re.S)
_PER_EVENT_CODES = {ViolationCode.MISSING_ACTIVITY_NAME, ViolationCode.STATE_WITHOUT_ELEMENT,
                    ViolationCode.DANGLING_REFERENCE}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 299))
def test_shared_values_write_validate_and_cover_as_unshared_ones(seed):
    """What write_xes, validate and coverage give a log whose events share
    targets, names and states, they give the same log rebuilt so that no
    two events share a target, list or map, and, per event, the log of
    that event alone, where no memo is hit. Validated and covered also
    over a hierarchy without groups and elements, so that targets dangle."""
    log = genlogs.random_log(random.Random(seed), max_events=60)
    apart = genlogs.rebuilt_by_constructors(log)
    document = write_xes(log)
    assert write_xes(apart) == document
    written = log.events if log.traces is None else \
        [log.events[i] for trace in log.traces for i in trace.events]
    assert _EVENT_ELEMENT.findall(document) == [
        _EVENT_ELEMENT.search(write_xes(UILog(events=(event,), hierarchy=log.hierarchy,
                                              users=log.users, tasks=log.tasks)))[0]
        for event in written
    ]
    bare = UIHierarchy(log.hierarchy.systems, log.hierarchy.applications)
    for hierarchy in (log.hierarchy, bare):
        shared, alone = (
            UILog(events=events, hierarchy=hierarchy, users=log.users, tasks=log.tasks,
                  attributes=log.attributes, traces=log.traces)
            for events in (log.events, apart.events)
        )
        report = validate(shared)
        assert validate(alone) == report
        matrix = coverage(shared)
        assert coverage(alone) == matrix
        singles = [UILog(events=(event,), hierarchy=hierarchy, users=log.users, tasks=log.tasks)
                   for event in log.events]
        assert [(v.event_index, v.code, v.node_id, v.message) for v in report.violations
                if v.code in _PER_EVENT_CODES and v.event_index is not None] == [
            (index, v.code, v.node_id, v.message)
            for index, single in enumerate(singles) for v in validate(single).violations
            if v.event_index is not None
        ]
        assert {name: cell.events_present for name, cell in matrix.items()} == {
            name: sum(coverage(single)[name].events_present for single in singles)
            for name in matrix
        }


def test_states_that_compare_equal_keep_their_types():
    states = [[1], [True], [1.0], ["1"], "[1]"]
    builder = HierarchyBuilder()
    target = builder.chain(element="dd")
    log = UILog(
        events=tuple(InteractionEvent(f"e{i}", target=target, current_state=state)
                     for i, state in enumerate(states)),
        hierarchy=builder.build(),
    )
    document = write_xes(log)
    written = [attribute_map(e)["uilog:ui-element-state"] for e in events_of(document)]
    assert [(e.tag, [(item.tag, item.get("value")) for item in e.iter() if item.get("key") == "0"])
            for e in written] == [
        ("list", [("int", "1")]), ("list", [("boolean", "true")]), ("list", [("float", "1.0")]),
        ("list", [("string", "1")]), ("string", []),
    ]
    assert [repr(e.current_state) for e in read_xes(document).events] == list(map(repr, states))


class TestFieldKeysAsAttributes:
    """An attribute under a key the writer gives its own content would
    read back as that content, so write_xes refuses it."""

    @pytest.mark.parametrize("key", sorted(xes._EVENT_FIELD_KEYS))
    def test_event_attribute(self, key):
        log = UILog(events=(InteractionEvent("a"), InteractionEvent("b", attributes={key: "x"})),
                    traces=(Trace("t", (1, 0)),))
        with pytest.raises(UnserializableValueError,
                           match=f"^event 1: attribute {key!r} has the key of an event field$"):
            write_xes(log)

    def test_trace_attribute(self):
        log = UILog(events=(InteractionEvent("a"),),
                    traces=(Trace("t", (0,), {"concept:name": "u"}),))
        with pytest.raises(UnserializableValueError,
                           match="^trace 't': attribute 'concept:name' has the key of the trace id$"):
            write_xes(log)

    @pytest.mark.parametrize("traced", [False, True])
    def test_log_attribute(self, traced):
        log = UILog(events=(InteractionEvent("a"),), attributes={"uilog:untraced": False},
                    traces=(Trace("t", (0,)),) if traced else None)
        with pytest.raises(UnserializableValueError,
                           match="^log: attribute 'uilog:untraced' has the key that marks"):
            write_xes(log)

    def test_other_keys_of_the_vocabulary_are_free(self):
        # Free: a key under another prefix, and a uilog key at a level and in
        # a type the extension declares it (tests/test_extension.py checks
        # that the other uilog keys are refused).
        log = UILog(events=(InteractionEvent("a", attributes={"concept:instance": 1,
                                                              "uilog:abstracted": True}),),
                    attributes={"concept:name": "l"},
                    traces=(Trace("t", (0,), {"concept:instance": "u"}),))
        again = read_xes(write_xes(log))
        assert (again.events, again.attributes, again.traces) == (
            log.events, log.attributes, log.traces
        )


class TestExtensionDefinition:
    def test_stable_and_complete(self):
        first = emit_extension_definition()
        assert first == emit_extension_definition()
        root = ET.fromstring(first)
        assert root.get("prefix") == "uilog"
        assert [level.tag for level in root] == ["log", "trace", "event"]
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
            "abstracted",
        }
        assert [(c.tag, c.get("key")) for c in root.find("log")] == [("boolean", "untraced")]

    def test_multi_typed_keys(self):
        root = ET.fromstring(emit_extension_definition())
        types = {}
        for child in root.find("event"):
            types.setdefault(child.get("key"), []).append(child.tag)
        every = ["string", "int", "float", "boolean", "date", "list", "container"]
        assert types["input-value"] == every
        assert types["ui-element-state"] == every
        assert types["abstracted"] == ["boolean"]


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


def test_element_state_without_an_element_is_kept():
    log, noted = read_recording_warnings(
        '<log><trace><event><string key="concept:name" value="a"/>'
        '<string key="uilog:ui-group-path" value="g"/>'
        '<string key="uilog:ui-element-state" value="open"/></event></trace></log>'
    )
    assert noted == []
    assert log.events[0].current_state == "open"
    assert log.events[0].target == Target(groups=("g",))
    assert [v.code for v in validate(log).violations] == [ViolationCode.STATE_WITHOUT_ELEMENT]


def test_an_element_state_without_an_element_survives_both_round_trips():
    builder = HierarchyBuilder()
    group = builder.chain(groups=("g",))
    log = UILog(
        events=(InteractionEvent("a", current_state="open"),
                InteractionEvent("b", target=group, current_state=["x", "y"])),
        hierarchy=builder.build(),
    )
    formats = {
        "xes": (partial(write_xes, check=False), read_xes),
        "csv": (write_table, lambda text: ingest(text)[0]),
    }
    for name, (write, read) in formats.items():
        text = write(log)
        back = read(text)
        assert [event.current_state for event in back.events] == ["open", ["x", "y"]], name
        assert [event.target for event in back.events] == [None, group], name
        assert write(back) == text, name


def test_an_empty_target_is_no_location_through_both_formats():
    event = InteractionEvent("a", target=Target())
    assert event.target is None
    log = UILog(events=(event,))
    assert read_xes(write_xes(log)).events[0] == event
    assert ingest(write_table(log))[0].events[0] == event


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
    log, noted = read_recording_warnings(
        f'<log><trace><string key="concept:name" value="t"/>{EVENT.format("a")}'
        f'{EVENT.format("b")}</trace><string key="source" value="rec"/>{flag}</log>'
    )
    assert [event.activity_name for event in log.events] == ["a", "b"]
    assert log.attributes == {"source": "rec"}
    assert log.traces == (None if untraced else (Trace(id="t", events=(0, 1)),))
    folded = ("log: uilog:untraced is true, so its 1 trace(s) are folded into one untraced "
              "log, without their ids and attributes")
    assert noted == ([folded] if untraced else [])


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "default"])
def test_empty_and_unnamed_traces_keep_their_place(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    log, noted = read_recording_warnings(
        f'<log><trace/><trace>{EVENT.format("a")}</trace><trace><string key="concept:name" '
        f'value="t"/>{EVENT.format("b")}</trace><trace>{EVENT.format("c")}</trace></log>'
    )
    assert noted == []
    assert [event.activity_name for event in log.events] == ["a", "b", "c"]
    assert log.traces == (Trace("trace_0", ()), Trace("trace_1", (0,)), Trace("t", (1,)),
                          Trace("trace_3", (2,)))


# Untraced documents whose fold drops what write_xes does not write, and
# how many traces each holds.
FOLDS_DROPPING = {
    "two-traces": (
        '<trace><string key="concept:name" value="t1"/><string key="mood" value="ok"/>'
        f'{EVENT.format("a")}</trace>'
        f'<trace><string key="concept:name" value="t2"/>{EVENT.format("b")}</trace>', 2,
    ),
    "unnamed-traces": (f"<trace>{EVENT.format('a')}</trace><trace>{EVENT.format('b')}</trace>", 2),
    "other-id": (f'<trace><string key="concept:name" value="t1"/>{EVENT.format("a")}'
                 f'{EVENT.format("b")}</trace>', 1),
    "trace-attribute": ('<trace><string key="concept:name" value="all-events"/>'
                        f'<int key="n" value="1"/>{EVENT.format("a")}{EVENT.format("b")}</trace>',
                        1),
}


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
@pytest.mark.parametrize("case", list(FOLDS_DROPPING))
def test_folding_traces_an_untraced_log_did_not_write_warns(monkeypatch, chunk, case):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    traces, count = FOLDS_DROPPING[case]
    log, noted = read_recording_warnings(
        f'<log><boolean key="uilog:untraced" value="true"/>{traces}</log>'
    )
    assert [event.activity_name for event in log.events] == ["a", "b"]
    assert log.traces is None
    assert log.attributes == {}
    assert noted == [
        f"log: uilog:untraced is true, so its {count} trace(s) are folded into one untraced "
        "log, without their ids and attributes"
    ]


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
@pytest.mark.parametrize("events", [0, 1, 3])
def test_an_untraced_log_as_written_folds_without_a_warning(monkeypatch, chunk, events):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    log = UILog(events=tuple(InteractionEvent(f"e{i}") for i in range(events)))
    again, noted = read_recording_warnings(write_xes(log))
    assert noted == []
    assert again.events == log.events
    assert again.traces is None


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


# ---------------------------------------------------------------------------
# Booleans are xs:boolean.


def events_document(*bodies):
    events = "".join(
        f'<event><string key="concept:name" value="e{i}"/>{body}</event>'
        for i, body in enumerate(bodies)
    )
    return f'<log><trace><string key="concept:name" value="t"/>{events}</trace></log>'


@pytest.mark.parametrize(
    "text,value",
    [("true", True), ("1", True), (" TRUE ", True), ("false", False), ("0", False),
     ("False", False)],
)
def test_booleans_read_as_xs_boolean(text, value):
    log = read_xes(events_document(f'<boolean key="b" value="{text}"/>'))
    assert log.events[0].attributes == {"b": value}


@pytest.mark.parametrize("text", ["yes", "", "2", "no", "01", "t"])
def test_other_boolean_text_is_a_located_document_error(text):
    message = f"trace 0, event 0: boolean attribute 'b' must be true, false, 1 or 0, got {text!r}"
    with pytest.raises(MalformedDocumentError, match=f"^{re.escape(message)}$"):
        read_xes(events_document(f'<boolean key="b" value="{text}"/>'))


# ---------------------------------------------------------------------------
# Repeated contexts are typed and rendered once per document, yet every
# occurrence warns and fails where it is.

USER_WITH_DUPLICATE_KEY = (
    '<string key="uilog:user" value="u"><string key="k" value="1"/><string key="k" value="2"/>'
    "</string>"
)
GROUP_WITH_FINE_DATE = (
    '<string key="uilog:ui-group-path" value="g"><container key="g">'
    '<date key="d" value="2024-01-01T00:00:00.0001Z"/></container></string>'
)
ACTION_WITH_ATTRIBUTES = (
    '<string key="uilog:action-type" value="click"><container key="at">'
    '<int key="x" value="3"/></container></string>'
)


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
def test_repeated_context_warns_at_every_occurrence(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    document = events_document(
        USER_WITH_DUPLICATE_KEY, USER_WITH_DUPLICATE_KEY, GROUP_WITH_FINE_DATE,
        GROUP_WITH_FINE_DATE,
    )
    log, noted = read_recording_warnings(document)
    date = "'2024-01-01T00:00:00.0001Z'"
    assert noted == [
        "trace 0, event 0: duplicate map key 'k'; keeping the last",
        "trace 0, event 1: duplicate map key 'k'; keeping the last",
        f"trace 0, event 2: timestamp {date} truncated to milliseconds",
        f"trace 0, event 3: timestamp {date} truncated to milliseconds",
    ]
    assert log.users == {"u": {"k": "2"}}
    group = log.hierarchy.resolve(log.events[3].target)
    assert group.attributes == {"d": datetime(2024, 1, 1, tzinfo=timezone.utc)}


UNKEPT_FIELDS = [
    ("concept:name", "string", "a"),
    ("time:timestamp", "date", "2024-01-01T00:00:00Z"),
    ("uilog:input-value", "string", "v"),
    ("uilog:ui-element-state", "string", "open"),
]


@pytest.mark.parametrize("key,tag,value", UNKEPT_FIELDS, ids=[f[0] for f in UNKEPT_FIELDS])
def test_attributes_nested_on_an_unkept_field_are_warned_of(key, tag, value):
    field = f'<{tag} key="{key}" value="{value}"><string key="lang" value="en"/></{tag}>'
    element = '<string key="uilog:ui-element" value="el"><string key="kept" value="1"/></string>'
    name = "" if key == "concept:name" else '<string key="concept:name" value="x"/>'
    event = f"<event>{name}{element}{field}</event>"  # no key twice, which warns of its own
    log, noted = read_recording_warnings(f"<log><trace>{event}{event}</trace></log>")
    assert noted == [
        f"trace 0, event {i}: attributes nested on {key} are not kept; ignored" for i in (0, 1)
    ]
    assert all(event.attributes == {} for event in log.events)
    assert log.hierarchy.resolve(log.events[0].target).attributes == {"kept": "1"}
    with pytest.raises(MalformedDocumentError, match="^trace 0, event 0: "):
        read_xes(f'<log><trace><event><{tag} key="{key}" value="{value}">'
                 f'<int key="n" value="x"/></{tag}></event></trace></log>')


def attribute_sets(log):
    """What a log holds besides its events' fields: its attributes, its
    traces and its events' attributes."""
    traces = [(trace.id, trace.attributes) for trace in log.traces or ()]
    return log.attributes, traces, [event.attributes for event in log.events]


EVENT_WITH = '<event><string key="concept:name" value="e"/>{}</event>'.format

# What the model has no place for, at each level: (document with "{}"
# where the repeated or nested attribute goes, that attribute's key, the
# warning, what reads back).
UNKEPT = {
    "repeated-log-key": (
        f'<log><string key="a" value="1"/>{{}}<trace>{EVENT_WITH("")}</trace></log>', "a",
        "log: duplicate log key 'a'; keeping the last",
        ({"a": "v"}, [("trace_0", {})], [{}]),
    ),
    "repeated-trace-name": (
        f'<log><trace><string key="concept:name" value="t"/>{{}}{EVENT_WITH("")}</trace></log>',
        "concept:name", "trace 0: duplicate trace key 'concept:name'; keeping the last",
        ({}, [("v", {})], [{}]),
    ),
    "nested-on-log-attribute": (
        f'<log><string key="src" value="x">{{}}</string><trace>{EVENT_WITH("")}</trace></log>',
        "k", "log: attributes nested on src are not kept; ignored",
        ({"src": "x"}, [("trace_0", {})], [{}]),
    ),
    "nested-on-trace-attribute": (
        f'<log><trace><string key="tt" value="y">{{}}</string>{EVENT_WITH("")}</trace></log>',
        "k", "trace 0: attributes nested on tt are not kept; ignored",
        ({}, [("trace_0", {"tt": "y"})], [{}]),
    ),
    "nested-on-event-extra": (
        "<log><trace>" + EVENT_WITH('<string key="mood" value="ok">{}</string>') + "</trace></log>",
        "k", "trace 0, event 0: attributes nested on mood are not kept; ignored",
        ({}, [("trace_0", {})], [{"mood": "ok"}]),
    ),
    "nested-on-list-item": (
        "<log><trace>"
        + EVENT_WITH('<list key="l"><values><string key="0" value="a">{}</string></values></list>')
        + "</trace></log>",
        "k", "trace 0, event 0: attributes nested on 0 are not kept; ignored",
        ({}, [("trace_0", {})], [{"l": ["a"]}]),
    ),
    "nested-on-map-value": (
        "<log><trace>"
        + EVENT_WITH('<container key="c"><string key="m" value="1">{}</string></container>')
        + "</trace></log>",
        "k", "trace 0, event 0: attributes nested on m are not kept; ignored",
        ({}, [("trace_0", {})], [{"c": {"m": "1"}}]),
    ),
    "nested-on-an-overwritten-user": (
        "<log><trace>"
        + EVENT_WITH('<string key="uilog:user" value="u">{}</string>'
                     '<string key="uilog:user" value="w"/>')
        + "</trace></log>",
        "k", "trace 0, event 0: duplicate event key 'uilog:user'; keeping the last",
        ({}, [("trace_0", {})], [{}]),
    ),
}


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
@pytest.mark.parametrize("case", list(UNKEPT))
def test_what_no_level_keeps_warns_once_where_it_is(monkeypatch, chunk, case):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    document, key, warning, kept = UNKEPT[case]
    log, noted = read_recording_warnings(document.format(f'<string key="{key}" value="v"/>'))
    assert noted == [warning]
    assert attribute_sets(log) == kept
    where = warning.partition(":")[0]
    with pytest.raises(MalformedDocumentError, match=f"^{where}: invalid literal"):
        read_recording_warnings(document.format(f'<int key="{key}" value="y"/>'))


GROUP_WITH_STRAYS = (
    '<string key="uilog:ui-group-path" value="g/h"><string key="x" value="1"/>'
    '<container key="zzz"><string key="a" value="1"/></container>'
    '<container key="g"><string key="a" value="2"/></container></string>'
)


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
def test_what_an_event_does_not_keep_is_warned_of(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    repeated = '<string key="dup" value="1"/><string key="dup" value="2"/>'
    log, noted = read_recording_warnings(events_document(GROUP_WITH_STRAYS + repeated,
                                                         GROUP_WITH_STRAYS))
    strays = [
        "attribute 'x' nested on uilog:ui-group-path is not a container, so it is not kept; "
        "ignored",
        "attribute 'zzz' nested on uilog:ui-group-path names no group on its path, so it is "
        "not kept; ignored",
    ]
    assert noted == [  # in document order: the group path's strays, then the repeat
        *(f"trace 0, event 0: {text}" for text in strays),
        "trace 0, event 0: duplicate event key 'dup'; keeping the last",
        *(f"trace 0, event 1: {text}" for text in strays),
    ]
    assert log.events[0].attributes == {"dup": "2"}
    assert log.hierarchy.resolve(Target(groups=("g",))).attributes == {"a": "2"}
    assert log.hierarchy.resolve(log.events[1].target).attributes == {}


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
@pytest.mark.parametrize("field", ["uilog:user", "uilog:ui-element"])
def test_a_fault_nested_on_a_kept_field_comes_before_a_later_one(monkeypatch, chunk, field):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    body = (f'<string key="{field}" value="u"><int key="n" value="notanint"/></string>'
            '<int key="extra" value="alsobad"/>')
    with pytest.raises(MalformedDocumentError, match="^trace 0, event 0: .*'notanint'"):
        read_xes(events_document(body))


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
def test_an_event_warns_in_the_order_of_its_children(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    body = (
        '<string key="mood" value="ok"><string key="k" value="1"/></string>'
        + USER_WITH_DUPLICATE_KEY
        + '<string key="mood" value="again"/><date key="d" value="2024-01-01T00:00:00.0001Z"/>'
        '<string key="mood" value="last"/>'
    )
    log, noted = read_recording_warnings(events_document(body))
    assert noted == [
        f"trace 0, event 0: {text}" for text in (
            "attributes nested on mood are not kept; ignored",
            "duplicate map key 'k'; keeping the last",
            "duplicate event key 'mood'; keeping the last",
            "timestamp '2024-01-01T00:00:00.0001Z' truncated to milliseconds",
            "duplicate event key 'mood'; keeping the last",
        )
    ]
    assert log.events[0].attributes == {
        "mood": "last", "d": datetime(2024, 1, 1, tzinfo=timezone.utc)
    }
    assert log.users == {"u": {"k": "2"}}


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
def test_an_overwritten_group_path_warns_of_its_misplaced_children(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    body = GROUP_WITH_STRAYS + '<string key="uilog:ui-group-path" value="g"/>'
    log, noted = read_recording_warnings(events_document(body))
    assert noted == [
        "trace 0, event 0: attribute 'x' nested on uilog:ui-group-path is not a container, "
        "so it is not kept; ignored",
        "trace 0, event 0: attribute 'zzz' nested on uilog:ui-group-path names no group on "
        "its path, so it is not kept; ignored",
        "trace 0, event 0: duplicate event key 'uilog:ui-group-path'; keeping the last",
    ]
    assert log.events[0].target == Target(groups=("g",))
    assert log.hierarchy.resolve(log.events[0].target).attributes == {}


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
@pytest.mark.parametrize(
    "bodies,where",
    [
        # A bad value in a repeated context fails at its first occurrence.
        ([ACTION_WITH_ATTRIBUTES.replace('"3"', '"x"')] * 2, "trace 0, event 0"),
        # A context read cleanly, then repeated with a bad value.
        ([ACTION_WITH_ATTRIBUTES] * 2 + [ACTION_WITH_ATTRIBUTES.replace('"3"', '"x"')],
         "trace 0, event 2"),
        # A context read cleanly, then repeated on an event that fails elsewhere.
        ([ACTION_WITH_ATTRIBUTES] * 2 + [ACTION_WITH_ATTRIBUTES + '<int key="n" value="y"/>'],
         "trace 0, event 2"),
    ],
    ids=["repeated", "clean-then-bad", "clean-then-bad-event"],
)
def test_repeated_context_fails_where_its_fault_is(monkeypatch, chunk, bodies, where):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    with pytest.raises(MalformedDocumentError, match=f"^{where}: invalid literal"):
        read_xes(events_document(*bodies))


BARE_ACTION = '<string key="uilog:action-type" value="click"/>'


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
def test_reads_share_no_context(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    document = events_document(*[ACTION_WITH_ATTRIBUTES] * 3, BARE_ACTION, BARE_ACTION)
    first, second = read_xes(document), read_xes(document)
    actions = [event.action for event in first.events]
    assert actions[0] is actions[1] is actions[2]  # one Action per distinct subtree
    assert actions[3] is actions[4]  # and per distinct bare action type
    assert actions[0] is not second.events[0].action
    assert actions[3] is not second.events[3].action
    actions[0].attributes["at"]["x"] = 4
    actions[0].attributes["new"] = True
    actions[3].attributes["new"] = True
    assert [event.action for event in second.events] == (
        [Action("click", {"at": {"x": 3}})] * 3 + [Action("click")] * 2
    )
    assert read_xes(document) == second


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
def test_bare_action_types_read_to_one_action_each(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    one = '<int key="uilog:action-type" value="1"/>'
    true = '<boolean key="uilog:action-type" value="true"/>'  # True == 1, yet it reads "True"
    document = events_document(
        BARE_ACTION, one, BARE_ACTION, true, one, true, ACTION_WITH_ATTRIBUTES,
        '<string key="uilog:action-type" value="1"/>',
    )
    actions = [event.action for event in read_xes(document).events]
    assert actions == [
        Action("click"), Action("1"), Action("click"), Action("True"), Action("1"),
        Action("True"), Action("click", {"at": {"x": 3}}), Action("1"),
    ]
    assert actions[0] is actions[2]
    assert actions[1] is actions[4] is actions[7]
    assert actions[3] is actions[5]
    assert len({id(action) for action in actions}) == 4


EMPTY_ACTION = '<string key="uilog:action-type" value=""/>'
EMPTY_ACTION_WITH = '<string key="uilog:action-type" value="">{}</string>'.format
NAMED = '<string key="concept:name" value="a"/>'


@pytest.mark.parametrize("chunk", [7, None], ids=["7", "default"])
@pytest.mark.parametrize(
    "body,error,message",
    [
        (NAMED + EMPTY_ACTION, MalformedDocumentError, "action_type must be non-empty text"),
        (NAMED + EMPTY_ACTION_WITH('<string key="k" value="v"/>'), MalformedDocumentError,
         "action_type must be non-empty text"),
        (EMPTY_ACTION, MissingConceptNameError, "event has no concept:name"),
        (NAMED + EMPTY_ACTION + '<string key="time:timestamp" value="soon"/>',
         MalformedDocumentError, "bad timestamp 'soon'"),
        (NAMED + EMPTY_ACTION + '<int key="n" value="y"/>', MalformedDocumentError,
         "invalid literal for int() with base 10: 'y'"),
        (NAMED + EMPTY_ACTION_WITH('<int key="n" value="y"/>'), MalformedDocumentError,
         "invalid literal for int() with base 10: 'y'"),
    ],
    ids=["bare", "nested", "unnamed", "bad-timestamp", "bad-value", "bad-nested-value"],
)
def test_an_empty_action_type_fails_after_the_faults_read_before_it(
    monkeypatch, chunk, body, error, message
):
    if chunk:
        monkeypatch.setattr(xes, "_CHUNK", chunk)
    document = (
        f'<log><trace><event>{NAMED}{BARE_ACTION}</event><event>{body}</event></trace></log>'
    )
    with pytest.raises(error) as caught:
        read_xes(document)
    assert str(caught.value) == f"trace 0, event 1: {message}"


def test_repeated_contexts_write_each_event_its_own():
    b = HierarchyBuilder()
    scope = {"system": "s", "application": "a", "groups": ("g",)}
    first = b.chain(**scope, element="e1", element_attributes={"row": 1},
                    group_attributes={("g",): {"tab": 1}}, application_attributes={"v": "7"})
    second = b.chain(**scope, element="e2", element_attributes={"row": 2, "col": "B"})
    events = tuple(
        InteractionEvent(f"step {i}", target=target, user=user, task=task)
        for i, (target, user, task) in enumerate(
            [(first, "u1", "t1"), (second, "u2", "t2"), (first, "u2", "t1"), (second, "u1", "t2")]
        )
    )
    log = UILog(events=events, hierarchy=b.build(), users={"u1": {"role": "lead"}},
                tasks={"t1": {"step": 1}, "t2": {"step": 2, "final": True}})
    back = read_xes(write_xes(log, check=False))  # "u2" has no registry entry
    assert back.events == log.events
    for event, read in zip(log.events, back.events):
        assert back.users[read.user] == log.users.get(event.user, {})
        assert back.tasks[read.task] == log.tasks[event.task]
        assert (back.hierarchy.resolve(read.target).attributes
                == log.hierarchy.resolve(event.target).attributes)
    users = [attribute_map(e)["uilog:user"] for e in events_of(write_xes(log, check=False))]
    assert [len(user) for user in users] == [1, 0, 0, 1]
