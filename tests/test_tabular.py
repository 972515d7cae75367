import csv
import io
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from uilog import (
    BadConfigError,
    BadLiteralError,
    InteractionEvent,
    MalformedDocumentError,
    MissingColumnError,
    NoUsableColumnsError,
    Target,
    Trace,
    UILog,
    UILogError,
    UnserializableValueError,
    coverage,
    infer_mapping,
    ingest,
    load_mapping,
    read_xes,
    validate,
    write_table,
    write_xes,
)
from uilog.fixtures import keyword_creation_csv, raw_login_csv
from uilog.tabular import (
    _SYNONYMS,
    ColumnMapping,
    parse_list_literal,
    parse_map_literal,
    render_list_literal,
    render_map_literal,
)

import genlogs
import keyword_log


class TestIngestFixture:
    def test_keyword_creation_csv(self):
        log, report = ingest(keyword_creation_csv())
        assert report.rows_read == 20
        assert len(log.events) == 20
        assert report.rows_skipped == ()
        assert len(log.hierarchy.ui_groups) == 6
        assert validate(log).ok

    def test_matches_hand_built_log(self):
        log, _ = ingest(keyword_creation_csv())
        assert log.events == keyword_log.build_by_hand().events
        assert log.hierarchy == keyword_log.build_by_hand().hierarchy

    def test_first_row_shapes(self):
        log, _ = ingest(keyword_creation_csv())
        first = log.events[0]
        assert first.activity_name == "A_Login"
        assert first.action.action_type == "none"
        assert first.target.groups == ("login mask",)
        assert first.target.element is None
        assert first.input_value == {"username": "pren", "password": "dts123"}

    def test_dropdown_current_state(self):
        log, _ = ingest(keyword_creation_csv())
        dropdown = Target(element="dd type", groups=("fpanel keyword",))
        states = [e.current_state for e in log.events if e.target == dropdown]
        assert states == [["keyword", "keywords folder"]] * 2

    def test_coverage_matches_hand_counts(self):
        log, _ = ingest(keyword_creation_csv())
        matrix = coverage(log)
        assert matrix["input_value"].fraction == "5/20"
        assert matrix["current_state"].fraction == "4/20"

    def test_order_preserved(self):
        log, _ = ingest(keyword_creation_csv())
        expected = [row[0] for row in keyword_log.ROWS]
        assert [e.activity_name for e in log.events] == expected


class TestIngestBehavior:
    def test_empty_file_with_header(self):
        log, report = ingest("Activity,Action type\n")
        assert log.events == ()
        assert report.rows_read == 0

    def test_no_header_at_all(self):
        with pytest.raises(NoUsableColumnsError):
            ingest("")

    def test_missing_mapped_column(self):
        mapping = ColumnMapping(activity_name="Activity", timestamp="When")
        with pytest.raises(MissingColumnError):
            ingest("Activity\nx\n", mapping)

    def test_bad_timestamp_skips_row(self):
        text = "Activity,Timestamp\nok,2024-01-01T00:00:00Z\nbroken,yesterdayish\n"
        log, report = ingest(text)
        assert [e.activity_name for e in log.events] == ["ok"]
        assert report.rows_read == 2
        assert report.rows_skipped == ("row 2: bad timestamp 'yesterdayish'",)

    def test_sub_millisecond_input_truncates_with_warning(self):
        text = "Activity,Timestamp\nx,2024-01-01T00:00:00.123456Z\n"
        log, report = ingest(text)
        assert log.events[0].timestamp.microsecond == 123000
        assert any("truncated" in w for w in report.warnings)

    def test_timestamp_format_option(self):
        mapping = ColumnMapping(
            activity_name="Activity",
            timestamp="Timestamp",
            timestamp_format="%d.%m.%Y %H:%M",
        )
        log, _ = ingest("Activity,Timestamp\nx,01.02.2024 10:30\n", mapping)
        assert log.events[0].timestamp.isoformat() == "2024-02-01T10:30:00+00:00"

    def test_bad_literal_kept_as_text_with_warning(self):
        mapping = ColumnMapping(
            activity_name="Activity",
            input_value="Input value",
            value_parsers={"Input value": "map"},
        )
        log, report = ingest("Activity,Input value\nx,not a map\n", mapping)
        assert log.events[0].input_value == "not a map"
        assert report.warnings

    def test_synthesized_names(self):
        text = "Action type,UI element,UI group\nleft click,go,main\n"
        log, report = ingest(text)
        assert log.events[0].activity_name == "left click go"
        assert report.rows_skipped == ()

    def test_row_without_name_or_target_is_skipped(self):
        text = "Action type,UI element\nleft click,\n"
        log, report = ingest(text)
        assert log.events == ()
        assert len(report.rows_skipped) == 1

    def test_extras_kept_as_attributes(self):
        text = "Activity,Screen width\nx,1920\n"
        log, _ = ingest(text)
        assert log.events[0].attributes == {"Screen width": "1920"}

    def test_extras_ignored_when_asked(self):
        mapping = ColumnMapping(activity_name="Activity", extras="ignore")
        log, _ = ingest("Activity,Noise\nx,zzz\n", mapping)
        assert log.events[0].attributes == {}

    def test_state_without_element_warns(self):
        text = "Activity,UI group,Current state\nx,main,[a]\n"
        log, report = ingest(text)
        assert report.warnings
        assert log.hierarchy.ui_elements == ()

    def test_users_and_tasks_registered(self):
        text = "Activity,User,Task\nx,alice,review\n"
        log, _ = ingest(text)
        assert log.events[0].user == "alice"
        assert log.users == {"alice": {}}
        assert log.tasks == {"review": {}}
        assert validate(log).ok

    def test_semicolon_delimiter(self):
        log, _ = ingest("Activity;UI element;UI group\nclick go;go;main\n", delimiter=";")
        assert log.events[0].target.element == "go"

    @pytest.mark.parametrize("delimiter", ["", ";;", '"', "\r", "\n", "\0", None],
                             ids=["empty", "two", "quote", "cr", "lf", "nul", "none"])
    def test_bad_delimiter_is_a_config_error_on_every_python(self, delimiter):
        message = r"^delimiter must be one character other than a quote, line break or NUL"
        with pytest.raises(BadConfigError, match=message):
            ingest("Activity\nx\n", delimiter=delimiter)
        with pytest.raises(BadConfigError, match=message):
            write_table(keyword_log.build_by_hand(), delimiter=delimiter)

    @pytest.mark.parametrize("header", ["Activity,,x", "Activity, ,x"], ids=["empty", "blank"])
    def test_value_under_an_unnamed_column_is_an_error(self, header):
        with pytest.raises(MissingColumnError, match=r"^row 2: column 2 holds 'b'"):
            ingest(f"{header}\na,,c\nb, b ,c\n")

    def test_unnamed_column_without_values_loads(self):
        log, _ = ingest("Activity,x,\na,1,\nb,2\n")
        assert [e.attributes for e in log.events] == [{"x": "1"}, {"x": "2"}]

    def test_unnamed_column_is_dropped_when_extras_are_ignored(self):
        mapping = ColumnMapping(activity_name="Activity", extras="ignore")
        log, _ = ingest("Activity,,x\na,b,c\n", mapping)
        assert log.events[0].attributes == {}

    @pytest.mark.parametrize(
        "text,message",
        [
            ("Activity,UI group\nx,login/\n", "row 1: id must be non-empty text"),
            ("Activity,UI group\nx,ok\ny,/login\n", "row 2: id must be non-empty text"),
            ("Activity,UI group\nx,a//b\n", "row 1: id must be non-empty text"),
            ("Activity,Input\nx," + "a" * 131073 + "\n", "row 1: field larger than field limit"),
            ("Activity,UI element\nx,a\rb\n", "row 1: new-line character seen"),
            ("Act\rivity,UI element\nx,a\n", "header: new-line character seen"),
        ],
        ids=["trailing-slash", "leading-slash", "double-slash", "long-field", "cr", "cr-in-header"],
    )
    def test_unreadable_row_is_a_located_error(self, text, message):
        with pytest.raises(MalformedDocumentError, match="^" + re.escape(message)):
            ingest(text)


# Header names the synonym table knows, blank ones and unknown ones; cells
# mixing digits and letters with the characters that csv, the literal
# parsers and the group path codec treat specially.
_HEADERS = st.sampled_from(sorted(_SYNONYMS) + ["", " ", "Noise", "Screen width"])
_CELLS = st.text(alphabet=',:[]{}"/\\\r\n0123456789abcXYZ', max_size=10)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_HEADERS, min_size=1, max_size=6),
    st.lists(st.lists(_CELLS, max_size=7), max_size=5),
)
def test_ingest_raises_only_uilog_errors(header, rows):
    text = "".join(",".join(cells) + "\n" for cells in [header, *rows])
    try:
        ingest(text)
    except UILogError:
        pass


@pytest.mark.parametrize("text", [keyword_creation_csv(), raw_login_csv()], ids=["keyword", "login"])
def test_ingest_builds_what_the_public_constructors_build(text):
    log, _ = ingest(text)
    rebuilt = genlogs.rebuilt_by_constructors(log)
    assert rebuilt.events == log.events
    assert rebuilt.hierarchy == log.hierarchy
    assert write_xes(rebuilt) == write_xes(log)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 299))
def test_ingest_of_written_tables_builds_what_the_constructors_build(seed):
    log, _ = ingest(write_table(genlogs.random_log(random.Random(seed), max_events=60)))
    rebuilt = genlogs.rebuilt_by_constructors(log)
    assert rebuilt.events == log.events
    assert rebuilt.hierarchy == log.hierarchy
    assert write_xes(rebuilt, check=False) == write_xes(log, check=False)


class TestInferMapping:
    def test_keyword_creation_header(self):
        header = keyword_creation_csv().splitlines()[0].split(",")
        mapping = infer_mapping(header)
        assert mapping.activity_name == "Activity"
        assert mapping.action_type == "Action type"
        assert mapping.ui_element == "UI element"
        assert mapping.ui_group_path == "UI group"
        assert mapping.input_value == "Input value"
        assert mapping.current_state == "Current state"

    def test_unusable_header(self):
        with pytest.raises(NoUsableColumnsError):
            infer_mapping(["foo", "bar"])

    def test_camel_case_and_synonyms(self):
        mapping = infer_mapping(["Timestamp", "ActionType", "Target"])
        assert mapping.timestamp == "Timestamp"
        assert mapping.action_type == "ActionType"
        assert mapping.ui_element == "Target"

    def test_first_match_wins(self):
        mapping = infer_mapping(["Activity", "Activity name"])
        assert mapping.activity_name == "Activity"


class TestLiterals:
    def test_paper_shapes(self):
        assert parse_map_literal("{username: pren, password: dts123}") == {
            "username": "pren",
            "password": "dts123",
        }
        assert parse_list_literal("[keyword, keywords folder]") == [
            "keyword",
            "keywords folder",
        ]
        assert parse_map_literal("{}") == {}
        assert parse_list_literal("[]") == []

    def test_doubled_delimiters_escape(self):
        assert parse_map_literal("{a:: b: c,, d}") == {"a: b": "c, d"}
        assert parse_list_literal("[a,, b, c]") == ["a, b", "c"]

    def test_bad_literals(self):
        with pytest.raises(BadLiteralError):
            parse_map_literal("{no colon}")
        with pytest.raises(BadLiteralError):
            parse_map_literal("{a: 1, a: 2}")
        with pytest.raises(BadLiteralError):
            parse_list_literal("{a}")

    @given(
        st.dictionaries(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1
            ).map(str.strip).filter(bool),
            st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc"))).map(
                str.strip
            ),
            max_size=5,
        )
    )
    def test_map_round_trip(self, value):
        assert parse_map_literal(render_map_literal(value)) == value

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1
            ).map(str.strip).filter(bool),
            max_size=6,
        )
    )
    def test_list_round_trip(self, value):
        assert parse_list_literal(render_list_literal(value)) == value

    def test_lone_empty_item_is_out_of_grammar(self):
        assert parse_list_literal(render_list_literal([""])) == []

    @pytest.mark.parametrize("value, cell, read", [
        (  # map in map
            {"top": 41, "scroll": {"x": 0.734, "y": 0.635}},
            "{top: 41, scroll: {x:: 0.734,, y:: 0.635}}",
            {"top": "41", "scroll": "{x: 0.734, y: 0.635}"},
        ),
        (  # list in map
            {"picked": ["a", "b, c"], "none": []},
            "{picked: [a,, b,,,, c], none: []}",
            {"picked": "[a, b,, c]", "none": "[]"},
        ),
        (  # map in list
            [{"k": "v:w", "on": True}, "x"],
            "[{k: v::w,, on: true}, x]",
            ["{k: v::w, on: true}", "x"],
        ),
    ])
    def test_nested_items_are_written_as_literals(self, value, cell, read):
        log = UILog(events=(InteractionEvent("a", input_value=value),))
        emitted = write_table(log)
        assert next(csv.reader(io.StringIO(emitted.splitlines()[1])))[1] == cell
        again, report = ingest(emitted)
        assert report.warnings == ()
        assert again.events[0].input_value == read
        assert write_table(again) == emitted


class TestInverseWriter:
    def test_reproduces_fixture_cells(self):
        text = keyword_creation_csv()
        log, _ = ingest(text)
        mapping = infer_mapping(text.splitlines()[0].split(","))
        emitted = write_table(log, mapping)
        original = list(csv.reader(io.StringIO(text)))
        produced = list(csv.reader(io.StringIO(emitted)))
        trimmed = [[cell.strip() for cell in row] for row in original]
        assert produced == trimmed

    def test_default_columns_cover_populated_fields(self):
        log, _ = ingest(raw_login_csv())
        emitted = write_table(log)
        header = emitted.splitlines()[0].split(",")
        assert header[0] == "Activity"
        assert "Input value" in header
        assert "Timestamp" not in header  # nothing populated it

    def test_ingest_write_ingest_is_stable(self):
        log, _ = ingest(keyword_creation_csv())
        again, _ = ingest(write_table(log))
        assert again.events == log.events
        assert again.hierarchy == log.hierarchy

    def test_each_row_keeps_its_own_state_through_xes(self):
        text = 'Activity,UI element,Current state\na,dd,"[x, y]"\nb,dd,"[x, y, z]"\nc,dd,\n'
        log, _ = ingest(text)
        assert [e.current_state for e in log.events] == [["x", "y"], ["x", "y", "z"], None]
        assert write_table(read_xes(write_xes(log))) == text

    def test_extras_survive_the_round_trip(self):
        text = "Activity,Mood,Screen\nx,fine,main\ny,,main\n"
        log, _ = ingest(text)
        mapping = infer_mapping(["Activity", "Mood", "Screen"])
        emitted = write_table(log, mapping)
        assert emitted.splitlines()[0] == "Activity,Mood,Screen"
        again, _ = ingest(emitted)
        assert again.events == log.events


    def test_a_row_holding_a_carriage_return_is_quoted_in_full(self):
        log = UILog(events=(InteractionEvent("a\rb", input_value="x"), InteractionEvent("c")))
        emitted = write_table(log)
        assert emitted == 'Activity,Input value\n"a\rb","x"\nc,\n'
        again, _ = ingest(emitted)
        assert again.events == log.events

    def test_a_traced_table_reads_and_writes_back_as_it_was(self):
        log = UILog(
            events=(InteractionEvent("a"), InteractionEvent("b")),
            traces=(Trace(id="t1", events=(1,)), Trace(id="t2", events=(0,))),
        )
        emitted = write_table(log)
        assert emitted == "Activity,Trace\nb,t1\na,t2\n"
        again, _ = ingest(emitted)
        assert [e.attributes for e in again.events] == [{"Trace": "t1"}, {"Trace": "t2"}]
        assert write_table(again) == emitted

    def test_extra_keys_naming_fields_round_trip(self):
        log = UILog(events=(
            InteractionEvent("a", attributes={"Activity": "x"}),
            InteractionEvent("b", attributes={"time": "soon", "state": "on"}),
        ))
        emitted = write_table(log)
        assert emitted.splitlines()[0] == "Activity,Current state,Timestamp,Activity,time,state"
        again, report = ingest(emitted)
        assert report.rows_skipped == report.warnings == ()
        assert again.events == log.events
        assert write_table(again) == emitted

    def test_a_trace_attribute_of_a_traced_log_has_no_column(self):
        log = UILog(
            events=(InteractionEvent("a", attributes={"Trace": "mine"}),),
            traces=(Trace(id="t1", events=(0,)),),
        )
        with pytest.raises(UnserializableValueError, match="'Trace'"):
            write_table(log)

    def test_text_values_that_would_not_read_back_are_wrapped(self):
        values = ["", " padded ", "[a, b]", "{k: v}", "'quoted'", "''", "'", "plain", "[a"]
        log = UILog(events=tuple(InteractionEvent("x", input_value=v) for v in values))
        cells = [row[1] for row in csv.reader(io.StringIO(write_table(log)))][1:]
        assert cells == [
            "''", "' padded '", "'[a, b]'", "'{k: v}'", "''quoted''", "''''", "'", "plain", "[a"
        ]


# Text a value may hold: any but NUL and lone surrogates, drawn often from
# the characters that csv, the cell trim, the literal parsers and the
# value cell escape treat specially.
_TEXT = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\0")),
    st.text(alphabet=" \t\r\n'\"[]{},:ab", max_size=8),
)
# The item domain of TestLiterals' round trips.
_ITEM = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1
).map(str.strip).filter(bool)
_MAP_VALUE = st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc"))).map(str.strip)


def values_through_csv(value):
    """``value`` read back from a written table as an input value, as a
    current state and as an extra attribute."""
    log = UILog(events=(
        InteractionEvent("a", input_value=value),
        InteractionEvent("b", target=Target(element="e"), current_state=value),
        InteractionEvent("c", attributes={"Remark": value}),
    ))
    again, report = ingest(write_table(log))
    assert report.rows_skipped == report.warnings == ()
    first, second, third = again.events
    return [first.input_value, second.current_state, third.attributes.get("Remark")]


@settings(max_examples=400, deadline=None)
@given(_TEXT)
def test_text_values_round_trip_through_csv(text):
    assert values_through_csv(text) == [text] * 3


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(_ITEM, max_size=6), st.dictionaries(_ITEM, _MAP_VALUE, max_size=5)
))
def test_list_and_map_values_round_trip_through_csv(value):
    assert values_through_csv(value) == [value] * 3


# Values with lists and maps inside, whose innermost text may be padded
# or empty: a nested item is text once read back, but reads and writes
# back as the same cell.
_NESTED = st.recursive(
    st.one_of(
        st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc"))),
        st.integers(-(2**63), 2**63 - 1), st.booleans(),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_ITEM, inner, max_size=3)),
    max_leaves=10,
).filter(lambda value: isinstance(value, (list, dict)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(st.one_of(_ITEM, _NESTED), max_size=4),
    st.dictionaries(_ITEM, st.one_of(_MAP_VALUE, _NESTED), max_size=4),
))
def test_nested_values_write_back_as_they_were_written(value):
    log = UILog(events=(
        InteractionEvent("a", input_value=value),
        InteractionEvent("b", target=Target(element="e"), current_state=value),
        InteractionEvent("c", attributes={"Remark": value}),
    ))
    emitted = write_table(log)
    again, report = ingest(emitted)
    assert report.rows_skipped == report.warnings == ()
    assert write_table(again) == emitted

    def as_read(item):
        if isinstance(item, list):
            return render_list_literal(item)
        return render_map_literal(item) if isinstance(item, dict) else item

    read = (
        [as_read(item) for item in value] if isinstance(value, list)
        else {key: as_read(item) for key, item in value.items()}
    )
    first, second, third = again.events
    assert [first.input_value, second.current_state, third.attributes["Remark"]] == [read] * 3


class TestMappingFiles:
    def test_load_mapping(self):
        text = """
[columns]
activity_name = Activity
timestamp = When

[options]
timestamp_format = %Y-%m-%d %H:%M
extras = ignore

[parsers]
Payload = map
"""
        mapping = load_mapping(text)
        assert mapping.activity_name == "Activity"
        assert mapping.timestamp == "When"
        assert mapping.timestamp_format == "%Y-%m-%d %H:%M"
        assert mapping.extras == "ignore"
        assert mapping.value_parsers == {"Payload": "map"}

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            load_mapping("[columns]\nnot_a_field = X\n")

    def test_unusable_mapping_rejected(self):
        mapping = ColumnMapping(action_type="Action")
        with pytest.raises(NoUsableColumnsError):
            ingest("Action\nclick\n", mapping)
