import csv
import io
import random
import re
from datetime import datetime, timezone
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from uilog import (
    Action,
    BadConfigError,
    BadLiteralError,
    HierarchyBuilder,
    InteractionEvent,
    InvalidLogError,
    MalformedDocumentError,
    MissingColumnError,
    NoUsableColumnsError,
    Target,
    Trace,
    UILog,
    UILogError,
    UnserializableValueError,
    ViolationCode,
    coverage,
    infer_mapping,
    ingest,
    load_mapping,
    normalize_value,
    read_xes,
    validate,
    write_table,
    write_xes,
)
from uilog.fixtures import keyword_creation_csv, raw_login_csv
from uilog.model import MAX_NESTING_DEPTH
from uilog.tabular import (
    _SYNONYMS,
    ColumnMapping,
    _Items,
    _plain_text,
    parse_list_literal,
    parse_map_literal,
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

    @pytest.mark.parametrize("parser, cell, value, warnings", [
        ("map", "{k: v}", {"k": "v"}, 0),
        ("list", "[a, b]", ["a", "b"], 0),
        ("list", "{k: v}", "{k: v}", 1),  # not a list: kept as text
        ("plain", "[a, b]", "[a, b]", 0),
        ("plain", "{k: v}", "{k: v}", 0),
        ("plain", "'[a]'", "[a]", 0),
    ])
    def test_a_forced_parser_reads_its_column(self, parser, cell, value, warnings):
        mapping = ColumnMapping(
            activity_name="Activity", input_value="Input value",
            value_parsers={"Input value": parser},
        )
        log, report = ingest(f'Activity,Input value\nx,"{cell}"\n', mapping)
        assert log.events[0].input_value == value
        assert len(report.warnings) == warnings

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

    def test_state_without_element_is_kept(self):
        text = "Activity,UI group,Current state\nx,main,[a]\ny,,open\n"
        log, report = ingest(text)
        assert report.warnings == ()
        assert log.hierarchy.ui_elements == ()
        assert [event.current_state for event in log.events] == [["a"], "open"]
        assert [v.event_index for v in validate(log).violations
                if v.code == ViolationCode.STATE_WITHOUT_ELEMENT] == [0, 1]

    @pytest.mark.parametrize("header", ["Timestamp,Activity", '"Timestamp","Activity"'],
                             ids=["unquoted", "quoted"])
    def test_a_leading_byte_order_mark_is_ignored(self, header):
        text = f"\ufeff{header}\n2024-01-01T10:00:00Z,x\n"
        for source in (text, text.splitlines(keepends=True)):
            log, report = ingest(source)
            assert log.events[0].timestamp == datetime(2024, 1, 1, 10, tzinfo=timezone.utc)
            assert log.events[0].attributes == {}
            assert report.warnings == ()

    def test_non_empty_cells_beyond_the_header_are_dropped_with_a_warning(self):
        log, report = ingest("Activity,Mood\nx,fine,2,3\ny,bad,,\nz,ok, \n")
        assert [e.attributes for e in log.events] == [{"Mood": m} for m in ("fine", "bad", "ok")]
        assert report.warnings == (
            "row 1: cells beyond the header's 2 column(s) are not kept; ignored",
        )

    def test_rows_that_repeat_a_literal_cell_get_their_own_value(self):
        row = ',{k: v},"[x, y]",[t],"{a: [1, 2]}"\n'
        log, _ = ingest(f"Activity,Input value,Current state,Tags,Nested\na{row}b{row}")
        first, second = log.events
        for field in ("input_value", "current_state"):
            assert getattr(first, field) == getattr(second, field)
            assert getattr(first, field) is not getattr(second, field)
        assert first.attributes["Tags"] is not second.attributes["Tags"]
        assert first.attributes["Nested"]["a"] is not second.attributes["Nested"]["a"]
        first.current_state.append("z")
        first.input_value["n"] = "m"
        first.attributes["Tags"].append("u")
        first.attributes["Nested"]["a"].append("3")
        assert (second.input_value, second.current_state, second.attributes) == (
            {"k": "v"}, ["x", "y"], {"Tags": ["t"], "Nested": {"a": ["1", "2"]}}
        )

    def test_a_bad_literal_warns_on_every_row_it_is_on(self):
        log, report = ingest("Activity,Current state\na,{k}\nb,[x]\nc,{k}\n")
        assert [e.current_state for e in log.events] == ["{k}", ["x"], "{k}"]
        assert report.warnings == (
            "row 1: map entry without key: 'k'; kept as text",
            "row 3: map entry without key: 'k'; kept as text",
        )

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

    @pytest.mark.parametrize("header", ["Activity,Mood,Mood", "Activity,Mood,x, Mood "])
    def test_extra_columns_named_alike_are_a_header_error(self, header):
        last = len(header.split(","))
        with pytest.raises(MissingColumnError, match=rf"^header: columns 2 and {last} are "
                                                     "both named 'Mood'$"):
            ingest(f"{header}\nx,fine,bad,worse\n")

    def test_unnamed_or_ignored_columns_may_repeat(self):
        log, _ = ingest("Activity,,Mood,\nx,,fine,\n")
        assert log.events[0].attributes == {"Mood": "fine"}
        mapping = ColumnMapping(activity_name="Activity", extras="ignore")
        log, _ = ingest("Activity,Mood,Mood\nx,fine,bad\n", mapping)
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
_CELLS = st.text(alphabet=',:[]{}"\' /\\\r\n0123456789abcXYZ', max_size=10)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_HEADERS, min_size=1, max_size=6),
    st.lists(st.lists(_CELLS, max_size=7), max_size=5),
)
def test_ingest_raises_only_uilog_errors(header, rows):
    text = "".join(",".join(cells) + "\n" for cells in [header, *rows])
    try:
        log, _ = ingest(text)
    except UILogError:
        return
    for event in log.events:
        for value in (event.input_value, event.current_state, *event.attributes.values()):
            if value is not None:
                normalize_value(value)


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

    def test_an_unusable_header_or_mapping_says_which(self):
        header = ("header: no usable column in ['Actvity', 'Timestamp']; it needs an activity "
                  "column, or an action type column and a target column")
        with pytest.raises(NoUsableColumnsError, match=f"^{re.escape(header)}$"):
            ingest("Actvity, Timestamp\nx,2024-01-01T00:00:00Z\n")
        mapping = "mapping: must provide activity_name or action_type plus a target column"
        with pytest.raises(NoUsableColumnsError, match=f"^{re.escape(mapping)}$"):
            ingest("Activity\nx\n", ColumnMapping(action_type="Activity"))

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

    def test_quoted_items_are_their_text(self):
        assert parse_map_literal("{'a: b': 'c, d', 'it''s': '', k: ' v '}") == {
            "a: b": "c, d", "it's": "", "k": " v "
        }
        assert parse_list_literal("['[x]', it's, '{y}' , '''']") == ["[x]", "it's", "{y}", "'"]
        # A doubled separator is no escape: it ends an empty item.
        assert parse_list_literal("[a,, b]") == ["a", "", "b"]

    def test_items_that_open_a_literal_nest(self):
        assert parse_map_literal("{k: {x: 1}, l: [[], [a, {}]]}") == {
            "k": {"x": "1"}, "l": [[], ["a", {}]]
        }
        assert parse_map_literal("{[a]: b}") == {"[a]": "b"}  # a key is always text

    def test_bad_literals(self):
        with pytest.raises(BadLiteralError):
            parse_map_literal("{no colon}")
        with pytest.raises(BadLiteralError):
            parse_map_literal("{a: 1, a: 2}")
        with pytest.raises(BadLiteralError, match=r"^empty key in map literal: '\{ : v\}'$"):
            parse_map_literal("{ : v}")
        with pytest.raises(BadLiteralError):
            parse_list_literal("{a}")

    @pytest.mark.parametrize("text, message", [
        ("[Open [recent], Save]", "text after an item: ', Save]'"),
        ("['a' b]", "text after an item: 'b'"),
        ("['a, b]", "unclosed apostrophe in \"['a, b]\""),
        ("[a, [b]", "unclosed literal: '[a, [b]'"),
        ("{k: {x}}", "map entry without key: 'x'"),
    ], ids=["closer-in-a-bare-item", "text-after-a-quote", "unclosed-apostrophe",
            "unclosed-literal", "entry-without-key"])
    def test_malformed_nesting_or_quoting_is_a_bad_literal(self, text, message):
        with pytest.raises(BadLiteralError, match=f"^{re.escape(message)}$"):
            parse_list_literal(text) if text[0] == "[" else parse_map_literal(text)

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
        assert parse_map_literal(_plain_text(value, "k", _Items())) == value

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1
            ).map(str.strip).filter(bool),
            max_size=6,
        )
    )
    def test_list_round_trip(self, value):
        assert parse_list_literal(_plain_text(value, "k", _Items())) == value

    def test_a_lone_empty_item_reads_back(self):
        assert _plain_text([""], "k", _Items()) == "['']"
        assert parse_list_literal("['']") == [""]
        assert parse_list_literal("[ ]") == []

    @pytest.mark.parametrize("value, cell, read", [
        (  # map in map
            {"top": 41, "scroll": {"x": 0.734, "y": 0.635}},
            "{top: 41, scroll: {x: 0.734, y: 0.635}}",
            {"top": "41", "scroll": {"x": "0.734", "y": "0.635"}},
        ),
        (  # list in map
            {"picked": ["a", "b, c"], "none": []},
            "{picked: [a, 'b, c'], none: []}",
            {"picked": ["a", "b, c"], "none": []},
        ),
        (  # map in list
            [{"k": "v:w", "on": True}, "x"],
            "[{k: 'v:w', on: true}, x]",
            [{"k": "v:w", "on": "true"}, "x"],
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
        emitted = write_table(log)
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
        emitted = write_table(log)
        assert emitted.splitlines()[0] == "Activity,Mood,Screen"
        again, _ = ingest(emitted)
        assert again.events == log.events

    def test_an_inferred_mapping_writes_the_canonical_layout(self):
        log, _ = ingest("Timestamp,Activity\n2024-01-01T09:00:00Z,a\n,b\n")
        emitted = write_table(log)
        assert emitted.splitlines()[0] == "Activity,Timestamp"
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

    @pytest.mark.parametrize("key", [" k", "k\t", " "], ids=["leading", "trailing", "blank"])
    def test_a_padded_or_blank_attribute_key_round_trips(self, key):
        log = UILog(events=(InteractionEvent("a", attributes={"Mood": "ok", key: "v"}),))
        emitted = write_table(log)
        assert next(csv.reader(io.StringIO(emitted))) == ["Activity", "Mood", f"'{key}'"]
        again, report = ingest(emitted)
        assert report.rows_skipped == report.warnings == ()
        assert again.events == log.events
        assert write_table(again) == emitted

    def test_a_trace_attribute_that_is_its_trace_id_is_written_once(self):
        log = UILog(
            events=(
                InteractionEvent("a", attributes={"Trace": "t2"}),
                InteractionEvent("b", attributes={"Trace": "t1", "Mood": "fine"}),
                InteractionEvent("c", attributes={"Trace": "'t1'"}),
            ),
            traces=(Trace(id="t1", events=(1,)), Trace(id="t2", events=(0,)),
                    Trace(id="'t1'", events=(2,))),
        )
        emitted = write_table(log)
        assert emitted == "Activity,Trace,Mood\nb,t1,fine\na,t2,\nc,''t1'',\n"
        again, _ = ingest(emitted)
        assert [e.attributes for e in again.events] == [
            {"Trace": "t1", "Mood": "fine"}, {"Trace": "t2"}, {"Trace": "'t1'"}
        ]
        assert write_table(again) == emitted

    def test_a_trace_id_is_the_last_attribute_of_its_rows(self):
        log = UILog(
            events=(
                InteractionEvent("a", attributes={"Mood": "fine"}),
                InteractionEvent("b"),
                InteractionEvent("c", attributes={"Screen": "main"}),
            ),
            traces=(Trace(id="t1", events=(0, 1)), Trace(id="[t2]", events=(2,))),
        )
        emitted = write_table(log)
        assert emitted == "Activity,Mood,Trace,Screen\na,fine,t1,\nb,,t1,\nc,,'[t2]',main\n"
        again, _ = ingest(emitted)
        assert [e.attributes for e in again.events] == [
            {"Mood": "fine", "Trace": "t1"}, {"Trace": "t1"}, {"Trace": "[t2]", "Screen": "main"}
        ]
        assert write_table(again) == emitted

    def test_a_trace_attribute_that_is_not_text_is_checked_by_its_cell(self):
        event = InteractionEvent("a", attributes={"Trace": 5})
        log = UILog(events=(event,), traces=(Trace(id="t1", events=(0,)),))
        with pytest.raises(UnserializableValueError,
                           match=re.escape("event attribute 'Trace' '5' is not its trace id 't1'")):
            write_table(log)
        log = UILog(events=(event,), traces=(Trace(id="5", events=(0,)),))
        assert write_table(log) == "Activity,Trace\na,5\n"

    @pytest.mark.parametrize("attributes, column, length", [
        ({"note": "x" * 200000}, "'note'", 200000),
        ({"note": ["x" * 200000]}, "'note'", 200002),
        ({"k" * 200000: "v"}, repr("k" * 200000), 200000),
    ], ids=["text", "list literal", "header"])
    def test_a_cell_too_long_for_csv_names_its_column(self, attributes, column, length):
        log = UILog(events=(InteractionEvent("a", attributes=attributes),))
        with pytest.raises(UnserializableValueError) as raised:
            write_table(log)
        assert str(raised.value) == (
            f"column {column}: a cell of {length} characters is too long for csv"
        )

    @pytest.mark.parametrize("names, indices", [("ab", (-1, 0)), ("a", (3,))])
    @pytest.mark.parametrize("write", [write_table, write_xes], ids=["csv", "xes"])
    def test_a_trace_index_out_of_range_is_an_invalid_log(self, write, names, indices):
        log = UILog(events=tuple(map(InteractionEvent, names)), traces=(Trace("t", indices),))
        message = f"trace 't' references event index {indices[0]}, which is out of range"
        assert message in [v.message for v in validate(log).violations]
        with pytest.raises(InvalidLogError, match=re.escape(message)):
            write(log, **({"check": False} if write is write_xes else {}))

    def test_a_timestamp_format_is_read_and_iso_8601_written(self):
        mapping = ColumnMapping(activity_name="Activity", timestamp="Timestamp",
                                timestamp_format="%d.%m.%Y %H:%M:%S.%f")
        log, _ = ingest("Activity,Timestamp\nx,01.02.2024 09:30:59.250\ny,\n", mapping)
        emitted = write_table(log)
        assert emitted == "Activity,Timestamp\nx,2024-02-01T09:30:59.250+00:00\ny,\n"
        again, report = ingest(emitted)
        assert report.rows_skipped == report.warnings == ()
        assert again.events == log.events
        assert again.events[0].timestamp == datetime(2024, 2, 1, 9, 30, 59, 250000, timezone.utc)

    def test_text_values_that_would_not_read_back_are_wrapped(self):
        values = ["", " padded ", "[a, b]", "{k: v}", "'quoted'", "''", "'", "plain", "[a"]
        log = UILog(events=tuple(InteractionEvent("x", input_value=v) for v in values))
        cells = [row[1] for row in csv.reader(io.StringIO(write_table(log)))][1:]
        assert cells == [
            "''", "' padded '", "'[a, b]'", "'{k: v}'", "''quoted''", "''''", "'", "plain", "[a"
        ]

    def test_activity_names_take_the_text_half_of_the_escape(self):
        names = ["", " padded ", "'quoted'", "''", "'", "[a, b]", "{k: v}", "plain"]
        log = UILog(events=tuple(InteractionEvent(name) for name in names))
        cells = [row[0] for row in csv.reader(io.StringIO(write_table(log)))][1:]
        assert cells == ["''", "' padded '", "''quoted''", "''''", "'", "[a, b]", "{k: v}", "plain"]

    def test_an_activity_cell_between_apostrophes_is_its_text(self):
        log, report = ingest("Activity,UI element\n'x',\n'',e\n'[a]',\n")
        assert report.rows_skipped == ()
        assert [e.activity_name for e in log.events] == ["x", "", "[a]"]

    def test_ids_and_headers_between_apostrophes_are_their_text(self):
        text = "' Activity',UI element,'Action type',User,' k '\n'a',' e','[x]','''',v\n"
        log, report = ingest(text)
        assert report.rows_skipped == report.warnings == ()
        event = log.events[0]
        assert (event.activity_name, event.target.element, event.action.action_type) == (
            "a", " e", "[x]"
        )
        assert (event.user, log.users, event.attributes) == ("''", {"''": {}}, {" k ": "v"})

    def test_a_wrapped_empty_id_is_not_recorded(self):
        text = "Activity,UI element,UI group,Action type,User,Task\na,'',g,'','',''\n,'',g,,,\n"
        log, report = ingest(text)
        assert report.rows_skipped == report.warnings == ()
        assert [e.target for e in log.events] == [Target(groups=("g",))] * 2
        assert [(e.action, e.user, e.task) for e in log.events] == [(None, None, None)] * 2
        assert log.events[1].activity_name == "none g"
        assert (log.users, log.tasks) == ({}, {})

    def test_a_row_whose_target_cells_are_all_wrapped_empty_has_no_target(self):
        log, report = ingest("Activity,UI element,System\na,'',''\n,'',''\n")
        assert [e.target for e in log.events] == [None]
        assert report.rows_skipped == ("row 2: no activity name and no target to name it by",)


def _holding(value):
    """An untraced log whose one event holds ``value`` under the key ``k``,
    put there after construction, which would refuse it."""
    event = InteractionEvent("a", attributes={"k": "v"})
    event.attributes["k"] = value
    return UILog(events=(event,))


@pytest.mark.parametrize(
    "value, kind",
    [({1, 2}, "set"), ((1, 2), "tuple"), (b"x", "bytes"), (object(), "object"),
     ([1, {2}], "set"), ({"m": (1,)}, "tuple"), ({"m": [b"x"]}, "bytes")],
    ids=["set", "tuple", "bytes", "object", "set-in-list", "tuple-in-map", "bytes-in-both"],
)
@pytest.mark.parametrize("write", [write_table, partial(write_xes, check=False)],
                         ids=["csv", "xes"])
def test_both_writers_refuse_a_value_xes_cannot_hold(write, value, kind):
    with pytest.raises(UnserializableValueError, match=f"has unsupported type {kind}$"):
        write(_holding(value))


@pytest.mark.parametrize("value", [{1}, [(1,)], {"m": b"x"}], ids=["top", "in-list", "in-map"])
def test_write_table_names_the_key_of_a_value_xes_cannot_hold(value):
    with pytest.raises(UnserializableValueError, match="^attribute 'k' has unsupported type"):
        write_table(_holding(value))
    event = InteractionEvent("a", input_value=["x"])
    event.input_value.append(value)
    with pytest.raises(UnserializableValueError, match="^attribute 'Input value' has "):
        write_table(UILog(events=(event,)))


# Text a value may hold: any but NUL and lone surrogates, drawn often from
# the characters that csv, the cell trim, the literal parsers and the
# value cell escape treat specially.
_TEXT = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\0")),
    st.text(alphabet=" \t\r\n'\"[]{},:ab", max_size=8),
)
# Non-empty text: any id, action type or attribute key the model admits.
_ID = _TEXT.filter(bool)


@settings(max_examples=300, deadline=None)
@given(_ID, st.lists(_ID, min_size=1, max_size=3), _ID, _ID, _ID, _ID, _ID, _ID)
def test_ids_and_keys_round_trip_through_csv(element, groups, application, system, action_type,
                                             user, task, key):
    builder = HierarchyBuilder()
    target = builder.chain(system=system, application=application, groups=groups,
                           element=element)
    group = builder.chain(system=system, application=application, groups=groups)
    log = UILog(
        events=(
            InteractionEvent("a", action=Action(action_type), target=target, user=user,
                             task=task, attributes={key: "v"}),
            InteractionEvent("b", target=group),
        ),
        hierarchy=builder.build(), users={user: {}}, tasks={task: {}},
    )
    written = write_table(log)
    again, report = ingest(written)
    assert report.rows_skipped == report.warnings == ()
    assert again.events == log.events
    assert again.hierarchy == log.hierarchy
    assert (again.users, again.tasks) == (log.users, log.tasks)
    assert write_table(again) == written


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


@settings(max_examples=400, deadline=None)
@given(_TEXT)
def test_activity_names_round_trip_through_csv(name):
    log = UILog(events=(InteractionEvent(name), InteractionEvent(name, target=Target(element="e"))))
    again, report = ingest(write_table(log))
    assert report.rows_skipped == report.warnings == ()
    assert [event.activity_name for event in again.events] == [name, name]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(_TEXT, max_size=6), st.dictionaries(_ID, _TEXT, max_size=5)))
def test_list_and_map_values_round_trip_through_csv(value):
    assert values_through_csv(value) == [value] * 3


# Lists and maps of any text nested up to MAX_NESTING_DEPTH levels: a
# small nested value, wrapped in lists and maps with text beside it.
_NESTED = st.recursive(
    _TEXT, lambda inner: st.one_of(st.lists(inner, max_size=3),
                                   st.dictionaries(_ID, inner, max_size=3)),
    max_leaves=10,
).filter(lambda value: isinstance(value, (list, dict)))


def _depth(value) -> int:
    """How many lists and maps deep ``value`` nests."""
    if not isinstance(value, (list, dict)):
        return 0
    return 1 + max(map(_depth, value.values() if isinstance(value, dict) else value), default=0)


@st.composite
def _deep_values(draw):
    value = draw(_NESTED)
    for _ in range(draw(st.integers(0, MAX_NESTING_DEPTH - _depth(value)))):
        if draw(st.booleans()):
            beside = draw(st.lists(_TEXT, max_size=2))
            beside.insert(draw(st.integers(0, len(beside))), value)
        else:
            beside = draw(st.dictionaries(_ID, _TEXT, max_size=2))
            beside[draw(_ID)] = value
        value = beside
    return value


@settings(max_examples=300, deadline=None)
@given(_deep_values())
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
    first, second, third = again.events
    assert [first.input_value, second.current_state, third.attributes["Remark"]] == [value] * 3


@pytest.mark.parametrize("depth", [32, 33, 5000])
@pytest.mark.parametrize("kind", [list, dict])
def test_a_cell_nests_as_deep_as_the_model_allows_and_deeper_is_text(kind, depth):
    opener, closer = ("[", "]") if kind is list else ("{k: ", "}")
    cell = opener * depth + "x" + closer * depth
    text = f"Activity,Input value,Remark\na,{cell},{cell}\n"
    log, report = ingest(text)
    event = log.events[0]
    if depth <= MAX_NESTING_DEPTH:
        value = "x"
        for _ in range(depth):
            value = [value] if kind is list else {"k": value}
        assert report.warnings == ()
        assert (event.input_value, event.attributes) == (value, {"Remark": value})
        assert len(cell) < 1024
        assert write_table(log) == text
    else:
        assert report.warnings == (f"row 1: literal nests deeper than {MAX_NESTING_DEPTH}; "
                                   "kept as text",) * 2
        assert (event.input_value, event.attributes) == (cell, {"Remark": cell})
    for value in (event.input_value, event.attributes["Remark"]):
        assert normalize_value(value) == value
    assert read_xes(write_xes(log)).events == log.events
    assert ingest(write_table(log))[0].events == log.events


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

    def test_a_column_is_named_as_its_header_cell_reads(self):
        # The header cells ' x' and ' y' read as " x" and " y"; so do the
        # mapping's column names, and ' y' keeps its cell [b] as text.
        mapping = load_mapping(
            "[columns]\nactivity_name = Activity\nui_element = ' x'\n[parsers]\n' y' = plain\n"
        )
        log, _ = ingest("' x',Activity,' y'\ne,a,[b]\n", mapping)
        assert (mapping.ui_element, mapping.value_parsers) == (" x", {" y": "plain"})
        assert log.events[0].target.element == "e"
        assert log.events[0].attributes == {" y": "[b]"}

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            load_mapping("[columns]\nnot_a_field = X\n")
        with pytest.raises(BadConfigError, match=r"unknown option 'bogus' in \[options\]"):
            load_mapping("[options]\nbogus = 1\n")

    def test_unusable_mapping_rejected(self):
        mapping = ColumnMapping(action_type="Action")
        with pytest.raises(NoUsableColumnsError):
            ingest("Action\nclick\n", mapping)
