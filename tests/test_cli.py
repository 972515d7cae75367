import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import uilog
from uilog import cli
from uilog.cli import main
from uilog.fixtures import fixture_path

KC = fixture_path("keyword_creation.csv")
LOGIN = fixture_path("raw_login.csv")
RULES = fixture_path("login.rules")


def run(*argv):
    return main([str(a) for a in argv])


def run_child(*argv):
    """Run the CLI in a child process, so tracebacks show in its stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(uilog.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "uilog", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )


class TestConvert:
    def test_csv_to_xes(self, tmp_path):
        out = tmp_path / "kc.xes"
        assert run("convert", "-i", KC, "-o", out) == 0
        text = out.read_text()
        assert text.count("<event>") == 20
        assert 'prefix="uilog"' in text

    @pytest.mark.parametrize("header", ["Timestamp,Activity", '"Timestamp","Activity"'],
                             ids=["unquoted", "quoted"])
    def test_csv_with_a_byte_order_mark(self, tmp_path, header):
        source = tmp_path / "bom.csv"
        source.write_bytes(b"\xef\xbb\xbf" + f"{header}\n2024-01-01T10:00:00Z,x\n".encode())
        out = tmp_path / "bom.xes"
        assert run("convert", "-i", source, "-o", out) == 0
        event = out.read_text().split("<event>")[1]
        assert '<date key="time:timestamp" value="2024-01-01T10:00:00.000+00:00" />' in event
        assert "Timestamp" not in event

    def test_cells_beyond_the_header_are_noted(self, tmp_path, capsys):
        source = tmp_path / "wide.csv"
        source.write_text("Activity,Input value\nx,1,2,3\n")
        assert run("convert", "-i", source, "-o", tmp_path / "wide.xes") == 0
        assert "note: row 1: cells beyond the header's 2 column(s) are not kept; ignored" \
            in capsys.readouterr().err

    def test_columns_named_like_event_fields_are_refused_for_xes(self, tmp_path, capsys):
        # Written as extra attributes, they would read back as the user and
        # the activity name.
        source = tmp_path / "clash.csv"
        source.write_text("Activity,User,uilog:user,concept:name\na,u1,u2,zz\n")
        out = tmp_path / "clash.xes"
        assert run("convert", "-i", source, "-o", out) == 1
        assert capsys.readouterr().err == (
            "error: event 0: attribute 'uilog:user' has the key of an event field\n"
        )
        assert not out.exists()

    def test_empty_csv(self, tmp_path):
        source = tmp_path / "empty.csv"
        source.write_text("Activity,Action type\n")
        out = tmp_path / "empty.xes"
        assert run("convert", "-i", source, "-o", out) == 0
        assert "<log" in out.read_text()

    def test_xes_csv_xes_round_trip_is_canonical(self, tmp_path):
        first = tmp_path / "first.xes"
        middle = tmp_path / "middle.csv"
        second = tmp_path / "second.xes"
        assert run("convert", "-i", KC, "-o", first) == 0
        assert run("convert", "-i", first, "-o", middle) == 0
        assert run("convert", "-i", middle, "-o", second) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_a_container_in_a_container_comes_back_through_csv(self, tmp_path):
        source, table, back = tmp_path / "in.xes", tmp_path / "in.csv", tmp_path / "back.xes"
        source.write_text(
            '<log><event><string key="concept:name" value="a"/>'
            '<container key="viewport"><string key="top" value="41"/>'
            '<container key="scroll"><string key="x" value="0.7"/></container></container>'
            "</event></log>"
        )
        assert run("convert", "-i", source, "-o", table) == 0
        assert table.read_text() == 'Activity,viewport\na,"{top: 41, scroll: {x: 0.7}}"\n'
        assert run("convert", "-i", table, "-o", back) == 0
        assert uilog.read_xes(back.read_text()).events[0].attributes == {
            "viewport": {"top": "41", "scroll": {"x": "0.7"}}
        }

    def test_nameless_event_is_a_finding_on_convert(self, tmp_path, capsys):
        source = tmp_path / "bad.xes"
        source.write_text(
            '<log><trace><event><string key="x" value="1"/></event></trace></log>'
        )
        out = tmp_path / "out.csv"
        assert run("convert", "-i", source, "-o", out) == 0
        assert capsys.readouterr().err == "note: log has 1 validation finding(s)\n"
        assert out.read_text() == "Activity,x,Trace\n'',1,trace_0\n"
        out.unlink()
        assert run("convert", "-i", source, "--strict", "-o", out) == 2
        assert "MissingActivityName" in capsys.readouterr().err
        assert not out.exists()
        assert run("stats", "-i", source) == 0

    def test_nameless_event_survives_a_csv_round_trip(self, tmp_path, capsys):
        source = tmp_path / "bad.xes"
        source.write_text(
            '<log><trace><event><string key="x" value="1"/></event></trace></log>'
        )
        table, back = tmp_path / "out.csv", tmp_path / "back.xes"
        assert run("convert", "-i", source, "-o", table) == 0
        assert run("convert", "-i", table, "-o", back) == 0
        assert capsys.readouterr().err == "note: log has 1 validation finding(s)\n" * 2
        for path in (table, back):
            assert run("validate", "-i", path) == 2
            report = capsys.readouterr().out
            assert "1 violation (1 events" in report
            assert "[MissingActivityName] event 0" in report

    def test_report_holds_one_json_line_per_finding(self, tmp_path):
        source = tmp_path / "unordered.csv"
        source.write_text(
            "Activity,Timestamp\na,2024-01-01T00:01:00Z\nb,2024-01-01T00:00:00Z\n,\n"
            "c,2023-12-31T00:00:00Z\n"
        )
        report = tmp_path / "findings.jsonl"
        assert run("convert", "-i", source, "-o", tmp_path / "out.xes", "--report", report) == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert [(r["code"], r["event_index"]) for r in records] == [
            ("OutOfOrderTimestamp", 1), ("OutOfOrderTimestamp", 2)
        ]

    def test_strict_blocks_validation_findings(self, tmp_path):
        source = tmp_path / "unordered.csv"
        source.write_text(
            "Activity,Timestamp\na,2024-01-01T00:01:00Z\nb,2024-01-01T00:00:00Z\n"
        )
        out = tmp_path / "out.xes"
        assert run("convert", "-i", source, "-o", out) == 0  # lenient default writes
        assert run("convert", "-i", source, "--strict", "-o", out) == 2

    def test_missing_input_file(self, tmp_path):
        assert run("convert", "-i", tmp_path / "nope.csv", "-o", tmp_path / "x.xes") == 1

    def test_unknown_suffix_needs_format(self, tmp_path):
        source = tmp_path / "log.data"
        source.write_text("Activity\nx\n")
        assert run("convert", "-i", source, "-o", tmp_path / "x.xes") == 1
        assert run("convert", "-i", source, "--format", "csv", "-o", tmp_path / "x.xes") == 0


class TestValidate:
    def test_clean_fixture(self, tmp_path, capsys):
        assert run("validate", "-i", KC) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_missing_concept_name_reports_finding(self, tmp_path, capsys):
        source = tmp_path / "bad.xes"
        source.write_text(
            '<log><trace><event><string key="x" value="1"/></event></trace></log>'
        )
        report = tmp_path / "findings.jsonl"
        assert run("validate", "-i", source, "--report", report) == 2
        assert "MissingActivityName" in capsys.readouterr().out
        record = json.loads(report.read_text().splitlines()[0])
        assert record["code"] == "MissingActivityName"

    @pytest.mark.parametrize("header", ["Activity,Input value", '"Activity","Input value"'],
                             ids=["unquoted", "quoted"])
    def test_csv_with_a_byte_order_mark(self, tmp_path, capsys, header):
        source = tmp_path / "bom.csv"
        source.write_bytes(b"\xef\xbb\xbf" + f"{header}\nx,1\n".encode())
        assert run("validate", "-i", source) == 0
        assert capsys.readouterr().out.startswith("0 violations (1 events")

    def test_corrupted_xml(self, tmp_path):
        source = tmp_path / "broken.xes"
        source.write_text("<log><trace>")
        assert run("validate", "-i", source) == 1


class TestStats:
    def test_fixture_coverage_lines(self, capsys):
        assert run("stats", "-i", KC) == 0
        out = capsys.readouterr().out
        assert "5/20" in out       # input_value
        assert "4/20" in out       # current_state
        assert "17/20" in out      # target_element
        assert "profile" in out

    def test_empty_log(self, tmp_path, capsys):
        source = tmp_path / "empty.csv"
        source.write_text("Activity\n")
        assert run("stats", "-i", source) == 0
        assert "0/0" in capsys.readouterr().out

    def test_traced_log_prints_trace_count(self, tmp_path, capsys):
        source = tmp_path / "tiny.csv"
        source.write_text("Activity,User\na,u1\nb,u2\n")
        notion = tmp_path / "user.notion"
        notion.write_text("[notion]\nkind = attribute\nkey = user\n")
        traced = tmp_path / "traced.xes"
        assert run("segment", "-i", source, "--notion", notion, "-o", traced) == 0
        assert run("stats", "-i", traced) == 0
        assert "traces                2" in capsys.readouterr().out

    def test_report_file(self, tmp_path):
        report = tmp_path / "stats.json"
        assert run("stats", "-i", KC, "--report", report) == 0
        payload = json.loads(report.read_text())
        assert payload["coverage"]["input_value"]["events_present"] == 5
        assert payload["profile"]["events"] == 20


class TestSegment:
    def test_time_gap_fixture(self, tmp_path, capsys):
        source = tmp_path / "timed.csv"
        source.write_text(
            "Activity,Timestamp\n"
            "a,2024-01-01T00:00:00Z\n"
            "b,2024-01-01T00:00:05Z\n"
            "c,2024-01-01T00:00:10Z\n"
            "d,2024-01-01T00:05:00Z\n"
            "e,2024-01-01T00:05:05Z\n"
        )
        notion = tmp_path / "gap.notion"
        notion.write_text("[notion]\nkind = time_gap\nthreshold = 60s\n")
        out = tmp_path / "traced.xes"
        assert run("segment", "-i", source, "--notion", notion, "-o", out) == 0
        assert out.read_text().count("<trace>") == 2

    def test_missing_timestamps_is_operational_error(self, tmp_path):
        notion = tmp_path / "gap.notion"
        notion.write_text("[notion]\nkind = gap\nthreshold = 60\n")
        assert run("segment", "-i", KC, "--notion", notion, "-o", tmp_path / "x.xes") == 1

    @pytest.mark.parametrize("suffix", ["csv", "xes"])
    def test_strict_blocks_validation_findings(self, tmp_path, suffix):
        source = tmp_path / "unordered.csv"
        source.write_text(
            "Activity,Timestamp\na,2024-01-01T00:01:00Z\nb,2024-01-01T00:00:00Z\n"
        )
        notion = tmp_path / "marker.notion"
        notion.write_text("[notion]\nkind = marker\nmarkers = a\n")
        out = tmp_path / f"out.{suffix}"
        argv = ["segment", "-i", source, "--notion", notion, "-o", out]
        assert run(*argv, "--strict") == 2
        assert not out.exists()
        assert run(*argv) == 0  # lenient default writes
        assert out.exists()


class TestAbstract:
    def test_login_rule_on_raw_fixture(self, tmp_path):
        out = tmp_path / "abstracted.xes"
        assert run("abstract", "-i", LOGIN, "--rules", RULES, "-o", out) == 0
        text = out.read_text()
        assert 'value="A_Login"' in text
        assert text.count("<event>") == 1

    def test_unknown_group_exits_1(self, tmp_path, capsys):
        rules = tmp_path / "bad.rules"
        rules.write_text("[rule:r]\ngroup = nowhere\ntrigger = t\nname = A_X\n")
        assert run("abstract", "-i", LOGIN, "--rules", rules, "-o", tmp_path / "x.xes") == 1
        assert "nowhere" in capsys.readouterr().err

    def test_csv_output(self, tmp_path):
        out = tmp_path / "abstracted.csv"
        assert run("abstract", "-i", LOGIN, "--rules", RULES, "-o", out) == 0
        assert out.read_text().splitlines()[1].startswith("A_Login,")

    def test_csv_output_converts_to_xes(self, tmp_path):
        table, document = tmp_path / "abstracted.csv", tmp_path / "abstracted.xes"
        assert run("abstract", "-i", LOGIN, "--rules", RULES, "-o", table) == 0
        assert run("convert", "-i", table, "-o", document) == 0
        assert '<boolean key="uilog:abstracted" value="true" />' in document.read_text()


class TestExtension:
    def test_stdout_byte_stability(self, capsys):
        assert run("extension") == 0
        first = capsys.readouterr().out
        assert run("extension") == 0
        second = capsys.readouterr().out
        assert first == second
        assert 'prefix="uilog"' in first

    def test_file_output(self, tmp_path):
        out = tmp_path / "uilog.xesext"
        assert run("extension", "-o", out) == 0
        assert out.read_text().startswith("<?xml")


def test_no_color_environment_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UILOG_NO_COLOR", "1")
    assert run("validate", "-i", KC) == 0
    assert "\x1b[" not in capsys.readouterr().out


class Terminal(io.StringIO):
    def isatty(self):
        return True


def test_a_terminal_gets_the_verdict_in_color(monkeypatch):
    monkeypatch.delenv("UILOG_NO_COLOR", raising=False)
    monkeypatch.setattr(sys, "stdout", Terminal())
    assert run("validate", "-i", KC) == 0
    assert sys.stdout.getvalue().startswith("\x1b[32m")


BAD_CONFIGS = {
    "rules-empty-trigger": (
        "abstract", "--rules", "[rule:r]\ngroup = login\ntrigger =\nname = A_Login\n"
    ),
    "rules-no-section-header": ("abstract", "--rules", "group = login\n"),
    "notion-bad-threshold": (
        "segment", "--notion", "[notion]\nkind = time_gap\nthreshold = abc\n"
    ),
    "notion-threshold-beyond-float": (
        "segment", "--notion", "[notion]\nkind = time_gap\nthreshold = 1e400\n"
    ),
    "notion-threshold-beyond-timedelta": (
        "segment", "--notion", "[notion]\nkind = time_gap\nthreshold = 1e12d\n"
    ),
    "notion-no-markers": ("segment", "--notion", "[notion]\nkind = marker\nmarkers =\n"),
    "mapping-unknown-field": ("convert", "--mapping", "[columns]\nnope = X\n"),
}


@pytest.mark.parametrize(
    "command,option,text", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS)
)
def test_bad_config_file_is_an_operational_error(tmp_path, command, option, text):
    config = tmp_path / "config.ini"
    config.write_text(text)
    done = run_child(command, "-i", LOGIN, option, config, "-o", tmp_path / "out.xes")
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr
    assert str(config) in done.stderr
    assert "<string>" not in done.stderr


def test_mapping_file_is_read_once_for_csv_to_csv(tmp_path, monkeypatch):
    mapping = tmp_path / "kc.mapping"
    mapping.write_text("[columns]\nactivity_name = Activity\naction_type = Action type\n")
    calls = []
    load_ini = uilog.tabular.load_ini
    monkeypatch.setattr(
        uilog.tabular, "load_ini", lambda *a: calls.append(a[1]) or load_ini(*a)
    )
    out = tmp_path / "kc.csv"
    assert run("convert", "-i", KC, "--mapping", mapping, "-o", out) == 0
    assert calls == ["mapping"]
    assert len(out.read_text().splitlines()) == 21


def test_a_table_written_with_a_mapping_converts_again_without_one(tmp_path, capsys):
    source, mapping = tmp_path / "rec.csv", tmp_path / "m.ini"
    source.write_text("Activity,Timestamp\nopen,01.02.2024 10:30:59\nsave,01.02.2024 10:31:05\n")
    mapping.write_text("[columns]\nactivity_name = Activity\ntimestamp = Timestamp\n"
                       "[options]\ntimestamp_format = %d.%m.%Y %H:%M:%S\n")
    assert run("convert", "-i", source, "--mapping", mapping, "-o", tmp_path / "out.csv") == 0
    assert run("convert", "-i", tmp_path / "out.csv", "-o", tmp_path / "out.xes") == 0
    assert run("convert", "-i", source, "--mapping", mapping, "-o", tmp_path / "direct.xes") == 0
    assert "skipped" not in capsys.readouterr().err
    assert (tmp_path / "out.xes").read_bytes() == (tmp_path / "direct.xes").read_bytes()


def test_a_mapping_given_for_xes_input_is_checked_and_changes_nothing(tmp_path):
    log = uilog.UILog(events=(uilog.InteractionEvent("a", timestamp=datetime(2024, 2, 1, 10, 30)),))
    source, mapping, bad = tmp_path / "a.xes", tmp_path / "m.ini", tmp_path / "bad.ini"
    source.write_text(uilog.write_xes(log))
    mapping.write_text("[options]\ntimestamp_format = %d.%m.%Y %H:%M:%S\n")
    bad.write_text("[columns]\nnope = X\n")
    assert run("convert", "-i", source, "--mapping", mapping, "-o", tmp_path / "mapped.csv") == 0
    assert run("convert", "-i", source, "-o", tmp_path / "plain.csv") == 0
    assert (tmp_path / "mapped.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert run("convert", "-i", source, "--mapping", bad, "-o", tmp_path / "bad.csv") == 1


def test_non_utf8_input_is_an_operational_error(tmp_path):
    source = tmp_path / "bad.csv"
    source.write_bytes(b"Activity,Action type\nclick \xff,left click\n")
    done = run_child("validate", "-i", source)
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr
    assert str(source) in done.stderr


def test_non_utf8_input_names_the_file(tmp_path, capsys):
    source = tmp_path / "bad.xes"
    source.write_bytes(b"<log>\xff</log>")
    assert run("stats", "-i", source) == 1
    assert capsys.readouterr().err.startswith(f"error: {source}: not UTF-8 text (")


def test_tsv_input_is_read_with_a_tab(tmp_path):
    source = tmp_path / "t.tsv"
    source.write_text("Activity\tTimestamp\nopen, then save\t2024-01-01T10:00:00Z\n")
    out = tmp_path / "t.xes"
    assert run("convert", "-i", source, "-o", out) == 0
    assert [event.activity_name for event in uilog.read_xes(out.read_text()).events] == [
        "open, then save"
    ]
    source.write_text("Activity;Timestamp\nx;2024-01-01T10:00:00Z\n")
    assert run("validate", "-i", source, "--delimiter", ";") == 0


def test_tsv_output_is_written_with_a_tab(tmp_path):
    out = tmp_path / "kc.tsv"
    assert run("convert", "-i", KC, "-o", out) == 0
    expected = uilog.write_table(uilog.ingest(KC.read_text())[0], delimiter="\t")
    assert out.read_text() == expected
    assert run("convert", "-i", out, "-o", tmp_path / "kc.csv") == 0
    assert (tmp_path / "kc.csv").read_text() == uilog.write_table(uilog.ingest(KC.read_text())[0])


def test_text_outside_xml_is_an_operational_error(tmp_path):
    source = tmp_path / "control.csv"
    source.write_text("Activity,Action type,Input value\ninput name,input,a\x01b\n")
    out = tmp_path / "control.xes"
    done = run_child("convert", "-i", source, "-o", out)
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr
    assert "uilog:input-value" in done.stderr


@pytest.mark.parametrize("header", ["Activity,,x", "Activity, ,x"], ids=["empty", "blank"])
def test_value_under_an_unnamed_column_is_an_operational_error(tmp_path, header):
    source = tmp_path / "unnamed.csv"
    source.write_text(f"{header}\na,b,c\n")
    done = run_child("convert", "-i", source, "-o", tmp_path / "unnamed.xes")
    assert done.returncode == 1
    assert done.stderr.startswith("error: row 1: column 2")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("key", [" k", " "], ids=["padded", "blank"])
def test_a_padded_or_blank_attribute_key_converts_to_csv_and_back(tmp_path, key):
    source = tmp_path / "doc.xes"
    source.write_text(
        '<log><trace><event><string key="concept:name" value="a"/>'
        f'<string key="{key}" value="v"/></event></trace></log>'
    )
    out = tmp_path / "doc.csv"
    done = run_child("convert", "-i", source, "-o", out)
    assert (done.returncode, done.stderr) == (0, "")
    assert out.read_text() == f"Activity,'{key}',Trace\na,v,trace_0\n"
    again = tmp_path / "again.csv"
    done = run_child("convert", "-i", out, "-o", again)
    assert (done.returncode, done.stderr) == (0, "")
    assert again.read_bytes() == out.read_bytes()


def test_padded_blank_and_wrapped_ids_and_keys_convert_xes_to_csv_and_back(tmp_path):
    builder = uilog.HierarchyBuilder()
    target = builder.chain(system=" ", application="'app'", groups=(" g", "''"), element="e ")
    log = uilog.UILog(
        events=(uilog.InteractionEvent(
            "' a '", action=uilog.Action(" click"), target=target, user="'u'", task="\t",
            attributes={" k": "v", " ": "[x]", "'k'": "' "},
        ),),
        hierarchy=builder.build(), users={"'u'": {}}, tasks={"\t": {}},
    )
    first = tmp_path / "first.xes"
    first.write_text(uilog.write_xes(log), encoding="utf-8")
    table, again = tmp_path / "log.csv", tmp_path / "again.xes"
    for source, out in ((first, table), (table, again)):
        done = run_child("convert", "-i", source, "-o", out)
        assert (done.returncode, done.stderr) == (0, "")
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "cell,message",
    [
        ("login/", "row 1: id must be non-empty text"),
        ("a" * 131073, "row 1: field larger than field limit"),
    ],
    ids=["empty-group-id", "long-field"],
)
def test_unreadable_csv_row_is_an_operational_error(tmp_path, cell, message):
    source = tmp_path / "bad.csv"
    source.write_text(f"Activity,UI group,UI element\nx,{cell},user\n")
    done = run_child("convert", "-i", source, "-o", tmp_path / "bad.xes")
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {message}")
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("delimiter", ["", ";;", '"'], ids=["empty", "two", "quote"])
def test_bad_delimiter_is_an_operational_error(tmp_path, delimiter):
    done = run_child("convert", "-i", KC, "--delimiter", delimiter, "-o", tmp_path / "kc.xes")
    assert done.returncode == 1
    assert done.stderr.startswith("error: --delimiter must be one character")
    assert "Traceback" not in done.stderr


def test_bad_delimiter_names_the_option_in_process(tmp_path, capsys):
    assert run("convert", "-i", KC, "--delimiter", '"', "-o", tmp_path / "kc.xes") == 1
    assert capsys.readouterr().err.startswith("error: --delimiter must be one character")
    assert not (tmp_path / "kc.xes").exists()


def test_xes_boolean_outside_xs_boolean_is_an_operational_error(tmp_path):
    source = tmp_path / "doc.xes"
    source.write_text(
        '<log><trace><event><string key="concept:name" value="a"/>'
        '<boolean key="b" value="yes"/></event></trace></log>'
    )
    done = run_child("validate", "-i", source)
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
    assert "trace 0, event 0: boolean attribute 'b' must be true, false, 1 or 0, got 'yes'" \
        in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "attribute, noted",
    [
        ('<date key="time:timestamp" value="2024-01-01T00:00:00.0001Z"/>', True),
        # A state without an element is read as it is; validate judges it.
        ('<string key="uilog:ui-element-state" value="open"/>', False),
        ('<string key="k" value="1"/><string key="k" value="2"/>', True),
    ],
    ids=["sub-millisecond-timestamp", "state-without-element", "repeated-event-key"],
)
def test_xes_reader_warnings_are_notes(tmp_path, attribute, noted):
    source = tmp_path / "doc.xes"
    source.write_text(
        f'<log><trace><event><string key="concept:name" value="a"/>{attribute}</event></trace></log>'
    )
    done = run_child("stats", "-i", source)
    assert done.returncode == 0
    assert ("note: trace 0, event 0:" in done.stderr) is noted
    assert "UserWarning" not in done.stderr


def test_validate_notes_the_traces_an_untraced_document_folds(tmp_path):
    source = tmp_path / "doc.xes"
    event = '<event><string key="concept:name" value="{}"/></event>'
    source.write_text(
        '<log><boolean key="uilog:untraced" value="true"/>'
        f'<trace><string key="concept:name" value="t1"/>{event.format("a")}</trace>'
        f'<trace><string key="concept:name" value="t2"/>{event.format("b")}</trace></log>'
    )
    done = run_child("validate", "-i", source)
    assert done.returncode == 0
    assert done.stderr == (
        "note: log: uilog:untraced is true, so its 2 trace(s) are folded into one untraced "
        "log, without their ids and attributes\n"
    )


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("missing_input", [False, True], ids=["exit-0", "exit-1"])
def test_cyclic_gc_setting_is_restored(tmp_path, enabled, missing_input):
    source = tmp_path / "missing.csv" if missing_input else KC
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run("stats", "-i", source) == (1 if missing_input else 0)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_cyclic_gc_is_paused_while_a_command_runs(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(cli, "_cmd_extension", lambda args: seen.append(gc.isenabled()) or 0)
    assert gc.isenabled()
    assert run("extension") == 0
    assert seen == [False]
    assert gc.isenabled()


def ini_texts(sections):
    """Arbitrary text, and INI texts of distinct sections named from
    ``sections``, each holding its entries (key -> value strategy)."""

    def render(name, entries):
        return f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in entries.items())

    section = st.sampled_from(sorted(sections)).flatmap(
        lambda name: st.fixed_dictionaries(sections[name]).map(lambda e: render(name, e))
    )
    return st.one_of(
        st.text(max_size=40),
        st.lists(section, min_size=1, max_size=3, unique_by=lambda text: text.split("]")[0])
        .map("".join),
    )


def either(*known):
    return st.one_of(st.sampled_from(known), st.text(max_size=12))


DURATIONS = st.one_of(
    st.tuples(
        st.one_of(st.floats().map(repr), st.integers().map(str)),
        st.sampled_from(["", "s", "m", "h", "d"]),
    ).map("".join),
    st.text(max_size=12),
)
NOTION = {
    "kind": st.sampled_from(["attribute", "time_gap", "gap", "marker", "", "bogus"]),
    "key": either("Trace", "Action type"),
    "threshold": DURATIONS,
    "markers": either("b, d", "a"),
}
RULE = {
    "group": either("login mask", "search"),
    "trigger": either("b", "d"),
    "name": either("A_Login"),
    "collect": either("username, password", "q"),
    "drop_noise": st.sampled_from(["true", "no", "maybe"]),
}
HEADERS = either("Activity", "Action type", "UI element", "Input value", "Timestamp")
PARSERS = st.sampled_from(["plain", "map", "list", "auto", "bogus"])
CONFIG_FILES = {
    "notion": ini_texts({"notion": NOTION, "notion:a": NOTION, "other": {}}),
    "rules": ini_texts({"rule": RULE, "rule:a": RULE, "other": {}}),
    "mapping": ini_texts({
        "columns": {
            "activity_name": HEADERS, "action_type": HEADERS, "ui_element": HEADERS,
            "input_value": HEADERS, "timestamp": HEADERS,
        },
        "options": {
            "timestamp_format": either("%Y-%m-%dT%H:%M:%S%z", "%Y", "%"),
            "extras": st.sampled_from(["keep", "ignore", "bogus"]),
        },
        "parsers": {"Input value": PARSERS, "UI group": PARSERS},
    }),
}
TIMED_CSV = (
    "Activity,Action type,UI element,UI group,Input value,Timestamp\n"
    "a,input,username,login mask,pren,2024-01-01T00:00:00Z\n"
    "b,click,login,login mask,,2024-01-01T00:00:05Z\n"
    "c,input,q,search,\"{k: v}\",2024-01-01T00:09:00Z\n"
    "d,click,go,search,,2024-01-01T00:09:01Z\n"
)


@pytest.mark.parametrize("option", list(CONFIG_FILES))
def test_any_config_file_gives_an_exit_code_and_no_exception(tmp_path_factory, option):
    directory = tmp_path_factory.mktemp(option)
    source = directory / "timed.csv"
    source.write_text(TIMED_CSV)
    config = directory / f"config.{option}"
    command = {"notion": "segment", "rules": "abstract", "mapping": "convert"}[option]
    output = directory / ("out.csv" if option == "mapping" else "out.xes")

    @settings(max_examples=150, deadline=None)
    @given(CONFIG_FILES[option])
    def check(text):
        config.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run(command, "-i", source, f"--{option}", config, "-o", output) in (0, 1, 2)

    check()


def test_carriage_return_in_a_csv_cell_survives_convert(tmp_path):
    log = uilog.UILog(events=(uilog.InteractionEvent("a\rb"),))
    source = tmp_path / "cr.csv"
    source.write_bytes(uilog.write_table(log).encode("utf-8"))
    out = tmp_path / "cr.xes"
    assert run("convert", "-i", source, "-o", out) == 0
    assert 'value="a&#13;b"' in out.read_text()
    back = tmp_path / "back.csv"
    assert run("convert", "-i", source, "-o", back) == 0
    assert back.read_bytes() == source.read_bytes()


def loaded_modules(tmp_path, *argv):
    """The names in ``sys.modules`` of a fresh ``python -m uilog`` child
    after it ran ``argv``. Without ``site`` the child starts with only
    the interpreter's own modules."""
    listing = tmp_path / "modules.txt"
    script = (
        "import runpy, sys\n"
        f"sys.argv = ['uilog', *{[str(a) for a in argv]!r}]\n"
        "try:\n"
        "    runpy.run_module('uilog', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"open({str(listing)!r}, 'w').write('\\n'.join(sys.modules))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(uilog.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    return set(listing.read_text().split("\n"))


CSV_AND_CONFIG_MODULES = {"uilog.tabular", "uilog.transform", "csv", "configparser"}

#: dataclasses and what it imports; the records need none of them.
DATACLASS_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize", "copy"}


def test_extension_loads_no_csv_or_transform_module(tmp_path):
    modules = loaded_modules(tmp_path, "extension", "-o", tmp_path / "ext.xml")
    assert {m for m in modules if m.startswith("uilog")} == {
        "uilog", "uilog.cli", "uilog.errors", "uilog.extension"
    }
    assert not modules & (CSV_AND_CONFIG_MODULES | {"dataclasses"})


def test_validate_on_xes_loads_no_csv_or_transform_module(tmp_path):
    source = tmp_path / "kc.xes"
    assert run("convert", "-i", KC, "-o", source) == 0
    modules = loaded_modules(tmp_path, "validate", "-i", source)
    assert {"uilog.xes", "uilog.validation"} <= modules
    assert not modules & CSV_AND_CONFIG_MODULES
    # ElementTree's C accelerator imports copy itself.
    assert not modules & (DATACLASS_MODULES - {"copy"})


def test_convert_without_mapping_loads_no_transform_or_configparser(tmp_path):
    modules = loaded_modules(tmp_path, "convert", "-i", KC, "-o", tmp_path / "kc.xes")
    assert {"uilog.tabular", "uilog.xes", "csv"} <= modules
    assert not modules & {"uilog.transform", "configparser"}
    assert not modules & DATACLASS_MODULES


def test_csv_to_xes_convert_loads_no_xml_parser(tmp_path):
    modules = loaded_modules(tmp_path, "convert", "-i", KC, "-o", tmp_path / "kc.xes")
    assert "uilog.xes" in modules
    assert not modules & {"xml.etree.ElementTree", "pyexpat"}


def test_segment_on_xes_loads_no_csv_module(tmp_path):
    source = tmp_path / "kc.xes"
    assert run("convert", "-i", KC, "-o", source) == 0
    notion = tmp_path / "marker.notion"
    notion.write_text("[notion]\nkind = marker\nmarkers = A_Login\n")
    out = tmp_path / "traced.xes"
    modules = loaded_modules(tmp_path, "segment", "-i", source, "--notion", notion, "-o", out)
    assert {"uilog.transform", "configparser"} <= modules
    assert not modules & {"uilog.tabular", "csv"}


def test_segment_by_the_trace_column_keeps_a_csv_pipeline_working(tmp_path):
    source = tmp_path / "traced.csv"
    source.write_text("Activity,Trace\nb,t1\na,t2\n")
    notion = tmp_path / "trace.notion"
    notion.write_text("[notion]\nkind = attribute\nkey = Trace\n")
    out = tmp_path / "out.csv"
    done = run_child("segment", "--notion", notion, "-i", source, "-o", out)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "note: 2 trace(s)\n"
    before, _ = uilog.ingest(source.read_text())
    after, _ = uilog.ingest(out.read_text())
    assert [e.attributes["Trace"] for e in after.events] == ["t1", "t2"]
    assert after.events == before.events


def test_segment_by_an_attribute_with_an_empty_value_is_an_operational_error(tmp_path):
    source = tmp_path / "e.xes"
    source.write_text('<log><trace><event><string key="concept:name" value="a"/>'
                      '<string key="mood" value=""/></event></trace></log>')
    notion = tmp_path / "mood.notion"
    notion.write_text("[notion]\nkind = attribute\nkey = mood\n")
    out = tmp_path / "o.xes"
    done = run_child("segment", "--notion", notion, "-i", source, "-o", out)
    assert done.returncode == 1
    assert done.stderr == "error: 1 event(s) lack the case attribute 'mood' (first indices: [0])\n"
    assert not out.exists()


def test_segment_by_values_that_print_alike_is_an_operational_error(tmp_path):
    source = tmp_path / "k.xes"
    source.write_text('<log><trace><event><string key="concept:name" value="a"/>'
                      '<int key="k" value="1"/></event><event><string key="concept:name" '
                      'value="b"/><string key="k" value="1"/></event></trace></log>')
    notion = tmp_path / "k.notion"
    notion.write_text("[notion]\nkind = attribute\nkey = k\n")
    out = tmp_path / "o.xes"
    done = run_child("segment", "--notion", notion, "-i", source, "-o", out)
    assert done.returncode == 1
    assert done.stderr == ("error: case attribute 'k' holds 1 (event 0) and '1' (event 1), "
                           "which would share the trace id '1'\n")
    assert not out.exists()


def test_segment_by_a_composite_notion_gives_distinct_cases_distinct_ids(tmp_path):
    source = tmp_path / "xy.csv"
    source.write_text("Activity,X,Y\na,a/b,c\nb,a,b/c\n")
    notion = tmp_path / "xy.notion"
    notion.write_text("[notion:x]\nkind = attribute\nkey = X\n"
                      "[notion:y]\nkind = attribute\nkey = Y\n")
    out = tmp_path / "o.xes"
    done = run_child("segment", "--notion", notion, "-i", source, "-o", out)
    assert (done.returncode, done.stderr) == (0, "note: 2 trace(s)\n")
    assert run("validate", "-i", out) == 0


def test_validate_reports_an_element_state_without_an_element(tmp_path):
    source = tmp_path / "doc.xes"
    source.write_text('<log><trace><event><string key="concept:name" value="a"/>'
                      '<string key="uilog:ui-element-state" value="open"/></event></trace></log>')
    done = run_child("validate", "-i", source)
    assert done.returncode == 2
    assert "[StateWithoutElement] event 0: element state recorded without a UI element\n" \
        in done.stdout
    assert "note:" not in done.stderr


def test_convert_writes_an_element_state_without_an_element_and_strict_refuses_it(tmp_path):
    source = tmp_path / "doc.csv"
    source.write_text("Activity,UI group,Current state\nx,main,open\ny,,\"[a, b]\"\n")
    out = tmp_path / "doc.xes"
    done = run_child("convert", "-i", source, "-o", out)
    assert (done.returncode, done.stderr) == (0, "note: log has 2 validation finding(s)\n")
    assert out.read_text().count('key="uilog:ui-element-state"') == 2
    out.unlink()
    done = run_child("convert", "--strict", "-i", source, "-o", out)
    assert done.returncode == 2
    assert done.stderr.count("[StateWithoutElement]") == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "mapping, message",
    [
        (None, "header: no usable column in ['Actvity', 'Timestamp']; it needs an activity "
               "column, or an action type column and a target column"),
        ("[columns]\naction_type = Actvity\n",
         "mapping: must provide activity_name or action_type plus a target column"),
    ],
    ids=["inferred", "explicit"],
)
def test_a_table_without_a_usable_column_is_an_operational_error(tmp_path, mapping, message):
    source = tmp_path / "typo.csv"
    source.write_text("Actvity,Timestamp\nx,2024-01-01T00:00:00Z\n")
    options = []
    if mapping:
        (tmp_path / "typo.ini").write_text(mapping)
        options = ["--mapping", tmp_path / "typo.ini"]
    done = run_child("convert", "-i", source, *options, "-o", tmp_path / "typo.xes")
    assert (done.returncode, done.stderr) == (1, f"error: {message}\n")


def test_extra_columns_named_alike_are_an_operational_error(tmp_path):
    source = tmp_path / "moods.csv"
    source.write_text("Activity,Mood,Mood\nx,fine,bad\n")
    out = tmp_path / "moods.xes"
    done = run_child("convert", "-i", source, "-o", out)
    assert done.returncode == 1
    assert done.stderr == "error: header: columns 2 and 3 are both named 'Mood'\n"
    assert not out.exists()


#: Exit code and command of each case; paths are relative to where it runs.
EXIT_PATHS = {
    "stdout-and-report": (0, ["stats", "-i", KC, "--report", "stats.json"]),
    "output-and-notes": (0, ["convert", "-i", "unordered.csv", "-o", "out.xes"]),
    "extension": (0, ["extension"]),
    "error": (1, ["convert", "-i", "missing.csv", "-o", "out.xes"]),
    "findings": (2, ["validate", "-i", "unordered.csv", "--report", "findings.jsonl"]),
    "usage-missing-option": (1, ["validate"]),
    "usage-unknown-option": (1, ["validate", "-i", "unordered.csv", "--bogus"]),
    "usage-no-command": (1, []),
    "usage-report-on-segment": (
        1, ["segment", "-i", "unordered.csv", "--notion", "n.ini", "-o", "s.xes",
            "--report", "r.json"],
    ),
}


@pytest.mark.parametrize("code,argv", EXIT_PATHS.values(), ids=EXIT_PATHS)
def test_a_child_process_writes_what_main_writes(tmp_path, monkeypatch, code, argv):
    """``python -m uilog`` exits through ``entrypoint``, which freezes the
    collector before the interpreter shuts down: nothing it writes may
    differ from an in-process ``main`` run."""
    argv = [str(a) for a in argv]
    sides = {}
    for side in ("child", "main"):
        directory = tmp_path / side
        directory.mkdir()
        (directory / "unordered.csv").write_text(
            "Activity,Timestamp\na,2024-01-01T00:01:00Z\nb,2024-01-01T00:00:00Z\n"
        )
        if side == "child":
            env = dict(os.environ, PYTHONPATH=str(Path(uilog.__file__).parent.parent))
            done = subprocess.run(
                [sys.executable, "-m", "uilog", *argv], capture_output=True, cwd=directory,
                env=env,
            )
            result = done.returncode, done.stdout, done.stderr
        else:
            monkeypatch.chdir(directory)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result = main(argv), out.getvalue().encode(), err.getvalue().encode()
        files = {path.name: path.read_bytes() for path in directory.iterdir()}
        sides[side] = *result, files
    assert sides["child"] == sides["main"]
    assert sides["main"][0] == code


def test_main_leaves_the_collector_unfrozen(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    assert run("extension", "-o", tmp_path / "ext.xml") == 0
    assert run("convert", "-i", KC, "-o", tmp_path / "kc.xes") == 0
    assert run("stats", "-i", tmp_path / "missing.csv") == 1
    assert gc.get_freeze_count() == frozen


def test_entrypoint_freezes_the_collector_before_it_exits(tmp_path):
    script = (
        "import gc, sys\n"
        "from uilog.cli import entrypoint\n"
        f"sys.argv = ['uilog', 'extension', '-o', {str(tmp_path / 'ext.xml')!r}]\n"
        "frozen = gc.get_freeze_count()\n"
        "try:\n"
        "    entrypoint()\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count() > frozen)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(uilog.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
    )
    assert done.stdout.split() == ["0", "True"], done.stderr
