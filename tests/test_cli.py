import contextlib
import gc
import io
import json
import os
import subprocess
import sys
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

    def test_nameless_event_is_an_operational_error_on_convert(self, tmp_path):
        source = tmp_path / "bad.xes"
        source.write_text(
            '<log><trace><event><string key="x" value="1"/></event></trace></log>'
        )
        assert run("convert", "-i", source, "-o", tmp_path / "out.csv") == 1

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


def test_non_utf8_input_is_an_operational_error(tmp_path):
    source = tmp_path / "bad.csv"
    source.write_bytes(b"Activity,Action type\nclick \xff,left click\n")
    done = run_child("validate", "-i", source)
    assert done.returncode == 1
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr
    assert str(source) in done.stderr


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


@pytest.mark.parametrize(
    "attribute",
    [
        '<date key="time:timestamp" value="2024-01-01T00:00:00.0001Z"/>',
        '<string key="uilog:ui-element-state" value="open"/>',
    ],
    ids=["sub-millisecond-timestamp", "state-without-element"],
)
def test_xes_reader_warnings_are_notes(tmp_path, attribute):
    source = tmp_path / "doc.xes"
    source.write_text(
        f'<log><trace><event><string key="concept:name" value="a"/>{attribute}</event></trace></log>'
    )
    done = run_child("stats", "-i", source)
    assert done.returncode == 0
    assert "note: trace 0, event 0:" in done.stderr
    assert "UserWarning" not in done.stderr


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
