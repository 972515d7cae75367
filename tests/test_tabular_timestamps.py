"""ISO 8601 timestamps ingest the same on every supported Python.

Python 3.10's ``datetime.fromisoformat`` only takes the extended format
with 3- or 6-digit fractions and ``+HH:MM`` offsets, while 3.11 takes
much more, so these cases pin the shared timestamp codec on every
version, and ``strptime`` patterns from a mapping's ``timestamp_format``
with it. The module needs only the standard library; without pytest,
run it as a script::

    PYTHONPATH=src python3.10 tests/test_tabular_timestamps.py
"""

from datetime import datetime, timezone

from uilog.tabular import ColumnMapping, ingest

# (timestamp cell, parsed value, truncation warning expected)
CASES = [
    ("2024-01-01T10:00:00.1234", datetime(2024, 1, 1, 10, 0, 0, 123000, timezone.utc), True),
    ("2024-01-01T10:00:01.123456789Z", datetime(2024, 1, 1, 10, 0, 1, 123000, timezone.utc), True),
    ("2024-01-01T10:00:02.5", datetime(2024, 1, 1, 10, 0, 2, 500000, timezone.utc), False),
    ("20240101T100003Z", datetime(2024, 1, 1, 10, 0, 3, tzinfo=timezone.utc), False),
    ("2024-01-01T10:00:04,5", datetime(2024, 1, 1, 10, 0, 4, 500000, timezone.utc), False),
    ("2024-01-01 10:00:05+0100", datetime(2024, 1, 1, 9, 0, 5, tzinfo=timezone.utc), False),
    # The form format_timestamp writes, at the ends of the range, and near it.
    ("0001-01-01T00:00:00.000+00:00", datetime(1, 1, 1, tzinfo=timezone.utc), False),
    ("9999-12-31T23:59:59.999+00:00",
     datetime(9999, 12, 31, 23, 59, 59, 999000, timezone.utc), False),
    ("2024-01-01 10:00:06.000+00:00", datetime(2024, 1, 1, 10, 0, 6, tzinfo=timezone.utc), False),
    ("2024-01-01T10:00:07.000-00:00", datetime(2024, 1, 1, 10, 0, 7, tzinfo=timezone.utc), False),
]

# Cells that are not ISO timestamps; their rows are skipped.
BAD_CELLS = [
    "n/a", "04/05/2023 12:00:01", "--:--", "2023-13-45T25:61:00",
    # Beyond the datetime range once moved to UTC.
    "9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00",
    # The form format_timestamp writes, with month 13 and with fullwidth digits.
    "2024-13-01T10:00:00.000+00:00", "\uff12\uff10\uff12\uff14-01-01T10:00:00.000+00:00",
]

# (strptime pattern, timestamp cell, parsed value or None where the row is
# skipped, truncation warning expected)
PATTERN_CASES = [
    ("%d/%m/%Y %H:%M:%S.%f", "05/04/2023 12:00:01.123456",
     datetime(2023, 4, 5, 12, 0, 1, 123000, timezone.utc), True),
    ("%d/%m/%Y %H:%M:%S.%f", "05/04/2023 12:00:01.5",
     datetime(2023, 4, 5, 12, 0, 1, 500000, timezone.utc), False),
    ("%Y-%m-%d %H:%M %z", "2023-04-05 12:00 +0200",
     datetime(2023, 4, 5, 10, 0, tzinfo=timezone.utc), False),
    # Beyond the datetime range once moved to UTC.
    ("%Y-%m-%d %H:%M %z", "0001-01-01 00:00 +0100", None, False),
    ("%Y-%m-%d %H:%M %z", "9999-12-31 23:59 -0100", None, False),
    # Not in the pattern, though ISO 8601.
    ("%d/%m/%Y %H:%M:%S", "2023-04-05T12:00:01", None, False),
]


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", CASES, ids=[text for text, _, _ in CASES])
    if "bad_cell" in metafunc.fixturenames:
        metafunc.parametrize("bad_cell", BAD_CELLS)
    if "pattern_case" in metafunc.fixturenames:
        metafunc.parametrize("pattern_case", PATTERN_CASES,
                             ids=[text for _, text, _, _ in PATTERN_CASES])


def test_fractional_seconds_are_kept(case):
    text, expected, truncated = case
    log, report = ingest(f'Activity,Timestamp\nx,"{text}"\n')
    assert report.rows_skipped == ()
    assert log.events[0].timestamp == expected
    warned = [w for w in report.warnings if "truncated to milliseconds" in w]
    assert len(warned) == (1 if truncated else 0)


def test_bad_timestamps_skip_the_row(bad_cell):
    log, report = ingest(f'Activity,Timestamp\nx,"{bad_cell}"\ny,2024-01-01\n')
    assert report.rows_skipped == (f"row 1: bad timestamp {bad_cell!r}",)
    assert [event.activity_name for event in log.events] == ["y"]


def test_a_mapping_pattern_parses_or_skips_the_row(pattern_case):
    pattern, text, expected, truncated = pattern_case
    mapping = ColumnMapping(activity_name="Activity", timestamp="Timestamp",
                            timestamp_format=pattern)
    log, report = ingest(f'Activity,Timestamp\nx,"{text}"\n', mapping)
    if expected is None:
        assert report.rows_skipped == (f"row 1: bad timestamp {text!r}",)
        assert log.events == ()
    else:
        assert report.rows_skipped == ()
        assert log.events[0].timestamp == expected
    warned = [w for w in report.warnings if "truncated to milliseconds" in w]
    assert len(warned) == (1 if truncated else 0)


if __name__ == "__main__":
    for case in CASES:
        test_fractional_seconds_are_kept(case)
    for bad_cell in BAD_CELLS:
        test_bad_timestamps_skip_the_row(bad_cell)
    for pattern_case in PATTERN_CASES:
        test_a_mapping_pattern_parses_or_skips_the_row(pattern_case)
    print(f"{len(CASES) + len(BAD_CELLS) + len(PATTERN_CASES)} timestamp cases passed")
