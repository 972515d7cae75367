"""ISO 8601 timestamps ingest the same on every supported Python.

Python 3.10's ``datetime.fromisoformat`` only takes the extended format
with 3- or 6-digit fractions and ``+HH:MM`` offsets, while 3.11 takes
much more, so these cases pin the shared timestamp codec on every
version. The module needs only the standard library; without pytest,
run it as a script::

    PYTHONPATH=src python3.10 tests/test_tabular_timestamps.py
"""

from datetime import datetime, timezone

from uilog.tabular import ingest

# (timestamp cell, parsed value, truncation warning expected)
CASES = [
    ("2024-01-01T10:00:00.1234", datetime(2024, 1, 1, 10, 0, 0, 123000, timezone.utc), True),
    ("2024-01-01T10:00:01.123456789Z", datetime(2024, 1, 1, 10, 0, 1, 123000, timezone.utc), True),
    ("2024-01-01T10:00:02.5", datetime(2024, 1, 1, 10, 0, 2, 500000, timezone.utc), False),
    ("20240101T100003Z", datetime(2024, 1, 1, 10, 0, 3, tzinfo=timezone.utc), False),
    ("2024-01-01T10:00:04,5", datetime(2024, 1, 1, 10, 0, 4, 500000, timezone.utc), False),
    ("2024-01-01 10:00:05+0100", datetime(2024, 1, 1, 9, 0, 5, tzinfo=timezone.utc), False),
]

# Cells that are not ISO timestamps; their rows are skipped.
BAD_CELLS = [
    "n/a", "04/05/2023 12:00:01", "--:--", "2023-13-45T25:61:00",
    # Beyond the datetime range once moved to UTC.
    "9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00",
]


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", CASES, ids=[text for text, _, _ in CASES])
    if "bad_cell" in metafunc.fixturenames:
        metafunc.parametrize("bad_cell", BAD_CELLS)


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


if __name__ == "__main__":
    for case in CASES:
        test_fractional_seconds_are_kept(case)
    for bad_cell in BAD_CELLS:
        test_bad_timestamps_skip_the_row(bad_cell)
    print(f"{len(CASES) + len(BAD_CELLS)} timestamp cases passed")
