"""Fractional-second timestamps ingest the same on every supported Python.

Python 3.10's ``datetime.fromisoformat`` only takes 3- or 6-digit
fractions, so these cases pin the shared timestamp codec there too. The
module needs only the standard library; without pytest, run it as a
script::

    PYTHONPATH=src python3.10 tests/test_tabular_timestamps.py
"""

from datetime import datetime, timezone

from uilog.tabular import ingest

# (timestamp cell, parsed value, truncation warning expected)
CASES = [
    ("2024-01-01T10:00:00.1234", datetime(2024, 1, 1, 10, 0, 0, 123000, timezone.utc), True),
    ("2024-01-01T10:00:01.123456789Z", datetime(2024, 1, 1, 10, 0, 1, 123000, timezone.utc), True),
    ("2024-01-01T10:00:02.5", datetime(2024, 1, 1, 10, 0, 2, 500000, timezone.utc), False),
]


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", CASES, ids=[text for text, _, _ in CASES])


def test_fractional_seconds_are_kept(case):
    text, expected, truncated = case
    log, report = ingest(f"Activity,Timestamp\nx,{text}\n")
    assert report.rows_skipped == ()
    assert log.events[0].timestamp == expected
    warned = [w for w in report.warnings if "truncated to milliseconds" in w]
    assert len(warned) == (1 if truncated else 0)


if __name__ == "__main__":
    for case in CASES:
        test_fractional_seconds_are_kept(case)
    print(f"{len(CASES)} timestamp cases passed")
