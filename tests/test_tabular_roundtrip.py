"""Byte oracle for the CSV writer: a written table writes back as it was.

``write_table`` → ``ingest`` → ``write_table`` must give the same bytes
for ``genlogs.random_log`` seeds 0-299 at most 8 and at most 60 events,
traced or not, and a trace id that the value cell escape wraps must
read back as itself. The module needs only the standard library;
without pytest, run it as a script::

    PYTHONPATH=src python3.10 tests/test_tabular_roundtrip.py
"""

import random

from uilog import InteractionEvent, Trace, UILog
from uilog.tabular import ingest, write_table

import genlogs

SEEDS = range(300)
MAX_EVENTS = (8, 60)

# Trace ids that would not read back as themselves unless wrapped.
WRAPPED_IDS = ("[a]", " padded ", "'q'", "{k: v}")


def pytest_generate_tests(metafunc):
    if "max_events" in metafunc.fixturenames:
        metafunc.parametrize("max_events", MAX_EVENTS)


def test_random_logs_write_back_byte_identically(max_events):
    differing = []
    for seed in SEEDS:
        written = write_table(genlogs.random_log(random.Random(seed), max_events))
        if write_table(ingest(written)[0]) != written:
            differing.append(seed)
    assert differing == [], f"max_events={max_events}: seeds {differing} write back otherwise"


def test_wrapped_trace_ids_read_back_as_themselves():
    log = UILog(
        events=tuple(InteractionEvent("a") for _ in WRAPPED_IDS),
        traces=tuple(Trace(id=trace_id, events=(i,)) for i, trace_id in enumerate(WRAPPED_IDS)),
    )
    again, _ = ingest(write_table(log))
    assert [event.attributes["Trace"] for event in again.events] == list(WRAPPED_IDS)


if __name__ == "__main__":
    for max_events in MAX_EVENTS:
        test_random_logs_write_back_byte_identically(max_events)
    test_wrapped_trace_ids_read_back_as_themselves()
    print(f"{len(SEEDS) * len(MAX_EVENTS)} random tables and {len(WRAPPED_IDS)} trace ids "
          "write back as they were")
