"""Byte oracle for the CSV writer: a written table writes back as it was.

``write_table`` → ``ingest`` → ``write_table`` must give the same bytes
for ``genlogs.random_log`` seeds 0-299 at most 8 and at most 60 events,
traced or not, and a trace id that the value cell escape wraps must
read back as itself. Each of 3000 seeded one-event logs, whose ids,
action type, user, task and attribute key are drawn from the characters
that csv, the cell trim, the apostrophe escape, the literals and the
group path treat specially, must read back exactly and write back the
same bytes. The module needs only the standard library; without pytest,
run it as a script::

    PYTHONPATH=src python3.10 tests/test_tabular_roundtrip.py
"""

import random

from uilog import Action, HierarchyBuilder, InteractionEvent, Trace, UILog, UILogError
from uilog.tabular import ingest, write_table

import genlogs

SEEDS = range(300)
MAX_EVENTS = (8, 60)

# Trace ids that would not read back as themselves unless wrapped.
WRAPPED_IDS = ("[a]", " padded ", "'q'", "{k: v}")

ID_LOGS = 3000
ID_ALPHABET = " \t'\"[]{},:/\\ab\r\n"


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


def id_log(rng: random.Random) -> UILog:
    """One event whose element, group, application and system ids, action
    type, user, task and attribute key are each 1-6 characters of
    ID_ALPHABET."""
    element, group, application, system, action_type, user, task, key = (
        "".join(rng.choices(ID_ALPHABET, k=rng.randint(1, 6))) for _ in range(8)
    )
    builder = HierarchyBuilder()
    target = builder.chain(system=system, application=application, groups=(group,),
                           element=element)
    event = InteractionEvent("a", action=Action(action_type), target=target, user=user,
                             task=task, attributes={key: "v"})
    return UILog(events=(event,), hierarchy=builder.build(), users={user: {}}, tasks={task: {}})


def exact_id_logs() -> int:
    """How many of the ID_LOGS seeded logs read back exactly from their
    table and write back the same bytes; a log that fails to write or
    read counts as inexact."""
    exact = 0
    for seed in range(ID_LOGS):
        log = id_log(random.Random(seed))
        try:
            written = write_table(log)
            again, report = ingest(written)
        except UILogError:
            continue
        exact += (
            (again.events, again.hierarchy, again.users, again.tasks)
            == (log.events, log.hierarchy, log.users, log.tasks)
            and report.warnings == report.rows_skipped == ()
            and write_table(again) == written
        )
    return exact


def test_seeded_ids_and_keys_read_back_exactly():
    assert exact_id_logs() == ID_LOGS


if __name__ == "__main__":
    for max_events in MAX_EVENTS:
        test_random_logs_write_back_byte_identically(max_events)
    test_wrapped_trace_ids_read_back_as_themselves()
    exact = exact_id_logs()
    print(f"{len(SEEDS) * len(MAX_EVENTS)} random tables and {len(WRAPPED_IDS)} trace ids "
          f"write back as they were; {exact} of {ID_LOGS} seeded id logs read back exactly")
    assert exact == ID_LOGS
