"""Writer-law oracle: each writer returns what its own reader reads, or refuses.

For ``genlogs.random_log`` seeds 0-39 (at most 10 events each), one
attribute map is changed after construction: the log's, a trace's, an
event's, that of the node an event's target resolves to, or that of an
event's user. It gets one value of ``EDGES``: a key that is not
non-empty text, a map holding such a key, an integer outside 64 bits,
lists and maps 32, 33 and 3000 deep, a naive datetime while the local
time zone is Asia/Tokyo, or an aware datetime just below or just above
the datetime range in UTC. Each writer must then either return text
that its own reader reads without error or raise
UnserializableValueError, and never raise anything else. What
``write_xes`` writes must read back equal to the edited log with the
edited value passed through
``normalize_value``. Where a writer writes the edited map, the outcome
must be the one ``EDGES`` states; ``write_table`` writes event
attributes only, so it must write a log edited elsewhere. The module
needs only the standard library; without pytest, run it as a script::

    PYTHONPATH=src python3.10 tests/test_writer_law.py
"""

import os
import random
import time
import warnings
from collections import Counter
from datetime import datetime, timedelta, timezone

from uilog import UnserializableValueError, normalize_value
from uilog.tabular import ingest, write_table
from uilog.xes import read_xes, write_xes

import genlogs

SEEDS = range(40)
MAX_EVENTS = 10
PLACES = ("log", "trace", "event", "node", "user")


def nested(kind: type, depth: int):
    """"x" inside ``depth`` one-item lists, or maps keyed "k"."""
    value = "x"
    for _ in range(depth):
        value = [value] if kind is list else {"k": value}
    return value


NAIVE = datetime(2024, 1, 1, 10, 0)
NAIVE_WRITTEN = "2024-01-01T10:00:00.000+00:00"
BELOW_UTC = datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=1)))
ABOVE_UTC = datetime(9999, 12, 31, 23, 59, tzinfo=timezone(timedelta(hours=-1)))

#: Edge name -> (key, value, what the refusal of write_xes and of
#: write_table says, or None where the writer writes the value).
EDGES = {
    "key 5": (5, "x", "got 5", "got 5"),
    "key ''": ("", "x", "got ''", "got ''"),
    "{5: 'x'}": ("edge", {5: "x"}, "got 5", "got 5"),
    "{'': 'y'}": ("edge", {"": "y"}, "got ''", "got ''"),
    "2**63": ("edge", 2**63, "attribute 'edge' is out of 64-bit range", None),
    "list 32": ("edge", nested(list, 32), None, None),
    "list 33": ("edge", nested(list, 33), "attribute '0' nests deeper than 32",
                "attribute 'edge' nests deeper than 32"),
    "list 3000": ("edge", nested(list, 3000), "attribute '0' nests deeper than 32",
                  "attribute 'edge' nests deeper than 32"),
    "map 32": ("edge", nested(dict, 32), None, None),
    "map 33": ("edge", nested(dict, 33), "attribute 'k' nests deeper than 32",
               "attribute 'edge' nests deeper than 32"),
    "map 3000": ("edge", nested(dict, 3000), "attribute 'k' nests deeper than 32",
                 "attribute 'edge' nests deeper than 32"),
    "naive datetime": ("edge", NAIVE, None, None),
    "below UTC": ("edge", BELOW_UTC, "attribute 'edge': 0001-01-01T00:00:00+01:00 is outside",
                  "attribute 'edge': 0001-01-01T00:00:00+01:00 is outside"),
    "above UTC": ("edge", ABOVE_UTC, "attribute 'edge': 9999-12-31T23:59:00-01:00 is outside",
                  "attribute 'edge': 9999-12-31T23:59:00-01:00 is outside"),
}


def edited_map(log, seed: int, place: str):
    """The attribute map of ``place`` in ``log``, or None where the log has none."""
    pick = random.Random(f"pick:{seed}")
    event = pick.choice(log.events) if log.events else None
    if place == "log":
        return log.attributes
    if place == "trace":
        return pick.choice(log.traces).attributes if log.traces else None
    if event is None:
        return None
    if place == "event":
        return event.attributes
    if place == "node":
        return event.target and log.hierarchy.resolve(event.target).attributes
    return event.user and log.users.get(event.user)


def node_attributes(log) -> dict:
    """Each event's target -> the attribute sets of the nodes it addresses."""
    return {
        event.target: [node and node.attributes for node in log.hierarchy.lookup(event.target)]
        for event in log.events if event.target is not None
    }


def same(log, again) -> bool:
    try:
        genlogs.assert_equivalent(log, again)
    except AssertionError:
        return False
    return node_attributes(log) == node_attributes(again)


def write(writer, log, refusal, where: str, problems: list):
    """The text ``writer`` gives for ``log``, or None where it refuses as
    ``refusal`` says; every other outcome is added to ``problems``."""
    name = writer.__name__
    try:
        text = writer(log)
    except UnserializableValueError as exc:
        if refusal is None or refusal not in str(exc):
            problems.append(f"{where}: {name} refused: {exc}")
        return None
    except Exception as exc:  # the law: nothing but a refusal
        problems.append(f"{where}: {name} raised {type(exc).__name__}: {exc}")
        return None
    if refusal is not None:
        problems.append(f"{where}: {name} wrote what it should refuse ({refusal})")
    return text


def check(seed: int, place: str, edge: str, problems: list) -> bool:
    """Apply ``edge`` at ``place`` of the seed's log and check both
    writers; False where the log has no such map."""
    log = genlogs.random_log(random.Random(seed), MAX_EVENTS)
    mapping = edited_map(log, seed, place)
    if mapping is None:
        return False
    key, value, xes_refusal, table_refusal = EDGES[edge]
    mapping[key] = value
    where = f"seed {seed}, {place} map, {edge}"

    text = write(write_table, log, table_refusal if place == "event" else None, where, problems)
    if text is not None:
        try:
            ingest(text)
        except Exception as exc:
            problems.append(f"{where}: ingest raised {type(exc).__name__}: {exc}")
        if edge == "naive datetime" and place == "event" and NAIVE_WRITTEN not in text:
            problems.append(f"{where}: write_table did not write {NAIVE_WRITTEN}")

    text = write(write_xes, log, xes_refusal, where, problems)
    if text is not None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                again = read_xes(text)
        except Exception as exc:
            problems.append(f"{where}: read_xes raised {type(exc).__name__}: {exc}")
            return True
        mapping[key] = normalize_value(value)
        if not same(log, again):
            problems.append(f"{where}: write_xes output reads back otherwise")
        if edge == "naive datetime" and f'value="{NAIVE_WRITTEN}"' not in text:
            problems.append(f"{where}: write_xes did not write {NAIVE_WRITTEN}")
    return True


def law_problems() -> tuple:
    """(problems, how often each (place, edge) was checked), with the
    local time zone set to Asia/Tokyo and restored after."""
    problems, checked = [], Counter()
    zone = os.environ.get("TZ")
    os.environ["TZ"] = "Asia/Tokyo"
    time.tzset()
    try:
        for seed in SEEDS:
            for place in PLACES:
                for edge in EDGES:
                    if check(seed, place, edge, problems):
                        checked[place, edge] += 1
    finally:
        if zone is None:
            del os.environ["TZ"]
        else:
            os.environ["TZ"] = zone
        time.tzset()
    return problems, checked


def test_each_writer_writes_what_its_reader_reads_or_refuses():
    problems, checked = law_problems()
    assert problems == []
    assert set(checked) == {(place, edge) for place in PLACES for edge in EDGES}


if __name__ == "__main__":
    problems, checked = law_problems()
    for problem in problems:
        print(problem)
    missing = {(place, edge) for place in PLACES for edge in EDGES} - set(checked)
    print(f"{sum(checked.values())} edited logs through both writers: {len(problems)} problems; "
          f"{len(missing)} (place, edge) pairs never checked")
    assert not problems and not missing
